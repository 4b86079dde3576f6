//! The figure/table harness behind the `dx100` command: runs the paper's
//! workloads on the simulated machines and prints each figure's rows.
//!
//! One subcommand regenerates each figure or table ([`commands`]):
//!
//! | Subcommand | Reproduces |
//! |---|---|
//! | `fig08a` | All-hit microbenchmark speedups |
//! | `fig08bc` | All-miss gather speedup + bandwidth vs index order |
//! | `fig09` | Speedup across the 12 workloads |
//! | `fig10` | Bandwidth utilization, row-buffer hit rate, occupancy |
//! | `fig11` | Instruction and MPKI reduction |
//! | `fig12` | DX100 vs the DMP indirect prefetcher |
//! | `fig13` | Tile-size sensitivity |
//! | `fig14` | Core/instance scaling |
//! | `table4` | Area and power model |
//! | `ablation` | Reorder/coalesce/interleave/LLC-injection ablations |
//! | `main_results` | Figures 9–11 from one sweep |
//!
//! `job` runs one [`JobSpec`] and `serve` starts the `dx100-serve`
//! daemon on the same specs. [`cli`] is the one strict flag table for all
//! of them; each subcommand honours only the flags it lists, and anything
//! else exits 2 with its usage line.
//!
//! * `--scale <f>` trades fidelity for runtime (default 1.0 ≈ seconds per
//!   run; the paper's full sizes would take hours, like the original gem5
//!   artifact's 84).
//! * `--seed <n>` — dataset RNG seed (default 1).
//! * `--threads <n>` — workers for the figure's job list (default:
//!   available cores). Every figure submits its simulations to one
//!   executor ([`sweep`]) and prints from the results in job order, so
//!   stdout, `--json` reports, epoch series and `--trace` files are
//!   bit-identical at any thread count; only wall-clock time and stderr
//!   progress order change.
//! * `--json <path>` — write a machine-readable report.
//! * `--trace <path>` — write a Chrome trace (load in Perfetto /
//!   `about:tracing`).
//! * `--epoch <cycles>` — sample epoch time-series metrics every N cycles
//!   (included in the `--json` report).
//! * `--profile` — cycle-attribution profiling: every timed component
//!   classifies each of its cycles (stall taxonomy, utilization,
//!   occupancy histograms), the per-run JSON gains a versioned `profile`
//!   section, and a per-run bottleneck summary prints after the table.
//!   Never changes simulated results: `RunStats` are bit-identical with
//!   the flag on or off.

pub mod cli;
pub mod commands;
pub mod jobspec;
pub mod progress;
pub mod sweep;

pub use jobspec::{machine_config, JobSpec};
pub use progress::Progress;
pub use sweep::{run_figure, FigureRun, WalltimeEntry};

use std::path::{Path, PathBuf};

use dx100_common::json::{obj, Json};
use dx100_common::trace::chrome_trace_json;
use dx100_sim::report::{run_stats_json, SCHEMA_VERSION};
use dx100_sim::{ObservabilityConfig, RunStats, SystemConfig};
use dx100_workloads::WorkloadResult;

/// Measurements for one kernel across the machines of interest.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Kernel name.
    pub name: &'static str,
    /// Baseline run.
    pub baseline: WorkloadResult,
    /// DX100 run.
    pub dx100: WorkloadResult,
    /// DMP run (only when requested).
    pub dmp: Option<WorkloadResult>,
}

impl KernelRow {
    /// DX100 speedup over the baseline.
    pub fn speedup(&self) -> f64 {
        self.dx100.stats.speedup_over(&self.baseline.stats)
    }

    /// DX100 speedup over DMP.
    pub fn speedup_vs_dmp(&self) -> Option<f64> {
        self.dmp
            .as_ref()
            .map(|d| self.dx100.stats.speedup_over(&d.stats))
    }
}

/// The figure subcommands' options, filled by [`cli::parse`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchArgs {
    /// Problem-size scale factor (`--scale`, default 1.0).
    pub scale: f64,
    /// Write a machine-readable run report here (`--json`).
    pub json: Option<PathBuf>,
    /// Write a Chrome trace here (`--trace`).
    pub trace: Option<PathBuf>,
    /// Sample epoch metrics every N cycles (`--epoch`).
    pub epoch: Option<u64>,
    /// Cycle-attribution profiling (`--profile`): stall taxonomy +
    /// utilization counters per component, a `profile` section per run in
    /// the `--json` report, and a printed bottleneck summary.
    pub profile: bool,
    /// Worker threads for the figure's job list (`--threads`), with
    /// bit-identical output at any value.
    pub threads: usize,
    /// Dataset RNG seed (`--seed`).
    pub seed: u64,
}

/// Default worker-thread count: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            scale: 1.0,
            json: None,
            trace: None,
            epoch: None,
            profile: false,
            threads: default_threads(),
            seed: 1,
        }
    }
}

impl BenchArgs {
    /// The simulator observability configuration these flags request.
    pub fn observability(&self) -> ObservabilityConfig {
        ObservabilityConfig {
            trace: self.trace.is_some(),
            epoch_cycles: self.epoch,
            profile: self.profile,
        }
    }

    /// `cfg` with the observability these flags request.
    pub fn observed(&self, cfg: SystemConfig) -> SystemConfig {
        SystemConfig {
            obs: self.observability(),
            ..cfg
        }
    }

    /// Prints one run's bottleneck summary under `label`. No-op without
    /// `--profile` or when the run carries no attribution.
    pub fn print_run_profile(&self, label: &str, w: &WorkloadResult) {
        if !self.profile {
            return;
        }
        if let Some(p) = w.telemetry.profile.as_ref() {
            println!("-- {label}");
            print!("{}", p.bottleneck_summary());
        }
    }

    /// Writes a JSON report produced by the subcommand itself (for
    /// figures whose rows are not kernel × machine runs).
    pub fn emit_custom_report(&self, report: &Json) {
        if let Some(path) = &self.json {
            write_or_die(path, &(report.to_string() + "\n"));
            eprintln!("wrote report to {}", path.display());
        }
    }
}

fn write_or_die(path: &Path, contents: &str) {
    if let Err(e) = std::fs::write(path, contents) {
        eprintln!("error: cannot write {}: {e}", path.display());
        std::process::exit(1);
    }
}

/// The machine-readable report for a set of kernel rows: per-kernel
/// speedups plus the full [`run_stats_json`] of every run (including epoch
/// time-series when sampling was on).
pub fn report_json(generator: &str, scale: f64, rows: &[KernelRow]) -> Json {
    let speeds: Vec<f64> = rows.iter().map(KernelRow::speedup).collect();
    obj([
        ("schema_version", SCHEMA_VERSION.into()),
        ("generator", generator.into()),
        ("scale", scale.into()),
        (
            "geomean_speedup",
            dx100_common::stats::geomean(&speeds).into(),
        ),
        ("rows", Json::Arr(rows.iter().map(row_json).collect())),
    ])
}

/// One run's JSON: [`run_stats_json`] plus the run's telemetry (skip
/// counters always; the versioned `profile` section when `--profile`
/// was on, `null` otherwise). Figure reports and job reports share it.
pub(crate) fn run_json(w: &WorkloadResult) -> Json {
    let mut j = run_stats_json(&w.stats);
    if let Json::Obj(fields) = &mut j {
        fields.push(("telemetry".to_string(), w.telemetry.to_json()));
    }
    j
}

fn row_json(r: &KernelRow) -> Json {
    obj([
        ("name", r.name.into()),
        ("speedup", r.speedup().into()),
        (
            "speedup_vs_dmp",
            match r.speedup_vs_dmp() {
                Some(s) => s.into(),
                None => Json::Null,
            },
        ),
        (
            "checksums_match",
            (r.baseline.checksum == r.dx100.checksum).into(),
        ),
        (
            "runs",
            obj([
                ("baseline", run_json(&r.baseline)),
                ("dx100", run_json(&r.dx100)),
                (
                    "dmp",
                    match &r.dmp {
                        Some(d) => run_json(d),
                        None => Json::Null,
                    },
                ),
            ]),
        ),
    ])
}

/// Chrome-trace JSON for every traced run in `rows` (one trace "process"
/// per kernel × machine).
pub fn trace_json(rows: &[KernelRow]) -> String {
    let mut runs = Vec::new();
    for r in rows {
        for (mode, result) in [
            ("baseline", Some(&r.baseline)),
            ("dx100", Some(&r.dx100)),
            ("dmp", r.dmp.as_ref()),
        ] {
            if let Some(buf) = result.and_then(|w| w.stats.trace.as_ref()) {
                runs.push((format!("{}/{mode}", r.name), buf));
            }
            // Profile counter curves live outside `RunStats.trace` (so the
            // trace stays byte-identical with `--profile` on or off); merge
            // them into the viewer file as their own process.
            if let Some(buf) = result.and_then(|w| w.telemetry.counters.as_ref()) {
                if !buf.is_empty() {
                    runs.push((format!("{}/{mode}/profile", r.name), buf));
                }
            }
        }
    }
    chrome_trace_json(&runs)
}

/// Prints a measurement table row-per-kernel; the name column is sized to
/// the longest kernel name.
pub fn print_table(header: &[&str], rows: &[(String, Vec<f64>)]) {
    let width = rows
        .iter()
        .map(|(name, _)| name.len())
        .chain(["kernel".len()])
        .max()
        .unwrap_or(6);
    print!("{:<width$}", "kernel");
    for h in header {
        print!(" {h:>12}");
    }
    println!();
    for (name, vals) in rows {
        print!("{name:<width$}");
        for v in vals {
            print!(" {v:>12.3}");
        }
        println!();
    }
}

/// Geometric-mean summary line.
pub fn print_geomean(label: &str, values: &[f64]) {
    println!(
        "{label}: geomean {:.2}x over {} kernels",
        dx100_common::stats::geomean(values),
        values.len()
    );
}

/// Formats the headline stats of one run (debug helper).
pub fn summarize(name: &str, s: &RunStats) -> String {
    format!(
        "{name}: {} cycles, {} instrs, bw {:.1}% ({:.1} GB/s), rbh {:.1}%, occ {:.2}, llc-mpki {:.2}",
        s.cycles,
        s.instructions,
        s.bandwidth_utilization() * 100.0,
        s.bandwidth_gbps(),
        s.row_buffer_hit_rate() * 100.0,
        s.request_buffer_occupancy(),
        s.llc_mpki()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_has_stable_shape() {
        let report = report_json("figXX", 0.1, &[]);
        let parsed = Json::parse(&report.to_string()).unwrap();
        assert_eq!(
            parsed.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        assert_eq!(
            parsed.get("generator").and_then(Json::as_str),
            Some("figXX")
        );
        assert!(parsed.get("rows").and_then(Json::as_arr).is_some());
    }
}
