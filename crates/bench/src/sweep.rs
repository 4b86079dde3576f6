//! The figure sweep: the one entry point row-based figure binaries call.
//!
//! Every kernel × machine is an independent full-fidelity job, executed
//! across `--threads` workers by [`run_parallel`]. The sweep is timed per
//! job, so every figure also emits a `<generator>_sim_walltime.json`.

use std::time::Instant;

use dx100_common::json::{obj, Json};
use dx100_common::pool::run_parallel;
use dx100_sim::report::SCHEMA_VERSION;
use dx100_sim::{ObservabilityConfig, SystemConfig};
use dx100_workloads::{all_kernels, KernelRun, Mode, Scale, WorkloadResult};

use crate::{report_json, trace_json, BenchArgs, KernelRow, Progress};

/// Wall-clock seconds spent simulating one kernel × machine.
#[derive(Debug, Clone)]
pub struct WalltimeEntry {
    /// Kernel name.
    pub kernel: &'static str,
    /// Machine configuration label (`baseline` / `dx100` / `dmp`).
    pub config: &'static str,
    /// Simulation seconds.
    pub seconds: f64,
    /// Cycles on which no unit ticked (activity gating).
    pub skipped_cycles: u64,
    /// Entries into the everything-asleep path.
    pub skip_events: u64,
}

/// A figure sweep's measurements: rows for the figure and timing for the
/// walltime report.
pub struct FigureRun {
    /// One row per kernel.
    pub rows: Vec<KernelRow>,
    /// Per kernel × machine simulation seconds.
    pub walltime: Vec<WalltimeEntry>,
    /// End-to-end sweep seconds.
    pub total_seconds: f64,
    /// Worker threads used.
    pub threads: usize,
    scale: f64,
}

/// Runs the figure's kernel × machine sweep per `args`.
pub fn run_figure(args: &BenchArgs, with_dmp: bool) -> FigureRun {
    let start = Instant::now();
    let kernels = all_kernels(Scale(args.scale));
    let jobs = kernels.len() * if with_dmp { 3 } else { 2 };
    let threads = args.threads.clamp(1, jobs);
    let (rows, walltime) = run_matrix(
        &kernels,
        with_dmp,
        args.seed,
        &args.observability(),
        threads,
    );
    FigureRun {
        rows,
        walltime,
        total_seconds: start.elapsed().as_secs_f64(),
        threads,
        scale: args.scale,
    }
}

/// Executes the full-fidelity (kernel × machine) job matrix on `threads`
/// workers, returning the figure rows plus one per-job walltime entry.
///
/// Jobs are enumerated up front, kernel-major with machines in baseline /
/// dx100 / dmp order, and the shared pool collects results in that job
/// order — so rows, and everything derived from them, are bit-identical at
/// any thread count. Each job constructs its entire driver state (dataset
/// walk, `System`, observability sinks) on its worker thread and is timed
/// with its own [`Instant`] span, so per-job seconds stay accurate under
/// concurrency.
fn run_matrix(
    kernels: &[Box<dyn KernelRun + Send + Sync>],
    with_dmp: bool,
    seed: u64,
    obs: &ObservabilityConfig,
    threads: usize,
) -> (Vec<KernelRow>, Vec<WalltimeEntry>) {
    let modes: Vec<(Mode, SystemConfig)> = sweep_modes(with_dmp)
        .into_iter()
        .map(|(m, mut cfg)| {
            cfg.obs = obs.clone();
            (m, cfg)
        })
        .collect();
    let jobs = kernels.len() * modes.len();
    let progress = Progress::new(jobs);
    progress.header("full sweep", threads);
    let mut tasks: Vec<Box<dyn FnOnce() -> (WorkloadResult, f64) + Send + '_>> = Vec::new();
    for kernel in kernels {
        for (mode, cfg) in &modes {
            let progress = &progress;
            tasks.push(Box::new(move || {
                let label = format!("{}/{}", kernel.name(), mode.label());
                progress.start(&label);
                let t = Instant::now();
                let r = kernel.run(*mode, cfg, seed);
                let secs = t.elapsed().as_secs_f64();
                progress.finish(&label, secs);
                (r, secs)
            }));
        }
    }
    let mut results = run_parallel(tasks, threads).into_iter();
    let mut rows = Vec::with_capacity(kernels.len());
    let mut walltime = Vec::with_capacity(jobs);
    for kernel in kernels {
        let mut take = |mode: Mode| {
            let (r, secs) = results.next().expect("one result per enumerated job");
            walltime.push(WalltimeEntry {
                kernel: kernel.name(),
                config: mode.label(),
                seconds: secs,
                skipped_cycles: r.telemetry.skipped_cycles,
                skip_events: r.telemetry.skip_events,
            });
            r
        };
        rows.push(KernelRow {
            name: kernel.name(),
            baseline: take(Mode::Baseline),
            dx100: take(Mode::Dx100),
            dmp: with_dmp.then(|| take(Mode::Dmp)),
        });
    }
    (rows, walltime)
}

/// The modes a sweep runs, with their machine configurations — built by
/// [`crate::jobspec::machine_config`], the same constructor the job/serve
/// path resolves specs through.
fn sweep_modes(with_dmp: bool) -> Vec<(Mode, SystemConfig)> {
    let mut m = vec![
        (Mode::Baseline, crate::machine_config(Mode::Baseline)),
        (Mode::Dx100, crate::machine_config(Mode::Dx100)),
    ];
    if with_dmp {
        m.push((Mode::Dmp, crate::machine_config(Mode::Dmp)));
    }
    m
}

impl FigureRun {
    /// The walltime report (`<generator>_sim_walltime.json` contents):
    /// the worker-thread count used, per-job seconds (one entry per
    /// kernel × machine, each timed on its own worker), and the end-to-end
    /// sweep total.
    pub fn walltime_json(&self, generator: &str) -> Json {
        obj([
            ("schema_version", SCHEMA_VERSION.into()),
            ("generator", generator.into()),
            ("scale", self.scale.into()),
            ("threads", self.threads.into()),
            ("jobs", self.walltime.len().into()),
            (
                "entries",
                Json::Arr(
                    self.walltime
                        .iter()
                        .map(|e| {
                            obj([
                                ("kernel", e.kernel.into()),
                                ("config", e.config.into()),
                                ("seconds", e.seconds.into()),
                                ("skipped_cycles", e.skipped_cycles.into()),
                                ("skip_events", e.skip_events.into()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("total_seconds", self.total_seconds.into()),
        ])
    }

    /// The full `--json` report ([`report_json`] over this sweep's rows).
    pub fn report_json(&self, generator: &str) -> Json {
        report_json(generator, self.scale, &self.rows)
    }

    /// Writes the figure's artifacts: the `--json` report and `--trace`
    /// file when requested, and `<generator>_sim_walltime.json` always.
    /// Under `--profile`, first prints the per-run bottleneck summaries.
    pub fn emit(&self, args: &BenchArgs, generator: &str) {
        args.print_profile(&self.rows);
        if let Some(path) = &args.json {
            crate::write_or_die(path, &(self.report_json(generator).to_string() + "\n"));
            eprintln!("wrote report to {}", path.display());
        }
        if let Some(path) = &args.trace {
            crate::write_or_die(path, &trace_json(&self.rows));
            eprintln!("wrote trace to {} (open in Perfetto)", path.display());
        }
        let wt = std::path::PathBuf::from(format!("{generator}_sim_walltime.json"));
        crate::write_or_die(&wt, &(self.walltime_json(generator).to_string() + "\n"));
        eprintln!(
            "wrote walltime report to {} ({:.1}s total)",
            wt.display(),
            self.total_seconds
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walltime_and_figure_reports_have_stable_shape() {
        let keys = |v: &Json| match v {
            Json::Obj(fields) => {
                let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                names.join(",")
            }
            other => panic!("not an object: {other}"),
        };
        let args = BenchArgs {
            scale: 1e-9,
            threads: 2,
            ..BenchArgs::default()
        };
        let fig = run_figure(&args, false);
        let wt = Json::parse(&fig.walltime_json("fig09").to_string()).unwrap();
        assert_eq!(
            keys(&wt),
            "schema_version,generator,scale,threads,jobs,entries,total_seconds"
        );
        assert_eq!(
            wt.get("schema_version").and_then(Json::as_f64),
            Some(SCHEMA_VERSION as f64)
        );
        let rep = Json::parse(&fig.report_json("fig09").to_string()).unwrap();
        assert_eq!(
            keys(&rep),
            "schema_version,generator,scale,geomean_speedup,rows"
        );
        assert_eq!(
            rep.get("rows").and_then(Json::as_arr).map(|r| r.len()),
            Some(12)
        );
    }
}
