//! The job executor every multi-run subcommand submits to, and the
//! kernel × machine sweep the row figures build on it.
//!
//! A figure enumerates its simulations up front as a list of `Job`s;
//! `execute` runs them across `--threads` workers of the shared
//! order-preserving pool ([`run_parallel`]) and hands the results back in
//! job order, so everything printed from them is byte-identical at any
//! thread count. Each job builds its entire driver state (dataset walk,
//! `System`, observability sinks) on its worker thread and is timed with
//! its own [`Instant`] span. The row figures also emit a
//! `<generator>_sim_walltime.json` from those spans.

use std::time::Instant;

use dx100_common::json::{obj, Json};
use dx100_common::pool::{run_parallel, PoolTask};
use dx100_sim::report::SCHEMA_VERSION;
use dx100_sim::SystemConfig;
use dx100_workloads::{all_kernels, KernelRun, Mode, Scale, WorkloadResult};

use crate::{report_json, trace_json, BenchArgs, KernelRow, Progress};

/// One unit of work for [`execute`]: a label for progress lines and
/// `--profile` summaries, and the simulation to run.
pub(crate) struct Job<'a, T> {
    label: String,
    work: PoolTask<'a, T>,
}

impl<'a, T> Job<'a, T> {
    /// A job running `work` under `label`.
    pub(crate) fn new(label: String, work: impl FnOnce() -> T + Send + 'a) -> Self {
        Job {
            label,
            work: Box::new(work),
        }
    }
}

/// A finished [`Job`].
pub(crate) struct Done<T> {
    /// The job's label.
    pub(crate) label: String,
    /// What the job returned.
    pub(crate) result: T,
    /// Wall-clock seconds the job took on its worker.
    pub(crate) seconds: f64,
}

/// A job that runs `kernel` on the `mode` machine that `cfg` configures.
pub(crate) fn kernel_job<'a>(
    label: String,
    kernel: &'a (dyn KernelRun + Send + Sync),
    mode: Mode,
    cfg: &'a SystemConfig,
    seed: u64,
) -> Job<'a, WorkloadResult> {
    Job::new(label, move || kernel.run(mode, cfg, seed))
}

/// Runs `jobs` on up to `threads` workers, announcing each start and
/// finish on stderr under the `what` header, and returns them finished in
/// job order.
pub(crate) fn execute<T: Send>(what: &str, jobs: Vec<Job<'_, T>>, threads: usize) -> Vec<Done<T>> {
    let threads = threads.clamp(1, jobs.len().max(1));
    let progress = Progress::new(jobs.len());
    progress.header(what, threads);
    let progress = &progress;
    let tasks: Vec<PoolTask<'_, Done<T>>> = jobs
        .into_iter()
        .map(|job| -> PoolTask<'_, Done<T>> {
            Box::new(move || {
                progress.start(&job.label);
                let t = Instant::now();
                let result = (job.work)();
                let seconds = t.elapsed().as_secs_f64();
                progress.finish(&job.label, seconds);
                Done {
                    label: job.label,
                    result,
                    seconds,
                }
            })
        })
        .collect();
    run_parallel(tasks, threads)
}

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

/// Runs the row figures' kernel × machine sweep per `args`: every kernel
/// on the baseline and DX100 machines (and DMP when `with_dmp`), as one
/// job list, kernel-major with machines in that order. The machines come
/// from [`crate::machine_config`], the constructor the job/serve path
/// resolves specs through.
pub fn run_figure(args: &BenchArgs, with_dmp: bool) -> FigureRun {
    let start = Instant::now();
    let kernels = all_kernels(Scale(args.scale));
    let modes: &[Mode] = if with_dmp {
        &[Mode::Baseline, Mode::Dx100, Mode::Dmp]
    } else {
        &[Mode::Baseline, Mode::Dx100]
    };
    let cfgs: Vec<SystemConfig> = modes
        .iter()
        .map(|&m| args.observed(crate::machine_config(m)))
        .collect();
    let mut jobs = Vec::with_capacity(kernels.len() * modes.len());
    for kernel in &kernels {
        for (&mode, cfg) in modes.iter().zip(&cfgs) {
            let label = format!("{}/{}", kernel.name(), mode.label());
            jobs.push(kernel_job(label, &**kernel, mode, cfg, args.seed));
        }
    }
    let threads = args.threads.clamp(1, jobs.len());
    let mut done = execute("full sweep", jobs, threads).into_iter();
    let mut rows = Vec::with_capacity(kernels.len());
    let mut walltime = Vec::with_capacity(kernels.len() * modes.len());
    for kernel in &kernels {
        let mut take = |mode: Mode| {
            let d = done.next().expect("one result per enumerated job");
            walltime.push(WalltimeEntry {
                kernel: kernel.name(),
                config: mode.label(),
                seconds: d.seconds,
                skipped_cycles: d.result.telemetry.skipped_cycles,
                skip_events: d.result.telemetry.skip_events,
            });
            d.result
        };
        rows.push(KernelRow {
            name: kernel.name(),
            baseline: take(Mode::Baseline),
            dx100: take(Mode::Dx100),
            dmp: with_dmp.then(|| take(Mode::Dmp)),
        });
    }
    FigureRun {
        rows,
        walltime,
        total_seconds: start.elapsed().as_secs_f64(),
        threads,
        scale: args.scale,
    }
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
    /// Under `--profile`, first prints every run's bottleneck summary.
    pub fn emit(&self, args: &BenchArgs, generator: &str) {
        for r in &self.rows {
            for (mode, w) in [
                ("baseline", Some(&r.baseline)),
                ("dx100", Some(&r.dx100)),
                ("dmp", r.dmp.as_ref()),
            ] {
                if let Some(w) = w {
                    args.print_run_profile(&format!("{}/{mode}", r.name), w);
                }
            }
        }
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
