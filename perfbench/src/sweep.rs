//! The `sweep` workload: the paper's kernel × machine matrix, one
//! `KernelRun::run` per op, repeated pass after pass until the time budget
//! is spent. Its traced run adds passes of the observed matrix, which
//! give the observability layer's numbers.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use dx100_common::json::Json;
use dx100_common::trace::chrome_trace_json;
use dx100_sim::report::run_stats_json;
use dx100_sim::{ObservabilityConfig, SystemConfig};
use dx100_workloads::{all_kernels, KernelRun, Mode, Scale, WorkloadResult};

use crate::calib::Calibration;
use crate::counters::{mode_index, Counters};
use crate::spans::{self, Spans};
use crate::stats::{done_times, median, per_op_min, tail};
use crate::{Outcome, Report};

/// Dataset scale of every pass (the CI smoke scale): a 36-job pass
/// takes a few seconds, so one run measures several passes.
pub const SCALE: f64 = 0.02;

/// Epoch length of an observed pass, as in the CI smoke run.
const EPOCH_CYCLES: u64 = 5000;

/// [`SETUP_BATCHES`] batches of [`SETUP_BATCH`] set-ups are timed before
/// each pass, so the figure samples the whole run, not only its first
/// milliseconds. `setup_s` reads their means like the ops: the `i`th batch
/// of each pass at its fastest over the run, then the median over `i`.
const SETUP_BATCHES: usize = 3;
const SETUP_BATCH: usize = 200;

/// Which matrix and observability level a pass runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// 12 kernels × {baseline, dmp, dx100}, observability off.
    Plain,
    /// 12 kernels × {baseline, dx100} with profile, epochs and trace on;
    /// each job's report and Chrome trace are serialized and written.
    Observed,
}

/// Everything a pass needs, built before the first op.
struct Plan {
    kernels: Vec<Box<dyn KernelRun + Send + Sync>>,
    /// Indexed by [`mode_index`].
    configs: [SystemConfig; 3],
    /// The same machines with observability off (the reference runs of an
    /// observed pass).
    plain: [SystemConfig; 3],
    jobs: Vec<(usize, Mode)>,
}

fn observed(mut cfg: SystemConfig) -> SystemConfig {
    cfg.obs = ObservabilityConfig {
        trace: true,
        epoch_cycles: Some(EPOCH_CYCLES),
        profile: true,
        ..ObservabilityConfig::default()
    };
    cfg
}

fn plan(kind: Kind) -> Plan {
    let plain = [
        SystemConfig::paper_baseline(),
        SystemConfig::paper_dmp(),
        SystemConfig::paper_dx100(),
    ];
    let (configs, modes): ([SystemConfig; 3], &[Mode]) = match kind {
        Kind::Plain => (plain.clone(), &Mode::ALL),
        Kind::Observed => (plain.clone().map(observed), &[Mode::Baseline, Mode::Dx100]),
    };
    let kernels = all_kernels(Scale(SCALE));
    let jobs = (0..kernels.len())
        .flat_map(|k| modes.iter().map(move |&m| (k, m)))
        .collect();
    Plan {
        kernels,
        configs,
        plain,
        jobs,
    }
}

/// One job's outcome within a pass (the result itself is dropped once
/// counted, so a run's memory does not grow with its pass count).
struct JobOutcome {
    /// Host seconds inside `KernelRun::run`.
    run_s: f64,
    /// Host seconds of the whole op: the run, then its report (and, in an
    /// observed pass, its trace and both files).
    op_s: f64,
    /// Checksum of the verified output; `None` if the run panicked.
    checksum: Option<u64>,
}

/// One pass over the matrix.
struct Pass {
    wall_s: f64,
    kind: Kind,
    traced: bool,
    jobs: Vec<JobOutcome>,
    counters: Counters,
    /// Bytes of Chrome trace written (observed pass).
    trace_bytes: usize,
    /// Peak resident set size during the pass, in MB.
    peak_rss_mb: f64,
}

fn timed_run(
    spans: &mut Spans,
    name: &'static str,
    op: u64,
    kernel: &(dyn KernelRun + Send + Sync),
    mode: Mode,
    cfg: &SystemConfig,
    seed: u64,
) -> (f64, Option<WorkloadResult>) {
    spans.span(name, op, |sp| {
        sp.tag(mode.label());
        let t = Instant::now();
        // A kernel that fails verification panics; count it, keep going.
        let r = catch_unwind(AssertUnwindSafe(|| kernel.run(mode, cfg, seed))).ok();
        (t.elapsed().as_secs_f64(), r)
    })
}

/// A job's run report: `run_stats_json` plus its telemetry, as the
/// figure binaries and the serve daemon write it.
fn report_json(w: &WorkloadResult) -> Json {
    let mut j = run_stats_json(&w.stats);
    if let Json::Obj(fields) = &mut j {
        fields.push(("telemetry".to_string(), w.telemetry.to_json()));
    }
    j
}

#[allow(clippy::too_many_arguments)]
fn run_pass(
    plan: &Plan,
    kind: Kind,
    seed: u64,
    spans: &mut Spans,
    first_op: u64,
    with_reference: bool,
    out: &Path,
    cal: &mut Calibration,
    failures: &mut Vec<String>,
) -> Pass {
    crate::reset_peak_rss();
    let t0 = Instant::now();
    let mut jobs = Vec::with_capacity(plan.jobs.len());
    let mut counters = Counters::default();
    let mut trace_bytes = 0;
    for (i, &(k, mode)) in plan.jobs.iter().enumerate() {
        let op = first_op + i as u64;
        let kernel = &*plan.kernels[k];
        let label = format!("{}/{}", kernel.name(), mode.label());
        let cfg = &plan.configs[mode_index(mode)];
        let reference = with_reference.then(|| {
            let plain_cfg = &plan.plain[mode_index(mode)];
            timed_run(
                spans,
                "workloads.run_plain",
                op,
                kernel,
                mode,
                plain_cfg,
                seed,
            )
            .1
        });
        cal.tick();
        let t_op = Instant::now();
        let run_span = match kind {
            Kind::Plain => "workloads.run",
            Kind::Observed => "workloads.run_observed",
        };
        let (run_s, result) = spans.span("op", op, |sp| {
            let (run_s, result) = timed_run(sp, run_span, op, kernel, mode, cfg, seed);
            let Some(w) = &result else {
                return (run_s, None);
            };
            let report = match kind {
                Kind::Plain => report_json(w).to_string(),
                Kind::Observed => observe(sp, op, &label, w, out, &mut trace_bytes),
            };
            counters.add_stats(mode, &w.stats, &w.telemetry, &report);
            (run_s, result)
        });
        let op_s = t_op.elapsed().as_secs_f64();
        if result.is_none() {
            failures.push(format!("{label}: KernelRun::run panicked"));
        }
        if let Some(reference) = reference {
            // Observability must not move a simulated bit: the plain run
            // of the same job has to agree on cycles and instructions.
            let same = match (&reference, &result) {
                (Some(p), Some(o)) => {
                    p.stats.cycles == o.stats.cycles && p.stats.instructions == o.stats.instructions
                }
                _ => false,
            };
            if !same {
                failures.push(format!("{label}: observed run differs from the plain run"));
            }
        }
        jobs.push(JobOutcome {
            run_s,
            op_s,
            checksum: result.map(|w| w.checksum),
        });
    }
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        kind,
        traced: spans.on(),
        jobs,
        counters,
        trace_bytes,
        peak_rss_mb: crate::peak_rss_mb(),
    }
}

/// The observability tail of one observed job: build the report, serialize
/// it, build the Chrome trace, write both. Returns the report text.
fn observe(
    sp: &mut Spans,
    op: u64,
    label: &str,
    w: &WorkloadResult,
    out: &Path,
    trace_bytes: &mut usize,
) -> String {
    let report = sp.span("sim.report", op, |_| report_json(w));
    let text = sp.span("common.json", op, |_| report.to_string());
    let trace = sp.span("common.trace", op, |_| {
        let mut runs = Vec::new();
        if let Some(buf) = w.stats.trace.as_ref() {
            runs.push((label.to_string(), buf));
        }
        if let Some(buf) = w.telemetry.counters.as_ref() {
            runs.push((format!("{label}/profile"), buf));
        }
        chrome_trace_json(&runs)
    });
    *trace_bytes += trace.len();
    let stem = label.replace('/', "-");
    sp.span("fs.write", op, |_| {
        fs::write(out.join(format!("{stem}.report.json")), &text)
            .and_then(|()| fs::write(out.join(format!("{stem}.trace.json")), &trace))
            .expect("write the observed report and trace");
    });
    text
}

/// Checks one pass: every job ran, each kernel's checksum agrees across
/// its machines, and the simulated counts equal the first pass's.
fn check_pass(plan: &Plan, pass: &Pass, first: &Counters, failures: &mut Vec<String>) {
    for k in 0..plan.kernels.len() {
        let sums: Vec<u64> = plan
            .jobs
            .iter()
            .zip(&pass.jobs)
            .filter(|((kk, _), _)| *kk == k)
            .filter_map(|(_, j)| j.checksum)
            .collect();
        if sums.windows(2).any(|w| w[0] != w[1]) {
            failures.push(format!(
                "{}: checksums differ across machines: {sums:?}",
                plan.kernels[k].name()
            ));
        }
    }
    if pass.counters != *first {
        failures.push("simulated counts differ from the first pass".to_string());
    }
}

/// Runs a sweep for `seconds` and reports its metrics.
///
/// An untraced run repeats plain passes. A traced run cycles through a
/// plain pass, a traced plain pass and a traced observed pass, so that
/// the tracing overhead and the observability cost are both measured
/// within one process.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &Path) -> Outcome {
    // Set-up: what a user waits for before the first op. It takes well
    // under a microsecond, so it is timed in batches.
    let mut setup = Vec::new();
    let mut time_setup = || {
        let batches = (0..SETUP_BATCHES)
            .map(|_| {
                let t = Instant::now();
                for _ in 0..SETUP_BATCH {
                    std::hint::black_box(plan(Kind::Plain));
                }
                t.elapsed().as_secs_f64() / SETUP_BATCH as f64
            })
            .collect();
        setup.push(batches);
    };
    let plain_plan = plan(Kind::Plain);
    let observed_plan = plan(Kind::Observed);
    let out = out.join("sweep");
    fs::create_dir_all(&out).expect("create the output directory");

    let mut spans = Spans::new(false);
    let mut failures = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut cal = Calibration::default();
    let mut first_op = 0;
    let t0 = Instant::now();
    while crate::another_pass(t0, seconds, passes.last().map(|p| p.wall_s)) {
        time_setup();
        let (kind, on) = match (traced, passes.len() % 3) {
            (false, _) | (true, 0) => (Kind::Plain, false),
            (true, 1) => (Kind::Plain, true),
            (true, _) => (Kind::Observed, true),
        };
        let plan = match kind {
            Kind::Plain => &plain_plan,
            Kind::Observed => &observed_plan,
        };
        spans.set_on(on);
        let pass = run_pass(
            plan,
            kind,
            seed,
            &mut spans,
            first_op,
            kind == Kind::Observed,
            &out,
            &mut cal,
            &mut failures,
        );
        first_op += plan.jobs.len() as u64;
        let first = passes
            .iter()
            .find(|p| p.kind == kind)
            .map_or(&pass.counters, |p| &p.counters);
        check_pass(plan, &pass, first, &mut failures);
        passes.push(pass);
    }
    if traced && passes.len() < 3 {
        failures.push("traced run needs three passes; raise --seconds".to_string());
    }
    let attempted = first_op;
    let plain: Vec<&Pass> = passes.iter().filter(|p| p.kind == Kind::Plain).collect();

    let walls: Vec<f64> = plain.iter().map(|p| p.wall_s).collect();
    let job_times = |f: fn(&JobOutcome) -> f64| -> Vec<Vec<f64>> {
        plain
            .iter()
            .map(|p| p.jobs.iter().map(f).collect())
            .collect()
    };
    // A quiet pass: each job at its fastest over the run.
    let op_s = per_op_min(&job_times(|j| j.op_s));
    let run_s: f64 = per_op_min(&job_times(|j| j.run_s)).iter().sum();
    let wall: f64 = op_s.iter().sum();
    // Every job of a pass is submitted at its start, as a figure sweep
    // does, so an op's latency includes its wait behind earlier jobs.
    let op_ms: Vec<f64> = done_times(&op_s).iter().map(|t| t * 1e3).collect();
    let (tail_level, op_tail) = tail(&op_ms).unwrap_or((0.0, f64::NAN));
    let scale = cal.scale();
    let mut r = Report::default();
    r.e2e("wall_s", wall * scale);
    r.e2e("setup_s", median(&per_op_min(&setup)) * scale);
    r.e2e(
        "peak_rss_mb",
        median(&plain.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
    );
    r.e2e(
        "sim_mcycles_per_s",
        plain[0].counters.cycles as f64 / (run_s * scale) / 1e6,
    );
    r.e2e("ops_per_s", plain_plan.jobs.len() as f64 / (wall * scale));
    r.e2e("op_p50_ms", median(&op_ms) * scale);
    r.e2e("op_tail_ms", op_tail * scale);
    r.note(format!(
        "{} passes of {} jobs at scale {SCALE}; host times are each job's \
         fastest; op tail is p{tail_level} of {} jobs",
        plain.len(),
        plain_plan.jobs.len(),
        op_ms.len()
    ));
    r.note(format!(
        "pass wall s: {walls:.3?}; host times scaled by {scale:.3} \
         (reference loop {:.1} ms at its fastest)",
        cal.fastest_s() * 1e3
    ));
    r.note(format!(
        "sim.stats_digest {:013x} over {} simulated cycles per pass",
        plain[0].counters.digest52() as u64,
        plain[0].counters.cycles
    ));

    if traced {
        layer_metrics(&mut r, &passes, &spans);
    }
    Outcome {
        attempted,
        failed: failures.len() as u64,
        failures,
        report: r,
        spans,
    }
}

fn layer_metrics(r: &mut Report, passes: &[Pass], spans: &Spans) {
    let plain = passes.iter().find(|p| p.kind == Kind::Plain);
    for (name, v) in plain.expect("a plain pass").counters.metrics() {
        r.layer(name, v);
    }
    let count = |kind: Kind| {
        passes
            .iter()
            .filter(|p| p.traced && p.kind == kind)
            .count()
            .max(1) as f64
    };
    let (n_plain, n_observed) = (count(Kind::Plain), count(Kind::Observed));
    let total = |name: &str, tag: Option<&str>| {
        // A fold from +0.0: an empty f64 sum is -0.0.
        spans::durations(spans.spans(), name, tag)
            .iter()
            .fold(0.0, |a, b| a + b)
    };
    let cycles_by_mode = &plain.expect("a plain pass").counters.cycles_by_mode;
    for mode in Mode::ALL {
        let run_s = total("workloads.run", Some(mode.label())) / n_plain;
        let cycles = cycles_by_mode[mode_index(mode)];
        r.layer(&format!("workloads.job_s.{}", mode.label()), run_s);
        r.layer(
            &format!("sim.ns_per_cycle.{}", mode.label()),
            if cycles == 0 {
                0.0
            } else {
                run_s * 1e9 / cycles as f64
            },
        );
    }
    let reference = total("workloads.run_plain", None);
    if reference > 0.0 {
        r.layer(
            "obs.job_overhead",
            total("workloads.run_observed", None) / reference,
        );
    }
    let self_s = spans::self_seconds_by_name(spans.spans());
    let ms = |name: &str| self_s.get(name).copied().unwrap_or(0.0) * 1e3 / n_observed;
    r.layer(
        "common.report_json_ms",
        ms("sim.report") + ms("common.json"),
    );
    r.layer("common.trace_json_ms", ms("common.trace"));
    r.layer("common.write_ms", ms("fs.write"));
    if let Some(p) = passes.iter().find(|p| p.kind == Kind::Observed) {
        r.layer("common.trace_mb", p.trace_bytes as f64 / 1e6);
    }
    let walls = |traced: bool| -> Vec<f64> {
        passes
            .iter()
            .filter(|p| p.kind == Kind::Plain && p.traced == traced)
            .map(|p| p.wall_s)
            .collect()
    };
    let (off, on) = (walls(false), walls(true));
    if !off.is_empty() && !on.is_empty() {
        r.layer("trace.overhead", median(&on) / median(&off) - 1.0);
    }
}
