//! Differential tests for the parallel figure sweep ([`run_figure`]).
//!
//! The sweep's contract is that `--threads` is *invisible* in every
//! measured artifact: tables, `--json` reports (including epoch
//! time-series), and Chrome traces must be byte-identical whether the
//! (kernel × machine) matrix ran on one worker or many. These tests run
//! the fig09 smoke configuration (all 12 kernels, baseline + dx100, full
//! observability) serially and on four workers and compare the serialized
//! artifacts byte for byte, then repeat the row comparison with DMP
//! included (the fig12 matrix shape).

use std::path::PathBuf;

use dx100_bench::{run_figure, trace_json, BenchArgs, KernelRow};
use dx100_sim::report::run_stats_json;

/// Minimum dataset sizes: every kernel runs, nothing takes long in debug.
const SMOKE_SCALE: f64 = 1e-9;
const SEED: u64 = 1;

/// The smoke sweep on `threads` workers with full observability, so the
/// comparison covers trace event streams and epoch series, not just
/// end-of-run counters. A trace path turns tracing on; `run_figure`
/// never writes it (only `FigureRun::emit` writes files).
fn sweep(threads: usize) -> BenchArgs {
    BenchArgs {
        scale: SMOKE_SCALE,
        seed: SEED,
        threads,
        trace: Some(PathBuf::from("unwritten-trace.json")),
        epoch: Some(5000),
        ..BenchArgs::default()
    }
}

fn row_fingerprint(r: &KernelRow) -> String {
    let dmp = match &r.dmp {
        Some(d) => run_stats_json(&d.stats).to_string(),
        None => "null".into(),
    };
    format!(
        "{}|{}|{}|{}|{}|{}",
        r.name,
        r.baseline.checksum,
        r.dx100.checksum,
        run_stats_json(&r.baseline.stats),
        run_stats_json(&r.dx100.stats),
        dmp,
    )
}

#[test]
fn full_sweep_is_bit_identical_for_any_thread_count() {
    let serial = run_figure(&sweep(1), false);
    let parallel = run_figure(&sweep(4), false);

    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert_eq!(row_fingerprint(s), row_fingerprint(p), "{}", s.name);
    }
    // The machine-readable report (rows, speedups, run stats, epoch
    // series) and the Chrome trace must serialize to identical bytes.
    assert_eq!(
        serial.report_json("fig09").to_string(),
        parallel.report_json("fig09").to_string(),
    );
    let st = trace_json(&serial.rows);
    assert_eq!(st, trace_json(&parallel.rows));
    assert!(st.contains("traceEvents"));
}

#[test]
fn dmp_sweep_rows_are_thread_count_invariant() {
    // The fig12 shape: three machines per kernel, so job order inside a
    // kernel (baseline, dx100, dmp) is exercised too.
    let serial = run_figure(&sweep(1), true);
    let parallel = run_figure(&sweep(3), true);
    assert_eq!(serial.rows.len(), parallel.rows.len());
    for (s, p) in serial.rows.iter().zip(&parallel.rows) {
        assert!(s.dmp.is_some(), "{}: dmp machine missing", s.name);
        assert_eq!(row_fingerprint(s), row_fingerprint(p), "{}", s.name);
    }
}

#[test]
fn figure_run_walltime_is_per_job_and_ordered() {
    let args = BenchArgs {
        scale: SMOKE_SCALE,
        threads: 4,
        ..BenchArgs::default()
    };
    let fig = run_figure(&args, false);
    // One walltime entry per (kernel × machine) job, in job order:
    // kernel-major, baseline before dx100.
    assert_eq!(fig.walltime.len(), fig.rows.len() * 2);
    for (row, pair) in fig.rows.iter().zip(fig.walltime.chunks(2)) {
        assert_eq!(pair[0].kernel, row.name);
        assert_eq!(pair[0].config, "baseline");
        assert_eq!(pair[1].kernel, row.name);
        assert_eq!(pair[1].config, "dx100");
        // Per-job spans measure the job itself, not elapsed-since-start:
        // no job can exceed the whole sweep's wall clock.
        assert!(pair[0].seconds >= 0.0 && pair[0].seconds <= fig.total_seconds);
        assert!(pair[1].seconds >= 0.0 && pair[1].seconds <= fig.total_seconds);
    }
    assert_eq!(fig.threads, 4);
    let wt = fig.walltime_json("fig09").to_string();
    let parsed = dx100_common::json::Json::parse(&wt).unwrap();
    assert_eq!(
        parsed
            .get("threads")
            .and_then(dx100_common::json::Json::as_f64),
        Some(4.0)
    );
    assert_eq!(
        parsed
            .get("jobs")
            .and_then(dx100_common::json::Json::as_f64),
        Some(fig.walltime.len() as f64)
    );
}
