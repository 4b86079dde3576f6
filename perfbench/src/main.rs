//! Host-performance benchmark of the DX100 simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep|served> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. It prints a table of metrics, then, as
//! its last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` (`{name: {value, unit}}`). `--trace 0` reports the end-to-end
//! metrics; `--trace 1` records spans around each call into a layer, runs
//! the layer probes, reports the per-layer metrics and writes the spans to
//! `.bench_out/spans-<workload>.json`. See README.md beside this file.

mod calib;
mod counters;
mod probes;
mod served;
mod spans;
mod stats;
mod sweep;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use dx100_common::json::{obj, Json};

/// End-to-end metrics `(name, unit)`, reported by `--trace 0` on every
/// workload.
pub const END_TO_END: [(&str, &str); 7] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_mcycles_per_s", "Mcycles/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics `(name, unit)`, reported by `--trace 1`. A layer a
/// workload never reaches reads 0.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("sim.cycles", "count"),
    ("sim.skipped_cycles", "count"),
    ("sim.skip_events", "count"),
    ("sim.skip_ratio", "ratio"),
    ("sim.ns_per_cycle.baseline", "ns"),
    ("sim.ns_per_cycle.dmp", "ns"),
    ("sim.ns_per_cycle.dx100", "ns"),
    ("sim.stats_digest", "hash"),
    ("cpu.instructions", "count"),
    ("cpu.mem_ops", "count"),
    ("cpu.stall_cycles", "count"),
    ("probe.chase_ns_per_load", "ns"),
    ("mem.l1_accesses", "count"),
    ("mem.llc_misses", "count"),
    ("mem.mshr_full_stalls", "count"),
    ("probe.cache_ns_per_access", "ns"),
    ("dram.requests", "count"),
    ("dram.row_hit_rate", "ratio"),
    ("dram.bw_util", "ratio"),
    ("probe.dram_ns_per_req", "ns"),
    ("dx100.indirect_lines", "count"),
    ("dx100.words_coalesced", "count"),
    ("dx100.rowtable_stall_cycles", "count"),
    ("probe.gather_ms", "ms"),
    ("probe.functional_gather_ms", "ms"),
    ("dmp.prefetches", "count"),
    ("workloads.jobs", "count"),
    ("workloads.failed", "count"),
    ("workloads.job_s.baseline", "s"),
    ("workloads.job_s.dmp", "s"),
    ("workloads.job_s.dx100", "s"),
    ("obs.job_overhead", "ratio"),
    ("common.report_json_ms", "ms"),
    ("common.trace_json_ms", "ms"),
    ("common.trace_mb", "MB"),
    ("common.write_ms", "ms"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_tail_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_tail_ms", "ms"),
    ("serve.hits", "count"),
    ("serve.misses", "count"),
    ("serve.jobs_simulated", "count"),
    ("serve.cache_mb", "MB"),
    ("trace.overhead", "ratio"),
];

/// Where runs write reports, traces, the served cache and spans.
const OUT_DIR: &str = ".bench_out";

/// Metrics a workload measured, by name.
#[derive(Default)]
pub struct Report {
    e2e: BTreeMap<String, f64>,
    layer: BTreeMap<String, f64>,
    notes: Vec<String>,
}

impl Report {
    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &str, v: f64) {
        self.e2e.insert(name.to_string(), v);
    }

    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &str, v: f64) {
        self.layer.insert(name.to_string(), v);
    }

    /// Adds a line to the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A workload's result.
pub struct Outcome {
    /// Ops attempted (jobs or requests).
    pub attempted: u64,
    /// Ops whose check failed.
    pub failed: u64,
    /// What failed, one line each.
    pub failures: Vec<String>,
    /// Measured metrics.
    pub report: Report,
    /// Spans recorded by a traced run.
    pub spans: spans::Spans,
}

/// SplitMix64: the benchmark's seeded generator (std only).
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: perfbench --workload <sweep|served> \
     --seed <n> --seconds <n> --trace <0|1>";

const WORKLOADS: [&str; 2] = ["sweep", "served"];

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut got: BTreeMap<String, String> = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let key = match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => flag,
            other => return Err(format!("unknown argument `{other}`")),
        };
        let value = it.next().ok_or_else(|| format!("{key} requires a value"))?;
        if got.insert(key.clone(), value).is_some() {
            return Err(format!("duplicate flag {key}"));
        }
    }
    let take = |k: &str| {
        got.get(k)
            .cloned()
            .ok_or_else(|| format!("{k} is required"))
    };
    let workload = take("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let seed = take("--seed")?;
    let seconds = take("--seconds")?;
    let trace = take("--trace")?;
    Ok(Args {
        workload,
        seed: seed
            .parse()
            .map_err(|_| format!("invalid --seed `{seed}`"))?,
        seconds: seconds
            .parse::<f64>()
            .ok()
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or_else(|| format!("invalid --seconds `{seconds}`"))?,
        trace: match trace.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(format!("invalid --trace `{trace}` (want 0 or 1)")),
        },
    })
}

/// Restarts the peak resident set size of this process from its current
/// size, so that [`peak_rss_mb`] reads the peak of one pass. A kernel that
/// refuses leaves the peak running over the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process (`VmHWM`), in MB. The served
/// daemon runs in-process, so this is the daemon's peak too.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Whether a run that started at `t0` with a budget of `seconds` starts
/// another pass: always the first; later ones only if one more pass as
/// long as the last is expected to end within the budget.
pub fn another_pass(t0: Instant, seconds: f64, last_pass_s: Option<f64>) -> bool {
    match last_pass_s {
        None => true,
        Some(last) => t0.elapsed().as_secs_f64() + last <= seconds,
    }
}

/// The result line: the metrics of the requested kind, in declaration
/// order. `correct` needs no failed op and every value finite.
fn result_json(outcome: &Outcome, trace: bool) -> Json {
    let (list, values): (&[(&str, &str)], _) = if trace {
        (&PER_LAYER, &outcome.report.layer)
    } else {
        (&END_TO_END, &outcome.report.e2e)
    };
    let metrics = list
        .iter()
        .map(|&(name, unit)| {
            // Per-layer: a layer this workload never reaches reads 0.
            // End-to-end: only a run that failed may lack a metric.
            let v = match values.get(name) {
                Some(v) => *v,
                None if trace || outcome.failed > 0 => 0.0,
                None => panic!("workload did not measure {name}"),
            };
            (
                name.to_string(),
                obj([("value", v.into()), ("unit", unit.into())]),
            )
        })
        .collect();
    let correct = outcome.failed == 0
        && list
            .iter()
            .all(|(n, _)| values.get(*n).is_none_or(|v| v.is_finite()));
    obj([
        ("correct", correct.into()),
        ("attempted", outcome.attempted.into()),
        ("failed", outcome.failed.into()),
        ("metrics", Json::Obj(metrics)),
    ])
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = Path::new(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(out) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }
    let mut outcome = match args.workload.as_str() {
        "sweep" => sweep::run(args.seed, args.seconds, args.trace, out),
        "served" => served::run(args.seed, args.seconds, args.trace, out),
        _ => unreachable!("workload validated by parse_args"),
    };
    let r = &mut outcome.report;
    if args.trace {
        r.layer("workloads.failed", outcome.failed as f64);
        probes::run(r);
        let path = out.join(format!("spans-{}.json", args.workload));
        if let Err(e) = std::fs::write(&path, outcome.spans.to_json().to_string()) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
            return ExitCode::from(1);
        }
        r.note(format!(
            "{} spans written to {}",
            outcome.spans.spans().len(),
            path.display()
        ));
    }

    let r = &outcome.report;
    println!(
        "workload {} seed {} trace {}",
        args.workload, args.seed, args.trace as u8
    );
    for n in &r.notes {
        println!("  {n}");
    }
    for f in &outcome.failures {
        println!("  FAILED: {f}");
    }
    let (list, values) = if args.trace {
        (&PER_LAYER[..], &r.layer)
    } else {
        (&END_TO_END[..], &r.e2e)
    };
    for (name, unit) in list {
        let v = values.get(*name).copied().unwrap_or(0.0);
        println!("  {name:<30} {v:>16.6} {unit}");
    }
    println!("{}", result_json(&outcome, args.trace));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn args_are_strict() {
        let a = parse("--workload served --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: "served".into(),
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload sweep --seed -1 --seconds 1 --trace 0",
            "--workload sweep --seed 1 --seconds 0 --trace 0",
            "--workload sweep --seed 1 --seconds 1 --trace 2",
            "--workload sweep --seed 1 --seconds 1",
            "--workload sweep --seed 1 --seed 2 --seconds 1 --trace 0",
            "--workload sweep --seed 1 --seconds 1 --trace 0 --frob 1",
        ] {
            assert!(parse(bad).is_err(), "{bad}");
        }
    }

    /// The metric lists here and in BENCHMARK.json must agree.
    #[test]
    fn metric_lists_match_the_benchmark_definition() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let def = Json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            def.get(key)
                .and_then(Json::as_arr)
                .expect(key)
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| -> Vec<(String, String)> {
            l.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = def
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(9);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(9);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (0.0..1.0).contains(&r.next_f64())));
    }
}
