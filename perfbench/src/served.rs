//! The `served` workload: the `dx100-serve` daemon in-process, one
//! simulation worker, a fresh empty cache per pass, and one client in a
//! closed loop sending a seeded, skewed stream of job specs.
//!
//! Every spec in the universe appears at least once per pass, so each pass
//! simulates the same jobs (its misses) and answers the rest from the
//! cache (its hits); only the order and the skew depend on the seed.

use std::fs;
use std::path::Path;
use std::time::Instant;

use dx100_common::flags::ServeOpts;
use dx100_common::json::Json;
use dx100_serve::http::request;
use dx100_serve::{Server, ServerHandle};
use dx100_workloads::{all_kernels, Mode, Scale};

use crate::calib::Calibration;
use crate::counters::Counters;
use crate::spans::Spans;
use crate::stats::{median, per_op_min, tail};
use crate::{Outcome, Report, Rng};

/// Dataset scale of every served job.
const SCALE: f64 = 0.02;
/// Dataset seeds per (kernel, machine).
const DATASET_SEEDS: u64 = 2;
/// Requests per pass: misses (one per spec) are about 3% of them.
const REQUESTS: usize = 1500;
/// Zipf exponent of the request skew.
const ZIPF_S: f64 = 1.0;
/// Daemon starts timed before each pass. `setup_s` reads them like the
/// ops: the `i`th start of each pass at its fastest over the run, then
/// the median over `i`.
const SETUP_REPS: usize = 20;

/// One distinct job spec and its request body.
struct Spec {
    machine: Mode,
    body: String,
}

fn universe(seed: u64) -> Vec<Spec> {
    let mut specs = Vec::new();
    for k in all_kernels(Scale(SCALE)) {
        for machine in [Mode::Baseline, Mode::Dx100] {
            for d in 0..DATASET_SEEDS {
                let dataset_seed = seed.wrapping_mul(DATASET_SEEDS).wrapping_add(d);
                specs.push(Spec {
                    machine,
                    body: format!(
                        r#"{{"kernel":"{}","machine":"{}","scale":{SCALE},"seed":{dataset_seed}}}"#,
                        k.name(),
                        machine.label()
                    ),
                });
            }
        }
    }
    specs
}

/// The request stream: every spec once, the rest Zipf-distributed over a
/// seeded popularity order, shuffled.
fn stream(n_specs: usize, seed: u64) -> Vec<usize> {
    let mut rng = Rng::new(seed ^ 0x5eed_5e7e);
    let mut popularity: Vec<usize> = (0..n_specs).collect();
    rng.shuffle(&mut popularity);
    let weights: Vec<f64> = (1..=n_specs)
        .map(|r| 1.0 / (r as f64).powf(ZIPF_S))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut out: Vec<usize> = (0..n_specs).collect();
    while out.len() < REQUESTS {
        let mut u = rng.next_f64() * total;
        let mut rank = 0;
        while rank + 1 < n_specs && u >= weights[rank] {
            u -= weights[rank];
            rank += 1;
        }
        out.push(popularity[rank]);
    }
    rng.shuffle(&mut out);
    out
}

/// One request as the client saw it.
struct Sample {
    latency_s: f64,
    hit: bool,
}

struct Pass {
    wall_s: f64,
    traced: bool,
    samples: Vec<Sample>,
    counters: Counters,
    /// Health counters at the end of the pass.
    jobs_simulated: u64,
    cache_bytes: u64,
    /// Peak resident set size during the pass, in MB.
    peak_rss_mb: f64,
}

fn health(addr: &str) -> Result<Json, String> {
    let r = request(addr, "GET", "/v1/health", None).map_err(|e| format!("health: {e}"))?;
    if r.status != 200 {
        return Err(format!("health answered {}", r.status));
    }
    Json::parse(r.body.trim_end()).map_err(|e| format!("health body: {e}"))
}

fn field(v: &Json, path: &[&str]) -> u64 {
    let mut v = v;
    for key in path {
        match v.get(key) {
            Some(x) => v = x,
            None => return 0,
        }
    }
    v.as_f64().unwrap_or(0.0) as u64
}

/// A running daemon and its address.
struct Daemon {
    handle: ServerHandle,
    addr: String,
}

/// Starts the daemon on an empty `cache_dir` and waits until
/// `/v1/health` answers; returns it with the seconds that took.
fn start(cache_dir: &Path) -> Result<(Daemon, f64), String> {
    if cache_dir.exists() {
        fs::remove_dir_all(cache_dir).map_err(|e| format!("clear cache: {e}"))?;
    }
    let t = Instant::now();
    let opts = ServeOpts {
        addr: "127.0.0.1:0".to_string(),
        cache_dir: cache_dir.to_path_buf(),
        max_jobs: 1,
        // Far above the working set: eviction follows file mtimes, which
        // would make the miss count vary.
        cache_cap_mb: 1024,
    };
    let server = Server::bind(&opts).map_err(|e| format!("bind: {e}"))?;
    let handle = server.spawn();
    let daemon = Daemon {
        addr: handle.addr.to_string(),
        handle,
    };
    match health(&daemon.addr) {
        Ok(_) => Ok((daemon, t.elapsed().as_secs_f64())),
        Err(e) => Err(stop(daemon).err().unwrap_or(e)),
    }
}

/// Shuts the daemon down and waits for it to drain and exit.
fn stop(d: Daemon) -> Result<(), String> {
    let shutdown = request(&d.addr, "POST", "/v1/shutdown", None);
    d.handle.join();
    match shutdown {
        Ok(r) if r.status == 200 => Ok(()),
        Ok(r) => Err(format!("shutdown answered {}", r.status)),
        Err(e) => Err(format!("shutdown: {e}")),
    }
}

fn run_pass(
    specs: &[Spec],
    order: &[usize],
    cache_dir: &Path,
    spans: &mut Spans,
    first_op: u64,
    cal: &mut Calibration,
    failures: &mut Vec<String>,
) -> Result<Pass, String> {
    crate::reset_peak_rss();
    let (daemon, _) = start(cache_dir)?;
    let addr = daemon.addr.clone();
    let result = (|| {
        // The first response per spec: its report bytes (everything from
        // the `report` key on; the envelope before it carries the job id).
        let mut first: Vec<Option<String>> = vec![None; specs.len()];
        let mut samples = Vec::with_capacity(order.len());
        let mut counters = Counters::default();
        let t0 = Instant::now();
        for (i, &s) in order.iter().enumerate() {
            let op = first_op + i as u64;
            cal.tick();
            spans.span("op", op, |sp| {
                let t = Instant::now();
                let resp = sp.span("serve.request", op, |sp| {
                    let r = request(&addr, "POST", "/v1/jobs", Some(&specs[s].body));
                    let hit = matches!(&r, Ok(r) if r.header("x-dx100-cache") == Some("hit"));
                    sp.tag(if hit { "hit" } else { "miss" });
                    r
                });
                let latency_s = t.elapsed().as_secs_f64();
                // One sample per request, failed or not, so request `i`
                // lines up across passes.
                let hit = matches!(&resp, Ok(r) if r.body.contains(r#""cached":true"#));
                samples.push(Sample { latency_s, hit });
                let resp = match resp {
                    Ok(r) if r.status == 200 => r,
                    Ok(r) => return failures.push(format!("request {i}: status {}", r.status)),
                    Err(e) => return failures.push(format!("request {i}: {e}")),
                };
                let Some(at) = resp.body.find(r#","report":"#) else {
                    return failures.push(format!("request {i}: no report in response"));
                };
                let report = &resp.body[at..];
                match (&first[s], hit) {
                    (None, false) => {
                        let parsed = Json::parse(resp.body.trim_end())
                            .ok()
                            .and_then(|v| v.get("report").and_then(|r| r.get("run")).cloned());
                        match parsed {
                            Some(run) => {
                                if let Err(e) = counters.add_report(specs[s].machine, &run, report)
                                {
                                    failures.push(format!("request {i}: {e}"));
                                }
                            }
                            None => failures.push(format!("request {i}: unparsable report")),
                        }
                        first[s] = Some(report.to_string());
                    }
                    (Some(miss), true) if miss == report => {}
                    (Some(_), true) => {
                        failures.push(format!("request {i}: hit bytes differ from the miss"))
                    }
                    (None, true) => failures.push(format!("request {i}: first request hit")),
                    (Some(_), false) => failures.push(format!("request {i}: repeat missed")),
                }
            });
        }
        let wall_s = t0.elapsed().as_secs_f64();
        let h = health(&addr)?;
        Ok(Pass {
            wall_s,
            traced: spans.on(),
            samples,
            counters,
            jobs_simulated: field(&h, &["jobs_simulated"]),
            cache_bytes: field(&h, &["cache", "bytes"]),
            peak_rss_mb: crate::peak_rss_mb(),
        })
    })();
    stop(daemon).and(result)
}

/// Runs the served workload for `seconds` and reports its metrics.
pub fn run(seed: u64, seconds: f64, traced: bool, out: &Path) -> Outcome {
    let specs = universe(seed);
    let order = stream(specs.len(), seed);
    let cache_dir = out.join("served-cache");
    let mut spans = Spans::new(false);
    let mut failures = Vec::new();
    let mut setup = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut cal = Calibration::default();
    let t0 = Instant::now();
    let mut last_pass_s = None;
    while crate::another_pass(t0, seconds, last_pass_s) {
        let pass_start = Instant::now();
        // Set-up, several times: each start is a fresh daemon on an empty
        // cache, shut down again before the next.
        let mut starts = Vec::with_capacity(SETUP_REPS);
        for _ in 0..SETUP_REPS {
            match start(&cache_dir).and_then(|(d, s)| stop(d).map(|()| s)) {
                Ok(s) => starts.push(s),
                Err(e) => failures.push(e),
            }
        }
        setup.push(starts);
        spans.set_on(traced && passes.len() % 2 == 1);
        let first_op = (passes.len() * order.len()) as u64;
        match run_pass(
            &specs,
            &order,
            &cache_dir,
            &mut spans,
            first_op,
            &mut cal,
            &mut failures,
        ) {
            Ok(p) => {
                last_pass_s = Some(pass_start.elapsed().as_secs_f64());
                if p.jobs_simulated != specs.len() as u64 {
                    failures.push(format!(
                        "daemon simulated {} jobs for {} specs",
                        p.jobs_simulated,
                        specs.len()
                    ));
                }
                if let Some(first) = passes.first() {
                    if first.counters != p.counters {
                        failures.push("simulated counts differ from the first pass".to_string());
                    }
                }
                passes.push(p);
            }
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }
    let _ = fs::remove_dir_all(&cache_dir);
    let attempted = (passes.len().max(1) * order.len()) as u64;
    let mut r = Report::default();
    if passes.is_empty() || per_op_min(&setup).is_empty() {
        return Outcome {
            attempted,
            failed: failures.len() as u64,
            failures,
            report: r,
            spans,
        };
    }

    // A quiet pass: each request at its fastest over the run (request `i`
    // is the same spec, hit or miss, in every pass).
    let latency_s = per_op_min(
        &passes
            .iter()
            .map(|p| p.samples.iter().map(|s| s.latency_s).collect())
            .collect::<Vec<_>>(),
    );
    let wall: f64 = latency_s.iter().sum();
    let miss_s: f64 = latency_s
        .iter()
        .zip(&passes[0].samples)
        .filter(|(_, s)| !s.hit)
        .map(|(t, _)| t)
        .sum();
    let ms: Vec<f64> = latency_s.iter().map(|t| t * 1e3).collect();
    let (tail_level, op_tail) = tail(&ms).unwrap_or((0.0, f64::NAN));
    let scale = cal.scale();
    r.e2e("wall_s", wall * scale);
    r.e2e("setup_s", median(&per_op_min(&setup)) * scale);
    r.e2e(
        "peak_rss_mb",
        median(&passes.iter().map(|p| p.peak_rss_mb).collect::<Vec<_>>()),
    );
    r.e2e("ops_per_s", latency_s.len() as f64 / (wall * scale));
    r.e2e("op_p50_ms", median(&ms) * scale);
    r.e2e("op_tail_ms", op_tail * scale);
    r.e2e(
        "sim_mcycles_per_s",
        passes[0].counters.cycles as f64 / (miss_s * scale) / 1e6,
    );
    let misses = passes[0].samples.iter().filter(|s| !s.hit).count();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_s).collect();
    r.note(format!(
        "{} passes of {} requests ({} misses) over {} specs at scale {SCALE}; \
         host times are each request's fastest; op tail is p{tail_level}",
        passes.len(),
        order.len(),
        misses,
        specs.len(),
    ));
    r.note(format!(
        "pass wall s: {walls:.3?}; host times scaled by {scale:.3} \
         (reference loop {:.1} ms at its fastest)",
        cal.fastest_s() * 1e3
    ));
    r.note(format!(
        "sim.stats_digest {:013x} over {} simulated cycles per pass",
        passes[0].counters.digest52() as u64,
        passes[0].counters.cycles
    ));

    if traced {
        let p0 = &passes[0];
        for (name, v) in p0.counters.metrics() {
            r.layer(name, v);
        }
        r.layer("serve.hits", (p0.samples.len() - misses) as f64);
        r.layer("serve.misses", misses as f64);
        r.layer("serve.jobs_simulated", p0.jobs_simulated as f64);
        r.layer("serve.cache_mb", p0.cache_bytes as f64 / 1e6);
        // Latencies pooled over every pass of this run: one pass has too
        // few misses for a tail with ten samples beyond it.
        for (hit, p50, tail_name) in [
            (true, "serve.hit_p50_ms", "serve.hit_tail_ms"),
            (false, "serve.miss_p50_ms", "serve.miss_tail_ms"),
        ] {
            let ms: Vec<f64> = passes
                .iter()
                .flat_map(|p| &p.samples)
                .filter(|s| s.hit == hit)
                .map(|s| s.latency_s * 1e3)
                .collect();
            if !ms.is_empty() {
                r.layer(p50, median(&ms));
            }
            if let Some((_, t)) = tail(&ms) {
                r.layer(tail_name, t);
            }
        }
        let walls = |on: bool| -> Vec<f64> {
            passes
                .iter()
                .filter(|p| p.traced == on)
                .map(|p| p.wall_s)
                .collect()
        };
        let (off, on) = (walls(false), walls(true));
        if !off.is_empty() && !on.is_empty() {
            r.layer("trace.overhead", median(&on) / median(&off) - 1.0);
        }
    }
    Outcome {
        attempted,
        failed: failures.len() as u64,
        failures,
        report: r,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_covers_every_spec_and_repeats_per_seed() {
        let a = stream(48, 7);
        assert_eq!(a.len(), REQUESTS);
        assert!((0..48).all(|s| a.contains(&s)));
        assert_eq!(a, stream(48, 7));
        assert_ne!(a, stream(48, 8));
        // Skewed: the most popular spec takes far more than its share.
        let top = (0..48)
            .map(|s| a.iter().filter(|&&x| x == s).count())
            .max()
            .unwrap();
        assert!(top > 3 * REQUESTS / 48, "top spec drew {top}");
    }
}
