//! End-to-end tests over a real socket: the acceptance criteria for the
//! serving layer.
//!
//! 1. Two identical submissions → the second is served from the on-disk
//!    cache (`"cached": true`) with a byte-identical report.
//! 2. Two concurrent distinct jobs → reports byte-identical to serial
//!    CLI-path runs of the same specs ([`JobSpec::run`]).
//! 3. Async submission (`"wait": false`) + status polling.
//! 4. Protocol errors answer with the right statuses and JSON bodies, and
//!    a job whose run panics answers `failed` without wedging the daemon.
//!    A body nested past the JSON parser's depth bound answers 400.
//! 5. The cache outlives the daemon: a restart on the same cache dir
//!    serves the old reports as hits.
//! 6. A stored report is served only for its own spec.
//! 7. Only the newest finished jobs stay pollable; an older id answers 404
//!    saying it expired.

use std::path::PathBuf;

use dx100_bench::JobSpec;
use dx100_common::flags::ServeOpts;
use dx100_common::json::Json;
use dx100_serve::http::request;
use dx100_serve::{Server, ServerHandle, FINISHED_KEPT, SERVE_VERSION};
use dx100_workloads::Mode;

/// Scale small enough that a job simulates in well under a second.
const TINY: f64 = 1e-9;

fn tmp_cache(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dx100-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start(tag: &str, max_jobs: usize) -> (String, ServerHandle, PathBuf) {
    let cache_dir = tmp_cache(tag);
    start_at(cache_dir, max_jobs)
}

fn start_at(cache_dir: PathBuf, max_jobs: usize) -> (String, ServerHandle, PathBuf) {
    let opts = ServeOpts {
        addr: "127.0.0.1:0".into(),
        cache_dir: cache_dir.clone(),
        max_jobs,
        cache_cap_mb: 64,
    };
    let handle = Server::bind(&opts).expect("bind").spawn();
    (handle.addr.to_string(), handle, cache_dir)
}

fn stop(addr: &str, handle: ServerHandle) {
    let resp = request(addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    handle.join();
}

fn tiny_spec(kernel: &str, machine: Mode) -> JobSpec {
    JobSpec {
        scale: TINY,
        ..JobSpec::new(kernel, machine)
    }
}

fn tiny_body(kernel: &str, machine: &str) -> String {
    format!("{{\"kernel\":\"{kernel}\",\"machine\":\"{machine}\",\"scale\":1e-9}}")
}

/// Parses a job envelope and returns (envelope, canonical report bytes).
fn envelope(body: &str) -> (Json, String) {
    let env = Json::parse(body.trim_end()).expect("envelope parses");
    let report = env.get("report").expect("has report").to_string();
    (env, report)
}

fn field<'a>(env: &'a Json, name: &str) -> &'a Json {
    env.get(name)
        .unwrap_or_else(|| panic!("envelope missing `{name}`"))
}

#[test]
fn identical_submissions_hit_the_cache_byte_identically() {
    let (addr, handle, cache_dir) = start("twice", 2);
    let body = tiny_body("is", "baseline");

    let first = request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    assert_eq!(first.header("x-dx100-cache"), Some("miss"));
    let (env1, report1) = envelope(&first.body);
    assert_eq!(field(&env1, "cached"), &Json::Bool(false));
    assert_eq!(field(&env1, "status"), &Json::Str("done".into()));
    assert_eq!(
        field(&env1, "serve_version"),
        &Json::Int(SERVE_VERSION as i128)
    );

    let second = request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("x-dx100-cache"), Some("hit"));
    let (env2, report2) = envelope(&second.body);
    assert_eq!(field(&env2, "cached"), &Json::Bool(true));
    assert_eq!(report2, report1, "cached report must be byte-identical");

    // The cache file on disk holds exactly the report bytes.
    let key = match field(&env1, "cache_key") {
        Json::Str(s) => s.clone(),
        other => panic!("cache_key not a string: {other:?}"),
    };
    let on_disk = std::fs::read_to_string(cache_dir.join(format!("{key}.json"))).unwrap();
    assert_eq!(on_disk.trim_end(), report1);

    // Health agrees: one simulation, one hit.
    let health = request(&addr, "GET", "/v1/health", None).unwrap();
    let h = Json::parse(health.body.trim_end()).unwrap();
    assert_eq!(field(&h, "jobs_simulated"), &Json::Int(1));
    assert_eq!(field(field(&h, "cache"), "hits"), &Json::Int(1));

    stop(&addr, handle);
}

#[test]
fn concurrent_distinct_jobs_match_serial_cli_runs() {
    let (addr, handle, _cache) = start("concurrent", 2);

    // Serial reference runs through the exact CLI path (JobSpec::run).
    let spec_is = tiny_spec("is", Mode::Baseline);
    let spec_pr = tiny_spec("pr", Mode::Dx100);
    let want_is = spec_is.run().unwrap().to_string();
    let want_pr = spec_pr.run().unwrap().to_string();

    // Submit both concurrently against a 2-worker daemon.
    let addr2 = addr.clone();
    let t_is = std::thread::spawn(move || {
        request(
            &addr2,
            "POST",
            "/v1/jobs",
            Some(&tiny_body("is", "baseline")),
        )
        .unwrap()
    });
    let addr3 = addr.clone();
    let t_pr = std::thread::spawn(move || {
        request(&addr3, "POST", "/v1/jobs", Some(&tiny_body("pr", "dx100"))).unwrap()
    });
    let resp_is = t_is.join().unwrap();
    let resp_pr = t_pr.join().unwrap();
    assert_eq!(resp_is.status, 200, "{}", resp_is.body);
    assert_eq!(resp_pr.status, 200, "{}", resp_pr.body);

    let (_, got_is) = envelope(&resp_is.body);
    let (_, got_pr) = envelope(&resp_pr.body);
    assert_eq!(got_is, want_is, "served `is` report != serial CLI run");
    assert_eq!(got_pr, want_pr, "served `pr` report != serial CLI run");

    stop(&addr, handle);
}

#[test]
fn async_submission_polls_to_done() {
    let (addr, handle, _cache) = start("poll", 1);
    let body = "{\"kernel\":\"cg\",\"machine\":\"dmp\",\"scale\":1e-9,\"wait\":false}";
    let accepted = request(&addr, "POST", "/v1/jobs", Some(body)).unwrap();
    assert_eq!(accepted.status, 202, "{}", accepted.body);
    let env = Json::parse(accepted.body.trim_end()).unwrap();
    let id = match field(&env, "job_id") {
        Json::Int(i) => *i,
        other => panic!("job_id not an int: {other:?}"),
    };
    assert!(env.get("report").is_none());

    let path = format!("/v1/jobs/{id}");
    let mut last = None;
    for _ in 0..600 {
        let resp = request(&addr, "GET", &path, None).unwrap();
        if resp.status == 200 {
            last = Some(resp);
            break;
        }
        assert_eq!(resp.status, 202, "{}", resp.body);
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    let done = last.expect("job finished within 30s");
    let (env, report) = envelope(&done.body);
    assert_eq!(field(&env, "status"), &Json::Str("done".into()));
    assert!(report.starts_with('{'));
    stop(&addr, handle);
}

#[test]
fn protocol_errors_answer_with_json_and_right_statuses() {
    let (addr, handle, _cache) = start("errors", 1);
    let cases: [(&str, &str, Option<&str>, u16); 9] = [
        ("POST", "/v1/jobs", Some("not json"), 400),
        (
            "POST",
            "/v1/jobs",
            Some("{\"kernel\":\"nope\",\"machine\":\"baseline\"}"),
            400,
        ),
        (
            "POST",
            "/v1/jobs",
            Some("{\"kernel\":\"is\",\"machine\":\"baseline\",\"bogus\":1}"),
            400,
        ),
        // A removed spec field fails loudly instead of being ignored.
        (
            "POST",
            "/v1/jobs",
            Some("{\"kernel\":\"is\",\"machine\":\"dx100\",\"sample\":true}"),
            400,
        ),
        ("GET", "/v1/jobs/999", None, 404),
        ("GET", "/v1/nothing", None, 404),
        ("DELETE", "/v1/jobs", Some("{}"), 405),
        ("GET", "/v1/jobs/not-a-number", None, 400),
        // Valid, but the run panics: the job fails instead of wedging.
        (
            "POST",
            "/v1/jobs",
            Some("{\"kernel\":\"is\",\"machine\":\"baseline\",\"scale\":1e300}"),
            500,
        ),
    ];
    for (method, path, body, want) in cases {
        let resp = request(&addr, method, path, body).unwrap();
        assert_eq!(resp.status, want, "{method} {path}: {}", resp.body);
        let env = Json::parse(resp.body.trim_end()).unwrap();
        assert!(
            env.get("error").is_some(),
            "{method} {path} body lacks error"
        );
        if want == 500 {
            assert_eq!(field(&env, "status"), &Json::Str("failed".into()));
        }
    }
    // The panicking job freed the daemon's one worker.
    let body = tiny_body("is", "baseline");
    let resp = request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);

    // Kernels endpoint sanity: every advertised kernel/machine is usable.
    let resp = request(&addr, "GET", "/v1/kernels", None).unwrap();
    assert_eq!(resp.status, 200);
    let env = Json::parse(resp.body.trim_end()).unwrap();
    let kernels = match field(&env, "kernels") {
        Json::Arr(a) => a.len(),
        other => panic!("kernels not an array: {other:?}"),
    };
    assert!(
        kernels >= 5,
        "expected the paper kernel suite, got {kernels}"
    );
    stop(&addr, handle);
}

#[test]
fn a_deeply_nested_body_answers_400_and_the_daemon_lives() {
    let (addr, handle, _cache) = start("deep", 1);
    let body = "[".repeat(100_000);
    let resp = request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(resp.status, 400, "{}", resp.body);
    let resp = request(&addr, "GET", "/v1/health", None).unwrap();
    assert_eq!(resp.status, 200, "{}", resp.body);
    stop(&addr, handle);
}

#[test]
fn cache_survives_a_daemon_restart() {
    let (addr, handle, cache_dir) = start("restart", 1);
    let body = tiny_body("bfs", "dx100");
    let first = request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let (_, report1) = envelope(&first.body);
    stop(&addr, handle);

    // Same cache dir, new process-equivalent: the report must come back
    // as a hit without any simulation.
    let (addr, handle, _) = start_at(cache_dir, 1);
    let second = request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(second.status, 200, "{}", second.body);
    assert_eq!(second.header("x-dx100-cache"), Some("hit"));
    let (env, report2) = envelope(&second.body);
    assert_eq!(field(&env, "cached"), &Json::Bool(true));
    assert_eq!(report2, report1);
    let health = request(&addr, "GET", "/v1/health", None).unwrap();
    let h = Json::parse(health.body.trim_end()).unwrap();
    assert_eq!(field(&h, "jobs_simulated"), &Json::Int(0));
    stop(&addr, handle);
}

/// A report of spec A stored under spec B's key, as an FNV-64 collision
/// would leave it, is a miss for B: B is simulated and overwrites it.
#[test]
fn a_stored_report_of_another_spec_is_a_miss() {
    let (addr, handle, cache_dir) = start("collide", 1);
    let (body_a, body_b) = (tiny_body("is", "baseline"), tiny_body("pr", "baseline"));
    let first = request(&addr, "POST", "/v1/jobs", Some(&body_a)).unwrap();
    assert_eq!(first.status, 200, "{}", first.body);
    let entry = |spec: JobSpec| cache_dir.join(format!("{}.json", spec.cache_key()));
    let spec_b = tiny_spec("pr", Mode::Baseline);
    std::fs::copy(
        entry(tiny_spec("is", Mode::Baseline)),
        entry(spec_b.clone()),
    )
    .unwrap();

    for cached in [false, true] {
        let resp = request(&addr, "POST", "/v1/jobs", Some(&body_b)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let (env, report) = envelope(&resp.body);
        assert_eq!(field(&env, "cached"), &Json::Bool(cached));
        let report = Json::parse(&report).unwrap();
        assert_eq!(field(&report, "spec"), &spec_b.to_json());
    }
    stop(&addr, handle);
}

#[test]
fn polling_an_expired_job_answers_404() {
    let (addr, handle, _cache) = start("expire", 1);
    let body = tiny_body("is", "baseline");
    let mut ids = Vec::new();
    for _ in 0..=FINISHED_KEPT {
        let resp = request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
        assert_eq!(resp.status, 200, "{}", resp.body);
        let (env, _) = envelope(&resp.body);
        ids.push(field(&env, "job_id").clone());
    }
    let path = |id: &Json| format!("/v1/jobs/{id}");
    let oldest = request(&addr, "GET", &path(&ids[0]), None).unwrap();
    assert_eq!(oldest.status, 404, "{}", oldest.body);
    assert!(oldest.body.contains("expired"), "{}", oldest.body);
    let newest = request(&addr, "GET", &path(&ids[FINISHED_KEPT]), None).unwrap();
    assert_eq!(newest.status, 200, "{}", newest.body);
    stop(&addr, handle);
}

#[test]
fn shutdown_drains_inflight_jobs_into_the_cache() {
    let (addr, handle, cache_dir) = start("drain", 1);
    // Queue two async jobs on a single worker, then immediately shut down:
    // both must still complete and land in the cache.
    for (kernel, machine) in [("bc", "baseline"), ("bc", "dx100")] {
        let body = format!(
            "{{\"kernel\":\"{kernel}\",\"machine\":\"{machine}\",\"scale\":1e-9,\"wait\":false}}"
        );
        let resp = request(&addr, "POST", "/v1/jobs", Some(&body)).unwrap();
        assert_eq!(resp.status, 202, "{}", resp.body);
    }
    stop(&addr, handle);

    for spec in [
        tiny_spec("bc", Mode::Baseline),
        tiny_spec("bc", Mode::Dx100),
    ] {
        let path = cache_dir.join(format!("{}.json", spec.cache_key()));
        assert!(path.exists(), "{} not drained to cache", path.display());
    }
}
