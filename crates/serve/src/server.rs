//! The HTTP surface: routing, response envelopes, graceful shutdown.
//!
//! | Route | Does |
//! |---|---|
//! | `GET /v1/health` | liveness + job/cache counters |
//! | `GET /v1/kernels` | the runnable kernel and machine names |
//! | `POST /v1/jobs` | submit a job spec; `"wait": false` for async |
//! | `GET /v1/jobs/<id>` | poll a submitted job (404 once expired) |
//! | `POST /v1/shutdown` | graceful drain + exit |
//!
//! A job response envelope is `{serve_version, job_id, cache_key, cached,
//! status, report}` — `report` embeds the versioned job report verbatim
//! (the cache stores its serialization, and `dx100_common::json` is a
//! canonical fixpoint, so re-serializing the envelope's `report` field
//! reproduces the cached bytes exactly; the integration tests assert it).

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use dx100_bench::{jobspec, JobSpec};
use dx100_common::flags::ServeOpts;
use dx100_common::json::{obj, Json};
use dx100_workloads::Mode;

use crate::cache::ResultCache;
use crate::http::{read_request, write_json, HttpError, Request};
use crate::scheduler::{JobStatus, JobView, NoJob, Scheduler, FINISHED_KEPT};

/// Version of the serving protocol (envelopes and routes).
pub const SERVE_VERSION: u64 = 1;

/// A bound, not-yet-running server.
pub struct Server {
    listener: TcpListener,
    scheduler: Scheduler,
    draining: Arc<AtomicBool>,
    addr: SocketAddr,
}

/// Handle to a server running on a background thread (tests, CI).
pub struct ServerHandle {
    /// The resolved listen address (useful with port 0).
    pub addr: SocketAddr,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// Waits for the server to finish draining and exit.
    pub fn join(self) {
        self.thread.join().expect("server thread panicked");
    }
}

impl Server {
    /// Binds the listener and opens the cache per `opts`.
    pub fn bind(opts: &ServeOpts) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&opts.addr)?;
        let addr = listener.local_addr()?;
        let cache = ResultCache::open(&opts.cache_dir, opts.cache_cap_bytes())?;
        Ok(Server {
            listener,
            scheduler: Scheduler::new(cache, opts.max_jobs),
            draining: Arc::new(AtomicBool::new(false)),
            addr,
        })
    }

    /// The resolved listen address.
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Runs the server on a background thread.
    pub fn spawn(self) -> ServerHandle {
        let addr = self.addr;
        let thread = std::thread::Builder::new()
            .name("dx100-serve-accept".into())
            .spawn(move || self.run())
            .expect("spawn server thread");
        ServerHandle { addr, thread }
    }

    /// Serves until a shutdown request arrives, then drains in-flight
    /// jobs and returns. Each connection is handled on its own thread
    /// (jobs themselves run on the scheduler's workers, so slow
    /// simulations never block the accept loop).
    pub fn run(self) {
        let Server {
            listener,
            scheduler,
            draining,
            addr,
        } = self;
        let scheduler = Arc::new(scheduler);
        let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
        for conn in listener.incoming() {
            if draining.load(Ordering::SeqCst) {
                break; // the wake-up connection; close it unanswered
            }
            let mut stream = match conn {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("serve: accept failed: {e}");
                    continue;
                }
            };
            let scheduler = Arc::clone(&scheduler);
            let draining = Arc::clone(&draining);
            handlers.retain(|h| !h.is_finished());
            handlers.push(
                std::thread::Builder::new()
                    .name("dx100-serve-conn".into())
                    .spawn(move || {
                        let response = match read_request(&mut stream) {
                            Ok(req) => route(&scheduler, &draining, addr, &req),
                            Err(e) => error_response(e),
                        };
                        let (status, headers, body) = response;
                        let headers: Vec<(&str, &str)> =
                            headers.iter().map(|(n, v)| (*n, v.as_str())).collect();
                        if let Err(e) = write_json(&mut stream, status, &headers, &body) {
                            eprintln!("serve: response write failed: {e}");
                        }
                    })
                    .expect("spawn connection handler"),
            );
        }
        // Drain: running and queued jobs finish (and land in the cache),
        // then waiting handlers flush their responses.
        match Arc::try_unwrap(scheduler) {
            Ok(s) => s.shutdown(),
            Err(shared) => {
                // Handlers still hold clones; wait for them first.
                for h in handlers.drain(..) {
                    let _ = h.join();
                }
                match Arc::try_unwrap(shared) {
                    Ok(s) => s.shutdown(),
                    Err(_) => unreachable!("all scheduler handles joined"),
                }
            }
        }
        for h in handlers {
            let _ = h.join();
        }
    }
}

type ResponseParts = (u16, Vec<(&'static str, String)>, String);

fn error_response(e: HttpError) -> ResponseParts {
    let body = obj([
        ("serve_version", SERVE_VERSION.into()),
        ("error", e.message.as_str().into()),
    ]);
    (e.status, Vec::new(), body.to_string() + "\n")
}

fn route(
    scheduler: &Scheduler,
    draining: &AtomicBool,
    addr: SocketAddr,
    req: &Request,
) -> ResponseParts {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/v1/health") => health(scheduler),
        ("GET", "/v1/kernels") => kernels(),
        ("POST", "/v1/jobs") => submit_job(scheduler, draining, &req.body),
        ("GET", path) if path.starts_with("/v1/jobs/") => {
            poll_job(scheduler, &path["/v1/jobs/".len()..])
        }
        ("POST", "/v1/shutdown") => shutdown(scheduler, draining, addr),
        (_, "/v1/health" | "/v1/kernels" | "/v1/jobs" | "/v1/shutdown") => error_response(
            HttpError::new(405, format!("method {} not allowed", req.method)),
        ),
        _ => error_response(HttpError::new(404, format!("no route for {}", req.path))),
    }
}

fn health(scheduler: &Scheduler) -> ResponseParts {
    let (hits, misses) = scheduler.cache().counters();
    let (entries, bytes) = scheduler.cache().usage().unwrap_or((0, 0));
    let body = obj([
        ("ok", true.into()),
        ("serve_version", SERVE_VERSION.into()),
        ("jobs_simulated", scheduler.simulated().into()),
        ("jobs_in_flight", scheduler.in_flight().into()),
        (
            "cache",
            obj([
                ("hits", hits.into()),
                ("misses", misses.into()),
                ("entries", entries.into()),
                ("bytes", bytes.into()),
            ]),
        ),
    ]);
    (200, Vec::new(), body.to_string() + "\n")
}

fn kernels() -> ResponseParts {
    let body = obj([
        ("serve_version", SERVE_VERSION.into()),
        (
            "kernels",
            Json::Arr(
                jobspec::kernel_names()
                    .iter()
                    .map(|n| (*n).into())
                    .collect(),
            ),
        ),
        (
            "machines",
            Json::Arr(Mode::ALL.iter().map(|m| m.label().into()).collect()),
        ),
    ]);
    (200, Vec::new(), body.to_string() + "\n")
}

fn submit_job(scheduler: &Scheduler, draining: &AtomicBool, body: &str) -> ResponseParts {
    if draining.load(Ordering::SeqCst) {
        return error_response(HttpError::new(503, "server is draining"));
    }
    let parsed = match Json::parse(body) {
        Ok(v) => v,
        Err(e) => return error_response(HttpError::new(400, format!("invalid JSON body: {e}"))),
    };
    // `wait` is transport, not spec: strip it before strict spec parsing.
    let (spec_json, wait) = match &parsed {
        Json::Obj(fields) => {
            let wait = match parsed.get("wait") {
                None | Some(Json::Null) => true,
                Some(Json::Bool(b)) => *b,
                Some(_) => return error_response(HttpError::new(400, "`wait` must be a boolean")),
            };
            let rest: Vec<(String, Json)> = fields
                .iter()
                .filter(|(k, _)| k != "wait")
                .cloned()
                .collect();
            (Json::Obj(rest), wait)
        }
        other => (other.clone(), true),
    };
    let spec = match JobSpec::from_json(&spec_json) {
        Ok(s) => s,
        Err(e) => return error_response(HttpError::new(400, e)),
    };
    job_response(&scheduler.submit(spec, wait))
}

fn poll_job(scheduler: &Scheduler, id_text: &str) -> ResponseParts {
    let id: u64 = match id_text.parse() {
        Ok(id) => id,
        Err(_) => return error_response(HttpError::new(400, format!("bad job id `{id_text}`"))),
    };
    match scheduler.get(id) {
        Ok(view) => job_response(&view),
        Err(NoJob::Unknown) => error_response(HttpError::new(404, format!("no job {id}"))),
        Err(NoJob::Expired) => error_response(HttpError::new(
            404,
            format!(
                "job {id} expired: only the newest {FINISHED_KEPT} finished jobs are kept; \
                 resubmit its spec"
            ),
        )),
    }
}

/// Renders a job view. Done jobs embed the report (re-parsed from the
/// cached bytes; serialization is a fixpoint, so the bytes are preserved);
/// failed jobs are 500s; queued/running answer 202 for polling.
fn job_response(view: &JobView) -> ResponseParts {
    let cached = matches!(view.status, JobStatus::Done { cached: true });
    let mut fields = vec![
        ("serve_version", SERVE_VERSION.into()),
        ("job_id", view.id.into()),
        ("cache_key", view.key.as_str().into()),
        ("status", view.status.label().into()),
        ("cached", cached.into()),
    ];
    let status = match &view.status {
        JobStatus::Done { .. } => {
            let body = view.report.as_deref().unwrap_or("null");
            let report = Json::parse(body.trim_end()).unwrap_or(Json::Null);
            fields.push(("report", report));
            200
        }
        JobStatus::Failed => {
            fields.push((
                "error",
                view.error.as_deref().unwrap_or("unknown failure").into(),
            ));
            500
        }
        JobStatus::Queued | JobStatus::Running => 202,
    };
    let headers = vec![(
        "x-dx100-cache",
        if cached { "hit" } else { "miss" }.to_string(),
    )];
    (
        status,
        headers,
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .to_string()
            + "\n",
    )
}

fn shutdown(scheduler: &Scheduler, draining: &AtomicBool, addr: SocketAddr) -> ResponseParts {
    draining.store(true, Ordering::SeqCst);
    // Wake the accept loop so it observes the flag (the connection is
    // closed unanswered by the loop).
    let _ = TcpStream::connect(addr);
    let body = obj([
        ("serve_version", SERVE_VERSION.into()),
        ("ok", true.into()),
        ("draining_jobs", scheduler.in_flight().into()),
    ]);
    (200, Vec::new(), body.to_string() + "\n")
}
