//! The job scheduler: accepted specs become numbered jobs, simulated on a
//! shared [`WorkerPool`] (`--max-jobs`
//! workers), with results memoized through the [`ResultCache`].
//!
//! Three ways a submission resolves:
//!
//! 1. **Cache hit** — the spec's key is on disk and the stored report's
//!    `spec` block is this spec's: the job is born `done` with
//!    `cached: true` and the stored bytes; nothing is scheduled. A stored
//!    report of another spec (an FNV-64 key collision) is a miss, and the
//!    run below overwrites it.
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
//! The job table is bounded: it keeps every queued and running job and
//! the newest [`FINISHED_KEPT`] finished ones, so a finished job stays
//! pollable for at least that many further completions and an older id
//! is [`NoJob::Expired`]. A synchronous submitter always reads its own
//! job's final view: the record it waits on is not dropped.
//!
//! [`Scheduler::shutdown`] drains: queued and in-flight jobs finish (and
//! land in the cache) before it returns.

use std::collections::{BTreeMap, HashMap, VecDeque};
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

/// Finished jobs whose records stay pollable. Queued and running jobs are
/// always kept; past this many finished ones, the record of the one that
/// finished first is dropped (its report stays in the [`ResultCache`]).
pub const FINISHED_KEPT: usize = 1024;

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

/// Why [`Scheduler::get`] has no view of a job id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoJob {
    /// No job was given this id.
    Unknown,
    /// The job finished more than [`FINISHED_KEPT`] completions ago.
    Expired,
}

struct JobRecord {
    view: JobView,
    /// Synchronous submitters still to read this record; it is not
    /// dropped while any remain.
    waiters: usize,
}

#[derive(Default)]
struct SchedState {
    jobs: BTreeMap<u64, JobRecord>,
    /// Ids of the finished jobs in `jobs`, in the order they finished.
    finished: VecDeque<u64>,
    /// cache-key → job id for queued/running jobs (coalescing index).
    inflight: HashMap<String, u64>,
    next_id: u64,
    simulated: u64,
}

impl SchedState {
    /// Adds a job under the next id.
    fn add(&mut self, key: String, status: JobStatus, report: Option<String>) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        let view = JobView {
            id,
            key,
            status,
            report,
            error: None,
        };
        self.jobs.insert(id, JobRecord { view, waiters: 0 });
        id
    }

    /// Notes that job `id` reached a terminal status.
    fn finish(&mut self, id: u64) {
        self.finished.push_back(id);
        self.evict();
    }

    /// Drops the records of the first-finished jobs past
    /// [`FINISHED_KEPT`], stopping at one a submitter still waits on (its
    /// wait ends by evicting again).
    fn evict(&mut self) {
        while self.finished.len() > FINISHED_KEPT {
            let oldest = self.finished[0];
            if self.jobs[&oldest].waiters > 0 {
                break;
            }
            self.finished.pop_front();
            self.jobs.remove(&oldest);
        }
    }
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

impl Scheduler {
    /// Builds a scheduler over `cache` with `max_jobs` simulation workers.
    pub fn new(cache: ResultCache, max_jobs: usize) -> Self {
        Scheduler {
            inner: Arc::new(SchedInner {
                state: Mutex::new(SchedState {
                    next_id: 1,
                    ..SchedState::default()
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

    /// Submits `spec`: cache lookup, then coalesce, then schedule. Returns
    /// the job's view at submission, or with `wait` its final view. A
    /// coalesced submission gets the in-flight job's id.
    pub fn submit(&self, spec: JobSpec, wait: bool) -> JobView {
        let key = spec.cache_key();
        let hit = self
            .inner
            .cache
            .get(&key, &format!("\"spec\":{}", spec.to_json()));
        let mut st = self.inner.state.lock().expect("scheduler lock poisoned");
        let inflight = st.inflight.get(&key).copied();
        let id = match (hit, inflight) {
            // 1. Cache hit: the job is born done.
            (Some(body), _) => {
                let id = st.add(key, JobStatus::Done { cached: true }, Some(body));
                st.finish(id);
                id
            }
            // 2. Coalesce with an identical in-flight job.
            (None, Some(existing)) => existing,
            // 3. Schedule.
            (None, None) => {
                let id = st.add(key.clone(), JobStatus::Queued, None);
                st.inflight.insert(key.clone(), id);
                self.schedule(id, key, spec);
                id
            }
        };
        if wait {
            // The lock is held from the lookup on, so the record is there
            // to pin.
            st.jobs.get_mut(&id).expect("live record").waiters += 1;
            while !matches!(
                st.jobs[&id].view.status,
                JobStatus::Done { .. } | JobStatus::Failed
            ) {
                st = self.inner.done.wait(st).expect("scheduler lock poisoned");
            }
            st.jobs.get_mut(&id).expect("pinned record").waiters -= 1;
        }
        let view = st.jobs[&id].view.clone();
        st.evict();
        view
    }

    /// Queues job `id`'s simulation on the worker pool.
    fn schedule(&self, id: u64, key: String, spec: JobSpec) {
        let inner = Arc::clone(&self.inner);
        self.pool.submit(Box::new(move || {
            {
                let mut st = inner.state.lock().unwrap();
                if let Some(rec) = st.jobs.get_mut(&id) {
                    rec.view.status = JobStatus::Running;
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
                    if let Err(e) = inner.cache.put(&key, &body) {
                        eprintln!("serve: cache write for {key} failed: {e}");
                    }
                    st.simulated += 1;
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.view.status = JobStatus::Done { cached: false };
                        rec.view.report = Some(body);
                    }
                }
                Err(msg) => {
                    if let Some(rec) = st.jobs.get_mut(&id) {
                        rec.view.status = JobStatus::Failed;
                        rec.view.error = Some(msg);
                    }
                }
            }
            st.inflight.remove(&key);
            st.finish(id);
            drop(st);
            inner.done.notify_all();
        }));
    }

    /// A job's current view.
    pub fn get(&self, id: u64) -> Result<JobView, NoJob> {
        let st = self.inner.state.lock().unwrap();
        match st.jobs.get(&id) {
            Some(rec) => Ok(rec.view.clone()),
            None if (1..st.next_id).contains(&id) => Err(NoJob::Expired),
            None => Err(NoJob::Unknown),
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
        let first = sched.submit(tiny("is"), true);
        assert_eq!(first.status, JobStatus::Done { cached: false });
        let body = first.report.unwrap();
        assert!(body.ends_with('\n'));

        let second = sched.submit(tiny("is"), false);
        assert_eq!(second.status, JobStatus::Done { cached: true });
        assert_eq!(second.report.as_deref(), Some(body.as_str()));
        assert_eq!(sched.simulated(), 1);
        sched.shutdown();
    }

    #[test]
    fn identical_inflight_jobs_coalesce() {
        // One worker: the first job occupies it, so an identical second
        // submission must attach, not queue a duplicate simulation.
        let sched = scheduler("coalesce", 1);
        let a = sched.submit(tiny("pr"), false);
        assert_eq!(a.status, JobStatus::Queued);
        let b = sched.submit(tiny("pr"), true);
        assert_eq!(a.id, b.id);
        assert_eq!(b.status, JobStatus::Done { cached: false });
        assert_eq!(sched.simulated(), 1);
        sched.shutdown();
    }

    #[test]
    fn failed_specs_report_failure() {
        let sched = scheduler("fail", 1);
        // The scale validates, but building the dataset panics.
        let huge = JobSpec {
            scale: 1e300,
            ..JobSpec::new("is", Mode::Baseline)
        };
        let failed = sched.submit(huge, true);
        assert_eq!(failed.status, JobStatus::Failed);
        let error = failed.error.unwrap();
        assert!(error.starts_with("job panicked: "), "{error}");
        assert_eq!(sched.cache().usage().unwrap().0, 0, "a failure was cached");
        assert_eq!(sched.get(failed.id + 1).err(), Some(NoJob::Unknown));
        assert_eq!(sched.get(0).err(), Some(NoJob::Unknown));
        sched.shutdown();
    }

    #[test]
    fn finished_jobs_past_the_bound_expire_first_finished_first() {
        let sched = scheduler("bound", 1);
        let miss = sched.submit(tiny("is"), true).id;
        let hits: Vec<u64> = (0..FINISHED_KEPT + 2)
            .map(|_| sched.submit(tiny("is"), false).id)
            .collect();
        // FINISHED_KEPT + 3 jobs finished; the first three are forgotten.
        for gone in [miss, hits[0], hits[1]] {
            assert_eq!(sched.get(gone).err(), Some(NoJob::Expired), "job {gone}");
        }
        assert!(sched.get(hits[2]).is_ok(), "the oldest kept job");
        let newest = sched.get(hits[FINISHED_KEPT + 1]).unwrap();
        assert_eq!(newest.status, JobStatus::Done { cached: true });
        assert!(newest.report.is_some());
        sched.shutdown();
    }

    #[test]
    fn a_record_with_a_waiter_outlives_the_bound() {
        let mut st = SchedState::default();
        for _ in 0..=FINISHED_KEPT {
            let id = st.add(String::new(), JobStatus::Failed, None);
            st.jobs.get_mut(&id).unwrap().waiters = usize::from(id == 0);
            st.finish(id);
        }
        assert!(st.jobs.contains_key(&0), "a waited-on record was dropped");
        st.jobs.get_mut(&0).unwrap().waiters = 0;
        st.evict();
        assert!(!st.jobs.contains_key(&0));
        assert_eq!(st.jobs.len(), FINISHED_KEPT);
    }

    #[test]
    fn shutdown_drains_queued_jobs_into_the_cache() {
        let sched = scheduler("drain", 1);
        sched.submit(tiny("is"), false);
        sched.submit(tiny("pr"), false);
        let cache_dir = sched.cache().dir().to_path_buf();
        let (a_key, b_key) = (tiny("is").cache_key(), tiny("pr").cache_key());
        sched.shutdown();
        for key in [a_key, b_key] {
            assert!(
                cache_dir.join(format!("{key}.json")).exists(),
                "{key} not drained to cache"
            );
        }
    }
}
