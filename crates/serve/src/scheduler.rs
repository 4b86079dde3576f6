//! The job scheduler: accepted specs become numbered jobs, simulated by
//! its own `--max-jobs` worker threads, with results memoized through the
//! [`ResultCache`].
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
//! 3. **Scheduled** — the job joins the scheduler's queue; the first free
//!    worker takes it (queued jobs start in submission order), runs
//!    [`JobSpec::run`], writes the report to the cache, and wakes every
//!    waiter. A run that panics
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
use std::thread::JoinHandle;

use dx100_bench::JobSpec;

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
    /// Queued jobs' ids and specs, in submission order.
    queued: VecDeque<(u64, JobSpec)>,
    /// Ids of the finished jobs in `jobs`, in the order they finished.
    finished: VecDeque<u64>,
    /// cache-key → job id for queued/running jobs (coalescing index).
    inflight: HashMap<String, u64>,
    next_id: u64,
    simulated: u64,
    /// Set by [`Scheduler::shutdown`]: workers exit once `queued` is empty.
    draining: bool,
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
    /// Signaled when a job is queued and when draining starts.
    work: Condvar,
    /// Signaled whenever any job reaches a terminal status.
    done: Condvar,
    cache: ResultCache,
}

impl SchedInner {
    /// A worker's life: runs queued jobs, oldest first, until the
    /// scheduler drains and the queue is empty.
    fn work(&self) {
        loop {
            let (id, key, spec) = {
                let mut st = self.state.lock().expect("scheduler lock poisoned");
                let (id, spec) = loop {
                    if let Some(job) = st.queued.pop_front() {
                        break job;
                    }
                    if st.draining {
                        return;
                    }
                    st = self.work.wait(st).expect("scheduler lock poisoned");
                };
                // Queued and running records are never evicted.
                let view = &mut st.jobs.get_mut(&id).expect("queued record").view;
                view.status = JobStatus::Running;
                (id, view.key.clone(), spec)
            };
            self.run(id, &key, &spec);
        }
    }

    /// Simulates job `id`, caches its report, and wakes every waiter.
    fn run(&self, id: u64, key: &str, spec: &JobSpec) {
        // No lock is held while the spec runs, so a panic poisons nothing;
        // it only has to reach the job record.
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| spec.run()))
            .unwrap_or_else(|payload| Err(format!("job panicked: {}", panic_text(&*payload))));
        let mut st = self.state.lock().expect("scheduler lock poisoned");
        let view = &mut st.jobs.get_mut(&id).expect("running record").view;
        match outcome {
            Ok(report) => {
                let body = report.to_string() + "\n";
                // A cache write failure degrades to a miss next time; the
                // in-memory result still reaches every waiter.
                if let Err(e) = self.cache.put(key, &body) {
                    eprintln!("serve: cache write for {key} failed: {e}");
                }
                view.status = JobStatus::Done { cached: false };
                view.report = Some(body);
                st.simulated += 1;
            }
            Err(msg) => {
                view.status = JobStatus::Failed;
                view.error = Some(msg);
            }
        }
        st.inflight.remove(key);
        st.finish(id);
        drop(st);
        self.done.notify_all();
    }
}

/// See module docs.
pub struct Scheduler {
    inner: Arc<SchedInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Builds a scheduler over `cache` with `max_jobs` simulation workers
    /// (at least one).
    pub fn new(cache: ResultCache, max_jobs: usize) -> Self {
        let inner = Arc::new(SchedInner {
            state: Mutex::new(SchedState {
                next_id: 1,
                ..SchedState::default()
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            cache,
        });
        let workers = (0..max_jobs.max(1))
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("dx100-job-{i}"))
                    .spawn(move || inner.work())
                    .expect("spawn job worker")
            })
            .collect();
        Scheduler { inner, workers }
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
                st.inflight.insert(key, id);
                st.queued.push_back((id, spec));
                self.inner.work.notify_one();
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
    /// cached) and the workers exit before this returns. A worker's panic
    /// propagates once every worker has been joined.
    pub fn shutdown(self) {
        self.inner
            .state
            .lock()
            .expect("scheduler lock poisoned")
            .draining = true;
        self.inner.work.notify_all();
        let mut panic = None;
        for w in self.workers {
            panic = w.join().err().or(panic);
        }
        if let Some(p) = panic {
            panic::resume_unwind(p);
        }
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
    fn one_worker_runs_jobs_in_submission_order() {
        let sched = scheduler("order", 1);
        let ids: Vec<u64> = ["is", "pr", "cg", "bc"]
            .map(|k| sched.submit(tiny(k), false).id)
            .to_vec();
        // An identical submission attaches to the last job and waits for it.
        assert_eq!(sched.submit(tiny("bc"), true).id, ids[3]);
        let st = sched.inner.state.lock().unwrap();
        assert_eq!(st.finished.iter().copied().collect::<Vec<_>>(), ids);
        drop(st);
        sched.shutdown();
    }

    #[test]
    fn zero_max_jobs_still_runs_a_job() {
        let sched = scheduler("zero", 0);
        let view = sched.submit(tiny("is"), true);
        assert_eq!(view.status, JobStatus::Done { cached: false });
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
