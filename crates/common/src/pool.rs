//! Worker pools shared by every parallel driver in the workspace.
//!
//! Two shapes:
//!
//! * [`run_parallel`] — a *scoped batch*: all tasks known up front,
//!   numbered at submission; workers pull them from a shared queue in
//!   that order and write each result into a slot indexed by task id, so
//!   the returned vector is in *task order* for any worker count — the
//!   foundation of the bench harness's "bit-identical at any `--threads`"
//!   guarantee. Only scheduling (which worker runs which task, and when)
//!   varies with the thread count; every observable output is fixed.
//!   Used by the figure sweeps, whose tasks borrow the sweep's state.
//! * [`WorkerPool`] — a *long-lived* pool for open-ended work: tasks
//!   arrive over time (the `dx100-serve` job scheduler submits one per
//!   accepted simulation job) and run FIFO on a fixed set of worker
//!   threads. Results travel through whatever channel the task captures;
//!   the pool only guarantees execution. [`WorkerPool::shutdown`] drains:
//!   queued and in-flight tasks finish before the workers exit, so a
//!   graceful daemon shutdown never abandons an accepted job.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// A boxed one-shot task submitted to [`run_parallel`].
pub type PoolTask<'a, T> = Box<dyn FnOnce() -> T + Send + 'a>;

/// Runs `tasks` on `threads` worker threads, returning results in task
/// order. Results are written into pre-sized slots indexed by task id, so
/// the output is identical for any thread count.
///
/// `threads` is clamped to `1..=tasks.len()`; surplus workers would only
/// contend on the queue. Panics in a task propagate: the scope join
/// re-raises the worker's panic, so a poisoned run never returns partial
/// results.
pub fn run_parallel<'a, T: Send>(tasks: Vec<PoolTask<'a, T>>, threads: usize) -> Vec<T> {
    let n = tasks.len();
    let threads = threads.clamp(1, n.max(1));
    let queue: Mutex<VecDeque<(usize, PoolTask<'a, T>)>> =
        Mutex::new(tasks.into_iter().enumerate().collect());
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let job = queue.lock().unwrap().pop_front();
                match job {
                    Some((i, task)) => {
                        let r = task();
                        *slots[i].lock().unwrap() = Some(r);
                    }
                    None => break,
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .unwrap()
                .expect("worker completed every task")
        })
        .collect()
}

/// A task submitted to a [`WorkerPool`]; any result is communicated
/// through state the closure captures.
pub type QueueTask = Box<dyn FnOnce() + Send + 'static>;

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Signaled on submission and on shutdown.
    work: Condvar,
}

struct PoolQueue {
    tasks: VecDeque<QueueTask>,
    draining: bool,
}

/// A long-lived FIFO worker pool with graceful drain (see module docs).
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    /// Starts `threads` workers (at least one).
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(PoolQueue {
                tasks: VecDeque::new(),
                draining: false,
            }),
            work: Condvar::new(),
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("dx100-pool-{i}"))
                    .spawn(move || loop {
                        let task = {
                            let mut q = shared.queue.lock().unwrap();
                            loop {
                                if let Some(t) = q.tasks.pop_front() {
                                    break t;
                                }
                                if q.draining {
                                    return;
                                }
                                q = shared.work.wait(q).unwrap();
                            }
                        };
                        task();
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool { shared, workers }
    }

    /// Enqueues a task; it runs FIFO on the next free worker.
    ///
    /// # Panics
    /// Panics if called after [`shutdown`](Self::shutdown) began (the pool
    /// is consumed by value there, so this needs a leaked handle).
    pub fn submit(&self, task: QueueTask) {
        let mut q = self.shared.queue.lock().unwrap();
        assert!(!q.draining, "submit to a draining WorkerPool");
        q.tasks.push_back(task);
        drop(q);
        self.shared.work.notify_one();
    }

    /// Tasks waiting for a worker (excludes in-flight ones).
    pub fn queued(&self) -> usize {
        self.shared.queue.lock().unwrap().tasks.len()
    }

    /// Worker-thread count.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Graceful drain: stops accepting work, lets every queued and
    /// in-flight task finish, and joins the workers. A worker panic
    /// propagates after the others have been joined.
    pub fn shutdown(mut self) {
        {
            let mut q = self.shared.queue.lock().unwrap();
            q.draining = true;
        }
        self.shared.work.notify_all();
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        for w in self.workers.drain(..) {
            if let Err(p) = w.join() {
                panic = Some(p);
            }
        }
        if let Some(p) = panic {
            std::panic::resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::time::Duration;

    #[test]
    fn preserves_task_order_for_any_thread_count() {
        let make = || -> Vec<Box<dyn FnOnce() -> usize + Send>> {
            (0..37usize)
                .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> usize + Send>)
                .collect()
        };
        let expect: Vec<usize> = (0..37usize).map(|i| i * i).collect();
        for threads in [1, 3, 8, 64] {
            assert_eq!(run_parallel(make(), threads), expect);
        }
    }

    #[test]
    fn preserves_order_under_adversarial_durations() {
        // Early tasks sleep longest, so under any concurrency > 1 the
        // *completion* order inverts the submission order; the returned
        // vector must still be in submission order.
        let n = 16usize;
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..n)
            .map(|i| {
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis((n - i) as u64 * 3));
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        assert_eq!(run_parallel(tasks, 8), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_oversubscribed_inputs() {
        let empty: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(run_parallel(empty, 4).is_empty());
        let one: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| 42)];
        assert_eq!(run_parallel(one, 1000), vec![42]);
    }

    #[test]
    fn borrows_locals_across_the_scope() {
        // The 'a lifetime lets tasks capture references to caller state —
        // the figure sweep borrows its kernels and configs this way.
        let data: Vec<u64> = (0..10).collect();
        let tasks: Vec<Box<dyn FnOnce() -> u64 + Send + '_>> = data
            .iter()
            .map(|v| Box::new(move || v * 2) as Box<dyn FnOnce() -> u64 + Send + '_>)
            .collect();
        let doubled = run_parallel(tasks, 3);
        assert_eq!(doubled, (0..10).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_pool_runs_every_task() {
        let pool = WorkerPool::new(3);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..50 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn worker_pool_shutdown_drains_queued_and_in_flight_work() {
        // One worker, several slow tasks: shutdown is called while the
        // first is still running and the rest are queued — all must
        // complete before shutdown returns.
        let pool = WorkerPool::new(1);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..4 {
            let done = Arc::clone(&done);
            pool.submit(Box::new(move || {
                std::thread::sleep(Duration::from_millis(20));
                done.fetch_add(1, Ordering::SeqCst);
            }));
        }
        std::thread::sleep(Duration::from_millis(5)); // first task in flight
        pool.shutdown();
        assert_eq!(done.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn worker_pool_single_worker_is_fifo() {
        let pool = WorkerPool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        for i in 0..10 {
            let order = Arc::clone(&order);
            pool.submit(Box::new(move || {
                order.lock().unwrap().push(i);
            }));
        }
        pool.shutdown();
        assert_eq!(*order.lock().unwrap(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn worker_pool_idle_shutdown_and_zero_threads_clamp() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.queued(), 0);
        pool.shutdown(); // no work: workers wake on drain and exit
    }
}
