//! The worker pool shared by every parallel driver in the workspace.
//!
//! [`run_parallel`] runs a *scoped batch*: all tasks known up front,
//! numbered at submission; workers pull them from a shared queue in that
//! order and write each result into a slot indexed by task id, so the
//! returned vector is in *task order* for any worker count — the
//! foundation of the bench harness's "bit-identical at any `--threads`"
//! guarantee. Only scheduling (which worker runs which task, and when)
//! varies with the thread count; every observable output is fixed. Used
//! by the figure sweeps, whose tasks borrow the sweep's state.

use std::collections::VecDeque;
use std::sync::Mutex;

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

#[cfg(test)]
mod tests {
    use super::*;
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
}
