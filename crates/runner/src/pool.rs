//! The work-stealing worker pool.
//!
//! Jobs are sharded round-robin across per-worker FIFO deques
//! (`crossbeam::deque`); an idle worker first drains its own deque, then
//! steals from its peers. Because each job runs to a *terminal* state
//! inside one worker (retries are re-executed in place, not re-enqueued),
//! no new tasks ever appear after startup, and a worker may exit as soon as
//! one full sweep over every deque comes back empty.
//!
//! Scheduling order is explicitly *not* part of any result: job outputs
//! must be pure functions of the job description (see
//! [`job_seed`](crate::job::job_seed)), so the pool is free to interleave
//! however the host machine likes.

use crossbeam::deque::{Steal, Stealer, Worker};

/// Runs `f(worker_index, item)` over every item using `workers` threads
/// with work stealing. Blocks until all items are processed.
///
/// `f` is responsible for its own panic containment: a panic that escapes
/// `f` aborts the whole pool (the runner layer wraps job execution in
/// `catch_unwind` precisely so one bad config point cannot do that).
pub fn run_work_stealing<T, F>(items: Vec<T>, workers: usize, f: F)
where
    T: Send,
    F: Fn(usize, T) + Sync,
{
    let workers = workers.max(1);
    let locals: Vec<Worker<T>> = (0..workers).map(|_| Worker::new_fifo()).collect();
    let stealers: Vec<Stealer<T>> = locals.iter().map(Worker::stealer).collect();
    for (i, item) in items.into_iter().enumerate() {
        locals[i % workers].push(item);
    }

    std::thread::scope(|scope| {
        for (idx, local) in locals.into_iter().enumerate() {
            let stealers = &stealers;
            let f = &f;
            scope.spawn(move || {
                while let Some(task) = find_task(idx, &local, stealers) {
                    f(idx, task);
                }
            });
        }
    });
}

/// Pops from the local deque, then tries to steal from peers (starting at
/// the right-hand neighbour so workers don't all gang up on worker 0).
/// Returns `None` only after a full pass finds every deque empty.
fn find_task<T>(idx: usize, local: &Worker<T>, stealers: &[Stealer<T>]) -> Option<T> {
    loop {
        if let Some(task) = local.pop() {
            return Some(task);
        }
        let n = stealers.len();
        let mut saw_retry = false;
        for off in 1..n {
            match stealers[(idx + off) % n].steal() {
                Steal::Success(task) => return Some(task),
                Steal::Retry => saw_retry = true,
                Steal::Empty => {}
            }
        }
        if !saw_retry {
            return None;
        }
        std::thread::yield_now();
    }
}

/// Resolves the worker count: an explicit `--jobs` value wins, then the
/// host's available parallelism (capped at 16 — sweep jobs are
/// memory-hungry simulations).
pub fn effective_jobs(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit.filter(|&n| n > 0) {
        return n;
    }
    std::thread::available_parallelism()
        .map_or(4, |n| n.get())
        .min(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Mutex;

    #[test]
    fn every_item_processed_exactly_once() {
        let seen = Mutex::new(Vec::new());
        run_work_stealing((0..100u32).collect(), 4, |_, item| {
            seen.lock().unwrap().push(item);
        });
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn single_worker_preserves_submission_order() {
        let seen = Mutex::new(Vec::new());
        run_work_stealing(vec![1, 2, 3, 4], 1, |_, item| {
            seen.lock().unwrap().push(item);
        });
        assert_eq!(seen.into_inner().unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn uneven_work_gets_stolen() {
        // One slow item in worker 0's deque; the other workers should
        // drain everything else meanwhile. We only assert completion — the
        // point is that a slow job cannot serialize the sweep.
        let done = AtomicU64::new(0);
        run_work_stealing((0..32u64).collect(), 4, |_, item| {
            if item == 0 {
                std::thread::sleep(std::time::Duration::from_millis(30));
            }
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let done = AtomicU64::new(0);
        run_work_stealing(vec![1, 2, 3], 0, |_, _| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn effective_jobs_prefers_explicit() {
        assert_eq!(effective_jobs(Some(3)), 3);
        assert!(effective_jobs(None) >= 1);
    }
}
