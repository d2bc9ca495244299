//! A sense-reversing spin-then-park barrier for superstep synchronization.
//!
//! Supersteps are short (tens of microseconds of host time), so parking in
//! the kernel at every barrier would dominate a quiet host's runtime: the
//! barrier spins briefly to catch the common fast arrival. But it must NOT
//! degrade to `yield_now` when the wait runs long — on a busy host a blind
//! yield surrenders the CPU to unrelated load for a full scheduler quantum
//! (measured ~1.5 ms per superstep on an oversubscribed VM), and endless
//! spinning burns a CPU the late thread may itself need. Past the spin
//! budget, waiters park on a condvar and the releasing thread issues a
//! targeted wakeup.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex};

/// How many spin iterations to burn before parking in the kernel.
const SPIN_LIMIT: u32 = 20_000;

/// A reusable barrier for a fixed party count.
pub struct SpinBarrier {
    parties: usize,
    count: AtomicUsize,
    sense: AtomicBool,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SpinBarrier {
    /// Creates a barrier for `parties` threads (`parties == 1` makes every
    /// `wait` a no-op).
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "barrier needs at least one party");
        Self {
            parties,
            count: AtomicUsize::new(0),
            sense: AtomicBool::new(false),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Blocks until all parties have arrived.
    pub fn wait(&self) {
        let my_sense = !self.sense.load(Ordering::Relaxed);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.count.store(0, Ordering::Relaxed);
            // The sense flip publishes every arrival's prior writes to all
            // waiters' subsequent acquires. Flipping under the lock closes
            // the park/flip race: a waiter that saw the old sense under the
            // same lock is guaranteed to observe the notify.
            let guard = self.lock.lock().expect("barrier lock poisoned");
            self.sense.store(my_sense, Ordering::Release);
            drop(guard);
            self.cv.notify_all();
            return;
        }
        let mut spins = 0u32;
        while self.sense.load(Ordering::Acquire) != my_sense {
            if spins < SPIN_LIMIT {
                std::hint::spin_loop();
                spins += 1;
            } else {
                let mut guard = self.lock.lock().expect("barrier lock poisoned");
                while self.sense.load(Ordering::Acquire) != my_sense {
                    guard = self.cv.wait(guard).expect("barrier lock poisoned");
                }
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn single_party_is_noop() {
        let b = SpinBarrier::new(1);
        for _ in 0..100 {
            b.wait();
        }
    }

    #[test]
    fn barrier_separates_phases() {
        const THREADS: usize = 4;
        const ROUNDS: u64 = 500;
        let barrier = Arc::new(SpinBarrier::new(THREADS));
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let barrier = barrier.clone();
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for round in 0..ROUNDS {
                        counter.fetch_add(1, Ordering::Relaxed);
                        barrier.wait();
                        // After the barrier every thread's increment for
                        // this round must be visible.
                        let seen = counter.load(Ordering::Relaxed);
                        assert!(seen >= (round + 1) * THREADS as u64);
                        barrier.wait();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), ROUNDS * THREADS as u64);
    }
}
