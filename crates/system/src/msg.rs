//! Cross-shard messages and the bounded SPSC link they travel on.
//!
//! Every message crossing a shard boundary is stamped with its *delivery
//! cycle* (`send cycle + NoC latency`) plus a `(sender, sequence)` pair.
//! The triple `(deliver_at, sender, seq)` is a total order that depends
//! only on the logical system — never on the shard count or thread
//! schedule — so the router can sort each superstep's batch and replay it
//! identically for any partitioning. That total order is the heart of the
//! byte-identical determinism argument (see DESIGN.md).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

use dg_sim::clock::Cycle;
use dg_sim::types::{MemRequest, MemResponse};

/// A core→channel memory request in flight on the NoC.
#[derive(Debug, Clone, Copy)]
pub struct StampedReq {
    /// Cycle the request becomes visible at the target channel.
    pub deliver_at: Cycle,
    /// Global index of the issuing core.
    pub core: u32,
    /// Per-core monotone sequence number.
    pub seq: u64,
    /// The request, still carrying its *global* address (the receiving
    /// shard rewrites it into channel-local form at injection).
    pub req: MemRequest,
}

impl StampedReq {
    /// The global delivery order key.
    pub fn key(&self) -> (Cycle, u32, u64) {
        (self.deliver_at, self.core, self.seq)
    }
}

/// A channel→core memory response in flight on the NoC.
#[derive(Debug, Clone, Copy)]
pub struct StampedResp {
    /// Cycle the response becomes visible at the owning core.
    pub deliver_at: Cycle,
    /// Global index of the completing channel.
    pub channel: u32,
    /// Per-channel monotone sequence number.
    pub seq: u64,
    /// The response, already rewritten to its global address.
    pub resp: MemResponse,
}

impl StampedResp {
    /// The global delivery order key.
    pub fn key(&self) -> (Cycle, u32, u64) {
        (self.deliver_at, self.channel, self.seq)
    }
}

/// A bounded single-producer/single-consumer ring (a Lamport queue).
///
/// Each shard owns one as its request egress link: the shard's worker
/// thread pushes during superstep execution, and the router (coordinator
/// thread) drains it between the two barrier phases. The phases are
/// barrier-separated, so producer and consumer never race — but the
/// acquire/release pairing makes the queue correct even without that
/// guarantee, and the fixed capacity models the finite NoC buffering the
/// per-core link window is sized against.
pub struct SpscRing<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// Next slot to pop (consumer-owned; producer only loads it).
    head: AtomicUsize,
    /// Next slot to push (producer-owned; consumer only loads it).
    tail: AtomicUsize,
}

// SAFETY: the ring hands each element from exactly one producer to exactly
// one consumer; slots are published with release stores and consumed after
// acquire loads, so the element payload is always transferred with proper
// synchronization as long as the single-producer/single-consumer contract
// holds (enforced structurally: the owning shard pushes, the router pops).
unsafe impl<T: Send> Sync for SpscRing<T> {}
unsafe impl<T: Send> Send for SpscRing<T> {}

impl<T> SpscRing<T> {
    /// Creates a ring holding up to `capacity` elements.
    pub fn new(capacity: usize) -> Self {
        let slots = capacity + 1; // one sentinel slot distinguishes full from empty
        let buf = (0..slots)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Self {
            buf,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// Attempts to push; hands the value back when the ring is full.
    ///
    /// # Errors
    ///
    /// Returns `Err(v)` when the ring is at capacity.
    pub fn push(&self, v: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::Relaxed);
        let next = (tail + 1) % self.buf.len();
        if next == self.head.load(Ordering::Acquire) {
            return Err(v);
        }
        // SAFETY: `tail` is producer-owned and the slot is unoccupied (the
        // full check above); the release store below publishes the write.
        unsafe { (*self.buf[tail].get()).write(v) };
        self.tail.store(next, Ordering::Release);
        Ok(())
    }

    /// Pops the oldest element, if any.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::Relaxed);
        if head == self.tail.load(Ordering::Acquire) {
            return None;
        }
        // SAFETY: the slot was published by a release store in `push` and
        // is not observed again after head advances.
        let v = unsafe { (*self.buf[head].get()).assume_init_read() };
        self.head
            .store((head + 1) % self.buf.len(), Ordering::Release);
        Some(v)
    }
}

impl<T> Drop for SpscRing<T> {
    fn drop(&mut self) {
        while self.pop().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_round_trips_in_order() {
        let ring = SpscRing::new(4);
        assert_eq!(ring.pop(), None);
        for i in 0..4 {
            ring.push(i).unwrap();
        }
        assert_eq!(ring.push(99).unwrap_err(), 99);
        for i in 0..4 {
            assert_eq!(ring.pop(), Some(i));
        }
        assert_eq!(ring.pop(), None);
    }

    #[test]
    fn ring_wraps_around() {
        let ring = SpscRing::new(2);
        for round in 0..10 {
            ring.push(round * 2).unwrap();
            ring.push(round * 2 + 1).unwrap();
            assert_eq!(ring.pop(), Some(round * 2));
            assert_eq!(ring.pop(), Some(round * 2 + 1));
        }
    }

    #[test]
    fn ring_transfers_across_threads() {
        let ring = std::sync::Arc::new(SpscRing::new(64));
        let producer = {
            let ring = ring.clone();
            std::thread::spawn(move || {
                let mut sent = 0u64;
                while sent < 10_000 {
                    if ring.push(sent).is_ok() {
                        sent += 1;
                    } else {
                        std::hint::spin_loop();
                    }
                }
            })
        };
        let mut expect = 0u64;
        while expect < 10_000 {
            if let Some(v) = ring.pop() {
                assert_eq!(v, expect);
                expect += 1;
            } else {
                std::hint::spin_loop();
            }
        }
        producer.join().unwrap();
    }
}
