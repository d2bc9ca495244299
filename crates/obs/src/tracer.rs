//! The [`Tracer`]: a cloneable handle to a bounded event ring buffer.
//!
//! Every instrumented component holds a `Tracer` (cheaply cloned; all clones
//! share one buffer). The default handle is a no-op whose [`Tracer::record`]
//! is a single branch on a `None` — the event payload is built inside a
//! closure that is never invoked, so disabled tracing costs nothing
//! measurable on the simulation hot path.

use crate::event::{Event, EventKind};
use dg_sim::clock::Cycle;
use std::sync::{Arc, Mutex};

/// Fixed-capacity circular event store. Once full, the oldest events are
/// overwritten and counted in [`RingBuffer::dropped`].
#[derive(Debug)]
pub struct RingBuffer {
    buf: Vec<Event>,
    capacity: usize,
    /// Next write position once the buffer has wrapped.
    next: usize,
    dropped: u64,
}

impl RingBuffer {
    /// Creates an empty ring holding at most `capacity` events.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring buffer capacity must be positive");
        RingBuffer {
            buf: Vec::with_capacity(capacity),
            capacity,
            next: 0,
            dropped: 0,
        }
    }

    /// Appends an event, evicting the oldest one when full.
    pub fn push(&mut self, event: Event) {
        if self.buf.len() < self.capacity {
            self.buf.push(event);
        } else {
            self.buf[self.next] = event;
            self.dropped += 1;
        }
        self.next = (self.next + 1) % self.capacity;
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events overwritten because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The stored events in recording order (oldest first).
    pub fn snapshot(&self) -> Vec<Event> {
        if self.buf.len() < self.capacity {
            self.buf.clone()
        } else {
            let mut out = Vec::with_capacity(self.capacity);
            out.extend_from_slice(&self.buf[self.next..]);
            out.extend_from_slice(&self.buf[..self.next]);
            out
        }
    }
}

/// Cloneable recording handle shared by every instrumented component.
///
/// [`Tracer::noop`] (also `Default`) records nothing; [`Tracer::ring`]
/// records into a shared bounded ring buffer. Components call
/// [`Tracer::record`] with a closure so that event construction is skipped
/// entirely when tracing is off.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Option<Arc<Mutex<RingBuffer>>>,
}

impl Tracer {
    /// A handle that records nothing.
    pub fn noop() -> Self {
        Tracer::default()
    }

    /// A handle recording into a fresh ring buffer of `capacity` events.
    pub fn ring(capacity: usize) -> Self {
        Tracer {
            inner: Some(Arc::new(Mutex::new(RingBuffer::new(capacity)))),
        }
    }

    /// True when this handle actually stores events.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records one event at `cycle`. The closure building the payload runs
    /// only when tracing is enabled.
    #[inline]
    pub fn record(&self, cycle: Cycle, kind: impl FnOnce() -> EventKind) {
        if let Some(ring) = &self.inner {
            let event = Event {
                cycle,
                kind: kind(),
            };
            ring.lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .push(event);
        }
    }

    /// The recorded events in order (oldest first). Empty for a no-op handle.
    pub fn snapshot(&self) -> Vec<Event> {
        match &self.inner {
            Some(ring) => ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .snapshot(),
            None => Vec::new(),
        }
    }

    /// Number of events lost to ring-buffer wraparound.
    pub fn dropped(&self) -> u64 {
        match &self.inner {
            Some(ring) => ring
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .dropped(),
            None => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::types::{DomainId, ReqId};

    fn ev(cycle: Cycle) -> Event {
        Event {
            cycle,
            kind: EventKind::ShaperAccept {
                id: ReqId(cycle),
                domain: DomainId(0),
            },
        }
    }

    #[test]
    fn ring_stores_in_order_before_wrap() {
        let mut r = RingBuffer::new(4);
        for c in 0..3 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<Cycle> = r.snapshot().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    #[test]
    fn ring_wraparound_keeps_newest() {
        let mut r = RingBuffer::new(4);
        for c in 0..10 {
            r.push(ev(c));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.dropped(), 6);
        let cycles: Vec<Cycle> = r.snapshot().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![6, 7, 8, 9]);
    }

    #[test]
    fn ring_exactly_full_no_drop() {
        let mut r = RingBuffer::new(3);
        for c in 0..3 {
            r.push(ev(c));
        }
        assert_eq!(r.dropped(), 0);
        let cycles: Vec<Cycle> = r.snapshot().iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_panics() {
        let _ = RingBuffer::new(0);
    }

    #[test]
    fn noop_tracer_records_nothing_and_skips_closure() {
        let t = Tracer::noop();
        assert!(!t.enabled());
        t.record(5, || panic!("payload closure must not run when disabled"));
        assert!(t.snapshot().is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn clones_share_one_ring() {
        let t = Tracer::ring(8);
        let u = t.clone();
        t.record(1, || EventKind::LlcMiss {
            domain: DomainId(0),
            addr: 0x40,
        });
        u.record(2, || EventKind::LlcMiss {
            domain: DomainId(1),
            addr: 0x80,
        });
        let events = t.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].cycle, 1);
        assert_eq!(events[1].cycle, 2);
    }
}
