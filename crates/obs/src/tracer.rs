//! The [`Tracer`]: a cloneable handle to a bounded event ring buffer.
//!
//! Every instrumented component holds a `Tracer` (cheaply cloned; all clones
//! share one buffer). The default handle is a no-op whose [`Tracer::record`]
//! is a single branch on a `None` — the event payload is built inside a
//! closure that is never invoked, so disabled tracing costs nothing
//! measurable on the simulation hot path.

use crate::event::{Event, EventKind};
use dg_sim::clock::Cycle;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Fixed-capacity event store, kept sorted by cycle and, within a cycle, in
/// recording order. A component that runs its past cycles at a later
/// contact records their events late; each lands after the events already
/// kept for its cycle, so the store reads as if every event had been
/// recorded cycle by cycle. Once full, the earliest-cycle event is evicted;
/// an event older than every kept one is dropped instead. Both count in
/// [`RingBuffer::dropped`].
#[derive(Debug)]
pub struct RingBuffer {
    buf: VecDeque<Event>,
    capacity: usize,
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
            buf: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// Stores an event after every kept event of its cycle or earlier,
    /// evicting the earliest-cycle one when full. Late events land near the
    /// back, so the insert shifts few elements.
    pub fn push(&mut self, event: Event) {
        if self.buf.len() == self.capacity {
            self.dropped += 1;
            if self.buf.front().is_some_and(|e| event.cycle < e.cycle) {
                return;
            }
            self.buf.pop_front();
        }
        let at = self.buf.partition_point(|e| e.cycle <= event.cycle);
        self.buf.insert(at, event);
    }

    /// Number of events currently stored.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of events evicted or dropped because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The stored events, earliest cycle first.
    pub fn snapshot(&self) -> Vec<Event> {
        self.buf.iter().cloned().collect()
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
                .unwrap_or_else(PoisonError::into_inner)
                .push(event);
        }
    }

    /// The shared ring, locked (`None` for a no-op handle).
    fn locked(&self) -> Option<MutexGuard<'_, RingBuffer>> {
        let ring = self.inner.as_ref()?;
        Some(ring.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The recorded events, earliest cycle first (recording order within a
    /// cycle). Empty for a no-op handle.
    pub fn snapshot(&self) -> Vec<Event> {
        self.locked().map_or_else(Vec::new, |ring| ring.snapshot())
    }

    /// Number of events kept, counted without copying them. 0 for a no-op
    /// handle.
    pub fn len(&self) -> usize {
        self.locked().map_or(0, |ring| ring.len())
    }

    /// True when no event is kept.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of events lost because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.locked().map_or(0, |ring| ring.dropped())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::types::{DomainId, ReqId};

    fn ev(cycle: Cycle) -> Event {
        tagged(cycle, cycle)
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

    fn ids(r: &RingBuffer) -> Vec<(Cycle, u64)> {
        r.snapshot()
            .iter()
            .map(|e| match e.kind {
                EventKind::ShaperAccept { id, .. } => (e.cycle, id.0),
                _ => unreachable!(),
            })
            .collect()
    }

    fn tagged(cycle: Cycle, id: u64) -> Event {
        Event {
            cycle,
            kind: EventKind::ShaperAccept {
                id: ReqId(id),
                domain: DomainId(0),
            },
        }
    }

    #[test]
    fn late_event_lands_after_its_cycles_events() {
        let mut r = RingBuffer::new(8);
        for (c, id) in [(1, 10), (3, 30), (3, 31), (5, 50)] {
            r.push(tagged(c, id));
        }
        r.push(tagged(3, 32));
        r.push(tagged(0, 0));
        assert_eq!(r.dropped(), 0);
        assert_eq!(
            ids(&r),
            vec![(0, 0), (1, 10), (3, 30), (3, 31), (3, 32), (5, 50)]
        );
    }

    #[test]
    fn full_ring_evicts_the_earliest_cycle() {
        let mut r = RingBuffer::new(3);
        for (c, id) in [(2, 20), (4, 40), (6, 60)] {
            r.push(tagged(c, id));
        }
        r.push(tagged(3, 30));
        assert_eq!(ids(&r), vec![(3, 30), (4, 40), (6, 60)]);
        r.push(tagged(3, 31));
        assert_eq!(ids(&r), vec![(3, 31), (4, 40), (6, 60)]);
        assert_eq!(r.dropped(), 2);
    }

    #[test]
    fn event_older_than_every_kept_one_is_dropped_and_counted() {
        let mut r = RingBuffer::new(2);
        for (c, id) in [(5, 50), (7, 70)] {
            r.push(tagged(c, id));
        }
        r.push(tagged(4, 40));
        assert_eq!(r.dropped(), 1);
        assert_eq!(ids(&r), vec![(5, 50), (7, 70)]);
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
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn len_counts_the_kept_events() {
        let t = Tracer::ring(3);
        for c in 0..5 {
            assert_eq!(t.len(), t.snapshot().len());
            t.record(c, || EventKind::LlcMiss {
                domain: DomainId(0),
                addr: c * 64,
            });
        }
        assert_eq!((t.len(), t.dropped()), (3, 2));
        assert!(!t.is_empty());
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
