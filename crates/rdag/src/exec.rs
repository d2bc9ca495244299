//! The rDAG execution state machine — the shaper's "computation logic"
//! (§4.4).
//!
//! The hardware described in the paper tracks, per sequence/bank: a bit
//! indicating whether the shaper is waiting for a response, a read/write
//! bit, and a counter of remaining cycles until the next request is
//! required. [`RdagExecutor`] is the cycle-accurate software model of that
//! logic: it walks each sequence of the defense rDAG, demanding a request
//! `weight` cycles after the previous response returned.
//!
//! Like the hardware, which does no work while every counter is still
//! running down, the executor keeps the earliest of those due cycles as a
//! field ([`RdagExecutor::earliest_due`]). It changes only when a sequence
//! emits or completes, so the shaper answers "nothing due" with one
//! compare instead of visiting every sequence on every cycle.
//!
//! Crucially, nothing in this module ever observes the victim's traffic —
//! emission times, banks and types are functions of the defense rDAG and
//! the (receiver-visible) completion times alone. That is the root of the
//! §5 indistinguishability property.

use serde::{DeError, Deserialize, Serialize, Value};

use dg_sim::clock::{ClockRatio, Cycle};
use dg_sim::types::ReqType;

use crate::template::SequenceSpec;

/// A request the defense rDAG prescribes to emit now.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SlotDemand {
    /// Which parallel sequence demands the request.
    pub seq: usize,
    /// Prescribed bank.
    pub bank: u32,
    /// Prescribed read/write type.
    pub req_type: ReqType,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum SeqState {
    /// The next request may be emitted at or after `at`.
    Ready { at: Cycle },
    /// A request is in flight; the sequence stalls until its response.
    WaitingResponse,
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct SeqRuntime {
    spec: SequenceSpec,
    state: SeqState,
    /// Index of the next vertex to emit.
    k: u64,
}

/// Executes a defense rDAG: reports when each sequence demands a request
/// and advances as the shaper emits requests and receives responses.
///
/// # Example
///
/// ```
/// use dg_rdag::exec::RdagExecutor;
/// use dg_rdag::template::RdagTemplate;
/// use dg_sim::clock::ClockRatio;
///
/// let t = RdagTemplate::new(1, 150, 0.0);
/// let mut ex = RdagExecutor::new(t.sequence_specs(8), ClockRatio::new(1));
/// let d = ex.poll(0);
/// assert_eq!(d.len(), 1); // the chain demands its first request at reset
/// ex.emitted(d[0].seq, 0);
/// assert!(ex.poll(0).is_empty()); // now waiting for the response
/// ex.completed(d[0].seq, 100);
/// assert!(ex.poll(249).is_empty()); // weight not yet elapsed
/// assert_eq!(ex.poll(250).len(), 1); // 100 + 150 = 250
/// ```
#[derive(Debug, Clone)]
pub struct RdagExecutor {
    seqs: Vec<SeqRuntime>,
    /// Edge weights converted to CPU cycles.
    weight_cpu: Vec<Cycle>,
    emitted_total: u64,
    /// The earliest `Ready` cycle over `seqs` (`None` while every sequence
    /// waits on a response). Derived state: [`emitted`](Self::emitted) and
    /// [`completed`](Self::completed), the only transitions, keep it
    /// current; it takes no part in equality or the serialized form, and
    /// deserialization rebuilds it.
    next_due: Option<Cycle>,
}

impl PartialEq for RdagExecutor {
    fn eq(&self, other: &Self) -> bool {
        self.seqs == other.seqs
            && self.weight_cpu == other.weight_cpu
            && self.emitted_total == other.emitted_total
    }
}

impl Eq for RdagExecutor {}

impl Serialize for RdagExecutor {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("seqs".to_string(), self.seqs.to_value()),
            ("weight_cpu".to_string(), self.weight_cpu.to_value()),
            ("emitted_total".to_string(), self.emitted_total.to_value()),
        ])
    }
}

impl Deserialize for RdagExecutor {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::custom("expected object for RdagExecutor"))?;
        let mut ex = Self {
            seqs: Deserialize::from_value(serde::field(m, "seqs")?)?,
            weight_cpu: Deserialize::from_value(serde::field(m, "weight_cpu")?)?,
            emitted_total: Deserialize::from_value(serde::field(m, "emitted_total")?)?,
            next_due: None,
        };
        ex.next_due = ex.scan_due();
        Ok(ex)
    }
}

impl RdagExecutor {
    /// Builds an executor over the given sequence specs. Edge weights in
    /// the specs are DRAM cycles and are converted with `ratio`.
    pub fn new(specs: Vec<SequenceSpec>, ratio: ClockRatio) -> Self {
        let weight_cpu = specs.iter().map(|s| ratio.dram_to_cpu(s.weight)).collect();
        let mut ex = Self {
            seqs: specs
                .into_iter()
                .map(|spec| SeqRuntime {
                    spec,
                    state: SeqState::Ready { at: 0 },
                    k: 0,
                })
                .collect(),
            weight_cpu,
            emitted_total: 0,
            next_due: None,
        };
        ex.next_due = ex.scan_due();
        ex
    }

    /// Number of parallel sequences.
    pub fn sequence_count(&self) -> usize {
        self.seqs.len()
    }

    /// Total requests demanded and emitted so far.
    pub fn emitted_total(&self) -> u64 {
        self.emitted_total
    }

    /// Sequences whose next request is due at or before `now`.
    pub fn poll(&self, now: Cycle) -> Vec<SlotDemand> {
        self.seqs
            .iter()
            .enumerate()
            .filter_map(|(i, s)| match s.state {
                SeqState::Ready { at } if at <= now => Some(SlotDemand {
                    seq: i,
                    bank: s.spec.vertex_bank(s.k),
                    req_type: s.spec.vertex_type(s.k),
                }),
                _ => None,
            })
            .collect()
    }

    /// The demand of sequence `seq` if it is due at or before `now`, else
    /// `None`. Allocation-free per-sequence variant of
    /// [`poll`](Self::poll) for the shaper's hot tick path.
    pub fn demand(&self, seq: usize, now: Cycle) -> Option<SlotDemand> {
        let s = &self.seqs[seq];
        match s.state {
            SeqState::Ready { at } if at <= now => Some(SlotDemand {
                seq,
                bank: s.spec.vertex_bank(s.k),
                req_type: s.spec.vertex_type(s.k),
            }),
            _ => None,
        }
    }

    /// The earliest cycle at which any sequence's next request becomes (or
    /// already is) due, or `None` when every sequence is waiting on a
    /// response. This is the executor's contribution to the event-driven
    /// engine: ticks strictly before this cycle cannot produce a demand.
    /// O(1): it reads the cached minimum of the per-sequence counters.
    pub fn earliest_due(&self) -> Option<Cycle> {
        debug_assert_eq!(self.next_due, self.scan_due(), "stale due cycle");
        self.next_due
    }

    /// The earliest due cycle, recomputed from every sequence.
    fn scan_due(&self) -> Option<Cycle> {
        self.seqs
            .iter()
            .filter_map(|s| match s.state {
                SeqState::Ready { at } => Some(at),
                SeqState::WaitingResponse => None,
            })
            .min()
    }

    /// Records that the shaper emitted the demanded request of sequence
    /// `seq` at `now`; the sequence now waits for its response.
    ///
    /// # Panics
    ///
    /// Panics if the sequence was not ready — callers must emit only what
    /// [`poll`](Self::poll) demanded.
    pub fn emitted(&mut self, seq: usize, now: Cycle) {
        let s = &mut self.seqs[seq];
        match s.state {
            SeqState::Ready { at } => {
                assert!(at <= now, "sequence {seq} emitted before it was due");
                s.state = SeqState::WaitingResponse;
                s.k += 1;
                self.emitted_total += 1;
                // Only the sequence holding the minimum can move it.
                if self.next_due == Some(at) {
                    self.next_due = self.scan_due();
                }
            }
            SeqState::WaitingResponse => {
                panic!("sequence {seq} already has a request in flight")
            }
        }
    }

    /// Records that the in-flight request of sequence `seq` completed at
    /// `now`; the next request becomes due `weight` cycles later. When a
    /// request is delayed by contention, everything downstream shifts with
    /// it — the *versatility* property of §4.1.
    ///
    /// # Panics
    ///
    /// Panics if the sequence had no request in flight.
    pub fn completed(&mut self, seq: usize, now: Cycle) {
        let s = &mut self.seqs[seq];
        assert_eq!(
            s.state,
            SeqState::WaitingResponse,
            "sequence {seq} had no request in flight"
        );
        let at = now + self.weight_cpu[seq];
        s.state = SeqState::Ready { at };
        self.next_due = Some(self.next_due.map_or(at, |due| due.min(at)));
    }

    /// Cycle at which sequence `seq`'s next request became due, or `None`
    /// while a request is in flight. Telemetry uses this to measure slot
    /// slack (how long a demand waited before the shaper filled it).
    pub fn due_at(&self, seq: usize) -> Option<Cycle> {
        match self.seqs[seq].state {
            SeqState::Ready { at } => Some(at),
            SeqState::WaitingResponse => None,
        }
    }

    /// True when any sequence has a request in flight.
    pub fn in_flight(&self) -> bool {
        self.seqs
            .iter()
            .any(|s| s.state == SeqState::WaitingResponse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::RdagTemplate;

    fn exec(seqs: u32, weight: u64) -> RdagExecutor {
        let t = RdagTemplate::new(seqs, weight, 0.0);
        RdagExecutor::new(t.sequence_specs(8), ClockRatio::new(1))
    }

    #[test]
    fn all_sequences_demand_at_reset() {
        let ex = exec(4, 100);
        let d = ex.poll(0);
        assert_eq!(d.len(), 4);
        let banks: Vec<u32> = d.iter().map(|s| s.bank).collect();
        assert_eq!(banks, vec![0, 1, 2, 3]);
    }

    #[test]
    fn sequence_lifecycle_and_weight() {
        let mut ex = exec(1, 150);
        ex.emitted(0, 0);
        assert!(ex.poll(1000).is_empty());
        assert!(ex.in_flight());
        ex.completed(0, 200);
        assert!(ex.poll(349).is_empty());
        let d = ex.poll(350);
        assert_eq!(d.len(), 1);
        // A single sequence cycles through every bank in turn.
        assert_eq!(d[0].bank, 1);
    }

    #[test]
    fn delay_propagates_downstream() {
        // The adaptivity property of Figure 5(d): a delayed completion
        // pushes the next arrival out by the same amount.
        let mut ex = exec(1, 150);
        ex.emitted(0, 0);
        ex.completed(0, 100); // uncontended
        let d = ex.poll(250);
        assert_eq!(d.len(), 1);
        ex.emitted(0, 250);
        ex.completed(0, 250 + 175); // contention added 75 cycles
        assert!(ex.poll(250 + 175 + 149).is_empty());
        assert_eq!(ex.poll(250 + 175 + 150).len(), 1);
    }

    #[test]
    fn sequences_advance_independently() {
        let mut ex = exec(2, 100);
        ex.emitted(0, 0);
        ex.emitted(1, 0);
        ex.completed(0, 50);
        // Sequence 0 becomes ready at 150; sequence 1 still in flight.
        let d = ex.poll(150);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].seq, 0);
    }

    #[test]
    fn clock_ratio_scales_weights() {
        let t = RdagTemplate::new(1, 100, 0.0);
        let mut ex = RdagExecutor::new(t.sequence_specs(8), ClockRatio::new(3));
        ex.emitted(0, 0);
        ex.completed(0, 0);
        assert!(ex.poll(299).is_empty());
        assert_eq!(ex.poll(300).len(), 1);
    }

    #[test]
    fn write_vertices_surface_in_demands() {
        let t = RdagTemplate::new(1, 0, 0.5);
        let spec = t.sequence_specs(8);
        let mut ex = RdagExecutor::new(spec.clone(), ClockRatio::new(1));
        let mut types = Vec::new();
        for now in 0..32 {
            let d = ex.poll(now);
            types.push(d[0].req_type);
            ex.emitted(0, now);
            ex.completed(0, now);
        }
        // The demands surface exactly the spec's deterministic write
        // marker, and at ratio 0.5 both types appear.
        let expected: Vec<ReqType> = (0..32).map(|k| spec[0].vertex_type(k)).collect();
        assert_eq!(types, expected);
        assert!(types.contains(&ReqType::Write));
        assert!(types.contains(&ReqType::Read));
    }

    #[test]
    fn emitted_counts() {
        let mut ex = exec(2, 0);
        assert_eq!(ex.emitted_total(), 0);
        ex.emitted(0, 0);
        ex.emitted(1, 0);
        assert_eq!(ex.emitted_total(), 2);
    }

    /// The earliest due cycle, rescanned through the public per-sequence
    /// view — independent of the executor's cached minimum.
    fn fresh_scan(ex: &RdagExecutor) -> Option<Cycle> {
        (0..ex.sequence_count()).filter_map(|s| ex.due_at(s)).min()
    }

    /// Drives `ex` with `steps` random legal transitions: each picks a
    /// sequence and emits it if due, completes it if in flight, and
    /// otherwise only lets time pass. Calls `check` after every one.
    fn random_walk(
        ex: &mut RdagExecutor,
        rng: &mut dg_sim::rng::DetRng,
        steps: usize,
        mut check: impl FnMut(&RdagExecutor),
    ) {
        let mut now = 0;
        for _ in 0..steps {
            now += rng.next_below(60);
            let seq = rng.next_below(ex.sequence_count() as u64) as usize;
            match ex.due_at(seq) {
                Some(at) if at <= now => ex.emitted(seq, now),
                Some(_) => continue,
                None => ex.completed(seq, now),
            }
            check(ex);
        }
    }

    #[test]
    fn cached_due_cycle_matches_a_fresh_scan_after_random_transitions() {
        // Seeded random emit/complete streams over 1, 4 and 8 sequences at
        // clock ratios 1 and 3; weight 0 makes due cycles tie with `now`.
        let (mut transitions, mut emits) = (0u64, 0u64);
        for seed in 0..64u64 {
            for seqs in [1u32, 4, 8] {
                for ratio in [1, 3] {
                    let mut rng = dg_sim::rng::DetRng::new(seed * 97 + u64::from(seqs) * 7 + ratio);
                    let weight = [0, 1, 25, 100, 150][rng.next_below(5) as usize];
                    let t = RdagTemplate::new(seqs, weight, 0.25);
                    let mut ex = RdagExecutor::new(t.sequence_specs(8), ClockRatio::new(ratio));
                    assert_eq!(ex.earliest_due(), fresh_scan(&ex));
                    random_walk(&mut ex, &mut rng, 300, |ex| {
                        transitions += 1;
                        assert_eq!(
                            ex.earliest_due(),
                            fresh_scan(ex),
                            "seed {seed}, {seqs} sequences, ratio {ratio}"
                        );
                    });
                    emits += ex.emitted_total();
                }
            }
        }
        let completes = transitions - emits;
        assert!(
            emits > 10_000 && completes > 10_000,
            "{emits} / {completes}"
        );
    }

    #[test]
    fn serde_round_trip_rebuilds_the_due_cycle() {
        let t = RdagTemplate::new(4, 100, 0.25);
        let mut ex = RdagExecutor::new(t.sequence_specs(8), ClockRatio::new(3));
        let mut rng = dg_sim::rng::DetRng::new(11);
        random_walk(&mut ex, &mut rng, 200, |_| {});
        let v = ex.to_value();
        let keys: Vec<&str> = v
            .as_map()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["seqs", "weight_cpu", "emitted_total"]);
        let back = RdagExecutor::from_value(&v).unwrap();
        assert_eq!(back, ex);
        assert_eq!(back.earliest_due(), ex.earliest_due());
        assert_eq!(back.earliest_due(), fresh_scan(&ex));
    }

    #[test]
    #[should_panic(expected = "already has a request in flight")]
    fn double_emit_panics() {
        let mut ex = exec(1, 100);
        ex.emitted(0, 0);
        ex.emitted(0, 1);
    }

    #[test]
    #[should_panic(expected = "no request in flight")]
    fn stray_completion_panics() {
        let mut ex = exec(1, 100);
        ex.completed(0, 5);
    }

    #[test]
    #[should_panic(expected = "before it was due")]
    fn premature_emit_panics() {
        let mut ex = exec(1, 100);
        ex.emitted(0, 0);
        ex.completed(0, 10);
        ex.emitted(0, 50); // due at 110
    }
}
