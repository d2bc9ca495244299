//! Front-end interfaces: the [`MemorySubsystem`] facade cores talk to, the
//! per-domain [`DomainShaper`] plug-in point (Figure 3), and the
//! [`ShapedMemory`] assembly that routes traffic through shapers.

use std::collections::VecDeque;

use dg_obs::{InterferenceReport, ShaperReport, ShaperTimelineReport, Tracer};
use dg_sim::clock::{earliest_event, CachedEvent, Cycle};
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqKind};

use crate::stats::MemStats;

/// The facade between cores/caches and whatever memory path the experiment
/// configures (insecure controller, shaped controller, Fixed Service, …).
pub trait MemorySubsystem: Send {
    /// Offers a request. On back-pressure the request is handed back and the
    /// caller must retry later.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the accepting queue is full.
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest>;

    /// Advances one CPU cycle, appending responses that complete this cycle
    /// and are visible to cores (fake responses are filtered out by the
    /// shaping layers) to `out`. The buffer is caller-owned and reused
    /// across ticks; implementations append and never clear it.
    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>);

    /// Convenience wrapper over [`tick_into`](Self::tick_into) returning a
    /// fresh `Vec`. Tests and one-shot harnesses use this; the system hot
    /// loop uses `tick_into` with a reusable buffer.
    fn tick(&mut self, now: Cycle) -> Vec<MemResponse> {
        let mut out = Vec::new();
        self.tick_into(now, &mut out);
        out
    }

    /// The earliest cycle `t >= now` at which a tick of this subsystem could
    /// produce a response or change whether it accepts a request, assuming
    /// no new requests are sent to it in the meantime. `None` means the
    /// subsystem wakes only on external input. The default `Some(now)`
    /// ("always active") is conservative and disables cycle skipping for
    /// implementations that do not opt in.
    ///
    /// This is a no-op contract the engine caches on: no tick before `t`
    /// changes what a core can see, so the answer stays valid — and the
    /// engine keeps it without asking again — until the subsystem accepts a
    /// request or is ticked at or after `t`. A refused request and
    /// [`settle_warp`](Self::settle_warp) must leave it unchanged.
    ///
    /// A subsystem may leave out internal events no core can observe (a
    /// shaper's fake traffic, DRAM commands, refresh) and run them at its
    /// next contact instead: `tick_into`, `try_send` or `settle_warp` first
    /// runs, in cycle order, the skipped events before the contact's cycle.
    /// [`next_event_at_eager`](Self::next_event_at_eager) is then the
    /// answer that includes them. [`ShapedMemory`] does so while no core
    /// request is inside it, and [`MemoryController`](crate::MemoryController)
    /// always: it answers a lower bound on its next completion. Such an
    /// answer must not move earlier across a catch-up, as a kept answer is
    /// not asked again. An installed tracer changes none of this: a
    /// catch-up records its events late, at the cycles they happened, and
    /// the tracer's ring sorts them in.
    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// [`next_event_at`](Self::next_event_at) with the internal events
    /// included: the earliest cycle from `now` at which a tick could change
    /// any state, for a caller that ticks every event itself. The NoC
    /// engine needs it: its barriers and quiescence skips are placed from
    /// these answers, so they must not depend on how lazily a channel runs.
    fn next_event_at_eager(&self, now: Cycle) -> Option<Cycle> {
        self.next_event_at(now)
    }

    /// Settles the per-cycle bookkeeping of a warped span `[from, to)`:
    /// cycles the event engine skipped because no component had an event
    /// in them. Nothing changes state inside such a span, but two kinds of
    /// per-cycle accounting still happen in the naive loop and must be
    /// replayed here to keep both engines byte-identical:
    ///
    /// - a controller charges every pending transaction's stall on each
    ///   command-bus edge (interference matrix, tFAW stall cycles), and
    ///   first issues the DRAM commands and refreshes it left out of its
    ///   answer, as at any contact;
    /// - every back-pressured core offers its refused request again on
    ///   each cycle. `refused` lists those requests in core order, one per
    ///   core, and each layer credits the refusals it would have counted
    ///   (DAGguise shapers count `rejected` and trace `ShaperReject`).
    ///
    /// Settling is idempotent for a layer's own bookkeeping, so a caller
    /// may settle a span more than once, e.g. once for the layer's own
    /// span and once per refused request. Layers with no per-cycle
    /// accounting keep the default no-op. A lazily run subsystem (see
    /// [`next_event_at`](Self::next_event_at)) first runs its skipped
    /// events before `to`, so settling the empty span `[now, now)` brings
    /// it up to `now`.
    fn settle_warp(&mut self, _from: Cycle, _to: Cycle, _refused: &[MemRequest]) {}

    /// Aggregate statistics.
    fn stats(&self) -> &MemStats;

    /// Mutable statistics access (used to finalize measurement windows).
    fn stats_mut(&mut self) -> &mut MemStats;

    /// Re-derives any cached aggregate statistics. No memory path caches
    /// any and the engine never calls it; it remains only because the
    /// benchmark package's (`perfbench/`) wrappers forward it.
    fn refresh_stats(&mut self) {}

    /// Free request slots at the acceptance boundary (for flow control).
    fn free_slots(&self) -> usize;

    /// Installs an observability tracer. Implementations that emit trace
    /// events store the handle (and forward it to nested components); the
    /// default ignores it.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Conformance reports of any shapers nested in this subsystem, for the
    /// end-of-run [`dg_obs::RunReport`]. Unshaped subsystems return none.
    fn shaper_reports(&self) -> Vec<ShaperReport> {
        Vec::new()
    }

    /// Who-delayed-whom contention attribution, when this subsystem drives
    /// a stall-attributing controller. Fixed-schedule defenses without a
    /// shared command scheduler return `None`.
    fn interference(&self) -> Option<InterferenceReport> {
        None
    }

    /// Enables windowed telemetry on any nested shapers; the default (and
    /// shaperless subsystems) ignore it.
    fn enable_shaper_timelines(&mut self, _window: Cycle) {}

    /// Windowed shaper telemetry, empty unless
    /// [`enable_shaper_timelines`](Self::enable_shaper_timelines) was called
    /// on a subsystem with timeline-capable shapers.
    fn shaper_timelines(&self) -> Vec<ShaperTimelineReport> {
        Vec::new()
    }
}

/// A per-security-domain request shaper: the proxy agent of §4 that sits
/// between the LLC and the memory controller's transaction queue.
///
/// `dagguise::Shaper` and `dg_defenses::CamouflageShaper` implement this;
/// unprotected domains use [`PassThrough`].
pub trait DomainShaper: Send {
    /// The security domain this shaper serves.
    fn domain(&self) -> DomainId;

    /// Offers a core request to the shaper's private queue.
    ///
    /// # Errors
    ///
    /// Returns `Err(req)` when the private queue is full (the core must
    /// stall — this back-pressure is invisible to other domains).
    fn try_accept(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest>;

    /// Advances one CPU cycle, appending at most `space` requests bound for
    /// the global transaction queue to `out`. The buffer is caller-owned
    /// and reused across ticks; implementations append and never clear it.
    fn tick_into(&mut self, now: Cycle, space: usize, out: &mut Vec<MemRequest>);

    /// Convenience wrapper over [`tick_into`](Self::tick_into) returning a
    /// fresh `Vec`; the hot path uses `tick_into` with a reusable buffer.
    fn tick(&mut self, now: Cycle, space: usize) -> Vec<MemRequest> {
        let mut out = Vec::new();
        self.tick_into(now, space, &mut out);
        out
    }

    /// The earliest cycle `t >= now` at which this shaper could emit a
    /// request or otherwise change state, absent new accepts/responses.
    /// `None` means the shaper wakes only on external input. The default
    /// `Some(now)` is conservative and disables cycle skipping.
    ///
    /// This is a no-op contract, not only a hint for the event engine: a
    /// tick before this cycle (with no accept or response since it was
    /// read) must do nothing. [`ShapedMemory`] relies on it under both
    /// engines, ticking a shaper only when its kept answer is due or it
    /// took input, and asking again after each such tick — so the answer
    /// must be O(1).
    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }

    /// Credits the refusals of `req`, which a back-pressured core offered
    /// again on every cycle of the warped span `[from, to)` and this shaper
    /// refused each time (see [`MemorySubsystem::settle_warp`]). Shapers
    /// that count nothing on refusal keep the default no-op.
    fn settle_refusals(&mut self, _req: &MemRequest, _from: Cycle, _to: Cycle) {}

    /// Observes a completed transaction belonging to this domain. Returns
    /// the response to forward to the core (`None` for fake requests, whose
    /// responses the shaper consumes).
    fn on_response(&mut self, resp: &MemResponse, now: Cycle) -> Option<MemResponse>;

    /// Requests currently buffered (diagnostics / drain detection).
    fn pending(&self) -> usize;

    /// Installs an observability tracer; the default ignores it.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// Conformance report for the end-of-run [`dg_obs::RunReport`];
    /// shapers without interesting statistics return `None`.
    fn report(&self) -> Option<ShaperReport> {
        None
    }

    /// Enables windowed emission telemetry; shapers without a timeline
    /// (like [`PassThrough`]) ignore it.
    fn enable_timeline(&mut self, _window: Cycle) {}

    /// The recorded emission timeline, if enabled and supported.
    fn timeline(&self) -> Option<ShaperTimelineReport> {
        None
    }
}

/// The trivial shaper for unprotected domains: a small FIFO that forwards
/// requests verbatim as transaction-queue space allows.
#[derive(Debug)]
pub struct PassThrough {
    domain: DomainId,
    queue: VecDeque<MemRequest>,
    capacity: usize,
}

impl PassThrough {
    /// Creates a pass-through front for `domain` with an internal buffer of
    /// `capacity` requests.
    pub fn new(domain: DomainId, capacity: usize) -> Self {
        Self {
            domain,
            queue: VecDeque::with_capacity(capacity),
            capacity,
        }
    }
}

impl DomainShaper for PassThrough {
    fn domain(&self) -> DomainId {
        self.domain
    }

    fn try_accept(&mut self, req: MemRequest, _now: Cycle) -> Result<(), MemRequest> {
        if self.queue.len() >= self.capacity {
            return Err(req);
        }
        self.queue.push_back(req);
        Ok(())
    }

    fn tick_into(&mut self, _now: Cycle, space: usize, out: &mut Vec<MemRequest>) {
        if self.queue.is_empty() {
            return;
        }
        let n = space.min(self.queue.len());
        out.extend(self.queue.drain(..n));
    }

    fn on_response(&mut self, resp: &MemResponse, _now: Cycle) -> Option<MemResponse> {
        Some(*resp)
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        // A pass-through only acts while it holds buffered requests.
        if self.queue.is_empty() {
            None
        } else {
            Some(now)
        }
    }
}

/// A memory subsystem whose domains each pass through a [`DomainShaper`]
/// before reaching the shared controller — the deployment shape of
/// Figure 3/8.
///
/// It keeps each shaper's last `next_event_at` answer and ticks (then
/// polls again) only the shapers that are due or took an accept or a
/// response since their last tick: by the shaper no-op contract every
/// other tick would do nothing.
///
/// While no core request is inside it — none queued in a shaper, none in
/// flight in the controller — nothing it does is visible to a core: fake
/// emissions and completions, DRAM commands and refresh are internal
/// events. It then runs them lazily: [`MemorySubsystem::next_event_at`]
/// answers `None`, and the next contact first runs the skipped events in
/// cycle order, ticking where the engine would with a request inside and
/// settling the controller's spans between. An accepted request ends lazy
/// mode; a shaper refuses only while it holds a request, so a
/// back-pressured core always finds it off; the last real response turns
/// it back on. Every response and refusal a core sees thus still falls on
/// a cycle the caller ticked. With a request inside, it folds the
/// controller's own answer, itself lazy about DRAM commands and refresh
/// (see [`MemoryController`](crate::MemoryController)); its
/// [`next_event_at_eager`](MemorySubsystem::next_event_at_eager) folds the
/// controller's eager answer. A catch-up records its trace events late,
/// stamped with the cycle they happened at; the tracer's ring keeps events
/// in cycle order, so a trace reads as the per-cycle loop records it.
pub struct ShapedMemory<M: MemorySubsystem> {
    inner: M,
    shapers: Vec<Box<dyn DomainShaper>>,
    /// Each shaper's last `next_event_at` answer.
    events: Vec<CachedEvent>,
    /// Reusable per-tick buffer for controller completions (zero-alloc path).
    completions: Vec<MemResponse>,
    /// Reusable per-tick buffer for shaper emissions (zero-alloc path).
    emissions: Vec<MemRequest>,
    /// Core requests accepted and not yet answered.
    real: usize,
    /// The first cycle not yet run: ticks and settlements have covered
    /// every cycle before it (kept current whenever `real` is 0).
    cursor: Cycle,
}

impl<M: MemorySubsystem> ShapedMemory<M> {
    /// Wraps `inner` with one shaper per domain, indexed by
    /// [`DomainId`]`(i)`. Every domain that can send traffic must have an
    /// entry.
    pub fn new(inner: M, shapers: Vec<Box<dyn DomainShaper>>) -> Self {
        for (i, s) in shapers.iter().enumerate() {
            assert_eq!(
                s.domain(),
                DomainId(i as u16),
                "shaper {i} must serve domain {i}"
            );
        }
        Self {
            inner,
            events: vec![CachedEvent::STALE; shapers.len()],
            shapers,
            completions: Vec::new(),
            emissions: Vec::new(),
            real: 0,
            cursor: 0,
        }
    }

    /// The wrapped subsystem (for inspection in tests/harnesses).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Requests buffered across all shapers.
    pub fn pending(&self) -> usize {
        self.shapers.iter().map(|s| s.pending()).sum()
    }

    /// Runs the internal events skipped before `to`, in cycle order, and
    /// settles the controller's spans between them. Only called while no
    /// core request is inside, so none of these ticks answers a core. It
    /// ticks where the engine would with a core request inside: a lazy
    /// controller runs its own command edges at each contact.
    #[cold]
    #[inline(never)]
    fn catch_up(&mut self, to: Cycle) {
        let mut none = Vec::new();
        while self.cursor < to {
            let inner = self.inner.next_event_at(self.cursor);
            let at = self.next_event(self.cursor, inner).filter(|&t| t < to);
            let next = at.unwrap_or(to);
            self.inner.settle_warp(self.cursor, next, &[]);
            self.cursor = next;
            if let Some(t) = at {
                self.tick_into(t, &mut none);
                debug_assert!(none.is_empty(), "an internal event answered a core");
            }
        }
    }

    /// The assembly's next event from `now` given the controller's answer
    /// `inner`. It acts whenever the controller acts (completions feed
    /// shaper executors the same cycle) or any shaper wants to emit. With
    /// the transaction queue full no shaper can emit, so their due slots
    /// wait for the completion that frees a slot — a controller event. A
    /// shaper's kept answer stands unless it is stale.
    fn next_event(&self, now: Cycle, inner: Option<Cycle>) -> Option<Cycle> {
        let mut ev = inner;
        if self.inner.free_slots() > 0 {
            for (s, event) in self.shapers.iter().zip(&self.events) {
                let at = if event.stale(now) {
                    s.next_event_at(now)
                } else {
                    event.at()
                };
                ev = earliest_event(ev, at);
            }
        }
        ev
    }
}

impl<M: MemorySubsystem> std::fmt::Debug for ShapedMemory<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShapedMemory")
            .field("shapers", &self.shapers.len())
            .field("pending", &self.pending())
            .finish()
    }
}

impl<M: MemorySubsystem> MemorySubsystem for ShapedMemory<M> {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let idx = req.domain.0 as usize;
        assert!(
            idx < self.shapers.len(),
            "no shaper for domain {}",
            req.domain
        );
        if self.real == 0 && self.cursor < now {
            self.catch_up(now);
        }
        match self.shapers[idx].try_accept(req, now) {
            Ok(()) => {
                self.events[idx].touch();
                self.real += usize::from(req.kind == ReqKind::Real);
                Ok(())
            }
            Err(req) => {
                assert!(
                    self.shapers[idx].pending() > 0,
                    "shaper {idx} refused a request while holding none"
                );
                Err(req)
            }
        }
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        if self.real == 0 && self.cursor < now {
            self.catch_up(now);
        }
        self.cursor = now + 1;
        // 1. Advance the controller and route completions back through the
        //    owning shapers; only real responses escape to the cores.
        let mut completions = std::mem::take(&mut self.completions);
        completions.clear();
        self.inner.tick_into(now, &mut completions);
        for resp in completions.drain(..) {
            if resp.kind == ReqKind::Real {
                self.real -= 1;
            }
            let idx = resp.domain.0 as usize;
            if idx < self.shapers.len() {
                self.events[idx].touch();
                if let Some(r) = self.shapers[idx].on_response(&resp, now) {
                    out.push(r);
                }
            } else {
                out.push(resp);
            }
        }
        self.completions = completions;
        // 2. Let each due shaper emit into the transaction queue as space
        //    allows. Fixed iteration order keeps the simulation
        //    deterministic.
        let _prof = dg_prof::span("shaper");
        let mut emissions = std::mem::take(&mut self.emissions);
        for (s, event) in self.shapers.iter_mut().zip(&mut self.events) {
            let space = self.inner.free_slots();
            if space == 0 {
                break;
            }
            if !event.due(now) {
                continue;
            }
            emissions.clear();
            s.tick_into(now, space, &mut emissions);
            for req in emissions.drain(..) {
                // Shapers are told the available space, so this must fit.
                self.inner
                    .try_send(req, now)
                    .expect("shaper exceeded advertised space");
            }
            event.set(s.next_event_at(now + 1));
        }
        self.emissions = emissions;
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if self.real == 0 {
            None
        } else {
            self.next_event(now, self.inner.next_event_at(now))
        }
    }

    fn next_event_at_eager(&self, now: Cycle) -> Option<Cycle> {
        self.next_event(now, self.inner.next_event_at_eager(now))
    }

    fn settle_warp(&mut self, from: Cycle, to: Cycle, refused: &[MemRequest]) {
        if self.real == 0 {
            if self.cursor < to {
                self.catch_up(to);
            }
        } else {
            self.inner.settle_warp(from, to, &[]);
        }
        // Core requests stop at the shapers, so the refusals are theirs.
        for req in refused {
            if let Some(s) = self.shapers.get_mut(req.domain.0 as usize) {
                s.settle_refusals(req, from, to);
            }
        }
    }

    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        self.inner.stats_mut()
    }

    fn free_slots(&self) -> usize {
        // Acceptance is bounded per shaper, by its private queue in
        // `try_accept`, not by the global transaction queue, so the
        // assembly itself sets no bound — unless it has no shaper to
        // accept anything.
        if self.shapers.is_empty() {
            0
        } else {
            usize::MAX
        }
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer.clone());
        for s in &mut self.shapers {
            s.set_tracer(tracer.clone());
        }
    }

    fn shaper_reports(&self) -> Vec<ShaperReport> {
        self.shapers.iter().filter_map(|s| s.report()).collect()
    }

    fn interference(&self) -> Option<InterferenceReport> {
        self.inner.interference()
    }

    fn enable_shaper_timelines(&mut self, window: Cycle) {
        for s in &mut self.shapers {
            s.enable_timeline(window);
        }
    }

    fn shaper_timelines(&self) -> Vec<ShaperTimelineReport> {
        self.shapers.iter().filter_map(|s| s.timeline()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{MemoryController, SchedPolicy};
    use dg_sim::config::SystemConfig;
    use dg_sim::types::{ReqId, ReqType};

    fn mk_req(domain: u16, addr: u64, id: u64) -> MemRequest {
        MemRequest::read(DomainId(domain), addr, 0).with_id(ReqId(id))
    }

    #[test]
    fn pass_through_preserves_order_and_backpressure() {
        let mut p = PassThrough::new(DomainId(0), 2);
        p.try_accept(mk_req(0, 0x0, 1), 0).unwrap();
        p.try_accept(mk_req(0, 0x40, 2), 0).unwrap();
        assert!(p.try_accept(mk_req(0, 0x80, 3), 0).is_err());
        assert_eq!(p.pending(), 2);
        let out = p.tick(0, 1);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, ReqId(1));
        let out = p.tick(1, 8);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, ReqId(2));
        assert_eq!(p.pending(), 0);
    }

    #[test]
    fn pass_through_forwards_responses() {
        let mut p = PassThrough::new(DomainId(0), 2);
        let resp = MemResponse {
            id: ReqId(1),
            domain: DomainId(0),
            addr: 0,
            req_type: ReqType::Read,
            kind: ReqKind::Real,
            arrived_at: 0,
            completed_at: 10,
        };
        assert_eq!(p.on_response(&resp, 10), Some(resp));
    }

    #[test]
    fn shaped_memory_round_trips_requests() {
        let cfg = SystemConfig::two_core();
        let mc = MemoryController::new(&cfg, SchedPolicy::FrFcfs);
        let shapers: Vec<Box<dyn DomainShaper>> = vec![
            Box::new(PassThrough::new(DomainId(0), 8)),
            Box::new(PassThrough::new(DomainId(1), 8)),
        ];
        let mut mem = ShapedMemory::new(mc, shapers);
        mem.try_send(mk_req(0, 0x40, 7), 0).unwrap();
        mem.try_send(mk_req(1, 0x80, 9), 0).unwrap();
        let mut got = Vec::new();
        for now in 0..100_000 {
            got.extend(mem.tick(now));
            if got.len() == 2 {
                break;
            }
        }
        let mut ids: Vec<u64> = got.iter().map(|r| r.id.0).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![7, 9]);
    }

    #[test]
    fn shaped_memory_leaves_acceptance_to_its_shapers() {
        let cfg = SystemConfig::two_core();
        let shapers: Vec<Box<dyn DomainShaper>> = vec![
            Box::new(PassThrough::new(DomainId(0), 1)),
            Box::new(PassThrough::new(DomainId(1), 1)),
        ];
        let mut mem = ShapedMemory::new(MemoryController::new(&cfg, SchedPolicy::FrFcfs), shapers);
        assert_eq!(mem.free_slots(), usize::MAX);
        // A full private queue refuses in `try_accept`; the assembly's own
        // view does not change.
        mem.try_send(mk_req(0, 0x40, 1), 0).unwrap();
        assert!(mem.try_send(mk_req(0, 0x80, 2), 0).is_err());
        assert_eq!(mem.free_slots(), usize::MAX);

        let none = ShapedMemory::new(MemoryController::new(&cfg, SchedPolicy::FrFcfs), Vec::new());
        assert_eq!(none.free_slots(), 0);
    }

    #[test]
    #[should_panic(expected = "must serve domain")]
    fn misindexed_shaper_rejected() {
        let cfg = SystemConfig::two_core();
        let mc = MemoryController::new(&cfg, SchedPolicy::FrFcfs);
        let shapers: Vec<Box<dyn DomainShaper>> = vec![Box::new(PassThrough::new(DomainId(1), 8))];
        let _ = ShapedMemory::new(mc, shapers);
    }
}
