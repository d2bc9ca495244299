//! One shard: a contiguous slice of cores and memory endpoints advanced by
//! the one event engine — the per-cycle tick, the quiescence warp and the
//! settlement of the cycles a warp skips.
//!
//! The NoC hop latency `L` fixes the topology. At `L = 0` (the
//! direct-wired system of the paper's Table 2, always one shard) the single
//! memory endpoint is the whole memory path: a core's send is a direct
//! call into it, refused the same cycle, completions reach their cores the
//! cycle they complete, and all cores share one L3. At `L ≥ 1` every
//! core↔channel message — including one between a core and a channel in
//! the *same* shard — takes the hop: requests leave through the shard's
//! bounded SPSC egress ring, responses through its response outbox, and
//! the coordinator routes both at the next barrier; each core has a private
//! L3 slice. Keeping the logical topology independent of the partitioning
//! is what makes an `S`-shard run byte-identical to the single-shard one.

use std::collections::VecDeque;

use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_fault::SimFaultKind;
use dg_mem::{ChannelMap, MemStats, MemorySubsystem};
use dg_obs::{CoreReport, IntervalSample, IntervalSampler, Tracer};
use dg_prof::EngineCounters;
use dg_sim::clock::{earliest_event, Cycle};
use dg_sim::types::{MemRequest, MemResponse};

use crate::msg::{SpscRing, StampedReq, StampedResp};

/// Per-core requests admitted onto the NoC per superstep. Far above any
/// core's outstanding-miss limit, so it never binds; it gives the egress
/// ring a provable capacity bound.
const LINK_WINDOW: u64 = 256;

/// Static poll labels for the quiescence scan; global indices from eight
/// on share a tail label.
const CORE_POLL_NAMES: [&str; 8] = [
    "core0", "core1", "core2", "core3", "core4", "core5", "core6", "core7",
];
const CHAN_POLL_NAMES: [&str; 8] = [
    "chan0", "chan1", "chan2", "chan3", "chan4", "chan5", "chan6", "chan7",
];

/// The labels of the components one quiescence scan of a shard polls, in
/// scan order: the memory endpoint (`mem` at hop 0, else each channel by
/// global index), then each core.
fn poll_labels(
    noc: Cycle,
    (core_base, cores): (usize, usize),
    (chan_base, chans): (usize, usize),
) -> Vec<&'static str> {
    let name =
        |names: &'static [&'static str; 8], tail, i: usize| names.get(i).copied().unwrap_or(tail);
    let memory: Vec<_> = if noc == 0 {
        vec!["mem"]
    } else {
        (chan_base..chan_base + chans)
            .map(|c| name(&CHAN_POLL_NAMES, "chan8plus", c))
            .collect()
    };
    let cores = (core_base..core_base + cores).map(|i| name(&CORE_POLL_NAMES, "core8plus", i));
    memory.into_iter().chain(cores).collect()
}

/// When a shard stops advancing (evaluated after every tick at hop 0,
/// and by the coordinator at barriers otherwise).
pub(crate) enum StopWhen {
    /// Every core drained its workload.
    AllFinished,
    /// The core with this global index finished (the victim-centric
    /// measurement interval).
    CoreFinished(usize),
    /// Never: a fixed window, or a superstep.
    Never,
}

/// Live state of an injected simulation fault (see [`SimFaultKind`]).
/// Data-plane kinds (stuck bank, dropped response) rewrite the responses
/// delivered to the shard's cores; control-plane kinds (frozen clock,
/// panic) are no-ops here — the supervision loop that drives the system
/// implements them.
struct FaultState {
    kind: SimFaultKind,
    /// Responses captured while a stuck bank holds its window.
    held: Vec<MemResponse>,
    /// Whether a `DropResponse` fault has consumed its victim.
    dropped: bool,
    /// Primary-domain responses seen so far (for `DropResponse`).
    seen_primary: u64,
}

impl FaultState {
    /// Rewrites this cycle's deliveries: a stuck bank detains responses
    /// delivered inside its hold window and releases them (in arrival
    /// order, ahead of same-cycle traffic) once it unwedges; a drop fault
    /// silently removes the nth response bound for the primary domain.
    fn apply(&mut self, now: Cycle, resps: &mut Vec<MemResponse>) {
        match self.kind {
            SimFaultKind::StuckBank { at, hold } => {
                let release = at.saturating_add(hold);
                if now >= at && now < release {
                    self.held.append(resps);
                } else if now >= release && !self.held.is_empty() {
                    resps.splice(0..0, self.held.drain(..));
                }
            }
            SimFaultKind::DropResponse { nth } if !self.dropped => {
                for i in 0..resps.len() {
                    if resps[i].domain.0 == 0 {
                        self.seen_primary += 1;
                        if self.seen_primary == nth {
                            resps.remove(i);
                            self.dropped = true;
                            break;
                        }
                    }
                }
            }
            _ => {}
        }
    }

    /// The next fault boundary from `now`. A warp must never jump a stuck
    /// bank's activation or release cycle (detained responses would stay
    /// detained past their deterministic delivery time).
    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let SimFaultKind::StuckBank { at, hold } = self.kind else {
            return None;
        };
        let release = (!self.held.is_empty()).then(|| at.saturating_add(hold));
        earliest_event((now < at).then_some(at), release)
    }
}

/// A core's send state.
#[derive(Default)]
struct PortState {
    /// Next request sequence number (stamps the NoC total order).
    seq: u64,
    /// Requests issued in the current superstep, against the link window.
    sent: u64,
    /// At hop 0, the first request the memory refused during the core's
    /// last tick. By the [`Core`] contract it is offered again on every
    /// later tick until accepted, which is what a warp settles.
    refused: Option<MemRequest>,
}

/// The memory path as one core sees it during its tick: a direct call
/// into the memory endpoint at hop 0, otherwise the NoC egress port, which
/// stamps each accepted request with its delivery cycle and pushes it onto
/// the shard's ring. The link window back-pressures the core through its
/// ordinary `try_send`-retry path, identically for every shard count.
struct Port<'a> {
    direct: Option<&'a mut (dyn MemorySubsystem + 'static)>,
    ring: &'a SpscRing<StampedReq>,
    state: &'a mut PortState,
    core: u32,
    deliver_at: Cycle,
    /// Placeholder statistics (cores never read them).
    stats: &'a mut MemStats,
}

impl MemorySubsystem for Port<'_> {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let state = &mut *self.state;
        if let Some(mem) = &mut self.direct {
            let r = mem.try_send(req, now);
            if r.is_err() && state.refused.is_none() {
                state.refused = Some(req);
            }
            return r;
        }
        if state.sent >= LINK_WINDOW {
            return Err(req);
        }
        let stamped = StampedReq {
            deliver_at: self.deliver_at,
            core: self.core,
            seq: state.seq,
            req,
        };
        // A full ring is unreachable by construction (its capacity covers
        // every core's window), but back-pressure is the safe answer.
        self.ring.push(stamped).map_err(|back| back.req)?;
        state.seq += 1;
        state.sent += 1;
        Ok(())
    }

    fn tick_into(&mut self, _now: Cycle, _out: &mut Vec<MemResponse>) {}

    fn stats(&self) -> &MemStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        self.stats
    }

    fn free_slots(&self) -> usize {
        match &self.direct {
            Some(mem) => mem.free_slots(),
            None => (LINK_WINDOW - self.state.sent) as usize,
        }
    }
}

/// A memory endpoint owned by a shard, with its NoC ingress queue.
struct ShardChannel {
    mem: Box<dyn MemorySubsystem>,
    /// Requests awaiting delivery, sorted by `(deliver_at, core, seq)` —
    /// the router appends sorted, non-overlapping batches.
    ingress: VecDeque<StampedReq>,
    /// The ingress head the channel refused on the last ticked cycle (in
    /// channel-local form), unless the channel acted after refusing it.
    /// Injection retries it every cycle until the channel accepts it, which
    /// only a channel event can bring about, so it wakes nothing; warps
    /// settle its refusals instead.
    refused: Option<MemRequest>,
    /// Next response sequence number.
    resp_seq: u64,
}

impl ShardChannel {
    /// When the NoC ingress next needs a tick: its head's delivery cycle,
    /// unless the channel refused that head.
    fn ingress_event(&self, now: Cycle) -> Option<Cycle> {
        match self.ingress.front() {
            Some(front) if self.refused.is_none() => Some(front.deliver_at.max(now)),
            _ => None,
        }
    }
}

/// A partition element of a [`crate::System`].
pub(crate) struct Shard {
    /// Global index of the first owned core (the partition is contiguous).
    core_base: usize,
    /// Global index of the first owned channel.
    chan_base: usize,
    cores: Vec<Box<dyn Core>>,
    ports: Vec<PortState>,
    /// One L3 shared by every core (hop 0) or one private slice per core.
    l3: Vec<SetAssocCache>,
    channels: Vec<ShardChannel>,
    /// Responses awaiting delivery to owned cores, sorted by
    /// `(deliver_at, channel, seq)`.
    resp_ingress: VecDeque<StampedResp>,
    /// Bounded egress link toward the router (requests).
    req_link: SpscRing<StampedReq>,
    /// Egress outbox toward the router (responses; the response network is
    /// modeled with guaranteed delivery, see DESIGN.md).
    resp_out: Vec<StampedResp>,
    map: ChannelMap,
    /// NoC hop latency `L` in CPU cycles (also the superstep width).
    noc: Cycle,
    /// Event-driven quiescent-cycle skipping.
    skip: bool,
    pub(crate) engine: EngineCounters,
    /// Remaining ticks before the next warp attempt. A failed attempt
    /// (some component active right now) costs a component scan; backing
    /// off keeps that overhead negligible under saturation while delaying
    /// idle detection by at most the backoff length.
    warp_backoff: Cycle,
    /// Consecutive failed warp attempts: the backoff grows with the streak
    /// so steadily-saturated runs scan rarely, while runs that alternate
    /// activity and idleness keep trying nearly every tick.
    warp_fail_streak: Cycle,
    /// Whether event tracing is on: refusals then settle cycle by cycle.
    traced: bool,
    pub(crate) sampler: Option<IntervalSampler>,
    fault: Option<FaultState>,
    /// Reusable scratch buffers keeping the per-tick path allocation-free.
    resp_buf: Vec<MemResponse>,
    refused_buf: Vec<MemRequest>,
    instr_buf: Vec<u64>,
    bytes_buf: Vec<u64>,
    /// Placeholder statistics handed to cores through their ports.
    port_stats: MemStats,
}

impl Shard {
    /// Assembles a shard owning `cores` (global indices `core_base..`) and
    /// `channels` (global indices `chan_base..`), both contiguous.
    pub(crate) fn new(
        (core_base, cores): (usize, Vec<Box<dyn Core>>),
        l3: Vec<SetAssocCache>,
        (chan_base, channels): (usize, Vec<Box<dyn MemorySubsystem>>),
        map: ChannelMap,
        noc: Cycle,
        skip: bool,
    ) -> Self {
        debug_assert!(noc > 0 || channels.len() == 1, "hop 0 has one endpoint");
        let (n_cores, n_chans) = (cores.len(), channels.len());
        let ring_capacity = if noc == 0 {
            0
        } else {
            cores.len() as u64 * LINK_WINDOW
        };
        Self {
            core_base,
            chan_base,
            ports: cores.iter().map(|_| PortState::default()).collect(),
            cores,
            l3,
            channels: channels
                .into_iter()
                .map(|mem| ShardChannel {
                    mem,
                    ingress: VecDeque::new(),
                    refused: None,
                    resp_seq: 0,
                })
                .collect(),
            resp_ingress: VecDeque::new(),
            req_link: SpscRing::new(ring_capacity as usize),
            resp_out: Vec::new(),
            map,
            noc,
            skip,
            engine: EngineCounters::with_poll_labels(poll_labels(
                noc,
                (core_base, n_cores),
                (chan_base, n_chans),
            )),
            warp_backoff: 0,
            warp_fail_streak: 0,
            traced: false,
            sampler: None,
            fault: None,
            resp_buf: Vec::new(),
            refused_buf: Vec::new(),
            instr_buf: Vec::new(),
            bytes_buf: Vec::new(),
            port_stats: MemStats::new(0, 64),
        }
    }

    pub(crate) fn set_event_skipping(&mut self, on: bool) {
        self.skip = on;
    }

    pub(crate) fn inject_fault(&mut self, kind: SimFaultKind) {
        self.fault = Some(FaultState {
            kind,
            held: Vec::new(),
            dropped: false,
            seen_primary: 0,
        });
    }

    /// Installs an observability tracer on every owned core and channel.
    pub(crate) fn set_tracer(&mut self, tracer: &Tracer) {
        for core in &mut self.cores {
            core.set_tracer(tracer.clone());
        }
        for ch in &mut self.channels {
            ch.mem.set_tracer(tracer.clone());
        }
        self.traced = tracer.enabled();
    }

    pub(crate) fn enable_shaper_timelines(&mut self, window: Cycle) {
        for ch in &mut self.channels {
            ch.mem.enable_shaper_timelines(window);
        }
    }

    pub(crate) fn cores(&self) -> &[Box<dyn Core>] {
        &self.cores
    }

    /// The owned core with global index `gidx`.
    pub(crate) fn core(&self, gidx: usize) -> &dyn Core {
        self.cores[gidx - self.core_base].as_ref()
    }

    /// The memory path of a direct-wired (hop 0) shard: its one endpoint.
    pub(crate) fn memory(&self) -> &dyn MemorySubsystem {
        assert_eq!(
            self.noc, 0,
            "only a direct-wired system has one memory path"
        );
        self.channels[0].mem.as_ref()
    }

    /// The stop condition's value, if it holds (for the owned cores).
    #[inline]
    pub(crate) fn stopped(&self, stop: &StopWhen, now: Cycle) -> Option<Cycle> {
        match *stop {
            StopWhen::AllFinished => self.cores.iter().all(|c| c.finished()).then_some(now),
            StopWhen::CoreFinished(d) => self.core(d).finished_at(),
            StopWhen::Never => None,
        }
    }

    /// Advances from `*now` toward `end`: ticks cycle by cycle and, with
    /// skipping on, warps over quiescent spans. Returns `stop`'s value as
    /// soon as it holds before a tick, and `None` at `end`; a warp never
    /// passes the tick that satisfied it.
    ///
    /// Finished flags change only inside a tick, so `stop` is evaluated
    /// once on entry and once after each tick: that one value guards both
    /// the warp (taken only while it is `None`, which a warp cannot
    /// change) and the next tick.
    pub(crate) fn run(&mut self, now: &mut Cycle, end: Cycle, stop: &StopWhen) -> Option<Cycle> {
        let mut stopped = self.stopped(stop, *now);
        while *now < end {
            if stopped.is_some() {
                return stopped;
            }
            self.tick_cycle(*now);
            *now += 1;
            stopped = self.stopped(stop, *now);
            if self.skip && *now < end && stopped.is_none() {
                *now = self.maybe_warp(*now, end);
            }
        }
        None
    }

    /// Advances the shard over the superstep `[start, end)`. No message
    /// sent during it can be due before `end + L` ≥ the next superstep's
    /// start, which is why exchanging only at the barrier loses nothing.
    pub(crate) fn run_superstep(&mut self, start: Cycle, end: Cycle) {
        debug_assert!(
            end - start <= self.noc,
            "superstep wider than the lookahead"
        );
        for p in &mut self.ports {
            p.sent = 0;
        }
        self.run(&mut { start }, end, &StopWhen::Never);
    }

    /// One simulated cycle: inject due NoC requests into their channels,
    /// tick the channels, deliver this cycle's responses (fresh completions
    /// at hop 0, due NoC responses otherwise) through the armed fault to
    /// their cores, then tick the cores through their ports. Every loop
    /// runs in global index order, so the schedule is partition-independent.
    #[inline]
    fn tick_cycle(&mut self, now: Cycle) {
        self.engine.tick();
        {
            let _prof = dg_prof::span("mem_tick");
            self.resp_buf.clear();
            if self.noc == 0 {
                // The one endpoint's completions are this cycle's
                // deliveries, already in global form.
                self.channels[0].mem.tick_into(now, &mut self.resp_buf);
            } else {
                self.noc_exchange(now);
            }
            if let Some(f) = &mut self.fault {
                f.apply(now, &mut self.resp_buf);
            }
            for resp in &self.resp_buf {
                if let Some(core) = self.cores.get_mut(resp.domain.0 as usize - self.core_base) {
                    core.on_response(resp, now);
                }
            }
        }
        {
            let _prof = dg_prof::span("core_tick");
            let direct = self.noc == 0;
            let Self {
                core_base,
                cores,
                ports,
                l3,
                channels,
                req_link,
                noc,
                port_stats,
                ..
            } = self;
            for (i, (core, state)) in cores.iter_mut().zip(ports.iter_mut()).enumerate() {
                state.refused = None;
                let mut port = Port {
                    direct: channels
                        .first_mut()
                        .filter(|_| direct)
                        .map(|ch| ch.mem.as_mut()),
                    ring: req_link,
                    state,
                    core: (*core_base + i) as u32,
                    deliver_at: now + *noc,
                    stats: port_stats,
                };
                let slice = i.min(l3.len() - 1);
                core.tick(now, &mut l3[slice], &mut port);
            }
        }
        if self.sampler.as_ref().is_some_and(|s| s.due(now + 1)) {
            self.feed_sampler(now + 1, IntervalSampler::sample);
        }
    }

    /// The memory half of a NoC cycle: injects due requests into their
    /// channels (global → channel-local addresses; a full channel blocks
    /// its queue head, and only its own queue, until slots free up), ticks
    /// the channels, stamps their completions for the router, and moves
    /// this cycle's due responses into `resp_buf`.
    fn noc_exchange(&mut self, now: Cycle) {
        let map = self.map;
        for ch in &mut self.channels {
            ch.refused = None;
            while let Some(front) = ch.ingress.front() {
                if front.deliver_at > now {
                    break;
                }
                let mut req = front.req;
                req.addr = map.to_local(req.addr);
                if ch.mem.try_send(req, now).is_err() {
                    ch.refused = Some(req);
                    break;
                }
                ch.ingress.pop_front();
            }
        }
        for (c, ch) in self.channels.iter_mut().enumerate() {
            let channel = (self.chan_base + c) as u32;
            // Injection precedes the tick, so a refused head can be taken
            // on the cycle after the channel acts: make it due again then.
            if ch.refused.is_some() && ch.mem.next_event_at(now) == Some(now) {
                ch.refused = None;
            }
            ch.mem.tick_into(now, &mut self.resp_buf);
            for mut resp in self.resp_buf.drain(..) {
                resp.addr = map.to_global(channel, resp.addr);
                self.resp_out.push(StampedResp {
                    deliver_at: now + self.noc,
                    channel,
                    seq: ch.resp_seq,
                    resp,
                });
                ch.resp_seq += 1;
            }
        }
        while self
            .resp_ingress
            .front()
            .is_some_and(|f| f.deliver_at <= now)
        {
            let due = self.resp_ingress.pop_front().map(|sr| sr.resp);
            self.resp_buf.extend(due);
        }
    }

    /// Hands the interval sampler the cumulative per-core instructions and
    /// per-domain bytes as of `now`, through `feed` (close a window,
    /// replay the windows a warp skipped, or flush the trailing one).
    fn feed_sampler(&mut self, now: Cycle, feed: fn(&mut IntervalSampler, Cycle, &[u64], &[u64])) {
        let Some(sampler) = &mut self.sampler else {
            return;
        };
        self.instr_buf.clear();
        self.instr_buf
            .extend(self.cores.iter().map(|c| c.instructions_retired()));
        self.bytes_buf.clear();
        self.bytes_buf.resize(self.cores.len(), 0);
        for ch in &mut self.channels {
            // Multi-channel paths cache their merged view; bring it up to
            // date before sampling mid-run byte counts.
            ch.mem.refresh_stats();
            for (b, d) in self.bytes_buf.iter_mut().zip(ch.mem.stats().domains()) {
                *b += d.bandwidth.bytes();
            }
        }
        feed(sampler, now, &self.instr_buf, &self.bytes_buf);
    }

    /// The earliest cycle from `now` at which anything owned can act —
    /// the memory endpoints, their NoC ingress, due responses, the cores,
    /// and the armed fault's boundaries — or `None` when everything is
    /// passive until further input.
    #[inline]
    pub(crate) fn next_event(&mut self, now: Cycle, step_end: Cycle) -> Option<Cycle> {
        let _prof = dg_prof::span("quiescence_scan");
        // The scan polls every component once, in its label order.
        self.engine.scan();
        let mut ev: Option<Cycle> = None;
        if self.noc == 0 {
            ev = self.channels[0].mem.next_event_at(now);
        } else {
            for ch in &self.channels {
                ev = earliest_event(ev, ch.mem.next_event_at(now));
                ev = earliest_event(ev, ch.ingress_event(now));
            }
            if let Some(front) = self.resp_ingress.front() {
                ev = earliest_event(ev, Some(front.deliver_at));
            }
            // A core that used up its link window may be parked on a
            // refusal only the next superstep lifts (the window resets at
            // its start), not a memory event: it wakes at `step_end`.
            if self.ports.iter().any(|p| p.sent >= LINK_WINDOW) {
                ev = earliest_event(ev, Some(step_end));
            }
        }
        for core in &self.cores {
            ev = earliest_event(ev, core.next_event_at(now));
        }
        if let Some(f) = &self.fault {
            ev = earliest_event(ev, f.next_event(now));
        }
        ev.map(|t| t.max(now))
    }

    /// One warp attempt, backing off after failures. Returns the (possibly
    /// advanced) current cycle.
    #[inline]
    fn maybe_warp(&mut self, now: Cycle, end: Cycle) -> Cycle {
        if self.warp_backoff > 0 {
            self.warp_backoff -= 1;
            self.engine.backoff_suppressed += 1;
            return now;
        }
        let target = self.next_event(now, end).map_or(end, |t| t.min(end));
        if target > now {
            self.engine.warp(target - now);
            self.warp_fail_streak = 0;
            self.settle_warp(now, target);
            target
        } else {
            self.engine.failed_scans += 1;
            self.warp_fail_streak = (self.warp_fail_streak + 1).min(31);
            self.warp_backoff = self.warp_fail_streak;
            self.engine.max_backoff = self.engine.max_backoff.max(self.warp_backoff);
            now
        }
    }

    /// Settles the skipped span `[from, to)` in every owned channel
    /// ([`MemorySubsystem::settle_warp`]): stall charges of the skipped bus
    /// edges, and one refusal per skipped cycle for each request refused on
    /// the last tick — a parked NoC ingress head, or at hop 0 (one
    /// endpoint) each core's first refused send, in core order. With
    /// tracing on, cycle by cycle, so the replayed trace events interleave
    /// as the naive loop records them. Then replays the interval-sampler
    /// windows the span closes.
    #[inline]
    pub(crate) fn settle_warp(&mut self, from: Cycle, to: Cycle) {
        {
            let _prof = dg_prof::span("warp_settle");
            let per_cycle = self.traced
                && (self.channels.iter().any(|ch| ch.refused.is_some())
                    || self.ports.iter().any(|p| p.refused.is_some()));
            let mut t = from;
            while t < to {
                let next = if per_cycle { t + 1 } else { to };
                for ch in &mut self.channels {
                    self.refused_buf.clear();
                    self.refused_buf.extend(ch.refused);
                    self.refused_buf
                        .extend(self.ports.iter().filter_map(|p| p.refused));
                    ch.mem.settle_warp(t, next, &self.refused_buf);
                }
                t = next;
            }
        }
        if self.sampler.is_some() {
            let _prof = dg_prof::span("sampler_replay");
            self.feed_sampler(to, IntervalSampler::advance_to);
        }
    }

    /// Ends a measurement at `now`: finalizes every channel's bandwidth
    /// window and flushes the trailing interval-sampler window.
    pub(crate) fn finish(&mut self, now: Cycle) {
        for ch in &mut self.channels {
            ch.mem.stats_mut().set_cycles(now);
        }
        self.feed_sampler(now, IntervalSampler::flush);
    }

    /// Drains everything the shard emitted this superstep into the
    /// router's batch buffers (coordinator-side, between barriers).
    pub(crate) fn drain_outgoing(
        &mut self,
        reqs: &mut Vec<StampedReq>,
        resps: &mut Vec<StampedResp>,
    ) {
        while let Some(sr) = self.req_link.pop() {
            reqs.push(sr);
        }
        resps.append(&mut self.resp_out);
    }

    /// Accepts a routed request for an owned channel. Batches arrive
    /// sorted and with non-overlapping delivery ranges, so appending keeps
    /// each queue globally sorted.
    pub(crate) fn enqueue_req(&mut self, sr: StampedReq) {
        let idx = self.map.channel_of(sr.req.addr) as usize - self.chan_base;
        let q = &mut self.channels[idx].ingress;
        debug_assert!(
            q.back().is_none_or(|last| last.key() <= sr.key()),
            "request batch broke NoC delivery order"
        );
        q.push_back(sr);
    }

    /// Accepts a routed response for an owned core.
    pub(crate) fn enqueue_resp(&mut self, sr: StampedResp) {
        debug_assert!(
            self.resp_ingress
                .back()
                .is_none_or(|last| last.key() <= sr.key()),
            "response batch broke NoC delivery order"
        );
        self.resp_ingress.push_back(sr);
    }

    /// The interval window and the samples recorded so far.
    pub(crate) fn intervals(&self) -> (Cycle, Vec<IntervalSample>) {
        self.sampler
            .as_ref()
            .map_or((0, Vec::new()), |s| (s.window(), s.samples().to_vec()))
    }

    /// The owned cores' reports, in global order. `end` is the global stop
    /// cycle (used for unfinished cores' cycle counts).
    pub(crate) fn core_reports(&self, end: Cycle) -> impl Iterator<Item = CoreReport> + '_ {
        self.cores.iter().map(move |c| {
            let cycles = c.finished_at().unwrap_or(end).max(1);
            CoreReport {
                domain: c.domain().0,
                instructions: c.instructions_retired(),
                cycles,
                ipc: c.instructions_retired() as f64 / cycles as f64,
                finished: c.finished(),
                completion: c.completion_snapshot(),
            }
        })
    }

    /// The owned memory endpoints, in global order, with any cached merged
    /// statistics brought up to date.
    pub(crate) fn endpoints(&mut self) -> impl Iterator<Item = &dyn MemorySubsystem> {
        for ch in &mut self.channels {
            ch.mem.refresh_stats();
        }
        self.channels.iter().map(|ch| ch.mem.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scans_count_polls_under_every_component_label() {
        // Hop 0: one memory endpoint, then the cores.
        let mut hop0 = EngineCounters::with_poll_labels(poll_labels(0, (0, 2), (0, 1)));
        hop0.scan();
        hop0.scan();
        assert_eq!(hop0.polls(), vec![("mem", 2), ("core0", 2), ("core1", 2)]);
        // A NoC shard past eight channels and cores: every component from
        // global index eight on is polled under its shared tail label.
        let labels = poll_labels(64, (6, 5), (7, 3));
        assert_eq!(
            labels,
            [
                "chan7",
                "chan8plus",
                "chan8plus",
                "core6",
                "core7",
                "core8plus",
                "core8plus",
                "core8plus"
            ]
        );
        let mut noc = EngineCounters::with_poll_labels(labels);
        for _ in 0..4 {
            noc.scan();
        }
        let expected = [
            ("chan7", 4),
            ("chan8plus", 8),
            ("core6", 4),
            ("core7", 4),
            ("core8plus", 12),
        ];
        assert_eq!(noc.polls(), expected);
        // Merged into a report, the shards' labels keep first-seen order.
        let mut merged = EngineCounters::default();
        merged.merge(&hop0);
        merged.merge(&noc);
        let t = merged.snapshot();
        let names: Vec<_> = t.polls.iter().map(|p| p.component.as_str()).collect();
        assert_eq!(
            names,
            [
                "mem",
                "core0",
                "core1",
                "chan7",
                "chan8plus",
                "core6",
                "core7",
                "core8plus"
            ]
        );
    }
}
