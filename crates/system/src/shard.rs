//! One shard: a contiguous slice of cores and memory endpoints advanced by
//! the one event engine — the per-cycle tick, the quiescence warp and the
//! settlement of the cycles a warp skips.
//!
//! A shard owns one endpoint per memory channel and maps addresses between
//! the global and channel-local forms with [`ChannelMap`]: requests enter a
//! channel channel-local, completions leave it global. The NoC hop latency
//! `L` fixes the topology. At `L = 0` (the direct-wired system of the
//! paper's Table 2, always one shard) a core's send is a direct call into
//! its channel, refused the same cycle, completions reach their cores the
//! cycle they complete, and all cores share one L3. At `L ≥ 1` every
//! core↔channel message — including one between a core and a channel in
//! the *same* shard — takes the hop: requests and responses leave through
//! the shard's two outboxes, which the coordinator drains and routes at
//! the next barrier; each core has a private L3 slice. Keeping the logical
//! topology independent of the partitioning is what makes an `S`-shard run
//! byte-identical to the single-shard one.

use std::collections::VecDeque;

use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_fault::SimFaultKind;
use dg_mem::{ChannelMap, MemStats, MemorySubsystem};
use dg_obs::{CoreReport, IntervalSample, IntervalSampler, Tracer};
use dg_prof::EngineCounters;
use dg_sim::clock::{earliest_event, CachedEvent, Cycle};
use dg_sim::types::{MemRequest, MemResponse};

use crate::msg::{StampedReq, StampedResp};

/// Static poll labels for the quiescence scan; global indices from eight
/// on share a tail label.
const CORE_POLL_NAMES: [&str; 8] = [
    "core0", "core1", "core2", "core3", "core4", "core5", "core6", "core7",
];
const CHAN_POLL_NAMES: [&str; 8] = [
    "chan0", "chan1", "chan2", "chan3", "chan4", "chan5", "chan6", "chan7",
];

/// The labels of the components one quiescence scan of a shard polls, in
/// scan order: each channel, then each core, by global index.
fn poll_labels(
    (core_base, cores): (usize, usize),
    (chan_base, chans): (usize, usize),
) -> Vec<&'static str> {
    let name =
        |names: &'static [&'static str; 8], tail, i: usize| names.get(i).copied().unwrap_or(tail);
    let chans = (chan_base..chan_base + chans).map(|c| name(&CHAN_POLL_NAMES, "chan8plus", c));
    let cores = (core_base..core_base + cores).map(|i| name(&CORE_POLL_NAMES, "core8plus", i));
    chans.chain(cores).collect()
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
    /// At hop 0, the first request a channel refused during the core's
    /// last tick, in global form. By the [`Core`] contract it is offered
    /// again on every later tick until accepted, which is what a warp
    /// settles.
    refused: Option<MemRequest>,
}

/// The memory path as one core sees it during its tick: at hop 0 a direct
/// call into the request's channel (the one shard owns every channel),
/// otherwise the NoC egress port, which stamps each request with its
/// delivery cycle and appends it to the shard's request outbox; the NoC
/// link never refuses. An accepted request is input to the core and (at
/// hop 0) to its channel: both calendar entries go stale.
struct Port<'a> {
    direct: Option<&'a mut [ShardChannel]>,
    map: ChannelMap,
    outbox: &'a mut Vec<StampedReq>,
    state: &'a mut PortState,
    /// The core's calendar entry.
    event: &'a mut CachedEvent,
    core: u32,
    deliver_at: Cycle,
    /// Placeholder statistics (cores never read them).
    stats: &'a mut MemStats,
}

impl MemorySubsystem for Port<'_> {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let state = &mut *self.state;
        if let Some(channels) = &mut self.direct {
            let ch = &mut channels[self.map.channel_of(req.addr) as usize];
            let mut local = req;
            local.addr = self.map.to_local(req.addr);
            // A refusal hands back the global request, so the core's retry
            // path never observes local addresses.
            let r = ch.mem.try_send(local, now).map_err(|_| req);
            match r {
                Ok(()) => {
                    ch.event.touch();
                    self.event.touch();
                }
                Err(_) if state.refused.is_none() => state.refused = Some(req),
                Err(_) => {}
            }
            return r;
        }
        self.outbox.push(StampedReq {
            deliver_at: self.deliver_at,
            core: self.core,
            seq: state.seq,
            req,
        });
        state.seq += 1;
        self.event.touch();
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
            // The tightest channel bounds what any one address stream can
            // send.
            Some(channels) => channels
                .iter()
                .map(|ch| ch.mem.free_slots())
                .min()
                .unwrap_or(0),
            // The NoC link is unbounded.
            None => usize::MAX,
        }
    }
}

/// A memory channel owned by a shard, with its calendar entry and its NoC
/// ingress queue (empty at hop 0).
struct ShardChannel {
    mem: Box<dyn MemorySubsystem>,
    /// The channel's last `next_event_at` answer.
    event: CachedEvent,
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
    /// The channel's next event from `now`, through its calendar entry:
    /// polled (counted as poll `label`) only when stale. On the NoC
    /// (`eager`) the answer includes the internal events a channel may
    /// otherwise leave to its next contact
    /// ([`MemorySubsystem::next_event_at_eager`]).
    fn next_event_at(
        &mut self,
        now: Cycle,
        engine: &mut EngineCounters,
        label: usize,
        eager: bool,
    ) -> Option<Cycle> {
        let mem = &self.mem;
        calendar(&mut self.event, now, engine, label, || {
            if eager {
                mem.next_event_at_eager(now)
            } else {
                mem.next_event_at(now)
            }
        })
    }

    /// When the NoC ingress next needs a tick: its head's delivery cycle,
    /// unless the channel refused that head.
    fn ingress_event(&self, now: Cycle) -> Option<Cycle> {
        match self.ingress.front() {
            Some(front) if self.refused.is_none() => Some(front.deliver_at.max(now)),
            _ => None,
        }
    }
}

/// `entry`'s answer at `now`, polled through `poll` — one real call,
/// counted as poll `label` — only when stale ([`CachedEvent::stale`]). In
/// debug builds a kept answer is checked against a fresh call: it may be
/// earlier (the component then gets a tick that does nothing) but never
/// later, or a warp would skip the component's event.
#[inline]
fn calendar(
    entry: &mut CachedEvent,
    now: Cycle,
    engine: &mut EngineCounters,
    label: usize,
    poll: impl Fn() -> Option<Cycle>,
) -> Option<Cycle> {
    if entry.stale(now) {
        engine.poll(label);
        entry.set(poll());
    } else {
        debug_assert_eq!(
            earliest_event(entry.at(), poll()),
            entry.at(),
            "kept next event of poll {label} is later than a fresh poll at {now}"
        );
    }
    entry.at()
}

/// A partition element of a [`crate::System`].
///
/// Its quiescence scan reads an event calendar: each channel's and each
/// core's last `next_event_at` answer, polled again only when stale —
/// after the component took input (a request through a [`Port`] or NoC
/// injection, or a response) or was due on a tick since. Ticks never pass
/// an answer unseen (a warp stops at the earliest), so under the no-op
/// contract of `next_event_at` a kept answer equals a fresh one.
pub(crate) struct Shard {
    /// Global index of the first owned core (the partition is contiguous).
    core_base: usize,
    /// Global index of the first owned channel.
    chan_base: usize,
    cores: Vec<Box<dyn Core>>,
    /// Each core's calendar entry.
    core_events: Vec<CachedEvent>,
    ports: Vec<PortState>,
    /// One L3 shared by every core (hop 0) or one private slice per core.
    l3: Vec<SetAssocCache>,
    channels: Vec<ShardChannel>,
    /// Responses awaiting delivery to owned cores, sorted by
    /// `(deliver_at, channel, seq)`.
    resp_ingress: VecDeque<StampedResp>,
    /// Egress outboxes toward the router, drained at every barrier (the
    /// NoC is modeled with guaranteed delivery, see DESIGN.md).
    req_out: Vec<StampedReq>,
    resp_out: Vec<StampedResp>,
    map: ChannelMap,
    /// NoC hop latency `L` in CPU cycles (also the superstep width).
    noc: Cycle,
    /// Event-driven quiescent-cycle skipping.
    skip: bool,
    pub(crate) engine: EngineCounters,
    /// Remaining ticks before the next warp attempt. A failed attempt
    /// costs a component scan; it arms this backoff only while a core is
    /// active (see [`Shard::maybe_warp`]), which keeps the scans of a
    /// compute stretch to a fraction of its ticks while delaying idle
    /// detection by at most the backoff length.
    warp_backoff: Cycle,
    /// Consecutive failed warp attempts with a core active: the backoff
    /// grows with the streak so busy cores are rescanned rarely. A failure
    /// with every core idle resets it.
    warp_fail_streak: Cycle,
    /// Whether event tracing is on: refusals then settle cycle by cycle.
    traced: bool,
    pub(crate) sampler: Option<IntervalSampler>,
    fault: Option<FaultState>,
    /// Reusable scratch buffers keeping the per-tick path allocation-free.
    resp_buf: Vec<MemResponse>,
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
        let (n_cores, n_chans) = (cores.len(), channels.len());
        Self {
            core_base,
            chan_base,
            ports: cores.iter().map(|_| PortState::default()).collect(),
            core_events: vec![CachedEvent::STALE; n_cores],
            cores,
            l3,
            channels: channels
                .into_iter()
                .map(|mem| ShardChannel {
                    mem,
                    event: CachedEvent::STALE,
                    ingress: VecDeque::new(),
                    refused: None,
                    resp_seq: 0,
                })
                .collect(),
            resp_ingress: VecDeque::new(),
            req_out: Vec::new(),
            resp_out: Vec::new(),
            map,
            noc,
            skip,
            engine: EngineCounters::with_poll_labels(poll_labels(
                (core_base, n_cores),
                (chan_base, n_chans),
            )),
            warp_backoff: 0,
            warp_fail_streak: 0,
            traced: false,
            sampler: None,
            fault: None,
            resp_buf: Vec::new(),
            instr_buf: Vec::new(),
            bytes_buf: Vec::new(),
            port_stats: MemStats::new(0, 64),
        }
    }

    /// Turns skipping on or off. (Re)enabling it marks every calendar
    /// entry stale, so the first scan after it polls every component.
    pub(crate) fn set_event_skipping(&mut self, on: bool) {
        self.skip = on;
        if on {
            self.core_events.fill(CachedEvent::STALE);
            for ch in &mut self.channels {
                ch.event.touch();
            }
        }
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
    /// A channel may answer differently under a tracer (a shaped memory
    /// runs eagerly), so its calendar entry goes stale.
    pub(crate) fn set_tracer(&mut self, tracer: &Tracer) {
        for core in &mut self.cores {
            core.set_tracer(tracer.clone());
        }
        for ch in &mut self.channels {
            ch.mem.set_tracer(tracer.clone());
            ch.event.touch();
        }
        self.traced = tracer.enabled();
    }

    pub(crate) fn enable_shaper_timelines(&mut self, window: Cycle) {
        for ch in &mut self.channels {
            ch.mem.enable_shaper_timelines(window);
        }
    }

    /// The owned core with global index `gidx`.
    pub(crate) fn core(&self, gidx: usize) -> &dyn Core {
        self.cores[gidx - self.core_base].as_ref()
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
                self.tick_channels(now);
            } else {
                self.noc_exchange(now);
            }
            if let Some(f) = &mut self.fault {
                f.apply(now, &mut self.resp_buf);
            }
            for resp in &self.resp_buf {
                let i = resp.domain.0 as usize - self.core_base;
                if let Some(core) = self.cores.get_mut(i) {
                    core.on_response(resp, now);
                    self.core_events[i].touch();
                }
            }
        }
        {
            let _prof = dg_prof::span("core_tick");
            let Self {
                core_base,
                cores,
                core_events,
                ports,
                l3,
                channels,
                req_out,
                map,
                noc,
                port_stats,
                ..
            } = self;
            let cores = cores.iter_mut().zip(core_events.iter_mut());
            for (i, ((core, event), state)) in cores.zip(ports.iter_mut()).enumerate() {
                state.refused = None;
                let mut port = Port {
                    direct: (*noc == 0).then_some(&mut channels[..]),
                    map: *map,
                    outbox: req_out,
                    state,
                    event,
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

    /// Ticks the channels in index order, appending their completions to
    /// `resp_buf` and rewriting them to global addresses in place.
    #[inline]
    fn tick_channels(&mut self, now: Cycle) {
        for (c, ch) in self.channels.iter_mut().enumerate() {
            let first = self.resp_buf.len();
            ch.mem.tick_into(now, &mut self.resp_buf);
            let channel = (self.chan_base + c) as u32;
            for resp in &mut self.resp_buf[first..] {
                resp.addr = self.map.to_global(channel, resp.addr);
            }
        }
    }

    /// The memory half of a NoC cycle: injects due requests into their
    /// channels (global → channel-local addresses; a full channel blocks
    /// its queue head, and only its own queue, until slots free up), ticks
    /// the channels, stamps their completions for the router, and moves
    /// this cycle's due responses into `resp_buf`.
    fn noc_exchange(&mut self, now: Cycle) {
        let map = self.map;
        for (c, ch) in self.channels.iter_mut().enumerate() {
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
                ch.event.touch();
                ch.ingress.pop_front();
            }
            // Injection precedes the tick, so a refused head can be taken
            // on the cycle after the channel acts: make it due again then.
            if ch.refused.is_some() && ch.next_event_at(now, &mut self.engine, c, true) == Some(now)
            {
                ch.refused = None;
            }
        }
        self.tick_channels(now);
        for resp in self.resp_buf.drain(..) {
            let c = self.map.channel_of(resp.addr) as usize - self.chan_base;
            let ch = &mut self.channels[c];
            self.resp_out.push(StampedResp {
                deliver_at: now + self.noc,
                channel: (self.chan_base + c) as u32,
                seq: ch.resp_seq,
                resp,
            });
            ch.resp_seq += 1;
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
    /// per-domain bytes as of `now`, through `feed` (close a window or
    /// flush the trailing one).
    fn feed_sampler(&mut self, now: Cycle, feed: fn(&mut IntervalSampler, Cycle, &[u64], &[u64])) {
        let Some(sampler) = &mut self.sampler else {
            return;
        };
        self.instr_buf.clear();
        self.instr_buf
            .extend(self.cores.iter().map(|c| c.instructions_retired()));
        self.bytes_buf.clear();
        self.bytes_buf.resize(self.cores.len(), 0);
        for ch in &self.channels {
            for (b, d) in self.bytes_buf.iter_mut().zip(ch.mem.stats().domains()) {
                *b += d.bandwidth.bytes();
            }
        }
        feed(sampler, now, &self.instr_buf, &self.bytes_buf);
    }

    /// The earliest cycle from `now` at which anything owned can act —
    /// the channels, their NoC ingress, due responses, the cores, and the
    /// armed fault's boundaries — or `None` when everything is passive
    /// until further input. At hop 0 the NoC queues stay empty.
    #[inline]
    pub(crate) fn next_event(&mut self, now: Cycle) -> Option<Cycle> {
        let _prof = dg_prof::span("quiescence_scan");
        let mut ev: Option<Cycle> = None;
        let (engine, eager) = (&mut self.engine, self.noc > 0);
        for (c, ch) in self.channels.iter_mut().enumerate() {
            ev = earliest_event(ev, ch.next_event_at(now, engine, c, eager));
            ev = earliest_event(ev, ch.ingress_event(now));
        }
        if let Some(front) = self.resp_ingress.front() {
            ev = earliest_event(ev, Some(front.deliver_at));
        }
        // Core polls are labelled after the channels'.
        let first = self.channels.len();
        for (i, (core, event)) in self.cores.iter().zip(&mut self.core_events).enumerate() {
            let at = calendar(event, now, engine, first + i, || core.next_event_at(now));
            ev = earliest_event(ev, at);
        }
        if let Some(f) = &self.fault {
            ev = earliest_event(ev, f.next_event(now));
        }
        ev.map(|t| t.max(now))
    }

    /// One warp attempt. Returns the (possibly advanced) current cycle.
    ///
    /// A failed attempt backs off only if a core is due now. Core activity
    /// persists (compute retirement, back-to-back issue), so the streak and
    /// its backoff grow while it lasts. A failure caused only by the memory
    /// side is an isolated completion or rDAG slot, usually followed by a
    /// quiescent span: it resets the streak and the next tick scans again.
    /// On the DAGguise-saturated perfbench load (two trace cores streaming
    /// misses, traced pass, seed 7) this runs 37,347 ticks, 17 of them with
    /// the scan suppressed, at 13,549 failed scans; backing off after every
    /// failure would run 49,006 ticks (13,559 suppressed), and never
    /// backing off 37,341 at 13,560 failed scans (and on the idle load,
    /// 4,111 ticks with or without it). So the backoff buys nothing on
    /// either perfbench load; it stays for compute stretches
    /// (`busy_cores_back_off_the_scan`). Warps stay exact, so no simulated
    /// result depends on the backoff.
    #[inline]
    fn maybe_warp(&mut self, now: Cycle, end: Cycle) -> Cycle {
        if self.warp_backoff > 0 {
            self.warp_backoff -= 1;
            self.engine.backoff_suppressed += 1;
            return now;
        }
        let target = self.next_event(now).map_or(end, |t| t.min(end));
        if target > now {
            self.engine.warp(target - now);
            self.warp_fail_streak = 0;
            self.settle_warp(now, target);
            target
        } else {
            self.engine.failed_scans += 1;
            // The scan left every core's calendar entry fresh, so a due
            // entry means a core acts this cycle.
            if self.core_events.iter().any(|e| e.due(now)) {
                self.warp_fail_streak = (self.warp_fail_streak + 1).min(31);
                self.warp_backoff = self.warp_fail_streak;
                self.engine.max_backoff = self.engine.max_backoff.max(self.warp_backoff);
            } else {
                self.warp_fail_streak = 0;
            }
            now
        }
    }

    /// Settles the skipped span `[from, to)` in every owned channel and
    /// closes the interval-sampler windows it spans.
    #[inline]
    pub(crate) fn settle_warp(&mut self, from: Cycle, to: Cycle) {
        if self.sampler.is_some() {
            self.settle_windows(from, to);
        } else {
            self.settle_channels(from, to);
        }
    }

    /// [`Self::settle_warp`] with the interval sampler on. A channel may
    /// run internal events inside the span (a shaped memory catches up at
    /// its next contact), so the span is settled up to each window
    /// boundary before the window is sampled there.
    #[cold]
    fn settle_windows(&mut self, from: Cycle, to: Cycle) {
        let mut t = from;
        while let Some(b) = self
            .sampler
            .as_ref()
            .map(IntervalSampler::next_boundary)
            .filter(|&b| b <= to)
        {
            self.settle_channels(t, b);
            let _prof = dg_prof::span("sampler_replay");
            self.feed_sampler(b, IntervalSampler::sample);
            t = b;
        }
        self.settle_channels(t, to);
    }

    /// Settles `[from, to)` in every owned channel
    /// ([`MemorySubsystem::settle_warp`]): first each channel's own span,
    /// stall charges of the skipped bus edges and a parked NoC ingress
    /// head's refusals; then, at hop 0, each core's first refused send, in
    /// core order, to its channel in local form — one refusal per skipped
    /// cycle each. A channel's own bookkeeping settles idempotently, so a
    /// second call over the span only credits its request. With tracing
    /// on, cycle by cycle, so the replayed trace events interleave as the
    /// naive loop records them.
    #[inline]
    fn settle_channels(&mut self, from: Cycle, to: Cycle) {
        let _prof = dg_prof::span("warp_settle");
        let per_cycle = self.traced
            && (self.channels.iter().any(|ch| ch.refused.is_some())
                || self.ports.iter().any(|p| p.refused.is_some()));
        let map = self.map;
        let mut t = from;
        while t < to {
            let next = if per_cycle { t + 1 } else { to };
            for ch in &mut self.channels {
                ch.mem.settle_warp(t, next, ch.refused.as_slice());
            }
            for req in self.ports.iter().filter_map(|p| p.refused) {
                let mut local = req;
                local.addr = map.to_local(req.addr);
                let ch = &mut self.channels[map.channel_of(req.addr) as usize - self.chan_base];
                ch.mem.settle_warp(t, next, std::slice::from_ref(&local));
            }
            t = next;
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
        reqs.append(&mut self.req_out);
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

    /// The owned memory channels, in global order.
    pub(crate) fn endpoints(&self) -> impl Iterator<Item = &dyn MemorySubsystem> {
        self.channels.iter().map(|ch| ch.mem.as_ref())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryKind, SystemBuilder};
    use dg_cpu::{DagWorkload, MemTrace, TraceCore};
    use dg_prof::EngineTelemetry;
    use dg_rdag::template::RdagTemplate;
    use dg_sim::config::SystemConfig;
    use dg_sim::types::DomainId;

    #[test]
    fn polls_count_under_every_component_label() {
        // One channel, then the cores; a component counts each real poll,
        // and one never polled is left out.
        let mut hop0 = EngineCounters::with_poll_labels(poll_labels((0, 2), (0, 1)));
        hop0.poll(0);
        hop0.poll(2);
        hop0.poll(0);
        assert_eq!(hop0.polls(), vec![("chan0", 2), ("core1", 1)]);
        // A shard past eight channels and cores: every component from
        // global index eight on is polled under its shared tail label.
        let labels = poll_labels((6, 5), (7, 3));
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
        for (i, n) in [4, 3, 5, 4, 1, 6, 0, 2].into_iter().enumerate() {
            for _ in 0..n {
                noc.poll(i);
            }
        }
        let expected = [
            ("chan7", 4),
            ("chan8plus", 8),
            ("core6", 4),
            ("core7", 1),
            ("core8plus", 8),
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
                "chan0",
                "core1",
                "chan7",
                "chan8plus",
                "core6",
                "core7",
                "core8plus"
            ]
        );
    }

    #[test]
    fn idle_dag_cores_are_polled_only_when_they_change() {
        // Two DAG-chain cores with long gaps under DAGguise: the shaper
        // fills almost every rDAG slot with a fake, which no core can see,
        // so the shaped memory runs them between the cores' contacts and
        // the engine ticks only around the chains' issue times and
        // responses. The calendar polls each core only then, too.
        let cfg = SystemConfig::two_core();
        let mut sys = SystemBuilder::new(cfg)
            .dag_core(DagWorkload::chain(20, 10_000, 64 * 131))
            .dag_core(DagWorkload::chain(20, 10_000, 64 * 131))
            .memory(MemoryKind::Dagguise {
                protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
            })
            .build();
        sys.run_until_finished(10_000_000)
            .expect("the chains finish");
        let report = sys.report("idle");
        let fakes = report.shapers[0].fakes_emitted;
        let ticks = report.engine.ticks;
        // Ticking every fake's emission, commands and completion took about
        // four ticks per fake; what is left is mostly the real requests'
        // time in the shaper and the controller.
        assert!(fakes > 1_000, "{fakes} fakes");
        assert!(
            ticks * 2 <= fakes,
            "{ticks} ticks for {fakes} fake emissions"
        );
        let count = |label: &str| {
            let p = report.engine.polls.iter().find(|p| p.component == label);
            p.map_or(0, |p| p.count)
        };
        for core in ["core0", "core1"] {
            let n = count(core);
            assert!(
                n > 0 && n * 20 <= fakes,
                "{core}: {n} polls, {fakes} fake emissions"
            );
        }
    }

    /// The engine counters of two trace cores, each running `loads` loads
    /// `gap` compute instructions apart over `kind`. The stride walks every
    /// bank and opens a new row on each access, so every load misses.
    fn trace_engine(kind: MemoryKind, loads: u64, gap: u64) -> EngineTelemetry {
        let cfg = SystemConfig::two_core();
        let mut b = SystemBuilder::new(cfg.clone());
        for c in 0..2u64 {
            let mut t = MemTrace::new();
            for i in 0..loads {
                t.load((c << 30) + i * 64 * 131, gap);
            }
            b = b.core(Box::new(TraceCore::new(DomainId(c as u16), t, &cfg)));
        }
        let mut sys = b.memory(kind).build();
        sys.run_until_finished(100_000_000)
            .expect("the traces finish");
        sys.report("trace").engine
    }

    #[test]
    fn memory_side_scan_failures_do_not_back_off() {
        // Streaming misses under DAGguise: the cores wait on memory, and a
        // scan fails only on an isolated bus edge, completion or rDAG slot.
        // Backing off after each of those would tick through the quiescent
        // cycles that follow instead of warping over them.
        let e = trace_engine(
            MemoryKind::Dagguise {
                protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
            },
            1_000,
            0,
        );
        assert!(e.warps > 0, "{e:?}");
        assert!(
            e.backoff_suppressed * 100 <= e.ticks,
            "{} of {} ticks ran with the scan suppressed",
            e.backoff_suppressed,
            e.ticks
        );
    }

    #[test]
    fn busy_cores_back_off_the_scan() {
        // Compute-bound cores retire instructions every cycle, so every
        // scan during a compute stretch fails: the backoff keeps the
        // scans to a fraction of the ticks.
        let e = trace_engine(MemoryKind::Insecure, 200, 300);
        assert!(e.ticks > 5_000, "{e:?}");
        assert!(
            e.failed_scans * 2 <= e.ticks,
            "{} failed scans in {} ticks",
            e.failed_scans,
            e.ticks
        );
    }
}
