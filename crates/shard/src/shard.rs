//! One shard: a contiguous slice of cores and memory channels advanced by
//! its own event engine between PDES barriers.
//!
//! All core↔channel traffic — including traffic between a core and a
//! channel living in the *same* shard — traverses the latency-`L` NoC:
//! requests leave through the shard's bounded SPSC egress ring, responses
//! through its response outbox, and both are routed by the coordinator at
//! the next barrier. Keeping the logical topology independent of the
//! partitioning is what makes an `S`-shard run byte-identical to the
//! single-shard reference.

use std::collections::VecDeque;

use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_mem::{ChannelMap, MemorySubsystem};
use dg_obs::{InterferenceReport, ShaperReport, ShaperTimelineReport};
use dg_prof::EngineCounters;
use dg_sim::clock::{earliest_event, Cycle};
use dg_sim::types::{MemRequest, MemResponse};

use crate::fragment::{ChannelFragment, ShardReportFragment};
use crate::msg::{SpscRing, StampedReq, StampedResp};

/// Static poll labels for the per-shard quiescence scan (shared tails keep
/// the scan allocation-free at any scale).
const CORE_POLL_NAMES: [&str; 8] = [
    "core0", "core1", "core2", "core3", "core4", "core5", "core6", "core7",
];
const CHAN_POLL_NAMES: [&str; 8] = [
    "chan0", "chan1", "chan2", "chan3", "chan4", "chan5", "chan6", "chan7",
];

fn core_poll_name(gidx: u32) -> &'static str {
    CORE_POLL_NAMES
        .get(gidx as usize)
        .copied()
        .unwrap_or("core8plus")
}

fn chan_poll_name(gidx: u32) -> &'static str {
    CHAN_POLL_NAMES
        .get(gidx as usize)
        .copied()
        .unwrap_or("chan8plus")
}

/// A core owned by a shard, with its private L3 slice and NoC send state.
pub(crate) struct ShardCore {
    /// Global core index (== its domain id).
    gidx: u32,
    core: Box<dyn Core>,
    /// Private last-level slice (sharded systems do not share an L3; see
    /// DESIGN.md for the topology difference against the legacy `System`).
    l3: SetAssocCache,
    /// Next request sequence number (stamps the NoC total order).
    seq: u64,
    /// Requests issued in the current superstep, against the link window.
    sent_this_step: u64,
}

/// A memory channel owned by a shard, with its NoC ingress queue.
pub(crate) struct ShardChannel {
    /// Global channel index.
    gidx: u32,
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

/// The NoC egress port a core sends through while it ticks: stamps each
/// accepted request with its delivery cycle and pushes it onto the shard's
/// bounded SPSC ring. The per-superstep link window back-pressures the
/// core through its ordinary `try_send`-retry path, identically for every
/// shard count.
struct EgressPort<'a> {
    ring: &'a SpscRing<StampedReq>,
    core: u32,
    seq: &'a mut u64,
    sent: &'a mut u64,
    window: u64,
    deliver_at: Cycle,
    stats: &'a mut dg_mem::MemStats,
}

impl MemorySubsystem for EgressPort<'_> {
    fn try_send(&mut self, req: MemRequest, _now: Cycle) -> Result<(), MemRequest> {
        if *self.sent >= self.window {
            return Err(req);
        }
        match self.ring.push(StampedReq {
            deliver_at: self.deliver_at,
            core: self.core,
            seq: *self.seq,
            req,
        }) {
            Ok(()) => {
                *self.seq += 1;
                *self.sent += 1;
                Ok(())
            }
            // Unreachable by construction (ring capacity covers every
            // core's full window), but back-pressure is the safe answer.
            Err(back) => Err(back.req),
        }
    }

    fn tick_into(&mut self, _now: Cycle, _out: &mut Vec<MemResponse>) {}

    fn stats(&self) -> &dg_mem::MemStats {
        self.stats
    }

    fn stats_mut(&mut self) -> &mut dg_mem::MemStats {
        self.stats
    }

    fn free_slots(&self) -> usize {
        (self.window - *self.sent) as usize
    }
}

impl ShardChannel {
    /// When the NoC ingress next needs a tick: its head's delivery cycle,
    /// unless the channel refused that head (see [`ShardChannel::refused`]).
    fn ingress_event(&self, now: Cycle) -> Option<Cycle> {
        match self.ingress.front() {
            Some(front) if self.refused.is_none() => Some(front.deliver_at.max(now)),
            _ => None,
        }
    }
}

/// A partition element of a [`crate::ShardedSystem`].
pub struct Shard {
    id: usize,
    /// Global index of the first owned core (the partition is contiguous).
    core_base: usize,
    /// Global index of the first owned channel.
    chan_base: usize,
    cores: Vec<ShardCore>,
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
    /// Per-core request budget per superstep (NoC link window).
    link_window: u64,
    /// Event-driven quiescent-cycle skipping within supersteps.
    skip: bool,
    engine: EngineCounters,
    warp_backoff: Cycle,
    warp_fail_streak: Cycle,
    /// Scratch: channel completions within a cycle.
    resp_buf: Vec<MemResponse>,
    /// Dummy statistics handed to cores through the egress port (cores
    /// never read them; channel statistics live in the channels).
    port_stats: dg_mem::MemStats,
}

impl Shard {
    /// Assembles shard `id` owning `cores` (global indices `core_base..`)
    /// and `channels` (global indices `chan_base..`), both contiguous.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        id: usize,
        core_base: usize,
        cores: Vec<(u32, Box<dyn Core>, SetAssocCache)>,
        chan_base: usize,
        channels: Vec<(u32, Box<dyn MemorySubsystem>)>,
        map: ChannelMap,
        noc: Cycle,
        link_window: u64,
        skip: bool,
    ) -> Self {
        assert!(noc >= 1, "NoC latency must be at least one cycle");
        assert!(link_window >= 1, "link window must admit a request");
        let ring_capacity = (cores.len() as u64 * link_window).max(1) as usize;
        Self {
            id,
            core_base,
            chan_base,
            cores: cores
                .into_iter()
                .map(|(gidx, core, l3)| ShardCore {
                    gidx,
                    core,
                    l3,
                    seq: 0,
                    sent_this_step: 0,
                })
                .collect(),
            channels: channels
                .into_iter()
                .map(|(gidx, mem)| ShardChannel {
                    gidx,
                    mem,
                    ingress: VecDeque::new(),
                    refused: None,
                    resp_seq: 0,
                })
                .collect(),
            resp_ingress: VecDeque::new(),
            req_link: SpscRing::new(ring_capacity),
            resp_out: Vec::new(),
            map,
            noc,
            link_window,
            skip,
            engine: EngineCounters::default(),
            warp_backoff: 0,
            warp_fail_streak: 0,
            resp_buf: Vec::new(),
            port_stats: dg_mem::MemStats::new(0, 64),
        }
    }

    /// The shard id.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Enables or disables intra-superstep quiescent-cycle skipping.
    pub fn set_event_skipping(&mut self, on: bool) {
        self.skip = on;
    }

    /// Whether every owned core finished (vacuously true for core-less
    /// shards).
    pub fn all_finished(&self) -> bool {
        self.cores.iter().all(|c| c.core.finished())
    }

    /// Finish time of the owned core with global index `gidx`.
    ///
    /// # Panics
    ///
    /// Panics if the shard does not own `gidx`.
    pub fn core_finished_at(&self, gidx: usize) -> Option<Cycle> {
        self.cores[gidx - self.core_base].core.finished_at()
    }

    /// Advances the shard from `start` to `end` (the current superstep).
    /// No message sent during the superstep can be due before `end + L`
    /// ≥ the next superstep's start, which is why exchanging only at the
    /// barrier loses nothing.
    pub fn run_superstep(&mut self, start: Cycle, end: Cycle) {
        debug_assert!(start <= end, "superstep runs forward");
        debug_assert!(
            end - start <= self.noc,
            "superstep wider than the lookahead horizon"
        );
        for c in &mut self.cores {
            c.sent_this_step = 0;
        }
        let mut now = start;
        while now < end {
            self.engine.tick();
            self.tick_cycle(now);
            now += 1;
            if self.skip && now < end {
                now = self.maybe_warp(now, end);
            }
        }
    }

    /// One simulated cycle: deliver due NoC requests, tick channels
    /// (stamping completions onto the response outbox), deliver due NoC
    /// responses, then tick cores through the egress port. Every loop runs
    /// in global index order so the schedule is partition-independent.
    fn tick_cycle(&mut self, now: Cycle) {
        let Self {
            cores,
            channels,
            resp_ingress,
            req_link,
            resp_out,
            map,
            noc,
            link_window,
            resp_buf,
            port_stats,
            core_base,
            ..
        } = self;

        // 1. Inject due requests, rewriting global → channel-local
        //    addresses. A full channel blocks its queue head (and only its
        //    own queue) until slots free up.
        for ch in channels.iter_mut() {
            ch.refused = None;
            while let Some(front) = ch.ingress.front() {
                if front.deliver_at > now {
                    break;
                }
                let mut req = front.req;
                req.addr = map.to_local(req.addr);
                match ch.mem.try_send(req, now) {
                    Ok(()) => {
                        ch.ingress.pop_front();
                    }
                    Err(_) => {
                        ch.refused = Some(req);
                        break;
                    }
                }
            }
        }

        // 2. Tick channels; completions are stamped with their delivery
        //    cycle and global address and head for the router.
        for ch in channels.iter_mut() {
            // Injection precedes the tick, so a refused head can be taken
            // on the cycle after the channel acts: make it due again then.
            if ch.refused.is_some() && ch.mem.next_event_at(now) == Some(now) {
                ch.refused = None;
            }
            resp_buf.clear();
            ch.mem.tick_into(now, resp_buf);
            for resp in resp_buf.iter() {
                let mut resp = *resp;
                resp.addr = map.to_global(ch.gidx, resp.addr);
                resp_out.push(StampedResp {
                    deliver_at: now + *noc,
                    channel: ch.gidx,
                    seq: ch.resp_seq,
                    resp,
                });
                ch.resp_seq += 1;
            }
        }

        // 3. Deliver due responses to their cores in NoC order.
        while let Some(front) = resp_ingress.front() {
            if front.deliver_at > now {
                break;
            }
            let sr = resp_ingress.pop_front().expect("front exists");
            let idx = sr.resp.domain.0 as usize - *core_base;
            cores[idx].core.on_response(&sr.resp, now);
        }

        // 4. Tick cores through the stamping egress port.
        for c in cores.iter_mut() {
            let ShardCore {
                gidx,
                core,
                l3,
                seq,
                sent_this_step,
            } = c;
            let mut port = EgressPort {
                ring: req_link,
                core: *gidx,
                seq,
                sent: sent_this_step,
                window: *link_window,
                deliver_at: now + *noc,
                stats: port_stats,
            };
            core.tick(now, l3, &mut port);
        }
    }

    /// The earliest cycle in `[now, end]` at which any owned component can
    /// act, for intra-superstep skipping. Mirrors the legacy engine's scan
    /// with two extra sources: pending NoC deliveries on both queues.
    fn next_local_event(&mut self, now: Cycle, end: Cycle) -> Cycle {
        let mut ev: Option<Cycle> = None;
        for ch in &self.channels {
            self.engine.poll(chan_poll_name(ch.gidx));
            ev = earliest_event(ev, ch.mem.next_event_at(now));
            ev = earliest_event(ev, ch.ingress_event(now));
        }
        if let Some(front) = self.resp_ingress.front() {
            ev = earliest_event(ev, Some(front.deliver_at.max(now)));
        }
        for c in &self.cores {
            self.engine.poll(core_poll_name(c.gidx));
            ev = earliest_event(ev, c.core.next_event_at(now));
        }
        ev.map_or(end, |t| t.clamp(now, end))
    }

    /// One warp attempt with the legacy engine's failure backoff. Returns
    /// the (possibly advanced) current cycle.
    fn maybe_warp(&mut self, now: Cycle, end: Cycle) -> Cycle {
        if self.warp_backoff > 0 {
            self.warp_backoff -= 1;
            self.engine.backoff_suppressed += 1;
            return now;
        }
        let target = self.next_local_event(now, end);
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

    /// The earliest future cycle at which this shard has anything to do,
    /// evaluated at the barrier (`now == end`, after routing). `None`
    /// means fully passive until further input. The coordinator folds
    /// these into the next superstep's start, skipping globally-quiescent
    /// spans.
    pub fn next_start_hint(&mut self, end: Cycle) -> Option<Cycle> {
        let mut ev: Option<Cycle> = None;
        for ch in &self.channels {
            self.engine.poll(chan_poll_name(ch.gidx));
            ev = earliest_event(ev, ch.mem.next_event_at(end));
            ev = earliest_event(ev, ch.ingress_event(end));
        }
        if let Some(front) = self.resp_ingress.front() {
            ev = earliest_event(ev, Some(front.deliver_at.max(end)));
        }
        for c in &self.cores {
            self.engine.poll(core_poll_name(c.gidx));
            ev = earliest_event(ev, c.core.next_event_at(end));
            // A core that used up its link window may be parked on a
            // refusal only the next superstep lifts (the window resets at
            // its start), not a memory event: wake it there.
            if c.sent_this_step >= self.link_window {
                ev = earliest_event(ev, Some(end));
            }
        }
        ev.map(|t| t.max(end))
    }

    /// Settles the per-cycle bookkeeping of the skipped span `[from, to)`
    /// in every owned channel, including the refusals of a parked ingress
    /// head ([`MemorySubsystem::settle_warp`]).
    pub fn settle_warp(&mut self, from: Cycle, to: Cycle) {
        for ch in &mut self.channels {
            ch.mem.settle_warp(from, to, ch.refused.as_slice());
        }
    }

    /// Drains everything the shard emitted this superstep into the
    /// router's batch buffers (coordinator-side, between barriers).
    pub fn drain_outgoing(&mut self, reqs: &mut Vec<StampedReq>, resps: &mut Vec<StampedResp>) {
        while let Some(sr) = self.req_link.pop() {
            reqs.push(sr);
        }
        resps.append(&mut self.resp_out);
    }

    /// Accepts a routed request for an owned channel. Batches arrive
    /// sorted and with non-overlapping delivery ranges, so appending keeps
    /// each queue globally sorted.
    pub fn enqueue_req(&mut self, sr: StampedReq) {
        let idx = self.map.channel_of(sr.req.addr) as usize - self.chan_base;
        let q = &mut self.channels[idx].ingress;
        debug_assert!(
            q.back().is_none_or(|last| last.key() <= sr.key()),
            "request batch broke NoC delivery order"
        );
        q.push_back(sr);
    }

    /// Accepts a routed response for an owned core.
    pub fn enqueue_resp(&mut self, sr: StampedResp) {
        debug_assert!(
            self.resp_ingress
                .back()
                .is_none_or(|last| last.key() <= sr.key()),
            "response batch broke NoC delivery order"
        );
        self.resp_ingress.push_back(sr);
    }

    /// Snapshots this shard's contribution to the run report. `end` is the
    /// global stop cycle (used for unfinished cores' cycle counts).
    pub fn fragment(&mut self, end: Cycle) -> ShardReportFragment {
        let cores = self
            .cores
            .iter()
            .map(|c| {
                let cycles = c.core.finished_at().unwrap_or(end).max(1);
                (
                    c.gidx,
                    dg_obs::CoreReport {
                        domain: c.core.domain().0,
                        instructions: c.core.instructions_retired(),
                        cycles,
                        ipc: c.core.instructions_retired() as f64 / cycles as f64,
                        finished: c.core.finished(),
                        completion: c.core.completion_snapshot(),
                    },
                )
            })
            .collect();
        let channels = self
            .channels
            .iter_mut()
            .map(|ch| {
                ch.mem.refresh_stats();
                ChannelFragment {
                    channel: ch.gidx,
                    stats: ch.mem.stats().clone(),
                    shapers: ch.mem.shaper_reports(),
                    timelines: ch.mem.shaper_timelines(),
                    interference: ch.mem.interference(),
                }
            })
            .collect();
        ShardReportFragment {
            cores,
            channels,
            engine: self.engine.clone(),
        }
    }

    /// Enables windowed shaper telemetry on every owned channel.
    pub fn enable_shaper_timelines(&mut self, window: Cycle) {
        for ch in &mut self.channels {
            ch.mem.enable_shaper_timelines(window);
        }
    }

    /// Shaper conformance reports of the owned channels, channel-major.
    pub fn shaper_reports(&self) -> Vec<ShaperReport> {
        self.channels
            .iter()
            .flat_map(|ch| ch.mem.shaper_reports())
            .collect()
    }

    /// Shaper timelines of the owned channels, channel-major.
    pub fn shaper_timelines(&self) -> Vec<ShaperTimelineReport> {
        self.channels
            .iter()
            .flat_map(|ch| ch.mem.shaper_timelines())
            .collect()
    }

    /// Interference attribution of the owned channels, in channel order.
    pub fn interference_parts(&self) -> Vec<Option<InterferenceReport>> {
        self.channels
            .iter()
            .map(|ch| ch.mem.interference())
            .collect()
    }
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard")
            .field("id", &self.id)
            .field("cores", &self.cores.len())
            .field("channels", &self.channels.len())
            .finish()
    }
}
