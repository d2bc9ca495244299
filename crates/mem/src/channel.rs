//! Multi-channel memory: bit-sliced address interleaving across N
//! independent channels, each with its own controller (and its own defense
//! shaper instances — a per-channel DAGguise proxy, exactly as a
//! per-channel deployment of Figure 3 would be built).
//!
//! The interleaving granularity is one cache line: consecutive lines land
//! on consecutive channels, so any dense stream spreads evenly. The
//! channel-selection bits sit directly above the line-offset bits
//! (bit-sliced mapping):
//!
//! ```text
//! global:  | line number (upper)     | channel | line offset |
//! local:   | line number (upper)               | line offset |
//! ```
//!
//! Each channel's controller sees *local* addresses with the channel bits
//! removed, so its bank/row decode covers its own capacity slice densely.
//! [`ChannelMap`] is the pure address math; [`MultiChannelMemory`] is the
//! [`MemorySubsystem`] assembly a direct-wired `System` hands its cores.
//! On the NoC topology the shards instead own the channel list directly
//! and do the same remapping at channel ingress and egress.

use dg_obs::{InterferenceReport, ShaperReport, ShaperTimelineReport, Tracer};
use dg_sim::clock::{earliest_event, Cycle};
use dg_sim::types::{Addr, MemRequest, MemResponse};

use crate::front::MemorySubsystem;
use crate::stats::MemStats;

/// Bit-sliced line-interleaved address map over a power-of-two channel
/// count. With one channel every operation is the identity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelMap {
    channels: u32,
    /// log2(line_bytes): the channel bits sit immediately above these.
    line_shift: u32,
    /// log2(channels).
    channel_bits: u32,
}

impl ChannelMap {
    /// Creates a map for `channels` channels at `line_bytes` granularity.
    ///
    /// # Panics
    ///
    /// Panics unless both are nonzero powers of two: bit slicing needs
    /// exact field widths.
    pub fn new(channels: u32, line_bytes: u64) -> Self {
        assert!(
            channels.is_power_of_two(),
            "channel count must be a power of two, got {channels}"
        );
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two, got {line_bytes}"
        );
        Self {
            channels,
            line_shift: line_bytes.trailing_zeros(),
            channel_bits: channels.trailing_zeros(),
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> u32 {
        self.channels
    }

    /// The channel a global address maps to.
    pub fn channel_of(&self, addr: Addr) -> u32 {
        ((addr >> self.line_shift) as u32) & (self.channels - 1)
    }

    /// Rewrites a global address into the owning channel's local space
    /// (channel bits removed, line offset preserved).
    pub fn to_local(&self, addr: Addr) -> Addr {
        let offset = addr & ((1 << self.line_shift) - 1);
        let line = addr >> self.line_shift;
        ((line >> self.channel_bits) << self.line_shift) | offset
    }

    /// Re-encodes a channel-local address back into the global space.
    /// Inverse of [`to_local`](Self::to_local) for addresses on `channel`.
    pub fn to_global(&self, channel: u32, local: Addr) -> Addr {
        let offset = local & ((1 << self.line_shift) - 1);
        let line = local >> self.line_shift;
        (((line << self.channel_bits) | channel as u64) << self.line_shift) | offset
    }
}

/// N independent memory channels behind one [`MemorySubsystem`] facade.
///
/// Requests are routed by [`ChannelMap`] with their addresses rewritten to
/// channel-local form; completions are re-encoded to global addresses on
/// the way out, so cores and caches never observe the interleaving.
/// Channels tick in index order, which keeps the merged response stream
/// deterministic.
///
/// Aggregate statistics are a *cached merge* of the per-channel stats
/// (domain counters summed, banks concatenated channel-major); the cache
/// is re-derived by [`refresh_stats`](MemorySubsystem::refresh_stats) and
/// on every [`stats_mut`](MemorySubsystem::stats_mut) call, so the
/// end-of-run `set_cycles` finalization always operates on fresh numbers.
pub struct MultiChannelMemory {
    map: ChannelMap,
    lanes: Vec<Box<dyn MemorySubsystem>>,
    merged: MemStats,
    /// Reusable per-tick buffer for lane completions (zero-alloc path).
    completions: Vec<MemResponse>,
}

impl MultiChannelMemory {
    /// Assembles `lanes` (one per channel, index = channel id) behind
    /// `map`. All lanes must report stats over the same domain count and
    /// line size.
    ///
    /// # Panics
    ///
    /// Panics if the lane count does not match the map's channel count.
    pub fn new(lanes: Vec<Box<dyn MemorySubsystem>>, map: ChannelMap) -> Self {
        assert_eq!(
            lanes.len(),
            map.channels() as usize,
            "one lane per channel required"
        );
        let merged = MemStats::merged(&lanes.iter().map(|l| l.stats()).collect::<Vec<_>>());
        Self {
            map,
            lanes,
            merged,
            completions: Vec::new(),
        }
    }

    /// The address map (for tests and diagnostics).
    pub fn map(&self) -> ChannelMap {
        self.map
    }

    /// Per-channel lane access (diagnostics).
    pub fn lanes(&self) -> &[Box<dyn MemorySubsystem>] {
        &self.lanes
    }

    fn remerge(&mut self) {
        let cycles = self.merged.cycles;
        let mut merged =
            MemStats::merged(&self.lanes.iter().map(|l| l.stats()).collect::<Vec<_>>());
        merged.set_cycles(cycles);
        self.merged = merged;
    }
}

impl std::fmt::Debug for MultiChannelMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MultiChannelMemory")
            .field("channels", &self.lanes.len())
            .finish()
    }
}

impl MemorySubsystem for MultiChannelMemory {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let ch = self.map.channel_of(req.addr);
        let mut local = req;
        local.addr = self.map.to_local(req.addr);
        // Hand the *global* request back on back-pressure so the caller's
        // retry path never observes local addresses.
        self.lanes[ch as usize]
            .try_send(local, now)
            .map_err(|_| req)
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let mut completions = std::mem::take(&mut self.completions);
        for (ch, lane) in self.lanes.iter_mut().enumerate() {
            completions.clear();
            lane.tick_into(now, &mut completions);
            for mut resp in completions.drain(..) {
                resp.addr = self.map.to_global(ch as u32, resp.addr);
                out.push(resp);
            }
        }
        self.completions = completions;
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        self.lanes
            .iter()
            .fold(None, |ev, l| earliest_event(ev, l.next_event_at(now)))
    }

    fn settle_warp(&mut self, from: Cycle, to: Cycle, refused: &[MemRequest]) {
        for lane in &mut self.lanes {
            lane.settle_warp(from, to, &[]);
        }
        // One refusal at a time, in core order: lane bookkeeping is already
        // settled, so each call only credits its request.
        for req in refused {
            let mut local = *req;
            local.addr = self.map.to_local(req.addr);
            let ch = self.map.channel_of(req.addr) as usize;
            self.lanes[ch].settle_warp(from, to, std::slice::from_ref(&local));
        }
    }

    fn stats(&self) -> &MemStats {
        &self.merged
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        self.remerge();
        &mut self.merged
    }

    fn refresh_stats(&mut self) {
        self.remerge();
    }

    fn free_slots(&self) -> usize {
        // Conservative: the tightest channel bounds what any single
        // address stream might be able to send.
        self.lanes.iter().map(|l| l.free_slots()).min().unwrap_or(0)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        for lane in &mut self.lanes {
            lane.set_tracer(tracer.clone());
        }
    }

    fn shaper_reports(&self) -> Vec<ShaperReport> {
        // Channel-major concatenation mirrors the bank layout in the
        // merged stats.
        self.lanes.iter().flat_map(|l| l.shaper_reports()).collect()
    }

    fn interference(&self) -> Option<InterferenceReport> {
        merge_interference(self.lanes.iter().filter_map(|l| l.interference()))
    }

    fn enable_shaper_timelines(&mut self, window: Cycle) {
        for lane in &mut self.lanes {
            lane.enable_shaper_timelines(window);
        }
    }

    fn shaper_timelines(&self) -> Vec<ShaperTimelineReport> {
        self.lanes
            .iter()
            .flat_map(|l| l.shaper_timelines())
            .collect()
    }
}

/// Sums per-channel interference attributions cell-wise. All channels
/// attribute over the same domain set, so the matrices are congruent.
pub fn merge_interference(
    parts: impl IntoIterator<Item = InterferenceReport>,
) -> Option<InterferenceReport> {
    let mut merged: Option<InterferenceReport> = None;
    for part in parts {
        match &mut merged {
            None => merged = Some(part),
            Some(acc) => {
                assert_eq!(
                    acc.domains, part.domains,
                    "interference reports disagree on domain count"
                );
                acc.total_stall_cycles += part.total_stall_cycles;
                for (row, src) in acc.matrix.iter_mut().zip(&part.matrix) {
                    for (cell, v) in row.iter_mut().zip(src) {
                        *cell += v;
                    }
                }
                for (a, b) in acc.by_cause.iter_mut().zip(&part.by_cause) {
                    debug_assert_eq!(a.cause, b.cause);
                    a.cycles += b.cycles;
                }
            }
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{MemoryController, SchedPolicy};
    use dg_sim::config::SystemConfig;
    use dg_sim::types::{DomainId, ReqId};
    use proptest::prelude::*;

    fn four_channel() -> MultiChannelMemory {
        let mut cfg = SystemConfig::two_core();
        cfg.dram_org.capacity_bytes /= 4;
        let lanes: Vec<Box<dyn MemorySubsystem>> = (0..4)
            .map(|_| {
                Box::new(MemoryController::new(&cfg, SchedPolicy::FrFcfs))
                    as Box<dyn MemorySubsystem>
            })
            .collect();
        MultiChannelMemory::new(lanes, ChannelMap::new(4, cfg.dram_org.line_bytes))
    }

    #[test]
    fn single_channel_map_is_identity() {
        let map = ChannelMap::new(1, 64);
        for addr in [0u64, 63, 64, 0xdead_beef, u64::MAX >> 1] {
            assert_eq!(map.channel_of(addr), 0);
            assert_eq!(map.to_local(addr), addr);
            assert_eq!(map.to_global(0, addr), addr);
        }
    }

    #[test]
    fn consecutive_lines_rotate_channels() {
        let map = ChannelMap::new(4, 64);
        let channels: Vec<u32> = (0..8).map(|i| map.channel_of(i * 64)).collect();
        assert_eq!(channels, vec![0, 1, 2, 3, 0, 1, 2, 3]);
        // Same line, any offset: same channel.
        assert_eq!(map.channel_of(0x40), map.channel_of(0x7f));
    }

    #[test]
    fn local_addresses_are_dense_per_channel() {
        // Lines 0,4,8,... all map to channel 0 and must occupy consecutive
        // local lines, so the channel's bank decode sees a dense space.
        let map = ChannelMap::new(4, 64);
        for i in 0..16u64 {
            assert_eq!(map.to_local(i * 4 * 64), i * 64);
        }
    }

    proptest! {
        #[test]
        fn round_trip_addr_channel_local_addr(
            addr in any::<u64>(),
            channels_log2 in 0u32..6,
            line_log2 in 4u32..8,
        ) {
            let map = ChannelMap::new(1 << channels_log2, 1 << line_log2);
            let ch = map.channel_of(addr);
            prop_assert!(ch < map.channels());
            let local = map.to_local(addr);
            prop_assert_eq!(map.to_global(ch, local), addr);
        }
    }

    #[test]
    fn uniform_stream_balances_channels() {
        // A dense sweep and a strided xorshift stream must both spread
        // within a few percent of N/channels per channel.
        let map = ChannelMap::new(8, 64);
        let mut counts = [0u64; 8];
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..80_000u64 {
            counts[map.channel_of(i * 64) as usize] += 1;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            counts[map.channel_of(x) as usize] += 1;
        }
        let total: u64 = counts.iter().sum();
        let expect = total as f64 / 8.0;
        for (ch, &c) in counts.iter().enumerate() {
            let skew = (c as f64 - expect).abs() / expect;
            assert!(
                skew < 0.02,
                "channel {ch} got {c} of {total} ({skew:.3} skew)"
            );
        }
    }

    #[test]
    fn responses_come_back_with_global_addresses() {
        let mut mem = four_channel();
        // One request per channel: addresses on consecutive lines.
        for i in 0..4u64 {
            let req =
                MemRequest::read(DomainId(0), i * 64, 0).with_id(ReqId::compose(DomainId(0), i));
            mem.try_send(req, 0).unwrap();
        }
        let mut got = Vec::new();
        for now in 0..100_000 {
            mem.tick_into(now, &mut got);
            if got.len() == 4 {
                break;
            }
        }
        let mut addrs: Vec<u64> = got.iter().map(|r| r.addr).collect();
        addrs.sort_unstable();
        assert_eq!(addrs, vec![0, 64, 128, 192]);
    }

    #[test]
    fn merged_stats_sum_channels() {
        let mut mem = four_channel();
        for i in 0..8u64 {
            let req =
                MemRequest::read(DomainId(0), i * 64, 0).with_id(ReqId::compose(DomainId(0), i));
            mem.try_send(req, 0).unwrap();
        }
        let mut got = Vec::new();
        let mut now = 0;
        while got.len() < 8 && now < 100_000 {
            mem.tick_into(now, &mut got);
            now += 1;
        }
        assert_eq!(got.len(), 8);
        mem.stats_mut().set_cycles(now);
        let stats = mem.stats();
        assert_eq!(stats.domain(DomainId(0)).reads, 8);
        assert_eq!(stats.cycles, now);
        // 4 channels x 8 banks, concatenated channel-major.
        assert_eq!(stats.banks.len(), 32);
        assert!(stats.energy.real_reads == 8);
    }

    #[test]
    fn backpressure_returns_global_address() {
        let mut mem = four_channel();
        // Saturate channel 0 (line stride of 4 keeps everything on it).
        let mut rejected = None;
        for i in 0..1_000u64 {
            let req = MemRequest::read(DomainId(0), i * 4 * 64, 0)
                .with_id(ReqId::compose(DomainId(0), i));
            if let Err(back) = mem.try_send(req, 0) {
                rejected = Some((req, back));
                break;
            }
        }
        let (sent, back) = rejected.expect("channel 0 must eventually push back");
        assert_eq!(back.addr, sent.addr);
    }
}
