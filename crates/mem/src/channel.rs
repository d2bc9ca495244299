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
//! [`ChannelMap`] is the pure address math. The simulated system's shards
//! own the channel list and apply it at every hop latency: requests enter
//! a channel in local form, completions leave it re-encoded to global
//! addresses, so cores and caches never observe the interleaving.
//! [`merge_interference`] combines the channels' contention attributions
//! for the run report.

use dg_obs::InterferenceReport;
use dg_sim::types::Addr;

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
    use proptest::prelude::*;

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
}
