//! Simulation clock and clock-domain arithmetic.
//!
//! The global simulation clock runs in **CPU cycles** (2.4 GHz in the paper's
//! Table 2 configuration). DRAM timing parameters and rDAG edge weights are
//! expressed in **DRAM command-bus cycles** (800 MHz for DDR3-1600); the
//! [`ClockRatio`] type converts between the two domains.

use serde::{Deserialize, Serialize};

/// A point in time or a duration, measured in global (CPU) cycles.
///
/// The simulation never runs long enough for `u64` to overflow: at 2.4 GHz a
/// `u64` covers roughly 240 years of simulated time.
pub type Cycle = u64;

/// Ratio between the CPU clock and the DRAM command clock.
///
/// For the paper's configuration (2.4 GHz cores, DDR3-1600 whose command bus
/// runs at 800 MHz) the ratio is 3 CPU cycles per DRAM cycle.
///
/// # Example
///
/// ```
/// use dg_sim::clock::ClockRatio;
///
/// let r = ClockRatio::default();
/// assert_eq!(r.cpu_per_dram(), 3);
/// assert_eq!(r.dram_to_cpu(100), 300);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ClockRatio {
    cpu_per_dram: u64,
}

impl ClockRatio {
    /// Creates a new ratio of `cpu_per_dram` CPU cycles per DRAM cycle.
    ///
    /// # Panics
    ///
    /// Panics if `cpu_per_dram` is zero.
    pub fn new(cpu_per_dram: u64) -> Self {
        assert!(cpu_per_dram > 0, "clock ratio must be positive");
        Self { cpu_per_dram }
    }

    /// Number of CPU cycles per DRAM command-bus cycle.
    pub fn cpu_per_dram(self) -> u64 {
        self.cpu_per_dram
    }

    /// Converts a duration in DRAM cycles to CPU cycles.
    pub fn dram_to_cpu(self, dram_cycles: u64) -> Cycle {
        dram_cycles * self.cpu_per_dram
    }

    /// Converts a duration in CPU cycles to whole DRAM cycles, rounding up.
    ///
    /// Rounding up is the conservative direction for timing constraints: a
    /// constraint of `x` CPU cycles is satisfied after `ceil(x / ratio)` DRAM
    /// cycles.
    pub fn cpu_to_dram_ceil(self, cpu_cycles: Cycle) -> u64 {
        cpu_cycles.div_ceil(self.cpu_per_dram)
    }

    /// Returns true when `cycle` falls on a DRAM command-bus edge.
    pub fn is_dram_edge(self, cycle: Cycle) -> bool {
        cycle.is_multiple_of(self.cpu_per_dram)
    }

    /// The first DRAM command-bus edge at or after `cycle`.
    pub fn next_dram_edge(self, cycle: Cycle) -> Cycle {
        cycle.next_multiple_of(self.cpu_per_dram)
    }
}

impl Default for ClockRatio {
    /// The Table 2 configuration: 2.4 GHz cores with an 800 MHz DRAM command
    /// bus, i.e. 3 CPU cycles per DRAM cycle.
    fn default() -> Self {
        Self::new(3)
    }
}

/// Merges two optional next-event times, keeping the earlier one.
///
/// `None` means "no self-scheduled event": a component that only reacts to
/// external input contributes nothing to the merge. Used by the event-driven
/// engine to fold per-component `next_event_at` answers into a single warp
/// target.
///
/// # Example
///
/// ```
/// use dg_sim::clock::earliest_event;
///
/// assert_eq!(earliest_event(None, None), None);
/// assert_eq!(earliest_event(Some(7), None), Some(7));
/// assert_eq!(earliest_event(Some(7), Some(3)), Some(3));
/// ```
#[inline]
pub fn earliest_event(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.min(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// A component's last `next_event_at` answer, kept until it may change.
///
/// Under the no-op contract of `next_event_at` (every tick before the
/// answered cycle does nothing, absent input), an answer changes only when
/// the component takes input — a request or a response, which the caller
/// reports with [`touch`](Self::touch) — or is ticked on or after the
/// answered cycle. An engine that ticks every cycle it does not warp over,
/// and warps only up to the earliest answer, therefore needs to poll a
/// component again only when its entry is [`stale`](Self::stale).
///
/// # Example
///
/// ```
/// use dg_sim::clock::CachedEvent;
///
/// let mut e = CachedEvent::STALE;
/// assert!(e.stale(0));
/// e.set(Some(10));
/// assert!(!e.stale(10) && e.due(10) && !e.due(9));
/// assert!(e.stale(11)); // cycle 10 was ticked since the poll
/// e.touch();
/// assert!(e.stale(0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedEvent {
    at: Option<Cycle>,
    fresh: bool,
}

impl CachedEvent {
    /// An entry that must be polled before it is read.
    pub const STALE: Self = Self {
        at: None,
        fresh: false,
    };

    /// The component took input: its answer must be polled again.
    #[inline]
    pub fn touch(&mut self) {
        self.fresh = false;
    }

    /// Records a freshly polled answer.
    #[inline]
    pub fn set(&mut self, at: Option<Cycle>) {
        *self = Self { at, fresh: true };
    }

    /// The recorded answer (meaningful while the entry is not stale).
    #[inline]
    pub fn at(&self) -> Option<Cycle> {
        self.at
    }

    /// Whether the answer must be polled again before it is read at `now`:
    /// the component took input since, or its answer lies before `now`, so
    /// a tick it was due in has passed.
    #[inline]
    pub fn stale(&self, now: Cycle) -> bool {
        !self.fresh || self.at.is_some_and(|t| t < now)
    }

    /// Whether a tick at `now` may do anything: the component took input
    /// since its answer, or the answer is due.
    #[inline]
    pub fn due(&self, now: Cycle) -> bool {
        !self.fresh || self.at.is_some_and(|t| t <= now)
    }
}

/// Converts a bandwidth expressed in bytes per CPU cycle into GB/s for the
/// paper's 2.4 GHz clock.
///
/// Figure 7(b) of the paper reports allocated bandwidth in GB/s; this helper
/// keeps the conversion in one place.
///
/// # Example
///
/// ```
/// use dg_sim::clock::bytes_per_cycle_to_gbps;
///
/// // One 64-byte line every 30 CPU cycles at 2.4GHz is ~5.12 GB/s.
/// let gbps = bytes_per_cycle_to_gbps(64.0 / 30.0, 2.4e9);
/// assert!((gbps - 5.12).abs() < 0.01);
/// ```
pub fn bytes_per_cycle_to_gbps(bytes_per_cycle: f64, clock_hz: f64) -> f64 {
    bytes_per_cycle * clock_hz / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_ratio_is_three() {
        assert_eq!(ClockRatio::default().cpu_per_dram(), 3);
    }

    #[test]
    fn dram_to_cpu_scales() {
        let r = ClockRatio::new(3);
        assert_eq!(r.dram_to_cpu(0), 0);
        assert_eq!(r.dram_to_cpu(39), 117);
    }

    #[test]
    fn cpu_to_dram_rounds_up() {
        let r = ClockRatio::new(3);
        assert_eq!(r.cpu_to_dram_ceil(0), 0);
        assert_eq!(r.cpu_to_dram_ceil(1), 1);
        assert_eq!(r.cpu_to_dram_ceil(3), 1);
        assert_eq!(r.cpu_to_dram_ceil(4), 2);
    }

    #[test]
    fn dram_edges() {
        let r = ClockRatio::new(3);
        assert!(r.is_dram_edge(0));
        assert!(!r.is_dram_edge(1));
        assert!(!r.is_dram_edge(2));
        assert!(r.is_dram_edge(3));
        assert_eq!(r.next_dram_edge(0), 0);
        assert_eq!(r.next_dram_edge(1), 3);
        assert_eq!(r.next_dram_edge(3), 3);
        assert_eq!(r.next_dram_edge(4), 6);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_ratio_panics() {
        let _ = ClockRatio::new(0);
    }

    #[test]
    fn bandwidth_conversion() {
        // 1 byte per cycle at 1 GHz is exactly 1 GB/s.
        assert!((bytes_per_cycle_to_gbps(1.0, 1e9) - 1.0).abs() < 1e-12);
    }
}
