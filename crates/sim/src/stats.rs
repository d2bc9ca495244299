//! Statistics collectors used by every simulated component.
//!
//! The evaluation reports three families of metrics: per-core IPC normalized
//! to an insecure baseline (Figures 9/10), allocated DRAM bandwidth in GB/s
//! (Figure 7b), and request latency distributions (the receiver-observable
//! quantity in Figure 1). [`IpcMeter`] and [`BandwidthMeter`] collect the
//! first two; latency distributions go into `dg-prof`'s HDR `LogHistogram`.

use crate::clock::Cycle;
use serde::{Deserialize, Serialize};

/// Running mean/min/max/variance of a stream of `f64` samples.
///
/// Variance uses Welford's online algorithm, which stays numerically stable
/// for long streams of near-equal samples (exactly the shape a shaped-memory
/// latency stream has).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunningStats {
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
    /// Welford running mean.
    welford_mean: f64,
    /// Welford sum of squared deviations from the running mean.
    m2: f64,
}

impl RunningStats {
    /// Creates an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
        let delta = v - self.welford_mean;
        self.welford_mean += delta / self.count as f64;
        self.m2 += delta * (v - self.welford_mean);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean, or `None` if no samples were recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum / self.count as f64)
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Population variance (`m2 / n`), or `None` if no samples were
    /// recorded.
    pub fn variance(&self) -> Option<f64> {
        (self.count > 0).then(|| self.m2 / self.count as f64)
    }

    /// Population standard deviation, or `None` if no samples were
    /// recorded.
    pub fn stddev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }
}

/// Instructions-per-cycle meter for one core.
///
/// # Example
///
/// ```
/// use dg_sim::stats::IpcMeter;
///
/// let mut m = IpcMeter::new();
/// m.retire(800);
/// m.set_cycles(1000);
/// assert!((m.ipc() - 0.8).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IpcMeter {
    instructions: u64,
    cycles: Cycle,
}

impl IpcMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records `n` retired instructions.
    pub fn retire(&mut self, n: u64) {
        self.instructions += n;
    }

    /// Sets the elapsed cycle count.
    pub fn set_cycles(&mut self, cycles: Cycle) {
        self.cycles = cycles;
    }

    /// Total retired instructions.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }

    /// Total elapsed cycles.
    pub fn cycles(&self) -> Cycle {
        self.cycles
    }

    /// Instructions per cycle; 0 when no cycles have elapsed.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles as f64
        }
    }
}

/// DRAM bandwidth meter: counts bytes transferred over a window of cycles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BandwidthMeter {
    bytes: u64,
    cycles: Cycle,
}

impl BandwidthMeter {
    /// Creates a zeroed meter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transfer of `bytes` bytes.
    pub fn transfer(&mut self, bytes: u64) {
        self.bytes += bytes;
    }

    /// Sets the elapsed cycle count of the measurement window.
    pub fn set_cycles(&mut self, cycles: Cycle) {
        self.cycles = cycles;
    }

    /// Total bytes transferred.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Average bytes per cycle over the window; 0 when the window is empty.
    pub fn bytes_per_cycle(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.bytes as f64 / self.cycles as f64
        }
    }

    /// Average bandwidth in GB/s for a clock of `clock_hz`.
    pub fn gbps(&self, clock_hz: f64) -> f64 {
        crate::clock::bytes_per_cycle_to_gbps(self.bytes_per_cycle(), clock_hz)
    }
}

/// Geometric mean of a slice of positive values, as used for the
/// `geomean` bars in Figures 9 and 10.
///
/// Returns `None` for an empty slice or any non-positive element.
pub fn geomean(values: &[f64]) -> Option<f64> {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return None;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    Some((log_sum / values.len() as f64).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_stats_basics() {
        let mut s = RunningStats::new();
        assert_eq!(s.mean(), None);
        s.record(2.0);
        s.record(4.0);
        s.record(9.0);
        assert_eq!(s.count(), 3);
        assert_eq!(s.mean(), Some(5.0));
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.sum(), 15.0);
    }

    #[test]
    fn welford_variance_matches_two_pass() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut s = RunningStats::new();
        for &v in &samples {
            s.record(v);
        }
        // Two-pass reference: mean 5.0, population variance 4.0.
        assert!((s.mean().unwrap() - 5.0).abs() < 1e-12);
        assert!((s.variance().unwrap() - 4.0).abs() < 1e-12);
        assert!((s.stddev().unwrap() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn variance_of_empty_and_single() {
        let mut s = RunningStats::new();
        assert_eq!(s.variance(), None);
        assert_eq!(s.stddev(), None);
        s.record(3.5);
        assert_eq!(s.variance(), Some(0.0));
        assert_eq!(s.stddev(), Some(0.0));
    }

    #[test]
    fn welford_stable_on_offset_data() {
        // A large constant offset defeats the naive sum-of-squares formula;
        // Welford must still report the exact variance of {0,1,2}.
        let mut s = RunningStats::new();
        for v in [1e9, 1e9 + 1.0, 1e9 + 2.0] {
            s.record(v);
        }
        assert!((s.variance().unwrap() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn ipc_meter() {
        let mut m = IpcMeter::new();
        assert_eq!(m.ipc(), 0.0);
        m.retire(100);
        m.retire(50);
        m.set_cycles(300);
        assert!((m.ipc() - 0.5).abs() < 1e-12);
        assert_eq!(m.instructions(), 150);
        assert_eq!(m.cycles(), 300);
    }

    #[test]
    fn bandwidth_meter() {
        let mut b = BandwidthMeter::new();
        b.transfer(64);
        b.transfer(64);
        b.set_cycles(64);
        assert!((b.bytes_per_cycle() - 2.0).abs() < 1e-12);
        // 2 bytes/cycle at 1 GHz = 2 GB/s.
        assert!((b.gbps(1e9) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn geomean_values() {
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        let g = geomean(&[1.0, 4.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
        let g = geomean(&[2.0, 2.0, 2.0]).unwrap();
        assert!((g - 2.0).abs() < 1e-12);
    }
}
