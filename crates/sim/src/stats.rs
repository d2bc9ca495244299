//! Statistics collectors used by every simulated component.
//!
//! The evaluation reports three families of metrics: per-core IPC normalized
//! to an insecure baseline (Figures 9/10), allocated DRAM bandwidth in GB/s
//! (Figure 7b), and request latency distributions (the receiver-observable
//! quantity in Figure 1). Cores count their own retired instructions,
//! [`BandwidthMeter`] collects the bandwidth, and latency distributions go
//! into `dg-prof`'s HDR `LogHistogram`; [`geomean`] summarizes normalized
//! IPC across workloads.

use crate::clock::Cycle;
use serde::{Deserialize, Serialize};

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
