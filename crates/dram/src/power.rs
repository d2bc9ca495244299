//! DDR3 energy model (the DRAMSim2 power-model substitute).
//!
//! §4.4 of the paper notes that "issuing fake requests … can incur high
//! energy consumption" and adopts the *suppression* optimisation (fake
//! requests update timing state but never move data to the DIMMs). This
//! model quantifies that trade-off: it accumulates per-command energy from
//! a DDR3 current profile (IDD-style, simplified to per-operation charges)
//! plus background power, and separates the energy attributable to fake
//! traffic so the suppression savings can be reported.
//!
//! The per-operation energies below follow the usual Micron DDR3 power
//! methodology collapsed to the operation granularity this simulator
//! schedules at (one ACT+PRE pair, one RD burst, one WR burst, one REF),
//! for a 1.5 V x8 DDR3-1600 device.

use dg_sim::clock::Cycle;
use serde::{Deserialize, Serialize};

/// Per-operation and background energy parameters, in picojoules (pJ) and
/// milliwatts (mW).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Energy of one ACT + PRE pair (row open + close).
    pub act_pre_pj: f64,
    /// Energy of one read burst (column access + I/O).
    pub read_pj: f64,
    /// Energy of one write burst.
    pub write_pj: f64,
    /// Energy of one all-bank refresh.
    pub refresh_pj: f64,
    /// Background (standby) power in mW, charged per cycle.
    pub background_mw: f64,
    /// CPU clock in Hz (to convert cycles to time for background energy).
    pub clock_hz: f64,
}

impl Default for PowerParams {
    fn default() -> Self {
        Self {
            // Representative DDR3-1600 x8 numbers (per 64B line access).
            act_pre_pj: 2600.0,
            read_pj: 2300.0,
            write_pj: 2500.0,
            refresh_pj: 28_000.0,
            background_mw: 90.0,
            clock_hz: 2.4e9,
        }
    }
}

/// Accumulates DRAM energy, split by real vs fake traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct EnergyCounter {
    /// ACT/PRE pairs for real requests.
    pub real_activations: u64,
    /// ACT/PRE pairs for fake requests.
    pub fake_activations: u64,
    /// Real read bursts.
    pub real_reads: u64,
    /// Fake read bursts.
    pub fake_reads: u64,
    /// Real write bursts.
    pub real_writes: u64,
    /// Fake write bursts.
    pub fake_writes: u64,
    /// Refresh operations.
    pub refreshes: u64,
    /// Cycles elapsed (for background energy).
    pub cycles: Cycle,
}

impl EnergyCounter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one serviced transaction: an activation plus a read or
    /// write burst, attributed to real or fake traffic.
    pub fn record_access(&mut self, is_write: bool, is_fake: bool) {
        match (is_fake, is_write) {
            (false, false) => {
                self.real_activations += 1;
                self.real_reads += 1;
            }
            (false, true) => {
                self.real_activations += 1;
                self.real_writes += 1;
            }
            (true, false) => {
                self.fake_activations += 1;
                self.fake_reads += 1;
            }
            (true, true) => {
                self.fake_activations += 1;
                self.fake_writes += 1;
            }
        }
    }

    /// Records one refresh.
    pub fn record_refresh(&mut self) {
        self.refreshes += 1;
    }

    /// Merges another counter's activity into this one. `cycles` is *not*
    /// summed: parallel channels cover the same wall-clock window, so the
    /// caller re-applies [`EnergyCounter::set_cycles`] after merging.
    pub fn merge(&mut self, other: &EnergyCounter) {
        self.real_activations += other.real_activations;
        self.fake_activations += other.fake_activations;
        self.real_reads += other.real_reads;
        self.fake_reads += other.fake_reads;
        self.real_writes += other.real_writes;
        self.fake_writes += other.fake_writes;
        self.refreshes += other.refreshes;
    }

    /// Sets the elapsed cycles for background-energy accounting.
    pub fn set_cycles(&mut self, cycles: Cycle) {
        self.cycles = cycles;
    }

    /// Energy consumed by real traffic, in nanojoules.
    pub fn real_nj(&self, p: &PowerParams) -> f64 {
        (self.real_activations as f64 * p.act_pre_pj
            + self.real_reads as f64 * p.read_pj
            + self.real_writes as f64 * p.write_pj)
            / 1000.0
    }

    /// Energy consumed by fake traffic if fakes are *performed* (not
    /// suppressed), in nanojoules.
    pub fn fake_nj(&self, p: &PowerParams) -> f64 {
        (self.fake_activations as f64 * p.act_pre_pj
            + self.fake_reads as f64 * p.read_pj
            + self.fake_writes as f64 * p.write_pj)
            / 1000.0
    }

    /// Background energy over the elapsed cycles, in nanojoules.
    pub fn background_nj(&self, p: &PowerParams) -> f64 {
        let seconds = self.cycles as f64 / p.clock_hz;
        p.background_mw * 1e-3 * seconds * 1e9
    }

    /// Refresh energy in nanojoules.
    pub fn refresh_nj(&self, p: &PowerParams) -> f64 {
        self.refreshes as f64 * p.refresh_pj / 1000.0
    }

    /// Total energy with fakes suppressed, in nanojoules.
    pub fn total_suppressed_nj(&self, p: &PowerParams) -> f64 {
        self.real_nj(p) + self.refresh_nj(p) + self.background_nj(p)
    }

    /// Total energy with fakes performed, in nanojoules.
    pub fn total_unsuppressed_nj(&self, p: &PowerParams) -> f64 {
        self.total_suppressed_nj(p) + self.fake_nj(p)
    }

    /// Fraction of access energy that fake traffic would add without
    /// suppression (0 when there is no traffic).
    pub fn fake_overhead(&self, p: &PowerParams) -> f64 {
        let real = self.real_nj(p);
        if real == 0.0 {
            0.0
        } else {
            self.fake_nj(p) / real
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_attribution() {
        let mut e = EnergyCounter::new();
        e.record_access(false, false); // real read
        e.record_access(true, false); // real write
        e.record_access(false, true); // fake read
        e.record_access(true, true); // fake write
        assert_eq!(e.real_activations, 2);
        assert_eq!(e.fake_activations, 2);
        assert_eq!(e.real_reads, 1);
        assert_eq!(e.real_writes, 1);
        assert_eq!(e.fake_reads, 1);
        assert_eq!(e.fake_writes, 1);
    }

    #[test]
    fn suppression_saves_exactly_fake_energy() {
        let p = PowerParams::default();
        let mut e = EnergyCounter::new();
        for _ in 0..10 {
            e.record_access(false, false);
        }
        for _ in 0..5 {
            e.record_access(false, true);
        }
        let saved = e.fake_nj(&p);
        assert!(saved > 0.0);
        assert!((e.total_unsuppressed_nj(&p) - e.total_suppressed_nj(&p) - saved).abs() < 1e-9);
    }

    #[test]
    fn background_energy_scales_with_time() {
        let p = PowerParams::default();
        let mut e = EnergyCounter::new();
        e.set_cycles(2_400_000); // 1 ms at 2.4 GHz
                                 // 90 mW for 1 ms = 90 µJ = 90_000 nJ.
        assert!((e.background_nj(&p) - 90_000.0).abs() < 1.0);
    }

    #[test]
    fn fake_overhead_ratio() {
        let p = PowerParams::default();
        let mut e = EnergyCounter::new();
        assert_eq!(e.fake_overhead(&p), 0.0);
        e.record_access(false, false);
        e.record_access(false, true);
        let ratio = e.fake_overhead(&p);
        assert!(
            ratio > 0.9 && ratio < 1.1,
            "similar energy per access: {ratio}"
        );
    }

    #[test]
    fn refresh_energy() {
        let p = PowerParams::default();
        let mut e = EnergyCounter::new();
        e.record_refresh();
        e.record_refresh();
        assert!((e.refresh_nj(&p) - 56.0).abs() < 1e-9);
    }
}
