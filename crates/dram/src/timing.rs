//! DRAM timing parameters converted into the CPU clock domain.

use dg_sim::clock::{ClockRatio, Cycle};
use dg_sim::config::DramTiming;
use serde::{Deserialize, Serialize};

/// The Table 2 timing parameters, pre-multiplied into CPU cycles.
///
/// The bank and device state machines operate exclusively on these converted
/// values so that the rest of the simulator never mixes clock domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(non_snake_case)]
pub struct CpuTiming {
    /// ACT-to-ACT, same bank.
    pub tRC: Cycle,
    /// ACT-to-RD/WR.
    pub tRCD: Cycle,
    /// ACT-to-PRE minimum.
    pub tRAS: Cycle,
    /// Four-activate window.
    pub tFAW: Cycle,
    /// End of write data to PRE.
    pub tWR: Cycle,
    /// PRE-to-ACT.
    pub tRP: Cycle,
    /// Rank switch / bus turnaround pad.
    pub tRTRS: Cycle,
    /// RD to first data beat.
    pub tCAS: Cycle,
    /// RD-to-PRE.
    pub tRTP: Cycle,
    /// Data burst duration.
    pub tBURST: Cycle,
    /// Column-to-column spacing.
    pub tCCD: Cycle,
    /// Write-to-read turnaround.
    pub tWTR: Cycle,
    /// ACT-to-ACT, different banks.
    pub tRRD: Cycle,
    /// Refresh interval.
    pub tREFI: Cycle,
    /// Refresh cycle time.
    pub tRFC: Cycle,
    /// WR to first data beat.
    pub tCWD: Cycle,
    /// CPU cycles per DRAM command-bus cycle (command bus granularity).
    pub cmd_cycle: Cycle,
}

impl CpuTiming {
    /// Converts a DRAM-cycle parameter set into CPU cycles.
    pub fn from_dram(t: DramTiming, ratio: ClockRatio) -> Self {
        let c = |v: u64| ratio.dram_to_cpu(v);
        Self {
            tRC: c(t.tRC),
            tRCD: c(t.tRCD),
            tRAS: c(t.tRAS),
            tFAW: c(t.tFAW),
            tWR: c(t.tWR),
            tRP: c(t.tRP),
            tRTRS: c(t.tRTRS),
            tCAS: c(t.tCAS),
            tRTP: c(t.tRTP),
            tBURST: c(t.tBURST),
            tCCD: c(t.tCCD),
            tWTR: c(t.tWTR),
            tRRD: c(t.tRRD),
            tREFI: c(t.tREFI),
            tRFC: c(t.tRFC),
            tCWD: c(t.tCWD),
            cmd_cycle: ratio.cpu_per_dram(),
        }
    }

    /// Minimum closed-row read latency (ACT → RD → last data beat).
    pub fn closed_row_read_latency(&self) -> Cycle {
        self.tRCD + self.tCAS + self.tBURST
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversion_scales_by_ratio() {
        let t = CpuTiming::from_dram(DramTiming::default(), ClockRatio::new(3));
        assert_eq!(t.tRC, 117);
        assert_eq!(t.tRCD, 33);
        assert_eq!(t.tCAS, 33);
        assert_eq!(t.tBURST, 12);
        assert_eq!(t.cmd_cycle, 3);
    }

    #[test]
    fn unit_ratio_is_identity() {
        let t = CpuTiming::from_dram(DramTiming::default(), ClockRatio::new(1));
        assert_eq!(t.tRC, 39);
        assert_eq!(t.tREFI, 6240);
    }

    #[test]
    fn derived_latencies() {
        let t = CpuTiming::from_dram(DramTiming::default(), ClockRatio::new(1));
        assert_eq!(t.closed_row_read_latency(), 11 + 11 + 4);
    }
}
