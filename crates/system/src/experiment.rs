//! Co-location experiment results (Figures 9 and 10). The entry point
//! that produces them, on either topology, is `dg_shard::run_colocation`.

use dg_obs::{LeakSummary, RunReport};
use dg_prof::HistSnapshot;
use dg_sim::clock::Cycle;
use serde::{Deserialize, Serialize};

/// Per-core outcome of a co-location run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CoreResult {
    /// Instructions the core retired.
    pub instructions: u64,
    /// Cycles the core ran (its finish time, or the run end if unfinished).
    pub cycles: Cycle,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Whether the core drained its whole trace.
    pub finished: bool,
}

/// Outcome of one co-location run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColocationResult {
    /// Per-core results, indexed by domain.
    pub cores: Vec<CoreResult>,
    /// Per-domain average bandwidth in GB/s (fake traffic included — it
    /// occupies the bus).
    pub bandwidth_gbps: Vec<f64>,
    /// Total cycles simulated.
    pub total_cycles: Cycle,
    /// Per-domain HDR snapshots of simulated memory latency (real traffic,
    /// arrival → completion), indexed like `cores`. Deterministic, so safe
    /// to merge across jobs in sweep reports.
    pub latency: Vec<HistSnapshot>,
    /// Covert-channel leakage summary, filled in by harnesses that run a
    /// leakage probe alongside the performance run (`None` otherwise).
    pub leakage: Option<LeakSummary>,
}

impl ColocationResult {
    /// Arithmetic mean IPC across cores (the "average normalized IPC" of
    /// Figures 9/10 is this value normalized to an insecure run).
    pub fn mean_ipc(&self) -> f64 {
        self.cores.iter().map(|c| c.ipc).sum::<f64>() / self.cores.len().max(1) as f64
    }

    /// The co-location view of a run report: per-core results and the
    /// core domains' bandwidth and latency (a report lists every core
    /// domain first, in domain order).
    pub fn from_report(report: &RunReport) -> Self {
        let core_domains = &report.domains[..report.cores.len()];
        Self {
            cores: report
                .cores
                .iter()
                .map(|c| CoreResult {
                    instructions: c.instructions,
                    cycles: c.cycles,
                    ipc: c.ipc,
                    finished: c.finished,
                })
                .collect(),
            bandwidth_gbps: core_domains.iter().map(|d| d.bandwidth_gbps).collect(),
            total_cycles: report.meta.total_cycles,
            latency: core_domains.iter().map(|d| d.latency_hdr.clone()).collect(),
            leakage: None,
        }
    }
}
