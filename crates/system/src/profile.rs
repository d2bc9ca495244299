//! Offline profiling (§4.3, Figure 7).
//!
//! DAGguise's profiling runs the *victim alone* under each candidate
//! defense rDAG, recording the victim's IPC and the bandwidth the shaper
//! allocates (real + fake traffic). A cost-effective defense rDAG is then
//! chosen at the knee of the IPC-vs-bandwidth curve.

use dg_cpu::MemTrace;
use dg_rdag::template::RdagTemplate;
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use serde::{Deserialize, Serialize};

use crate::builder::{MemoryKind, SystemBuilder};

/// One point of the Figure 7 sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProfilePoint {
    /// Candidate template.
    pub template: RdagTemplate,
    /// Victim IPC under this defense rDAG, running alone.
    pub ipc: f64,
    /// Victim IPC normalized to the insecure, alone baseline.
    pub normalized_ipc: f64,
    /// Bandwidth allocated to the victim's domain (GB/s), fakes included.
    pub allocated_gbps: f64,
}

/// Profiles the victim alone under one candidate defense rDAG.
///
/// `baseline_ipc` is the victim's IPC on the insecure system (compute it
/// once with [`baseline_alone`] and reuse across the sweep).
///
/// # Errors
///
/// Returns [`SimError::Deadline`] when `budget` cycles pass before the
/// victim finishes.
pub fn profile_victim(
    cfg: &SystemConfig,
    victim: MemTrace,
    template: RdagTemplate,
    baseline_ipc: f64,
    budget: Cycle,
) -> Result<ProfilePoint, SimError> {
    let mut sys = SystemBuilder::new(cfg.clone())
        .trace_core(victim)
        .memory(MemoryKind::Dagguise {
            protected: vec![Some(template)],
        })
        .build();
    sys.run_until_core_finished(0, budget)?;
    let report = sys.report("profile");
    let ipc = report.cores[0].ipc;
    let allocated_gbps = report.domains[0].bandwidth_gbps;
    Ok(ProfilePoint {
        template,
        ipc,
        normalized_ipc: if baseline_ipc > 0.0 {
            ipc / baseline_ipc
        } else {
            0.0
        },
        allocated_gbps,
    })
}

/// The victim's IPC running alone on the insecure baseline.
///
/// # Errors
///
/// Returns [`SimError::Deadline`] when `budget` cycles pass first.
pub fn baseline_alone(
    cfg: &SystemConfig,
    victim: MemTrace,
    budget: Cycle,
) -> Result<f64, SimError> {
    let mut sys = SystemBuilder::new(cfg.clone())
        .trace_core(victim)
        .memory(MemoryKind::Insecure)
        .build();
    sys.run_until_core_finished(0, budget)?;
    Ok(sys.report("baseline").cores[0].ipc)
}

/// Selects a cost-effective defense rDAG from sweep results: the highest
/// normalized IPC among candidates whose allocated bandwidth lies in
/// `[lo_gbps, hi_gbps]` (the highlighted 2–4 GB/s region of Figure 7c),
/// falling back to the point closest to the band if none lies inside.
pub fn select_defense_rdag(points: &[ProfilePoint], lo_gbps: f64, hi_gbps: f64) -> ProfilePoint {
    assert!(!points.is_empty(), "sweep produced no points");
    points
        .iter()
        .filter(|p| p.allocated_gbps >= lo_gbps && p.allocated_gbps <= hi_gbps)
        .max_by(|a, b| a.normalized_ipc.total_cmp(&b.normalized_ipc))
        .copied()
        .unwrap_or_else(|| {
            // Nothing in band: take the point nearest the band's centre.
            let mid = (lo_gbps + hi_gbps) / 2.0;
            *points
                .iter()
                .min_by(|a, b| {
                    (a.allocated_gbps - mid)
                        .abs()
                        .total_cmp(&(b.allocated_gbps - mid).abs())
                })
                .expect("non-empty")
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn victim(n: u64) -> MemTrace {
        let mut t = MemTrace::new();
        for i in 0..n {
            t.load(i * 64 * 67, 15);
        }
        t
    }

    #[test]
    fn denser_rdag_allocates_more_bandwidth() {
        let cfg = SystemConfig::two_core();
        let base = baseline_alone(&cfg, victim(200), 100_000_000).unwrap();
        let sparse = profile_victim(
            &cfg,
            victim(200),
            RdagTemplate::new(1, 300, 0.0),
            base,
            200_000_000,
        )
        .unwrap();
        let dense = profile_victim(
            &cfg,
            victim(200),
            RdagTemplate::new(8, 25, 0.0),
            base,
            200_000_000,
        )
        .unwrap();
        assert!(
            dense.allocated_gbps > sparse.allocated_gbps * 2.0,
            "dense {} vs sparse {}",
            dense.allocated_gbps,
            sparse.allocated_gbps
        );
        assert!(
            dense.ipc >= sparse.ipc,
            "denser rDAG should not hurt the victim: {} vs {}",
            dense.ipc,
            sparse.ipc
        );
    }

    #[test]
    fn normalized_ipc_below_one() {
        let cfg = SystemConfig::two_core();
        let base = baseline_alone(&cfg, victim(150), 100_000_000).unwrap();
        let p = profile_victim(
            &cfg,
            victim(150),
            RdagTemplate::new(2, 150, 0.0),
            base,
            200_000_000,
        )
        .unwrap();
        assert!(p.normalized_ipc > 0.0 && p.normalized_ipc <= 1.05, "{p:?}");
    }

    #[test]
    fn selection_prefers_in_band_best_ipc() {
        let mk = |seqs, w, ipc, bw| ProfilePoint {
            template: RdagTemplate::new(seqs, w, 0.0),
            ipc,
            normalized_ipc: ipc,
            allocated_gbps: bw,
        };
        let pts = vec![
            mk(1, 300, 0.3, 1.0),
            mk(4, 100, 0.7, 3.0),
            mk(8, 0, 0.9, 8.0),
            mk(2, 200, 0.5, 2.5),
        ];
        let best = select_defense_rdag(&pts, 2.0, 4.0);
        assert_eq!(best.template.sequences, 4);

        // Out-of-band fallback picks the closest point.
        let far = vec![mk(1, 300, 0.3, 0.5), mk(8, 0, 0.9, 9.0)];
        let pick = select_defense_rdag(&far, 2.0, 4.0);
        assert_eq!(pick.template.sequences, 1);
    }

    #[test]
    #[should_panic(expected = "no points")]
    fn empty_sweep_panics() {
        select_defense_rdag(&[], 2.0, 4.0);
    }
}
