//! Digests of simulated statistics: the output-correctness check.
//!
//! A digest lists the statistics a simulator-only change must leave
//! identical: the end cycle, per-core instructions and finish cycle,
//! per-domain reads/writes/fakes, and latency p50/p99. Every run computes
//! the reference digest once with the naive per-cycle engine and compares
//! each measured run against it, so simulating extra (idle) cycles or
//! losing requests counts as a failure instead of a speed-up.

use dg_obs::RunReport;
use dg_system::ColocationResult;

/// Field list of one simulation's statistics, compared exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Digest(pub Vec<u64>);

impl Digest {
    /// The digest of a full-system run report (classic or sharded).
    pub fn of_report(r: &RunReport) -> Self {
        let mut v = vec![r.meta.total_cycles];
        for c in &r.cores {
            v.extend([c.instructions, c.cycles, u64::from(c.finished)]);
        }
        for d in &r.domains {
            v.extend([
                d.reads,
                d.writes,
                d.fakes,
                d.latency_p50.unwrap_or(u64::MAX),
                d.latency_p99.unwrap_or(u64::MAX),
            ]);
        }
        Digest(v)
    }

    /// The digest of a sweep job's result. Colocation results carry
    /// per-domain traffic as bandwidth, so its exact bit pattern stands in
    /// for the read/write/fake counts.
    pub fn of_colocation(r: &ColocationResult) -> Self {
        let mut v = vec![r.total_cycles];
        for c in &r.cores {
            v.extend([c.instructions, c.cycles, u64::from(c.finished)]);
        }
        for b in &r.bandwidth_gbps {
            v.push(b.to_bits());
        }
        for h in &r.latency {
            v.extend([h.count, h.p50, h.p99]);
        }
        Digest(v)
    }

    /// Whether `measured` matches this reference; logs the first mismatch.
    pub fn check(&self, what: &str, measured: &Digest) -> bool {
        if self == measured {
            return true;
        }
        let at = self
            .0
            .iter()
            .zip(&measured.0)
            .position(|(a, b)| a != b)
            .unwrap_or(self.0.len().min(measured.0.len()));
        eprintln!(
            "perfbench: OUTPUT MISMATCH in {what}: field {at} differs \
             (reference {:?}, measured {:?})",
            self.0.get(at),
            measured.0.get(at)
        );
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perturbed_digest_is_a_failure() {
        let reference = Digest(vec![1_000, 7, 900, 1, 40, 0, 3, 120, 300]);
        assert!(reference.check("self-test", &reference.clone()));
        for i in 0..reference.0.len() {
            let mut bad = reference.clone();
            bad.0[i] ^= 1;
            assert!(!reference.check("self-test", &bad), "field {i}");
        }
        let mut short = reference.clone();
        short.0.pop();
        assert!(!reference.check("self-test", &short));
    }
}
