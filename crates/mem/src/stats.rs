//! Per-domain memory statistics.

use dg_dram::power::EnergyCounter;
use dg_prof::LogHistogram;
use dg_sim::clock::Cycle;
use dg_sim::stats::BandwidthMeter;
use dg_sim::types::{DomainId, MemResponse};
use serde::{Deserialize, Serialize};

/// Statistics for one security domain's memory traffic.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainStats {
    /// Completed real read transactions.
    pub reads: u64,
    /// Completed real write transactions.
    pub writes: u64,
    /// Completed fake (shaper-fabricated) transactions.
    pub fakes: u64,
    /// Bandwidth consumed (real + fake; fake requests occupy the bus).
    pub bandwidth: BandwidthMeter,
    /// HDR (log-bucketed) latency histogram of real transactions
    /// (arrival → completion): the one latency record, covering the full
    /// `u64` range with quantiles at most 3.125% below the true value.
    pub latency_hdr: LogHistogram,
}

impl DomainStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self {
            reads: 0,
            writes: 0,
            fakes: 0,
            bandwidth: BandwidthMeter::new(),
            latency_hdr: LogHistogram::new(),
        }
    }

    /// Total completed transactions including fakes.
    pub fn total(&self) -> u64 {
        self.reads + self.writes + self.fakes
    }

    /// Mean latency of real transactions, or `None` when there are none.
    pub fn mean_latency(&self) -> Option<f64> {
        let h = &self.latency_hdr;
        (h.count() > 0).then(|| h.sum() as f64 / h.count() as f64)
    }

    /// Merges another domain's counters into this one. Associative and
    /// commutative, so per-channel and per-shard fragments can be combined
    /// in any grouping. Bandwidth windows (`set_cycles`) are the caller's
    /// responsibility: channels cover the same wall-clock window, so the
    /// merged meter keeps this side's window until it is re-finalized.
    pub fn merge(&mut self, other: &DomainStats) {
        self.reads += other.reads;
        self.writes += other.writes;
        self.fakes += other.fakes;
        self.bandwidth.transfer(other.bandwidth.bytes());
        self.latency_hdr.merge(&other.latency_hdr);
    }

    /// Records a completed transaction.
    pub fn record(&mut self, resp: &MemResponse, line_bytes: u64) {
        self.bandwidth.transfer(line_bytes);
        if resp.kind.is_fake() {
            self.fakes += 1;
        } else {
            if resp.req_type.is_write() {
                self.writes += 1;
            } else {
                self.reads += 1;
            }
            self.latency_hdr.record(resp.latency());
        }
    }
}

impl Default for DomainStats {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-bank activity counters maintained by the memory controller.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BankStats {
    /// ACT commands issued to the bank.
    pub acts: u64,
    /// Column accesses served from a row opened before the transaction
    /// arrived (row-buffer hits).
    pub row_hits: u64,
    /// Column accesses that needed their own activation first.
    pub row_misses: u64,
    /// Precharge operations (explicit PRE plus auto-precharge).
    pub precharges: u64,
    /// Cycles an ACT to this bank was held by the tFAW four-activate window.
    pub faw_stall_cycles: u64,
}

/// Statistics for the whole memory subsystem.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MemStats {
    per_domain: Vec<DomainStats>,
    /// Per-bank activity counters (empty for memory paths without a bank
    /// model, e.g. fixed-latency defenses).
    pub banks: Vec<BankStats>,
    /// Total DRAM refresh operations observed.
    pub refreshes: u64,
    /// Cycles the measurement covers (set by the owner at the end of a run).
    pub cycles: Cycle,
    /// DRAM energy accounting (real vs fake traffic, §4.4).
    pub energy: EnergyCounter,
    /// Responses whose domain id exceeded the configured domain count and
    /// were therefore not attributed to any [`DomainStats`]. A non-zero
    /// value in a run report flags a misconfigured domain count.
    pub dropped: u64,
    line_bytes: u64,
}

impl MemStats {
    /// Creates statistics for `domains` security domains.
    pub fn new(domains: usize, line_bytes: u64) -> Self {
        Self {
            per_domain: (0..domains).map(|_| DomainStats::new()).collect(),
            banks: Vec::new(),
            refreshes: 0,
            cycles: 0,
            energy: EnergyCounter::new(),
            dropped: 0,
            line_bytes,
        }
    }

    /// Records a completed transaction against its domain. Domains beyond
    /// the configured count are not attributed (defensive: shapers may use
    /// reserved ids) but are counted in [`MemStats::dropped`] so they
    /// cannot vanish silently.
    pub fn record(&mut self, resp: &MemResponse) {
        self.energy
            .record_access(resp.req_type.is_write(), resp.kind.is_fake());
        if let Some(d) = self.per_domain.get_mut(resp.domain.0 as usize) {
            d.record(resp, self.line_bytes);
        } else {
            self.dropped += 1;
        }
    }

    /// Per-domain view.
    pub fn domain(&self, d: DomainId) -> &DomainStats {
        &self.per_domain[d.0 as usize]
    }

    /// All domains.
    pub fn domains(&self) -> &[DomainStats] {
        &self.per_domain
    }

    /// Finalizes the measurement window so bandwidth rates are meaningful.
    pub fn set_cycles(&mut self, cycles: Cycle) {
        self.cycles = cycles;
        self.energy.set_cycles(cycles);
        for d in &mut self.per_domain {
            d.bandwidth.set_cycles(cycles);
        }
    }

    /// Line size the statistics were created with.
    pub fn line_bytes(&self) -> u64 {
        self.line_bytes
    }

    /// Merges the statistics of several parallel memory channels into one
    /// subsystem-level view. Domain counters are summed element-wise, bank
    /// counters are concatenated channel-major (channel 0's banks first),
    /// and energy activity is summed. The merged measurement window is
    /// zero until the caller finalizes it with [`MemStats::set_cycles`]:
    /// channels run over the *same* cycles, so windows must not be summed.
    ///
    /// The fold is associative: `merged(&[a, b, c])` equals merging
    /// `merged(&[a, b])` with `c`, which is what lets per-shard report
    /// fragments combine in any grouping.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or the parts disagree on domain count or
    /// line size.
    pub fn merged(parts: &[&MemStats]) -> MemStats {
        let first = parts.first().expect("merged needs at least one part");
        let mut out = MemStats::new(first.per_domain.len(), first.line_bytes);
        for p in parts {
            assert_eq!(
                p.per_domain.len(),
                out.per_domain.len(),
                "channel stats disagree on domain count"
            );
            assert_eq!(
                p.line_bytes, out.line_bytes,
                "channel stats disagree on line size"
            );
            for (d, src) in out.per_domain.iter_mut().zip(&p.per_domain) {
                d.merge(src);
            }
            out.banks.extend(p.banks.iter().copied());
            out.refreshes += p.refreshes;
            out.energy.merge(&p.energy);
            out.dropped += p.dropped;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::types::{ReqId, ReqKind, ReqType};

    fn resp(domain: u16, kind: ReqKind, req_type: ReqType, lat: Cycle) -> MemResponse {
        MemResponse {
            id: ReqId(0),
            domain: DomainId(domain),
            addr: 0,
            req_type,
            kind,
            arrived_at: 100,
            completed_at: 100 + lat,
        }
    }

    #[test]
    fn records_by_kind_and_type() {
        let mut s = MemStats::new(2, 64);
        s.record(&resp(0, ReqKind::Real, ReqType::Read, 50));
        s.record(&resp(0, ReqKind::Real, ReqType::Write, 70));
        s.record(&resp(0, ReqKind::Fake, ReqType::Read, 10));
        s.record(&resp(1, ReqKind::Real, ReqType::Read, 30));

        let d0 = s.domain(DomainId(0));
        assert_eq!(d0.reads, 1);
        assert_eq!(d0.writes, 1);
        assert_eq!(d0.fakes, 1);
        assert_eq!(d0.total(), 3);
        assert_eq!(d0.mean_latency(), Some(60.0));

        let d1 = s.domain(DomainId(1));
        assert_eq!(d1.reads, 1);
        assert_eq!(d1.fakes, 0);
    }

    #[test]
    fn fake_traffic_counts_toward_bandwidth_only() {
        let mut s = MemStats::new(1, 64);
        s.record(&resp(0, ReqKind::Fake, ReqType::Read, 10));
        s.set_cycles(64);
        let d = s.domain(DomainId(0));
        assert_eq!(d.mean_latency(), None);
        assert!((d.bandwidth.bytes_per_cycle() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unknown_domain_counted_as_dropped() {
        let mut s = MemStats::new(1, 64);
        s.record(&resp(9, ReqKind::Real, ReqType::Read, 10));
        assert_eq!(s.domain(DomainId(0)).total(), 0);
        assert_eq!(s.dropped, 1);
        s.record(&resp(0, ReqKind::Real, ReqType::Read, 10));
        assert_eq!(s.dropped, 1);
    }
}
