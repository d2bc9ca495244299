//! Spatially-partitioned Fixed Service (§8).
//!
//! Besides BTA, Fixed Service \[25\] has variants that partition memory
//! *space*: each security domain owns a disjoint set of banks, so bank
//! conflicts between domains are impossible and only the shared buses
//! need temporal scheduling. Performance improves (a domain can use its
//! banks at full tRC rate without rotating slots with others), but — as
//! §8 notes — "they severely limit the number of simultaneous programs
//! and the allowable memory usage of each": the address space available
//! to a domain shrinks to its bank partition, and bank-level parallelism
//! within a domain drops to `banks / domains`.
//!
//! The model: each domain owns `banks / domains` banks; a domain's
//! requests are remapped into its partition (address % partition) and
//! served on a private per-partition pipeline with deterministic latency;
//! the shared data bus is time-sliced at burst granularity, which costs a
//! bounded, load-independent delay folded into the service constant.

use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::types::MemRequest;

use crate::schedule::{FixedSchedule, IssueRule, Queue, ScheduleConfig};

/// Configuration for bank-partitioned Fixed Service. Its service latency
/// includes the bounded bus time-slice delay.
pub type FsSpatialConfig = ScheduleConfig<Partitions>;

/// The spatially-partitioned Fixed Service controller.
pub type FsSpatial = FixedSchedule<PartitionRule>;

/// The bank-partition parameters of FS-spatial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitions {
    /// Per-bank issue interval in CPU cycles (tRC).
    pub bank_interval: Cycle,
}

impl FsSpatialConfig {
    /// Builds the configuration from the system parameters.
    ///
    /// # Panics
    ///
    /// Panics if `domains` does not divide the bank count.
    pub fn new(sys: &SystemConfig, domains: usize) -> Self {
        assert!(
            domains > 0 && (sys.dram_org.banks as usize).is_multiple_of(domains),
            "domains must divide the bank count"
        );
        let t = &sys.timing;
        let rule = Partitions {
            bank_interval: sys.clock_ratio.dram_to_cpu(t.tRC),
        };
        ScheduleConfig::with_rule(sys, domains, t.tRCD + t.tCAS + t.tBURST + t.tBURST, rule)
    }
}

/// The FS-spatial issue rule: each domain owns `banks / domains` banks, its
/// requests are remapped into that partition, and a domain's queue head
/// issues as soon as its partition bank is free — one request per free
/// bank per cycle, independently of the other partitions.
#[derive(Debug)]
pub struct PartitionRule {
    bank_interval: Cycle,
    /// Banks owned by each domain.
    banks_per_domain: u32,
    /// Next legal issue cycle per domain-local bank: a request's global
    /// bank folded into its domain's partition.
    bank_free: Vec<Vec<Cycle>>,
}

impl IssueRule for PartitionRule {
    type Params = Partitions;

    fn new(sys: &SystemConfig, config: &FsSpatialConfig) -> Self {
        let banks_per_domain = sys.dram_org.banks / config.domains as u32;
        Self {
            bank_interval: config.rule.bank_interval,
            banks_per_domain,
            bank_free: vec![vec![0; banks_per_domain as usize]; config.domains],
        }
    }

    fn issue(
        &mut self,
        queues: &mut [Queue],
        now: Cycle,
        mut start: impl FnMut(MemRequest, Cycle),
    ) {
        for (q, bank_free) in queues.iter_mut().zip(&mut self.bank_free) {
            while let Some(&(req, bank)) = q.front() {
                let free = &mut bank_free[(bank % self.banks_per_domain) as usize];
                if *free > now {
                    break;
                }
                *free = now + self.bank_interval;
                q.pop_front();
                start(req, now);
            }
        }
    }

    fn next_issue(&self, queues: &[Queue], now: Cycle) -> Option<Cycle> {
        // Issue is head-of-line per domain: a non-empty queue's next event
        // is when its head request's partition bank frees up.
        queues
            .iter()
            .zip(&self.bank_free)
            .filter_map(|(q, free)| Some(free[(q.front()?.1 % self.banks_per_domain) as usize]))
            .map(|at| at.max(now))
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::MemorySubsystem;
    use dg_sim::types::{DomainId, MemResponse, ReqId};

    fn sys() -> SystemConfig {
        let mut c = SystemConfig::two_core();
        c.clock_ratio = dg_sim::clock::ClockRatio::new(1);
        c
    }

    fn req(domain: u16, addr: u64, id: u64) -> MemRequest {
        MemRequest::read(DomainId(domain), addr, 0).with_id(ReqId::compose(DomainId(domain), id))
    }

    fn drive(fs: &mut FsSpatial, until: Cycle) -> Vec<MemResponse> {
        let mut out = Vec::new();
        for now in 0..until {
            out.extend(fs.tick(now));
        }
        out
    }

    #[test]
    fn partitions_divide_banks() {
        let s = sys();
        let fs = FsSpatial::new(&s, FsSpatialConfig::new(&s, 2));
        assert_eq!(fs.rule.banks_per_domain, 4);
        let fs8 = FsSpatial::new(&s, FsSpatialConfig::new(&s, 8));
        assert_eq!(fs8.rule.banks_per_domain, 1);
    }

    #[test]
    #[should_panic(expected = "divide the bank count")]
    fn non_dividing_domains_rejected() {
        let s = sys();
        FsSpatialConfig::new(&s, 3);
    }

    #[test]
    fn domain_uses_its_partition_at_full_rate() {
        let s = sys();
        let cfg = FsSpatialConfig::new(&s, 2);
        let mut fs = FsSpatial::new(&s, cfg);
        // Four requests to distinct banks issue immediately in parallel —
        // no slot rotation with the other (idle) domain.
        for i in 0..4u64 {
            fs.try_send(req(0, i * 64, i), 0).unwrap();
        }
        let done = drive(&mut fs, cfg.service + 2);
        assert_eq!(done.len(), 4);
        assert!(done.iter().all(|r| r.completed_at == cfg.service));
    }

    #[test]
    fn non_interference_across_partitions() {
        let s = sys();
        let cfg = FsSpatialConfig::new(&s, 2);

        let mut quiet = FsSpatial::new(&s, cfg);
        quiet.try_send(req(0, 0x40, 1), 0).unwrap();
        let a = drive(&mut quiet, cfg.service * 4);

        let mut noisy = FsSpatial::new(&s, cfg);
        noisy.try_send(req(0, 0x40, 1), 0).unwrap();
        for i in 0..16 {
            noisy.try_send(req(1, 0x10000 + i * 64, i), 0).unwrap();
        }
        let b = drive(&mut noisy, cfg.service * 4);

        let a0: Vec<_> = a.iter().filter(|r| r.domain == DomainId(0)).collect();
        let b0: Vec<_> = b.iter().filter(|r| r.domain == DomainId(0)).collect();
        assert_eq!(a0[0].completed_at, b0[0].completed_at);
    }

    #[test]
    fn reduced_parallelism_within_domain() {
        let s = sys();
        let cfg8 = FsSpatialConfig::new(&s, 8); // one bank per domain
        let mut fs = FsSpatial::new(&s, cfg8);
        // Two requests from one domain serialize on its single bank.
        fs.try_send(req(0, 0x0, 1), 0).unwrap();
        fs.try_send(req(0, 0x40, 2), 0).unwrap();
        let done = drive(&mut fs, cfg8.rule.bank_interval * 3);
        assert_eq!(done.len(), 2);
        assert_eq!(
            done[1].completed_at - done[0].completed_at,
            cfg8.rule.bank_interval
        );
    }
}
