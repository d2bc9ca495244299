//! The fixed-schedule controller shared by Fixed Service, FS-BTA,
//! FS-spatial and Temporal Partitioning.
//!
//! Each of these defenses replaces the memory controller with a schedule
//! that never lets one domain's traffic move another's: requests wait in
//! private per-domain queues (one domain's occupancy is invisible to the
//! others), start service only when the defense's [`IssueRule`] allows,
//! and complete exactly `service` cycles later. [`FixedSchedule`] is that
//! common body — the queues and their capacity check, the in-flight
//! responses and the completion drain that records statistics — and the
//! rule is the only part that differs between the defenses.

use std::collections::VecDeque;

use dg_dram::{AddressMapper, MapScheme};
use dg_sim::clock::{earliest_event, Cycle};
use dg_sim::config::SystemConfig;
use dg_sim::types::{MemRequest, MemResponse};

use dg_mem::{MemStats, MemorySubsystem};

/// A domain's private queue: each request with the DRAM bank it maps to.
pub type Queue = VecDeque<(MemRequest, u32)>;

/// Which queued requests start service, and when.
pub trait IssueRule: Send {
    /// The rule's own parameters.
    type Params: Copy;

    /// A fresh rule for the schedule `config` on the system `sys`.
    fn new(sys: &SystemConfig, config: &ScheduleConfig<Self::Params>) -> Self;

    /// Starts every request the rule issues by `now`: pops it from its
    /// domain's queue and passes it to `start` with its issue cycle.
    fn issue(&mut self, queues: &mut [Queue], now: Cycle, start: impl FnMut(MemRequest, Cycle));

    /// With at least one request queued, the earliest cycle `>= now` at
    /// which [`issue`](Self::issue) could start one (`None`: never).
    fn next_issue(&self, queues: &[Queue], now: Cycle) -> Option<Cycle>;
}

/// A fixed-schedule controller's configuration: what every schedule has,
/// and its issue rule's own parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleConfig<P> {
    /// Number of security domains sharing the schedule.
    pub domains: usize,
    /// Deterministic service latency (issue → response) in CPU cycles.
    pub service: Cycle,
    /// Per-domain request queue capacity.
    pub queue_capacity: usize,
    /// The issue rule's parameters.
    pub rule: P,
}

impl<P> ScheduleConfig<P> {
    /// `rule` for `domains` domains with the system's transaction-queue
    /// capacity and a `service` latency given in DRAM cycles.
    pub(crate) fn with_rule(sys: &SystemConfig, domains: usize, service: u64, rule: P) -> Self {
        Self {
            domains,
            service: sys.clock_ratio.dram_to_cpu(service),
            queue_capacity: sys.queues.transaction_queue,
            rule,
        }
    }
}

/// A memory subsystem that serves private per-domain queues on the
/// schedule of the issue rule `R`.
#[derive(Debug)]
pub struct FixedSchedule<R> {
    pub(crate) rule: R,
    service: Cycle,
    queue_capacity: usize,
    mapper: AddressMapper,
    queues: Vec<Queue>,
    in_flight: Vec<MemResponse>,
    stats: MemStats,
    /// Requests issued so far.
    pub(crate) issued: u64,
}

impl<R: IssueRule> FixedSchedule<R> {
    /// Builds the controller for `config.domains` domains.
    pub fn new(sys: &SystemConfig, config: ScheduleConfig<R::Params>) -> Self {
        assert!(config.domains > 0, "need at least one domain");
        Self {
            rule: R::new(sys, &config),
            service: config.service,
            queue_capacity: config.queue_capacity,
            mapper: AddressMapper::new(
                MapScheme::BankInterleaved,
                sys.dram_org.banks,
                sys.dram_org.row_bytes,
                sys.dram_org.line_bytes,
            ),
            queues: (0..config.domains).map(|_| VecDeque::new()).collect(),
            in_flight: Vec::new(),
            stats: MemStats::new(config.domains + 2, sys.dram_org.line_bytes),
            issued: 0,
        }
    }
}

impl<R: IssueRule> MemorySubsystem for FixedSchedule<R> {
    fn try_send(&mut self, req: MemRequest, _now: Cycle) -> Result<(), MemRequest> {
        let d = req.domain.0 as usize;
        assert!(d < self.queues.len(), "domain {} out of range", req.domain);
        if self.queues[d].len() >= self.queue_capacity {
            return Err(req);
        }
        let bank = self.mapper.decode(req.addr).bank;
        self.queues[d].push_back((req, bank));
        Ok(())
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let Self {
            rule,
            service,
            queues,
            in_flight,
            issued,
            ..
        } = self;
        rule.issue(queues, now, |req, at| {
            *issued += 1;
            in_flight.push(MemResponse {
                id: req.id,
                domain: req.domain,
                addr: req.addr,
                req_type: req.req_type,
                kind: req.kind,
                arrived_at: req.created_at,
                completed_at: at + *service,
            });
        });
        let mut i = 0;
        while i < self.in_flight.len() {
            if self.in_flight[i].completed_at <= now {
                let resp = self.in_flight.swap_remove(i);
                self.stats.record(&resp);
                out.push(resp);
            } else {
                i += 1;
            }
        }
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        // In-flight completions are delivered at their completed_at cycle;
        // with nothing queued, no rule can issue.
        let done = self.in_flight.iter().map(|r| r.completed_at.max(now)).min();
        if self.queues.iter().all(VecDeque::is_empty) {
            return done;
        }
        earliest_event(done, self.rule.next_issue(&self.queues, now))
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        &mut self.stats
    }

    fn free_slots(&self) -> usize {
        self.queues
            .iter()
            .map(|q| self.queue_capacity - q.len())
            .min()
            .unwrap_or(0)
    }
}
