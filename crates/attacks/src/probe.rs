//! The constant-pattern probe attacker.

use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_dram::{AddressMapper, MapScheme, PhysLoc};
use dg_mem::{MemoryController, MemorySubsystem, SchedPolicy};
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqId};
use serde::{Deserialize, Serialize};
use std::sync::{Arc, Mutex, PoisonError};

/// One probe's receiver-visible observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProbeObservation {
    /// Cycle the probe was issued.
    pub issued: Cycle,
    /// Cycle its response returned.
    pub completed: Cycle,
}

impl ProbeObservation {
    /// The latency the attacker measures.
    pub fn latency(&self) -> Cycle {
        self.completed - self.issued
    }
}

/// A [`ProbeCore`]'s observations, in completion order. The core appends
/// to it while the system that runs it owns the core; the caller keeps a
/// clone of the handle to read it afterwards.
#[derive(Debug, Clone, Default)]
pub struct ProbeLog(Arc<Mutex<Vec<ProbeObservation>>>);

impl ProbeLog {
    /// The observations so far.
    pub fn observations(&self) -> Vec<ProbeObservation> {
        self.0
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The attacker's latency trace.
    pub fn latencies(&self) -> Vec<Cycle> {
        self.observations().iter().map(|o| o.latency()).collect()
    }
}

/// The attacker of §2.2 as a simulated core: emits a read to a fixed
/// bank/row, waits for the response, idles `think` cycles, repeats.
/// It bypasses the cache hierarchy (attackers flush or use uncached
/// accesses so every probe reaches the memory controller).
#[derive(Debug)]
pub struct ProbeCore {
    domain: DomainId,
    addr: u64,
    think: Cycle,
    max_probes: usize,
    probes: usize,
    log: ProbeLog,
    outstanding: Option<ReqId>,
    next_issue: Cycle,
    next_seq: u64,
    pending_send: Option<MemRequest>,
    finished_at: Option<Cycle>,
}

impl ProbeCore {
    /// Builds a probe core for `domain` hammering `addr` with `think`
    /// cycles between a response and the next probe. It finishes after
    /// `max_probes` observations (`usize::MAX`: never).
    pub fn new(domain: DomainId, addr: u64, think: Cycle, max_probes: usize) -> Self {
        Self {
            domain,
            addr,
            think,
            max_probes,
            probes: 0,
            log: ProbeLog::default(),
            outstanding: None,
            next_issue: 0,
            next_seq: 0,
            pending_send: None,
            finished_at: None,
        }
    }

    /// A handle to the core's observation log.
    pub fn log(&self) -> ProbeLog {
        self.log.clone()
    }
}

impl Core for ProbeCore {
    fn domain(&self) -> DomainId {
        self.domain
    }

    fn tick(&mut self, now: Cycle, _l3: &mut SetAssocCache, mem: &mut dyn MemorySubsystem) {
        if self.finished_at.is_some() {
            return;
        }
        if self.probes >= self.max_probes {
            if self.outstanding.is_none() {
                self.finished_at = Some(now);
            }
            return;
        }
        if let Some(req) = self.pending_send.take() {
            if let Err(back) = mem.try_send(req, now) {
                self.pending_send = Some(back);
            }
            return;
        }
        if self.outstanding.is_none() && now >= self.next_issue {
            self.next_seq += 1;
            let id = ReqId::compose(self.domain, self.next_seq);
            let req = MemRequest::read(self.domain, self.addr, now).with_id(id);
            self.outstanding = Some(id);
            if let Err(back) = mem.try_send(req, now) {
                self.pending_send = Some(back);
            }
        }
    }

    fn on_response(&mut self, resp: &MemResponse, now: Cycle) {
        if self.outstanding == Some(resp.id) {
            self.outstanding = None;
            self.probes += 1;
            let obs = ProbeObservation {
                issued: resp.arrived_at,
                completed: resp.completed_at,
            };
            self.log
                .0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(obs);
            self.next_issue = now + self.think;
        }
    }

    fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn instructions_retired(&self) -> u64 {
        self.probes as u64
    }

    fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if self.finished_at.is_some() {
            return None;
        }
        if self.probes >= self.max_probes {
            // Waiting to retire: active only once the last probe returns.
            return if self.outstanding.is_none() {
                Some(now)
            } else {
                None
            };
        }
        if self.pending_send.is_some() {
            // Retrying a refused probe is all a tick does: parked until a
            // memory event (the refusals in between are settled by warps).
            return None;
        }
        if self.outstanding.is_none() {
            return Some(self.next_issue.max(now));
        }
        None // probe in flight: woken by on_response
    }
}

/// The four victim behaviours of Figure 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Figure1Scenario {
    /// (a) The victim is silent.
    NoActivity,
    /// (b) One victim request to a different bank.
    DifferentBank,
    /// (c) One victim request to the attacker's bank and row.
    SameBankSameRow,
    /// (d) One victim request to the attacker's bank, different row.
    SameBankDifferentRow,
}

/// Runs one Figure 1 scenario against a bare open-row FCFS controller
/// and returns the attacker's latency trace.
///
/// Figure 1 of the paper is drawn for "a simplified memory where each
/// request takes *n* cycles and the DRAM uses an open-row policy" — i.e. a
/// first-come-first-served scheduler with no row-hit reordering. We use the
/// real DRAM timing model with the FCFS policy, which reproduces the same
/// qualitative ladder: silent victim < different bank (bus/queue delay Δ)
/// ≤ same bank (conflict) < same bank different row (extra ε for the row
/// turnaround).
///
/// The attacker probes bank 0 / row 0 on a fixed cadence; the victim (when
/// present) injects a single read mid-run whose placement is given by the
/// scenario. Comparing the returned traces against
/// [`Figure1Scenario::NoActivity`] reveals the per-scenario contention
/// delay (Δ, bank-conflict, and row-conflict ε of Figure 1).
pub fn figure1_scenario(cfg: &SystemConfig, scenario: Figure1Scenario) -> Vec<Cycle> {
    let mut mc = MemoryController::new(cfg, SchedPolicy::Fcfs);
    let mapper = AddressMapper::new(
        MapScheme::BankInterleaved,
        cfg.dram_org.banks,
        cfg.dram_org.row_bytes,
        cfg.dram_org.line_bytes,
    );
    let attacker_addr = mapper.encode(PhysLoc {
        bank: 0,
        row: 0,
        col: 0,
    });
    let victim_addr = match scenario {
        Figure1Scenario::NoActivity => None,
        Figure1Scenario::DifferentBank => Some(mapper.encode(PhysLoc {
            bank: 4,
            row: 0,
            col: 1,
        })),
        Figure1Scenario::SameBankSameRow => Some(mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 5,
        })),
        Figure1Scenario::SameBankDifferentRow => Some(mapper.encode(PhysLoc {
            bank: 0,
            row: 7,
            col: 0,
        })),
    };

    let think = cfg.clock_ratio.dram_to_cpu(20);
    let mut latencies = Vec::new();
    let mut outstanding: Option<(ReqId, Cycle)> = None;
    let mut next_issue = 0;
    let mut seq = 0u64;
    let mut victim_sent = false;
    let horizon = think * 16;
    for now in 0..horizon {
        for resp in mc.tick(now) {
            if let Some((id, _)) = outstanding {
                if resp.id == id && resp.domain == DomainId(0) {
                    latencies.push(resp.latency());
                    outstanding = None;
                    next_issue = now + think;
                }
            }
        }
        // Inject the victim's single request a few cycles before the
        // attacker's 4th probe, so the two are in flight together and the
        // victim's commands win the (older-first) scheduler tie.
        if let Some(vaddr) = victim_addr {
            if !victim_sent && latencies.len() == 3 && now + 1 >= next_issue {
                let req = MemRequest::read(DomainId(1), vaddr, now)
                    .with_id(ReqId::compose(DomainId(1), 1));
                if mc.try_send(req, now).is_ok() {
                    victim_sent = true;
                }
            }
        }
        if outstanding.is_none() && now >= next_issue {
            seq += 1;
            let id = ReqId::compose(DomainId(0), seq);
            let req = MemRequest::read(DomainId(0), attacker_addr, now).with_id(id);
            if mc.try_send(req, now).is_ok() {
                outstanding = Some((id, now));
            }
        }
    }
    latencies
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::two_core();
        c.clock_ratio = dg_sim::clock::ClockRatio::new(1);
        c
    }

    #[test]
    fn baseline_probes_are_steady() {
        let lat = figure1_scenario(&cfg(), Figure1Scenario::NoActivity);
        assert!(lat.len() >= 6);
        // After the first (cold) access every probe is a row hit with
        // identical latency.
        let steady = &lat[1..];
        assert!(steady.windows(2).all(|w| w[0] == w[1]), "{steady:?}");
    }

    #[test]
    fn all_four_scenarios_distinguishable() {
        // The point of Figure 1: the attacker's latency reveals whether the
        // victim was active, and its bank/row placement. Every scenario
        // must produce a distinct contention signature, with the row
        // conflict (d) costing the most (the ε penalty). Note that on a
        // timing-accurate DRAM the same-bank-*same-row* victim (c) is
        // cheaper than a different-bank one (b) — row-buffer hits pipeline
        // — whereas the paper's simplified non-pipelined model orders them
        // the other way; both orderings leak equally.
        let c = cfg();
        let max_of = |s| {
            let l = figure1_scenario(&c, s);
            *l[1..].iter().max().unwrap()
        };
        let none = max_of(Figure1Scenario::NoActivity);
        let diff_bank = max_of(Figure1Scenario::DifferentBank);
        let same_row = max_of(Figure1Scenario::SameBankSameRow);
        let diff_row = max_of(Figure1Scenario::SameBankDifferentRow);
        assert!(
            none < same_row,
            "same-row contention visible: {none} vs {same_row}"
        );
        assert!(
            none < diff_bank,
            "bus/queue delay visible: {none} vs {diff_bank}"
        );
        assert!(
            diff_bank < diff_row,
            "row conflict costs most: {diff_bank} vs {diff_row}"
        );
        let mut all = [none, diff_bank, same_row, diff_row];
        all.sort_unstable();
        assert!(
            all.windows(2).all(|w| w[0] != w[1]),
            "all distinct: {all:?}"
        );
    }

    #[test]
    fn probe_core_drives_a_controller() {
        let probe = ProbeCore::new(DomainId(0), 0x40, 50, 5);
        let log = probe.log();
        let mut sys = dg_system::SystemBuilder::new(cfg())
            .core(Box::new(probe))
            .memory(dg_system::MemoryKind::Insecure)
            .build();
        sys.run_until_finished(100_000).unwrap();
        let latencies = log.latencies();
        assert_eq!(latencies.len(), 5);
        assert!(latencies.iter().all(|&l| l > 0));
    }
}
