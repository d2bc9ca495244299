//! The trace-driven, ROB/MLP-limited core model.

use std::collections::VecDeque;

use dg_cache::{CacheHierarchy, HitLevel, SetAssocCache};
use dg_mem::MemorySubsystem;
use dg_obs::{EventKind, Tracer};
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqId};

use crate::core_trait::Core;
use crate::trace::MemTrace;

#[derive(Debug, Clone, Copy)]
struct OutMiss {
    id: ReqId,
    /// Retired-instruction count when the miss issued (for the ROB bound).
    instr_mark: u64,
    /// Demand loads gate the ROB; write-back traffic does not.
    demand: bool,
}

/// A core that executes a [`MemTrace`] through its private caches.
///
/// The model captures what matters for memory-contention studies:
///
/// * compute instructions retire at the issue width (8/cycle, Table 2);
/// * L1 hits are fully hidden by the out-of-order window; L2/L3 hits stall
///   for their round-trip latency;
/// * LLC misses are non-blocking: execution continues until either the
///   MSHR limit is reached or the reorder buffer fills (192 instructions
///   past the oldest outstanding demand miss);
/// * dirty LLC evictions become fire-and-forget memory writes.
#[derive(Debug)]
pub struct TraceCore {
    domain: DomainId,
    trace: MemTrace,
    hierarchy: CacheHierarchy,
    issue_width: u64,
    rob_entries: u64,
    max_outstanding: usize,

    pos: usize,
    compute_left: u64,
    instrs_done: u64,
    stall_until: Cycle,
    outstanding: Vec<OutMiss>,
    send_backlog: VecDeque<MemRequest>,
    next_seq: u64,
    finished_at: Option<Cycle>,
    loaded_compute: bool,
    /// LLC misses issued (statistics).
    pub demand_misses: u64,
    tracer: Tracer,
    /// Gaps between instruction-retiring ticks (simulated cycles).
    completion: dg_prof::LogHistogram,
    last_retire: Cycle,
}

impl TraceCore {
    /// Builds a core for `domain` executing `trace`.
    pub fn new(domain: DomainId, trace: MemTrace, cfg: &SystemConfig) -> Self {
        Self {
            domain,
            trace,
            hierarchy: CacheHierarchy::new(&cfg.cache),
            issue_width: u64::from(cfg.core.issue_width),
            rob_entries: u64::from(cfg.core.rob_entries),
            max_outstanding: cfg.core.max_outstanding_misses as usize,
            pos: 0,
            compute_left: 0,
            instrs_done: 0,
            stall_until: 0,
            outstanding: Vec::new(),
            send_backlog: VecDeque::new(),
            next_seq: 0,
            finished_at: None,
            loaded_compute: false,
            demand_misses: 0,
            tracer: Tracer::noop(),
            completion: dg_prof::LogHistogram::new(),
            last_retire: 0,
        }
    }

    /// Records one instruction-retiring tick at `now` into the completion
    /// histogram (the recorded value is the gap since the previous one).
    fn note_retire(&mut self, now: Cycle) {
        self.completion.record(now - self.last_retire);
        self.last_retire = now;
    }

    /// The private cache hierarchy (statistics access).
    pub fn hierarchy(&self) -> &CacheHierarchy {
        &self.hierarchy
    }

    fn alloc_id(&mut self) -> ReqId {
        self.next_seq += 1;
        ReqId::compose(self.domain, self.next_seq)
    }

    fn rob_blocked(&self) -> bool {
        self.outstanding
            .iter()
            .filter(|m| m.demand)
            .map(|m| m.instr_mark)
            .min()
            .is_some_and(|oldest| self.instrs_done.saturating_sub(oldest) >= self.rob_entries)
    }

    fn flush_backlog(&mut self, mem: &mut dyn MemorySubsystem, now: Cycle) {
        while let Some(req) = self.send_backlog.pop_front() {
            if let Err(back) = mem.try_send(req, now) {
                self.send_backlog.push_front(back);
                break;
            }
        }
    }
}

impl Core for TraceCore {
    fn domain(&self) -> DomainId {
        self.domain
    }

    fn tick(&mut self, now: Cycle, l3: &mut SetAssocCache, mem: &mut dyn MemorySubsystem) {
        if self.finished_at.is_some() {
            return;
        }
        self.flush_backlog(mem, now);

        // Check for completion: trace drained, misses returned, stores sent.
        if self.pos >= self.trace.len() && self.compute_left == 0 {
            if !self.loaded_compute {
                self.compute_left = self.trace.tail_instrs;
                self.loaded_compute = true;
                if self.compute_left > 0 {
                    return;
                }
            }
            if self.outstanding.is_empty() && self.send_backlog.is_empty() {
                self.finished_at = Some(now);
            }
            // Fall through to retire tail compute if any remains.
        }

        if now < self.stall_until {
            return;
        }

        // Retire compute instructions at the issue width.
        if self.compute_left > 0 {
            let w = self.issue_width.min(self.compute_left);
            self.compute_left -= w;
            self.instrs_done += w;
            self.note_retire(now);
            return;
        }

        // At a memory operation boundary.
        let Some(&op) = self.trace.ops().get(self.pos) else {
            return;
        };
        if !self.loaded_compute {
            // Load this op's preceding compute exactly once.
            self.loaded_compute = true;
            self.compute_left = op.instrs_before;
            if self.compute_left > 0 {
                return;
            }
        }

        // Structural hazards: MSHRs and ROB occupancy.
        if self.outstanding.len() >= self.max_outstanding || self.rob_blocked() {
            return;
        }

        let out = self.hierarchy.access(op.addr, op.is_write, l3);
        // Dirty LLC victims become memory writes (fire-and-forget, but
        // tracked so the run only ends once they complete).
        for wb in out.memory_writes() {
            let id = self.alloc_id();
            let req = MemRequest::write(self.domain, *wb, now).with_id(id);
            self.tracer.record(now, || EventKind::Issue {
                id,
                domain: self.domain,
                addr: *wb,
                is_write: true,
            });
            self.outstanding.push(OutMiss {
                id,
                instr_mark: self.instrs_done,
                demand: false,
            });
            self.send_backlog.push_back(req);
        }
        match out.level {
            HitLevel::L1 => {
                // Fully hidden by the OoO window.
            }
            HitLevel::L2 | HitLevel::L3 => {
                self.stall_until = now + out.latency;
            }
            HitLevel::Memory => {
                self.demand_misses += 1;
                let id = self.alloc_id();
                let req = MemRequest::read(self.domain, op.addr, now).with_id(id);
                self.tracer.record(now, || EventKind::LlcMiss {
                    domain: self.domain,
                    addr: op.addr,
                });
                self.tracer.record(now, || EventKind::Issue {
                    id,
                    domain: self.domain,
                    addr: op.addr,
                    is_write: false,
                });
                self.outstanding.push(OutMiss {
                    id,
                    instr_mark: self.instrs_done,
                    demand: true,
                });
                self.send_backlog.push_back(req);
            }
        }
        self.flush_backlog(mem, now);

        // The memory instruction itself retires (1 instruction).
        self.instrs_done += 1;
        self.pos += 1;
        self.loaded_compute = false;
        self.note_retire(now);
    }

    fn on_response(&mut self, resp: &MemResponse, _now: Cycle) {
        if let Some(i) = self.outstanding.iter().position(|m| m.id == resp.id) {
            self.outstanding.swap_remove(i);
        }
    }

    fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn instructions_retired(&self) -> u64 {
        self.instrs_done
    }

    fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn completion_snapshot(&self) -> dg_prof::HistSnapshot {
        self.completion.snapshot()
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        // Mirrors `tick`'s control flow: any branch that mutates state (or
        // could, given the caches/memory) reports `Some(now)`; branches
        // that provably return without effect report the cycle at which
        // that changes, or `None` when only a response can unblock us.
        //
        // A non-empty send backlog changes nothing here: its head was
        // refused, and retrying it is the only work a tick does for it. The
        // memory can accept it again only at one of its own events, and a
        // warp settles the refusals in between (the `Core` contract).
        if self.finished_at.is_some() {
            return None;
        }
        if self.pos >= self.trace.len() && self.compute_left == 0 {
            if !self.loaded_compute {
                return Some(now); // tick loads tail compute
            }
            if self.outstanding.is_empty() {
                // Backlogged requests are outstanding, so the backlog is
                // empty too: tick sets finished_at.
                return Some(now);
            }
            return None; // draining misses: woken by on_response
        }
        if now < self.stall_until {
            return Some(self.stall_until);
        }
        if self.compute_left > 0 {
            return Some(now); // retiring compute every cycle
        }
        let Some(op) = self.trace.ops().get(self.pos) else {
            return Some(now);
        };
        if !self.loaded_compute && op.instrs_before > 0 {
            return Some(now); // tick loads compute to retire
        }
        // With no compute before the op, loading it is not observable: the
        // tick goes straight on to the hazard check below.
        if self.outstanding.len() >= self.max_outstanding || self.rob_blocked() {
            return None; // structural hazard: woken by on_response
        }
        Some(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::{MemoryController, SchedPolicy};
    use dg_sim::config::RowPolicy;

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::two_core();
        c.clock_ratio = dg_sim::clock::ClockRatio::new(1);
        c
    }

    fn run(core: &mut TraceCore, cfg: &SystemConfig, budget: Cycle) -> Cycle {
        let mut l3 = SetAssocCache::new(cfg.cache.l3_per_core, "L3");
        let mut mc = MemoryController::new(cfg, SchedPolicy::FrFcfs);
        for now in 0..budget {
            let resps = mc.tick(now);
            for r in &resps {
                core.on_response(r, now);
            }
            core.tick(now, &mut l3, &mut mc);
            if core.finished() {
                return core.finished_at().unwrap();
            }
        }
        panic!("core did not finish within {budget} cycles");
    }

    #[test]
    fn pure_compute_ipc_is_issue_width() {
        let c = cfg();
        let mut t = MemTrace::new();
        t.tail_instrs = 8000;
        let mut core = TraceCore::new(DomainId(0), t, &c);
        let end = run(&mut core, &c, 100_000);
        // 8000 instructions at width 8 → about 1000 cycles.
        assert!((1000..1100).contains(&end), "end = {end}");
        assert_eq!(core.instructions_retired(), 8000);
    }

    #[test]
    fn cache_hits_do_not_touch_memory() {
        let c = cfg();
        let mut t = MemTrace::new();
        t.load(0x40, 0);
        for _ in 0..100 {
            t.load(0x40, 0);
        }
        let mut core = TraceCore::new(DomainId(0), t, &c);
        run(&mut core, &c, 1_000_000);
        assert_eq!(core.demand_misses, 1, "only the cold miss reaches memory");
    }

    #[test]
    fn streaming_misses_overlap_up_to_mlp() {
        let c = cfg();
        // 64 independent lines with no compute between: the core should
        // keep multiple misses in flight and finish far faster than the
        // serial latency sum.
        let mut t = MemTrace::new();
        for i in 0..64u64 {
            t.load(i * 64 * 131, 0); // distinct sets/banks
        }
        let mut core = TraceCore::new(DomainId(0), t.clone(), &c);
        let end = run(&mut core, &c, 10_000_000);
        // Serial execution would need 64 × ~50+ cycles of pure DRAM latency
        // plus queueing; with MLP=16 it must beat half of that comfortably.
        assert!(end < 64 * 40, "end = {end}, not enough overlap");
        assert_eq!(core.demand_misses, 64);
    }

    #[test]
    fn rob_bound_limits_runahead() {
        let c = cfg();
        // One extremely slow miss (it is alone, so it completes quickly in
        // reality) followed by lots of compute: the core may retire at most
        // rob_entries instructions past the miss issue before stalling.
        // Exercise the accounting directly.
        let mut core = TraceCore::new(DomainId(0), MemTrace::new(), &c);
        core.outstanding.push(OutMiss {
            id: ReqId(1),
            instr_mark: 0,
            demand: true,
        });
        core.instrs_done = u64::from(c.core.rob_entries);
        assert!(core.rob_blocked());
        core.instrs_done = u64::from(c.core.rob_entries) - 1;
        assert!(!core.rob_blocked());
    }

    #[test]
    fn writeback_traffic_reaches_memory() {
        let c = cfg();
        let mut t = MemTrace::new();
        // Dirty many distinct lines then stream far past every cache's
        // capacity so dirty L3 victims are written back.
        for i in 0..40_000u64 {
            t.store(i * 64, 0);
        }
        let mut core = TraceCore::new(DomainId(0), t, &c);
        let mut l3 = SetAssocCache::new(c.cache.l3_per_core, "L3");
        let mut mc = MemoryController::new(
            &c.clone().with_row_policy(RowPolicy::Closed),
            SchedPolicy::FrFcfs,
        );
        let mut writes = 0u64;
        for now in 0..40_000_000 {
            let resps = mc.tick(now);
            for r in &resps {
                if r.req_type.is_write() {
                    writes += 1;
                }
                core.on_response(r, now);
            }
            core.tick(now, &mut l3, &mut mc);
            if core.finished() {
                break;
            }
        }
        assert!(core.finished(), "core finished");
        assert!(writes > 0, "dirty evictions produced memory writes");
    }

    #[test]
    fn ipc_at_reports_progress() {
        let c = cfg();
        let mut t = MemTrace::new();
        t.tail_instrs = 80;
        let mut core = TraceCore::new(DomainId(0), t, &c);
        let end = run(&mut core, &c, 10_000);
        assert!(core.ipc_at(end) > 0.0);
    }
}
