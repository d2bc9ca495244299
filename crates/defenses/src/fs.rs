//! Fixed Service and FS-BTA (Shafiee et al. \[25\]).
//!
//! Fixed Service assigns every memory request to a deterministic *slot*.
//! Slots are issued on a fixed stride and rotate round-robin across
//! security domains with a **no-skip** policy: if the owning domain has no
//! eligible request, the slot is wasted. Within a slot a request flows
//! through the queues, command bus, bank and data bus on a fixed pipeline,
//! so requests in different slots never collide on any shared resource and
//! no domain can observe another's traffic.
//!
//! The baseline FS stride must cover the slowest pipeline stage — the bank
//! occupancy `tRC` — because consecutive slots may target the same bank.
//! **FS-BTA** (Bank Triple Alternation) divides the banks into three groups
//! and restricts slot *k* to group *k* mod 3: consecutive slots then never
//! touch the same bank, letting the stride shrink to `tRC/3` while
//! maintaining non-interference.

use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::types::MemRequest;

use crate::schedule::{FixedSchedule, IssueRule, Queue, ScheduleConfig};

/// Configuration of a Fixed Service controller.
pub type FsConfig = ScheduleConfig<Slots>;

/// The Fixed Service / FS-BTA memory subsystem.
///
/// Slot `k` fires at cycle `k × stride`, belongs to domain `k mod domains`,
/// and — with BTA — may only issue a request whose bank lies in group
/// `k mod bank_groups`. Service is fully deterministic: a request issued in
/// a slot completes exactly `service` cycles later.
pub type FixedService = FixedSchedule<SlotRule>;

/// The slot parameters of Fixed Service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Slots {
    /// Slot stride in CPU cycles.
    pub stride: Cycle,
    /// Bank groups for BTA (1 = plain FS, 3 = FS-BTA).
    pub bank_groups: u32,
}

impl FsConfig {
    /// Plain Fixed Service for `domains` domains: the stride covers a full
    /// bank cycle (`tRC`), the worst-case stage occupancy.
    pub fn fixed_service(cfg: &SystemConfig, domains: usize) -> Self {
        Self::slotted(cfg, domains, 1)
    }

    /// FS-BTA: triple bank alternation lets slots issue three times as
    /// often while the per-bank ACT-to-ACT spacing still respects `tRC`.
    pub fn fs_bta(cfg: &SystemConfig, domains: usize) -> Self {
        Self::slotted(cfg, domains, 3)
    }

    /// Slots that alternate over `bank_groups` groups issue that many
    /// times as often as a full bank cycle allows.
    fn slotted(cfg: &SystemConfig, domains: usize, bank_groups: u32) -> Self {
        let t = &cfg.timing;
        let stride_dram = t.tRC.div_ceil(u64::from(bank_groups));
        let stride = cfg.clock_ratio.dram_to_cpu(stride_dram);
        let rule = Slots {
            stride,
            bank_groups,
        };
        Self::with_rule(cfg, domains, t.tRCD + t.tCAS + t.tBURST, rule)
    }
}

/// The Fixed Service issue rule: fires every slot whose boundary has been
/// reached, serving the owning domain's first request in the slot's bank
/// group, or wasting the slot (no-skip) when there is none.
#[derive(Debug)]
pub struct SlotRule {
    slots: Slots,
    next_slot: u64,
    /// Slots that fired with no eligible request (wasted bandwidth).
    wasted: u64,
}

impl IssueRule for SlotRule {
    type Params = Slots;

    fn new(_sys: &SystemConfig, config: &FsConfig) -> Self {
        assert!(config.rule.stride > 0, "stride must be positive");
        Self {
            slots: config.rule,
            next_slot: 0,
            wasted: 0,
        }
    }

    fn issue(
        &mut self,
        queues: &mut [Queue],
        now: Cycle,
        mut start: impl FnMut(MemRequest, Cycle),
    ) {
        // Slots skipped by the event-driven engine while all queues were
        // empty are replayed here with their original timestamps, so
        // wasted-slot accounting and any future issue times match the naive
        // per-cycle loop exactly.
        let (stride, groups) = (self.slots.stride, self.slots.bank_groups);
        while self.next_slot * stride <= now {
            let slot = self.next_slot;
            self.next_slot += 1;
            let q = &mut queues[(slot % queues.len() as u64) as usize];
            let group = (slot % u64::from(groups)) as u32;
            match q.iter().position(|&(_, bank)| bank % groups == group) {
                Some(i) => start(q.remove(i).expect("position valid").0, slot * stride),
                None => self.wasted += 1,
            }
        }
    }

    fn next_issue(&self, _queues: &[Queue], now: Cycle) -> Option<Cycle> {
        // Never skip the next boundary with work queued: whether a slot
        // serves or wastes depends on queue contents. With all queues empty,
        // wasted slots replay lazily in `issue`.
        Some((self.next_slot * self.slots.stride).max(now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_dram::{AddressMapper, MapScheme};
    use dg_mem::MemorySubsystem;
    use dg_sim::types::{DomainId, MemResponse, ReqId};

    fn sys() -> SystemConfig {
        let mut c = SystemConfig::two_core();
        c.clock_ratio = dg_sim::clock::ClockRatio::new(1);
        c
    }

    fn req(domain: u16, addr: u64, id: u64, now: Cycle) -> MemRequest {
        MemRequest::read(DomainId(domain), addr, now).with_id(ReqId::compose(DomainId(domain), id))
    }

    fn drive(fs: &mut FixedService, until: Cycle) -> Vec<MemResponse> {
        let mut out = Vec::new();
        for now in 0..until {
            out.extend(fs.tick(now));
        }
        out
    }

    #[test]
    fn slots_rotate_round_robin() {
        let s = sys();
        let cfg = FsConfig::fixed_service(&s, 2);
        let mut fs = FixedService::new(&s, cfg);
        // Only domain 1 has traffic; its requests are served every 2nd slot.
        fs.try_send(req(1, 0x40, 1, 0), 0).unwrap();
        fs.try_send(req(1, 0x80, 2, 0), 0).unwrap();
        let done = drive(&mut fs, cfg.rule.stride * 6);
        assert_eq!(done.len(), 2);
        // Domain 1 owns odd slots: requests issue at stride*1 and stride*3.
        assert_eq!(done[0].completed_at, cfg.rule.stride + cfg.service);
        assert_eq!(done[1].completed_at, cfg.rule.stride * 3 + cfg.service);
        assert!(fs.rule.wasted >= 3, "domain 0's slots are wasted (no-skip)");
    }

    #[test]
    fn deterministic_latency_independent_of_other_domain() {
        let s = sys();
        let cfg = FsConfig::fixed_service(&s, 2);

        // Run A: domain 0 alone.
        let mut fs_a = FixedService::new(&s, cfg);
        fs_a.try_send(req(0, 0x40, 1, 0), 0).unwrap();
        let a = drive(&mut fs_a, cfg.rule.stride * 8);

        // Run B: domain 1 floods the controller.
        let mut fs_b = FixedService::new(&s, cfg);
        fs_b.try_send(req(0, 0x40, 1, 0), 0).unwrap();
        for i in 0..16 {
            fs_b.try_send(req(1, 0x1000 + i * 64, i, 0), 0).unwrap();
        }
        let b = drive(&mut fs_b, cfg.rule.stride * 8);

        let a0: Vec<_> = a.iter().filter(|r| r.domain == DomainId(0)).collect();
        let b0: Vec<_> = b.iter().filter(|r| r.domain == DomainId(0)).collect();
        assert_eq!(a0.len(), 1);
        assert_eq!(
            a0[0].completed_at, b0[0].completed_at,
            "non-interference: domain 0 timing unaffected by domain 1 load"
        );
    }

    #[test]
    fn bta_stride_is_a_third() {
        let s = sys();
        let fs = FsConfig::fixed_service(&s, 2);
        let bta = FsConfig::fs_bta(&s, 2);
        assert_eq!(bta.rule.stride, fs.rule.stride.div_ceil(3));
        assert_eq!(bta.rule.bank_groups, 3);
    }

    #[test]
    fn bta_skips_wrong_bank_group() {
        let s = sys();
        let cfg = FsConfig::fs_bta(&s, 1); // single domain: every slot ours
        let mut fs = FixedService::new(&s, cfg);
        let mapper = AddressMapper::new(MapScheme::BankInterleaved, 8, 8192, 64);
        // A request to bank 1 (group 1) cannot use slot 0 (group 0).
        let addr = mapper.encode(dg_dram::PhysLoc {
            bank: 1,
            row: 0,
            col: 0,
        });
        fs.try_send(req(0, addr, 1, 0), 0).unwrap();
        let done = drive(&mut fs, cfg.rule.stride * 4);
        assert_eq!(done.len(), 1);
        // Issued in slot 1 (the first group-1 slot), not slot 0.
        assert_eq!(done[0].completed_at, cfg.rule.stride + cfg.service);
        assert!(fs.rule.wasted >= 1);
    }

    #[test]
    fn bta_throughput_beats_fs() {
        let s = sys();
        let n = 24u64;
        let run = |cfg: FsConfig| {
            let mut fs = FixedService::new(&s, cfg);
            for i in 0..n {
                // Spread across banks so BTA slots rarely go to waste.
                fs.try_send(req(0, i * 64, i, 0), 0).unwrap();
            }
            let mut done = 0u64;
            let mut now = 0;
            while done < n {
                done += fs.tick(now).len() as u64;
                now += 1;
            }
            now
        };
        let t_fs = run(FsConfig::fixed_service(&s, 1));
        let t_bta = run(FsConfig::fs_bta(&s, 1));
        assert!(
            t_bta * 2 < t_fs,
            "BTA ({t_bta}) should be well over 2x faster than FS ({t_fs})"
        );
    }

    #[test]
    fn backpressure_per_domain() {
        let s = sys();
        let mut cfg = FsConfig::fixed_service(&s, 2);
        cfg.queue_capacity = 2;
        let mut fs = FixedService::new(&s, cfg);
        fs.try_send(req(0, 0x0, 1, 0), 0).unwrap();
        fs.try_send(req(0, 0x40, 2, 0), 0).unwrap();
        assert!(fs.try_send(req(0, 0x80, 3, 0), 0).is_err());
        // The other domain's queue is unaffected.
        fs.try_send(req(1, 0x0, 1, 0), 0).unwrap();
        assert_eq!(fs.free_slots(), 0); // conservative min across domains
    }

    #[test]
    fn stats_recorded() {
        let s = sys();
        let cfg = FsConfig::fixed_service(&s, 2);
        let mut fs = FixedService::new(&s, cfg);
        fs.try_send(req(0, 0x40, 1, 0), 0).unwrap();
        drive(&mut fs, cfg.rule.stride * 4);
        assert_eq!(fs.stats().domain(DomainId(0)).reads, 1);
    }
}
