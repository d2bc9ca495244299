//! The memory controller proper: transaction queue + command scheduler.

use std::collections::VecDeque;

use dg_dram::{AddressMapper, BlockReason, DramCommand, DramDevice, MapScheme, PhysLoc};
use dg_obs::{BankCmd, EventKind, InterferenceMatrix, InterferenceReport, StallCause, Tracer};
use dg_sim::clock::Cycle;
use dg_sim::config::{RowPolicy, SystemConfig};
use dg_sim::types::{DomainId, MemRequest, MemResponse};
use serde::{Deserialize, Serialize};

use crate::front::MemorySubsystem;
use crate::stats::{BankStats, MemStats};

/// DRAM command scheduling policy (§2.1: "command scheduling can vary in
/// complexity, ranging from a basic First Come First Served (FCFS) policy,
/// to policies that optimize for row-buffer hits").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SchedPolicy {
    /// Strictly serve the oldest transaction; no reordering.
    Fcfs,
    /// First-Ready FCFS: row hits first, then oldest.
    FrFcfs,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TxnState {
    /// Waiting for its column access (may still need ACT/PRE first).
    Pending,
    /// Column command issued; data completes at `done`.
    Issued { done: Cycle },
}

#[derive(Debug, Clone)]
struct Txn {
    req: MemRequest,
    loc: PhysLoc,
    arrived: Cycle,
    state: TxnState,
}

/// Who last touched each shared DRAM resource, so a blocked command's wait
/// can be charged to the domain that made the resource busy.
///
/// Purely observational: updated only when the scheduler issues a command
/// anyway, and read by [`MemoryController::attribute_stalls`]. It never
/// feeds back into scheduling decisions, so attribution cannot perturb the
/// simulation (the observer-effect contract of `dg_obs::leak`).
#[derive(Debug)]
struct LeakTrack {
    matrix: InterferenceMatrix,
    /// Domain whose command last engaged each bank (`None` for
    /// refresh-driven commands with no owner).
    bank_user: Vec<Option<DomainId>>,
    /// Domain of the last column command (owns the data bus / turnaround).
    col_user: Option<DomainId>,
    /// Domain of the last command on the shared command bus.
    cmd_user: Option<DomainId>,
    /// Domains of up to the last four ACTs (tRRD/tFAW window), oldest first.
    act_users: VecDeque<Option<DomainId>>,
    /// Set when a command issued on the current bus edge: the arbitration
    /// winner other pending transactions lost to. `None` between edges.
    issued_this_edge: Option<Option<DomainId>>,
}

impl LeakTrack {
    fn new(domains: usize, banks: usize) -> Self {
        Self {
            matrix: InterferenceMatrix::new(domains),
            bank_user: vec![None; banks],
            col_user: None,
            cmd_user: None,
            act_users: VecDeque::with_capacity(4),
            issued_this_edge: None,
        }
    }
}

/// The shared memory controller: a global transaction queue feeding a
/// command scheduler that drives the DRAM device.
///
/// One DRAM command may issue per command-bus edge. Refresh takes priority
/// when due: open banks are drained and precharged, then a rank-wide REF is
/// issued.
#[derive(Debug)]
pub struct MemoryController {
    device: DramDevice,
    mapper: AddressMapper,
    row_policy: RowPolicy,
    policy: SchedPolicy,
    txq: VecDeque<Txn>,
    capacity: usize,
    stats: MemStats,
    refresh_pending: bool,
    tracer: Tracer,
    /// Cycle each bank's current row was opened (for row-hit accounting);
    /// `None` while precharged.
    bank_open_since: Vec<Option<Cycle>>,
    leak: LeakTrack,
    /// Earliest `done` among issued transactions (`Cycle::MAX` when none):
    /// collection is a no-op before it.
    next_done: Cycle,
    /// Every command-bus edge before this cycle has had its stalls
    /// attributed, by a tick or by [`MemorySubsystem::settle_warp`].
    settled_until: Cycle,
    /// Stall-attribution scratch: the oldest pending owner of each bank.
    bank_head: Vec<Option<DomainId>>,
}

impl MemoryController {
    /// Builds a controller for the given system configuration.
    pub fn new(cfg: &SystemConfig, policy: SchedPolicy) -> Self {
        let device = DramDevice::new(cfg.dram_org, cfg.timing, cfg.clock_ratio);
        let mapper = AddressMapper::new(
            MapScheme::BankInterleaved,
            cfg.dram_org.banks,
            cfg.dram_org.row_bytes,
            cfg.dram_org.line_bytes,
        );
        // Reserve a couple of extra stats slots for shaper-internal domains.
        let domains = cfg.cores + 2;
        let banks = cfg.dram_org.banks as usize;
        let mut stats = MemStats::new(domains, cfg.dram_org.line_bytes);
        stats.banks = vec![BankStats::default(); banks];
        Self {
            device,
            mapper,
            row_policy: cfg.row_policy,
            policy,
            txq: VecDeque::with_capacity(cfg.queues.transaction_queue),
            capacity: cfg.queues.transaction_queue,
            stats,
            refresh_pending: false,
            tracer: Tracer::noop(),
            bank_open_since: vec![None; banks],
            leak: LeakTrack::new(domains, banks),
            next_done: Cycle::MAX,
            settled_until: 0,
            bank_head: vec![None; banks],
        }
    }

    /// Records a command-bus event when tracing is enabled.
    fn trace_cmd(&self, cmd: DramCommand, now: Cycle) {
        self.tracer.record(now, || match cmd {
            DramCommand::Activate { bank, .. } => EventKind::BankCommand {
                cmd: BankCmd::Act,
                bank,
            },
            DramCommand::Read { bank, .. } => EventKind::BankCommand {
                cmd: BankCmd::Rd,
                bank,
            },
            DramCommand::Write { bank, .. } => EventKind::BankCommand {
                cmd: BankCmd::Wr,
                bank,
            },
            DramCommand::Precharge { bank } => EventKind::BankCommand {
                cmd: BankCmd::Pre,
                bank,
            },
            DramCommand::Refresh => EventKind::BankCommand {
                cmd: BankCmd::Ref,
                bank: 0,
            },
        });
    }

    /// Bookkeeping for every issued command: trace event, per-bank activity
    /// counters, row-open state, and the resource-ownership trail used by
    /// stall attribution. `domain` is the owner of the transaction the
    /// command serves (`None` for refresh-driven maintenance commands).
    fn note_cmd(&mut self, cmd: DramCommand, now: Cycle, domain: Option<DomainId>) {
        self.trace_cmd(cmd, now);
        self.leak.cmd_user = domain;
        self.leak.issued_this_edge = Some(domain);
        match cmd {
            DramCommand::Activate { bank, .. } => {
                let b = bank as usize;
                self.stats.banks[b].acts += 1;
                self.bank_open_since[b] = Some(now);
                self.leak.bank_user[b] = domain;
                if self.leak.act_users.len() == 4 {
                    self.leak.act_users.pop_front();
                }
                self.leak.act_users.push_back(domain);
            }
            DramCommand::Read {
                bank,
                auto_precharge,
            }
            | DramCommand::Write {
                bank,
                auto_precharge,
            } => {
                let b = bank as usize;
                self.leak.col_user = domain;
                self.leak.bank_user[b] = domain;
                if auto_precharge {
                    self.stats.banks[b].precharges += 1;
                    self.bank_open_since[b] = None;
                }
            }
            DramCommand::Precharge { bank } => {
                let b = bank as usize;
                self.stats.banks[b].precharges += 1;
                self.bank_open_since[b] = None;
                self.leak.bank_user[b] = domain;
            }
            DramCommand::Refresh => {
                for open in &mut self.bank_open_since {
                    *open = None;
                }
            }
        }
    }

    /// The interference matrix accumulated so far.
    pub fn interference_report(&self) -> InterferenceReport {
        self.leak.matrix.report()
    }

    /// The address mapper in use (attackers and shapers need it to target
    /// specific banks).
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Free entries in the transaction queue.
    pub fn free_space(&self) -> usize {
        self.capacity - self.txq.len()
    }

    /// Current transaction queue occupancy.
    pub fn occupancy(&self) -> usize {
        self.txq.len()
    }

    /// The row-buffer policy this controller runs.
    pub fn row_policy(&self) -> RowPolicy {
        self.row_policy
    }

    fn auto_precharge(&self) -> bool {
        self.row_policy == RowPolicy::Closed
    }

    /// Attempts to issue one DRAM command at `now` (must be a bus edge).
    fn schedule(&mut self, now: Cycle) {
        // Refresh has priority: drain open banks, then REF.
        if self.device.refresh_due(now) {
            self.refresh_pending = true;
        }
        if self.refresh_pending && self.try_refresh(now) {
            return;
        }

        match self.policy {
            SchedPolicy::Fcfs => self.schedule_fcfs(now),
            SchedPolicy::FrFcfs => self.schedule_frfcfs(now),
        }
    }

    /// Returns true if a refresh-related command was issued (or refresh
    /// still blocks normal scheduling this edge).
    fn try_refresh(&mut self, now: Cycle) -> bool {
        // Precharge any open bank whose precharge is legal.
        for b in 0..self.device.bank_count() {
            if self.device.bank(b).open_row().is_some() {
                let cmd = DramCommand::Precharge { bank: b };
                if self.device.earliest(cmd, now) == now {
                    self.device.issue(cmd, now);
                    self.note_cmd(cmd, now, None);
                    return true;
                }
            }
        }
        if !self.device.all_banks_idle() {
            // Waiting for in-progress accesses / precharges to become legal;
            // block column/act scheduling so we make forward progress.
            return true;
        }
        let cmd = DramCommand::Refresh;
        if self.device.earliest(cmd, now) == now {
            self.device.issue(cmd, now);
            self.note_cmd(cmd, now, None);
            self.refresh_pending = false;
            self.stats.refreshes = self.device.refreshes();
            self.stats.energy.record_refresh();
            return true;
        }
        true
    }

    fn column_cmd(&self, txn: &Txn) -> DramCommand {
        column_cmd(txn, self.auto_precharge())
    }

    fn issue_column(&mut self, idx: usize, now: Cycle) {
        let cmd = self.column_cmd(&self.txq[idx]);
        let txn = &self.txq[idx];
        let (bank, arrived, domain) = (txn.loc.bank as usize, txn.arrived, txn.req.domain);
        // A row hit means the row was already open when this transaction
        // arrived; otherwise the transaction paid for (at least) its own
        // activation. Classify before note_cmd clears auto-precharged rows.
        if self.bank_open_since[bank].is_some_and(|opened| opened < arrived) {
            self.stats.banks[bank].row_hits += 1;
        } else {
            self.stats.banks[bank].row_misses += 1;
        }
        let done = self
            .device
            .issue(cmd, now)
            .expect("column returns data time");
        self.note_cmd(cmd, now, Some(domain));
        self.txq[idx].state = TxnState::Issued { done };
        self.next_done = self.next_done.min(done);
    }

    fn schedule_fcfs(&mut self, now: Cycle) {
        // Serve only the oldest pending transaction.
        let Some(idx) = self
            .txq
            .iter()
            .position(|t| matches!(t.state, TxnState::Pending))
        else {
            return;
        };
        let loc = self.txq[idx].loc;
        let domain = self.txq[idx].req.domain;
        match self.device.bank(loc.bank).open_row() {
            Some(row) if row == loc.row => {
                let cmd = self.column_cmd(&self.txq[idx]);
                if self.device.earliest(cmd, now) == now {
                    self.issue_column(idx, now);
                }
            }
            Some(_) => {
                let cmd = DramCommand::Precharge { bank: loc.bank };
                if self.device.earliest(cmd, now) == now {
                    self.device.issue(cmd, now);
                    self.note_cmd(cmd, now, Some(domain));
                }
            }
            None => {
                let cmd = DramCommand::Activate {
                    bank: loc.bank,
                    row: loc.row,
                };
                if self.device.earliest(cmd, now) == now {
                    self.device.issue(cmd, now);
                    self.note_cmd(cmd, now, Some(domain));
                }
            }
        }
    }

    fn schedule_frfcfs(&mut self, now: Cycle) {
        // 1. Oldest row-hit column access that is legal right now.
        let hit = self.txq.iter().position(|t| {
            matches!(t.state, TxnState::Pending)
                && self.device.bank(t.loc.bank).open_row() == Some(t.loc.row)
                && self.device.earliest(self.column_cmd(t), now) == now
        });
        if let Some(idx) = hit {
            self.issue_column(idx, now);
            return;
        }

        // 2. Oldest transaction whose bank is idle: activate its row.
        //    Skip banks that already have an older same-bank transaction in
        //    front (FCFS within a bank).
        let mut seen_banks = 0u64;
        for i in 0..self.txq.len() {
            let t = &self.txq[i];
            if !matches!(t.state, TxnState::Pending) {
                continue;
            }
            let bank_bit = 1u64 << t.loc.bank;
            if seen_banks & bank_bit != 0 {
                continue;
            }
            seen_banks |= bank_bit;
            if self.device.bank(t.loc.bank).open_row().is_none() {
                let domain = t.req.domain;
                let cmd = DramCommand::Activate {
                    bank: t.loc.bank,
                    row: t.loc.row,
                };
                if self.device.earliest(cmd, now) == now {
                    self.device.issue(cmd, now);
                    self.note_cmd(cmd, now, Some(domain));
                    return;
                }
            }
        }

        // 3. Row conflict: precharge the bank of the oldest conflicting
        //    transaction, provided no pending transaction still hits the
        //    open row (serve hits before closing).
        if self.row_policy == RowPolicy::Open {
            let conflict = self.txq.iter().position(|t| {
                matches!(t.state, TxnState::Pending)
                    && matches!(self.device.bank(t.loc.bank).open_row(), Some(r) if r != t.loc.row)
            });
            if let Some(idx) = conflict {
                let bank = self.txq[idx].loc.bank;
                let open = self.device.bank(bank).open_row();
                let hit_waiting = self.txq.iter().any(|t| {
                    matches!(t.state, TxnState::Pending)
                        && t.loc.bank == bank
                        && Some(t.loc.row) == open
                });
                if !hit_waiting {
                    let domain = self.txq[idx].req.domain;
                    let cmd = DramCommand::Precharge { bank };
                    if self.device.earliest(cmd, now) == now {
                        self.device.issue(cmd, now);
                        self.note_cmd(cmd, now, Some(domain));
                    }
                }
            }
        }
    }

    /// Charges `edges` command-bus edges' wait time, starting at `now`, for
    /// every pending transaction to the domain whose earlier command made
    /// the blocking resource busy. Runs after [`MemoryController::schedule`]
    /// on each bus edge, and over whole warped spans from
    /// [`MemorySubsystem::settle_warp`]; purely observational (reads device
    /// horizons, never issues) and allocation-free.
    fn attribute_stalls(&mut self, now: Cycle, edges: u64) {
        let span = self.device.timing().cmd_cycle * edges;
        let auto_precharge = self.auto_precharge();
        let Self {
            txq,
            device,
            leak,
            stats,
            bank_head,
            refresh_pending,
            ..
        } = self;
        bank_head.fill(None);
        let as_u16 = |d: Option<DomainId>| d.map(|d| d.0);
        for txn in txq.iter() {
            if !matches!(txn.state, TxnState::Pending) {
                continue;
            }
            let b = txn.loc.bank as usize;
            let victim = txn.req.domain.0;
            // FCFS within a bank: a transaction behind an older same-bank
            // transaction waits on that owner, whatever the device says.
            if let Some(owner) = bank_head[b] {
                leak.matrix
                    .charge(victim, Some(owner.0), StallCause::QueueWait, span);
                continue;
            }
            bank_head[b] = Some(txn.req.domain);
            // This transaction heads its bank: what command does it need,
            // and which device horizon holds that command back?
            let cmd = required_cmd(device, txn, auto_precharge);
            let charge = match device.blocking_reason(cmd, now) {
                Some(BlockReason::Bank) => Some((as_u16(leak.bank_user[b]), StallCause::BankBusy)),
                Some(BlockReason::Rrd) => {
                    let culprit = leak.act_users.back().copied().flatten();
                    Some((as_u16(culprit), StallCause::ActWindow))
                }
                Some(BlockReason::Faw) => {
                    // tFAW binds to the oldest ACT in the window.
                    let culprit = leak.act_users.front().copied().flatten();
                    stats.banks[b].faw_stall_cycles += span;
                    Some((as_u16(culprit), StallCause::ActWindow))
                }
                Some(BlockReason::Bus) => Some((as_u16(leak.col_user), StallCause::BusConflict)),
                Some(BlockReason::CmdBus) => Some((as_u16(leak.cmd_user), StallCause::BusConflict)),
                Some(BlockReason::Refresh) => Some((None, StallCause::Refresh)),
                None => {
                    // Legal this edge but not picked: lost arbitration to
                    // whichever command did issue, or held back by the
                    // refresh drain (neither happens on a warped edge).
                    if let Some(winner) = leak.issued_this_edge {
                        Some((as_u16(winner), StallCause::BusConflict))
                    } else if *refresh_pending {
                        Some((None, StallCause::Refresh))
                    } else {
                        None
                    }
                }
            };
            if let Some((culprit, cause)) = charge {
                leak.matrix.charge(victim, culprit, cause, span);
            }
        }
    }

    /// The first command-bus edge `>= now` at which a tick could act on
    /// the pending transactions, or `None` with none pending. Device
    /// horizons move only when a command issues, so until then:
    ///
    /// - the scheduler issues nothing before the first edge at which one of
    ///   the commands it would pick becomes legal — a row-hit column
    ///   access, an ACT for the oldest transaction of an idle bank, or
    ///   (open rows) the PRE of the oldest conflict with no hit waiting
    ///   (FCFS: the oldest transaction's command);
    /// - every bank head is charged the same stall on each edge, except
    ///   when its command turns legal (the charge lapses).
    ///
    /// The edges before this one repeat identical charges, which
    /// [`MemorySubsystem::settle_warp`] replays.
    fn next_issue_edge(&self, now: Cycle) -> Option<Cycle> {
        let first_edge = now.next_multiple_of(self.device.timing().cmd_cycle);
        let auto_precharge = self.auto_precharge();
        let mut wake: Option<Cycle> = None;
        let mut fold = |t: Cycle| wake = Some(wake.map_or(t, |w| w.min(t)));
        let (mut heads, mut hit_banks) = (0u64, 0u64);
        let mut oldest_conflict: Option<u32> = None;
        let mut oldest = true;
        for txn in self.txq.iter() {
            if !matches!(txn.state, TxnState::Pending) {
                continue;
            }
            let bank_bit = 1u64 << txn.loc.bank;
            let head = heads & bank_bit == 0;
            heads |= bank_bit;
            let cmd = required_cmd(&self.device, txn, auto_precharge);
            let at = self.device.earliest(cmd, now);
            if head && at > first_edge {
                fold(at);
            }
            match (self.policy, cmd) {
                (SchedPolicy::Fcfs, _) if oldest => fold(at),
                (SchedPolicy::Fcfs, _) => {}
                (_, DramCommand::Read { .. } | DramCommand::Write { .. }) => {
                    hit_banks |= bank_bit;
                    fold(at);
                }
                (_, DramCommand::Activate { .. }) if head => fold(at),
                (_, DramCommand::Precharge { bank }) if oldest_conflict.is_none() => {
                    oldest_conflict = Some(bank);
                }
                _ => {}
            }
            oldest = false;
        }
        if let Some(bank) = oldest_conflict {
            if self.row_policy == RowPolicy::Open && hit_banks & (1u64 << bank) == 0 {
                fold(self.device.earliest(DramCommand::Precharge { bank }, now));
            }
        }
        wake
    }

    fn collect_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        if now < self.next_done {
            return;
        }
        let mut i = 0;
        while i < self.txq.len() {
            if let TxnState::Issued { done: d } = self.txq[i].state {
                if d <= now {
                    let txn = self.txq.remove(i).expect("index in range");
                    let resp = MemResponse {
                        id: txn.req.id,
                        domain: txn.req.domain,
                        addr: txn.req.addr,
                        req_type: txn.req.req_type,
                        kind: txn.req.kind,
                        arrived_at: txn.arrived,
                        completed_at: d,
                    };
                    self.stats.record(&resp);
                    self.tracer.record(now, || EventKind::Response {
                        id: resp.id,
                        domain: resp.domain,
                        latency: resp.latency(),
                        fake: resp.kind.is_fake(),
                    });
                    self.tracer.record(now, || EventKind::TxqOccupancy {
                        count: self.txq.len() as u32,
                    });
                    out.push(resp);
                    continue;
                }
            }
            i += 1;
        }
        self.next_done = self
            .txq
            .iter()
            .filter_map(|t| match t.state {
                TxnState::Issued { done } => Some(done),
                TxnState::Pending => None,
            })
            .min()
            .unwrap_or(Cycle::MAX);
    }
}

/// The column command serving `txn`.
fn column_cmd(txn: &Txn, auto_precharge: bool) -> DramCommand {
    if txn.req.req_type.is_write() {
        DramCommand::Write {
            bank: txn.loc.bank,
            auto_precharge,
        }
    } else {
        DramCommand::Read {
            bank: txn.loc.bank,
            auto_precharge,
        }
    }
}

/// The next command pending `txn` needs given its bank's row buffer: its
/// column access on a row hit, PRE on a conflict, ACT on an idle bank.
fn required_cmd(device: &DramDevice, txn: &Txn, auto_precharge: bool) -> DramCommand {
    match device.bank(txn.loc.bank).open_row() {
        Some(row) if row == txn.loc.row => column_cmd(txn, auto_precharge),
        Some(_) => DramCommand::Precharge { bank: txn.loc.bank },
        None => DramCommand::Activate {
            bank: txn.loc.bank,
            row: txn.loc.row,
        },
    }
}

impl MemorySubsystem for MemoryController {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        if self.txq.len() >= self.capacity {
            return Err(req);
        }
        let loc = self.mapper.decode(req.addr);
        self.tracer.record(now, || EventKind::TxqEnqueue {
            id: req.id,
            domain: req.domain,
            bank: loc.bank,
        });
        self.txq.push_back(Txn {
            req,
            loc,
            arrived: now,
            state: TxnState::Pending,
        });
        self.tracer.record(now, || EventKind::TxqOccupancy {
            count: self.txq.len() as u32,
        });
        Ok(())
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let _prof = dg_prof::span("controller");
        self.collect_into(now, out);
        if now.is_multiple_of(self.device.timing().cmd_cycle) {
            let _prof = dg_prof::span("dram_device");
            self.leak.issued_this_edge = None;
            self.schedule(now);
            self.attribute_stalls(now, 1);
        }
        self.settled_until = now + 1;
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let cmd_cycle = self.device.timing().cmd_cycle;
        // Completions are collected the cycle `done` is reached.
        let mut ev = (self.next_done != Cycle::MAX).then(|| self.next_done.max(now));
        // A refresh drain acts on every command-bus edge; otherwise the
        // next edge that can act is the issue edge, and the edges before it
        // only repeat the same stall charges, which `settle_warp` replays.
        let issue = if self.refresh_pending {
            Some(now.next_multiple_of(cmd_cycle))
        } else {
            self.next_issue_edge(now)
        };
        ev = dg_sim::clock::earliest_event(ev, issue);
        // Refresh maintenance wakes the controller even when fully idle:
        // the first edge at or after the deadline flips `refresh_pending`.
        let refresh_edge = self
            .device
            .refresh_deadline()
            .max(now)
            .next_multiple_of(cmd_cycle);
        dg_sim::clock::earliest_event(ev, Some(refresh_edge))
    }

    /// Charges the skipped command-bus edges of `[from, to)`. No command
    /// issues inside a warped span, so every pending transaction's blocking
    /// reason is the same on each of its edges as on the first: one
    /// evaluation scaled by the edge count is exact. Edges already
    /// attributed are skipped, so overlapping calls charge each edge once.
    fn settle_warp(&mut self, from: Cycle, to: Cycle, _refused: &[MemRequest]) {
        let cmd_cycle = self.device.timing().cmd_cycle;
        let first = from.max(self.settled_until).next_multiple_of(cmd_cycle);
        self.settled_until = self.settled_until.max(to);
        if first >= to {
            return;
        }
        debug_assert!(!self.refresh_pending, "warped across a refresh drain");
        let edges = (to - first).div_ceil(cmd_cycle);
        self.leak.issued_this_edge = None;
        self.attribute_stalls(first, edges);
    }

    fn stats(&self) -> &MemStats {
        &self.stats
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        &mut self.stats
    }

    fn free_slots(&self) -> usize {
        self.free_space()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn interference(&self) -> Option<InterferenceReport> {
        Some(self.leak.matrix.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::types::{DomainId, ReqId};

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::two_core();
        // Unit ratio keeps latencies equal to Table 2 DRAM-cycle numbers.
        c.clock_ratio = dg_sim::clock::ClockRatio::new(1);
        c
    }

    /// Ticks the controller until its queue drains, then keeps ticking for a
    /// grace window so late (dropped or straggling) responses still surface.
    /// Breaking as soon as the queue looks empty would silently pass tests
    /// that drop trailing responses.
    fn run_until_done(mc: &mut MemoryController, budget: Cycle) -> Vec<MemResponse> {
        const GRACE: Cycle = 500;
        let mut out = Vec::new();
        let mut drained_at: Option<Cycle> = None;
        for now in 0..budget {
            out.extend(mc.tick(now));
            match drained_at {
                None if mc.occupancy() == 0 && !out.is_empty() => drained_at = Some(now),
                Some(at) if now >= at + GRACE => break,
                _ => {}
            }
        }
        out
    }

    fn read_at(mc: &mut MemoryController, addr: u64, id: u64, now: Cycle) {
        let req = MemRequest::read(DomainId(0), addr, now).with_id(ReqId(id));
        mc.try_send(req, now).unwrap();
    }

    #[test]
    fn single_read_latency_closed_row() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        read_at(&mut mc, 0x40, 1, 0);
        let done = run_until_done(&mut mc, 10_000);
        assert_eq!(done.len(), 1);
        let t = DramDevice::new(c.dram_org, c.timing, c.clock_ratio);
        // ACT at 0, RD at tRCD, data at tRCD + tCAS + tBURST.
        assert_eq!(done[0].latency(), t.timing().closed_row_read_latency());
    }

    #[test]
    fn open_row_hit_is_faster_than_first_access() {
        let c = cfg(); // open-row
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        // Two reads to the same row: second should be a row hit.
        read_at(&mut mc, 0x0, 1, 0);
        let mut out = Vec::new();
        let mut now = 0;
        while out.is_empty() {
            out.extend(mc.tick(now));
            now += 1;
        }
        let first_latency = out[0].latency();
        read_at(&mut mc, 0x0, 2, now);
        let mut out2 = Vec::new();
        let start = now;
        while out2.is_empty() {
            out2.extend(mc.tick(now));
            now += 1;
        }
        let hit_latency = out2[0].completed_at - start;
        assert!(
            hit_latency < first_latency,
            "hit {hit_latency} vs miss {first_latency}"
        );
    }

    #[test]
    fn row_conflict_is_slower_than_hit() {
        let c = cfg();
        let mapper = AddressMapper::new(MapScheme::BankInterleaved, 8, 8192, 64);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        // Open row 0 of bank 0.
        let a0 = mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 0,
        });
        read_at(&mut mc, a0, 1, 0);
        let mut now = 0;
        let mut out = Vec::new();
        while out.is_empty() {
            out.extend(mc.tick(now));
            now += 1;
        }
        // Conflict: same bank, different row.
        let a1 = mapper.encode(PhysLoc {
            bank: 0,
            row: 9,
            col: 0,
        });
        read_at(&mut mc, a1, 2, now);
        let start = now;
        let mut out2 = Vec::new();
        while out2.is_empty() {
            out2.extend(mc.tick(now));
            now += 1;
        }
        let conflict_latency = out2[0].completed_at - start;
        let t = mc.device.timing();
        assert!(conflict_latency >= t.tRP + t.tRCD + t.tCAS);
    }

    #[test]
    fn bank_parallelism_overlaps_requests() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mapper = AddressMapper::new(MapScheme::BankInterleaved, 8, 8192, 64);

        // Two requests to different banks complete much faster than two to
        // the same bank.
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let b0 = mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 0,
        });
        let b1 = mapper.encode(PhysLoc {
            bank: 1,
            row: 0,
            col: 0,
        });
        read_at(&mut mc, b0, 1, 0);
        read_at(&mut mc, b1, 2, 0);
        let done = run_until_done(&mut mc, 10_000);
        let parallel_finish = done.iter().map(|r| r.completed_at).max().unwrap();

        let mut mc2 = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let same0 = mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 0,
        });
        let same1 = mapper.encode(PhysLoc {
            bank: 0,
            row: 1,
            col: 0,
        });
        read_at(&mut mc2, same0, 1, 0);
        read_at(&mut mc2, same1, 2, 0);
        let done2 = run_until_done(&mut mc2, 10_000);
        let serial_finish = done2.iter().map(|r| r.completed_at).max().unwrap();

        assert!(
            parallel_finish < serial_finish,
            "parallel {parallel_finish} vs serial {serial_finish}"
        );
    }

    #[test]
    fn fcfs_does_not_reorder() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mapper = AddressMapper::new(MapScheme::BankInterleaved, 8, 8192, 64);
        let mut mc = MemoryController::new(&c, SchedPolicy::Fcfs);
        // Same bank twice then different bank: FCFS must finish them in order.
        let a = mapper.encode(PhysLoc {
            bank: 0,
            row: 0,
            col: 0,
        });
        let b = mapper.encode(PhysLoc {
            bank: 0,
            row: 1,
            col: 0,
        });
        let e = mapper.encode(PhysLoc {
            bank: 3,
            row: 0,
            col: 0,
        });
        read_at(&mut mc, a, 1, 0);
        read_at(&mut mc, b, 2, 0);
        read_at(&mut mc, e, 3, 0);
        let mut done = Vec::new();
        for now in 0..100_000 {
            done.extend(mc.tick(now));
            if done.len() == 3 {
                break;
            }
        }
        let order: Vec<u64> = done.iter().map(|r| r.id.0).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn queue_backpressure() {
        let c = cfg();
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        for i in 0..c.queues.transaction_queue {
            read_at(&mut mc, (i as u64) * 64, i as u64, 0);
        }
        let req = MemRequest::read(DomainId(0), 0x9999, 0).with_id(ReqId(99));
        assert!(mc.try_send(req, 0).is_err());
        assert_eq!(mc.free_space(), 0);
    }

    #[test]
    fn refresh_eventually_happens() {
        let c = cfg();
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let refi = mc.device.timing().tREFI;
        for now in 0..refi + 1000 {
            mc.tick(now);
        }
        assert!(mc.device.refreshes() >= 1);
    }

    #[test]
    fn refresh_under_load_preserves_all_requests() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let mut sent = 0u64;
        let mut done = 0u64;
        let horizon = mc.device.timing().tREFI * 3;
        for now in 0..horizon {
            if now % 50 == 0 && mc.free_space() > 0 {
                read_at(&mut mc, (sent % 4096) * 64, sent, now);
                sent += 1;
            }
            done += mc.tick(now).len() as u64;
        }
        // Drain.
        for now in horizon..horizon + 10_000 {
            done += mc.tick(now).len() as u64;
        }
        assert!(mc.device.refreshes() >= 2, "refreshes ran under load");
        assert_eq!(sent, done, "no transaction lost across refresh");
    }

    #[test]
    fn bank_counters_track_hits_and_misses() {
        let c = cfg(); // open-row
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        // First access opens the row (miss); two more to the same row hit.
        read_at(&mut mc, 0x0, 1, 0);
        let mut now = 0;
        let mut done = 0;
        while done < 3 {
            if done == 1 && mc.occupancy() == 0 {
                read_at(&mut mc, 0x0, 2, now);
                read_at(&mut mc, 0x0, 3, now);
            }
            done += mc.tick(now).len();
            now += 1;
        }
        let b0 = &mc.stats().banks[0];
        assert_eq!(b0.acts, 1);
        assert_eq!(b0.row_misses, 1);
        assert_eq!(b0.row_hits, 2);
        assert_eq!(b0.precharges, 0);
    }

    #[test]
    fn closed_row_counts_auto_precharges() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        read_at(&mut mc, 0x0, 1, 0);
        run_until_done(&mut mc, 10_000);
        let b0 = &mc.stats().banks[0];
        assert_eq!(b0.acts, 1);
        assert_eq!(b0.row_misses, 1);
        assert_eq!(b0.precharges, 1);
    }

    #[test]
    fn interference_attributes_cross_domain_stalls() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        // Two domains hammering the same bank: whoever queues second waits
        // on the first, and the matrix must say so.
        let mut sent = 0u64;
        let mut done = 0u64;
        for now in 0..20_000 {
            if now % 40 == 0 && mc.free_space() >= 2 {
                let a = MemRequest::read(DomainId(0), 0x0, now).with_id(ReqId(sent));
                let b = MemRequest::read(DomainId(1), 0x2000, now).with_id(ReqId(sent + 1));
                mc.try_send(a, now).unwrap();
                mc.try_send(b, now).unwrap();
                sent += 2;
            }
            done += mc.tick(now).len() as u64;
        }
        assert!(done > 0);
        let report = mc.interference().expect("controller attributes stalls");
        // Domain 1 always queues behind domain 0 on the shared bank.
        assert!(
            report.matrix[1][0] > 0,
            "expected cross-domain stall cycles, got {report:?}"
        );
        assert!(report.total_stall_cycles > 0);
        let by_cause: u64 = report.by_cause.iter().map(|c| c.cycles).sum();
        assert_eq!(by_cause, report.total_stall_cycles);
    }

    #[test]
    fn idle_controller_attributes_nothing() {
        let c = cfg();
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        for now in 0..1_000 {
            mc.tick(now);
        }
        assert_eq!(mc.interference().unwrap().total_stall_cycles, 0);
    }

    /// Drives `mc` through `sends` (sorted by cycle; refused requests are
    /// dropped) for `horizon` cycles and returns the responses. With
    /// `skipping`, it ticks only the cycles `next_event_at` or a send asks
    /// for and settles the spans in between.
    fn drive(
        mc: &mut MemoryController,
        sends: &[(Cycle, MemRequest)],
        horizon: Cycle,
        skipping: bool,
    ) -> (Vec<(Cycle, u64)>, u64) {
        let (mut out, mut ticks, mut next_send) = (Vec::new(), 0, 0);
        let mut now = 0;
        while now < horizon {
            out.extend(mc.tick(now).iter().map(|r| (now, r.id.0)));
            ticks += 1;
            while next_send < sends.len() && sends[next_send].0 == now {
                let _ = mc.try_send(sends[next_send].1, now);
                next_send += 1;
            }
            let mut next = now + 1;
            if skipping {
                let send_at = sends.get(next_send).map_or(horizon, |s| s.0);
                next = mc
                    .next_event_at(next)
                    .map_or(horizon, |t| t.min(horizon))
                    .min(send_at);
                mc.settle_warp(now + 1, next, &[]);
            }
            now = next;
        }
        (out, ticks)
    }

    #[test]
    fn event_driven_ticking_with_settlement_matches_every_cycle() {
        // Bursts of two domains' requests spread over every bank (tRRD and
        // tFAW bind), piled onto one bank (bank busy, queue waits), and
        // mixing reads and writes (bus turnaround), across two refreshes.
        // The default clock ratio spaces command-bus edges several CPU
        // cycles apart, so settlement must count edges, not cycles.
        let mut sends = Vec::new();
        let mut id = 0u64;
        for burst in 0..120u64 {
            let at = burst * 500 + burst % 7;
            for k in 0..12u64 {
                id += 1;
                let bank = if burst % 3 == 0 { 0 } else { k % 8 };
                let addr = bank * 64 + (id % 50) * 8192 * 8;
                let domain = DomainId((k % 2) as u16);
                let req = if k % 5 == 4 {
                    MemRequest::write(domain, addr, at)
                } else {
                    MemRequest::read(domain, addr, at)
                };
                sends.push((at + k % 3, req.with_id(ReqId(id))));
            }
        }
        sends.sort_by_key(|s| s.0);
        for (policy, row) in [
            (SchedPolicy::FrFcfs, RowPolicy::Closed),
            (SchedPolicy::FrFcfs, RowPolicy::Open),
            (SchedPolicy::Fcfs, RowPolicy::Open),
        ] {
            let c = SystemConfig::two_core().with_row_policy(row);
            let horizon = 62_000;
            let mut every = MemoryController::new(&c, policy);
            let mut evented = MemoryController::new(&c, policy);
            let (out_every, ticks_every) = drive(&mut every, &sends, horizon, false);
            let (out_evented, ticks_evented) = drive(&mut evented, &sends, horizon, true);
            let what = format!("{policy:?}/{row:?}");
            assert_eq!(out_every, out_evented, "{what}: responses");
            assert_eq!(
                every.interference_report(),
                evented.interference_report(),
                "{what}: interference"
            );
            assert_eq!(every.stats().banks, evented.stats().banks, "{what}: banks");
            assert!(every.device.refreshes() >= 2, "{what}: refreshes ran");
            assert!(
                ticks_evented * 4 < ticks_every,
                "{what}: {ticks_evented} of {ticks_every} cycles ticked"
            );
            let report = every.interference_report();
            assert!(report.total_stall_cycles > 0, "{what}: stalls charged");
            if row == RowPolicy::Closed {
                let faw: u64 = every.stats().banks.iter().map(|b| b.faw_stall_cycles).sum();
                assert!(faw > 0, "{what}: tFAW must bind");
            }
        }
    }

    #[test]
    fn stats_accumulate() {
        let c = cfg().with_row_policy(RowPolicy::Closed);
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        read_at(&mut mc, 0x40, 1, 0);
        let w = MemRequest::write(DomainId(1), 0x80, 0).with_id(ReqId(2));
        mc.try_send(w, 0).unwrap();
        run_until_done(&mut mc, 10_000);
        assert_eq!(mc.stats().domain(DomainId(0)).reads, 1);
        assert_eq!(mc.stats().domain(DomainId(1)).writes, 1);
    }
}
