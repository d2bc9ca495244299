//! The memory controller proper: transaction queue + command scheduler.

use std::collections::VecDeque;
use std::ops::Range;

use dg_dram::command::RowId;
use dg_dram::{
    AddressMapper, BlockReason, CpuTiming, DramCommand, DramDevice, MapScheme, PhysLoc,
    RankHorizons,
};
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
    /// Arrival order, unique per controller: links a [`Pending`] entry to
    /// its transaction across queue removals.
    seq: u64,
    req: MemRequest,
    loc: PhysLoc,
    arrived: Cycle,
    state: TxnState,
}

/// A pending transaction as its bank's queue holds it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pending {
    seq: u64,
    domain: DomainId,
    row: RowId,
    write: bool,
}

/// One bank's pending transactions in arrival order, with the bank's row
/// buffer and bank-local horizon terms as of the last command to it.
#[derive(Debug, PartialEq)]
struct BankPlan {
    /// Preallocated to the transaction-queue capacity: never reallocates.
    queue: Vec<Pending>,
    open_row: Option<RowId>,
    /// [`DramDevice::bank_horizon`] of ACT, RD/WR and PRE to this bank.
    act_at: Cycle,
    col_at: Cycle,
    pre_at: Cycle,
    /// Sequence numbers of the oldest row-hit read, the oldest row-hit
    /// write and the oldest row conflict.
    first_read: Option<u64>,
    first_write: Option<u64>,
    first_conflict: Option<u64>,
    /// Whether a read, and whether a write, to the head's row is queued:
    /// the transactions the row the head opens can serve.
    chain_read: bool,
    chain_write: bool,
    /// The transactions queued behind the head, counted per domain in
    /// first-seen order. Preallocated like `queue`.
    waits: Vec<(DomainId, u64)>,
}

impl BankPlan {
    fn new(capacity: usize) -> Self {
        Self {
            queue: Vec::with_capacity(capacity),
            open_row: None,
            act_at: 0,
            col_at: 0,
            pre_at: 0,
            first_read: None,
            first_write: None,
            first_conflict: None,
            chain_read: false,
            chain_write: false,
            waits: Vec::with_capacity(capacity),
        }
    }

    /// Re-reads bank `bank`'s row buffer and horizon terms from `device`.
    fn sync(&mut self, bank: u32, device: &DramDevice) {
        self.open_row = device.bank(bank).open_row();
        self.act_at = device.bank_horizon(DramCommand::Activate { bank, row: 0 });
        self.col_at = device.bank_horizon(column_cmd(bank, false, false));
        self.pre_at = device.bank_horizon(DramCommand::Precharge { bank });
    }

    /// The bank-local horizon term of `cmd`, a command to this bank.
    fn term(&self, cmd: DramCommand) -> Cycle {
        match cmd {
            DramCommand::Activate { .. } => self.act_at,
            DramCommand::Read { .. } | DramCommand::Write { .. } => self.col_at,
            DramCommand::Precharge { .. } => self.pre_at,
            DramCommand::Refresh => unreachable!("REF is rank-wide"),
        }
    }

    /// Files `p`, the bank's newest transaction, into the derived fields.
    fn note(&mut self, p: Pending, head: bool) {
        if !head {
            match self.waits.iter_mut().find(|w| w.0 == p.domain) {
                Some(w) => w.1 += 1,
                None => self.waits.push((p.domain, 1)),
            }
        }
        if p.row == self.queue[0].row {
            self.chain_read |= !p.write;
            self.chain_write |= p.write;
        }
        let first = match self.open_row {
            Some(row) if row == p.row && p.write => &mut self.first_write,
            Some(row) if row == p.row => &mut self.first_read,
            Some(_) => &mut self.first_conflict,
            None => return,
        };
        first.get_or_insert(p.seq);
    }

    /// The domain of queued transaction `seq`.
    fn domain_of(&self, seq: u64) -> DomainId {
        let p = self.queue.iter().find(|p| p.seq == seq);
        p.expect("a planned transaction is queued").domain
    }

    /// Re-derives the derived fields from the queue.
    fn renote(&mut self) {
        self.first_read = None;
        self.first_write = None;
        self.first_conflict = None;
        (self.chain_read, self.chain_write) = (false, false);
        self.waits.clear();
        for i in 0..self.queue.len() {
            self.note(self.queue[i], i == 0);
        }
    }
}

/// The fixed spacings from a bank head's command to the completion of a
/// column command it leads to: ACT → column (tRCD), PRE → ACT → column
/// (tRP + tRCD), and column → last data beat for a read (tCAS + tBURST)
/// and a write (tCWD + tBURST). No command issues sooner after its
/// predecessor, so a horizon plus a chain bounds a completion from below.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Latency {
    act: Cycle,
    pre: Cycle,
    read: Cycle,
    write: Cycle,
}

impl Latency {
    fn new(t: &CpuTiming) -> Self {
        Self {
            act: t.tRCD,
            pre: t.tRP + t.tRCD,
            read: t.tCAS + t.tBURST,
            write: t.tCWD + t.tBURST,
        }
    }

    /// The shortest column latency among reads (with `read`) and writes
    /// (with `write`).
    fn column(&self, read: bool, write: bool) -> Cycle {
        let read = if read { self.read } else { Cycle::MAX };
        read.min(if write { self.write } else { Cycle::MAX })
    }
}

/// A bank's oldest pending transaction, as the scheduler and stall
/// attribution read it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Head {
    seq: u64,
    domain: DomainId,
    /// The command the transaction needs next ([`required_cmd`]), the bus
    /// edge from which it is legal, and the constraint holding it back
    /// before then ([`DramDevice::horizon`]).
    cmd: DramCommand,
    horizon: Cycle,
    reason: BlockReason,
}

/// The command the scheduler picked, and the transaction it serves.
#[derive(Debug, Clone, Copy)]
struct Pick {
    bank: u32,
    seq: u64,
    domain: DomainId,
    cmd: DramCommand,
}

/// The pending transactions, queued per bank in arrival order, and the
/// views the scheduler, stall attribution and the wake-up computation read
/// instead of asking the device.
///
/// Device horizons, and with them every required command, move only when a
/// command issues, and a command to one bank moves only that bank's row
/// buffer and bank-local terms; the rank-wide terms are one
/// [`RankHorizons`] snapshot. So after a command issues, the plan drops the
/// served transaction, re-derives only the issuing bank from the device,
/// and refolds the views — each bank head's horizon, the earliest horizon
/// the pick can take, the oldest row conflict — from the per-bank state in
/// one pass over the banks: all commands of one kind in one bank share a
/// horizon. Only a REF, which moves every bank, re-derives everything
/// ([`Plan::rebuild`], also the test oracle). An enqueue folds the new
/// transaction in O(1). Completions only remove issued transactions, which
/// the plan does not hold.
///
/// Against the dense plan of every pending transaction rebuilt after each
/// command, this plan together with owed stall charges ([`Owed`]) measured
/// 21.9% faster on the DAGguise saturated benchmark (median of ten
/// alternating pairs, 2-CPU x86-64 host) and 2.5% slower on the idle one,
/// where one to three transactions are pending.
#[derive(Debug, PartialEq)]
struct Plan {
    policy: SchedPolicy,
    row_policy: RowPolicy,
    /// The device's rank-wide horizon terms since the last issued command.
    rank: RankHorizons,
    banks: Vec<BankPlan>,
    /// Each bank's head (`None`: nothing pending).
    heads: Vec<Option<Head>>,
    /// Banks with a transaction pending, one bit each.
    pending: u64,
    /// Sequence number and bank of the oldest pending transaction (FCFS's
    /// only candidate).
    oldest: Option<(u64, u32)>,
    /// Earliest horizon among row-hit column commands and bank-head ACTs
    /// (`Cycle::MAX`: none).
    ready: Cycle,
    /// Earliest cycle any pending transaction could complete (`Cycle::MAX`:
    /// none pending): per bank, the earliest a row hit's column command
    /// could finish, or the head's command plus the chain to a column
    /// command of its row.
    done_from: Cycle,
    lat: Latency,
    /// Bank, sequence number and horizon of the oldest row conflict's PRE.
    conflict: Option<(u32, u64, Cycle)>,
    /// Banks with a row hit pending, one bit each.
    hit_banks: u64,
    /// Banks whose head waits on tFAW, one bit each.
    faw_banks: u64,
}

impl Plan {
    fn new(
        capacity: usize,
        banks: usize,
        (policy, row_policy): (SchedPolicy, RowPolicy),
        device: &DramDevice,
    ) -> Self {
        assert!(banks <= 64, "bank sets hold one bit per bank");
        let mut plan = Self {
            policy,
            row_policy,
            rank: device.rank_horizons(),
            banks: (0..banks).map(|_| BankPlan::new(capacity)).collect(),
            heads: vec![None; banks],
            pending: 0,
            oldest: None,
            ready: Cycle::MAX,
            done_from: Cycle::MAX,
            lat: Latency::new(device.timing()),
            conflict: None,
            hit_banks: 0,
            faw_banks: 0,
        };
        for (b, bank) in plan.banks.iter_mut().enumerate() {
            bank.sync(b as u32, device);
        }
        plan
    }

    fn auto_precharge(&self) -> bool {
        self.row_policy == RowPolicy::Closed
    }

    /// Appends pending `txn`. Its bank's state is unchanged since the last
    /// command, so the device need not be asked.
    fn push(&mut self, txn: &Txn) {
        let b = txn.loc.bank as usize;
        let bank = &mut self.banks[b];
        let p = Pending {
            seq: txn.seq,
            domain: txn.req.domain,
            row: txn.loc.row,
            write: txn.req.req_type.is_write(),
        };
        bank.queue.push(p);
        bank.note(p, bank.queue.len() == 1);
        self.pending |= 1 << b;
        self.fold(b);
    }

    /// Updates the plan after `device` issued a command to `bank` that
    /// served the transaction `served` (column commands) or not (ACT, PRE).
    fn update(&mut self, bank: u32, served: Option<u64>, device: &DramDevice) {
        let plan = &mut self.banks[bank as usize];
        if let Some(seq) = served {
            let i = plan.queue.iter().position(|p| p.seq == seq);
            plan.queue
                .remove(i.expect("the served transaction is planned"));
        }
        plan.sync(bank, device);
        plan.renote();
        if plan.queue.is_empty() {
            self.pending &= !(1 << bank);
            self.heads[bank as usize] = None;
        }
        self.refold(device);
    }

    /// Re-derives every bank from the queue and the current device state.
    fn rebuild(&mut self, txq: &VecDeque<Txn>, device: &DramDevice) {
        for (b, bank) in self.banks.iter_mut().enumerate() {
            bank.queue.clear();
            bank.sync(b as u32, device);
            bank.renote();
        }
        self.heads.fill(None);
        self.pending = 0;
        self.refold(device);
        for txn in txq.iter().filter(|t| t.state == TxnState::Pending) {
            self.push(txn);
        }
    }

    /// Takes a new rank snapshot and refolds every pending bank into the
    /// views.
    fn refold(&mut self, device: &DramDevice) {
        self.rank = device.rank_horizons();
        self.oldest = None;
        self.ready = Cycle::MAX;
        self.done_from = Cycle::MAX;
        self.conflict = None;
        self.hit_banks = 0;
        self.faw_banks = 0;
        for b in bits(self.pending) {
            self.fold(b);
        }
    }

    /// Folds pending bank `b` into the views. Every fold is a minimum, so
    /// folding a bank again after it gained a transaction is exact.
    fn fold(&mut self, b: usize) {
        let bank = &self.banks[b];
        let first = bank.queue[0];
        let id = b as u32;
        let cmd = required_cmd(id, bank.open_row, first, self.auto_precharge());
        let (horizon, reason) = self.rank.horizon(cmd, bank.term(cmd));
        self.heads[b] = Some(Head {
            seq: first.seq,
            domain: first.domain,
            cmd,
            horizon,
            reason,
        });
        if self.oldest.is_none_or(|(seq, _)| first.seq < seq) {
            self.oldest = Some((first.seq, id));
        }
        let lat = self.lat;
        let chain = match cmd {
            DramCommand::Activate { .. } => {
                self.ready = self.ready.min(horizon);
                Some(lat.act)
            }
            DramCommand::Precharge { .. } => Some(lat.pre),
            _ => None,
        };
        if let Some(chain) = chain {
            // The row the head opens serves the chain's reads and writes.
            let col = lat.column(bank.chain_read, bank.chain_write);
            self.done_from = self.done_from.min(horizon + chain + col);
        }
        if reason == BlockReason::Faw {
            self.faw_banks |= 1 << b;
        }
        for (first, write) in [(bank.first_read, false), (bank.first_write, true)] {
            if first.is_some() {
                let col = column_cmd(id, write, false);
                let at = self.rank.horizon(col, bank.col_at).0;
                self.ready = self.ready.min(at);
                self.done_from = self.done_from.min(at + lat.column(!write, write));
                self.hit_banks |= 1 << b;
            }
        }
        if let Some(seq) = bank.first_conflict {
            if self.conflict.is_none_or(|(_, oldest, _)| seq < oldest) {
                let pre = DramCommand::Precharge { bank: id };
                self.conflict = Some((id, seq, self.rank.horizon(pre, bank.pre_at).0));
            }
        }
    }

    fn head(&self, bank: u32) -> Option<&Head> {
        self.heads[bank as usize].as_ref()
    }

    /// The oldest row conflict's PRE, when FR-FCFS may pick it: open rows,
    /// and no pending transaction hits the conflicting bank's open row.
    fn pickable_conflict(&self) -> Option<(u32, u64, Cycle)> {
        self.conflict.filter(|&(bank, _, _)| {
            self.row_policy == RowPolicy::Open && self.hit_banks & (1 << bank) == 0
        })
    }

    /// The first bus edge at which [`Plan::pick`] returns a command (the
    /// earliest horizon among the commands it may pick; `Cycle::MAX`: none
    /// pending). It holds until a command issues or a transaction arrives,
    /// so it is the controller's issue edge: the edges before it only
    /// repeat the same stall charges, which stay owed across a warp — a
    /// bank head whose command turns legal without being picked included,
    /// since its owed charge switches cause at its horizon by itself.
    fn pick_from(&self) -> Cycle {
        match self.policy {
            SchedPolicy::Fcfs => self
                .oldest
                .and_then(|(_, b)| self.head(b))
                .map_or(Cycle::MAX, |h| h.horizon),
            SchedPolicy::FrFcfs => self
                .pickable_conflict()
                .map_or(self.ready, |(_, _, h)| h.min(self.ready)),
        }
    }

    /// The command to issue at bus edge `now`, if any is legal. FCFS: the
    /// oldest transaction's command. FR-FCFS: the oldest legal row hit,
    /// else the oldest legal ACT of a bank head (FCFS within a bank), else
    /// (open rows) the PRE of the oldest row conflict once no pending
    /// transaction hits the open row. Commands of one kind to one bank
    /// share a horizon, so the per-bank oldest of each kind are the only
    /// candidates.
    fn pick(&self, now: Cycle) -> Option<Pick> {
        let as_pick = |bank: u32, h: &Head| Pick {
            bank,
            seq: h.seq,
            domain: h.domain,
            cmd: h.cmd,
        };
        if self.policy == SchedPolicy::Fcfs {
            let (_, b) = self.oldest?;
            return self
                .head(b)
                .filter(|h| h.horizon <= now)
                .map(|h| as_pick(b, h));
        }
        let auto_precharge = self.auto_precharge();
        let mut hit: Option<Pick> = None;
        for b in bits(self.hit_banks) {
            let (bank, id) = (&self.banks[b], b as u32);
            for (first, write) in [(bank.first_read, false), (bank.first_write, true)] {
                let Some(seq) = first.filter(|&s| hit.is_none_or(|p| s < p.seq)) else {
                    continue;
                };
                let cmd = column_cmd(id, write, auto_precharge);
                if self.rank.horizon(cmd, bank.col_at).0 <= now {
                    let domain = bank.domain_of(seq);
                    hit = Some(Pick {
                        bank: id,
                        seq,
                        domain,
                        cmd,
                    });
                }
            }
        }
        hit.or_else(|| {
            bits(self.pending)
                .map(|b| (b as u32, self.heads[b].expect("a pending bank has a head")))
                .filter(|(_, h)| matches!(h.cmd, DramCommand::Activate { .. }) && h.horizon <= now)
                .min_by_key(|(_, h)| h.seq)
                .map(|(b, h)| as_pick(b, &h))
        })
        .or_else(|| {
            let (bank, seq, horizon) = self.pickable_conflict()?;
            (horizon <= now).then(|| Pick {
                bank,
                seq,
                domain: self.banks[bank as usize].domain_of(seq),
                cmd: DramCommand::Precharge { bank },
            })
        })
    }
}

/// Who last touched each shared DRAM resource, so a blocked command's wait
/// can be charged to the domain that made the resource busy.
///
/// Purely observational: updated only when the scheduler issues a command
/// anyway, and read by stall attribution ([`Stalls`]). It never feeds back
/// into scheduling decisions, so attribution cannot perturb the simulation
/// (the observer-effect contract of `dg_obs::leak`).
#[derive(Debug)]
struct LeakTrack {
    /// Domain whose command last engaged each bank (`None` for
    /// refresh-driven commands with no owner).
    bank_user: Vec<Option<DomainId>>,
    /// Domain of the last column command (owns the data bus / turnaround).
    col_user: Option<DomainId>,
    /// Domain of the last command on the shared command bus.
    cmd_user: Option<DomainId>,
    /// Domains of up to the last four ACTs (tRRD/tFAW window), oldest first.
    act_users: VecDeque<Option<DomainId>>,
}

impl LeakTrack {
    fn new(banks: usize) -> Self {
        Self {
            bank_user: vec![None; banks],
            col_user: None,
            cmd_user: None,
            act_users: VecDeque::with_capacity(4),
        }
    }

    /// The domain whose earlier command holds `reason`'s resource busy for
    /// a command to bank `b`, and the stall cause it is charged as.
    fn blocker(&self, reason: BlockReason, b: usize) -> (Option<u16>, StallCause) {
        let (culprit, cause) = match reason {
            BlockReason::Bank => (self.bank_user[b], StallCause::BankBusy),
            BlockReason::Rrd => (
                self.act_users.back().copied().flatten(),
                StallCause::ActWindow,
            ),
            // tFAW binds to the oldest ACT in the window.
            BlockReason::Faw => (
                self.act_users.front().copied().flatten(),
                StallCause::ActWindow,
            ),
            BlockReason::Bus => (self.col_user, StallCause::BusConflict),
            BlockReason::CmdBus => (self.cmd_user, StallCause::BusConflict),
            BlockReason::Refresh => (None, StallCause::Refresh),
        };
        (culprit.map(|d| d.0), cause)
    }
}

/// The indices of the set bits of `set`, lowest first.
fn bits(mut set: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let b = set.trailing_zeros() as usize;
        set &= set.wrapping_sub(1);
        (b < 64).then_some(b)
    })
}

/// The first bus edges from which each bank's stall charges are still
/// owed: its head's, and its queue waits'.
#[derive(Debug, Clone, Copy, Default)]
struct Owed {
    head: Cycle,
    waits: Cycle,
}

/// What a bank's stall charges are resolved against: the plan, the
/// resource owners and the refresh drain. Each bank's charges are owed
/// from the last change to any of these that moves them, and they repeat
/// on every bus edge until then, so one charge per bank pays a whole span.
///
/// Every bound is a bus edge, so a span's stall cycles (its edges times the
/// edge spacing, as the per-edge charges sum to) are a difference of bounds.
struct Stalls<'a> {
    plan: &'a Plan,
    leak: &'a LeakTrack,
    refresh_pending: bool,
}

impl Stalls<'_> {
    /// Charges bank `b`'s head for the bus edges in `[from, to)`. Before its
    /// horizon the device holds its command back: the domain whose earlier
    /// command made the blocking resource busy is charged. From then on it
    /// is legal but not picked, which (with no command issued, since an
    /// issue holds the command bus past every horizon) only a refresh
    /// drain does.
    fn head(&self, matrix: &mut InterferenceMatrix, b: usize, from: Cycle, to: Cycle) {
        let Some(head) = self.plan.heads[b] else {
            return;
        };
        let victim = head.domain.0;
        let blocked = to.min(head.horizon).saturating_sub(from);
        if blocked > 0 {
            let (culprit, cause) = self.leak.blocker(head.reason, b);
            matrix.charge(victim, culprit, cause, blocked);
        }
        let legal = to.saturating_sub(from.max(head.horizon));
        if legal > 0 && self.refresh_pending {
            matrix.charge(victim, None, StallCause::Refresh, legal);
        }
    }

    /// Charges bank `b`'s queue waits for the bus edges in `[from, to)`:
    /// FCFS within a bank, a transaction behind an older same-bank
    /// transaction waits on that owner, whatever the device says.
    fn waits(&self, matrix: &mut InterferenceMatrix, b: usize, from: Cycle, to: Cycle) {
        let Some(head) = self.plan.heads[b].filter(|_| to > from) else {
            return;
        };
        for &(victim, n) in &self.plan.banks[b].waits {
            let cycles = n * (to - from);
            matrix.charge(victim.0, Some(head.domain.0), StallCause::QueueWait, cycles);
        }
    }
}

/// The shared memory controller: a global transaction queue feeding a
/// command scheduler that drives the DRAM device.
///
/// One DRAM command may issue per command-bus edge. Refresh takes priority
/// when due: open banks are drained and precharged, then a rank-wide REF is
/// issued.
///
/// A core sees only completions, and a transaction-queue slot frees only
/// at one, so without a tracer the controller promises only those: its
/// `next_event_at` is a lower bound on the next completion, and the
/// command edges and refreshes before it run at the next contact
/// (`tick_into`, `try_send` or `settle_warp`), in cycle order, with the
/// spans between them settled as a warp settles them. A controller driven
/// only through ticks and sends thus stays exact without `settle_warp`.
/// `next_event_at_eager` still names every issue and refresh edge, and an
/// enabled tracer makes the controller answer it, so trace events keep
/// the per-cycle loop's order.
#[derive(Debug)]
pub struct MemoryController {
    device: DramDevice,
    mapper: AddressMapper,
    txq: VecDeque<Txn>,
    capacity: usize,
    stats: MemStats,
    refresh_pending: bool,
    tracer: Tracer,
    /// Cycle each bank's current row was opened (for row-hit accounting);
    /// `None` while precharged.
    bank_open_since: Vec<Option<Cycle>>,
    leak: LeakTrack,
    /// Stall charges paid so far; [`Owed`] holds the rest.
    stalls: InterferenceMatrix,
    owed: Vec<Owed>,
    /// Earliest `done` among issued transactions (`Cycle::MAX` when none):
    /// collection is a no-op before it.
    next_done: Cycle,
    /// Every command-bus edge before this cycle has passed, by a tick, a
    /// catch-up or [`MemorySubsystem::settle_warp`]: its command issued,
    /// its stalls are paid or owed.
    settled_until: Cycle,
    plan: Plan,
    /// Sequence number of the next enqueued transaction.
    next_seq: u64,
    /// Whether `next_event_at` may leave command edges and refresh out
    /// (no tracer).
    lazy: bool,
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
        let plan = Plan::new(
            cfg.queues.transaction_queue,
            banks,
            (policy, cfg.row_policy),
            &device,
        );
        Self {
            device,
            mapper,
            txq: VecDeque::with_capacity(cfg.queues.transaction_queue),
            capacity: cfg.queues.transaction_queue,
            stats,
            refresh_pending: false,
            tracer: Tracer::noop(),
            bank_open_since: vec![None; banks],
            leak: LeakTrack::new(banks),
            stalls: InterferenceMatrix::new(domains),
            owed: vec![Owed::default(); banks],
            next_done: Cycle::MAX,
            settled_until: 0,
            plan,
            next_seq: 0,
            lazy: true,
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

    /// The interference matrix accumulated so far: the charges paid plus
    /// those owed for every bus edge passed.
    pub fn interference_report(&self) -> InterferenceReport {
        let mut matrix = self.stalls.clone();
        let view = Stalls {
            plan: &self.plan,
            leak: &self.leak,
            refresh_pending: self.refresh_pending,
        };
        let to = self.first_unpassed_edge();
        for (b, owed) in self.owed.iter().enumerate() {
            view.head(&mut matrix, b, owed.head, to);
            view.waits(&mut matrix, b, owed.waits, to);
        }
        matrix.report()
    }

    /// The first bus edge not yet passed.
    fn first_unpassed_edge(&self) -> Cycle {
        self.settled_until
            .next_multiple_of(self.device.timing().cmd_cycle)
    }

    /// The first bus edge from `now` that can act: every edge of a refresh
    /// drain; otherwise the issue edge ([`Plan::pick_from`]) or the refresh
    /// deadline, whichever comes first (`Cycle::MAX`: none). Both are bus
    /// edges (horizons are edges, deadlines whole tREFI periods), so only an
    /// edge already passed needs rounding up to the first edge from `now`.
    fn command_edge(&self, now: Cycle) -> Cycle {
        let edge = if self.refresh_pending {
            0
        } else {
            self.plan.pick_from().min(self.device.refresh_deadline())
        };
        debug_assert!(edge == Cycle::MAX || edge.is_multiple_of(self.device.timing().cmd_cycle));
        if edge < now {
            now.next_multiple_of(self.device.timing().cmd_cycle)
        } else {
            edge
        }
    }

    /// Brings the controller up to `to`: every cycle before it has passed.
    /// Command edges the caller did not tick run first (see [`catch_up`]);
    /// without one, this is a span settle plus one compare.
    ///
    /// [`catch_up`]: Self::catch_up
    #[inline]
    fn advance(&mut self, to: Cycle) {
        let edge = self.plan.pick_from().min(self.device.refresh_deadline());
        if self.refresh_pending || edge < to {
            self.catch_up(to);
        } else {
            self.settle_span(to);
        }
    }

    /// Runs the command edges in `[settled_until, to)` in cycle order, as
    /// ticks would, and settles the spans between them. No transaction
    /// completes before `to`: a caller that ticks only at `next_event_at`
    /// is ticked at every completion.
    #[cold]
    #[inline(never)]
    fn catch_up(&mut self, to: Cycle) {
        let cmd_cycle = self.device.timing().cmd_cycle;
        loop {
            let edge = self.command_edge(self.settled_until);
            if edge >= to {
                break;
            }
            self.settle_span(edge);
            self.schedule(edge);
            self.count_faw_stalls(edge, edge + cmd_cycle);
            self.settled_until = edge + 1;
        }
        self.settle_span(to);
        debug_assert!(self.next_done >= to, "a completion before {to} was skipped");
    }

    /// Passes the cycles of `[settled_until, to)`, none of which holds a
    /// command edge that acts: their stall charges join the owed ones,
    /// which only an issued command changes, and their tFAW stalls are
    /// counted.
    fn settle_span(&mut self, to: Cycle) {
        let from = self.settled_until;
        if to <= from {
            return;
        }
        self.settled_until = to;
        if self.plan.faw_banks == 0 {
            return;
        }
        let cmd_cycle = self.device.timing().cmd_cycle;
        let first = from.next_multiple_of(cmd_cycle);
        if first < to {
            self.count_faw_stalls(first, to.next_multiple_of(cmd_cycle));
        }
    }

    /// Pays the stall charges owed up to bus edge `to` by every bank head
    /// (with `heads`) and by the queue waits of the banks in `waits`,
    /// before a change that moves them.
    fn pay(&mut self, to: Cycle, heads: bool, waits: Range<usize>) {
        let Self {
            plan,
            leak,
            stalls,
            owed,
            refresh_pending,
            ..
        } = self;
        let view = Stalls {
            plan,
            leak,
            refresh_pending: *refresh_pending,
        };
        if heads {
            for b in bits(plan.pending) {
                debug_assert!(owed[b].head <= to, "stalls paid past {to}");
                view.head(stalls, b, owed[b].head, to);
                owed[b].head = to;
            }
        }
        for b in waits {
            debug_assert!(owed[b].waits <= to, "stalls paid past {to}");
            view.waits(stalls, b, owed[b].waits, to);
            owed[b].waits = to;
        }
    }

    /// Counts the tFAW stalls of the bus edges in `[from, to)` (both
    /// edges) into the bank statistics, which are read by reference and so
    /// kept current.
    fn count_faw_stalls(&mut self, from: Cycle, to: Cycle) {
        for b in bits(self.plan.faw_banks) {
            let horizon = self.plan.heads[b]
                .expect("a tFAW-held bank has a head")
                .horizon;
            self.stats.banks[b].faw_stall_cycles += to.min(horizon).saturating_sub(from);
        }
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
        self.plan.row_policy
    }

    /// Issues at most one DRAM command at `now` (must be a bus edge), then
    /// updates the plan if one issued. Stall charges owed before `now` are
    /// paid before anything they are resolved against moves.
    fn schedule(&mut self, now: Cycle) {
        // Refresh has priority: drain open banks, then REF.
        if self.device.refresh_due(now) && !self.refresh_pending {
            // A pending drain charges legal heads to refresh.
            self.pay(now, true, 0..0);
            self.refresh_pending = true;
        }
        if self.refresh_pending {
            // Normal scheduling waits until the REF itself has issued.
            let Some(cmd) = self.refresh_cmd(now) else {
                return;
            };
            self.pay(now, true, 0..self.owed.len());
            self.device.issue(cmd, now);
            self.note_cmd(cmd, now, None);
            match cmd.bank() {
                Some(bank) => self.plan.update(bank, None, &self.device),
                None => {
                    self.refresh_pending = false;
                    self.stats.refreshes = self.device.refreshes();
                    self.stats.energy.record_refresh();
                    self.plan.rebuild(&self.txq, &self.device);
                }
            }
            return;
        }
        if now < self.plan.pick_from() {
            return;
        }
        let p = self
            .plan
            .pick(now)
            .expect("a command is legal from the plan's pick horizon");
        let b = p.bank as usize;
        self.pay(now, true, b..b + 1);
        if is_column(p.cmd) {
            self.issue_column(&p, now);
            self.plan.update(p.bank, Some(p.seq), &self.device);
        } else {
            self.device.issue(p.cmd, now);
            self.note_cmd(p.cmd, now, Some(p.domain));
            self.plan.update(p.bank, None, &self.device);
        }
        debug_assert!(
            self.plan.heads.iter().flatten().all(|h| h.horizon > now),
            "the command bus holds every head past the issue edge"
        );
    }

    /// The refresh-drain command legal at `now`: a precharge of an open
    /// bank, then REF once every bank is idle. `None` while waiting for
    /// in-progress accesses and precharges.
    fn refresh_cmd(&self, now: Cycle) -> Option<DramCommand> {
        let legal = |cmd: &DramCommand| self.device.horizon(*cmd).0 <= now;
        if self.device.all_banks_idle() {
            return Some(DramCommand::Refresh).filter(legal);
        }
        (0..self.device.bank_count())
            .filter(|&b| self.device.bank(b).open_row().is_some())
            .map(|bank| DramCommand::Precharge { bank })
            .find(legal)
    }

    fn issue_column(&mut self, p: &Pick, now: Cycle) {
        let idx = self
            .txq
            .binary_search_by_key(&p.seq, |t| t.seq)
            .expect("a planned transaction is queued");
        let txn = &self.txq[idx];
        let (bank, arrived) = (txn.loc.bank as usize, txn.arrived);
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
            .issue(p.cmd, now)
            .expect("column returns data time");
        self.note_cmd(p.cmd, now, Some(p.domain));
        self.txq[idx].state = TxnState::Issued { done };
        self.next_done = self.next_done.min(done);
    }

    /// Panics unless the plan equals one rebuilt from scratch into
    /// `fresh` (any plan of this controller's shape, reused across calls).
    #[cfg(test)]
    fn assert_plan_fresh(&self, fresh: &mut Option<Plan>) {
        let fresh = fresh.get_or_insert_with(|| {
            let modes = (self.plan.policy, self.plan.row_policy);
            Plan::new(self.capacity, self.plan.heads.len(), modes, &self.device)
        });
        fresh.rebuild(&self.txq, &self.device);
        assert_eq!(self.plan, *fresh, "stale scheduler plan");
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

fn is_column(cmd: DramCommand) -> bool {
    matches!(cmd, DramCommand::Read { .. } | DramCommand::Write { .. })
}

/// The column command of a read or `write` to `bank`.
fn column_cmd(bank: u32, write: bool, auto_precharge: bool) -> DramCommand {
    if write {
        DramCommand::Write {
            bank,
            auto_precharge,
        }
    } else {
        DramCommand::Read {
            bank,
            auto_precharge,
        }
    }
}

/// The next command pending `p` to `bank` needs given the bank's open row:
/// its column access on a row hit, PRE on a conflict, ACT on an idle bank.
fn required_cmd(
    bank: u32,
    open_row: Option<RowId>,
    p: Pending,
    auto_precharge: bool,
) -> DramCommand {
    match open_row {
        Some(row) if row == p.row => column_cmd(bank, p.write, auto_precharge),
        Some(_) => DramCommand::Precharge { bank },
        None => DramCommand::Activate { bank, row: p.row },
    }
}

impl MemorySubsystem for MemoryController {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        if self.txq.len() >= self.capacity {
            return Err(req);
        }
        if self.settled_until < now {
            self.advance(now);
        }
        let loc = self.mapper.decode(req.addr);
        self.tracer.record(now, || EventKind::TxqEnqueue {
            id: req.id,
            domain: req.domain,
            bank: loc.bank,
        });
        let txn = Txn {
            seq: self.next_seq,
            req,
            loc,
            arrived: now,
            state: TxnState::Pending,
        };
        self.next_seq += 1;
        // The new transaction is charged from the first edge not yet
        // passed: as a new head, or as one more wait behind its bank's.
        let (b, from) = (loc.bank as usize, self.first_unpassed_edge());
        if self.plan.heads[b].is_none() {
            self.owed[b].head = from;
        }
        self.pay(from, false, b..b + 1);
        self.plan.push(&txn);
        self.txq.push_back(txn);
        self.tracer.record(now, || EventKind::TxqOccupancy {
            count: self.txq.len() as u32,
        });
        Ok(())
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        let _prof = dg_prof::span("controller");
        if self.settled_until < now {
            self.advance(now);
        }
        self.collect_into(now, out);
        let cmd_cycle = self.device.timing().cmd_cycle;
        if now.is_multiple_of(cmd_cycle) {
            let _prof = dg_prof::span("dram_device");
            self.schedule(now);
            self.count_faw_stalls(now, now + cmd_cycle);
        }
        self.settled_until = now + 1;
    }

    /// Without a tracer, only completions: a lower bound on the next one
    /// (the issued transactions' earliest `done`, and the scheduler plan's
    /// bound on the pending ones), read, not recomputed. Command edges and
    /// refresh change nothing a core sees — a slot frees only at a
    /// completion — so they run at the next contact instead. Each command
    /// issued only moves the bound later, so a catch-up never moves the
    /// answer earlier.
    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if !self.lazy {
            return self.next_event_at_eager(now);
        }
        let at = self.next_done.min(self.plan.done_from);
        (at != Cycle::MAX).then(|| at.max(now))
    }

    fn next_event_at_eager(&self, now: Cycle) -> Option<Cycle> {
        // Completions are collected the cycle `done` is reached.
        Some(self.command_edge(now).min(self.next_done.max(now)))
    }

    /// Passes the skipped cycles before `to`, running any command edge
    /// among them first (a lazy controller's catch-up). Cycles already
    /// passed are skipped, so overlapping calls count each edge once.
    fn settle_warp(&mut self, _from: Cycle, to: Cycle, _refused: &[MemRequest]) {
        if to > self.settled_until {
            self.advance(to);
        }
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
        self.lazy = !tracer.enabled();
        self.tracer = tracer;
    }

    fn interference(&self) -> Option<InterferenceReport> {
        Some(self.interference_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::types::{DomainId, ReqId};
    use proptest::prelude::*;

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
    /// for and settles the spans in between. `observe` sees the controller
    /// after every tick and every send.
    fn drive(
        mc: &mut MemoryController,
        sends: &[(Cycle, MemRequest)],
        horizon: Cycle,
        skipping: bool,
        mut observe: impl FnMut(&MemoryController),
    ) -> (Vec<(Cycle, u64)>, u64) {
        let (mut out, mut ticks, mut next_send) = (Vec::new(), 0, 0);
        let mut now = 0;
        while now < horizon {
            out.extend(mc.tick(now).iter().map(|r| (now, r.id.0)));
            observe(mc);
            ticks += 1;
            while next_send < sends.len() && sends[next_send].0 == now {
                let _ = mc.try_send(sends[next_send].1, now);
                observe(mc);
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

    /// Bursts of two domains' requests spread over every bank (tRRD and
    /// tFAW bind), piled onto one bank (bank busy, queue waits), and mixing
    /// reads and writes (bus turnaround), across two refreshes.
    fn stress_sends() -> Vec<(Cycle, MemRequest)> {
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
        sends
    }

    /// Horizon covering the whole of [`stress_sends`] plus two refreshes.
    const STRESS_HORIZON: Cycle = 62_000;

    #[test]
    fn event_driven_ticking_with_settlement_matches_every_cycle() {
        // The default clock ratio spaces command-bus edges several CPU
        // cycles apart, so settlement must count edges, not cycles.
        //
        // The controller wakes only at a lower bound on its next
        // completion; the command edges and refreshes before it run at its
        // next contact, here the settle of the skipped span. The pinned
        // tick counts show them gone (3,094, 4,469 and 3,017 ticks waking
        // at every issue and refresh edge), while the responses, bank
        // counters and interference still equal the every-cycle drive's.
        let sends = stress_sends();
        for (policy, row, pinned_ticks) in [
            (SchedPolicy::FrFcfs, RowPolicy::Closed, 1_298),
            (SchedPolicy::FrFcfs, RowPolicy::Open, 1_499),
            (SchedPolicy::Fcfs, RowPolicy::Open, 1_280),
        ] {
            let c = SystemConfig::two_core().with_row_policy(row);
            let horizon = STRESS_HORIZON;
            let mut every = MemoryController::new(&c, policy);
            let mut evented = MemoryController::new(&c, policy);
            let (out_every, ticks_every) = drive(&mut every, &sends, horizon, false, |_| {});
            let (out_evented, ticks_evented) = drive(&mut evented, &sends, horizon, true, |_| {});
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
            assert_eq!(ticks_evented, pinned_ticks, "{what}: event-driven ticks");
            let report = every.interference_report();
            assert!(report.total_stall_cycles > 0, "{what}: stalls charged");
            if row == RowPolicy::Closed {
                let faw: u64 = every.stats().banks.iter().map(|b| b.faw_stall_cycles).sum();
                assert!(faw > 0, "{what}: tFAW must bind");
            }
        }
    }

    /// FNV-1a over a stream of numbers: a compact pin for golden values.
    fn fnv(values: impl IntoIterator<Item = u64>) -> u64 {
        values
            .into_iter()
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    #[test]
    fn stress_schedule_outputs_are_pinned() {
        // Hashes of the responses, the interference report and the per-bank
        // stats of the stress schedule under every scheduler/row policy
        // pair, on both drives. Any change to scheduling or attribution
        // order, however small, moves one of them. Only the numbers are
        // hashed, in a fixed order, so a new field or a formatting change
        // leaves the pins alone.
        let sends = stress_sends();
        let mut got = Vec::new();
        for (policy, row) in [
            (SchedPolicy::FrFcfs, RowPolicy::Closed),
            (SchedPolicy::FrFcfs, RowPolicy::Open),
            (SchedPolicy::Fcfs, RowPolicy::Open),
            (SchedPolicy::Fcfs, RowPolicy::Closed),
        ] {
            let c = SystemConfig::two_core().with_row_policy(row);
            for skipping in [false, true] {
                let mut mc = MemoryController::new(&c, policy);
                let (out, _) = drive(&mut mc, &sends, STRESS_HORIZON, skipping, |_| {});
                let report = mc.interference_report();
                let interference = [report.domains as u64, report.total_stall_cycles]
                    .into_iter()
                    .chain(report.matrix.iter().flatten().copied())
                    .chain(report.by_cause.iter().map(|c| c.cycles));
                let banks = mc.stats().banks.iter().flat_map(|b| {
                    [
                        b.acts,
                        b.row_hits,
                        b.row_misses,
                        b.precharges,
                        b.faw_stall_cycles,
                    ]
                });
                got.push((
                    format!("{policy:?}/{row:?}/skipping={skipping}"),
                    [
                        fnv(out.iter().flat_map(|&(cycle, id)| [cycle, id])),
                        fnv(interference),
                        fnv(banks),
                    ],
                ));
            }
        }
        let expected: [[u64; 3]; 4] = [
            [0xde0071f4c07ca0fa, 0xa7728c70a92e9a83, 0x84199e521202657c],
            [0xe72183697d17e60f, 0xccc41e313c5b0353, 0x3c1cfb1bdfff6bad],
            [0x46663928ffd321ec, 0x6bcd3ebe8fe9c5b2, 0x00f8af9db3a14546],
            [0x42883e38713decff, 0x4641f8a678daf139, 0x6572d8cef27adb4d],
        ];
        for (i, (what, hashes)) in got.iter().enumerate() {
            assert_eq!(*hashes, expected[i / 2], "{what}");
        }
    }

    #[test]
    fn plan_matches_a_rebuild_after_every_tick_and_send() {
        // A missed plan update would silently move a stall charge or an
        // issue edge; here it fails instead. The counters prove the
        // schedule reaches the states an update must track.
        let sends = stress_sends();
        let (mut drains, mut conflicts, mut queued_hits) = (0u64, 0u64, 0u64);
        for (policy, row) in [
            (SchedPolicy::FrFcfs, RowPolicy::Closed),
            (SchedPolicy::FrFcfs, RowPolicy::Open),
            (SchedPolicy::Fcfs, RowPolicy::Open),
            (SchedPolicy::Fcfs, RowPolicy::Closed),
        ] {
            let c = SystemConfig::two_core().with_row_policy(row);
            for skipping in [false, true] {
                let (mut mc, mut fresh) = (MemoryController::new(&c, policy), None);
                drive(&mut mc, &sends, STRESS_HORIZON, skipping, |mc| {
                    mc.assert_plan_fresh(&mut fresh);
                    let banks = &mc.plan.banks;
                    let pending = banks.iter().any(|b| !b.queue.is_empty());
                    drains += u64::from(mc.refresh_pending && pending);
                    conflicts += u64::from(banks.iter().any(|b| b.first_conflict.is_some()));
                    queued_hits += u64::from(
                        banks
                            .iter()
                            .any(|b| b.queue.iter().skip(1).any(|p| Some(p.row) == b.open_row)),
                    );
                });
            }
        }
        println!("drains {drains}, conflicts {conflicts}, queued row hits {queued_hits}");
        assert!(drains > 0, "no refresh drain with transactions pending");
        assert!(conflicts > 0, "no open-row conflict");
        assert!(queued_hits > 0, "no row hit behind its bank head");
    }

    /// Seeded random traffic from three domains, piled onto few banks and
    /// rows (row hits behind heads, conflicts, queue waits), reads mixed
    /// with writes, in bursts and gaps.
    fn random_sends(seed: u64, mapper: &AddressMapper) -> Vec<(Cycle, MemRequest)> {
        let mut rng = dg_sim::rng::DetRng::new(seed);
        let mut sends = Vec::new();
        let mut at = 0;
        for id in 0..64u64 {
            if rng.next_below(3) == 0 {
                at += rng.next_below(60);
            }
            let banks = if seed.is_multiple_of(2) { 8 } else { 3 };
            let loc = PhysLoc {
                bank: rng.next_below(banks) as u32,
                row: rng.next_below(3),
                col: rng.next_below(4),
            };
            let domain = DomainId(rng.next_below(3) as u16);
            let addr = mapper.encode(loc);
            let req = if rng.next_below(4) == 0 {
                MemRequest::write(domain, addr, at)
            } else {
                MemRequest::read(domain, addr, at)
            };
            sends.push((at, req.with_id(ReqId(id))));
        }
        sends
    }

    #[test]
    fn plan_matches_a_rebuild_under_random_schedules_on_both_drives() {
        // The incremental plan, derived views included, equals a rebuild
        // after every tick and send of seeded random schedules, and both
        // drives agree on everything the plan feeds: a short refresh
        // interval puts drains among the schedules.
        let (mut drains, mut conflicts, mut queued_hits) = (0u64, 0u64, 0u64);
        for seed in 0..64u64 {
            for (policy, row) in [
                (SchedPolicy::FrFcfs, RowPolicy::Closed),
                (SchedPolicy::FrFcfs, RowPolicy::Open),
                (SchedPolicy::Fcfs, RowPolicy::Open),
                (SchedPolicy::Fcfs, RowPolicy::Closed),
            ] {
                let mut c = SystemConfig::two_core().with_row_policy(row);
                (c.timing.tREFI, c.timing.tRFC) = (200, 40);
                let horizon = 1_500;
                let mapper = *MemoryController::new(&c, policy).mapper();
                let sends = random_sends(seed, &mapper);
                let mut runs = Vec::new();
                for skipping in [false, true] {
                    let (mut mc, mut fresh) = (MemoryController::new(&c, policy), None);
                    let (out, _) = drive(&mut mc, &sends, horizon, skipping, |mc| {
                        mc.assert_plan_fresh(&mut fresh);
                        let banks = &mc.plan.banks;
                        let pending = banks.iter().any(|b| !b.queue.is_empty());
                        drains += u64::from(mc.refresh_pending && pending);
                        conflicts += u64::from(banks.iter().any(|b| b.first_conflict.is_some()));
                        queued_hits +=
                            u64::from(banks.iter().any(|b| {
                                b.queue.iter().skip(1).any(|p| Some(p.row) == b.open_row)
                            }));
                    });
                    runs.push((out, mc.interference_report(), mc.stats().banks.clone()));
                }
                let what = format!("seed {seed} {policy:?}/{row:?}");
                assert!(!runs[0].0.is_empty(), "{what}: nothing served");
                assert_eq!(runs[0], runs[1], "{what}: every-cycle vs event-driven");
            }
        }
        println!("drains {drains}, conflicts {conflicts}, queued row hits {queued_hits}");
        assert!(drains > 0, "no refresh drain with transactions pending");
        assert!(conflicts > 0, "no row conflict");
        assert!(queued_hits > 0, "no row hit behind its bank head");
    }

    /// Whether `answer` is no earlier than `promise` (`None`: never).
    fn not_earlier(answer: Option<Cycle>, promise: Option<Cycle>) -> bool {
        dg_sim::clock::earliest_event(answer, promise) == promise
    }

    /// Ticks `mc` at `now`, checks its responses against `promise` (the
    /// answer it gave before the tick) and appends them to `out`. With no
    /// input since that answer, a tick only passes edges and completions,
    /// so the answer after it may not be earlier: the engine keeps an
    /// answer across such contacts and relies on it.
    fn tick_checked(
        mc: &mut MemoryController,
        now: Cycle,
        promise: Option<Cycle>,
        input: bool,
        out: &mut Vec<(Cycle, u64)>,
    ) {
        for r in mc.tick(now) {
            assert!(
                promise.is_some_and(|p| r.completed_at >= p),
                "{:?} completed at {} before the promise {promise:?}",
                r.id,
                r.completed_at
            );
            out.push((now, r.id.0));
        }
        let answer = mc.next_event_at(now + 1);
        assert!(
            input || not_earlier(answer, promise),
            "answer moved from {promise:?} to {answer:?} at {now}"
        );
    }

    /// Drives `mc` through `sends` (sorted; refused ones are dropped) for
    /// `horizon` cycles and returns the responses: every cycle, or (`lazy`)
    /// only at the cycles `next_event_at` promised, at sends and at the
    /// last cycle, without ever settling a skipped span — the controller
    /// catches up at each contact by itself. Also returns the tick count.
    fn drive_contacts(
        mc: &mut MemoryController,
        sends: &[(Cycle, MemRequest)],
        horizon: Cycle,
        lazy: bool,
    ) -> (Vec<(Cycle, u64)>, u64) {
        let (mut out, mut next_send, mut ticks) = (Vec::new(), 0, 0);
        let (mut now, mut promise, mut input) = (0, mc.next_event_at(0), true);
        while now < horizon {
            tick_checked(mc, now, promise, input, &mut out);
            ticks += 1;
            input = false;
            while let Some(&(_, req)) = sends.get(next_send).filter(|s| s.0 == now) {
                input |= mc.try_send(req, now).is_ok();
                next_send += 1;
            }
            promise = mc.next_event_at(now + 1);
            let mut next = now + 1;
            if lazy && next < horizon - 1 {
                let send_at = sends.get(next_send).map_or(horizon, |s| s.0);
                next = promise.map_or(horizon, |p| p.min(horizon)).min(send_at);
                next = next.min(horizon - 1);
            }
            now = next;
        }
        (out, ticks)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// A controller ticked only at its promises and at sends, catching
        /// up at each contact, serves exactly what an every-cycle twin
        /// serves: responses, bank counters (tFAW stalls included) and
        /// interference, over schedules spanning several refreshes under
        /// both row and both scheduling policies. No completion lands
        /// before a promise and no promise moves earlier without input.
        #[test]
        fn lazy_controller_ticked_at_promises_matches_every_cycle(
            banks in 1u32..9,
            reqs in prop::collection::vec(
                (0u64..3, 0u64..90, 0u32..8, 0u64..3, 0u64..4, 0u16..3),
                1..64,
            ),
        ) {
            for (policy, row) in [
                (SchedPolicy::FrFcfs, RowPolicy::Closed),
                (SchedPolicy::FrFcfs, RowPolicy::Open),
                (SchedPolicy::Fcfs, RowPolicy::Open),
                (SchedPolicy::Fcfs, RowPolicy::Closed),
            ] {
                let mut c = SystemConfig::two_core().with_row_policy(row);
                (c.timing.tREFI, c.timing.tRFC) = (200, 40);
                let mapper = *MemoryController::new(&c, policy).mapper();
                let (mut at, mut sends) = (0, Vec::new());
                for (id, &(burst, gap, bank, row_id, kind, domain)) in reqs.iter().enumerate() {
                    at += if burst == 0 { gap } else { 0 };
                    let loc = PhysLoc { bank: bank % banks, row: row_id, col: id as u64 % 4 };
                    let (domain, addr) = (DomainId(domain), mapper.encode(loc));
                    let req = if kind == 0 {
                        MemRequest::write(domain, addr, at)
                    } else {
                        MemRequest::read(domain, addr, at)
                    };
                    sends.push((at, req.with_id(ReqId(id as u64))));
                }
                let horizon = at + 2_500;
                let (mut runs, mut ticks) = (Vec::new(), Vec::new());
                for lazy in [false, true] {
                    let mut mc = MemoryController::new(&c, policy);
                    let (out, n) = drive_contacts(&mut mc, &sends, horizon, lazy);
                    prop_assert!(mc.device.refreshes() >= 2, "{policy:?}/{row:?}: refreshes");
                    ticks.push(n);
                    runs.push((out, mc.stats().banks.clone(), mc.interference_report()));
                }
                let what = format!("{policy:?}/{row:?}, {} sends", sends.len());
                prop_assert_eq!(&runs[0], &runs[1], "{}: every cycle vs lazy", what);
                prop_assert!(ticks[1] * 4 < ticks[0], "{what}: ticks {ticks:?}");
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
