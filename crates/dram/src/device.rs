//! The rank-level device model: banks plus shared command bus, data bus,
//! activation-window and refresh constraints.

use dg_sim::clock::{ClockRatio, Cycle};
use dg_sim::config::{DramOrg, DramTiming};
use serde::{Deserialize, Serialize};

use crate::bank::Bank;
use crate::command::{BankId, DramCommand};
use crate::timing::CpuTiming;

/// Last column operation type, for bus turnaround accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum LastCol {
    None,
    Read { data_end: Cycle },
    Write { data_end: Cycle },
}

/// The device-level constraint that holds a command back, as reported by
/// [`DramDevice::horizon`] and [`DramDevice::blocking_reason`]. Deliberately
/// device-local (no domains, no observability types) so higher layers can
/// map it onto their own attribution categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BlockReason {
    /// The target bank's own timing horizon (tRCD/tRAS/tRP/tRC/tWR).
    Bank,
    /// ACT-to-ACT spacing across banks (tRRD).
    Rrd,
    /// The four-activate window (tFAW).
    Faw,
    /// Data-bus occupancy or turnaround (tCCD, read↔write padding).
    Bus,
    /// The shared command bus is carrying another command this edge.
    CmdBus,
    /// A refresh is in progress (tRFC).
    Refresh,
}

/// The rank-wide part of [`DramDevice::horizon`] for every command kind,
/// as [`DramDevice::rank_horizons`] returns it: the in-progress refresh,
/// and per kind the latest of its activation-window or data-bus terms and
/// the command bus, folded in `horizon`'s tie order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankHorizons {
    refresh_until: Cycle,
    act: (Cycle, BlockReason),
    read: (Cycle, BlockReason),
    write: (Cycle, BlockReason),
    /// PRE and REF wait on the command bus alone.
    cmd_bus: Cycle,
}

impl RankHorizons {
    /// [`DramDevice::horizon`] of `cmd` whose own bank contributes
    /// `bank_horizon` ([`DramDevice::bank_horizon`]), for the device state
    /// this snapshot was taken in: the same cycle and the same reason, in
    /// two compares.
    #[inline]
    pub fn horizon(&self, cmd: DramCommand, bank_horizon: Cycle) -> (Cycle, BlockReason) {
        let tail = match cmd {
            DramCommand::Activate { .. } => self.act,
            DramCommand::Read { .. } => self.read,
            DramCommand::Write { .. } => self.write,
            DramCommand::Precharge { .. } | DramCommand::Refresh => {
                (self.cmd_bus, BlockReason::CmdBus)
            }
        };
        let mut best = (self.refresh_until, BlockReason::Refresh);
        if bank_horizon > best.0 {
            best = (bank_horizon, BlockReason::Bank);
        }
        if tail.0 > best.0 {
            best = tail;
        }
        best
    }
}

/// The latest of `terms`; the earliest-listed term wins a tie.
fn latest(terms: impl IntoIterator<Item = (Cycle, BlockReason)>) -> (Cycle, BlockReason) {
    terms
        .into_iter()
        .reduce(|best, t| if t.0 > best.0 { t } else { best })
        .expect("at least one term")
}

/// A single-channel, single-rank DRAM device.
///
/// The device answers two questions for the memory-controller scheduler:
/// [`horizon`](Self::horizon) — "from which bus edge, and held back by
/// what, could this command legally issue?", with
/// [`earliest`](Self::earliest) and
/// [`blocking_reason`](Self::blocking_reason) as its views at a given
/// cycle — and [`issue`](Self::issue) — "apply it". Column commands return
/// the cycle at which the last data beat leaves the device, which the
/// controller uses as the transaction completion time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramDevice {
    timing: CpuTiming,
    banks: Vec<Bank>,
    /// Earliest cycle the shared command bus is free.
    next_cmd: Cycle,
    /// Earliest cycle an ACT to *any* bank is allowed (tRRD).
    next_act_any: Cycle,
    /// Issue times of the four most recent ACTs (tFAW window).
    recent_acts: [Cycle; 4],
    recent_act_idx: usize,
    n_recent_acts: usize,
    last_col: LastCol,
    /// Earliest column command as constrained by tCCD on the channel.
    next_col_any: Cycle,
    /// Next refresh deadline.
    refresh_due: Cycle,
    /// Cycle the in-progress refresh completes (0 when none).
    refresh_until: Cycle,
    /// Count of issued refreshes (statistics).
    refreshes: u64,
    /// The rank-wide horizon terms of the fields above, refolded by
    /// [`issue`](Self::issue), their only mutator.
    rank: RankHorizons,
}

impl DramDevice {
    /// Builds a device from the Table 2 organization/timing, converting all
    /// parameters into CPU cycles with `ratio`.
    pub fn new(org: DramOrg, timing: DramTiming, ratio: ClockRatio) -> Self {
        let t = CpuTiming::from_dram(timing, ratio);
        let mut device = Self {
            banks: vec![Bank::new(); org.banks as usize],
            next_cmd: 0,
            next_act_any: 0,
            recent_acts: [0; 4],
            recent_act_idx: 0,
            n_recent_acts: 0,
            last_col: LastCol::None,
            next_col_any: 0,
            refresh_due: t.tREFI,
            refresh_until: 0,
            refreshes: 0,
            timing: t,
            rank: RankHorizons {
                refresh_until: 0,
                act: (0, BlockReason::Rrd),
                read: (0, BlockReason::Bus),
                write: (0, BlockReason::Bus),
                cmd_bus: 0,
            },
        };
        device.rank = device.fold_rank();
        device
    }

    /// The converted timing parameters in CPU cycles.
    pub fn timing(&self) -> &CpuTiming {
        &self.timing
    }

    /// Number of banks.
    pub fn bank_count(&self) -> u32 {
        self.banks.len() as u32
    }

    /// Read-only view of a bank.
    ///
    /// # Panics
    ///
    /// Panics if `bank` is out of range.
    pub fn bank(&self, bank: BankId) -> &Bank {
        &self.banks[bank as usize]
    }

    /// True when a refresh should be scheduled at or before `now`.
    pub fn refresh_due(&self, now: Cycle) -> bool {
        now >= self.refresh_due
    }

    /// The absolute cycle at which the next refresh becomes due. Event-driven
    /// schedulers use this to wake for refresh maintenance even when no
    /// transactions are queued.
    pub fn refresh_deadline(&self) -> Cycle {
        self.refresh_due
    }

    /// Number of refreshes performed so far.
    pub fn refreshes(&self) -> u64 {
        self.refreshes
    }

    /// Returns true when every bank is precharged (required before REF).
    pub fn all_banks_idle(&self) -> bool {
        self.banks.iter().all(|b| b.open_row().is_none())
    }

    /// The latest device horizon holding `cmd` back, and the constraint it
    /// belongs to: `cmd` may issue on any command-bus edge at or after the
    /// returned cycle, which is itself a bus edge. Independent of the
    /// current cycle, so it stays valid until the next [`issue`](Self::issue).
    ///
    /// Ties are resolved toward the more specific reason: refresh beats the
    /// bank horizons it also pushed ("refresh" is the more informative
    /// answer), and bank and window constraints beat generic command-bus
    /// occupancy. Pure observation: never mutates device state, so
    /// attribution layers can call it freely without perturbing timing.
    pub fn horizon(&self, cmd: DramCommand) -> (Cycle, BlockReason) {
        let best = self.rank.horizon(cmd, self.bank_horizon(cmd));
        // Every horizon is an issue edge plus whole DRAM cycles.
        debug_assert!(
            best.0.is_multiple_of(self.timing.cmd_cycle),
            "horizon {} of {cmd} off the command-bus grid",
            best.0
        );
        best
    }

    /// The term of [`horizon`](Self::horizon) that `cmd`'s own bank sets
    /// (tRCD/tRAS/tRP/tRC/tWR; REF waits on every bank's precharge). Only
    /// an issue to that bank, or a REF, moves it.
    pub fn bank_horizon(&self, cmd: DramCommand) -> Cycle {
        match cmd {
            DramCommand::Activate { bank, .. } => self.banks[bank as usize].earliest_activate(),
            DramCommand::Read { bank, .. } | DramCommand::Write { bank, .. } => {
                self.banks[bank as usize].earliest_column()
            }
            DramCommand::Precharge { bank } => self.banks[bank as usize].earliest_precharge(),
            // REF may issue once every bank could accept an ACT, i.e. all
            // precharges have completed.
            DramCommand::Refresh => self
                .banks
                .iter()
                .map(|b| b.earliest_activate())
                .max()
                .unwrap_or(0),
        }
    }

    /// The rank-wide terms of [`horizon`](Self::horizon) for every command
    /// kind, as of now: valid until the next [`issue`](Self::issue). A
    /// scheduler that keeps each pending command's
    /// [`bank_horizon`](Self::bank_horizon) combines the two with
    /// [`RankHorizons::horizon`] instead of asking the device per command.
    pub fn rank_horizons(&self) -> RankHorizons {
        self.rank
    }

    /// Folds the rank-wide terms per command kind, in `horizon`'s tie
    /// order: refresh, then (with the bank's own term between them, see
    /// [`RankHorizons::horizon`]) the activation window or data bus, then
    /// the command bus.
    fn fold_rank(&self) -> RankHorizons {
        let tail = |cmd: DramCommand| latest(self.rank_terms(cmd));
        RankHorizons {
            refresh_until: self.refresh_until,
            act: tail(DramCommand::Activate { bank: 0, row: 0 }),
            read: tail(DramCommand::Read {
                bank: 0,
                auto_precharge: false,
            }),
            write: tail(DramCommand::Write {
                bank: 0,
                auto_precharge: false,
            }),
            cmd_bus: self.next_cmd,
        }
    }

    /// The rank-wide horizons holding `cmd` back, in tie-priority order:
    /// the activation window or the data bus, then the command bus (unused
    /// slots are `0`, which never binds).
    fn rank_terms(&self, cmd: DramCommand) -> [(Cycle, BlockReason); 3] {
        let cmd_bus = (self.next_cmd, BlockReason::CmdBus);
        match cmd {
            DramCommand::Activate { .. } => [
                (self.next_act_any, BlockReason::Rrd),
                (self.faw_horizon(), BlockReason::Faw),
                cmd_bus,
            ],
            DramCommand::Read { .. } => [
                (self.next_col_any, BlockReason::Bus),
                (self.read_turnaround(), BlockReason::Bus),
                cmd_bus,
            ],
            DramCommand::Write { .. } => [
                (self.next_col_any, BlockReason::Bus),
                (self.write_turnaround(), BlockReason::Bus),
                cmd_bus,
            ],
            DramCommand::Precharge { .. } | DramCommand::Refresh => {
                [cmd_bus, (0, BlockReason::CmdBus), (0, BlockReason::CmdBus)]
            }
        }
    }

    /// Earliest cycle ≥ `now` at which `cmd` may legally issue.
    ///
    /// The result is aligned to a DRAM command-bus edge.
    pub fn earliest(&self, cmd: DramCommand, now: Cycle) -> Cycle {
        now.max(self.horizon(cmd).0)
            .next_multiple_of(self.timing.cmd_cycle)
    }

    /// The binding constraint preventing `cmd` from issuing at `now`, or
    /// `None` when it may issue now: the [`horizon`](Self::horizon)'s
    /// reason unless every horizon has passed and `now` is a bus edge.
    pub fn blocking_reason(&self, cmd: DramCommand, now: Cycle) -> Option<BlockReason> {
        let (at, reason) = self.horizon(cmd);
        let legal = at <= now && now.is_multiple_of(self.timing.cmd_cycle);
        (!legal).then_some(reason)
    }

    /// Earliest ACT as constrained by the four-activate window.
    fn faw_horizon(&self) -> Cycle {
        if self.n_recent_acts < 4 {
            0
        } else {
            // The oldest of the last four ACTs.
            self.recent_acts[self.recent_act_idx] + self.timing.tFAW
        }
    }

    /// Earliest RD command as constrained by the previous column operation.
    fn read_turnaround(&self) -> Cycle {
        match self.last_col {
            LastCol::None => 0,
            // Consecutive reads: the new burst must not overlap the old one.
            LastCol::Read { data_end } => data_end.saturating_sub(self.timing.tCAS),
            // Write-to-read: tWTR after the last write data beat.
            LastCol::Write { data_end } => data_end + self.timing.tWTR,
        }
    }

    /// Earliest WR command as constrained by the previous column operation.
    fn write_turnaround(&self) -> Cycle {
        match self.last_col {
            LastCol::None => 0,
            // Read-to-write: bus turnaround pad after the read burst.
            LastCol::Read { data_end } => {
                (data_end + self.timing.tRTRS).saturating_sub(self.timing.tCWD)
            }
            LastCol::Write { data_end } => data_end.saturating_sub(self.timing.tCWD),
        }
    }

    /// Issues `cmd` at cycle `t`, advancing device state.
    ///
    /// Returns the data completion time for column commands (`RD`: last read
    /// beat leaves the device; `WR`: last write beat accepted), `None`
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than [`earliest`](Self::earliest) allows —
    /// schedulers must only issue legal commands.
    pub fn issue(&mut self, cmd: DramCommand, t: Cycle) -> Option<Cycle> {
        assert!(t >= self.horizon(cmd).0, "illegal issue of {cmd} at {t}");
        assert!(
            t.is_multiple_of(self.timing.cmd_cycle),
            "command at {t} not on a DRAM bus edge"
        );
        self.next_cmd = t + self.timing.cmd_cycle;
        let done = match cmd {
            DramCommand::Activate { bank, row } => {
                self.banks[bank as usize].activate(t, row, &self.timing);
                self.next_act_any = t + self.timing.tRRD;
                self.recent_acts[self.recent_act_idx] = t;
                self.recent_act_idx = (self.recent_act_idx + 1) % 4;
                self.n_recent_acts = (self.n_recent_acts + 1).min(4);
                None
            }
            DramCommand::Read {
                bank,
                auto_precharge,
            } => {
                self.banks[bank as usize].read(t, auto_precharge, &self.timing);
                let data_end = t + self.timing.tCAS + self.timing.tBURST;
                self.last_col = LastCol::Read { data_end };
                self.next_col_any = t + self.timing.tCCD;
                Some(data_end)
            }
            DramCommand::Write {
                bank,
                auto_precharge,
            } => {
                self.banks[bank as usize].write(t, auto_precharge, &self.timing);
                let data_end = t + self.timing.tCWD + self.timing.tBURST;
                self.last_col = LastCol::Write { data_end };
                self.next_col_any = t + self.timing.tCCD;
                Some(data_end)
            }
            DramCommand::Precharge { bank } => {
                self.banks[bank as usize].precharge(t, &self.timing);
                None
            }
            DramCommand::Refresh => {
                let done = t + self.timing.tRFC;
                for b in &mut self.banks {
                    b.refresh_until(done);
                }
                self.refresh_until = done;
                self.refresh_due += self.timing.tREFI;
                self.refreshes += 1;
                None
            }
        };
        self.rank = self.fold_rank();
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::config::{DramOrg, DramTiming};

    fn device() -> DramDevice {
        DramDevice::new(
            DramOrg::default(),
            DramTiming::default(),
            ClockRatio::new(1),
        )
    }

    fn act(bank: BankId, row: u64) -> DramCommand {
        DramCommand::Activate { bank, row }
    }

    fn rd(bank: BankId) -> DramCommand {
        DramCommand::Read {
            bank,
            auto_precharge: false,
        }
    }

    fn rda(bank: BankId) -> DramCommand {
        DramCommand::Read {
            bank,
            auto_precharge: true,
        }
    }

    fn wr(bank: BankId) -> DramCommand {
        DramCommand::Write {
            bank,
            auto_precharge: false,
        }
    }

    #[test]
    fn basic_read_sequence() {
        let mut d = device();
        let t0 = d.earliest(act(0, 5), 0);
        assert_eq!(t0, 0);
        d.issue(act(0, 5), t0);
        let t1 = d.earliest(rd(0), t0);
        assert_eq!(t1, t0 + d.timing().tRCD);
        let done = d.issue(rd(0), t1).unwrap();
        assert_eq!(done, t1 + d.timing().tCAS + d.timing().tBURST);
    }

    #[test]
    fn command_bus_serializes_commands() {
        let mut d = device();
        d.issue(act(0, 1), 0);
        // ACT to another bank is limited by tRRD (5 > 1 command cycle).
        let t = d.earliest(act(1, 1), 0);
        assert_eq!(t, d.timing().tRRD);
    }

    #[test]
    fn trrd_spaces_activates() {
        let mut d = device();
        d.issue(act(0, 1), 0);
        assert_eq!(d.earliest(act(1, 0), 0), d.timing().tRRD);
    }

    #[test]
    fn tfaw_limits_burst_of_activates() {
        let mut d = device();
        let t = *d.timing();
        let mut at = 0;
        for b in 0..4 {
            at = d.earliest(act(b, 0), at);
            d.issue(act(b, 0), at);
        }
        // Fifth ACT must wait for the FAW window from the first ACT.
        let fifth = d.earliest(act(4, 0), at);
        assert!(
            fifth >= t.tFAW,
            "fifth ACT at {fifth}, expected >= tFAW {}",
            t.tFAW
        );
    }

    #[test]
    fn consecutive_reads_gated_by_burst() {
        let mut d = device();
        d.issue(act(0, 1), 0);
        d.issue(act(1, 1), d.earliest(act(1, 1), 0));
        let t_rd0 = d.earliest(rd(0), 0);
        let end0 = d.issue(rd(0), t_rd0).unwrap();
        let t_rd1 = d.earliest(rd(1), t_rd0);
        // Second read's data must start after the first burst ends.
        assert!(t_rd1 + d.timing().tCAS >= end0);
        // And at least tCCD after the first RD command.
        assert!(t_rd1 >= t_rd0 + d.timing().tCCD);
    }

    #[test]
    fn write_to_read_turnaround() {
        let mut d = device();
        d.issue(act(0, 1), 0);
        d.issue(act(1, 1), d.earliest(act(1, 1), 0));
        let t_wr = d.earliest(wr(0), 0);
        let wr_end = d.issue(wr(0), t_wr).unwrap();
        let t_rd = d.earliest(rd(1), t_wr);
        assert!(
            t_rd >= wr_end + d.timing().tWTR,
            "read at {t_rd}, write data end {wr_end}"
        );
    }

    #[test]
    fn read_to_write_turnaround() {
        let mut d = device();
        d.issue(act(0, 1), 0);
        d.issue(act(1, 1), d.earliest(act(1, 1), 0));
        let t_rd = d.earliest(rd(0), 0);
        let rd_end = d.issue(rd(0), t_rd).unwrap();
        let t_wr = d.earliest(wr(1), t_rd);
        assert!(t_wr + d.timing().tCWD >= rd_end + d.timing().tRTRS);
    }

    #[test]
    fn auto_precharge_enables_reactivation() {
        let mut d = device();
        d.issue(act(0, 1), 0);
        let t_rd = d.earliest(rda(0), 0);
        d.issue(rda(0), t_rd);
        assert!(d.bank(0).open_row().is_none());
        let t_act = d.earliest(act(0, 2), t_rd);
        // Re-activation respects tRC and the auto-precharge + tRP.
        assert!(t_act >= d.timing().tRC.min(d.timing().tRAS + d.timing().tRP));
        d.issue(act(0, 2), t_act);
    }

    #[test]
    fn refresh_blocks_everything() {
        let mut d = device();
        assert!(!d.refresh_due(0));
        let due = d.timing().tREFI;
        assert!(d.refresh_due(due));
        let t = d.earliest(DramCommand::Refresh, due);
        d.issue(DramCommand::Refresh, t);
        assert_eq!(d.refreshes(), 1);
        let act_t = d.earliest(act(0, 1), t);
        assert!(act_t >= t + d.timing().tRFC);
        assert!(!d.refresh_due(t));
    }

    #[test]
    fn refresh_waits_for_open_banks() {
        let mut d = device();
        d.issue(act(0, 1), 0);
        // REF cannot issue while bank 0's row is open; earliest is pushed to
        // when the precharge could have completed.
        let t_ref = d.earliest(DramCommand::Refresh, 0);
        assert!(t_ref >= d.timing().tRAS);
    }

    #[test]
    fn earliest_is_idempotent_and_aligned() {
        let d = device();
        for now in 0..10 {
            let t = d.earliest(act(0, 0), now);
            assert_eq!(t % d.timing().cmd_cycle, 0);
            assert!(t >= now);
        }
    }

    #[test]
    fn clock_ratio_three_aligns_to_edges() {
        let mut d = DramDevice::new(
            DramOrg::default(),
            DramTiming::default(),
            ClockRatio::new(3),
        );
        let t = d.earliest(act(0, 0), 1);
        assert_eq!(t % 3, 0);
        d.issue(act(0, 0), t);
        let t_rd = d.earliest(rd(0), t);
        assert_eq!(t_rd % 3, 0);
        assert!(t_rd >= t + d.timing().tRCD);
    }

    #[test]
    fn horizon_is_the_first_legal_edge_and_the_blocking_reason() {
        let mut d = DramDevice::new(
            DramOrg::default(),
            DramTiming::default(),
            ClockRatio::new(3),
        );
        d.issue(act(0, 1), 0);
        let wr_end = d.issue(wr(0), d.earliest(wr(0), 0)).unwrap();
        for cmd in [rd(0), act(1, 1), DramCommand::Precharge { bank: 0 }] {
            let (h, reason) = d.horizon(cmd);
            assert_eq!(h % 3, 0, "{cmd}: horizon off the bus grid");
            assert_eq!(d.earliest(cmd, 0), h, "{cmd}");
            assert_eq!(d.earliest(cmd, wr_end + 1), h.max(wr_end + 3), "{cmd}");
            assert_eq!(d.blocking_reason(cmd, h), None, "{cmd}");
            assert_eq!(d.blocking_reason(cmd, h - 3), Some(reason), "{cmd}");
        }
    }

    /// Every command kind on every bank, ACT to a fixed row.
    fn all_commands(d: &DramDevice) -> Vec<DramCommand> {
        let mut cmds = vec![DramCommand::Refresh];
        for bank in 0..d.bank_count() {
            cmds.extend([
                act(bank, 3),
                rd(bank),
                wr(bank),
                DramCommand::Precharge { bank },
            ]);
        }
        cmds
    }

    /// The horizon of `cmd` folded from every term in tie-priority order:
    /// refresh, the bank's own term, then the rank-wide terms.
    fn folded_horizon(d: &DramDevice, cmd: DramCommand) -> (Cycle, BlockReason) {
        latest(
            [
                (d.refresh_until, BlockReason::Refresh),
                (d.bank_horizon(cmd), BlockReason::Bank),
            ]
            .into_iter()
            .chain(d.rank_terms(cmd)),
        )
    }

    #[test]
    fn rank_snapshot_combines_to_the_horizon_after_random_legal_sequences() {
        // Seeded random legal command streams, REF included: after every
        // issue, the snapshot the device keeps, combined with each
        // command's bank term, must give the fold of every term: cycle and
        // reason, ties included.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let mut rng = dg_sim::rng::DetRng::new(seed);
            let ratio = ClockRatio::new(1 + seed % 3 * 2);
            let mut d = DramDevice::new(DramOrg::default(), DramTiming::default(), ratio);
            let mut now = 0;
            for _ in 0..300 {
                let bank = rng.next_below(u64::from(d.bank_count())) as BankId;
                let cmd = if rng.next_below(40) == 0 {
                    // Refresh drains every open bank first.
                    (0..d.bank_count())
                        .find(|&b| d.bank(b).open_row().is_some())
                        .map_or(DramCommand::Refresh, |bank| DramCommand::Precharge { bank })
                } else {
                    match (d.bank(bank).open_row(), rng.next_below(4)) {
                        (None, _) => act(bank, rng.next_below(16)),
                        (Some(_), 0) => DramCommand::Precharge { bank },
                        (Some(_), k) => DramCommand::Read {
                            bank,
                            auto_precharge: k == 1,
                        },
                    }
                };
                let cmd = match cmd {
                    DramCommand::Read {
                        bank,
                        auto_precharge,
                    } if rng.next_below(3) == 0 => DramCommand::Write {
                        bank,
                        auto_precharge,
                    },
                    other => other,
                };
                let gap = rng.next_below(4) * d.timing().cmd_cycle;
                now = d.earliest(cmd, now + gap);
                d.issue(cmd, now);
                let snap = d.rank_horizons();
                for c in all_commands(&d) {
                    let want = folded_horizon(&d, c);
                    assert_eq!(
                        snap.horizon(c, d.bank_horizon(c)),
                        want,
                        "seed {seed}: {c} after {cmd} at {now}"
                    );
                    assert_eq!(d.horizon(c), want, "seed {seed}: {c} after {cmd} at {now}");
                    seen.insert(format!("{:?}", want.1));
                }
            }
        }
        assert_eq!(seen.len(), 6, "every blocking reason reached: {seen:?}");
    }

    #[test]
    #[should_panic(expected = "illegal issue")]
    fn premature_issue_panics() {
        let mut d = device();
        d.issue(act(0, 1), 0);
        d.issue(rd(0), 0); // before tRCD
    }

    #[test]
    fn blocking_reason_names_the_binding_constraint() {
        let mut d = device();
        assert_eq!(d.blocking_reason(act(0, 1), 0), None);
        d.issue(act(0, 1), 0);
        // RD right after ACT waits on the bank's tRCD.
        assert_eq!(d.blocking_reason(rd(0), 1), Some(BlockReason::Bank));
        // ACT to another bank waits on tRRD.
        assert_eq!(d.blocking_reason(act(1, 1), 1), Some(BlockReason::Rrd));
        // Write→read turnaround holds a read on another (ready) bank.
        d.issue(act(1, 1), d.earliest(act(1, 1), 1));
        let t_wr = d.earliest(wr(0), 0);
        let wr_end = d.issue(wr(0), t_wr).unwrap();
        assert_eq!(d.blocking_reason(rd(1), wr_end), Some(BlockReason::Bus));
    }

    #[test]
    fn blocking_reason_reports_faw_and_refresh() {
        let mut d = device();
        let mut at = 0;
        for b in 0..4 {
            at = d.earliest(act(b, 0), at);
            d.issue(act(b, 0), at);
        }
        // The fifth ACT is held by the four-activate window (tFAW is the
        // latest horizon: it spans from the *first* ACT, well past tRRD).
        assert_eq!(d.blocking_reason(act(4, 0), at + 1), Some(BlockReason::Faw));

        let mut d = device();
        let due = d.earliest(DramCommand::Refresh, d.timing().tREFI);
        d.issue(DramCommand::Refresh, due);
        assert_eq!(
            d.blocking_reason(act(0, 1), due + 1),
            Some(BlockReason::Refresh)
        );
    }
}
