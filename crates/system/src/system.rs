//! The cycle-driven system: cores + shared L3 + memory path.

use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_dram::power::PowerParams;
use dg_fault::SimFaultKind;
use dg_mem::{MemStats, MemorySubsystem};
use dg_mon::ProgressProbe;
use dg_obs::{
    BankReport, CoreReport, DomainReport, DramReport, EnergyReport, IntervalSampler, RunMeta,
    RunReport, TraceSummary, Tracer,
};
use dg_prof::EngineCounters;
use dg_sim::clock::{earliest_event, Cycle};
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_sim::types::{MemRequest, MemResponse};

/// Cycles per slice of [`System::run_until_core_finished_supervised`]:
/// the longest simulated span between two abort checks (and heartbeats).
const SUPERVISION_CHUNK: Cycle = 2_000_000;

/// Static poll-count labels for the quiescence scan (one per core index;
/// larger systems share the last label rather than allocating).
const CORE_POLL_NAMES: [&str; 8] = [
    "core0", "core1", "core2", "core3", "core4", "core5", "core6", "core7",
];

fn core_poll_name(i: usize) -> &'static str {
    CORE_POLL_NAMES.get(i).copied().unwrap_or("core8plus")
}

/// Live state of an injected simulation fault (see
/// [`dg_fault::SimFaultKind`]). Data-plane kinds (stuck bank, dropped
/// response) are modeled here, inside the memory tick; control-plane
/// kinds (frozen clock, panic) are no-ops at this layer — the supervision
/// loop that drives the system implements them.
struct FaultState {
    kind: SimFaultKind,
    /// Responses captured while a stuck bank holds its window.
    held: Vec<MemResponse>,
    /// Whether a `DropResponse` fault has consumed its victim.
    dropped: bool,
    /// Primary-domain responses seen so far (for `DropResponse`).
    seen_primary: u64,
}

/// The memory path as one core sees it during its tick: every call is
/// forwarded, and the first request the memory refuses is remembered. By
/// the [`Core`] contract that request is offered again on every later tick
/// until accepted, which is what a warp settles ([`System::warp_to`]).
struct RefusalTap<'a> {
    mem: &'a mut dyn MemorySubsystem,
    first_refused: Option<MemRequest>,
}

impl MemorySubsystem for RefusalTap<'_> {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let r = self.mem.try_send(req, now);
        if r.is_err() && self.first_refused.is_none() {
            self.first_refused = Some(req);
        }
        r
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.mem.tick_into(now, out);
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        self.mem.next_event_at(now)
    }

    fn stats(&self) -> &MemStats {
        self.mem.stats()
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        self.mem.stats_mut()
    }

    fn free_slots(&self) -> usize {
        self.mem.free_slots()
    }
}

/// A complete simulated system.
///
/// Cores are indexed by their [`dg_sim::types::DomainId`]: core `i` is
/// domain `i`, and memory responses are routed back by that id.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Box<dyn Core>>,
    l3: SetAssocCache,
    mem: Box<dyn MemorySubsystem>,
    now: Cycle,
    mem_label: &'static str,
    tracer: Tracer,
    sampler: Option<IntervalSampler>,
    /// Event-driven quiescent-cycle skipping. On by default; disabled by
    /// `DG_NO_SKIP=1` or [`System::set_event_skipping`] for differential
    /// testing against the naive per-cycle loop.
    skip_enabled: bool,
    /// Reusable scratch buffers keeping the per-tick path allocation-free.
    resp_buf: Vec<MemResponse>,
    instr_buf: Vec<u64>,
    bytes_buf: Vec<u64>,
    /// Per core, the first request the memory refused during its last
    /// tick: the request it retries on every cycle a warp skips.
    refused: Vec<Option<MemRequest>>,
    /// Scratch: the refused requests of a warp, in core order.
    refused_buf: Vec<MemRequest>,
    /// Remaining ticks before the next warp attempt. A failed attempt
    /// (some component active right now) costs a component scan; backing
    /// off keeps that overhead negligible under saturation while delaying
    /// idle detection by at most the backoff length.
    warp_backoff: Cycle,
    /// Consecutive failed warp attempts: the backoff grows with the streak
    /// so steadily-saturated runs scan rarely, while runs that alternate
    /// activity and idleness keep trying nearly every tick.
    warp_fail_streak: Cycle,
    /// Engine telemetry: how the engine covered simulated time (ticks vs
    /// warps, scan outcomes, poll counts). Purely observational.
    engine: EngineCounters,
    /// Injected simulation fault, if any ([`System::inject_fault`]).
    fault: Option<FaultState>,
    /// Live-progress heartbeat published between supervision slices
    /// (`None` when unmonitored). Write-only: never read back into
    /// simulation state, so results are probe-independent.
    progress: Option<ProgressProbe>,
}

/// Whether a newly built system starts on the event-driven engine: yes,
/// unless `DG_NO_SKIP` is set to a value other than empty or `0`, which
/// forces the naive per-cycle loop as the differential oracle. Read at
/// every construction (not cached), so a process may toggle it between
/// runs.
pub fn event_skipping_default() -> bool {
    std::env::var("DG_NO_SKIP").map_or(true, |v| v.is_empty() || v == "0")
}

impl System {
    /// Assembles a system. Use [`crate::SystemBuilder`] rather than calling
    /// this directly.
    pub(crate) fn new(
        cfg: SystemConfig,
        cores: Vec<Box<dyn Core>>,
        mem: Box<dyn MemorySubsystem>,
        mem_label: &'static str,
    ) -> Self {
        // The shared L3 scales with the core count (1 MB per core, Table 2).
        let mut l3_cfg = cfg.cache.l3_per_core;
        l3_cfg.size_bytes *= cores.len().max(1) as u64;
        let l3 = SetAssocCache::new(l3_cfg, "L3");
        let n = cores.len();
        Self {
            cfg,
            cores,
            l3,
            mem,
            now: 0,
            mem_label,
            tracer: Tracer::noop(),
            sampler: None,
            skip_enabled: event_skipping_default(),
            resp_buf: Vec::new(),
            instr_buf: Vec::new(),
            bytes_buf: Vec::new(),
            refused: vec![None; n],
            refused_buf: Vec::with_capacity(n),
            warp_backoff: 0,
            warp_fail_streak: 0,
            engine: EngineCounters::default(),
            fault: None,
            progress: None,
        }
    }

    /// Arms a simulation-layer fault. Data-plane kinds (stuck bank,
    /// dropped response) change response delivery inside [`System::tick`];
    /// `FreezeClock` and `Panic` are no-ops at this layer (the supervision
    /// loop driving the system implements them). Without this call the
    /// fault plane does not exist — no branch in the hot path consults it
    /// beyond one `Option` check.
    pub fn inject_fault(&mut self, kind: SimFaultKind) {
        self.fault = Some(FaultState {
            kind,
            held: Vec::new(),
            dropped: false,
            seen_primary: 0,
        });
    }

    /// Enables or disables event-driven quiescent-cycle skipping. The two
    /// engines produce byte-identical [`RunReport`]s; the naive loop exists
    /// as the differential-testing oracle (`DG_NO_SKIP=1` sets it globally).
    pub fn set_event_skipping(&mut self, on: bool) {
        self.skip_enabled = on;
    }

    /// Whether the event-driven engine is active.
    pub fn event_skipping(&self) -> bool {
        self.skip_enabled
    }

    /// The configuration this system runs.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// The cores (for result extraction).
    pub fn cores(&self) -> &[Box<dyn Core>] {
        &self.cores
    }

    /// The memory path (for statistics).
    pub fn memory(&self) -> &dyn MemorySubsystem {
        self.mem.as_ref()
    }

    /// The shared L3 (for statistics).
    pub fn l3(&self) -> &SetAssocCache {
        &self.l3
    }

    /// Live engine telemetry (read-only): how the engine has covered
    /// simulated time so far. Monitoring heartbeats read `warped_cycles`
    /// from here between supervision slices.
    pub fn engine_counters(&self) -> &EngineCounters {
        &self.engine
    }

    /// Installs an observability tracer on every component of the system
    /// (cores, shapers, memory controller).
    pub fn set_tracer(&mut self, tracer: Tracer) {
        for core in &mut self.cores {
            core.set_tracer(tracer.clone());
        }
        self.mem.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// The installed tracer (a no-op handle unless [`System::set_tracer`]
    /// was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Enables per-window IPC / bandwidth time-series sampling with the
    /// given window length in CPU cycles (the Figure 7b measurement).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn enable_interval_sampling(&mut self, window: Cycle) {
        self.sampler = Some(IntervalSampler::new(
            window,
            self.cfg.core.clock_hz,
            self.cores.len(),
            self.cores.len(),
        ));
    }

    /// Enables windowed shaper telemetry (queue depth, slack, real/fake
    /// fills) on any shapers in the memory path. A no-op for unshaped
    /// memory kinds.
    pub fn enable_shaper_timelines(&mut self, window: Cycle) {
        self.mem.enable_shaper_timelines(window);
    }

    /// Refreshes the interval-sampler input buffers (cumulative retired
    /// instructions and per-domain bytes) without allocating.
    fn refresh_sampler_inputs(&mut self) {
        self.instr_buf.clear();
        for c in &self.cores {
            self.instr_buf.push(c.instructions_retired());
        }
        self.bytes_buf.clear();
        // Multi-channel paths cache their merged view; bring it up to date
        // before sampling mid-run byte counts.
        self.mem.refresh_stats();
        let stats = self.mem.stats();
        for d in stats.domains().iter().take(self.cores.len()) {
            self.bytes_buf.push(d.bandwidth.bytes());
        }
    }

    /// Flushes the trailing partial interval window at end-of-run so the
    /// time series covers the whole measurement interval.
    fn flush_sampler(&mut self) {
        if self.sampler.is_none() {
            return;
        }
        self.refresh_sampler_inputs();
        let now = self.now;
        let Self {
            sampler,
            instr_buf,
            bytes_buf,
            ..
        } = self;
        if let Some(s) = sampler {
            s.flush(now, instr_buf, bytes_buf);
        }
    }

    /// Rewrites the freshly ticked response buffer under the armed fault:
    /// a stuck bank detains responses completing inside its hold window
    /// and releases them (in arrival order, ahead of same-cycle traffic)
    /// once it unwedges; a drop fault silently removes the nth response
    /// bound for the primary domain.
    fn apply_response_fault(&mut self, now: Cycle) {
        let Self {
            fault: Some(f),
            resp_buf,
            ..
        } = self
        else {
            return;
        };
        match f.kind {
            SimFaultKind::StuckBank { at, hold } => {
                let release = at.saturating_add(hold);
                if now >= at && now < release {
                    f.held.append(resp_buf);
                } else if now >= release && !f.held.is_empty() {
                    resp_buf.splice(0..0, f.held.drain(..));
                }
            }
            SimFaultKind::DropResponse { nth } => {
                if !f.dropped {
                    for i in 0..resp_buf.len() {
                        if resp_buf[i].domain.0 == 0 {
                            f.seen_primary += 1;
                            if f.seen_primary == nth {
                                resp_buf.remove(i);
                                f.dropped = true;
                                break;
                            }
                        }
                    }
                }
            }
            SimFaultKind::FreezeClock { .. } | SimFaultKind::Panic { .. } => {}
        }
    }

    /// Advances the whole system one CPU cycle.
    pub fn tick(&mut self) {
        self.engine.tick();
        let now = self.now;
        // Memory first: completions this cycle unblock cores this cycle.
        {
            let _prof = dg_prof::span("mem_tick");
            self.resp_buf.clear();
            self.mem.tick_into(now, &mut self.resp_buf);
            self.apply_response_fault(now);
            for i in 0..self.resp_buf.len() {
                let resp = self.resp_buf[i];
                let idx = resp.domain.0 as usize;
                if let Some(core) = self.cores.get_mut(idx) {
                    core.on_response(&resp, now);
                }
            }
        }
        {
            let _prof = dg_prof::span("core_tick");
            for (core, refused) in self.cores.iter_mut().zip(&mut self.refused) {
                let mut tap = RefusalTap {
                    mem: self.mem.as_mut(),
                    first_refused: None,
                };
                core.tick(now, &mut self.l3, &mut tap);
                *refused = tap.first_refused;
            }
        }
        self.now += 1;
        if self.sampler.as_ref().is_some_and(|s| s.due(self.now)) {
            self.refresh_sampler_inputs();
            let now = self.now;
            let Self {
                sampler,
                instr_buf,
                bytes_buf,
                ..
            } = self;
            if let Some(s) = sampler {
                s.sample(now, instr_buf, bytes_buf);
            }
        }
    }

    /// The earliest future cycle at which any component can change state,
    /// clamped to `[now, limit]`. `limit` is returned when every component
    /// is fully passive (waiting on input that will never come).
    fn next_event(&mut self, limit: Cycle) -> Cycle {
        let _prof = dg_prof::span("quiescence_scan");
        let now = self.now;
        self.engine.poll("mem");
        let mut ev = self.mem.next_event_at(now);
        for (i, core) in self.cores.iter().enumerate() {
            self.engine.poll(core_poll_name(i));
            ev = earliest_event(ev, core.next_event_at(now));
        }
        // Fault boundaries are events too: a warp must never jump a stuck
        // bank's release cycle (detained responses would stay detained past
        // their deterministic delivery time). Keeping them in the fold
        // preserves naive/event-engine byte-identity under injection.
        if let Some(FaultState {
            kind: SimFaultKind::StuckBank { at, hold },
            held,
            ..
        }) = &self.fault
        {
            if now < *at {
                ev = earliest_event(ev, Some(*at));
            }
            if !held.is_empty() {
                ev = earliest_event(ev, Some(at.saturating_add(*hold)));
            }
        }
        ev.map_or(limit, |t| t.clamp(now, limit))
    }

    /// Attempts one warp: scans component event times and jumps ahead when
    /// everything is quiescent. Skipping an attempt is always sound (the
    /// loop just ticks naively), so failed attempts arm a short backoff to
    /// amortize the scan under saturation.
    fn maybe_warp(&mut self, limit: Cycle) {
        if self.warp_backoff > 0 {
            self.warp_backoff -= 1;
            self.engine.backoff_suppressed += 1;
            return;
        }
        let target = self.next_event(limit);
        if target > self.now {
            self.engine.warp(target - self.now);
            self.warp_to(target);
            self.warp_fail_streak = 0;
        } else {
            self.engine.failed_scans += 1;
            self.warp_fail_streak = (self.warp_fail_streak + 1).min(31);
            self.warp_backoff = self.warp_fail_streak;
            self.engine.max_backoff = self.engine.max_backoff.max(self.warp_backoff);
        }
    }

    /// Warps simulation time forward to `target`, settling the per-cycle
    /// bookkeeping of the skipped span in the memory path and replaying
    /// any interval-sampler window boundaries it would have produced.
    /// Only provably quiescent spans may be warped over: every counter a
    /// replayed sample reads is unchanged across the span, so the samples
    /// are byte-identical to the naive loop's zero-delta windows.
    fn warp_to(&mut self, target: Cycle) {
        if target <= self.now {
            return;
        }
        self.settle(self.now, target);
        let _prof = dg_prof::span("sampler_replay");
        if self.sampler.is_some() {
            self.refresh_sampler_inputs();
            let Self {
                sampler,
                instr_buf,
                bytes_buf,
                ..
            } = self;
            if let Some(s) = sampler {
                s.advance_to(target, instr_buf, bytes_buf);
            }
        }
        self.now = target;
    }

    /// Settles the warped span `[from, to)` in the memory path
    /// ([`MemorySubsystem::settle_warp`]): stall charges of the skipped
    /// bus edges, and one refusal per skipped cycle for every core whose
    /// last tick was refused. With tracing on, cycle by cycle, so the
    /// replayed trace events interleave across cores as the naive loop
    /// records them.
    fn settle(&mut self, from: Cycle, to: Cycle) {
        let _prof = dg_prof::span("warp_settle");
        self.refused_buf.clear();
        self.refused_buf.extend(self.refused.iter().flatten());
        if self.tracer.enabled() && !self.refused_buf.is_empty() {
            for now in from..to {
                self.mem.settle_warp(now, now + 1, &self.refused_buf);
            }
        } else {
            self.mem.settle_warp(from, to, &self.refused_buf);
        }
    }

    /// Runs until every core finishes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadline`] if the budget is exhausted first.
    pub fn run_until_finished(&mut self, budget: Cycle) -> Result<Cycle, SimError> {
        let limit = self.now + budget;
        while self.now < limit {
            if self.cores.iter().all(|c| c.finished()) {
                self.mem.stats_mut().set_cycles(self.now);
                self.flush_sampler();
                return Ok(self.now);
            }
            self.tick();
            // Never warp past the tick that finished the run: the naive
            // loop stops incrementing `now` there, and so must we.
            if self.skip_enabled && !self.cores.iter().all(|c| c.finished()) {
                self.maybe_warp(limit);
            }
        }
        Err(SimError::Deadline { budget })
    }

    /// Runs until the core in `domain` finishes (other cores keep running
    /// alongside, providing contention).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadline`] if the budget is exhausted first.
    pub fn run_until_core_finished(
        &mut self,
        domain: usize,
        budget: Cycle,
    ) -> Result<Cycle, SimError> {
        let limit = self.now + budget;
        while self.now < limit {
            if self.cores[domain].finished() {
                self.mem.stats_mut().set_cycles(self.now);
                self.flush_sampler();
                return Ok(self.cores[domain].finished_at().expect("finished"));
            }
            self.tick();
            if self.skip_enabled && !self.cores[domain].finished() {
                self.maybe_warp(limit);
            }
        }
        Err(SimError::Deadline { budget })
    }

    /// Installs a live-progress heartbeat: the current cycle and the
    /// engine's warp-skipped cycles are published into the probe between
    /// the slices of [`Self::run_until_core_finished_supervised`].
    pub fn set_progress_probe(&mut self, probe: ProgressProbe) {
        self.progress = Some(probe);
    }

    /// [`Self::run_until_core_finished`] under cooperative supervision:
    /// the run advances in slices of at most `SUPERVISION_CHUNK` cycles,
    /// evaluating `should_abort` before each and publishing a heartbeat
    /// after each. Slices compose exactly, so without an abort the outcome
    /// is identical to one unsliced call with the same budget.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Aborted`] when `should_abort` reports true, and
    /// [`SimError::Deadline`] when `budget` is exhausted first.
    pub fn run_until_core_finished_supervised(
        &mut self,
        domain: usize,
        budget: Cycle,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Cycle, SimError> {
        let mut spent: Cycle = 0;
        loop {
            if should_abort() {
                return Err(SimError::Aborted(format!(
                    "supervisor cancelled after {spent} cycles"
                )));
            }
            let step = SUPERVISION_CHUNK.min(budget - spent);
            let r = self.run_until_core_finished(domain, step);
            if let Some(p) = &self.progress {
                p.record(self.now, 0, self.engine.warped_cycles);
            }
            match r {
                Err(SimError::Deadline { .. }) => {
                    spent += step;
                    if spent >= budget {
                        return Err(SimError::Deadline { budget });
                    }
                }
                done => return done,
            }
        }
    }

    /// Runs exactly `window` cycles.
    pub fn run_for(&mut self, window: Cycle) {
        let limit = self.now + window;
        while self.now < limit {
            self.tick();
            if self.skip_enabled {
                self.maybe_warp(limit);
            }
        }
        self.mem.stats_mut().set_cycles(self.now);
        self.flush_sampler();
    }

    /// IPC of core `i` as of now.
    pub fn ipc(&self, i: usize) -> f64 {
        self.cores[i].ipc_at(self.now)
    }

    /// Assembles the end-of-run [`RunReport`] artifact: per-core IPC,
    /// per-domain traffic and latency distributions, shaper conformance,
    /// DRAM energy (priced with the default DDR3-1600 [`PowerParams`]), and
    /// any interval samples recorded so far.
    pub fn report(&self, name: &str) -> RunReport {
        let end = self.now;
        let clock_hz = self.cfg.core.clock_hz;
        let stats = self.mem.stats();

        let cores = self
            .cores
            .iter()
            .map(|c| {
                let cycles = c.finished_at().unwrap_or(end).max(1);
                CoreReport {
                    domain: c.domain().0,
                    instructions: c.instructions_retired(),
                    cycles,
                    ipc: c.instructions_retired() as f64 / cycles as f64,
                    finished: c.finished(),
                    completion: c.completion_snapshot(),
                }
            })
            .collect();

        let (domains, dram, banks) = memory_sections(stats, self.cores.len(), clock_hz);
        let events = self.tracer.snapshot();
        RunReport {
            meta: RunMeta {
                name: name.to_string(),
                memory: self.mem_label.to_string(),
                cores: self.cores.len(),
                total_cycles: end,
                clock_hz,
            },
            cores,
            domains,
            shapers: self.mem.shaper_reports(),
            shaper_timelines: self.mem.shaper_timelines(),
            dram,
            banks,
            interference: self.mem.interference(),
            interval_window: self.sampler.as_ref().map_or(0, |s| s.window()),
            intervals: self
                .sampler
                .as_ref()
                .map_or_else(Vec::new, |s| s.samples().to_vec()),
            trace: TraceSummary {
                events_recorded: events.len() as u64,
                events_dropped: self.tracer.dropped(),
            },
            engine: self.engine.snapshot(),
        }
    }
}

/// The memory sections of a [`RunReport`] — per-domain traffic and
/// latency, DRAM refresh/energy totals, per-bank counters — from
/// end-of-run statistics. Core domains always appear; reserved/extra
/// domains only when they actually carried traffic. Energy is priced with
/// the default DDR3-1600 [`PowerParams`].
pub fn memory_sections(
    stats: &MemStats,
    cores: usize,
    clock_hz: f64,
) -> (Vec<DomainReport>, DramReport, Vec<BankReport>) {
    let domains = stats
        .domains()
        .iter()
        .enumerate()
        .filter(|(i, d)| *i < cores || d.total() > 0)
        .map(|(i, d)| DomainReport {
            domain: i as u16,
            reads: d.reads,
            writes: d.writes,
            fakes: d.fakes,
            bandwidth_gbps: d.bandwidth.gbps(clock_hz),
            mean_latency: d.mean_latency(),
            latency_p50: d.latency_hdr.quantile(0.50),
            latency_p95: d.latency_hdr.quantile(0.95),
            latency_p99: d.latency_hdr.quantile(0.99),
            latency_hdr: d.latency_hdr.snapshot(),
        })
        .collect();
    let dram = DramReport {
        refreshes: stats.refreshes,
        dropped_responses: stats.dropped,
        energy: EnergyReport::from_counter(&stats.energy, &PowerParams::default()),
    };
    let banks = stats
        .banks
        .iter()
        .enumerate()
        .map(|(i, b)| BankReport {
            bank: i as u32,
            acts: b.acts,
            row_hits: b.row_hits,
            row_misses: b.row_misses,
            precharges: b.precharges,
            faw_stall_cycles: b.faw_stall_cycles,
        })
        .collect();
    (domains, dram, banks)
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("cores", &self.cores.len())
            .field("now", &self.now)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::{MemoryKind, SystemBuilder};
    use dg_cpu::MemTrace;
    use dg_sim::config::SystemConfig;
    use dg_sim::error::SimError;

    fn small_trace(lines: u64, base: u64) -> MemTrace {
        let mut t = MemTrace::new();
        for i in 0..lines {
            t.load(base + i * 64 * 97, 20);
        }
        t
    }

    #[test]
    fn two_core_insecure_run_completes() {
        let cfg = SystemConfig::two_core();
        let mut sys = SystemBuilder::new(cfg)
            .trace_core(small_trace(200, 0))
            .trace_core(small_trace(200, 1 << 30))
            .memory(MemoryKind::Insecure)
            .build();
        let end = sys.run_until_finished(10_000_000).unwrap();
        assert!(end > 0);
        assert!(sys.ipc(0) > 0.0);
        assert!(sys.ipc(1) > 0.0);
        // Both cores' misses reached DRAM.
        let s = sys.memory().stats();
        assert!(s.domain(dg_sim::types::DomainId(0)).reads >= 200);
        assert!(s.domain(dg_sim::types::DomainId(1)).reads >= 200);
    }

    #[test]
    fn contention_slows_cores_down() {
        let cfg = SystemConfig::two_core();
        let alone_end = {
            let mut sys = SystemBuilder::new(cfg.clone())
                .trace_core(small_trace(400, 0))
                .memory(MemoryKind::Insecure)
                .build();
            sys.run_until_finished(10_000_000).unwrap()
        };
        let contended_end = {
            let mut sys = SystemBuilder::new(cfg)
                .trace_core(small_trace(400, 0))
                .trace_core(small_trace(4000, 1 << 30))
                .memory(MemoryKind::Insecure)
                .build();
            sys.run_until_core_finished(0, 50_000_000).unwrap()
        };
        assert!(
            contended_end > alone_end,
            "co-runner must slow the victim: {contended_end} vs {alone_end}"
        );
    }

    #[test]
    fn deadline_error_when_budget_too_small() {
        let cfg = SystemConfig::two_core();
        let mut sys = SystemBuilder::new(cfg)
            .trace_core(small_trace(100, 0))
            .memory(MemoryKind::Insecure)
            .build();
        assert!(sys.run_until_finished(10).is_err());
    }

    fn victim_and_corunner() -> super::System {
        SystemBuilder::new(SystemConfig::two_core())
            .trace_core(small_trace(300, 0))
            .trace_core(small_trace(3000, 1 << 30))
            .memory(MemoryKind::Insecure)
            .build()
    }

    /// The report with the engine section (how time was covered, which
    /// slicing legitimately changes) normalized away.
    fn outcome(sys: &super::System) -> String {
        let mut report = sys.report("slices");
        report.engine = Default::default();
        report.to_json()
    }

    #[test]
    fn core_finish_runs_compose_across_slices() {
        let mut whole = victim_and_corunner();
        let end = whole.run_until_core_finished(0, 100_000_000).unwrap();
        let mut sliced = victim_and_corunner();
        let sliced_end = loop {
            match sliced.run_until_core_finished(0, 1_000) {
                Ok(t) => break t,
                Err(SimError::Deadline { .. }) => {}
                Err(e) => panic!("unexpected {e:?}"),
            }
        };
        assert_eq!(sliced_end, end);
        assert_eq!(sliced.now(), whole.now());
        assert_eq!(outcome(&sliced), outcome(&whole));
    }

    #[test]
    fn supervised_run_matches_unsupervised_and_heartbeats() {
        let mut plain = victim_and_corunner();
        let end = plain.run_until_core_finished(0, 100_000_000).unwrap();
        let mut supervised = victim_and_corunner();
        let probe = dg_mon::ProgressProbe::new();
        supervised.set_progress_probe(probe.clone());
        let r = supervised.run_until_core_finished_supervised(0, 100_000_000, &mut || false);
        assert_eq!(r, Ok(end));
        assert_eq!(outcome(&supervised), outcome(&plain));
        assert_eq!(probe.sim_cycles(), supervised.now());
    }

    /// Latencies past 10k cycles (temporal partitioning's tail) reach the
    /// report's quantiles within the HDR error bound, not clamped.
    #[test]
    fn memory_sections_report_long_tail_latency() {
        use dg_sim::types::{DomainId, MemResponse, ReqId, ReqKind, ReqType};
        let mut stats = dg_mem::MemStats::new(1, 64);
        for i in 0..100 {
            stats.record(&MemResponse {
                id: ReqId(i),
                domain: DomainId(0),
                addr: 0,
                req_type: ReqType::Read,
                kind: ReqKind::Real,
                arrived_at: 1_000,
                completed_at: 21_000,
            });
        }
        let (domains, _, _) = crate::memory_sections(&stats, 1, 2.4e9);
        let d = &domains[0];
        for p in [d.latency_p50, d.latency_p95, d.latency_p99] {
            let p = p.expect("real responses recorded");
            assert!(
                p <= 20_000 && p as f64 >= 20_000.0 * (1.0 - 1.0 / 32.0),
                "{p}"
            );
        }
        assert_eq!(d.latency_p99, Some(d.latency_hdr.p99));
        assert_eq!(d.mean_latency, Some(20_000.0));
        assert_eq!(d.latency_hdr.count, 100);
    }

    #[test]
    fn supervised_abort_and_deadline_surface() {
        let mut sys = victim_and_corunner();
        let r = sys.run_until_core_finished_supervised(0, 100_000_000, &mut || true);
        assert!(matches!(r, Err(SimError::Aborted(_))), "got {r:?}");
        let mut sys = victim_and_corunner();
        let r = sys.run_until_core_finished_supervised(0, 500, &mut || false);
        assert_eq!(r, Err(SimError::Deadline { budget: 500 }));
    }
}
