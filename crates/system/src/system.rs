//! The simulated system: cores, caches and memory channels partitioned
//! into shards of the one event engine (the crate-private `shard`
//! module), the drivers that advance them, and report assembly.
//!
//! # Topology
//!
//! [`ShardConfig::noc_latency`] is the only topology setting. At 0 the
//! cores are wired straight to the memory path with a shared L3 — the
//! paper's Table 2 system, built by [`crate::SystemBuilder`] — and a run is
//! one pass over its budget on one shard, with the stop condition checked
//! before every tick. From 1 up, every core↔channel message takes that
//! many cycles on a NoC, each core has a private L3 slice, and the shards
//! advance in conservative-PDES supersteps.
//!
//! # Protocol
//!
//! Time advances in supersteps `[T_k, E_k)` with `E_k − T_k ≤ L` (the NoC
//! hop latency — the lookahead horizon). Any message sent at cycle
//! `t ∈ [T_k, E_k)` is due at `t + L ≥ E_k`, so no shard can affect
//! another *within* a superstep and exchanging messages only at the
//! barrier is conservative-safe. Between barriers the coordinator drains
//! every shard's egress, sorts the batch by the partition-independent key
//! `(deliver_at, sender, seq)`, routes it, evaluates stop/abort/deadline
//! conditions, and folds the shards' next-event hints into the next
//! superstep's start — skipping globally quiescent spans entirely. A
//! run's budget never moves a barrier: a budget that ends inside a
//! superstep or a skip returns without barrier work, and the next run
//! finishes that superstep or skip first, so a split run stops where the
//! unsplit one does.
//!
//! With more than one worker thread, workers and the coordinator meet at
//! two spin barriers per superstep (release → execute → join). The barrier
//! is the only synchronization: a worker fills its shard's outboxes under
//! the shard's (uncontended) mutex and the coordinator drains them under
//! it after the join, and a panicking worker raises a flag instead of
//! hanging the barrier. A single-threaded run needs no threads at all.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};

use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_dram::power::PowerParams;
use dg_fault::SimFaultKind;
use dg_mem::{merge_interference, ChannelMap, MemStats, MemorySubsystem};
use dg_mon::ProgressProbe;
use dg_obs::{
    BankReport, DomainReport, DramReport, EnergyReport, IntervalSampler, RunMeta, RunReport,
    TraceSummary, Tracer,
};
use dg_prof::EngineCounters;
use dg_sim::clock::{earliest_event, Cycle};
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;

use crate::barrier::SpinBarrier;
use crate::builder::{build_lanes, MemoryKind};
use crate::msg::{StampedReq, StampedResp};
use crate::shard::{Shard, StopWhen};

/// Cycles per slice of a supervised direct-wired run: the longest
/// simulated span between two abort checks (and heartbeats).
const SUPERVISION_CHUNK: Cycle = 2_000_000;

/// Sharding parameters.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards the cores and channels are partitioned into.
    pub shards: usize,
    /// NoC hop latency in CPU cycles. 0 wires the cores straight to the
    /// memory path (one shard only); from 1 up, every core↔channel message
    /// takes one hop, and this is also the PDES lookahead horizon
    /// (superstep width).
    pub noc_latency: Cycle,
    /// Upper bound on worker threads (`None` = one per host CPU, capped at
    /// the shard count). Results are identical for every value; forcing 1
    /// gives the single-threaded reference for self-relative speedup
    /// measurements.
    pub max_parties: Option<usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            noc_latency: 64,
            max_parties: None,
        }
    }
}

impl ShardConfig {
    /// A configuration with `shards` shards and default NoC parameters.
    pub fn with_shards(shards: usize) -> Self {
        Self {
            shards,
            ..Self::default()
        }
    }

    /// Checks that a system can run this configuration, `observed` or not
    /// (event tracing, interval sampling). A 0-cycle hop gives the PDES no
    /// lookahead, and observation records one shard's cycle-by-cycle
    /// history, so either needs a single shard.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] naming the conflict.
    pub fn check(&self, observed: bool) -> Result<(), SimError> {
        let why = if self.shards == 0 {
            "at least one shard is required"
        } else if self.shards > 1 && self.noc_latency == 0 {
            "a 0-cycle NoC hop gives the PDES no lookahead; it needs one shard"
        } else if self.shards > 1 && observed {
            "event tracing and metrics windows need one shard"
        } else {
            return Ok(());
        };
        Err(SimError::InvalidConfig(format!(
            "{} shards: {why}",
            self.shards
        )))
    }
}

/// The balanced contiguous partition: element `s` of `shards` owns global
/// indices `[total·s/shards, total·(s+1)/shards)`. A pure function of the
/// counts, so every shard count induces the same global ordering.
fn partition(total: usize, shards: usize, s: usize) -> std::ops::Range<usize> {
    (total * s / shards)..(total * (s + 1) / shards)
}

/// Cache-line isolation for per-shard slots: adjacent shards advanced by
/// different threads must not share a line, or every per-tick counter
/// write ping-pongs it (128 bytes covers adjacent-line prefetching).
#[repr(align(128))]
struct CachePadded<T>(T);

type Slot = CachePadded<Mutex<Shard>>;

/// Locks a shard slot, recovering from poisoning (a panicked superstep has
/// already aborted the run; later read-only access is still sound for
/// diagnostics).
fn lock(m: &Slot) -> std::sync::MutexGuard<'_, Shard> {
    m.0.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The stop condition's value across the shards, if it holds at `now`.
fn stop_value(shards: &[Slot], core_home: &[usize], stop: &StopWhen, now: Cycle) -> Option<Cycle> {
    match *stop {
        StopWhen::CoreFinished(d) => lock(&shards[core_home[d]]).stopped(stop, now),
        _ => shards
            .iter()
            .all(|m| lock(m).stopped(stop, now).is_some())
            .then_some(now),
    }
}

/// Warps every shard from `*now` toward the quiescence-skip target `to`,
/// stopping at `limit`, and returns the target if the limit cut it short.
fn skip_toward(shards: &[Slot], now: &mut Cycle, to: Cycle, limit: Cycle) -> Option<Cycle> {
    let at = to.min(limit);
    if at > *now {
        shards.iter().for_each(|m| lock(m).settle_warp(*now, at));
    }
    *now = at;
    (at < to).then_some(to)
}

/// NoC routing: where each core and channel lives, and the batch buffers
/// reused across supersteps.
struct Router {
    map: ChannelMap,
    /// Global core index → owning shard.
    core_home: Vec<usize>,
    /// Global channel index → owning shard.
    chan_home: Vec<usize>,
    reqs: Vec<StampedReq>,
    resps: Vec<StampedResp>,
    req_staging: Vec<Vec<StampedReq>>,
    resp_staging: Vec<Vec<StampedResp>>,
}

impl Router {
    /// Drains every shard's egress, establishes the global NoC order, and
    /// routes each message to its home shard.
    fn exchange(&mut self, shards: &[Slot]) {
        let _prof = dg_prof::span("shard_route");
        for m in shards {
            lock(m).drain_outgoing(&mut self.reqs, &mut self.resps);
        }
        self.reqs.sort_unstable_by_key(StampedReq::key);
        self.resps.sort_unstable_by_key(StampedResp::key);
        for sr in self.reqs.drain(..) {
            let home = self.chan_home[self.map.channel_of(sr.req.addr) as usize];
            self.req_staging[home].push(sr);
        }
        for sr in self.resps.drain(..) {
            self.resp_staging[self.core_home[sr.resp.domain.0 as usize]].push(sr);
        }
        for (m, (reqs, resps)) in shards
            .iter()
            .zip(self.req_staging.iter_mut().zip(&mut self.resp_staging))
        {
            if !reqs.is_empty() || !resps.is_empty() {
                let mut shard = lock(m);
                reqs.drain(..).for_each(|sr| shard.enqueue_req(sr));
                resps.drain(..).for_each(|sr| shard.enqueue_resp(sr));
            }
        }
    }
}

/// A complete simulated system (see the module docs for its topologies).
///
/// Cores are indexed by their [`dg_sim::types::DomainId`]: core `i` is
/// domain `i`, and memory responses are routed back by that id. For any
/// shard count the [`RunReport`] (engine telemetry aside) is
/// byte-identical to the single-shard one at the same NoC latency.
pub struct System {
    cfg: SystemConfig,
    scfg: ShardConfig,
    shards: Vec<Slot>,
    router: Router,
    /// Per-superstep claim flags, one per shard.
    claimed: Vec<CachePadded<AtomicBool>>,
    /// Worker threads of a NoC run, resolved when the system is built.
    parties: usize,
    now: Cycle,
    /// The end of a superstep that a NoC run's budget cut short; the next
    /// run finishes it before any barrier work.
    step_end: Option<Cycle>,
    /// The target of a quiescence skip that a NoC run's budget capped; the
    /// next run finishes the skip first.
    skip_to: Option<Cycle>,
    mem_label: &'static str,
    n_cores: usize,
    tracer: Tracer,
    /// Live-progress heartbeat (`None` when unmonitored). Write-only: never
    /// read back into simulation state, so results are probe-independent.
    progress: Option<ProgressProbe>,
}

impl System {
    /// Assembles `cores` and the memory path `kind` on the topology
    /// `scfg`. Use [`crate::SystemBuilder`] or
    /// [`crate::ShardedSystemBuilder`] rather than calling this directly.
    ///
    /// # Panics
    ///
    /// Panics if [`ShardConfig::check`] rejects `scfg`, or `DG_NO_SKIP`
    /// does not parse ([`dg_mon::env`]).
    pub(crate) fn new(
        mut cfg: SystemConfig,
        scfg: ShardConfig,
        cores: Vec<Box<dyn Core>>,
        kind: MemoryKind,
    ) -> Self {
        if let Err(e) = scfg.check(false) {
            panic!("{e}");
        }
        let n_cores = cores.len();
        cfg.cores = n_cores;
        let mem_label = kind.label();
        let direct = scfg.noc_latency == 0;
        let lanes = build_lanes(&mut cfg, &kind, n_cores);
        let map = ChannelMap::new(lanes.len() as u32, cfg.dram_org.line_bytes);
        // `DG_NO_SKIP=1` forces the naive per-cycle loop, the differential
        // oracle; read at every construction so a process may toggle it.
        let skip = !dg_mon::env::no_skip();

        let s = scfg.shards;
        let mut router = Router {
            map,
            core_home: vec![0; n_cores],
            chan_home: vec![0; lanes.len()],
            reqs: Vec::new(),
            resps: Vec::new(),
            req_staging: (0..s).map(|_| Vec::new()).collect(),
            resp_staging: (0..s).map(|_| Vec::new()).collect(),
        };
        let (mut cores, mut lanes) = (cores.into_iter(), lanes.into_iter());
        let mut shards = Vec::with_capacity(s);
        for id in 0..s {
            let core_range = partition(n_cores, s, id);
            let chan_range = partition(map.channels() as usize, s, id);
            router.core_home[core_range.clone()].fill(id);
            router.chan_home[chan_range.clone()].fill(id);
            // One L3 of 1 MB per core (Table 2): shared when directly
            // wired, private slices on the NoC.
            let l3 = if direct {
                let mut l3_cfg = cfg.cache.l3_per_core;
                l3_cfg.size_bytes *= n_cores as u64;
                vec![SetAssocCache::new(l3_cfg, "L3")]
            } else {
                core_range
                    .clone()
                    .map(|_| SetAssocCache::new(cfg.cache.l3_per_core, "L3"))
                    .collect()
            };
            let owned = cores.by_ref().take(core_range.len()).collect();
            let endpoints = lanes.by_ref().take(chan_range.len()).collect();
            shards.push(CachePadded(Mutex::new(Shard::new(
                (core_range.start, owned),
                l3,
                (chan_range.start, endpoints),
                map,
                (scfg.noc_latency, cfg.queues.transaction_queue),
                skip,
            ))));
        }
        let cap = scfg.max_parties.unwrap_or(usize::MAX).min(s);
        // Probing the host costs a measurable share of building a small
        // system, so it is skipped when one worker is all a run can use.
        let parties = match cap {
            0 | 1 => 1,
            _ => std::thread::available_parallelism().map_or(1, |p| p.get().min(cap)),
        };
        Self {
            cfg,
            scfg,
            shards,
            router,
            claimed: (0..s)
                .map(|_| CachePadded(AtomicBool::new(false)))
                .collect(),
            parties,
            now: 0,
            step_end: None,
            skip_to: None,
            mem_label,
            n_cores,
            tracer: Tracer::noop(),
            progress: None,
        }
    }

    /// The configuration this system runs.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time.
    pub fn now(&self) -> Cycle {
        self.now
    }

    fn shards_mut(&mut self) -> impl Iterator<Item = &mut Shard> {
        self.shards
            .iter_mut()
            .map(|m| m.0.get_mut().unwrap_or_else(PoisonError::into_inner))
    }

    /// The one shard of a single-shard system.
    fn single(&mut self) -> &mut Shard {
        assert_eq!(self.shards.len(), 1, "needs a single-shard system");
        self.shards_mut().next().expect("one shard")
    }

    /// Enables or disables event-driven quiescent-cycle skipping. The two
    /// engines produce byte-identical [`RunReport`]s; the naive loop exists
    /// as the differential-testing oracle (`DG_NO_SKIP=1` sets it globally).
    pub fn set_event_skipping(&mut self, on: bool) {
        self.shards_mut().for_each(|s| s.set_event_skipping(on));
    }

    /// Arms a simulation-layer fault. Data-plane kinds (stuck bank,
    /// dropped response) change response delivery to the cores, at every
    /// shard count; `FreezeClock` and `Panic` are no-ops at this layer (the
    /// supervision loop driving the system implements them).
    pub fn inject_fault(&mut self, kind: SimFaultKind) {
        self.shards_mut().for_each(|s| s.inject_fault(kind));
    }

    /// Installs an observability tracer on every component of the system
    /// (cores, shapers, memory controllers).
    ///
    /// # Panics
    ///
    /// Panics on a multi-shard system.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.single().set_tracer(&tracer);
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
    /// Panics if `window` is zero, or on a multi-shard system.
    pub fn enable_interval_sampling(&mut self, window: Cycle) {
        let (hz, n) = (self.cfg.core.clock_hz, self.n_cores);
        self.single().sampler = Some(IntervalSampler::new(window, hz, n, n));
    }

    /// Enables windowed shaper telemetry (queue depth, slack, real/fake
    /// fills) on any shapers in the memory path. A no-op for unshaped
    /// memory kinds.
    pub fn enable_shaper_timelines(&mut self, window: Cycle) {
        self.shards_mut()
            .for_each(|s| s.enable_shaper_timelines(window));
    }

    /// Installs a live-progress heartbeat: the current cycle, the
    /// supersteps completed and the cycles skipped are published into the
    /// probe between supervision slices (hop 0) or at every superstep
    /// barrier.
    pub fn set_progress_probe(&mut self, probe: ProgressProbe) {
        self.progress = Some(probe);
    }

    /// Whether core `domain` has finished.
    pub fn core_finished(&self, domain: usize) -> bool {
        let stop = StopWhen::CoreFinished(domain);
        stop_value(&self.shards, &self.router.core_home, &stop, self.now).is_some()
    }

    /// Runs until every core finishes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadline`] if the budget is exhausted first.
    pub fn run_until_finished(&mut self, budget: Cycle) -> Result<Cycle, SimError> {
        self.drive(budget, StopWhen::AllFinished, None)
    }

    /// Runs until core `domain` finishes (other cores keep running
    /// alongside, providing contention) and returns its finish cycle.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadline`] if the budget is exhausted first.
    pub fn run_until_core_finished(
        &mut self,
        domain: usize,
        budget: Cycle,
    ) -> Result<Cycle, SimError> {
        self.drive(budget, StopWhen::CoreFinished(domain), None)
    }

    /// [`Self::run_until_core_finished`] under cooperative supervision:
    /// `should_abort` is evaluated before every slice of
    /// `SUPERVISION_CHUNK` cycles (hop 0) or at every superstep barrier,
    /// and a heartbeat is published after each. Slices compose exactly, so
    /// without an abort the outcome is identical to an unsupervised run.
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
        self.drive(budget, StopWhen::CoreFinished(domain), Some(should_abort))
    }

    /// Runs exactly `window` cycles.
    pub fn run_for(&mut self, window: Cycle) {
        let _ = self.drive(window, StopWhen::Never, None);
        self.finish();
    }

    /// Ends a measurement at the current cycle in every shard.
    fn finish(&mut self) {
        let now = self.now;
        self.shards_mut().for_each(|s| s.finish(now));
    }

    fn drive(
        &mut self,
        budget: Cycle,
        stop: StopWhen,
        abort: Option<&mut dyn FnMut() -> bool>,
    ) -> Result<Cycle, SimError> {
        let r = if self.scfg.noc_latency == 0 {
            self.run_direct(budget, &stop, abort)
        } else {
            self.run_supersteps(budget, &stop, abort.unwrap_or(&mut || false))
        };
        if r.is_ok() {
            self.finish();
        }
        r
    }

    /// Hop 0: one pass over the budget on the single shard, checking the
    /// stop condition before every tick — in slices of `SUPERVISION_CHUNK`
    /// cycles when supervised, with the abort check before and a heartbeat
    /// after each slice.
    fn run_direct(
        &mut self,
        budget: Cycle,
        stop: &StopWhen,
        abort: Option<&mut dyn FnMut() -> bool>,
    ) -> Result<Cycle, SimError> {
        let slice = if abort.is_some() {
            SUPERVISION_CHUNK
        } else {
            budget
        };
        let mut never = || false;
        let abort = abort.unwrap_or(&mut never);
        let mut now = self.now;
        let progress = self.progress.clone();
        let shard = self.single();
        let mut spent: Cycle = 0;
        let r = loop {
            if abort() {
                break Err(SimError::Aborted(format!(
                    "supervisor cancelled after {spent} cycles"
                )));
            }
            let step = slice.min(budget - spent);
            let end = now + step;
            let stopped = shard.run(&mut now, end, stop);
            if let Some(p) = &progress {
                p.record(now, 0, shard.engine.warped_cycles);
            }
            if let Some(t) = stopped {
                break Ok(t);
            }
            spent += step;
            if spent >= budget {
                break Err(SimError::Deadline { budget });
            }
        };
        self.now = now;
        r
    }

    /// Hop ≥ 1: the superstep coordinator (see the module docs).
    fn run_supersteps(
        &mut self,
        budget: Cycle,
        stop: &StopWhen,
        abort: &mut dyn FnMut() -> bool,
    ) -> Result<Cycle, SimError> {
        let Self {
            shards,
            router,
            claimed,
            parties,
            now,
            step_end,
            skip_to,
            progress,
            scfg,
            ..
        } = self;
        let (shards, claimed, parties) = (&*shards, &*claimed, *parties);
        if step_end.is_none() && skip_to.is_none() {
            if let Some(t) = stop_value(shards, &router.core_home, stop, *now) {
                return Ok(t);
            }
        }
        let (origin, limit, n) = (*now, *now + budget, shards.len());
        // Each thread first claims its own stripe (stable shard→thread
        // affinity keeps shard state warm in one core's cache), then sweeps
        // the rest, so a thread delayed by OS jitter sheds leftover shards
        // instead of stalling the join barrier.
        let run_claimed = move |me: usize, start: Cycle, end: Cycle| {
            let stolen = (0..n).filter(|i| i % parties != me);
            for i in (me..n).step_by(parties).chain(stolen) {
                if claimed[i]
                    .0
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    lock(&shards[i]).run_superstep(start, end);
                }
            }
        };
        let (mut steps, mut skipped) = (0u64, 0u64);
        // The coordinator loop; `exec` runs one superstep on every shard.
        let mut coordinate = |exec: &mut dyn FnMut(Cycle, Cycle)| loop {
            if abort() {
                let after = *now - origin;
                return Err(SimError::Aborted(format!(
                    "supervisor cancelled after {after} cycles"
                )));
            }
            // A budget never moves a barrier: an earlier run's capped skip
            // and cut superstep are finished before any barrier work.
            if let Some(to) = skip_to.take() {
                let from = *now;
                *skip_to = skip_toward(shards, now, to, limit);
                skipped += *now - from;
            }
            if *now >= limit {
                return Err(SimError::Deadline { budget });
            }
            let step = step_end.take().unwrap_or(*now + scfg.noc_latency);
            let end = step.min(limit);
            for c in claimed {
                c.0.store(false, Ordering::Relaxed);
            }
            steps += 1;
            exec(*now, end);
            *now = end;
            if end < step {
                *step_end = Some(step);
                return Err(SimError::Deadline { budget });
            }
            router.exchange(shards);
            let _prof = dg_prof::span("shard_hint");
            // Stop conditions are evaluated only at barriers, with the same
            // `now` for every shard count.
            let stopped = stop_value(shards, &router.core_home, stop, end);
            if stopped.is_none() {
                // Global quiescence skip: the next superstep starts at the
                // earliest event any shard promises (all in-flight messages
                // are routed, so their delivery cycles are included).
                let hint = shards
                    .iter()
                    .fold(None, |ev, m| earliest_event(ev, lock(m).next_event(end)));
                *skip_to = skip_toward(shards, now, hint.unwrap_or(limit), limit);
                skipped += *now - end;
            }
            if let Some(p) = progress {
                p.record(*now, steps, skipped);
            }
            if let Some(t) = stopped {
                return Ok(t);
            }
        };
        if parties == 1 {
            return coordinate(&mut |start, end| run_claimed(0, start, end));
        }

        let (start_at, end_at) = (AtomicU64::new(0), AtomicU64::new(0));
        let (done, panicked) = (AtomicBool::new(false), AtomicBool::new(false));
        let (release, join) = (SpinBarrier::new(parties), SpinBarrier::new(parties));
        let shutdown = || {
            done.store(true, Ordering::Release);
            release.wait();
        };
        std::thread::scope(|scope| {
            for w in 1..parties {
                let (release, join, done, panicked) = (&release, &join, &done, &panicked);
                let (start_at, end_at) = (&start_at, &end_at);
                scope.spawn(move || loop {
                    release.wait();
                    if done.load(Ordering::Acquire) {
                        break;
                    }
                    let start = start_at.load(Ordering::Relaxed);
                    let end = end_at.load(Ordering::Relaxed);
                    if catch_unwind(AssertUnwindSafe(|| run_claimed(w, start, end))).is_err() {
                        panicked.store(true, Ordering::Release);
                    }
                    join.wait();
                });
            }
            let r = coordinate(&mut |start, end| {
                start_at.store(start, Ordering::Relaxed);
                end_at.store(end, Ordering::Relaxed);
                // Phase spans (host profiler, coordinator thread only): the
                // workers' exec time shows up as this thread's join wait.
                {
                    let _prof = dg_prof::span("shard_release");
                    release.wait();
                }
                let r = {
                    let _prof = dg_prof::span("shard_exec");
                    catch_unwind(AssertUnwindSafe(|| run_claimed(0, start, end)))
                };
                {
                    let _prof = dg_prof::span("shard_join");
                    join.wait();
                }
                if r.is_err() || panicked.load(Ordering::Acquire) {
                    shutdown();
                    match r {
                        Err(payload) => std::panic::resume_unwind(payload),
                        Ok(()) => panic!("a shard worker thread panicked"),
                    }
                }
            });
            shutdown();
            r
        })
    }

    /// Assembles the end-of-run [`RunReport`] artifact: per-core IPC,
    /// per-domain traffic and latency distributions, shaper conformance,
    /// DRAM energy (priced with the default DDR3-1600 [`PowerParams`]),
    /// interference attribution, and any interval samples recorded so far.
    /// Shards own contiguous ranges of cores and channels, so walking them
    /// in order visits both in global order, and every merge (statistics,
    /// interference, engine counters) is grouping-independent: only
    /// `engine` (per-shard scan schedules) depends on the partitioning,
    /// and byte-comparing consumers normalize it.
    pub fn report(&self, name: &str) -> RunReport {
        let end = self.now;
        let clock_hz = self.cfg.core.clock_hz;
        let shards: Vec<_> = self.shards.iter().map(lock).collect();
        let mut engine = EngineCounters::default();
        let mut cores = Vec::with_capacity(self.n_cores);
        for s in &shards {
            engine.merge(&s.engine);
            cores.extend(s.core_reports(end));
        }
        let (interval_window, intervals) = shards[0].intervals();
        let mems: Vec<&dyn MemorySubsystem> = shards.iter().flat_map(|s| s.endpoints()).collect();
        // One channel's statistics are read in place (their window was
        // finalized when the run stopped); several are merged into a copy.
        let (domains, dram, banks) = if let [mem] = mems[..] {
            memory_sections(mem.stats(), self.n_cores, clock_hz)
        } else {
            let mut stats = MemStats::merged(&mems.iter().map(|m| m.stats()).collect::<Vec<_>>());
            stats.set_cycles(end.max(1));
            memory_sections(&stats, self.n_cores, clock_hz)
        };
        RunReport {
            meta: RunMeta {
                name: name.to_string(),
                memory: self.mem_label.to_string(),
                cores: self.n_cores,
                total_cycles: end,
                clock_hz,
            },
            cores,
            domains,
            shapers: mems.iter().flat_map(|m| m.shaper_reports()).collect(),
            shaper_timelines: mems.iter().flat_map(|m| m.shaper_timelines()).collect(),
            dram,
            banks,
            interference: merge_interference(mems.iter().filter_map(|m| m.interference())),
            interval_window,
            intervals,
            trace: TraceSummary {
                events_recorded: self.tracer.len() as u64,
                events_dropped: self.tracer.dropped(),
            },
            engine: engine.snapshot(),
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
            .field("shards", &self.shards.len())
            .field("cores", &self.n_cores)
            .field("noc_latency", &self.scfg.noc_latency)
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
        let report = sys.report("two_core");
        assert!(report.cores.iter().all(|c| c.ipc > 0.0));
        // Both cores' misses reached DRAM.
        assert!(report.domains[0].reads >= 200);
        assert!(report.domains[1].reads >= 200);
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

    /// A NoC run split by its budget ends on the unsplit run's barrier: a
    /// budget that cuts a superstep or caps a quiescence skip leaves the
    /// rest of it to the next call, before any barrier work.
    #[test]
    fn noc_runs_compose_across_budget_splits() {
        let mut cfg = SystemConfig::two_core();
        cfg.dram_org.channels = 2;
        let build = |shards| {
            crate::ShardedSystemBuilder::new(
                cfg.clone(),
                super::ShardConfig {
                    shards,
                    noc_latency: 64,
                    max_parties: None,
                },
            )
            .trace_core(small_trace(500, 0))
            .trace_core(small_trace(500, 1 << 30))
            .memory(MemoryKind::Insecure)
            .build()
        };
        for shards in [1, 2] {
            let mut whole = build(shards);
            let end = whole.run_until_core_finished(0, 100_000_000).unwrap();
            for budget in [63, 1_000, 12_345] {
                let mut split = build(shards);
                let split_end = loop {
                    match split.run_until_core_finished(0, budget) {
                        Ok(t) => break t,
                        Err(SimError::Deadline { .. }) => {}
                        Err(e) => panic!("unexpected {e:?}"),
                    }
                };
                let at = format!("{shards} shard(s), budget {budget}");
                assert_eq!(split_end, end, "{at}");
                assert_eq!(split.now(), whole.now(), "{at}");
                assert_eq!(outcome(&split), outcome(&whole), "{at}");
            }
        }
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

    /// What a [`Prober`] saw: each refused send as (offered, handed back)
    /// addresses, and the address of each response it received.
    #[derive(Default)]
    struct ProbeLog {
        refused: Vec<(u64, u64)>,
        responses: Vec<u64>,
    }

    /// A domain-0 core that offers a fixed list of reads as fast as the
    /// memory takes them, retrying a refused one first on the next tick.
    struct Prober {
        addrs: Vec<u64>,
        sent: usize,
        log: std::sync::Arc<std::sync::Mutex<ProbeLog>>,
    }

    impl dg_cpu::Core for Prober {
        fn domain(&self) -> dg_sim::types::DomainId {
            dg_sim::types::DomainId(0)
        }

        fn tick(
            &mut self,
            now: dg_sim::clock::Cycle,
            _l3: &mut dg_cache::SetAssocCache,
            mem: &mut dyn dg_mem::MemorySubsystem,
        ) {
            use dg_sim::types::{DomainId, MemRequest, ReqId};
            while let Some(&addr) = self.addrs.get(self.sent) {
                let id = ReqId::compose(DomainId(0), self.sent as u64);
                match mem.try_send(MemRequest::read(DomainId(0), addr, now).with_id(id), now) {
                    Ok(()) => self.sent += 1,
                    Err(back) => {
                        self.log.lock().unwrap().refused.push((addr, back.addr));
                        break;
                    }
                }
            }
        }

        fn on_response(&mut self, resp: &dg_sim::types::MemResponse, _now: dg_sim::clock::Cycle) {
            self.log.lock().unwrap().responses.push(resp.addr);
        }

        fn finished(&self) -> bool {
            self.log.lock().unwrap().responses.len() == self.addrs.len()
        }

        fn instructions_retired(&self) -> u64 {
            0
        }

        fn finished_at(&self) -> Option<dg_sim::clock::Cycle> {
            None
        }
    }

    #[test]
    fn two_channel_direct_system_keeps_cores_in_global_addresses() {
        use dg_sim::types::DomainId;
        let mut cfg = SystemConfig::two_core();
        cfg.dram_org.channels = 2;
        // A burst of odd lines overflows channel 1's transaction queue;
        // a few even lines go to channel 0.
        let odd = (0..100u64).map(|i| (2 * i + 1) * 64);
        let addrs: Vec<u64> = odd.chain((0..8u64).map(|i| 2 * i * 64)).collect();
        let log = std::sync::Arc::default();
        let prober = Prober {
            addrs: addrs.clone(),
            sent: 0,
            log: std::sync::Arc::clone(&log),
        };
        let mut sys = SystemBuilder::new(cfg)
            .core(Box::new(prober))
            .memory(MemoryKind::Insecure)
            .build();
        sys.run_until_finished(10_000_000).unwrap();
        let report = sys.report("two_channel");
        let log = log.lock().unwrap();
        // A refused send hands back the request as offered, in global form.
        assert!(!log.refused.is_empty(), "channel 1 must push back");
        for &(offered, back) in &log.refused {
            assert_eq!(back, offered);
        }
        // Responses reach the core with global addresses.
        let (mut got, mut want) = (log.responses.clone(), addrs);
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
        // The report's per-domain reads are the sum over both channels.
        let reads: Vec<u64> = sys
            .single()
            .endpoints()
            .map(|m| m.stats().domain(DomainId(0)).reads)
            .collect();
        assert_eq!(reads, [8, 100]);
        assert_eq!(report.domains[0].reads, 108);
    }

    /// A burst of more requests than both channels have transaction-queue
    /// slots: the NoC port takes a queue's worth per channel, then refuses
    /// the core until responses return credits, handing each refused
    /// request back as offered. Every response comes back in global form,
    /// and the report does not depend on the shard count.
    #[test]
    fn noc_credits_push_back_on_a_burst_at_every_shard_count() {
        let mut cfg = SystemConfig::two_core();
        cfg.dram_org.channels = 2;
        let addrs: Vec<u64> = (0..600u64).map(|i| i * 64).collect();
        let run = |shards| {
            let log = std::sync::Arc::<std::sync::Mutex<ProbeLog>>::default();
            let prober = Prober {
                addrs: addrs.clone(),
                sent: 0,
                log: std::sync::Arc::clone(&log),
            };
            let scfg = super::ShardConfig {
                shards,
                noc_latency: 64,
                max_parties: None,
            };
            let mut sys = super::System::new(
                cfg.clone(),
                scfg,
                vec![Box::new(prober)],
                MemoryKind::Insecure,
            );
            sys.run_until_finished(10_000_000).unwrap();
            // The report asks the prober whether it finished, which takes
            // the log's lock: read it first.
            let report = outcome(&sys);
            let log = log.lock().unwrap();
            // Lines alternate channels, so the first 64 spend every credit.
            let slots = cfg.queues.transaction_queue as u64;
            assert_eq!(log.refused.first(), Some(&(2 * slots * 64, 2 * slots * 64)));
            for &(offered, back) in &log.refused {
                assert_eq!(back, offered);
            }
            let mut got = log.responses.clone();
            got.sort_unstable();
            assert_eq!(got, addrs, "{shards} shard(s)");
            report
        };
        assert_eq!(run(1), run(2));
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
