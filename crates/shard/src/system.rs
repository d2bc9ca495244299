//! The sharded system: partitioning, the conservative-PDES superstep
//! coordinator, and report assembly.
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
//! superstep's start — skipping globally quiescent spans entirely.
//!
//! Worker threads and the coordinator meet at two spin barriers per
//! superstep (release → execute → join); shard slots are uncontended
//! mutexes, and a panicking worker raises a flag instead of hanging the
//! barrier.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use dg_cache::SetAssocCache;
use dg_cpu::{Core, MemTrace, TraceCore};
use dg_mem::{merge_interference, ChannelMap, MemStats, MemorySubsystem};
use dg_obs::{RunMeta, RunReport, TraceSummary};
use dg_sim::clock::{earliest_event, Cycle};
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_sim::types::DomainId;
use dg_system::{build_channel_memories, memory_sections, MemoryKind};

use crate::barrier::SpinBarrier;
use crate::fragment::ShardReportFragment;
use crate::msg::{StampedReq, StampedResp};
use crate::shard::Shard;

/// Sharding parameters.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Number of shards the cores and channels are partitioned into.
    pub shards: usize,
    /// NoC hop latency in CPU cycles; every core↔channel message takes one
    /// hop, and this is also the PDES lookahead horizon (superstep width).
    pub noc_latency: Cycle,
    /// Per-core requests admitted onto the NoC per superstep. The default
    /// is far above any core's outstanding-miss limit, so it never binds —
    /// it exists to give the egress ring a provable capacity bound.
    pub link_window: u64,
    /// Upper bound on worker threads (`None` = one per host CPU, capped at
    /// the shard count). Results are identical for every value; forcing 1
    /// gives the single-threaded reference for self-relative speedup
    /// measurements. `DG_SHARD_PARTIES` overrides at run time.
    pub max_parties: Option<usize>,
}

impl Default for ShardConfig {
    fn default() -> Self {
        Self {
            shards: 1,
            noc_latency: 64,
            link_window: 256,
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

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.0
    }
}

/// Stop condition evaluated at superstep barriers.
enum StopWhen {
    /// Every core drained its workload.
    AllFinished,
    /// The core with this global index finished (the victim-centric
    /// measurement interval).
    CoreFinished(usize),
}

/// Builds a [`ShardedSystem`] from trace-driven cores and a memory kind.
pub struct ShardedSystemBuilder {
    cfg: SystemConfig,
    scfg: ShardConfig,
    traces: Vec<MemTrace>,
    kind: MemoryKind,
}

impl ShardedSystemBuilder {
    /// Starts building with the given base and sharding configurations.
    pub fn new(cfg: SystemConfig, scfg: ShardConfig) -> Self {
        Self {
            cfg,
            scfg,
            traces: Vec::new(),
            kind: MemoryKind::Insecure,
        }
    }

    /// Adds a trace-driven core; its domain is its position.
    pub fn trace_core(mut self, trace: MemTrace) -> Self {
        self.traces.push(trace);
        self
    }

    /// Selects the memory path (instantiated once per channel).
    pub fn memory(mut self, kind: MemoryKind) -> Self {
        self.kind = kind;
        self
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if no cores were added or `shards == 0`.
    pub fn build(self) -> ShardedSystem {
        assert!(!self.traces.is_empty(), "a system needs at least one core");
        assert!(self.scfg.shards >= 1, "at least one shard required");
        let mut cfg = self.cfg;
        let n_cores = self.traces.len();
        cfg.cores = n_cores;
        let n_channels = cfg.dram_org.channels.max(1) as usize;
        let map = ChannelMap::new(n_channels as u32, cfg.dram_org.line_bytes);
        let mem_label = self.kind.label();
        let lanes = build_channel_memories(&cfg, &self.kind, n_cores);

        let mut cores: Vec<Option<Box<dyn Core>>> = self
            .traces
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                Some(Box::new(TraceCore::new(DomainId(i as u16), t, &cfg)) as Box<dyn Core>)
            })
            .collect();
        let mut lanes: Vec<Option<Box<dyn MemorySubsystem>>> =
            lanes.into_iter().map(Some).collect();

        let no_skip = std::env::var("DG_NO_SKIP")
            .map(|v| v != "0" && !v.is_empty())
            .unwrap_or(false);

        let s = self.scfg.shards;
        let mut shards = Vec::with_capacity(s);
        let mut core_home = vec![0usize; n_cores];
        let mut chan_home = vec![0usize; n_channels];
        for id in 0..s {
            let core_range = partition(n_cores, s, id);
            let chan_range = partition(n_channels, s, id);
            let shard_cores = core_range
                .clone()
                .map(|i| {
                    core_home[i] = id;
                    // Private per-core L3 slice (1 MB, Table 2); sharded
                    // systems do not model a shared L3.
                    let l3 = SetAssocCache::new(cfg.cache.l3_per_core, "L3");
                    (i as u32, cores[i].take().expect("core taken once"), l3)
                })
                .collect();
            let shard_chans = chan_range
                .clone()
                .map(|i| {
                    chan_home[i] = id;
                    (i as u32, lanes[i].take().expect("lane taken once"))
                })
                .collect();
            shards.push(CachePadded(Mutex::new(Shard::new(
                id,
                core_range.start,
                shard_cores,
                chan_range.start,
                shard_chans,
                map,
                self.scfg.noc_latency,
                self.scfg.link_window,
                !no_skip,
            ))));
        }

        ShardedSystem {
            cfg,
            scfg: self.scfg,
            shards,
            core_home,
            chan_home,
            map,
            now: 0,
            mem_label,
            n_cores,
            progress: None,
        }
    }
}

/// A multi-channel system partitioned into shards, each advanced by its
/// own thread between conservative-PDES barriers. For any shard count the
/// merged [`RunReport`] (engine telemetry aside) is byte-identical to the
/// single-shard reference — `DG_SHARDS=1` is the differential oracle.
pub struct ShardedSystem {
    cfg: SystemConfig,
    scfg: ShardConfig,
    shards: Vec<CachePadded<Mutex<Shard>>>,
    /// Global core index → owning shard.
    core_home: Vec<usize>,
    /// Global channel index → owning shard.
    chan_home: Vec<usize>,
    map: ChannelMap,
    now: Cycle,
    mem_label: &'static str,
    n_cores: usize,
    /// Live-progress heartbeat the coordinator publishes into at every
    /// superstep barrier (`None` when unmonitored). Write-only: never
    /// read back into simulation state, so results are probe-independent.
    progress: Option<dg_mon::ProgressProbe>,
}

impl ShardedSystem {
    /// The configuration this system runs.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// Current simulation time (always a barrier cycle).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.n_cores
    }

    /// Whether core `domain` has finished.
    pub(crate) fn core_finished(&self, domain: usize) -> bool {
        self.stop_value(&StopWhen::CoreFinished(domain)).is_some()
    }

    /// Enables or disables intra-superstep quiescent-cycle skipping on
    /// every shard (differential testing against the naive loop).
    pub fn set_event_skipping(&mut self, on: bool) {
        for m in &self.shards {
            lock(m).set_event_skipping(on);
        }
    }

    /// Enables windowed shaper telemetry on every channel.
    pub fn enable_shaper_timelines(&mut self, window: Cycle) {
        for m in &self.shards {
            lock(m).enable_shaper_timelines(window);
        }
    }

    /// Installs a live-progress heartbeat: the superstep coordinator
    /// publishes (current cycle, supersteps completed, cycles skipped via
    /// global quiescence warps) into the probe at every barrier.
    pub fn set_progress_probe(&mut self, probe: dg_mon::ProgressProbe) {
        self.progress = Some(probe);
    }

    /// Runs until every core finishes.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Deadline`] if the budget is exhausted first.
    pub fn run_until_finished(&mut self, budget: Cycle) -> Result<Cycle, SimError> {
        self.drive(budget, StopWhen::AllFinished, &mut || false)
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
        self.drive(budget, StopWhen::CoreFinished(domain), &mut || false)
    }

    /// [`Self::run_until_core_finished`] under cooperative supervision:
    /// `should_abort` is evaluated at every superstep barrier, so external
    /// cancellation needs no watchdog thread and no extra chunking.
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
        self.drive(budget, StopWhen::CoreFinished(domain), should_abort)
    }

    /// The stop condition's result value, if already satisfied.
    fn stop_value(&self, stop: &StopWhen) -> Option<Cycle> {
        match stop {
            StopWhen::AllFinished => self
                .shards
                .iter()
                .all(|m| lock(m).all_finished())
                .then_some(self.now),
            StopWhen::CoreFinished(d) => {
                lock(&self.shards[self.core_home[*d]]).core_finished_at(*d)
            }
        }
    }

    /// The superstep coordinator (see the module docs for the protocol).
    fn drive(
        &mut self,
        budget: Cycle,
        stop: StopWhen,
        should_abort: &mut dyn FnMut() -> bool,
    ) -> Result<Cycle, SimError> {
        if let Some(t) = self.stop_value(&stop) {
            return Ok(t);
        }
        let limit = self.now + budget;
        let n = self.shards.len();
        let cap = std::env::var("DG_SHARD_PARTIES")
            .ok()
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&p| p > 0)
            .or(self.scfg.max_parties)
            .unwrap_or(usize::MAX);
        let parties = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
            .min(cap)
            .min(n)
            .max(1);
        let width = self.scfg.noc_latency.max(1);

        let shards = &self.shards;
        let chan_home = &self.chan_home;
        let core_home = &self.core_home;
        let map = self.map;
        let start_at = AtomicU64::new(0);
        let end_at = AtomicU64::new(0);
        let done = AtomicBool::new(false);
        let panicked = AtomicBool::new(false);
        // Per-superstep claim flags. Each thread first claims its own
        // stripe (stable shard→thread affinity keeps shard state warm in
        // one core's cache), then sweeps the rest, so a thread delayed by
        // OS jitter sheds leftover shards instead of stalling the join
        // barrier.
        let claimed: Vec<CachePadded<AtomicBool>> = (0..n)
            .map(|_| CachePadded(AtomicBool::new(false)))
            .collect();
        let claimed = &claimed;
        let release = SpinBarrier::new(parties);
        let join = SpinBarrier::new(parties);

        let run_claimed = move |me: usize, start: Cycle, end: Cycle| {
            let stolen = (0..n).filter(|i| i % parties != me);
            for i in (me..n).step_by(parties).chain(stolen) {
                if claimed[i]
                    .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                    .is_ok()
                {
                    lock(&shards[i]).run_superstep(start, end);
                }
            }
        };

        let timing = std::env::var_os("DG_SHARD_TIMING").is_some();
        let mut t_exec = std::time::Duration::ZERO;
        let mut t_join = std::time::Duration::ZERO;
        let mut t_route = std::time::Duration::ZERO;
        let mut t_hint = std::time::Duration::ZERO;
        let mut t_release = std::time::Duration::ZERO;
        let mut steps = 0u64;
        let mut skipped_total = 0u64;
        let probe = self.progress.clone();

        let mut now = self.now;
        let outcome = std::thread::scope(|scope| {
            for w in 1..parties {
                let (release, join) = (&release, &join);
                let (start_at, end_at) = (&start_at, &end_at);
                let (done, panicked) = (&done, &panicked);
                let run_claimed = &run_claimed;
                scope.spawn(move || {
                    let mut w_exec = std::time::Duration::ZERO;
                    let mut w_release = std::time::Duration::ZERO;
                    loop {
                        let t0 = std::time::Instant::now();
                        release.wait();
                        w_release += t0.elapsed();
                        if done.load(Ordering::Acquire) {
                            break;
                        }
                        let start = start_at.load(Ordering::Relaxed);
                        let end = end_at.load(Ordering::Relaxed);
                        let t1 = std::time::Instant::now();
                        let r = catch_unwind(AssertUnwindSafe(|| run_claimed(w, start, end)));
                        w_exec += t1.elapsed();
                        if r.is_err() {
                            panicked.store(true, Ordering::Release);
                        }
                        join.wait();
                    }
                    if timing {
                        eprintln!("[shard timing] worker{w} exec={w_exec:?} release={w_release:?}");
                    }
                });
            }

            // Routing batch buffers, reused across supersteps.
            let mut reqs: Vec<StampedReq> = Vec::new();
            let mut resps: Vec<StampedResp> = Vec::new();
            let mut req_staging: Vec<Vec<StampedReq>> = (0..n).map(|_| Vec::new()).collect();
            let mut resp_staging: Vec<Vec<StampedResp>> = (0..n).map(|_| Vec::new()).collect();

            let shutdown = || {
                done.store(true, Ordering::Release);
                release.wait();
            };

            loop {
                if should_abort() {
                    shutdown();
                    return Err(SimError::Aborted(format!(
                        "supervisor cancelled after {} cycles",
                        now - self.now
                    )));
                }
                if now >= limit {
                    shutdown();
                    return Err(SimError::Deadline { budget });
                }
                let end = (now + width).min(limit);
                start_at.store(now, Ordering::Relaxed);
                end_at.store(end, Ordering::Relaxed);
                for c in claimed.iter() {
                    c.store(false, Ordering::Relaxed);
                }
                steps += 1;
                let t0 = std::time::Instant::now();
                release.wait();
                let t1 = std::time::Instant::now();
                t_release += t1 - t0;
                let r = catch_unwind(AssertUnwindSafe(|| run_claimed(0, now, end)));
                let t2 = std::time::Instant::now();
                t_exec += t2 - t1;
                join.wait();
                let t3 = std::time::Instant::now();
                t_join += t3 - t2;
                if r.is_err() || panicked.load(Ordering::Acquire) {
                    shutdown();
                    match r {
                        Err(payload) => std::panic::resume_unwind(payload),
                        Ok(()) => panic!("a shard worker thread panicked"),
                    }
                }
                now = end;

                // Exchange: drain every shard's egress, establish the
                // global NoC order, and route by home shard.
                reqs.clear();
                resps.clear();
                for m in shards.iter() {
                    lock(m).drain_outgoing(&mut reqs, &mut resps);
                }
                reqs.sort_unstable_by_key(StampedReq::key);
                resps.sort_unstable_by_key(StampedResp::key);
                for sr in reqs.drain(..) {
                    req_staging[chan_home[map.channel_of(sr.req.addr) as usize]].push(sr);
                }
                for sr in resps.drain(..) {
                    resp_staging[core_home[sr.resp.domain.0 as usize]].push(sr);
                }
                for (i, stage) in req_staging.iter_mut().enumerate() {
                    if !stage.is_empty() {
                        let mut sh = lock(&shards[i]);
                        for sr in stage.drain(..) {
                            sh.enqueue_req(sr);
                        }
                    }
                }
                for (i, stage) in resp_staging.iter_mut().enumerate() {
                    if !stage.is_empty() {
                        let mut sh = lock(&shards[i]);
                        for sr in stage.drain(..) {
                            sh.enqueue_resp(sr);
                        }
                    }
                }

                t_route += t3.elapsed();
                let t4 = std::time::Instant::now();

                // Stop conditions are evaluated only at barriers, with the
                // same `now` for every shard count.
                let stopped = match &stop {
                    StopWhen::AllFinished => {
                        shards.iter().all(|m| lock(m).all_finished()).then_some(now)
                    }
                    StopWhen::CoreFinished(d) => {
                        lock(&shards[self.core_home[*d]]).core_finished_at(*d)
                    }
                };
                if let Some(t) = stopped {
                    if let Some(p) = &probe {
                        p.record(now, steps, skipped_total);
                    }
                    shutdown();
                    return Ok(t);
                }

                // Global quiescence skip: the next superstep starts at the
                // earliest event any shard promises (all in-flight messages
                // are already routed, so their delivery cycles are
                // included in the hints).
                let mut hint: Option<Cycle> = None;
                for m in shards.iter() {
                    hint = earliest_event(hint, lock(m).next_start_hint(now));
                }
                let before_hint = now;
                now = hint.map_or(limit, |t| t.clamp(now, limit));
                if now > before_hint {
                    for m in shards.iter() {
                        lock(m).settle_warp(before_hint, now);
                    }
                }
                skipped_total += now - before_hint;
                if let Some(p) = &probe {
                    p.record(now, steps, skipped_total);
                }
                t_hint += t4.elapsed();
            }
        });
        if timing {
            eprintln!(
                "[shard timing] steps={steps} release={t_release:?} exec={t_exec:?} \
                 join={t_join:?} route={t_route:?} hint+stop={t_hint:?}"
            );
        }
        self.now = now;
        outcome
    }

    /// Collects and merges every shard's report fragment (shard-index
    /// order; the merge itself is grouping-independent).
    fn merged_fragment(&self) -> ShardReportFragment {
        let mut merged = ShardReportFragment::default();
        for m in &self.shards {
            merged.merge(lock(m).fragment(self.now));
        }
        merged
    }

    /// The merged per-channel statistics with the measurement window
    /// finalized at the current cycle.
    fn merged_stats(fragment: &ShardReportFragment, now: Cycle) -> MemStats {
        let parts: Vec<&MemStats> = fragment.channels.iter().map(|c| &c.stats).collect();
        let mut stats = MemStats::merged(&parts);
        stats.set_cycles(now.max(1));
        stats
    }

    /// Assembles the end-of-run [`RunReport`] from the merged shard
    /// fragments. Identical to the single-shard report for every field
    /// except `engine`, which legitimately differs with the partitioning
    /// (per-shard scan schedules) and is normalized by byte-comparing
    /// consumers.
    pub fn report(&self, name: &str) -> RunReport {
        let end = self.now;
        let clock_hz = self.cfg.core.clock_hz;
        let fragment = self.merged_fragment();
        let stats = Self::merged_stats(&fragment, end);

        let cores: Vec<_> = fragment.cores.iter().map(|(_, r)| r.clone()).collect();
        let (domains, dram, banks) = memory_sections(&stats, self.n_cores, clock_hz);
        let interference_parts: Vec<_> = fragment
            .channels
            .iter()
            .filter_map(|c| c.interference.clone())
            .collect();
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
            shapers: fragment
                .channels
                .iter()
                .flat_map(|c| c.shapers.clone())
                .collect(),
            shaper_timelines: fragment
                .channels
                .iter()
                .flat_map(|c| c.timelines.clone())
                .collect(),
            dram,
            banks,
            interference: merge_interference(interference_parts),
            // Interval sampling and event tracing are not supported in
            // sharded mode (`run_colocation` rejects requests for them);
            // the fields stay at their empty defaults so reports remain
            // schema-compatible.
            interval_window: 0,
            intervals: Vec::new(),
            trace: TraceSummary {
                events_recorded: 0,
                events_dropped: 0,
            },
            engine: fragment.engine.snapshot(),
        }
    }
}

impl std::fmt::Debug for ShardedSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedSystem")
            .field("shards", &self.shards.len())
            .field("cores", &self.n_cores)
            .field("channels", &self.chan_home.len())
            .field("now", &self.now)
            .finish()
    }
}

/// Locks a shard slot, recovering from poisoning (a panicked superstep has
/// already aborted the run; later read-only access is still sound for
/// diagnostics).
fn lock<'a>(m: &'a Mutex<Shard>) -> std::sync::MutexGuard<'a, Shard> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}
