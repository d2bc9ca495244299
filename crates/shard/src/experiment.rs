//! The co-location entry point: [`run_colocation`] runs traces on either
//! runtime — the classic single-threaded [`System`] or the sharded one —
//! under one supervision loop, and reports both the same way.

use dg_cpu::MemTrace;
use dg_fault::SimFaultKind;
use dg_mon::ProgressProbe;
use dg_obs::{Event, RunReport, Tracer};
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_system::{ColocationResult, MemoryKind, System, SystemBuilder};

use crate::system::{ShardConfig, ShardedSystem, ShardedSystemBuilder};

/// The shard count requested through the `DG_SHARDS` environment variable,
/// `None` when unset. Presence selects the sharded path even for
/// `DG_SHARDS=1` — that is the differential oracle against `DG_SHARDS=N`.
///
/// # Panics
///
/// Panics when set to something that is not a positive integer; a silently
/// ignored typo would invalidate a sweep.
pub fn shards_from_env() -> Option<usize> {
    let raw = std::env::var("DG_SHARDS").ok()?;
    let n: usize = raw
        .trim()
        .parse()
        .unwrap_or_else(|_| panic!("DG_SHARDS must be a positive integer, got {raw:?}"));
    assert!(n >= 1, "DG_SHARDS must be at least 1");
    Some(n)
}

/// Options for [`run_colocation`]. Start from [`RunOpts::new`] and
/// override fields with struct-update syntax.
pub struct RunOpts<'a> {
    /// Cycles the primary core (domain 0) has to finish in.
    pub budget: Cycle,
    /// Run on the sharded runtime with this many shards; `None` runs the
    /// classic [`System`]. The runtimes model different timing (every
    /// sharded core↔channel message takes a NoC hop), so results agree
    /// across shard counts but not with the classic runtime.
    pub shards: Option<usize>,
    /// Event-trace ring-buffer capacity (`None` = tracing off). Classic
    /// runtime only.
    pub trace_capacity: Option<usize>,
    /// Window in CPU cycles for interval sampling and shaper timelines
    /// (`None` = both off). Classic runtime only.
    pub metrics_window: Option<Cycle>,
    /// Run name recorded in the report.
    pub name: &'a str,
    /// Cooperative cancellation (e.g. a wall-clock timeout), polled
    /// between supervision slices (classic) or at every superstep barrier
    /// (sharded). Never touches simulation state.
    pub abort: Option<&'a mut dyn FnMut() -> bool>,
    /// Live-progress heartbeat. Write-only for the simulation, so results
    /// are identical with or without it.
    pub probe: Option<&'a ProgressProbe>,
    /// Injected simulation fault (see [`SimFaultKind`]). Data-plane kinds
    /// (stuck bank, dropped response) need the classic runtime.
    pub fault: Option<SimFaultKind>,
}

impl RunOpts<'_> {
    /// A bare classic run with the given budget: no tracing, sampling,
    /// supervision or fault.
    pub fn new(budget: Cycle) -> Self {
        Self {
            budget,
            shards: None,
            trace_capacity: None,
            metrics_window: None,
            name: "colocation",
            abort: None,
            probe: None,
            fault: None,
        }
    }
}

/// What [`run_colocation`] produces.
#[derive(Debug)]
pub struct RunOutput {
    /// The co-location view, derived from `report`.
    pub result: ColocationResult,
    /// The end-of-run report.
    pub report: RunReport,
    /// The recorded event trace (empty unless `trace_capacity` was set).
    pub events: Vec<Event>,
}

/// The two runtimes behind the one supervision loop. One value exists per
/// run and never moves in a loop, so the variants' size gap is harmless.
#[allow(clippy::large_enum_variant)]
enum Runtime {
    Classic(System),
    Sharded(ShardedSystem),
}

impl Runtime {
    fn build(cfg: &SystemConfig, traces: Vec<MemTrace>, kind: MemoryKind, opts: &RunOpts) -> Self {
        match opts.shards {
            None => {
                let mut b = SystemBuilder::new(cfg.clone());
                for t in traces {
                    b = b.trace_core(t);
                }
                let mut sys = b.memory(kind).build();
                if let Some(capacity) = opts.trace_capacity {
                    sys.set_tracer(Tracer::ring(capacity));
                }
                if let Some(window) = opts.metrics_window {
                    sys.enable_interval_sampling(window);
                    sys.enable_shaper_timelines(window);
                }
                if let Some(p) = opts.probe {
                    sys.set_progress_probe(p.clone());
                }
                if let Some(f) = opts.fault.filter(|f| f.needs_reference_runtime()) {
                    sys.inject_fault(f);
                }
                Runtime::Classic(sys)
            }
            Some(shards) => {
                let mut b =
                    ShardedSystemBuilder::new(cfg.clone(), ShardConfig::with_shards(shards));
                for t in traces {
                    b = b.trace_core(t);
                }
                let mut sys = b.memory(kind).build();
                if let Some(p) = opts.probe {
                    sys.set_progress_probe(p.clone());
                }
                Runtime::Sharded(sys)
            }
        }
    }

    /// Runs until the primary core finishes, checking `abort` as the
    /// runtime's supervision allows.
    fn run(&mut self, budget: Cycle, abort: &mut dyn FnMut() -> bool) -> Result<Cycle, SimError> {
        match self {
            Runtime::Classic(sys) => sys.run_until_core_finished_supervised(0, budget, abort),
            Runtime::Sharded(sys) => sys.run_until_core_finished_supervised(0, budget, abort),
        }
    }

    /// Whether the primary core (domain 0) has finished.
    fn primary_finished(&self) -> bool {
        match self {
            Runtime::Classic(sys) => sys.cores()[0].finished(),
            Runtime::Sharded(sys) => sys.core_finished(0),
        }
    }

    fn report(&self, name: &str) -> RunReport {
        match self {
            Runtime::Classic(sys) => sys.report(name),
            Runtime::Sharded(sys) => sys.report(name),
        }
    }

    fn events(&self) -> Vec<Event> {
        match self {
            Runtime::Classic(sys) => sys.tracer().snapshot(),
            Runtime::Sharded(_) => Vec::new(),
        }
    }
}

/// Whether `fault` can run with the given shard count: data-plane faults
/// (stuck bank, dropped response) live inside the classic memory tick and
/// are not modeled by the sharded runtime, so a sharded run refuses them
/// rather than silently mixing in classic timing.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] naming the fault when `shards` is set and
/// `fault` is a data-plane kind.
pub fn check_fault(shards: Option<usize>, fault: Option<SimFaultKind>) -> Result<(), SimError> {
    match fault {
        Some(f) if shards.is_some() && f.needs_reference_runtime() => {
            Err(SimError::InvalidConfig(format!(
                "sim fault `{f}` needs the classic runtime (data-plane faults are not \
                 modeled by the sharded memory path)"
            )))
        }
        _ => Ok(()),
    }
}

/// Options the sharded runtime cannot honor. Rejecting them up front keeps
/// a sharded report from silently carrying empty trace/sampling sections.
fn check_sharded(opts: &RunOpts) -> Result<(), SimError> {
    check_fault(opts.shards, opts.fault)?;
    if opts.shards.is_some() && (opts.trace_capacity.is_some() || opts.metrics_window.is_some()) {
        return Err(SimError::InvalidConfig(
            "event tracing and metrics windows need the classic runtime".to_string(),
        ));
    }
    Ok(())
}

/// Runs the traces co-located on one system with the given memory path
/// until the *primary* core (domain 0) finishes — the paper's
/// victim-centric measurement interval — bounded by `opts.budget`.
///
/// `opts.shards` selects the runtime. Either way the run is supervised by
/// the same loop: `opts.abort` can cancel it, `opts.probe` receives
/// heartbeats, and the control-plane faults are implemented here — the run
/// is driven to the fault's trigger cycle, which then either fires a
/// deterministic panic or pins the simulated clock (heartbeating the
/// frozen cycle until the supervisor cancels or [`dg_fault::freeze_cap`]
/// expires). A fault fires only if the primary core is still running at
/// its trigger cycle. Data-plane faults are armed on the classic
/// [`System`].
///
/// # Errors
///
/// [`SimError::InvalidConfig`] for sharded runs asking for a data-plane
/// fault, event tracing or a metrics window; [`SimError::Deadline`] when
/// the budget is exhausted before the primary core finishes;
/// [`SimError::Aborted`] when `opts.abort` fires or a frozen clock is
/// cancelled (the diagnosis names the pinned cycle).
///
/// # Panics
///
/// Panics deterministically at the trigger cycle of a
/// [`SimFaultKind::Panic`] fault.
pub fn run_colocation(
    cfg: &SystemConfig,
    traces: Vec<MemTrace>,
    kind: MemoryKind,
    opts: RunOpts,
) -> Result<RunOutput, SimError> {
    check_sharded(&opts)?;
    let mut rt = {
        let _prof = dg_prof::span("setup");
        Runtime::build(cfg, traces, kind, &opts)
    };
    let RunOpts {
        budget,
        name,
        abort,
        probe,
        fault,
        ..
    } = opts;
    let mut never = || false;
    let abort: &mut dyn FnMut() -> bool = abort.unwrap_or(&mut never);
    {
        let _prof = dg_prof::span("sim");
        let trigger = match fault {
            Some(SimFaultKind::FreezeClock { at } | SimFaultKind::Panic { at }) if at < budget => {
                Some(at)
            }
            _ => None,
        };
        match trigger {
            None => rt.run(budget, abort)?,
            Some(at) => match rt.run(at, abort) {
                Err(SimError::Deadline { .. }) if !rt.primary_finished() => {
                    if let Some(SimFaultKind::Panic { .. }) = fault {
                        panic!("injected fault: deterministic panic at cycle {at}");
                    }
                    // The simulated clock is pinned: host time passes,
                    // heartbeats repeat the frozen cycle, and only the
                    // supervisor (or the host-time cap) ends the run.
                    let heartbeat = || {
                        if let Some(p) = probe {
                            p.record(at, 0, 0);
                        }
                    };
                    return Err(SimError::Aborted(dg_fault::hold_frozen_clock(
                        at, heartbeat, abort,
                    )));
                }
                // The primary core finished on the run's last tick: the
                // fault never fires, and the resumed run returns at once.
                Err(SimError::Deadline { .. }) => rt.run(budget - at, abort)?,
                // Finished before the trigger cycle: the fault never fires.
                r => r?,
            },
        };
    }
    let _prof = dg_prof::span("report");
    let report = rt.report(name);
    Ok(RunOutput {
        result: ColocationResult::from_report(&report),
        events: rt.events(),
        report,
    })
}
