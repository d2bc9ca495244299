//! The co-location entry point: [`run_colocation`] runs traces on the one
//! simulation engine — directly wired or sharded over a NoC — under one
//! supervision loop.

use dg_cpu::MemTrace;
use dg_fault::SimFaultKind;
use dg_mon::ProgressProbe;
use dg_obs::{Event, RunReport, Tracer};
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_system::{ColocationResult, MemoryKind, ShardConfig, ShardedSystemBuilder};

/// Options for [`run_colocation`]. Start from [`RunOpts::new`] and
/// override fields with struct-update syntax.
pub struct RunOpts<'a> {
    /// Cycles the primary core (domain 0) has to finish in.
    pub budget: Cycle,
    /// `None` wires the cores straight to the memory path (the paper's
    /// system); `Some(n)` partitions them and the channels into `n` shards
    /// on the default NoC ([`ShardConfig::with_shards`]). Every NoC message
    /// takes a hop, so results agree across shard counts but not with the
    /// direct-wired run.
    pub shards: Option<usize>,
    /// Event-trace ring-buffer capacity (`None` = tracing off). Needs one
    /// shard.
    pub trace_capacity: Option<usize>,
    /// Window in CPU cycles for interval sampling and shaper timelines
    /// (`None` = both off). Needs one shard.
    pub metrics_window: Option<Cycle>,
    /// Run name recorded in the report.
    pub name: &'a str,
    /// Cooperative cancellation (e.g. a wall-clock timeout), polled
    /// between supervision slices (direct-wired) or at every superstep
    /// barrier (NoC). Never touches simulation state.
    pub abort: Option<&'a mut dyn FnMut() -> bool>,
    /// Live-progress heartbeat. Write-only for the simulation, so results
    /// are identical with or without it.
    pub probe: Option<&'a ProgressProbe>,
    /// Injected simulation fault (see [`SimFaultKind`]), at any shard
    /// count.
    pub fault: Option<SimFaultKind>,
}

impl RunOpts<'_> {
    /// A bare direct-wired run with the given budget: no tracing,
    /// sampling, supervision or fault.
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

    /// The topology these options select.
    fn shard_config(&self) -> ShardConfig {
        match self.shards {
            None => ShardConfig {
                noc_latency: 0,
                ..ShardConfig::default()
            },
            Some(shards) => ShardConfig::with_shards(shards),
        }
    }

    /// Checks up front that the engine can run these options
    /// ([`ShardConfig::check`]), so a report never silently lacks a
    /// section it was asked for.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] for event tracing or a metrics window
    /// on more than one shard.
    pub fn check(&self) -> Result<(), SimError> {
        let observed = self.trace_capacity.is_some() || self.metrics_window.is_some();
        self.shard_config().check(observed)
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

/// Runs the traces co-located on one system with the given memory path
/// until the *primary* core (domain 0) finishes — the paper's
/// victim-centric measurement interval — bounded by `opts.budget`.
///
/// `opts.shards` selects the topology. Either way the run is supervised
/// by the same loop: `opts.abort` can cancel it, `opts.probe` receives
/// heartbeats, data-plane faults are armed on the system, and the
/// control-plane faults are implemented here — the run is driven to the
/// fault's trigger cycle, which then either fires a deterministic panic or
/// pins the simulated clock (heartbeating the frozen cycle until the
/// supervisor cancels or [`dg_fault::FREEZE_CAP`] expires). A fault fires
/// only if the primary core is still running at its trigger cycle.
///
/// # Errors
///
/// [`SimError::InvalidConfig`] when [`RunOpts::check`] rejects the options;
/// [`SimError::Deadline`] when the budget is exhausted before the primary
/// core finishes; [`SimError::Aborted`] when `opts.abort` fires or a frozen
/// clock is cancelled (the diagnosis names the pinned cycle).
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
    opts.check()?;
    let mut sys = {
        let _prof = dg_prof::span("setup");
        let mut b = ShardedSystemBuilder::new(cfg.clone(), opts.shard_config());
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
        if let Some(f) = opts.fault {
            sys.inject_fault(f);
        }
        sys
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
            None => sys.run_until_core_finished_supervised(0, budget, abort)?,
            Some(at) => match sys.run_until_core_finished_supervised(0, at, abort) {
                Err(SimError::Deadline { .. }) if !sys.core_finished(0) => {
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
                Err(SimError::Deadline { .. }) => {
                    sys.run_until_core_finished_supervised(0, budget - at, abort)?
                }
                // Finished before the trigger cycle: the fault never fires.
                r => r?,
            },
        };
    }
    let _prof = dg_prof::span("report");
    let report = sys.report(name);
    Ok(RunOutput {
        result: ColocationResult::from_report(&report),
        events: sys.tracer().snapshot(),
        report,
    })
}
