//! The co-location entry point over both topologies: shard counts agree,
//! supervision and disarmed faults leave results untouched, control-plane
//! faults fire from the one supervision loop, data-plane faults run at
//! every shard count, and one check refuses what the engine cannot run.

mod common;

use common::{four_traces, kinds, stream};
use dg_fault::SimFaultKind;
use dg_mon::ProgressProbe;
use dg_obs::{chrome_trace_json, Tracer};
use dg_rdag::template::RdagTemplate;
use dg_shard::{run_colocation, RunOpts, RunOutput, ShardConfig, ShardedSystemBuilder};
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_system::MemoryKind;

const BUDGET: u64 = 100_000_000;

fn two_channels() -> SystemConfig {
    let mut cfg = SystemConfig::two_core();
    cfg.dram_org.channels = 2;
    cfg
}

fn run(kind: &MemoryKind, opts: RunOpts) -> Result<RunOutput, SimError> {
    run_colocation(&two_channels(), four_traces(), kind.clone(), opts)
}

/// The result and the report with its engine section (how simulated time
/// was covered, not what happened) normalized away.
fn outcome(out: RunOutput) -> (dg_system::ColocationResult, String) {
    let mut report = out.report;
    report.engine = Default::default();
    (out.result, report.to_json())
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn shard_counts_agree_through_the_entry_point() {
    for kind in kinds() {
        let at = |shards| {
            let opts = RunOpts {
                shards: Some(shards),
                ..RunOpts::new(BUDGET)
            };
            outcome(run(&kind, opts).unwrap_or_else(|e| panic!("{kind:?}: {e:?}")))
        };
        let one = at(1);
        assert!(one.0.cores[0].finished);
        assert!(one.0.mean_ipc() > 0.0);
        assert_eq!(at(4), one, "{kind:?}: 4 shards diverged from 1");
    }
}

#[test]
fn supervision_and_disarmed_faults_leave_results_unchanged() {
    for kind in kinds() {
        for shards in [None, Some(2)] {
            let bare = outcome(
                run(
                    &kind,
                    RunOpts {
                        shards,
                        ..RunOpts::new(BUDGET)
                    },
                )
                .unwrap(),
            );
            let probe = ProgressProbe::new();
            let supervised = run(
                &kind,
                RunOpts {
                    shards,
                    abort: Some(&mut || false),
                    probe: Some(&probe),
                    ..RunOpts::new(BUDGET)
                },
            )
            .unwrap();
            assert_eq!(
                probe.sim_cycles(),
                supervised.report.meta.total_cycles,
                "{kind:?} {shards:?}: the last heartbeat is the end cycle"
            );
            assert_eq!(outcome(supervised), bare, "{kind:?} {shards:?}: probe");
            let unfaulted = run(
                &kind,
                RunOpts {
                    shards,
                    fault: None,
                    ..RunOpts::new(BUDGET)
                },
            )
            .unwrap();
            assert_eq!(outcome(unfaulted), bare, "{kind:?} {shards:?}: no fault");
            // A trigger cycle the run never reaches: the fault never fires.
            let late = run(
                &kind,
                RunOpts {
                    shards,
                    fault: Some(SimFaultKind::Panic { at: BUDGET - 1 }),
                    ..RunOpts::new(BUDGET)
                },
            )
            .unwrap();
            assert_eq!(outcome(late), bare, "{kind:?} {shards:?}: late fault");
        }
    }
}

#[test]
fn runtimes_model_different_timing() {
    // The sharded runtime routes every core↔channel message over a NoC
    // hop the classic system does not have: shard counts agree with each
    // other, not with the classic runtime.
    let cfg = SystemConfig::two_core();
    let traces = || vec![stream(300, 0, 64, 20), stream(3000, 1 << 30, 64, 20)];
    let end = |shards| {
        let opts = RunOpts {
            shards,
            ..RunOpts::new(BUDGET)
        };
        let out = run_colocation(&cfg, traces(), MemoryKind::Insecure, opts).unwrap();
        assert!(out.result.cores[0].finished);
        out.result
    };
    let classic = end(None);
    let one = end(Some(1));
    assert_eq!(end(Some(2)), one);
    assert!(
        one.total_cycles > classic.total_cycles,
        "NoC hops lengthen the run: {} vs {}",
        one.total_cycles,
        classic.total_cycles
    );
}

#[test]
fn classic_colocation_reports_both_cores() {
    let cfg = SystemConfig::two_core();
    let traces = vec![stream(300, 0, 64, 20), stream(3000, 1 << 30, 64, 20)];
    let r = run_colocation(&cfg, traces, MemoryKind::Insecure, RunOpts::new(BUDGET))
        .unwrap()
        .result;
    assert_eq!(r.cores.len(), 2);
    assert!(r.cores[0].finished);
    assert!(r.cores[0].ipc > 0.0);
    assert!(r.bandwidth_gbps[0] > 0.0);
    assert!(r.mean_ipc() > 0.0);
}

#[test]
fn dagguise_slows_victim_but_not_catastrophically() {
    let cfg = SystemConfig::two_core();
    let victim = stream(300, 0, 64, 20);
    let co = stream(3000, 1 << 30, 64, 20);
    let ipc = |kind| {
        let traces = vec![victim.clone(), co.clone()];
        run_colocation(&cfg, traces, kind, RunOpts::new(2 * BUDGET))
            .unwrap()
            .result
            .cores[0]
            .ipc
    };
    let insecure = ipc(MemoryKind::Insecure);
    let protected = ipc(MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
    });
    let norm_victim = protected / insecure;
    assert!(
        norm_victim > 0.1 && norm_victim <= 1.5,
        "victim normalized IPC plausible: {norm_victim}"
    );
}

/// The cycle count in a supervisor cancellation diagnosis.
fn cancelled_after(r: Result<RunOutput, SimError>) -> u64 {
    match r {
        Err(SimError::Aborted(msg)) => msg
            .strip_prefix("supervisor cancelled after ")
            .and_then(|rest| rest.strip_suffix(" cycles"))
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("unexpected diagnosis: {msg}")),
        other => panic!("expected Aborted, got {other:?}"),
    }
}

#[test]
fn sharded_abort_fires_at_a_later_barrier() {
    let mut checks = 0u32;
    let r = run(
        &MemoryKind::Insecure,
        RunOpts {
            shards: Some(2),
            abort: Some(&mut || {
                checks += 1;
                checks > 3
            }),
            ..RunOpts::new(BUDGET)
        },
    );
    assert!(cancelled_after(r) > 0, "the run advanced before the abort");
    assert_eq!(checks, 4);
}

/// A dropped response keeps the classic run going for its whole budget,
/// so a budget of several supervision slices exercises the slice loop:
/// the deadline names the full budget, not one slice, and an abort on the
/// second check lands after the first slice has run.
#[test]
fn classic_supervision_spans_slices() {
    const LONG: u64 = 5_000_000;
    let dropped = Some(SimFaultKind::DropResponse { nth: 1 });
    let r = run(
        &MemoryKind::Insecure,
        RunOpts {
            fault: dropped,
            ..RunOpts::new(LONG)
        },
    );
    assert_eq!(r.unwrap_err(), SimError::Deadline { budget: LONG });
    let mut checks = 0u32;
    let r = run(
        &MemoryKind::Insecure,
        RunOpts {
            fault: dropped,
            abort: Some(&mut || {
                checks += 1;
                checks > 1
            }),
            ..RunOpts::new(LONG)
        },
    );
    let after = cancelled_after(r);
    assert!(after > 0 && after < LONG, "cancelled after {after} cycles");
    assert_eq!(checks, 2);
}

#[test]
fn immediate_abort_and_short_deadline_surface_on_both_runtimes() {
    for shards in [None, Some(2)] {
        let r = run(
            &MemoryKind::Insecure,
            RunOpts {
                shards,
                abort: Some(&mut || true),
                ..RunOpts::new(BUDGET)
            },
        );
        assert_eq!(cancelled_after(r), 0, "{shards:?}");
        let r = run(
            &MemoryKind::Insecure,
            RunOpts {
                shards,
                ..RunOpts::new(500)
            },
        );
        assert_eq!(
            r.unwrap_err(),
            SimError::Deadline { budget: 500 },
            "{shards:?}"
        );
    }
}

/// A control-plane fault fires only while the primary core is still
/// running: triggered on the cycle after the primary core's finishing
/// tick, it never fires and the run is the bare one; triggered at that
/// tick, it fires.
#[test]
fn faults_after_the_finishing_tick_do_not_fire() {
    for shards in [None, Some(2)] {
        let opts = |fault| RunOpts {
            shards,
            fault,
            ..RunOpts::new(BUDGET)
        };
        let bare = outcome(run(&MemoryKind::Insecure, opts(None)).unwrap());
        let finish = bare.0.cores[0].cycles;
        for fault in [
            SimFaultKind::Panic { at: finish + 1 },
            SimFaultKind::FreezeClock { at: finish + 1 },
        ] {
            let out = run(&MemoryKind::Insecure, opts(Some(fault)))
                .unwrap_or_else(|e| panic!("{shards:?} {fault}: {e:?}"));
            let out = outcome(out);
            assert_eq!(out.0.cores[0], bare.0.cores[0], "{shards:?} {fault}");
            // The sharded run stopped at the trigger cycle is cut at that
            // barrier instead of the bare run's, so only the classic run
            // reproduces the whole report.
            if shards.is_none() {
                assert_eq!(out, bare, "{fault}");
            }
        }
        let early = std::panic::catch_unwind(|| {
            let _ = run(
                &MemoryKind::Insecure,
                opts(Some(SimFaultKind::Panic { at: finish })),
            );
        });
        assert!(
            early.is_err(),
            "{shards:?}: a fault at the finishing tick fires"
        );
    }
}

/// The panic fault fires deterministically at its cycle; catch_unwind in
/// the runner is the supervision mechanism (here we catch it ourselves).
#[test]
fn panic_fault_fires_at_its_cycle_on_both_runtimes() {
    for shards in [None, Some(2)] {
        let payload = std::panic::catch_unwind(|| {
            let _ = run(
                &MemoryKind::Insecure,
                RunOpts {
                    shards,
                    fault: Some(SimFaultKind::Panic { at: 5_000 }),
                    ..RunOpts::new(BUDGET)
                },
            );
        })
        .unwrap_err();
        let msg = panic_message(payload);
        assert!(
            msg.contains("deterministic panic at cycle 5000"),
            "{shards:?}: unexpected panic payload: {msg}"
        );
    }
}

/// A frozen clock pins simulated time while host time passes — the
/// livelock signature. The supervision loop must keep heartbeating the
/// frozen cycle and surface the supervisor's cancellation as `Aborted`.
#[test]
fn frozen_clock_waits_for_the_supervisor_on_both_runtimes() {
    for shards in [None, Some(2)] {
        let probe = ProgressProbe::new();
        // A minimal stall watchdog: cancel once the simulated clock has
        // not moved across several checks.
        let (mut last, mut still) = (u64::MAX, 0);
        let mut watchdog = || {
            let now = probe.sim_cycles();
            if now == last {
                still += 1;
            } else {
                (last, still) = (now, 0);
            }
            still > 5
        };
        let r = run(
            &MemoryKind::Insecure,
            RunOpts {
                shards,
                abort: Some(&mut watchdog),
                probe: Some(&probe),
                fault: Some(SimFaultKind::FreezeClock { at: 2_000 }),
                ..RunOpts::new(BUDGET)
            },
        );
        match r.unwrap_err() {
            SimError::Aborted(msg) => assert!(
                msg.contains("frozen clock at cycle 2000") && msg.contains("supervisor cancelled"),
                "{shards:?}: diagnosis should name the pinned cycle: {msg}"
            ),
            other => panic!("{shards:?}: expected Aborted, got {other:?}"),
        }
        assert_eq!(probe.sim_cycles(), 2_000, "{shards:?}");
    }
}

/// Data-plane faults are armed on the classic system: a dropped response
/// leaves the victim waiting until the budget runs out.
#[test]
fn classic_runtime_arms_data_plane_faults() {
    let r = run(
        &MemoryKind::Insecure,
        RunOpts {
            fault: Some(SimFaultKind::DropResponse { nth: 1 }),
            ..RunOpts::new(2_000_000)
        },
    );
    assert_eq!(r.unwrap_err(), SimError::Deadline { budget: 2_000_000 });
}

/// Data-plane faults run on the NoC topology too: a stuck bank delays the
/// victim identically at 1 and 2 shards, and a dropped response leaves it
/// waiting until the budget runs out at both.
#[test]
fn data_plane_faults_change_noc_runs_identically_across_shard_counts() {
    let stuck = Some(SimFaultKind::StuckBank {
        at: 2_000,
        hold: 10_000,
    });
    let at = |shards, fault| {
        let opts = RunOpts {
            shards: Some(shards),
            fault,
            ..RunOpts::new(BUDGET)
        };
        outcome(run(&MemoryKind::Insecure, opts).unwrap())
    };
    let bare = at(1, None);
    let faulted = at(1, stuck);
    assert!(
        faulted.0.cores[0].cycles > bare.0.cores[0].cycles,
        "the stuck bank must delay the victim"
    );
    assert_eq!(at(2, stuck), faulted, "2 shards diverged from 1");
    for shards in [1, 2] {
        let r = run(
            &MemoryKind::Insecure,
            RunOpts {
                shards: Some(shards),
                fault: Some(SimFaultKind::DropResponse { nth: 1 }),
                ..RunOpts::new(2_000_000)
            },
        );
        assert_eq!(r.unwrap_err(), SimError::Deadline { budget: 2_000_000 });
    }
}

/// `ShardConfig::check` is the one place that refuses a configuration:
/// a 0-cycle hop or per-cycle observation on more than one shard.
#[test]
fn one_check_refuses_what_the_engine_cannot_run() {
    let direct = |shards| ShardConfig {
        noc_latency: 0,
        ..ShardConfig::with_shards(shards)
    };
    let refused = |r: Result<(), SimError>, why: &str| {
        assert!(
            matches!(&r, Err(SimError::InvalidConfig(m)) if m.contains(why)),
            "{r:?}"
        );
    };
    refused(direct(2).check(false), "no lookahead");
    refused(ShardConfig::with_shards(2).check(true), "event tracing");
    refused(
        ShardConfig::with_shards(0).check(false),
        "at least one shard",
    );
    assert_eq!(direct(1).check(true), Ok(()));
    assert_eq!(ShardConfig::with_shards(1).check(true), Ok(()));
    assert_eq!(ShardConfig::with_shards(4).check(false), Ok(()));
    let build = std::panic::catch_unwind(|| {
        ShardedSystemBuilder::new(two_channels(), direct(2))
            .trace_core(stream(10, 0, 64, 10))
            .build()
    });
    assert!(panic_message(build.unwrap_err()).contains("no lookahead"));
}

/// One shard on the NoC records event traces, interval samples and shaper
/// timelines, byte-identically on both engines, without changing the
/// outcome of the bare run.
#[test]
fn one_shard_noc_runs_observe_without_observer_effect() {
    let kind = MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
    };
    let traces = || {
        vec![
            stream(600, 0, 64 * 131, 0),
            stream(600, 1 << 30, 64 * 131, 0),
        ]
    };
    let observed = |naive: bool| {
        let mut b = ShardedSystemBuilder::new(two_channels(), ShardConfig::with_shards(1));
        for t in traces() {
            b = b.trace_core(t);
        }
        let mut sys = b.memory(kind.clone()).build();
        sys.set_tracer(Tracer::ring(1 << 16));
        sys.enable_interval_sampling(5_000);
        sys.enable_shaper_timelines(5_000);
        sys.set_event_skipping(!naive);
        sys.run_until_core_finished(0, BUDGET).unwrap();
        let mut report = sys.report("observed");
        report.engine = Default::default();
        (report, chrome_trace_json(&sys.tracer().snapshot()))
    };
    let (fast, fast_trace) = observed(false);
    let (naive, naive_trace) = observed(true);
    assert!(fast.trace.events_recorded > 0 && !fast.intervals.is_empty());
    assert!(
        fast.shapers[0].rejected > 0,
        "the protected core is back-pressured"
    );
    assert_eq!(fast.to_json(), naive.to_json());
    assert!(fast_trace == naive_trace, "Chrome traces diverged");

    let opts = |trace_capacity, metrics_window| RunOpts {
        shards: Some(1),
        trace_capacity,
        metrics_window,
        ..RunOpts::new(BUDGET)
    };
    let cfg = two_channels();
    let bare = run_colocation(&cfg, traces(), kind.clone(), opts(None, None)).unwrap();
    let traced = run_colocation(&cfg, traces(), kind, opts(Some(1 << 16), Some(5_000))).unwrap();
    assert_eq!(
        traced.events.len() as u64,
        traced.report.trace.events_recorded
    );
    assert_eq!(traced.result, bare.result);
}

#[test]
fn sharded_runtime_rejects_event_tracing() {
    let r = run(
        &MemoryKind::Insecure,
        RunOpts {
            shards: Some(2),
            trace_capacity: Some(1_024),
            ..RunOpts::new(BUDGET)
        },
    );
    assert!(matches!(r, Err(SimError::InvalidConfig(_))), "{r:?}");
}

#[test]
fn sharded_runtime_rejects_metrics_windows() {
    let r = run(
        &MemoryKind::Insecure,
        RunOpts {
            shards: Some(2),
            metrics_window: Some(5_000),
            ..RunOpts::new(BUDGET)
        },
    );
    assert!(matches!(r, Err(SimError::InvalidConfig(_))), "{r:?}");
}
