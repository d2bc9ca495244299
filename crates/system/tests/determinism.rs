//! Same-seed observability determinism: two identical runs must produce
//! byte-identical event streams and Chrome traces (the property that makes
//! traces diffable across defense variants).

use dg_cpu::{DagReq, DagWorkload, MemTrace};
use dg_defenses::IntervalDistribution;
use dg_obs::{chrome_trace_json, Tracer};
use dg_rdag::template::RdagTemplate;
use dg_sim::config::SystemConfig;
use dg_system::{ColocationResult, MemoryKind, System, SystemBuilder};
use proptest::prelude::*;

fn stream(n: u64, base: u64, gap: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..n {
        t.load(base + i * 64 * 131, gap);
    }
    t
}

fn observed_run() -> (Vec<dg_obs::Event>, dg_obs::RunReport) {
    observed_run_with_engine(false)
}

/// The observer-effect workload: a protected victim and a streaming
/// co-runner under DAGguise.
fn colocated() -> System {
    SystemBuilder::new(SystemConfig::two_core())
        .trace_core(stream(200, 0, 30))
        .trace_core(stream(1000, 1 << 30, 10))
        .memory(MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(2, 100, 0.01)), None],
        })
        .build()
}

/// Switches on every telemetry channel: event tracing, interval sampling
/// and shaper timelines.
fn observe(sys: &mut System) {
    sys.set_tracer(Tracer::ring(16_384));
    sys.enable_interval_sampling(5_000);
    sys.enable_shaper_timelines(5_000);
}

fn observed_run_with_engine(naive_engine: bool) -> (Vec<dg_obs::Event>, dg_obs::RunReport) {
    let mut sys = colocated();
    observe(&mut sys);
    sys.set_event_skipping(!naive_engine);
    sys.run_until_core_finished(0, 200_000_000)
        .expect("run finishes");
    (sys.tracer().snapshot(), sys.report("determinism"))
}

#[test]
fn same_seed_runs_are_byte_identical() {
    let (events_a, report_a) = observed_run();
    let (events_b, report_b) = observed_run();

    // The simulation is deterministic, so the recorded event streams —
    // including shaper fake-slot decisions — must coincide exactly.
    assert!(!events_a.is_empty(), "the run must record events");
    assert_eq!(events_a.len(), events_b.len());
    let json_a = chrome_trace_json(&events_a);
    let json_b = chrome_trace_json(&events_b);
    assert_eq!(json_a, json_b, "Chrome traces must be byte-identical");

    // The metrics artifact must agree too.
    assert_eq!(report_a.to_json(), report_b.to_json());

    // And the trace must contain the full request lifecycle.
    let names: Vec<&str> = events_a.iter().map(|e| e.kind.name()).collect();
    for expected in ["issue", "txq_enqueue", "ACT", "RD", "response"] {
        assert!(
            names.contains(&expected),
            "trace should contain a {expected} event"
        );
    }
    // A shaped domain emits shaper events as well.
    assert!(
        names.iter().any(|n| n.starts_with("shaper_")),
        "DAGguise run should record shaper events"
    );
}

#[test]
fn telemetry_has_no_observer_effect() {
    // The whole dg-leak layer is read-only: running with every telemetry
    // channel enabled — including the host-time span profiler — must leave
    // the simulation outcome byte-identical to a bare run with the same
    // seed and workload, and the engine's schedule too: a traced run takes
    // the memory path every other run takes.
    let mut sys = colocated();
    sys.run_until_core_finished(0, 200_000_000)
        .expect("bare run finishes");
    let bare_report = sys.report("bare");
    let bare = ColocationResult::from_report(&bare_report);

    let mut sys = colocated();
    observe(&mut sys);
    dg_prof::start();
    let profiling = dg_prof::is_enabled(); // false when built without `prof`
    {
        let _prof = dg_prof::span("sim");
        sys.run_until_core_finished(0, 200_000_000)
            .expect("observed run finishes");
    }
    let profile = dg_prof::stop();
    let report = sys.report("observer");
    let observed = ColocationResult::from_report(&report);

    assert_eq!(bare, observed, "telemetry must not perturb the simulation");
    assert_eq!(
        bare_report.engine, report.engine,
        "telemetry must not change the engine's ticks, warps, scans or polls"
    );
    // …and the instrumentation must actually have been on.
    assert!(
        !report.shaper_timelines.is_empty(),
        "shaper timeline telemetry should be recorded"
    );
    assert!(
        report.interference.is_some(),
        "interference matrix should be recorded"
    );
    if profiling {
        let profile = profile.expect("profiler was started");
        let top = profile.top_self();
        assert!(
            top.iter().any(|(name, _)| name == "sim"),
            "profile should attribute time to the sim phase: {top:?}"
        );
    }

    // Streaming misses keep the controller busy between core contacts: its
    // DRAM commands and refreshes run there whether or not a tracer records
    // them.
    for kind in streaming_kinds() {
        let run = |traced: bool| {
            let mut sys = streams(&kind, false, traced);
            if traced {
                sys.enable_interval_sampling(5_000);
                sys.enable_shaper_timelines(5_000);
            }
            sys.run_until_finished(200_000_000)
                .expect("the streams finish");
            let report = sys.report("streams");
            (ColocationResult::from_report(&report), report.engine)
        };
        let label = kind.label();
        assert_eq!(run(false), run(true), "{label}: traced run diverged");
    }
}

#[test]
fn event_skipping_matches_naive_engine_byte_for_byte() {
    // The event-driven engine (quiescent-cycle skipping) must be a pure
    // optimization: the same seeded colocation run under the naive
    // cycle-by-cycle loop and under the fast path must produce
    // byte-identical serialized reports, event streams, and Chrome traces.
    let (events_fast, mut report_fast) = observed_run_with_engine(false);
    let (events_naive, mut report_naive) = observed_run_with_engine(true);

    assert!(!events_fast.is_empty(), "the run must record events");
    assert_eq!(events_fast.len(), events_naive.len());
    assert_eq!(
        chrome_trace_json(&events_fast),
        chrome_trace_json(&events_naive),
        "Chrome traces must be byte-identical across engines"
    );
    // The engine-telemetry section describes HOW simulated time was covered
    // (tick vs warp counts), so it legitimately differs between engines.
    // The fast engine must actually have warped, the naive one never.
    assert!(
        report_fast.engine.warps > 0,
        "fast engine should skip quiescent cycles on this workload"
    );
    assert!(report_fast.engine.skip_efficiency > 0.0);
    assert_eq!(report_naive.engine.warps, 0);
    assert_eq!(report_naive.engine.skip_efficiency, 0.0);
    // Everything else — the simulation outcome — must be byte-identical.
    report_fast.engine = Default::default();
    report_naive.engine = Default::default();
    assert_eq!(
        report_fast.to_json(),
        report_naive.to_json(),
        "RunReports must be byte-identical across engines (engine section normalized)"
    );
}

#[test]
fn interval_samples_cover_the_run() {
    let (_, report) = observed_run();
    assert_eq!(report.interval_window, 5_000);
    assert!(
        !report.intervals.is_empty(),
        "sampling every 5k cycles must produce samples"
    );
    for s in &report.intervals {
        assert_eq!(s.ipc.len(), 2);
        assert_eq!(s.bandwidth_gbps.len(), 2);
    }
}

/// The benchmark's saturated shape, shortened: two trace cores stream
/// row-missing loads with no compute between them, so the protected core
/// spends most of the run back-pressured by its full private queue.
fn saturated(kind: &MemoryKind, loads: u64, naive: bool) -> System {
    let mut sys = SystemBuilder::new(SystemConfig::two_core())
        .trace_core(stream(loads, 0, 0))
        .trace_core(stream(loads, 1 << 30, 0))
        .memory(kind.clone())
        .build();
    sys.set_tracer(Tracer::ring(1 << 16));
    sys.set_event_skipping(!naive);
    sys
}

fn dagguise() -> MemoryKind {
    MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
    }
}

/// The run report with the engine section normalized away, and the Chrome
/// trace of the recorded events.
fn artifacts(sys: &System) -> (String, String) {
    let mut report = sys.report("back-pressure");
    report.engine = Default::default();
    (
        report.to_json(),
        chrome_trace_json(&sys.tracer().snapshot()),
    )
}

#[test]
fn back_pressured_runs_match_naive_engine_byte_for_byte() {
    let kinds = [
        dagguise(),
        MemoryKind::Insecure,
        MemoryKind::Camouflage {
            protected: vec![Some(IntervalDistribution::figure2()), None],
        },
        MemoryKind::FixedService,
        MemoryKind::FsBta,
        MemoryKind::FsSpatial,
        MemoryKind::TemporalPartition {
            slots_per_period: 4,
        },
    ];
    for kind in kinds {
        let mut fast = saturated(&kind, 1_000, false);
        fast.run_until_finished(200_000_000).unwrap();
        let mut naive = saturated(&kind, 1_000, true);
        naive.run_until_finished(200_000_000).unwrap();

        let report = fast.report("back-pressure");
        let label = &report.meta.memory;
        if matches!(kind, MemoryKind::Dagguise { .. }) {
            assert!(
                report.shapers[0].rejected > 0,
                "{label}: the protected core must be back-pressured"
            );
        }
        // Parked cores and issue-edge wakeups keep the event engine off
        // most cycles even though memory is busy throughout.
        assert!(
            (report.engine.ticks as f64) < 0.3 * report.meta.total_cycles as f64,
            "{label}: {} ticks over {} cycles",
            report.engine.ticks,
            report.meta.total_cycles
        );
        let (fast_json, fast_trace) = artifacts(&fast);
        let (naive_json, naive_trace) = artifacts(&naive);
        assert_eq!(fast_json, naive_json, "{label}: reports diverged");
        assert!(fast_trace == naive_trace, "{label}: Chrome traces diverged");
    }
}

#[test]
fn back_pressured_two_channel_runs_match_naive_engine() {
    // Two channels, each with its own shaper: a back-pressured core's
    // retried request belongs to one lane, and settlement must credit that
    // lane only. DAG cores also offer new requests behind a refused one,
    // possibly to the other lane, within the same tick.
    let mut cfg = SystemConfig::two_core();
    cfg.dram_org.channels = 2;
    let wide = DagWorkload {
        reqs: (0..400u64)
            .map(|i| DagReq {
                addr: i * 64,
                is_write: i % 9 == 0,
                deps: if i < 40 {
                    vec![]
                } else {
                    vec![(i - 40) as u32]
                },
                gap: i % 4,
                instrs: 10,
            })
            .collect(),
    };
    // A ring small enough to wrap keeps the latest events by cycle, though
    // each lane records its catch-ups and settled refusals late.
    for ring in [1 << 16, 1_024] {
        let run = |naive: bool| {
            let mut sys = SystemBuilder::new(cfg.clone())
                .dag_core(wide.clone())
                .trace_core(stream(800, 1 << 30, 0))
                .memory(dagguise())
                .build();
            sys.set_tracer(Tracer::ring(ring));
            sys.set_event_skipping(!naive);
            sys.run_until_finished(200_000_000).unwrap();
            let report = sys.report("r");
            let rejected: u64 = report.shapers.iter().map(|s| s.rejected).sum();
            (artifacts(&sys), rejected, report.trace.events_dropped)
        };
        let (fast, rejected, dropped) = run(false);
        let (naive, _, _) = run(true);
        assert!(rejected > 0, "the protected core must be back-pressured");
        assert!(ring > 1_024 || dropped > 0, "the small ring must wrap");
        assert_eq!(fast.0, naive.0, "ring {ring}: reports diverged");
        assert!(fast.1 == naive.1, "ring {ring}: Chrome traces diverged");
    }
}

#[test]
fn run_for_ending_on_a_warp_matches_naive_engine() {
    // Fixed windows end wherever they end — here inside spans the event
    // engine warps over while the protected core is parked — so the last
    // span of each window is settled by the warp, not by a tick.
    let kind = dagguise();
    let mut fast = saturated(&kind, 1_000, false);
    let mut naive = saturated(&kind, 1_000, true);
    for window in [7_919, 20_011, 45_007] {
        fast.run_for(window);
        naive.run_for(window);
        assert_eq!(fast.now(), naive.now());
        assert_eq!(
            artifacts(&fast),
            artifacts(&naive),
            "after {} cycles",
            fast.now()
        );
    }
    assert!(fast.report("w").engine.warps > 0);
}

/// Runs `sys` until every core (or core `core`) finishes, in calls of
/// `chunk` cycles, until one returns anything but a deadline; returns that
/// result.
fn run_chunked(
    sys: &mut System,
    chunk: u64,
    core: Option<usize>,
) -> Result<u64, dg_sim::error::SimError> {
    loop {
        let r = match core {
            None => sys.run_until_finished(chunk),
            Some(d) => sys.run_until_core_finished(d, chunk),
        };
        match r {
            Err(dg_sim::error::SimError::Deadline { .. }) if sys.now() < 10_000_000 => {}
            r => return r,
        }
    }
}

#[test]
fn finishing_on_the_last_cycle_of_a_chunk_matches_a_single_call() {
    // The stop condition is evaluated once per tick, after it. A chunk
    // whose last cycle is the finishing tick must still end in a deadline
    // (the stop is seen by the next call, before it ticks), and the
    // chunked run must return what one call returns, at the same cycle and
    // with the same report.
    for naive in [false, true] {
        for core in [None, Some(0)] {
            let build = || saturated(&dagguise(), 300, naive);
            let what = format!("naive {naive}, stop on core {core:?}");
            let mut single = build();
            let want = run_chunked(&mut single, 100_000_000, core);
            // The tick that satisfied the stop is the cycle before `finish`.
            let finish = single.now();
            let at = *want.as_ref().expect("the run finishes");
            assert!(at <= finish, "{what}");
            if core.is_none() {
                assert_eq!(at, finish, "{what}");
            }

            let mut boundary = build();
            let first = match core {
                None => boundary.run_until_finished(finish),
                Some(d) => boundary.run_until_core_finished(d, finish),
            };
            assert_eq!(
                first,
                Err(dg_sim::error::SimError::Deadline { budget: finish }),
                "{what}: the finishing tick was the first call's last cycle"
            );
            assert_eq!(boundary.now(), finish, "{what}");
            assert_eq!(run_chunked(&mut boundary, finish, core), want, "{what}");
            assert_eq!(boundary.now(), single.now(), "{what}");
            assert_eq!(artifacts(&boundary), artifacts(&single), "{what}");

            // Chunk lengths that divide the run at other boundaries.
            for chunk in [finish - 1, finish + 1, finish / 3, 997] {
                let mut chunked = build();
                let got = run_chunked(&mut chunked, chunk, core);
                assert_eq!(got, want, "{what}, chunk {chunk}");
                assert_eq!(chunked.now(), single.now(), "{what}, chunk {chunk}");
                assert_eq!(
                    artifacts(&chunked),
                    artifacts(&single),
                    "{what}, chunk {chunk}"
                );
            }
        }
    }
}

/// Builds a random DAG workload: every request depends on up to three
/// earlier ones, possibly repeated (diamonds and duplicate edges), with
/// short or zero gaps.
fn dag_workload(spec: &[(u64, u64, u64, u64)]) -> DagWorkload {
    let reqs = spec
        .iter()
        .enumerate()
        .map(|(i, &(a, b, gap, addr))| {
            let mut deps = Vec::new();
            for pick in [a, b, a ^ b] {
                if i > 0 && pick % 3 == 0 {
                    deps.push((pick % i as u64) as u32);
                }
            }
            DagReq {
                addr: addr * 64 * 131,
                is_write: addr % 7 == 0,
                deps,
                gap: gap % 3 * gap,
                instrs: 10,
            }
        })
        .collect();
    DagWorkload { reqs }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random DAG workloads — wide frontiers that reach the MLP limit,
    /// diamonds, duplicate dependencies and zero gaps — against every
    /// memory path in `streaming_kinds`; DAGguise's private queue
    /// back-pressures the protected core: both engines produce the same
    /// reports and traces.
    #[test]
    fn random_dag_workloads_match_naive_engine(
        a in prop::collection::vec((0u64..64, 0u64..64, 0u64..40, 0u64..4096), 1..48),
        b in prop::collection::vec((0u64..64, 0u64..64, 0u64..40, 0u64..4096), 1..48),
    ) {
        for kind in streaming_kinds() {
            let run = |naive: bool| {
                let mut sys = SystemBuilder::new(SystemConfig::two_core())
                    .dag_core(dag_workload(&a))
                    .dag_core(dag_workload(&b))
                    .memory(kind.clone())
                    .build();
                sys.set_tracer(Tracer::ring(1 << 14));
                sys.set_event_skipping(!naive);
                sys.run_until_finished(50_000_000).expect("workload finishes");
                artifacts(&sys)
            };
            let (fast_json, fast_trace) = run(false);
            let (naive_json, naive_trace) = run(true);
            prop_assert_eq!(fast_json, naive_json, "{}", kind.label());
            prop_assert!(fast_trace == naive_trace, "{}", kind.label());
        }
    }
}

/// Two DAG-chain cores with long dependency gaps under DAGguise, the
/// shape of the benchmark's idle load: the shaper fills almost every rDAG
/// slot with a fake, so the memory path acts far more often than either
/// core. It runs that fake traffic between core contacts, traced or not.
fn idle_chains(naive: bool) -> System {
    let mut sys = SystemBuilder::new(SystemConfig::two_core())
        .dag_core(DagWorkload::chain(20, 10_000, 64 * 131))
        .dag_core(DagWorkload::chain(20, 10_000, 64 * 131))
        .memory(dagguise())
        .build();
    sys.set_tracer(Tracer::ring(1 << 16));
    sys.set_event_skipping(!naive);
    sys
}

#[test]
fn idle_chains_match_naive_engine() {
    let run = |naive: bool| {
        let mut sys = idle_chains(naive);
        sys.run_until_finished(10_000_000)
            .expect("the chains finish");
        let fakes = sys.report("idle").shapers[0].fakes_emitted;
        assert!(fakes > 1_000, "{fakes} fakes");
        artifacts(&sys)
    };
    let (fast, naive) = (run(false), run(true));
    assert_eq!(fast.0, naive.0, "reports diverged");
    assert!(fast.1 == naive.1, "Chrome traces diverged");
}

#[test]
fn idle_chains_sample_windows_like_naive_engine() {
    // Interval samples read the memory statistics at every window
    // boundary, including the boundaries inside a warp.
    let run = |naive: bool| {
        let mut sys = idle_chains(naive);
        sys.enable_interval_sampling(5_000);
        sys.enable_shaper_timelines(5_000);
        sys.run_until_finished(10_000_000)
            .expect("the chains finish");
        let report = sys.report("sampled");
        assert!(
            report.intervals.len() > 10,
            "{} samples",
            report.intervals.len()
        );
        assert!(!report.shaper_timelines.is_empty());
        artifacts(&sys)
    };
    let (fast, naive) = (run(false), run(true));
    assert_eq!(fast.0, naive.0, "reports diverged");
    assert!(fast.1 == naive.1, "Chrome traces diverged");
}

#[test]
fn idle_chains_compose_across_budget_splits() {
    let mut single = idle_chains(false);
    let want = single.run_until_finished(10_000_000);
    let end = *want.as_ref().expect("the chains finish");
    for budget in [63, 997, 12_345] {
        let mut split = idle_chains(false);
        assert_eq!(
            run_chunked(&mut split, budget, None),
            want,
            "budget {budget}"
        );
        assert_eq!(split.now(), single.now(), "budget {budget}");
        assert!(artifacts(&split) == artifacts(&single), "budget {budget}");
    }
    // Fixed windows, each ending wherever it ends, against one window of
    // the same total length.
    let mut windowed = idle_chains(false);
    let mut total = 0;
    for window in [7_919, 20_011, 45_007, end] {
        windowed.run_for(window);
        total += window;
        let mut whole = idle_chains(false);
        whole.run_for(total);
        assert!(
            artifacts(&windowed) == artifacts(&whole),
            "after {total} cycles"
        );
    }
}

/// Two trace cores streaming row-missing loads, the shape of the
/// benchmark's saturated load: the controller runs its DRAM commands and
/// refreshes between contacts.
fn streams(kind: &MemoryKind, naive: bool, traced: bool) -> System {
    let mut sys = SystemBuilder::new(SystemConfig::two_core())
        .trace_core(stream(1_000, 0, 0))
        .trace_core(stream(1_000, 1 << 30, 0))
        .memory(kind.clone())
        .build();
    if traced {
        sys.set_tracer(Tracer::ring(1 << 16));
    }
    sys.set_event_skipping(!naive);
    sys
}

/// The memory paths a controller sits in: shaped by DAGguise or
/// Camouflage, or wired straight to the cores.
fn streaming_kinds() -> [MemoryKind; 3] {
    [
        dagguise(),
        MemoryKind::Insecure,
        MemoryKind::Camouflage {
            protected: vec![Some(IntervalDistribution::figure2()), None],
        },
    ]
}

#[test]
fn streaming_misses_match_naive_engine() {
    for kind in streaming_kinds() {
        let label = kind.label();
        let run = |naive: bool| {
            let mut sys = streams(&kind, naive, true);
            sys.run_until_finished(200_000_000)
                .expect("the streams finish");
            let report = sys.report("streams");
            assert!(report.dram.refreshes >= 2, "{label}: refreshes ran");
            (artifacts(&sys), report)
        };
        let ((fast, report), (naive, _)) = (run(false), run(true));
        assert_eq!(fast.0, naive.0, "{label}: reports diverged");
        assert!(fast.1 == naive.1, "{label}: Chrome traces diverged");
        // The traced event engine does not wake at every command edge.
        let commands: u64 = report
            .banks
            .iter()
            .map(|b| b.acts + b.row_hits + b.row_misses + b.precharges)
            .sum();
        assert!(
            report.engine.ticks < commands,
            "{label}: {} ticks for {commands} DRAM commands",
            report.engine.ticks
        );
    }
}

#[test]
fn streaming_misses_sample_windows_like_naive_engine() {
    for kind in streaming_kinds() {
        let run = |naive: bool| {
            let mut sys = streams(&kind, naive, true);
            sys.enable_interval_sampling(1_000);
            sys.enable_shaper_timelines(1_000);
            sys.run_until_finished(200_000_000)
                .expect("the streams finish");
            let report = sys.report("sampled");
            assert!(
                report.intervals.len() > 10,
                "{} samples",
                report.intervals.len()
            );
            artifacts(&sys)
        };
        let (fast, naive) = (run(false), run(true));
        let label = kind.label();
        assert_eq!(fast.0, naive.0, "{label}: reports diverged");
        assert!(fast.1 == naive.1, "{label}: Chrome traces diverged");
    }
}

#[test]
fn streaming_misses_compose_across_budget_splits() {
    for kind in streaming_kinds() {
        let label = kind.label();
        let mut single = streams(&kind, false, true);
        let want = single.run_until_finished(200_000_000);
        let end = *want.as_ref().expect("the streams finish");
        for budget in [63, 997, 12_345] {
            let mut split = streams(&kind, false, true);
            let what = format!("{label}, budget {budget}");
            assert_eq!(run_chunked(&mut split, budget, None), want, "{what}");
            assert_eq!(split.now(), single.now(), "{what}");
            assert!(artifacts(&split) == artifacts(&single), "{what}");
        }
        // Fixed windows, each ending wherever it ends, against one window
        // of the same total length.
        let mut windowed = streams(&kind, false, true);
        let mut total = 0;
        for window in [7_919, 20_011, 45_007, end] {
            windowed.run_for(window);
            total += window;
            let mut whole = streams(&kind, false, true);
            whole.run_for(total);
            let what = format!("{label}, after {total} cycles");
            assert!(artifacts(&windowed) == artifacts(&whole), "{what}");
        }
    }
}
