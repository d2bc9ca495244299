//! The differential oracle of the sharded runtime: for any shard count,
//! the merged run artifacts are byte-identical to the single-shard
//! reference. Engine telemetry is normalized before comparison — per-shard
//! engines legitimately cover simulated time differently (tick/warp/poll
//! schedules), while every simulation-outcome field must match exactly.

use dg_cpu::MemTrace;
use dg_rdag::template::RdagTemplate;
use dg_shard::{
    run_colocation_sharded, run_colocation_sharded_supervised, ShardConfig, ShardedSystem,
    ShardedSystemBuilder,
};
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_system::MemoryKind;

fn stream(n: u64, base: u64, stride: u64, gap: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..n {
        if i % 5 == 4 {
            t.store(base + i * stride, gap);
        } else {
            t.load(base + i * stride, gap);
        }
    }
    t
}

fn four_traces() -> Vec<MemTrace> {
    vec![
        stream(200, 0, 64 * 97, 10),
        stream(400, 1 << 30, 64 * 131, 5),
        stream(150, 2 << 30, 64 * 193, 25),
        stream(300, 3 << 30, 64 * 61, 15),
    ]
}

fn kinds() -> Vec<MemoryKind> {
    vec![
        MemoryKind::Insecure,
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(4, 100, 0.001)), None, None, None],
        },
        MemoryKind::Camouflage {
            protected: vec![
                Some(dg_defenses::IntervalDistribution::figure2()),
                None,
                None,
                None,
            ],
        },
    ]
}

fn build(kind: &MemoryKind, channels: u32, shards: usize) -> ShardedSystem {
    let mut cfg = SystemConfig::two_core();
    cfg.dram_org.channels = channels;
    let mut b = ShardedSystemBuilder::new(cfg, ShardConfig::with_shards(shards));
    for t in four_traces() {
        b = b.trace_core(t);
    }
    b.memory(kind.clone()).build()
}

/// Serializes a report with the engine section normalized away.
fn normalized_report_json(sys: &ShardedSystem, name: &str) -> String {
    let mut report = sys.report(name);
    report.engine = Default::default();
    serde_json::to_string(&report).expect("report serializes")
}

#[test]
fn reports_byte_identical_across_shard_counts() {
    for kind in kinds() {
        let mut jsons = Vec::new();
        for shards in [1usize, 2, 4] {
            let mut sys = build(&kind, 2, shards);
            sys.run_until_core_finished(0, 100_000_000)
                .unwrap_or_else(|e| panic!("{kind:?} at {shards} shards: {e:?}"));
            jsons.push((shards, normalized_report_json(&sys, "oracle")));
        }
        let (_, reference) = &jsons[0];
        for (shards, json) in &jsons[1..] {
            assert_eq!(
                json, reference,
                "{kind:?}: report at {shards} shards diverged from the single-shard reference"
            );
        }
    }
}

#[test]
fn four_channels_and_nondivisor_shards_match_reference() {
    // 3 shards over 4 cores/4 channels: unbalanced contiguous partition.
    let kind = MemoryKind::Insecure;
    let mut reference = build(&kind, 4, 1);
    reference.run_until_core_finished(0, 100_000_000).unwrap();
    let mut sharded = build(&kind, 4, 3);
    sharded.run_until_core_finished(0, 100_000_000).unwrap();
    assert_eq!(
        normalized_report_json(&sharded, "oracle"),
        normalized_report_json(&reference, "oracle"),
    );
    assert_eq!(sharded.colocation_result(), reference.colocation_result());
}

#[test]
fn naive_engine_matches_event_skipping() {
    let kind = MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(4, 100, 0.001)), None, None, None],
    };
    let mut fast = build(&kind, 2, 2);
    fast.run_until_core_finished(0, 100_000_000).unwrap();
    let mut naive = build(&kind, 2, 2);
    naive.set_event_skipping(false);
    naive.run_until_core_finished(0, 100_000_000).unwrap();
    assert_eq!(
        normalized_report_json(&fast, "engines"),
        normalized_report_json(&naive, "engines"),
    );
}

#[test]
fn more_shards_than_cores_leaves_empty_shards_harmless() {
    let kind = MemoryKind::Insecure;
    let mut reference = build(&kind, 2, 1);
    reference.run_until_finished(100_000_000).unwrap();
    let mut oversharded = build(&kind, 2, 8);
    oversharded.run_until_finished(100_000_000).unwrap();
    assert_eq!(
        normalized_report_json(&oversharded, "oracle"),
        normalized_report_json(&reference, "oracle"),
    );
}

#[test]
fn colocation_helper_matches_across_shard_counts() {
    let mut cfg = SystemConfig::two_core();
    cfg.dram_org.channels = 2;
    let kind = MemoryKind::Insecure;
    let one = run_colocation_sharded(&cfg, four_traces(), kind.clone(), 1, 100_000_000).unwrap();
    let four = run_colocation_sharded(&cfg, four_traces(), kind, 4, 100_000_000).unwrap();
    assert_eq!(one, four);
    assert!(one.cores[0].finished);
    assert!(one.mean_ipc() > 0.0);
}

#[test]
fn supervised_abort_surfaces() {
    let mut cfg = SystemConfig::two_core();
    cfg.dram_org.channels = 2;
    let mut checks = 0u32;
    let r = run_colocation_sharded_supervised(
        &cfg,
        four_traces(),
        MemoryKind::Insecure,
        2,
        100_000_000,
        &mut || {
            checks += 1;
            checks > 3
        },
    );
    assert!(matches!(r, Err(SimError::Aborted(_))), "got {r:?}");
}

#[test]
fn deadline_surfaces_with_full_budget() {
    let mut cfg = SystemConfig::two_core();
    cfg.dram_org.channels = 2;
    let r = run_colocation_sharded(&cfg, four_traces(), MemoryKind::Insecure, 2, 500);
    assert_eq!(r.unwrap_err(), SimError::Deadline { budget: 500 });
}

#[test]
fn single_core_single_channel_degenerates_cleanly() {
    let cfg = SystemConfig::two_core();
    let mut sys = ShardedSystemBuilder::new(cfg, ShardConfig::with_shards(1))
        .trace_core(stream(100, 0, 64 * 97, 10))
        .memory(MemoryKind::Insecure)
        .build();
    let end = sys.run_until_finished(50_000_000).unwrap();
    assert!(end > 0);
    let report = sys.report("tiny");
    assert_eq!(report.cores.len(), 1);
    assert!(report.cores[0].finished);
    assert!(report.domains[0].reads > 0);
}

#[test]
fn back_pressured_dagguise_matches_naive_engine_at_one_and_two_shards() {
    // Two trace cores stream row-missing loads with no compute between
    // them: the protected domain's private queue stays full, so each
    // channel's NoC ingress keeps retrying a refused head while the
    // controllers are busy. Every shard count and both engines must agree,
    // rejection counts and interference attribution included.
    let kind = MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
    };
    let mut jsons = Vec::new();
    for shards in [1usize, 2] {
        for naive in [false, true] {
            let mut cfg = SystemConfig::two_core();
            cfg.dram_org.channels = 2;
            let mut sys = ShardedSystemBuilder::new(cfg, ShardConfig::with_shards(shards))
                .trace_core(stream(1_500, 0, 64 * 131, 0))
                .trace_core(stream(1_500, 1 << 30, 64 * 131, 0))
                .memory(kind.clone())
                .build();
            sys.set_event_skipping(!naive);
            sys.run_until_finished(100_000_000).unwrap();
            let report = sys.report("back-pressure");
            assert!(
                report.shapers.iter().map(|s| s.rejected).sum::<u64>() > 0,
                "{shards} shards: the protected domain must be back-pressured"
            );
            jsons.push((
                (shards, naive),
                normalized_report_json(&sys, "back-pressure"),
            ));
        }
    }
    let (_, reference) = &jsons[0];
    for (run, json) in &jsons[1..] {
        assert_eq!(json, reference, "(shards, naive) = {run:?} diverged");
    }
}
