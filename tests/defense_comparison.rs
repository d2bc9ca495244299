//! Cross-defense performance comparisons: the orderings the paper's
//! evaluation claims, checked on small workloads.

use dagguise_repro::prelude::*;
use dg_shard::{run_colocation, RunOpts};

fn stream(n: u64, base: u64, gap: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..n {
        t.load(base + (i % 8192) * 64, gap);
    }
    t
}

fn sparse(n: u64, base: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..n {
        t.load(base + (i % 4096) * 64 * 131, 400);
    }
    t
}

const BUDGET: u64 = 2_000_000_000;

#[test]
fn dagguise_frees_unused_victim_bandwidth_fs_does_not() {
    // A sparse victim + a hungry co-runner: under FS-BTA half the slots
    // are reserved for the near-idle victim; under DAGguise the rDAG
    // yields and the co-runner runs faster.
    let cfg = SystemConfig::two_core();
    let victim = sparse(150, 0);
    let co = stream(4_000, 1 << 30, 10);

    let fs = run_colocation(
        &cfg,
        vec![victim.clone(), co.clone()],
        MemoryKind::FsBta,
        RunOpts::new(BUDGET),
    )
    .expect("fs run")
    .result;
    let dag = run_colocation(
        &cfg,
        vec![victim, co],
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(2, 200, 0.1)), None],
        },
        RunOpts::new(BUDGET),
    )
    .expect("dagguise run")
    .result;

    assert!(
        dag.cores[1].ipc > fs.cores[1].ipc,
        "co-runner must do better under DAGguise: {} vs {}",
        dag.cores[1].ipc,
        fs.cores[1].ipc
    );
}

#[test]
fn fixed_service_non_interference_end_to_end() {
    // The victim's completion time under FS-BTA must not depend on the
    // co-runner's load at all.
    let cfg = SystemConfig::two_core();
    let victim = stream(400, 0, 30);

    let quiet = run_colocation(
        &cfg,
        vec![victim.clone(), sparse(10, 1 << 30)],
        MemoryKind::FsBta,
        RunOpts::new(BUDGET),
    )
    .expect("quiet run")
    .result;
    let noisy = run_colocation(
        &cfg,
        vec![victim, stream(6_000, 1 << 30, 5)],
        MemoryKind::FsBta,
        RunOpts::new(BUDGET),
    )
    .expect("noisy run")
    .result;

    assert_eq!(
        quiet.cores[0].cycles, noisy.cores[0].cycles,
        "FS-BTA victim timing must be exactly load-independent"
    );
}

#[test]
fn temporal_partitioning_has_worse_latency_than_fixed_service() {
    // TP rotates whole periods: a victim request arriving in a foreign
    // period waits up to a full rotation. Dependent traffic phase-locks to
    // the rotation (so *mean* latency can look fine), but the unlucky
    // requests pay the full period — the rotation penalty lives in the
    // latency tail (§8: TP "performs worse than FS").
    use dagguise_repro::prelude::*;
    use dg_sim::types::DomainId as D;

    let cfg = SystemConfig::two_core();
    let p99_latency = |kind: MemoryKind| {
        let mut sys = SystemBuilder::new(cfg.clone())
            .trace_core(sparse(300, 0))
            .trace_core(sparse(300, 1 << 30))
            .memory(kind)
            .build();
        sys.run_until_finished(BUDGET).expect("finishes");
        sys.memory()
            .stats()
            .domain(D(0))
            .latency
            .percentile(99.0)
            .expect("victim issued requests")
    };

    let fs = p99_latency(MemoryKind::FixedService);
    let tp = p99_latency(MemoryKind::TemporalPartition {
        slots_per_period: 64,
    });
    assert!(
        tp > fs * 3,
        "TP p99 latency ({tp}) must be far worse than FS ({fs})"
    );
}

#[test]
fn closed_row_policy_costs_throughput() {
    // The security tax of hiding row-buffer state: a row-local stream is
    // slower under the closed-row policy DAGguise requires.
    let cfg_open = SystemConfig::two_core();
    let mut t = MemTrace::new();
    for i in 0..600u64 {
        t.load((i % 128) * 64, 5); // heavy row locality
    }
    let open = run_colocation(
        &cfg_open,
        vec![t.clone()],
        MemoryKind::Insecure,
        RunOpts::new(BUDGET),
    )
    .expect("open run")
    .result;
    // DAGguise with a dense rDAG (so shaping is not the bottleneck).
    let closed = run_colocation(
        &cfg_open,
        vec![t],
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(8, 0, 0.05))],
        },
        RunOpts::new(BUDGET),
    )
    .expect("closed run")
    .result;
    assert!(
        closed.cores[0].ipc < open.cores[0].ipc,
        "closed-row shaping cannot beat open-row row hits: {} vs {}",
        closed.cores[0].ipc,
        open.cores[0].ipc
    );
}

#[test]
fn every_defense_preserves_all_victim_requests() {
    // Conservation: no memory path may lose transactions.
    let cfg = SystemConfig::two_core();
    let kinds: Vec<MemoryKind> = vec![
        MemoryKind::Insecure,
        MemoryKind::FixedService,
        MemoryKind::FsBta,
        MemoryKind::TemporalPartition {
            slots_per_period: 16,
        },
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(4, 50, 0.25)), None],
        },
        MemoryKind::Camouflage {
            protected: vec![
                Some(dg_defenses::IntervalDistribution::new(vec![100, 200])),
                None,
            ],
        },
    ];
    for kind in kinds {
        let victim = stream(200, 0, 40);
        let co = stream(200, 1 << 30, 40);
        let r = run_colocation(&cfg, vec![victim, co], kind.clone(), RunOpts::new(BUDGET))
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"))
            .result;
        assert!(r.cores[0].finished, "{kind:?}: victim must drain");
        assert!(r.cores[0].instructions > 0);
    }
}
