//! Criterion end-to-end benchmarks: miniature versions of the paper's
//! experiments, one per evaluation artifact, so `cargo bench` exercises
//! every reproduction path and tracks simulator performance regressions.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use dg_attacks::{figure1_scenario, Figure1Scenario};
use dg_cpu::MemTrace;
use dg_rdag::template::RdagTemplate;
use dg_shard::{run_colocation, RunOpts};
use dg_sim::config::SystemConfig;
use dg_system::MemoryKind;

fn small_victim() -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..400u64 {
        t.load((i % 2048) * 64 * 67, 25);
    }
    t
}

fn small_corunner() -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..2000u64 {
        t.load((1 << 30) + (i % 4096) * 64, 15);
    }
    t
}

fn bench_fig1(c: &mut Criterion) {
    c.bench_function("fig1/scenario_sweep", |b| {
        let cfg = SystemConfig::two_core();
        b.iter(|| {
            for s in [
                Figure1Scenario::NoActivity,
                Figure1Scenario::DifferentBank,
                Figure1Scenario::SameBankSameRow,
                Figure1Scenario::SameBankDifferentRow,
            ] {
                black_box(figure1_scenario(&cfg, s));
            }
        });
    });
}

fn bench_colocation(c: &mut Criterion) {
    let cfg = SystemConfig::two_core();
    let mut g = c.benchmark_group("colocation_small");
    g.sample_size(10);
    for (name, kind) in [
        ("insecure", MemoryKind::Insecure),
        ("fs_bta", MemoryKind::FsBta),
        (
            "dagguise",
            MemoryKind::Dagguise {
                protected: vec![Some(RdagTemplate::new(4, 100, 0.001)), None],
            },
        ),
    ] {
        g.bench_function(name, |b| {
            b.iter(|| {
                black_box(
                    run_colocation(
                        &cfg,
                        vec![small_victim(), small_corunner()],
                        kind.clone(),
                        RunOpts::new(200_000_000),
                    )
                    .expect("run finished"),
                )
            });
        });
    }
    g.finish();
}

fn bench_kinduction(c: &mut Criterion) {
    use dg_verif::{check_base, ModelConfig, ShaperKind};
    c.bench_function("verif/base_step_k3", |b| {
        let cfg = ModelConfig::paper(ShaperKind::Dagguise);
        b.iter(|| black_box(check_base(&cfg, 3).is_ok()));
    });
}

fn bench_area(c: &mut Criterion) {
    use dg_area::{area_report, AreaConfig};
    c.bench_function("table3/area_model", |b| {
        b.iter(|| black_box(area_report(&AreaConfig::paper())));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1, bench_colocation, bench_kinduction, bench_area
);
criterion_main!(benches);
