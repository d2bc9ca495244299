//! End-to-end attack demo: a probe attacker tries to distinguish two
//! victim secrets through memory-controller contention, against the
//! insecure baseline (succeeds), Camouflage (succeeds), DAGguise and
//! Fixed Service (fails bit-exactly).
//!
//! Run with: `cargo run --release --example attack_demo`

use dagguise_repro::prelude::*;
use dg_attacks::{distinguishable, LeakVerdict, ProbeCore};
use dg_defenses::IntervalDistribution;

/// Runs the DocDist victim (chosen secret) on core 0 and the probe
/// attacker on core 1; returns the attacker's ordered latency trace.
fn observe(secret: u64, defense: &MemoryKind) -> Vec<u64> {
    let victim_trace = dg_workloads::DocDistWorkload::small(secret).record().0;
    let attacker = ProbeCore::new(DomainId(1), 0x40, 120, 300);
    let log = attacker.log();
    let mut sys = SystemBuilder::new(SystemConfig::two_core())
        .trace_core(victim_trace)
        .core(Box::new(attacker))
        .memory(defense.clone())
        .build();
    sys.run_until_core_finished(1, 2_000_000_000)
        .expect("attacker finishes its probes");
    log.latencies()
}

fn verdict(defense: MemoryKind, name: &str) {
    let a = observe(0, &defense);
    let b = observe(1, &defense);
    match distinguishable(&a, &b) {
        LeakVerdict::Indistinguishable => {
            println!("{name:>10}: attacker latency traces IDENTICAL across secrets — no leak")
        }
        LeakVerdict::Distinguishable { mean_abs_diff } => println!(
            "{name:>10}: attacker latency traces DIFFER (mean |Δ| = {mean_abs_diff:.2} cycles) — secret leaks"
        ),
    }
}

fn main() {
    println!("Attacker: fixed-pattern probe to one bank, 300 probes, 120-cycle think time.");
    println!("Victim:   DocDist computing over a private document (secret 0 vs secret 1).\n");

    verdict(MemoryKind::Insecure, "insecure");
    verdict(
        MemoryKind::Camouflage {
            protected: vec![Some(IntervalDistribution::new(vec![150, 300])), None],
        },
        "camouflage",
    );
    verdict(
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(4, 50, 0.25)), None],
        },
        "dagguise",
    );
    verdict(MemoryKind::FsBta, "fs-bta");

    println!(
        "\nDAGguise and Fixed Service close the channel; the insecure \
         baseline and Camouflage leak the secret through the attacker's \
         own request latencies."
    );
}
