//! The full DAGguise deployment workflow from §4.3: profile a victim
//! offline, pick a defense rDAG from the cost-effective bandwidth band,
//! and deploy it.
//!
//! Run with: `cargo run --release --example profile_and_protect`

use dagguise_repro::prelude::*;
use dg_shard::{run_colocation, RunOpts};
use dg_system::profile::{baseline_alone, profile_victim, select_defense_rdag};
use dg_workloads::DnaWorkload;

fn main() {
    let cfg = SystemConfig::two_core();

    // The application to protect: DNA read alignment over a private read.
    let victim = DnaWorkload {
        genome_len: 16 * 1024,
        k: 10,
        buckets: 4096,
        read_len: 600,
        secret: 7,
    }
    .record()
    .0;
    println!("victim: DNA matching, {} memory operations", victim.len());

    // Step 1 — baseline: the victim alone on the insecure system.
    let base = baseline_alone(&cfg, victim.clone(), u64::MAX / 2).expect("baseline run");
    println!("baseline IPC (insecure, alone): {base:.3}\n");

    // Step 2 — sweep a small template search space, victim alone under
    // each candidate defense rDAG (no knowledge of co-runners needed!).
    println!(
        "{:>10} {:>8} {:>10} {:>12}",
        "sequences", "weight", "norm. IPC", "alloc (GB/s)"
    );
    let mut points = Vec::new();
    for &seqs in &[1u32, 2, 4, 8] {
        for &weight in &[25u64, 100, 200] {
            let t = RdagTemplate::new(seqs, weight, 0.125);
            let p =
                profile_victim(&cfg, victim.clone(), t, base, u64::MAX / 2).expect("profile run");
            println!(
                "{seqs:>10} {weight:>8} {:>10.3} {:>12.2}",
                p.normalized_ipc, p.allocated_gbps
            );
            points.push(p);
        }
    }

    // Step 3 — select from the 2-4 GB/s cost-effective band (Figure 7c).
    let chosen = select_defense_rdag(&points, 2.0, 4.0);
    println!(
        "\nselected defense rDAG: {} sequences x weight {} ({:.2} GB/s, norm. IPC {:.3})",
        chosen.template.sequences,
        chosen.template.weight,
        chosen.allocated_gbps,
        chosen.normalized_ipc
    );

    // Step 4 — deploy: victim protected by the chosen rDAG next to an
    // unprotected co-runner.
    let mut co = MemTrace::new();
    for i in 0..20_000u64 {
        co.load((1 << 30) + (i % 16384) * 64, 10);
    }
    let r = run_colocation(
        &cfg,
        vec![victim, co],
        MemoryKind::Dagguise {
            protected: vec![Some(chosen.template), None],
        },
        RunOpts::new(u64::MAX / 2),
    )
    .expect("deployment run")
    .result;
    println!(
        "\ndeployed: victim IPC {:.3}, co-runner IPC {:.3}, victim bandwidth {:.2} GB/s (incl. fakes)",
        r.cores[0].ipc, r.cores[1].ipc, r.bandwidth_gbps[0]
    );
    println!(
        "the co-runner was never profiled — the rDAG's versatility adapts \
         the bandwidth split at run time (§4.1)"
    );
}
