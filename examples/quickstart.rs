//! Quickstart: build a defense rDAG, protect a victim with the DAGguise
//! shaper, and run it against the simulated memory system.
//!
//! Run with: `cargo run --release --example quickstart`

use dagguise_repro::prelude::*;

fn main() {
    // 1. A system configuration — Table 2 of the paper: two 2.4 GHz cores,
    //    three cache levels, single-channel 8-bank DDR3-1600.
    let cfg = SystemConfig::two_core();

    // 2. A defense rDAG from the §4.3 template family: four parallel
    //    sequences of strictly dependent requests, each alternating
    //    between two banks, 100 DRAM cycles between a completion and the
    //    next arrival, 1 write vertex per 1000.
    let defense = RdagTemplate::new(4, 100, 0.001);
    println!(
        "defense rDAG: {} sequences x weight {} (density {:.4} req/DRAM-cycle)",
        defense.sequences,
        defense.weight,
        defense.density(26)
    );

    // 3. A victim workload: a pointer-chase-ish trace whose addresses we
    //    pretend are secret-dependent.
    let mut victim = MemTrace::new();
    for i in 0..2_000u64 {
        victim.load((i * 64 * 131) % (16 << 20), 40);
    }

    // 4. A co-running (unprotected) streaming application.
    let mut co = MemTrace::new();
    for i in 0..8_000u64 {
        co.load((1 << 30) + (i % 8192) * 64, 12);
    }

    // 5. Assemble: victim on core 0 behind a DAGguise shaper, co-runner on
    //    core 1 untouched, sharing the memory controller.
    let mut system = SystemBuilder::new(cfg)
        .trace_core(victim)
        .trace_core(co)
        .memory(MemoryKind::Dagguise {
            protected: vec![Some(defense), None],
        })
        .build();

    // 6. Run to completion and report.
    let end = system
        .run_until_finished(2_000_000_000)
        .expect("run completes");
    println!("finished in {end} cycles");
    let report = system.report("quickstart");
    for (i, core) in report.cores.iter().enumerate() {
        println!(
            "core {i}: {} instructions, IPC {:.3}",
            core.instructions, core.ipc
        );
    }
    let d0 = &report.domains[0];
    println!(
        "victim domain: {} reads + {} writes forwarded, {} fake requests \
         covered its pattern",
        d0.reads, d0.writes, d0.fakes
    );
    println!(
        "memory latency seen by the victim: mean {:.0} cycles",
        d0.mean_latency.unwrap_or(0.0)
    );
}
