//! Eight-core co-location (the §6.3 setting, scaled down): four protected
//! victims behind DAGguise shapers next to four unprotected SPEC-like
//! applications, compared against FS-BTA and the insecure baseline.
//!
//! Run with: `cargo run --release --example multicore_colocation`

use dagguise_repro::prelude::*;
use dg_shard::{run_colocation, RunOpts};
use dg_workloads::{DnaWorkload, DocDistWorkload, SpecPreset};

fn main() {
    let cfg = SystemConfig::eight_core();

    // Two DocDist and two DNA victims (distinct secrets), small scale.
    let doc = |secret| {
        DocDistWorkload {
            vocab: 32 * 1024,
            doc_words: 1_500,
            secret,
        }
        .record()
        .0
    };
    let dna = |secret| {
        DnaWorkload {
            genome_len: 8 * 1024,
            k: 10,
            buckets: 2048,
            read_len: 300,
            secret,
        }
        .record()
        .0
    };
    // Four instances of a moderately memory-bound SPEC-like co-runner.
    let spec = |slot: u64| {
        SpecPreset::by_name("wrf").expect("preset exists").generate(
            300_000,
            (10 + slot) << 32,
            99 + slot,
        )
    };

    let traces = || {
        vec![
            doc(0),
            doc(1),
            dna(0),
            dna(1),
            spec(0),
            spec(1),
            spec(2),
            spec(3),
        ]
    };
    let doc_def = RdagTemplate::new(4, 25, 0.25);
    let dna_def = RdagTemplate::new(8, 50, 0.125);
    let protection = vec![
        Some(doc_def),
        Some(doc_def),
        Some(dna_def),
        Some(dna_def),
        None,
        None,
        None,
        None,
    ];

    let run = |kind, what| {
        run_colocation(&cfg, traces(), kind, RunOpts::new(u64::MAX / 2))
            .expect(what)
            .result
    };
    let insecure = run(MemoryKind::Insecure, "insecure run");
    let fs = run(MemoryKind::FsBta, "fs run");
    let dag = run(
        MemoryKind::Dagguise {
            protected: protection,
        },
        "dagguise run",
    );

    let names = [
        "DocDist#0",
        "DocDist#1",
        "DNA#0",
        "DNA#1",
        "wrf#0",
        "wrf#1",
        "wrf#2",
        "wrf#3",
    ];
    println!(
        "{:>10} {:>12} {:>12} {:>12} {:>10} {:>10}",
        "core", "insecure IPC", "FS-BTA IPC", "DAGguise IPC", "FS norm", "DAG norm"
    );
    let mut fs_sum = 0.0;
    let mut dag_sum = 0.0;
    for (i, name) in names.iter().enumerate() {
        let fs_n = fs.cores[i].ipc / insecure.cores[i].ipc;
        let dag_n = dag.cores[i].ipc / insecure.cores[i].ipc;
        fs_sum += fs_n;
        dag_sum += dag_n;
        println!(
            "{:>10} {:>12.3} {:>12.3} {:>12.3} {:>10.3} {:>10.3}",
            name, insecure.cores[i].ipc, fs.cores[i].ipc, dag.cores[i].ipc, fs_n, dag_n
        );
    }
    println!(
        "\naverage normalized IPC: FS-BTA {:.3}, DAGguise {:.3} ({:+.1}% relative)",
        fs_sum / 8.0,
        dag_sum / 8.0,
        (dag_sum / fs_sum - 1.0) * 100.0
    );
    println!(
        "DAGguise scales: under FS-BTA each of the 8 domains is pinned to \
         1/8 of the slots; under DAGguise the four shapers and four \
         unprotected domains share bandwidth dynamically."
    );
}
