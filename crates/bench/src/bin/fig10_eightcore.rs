//! Figure 10: eight-core scalability — two DocDist and two DNA victims
//! protected by four DAGguise shapers, co-located with four identical SPEC
//! instances, vs FS-BTA (where each victim gets 1/8 of the slots).
//!
//! Paper shape: DAGguise ≈ 34% system slowdown vs insecure, ≈ 12% average
//! speedup over FS-BTA, with most applications (not just unprotected
//! ones) improving relative to FS-BTA.
//!
//! One sweep job per SPEC app, driven by `dg-runner` (work stealing,
//! `--jobs`, `--journal`/`--resume` checkpointing, retries).

use dg_runner::material::{dna_defense, dna_trace, docdist_defense, docdist_trace, spec_trace};
use dg_runner::scale::Scale;
use dg_runner::{run_sweep, JobDesc};
use dg_shard::{run_colocation, RunOpts};
use dg_sim::config::SystemConfig;
use dg_sim::stats::geomean;
use dg_system::MemoryKind;
use dg_workloads::spec_names;
use serde::{Deserialize, Serialize};

#[derive(Serialize, Deserialize, Clone)]
struct AppResult {
    app: String,
    fs_bta_avg: f64,
    dagguise_avg: f64,
}

#[derive(Serialize)]
struct Fig10Data {
    apps: Vec<AppResult>,
    geomean_fs_bta: f64,
    geomean_dagguise: f64,
}

struct AppJob {
    id: String,
    slot: u64,
    app: &'static str,
}

impl JobDesc for AppJob {
    fn id(&self) -> &str {
        &self.id
    }
}

fn main() {
    let args = dg_bench::parse_harness_args();
    let mut scale = args.scale;
    // Eight-core runs cost ~4x a two-core run; trim the quick preset.
    if scale == Scale::quick() {
        scale.docdist_words /= 2;
        scale.dna_read /= 2;
        scale.spec_instructions /= 2;
    }
    let cfg = SystemConfig::eight_core();

    let doc0 = docdist_trace(&scale, 0);
    let doc1 = docdist_trace(&scale, 1);
    let dna0 = dna_trace(&scale, 0);
    let dna1 = dna_trace(&scale, 1);
    let doc_def = docdist_defense();
    let dna_def = dna_defense();

    let jobs: Vec<AppJob> = spec_names()
        .iter()
        .enumerate()
        .map(|(slot, app)| AppJob {
            id: format!("fig10/{app}"),
            slot: slot as u64,
            app,
        })
        .collect();

    let outcome = run_sweep(&args.runner_config(), &jobs, |job, ctx| {
        // Four victims + four identical SPEC instances.
        let traces = || {
            vec![
                doc0.clone(),
                doc1.clone(),
                dna0.clone(),
                dna1.clone(),
                spec_trace(&scale, job.app, job.slot * 4),
                spec_trace(&scale, job.app, job.slot * 4 + 1),
                spec_trace(&scale, job.app, job.slot * 4 + 2),
                spec_trace(&scale, job.app, job.slot * 4 + 3),
            ]
        };
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
        let budget = ctx.budget(scale.budget);
        let run = |kind: MemoryKind| {
            run_colocation(&cfg, traces(), kind, RunOpts::new(budget)).map(|o| o.result)
        };
        let insecure = run(MemoryKind::Insecure)?;
        let fs = run(MemoryKind::FsBta)?;
        let dag = run(MemoryKind::Dagguise {
            protected: protection,
        })?;
        let avg_norm = |r: &dg_system::ColocationResult| {
            (0..8)
                .map(|i| r.cores[i].ipc / insecure.cores[i].ipc)
                .sum::<f64>()
                / 8.0
        };
        Ok(AppResult {
            app: job.app.to_string(),
            fs_bta_avg: avg_norm(&fs),
            dagguise_avg: avg_norm(&dag),
        })
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let complete = outcome.report_failures();
    let mut apps_res: Vec<AppResult> = outcome.outputs().map(|(_, r)| r.clone()).collect();
    apps_res.sort_by(|a, b| a.app.cmp(&b.app));

    let g_fs = geomean(&apps_res.iter().map(|r| r.fs_bta_avg).collect::<Vec<_>>()).unwrap_or(0.0);
    let g_dag =
        geomean(&apps_res.iter().map(|r| r.dagguise_avg).collect::<Vec<_>>()).unwrap_or(0.0);

    let mut rows: Vec<Vec<String>> = apps_res
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                format!("{:.3}", r.fs_bta_avg),
                format!("{:.3}", r.dagguise_avg),
            ]
        })
        .collect();
    rows.push(vec![
        "geomean".into(),
        format!("{:.3}", g_fs),
        format!("{:.3}", g_dag),
    ]);
    dg_bench::print_table(
        "Figure 10: average normalized IPC, 2 DocDist + 2 DNA + 4 SPEC (eight cores)",
        &["app", "FS-BTA", "DAGguise"],
        &rows,
    );

    println!(
        "\nSystem slowdown vs insecure: DAGguise {:.1}% (paper ~34%), FS-BTA {:.1}%.",
        (1.0 - g_dag) * 100.0,
        (1.0 - g_fs) * 100.0
    );
    println!(
        "DAGguise relative speedup over FS-BTA: {:.1}% (paper: ~12% on eight cores).",
        (g_dag / g_fs - 1.0) * 100.0
    );

    dg_bench::write_results(
        "fig10_eightcore",
        &Fig10Data {
            apps: apps_res,
            geomean_fs_bta: g_fs,
            geomean_dagguise: g_dag,
        },
    );

    // Representative observed run for --metrics / --trace: the full
    // eight-core DAGguise mix with the first SPEC app.
    if args.observing() {
        let app0 = spec_names()[0];
        let traces = vec![
            doc0,
            doc1,
            dna0,
            dna1,
            spec_trace(&scale, app0, 0),
            spec_trace(&scale, app0, 1),
            spec_trace(&scale, app0, 2),
            spec_trace(&scale, app0, 3),
        ];
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
        args.export_run(
            &cfg,
            traces,
            MemoryKind::Dagguise {
                protected: protection,
            },
            scale.budget,
            "fig10_eightcore",
        );
    }

    args.export_profile();
    if !complete {
        std::process::exit(1);
    }
}
