//! Figure 9: average normalized IPC running DocDist with one SPEC
//! application on a two-core system, under FS-BTA and DAGguise, each
//! normalized to the insecure baseline.
//!
//! Paper shape to reproduce: DAGguise ≈ 10% average system slowdown,
//! ≈ 6% better than FS-BTA overall; the SPEC side does markedly better
//! under DAGguise (≈ 20% on average) while DocDist does somewhat worse.
//!
//! One sweep job per SPEC app, driven by `dg-runner` (work stealing,
//! `--jobs`, `--journal`/`--resume` checkpointing, retries).

use dg_runner::material::{docdist_defense, docdist_trace, spec_trace};
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
    fs_bta_victim: f64,
    dagguise_victim: f64,
    fs_bta_spec: f64,
    dagguise_spec: f64,
}

#[derive(Serialize)]
struct Fig9Data {
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
    let scale = args.scale;
    let cfg = SystemConfig::two_core();
    let victim = docdist_trace(&scale, 0);
    let defense = docdist_defense();

    let jobs: Vec<AppJob> = spec_names()
        .iter()
        .enumerate()
        .map(|(slot, app)| AppJob {
            id: format!("fig9/{app}"),
            slot: slot as u64,
            app,
        })
        .collect();

    let outcome = run_sweep(&args.runner_config(), &jobs, |job, ctx| {
        let co = spec_trace(&scale, job.app, job.slot);
        let budget = ctx.budget(scale.budget);
        let run = |kind: MemoryKind| {
            let traces = vec![victim.clone(), co.clone()];
            run_colocation(&cfg, traces, kind, RunOpts::new(budget)).map(|o| o.result)
        };
        let insecure = run(MemoryKind::Insecure)?;
        let fs = run(MemoryKind::FsBta)?;
        let dag = run(MemoryKind::Dagguise {
            protected: vec![Some(defense), None],
        })?;

        let norm =
            |r: &dg_system::ColocationResult, i: usize| r.cores[i].ipc / insecure.cores[i].ipc;
        Ok(AppResult {
            app: job.app.to_string(),
            fs_bta_victim: norm(&fs, 0),
            fs_bta_spec: norm(&fs, 1),
            fs_bta_avg: (norm(&fs, 0) + norm(&fs, 1)) / 2.0,
            dagguise_victim: norm(&dag, 0),
            dagguise_spec: norm(&dag, 1),
            dagguise_avg: (norm(&dag, 0) + norm(&dag, 1)) / 2.0,
        })
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    let complete = outcome.report_failures();
    let mut apps_res: Vec<AppResult> = outcome.outputs().map(|(_, r)| r.clone()).collect();
    apps_res.sort_by(|a, b| a.app.cmp(&b.app));

    let rows: Vec<Vec<String>> = apps_res
        .iter()
        .map(|r| {
            vec![
                r.app.clone(),
                format!("{:.3}", r.fs_bta_avg),
                format!("{:.3}", r.dagguise_avg),
                format!("{:.3}", r.fs_bta_victim),
                format!("{:.3}", r.dagguise_victim),
                format!("{:.3}", r.fs_bta_spec),
                format!("{:.3}", r.dagguise_spec),
            ]
        })
        .collect();

    let g_fs = geomean(&apps_res.iter().map(|r| r.fs_bta_avg).collect::<Vec<_>>()).unwrap_or(0.0);
    let g_dag =
        geomean(&apps_res.iter().map(|r| r.dagguise_avg).collect::<Vec<_>>()).unwrap_or(0.0);

    let mut all_rows = rows;
    all_rows.push(vec![
        "geomean".into(),
        format!("{:.3}", g_fs),
        format!("{:.3}", g_dag),
        String::new(),
        String::new(),
        String::new(),
        String::new(),
    ]);
    dg_bench::print_table(
        "Figure 9: average normalized IPC, DocDist + 1 SPEC app (two cores)",
        &[
            "app",
            "FS-BTA avg",
            "DAGguise avg",
            "FS victim",
            "DAG victim",
            "FS spec",
            "DAG spec",
        ],
        &all_rows,
    );

    println!(
        "\nSystem slowdown vs insecure: DAGguise {:.1}%, FS-BTA {:.1}%.",
        (1.0 - g_dag) * 100.0,
        (1.0 - g_fs) * 100.0
    );
    println!(
        "DAGguise relative speedup over FS-BTA: {:.1}% (paper: ~6% on two cores).",
        (g_dag / g_fs - 1.0) * 100.0
    );

    dg_bench::write_results(
        "fig9_twocore",
        &Fig9Data {
            apps: apps_res,
            geomean_fs_bta: g_fs,
            geomean_dagguise: g_dag,
        },
    );

    // Representative observed run for --metrics / --trace: the DocDist
    // victim against the first SPEC app under DAGguise.
    if args.observing() {
        let co = spec_trace(&scale, spec_names()[0], 0);
        args.export_run(
            &cfg,
            vec![victim, co],
            MemoryKind::Dagguise {
                protected: vec![Some(defense), None],
            },
            scale.budget,
            "fig9_twocore",
        );
    }

    args.export_profile();
    if !complete {
        std::process::exit(1);
    }
}
