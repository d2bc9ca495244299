//! The defense sweep behind the `dg-runner` layer: an `ExperimentSpec` grid
//! of all seven defenses × both victims × three co-runners × three victim
//! secrets (126 jobs) at the `quick` preset, run through `run_sweep` with 2
//! workers and a journal, each job executed by the public `execute_job`
//! inside a closure that times it. The co-runners are those of
//! `examples/defense_sweep.toml`, memory-heavy `lbm` included; the third
//! secret puts 12.6 jobs above the p90 job time.
//!
//! The sweep runs in the traced pass of `dagguise-saturated`, where it also
//! sets `dg-workloads.trace_gen_s` to the time of its own inputs. It is not
//! an end-to-end workload: its two workers keep both host CPUs busy for
//! seconds at a time, so on a shared 2-CPU host its timings followed
//! co-tenant load that lasts minutes and moved by a third between runs.
//!
//! The seed names the sweep, and so every job id and every co-runner trace
//! generated from it. The victim secrets stay fixed.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use dg_runner::material::spec_trace_seeded;
use dg_runner::{execute_job, job_seed, run_sweep, ColocationJob, ExperimentSpec, RunnerConfig};
use dg_system::ColocationResult;

use crate::digest::Digest;
use crate::measure::secs;
use crate::Layers;

/// Sweep worker threads (the host has two CPUs).
const WORKERS: usize = 2;
/// Defense labels of the grid, in spec order.
pub const DEFENSES: [&str; 7] = [
    "insecure",
    "dagguise",
    "fixed_service",
    "fs_bta",
    "fs_spatial",
    "temporal_partition",
    "camouflage",
];

/// What one sweep produced.
struct SweepRun {
    wall_s: f64,
    merge_s: f64,
    /// `(defense, seconds)` of every executed job.
    jobs: Vec<(String, f64)>,
    /// Successful results by job id; `errors` counts the jobs that failed.
    results: BTreeMap<String, ColocationResult>,
    errors: u64,
    retries: u64,
}

/// The spec text of the sweep named after `seed`.
fn spec_text(seed: u64) -> String {
    let defenses: Vec<String> = DEFENSES.iter().map(|d| format!("\"{d}\"")).collect();
    format!(
        "name = \"perfbench-s{seed}\"\n\n[scale]\npreset = \"quick\"\n\n[grid]\n\
         defenses = [{defenses}]\nvictims = [\"docdist\", \"dna\"]\n\
         corunners = [\"lbm\", \"leela\", \"xz\"]\nseeds = [0, 1, 2]\n",
        defenses = defenses.join(", "),
    )
}

/// One sweep of `jobs` journaled to `journal`, every job timed, on the
/// naive per-cycle engine if `naive` and on the event engine otherwise.
fn sweep(jobs: &[ColocationJob], journal: &Path, naive: bool) -> Result<SweepRun, String> {
    let cfg = RunnerConfig {
        jobs: WORKERS,
        retries: 0,
        journal: Some(journal.to_path_buf()),
        verbose: false,
        ..RunnerConfig::default()
    };
    let timings = Mutex::new(Vec::with_capacity(jobs.len()));
    let exec = |job: &ColocationJob, ctx: &dg_runner::JobCtx| {
        let t = Instant::now();
        let r = execute_job(job, ctx);
        timings
            .lock()
            .expect("job timings")
            .push((job.defense.clone(), secs(t)));
        r
    };
    if naive {
        std::env::set_var("DG_NO_SKIP", "1");
    }
    let t0 = Instant::now();
    let outcome = run_sweep(&cfg, jobs, exec);
    let wall_s = secs(t0);
    std::env::remove_var("DG_NO_SKIP");
    let outcome = outcome.map_err(|e| format!("sweep failed: {e}"))?;
    let t1 = Instant::now();
    std::hint::black_box(outcome.merged_report_json("perfbench"));
    let merge_s = secs(t1);
    let _ = std::fs::remove_file(journal);
    let mut results = BTreeMap::new();
    let mut errors = 0;
    let mut retries = 0;
    for r in &outcome.records {
        retries += u64::from(r.attempts.saturating_sub(1));
        match &r.output {
            Some(out) => {
                results.insert(r.id.clone(), out.clone());
            }
            None => {
                eprintln!("perfbench: job {} failed: {:?}", r.id, r.error);
                errors += 1;
            }
        }
    }
    Ok(SweepRun {
        wall_s,
        merge_s,
        jobs: timings.into_inner().expect("job timings"),
        results,
        errors,
        retries,
    })
}

/// Time the public trace generators take for every job's victim and
/// co-runner traces, which `execute_job` generates inside each job.
fn trace_gen_s(jobs: &[ColocationJob]) -> f64 {
    let t0 = Instant::now();
    for job in jobs {
        std::hint::black_box(job.victim.trace(&job.scale, job.secret));
        std::hint::black_box(spec_trace_seeded(
            &job.scale,
            &job.corunner,
            1,
            job_seed(&job.id),
        ));
    }
    secs(t0)
}

/// Runs the sweep of `seed` once on the naive engine for the reference
/// digests and once on the event engine, checking every job of the second
/// against the first, and fills the `dg-runner` layer and
/// `dg-workloads.trace_gen_s`. Journals go to `scratch`. Returns
/// (attempted, failed).
pub fn traced(seed: u64, scratch: &Path, layers: &mut Layers) -> (u64, u64) {
    let jobs = match ExperimentSpec::from_toml_str(&spec_text(seed)) {
        Ok(spec) => spec.expand(),
        Err(e) => {
            eprintln!("perfbench: sweep spec: {e}");
            return (1, 1);
        }
    };
    let (reference, run) = match (
        sweep(&jobs, &scratch.join("reference.jsonl"), true),
        sweep(&jobs, &scratch.join("sweep.jsonl"), false),
    ) {
        (Ok(reference), Ok(run)) => (reference, run),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench: {e}");
            return (1, 1);
        }
    };
    let mismatches = run
        .results
        .iter()
        .filter(|(id, r)| {
            !reference
                .results
                .get(*id)
                .is_some_and(|d| Digest::of_colocation(d).check(id, &Digest::of_colocation(r)))
        })
        .count() as u64;
    for d in DEFENSES {
        let t: f64 = run
            .jobs
            .iter()
            .filter(|(def, _)| def == d)
            .map(|j| j.1)
            .sum();
        layers.set(&format!("dg-runner.job_s.{d}"), t);
    }
    let busy: f64 = run.jobs.iter().map(|j| j.1).sum();
    layers.set(
        "dg-runner.worker_busy_frac",
        busy / (WORKERS as f64 * run.wall_s),
    );
    layers.set("dg-runner.merge_s", run.merge_s);
    layers.set("dg-runner.retries", run.retries as f64);
    layers.set("dg-workloads.trace_gen_s", trace_gen_s(&jobs));
    (
        run.results.len() as u64 + run.errors,
        reference.errors + run.errors + mismatches,
    )
}
