//! End-to-end sweep properties: worker-count independence and
//! kill/resume crash safety, exercised through a real (tiny) experiment
//! spec running actual simulations.

use dg_runner::{
    host_cost_leaderboard, latency_leaderboard, merged_profile, merged_report_with_latency,
    ExperimentSpec, RunnerConfig,
};
use std::path::PathBuf;

const SPEC: &str = r#"
name = "it"

[scale]
preset = "smoke"
budget = 40_000_000

[grid]
defenses = ["insecure", "dagguise"]
victims = ["docdist"]
corunners = ["lbm", "xz"]
seeds = [0]
"#;

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("dg_runner_it_{name}_{}", std::process::id()));
    p
}

fn quiet(jobs: usize) -> RunnerConfig {
    RunnerConfig {
        jobs,
        verbose: false,
        ..RunnerConfig::default()
    }
}

fn spec() -> ExperimentSpec {
    ExperimentSpec::from_toml_str(SPEC).unwrap()
}

/// Satellite (a): the merged report must be byte-identical whatever the
/// worker count, because each job's RNG seed derives from its stable id,
/// never from scheduling.
#[test]
fn merged_report_is_independent_of_worker_count() {
    let spec = spec();
    let seq = spec.run(&quiet(1)).unwrap();
    let par = spec.run(&quiet(4)).unwrap();
    assert_eq!(seq.progress.succeeded, 4);
    assert_eq!(par.progress.succeeded, 4);
    assert_eq!(
        seq.merged_report_json(&spec.name),
        par.merged_report_json(&spec.name),
        "reports must be byte-identical across --jobs values"
    );
    // The canonical dg-run report embeds the per-defense latency
    // leaderboard; histogram merging is bucket-wise and associative, so it
    // must stay byte-identical too.
    assert_eq!(
        merged_report_with_latency(&spec.name, &seq),
        merged_report_with_latency(&spec.name, &par),
        "latency-merged reports must be byte-identical across --jobs values"
    );

    let rows = latency_leaderboard(&seq);
    assert_eq!(rows.len(), 2, "one latency row per defense");
    for row in &rows {
        assert!(row.requests > 0, "{}: empty merged histogram", row.defense);
        assert!(row.p50 > 0, "{}: p50 missing", row.defense);
        assert!(
            row.p50 <= row.p99 && row.p99 <= row.p999 && row.p999 <= row.max,
            "{}: percentiles must be monotone",
            row.defense
        );
    }
}

/// Tentpole: a profiled sweep collects one host-time attribution tree per
/// job, dominated by known spans, without perturbing the simulation.
#[test]
fn profiled_sweep_attributes_host_time_per_defense() {
    // Unique sweep name: the profile collector is process-global and this
    // is the only test that drains it.
    let profiled = ExperimentSpec::from_toml_str(&format!("profile = true\n{SPEC}"))
        .unwrap_or_else(|e| panic!("{e}"));
    assert!(profiled.expand().iter().all(|j| j.profile));
    let out = profiled.run(&quiet(2)).unwrap();
    assert_eq!(out.progress.succeeded, 4);

    let profiles: Vec<(String, dg_prof::ProfileReport)> = dg_prof::collector::drain()
        .into_iter()
        .filter(|(id, _)| id.starts_with("it/"))
        .collect();
    // Detect whether dg-prof was built with its `prof` feature; without it
    // the collector legitimately stays empty.
    dg_prof::start();
    let prof_compiled_in = dg_prof::is_enabled();
    dg_prof::stop();
    if !prof_compiled_in {
        assert!(profiles.is_empty());
        return;
    }
    assert_eq!(profiles.len(), 4, "one profile per successful job");
    for (id, p) in &profiles {
        assert!(p.total_ns > 0, "{id}: empty profile");
        // ci.sh holds the profiled smoke (a process with the sweep to
        // itself) to >= 0.9; here three sibling tests contend for the
        // same small host and preemption between spans eats coverage.
        assert!(
            p.coverage >= 0.85,
            "{id}: only {:.2} of wall time attributed",
            p.coverage
        );
        // Top-5, not top-3: sim's *self* time is scan overhead (its hot
        // children — dram_device, core_tick, mem_tick — are ranked
        // separately) and races `controller` within a few percent, which
        // parallel-test load on a small host flips either way.
        let top = p.top_self();
        assert!(
            top.iter().take(5).any(|(name, _)| name == "sim"),
            "{id}: sim phase missing from top-5 self time: {top:?}"
        );
    }

    let rows = host_cost_leaderboard(&profiles);
    assert_eq!(rows.len(), 2, "one host-cost row per defense");
    let folded = merged_profile(&profiles).unwrap().collapsed();
    assert!(folded.contains("run;sim"), "collapsed stacks: {folded}");

    // Profiling must not leak into the deterministic report: an
    // unprofiled run of the same spec merges identically.
    let unprofiled = spec().run(&quiet(2)).unwrap();
    assert_eq!(
        merged_report_with_latency("it", &out),
        merged_report_with_latency("it", &unprofiled),
        "profiling must not perturb the merged report"
    );
}

/// Satellite (d): a sweep killed mid-run — journal cut short, last line
/// half-written — resumes to a merged report byte-identical to an
/// uninterrupted run, at a different worker count, without re-running the
/// journaled jobs.
#[test]
fn killed_sweep_resumes_to_identical_report() {
    let spec = spec();
    let uninterrupted = spec.run(&quiet(2)).unwrap();
    let reference = uninterrupted.merged_report_json(&spec.name);

    // Produce a complete journal, then truncate it to simulate a kill:
    // keep the first two entries and leave a half-written third line.
    let journal = tmp("resume");
    let _ = std::fs::remove_file(&journal);
    let mut cfg = quiet(2);
    cfg.journal = Some(journal.clone());
    spec.run(&cfg).unwrap();

    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one journal line per job");
    let mut cut: String = lines[..2].join("\n");
    cut.push('\n');
    cut.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(&journal, cut).unwrap();

    let mut cfg = quiet(3);
    cfg.resume = Some(journal.clone());
    let resumed = spec.run(&cfg).unwrap();
    assert_eq!(resumed.progress.skipped, 2, "journaled jobs are skipped");
    assert_eq!(
        resumed.merged_report_json(&spec.name),
        reference,
        "resumed report must be byte-identical to an uninterrupted run"
    );

    // The journal now holds the re-run jobs too: a second resume skips
    // everything.
    let mut cfg = quiet(1);
    cfg.resume = Some(journal.clone());
    let all_skipped = spec.run(&cfg).unwrap();
    assert_eq!(all_skipped.progress.skipped, 4);
    assert_eq!(all_skipped.progress.succeeded, 0);
    assert_eq!(all_skipped.merged_report_json(&spec.name), reference);
    std::fs::remove_file(&journal).unwrap();
}

/// Satellite (f) mechanics: an override that shrinks one job's budget
/// forces `SimError::Deadline` on the first attempt; escalation makes the
/// retry succeed, and the retried result matches an un-overridden run of
/// the same grid point (budget affects only *whether* a run finishes, not
/// its simulated behavior).
#[test]
fn forced_deadline_retries_and_converges() {
    let base = spec();
    let with_override = ExperimentSpec::from_toml_str(&format!(
        "{SPEC}\n[[override]]\nmatch = \"+lbm/insecure\"\nbudget = 50_000\n"
    ))
    .unwrap();
    let mut cfg = quiet(2);
    cfg.retries = 3;
    cfg.escalation = 1000; // 50k -> 50M on the first retry
    let out = with_override.run(&cfg).unwrap();
    assert_eq!(out.progress.succeeded, 4);
    assert!(
        out.progress.retries >= 1,
        "the tiny budget must force a retry"
    );

    let rec = out.get("it/docdist-s0+lbm/insecure").unwrap();
    assert_eq!(rec.attempts, 2);

    let reference = base.run(&quiet(2)).unwrap();
    let ref_rec = reference.get("it/docdist-s0+lbm/insecure").unwrap();
    assert_eq!(
        rec.output, ref_rec.output,
        "escalated retry must produce the same simulation result"
    );
}
