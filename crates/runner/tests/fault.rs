//! Fault-injection supervision: planned IO faults and failing jobs must
//! degrade the sweep gracefully — completed results survive, damage is
//! surfaced through [`SweepHealth`]/[`ExitClass`], terminal failures are
//! quarantined — and transient faults must be invisible in the output.

use dg_fault::IoPlan;
use dg_runner::{replay_journal, run_sweep, ExitClass, JobCtx, JobDesc, RunnerConfig};
use dg_sim::error::SimError;
use std::path::PathBuf;
use std::time::Duration;

struct TestJob {
    id: String,
}

impl JobDesc for TestJob {
    fn id(&self) -> &str {
        &self.id
    }
}

fn jobs(n: usize) -> Vec<TestJob> {
    (0..n)
        .map(|i| TestJob {
            id: format!("ft/job-{i}"),
        })
        .collect()
}

fn ok_exec(_job: &TestJob, ctx: &JobCtx) -> Result<u64, SimError> {
    Ok(ctx.seed.rotate_left(13))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dg_fault_it_{name}_{}", std::process::id()))
}

fn quiet() -> RunnerConfig {
    RunnerConfig {
        jobs: 2,
        verbose: false,
        ..RunnerConfig::default()
    }
}

/// ENOSPC mid-sweep: the journal degrades to in-memory mode, every
/// completed result still merges, the exit class says Infra — and a
/// healthy-disk resume from the surviving journal prefix converges to
/// the uninjected report.
#[test]
fn enospc_degrades_journal_and_healthy_resume_converges() {
    let jobs = jobs(9);
    let reference = run_sweep(&quiet(), &jobs, ok_exec).unwrap();
    let reference = reference.merged_report_json("ft");

    let journal = tmp("enospc");
    let _ = std::fs::remove_file(&journal);
    let mut cfg = quiet();
    cfg.jobs = 1; // deterministic write order: the fault lands mid-sweep
    cfg.journal = Some(journal.clone());
    cfg.fault_io = IoPlan::parse(&["journal@150:enospc"]).unwrap();
    let degraded = run_sweep(&cfg, &jobs, ok_exec).unwrap();

    assert!(degraded.health.journal_degraded, "journal must degrade");
    assert!(degraded.health.infra_failed());
    assert_eq!(degraded.exit_class(), ExitClass::Infra);
    assert_eq!(ExitClass::Infra.code(), 3);
    assert_eq!(
        degraded.progress.succeeded, 9,
        "degradation must not drop completed results"
    );
    assert_eq!(
        degraded.merged_report_json("ft"),
        reference,
        "the degraded run's merged report must still be canonical"
    );
    let on_disk = std::fs::metadata(&journal).unwrap().len();
    assert!(
        on_disk < 9 * 60,
        "a full disk cannot hold all records, got {on_disk} bytes"
    );

    // Healthy disk again: resume re-runs only the unjournaled jobs and
    // lands on the byte-identical report.
    let mut cfg = quiet();
    cfg.resume = Some(journal.clone());
    let resumed = run_sweep(&cfg, &jobs, ok_exec).unwrap();
    assert!(!resumed.health.infra_failed());
    assert_eq!(resumed.exit_class(), ExitClass::Success);
    assert_eq!(resumed.merged_report_json("ft"), reference);
    std::fs::remove_file(&journal).unwrap();
}

/// Transient faults (EINTR, short write) are retried at the exact byte:
/// the sweep neither fails nor degrades, and the journal ends up a fully
/// valid record of every job.
#[test]
fn transient_io_faults_are_invisible_after_retry() {
    let jobs = jobs(6);
    let journal = tmp("transient");
    let _ = std::fs::remove_file(&journal);
    let mut cfg = quiet();
    cfg.journal = Some(journal.clone());
    cfg.fault_io = IoPlan::parse(&["journal@40:eintr", "journal@110:partial"]).unwrap();
    let out = run_sweep(&cfg, &jobs, ok_exec).unwrap();

    assert!(!out.health.infra_failed(), "{:?}", out.health.io_errors);
    assert_eq!(out.exit_class(), ExitClass::Success);
    assert_eq!(out.progress.succeeded, 6);

    let replay = replay_journal::<u64>(&journal).unwrap();
    assert!(!replay.dropped_partial_tail, "no torn or duplicated bytes");
    assert_eq!(
        replay.entries.len(),
        6,
        "every record journaled exactly once"
    );
    std::fs::remove_file(&journal).unwrap();
}

/// Watchdog-style cancellations (`SimError::Aborted` with a stall
/// diagnosis) are terminal by default and retryable only behind
/// `retry_stalled` — the stall exit class tells the two apart.
#[test]
fn stalled_jobs_retry_only_when_opted_in() {
    let jobs = jobs(3);
    let exec = |job: &TestJob, ctx: &JobCtx| -> Result<u64, SimError> {
        if job.id.ends_with("job-1") && ctx.attempt == 0 {
            // Manufacture the watchdog signature: the probe is cancelled
            // with a stall diagnosis, then the attempt aborts.
            if let Some(p) = &ctx.monitor {
                p.cancel("stall watchdog: simulated clock stuck");
            }
            return Err(SimError::Aborted("supervisor cancelled".into()));
        }
        ok_exec(job, ctx)
    };

    // Monitoring must be live for cancellation to carry a diagnosis; a
    // generous stall budget keeps the real watchdog quiet.
    let mut cfg = quiet();
    cfg.monitor.stall_timeout = Some(Duration::from_secs(120));
    cfg.retries = 2;
    let out = run_sweep(&cfg, &jobs, exec).unwrap();
    assert_eq!(out.progress.failed, 1, "stalls are terminal by default");
    assert_eq!(out.health.stalled, 1);
    assert_eq!(out.exit_class(), ExitClass::Stall);
    assert_eq!(ExitClass::Stall.code(), 4);

    let mut cfg = quiet();
    cfg.monitor.stall_timeout = Some(Duration::from_secs(120));
    cfg.retries = 2;
    cfg.retry_stalled = true;
    let out = run_sweep(&cfg, &jobs, exec).unwrap();
    assert_eq!(out.progress.failed, 0, "opt-in makes the stall retryable");
    assert_eq!(out.progress.succeeded, 3);
    assert_eq!(out.exit_class(), ExitClass::Success);
    let rec = out.get("ft/job-1").unwrap();
    assert_eq!(rec.attempts, 2, "recovered on the retry");
}

/// Terminally failed jobs land in quarantine: one JSON diagnostics
/// bundle per job, carrying identity, attempts, the error, and a repro
/// command.
#[test]
fn exhausted_jobs_are_quarantined_with_diagnostics() {
    let jobs = jobs(4);
    let exec = |job: &TestJob, ctx: &JobCtx| -> Result<u64, SimError> {
        if job.id.ends_with("job-2") {
            return Err(SimError::InvalidConfig("synthetic terminal failure".into()));
        }
        ok_exec(job, ctx)
    };
    let qdir = tmp("quarantine_dir");
    let _ = std::fs::remove_dir_all(&qdir);
    let mut cfg = quiet();
    cfg.retries = 1;
    cfg.quarantine = Some(qdir.clone());
    cfg.repro_prefix = Some("dg-run chaos.toml".to_string());
    let out = run_sweep(&cfg, &jobs, exec).unwrap();

    assert_eq!(out.progress.failed, 1);
    assert_eq!(out.health.quarantined.len(), 1);
    let (id, bundle) = &out.health.quarantined[0];
    assert_eq!(id, "ft/job-2");
    let doc = std::fs::read_to_string(bundle).unwrap();
    for needle in [
        "\"id\": \"ft/job-2\"",
        "synthetic terminal failure",
        "\"attempts\": 1",
        "dg-run chaos.toml --only 'ft/job-2'",
        "\"wall_ms\"",
    ] {
        assert!(doc.contains(needle), "bundle missing {needle}: {doc}");
    }
    // Quarantine never rewrites history: the record still fails loudly.
    assert_eq!(out.exit_class(), ExitClass::JobFailures);
    std::fs::remove_dir_all(&qdir).unwrap();
}

/// The failure budget turns bounded failure into success — and infra
/// damage outranks it.
#[test]
fn failure_budget_gates_the_exit_class() {
    let jobs = jobs(5);
    let exec = |job: &TestJob, ctx: &JobCtx| -> Result<u64, SimError> {
        if job.id.ends_with("job-0") {
            return Err(SimError::InvalidConfig("bad grid point".into()));
        }
        ok_exec(job, ctx)
    };

    let out = run_sweep(&quiet(), &jobs, exec).unwrap();
    assert_eq!(out.exit_class(), ExitClass::JobFailures);
    assert_eq!(ExitClass::JobFailures.code(), 1);

    let mut cfg = quiet();
    cfg.max_failures = 1;
    let out = run_sweep(&cfg, &jobs, exec).unwrap();
    assert_eq!(out.progress.failed, 1);
    assert_eq!(out.exit_class(), ExitClass::Success);
    assert_eq!(ExitClass::Success.code(), 0);

    // Infra outranks the budget: a degraded journal is never a success.
    let journal = tmp("budget_enospc");
    let _ = std::fs::remove_file(&journal);
    let mut cfg = quiet();
    cfg.jobs = 1;
    cfg.max_failures = 1;
    cfg.journal = Some(journal.clone());
    cfg.fault_io = IoPlan::parse(&["journal@30:enospc"]).unwrap();
    let out = run_sweep(&cfg, &jobs, exec).unwrap();
    assert_eq!(out.exit_class(), ExitClass::Infra);
    std::fs::remove_file(&journal).unwrap();
}
