//! Live-telemetry properties: monitoring must be purely observational
//! (byte-identical merged reports with it on or off), the events stream
//! must survive kill/--resume like the journal, and the stall watchdog
//! must cancel exactly the jobs whose simulated clock stops advancing.

use dg_mon::{scan_events, MonitorConfig};
use dg_runner::{merged_report_with_latency, run_sweep, ExperimentSpec, JobDesc, RunnerConfig};
use dg_sim::error::SimError;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SPEC: &str = r#"
name = "mon"

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
    p.push(format!("dg_runner_mon_{name}_{}", std::process::id()));
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

/// Satellite (b): enabling the dashboard, the events stream, and the
/// watchdog together must not change a single byte of the merged report —
/// heartbeats are write-only from the simulation's point of view.
#[test]
fn monitoring_does_not_perturb_the_report() {
    let spec = spec();
    let bare = spec.run(&quiet(2)).unwrap();
    let reference = merged_report_with_latency(&spec.name, &bare);

    let events = tmp("observer_events");
    let _ = std::fs::remove_file(&events);
    let mut cfg = quiet(2);
    cfg.monitor = MonitorConfig {
        live: true,
        events: Some(events.clone()),
        // Generous budget: armed, but must never fire here.
        stall_timeout: Some(Duration::from_secs(120)),
        interval: Some(Duration::from_millis(20)),
    };
    let monitored = spec.run(&cfg).unwrap();
    assert_eq!(monitored.progress.succeeded, 4);
    assert_eq!(
        merged_report_with_latency(&spec.name, &monitored),
        reference,
        "monitoring must be invisible in the merged report"
    );

    // The stream itself must be a well-formed, strictly-ordered record of
    // the run, ending in a terminal snapshot.
    let scan = scan_events(&events).unwrap();
    assert!(!scan.dropped_partial_tail);
    assert!(!scan.snapshots.is_empty());
    for pair in scan.snapshots.windows(2) {
        assert!(pair[0].seq < pair[1].seq, "seqs must strictly increase");
        assert!(pair[0].done <= pair[1].done, "done counts are monotonic");
        assert!(
            pair[0].sim_cycles <= pair[1].sim_cycles,
            "merged telemetry cycles are monotonic"
        );
    }
    assert_eq!(scan.snapshots[0].seq, 1, "fresh streams start at seq 1");
    let last = scan.snapshots.last().unwrap();
    assert_eq!(last.total, 4);
    assert_eq!(last.done, 4, "final snapshot must be terminal");
    assert_eq!(last.succeeded, 4);
    assert_eq!(last.stalled, 0, "the generous watchdog must not fire");
    assert!(
        last.sim_cycles > 0,
        "heartbeats must have reported simulated progress"
    );
    std::fs::remove_file(&events).unwrap();
}

/// Satellite (c): a sweep killed mid-run tears both the journal and the
/// events stream. `--resume` repairs the half-written events tail exactly
/// like the journal's, and the resumed run continues the stream with
/// fresh sequence numbers — no duplicates, no gap.
#[test]
fn killed_events_stream_repairs_and_resumes() {
    let spec = spec();
    let reference = merged_report_with_latency(&spec.name, &spec.run(&quiet(2)).unwrap());

    let journal = tmp("resume_journal");
    let events = tmp("resume_events");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&events);

    let mut cfg = quiet(2);
    cfg.journal = Some(journal.clone());
    cfg.monitor.events = Some(events.clone());
    cfg.monitor.interval = Some(Duration::from_millis(20));
    spec.run(&cfg).unwrap();

    // Simulate the kill: journal cut to two entries plus a half-written
    // line, events stream left with a torn trailing snapshot.
    let text = std::fs::read_to_string(&journal).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 4, "one journal line per job");
    let mut cut: String = lines[..2].join("\n");
    cut.push('\n');
    cut.push_str(&lines[2][..lines[2].len() / 2]);
    std::fs::write(&journal, cut).unwrap();

    let pre_kill = scan_events(&events).unwrap();
    let survivor_seq = pre_kill.last_seq;
    assert!(survivor_seq >= 1);
    let mut stream = std::fs::read_to_string(&events).unwrap();
    stream.push_str("{\"seq\":999,\"elapsed_ms\":12,\"tot");
    std::fs::write(&events, stream).unwrap();

    let mut cfg = quiet(3);
    cfg.resume = Some(journal.clone());
    cfg.monitor.events = Some(events.clone());
    cfg.monitor.interval = Some(Duration::from_millis(20));
    let resumed = spec.run(&cfg).unwrap();
    assert_eq!(resumed.progress.skipped, 2, "journaled jobs are skipped");
    assert_eq!(
        merged_report_with_latency(&spec.name, &resumed),
        reference,
        "resumed report must be byte-identical to an uninterrupted run"
    );

    let scan = scan_events(&events).unwrap();
    assert!(!scan.dropped_partial_tail, "the torn tail must be repaired");
    let seqs: Vec<u64> = scan.snapshots.iter().map(|s| s.seq).collect();
    for pair in seqs.windows(2) {
        assert!(pair[0] < pair[1], "no duplicate snapshots after resume");
    }
    assert!(
        seqs.contains(&survivor_seq) && seqs.contains(&(survivor_seq + 1)),
        "the resumed stream must continue numbering from the surviving \
         tail without a gap: {seqs:?}"
    );
    let last = scan.snapshots.last().unwrap();
    assert_eq!(last.done, 4, "resumed stream ends in a terminal snapshot");
    assert_eq!(last.skipped, 2);

    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&events).unwrap();
}

struct WdJob {
    id: String,
}

impl JobDesc for WdJob {
    fn id(&self) -> &str {
        &self.id
    }
}

/// Tentpole (watchdog): a running job whose simulated clock never
/// advances is cancelled within the host-time budget and recorded with
/// the stall diagnosis, while jobs that keep publishing progress — even
/// slow ones — finish untouched.
#[test]
fn watchdog_cancels_only_the_stalled_job() {
    let jobs = vec![
        WdJob {
            id: "wd/alive".into(),
        },
        WdJob {
            id: "wd/stall".into(),
        },
    ];
    let mut cfg = quiet(2);
    cfg.monitor.stall_timeout = Some(Duration::from_millis(300));
    cfg.monitor.interval = Some(Duration::from_millis(50));

    let started = Instant::now();
    let out = run_sweep(&cfg, &jobs, |job, ctx| {
        let probe = ctx.monitor.as_ref().expect("watchdog arms monitoring");
        if job.id.ends_with("stall") {
            // Hold the simulated clock at zero until a supervisor
            // intervenes — the shape of a deadlocked or livelocked model.
            let t0 = Instant::now();
            while !ctx.expired() {
                if t0.elapsed() > Duration::from_secs(30) {
                    return Err(SimError::Aborted("watchdog never fired within 30s".into()));
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            return Err(SimError::Aborted("simulated clock held".into()));
        }
        // Outlive several watchdog budgets, heartbeating all the while: a
        // slow-but-healthy job the watchdog must leave alone.
        for step in 1..=40u64 {
            probe.record(step * 1_000, step, 0);
            std::thread::sleep(Duration::from_millis(25));
        }
        Ok::<u64, SimError>(1)
    })
    .unwrap();

    let stalled = out.get("wd/stall").unwrap();
    let err = stalled.error.as_deref().unwrap();
    assert!(
        err.contains("stall watchdog"),
        "stall diagnosis missing from record: {err}"
    );
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "the watchdog, not the 30s escape hatch, must have ended the job"
    );

    let alive = out.get("wd/alive").unwrap();
    assert!(
        alive.is_ok(),
        "heartbeating job must not be flagged: {:?}",
        alive.error
    );
    assert_eq!(out.progress.failed, 1);
    assert_eq!(out.progress.succeeded, 1);
}

/// `SweepOutcome::progress` is the hub's final snapshot: a sweep with a
/// journal-resumed job, a retried job and a failed job reports the same
/// counters as the last `--events` record, and the same counters again
/// when nothing monitors the sweep.
#[test]
fn sweep_progress_is_the_final_events_record() {
    let jobs: Vec<WdJob> = ["p/resumed", "p/retried", "p/failed", "p/plain"]
        .into_iter()
        .map(|id| WdJob { id: id.into() })
        .collect();
    let exec = |job: &WdJob, ctx: &dg_runner::JobCtx| match job.id.as_str() {
        "p/retried" if ctx.attempt == 0 => Err(SimError::Deadline { budget: 1 }),
        "p/failed" => Err(SimError::Aborted("broken job".into())),
        _ => Ok::<u64, SimError>(ctx.seed),
    };

    let journal = tmp("progress_journal");
    let events = tmp("progress_events");
    let _ = std::fs::remove_file(&events);
    // A journal holding only `p/resumed`, fresh for each sweep below
    // (a resumed sweep appends to the journal it resumes).
    let seed_journal = || {
        let _ = std::fs::remove_file(&journal);
        let mut cfg = quiet(2);
        cfg.journal = Some(journal.clone());
        run_sweep(&cfg, &jobs[..1], exec).unwrap();
    };

    let counters = |s: &dg_mon::TelemetrySnapshot| {
        (s.total, s.done, s.succeeded, s.failed, s.skipped, s.retries)
    };
    seed_journal();
    let mut cfg = quiet(2);
    cfg.retries = 1;
    cfg.resume = Some(journal.clone());
    cfg.monitor.events = Some(events.clone());
    let monitored = run_sweep(&cfg, &jobs, exec).unwrap();
    let last = scan_events(&events).unwrap().snapshots.pop().unwrap();
    assert_eq!(counters(&monitored.progress), (4, 4, 2, 1, 1, 1));
    assert_eq!(counters(&monitored.progress), counters(&last));
    assert_eq!(monitored.progress.seq, last.seq);

    seed_journal();
    let mut cfg = quiet(2);
    cfg.retries = 1;
    cfg.resume = Some(journal.clone());
    let bare = run_sweep(&cfg, &jobs, exec).unwrap();
    assert_eq!(counters(&bare.progress), (4, 4, 2, 1, 1, 1));

    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&events).unwrap();
}
