//! The sweep orchestrator: scheduling, supervision, journaling, merging.
//!
//! [`run_sweep`] takes a deterministic job list and an executor and drives
//! it through the work-stealing pool with:
//!
//! * **panic isolation** — each attempt runs under `catch_unwind`, so one
//!   bad config point records a failure instead of killing the sweep;
//! * **bounded retry** — attempts that return [`SimError::Deadline`] are
//!   re-executed in place at once with an escalated cycle budget (see
//!   [`JobCtx::budget`]), up to `retries` extra attempts;
//! * **crash-safe journaling** — every terminal record is appended (and
//!   fsynced) to the journal before the sweep moves on, enabling
//!   `--resume`;
//! * **deterministic merging** — the [`SweepOutcome`] sorts records by job
//!   id, so the canonical merged report is byte-identical across worker
//!   counts and across interrupted-then-resumed runs.

use crate::job::{job_seed, JobCtx, JobDesc, JobRecord};
use crate::journal::{replay_journal, JournalEntry, JournalWriter};
use crate::pool::{effective_jobs, run_work_stealing};
use dg_fault::IoPlan;
use dg_mon::{
    log_error, log_warn, Dashboard, EventsWriter, MonitorConfig, MonitorHub, TelemetrySnapshot,
};
use dg_sim::error::SimError;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Supervision policy for a sweep.
#[derive(Debug, Clone)]
pub struct RunnerConfig {
    /// Worker threads (see [`effective_jobs`] for the default resolution).
    pub jobs: usize,
    /// Extra attempts granted to jobs that hit [`SimError::Deadline`].
    pub retries: u32,
    /// Cycle-budget multiplier applied per retry attempt.
    pub escalation: u64,
    /// Optional per-attempt wall-clock timeout. Cooperative: executors
    /// check [`JobCtx::expired`] between simulation chunks. Note that
    /// wall-clock kills are inherently host-dependent; canonical sweeps
    /// should bound work with cycle budgets instead.
    pub timeout: Option<Duration>,
    /// Journal path to append terminal records to.
    pub journal: Option<PathBuf>,
    /// Journal path to replay before running: jobs with a successful entry
    /// are skipped. Usually the same path as `journal`.
    pub resume: Option<PathBuf>,
    /// Whether to print per-job progress lines to stderr.
    pub verbose: bool,
    /// Live-telemetry options: dashboard, events stream, stall watchdog.
    pub monitor: MonitorConfig,
    /// Whether watchdog-cancelled (stalled) jobs are eligible for the
    /// same `retries` budget as deadline failures. Off by default: a
    /// stall is host-dependent, so canonical sweeps should not retry it
    /// silently — chaos sweeps opt in to prove the recovery path.
    pub retry_stalled: bool,
    /// Failure budget: the sweep exits successfully as long as at most
    /// this many jobs fail terminally (they are still reported and, when
    /// configured, quarantined).
    pub max_failures: u64,
    /// Directory for quarantine diagnostics bundles — one JSON file per
    /// terminally failed job (spec slice, seed, attempts, last heartbeat,
    /// repro command). `None` disables bundling.
    pub quarantine: Option<PathBuf>,
    /// Planned IO faults for the journal/events/report streams. The
    /// default unarmed plan is exact passthrough.
    pub fault_io: IoPlan,
    /// Command prefix (e.g. `dg-run spec.toml`) used to render the repro
    /// command inside quarantine bundles.
    pub repro_prefix: Option<String>,
}

impl Default for RunnerConfig {
    fn default() -> Self {
        Self {
            jobs: effective_jobs(None),
            retries: 2,
            escalation: 2,
            timeout: None,
            journal: None,
            resume: None,
            verbose: true,
            monitor: MonitorConfig::default(),
            retry_stalled: false,
            max_failures: 0,
            quarantine: None,
            fault_io: IoPlan::none(),
            repro_prefix: None,
        }
    }
}

/// Infrastructure health of a finished sweep, tracked *alongside* the
/// records rather than replacing them: IO failures degrade the run (and
/// its exit code) but never discard results that were computed in memory.
/// Everything here is host-dependent, so none of it appears in the
/// canonical merged report — it surfaces via logs and exit codes only.
#[derive(Debug, Clone, Default)]
pub struct SweepHealth {
    /// The journal hit a persistent write error mid-sweep and was flipped
    /// to in-memory degraded mode: completed results are preserved and
    /// merged, but crash-resume safety is lost from that point on.
    pub journal_degraded: bool,
    /// Human-readable descriptions of infrastructure IO failures
    /// (journal degradation, events-stream write errors, artifact write
    /// failures appended by the CLI).
    pub io_errors: Vec<String>,
    /// `(job id, bundle path)` for every quarantine bundle written.
    pub quarantined: Vec<(String, PathBuf)>,
    /// Terminally failed jobs whose diagnosis names the stall watchdog.
    pub stalled: u64,
    /// The failure budget the sweep ran under (`RunnerConfig::max_failures`).
    pub failure_budget: u64,
}

impl SweepHealth {
    /// Whether sweep infrastructure (journal, events, artifacts) failed,
    /// independent of job outcomes.
    pub fn infra_failed(&self) -> bool {
        self.journal_degraded || !self.io_errors.is_empty()
    }
}

/// The documented exit-code taxonomy for sweep binaries. Ordered by
/// precedence: infrastructure damage outranks job failures (the report
/// exists but its durability story is broken), and a within-budget sweep
/// is a success even with failed jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitClass {
    /// Every job succeeded, or failures stayed within `max_failures`.
    Success,
    /// Jobs failed beyond the failure budget (bad config points, panics).
    JobFailures,
    /// Sweep infrastructure failed: journal degraded, events stream or
    /// artifact writes errored. Results may be complete but durability /
    /// observability is compromised — rerun on a healthy disk.
    Infra,
    /// Over-budget failures dominated by stall-watchdog cancellations:
    /// the models livelocked rather than returning wrong answers.
    Stall,
}

impl ExitClass {
    /// The process exit code (2 is reserved for usage/spec errors,
    /// assigned by the CLI before a sweep ever runs).
    pub fn code(self) -> u8 {
        match self {
            ExitClass::Success => 0,
            ExitClass::JobFailures => 1,
            ExitClass::Infra => 3,
            ExitClass::Stall => 4,
        }
    }
}

/// The merged outcome of a sweep.
#[derive(Debug, Clone)]
pub struct SweepOutcome<R> {
    /// One terminal record per job, sorted by job id.
    pub records: Vec<JobRecord<R>>,
    /// The sweep's final telemetry snapshot: job counters (total, done,
    /// succeeded, failed, skipped, retries, stalled) plus display-only
    /// wall-clock fields. With `--events` it is the stream's last record.
    pub progress: TelemetrySnapshot,
    /// Infrastructure health (degraded journal, IO errors, quarantine).
    pub health: SweepHealth,
}

impl<R> SweepOutcome<R> {
    /// The records of jobs that failed.
    pub fn failures(&self) -> Vec<&JobRecord<R>> {
        self.records.iter().filter(|r| !r.is_ok()).collect()
    }

    /// Looks up a record by job id.
    pub fn get(&self, id: &str) -> Option<&JobRecord<R>> {
        self.records.iter().find(|r| r.id == id)
    }

    /// Iterates `(id, output)` over successful jobs.
    pub fn outputs(&self) -> impl Iterator<Item = (&str, &R)> {
        self.records
            .iter()
            .filter_map(|r| r.output.as_ref().map(|o| (r.id.as_str(), o)))
    }

    /// Classifies the finished sweep for the exit-code taxonomy (see
    /// [`ExitClass`]). Precedence: infrastructure damage first, then the
    /// failure budget, then stall-vs-plain-failure.
    pub fn exit_class(&self) -> ExitClass {
        if self.health.infra_failed() {
            return ExitClass::Infra;
        }
        let failures = self.records.iter().filter(|r| !r.is_ok()).count() as u64;
        if failures <= self.health.failure_budget {
            ExitClass::Success
        } else if self.health.stalled > 0 {
            ExitClass::Stall
        } else {
            ExitClass::JobFailures
        }
    }

    /// Prints failing job ids with their errors to stderr and reports
    /// whether the sweep fully succeeded. Harness binaries exit nonzero on
    /// `false` — results must never be dropped silently.
    pub fn report_failures(&self) -> bool {
        let failures = self.failures();
        if failures.is_empty() {
            return true;
        }
        log_error!(
            "{} of {} jobs failed",
            failures.len(),
            self.records.len();
            "failed" => failures.len(),
            "total" => self.records.len()
        );
        for f in &failures {
            log_error!(
                "  {} — {}",
                f.id,
                f.error.as_deref().unwrap_or("unknown error");
                "job" => f.id,
                "attempts" => f.attempts
            );
        }
        false
    }
}

impl<R: Serialize> SweepOutcome<R> {
    /// The canonical merged report: pretty JSON with records in job-id
    /// order and only deterministic fields. Byte-identical across worker
    /// counts and across kill/`--resume` cycles of the same spec.
    pub fn merged_report_json(&self, sweep_name: &str) -> String {
        let jobs = Value::Seq(self.records.iter().map(Serialize::to_value).collect());
        let doc = Value::Map(vec![
            ("sweep".to_string(), sweep_name.to_value()),
            ("jobs".to_string(), jobs),
        ]);
        serde_json::to_string_pretty(&doc).expect("merged report serialization is infallible")
    }
}

/// Runs `jobs` through the work-stealing pool under `cfg`, journaling
/// terminal records and merging resumed results.
///
/// The executor must be a pure function of `(job, ctx)` — all randomness
/// from `ctx.seed`, all work bounded by `ctx.budget(base)` — which is what
/// makes the merged outcome independent of `cfg.jobs`.
///
/// # Errors
///
/// Duplicate job ids, an unreadable resume journal, or failure to *open*
/// the journal/events files (a bad path should fail before hours of
/// simulation). A journal write failure mid-sweep is NOT an error: the
/// journal degrades to in-memory mode, completed results are kept and
/// merged, and the damage is surfaced through [`SweepOutcome::health`]
/// (and the [`ExitClass::Infra`] exit code) instead.
pub fn run_sweep<J, R, F>(cfg: &RunnerConfig, jobs: &[J], exec: F) -> io::Result<SweepOutcome<R>>
where
    J: JobDesc,
    R: Serialize + Deserialize + Send,
    F: Fn(&J, &JobCtx) -> Result<R, SimError> + Sync,
{
    let mut ids = BTreeSet::new();
    for job in jobs {
        if !ids.insert(job.id().to_string()) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("duplicate job id `{}` in sweep", job.id()),
            ));
        }
    }

    // Replay the resume journal: last entry per id wins, successful
    // entries short-circuit their job.
    let mut resumed: BTreeMap<String, JournalEntry<R>> = BTreeMap::new();
    if let Some(path) = &cfg.resume {
        let replay = replay_journal::<R>(path)?;
        if replay.dropped_partial_tail {
            // Cut the half-written line off before we append to this file
            // again; left in place it would sit mid-file and poison the
            // next resume.
            dg_fault::truncate_torn_tail(path, replay.valid_len)?;
        }
        for entry in replay.entries {
            resumed.insert(entry.id.clone(), entry);
        }
        // Entries for jobs not in this spec (stale journal reuse) are
        // ignored rather than merged into the report.
        resumed.retain(|id, e| ids.contains(id) && e.error.is_none());
    }

    let journal_path = cfg.journal.as_ref().or(cfg.resume.as_ref());
    let journal: Option<Mutex<JournalState>> = match journal_path {
        Some(path) => Some(Mutex::new(JournalState {
            writer: Some(JournalWriter::open_append_faulted(path, &cfg.fault_io)?),
            error: None,
        })),
        None => None,
    };

    let pending: Vec<usize> = (0..jobs.len())
        .filter(|&i| !resumed.contains_key(jobs[i].id()))
        .collect();

    // The hub keeps the sweep's job counters. When monitoring is enabled,
    // workers also heartbeat into it and a monitor thread samples it to
    // render the dashboard, append the events stream, and run the stall
    // watchdog. All of it is outside the executor's result path, so
    // enabling it cannot change the report.
    let ids: Vec<&str> = pending.iter().map(|&i| jobs[i].id()).collect();
    let hub = Arc::new(MonitorHub::new(
        cfg.jobs.max(1),
        jobs.len() as u64,
        &ids,
        resumed.len() as u64,
    ));
    let monitoring = Monitoring::start(cfg, &hub)?;
    // With the dashboard active, per-job progress lines would shear the
    // live region.
    let progress_lines = cfg.verbose && !cfg.monitor.live;

    let results: Mutex<Vec<JobRecord<R>>> = Mutex::new(Vec::with_capacity(pending.len()));
    let quarantined: Mutex<Vec<(String, PathBuf)>> = Mutex::new(Vec::new());
    let quarantine_errors: Mutex<Vec<String>> = Mutex::new(Vec::new());

    run_work_stealing(pending, cfg.jobs, |worker, job_idx| {
        let job = &jobs[job_idx];
        let id = job.id();
        let started = Instant::now();
        let mut attempt: u32 = 0;
        let mut last_probe = None;
        let (output, error) = loop {
            let probe = hub.begin_job(worker, id, attempt);
            let probe = monitoring.is_some().then_some(probe);
            last_probe.clone_from(&probe);
            let ctx = JobCtx {
                seed: job_seed(id),
                attempt,
                escalation: cfg.escalation,
                deadline: cfg.timeout.map(|t| Instant::now() + t),
                monitor: probe.clone(),
            };
            match catch_unwind(AssertUnwindSafe(|| exec(job, &ctx))) {
                Ok(Ok(r)) => break (Some(r), None),
                Ok(Err(e))
                    if attempt < cfg.retries
                        && retry_eligible(&e, cfg.retry_stalled, probe.as_ref()) =>
                {
                    if cfg.verbose {
                        log_warn!(
                            "retrying {id} after {e}";
                            "job" => id,
                            "attempt" => attempt + 2
                        );
                    }
                    hub.job_retrying(worker);
                    attempt += 1;
                }
                Ok(Err(e)) => {
                    // A watchdog cancellation surfaces as a generic abort;
                    // put the stall diagnosis back into the record.
                    let msg = match probe.as_ref().and_then(|p| p.cancel_reason()) {
                        Some(reason) => format!("{reason}: {e}"),
                        None => e.to_string(),
                    };
                    break (None, Some(msg));
                }
                Err(payload) => {
                    // `payload.as_ref()`, not `&payload`: the latter would
                    // unsize the Box itself into `dyn Any` and every
                    // downcast would miss.
                    break (
                        None,
                        Some(format!("panic: {}", panic_message(payload.as_ref()))),
                    );
                }
            }
        };

        let record = JobRecord {
            id: id.to_string(),
            attempts: attempt + 1,
            output,
            error,
        };
        hub.end_job(worker, record.is_ok(), started.elapsed().as_millis() as u64);
        if let (Some(err), Some(dir)) = (&record.error, &cfg.quarantine) {
            // Quarantine the job's diagnostics so the sweep can keep going
            // while a human (or a repro run) picks the failure apart later.
            match write_quarantine_bundle(
                dir,
                job,
                err,
                record.attempts,
                last_probe.as_ref(),
                cfg,
                started.elapsed().as_millis() as u64,
            ) {
                Ok(bundle) => {
                    log_warn!(
                        "quarantined {id}";
                        "job" => id,
                        "bundle" => bundle.display()
                    );
                    quarantined.lock().push((id.to_string(), bundle));
                }
                Err(e) => quarantine_errors
                    .lock()
                    .push(format!("quarantine bundle for {id}: {e}")),
            }
        }
        if let Some(journal) = &journal {
            let entry = JournalEntry {
                id: record.id.clone(),
                attempts: record.attempts,
                output: record.output.as_ref(),
                error: record.error.clone(),
                wall_ms: started.elapsed().as_millis() as u64,
            };
            let mut state = journal.lock();
            if let Some(w) = &mut state.writer {
                if let Err(e) = w.append(&entry) {
                    // Graceful degradation, not fail-fast: drop the writer
                    // (later completions stay in memory), record the damage,
                    // and let the sweep finish — losing resume safety must
                    // not also lose the results already computed.
                    log_error!(
                        "journal write failed — degrading to in-memory results \
                         (crash-resume safety lost from here on): {e}";
                        "job" => id
                    );
                    state.writer = None;
                    state.error = Some(e.to_string());
                }
            }
        }
        if progress_lines {
            print_progress_line(&hub.snapshot(), id, record.is_ok(), record.attempts);
        }
        results.lock().push(record);
    });

    let mut health = SweepHealth {
        failure_budget: cfg.max_failures,
        quarantined: quarantined.into_inner(),
        io_errors: quarantine_errors.into_inner(),
        ..SweepHealth::default()
    };

    let progress = match monitoring {
        Some(m) => {
            let (last, result) = m.finish(&hub);
            if let Err(e) = result {
                // Telemetry-plane IO failures degrade the run's health; they
                // never invalidate the computed records.
                health.io_errors.push(format!("events stream: {e}"));
            }
            last
        }
        None => hub.snapshot(),
    };

    if let Some(state) = journal {
        let state = state.into_inner();
        if let Some(e) = state.error {
            health.journal_degraded = true;
            health.io_errors.push(format!("journal: {e}"));
        }
    }

    let mut records = results.into_inner();
    records.extend(resumed.into_values().map(JournalEntry::into_record));
    records.sort_by(|a, b| a.id.cmp(&b.id));
    health.stalled = records
        .iter()
        .filter(|r| {
            r.error
                .as_deref()
                .is_some_and(|e| e.contains("stall watchdog"))
        })
        .count() as u64;

    Ok(SweepOutcome {
        records,
        progress,
        health,
    })
}

/// Prints the verbose `[done/total] id verdict  rate, eta` line for one
/// terminal job completion.
fn print_progress_line(snap: &TelemetrySnapshot, id: &str, ok: bool, attempts: u32) {
    let verdict = if ok { "ok" } else { "FAILED" };
    let retry_note = if attempts > 1 {
        format!(" (attempt {attempts})")
    } else {
        String::new()
    };
    let eta = snap.eta_ms.map_or_else(
        || "?".to_string(),
        |ms| format!("{:.0}s", ms as f64 / 1000.0),
    );
    eprintln!(
        "[{}/{}] {id} {verdict}{retry_note}  {:.2} jobs/s, eta {eta}",
        snap.done,
        snap.total,
        snap.jobs_per_sec()
    );
}

/// The journal write path of one sweep: present and healthy, or degraded
/// (writer dropped, first error kept) after a persistent IO failure.
struct JournalState {
    writer: Option<JournalWriter>,
    error: Option<String>,
}

/// Whether a failed attempt is eligible for the retry budget. Deadline
/// exhaustion always is (escalation gives the retry more headroom); a
/// supervisor abort is only when it was the *stall watchdog* and the
/// sweep opted in via `retry_stalled` — a fresh attempt genuinely clears
/// transient livelocks, but canonical sweeps want the diagnosis instead.
fn retry_eligible(
    e: &SimError,
    retry_stalled: bool,
    probe: Option<&dg_mon::ProgressProbe>,
) -> bool {
    match e {
        SimError::Deadline { .. } => true,
        SimError::Aborted(_) => {
            retry_stalled
                && probe
                    .and_then(|p| p.cancel_reason())
                    .is_some_and(|r| r.starts_with("stall watchdog"))
        }
        _ => false,
    }
}

/// Replaces every byte that is not `[A-Za-z0-9._-]` so a job id (which
/// uses `/` freely) becomes one flat file name.
fn quarantine_slug(id: &str) -> String {
    id.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// Writes one quarantine diagnostics bundle: everything needed to triage
/// and reproduce a terminally failed job without the original sweep —
/// the job manifest, its deterministic seed, the failure diagnosis, the
/// last heartbeat the monitoring plane saw, and a ready-to-paste repro
/// command.
fn write_quarantine_bundle<J: JobDesc>(
    dir: &Path,
    job: &J,
    error: &str,
    attempts: u32,
    probe: Option<&dg_mon::ProgressProbe>,
    cfg: &RunnerConfig,
    wall_ms: u64,
) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let id = job.id();
    let heartbeat = match probe {
        Some(p) => Value::Map(vec![
            ("sim_cycles".to_string(), p.sim_cycles().to_value()),
            ("supersteps".to_string(), p.supersteps().to_value()),
            ("skipped_cycles".to_string(), p.skipped_cycles().to_value()),
            ("cancelled".to_string(), p.cancelled().to_value()),
            ("cancel_reason".to_string(), p.cancel_reason().to_value()),
        ]),
        None => Value::Null,
    };
    let mut repro = format!(
        "{} --only '{id}' --retries {} --escalation {}",
        cfg.repro_prefix.as_deref().unwrap_or("dg-run <SPEC.toml>"),
        cfg.retries,
        cfg.escalation
    );
    // The watchdogs too, so a re-run of a cancelled job is bounded again.
    if let Some(stall) = cfg.monitor.stall_timeout {
        repro += &format!(" --stall-s {}", stall.as_secs_f64());
    }
    if let Some(timeout) = cfg.timeout {
        repro += &format!(" --timeout-s {}", timeout.as_secs());
    }
    let doc = Value::Map(vec![
        ("id".to_string(), id.to_value()),
        ("seed".to_string(), job_seed(id).to_value()),
        ("attempts".to_string(), attempts.to_value()),
        ("error".to_string(), error.to_value()),
        ("job".to_string(), job.manifest()),
        ("last_heartbeat".to_string(), heartbeat),
        ("repro".to_string(), repro.to_value()),
        ("wall_ms".to_string(), wall_ms.to_value()),
    ]);
    let json = serde_json::to_string_pretty(&doc)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
    let path = dir.join(format!("{}.json", quarantine_slug(id)));
    std::fs::write(&path, json)?;
    Ok(path)
}

/// The live-monitoring side plane of one sweep: the background thread
/// that samples the hub. Started only when [`MonitorConfig::enabled`];
/// everything here is observational — the executor's inputs and outputs
/// never depend on it.
struct Monitoring {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<(TelemetrySnapshot, io::Result<()>)>,
}

impl Monitoring {
    fn start(cfg: &RunnerConfig, hub: &Arc<MonitorHub>) -> io::Result<Option<Self>> {
        if !cfg.monitor.enabled() {
            return Ok(None);
        }

        // Open the events stream up front so a bad path fails the sweep
        // immediately instead of after hours of simulation. A resumed run
        // (same semantics as the journal) repairs a torn tail and
        // continues the sequence numbering.
        let events = match &cfg.monitor.events {
            Some(path) => {
                let (writer, repaired) =
                    EventsWriter::open_faulted(path, cfg.resume.is_some(), &cfg.fault_io)?;
                if repaired {
                    log_warn!(
                        "dropped partial trailing events line";
                        "events" => path.display()
                    );
                }
                Some(writer)
            }
            None => None,
        };
        let dashboard = cfg.monitor.live.then(Dashboard::new);

        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let hub = Arc::clone(hub);
            let stop = Arc::clone(&stop);
            let interval = cfg.monitor.interval();
            let stall = cfg.monitor.stall_timeout;
            std::thread::spawn(move || {
                monitor_loop(&hub, &stop, interval, stall, events, dashboard)
            })
        };

        Ok(Some(Monitoring { stop, thread }))
    }

    /// Stops the monitor thread, which emits one final snapshot so the
    /// events stream always ends in a terminal (`done == total`) record,
    /// and returns that snapshot with the stream's write result.
    fn finish(self, hub: &MonitorHub) -> (TelemetrySnapshot, io::Result<()>) {
        self.stop.store(true, Ordering::Release);
        self.thread.join().unwrap_or_else(|_| {
            (
                hub.snapshot(),
                Err(io::Error::other("monitor thread panicked")),
            )
        })
    }
}

/// The monitor thread body: sample → watchdog → render → stream, every
/// `interval`, plus one final sample after the pool drains, which it
/// returns.
fn monitor_loop(
    hub: &MonitorHub,
    stop: &AtomicBool,
    interval: Duration,
    stall: Option<Duration>,
    mut events: Option<EventsWriter>,
    mut dashboard: Option<Dashboard>,
) -> (TelemetrySnapshot, io::Result<()>) {
    let mut result = Ok(());
    let last = loop {
        let stopping = stop.load(Ordering::Acquire);
        if let Some(budget) = stall {
            for job in hub.watchdog_scan(budget) {
                log_warn!(
                    "stall watchdog cancelling {job}";
                    "job" => job,
                    "budget_s" => budget.as_secs_f64()
                );
            }
        }
        let mut snap = hub.snapshot();
        if let Some(w) = &mut events {
            // Keep sampling the dashboard on a write error, but surface
            // the first failure to the caller — a silently truncated
            // stream would look like a crashed run to consumers.
            if let Err(e) = w.append(&mut snap) {
                if result.is_ok() {
                    log_error!("events stream write failed: {e}");
                    result = Err(e);
                }
                events = None;
            }
        }
        if let Some(d) = &mut dashboard {
            d.render(&snap);
        }
        if stopping {
            break snap;
        }
        std::thread::sleep(interval);
    };
    if let Some(d) = &mut dashboard {
        d.finish();
    }
    (last, result)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TestJob {
        id: String,
        fail_below: u64,
    }

    impl JobDesc for TestJob {
        fn id(&self) -> &str {
            &self.id
        }
    }

    fn jobs(n: usize) -> Vec<TestJob> {
        (0..n)
            .map(|i| TestJob {
                id: format!("test/{i:02}"),
                fail_below: 0,
            })
            .collect()
    }

    fn quiet() -> RunnerConfig {
        RunnerConfig {
            verbose: false,
            ..RunnerConfig::default()
        }
    }

    #[test]
    fn all_jobs_run_and_merge_sorted() {
        let out = run_sweep(&quiet(), &jobs(9), |j, ctx| {
            Ok::<u64, SimError>(ctx.seed ^ j.fail_below)
        })
        .unwrap();
        assert_eq!(out.records.len(), 9);
        assert!(out.records.windows(2).all(|w| w[0].id < w[1].id));
        assert_eq!(out.progress.succeeded, 9);
        assert!(out.report_failures());
    }

    #[test]
    fn deadline_retries_with_escalated_budget() {
        // Fails while the escalated budget is below the job's need.
        let need = 400u64;
        let cfg = RunnerConfig {
            retries: 3,
            escalation: 4,
            ..quiet()
        };
        let out = run_sweep(&cfg, &jobs(1), |_, ctx| {
            let budget = ctx.budget(100);
            if budget < need {
                Err(SimError::Deadline { budget })
            } else {
                Ok(budget)
            }
        })
        .unwrap();
        let rec = &out.records[0];
        assert_eq!(rec.attempts, 2); // 100 then 400
        assert_eq!(rec.output, Some(400));
        assert_eq!(out.progress.retries, 1);
    }

    #[test]
    fn retries_are_bounded_and_failures_reported() {
        let cfg = RunnerConfig {
            retries: 1,
            escalation: 1,
            ..quiet()
        };
        let out = run_sweep(&cfg, &jobs(2), |j, _| {
            if j.id.ends_with('0') {
                Err::<u64, _>(SimError::Deadline { budget: 5 })
            } else {
                Ok(1)
            }
        })
        .unwrap();
        let failed = out.get("test/00").unwrap();
        assert_eq!(failed.attempts, 2);
        assert!(failed.error.as_deref().unwrap().contains("cycle budget"));
        assert!(!out.report_failures());
        assert_eq!(out.progress.failed, 1);
        assert_eq!(out.progress.succeeded, 1);
    }

    #[test]
    fn panics_are_isolated_per_job() {
        let out = run_sweep(&quiet(), &jobs(4), |j, _| {
            if j.id == "test/02" {
                panic!("bad config point");
            }
            Ok::<u64, SimError>(1)
        })
        .unwrap();
        let rec = out.get("test/02").unwrap();
        assert_eq!(rec.error.as_deref(), Some("panic: bad config point"));
        assert_eq!(out.failures().len(), 1);
        assert_eq!(out.outputs().count(), 3);
    }

    #[test]
    fn duplicate_ids_rejected() {
        let dup = vec![
            TestJob {
                id: "same".into(),
                fail_below: 0,
            },
            TestJob {
                id: "same".into(),
                fail_below: 0,
            },
        ];
        let err = run_sweep(&quiet(), &dup, |_, _| Ok::<u64, SimError>(1)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
    }

    #[test]
    fn merged_report_is_worker_count_independent() {
        let exec =
            |j: &TestJob, ctx: &JobCtx| Ok::<u64, SimError>(ctx.seed.wrapping_add(j.fail_below));
        let jobs = jobs(16);
        let mut reports = Vec::new();
        for workers in [1, 4] {
            let cfg = RunnerConfig {
                jobs: workers,
                ..quiet()
            };
            let out = run_sweep(&cfg, &jobs, exec).unwrap();
            reports.push(out.merged_report_json("unit"));
        }
        assert_eq!(reports[0], reports[1]);
    }
}
