//! Worker heartbeats and the monitor hub.
//!
//! Each running job holds a [`ProgressProbe`]: a handful of relaxed
//! atomics the simulation loop bumps from inside its hot path (per
//! supervision chunk / per superstep), so publishing progress costs a few
//! `fetch_max` instructions and no locks. The [`MonitorHub`] owns one slot
//! per pool worker; the monitor thread samples the slots periodically,
//! folds them into a monotonic [`TelemetrySnapshot`](crate::TelemetrySnapshot),
//! and runs the stall watchdog over the same stamps.
//!
//! The probe doubles as the watchdog's escalation path: `cancel(reason)`
//! flips a flag the job's existing supervision check
//! (`JobCtx::expired`-style) already polls, so a stalled job aborts
//! through the same machinery as a deadline overrun.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::telemetry::{GroupProgress, TelemetrySnapshot, WorkerSnapshot};

/// Shared interior of a [`ProgressProbe`].
#[derive(Debug, Default)]
struct ProbeShared {
    sim_cycles: AtomicU64,
    supersteps: AtomicU64,
    skipped_cycles: AtomicU64,
    cancelled: AtomicBool,
    reason: Mutex<Option<String>>,
}

/// Lock-light progress channel between one running job and the monitor.
///
/// Clones share state. All counters are monotonic: [`record`]
/// (ProgressProbe::record) uses `fetch_max`, so late or out-of-order
/// publishes (e.g. from shard workers racing the coordinator) can never
/// move a value backwards.
#[derive(Debug, Clone, Default)]
pub struct ProgressProbe {
    shared: Arc<ProbeShared>,
}

impl ProgressProbe {
    pub fn new() -> Self {
        Self::default()
    }

    /// Publishes progress from inside the simulation loop. Values are
    /// absolute (current simulated cycle, supersteps completed so far,
    /// cycles skipped via quiescence warps so far), not deltas.
    pub fn record(&self, sim_cycles: u64, supersteps: u64, skipped_cycles: u64) {
        self.shared
            .sim_cycles
            .fetch_max(sim_cycles, Ordering::Relaxed);
        self.shared
            .supersteps
            .fetch_max(supersteps, Ordering::Relaxed);
        self.shared
            .skipped_cycles
            .fetch_max(skipped_cycles, Ordering::Relaxed);
    }

    pub fn sim_cycles(&self) -> u64 {
        self.shared.sim_cycles.load(Ordering::Relaxed)
    }

    pub fn supersteps(&self) -> u64 {
        self.shared.supersteps.load(Ordering::Relaxed)
    }

    pub fn skipped_cycles(&self) -> u64 {
        self.shared.skipped_cycles.load(Ordering::Relaxed)
    }

    /// A single value that changes iff the simulated clock made progress —
    /// what the watchdog compares between scans.
    pub fn progress_stamp(&self) -> u64 {
        self.sim_cycles().wrapping_add(self.supersteps())
    }

    /// Asks the owning job to abort. The first reason wins; later calls
    /// are ignored so the cause reported upward is the original one.
    pub fn cancel(&self, reason: &str) {
        let mut slot = self.shared.reason.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(reason.to_string());
        }
        drop(slot);
        self.shared.cancelled.store(true, Ordering::Release);
    }

    /// Polled by the job's supervision loop (cheap: one atomic load).
    pub fn cancelled(&self) -> bool {
        self.shared.cancelled.load(Ordering::Acquire)
    }

    pub fn cancel_reason(&self) -> Option<String> {
        self.shared
            .reason
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }
}

/// What a pool worker is doing right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// No job assigned (between steals, or the queue drained).
    Idle,
    /// Executing an attempt.
    Running,
    /// Between a failed attempt and its backoff-delayed retry.
    Retrying,
}

impl JobState {
    pub fn label(self) -> &'static str {
        match self {
            JobState::Idle => "idle",
            JobState::Running => "running",
            JobState::Retrying => "retrying",
        }
    }
}

/// Per-worker slot the monitor thread samples. Touched under its own
/// mutex only at job boundaries and monitor ticks, never in the sim loop.
#[derive(Debug)]
struct Slot {
    state: JobState,
    job: Option<String>,
    attempt: u32,
    probe: Option<ProgressProbe>,
    started: Option<Instant>,
    /// Last progress stamp the watchdog observed, and when it changed.
    watch_stamp: u64,
    watch_since: Option<Instant>,
}

impl Slot {
    fn idle() -> Self {
        Slot {
            state: JobState::Idle,
            job: None,
            attempt: 0,
            probe: None,
            started: None,
            watch_stamp: 0,
            watch_since: None,
        }
    }
}

/// Smoothed throughput state: the previous sample the rate is computed
/// against, plus the last rate carried between too-close samples.
#[derive(Debug)]
struct RateState {
    at: Instant,
    cycles: u64,
    rate: f64,
}

/// Central aggregation point for one sweep: per-worker slots, terminal
/// counters, and completed-job accumulators. Shared between the pool
/// workers (job boundaries), the monitor thread (samples), and the
/// supervision loops (via the probes it hands out).
pub struct MonitorHub {
    total: u64,
    workers: usize,
    started: Instant,
    succeeded: AtomicU64,
    failed: AtomicU64,
    skipped: AtomicU64,
    retries: AtomicU64,
    stalled: AtomicU64,
    /// Progress already banked by finished jobs; live slots add on top.
    done_cycles: AtomicU64,
    done_supersteps: AtomicU64,
    done_skipped_cycles: AtomicU64,
    /// Wall-clock of completed jobs, for the ETA median.
    wall_ms: Mutex<Vec<u64>>,
    /// Per-defense (last job-id segment) totals: (planned, finished).
    groups: Mutex<BTreeMap<String, (u64, u64)>>,
    slots: Vec<Mutex<Slot>>,
    rate: Mutex<RateState>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The per-defense grouping key: the final `/`-separated segment of a job
/// id (`smoke/lbm-s1+bursty/dagguise` → `dagguise`).
fn group_of(id: &str) -> &str {
    id.rsplit('/').next().unwrap_or(id)
}

impl MonitorHub {
    /// `pending` are the job ids this run will actually execute; `skipped`
    /// counts jobs satisfied from a resumed journal (they count as done in
    /// the totals but contribute no progress or ETA signal).
    pub fn new(workers: usize, total: u64, pending: &[&str], skipped: u64) -> Self {
        let mut groups: BTreeMap<String, (u64, u64)> = BTreeMap::new();
        for id in pending {
            groups.entry(group_of(id).to_string()).or_default().0 += 1;
        }
        MonitorHub {
            total,
            workers,
            started: Instant::now(),
            succeeded: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            skipped: AtomicU64::new(skipped),
            retries: AtomicU64::new(0),
            stalled: AtomicU64::new(0),
            done_cycles: AtomicU64::new(0),
            done_supersteps: AtomicU64::new(0),
            done_skipped_cycles: AtomicU64::new(0),
            wall_ms: Mutex::new(Vec::new()),
            groups: Mutex::new(groups),
            slots: (0..workers.max(1))
                .map(|_| Mutex::new(Slot::idle()))
                .collect(),
            rate: Mutex::new(RateState {
                at: Instant::now(),
                cycles: 0,
                rate: 0.0,
            }),
        }
    }

    /// Marks `worker` as running an attempt of `job` and returns the fresh
    /// probe its simulation loop should publish into. Each attempt gets a
    /// new probe so a retry restarts the watchdog clock from zero.
    pub fn begin_job(&self, worker: usize, job: &str, attempt: u32) -> ProgressProbe {
        let probe = ProgressProbe::new();
        let mut slot = lock(&self.slots[worker % self.slots.len()]);
        slot.state = JobState::Running;
        slot.job = Some(job.to_string());
        slot.attempt = attempt;
        slot.probe = Some(probe.clone());
        if slot.started.is_none() {
            slot.started = Some(Instant::now());
        }
        slot.watch_stamp = 0;
        slot.watch_since = Some(Instant::now());
        probe
    }

    /// Marks `worker` as waiting out a retry backoff.
    pub fn job_retrying(&self, worker: usize) {
        self.retries.fetch_add(1, Ordering::Relaxed);
        let mut slot = lock(&self.slots[worker % self.slots.len()]);
        slot.state = JobState::Retrying;
        slot.probe = None;
        slot.watch_since = None;
    }

    /// Retires `worker`'s job: banks its progress into the done
    /// accumulators and frees the slot.
    pub fn end_job(&self, worker: usize, ok: bool, wall_ms: u64) {
        let mut slot = lock(&self.slots[worker % self.slots.len()]);
        if let Some(probe) = slot.probe.take() {
            self.done_cycles
                .fetch_add(probe.sim_cycles(), Ordering::Relaxed);
            self.done_supersteps
                .fetch_add(probe.supersteps(), Ordering::Relaxed);
            self.done_skipped_cycles
                .fetch_add(probe.skipped_cycles(), Ordering::Relaxed);
        }
        let group = slot.job.as_deref().map(group_of).map(str::to_string);
        *slot = Slot::idle();
        drop(slot);
        if ok {
            self.succeeded.fetch_add(1, Ordering::Relaxed);
        } else {
            self.failed.fetch_add(1, Ordering::Relaxed);
        }
        lock(&self.wall_ms).push(wall_ms);
        if let Some(g) = group {
            if let Some(entry) = lock(&self.groups).get_mut(&g) {
                entry.1 += 1;
            }
        }
    }

    /// Folds the current slot states into one snapshot. Sequence numbers
    /// are assigned by the events writer, not here, so resumed runs can
    /// continue a stream without duplicating them.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut sim_cycles = self.done_cycles.load(Ordering::Relaxed);
        let mut supersteps = self.done_supersteps.load(Ordering::Relaxed);
        let mut skipped_cycles = self.done_skipped_cycles.load(Ordering::Relaxed);
        let mut workers = Vec::with_capacity(self.slots.len());
        for (i, s) in self.slots.iter().enumerate() {
            let slot = lock(s);
            let (c, ss, sk) = slot
                .probe
                .as_ref()
                .map(|p| (p.sim_cycles(), p.supersteps(), p.skipped_cycles()))
                .unwrap_or((0, 0, 0));
            sim_cycles += c;
            supersteps += ss;
            skipped_cycles += sk;
            workers.push(WorkerSnapshot {
                worker: i as u64,
                state: slot.state.label().to_string(),
                job: slot.job.clone(),
                attempt: slot.attempt,
                sim_cycles: c,
                supersteps: ss,
                skipped_cycles: sk,
                busy_ms: slot
                    .started
                    .map(|t| t.elapsed().as_millis() as u64)
                    .unwrap_or(0),
            });
        }

        let succeeded = self.succeeded.load(Ordering::Relaxed);
        let failed = self.failed.load(Ordering::Relaxed);
        let skipped = self.skipped.load(Ordering::Relaxed);
        let done = succeeded + failed + skipped;

        // Trailing-window throughput: only advance the anchor when enough
        // wall time has passed for the delta to mean something.
        let mut rate = lock(&self.rate);
        let dt = rate.at.elapsed().as_secs_f64();
        if dt >= 0.2 {
            let delta = sim_cycles.saturating_sub(rate.cycles) as f64;
            rate.rate = delta / dt / 1e6;
            rate.at = Instant::now();
            rate.cycles = sim_cycles;
        }
        let mcycles_per_sec = rate.rate;
        drop(rate);

        // ETA: median completed-job wall time × remaining jobs / workers.
        let eta_ms = {
            let mut walls = lock(&self.wall_ms).clone();
            let remaining = self.total.saturating_sub(done);
            if walls.is_empty() || remaining == 0 {
                None
            } else {
                walls.sort_unstable();
                let median = walls[walls.len() / 2];
                Some(median * remaining / self.workers.max(1) as u64)
            }
        };

        let groups = lock(&self.groups)
            .iter()
            .map(|(name, &(planned, finished))| GroupProgress {
                name: name.clone(),
                total: planned,
                done: finished,
            })
            .collect();

        TelemetrySnapshot {
            seq: 0,
            elapsed_ms: self.started.elapsed().as_millis() as u64,
            total: self.total,
            done,
            succeeded,
            failed,
            skipped,
            retries: self.retries.load(Ordering::Relaxed),
            stalled: self.stalled.load(Ordering::Relaxed),
            sim_cycles,
            supersteps,
            skipped_cycles,
            mcycles_per_sec,
            eta_ms,
            groups,
            workers,
        }
    }

    /// The stall watchdog: cancels any running job whose simulated clock
    /// has not advanced for longer than `budget`, returning the flagged
    /// job ids. Cancellation rides the probe's abort flag, so the job
    /// unwinds through the normal supervision error path.
    pub fn watchdog_scan(&self, budget: Duration) -> Vec<String> {
        let mut flagged = Vec::new();
        for s in &self.slots {
            let mut slot = lock(s);
            if slot.state != JobState::Running {
                continue;
            }
            let Some(probe) = slot.probe.clone() else {
                continue;
            };
            let stamp = probe.progress_stamp();
            if stamp != slot.watch_stamp || slot.watch_since.is_none() {
                slot.watch_stamp = stamp;
                slot.watch_since = Some(Instant::now());
                continue;
            }
            let stuck = slot.watch_since.map(|t| t.elapsed()).unwrap_or_default();
            if stuck >= budget && !probe.cancelled() {
                probe.cancel(&format!(
                    "stall watchdog: simulated clock stalled for {:.1}s (budget {:.1}s)",
                    stuck.as_secs_f64(),
                    budget.as_secs_f64()
                ));
                self.stalled.fetch_add(1, Ordering::Relaxed);
                if let Some(job) = &slot.job {
                    flagged.push(job.clone());
                }
            }
        }
        flagged
    }

    pub fn stalled(&self) -> u64 {
        self.stalled.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_counters_are_monotonic() {
        let p = ProgressProbe::new();
        p.record(100, 2, 10);
        p.record(50, 1, 5); // stale publish must not regress
        assert_eq!(p.sim_cycles(), 100);
        assert_eq!(p.supersteps(), 2);
        assert_eq!(p.skipped_cycles(), 10);
        p.record(200, 2, 10);
        assert_eq!(p.progress_stamp(), 202);
    }

    #[test]
    fn probe_cancel_first_reason_wins() {
        let p = ProgressProbe::new();
        assert!(!p.cancelled());
        assert_eq!(p.cancel_reason(), None);
        p.cancel("first");
        p.cancel("second");
        assert!(p.cancelled());
        assert_eq!(p.cancel_reason().as_deref(), Some("first"));
        // Clones observe the same state.
        assert!(p.clone().cancelled());
    }

    #[test]
    fn hub_banks_progress_and_groups() {
        let hub = MonitorHub::new(2, 3, &["s/a/insecure", "s/b/insecure", "s/a/dagguise"], 0);
        let p = hub.begin_job(0, "s/a/insecure", 0);
        p.record(1_000_000, 0, 0);
        let snap = hub.snapshot();
        assert_eq!(snap.total, 3);
        assert_eq!(snap.done, 0);
        assert_eq!(snap.sim_cycles, 1_000_000);
        assert_eq!(snap.workers.len(), 2);
        assert_eq!(snap.workers[0].state, "running");
        assert_eq!(snap.workers[0].job.as_deref(), Some("s/a/insecure"));

        hub.end_job(0, true, 12);
        let snap = hub.snapshot();
        assert_eq!(snap.done, 1);
        assert_eq!(snap.succeeded, 1);
        // Banked progress survives the slot being freed.
        assert_eq!(snap.sim_cycles, 1_000_000);
        assert_eq!(snap.workers[0].state, "idle");
        let insecure = snap.groups.iter().find(|g| g.name == "insecure").unwrap();
        assert_eq!((insecure.total, insecure.done), (2, 1));
        let dagguise = snap.groups.iter().find(|g| g.name == "dagguise").unwrap();
        assert_eq!((dagguise.total, dagguise.done), (1, 0));
        assert!(snap.eta_ms.is_some());
    }

    #[test]
    fn hub_counts_resumed_jobs_as_done() {
        let hub = MonitorHub::new(1, 4, &["s/a/x", "s/b/x"], 2);
        let snap = hub.snapshot();
        assert_eq!(snap.done, 2);
        assert_eq!(snap.skipped, 2);
    }

    #[test]
    fn watchdog_flags_only_stalled_jobs() {
        let hub = MonitorHub::new(2, 2, &["s/a/x", "s/b/x"], 0);
        let stalled = hub.begin_job(0, "s/a/x", 0);
        let alive = hub.begin_job(1, "s/b/x", 0);

        // Within budget: nothing is flagged.
        assert!(hub.watchdog_scan(Duration::from_secs(60)).is_empty());

        // The live job advances; the stalled one does not.
        alive.record(10, 0, 0);
        std::thread::sleep(Duration::from_millis(20));
        let flagged = hub.watchdog_scan(Duration::from_millis(10));
        assert_eq!(flagged, vec!["s/a/x".to_string()]);
        assert!(stalled.cancelled());
        assert!(stalled.cancel_reason().unwrap().contains("stall watchdog"));
        assert!(!alive.cancelled());
        assert_eq!(hub.stalled(), 1);

        // Already-cancelled jobs are not flagged twice (the live job
        // keeps advancing, so it stays unflagged too).
        alive.record(20, 0, 0);
        std::thread::sleep(Duration::from_millis(20));
        alive.record(30, 0, 0);
        assert!(hub.watchdog_scan(Duration::from_millis(10)).is_empty());
        assert_eq!(hub.stalled(), 1);
    }

    #[test]
    fn retrying_state_visible_in_snapshot() {
        let hub = MonitorHub::new(1, 1, &["s/a/x"], 0);
        hub.begin_job(0, "s/a/x", 0);
        hub.job_retrying(0);
        let snap = hub.snapshot();
        assert_eq!(snap.retries, 1);
        assert_eq!(snap.workers[0].state, "retrying");
        // A fresh attempt resets the probe and watchdog clock.
        let p2 = hub.begin_job(0, "s/a/x", 1);
        assert_eq!(p2.sim_cycles(), 0);
        assert_eq!(snap.workers[0].attempt, 0);
    }
}
