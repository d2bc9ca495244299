//! Serializable telemetry snapshots.
//!
//! One [`TelemetrySnapshot`] is the unit both the `--live` dashboard
//! renders and the `--events` JSONL stream appends: a monotonic fold of
//! every worker heartbeat plus the sweep-level counters. Field values are
//! cumulative for the whole run (including progress banked by completed
//! jobs), so consumers can difference any two snapshots without replaying
//! the ones between.

use serde::{Deserialize, Serialize};

/// Per-defense (job-id tail segment) completion progress.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupProgress {
    pub name: String,
    /// Jobs planned for this group in the executing (non-resumed) set.
    pub total: u64,
    /// Jobs of this group that reached a terminal state this run.
    pub done: u64,
}

/// One pool worker's live state at snapshot time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSnapshot {
    pub worker: u64,
    /// `idle`, `running`, or `retrying` (see `JobState::label`).
    pub state: String,
    pub job: Option<String>,
    pub attempt: u32,
    /// Simulated cycles advanced by the current attempt.
    pub sim_cycles: u64,
    /// Supersteps completed by the current attempt (sharded jobs only).
    pub supersteps: u64,
    /// Simulated cycles skipped via quiescence warps by the current attempt.
    pub skipped_cycles: u64,
    /// Host milliseconds this worker has spent on the current job.
    pub busy_ms: u64,
}

/// A monotonic point-in-time view of a sweep.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySnapshot {
    /// Stream sequence number, assigned by the events writer (strictly
    /// increasing across a resume; 0 until stamped).
    pub seq: u64,
    /// Host milliseconds since the sweep started.
    pub elapsed_ms: u64,
    /// Total jobs in the sweep (including resumed ones).
    pub total: u64,
    /// Jobs in a terminal state: succeeded + failed + skipped.
    pub done: u64,
    pub succeeded: u64,
    pub failed: u64,
    /// Jobs satisfied from a resumed journal without re-execution.
    pub skipped: u64,
    /// Retry attempts issued so far.
    pub retries: u64,
    /// Jobs the stall watchdog has cancelled so far.
    pub stalled: u64,
    /// Simulated cycles advanced across all jobs (banked + live).
    pub sim_cycles: u64,
    /// Supersteps completed across all sharded jobs (banked + live).
    pub supersteps: u64,
    /// Simulated cycles skipped via quiescence warps (banked + live).
    pub skipped_cycles: u64,
    /// Trailing-window aggregate throughput, in simulated Mcycles per
    /// host second.
    pub mcycles_per_sec: f64,
    /// Estimated host milliseconds to completion (median completed-job
    /// wall time × remaining / workers); absent until a job completes.
    pub eta_ms: Option<u64>,
    pub groups: Vec<GroupProgress>,
    pub workers: Vec<WorkerSnapshot>,
}

impl TelemetrySnapshot {
    /// Jobs executed this run (succeeded + failed; resumed ones excluded)
    /// per host second, or 0.0 before any time has passed.
    pub fn jobs_per_sec(&self) -> f64 {
        if self.elapsed_ms == 0 {
            0.0
        } else {
            (self.succeeded + self.failed) as f64 * 1000.0 / self.elapsed_ms as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TelemetrySnapshot {
        TelemetrySnapshot {
            seq: 7,
            elapsed_ms: 1234,
            total: 4,
            done: 2,
            succeeded: 1,
            failed: 0,
            skipped: 1,
            retries: 1,
            stalled: 0,
            sim_cycles: 80_000_000,
            supersteps: 12,
            skipped_cycles: 5_000_000,
            mcycles_per_sec: 64.5,
            eta_ms: Some(900),
            groups: vec![GroupProgress {
                name: "dagguise".to_string(),
                total: 2,
                done: 1,
            }],
            workers: vec![WorkerSnapshot {
                worker: 0,
                state: "running".to_string(),
                job: Some("smoke/lbm-s1+bursty/dagguise".to_string()),
                attempt: 1,
                sim_cycles: 40_000_000,
                supersteps: 6,
                skipped_cycles: 0,
                busy_ms: 300,
            }],
        }
    }

    #[test]
    fn snapshot_roundtrips_through_json() {
        let snap = sample();
        let text = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn none_eta_roundtrips() {
        let mut snap = sample();
        snap.eta_ms = None;
        let text = serde_json::to_string(&snap).unwrap();
        let back: TelemetrySnapshot = serde_json::from_str(&text).unwrap();
        assert_eq!(back.eta_ms, None);
    }
}
