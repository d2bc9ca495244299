//! Job identity, per-attempt context, and terminal job records.
//!
//! Every schedulable unit of a sweep is identified by a *stable job id* —
//! a human-readable string that is a pure function of the experiment spec,
//! independent of worker count, scheduling order, and resume history. The
//! id is the anchor for everything downstream: the journal keys on it,
//! resume skips by it, the merged report sorts by it, and each job's RNG
//! seed is derived from it ([`job_seed`]), so results cannot depend on
//! which worker thread happens to execute the job.

use serde::{DeError, Deserialize, Serialize, Value};
use std::time::Instant;

/// A schedulable unit of work with a stable identity.
pub trait JobDesc: Send + Sync {
    /// The stable job id. Must be unique within a sweep and a pure
    /// function of the experiment parameters (never of scheduling state).
    fn id(&self) -> &str;

    /// A JSON description of the job's parameters, embedded in quarantine
    /// diagnostics bundles so a failed job can be reproduced without the
    /// original spec file. The default carries only the id; jobs with
    /// richer parameters should override it.
    fn manifest(&self) -> Value {
        Value::Map(vec![("id".to_string(), self.id().to_value())])
    }
}

/// Derives a job's deterministic RNG seed from its stable id.
///
/// FNV-1a over the id bytes, finished with a SplitMix64 mix so ids that
/// share long prefixes (common in grid expansions) still land far apart.
/// Workers must draw all job-local randomness from this seed — never from
/// thread identity or execution order — which is what makes a sweep's
/// results independent of `--jobs`.
pub fn job_seed(id: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in id.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    // SplitMix64 finalizer.
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The defense segment of a sweep job id (`{sweep}/{point}/{defense}`),
/// the key the per-defense leaderboards group by.
pub(crate) fn defense_of(id: &str) -> &str {
    id.rsplit('/').next().unwrap_or(id)
}

/// The cycle budget for a given retry attempt: `base * escalation^attempt`,
/// saturating. Escalation keeps retries meaningful — a job that hit
/// `SimError::Deadline` at the base budget reruns with more headroom
/// instead of deterministically failing again.
pub fn attempt_budget(base: u64, escalation: u64, attempt: u32) -> u64 {
    let mut budget = u128::from(base);
    for _ in 0..attempt {
        budget = budget.saturating_mul(u128::from(escalation.max(1)));
        if budget > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    budget as u64
}

/// Per-attempt execution context handed to the job executor.
#[derive(Debug, Clone, Default)]
pub struct JobCtx {
    /// Deterministic RNG seed derived from the job id via [`job_seed`].
    pub seed: u64,
    /// Zero-based attempt number (0 = first try).
    pub attempt: u32,
    /// Cycle-budget escalation factor applied per retry.
    pub escalation: u64,
    /// Wall-clock deadline for this attempt, if a timeout is configured.
    pub deadline: Option<Instant>,
    /// Live-progress heartbeat for this attempt, when the sweep is
    /// monitored. Executors publish simulated-clock progress into it and
    /// poll it (via [`JobCtx::expired`]) for watchdog cancellation.
    pub monitor: Option<dg_mon::ProgressProbe>,
}

impl JobCtx {
    /// Whether this attempt should stop: its wall-clock deadline passed,
    /// or the stall watchdog cancelled it.
    pub fn expired(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
            || self.monitor.as_ref().is_some_and(|p| p.cancelled())
    }

    /// This attempt's cycle budget, escalated from the job's base budget.
    pub fn budget(&self, base: u64) -> u64 {
        attempt_budget(base, self.escalation, self.attempt)
    }
}

/// Terminal outcome of one job: exactly one of `output` / `error` is set.
///
/// This is the unit of the canonical merged report, so it carries only
/// deterministic data — no wall-clock timings (those live in the journal's
/// [`JournalEntry`](crate::journal::JournalEntry) wrapper).
#[derive(Debug, Clone, PartialEq)]
pub struct JobRecord<R> {
    /// The stable job id.
    pub id: String,
    /// Attempts consumed (1 = succeeded or failed on the first try).
    pub attempts: u32,
    /// The job's result when it succeeded.
    pub output: Option<R>,
    /// The failure message when it did not (`SimError` display or a panic
    /// message).
    pub error: Option<String>,
}

impl<R> JobRecord<R> {
    /// Whether the job completed successfully.
    pub fn is_ok(&self) -> bool {
        self.error.is_none()
    }
}

// The vendored serde derive does not handle generic items; impls are
// written out by hand.
impl<R: Serialize> Serialize for JobRecord<R> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("id".to_string(), self.id.to_value()),
            ("attempts".to_string(), self.attempts.to_value()),
            ("output".to_string(), self.output.to_value()),
            ("error".to_string(), self.error.to_value()),
        ])
    }
}

impl<R: Deserialize> Deserialize for JobRecord<R> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::custom("expected object for JobRecord"))?;
        Ok(JobRecord {
            id: Deserialize::from_value(serde::field(m, "id")?)?,
            attempts: Deserialize::from_value(serde::field(m, "attempts")?)?,
            output: Deserialize::from_value(serde::field(m, "output")?)?,
            error: Deserialize::from_value(serde::field(m, "error")?)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_is_stable_and_id_sensitive() {
        assert_eq!(job_seed("fig9/lbm"), job_seed("fig9/lbm"));
        assert_ne!(job_seed("fig9/lbm"), job_seed("fig9/mcf"));
        // Long shared prefixes still diverge.
        assert_ne!(
            job_seed("sweep/a/insecure/s0"),
            job_seed("sweep/a/insecure/s1")
        );
    }

    #[test]
    fn budgets_escalate_and_saturate() {
        assert_eq!(attempt_budget(100, 2, 0), 100);
        assert_eq!(attempt_budget(100, 2, 3), 800);
        assert_eq!(attempt_budget(100, 1, 7), 100);
        assert_eq!(attempt_budget(u64::MAX / 2, 4, 2), u64::MAX);
    }

    #[test]
    fn ctx_budget_uses_attempt() {
        let ctx = JobCtx {
            seed: 1,
            attempt: 2,
            escalation: 10,
            ..JobCtx::default()
        };
        assert_eq!(ctx.budget(5), 500);
        assert!(!ctx.expired());
    }

    #[test]
    fn watchdog_cancel_expires_ctx() {
        let probe = dg_mon::ProgressProbe::new();
        let ctx = JobCtx {
            monitor: Some(probe.clone()),
            ..JobCtx::default()
        };
        assert!(!ctx.expired());
        probe.cancel("stall watchdog: test");
        assert!(ctx.expired());
    }

    #[test]
    fn record_round_trips() {
        let rec = JobRecord::<u64> {
            id: "a/b".into(),
            attempts: 2,
            output: Some(7),
            error: None,
        };
        let json = serde_json::to_string(&rec).unwrap();
        let back: JobRecord<u64> = serde_json::from_str(&json).unwrap();
        assert_eq!(back, rec);
        assert!(back.is_ok());
    }
}
