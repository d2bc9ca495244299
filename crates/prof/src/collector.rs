//! Process-global profile collector.
//!
//! Sweep jobs run on worker threads and their outputs must stay pure
//! functions of `(id, params)` — host-time profiles are nondeterministic,
//! so they cannot ride inside job results without breaking the
//! byte-identical merged-report invariant. Instead each worker submits its
//! per-job [`ProfileReport`] here, and the orchestrator drains the lot
//! (sorted by id) into the side-channel `--profile` artifact.

use std::sync::Mutex;

use crate::span::ProfileReport;

static COLLECTED: Mutex<Vec<(String, ProfileReport)>> = Mutex::new(Vec::new());

/// Submits one job's profile under its job id.
pub fn submit(id: &str, report: ProfileReport) {
    COLLECTED
        .lock()
        .expect("profile collector poisoned")
        .push((id.to_string(), report));
}

/// Drains every submitted profile, sorted by job id so the output is
/// independent of worker scheduling.
pub fn drain() -> Vec<(String, ProfileReport)> {
    let mut all = std::mem::take(&mut *COLLECTED.lock().expect("profile collector poisoned"));
    all.sort_by(|a, b| a.0.cmp(&b.0));
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span;

    fn tiny_profile() -> ProfileReport {
        span::start();
        drop(span::span("x"));
        span::stop().unwrap()
    }

    #[test]
    fn drain_sorts_by_id_and_empties() {
        // Serialize against other tests that might share the global.
        let _ = drain();
        submit("b/job", tiny_profile());
        submit("a/job", tiny_profile());
        let all = drain();
        let ids: Vec<&str> = all.iter().map(|(id, _)| id.as_str()).collect();
        assert_eq!(ids, ["a/job", "b/job"]);
        assert!(drain().is_empty());
    }
}
