//! Sweep-level latency aggregation: merges per-job HDR latency snapshots
//! into a per-defense percentile leaderboard embedded in the merged report.
//!
//! Unlike the host-time profiles ([`profile`](crate::profile)), latency
//! histograms are *simulated*-time artifacts: deterministic for a
//! deterministic sweep, and merged bucket-wise (associative, commutative),
//! so the leaderboard — like everything else in the merged report — is
//! byte-identical across worker counts and kill/`--resume` cycles.

use crate::job::{defense_of, JobRecord};
use crate::runner::SweepOutcome;
use dg_prof::HistSnapshot;
use dg_system::ColocationResult;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One defense's merged victim-latency percentiles across its grid points.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LatencyRow {
    /// Defense name (job-id suffix after the last `/`).
    pub defense: String,
    /// Jobs that contributed a victim-domain latency snapshot.
    pub jobs: u64,
    /// Real memory requests the merged histogram covers.
    pub requests: u64,
    /// Median simulated latency in CPU cycles (bucket lower bound).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Largest observed latency.
    pub max: u64,
}

/// Iterates `(defense, victim-domain snapshot)` over successful jobs that
/// recorded one. The sweep is victim-centric (the victim always runs on
/// domain 0), so the leaderboard merges domain-0 latency only — mixing in
/// co-runner traffic would dilute exactly the tail the defenses perturb.
fn victim_snapshots(
    records: &[JobRecord<ColocationResult>],
) -> impl Iterator<Item = (&str, &HistSnapshot)> {
    records.iter().filter_map(|r| {
        let snap = r.output.as_ref()?.latency.first()?;
        Some((defense_of(&r.id), snap))
    })
}

/// Merges per-job victim latency into one row per defense, sorted by
/// defense name (the merged report must not depend on float ordering).
pub fn latency_leaderboard(outcome: &SweepOutcome<ColocationResult>) -> Vec<LatencyRow> {
    let mut by_defense: BTreeMap<&str, Vec<&HistSnapshot>> = BTreeMap::new();
    for (defense, snap) in victim_snapshots(&outcome.records) {
        by_defense.entry(defense).or_default().push(snap);
    }
    by_defense
        .into_iter()
        .map(|(defense, snaps)| {
            let merged = HistSnapshot::merged(&snaps);
            LatencyRow {
                defense: defense.to_string(),
                jobs: snaps.len() as u64,
                requests: merged.count,
                p50: merged.p50,
                p90: merged.p90,
                p99: merged.p99,
                p999: merged.p999,
                max: merged.max,
            }
        })
        .collect()
}

/// The canonical merged report for a colocation sweep: pretty JSON with a
/// per-defense latency leaderboard ahead of the per-job records. Supersedes
/// the generic [`SweepOutcome::merged_report_json`] for `dg-run` — same
/// determinism contract, richer shape.
pub fn merged_report_with_latency(
    sweep_name: &str,
    outcome: &SweepOutcome<ColocationResult>,
) -> String {
    let latency = Value::Seq(
        latency_leaderboard(outcome)
            .iter()
            .map(Serialize::to_value)
            .collect(),
    );
    let jobs = Value::Seq(outcome.records.iter().map(Serialize::to_value).collect());
    let doc = Value::Map(vec![
        ("sweep".to_string(), sweep_name.to_value()),
        ("latency".to_string(), latency),
        ("jobs".to_string(), jobs),
    ]);
    serde_json::to_string_pretty(&doc).expect("merged report serialization is infallible")
}

/// Renders the leaderboard as the text table `dg-run` prints next to its
/// summary. Empty string when no job carried latency data.
pub fn latency_table(rows: &[LatencyRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "victim memory latency (simulated cycles, merged per defense)\n\
         defense                  p50      p90      p99     p999      max    jobs\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>8} {:>8} {:>8} {:>8} {:>8} {:>7}\n",
            r.defense, r.p50, r.p90, r.p99, r.p999, r.max, r.jobs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_prof::LogHistogram;

    fn snap(values: &[u64]) -> HistSnapshot {
        let mut h = LogHistogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    fn record(id: &str, values: &[u64]) -> JobRecord<ColocationResult> {
        JobRecord {
            id: id.to_string(),
            attempts: 1,
            output: Some(ColocationResult {
                cores: vec![],
                bandwidth_gbps: vec![],
                total_cycles: 1,
                latency: vec![snap(values), snap(&[1_000_000])],
                leakage: None,
            }),
            error: None,
        }
    }

    fn outcome(records: Vec<JobRecord<ColocationResult>>) -> SweepOutcome<ColocationResult> {
        SweepOutcome {
            records,
            progress: Default::default(),
            health: Default::default(),
        }
    }

    #[test]
    fn leaderboard_merges_victim_domain_per_defense() {
        let out = outcome(vec![
            record("s/a+x/insecure", &[40, 40, 40, 40]),
            record("s/b+x/insecure", &[200, 200, 200, 200]),
            record("s/a+x/dagguise", &[400; 8]),
        ]);
        let rows = latency_leaderboard(&out);
        assert_eq!(rows.len(), 2);
        // BTreeMap order: dagguise before insecure.
        assert_eq!(rows[0].defense, "dagguise");
        assert_eq!(rows[0].jobs, 1);
        assert_eq!(rows[0].requests, 8);
        assert!(rows[0].p99 >= 256, "p99 in the 400 bucket: {}", rows[0].p99);
        let insecure = &rows[1];
        assert_eq!(insecure.defense, "insecure");
        assert_eq!(insecure.jobs, 2);
        assert_eq!(insecure.requests, 8);
        // Merged across both jobs: median straddles the two value groups.
        assert!(insecure.p50 >= 40 && insecure.p50 <= 200);
        // Co-runner domain (the 1_000_000 sample) must NOT leak in.
        assert!(insecure.max < 1_000_000);
    }

    #[test]
    fn merged_report_carries_latency_section() {
        let out = outcome(vec![record("s/a+x/insecure", &[40, 80, 400])]);
        let json = merged_report_with_latency("s", &out);
        assert!(json.contains("\"sweep\": \"s\""));
        assert!(json.contains("\"latency\""));
        assert!(json.contains("\"p999\""));
        assert!(json.contains("\"id\": \"s/a+x/insecure\""));
        let table = latency_table(&latency_leaderboard(&out));
        assert!(table.contains("insecure"));
    }

    #[test]
    fn jobs_without_latency_are_skipped() {
        let mut bare = record("s/a+x/insecure", &[40]);
        bare.output.as_mut().unwrap().latency.clear();
        let out = outcome(vec![bare]);
        assert!(latency_leaderboard(&out).is_empty());
        assert_eq!(latency_table(&[]), "");
    }
}
