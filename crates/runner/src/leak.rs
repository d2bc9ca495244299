//! Sweep-level leakage aggregation: merges per-job [`LeakSummary`]s into a
//! defense leaderboard and a standalone leakage artifact.
//!
//! The leaderboard answers the question the per-job JSON cannot: *ranked
//! across the whole grid, how much does each defense actually leak?* Jobs
//! are grouped by the defense segment of their id (the suffix after the
//! last `/` — see [`ExperimentSpec::expand`](crate::ExperimentSpec::expand)
//! for the id shape), so one row aggregates every victim × co-runner ×
//! seed point that ran under that defense.

use crate::job::{defense_of, JobRecord};
use crate::runner::SweepOutcome;
use dg_obs::LeakSummary;
use dg_system::ColocationResult;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One defense's aggregated leakage across all its grid points.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LeakRow {
    /// Defense name (job-id suffix).
    pub defense: String,
    /// Mean of the per-job mean capacities, in bits/s.
    pub mean_capacity_bps: f64,
    /// Highest single-window capacity any job observed, in bits/s.
    pub peak_capacity_bps: f64,
    /// Mean covert decode error rate across jobs.
    pub error_rate: f64,
    /// Number of jobs that carried a leakage summary.
    pub jobs: u64,
}

fn leaky_records(
    records: &[JobRecord<ColocationResult>],
) -> impl Iterator<Item = (&str, &LeakSummary)> {
    records.iter().filter_map(|r| {
        let leak = r.output.as_ref()?.leakage.as_ref()?;
        Some((r.id.as_str(), leak))
    })
}

/// Aggregates per-job leakage summaries into one row per defense, sorted
/// leakiest-first (ties broken by name for determinism). Jobs without a
/// leakage summary — failed, or run without the probe — are skipped.
pub fn leak_leaderboard(outcome: &SweepOutcome<ColocationResult>) -> Vec<LeakRow> {
    let mut by_defense: BTreeMap<&str, Vec<&LeakSummary>> = BTreeMap::new();
    for (id, leak) in leaky_records(&outcome.records) {
        by_defense.entry(defense_of(id)).or_default().push(leak);
    }
    let mut rows: Vec<LeakRow> = by_defense
        .into_iter()
        .map(|(defense, leaks)| {
            let n = leaks.len() as f64;
            LeakRow {
                defense: defense.to_string(),
                mean_capacity_bps: leaks.iter().map(|l| l.mean_capacity_bps).sum::<f64>() / n,
                peak_capacity_bps: leaks
                    .iter()
                    .map(|l| l.peak_capacity_bps)
                    .fold(0.0, f64::max),
                error_rate: leaks.iter().map(|l| l.error_rate).sum::<f64>() / n,
                jobs: leaks.len() as u64,
            }
        })
        .collect();
    rows.sort_by(|a, b| {
        b.mean_capacity_bps
            .total_cmp(&a.mean_capacity_bps)
            .then_with(|| a.defense.cmp(&b.defense))
    });
    rows
}

/// The standalone leakage artifact: the leaderboard plus every job's raw
/// summary, in job-id order. Deterministic for a deterministic sweep.
pub fn leak_report_json(sweep_name: &str, outcome: &SweepOutcome<ColocationResult>) -> String {
    let leaderboard = Value::Seq(
        leak_leaderboard(outcome)
            .iter()
            .map(Serialize::to_value)
            .collect(),
    );
    let jobs = Value::Seq(
        leaky_records(&outcome.records)
            .map(|(id, leak)| {
                Value::Map(vec![
                    ("id".to_string(), id.to_value()),
                    ("defense".to_string(), defense_of(id).to_value()),
                    ("leakage".to_string(), leak.to_value()),
                ])
            })
            .collect(),
    );
    let doc = Value::Map(vec![
        ("sweep".to_string(), sweep_name.to_value()),
        ("leaderboard".to_string(), leaderboard),
        ("jobs".to_string(), jobs),
    ]);
    serde_json::to_string_pretty(&doc).expect("leak report serialization is infallible")
}

/// Renders the leaderboard as the text table `dg-run` prints next to its
/// performance summary. Empty string when no job carried leakage data.
pub fn leak_table(rows: &[LeakRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "leakage leaderboard (covert-channel capacity, leakiest first)\n\
         defense              mean bits/s      peak bits/s   err    jobs\n",
    );
    for r in rows {
        out.push_str(&format!(
            "{:<20} {:>11.1} {:>16.1} {:>5.2} {:>7}\n",
            r.defense, r.mean_capacity_bps, r.peak_capacity_bps, r.error_rate, r.jobs
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: &str, mean: f64, peak: f64, err: f64) -> JobRecord<ColocationResult> {
        JobRecord {
            id: id.to_string(),
            attempts: 1,
            output: Some(ColocationResult {
                cores: vec![],
                bandwidth_gbps: vec![],
                total_cycles: 1,
                latency: vec![],
                leakage: Some(LeakSummary {
                    mean_capacity_bps: mean,
                    peak_capacity_bps: peak,
                    windows: 4,
                    error_rate: err,
                    raw_bits_per_sec: 1.2e6,
                }),
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
    fn leaderboard_groups_by_defense_and_sorts_leakiest_first() {
        let out = outcome(vec![
            record("s/a+x/insecure", 1000.0, 2000.0, 0.0),
            record("s/b+x/insecure", 3000.0, 5000.0, 0.1),
            record("s/a+x/dagguise", 1.0, 2.0, 0.5),
        ]);
        let rows = leak_leaderboard(&out);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].defense, "insecure");
        assert_eq!(rows[0].jobs, 2);
        assert!((rows[0].mean_capacity_bps - 2000.0).abs() < 1e-9);
        assert!((rows[0].peak_capacity_bps - 5000.0).abs() < 1e-9);
        assert_eq!(rows[1].defense, "dagguise");

        let table = leak_table(&rows);
        assert!(table.contains("insecure"));
        assert!(table.contains("dagguise"));
        // Leakiest row prints first.
        assert!(table.find("insecure").unwrap() < table.find("dagguise").unwrap());
    }

    #[test]
    fn jobs_without_leakage_are_skipped() {
        let mut bare = record("s/a+x/insecure", 1.0, 1.0, 0.0);
        bare.output.as_mut().unwrap().leakage = None;
        let out = outcome(vec![bare]);
        assert!(leak_leaderboard(&out).is_empty());
        assert_eq!(leak_table(&[]), "");
        let json = leak_report_json("s", &out);
        assert!(json.contains("\"leaderboard\": []"));
    }

    #[test]
    fn leak_report_json_carries_per_job_summaries() {
        let out = outcome(vec![record("s/a+x/insecure", 10.0, 20.0, 0.0)]);
        let json = leak_report_json("s", &out);
        assert!(json.contains("\"sweep\": \"s\""));
        assert!(json.contains("\"id\": \"s/a+x/insecure\""));
        assert!(json.contains("\"mean_capacity_bps\""));
    }
}
