//! Sweep-level host-cost aggregation: merges per-job span profiles into a
//! per-defense host-time leaderboard and a standalone profile artifact.
//!
//! Host time is everything the merged report is not: nondeterministic,
//! machine-dependent, and load-sensitive. Profiles therefore never enter
//! the canonical report — `dg-run --profile PATH` drains the process-global
//! [`dg_prof::collector`] after the sweep and writes them to their own
//! artifact (plus a collapsed-stack sibling for flamegraphs), answering
//! *where does the simulator itself spend wall time per defense?*

use crate::job::defense_of;
use dg_prof::ProfileReport;
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// One defense's aggregated host cost across all its profiled jobs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct HostCostRow {
    /// Defense name (job-id suffix after the last `/`).
    pub defense: String,
    /// Profiled jobs merged into this row.
    pub jobs: u64,
    /// Total wall time across those jobs, in nanoseconds.
    pub total_ns: u64,
    /// Fraction of wall time attributed to named spans.
    pub coverage: f64,
    /// The three hottest components by self time, `(span, self_ns)`.
    pub top_self: Vec<(String, u64)>,
}

/// Groups per-job profiles by defense and merges each group, sorted by
/// descending total host time (ties by name). `profiles` is `(job id,
/// report)` as drained from [`dg_prof::collector::drain`].
pub fn host_cost_leaderboard(profiles: &[(String, ProfileReport)]) -> Vec<HostCostRow> {
    let mut by_defense: BTreeMap<&str, ProfileReport> = BTreeMap::new();
    let mut jobs: BTreeMap<&str, u64> = BTreeMap::new();
    for (id, report) in profiles {
        let defense = defense_of(id);
        *jobs.entry(defense).or_insert(0) += 1;
        match by_defense.get_mut(defense) {
            Some(acc) => acc.merge(report),
            None => {
                by_defense.insert(defense, report.clone());
            }
        }
    }
    let mut rows: Vec<HostCostRow> = by_defense
        .into_iter()
        .map(|(defense, merged)| HostCostRow {
            defense: defense.to_string(),
            jobs: jobs[defense],
            total_ns: merged.total_ns,
            coverage: merged.coverage,
            top_self: merged.top_self().into_iter().take(3).collect(),
        })
        .collect();
    rows.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then_with(|| a.defense.cmp(&b.defense))
    });
    rows
}

/// Merges every profiled job into one whole-sweep attribution tree, for
/// the collapsed-stack flamegraph export. `None` when nothing was profiled.
pub fn merged_profile(profiles: &[(String, ProfileReport)]) -> Option<ProfileReport> {
    let mut it = profiles.iter();
    let mut acc = it.next()?.1.clone();
    for (_, p) in it {
        acc.merge(p);
    }
    Some(acc)
}

/// The standalone profile artifact: the host-cost leaderboard plus every
/// job's attribution tree, in job-id order (the collector drains sorted).
pub fn profile_report_json(sweep_name: &str, profiles: &[(String, ProfileReport)]) -> String {
    let leaderboard = Value::Seq(
        host_cost_leaderboard(profiles)
            .iter()
            .map(Serialize::to_value)
            .collect(),
    );
    let jobs = Value::Seq(
        profiles
            .iter()
            .map(|(id, report)| {
                Value::Map(vec![
                    ("id".to_string(), id.to_value()),
                    ("defense".to_string(), defense_of(id).to_value()),
                    ("profile".to_string(), report.to_value()),
                ])
            })
            .collect(),
    );
    let doc = Value::Map(vec![
        ("sweep".to_string(), sweep_name.to_value()),
        ("leaderboard".to_string(), leaderboard),
        ("jobs".to_string(), jobs),
    ]);
    serde_json::to_string_pretty(&doc).expect("profile report serialization is infallible")
}

/// Renders the leaderboard as the text table `dg-run --profile` prints.
/// Empty string when nothing was profiled (e.g. the `prof` feature is off).
pub fn host_cost_table(rows: &[HostCostRow]) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let mut out = String::from(
        "host-cost leaderboard (wall time per defense, costliest first)\n\
         defense                 total ms   cov   jobs  hottest spans (self ms)\n",
    );
    for r in rows {
        let hot: Vec<String> = r
            .top_self
            .iter()
            .map(|(name, ns)| format!("{name} {:.1}", *ns as f64 / 1e6))
            .collect();
        out.push_str(&format!(
            "{:<20} {:>11.1} {:>5.2} {:>6}  {}\n",
            r.defense,
            r.total_ns as f64 / 1e6,
            r.coverage,
            r.jobs,
            hot.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_prof::ProfileNode;

    fn leaf(name: &str, calls: u64, ns: u64) -> ProfileNode {
        ProfileNode {
            name: name.to_string(),
            calls,
            total_ns: ns,
            self_ns: ns,
            children: vec![],
        }
    }

    fn report(sim_ns: u64, report_ns: u64) -> ProfileReport {
        let total = sim_ns + report_ns + 10;
        ProfileReport {
            total_ns: total,
            coverage: (sim_ns + report_ns) as f64 / total as f64,
            root: ProfileNode {
                name: "run".to_string(),
                calls: 1,
                total_ns: total,
                self_ns: 10,
                children: vec![leaf("report", 1, report_ns), leaf("sim", 1, sim_ns)],
            },
        }
    }

    #[test]
    fn leaderboard_groups_and_sorts_by_host_cost() {
        let profiles = vec![
            ("s/a+x/insecure".to_string(), report(100, 50)),
            ("s/b+x/insecure".to_string(), report(300, 50)),
            ("s/a+x/dagguise".to_string(), report(9_000, 100)),
        ];
        let rows = host_cost_leaderboard(&profiles);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].defense, "dagguise");
        assert_eq!(rows[0].jobs, 1);
        assert_eq!(rows[1].defense, "insecure");
        assert_eq!(rows[1].jobs, 2);
        assert_eq!(rows[1].total_ns, 520);
        // Hottest span first in the digest.
        assert_eq!(rows[0].top_self[0].0, "sim");

        let table = host_cost_table(&rows);
        assert!(table.find("dagguise").unwrap() < table.find("insecure").unwrap());
    }

    #[test]
    fn merged_profile_spans_the_whole_sweep() {
        let profiles = vec![
            ("s/a/one".to_string(), report(100, 10)),
            ("s/a/two".to_string(), report(200, 20)),
        ];
        let merged = merged_profile(&profiles).unwrap();
        // (100 + 10 + 10) + (200 + 20 + 10) — each report carries 10ns of
        // unattributed root self time.
        assert_eq!(merged.total_ns, 350);
        let collapsed = merged.collapsed();
        assert!(collapsed.contains("run;sim 300"));
        assert!(collapsed.contains("run;report 30"));
        assert!(merged_profile(&[]).is_none());
    }

    #[test]
    fn profile_report_json_carries_trees_and_leaderboard() {
        let profiles = vec![("s/a/one".to_string(), report(100, 10))];
        let json = profile_report_json("s", &profiles);
        assert!(json.contains("\"sweep\": \"s\""));
        assert!(json.contains("\"leaderboard\""));
        assert!(json.contains("\"top_self\""));
        assert!(json.contains("\"id\": \"s/a/one\""));
        assert_eq!(host_cost_table(&[]), "");
    }
}
