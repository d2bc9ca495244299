//! Noise-aware perf-trend analytics over the `BENCH_perf.json` history.
//!
//! The benchmark history is a `runs` array where each run carries a
//! `scenarios` table of `{name, speedup, shards?, threads?}` rows plus
//! run-level context (`mode`, `host.parallelism`). Quick-mode numbers on
//! a busy 2-vCPU host are *extremely* noisy — single scenarios swing 3×
//! between healthy runs — so comparing the latest run against just the
//! previous one is useless. Instead each scenario is stratified into a
//! comparable series (same mode / shard count / thread context / host
//! parallelism). The median of the [`RECENT_RUNS`] latest values is judged
//! against the **median ± MAD** of the trailing window before them:
//!
//! * allowed drop = `max(min_drop, noise_k × 1.4826 × MAD / median)`
//!   (1.4826 scales MAD to a Gaussian σ estimate);
//! * fewer than `min_history` prior samples → verdict `Insufficient`
//!   (a MAD from 2–3 points is meaningless);
//! * delta below `−allowed` → `Regression`, above `+allowed` →
//!   `Improvement`, otherwise `Steady`.
//!
//! Judging a recent median rather than the latest value alone means a
//! regression must show in most of the last [`RECENT_RUNS`] runs: one
//! quick run of an unchanged binary can land 30% below its neighbours
//! (six runs of one binary on one 2-CPU host gave `dagguise/idle`
//! 4.04–6.18×).
//!
//! `--inject PCT` appends [`RECENT_RUNS`] synthetic runs to every series
//! before judging, copies of its latest values `PCT`% lower — the
//! self-test ci.sh uses to prove the gate fires on a sustained drop.

use std::collections::BTreeMap;

use serde::Value;

/// Latest samples of a series whose median is judged.
pub const RECENT_RUNS: usize = 5;

/// Tunables for the analysis (defaults calibrated against the repo's real
/// run history: see module docs).
#[derive(Debug, Clone)]
pub struct TrendOptions {
    /// Trailing window size: prior samples considered, before the
    /// [`RECENT_RUNS`] recent ones.
    pub window: usize,
    /// Minimum prior samples for an active verdict.
    pub min_history: usize,
    /// Noise floor: drops smaller than this fraction are never flagged.
    pub min_drop: f64,
    /// How many noise-σ (MAD-estimated) of drop to tolerate.
    pub noise_k: f64,
    /// Synthetic regression to append to each series, in percent.
    pub inject_pct: Option<f64>,
}

impl Default for TrendOptions {
    fn default() -> Self {
        TrendOptions {
            window: 8,
            min_history: 4,
            min_drop: 0.10,
            noise_k: 2.0,
            inject_pct: None,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Regression,
    Improvement,
    Steady,
    /// Not enough comparable history for a meaningful noise estimate.
    Insufficient,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regression => "REGRESSION",
            Verdict::Improvement => "improvement",
            Verdict::Steady => "steady",
            Verdict::Insufficient => "insufficient",
        }
    }
}

/// One stratified series' verdict.
#[derive(Debug, Clone)]
pub struct TrendRow {
    pub scenario: String,
    /// The stratification context: `mode=quick shards=4 threads=2 host=2`.
    pub stratum: String,
    /// Prior samples actually compared against (≤ window).
    pub n_history: usize,
    /// Trailing-window median of the prior samples.
    pub median: f64,
    /// Median of the recent samples.
    pub recent: f64,
    /// (recent − median) / median, in percent.
    pub delta_pct: f64,
    /// Tolerated |delta|, in percent.
    pub allowed_pct: f64,
    pub verdict: Verdict,
}

#[derive(Debug, Clone)]
pub struct TrendReport {
    pub rows: Vec<TrendRow>,
    /// Whether a synthetic regression was injected (`--inject`).
    pub injected: bool,
}

impl TrendReport {
    pub fn regressions(&self) -> Vec<&TrendRow> {
        self.rows
            .iter()
            .filter(|r| r.verdict == Verdict::Regression)
            .collect()
    }

    /// Plain-text table, one row per series, regressions first.
    pub fn table(&self) -> String {
        let mut rows: Vec<&TrendRow> = self.rows.iter().collect();
        rows.sort_by(|a, b| {
            let rank = |v: Verdict| match v {
                Verdict::Regression => 0,
                Verdict::Improvement => 1,
                Verdict::Steady => 2,
                Verdict::Insufficient => 3,
            };
            rank(a.verdict)
                .cmp(&rank(b.verdict))
                .then_with(|| a.scenario.cmp(&b.scenario))
                .then_with(|| a.stratum.cmp(&b.stratum))
        });
        let mut out = String::new();
        out.push_str(&format!(
            "{:<30} {:<34} {:>4} {:>10} {:>10} {:>8} {:>8}  verdict\n",
            "scenario", "stratum", "n", "median", "recent", "delta%", "allow%"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<30} {:<34} {:>4} {:>10.3} {:>10.3} {:>+8.1} {:>8.1}  {}\n",
                r.scenario,
                r.stratum,
                r.n_history,
                r.median,
                r.recent,
                r.delta_pct,
                r.allowed_pct,
                r.verdict.label()
            ));
        }
        out
    }
}

/// Median of non-empty `values`.
fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    median_of(&sorted)
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median absolute deviation of `values` around `center`.
fn mad_of(values: &[f64], center: f64) -> f64 {
    let mut devs: Vec<f64> = values.iter().map(|v| (v - center).abs()).collect();
    devs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    median_of(&devs)
}

/// Stratification key: what must match for two samples to be comparable.
fn stratum_key(row: &Value, run: &Value) -> String {
    // Legacy rows (before sharded benches) ran unsharded.
    let shards = row.get("shards").and_then(Value::as_u64).unwrap_or(1);
    // `threads` (effective parties) landed with dg-mon; unsharded rows
    // were always single-threaded, so infer 1 to keep their history in
    // one series. Sharded rows without it are a distinct legacy stratum.
    let threads = match row.get("threads").and_then(Value::as_u64) {
        Some(t) => t.to_string(),
        None if shards == 1 => "1".to_string(),
        None => "?".to_string(),
    };
    let mode = run.get("mode").and_then(Value::as_str).unwrap_or("?");
    let host = run
        .get("host")
        .and_then(|h| h.get("parallelism"))
        .and_then(Value::as_u64)
        .map(|p| p.to_string())
        .unwrap_or_else(|| "?".to_string());
    format!("mode={mode} shards={shards} threads={threads} host={host}")
}

/// Parses a `BENCH_perf.json` document and judges every stratified series.
///
/// # Errors
///
/// Returns a description of the first structural problem (not valid JSON,
/// missing `runs`, a scenario row without `name`/`speedup`).
pub fn analyze_document(text: &str, opts: &TrendOptions) -> Result<TrendReport, String> {
    let doc: Value = serde_json::from_str(text).map_err(|e| format!("invalid JSON: {e}"))?;
    let runs = doc
        .get("runs")
        .and_then(Value::as_seq)
        .ok_or("document has no \"runs\" array")?;

    // (scenario, stratum) → speedups in run order.
    let mut series: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    for (ri, run) in runs.iter().enumerate() {
        let rows = run
            .get("scenarios")
            .and_then(Value::as_seq)
            .ok_or_else(|| format!("run {ri} has no \"scenarios\" array"))?;
        for row in rows {
            let name = row
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("run {ri}: scenario row without \"name\""))?;
            let speedup = row
                .get("speedup")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("run {ri}: scenario {name} without \"speedup\""))?;
            series
                .entry((name.to_string(), stratum_key(row, run)))
                .or_default()
                .push(speedup);
        }
    }

    let mut rows = Vec::new();
    for ((scenario, stratum), mut values) in series {
        if let Some(pct) = opts.inject_pct {
            let (from, end) = (values.len().saturating_sub(RECENT_RUNS), values.len());
            values.extend_from_within(from..);
            for v in &mut values[end..] {
                *v *= 1.0 - pct / 100.0;
            }
        }
        let split = values.len().saturating_sub(RECENT_RUNS);
        let (prior, recent) = values.split_at(split);
        let recent = median(recent);
        let window = &prior[prior.len().saturating_sub(opts.window)..];
        let n_history = window.len();

        if n_history < opts.min_history {
            rows.push(TrendRow {
                scenario,
                stratum,
                n_history,
                median: if window.is_empty() {
                    recent
                } else {
                    median(window)
                },
                recent,
                delta_pct: 0.0,
                allowed_pct: 0.0,
                verdict: Verdict::Insufficient,
            });
            continue;
        }

        let median = median(window);
        let mad = mad_of(window, median);
        let noise_frac = if median.abs() > f64::EPSILON {
            opts.noise_k * 1.4826 * mad / median.abs()
        } else {
            0.0
        };
        let allowed = opts.min_drop.max(noise_frac);
        let delta = if median.abs() > f64::EPSILON {
            (recent - median) / median.abs()
        } else {
            0.0
        };
        let verdict = if delta < -allowed {
            Verdict::Regression
        } else if delta > allowed {
            Verdict::Improvement
        } else {
            Verdict::Steady
        };
        rows.push(TrendRow {
            scenario,
            stratum,
            n_history,
            median,
            recent,
            delta_pct: delta * 100.0,
            allowed_pct: allowed * 100.0,
            verdict,
        });
    }

    Ok(TrendReport {
        rows,
        injected: opts.inject_pct.is_some(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(speedups: &[f64]) -> String {
        let runs: Vec<String> = speedups
            .iter()
            .map(|s| {
                format!(
                    "{{\"mode\": \"quick\", \"host\": {{\"parallelism\": 2}}, \
                     \"scenarios\": [{{\"name\": \"a/idle\", \"shards\": 1, \
                     \"threads\": 1, \"speedup\": {s}}}]}}"
                )
            })
            .collect();
        format!("{{\"runs\": [{}]}}", runs.join(", "))
    }

    /// A steady history of eight runs near 10, then `recent`.
    fn steady_then(recent: &[f64]) -> String {
        let history = [10.0, 10.2, 9.8, 10.1, 10.0, 9.9, 10.1, 10.0];
        doc(&[&history[..], recent].concat())
    }

    #[test]
    fn short_history_is_insufficient() {
        let report = analyze_document(&doc(&[10.0, 10.0, 9.0]), &TrendOptions::default()).unwrap();
        assert_eq!(report.rows.len(), 1);
        assert_eq!(report.rows[0].verdict, Verdict::Insufficient);
        assert!(report.regressions().is_empty());
    }

    #[test]
    fn stable_series_with_big_drop_regresses() {
        let report = analyze_document(
            &steady_then(&[7.0, 7.1, 10.0, 6.9, 7.0]),
            &TrendOptions::default(),
        )
        .unwrap();
        assert_eq!(report.rows[0].n_history, 8);
        assert_eq!(report.rows[0].verdict, Verdict::Regression);
        assert_eq!(report.regressions().len(), 1);
        assert!((report.rows[0].recent - 7.0).abs() < 1e-9);
    }

    #[test]
    fn noisy_series_tolerates_wide_swings() {
        // MAD of {10, 20, 5, 15, 12} around median 12 is 3 → allowed
        // ≈ 2×1.4826×3/12 ≈ 74% — a recent median of 8.0 (−33%) is
        // within noise.
        let report = analyze_document(
            &doc(&[10.0, 20.0, 5.0, 15.0, 12.0, 8.0, 9.0, 8.0, 12.0, 7.0]),
            &TrendOptions::default(),
        )
        .unwrap();
        assert_eq!(report.rows[0].verdict, Verdict::Steady);
    }

    #[test]
    fn tight_series_small_drop_within_floor_is_steady() {
        // MAD ≈ 0 but the drop (−5%) is under the 10% floor.
        let report = analyze_document(&steady_then(&[9.5; 5]), &TrendOptions::default()).unwrap();
        assert_eq!(report.rows[0].verdict, Verdict::Steady);
    }

    #[test]
    fn improvement_is_flagged_symmetrically() {
        let report = analyze_document(&steady_then(&[13.0; 5]), &TrendOptions::default()).unwrap();
        assert_eq!(report.rows[0].verdict, Verdict::Improvement);
    }

    #[test]
    fn injection_forces_a_regression_on_stable_history() {
        let opts = TrendOptions {
            inject_pct: Some(20.0),
            ..Default::default()
        };
        // 5 real samples + 5 injected copies = 5 priors, active verdict.
        let report = analyze_document(&doc(&[10.0, 10.1, 9.9, 10.0, 10.0]), &opts).unwrap();
        assert!(report.injected);
        assert_eq!(report.rows[0].n_history, 5);
        assert_eq!(report.rows[0].verdict, Verdict::Regression);
        assert!((report.rows[0].recent - 8.0).abs() < 0.1);
    }

    #[test]
    fn a_minority_of_low_recent_runs_is_steady() {
        // The latest run and one more sit 30% low: the recent median
        // (10.0) is unmoved.
        let report = analyze_document(
            &steady_then(&[10.0, 7.0, 10.1, 9.9, 7.0]),
            &TrendOptions::default(),
        )
        .unwrap();
        assert_eq!(report.rows[0].verdict, Verdict::Steady);
    }

    #[test]
    fn a_drop_in_most_recent_runs_regresses() {
        let report = analyze_document(
            &steady_then(&[10.0, 7.5, 10.1, 7.4, 7.6]),
            &TrendOptions::default(),
        )
        .unwrap();
        assert_eq!(report.rows[0].verdict, Verdict::Regression);
        assert!((report.rows[0].recent - 7.6).abs() < 1e-9);
    }

    #[test]
    fn strata_are_not_mixed() {
        let text = "{\"runs\": [\
            {\"mode\": \"quick\", \"scenarios\": [{\"name\": \"a\", \"shards\": 1, \"speedup\": 10.0}]},\
            {\"mode\": \"quick\", \"scenarios\": [{\"name\": \"a\", \"shards\": 4, \"speedup\": 2.0}]}\
        ]}";
        let report = analyze_document(text, &TrendOptions::default()).unwrap();
        assert_eq!(report.rows.len(), 2);
        assert!(report
            .rows
            .iter()
            .all(|r| r.verdict == Verdict::Insufficient));
    }

    #[test]
    fn legacy_rows_without_threads_merge_only_when_unsharded() {
        // shards=1 without threads infers threads=1, matching new rows.
        let text = "{\"runs\": [\
            {\"mode\": \"quick\", \"scenarios\": [{\"name\": \"a\", \"shards\": 1, \"speedup\": 10.0}]},\
            {\"mode\": \"quick\", \"scenarios\": [{\"name\": \"a\", \"shards\": 1, \"threads\": 1, \"speedup\": 12.0}]}\
        ]}";
        let report = analyze_document(text, &TrendOptions::default()).unwrap();
        assert_eq!(report.rows.len(), 1);
        // Both runs are in the one series' recent median.
        assert_eq!(report.rows[0].recent, 11.0);
    }

    #[test]
    fn structural_errors_are_reported() {
        assert!(analyze_document("nope", &TrendOptions::default()).is_err());
        assert!(analyze_document("{}", &TrendOptions::default()).is_err());
        assert!(analyze_document(
            "{\"runs\": [{\"mode\": \"quick\"}]}",
            &TrendOptions::default()
        )
        .is_err());
    }

    #[test]
    fn table_renders_every_series() {
        let report = analyze_document(&steady_then(&[5.0; 5]), &TrendOptions::default()).unwrap();
        let table = report.table();
        assert!(table.contains("a/idle"));
        assert!(table.contains("REGRESSION"));
    }
}
