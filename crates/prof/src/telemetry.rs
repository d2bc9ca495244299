//! Event-engine telemetry counters.
//!
//! [`EngineCounters`] is the live, recording side held by the system loop;
//! [`EngineTelemetry`] is the serializable snapshot embedded in
//! `RunReport`. The counters only describe *how* the engine covered the
//! simulated time — the simulation outcome is independent of them, but
//! they legitimately differ between the naive and event-driven engines,
//! so cross-engine byte comparisons must normalize this section.

use serde::{Deserialize, Serialize};

use crate::hist::{HistSnapshot, LogHistogram};

/// Live engine counters, updated on the tick/warp path.
#[derive(Debug, Clone, Default)]
pub struct EngineCounters {
    /// Ticks actually executed (quiescent cycles excluded).
    pub ticks: u64,
    /// Successful warps (at least one cycle skipped).
    pub warps: u64,
    /// Total cycles covered by warping instead of ticking.
    pub warped_cycles: u64,
    /// Distribution of warp lengths in cycles.
    pub warp_distance: LogHistogram,
    /// Quiescence scans that found no skippable gap.
    pub failed_scans: u64,
    /// Ticks where the scan was suppressed by the adaptive backoff, which
    /// a failed scan arms only while a core is due: near zero when the
    /// cores wait on memory, a large share of the ticks on compute-bound
    /// loads.
    pub backoff_suppressed: u64,
    /// Largest backoff the streak of failed scans with a core due reached.
    pub max_backoff: u64,
    /// The label of each component the engine polls (`next_event_at`), in
    /// scan order, fixed when the engine is built. Components may share one.
    poll_labels: Vec<&'static str>,
    /// Real `next_event_at` calls per component, indexed like
    /// `poll_labels`.
    poll_counts: Vec<u64>,
    /// Poll counts merged in from other engines, by label in first-seen
    /// order.
    merged_polls: Vec<(&'static str, u64)>,
}

impl EngineCounters {
    /// Counters for an engine whose quiescence scan polls components
    /// labelled `labels`, in that order.
    pub fn with_poll_labels(labels: impl IntoIterator<Item = &'static str>) -> Self {
        let poll_labels: Vec<_> = labels.into_iter().collect();
        Self {
            poll_counts: vec![0; poll_labels.len()],
            poll_labels,
            ..Self::default()
        }
    }

    /// Records one executed tick.
    #[inline]
    pub fn tick(&mut self) {
        self.ticks += 1;
    }

    /// Records a successful warp of `distance` cycles.
    #[inline]
    pub fn warp(&mut self, distance: u64) {
        self.warps += 1;
        self.warped_cycles += distance;
        self.warp_distance.record(distance);
    }

    /// Records one real `next_event_at` call of component `i` (an index
    /// into the labels the engine was built with).
    #[inline]
    pub fn poll(&mut self, i: usize) {
        self.poll_counts[i] += 1;
    }

    /// Records a scan that polls every labelled component once.
    pub fn scan(&mut self) {
        for count in &mut self.poll_counts {
            *count += 1;
        }
    }

    /// `next_event_at` poll counts per component label, in first-seen
    /// order: this engine's polled labels in scan order, then labels only
    /// merged in. A label never polled is left out.
    pub fn polls(&self) -> Vec<(&'static str, u64)> {
        let mut polls = Vec::new();
        for (&label, &count) in self.poll_labels.iter().zip(&self.poll_counts) {
            if count > 0 {
                add_polls(&mut polls, label, count);
            }
        }
        for &(label, count) in &self.merged_polls {
            add_polls(&mut polls, label, count);
        }
        polls
    }

    /// Merges another engine's counters into this one: per-shard engines
    /// each cover a slice of the same simulated time, so activity sums,
    /// `max_backoff` takes the maximum, and poll counts merge by component
    /// label (this side's order first, unseen labels appended — merging
    /// shard fragments in index order keeps the result deterministic).
    pub fn merge(&mut self, other: &EngineCounters) {
        self.ticks += other.ticks;
        self.warps += other.warps;
        self.warped_cycles += other.warped_cycles;
        self.warp_distance.merge(&other.warp_distance);
        self.failed_scans += other.failed_scans;
        self.backoff_suppressed += other.backoff_suppressed;
        self.max_backoff = self.max_backoff.max(other.max_backoff);
        for (label, count) in other.polls() {
            add_polls(&mut self.merged_polls, label, count);
        }
    }

    /// Freezes the counters into the report snapshot.
    pub fn snapshot(&self) -> EngineTelemetry {
        EngineTelemetry {
            ticks: self.ticks,
            warps: self.warps,
            warped_cycles: self.warped_cycles,
            skip_efficiency: if self.ticks + self.warped_cycles == 0 {
                0.0
            } else {
                self.warped_cycles as f64 / (self.ticks + self.warped_cycles) as f64
            },
            warp_distance: self.warp_distance.snapshot(),
            failed_scans: self.failed_scans,
            backoff_suppressed: self.backoff_suppressed,
            max_backoff: self.max_backoff,
            polls: self
                .polls()
                .into_iter()
                .map(|(component, count)| ComponentPolls {
                    component: component.to_string(),
                    count,
                })
                .collect(),
        }
    }
}

/// Adds `count` polls of `label` to `polls`, appending unseen labels.
fn add_polls(polls: &mut Vec<(&'static str, u64)>, label: &'static str, count: u64) {
    match polls.iter_mut().find(|(l, _)| *l == label) {
        Some((_, c)) => *c += count,
        None => polls.push((label, count)),
    }
}

/// `next_event_at` poll count for one component.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentPolls {
    /// Component name as used in the quiescence scan.
    pub component: String,
    /// Real `next_event_at` calls over the run.
    pub count: u64,
}

/// Serializable engine telemetry, embedded in `RunReport`.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineTelemetry {
    /// Ticks actually executed.
    pub ticks: u64,
    /// Successful warps.
    pub warps: u64,
    /// Cycles covered by warping.
    pub warped_cycles: u64,
    /// `warped_cycles / (ticks + warped_cycles)`: fraction of simulated
    /// time covered without ticking. 0 under the naive engine.
    pub skip_efficiency: f64,
    /// Histogram of warp lengths.
    pub warp_distance: HistSnapshot,
    /// Quiescence scans that found nothing to skip.
    pub failed_scans: u64,
    /// Ticks where the adaptive backoff suppressed the scan (armed by a
    /// failed scan only while a core is due, see `EngineCounters`).
    pub backoff_suppressed: u64,
    /// Largest backoff the streak of failed scans with a core due reached.
    pub max_backoff: u64,
    /// Per-component counts of real `next_event_at` calls.
    pub polls: Vec<ComponentPolls>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_efficiency_ratio() {
        let mut c = EngineCounters::with_poll_labels(["mem", "core0"]);
        for _ in 0..25 {
            c.tick();
        }
        c.warp(50);
        c.warp(25);
        c.scan();
        c.scan();
        let t = c.snapshot();
        assert_eq!(t.ticks, 25);
        assert_eq!(t.warps, 2);
        assert_eq!(t.warped_cycles, 75);
        assert!((t.skip_efficiency - 0.75).abs() < 1e-12);
        assert_eq!(t.warp_distance.count, 2);
        assert_eq!(t.warp_distance.max, 50);
        assert_eq!(
            t.polls,
            vec![
                ComponentPolls {
                    component: "mem".into(),
                    count: 2
                },
                ComponentPolls {
                    component: "core0".into(),
                    count: 2
                },
            ]
        );
    }

    /// Per-shard engines merge into one: activity sums, `max_backoff`
    /// takes the maximum, and polls merge by component in first-seen order.
    #[test]
    fn shard_engines_merge() {
        let mut a = EngineCounters::with_poll_labels(["chan0"]);
        a.tick();
        a.warp(10);
        a.scan();
        a.max_backoff = 3;
        let mut b = EngineCounters::with_poll_labels(["core1", "chan0"]);
        b.tick();
        b.tick();
        b.scan();
        b.max_backoff = 7;
        let idle = EngineCounters::with_poll_labels(["core9"]);
        let mut merged = EngineCounters::default();
        merged.merge(&a);
        merged.merge(&b);
        merged.merge(&idle);
        let t = merged.snapshot();
        assert_eq!((t.ticks, t.warps, t.warped_cycles), (3, 1, 10));
        assert_eq!(merged.max_backoff, 7);
        assert_eq!(merged.polls(), vec![("chan0", 2), ("core1", 1)]);
    }

    /// A scan count times a fixed label list gives the counts and order
    /// that counting each poll by label gives, shared labels included.
    #[test]
    fn scan_counts_match_per_poll_counting() {
        let labels = ["chan7", "chan8plus", "chan8plus", "core8plus", "core8plus"];
        let mut c = EngineCounters::with_poll_labels(labels);
        let mut per_poll: Vec<(&str, u64)> = Vec::new();
        for _ in 0..3 {
            c.scan();
            for label in labels {
                add_polls(&mut per_poll, label, 1);
            }
        }
        assert_eq!(c.polls(), per_poll);
        assert_eq!(
            per_poll,
            vec![("chan7", 3), ("chan8plus", 6), ("core8plus", 6)]
        );
    }

    #[test]
    fn empty_counters_snapshot() {
        assert!(EngineCounters::with_poll_labels(["mem"]).polls().is_empty());
        let t = EngineCounters::default().snapshot();
        assert_eq!(t.skip_efficiency, 0.0);
        assert!(t.polls.is_empty());
        let json = serde_json::to_string(&t).unwrap();
        let back: EngineTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, t);
    }
}
