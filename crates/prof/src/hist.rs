//! Log-bucketed HDR-style histograms.
//!
//! [`LogHistogram`] is the recording side: a log-linear bucketing scheme
//! with 32 sub-buckets per octave (`SUB_BITS = 5`), which bounds the
//! relative error of any reported quantile by `2^-5 = 3.125%` while
//! keeping the whole table under 2k buckets for the full `u64` range.
//! Values below 32 are recorded exactly.
//!
//! [`HistSnapshot`] is the serializable side: sparse non-zero buckets plus
//! pre-computed percentiles. Snapshots merge by bucket-wise addition, so
//! merging is associative and commutative — the property the sweep runner
//! relies on to make `--jobs 1` and `--jobs 4` byte-identical.

use serde::{Deserialize, Serialize};

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per octave.
pub const SUB_BITS: u32 = 5;
const SUB: u64 = 1 << SUB_BITS;

/// Maximum bucket index a `u64` value can map to (inclusive).
const MAX_INDEX: usize = ((64 - SUB_BITS) * SUB as u32 + SUB as u32 - 1) as usize;

/// Bucket index for a value: exact below `SUB`, log-linear above.
#[inline]
pub fn bucket_index(v: u64) -> usize {
    if v < SUB {
        v as usize
    } else {
        let exp = 63 - v.leading_zeros();
        let shift = exp - SUB_BITS;
        ((shift + 1) * SUB as u32 + ((v >> shift) as u32 - SUB as u32)) as usize
    }
}

/// Smallest value mapping to bucket `i` (the reported quantile value).
#[inline]
pub fn bucket_lower_bound(i: usize) -> u64 {
    let i = i as u64;
    if i < SUB {
        i
    } else {
        let shift = i / SUB - 1;
        (SUB + i % SUB) << shift
    }
}

/// Recording-side log-linear histogram. The bucket table grows lazily to
/// the highest index touched, so an idle histogram costs one empty `Vec`.
/// (Serde impls exist so stats structs embedding one can keep deriving;
/// prefer [`HistSnapshot`] in actual artifacts.)
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LogHistogram {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

/// Values up to this bound record without growing the bucket table (about
/// 5 KB reserved up front), so recording simulated latencies and gaps never
/// allocates once a run is under way.
const RESERVED_MAX: u64 = 1 << 24;

impl LogHistogram {
    /// An empty histogram, with the bucket table reserved for values up
    /// to 2^24.
    pub fn new() -> Self {
        Self {
            counts: Vec::with_capacity(bucket_index(RESERVED_MAX) + 1),
            ..Self::default()
        }
    }

    /// Records one value.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let i = bucket_index(v);
        if i >= self.counts.len() {
            self.counts.resize(i + 1, 0);
        }
        self.counts[i] += 1;
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Lower bound of the bucket holding the `q`-quantile (`q` in `[0, 1]`),
    /// or `None` when empty. The reported value is at most 3.125% below the
    /// true quantile.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= target {
                return Some(bucket_lower_bound(i).max(self.min).min(self.max));
            }
        }
        Some(self.max)
    }

    /// Bucket-wise addition; associative and commutative.
    pub fn merge(&mut self, other: &LogHistogram) {
        if other.count == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (i, &c) in other.counts.iter().enumerate() {
            self.counts[i] += c;
        }
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Freezes the histogram into its serializable snapshot.
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: if self.count == 0 { 0 } else { self.max },
            p50: self.quantile(0.50).unwrap_or(0),
            p90: self.quantile(0.90).unwrap_or(0),
            p99: self.quantile(0.99).unwrap_or(0),
            p999: self.quantile(0.999).unwrap_or(0),
            buckets: self
                .counts
                .iter()
                .enumerate()
                .filter(|(_, &c)| c > 0)
                .map(|(i, &c)| Bucket {
                    index: i as u32,
                    count: c,
                })
                .collect(),
        }
    }
}

/// One non-zero bucket of a [`HistSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Bucket {
    /// Bucket index (see [`bucket_index`]).
    pub index: u32,
    /// Number of values recorded in the bucket.
    pub count: u64,
}

/// Serializable histogram snapshot: sparse buckets plus pre-computed
/// percentiles. Percentiles are bucket lower bounds (0 when empty), so
/// they are always finite integers.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistSnapshot {
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Median.
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Non-zero buckets, in index order.
    pub buckets: Vec<Bucket>,
}

impl HistSnapshot {
    /// Mean of recorded values, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Reconstructs the recording-side histogram (exact: snapshots keep
    /// every non-zero bucket).
    pub fn to_histogram(&self) -> LogHistogram {
        let len = self
            .buckets
            .iter()
            .map(|b| b.index as usize + 1)
            .max()
            .unwrap_or(0)
            .min(MAX_INDEX + 1);
        let mut counts = vec![0u64; len];
        for b in &self.buckets {
            if (b.index as usize) < counts.len() {
                counts[b.index as usize] += b.count;
            }
        }
        LogHistogram {
            counts,
            count: self.count,
            sum: self.sum,
            min: self.min,
            max: self.max,
        }
    }

    /// Merges snapshots bucket-wise and re-derives the percentiles.
    /// Associative and order-independent, which keeps merged sweep reports
    /// byte-identical regardless of worker count.
    pub fn merged(snapshots: &[&HistSnapshot]) -> HistSnapshot {
        let mut acc = LogHistogram::new();
        for s in snapshots {
            acc.merge(&s.to_histogram());
        }
        acc.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        for v in 0..SUB {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_lower_bound(v as usize), v);
        }
    }

    #[test]
    fn bucket_bounds_are_consistent() {
        // Every bucket's lower bound must map back to that bucket, and the
        // relative width of any bucket must stay within the 3.125% bound.
        for v in [32u64, 33, 63, 64, 65, 100, 1_000, 65_536, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            let lb = bucket_lower_bound(i);
            assert!(lb <= v, "lower bound {lb} must not exceed value {v}");
            assert_eq!(bucket_index(lb), i, "lower bound maps to same bucket");
            // Bucket width is lb >> SUB_BITS above the linear range.
            if v >= SUB {
                let width = lb >> SUB_BITS;
                assert!(
                    (v - lb) as f64 <= width as f64,
                    "value {v} within one bucket width of {lb}"
                );
            }
        }
        assert_eq!(bucket_index(u64::MAX), MAX_INDEX);
    }

    #[test]
    fn percentiles_of_uniform_range() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // Bucket lower bounds: at most 3.125% below the true quantile.
        assert!((485..=500).contains(&p50), "p50 = {p50}");
        assert!((960..=990).contains(&p99), "p99 = {p99}");
        // Quantiles are bucket lower bounds: p100 lands at the lower bound
        // of the bucket holding the max.
        assert_eq!(
            h.quantile(1.0).unwrap(),
            bucket_lower_bound(bucket_index(h.max))
        );
        assert_eq!(h.quantile(0.0).unwrap(), 1);
    }

    #[test]
    fn empty_histogram_snapshot_is_zeroed() {
        let s = LogHistogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.p99, 0);
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mut parts = Vec::new();
        for k in 0..4u64 {
            let mut h = LogHistogram::new();
            for i in 0..200 {
                h.record(k * 1000 + i * 7);
            }
            parts.push(h);
        }
        // (a ⊕ b) ⊕ (c ⊕ d)
        let mut ab = parts[0].clone();
        ab.merge(&parts[1]);
        let mut cd = parts[2].clone();
        cd.merge(&parts[3]);
        let mut left = ab.clone();
        left.merge(&cd);
        // d ⊕ c ⊕ b ⊕ a
        let mut right = parts[3].clone();
        right.merge(&parts[2]);
        right.merge(&parts[1]);
        right.merge(&parts[0]);
        assert_eq!(left, right);
        assert_eq!(left.snapshot(), right.snapshot());
    }

    #[test]
    fn snapshot_round_trips_through_histogram() {
        let mut h = LogHistogram::new();
        for v in [3u64, 17, 250, 250, 9000, 1 << 33] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.to_histogram(), h);
        let remerged = HistSnapshot::merged(&[&snap]);
        assert_eq!(remerged, snap);
    }

    #[test]
    fn merged_snapshot_equals_single_pass() {
        let mut all = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for v in 0..500u64 {
            all.record(v * 11);
            if v % 2 == 0 {
                a.record(v * 11);
            } else {
                b.record(v * 11);
            }
        }
        let merged = HistSnapshot::merged(&[&a.snapshot(), &b.snapshot()]);
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn snapshot_serde_round_trip() {
        let mut h = LogHistogram::new();
        for v in [1u64, 40, 40, 77, 100_000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let back: HistSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }
}
