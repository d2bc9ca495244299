//! Interval time-series sampling.
//!
//! Figure 7(b) of the paper plots allocated bandwidth over *time*, not just
//! end-of-run totals. The [`IntervalSampler`] closes that gap: the system
//! feeds it cumulative per-core instruction counts and per-domain byte
//! counts at every window boundary, and it stores the per-window deltas as
//! IPC / GB/s samples.

use dg_sim::clock::{bytes_per_cycle_to_gbps, Cycle};
use serde::{Deserialize, Serialize};

/// One sampling window's worth of rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IntervalSample {
    /// First cycle of the window.
    pub start_cycle: Cycle,
    /// Per-core IPC over the window.
    pub ipc: Vec<f64>,
    /// Per-domain bandwidth over the window, in GB/s.
    pub bandwidth_gbps: Vec<f64>,
}

/// Accumulates per-window IPC and bandwidth samples from cumulative
/// counters.
#[derive(Debug, Clone)]
pub struct IntervalSampler {
    window: Cycle,
    clock_hz: f64,
    /// Cycle at which the current window started.
    window_start: Cycle,
    last_instructions: Vec<u64>,
    last_bytes: Vec<u64>,
    samples: Vec<IntervalSample>,
}

impl IntervalSampler {
    /// Creates a sampler with the given window length (in CPU cycles) for
    /// `cores` cores and `domains` traffic domains.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: Cycle, clock_hz: f64, cores: usize, domains: usize) -> Self {
        assert!(window > 0, "interval window must be positive");
        IntervalSampler {
            window,
            clock_hz,
            window_start: 0,
            last_instructions: vec![0; cores],
            last_bytes: vec![0; domains],
            samples: Vec::new(),
        }
    }

    /// Window length in cycles.
    pub fn window(&self) -> Cycle {
        self.window
    }

    /// True when `now` closes the current window (the caller should then
    /// invoke [`IntervalSampler::sample`]).
    pub fn due(&self, now: Cycle) -> bool {
        now >= self.window_start + self.window
    }

    /// Closes the current window at `now` given the *cumulative*
    /// instruction count per core and byte count per domain, recording the
    /// deltas as one [`IntervalSample`].
    pub fn sample(&mut self, now: Cycle, instructions: &[u64], bytes: &[u64]) {
        let elapsed = (now - self.window_start).max(1) as f64;
        let ipc = instructions
            .iter()
            .zip(self.last_instructions.iter())
            .map(|(cur, last)| cur.saturating_sub(*last) as f64 / elapsed)
            .collect();
        let bandwidth_gbps = bytes
            .iter()
            .zip(self.last_bytes.iter())
            .map(|(cur, last)| {
                bytes_per_cycle_to_gbps(cur.saturating_sub(*last) as f64 / elapsed, self.clock_hz)
            })
            .collect();
        self.samples.push(IntervalSample {
            start_cycle: self.window_start,
            ipc,
            bandwidth_gbps,
        });
        self.last_instructions.copy_from_slice(instructions);
        self.last_bytes.copy_from_slice(bytes);
        self.window_start = now;
    }

    /// The cycle that closes the current window. The event-driven engine
    /// samples there when a warp passes it: it settles the memory state up
    /// to the boundary first, so each skipped window closes with exactly
    /// the inputs the per-cycle loop would have observed.
    pub fn next_boundary(&self) -> Cycle {
        self.window_start + self.window
    }

    /// Flushes the trailing partial window at end-of-run: records a final
    /// sample covering `window_start..now` when the run ends mid-window.
    /// A no-op when `now` sits exactly on a window boundary (that window
    /// was already sampled) so flushing is idempotent.
    pub fn flush(&mut self, now: Cycle, instructions: &[u64], bytes: &[u64]) {
        if now > self.window_start {
            self.sample(now, instructions, bytes);
        }
    }

    /// The samples recorded so far.
    pub fn samples(&self) -> &[IntervalSample] {
        &self.samples
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_become_rates() {
        let mut s = IntervalSampler::new(100, 1e9, 1, 1);
        assert!(!s.due(99));
        assert!(s.due(100));
        // 50 instructions and 6400 bytes in the first 100 cycles.
        s.sample(100, &[50], &[6400]);
        // Nothing in the second window.
        s.sample(200, &[50], &[6400]);
        let samples = s.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[0].start_cycle, 0);
        assert!((samples[0].ipc[0] - 0.5).abs() < 1e-12);
        // 64 bytes/cycle at 1 GHz = 64 GB/s.
        assert!((samples[0].bandwidth_gbps[0] - 64.0).abs() < 1e-9);
        assert_eq!(samples[1].start_cycle, 100);
        assert_eq!(samples[1].ipc[0], 0.0);
        assert_eq!(samples[1].bandwidth_gbps[0], 0.0);
    }

    #[test]
    fn flush_reports_trailing_partial_window() {
        let mut s = IntervalSampler::new(100, 1e9, 1, 1);
        s.sample(100, &[50], &[0]);
        // The run ends at cycle 140, mid-window: 30 instructions in the
        // trailing 40 cycles.
        s.flush(140, &[80], &[0]);
        let samples = s.samples();
        assert_eq!(samples.len(), 2);
        assert_eq!(samples[1].start_cycle, 100);
        assert!((samples[1].ipc[0] - 30.0 / 40.0).abs() < 1e-12);
        // Idempotent: a second flush at the same cycle adds nothing.
        s.flush(140, &[80], &[0]);
        assert_eq!(s.samples().len(), 2);
    }

    #[test]
    fn flush_on_boundary_is_a_no_op() {
        let mut s = IntervalSampler::new(100, 1e9, 1, 1);
        s.sample(100, &[50], &[0]);
        s.flush(100, &[50], &[0]);
        assert_eq!(s.samples().len(), 1);
    }

    #[test]
    fn sampling_at_each_next_boundary_matches_per_cycle_checks() {
        // Naive reference: per-cycle due() checks over a quiescent stretch.
        let mut naive = IntervalSampler::new(100, 1e9, 1, 1);
        naive.sample(100, &[50], &[6400]);
        for now in 101..=350 {
            if naive.due(now) {
                naive.sample(now, &[50], &[6400]);
            }
        }
        // Warped: one sample per boundary the stretch passes.
        let mut warped = IntervalSampler::new(100, 1e9, 1, 1);
        warped.sample(100, &[50], &[6400]);
        while warped.next_boundary() <= 350 {
            warped.sample(warped.next_boundary(), &[50], &[6400]);
        }
        assert_eq!(naive.samples(), warped.samples());
        // Boundaries at 200 and 300 closed as zero-delta windows.
        assert_eq!(warped.samples().len(), 3);
        assert_eq!(warped.samples()[2].start_cycle, 200);
        assert_eq!(warped.samples()[2].ipc[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        let _ = IntervalSampler::new(0, 1e9, 1, 1);
    }
}
