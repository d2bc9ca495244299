//! The [`RunReport`]: a hierarchical, serializable snapshot of every stats
//! structure a simulation run produces.
//!
//! The report is assembled by `dg-system` at the end of a run (it is the
//! layer that can see core, cache, shaper and DRAM state at once) and
//! written to `results/` as JSON by the benchmark harness. The struct tree
//! mirrors the hardware hierarchy: per-core IPC, per-domain traffic and
//! latency distribution, per-shaper conformance stats, DRAM energy, plus the
//! interval time series recorded by
//! [`IntervalSampler`](crate::interval::IntervalSampler).

use crate::interval::IntervalSample;
use crate::leak::{InterferenceReport, ShaperTimelineReport};
use dg_dram::power::{EnergyCounter, PowerParams};
use dg_prof::{EngineTelemetry, HistSnapshot};
use serde::{Deserialize, Serialize};

/// Run-level identification and global counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMeta {
    /// Human-readable run name (experiment binary + scenario).
    pub name: String,
    /// Memory subsystem variant ("insecure", "dagguise", ...).
    pub memory: String,
    /// Number of simulated cores.
    pub cores: usize,
    /// Total simulated CPU cycles.
    pub total_cycles: u64,
    /// CPU clock in Hz (for bandwidth conversions).
    pub clock_hz: f64,
}

/// Per-core progress counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreReport {
    /// Security domain the core belongs to.
    pub domain: u16,
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles the core was accounted against (finish time or run length).
    pub cycles: u64,
    /// Instructions per cycle.
    pub ipc: f64,
    /// Whether the core drained its whole trace.
    pub finished: bool,
    /// HDR histogram of the gaps between instruction-completion events on
    /// this core (empty for cores that do not record one).
    pub completion: HistSnapshot,
}

/// Per-security-domain memory traffic summary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainReport {
    /// The domain id.
    pub domain: u16,
    /// Real read responses.
    pub reads: u64,
    /// Real write responses.
    pub writes: u64,
    /// Fake (shaper-fabricated) responses.
    pub fakes: u64,
    /// Achieved bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Mean memory latency in CPU cycles (absent when no traffic).
    pub mean_latency: Option<f64>,
    /// Median latency in CPU cycles (from `latency_hdr`).
    pub latency_p50: Option<u64>,
    /// 95th-percentile latency in CPU cycles (from `latency_hdr`).
    pub latency_p95: Option<u64>,
    /// 99th-percentile latency in CPU cycles (from `latency_hdr`).
    pub latency_p99: Option<u64>,
    /// The full latency distribution: HDR (log-bucketed) with
    /// p50/p90/p99/p999, every quantile at most 3.125% below the true value.
    pub latency_hdr: HistSnapshot,
}

/// Per-shaper conformance statistics.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShaperReport {
    /// Protected domain this shaper serves.
    pub domain: u16,
    /// Real requests forwarded into rDAG slots.
    pub real_forwarded: u64,
    /// Fake requests fabricated for unmatched slots.
    pub fakes_emitted: u64,
    /// Requests admitted into the shaper queue.
    pub accepted: u64,
    /// Requests refused because the queue was full.
    pub rejected: u64,
    /// Fraction of emitted traffic that was fake.
    pub fake_fraction: f64,
    /// Mean queueing delay of forwarded real requests, in CPU cycles.
    pub mean_delay: Option<f64>,
}

/// DRAM energy totals in nanojoules, derived from an [`EnergyCounter`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EnergyReport {
    /// Energy spent on real traffic.
    pub real_nj: f64,
    /// Energy spent on fake traffic.
    pub fake_nj: f64,
    /// Refresh energy.
    pub refresh_nj: f64,
    /// Background (standby) energy.
    pub background_nj: f64,
    /// Total with fake-suppression optimisation applied.
    pub total_suppressed_nj: f64,
    /// Total if fakes performed full accesses.
    pub total_unsuppressed_nj: f64,
    /// Fake-traffic energy overhead as a fraction of the real total.
    pub fake_overhead: f64,
}

impl EnergyReport {
    /// Prices an [`EnergyCounter`] with `params` into absolute totals.
    pub fn from_counter(counter: &EnergyCounter, params: &PowerParams) -> Self {
        EnergyReport {
            real_nj: counter.real_nj(params),
            fake_nj: counter.fake_nj(params),
            refresh_nj: counter.refresh_nj(params),
            background_nj: counter.background_nj(params),
            total_suppressed_nj: counter.total_suppressed_nj(params),
            total_unsuppressed_nj: counter.total_unsuppressed_nj(params),
            fake_overhead: counter.fake_overhead(params),
        }
    }
}

/// Per-bank activity counters surfaced from the memory controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BankReport {
    /// The bank index.
    pub bank: u32,
    /// ACT commands issued to the bank.
    pub acts: u64,
    /// Column accesses that hit the already-open row.
    pub row_hits: u64,
    /// Column accesses that required an activation first.
    pub row_misses: u64,
    /// Precharge operations (explicit PRE plus auto-precharge).
    pub precharges: u64,
    /// Cycles an ACT to this bank stalled on the tFAW four-activate window.
    pub faw_stall_cycles: u64,
}

/// Memory-controller / DRAM level counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramReport {
    /// Refresh operations performed.
    pub refreshes: u64,
    /// Responses dropped because their domain id exceeded the configured
    /// domain count (should be zero in a healthy run).
    pub dropped_responses: u64,
    /// Energy totals.
    pub energy: EnergyReport,
}

/// Counters describing the trace recording itself.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct TraceSummary {
    /// Events available in the ring buffer at snapshot time.
    pub events_recorded: u64,
    /// Events lost to ring-buffer wraparound.
    pub events_dropped: u64,
}

/// The complete artifact of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunReport {
    /// Run identification and global counters.
    pub meta: RunMeta,
    /// One entry per core.
    pub cores: Vec<CoreReport>,
    /// One entry per security domain with memory traffic accounting.
    pub domains: Vec<DomainReport>,
    /// One entry per request shaper (empty for unshaped memory kinds).
    pub shapers: Vec<ShaperReport>,
    /// Windowed shaper telemetry (empty unless timelines were enabled).
    pub shaper_timelines: Vec<ShaperTimelineReport>,
    /// Controller/DRAM counters and energy.
    pub dram: DramReport,
    /// Per-bank row-hit/miss/precharge/tFAW-stall counters (empty for
    /// memory paths that do not expose bank state).
    pub banks: Vec<BankReport>,
    /// Who-delayed-whom contention attribution (absent for memory paths
    /// without a stall-attributing controller).
    pub interference: Option<InterferenceReport>,
    /// Interval time series window size in cycles (0 when sampling was off).
    pub interval_window: u64,
    /// Interval samples (empty when sampling was off).
    pub intervals: Vec<IntervalSample>,
    /// Trace-recording counters.
    pub trace: TraceSummary,
    /// Event-engine telemetry (warp distances, skip efficiency, scan
    /// backoff). Describes how the engine covered simulated time, not the
    /// simulation outcome: it legitimately differs between the naive and
    /// event-driven engines, so cross-engine comparisons normalize it.
    pub engine: EngineTelemetry,
}

impl RunReport {
    /// Serializes the report as pretty-printed JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("report serialization is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_hist() -> HistSnapshot {
        let mut h = dg_prof::LogHistogram::new();
        for v in [40u64, 80, 80, 200, 400] {
            h.record(v);
        }
        h.snapshot()
    }

    fn sample_report() -> RunReport {
        RunReport {
            meta: RunMeta {
                name: "fig5_example".to_string(),
                memory: "dagguise".to_string(),
                cores: 2,
                total_cycles: 10_000,
                clock_hz: 2.4e9,
            },
            cores: vec![CoreReport {
                domain: 0,
                instructions: 5_000,
                cycles: 10_000,
                ipc: 0.5,
                finished: true,
                completion: sample_hist(),
            }],
            domains: vec![DomainReport {
                domain: 0,
                reads: 100,
                writes: 20,
                fakes: 30,
                bandwidth_gbps: 1.5,
                mean_latency: Some(82.5),
                latency_p50: Some(80),
                latency_p95: Some(200),
                latency_p99: Some(400),
                latency_hdr: sample_hist(),
            }],
            shapers: vec![ShaperReport {
                domain: 0,
                real_forwarded: 100,
                fakes_emitted: 30,
                accepted: 120,
                rejected: 2,
                fake_fraction: 30.0 / 130.0,
                mean_delay: Some(12.0),
            }],
            shaper_timelines: vec![ShaperTimelineReport {
                domain: 0,
                window: 1_000,
                windows: vec![crate::leak::ShaperWindow {
                    start_cycle: 0,
                    real: 4,
                    fake: 6,
                    mean_queue_depth: 1.5,
                    mean_slack: 3.0,
                }],
            }],
            dram: DramReport {
                refreshes: 4,
                dropped_responses: 0,
                energy: EnergyReport {
                    real_nj: 10.0,
                    fake_nj: 1.0,
                    refresh_nj: 0.5,
                    background_nj: 3.0,
                    total_suppressed_nj: 14.0,
                    total_unsuppressed_nj: 14.5,
                    fake_overhead: 0.1,
                },
            },
            banks: vec![BankReport {
                bank: 0,
                acts: 110,
                row_hits: 40,
                row_misses: 80,
                precharges: 109,
                faw_stall_cycles: 12,
            }],
            interference: Some(InterferenceReport {
                domains: 2,
                total_stall_cycles: 500,
                matrix: vec![vec![10, 200], vec![250, 40]],
                by_cause: vec![crate::leak::StallCauseCycles {
                    cause: "bank_busy".to_string(),
                    cycles: 500,
                }],
            }),
            interval_window: 1_000,
            intervals: vec![IntervalSample {
                start_cycle: 0,
                ipc: vec![0.5],
                bandwidth_gbps: vec![1.5],
            }],
            trace: TraceSummary {
                events_recorded: 42,
                events_dropped: 0,
            },
            engine: {
                let mut c = dg_prof::EngineCounters::with_poll_labels(["mem"]);
                c.tick();
                c.warp(100);
                c.scan();
                c.snapshot()
            },
        }
    }

    #[test]
    fn serde_round_trip() {
        let report = sample_report();
        let json = report.to_json();
        let back: RunReport = serde_json::from_str(&json).expect("report parses back");
        assert_eq!(back, report);
    }

    #[test]
    fn json_contains_hierarchy() {
        let json = sample_report().to_json();
        for key in [
            "\"meta\"",
            "\"cores\"",
            "\"domains\"",
            "\"shapers\"",
            "\"dram\"",
            "\"intervals\"",
            "\"fake_fraction\"",
            "\"banks\"",
            "\"interference\"",
            "\"shaper_timelines\"",
            "\"row_hits\"",
            "\"faw_stall_cycles\"",
            "\"engine\"",
            "\"skip_efficiency\"",
            "\"latency_hdr\"",
            "\"p999\"",
            "\"completion\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn energy_report_prices_counter() {
        let mut c = EnergyCounter::default();
        c.record_access(false, false);
        c.record_access(true, true);
        c.record_refresh();
        c.set_cycles(1_000);
        let p = PowerParams::default();
        let r = EnergyReport::from_counter(&c, &p);
        assert!(r.real_nj > 0.0);
        assert!(r.fake_nj > 0.0);
        assert!(r.refresh_nj > 0.0);
        assert!((r.total_suppressed_nj) <= r.total_unsuppressed_nj + 1e-9);
    }
}
