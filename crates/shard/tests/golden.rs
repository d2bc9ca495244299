//! Whole-run golden pins: FNV-1a hashes of `run_colocation` reports
//! (engine section zeroed — it describes how simulated time was covered,
//! not what happened), event traces and interval samples, for every memory
//! kind on the direct-wired topology and for both defenses of interest on
//! the NoC topology at one and two shards. A refactor of the simulation
//! engine must leave every hash unchanged.

#[allow(dead_code)]
mod common;

use common::stream;
use dg_defenses::IntervalDistribution;
use dg_fault::SimFaultKind;
use dg_obs::chrome_trace_json;
use dg_rdag::template::RdagTemplate;
use dg_shard::{run_colocation, RunOpts, RunOutput};
use dg_sim::config::SystemConfig;
use dg_system::MemoryKind;

const BUDGET: u64 = 100_000_000;

/// 64-bit FNV-1a.
fn fnv(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

fn traces() -> Vec<dg_cpu::MemTrace> {
    vec![
        stream(250, 0, 64 * 97, 20),
        stream(800, 1 << 30, 64 * 131, 8),
    ]
}

fn two_channels() -> SystemConfig {
    let mut cfg = SystemConfig::two_core();
    cfg.dram_org.channels = 2;
    cfg
}

fn dagguise() -> MemoryKind {
    MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
    }
}

fn kinds() -> Vec<MemoryKind> {
    vec![
        MemoryKind::Insecure,
        dagguise(),
        MemoryKind::FixedService,
        MemoryKind::FsBta,
        MemoryKind::FsSpatial,
        MemoryKind::TemporalPartition {
            slots_per_period: 8,
        },
        MemoryKind::Camouflage {
            protected: vec![Some(IntervalDistribution::figure2()), None],
        },
    ]
}

fn run(cfg: &SystemConfig, kind: &MemoryKind, opts: RunOpts) -> RunOutput {
    run_colocation(cfg, traces(), kind.clone(), opts)
        .unwrap_or_else(|e| panic!("{}: {e:?}", kind.label()))
}

/// The hash of the report with its engine section zeroed.
fn report_hash(out: &RunOutput) -> String {
    let mut report = out.report.clone();
    report.engine = Default::default();
    fnv(&report.to_json())
}

fn check(pins: &[(&str, &str)], got: &[(String, String)]) {
    let got: Vec<(&str, &str)> = got.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
    assert_eq!(got, pins, "golden hashes moved");
}

#[test]
fn direct_topology_reports_are_pinned_for_every_memory_kind() {
    let got: Vec<(String, String)> = kinds()
        .iter()
        .map(|kind| {
            let out = run(&SystemConfig::two_core(), kind, RunOpts::new(BUDGET));
            (kind.label().to_string(), report_hash(&out))
        })
        .collect();
    check(
        &[
            ("insecure", "ff76f83e672e5402"),
            ("dagguise", "f7d68fbfa1aa5390"),
            ("fixed_service", "eee6251ae8bb6882"),
            ("fs_bta", "03ccd57740b04966"),
            ("fs_spatial", "e4139301e0d96577"),
            ("temporal_partition", "425de3db14b1d2c3"),
            ("camouflage", "00e0ee0809153b71"),
        ],
        &got,
    );
}

#[test]
fn direct_topology_two_channel_reports_are_pinned() {
    let got: Vec<(String, String)> = [MemoryKind::Insecure, dagguise()]
        .iter()
        .map(|kind| {
            let out = run(&two_channels(), kind, RunOpts::new(BUDGET));
            (kind.label().to_string(), report_hash(&out))
        })
        .collect();
    check(
        &[
            ("insecure", "2d20ecd99a21fc8c"),
            ("dagguise", "a8f9902cf0815807"),
        ],
        &got,
    );
}

#[test]
fn stuck_bank_report_is_pinned() {
    let out = run(
        &SystemConfig::two_core(),
        &MemoryKind::Insecure,
        RunOpts {
            fault: Some(SimFaultKind::StuckBank {
                at: 2_000,
                hold: 10_000,
            }),
            ..RunOpts::new(BUDGET)
        },
    );
    check(
        &[("stuck_bank", "a367c963c91b8d6e")],
        &[("stuck_bank".to_string(), report_hash(&out))],
    );
}

#[test]
fn observed_run_report_events_and_intervals_are_pinned() {
    let out = run(
        &SystemConfig::two_core(),
        &dagguise(),
        RunOpts {
            trace_capacity: Some(1 << 16),
            metrics_window: Some(5_000),
            ..RunOpts::new(BUDGET)
        },
    );
    assert!(!out.events.is_empty() && !out.report.intervals.is_empty());
    let intervals = serde_json::to_string(&out.report.intervals).expect("samples serialize");
    check(
        &[
            ("report", "4b169587217277d0"),
            ("events", "3369c4bc7edafaf5"),
            ("intervals", "2ab74eb454cefd0d"),
        ],
        &[
            ("report".to_string(), report_hash(&out)),
            ("events".to_string(), fnv(&chrome_trace_json(&out.events))),
            ("intervals".to_string(), fnv(&intervals)),
        ],
    );
}

#[test]
fn noc_topology_reports_are_pinned_at_one_and_two_shards() {
    let mut got = Vec::new();
    for kind in [MemoryKind::Insecure, dagguise()] {
        for shards in [1, 2] {
            let out = run(
                &two_channels(),
                &kind,
                RunOpts {
                    shards: Some(shards),
                    ..RunOpts::new(BUDGET)
                },
            );
            got.push((format!("{}/{shards}", kind.label()), report_hash(&out)));
        }
    }
    check(
        &[
            ("insecure/1", "646904f1c6c61b7b"),
            ("insecure/2", "646904f1c6c61b7b"),
            ("dagguise/1", "4a54e497e1e43460"),
            ("dagguise/2", "4a54e497e1e43460"),
        ],
        &got,
    );
}
