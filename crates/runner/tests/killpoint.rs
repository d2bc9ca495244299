//! Randomized kill-point recovery harness: a sweep killed at *any* byte
//! offset of its journal — and of its events stream — must resume to a
//! merged report byte-identical to an uninterrupted run.
//!
//! The harness crashes a reference sweep at ≥50 distinct seeded offsets
//! (the issue's acceptance floor) by truncating the on-disk files to a
//! prefix, exactly what a `kill -9` mid-append leaves behind. Jobs are
//! synthetic (pure functions of the job seed) so each recovery cycle is
//! microseconds, not simulation time.

use dg_runner::runner::run_sweep;
use dg_runner::{JobCtx, JobDesc, RunnerConfig};
use dg_sim::error::SimError;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::time::Duration;

struct TestJob {
    id: String,
}

impl JobDesc for TestJob {
    fn id(&self) -> &str {
        &self.id
    }
}

/// A deterministic, instant "simulation": output is a pure function of
/// the ctx seed, like every real executor is contracted to be.
fn exec(_job: &TestJob, ctx: &JobCtx) -> Result<u64, SimError> {
    Ok(ctx.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7)
}

fn jobs() -> Vec<TestJob> {
    (0..9)
        .map(|i| TestJob {
            id: format!("kp/job-{i}"),
        })
        .collect()
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("dg_killpoint_{name}_{}", std::process::id()))
}

fn quiet() -> RunnerConfig {
    RunnerConfig {
        jobs: 2,
        verbose: false,
        ..RunnerConfig::default()
    }
}

/// SplitMix64: the harness's own offsets are seeded, not random, so a
/// failing offset reproduces exactly.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Draws `n` distinct offsets in `[0, len]` from a seeded stream.
fn seeded_offsets(seed: u64, n: usize, len: usize) -> Vec<usize> {
    let mut state = seed;
    let mut seen = BTreeSet::new();
    let mut out = Vec::new();
    while out.len() < n {
        let off = (splitmix(&mut state) as usize) % (len + 1);
        if seen.insert(off) {
            out.push(off);
        }
    }
    out
}

#[test]
fn every_journal_crash_offset_resumes_byte_identical() {
    let jobs = jobs();
    let reference = run_sweep(&quiet(), &jobs, exec).unwrap();
    let reference = reference.merged_report_json("kp");

    // A complete journal to carve crash prefixes from.
    let journal = tmp("journal");
    let _ = std::fs::remove_file(&journal);
    let mut cfg = quiet();
    cfg.journal = Some(journal.clone());
    run_sweep(&cfg, &jobs, exec).unwrap();
    let full = std::fs::read(&journal).unwrap();
    assert!(full.len() > 200, "journal too small to be interesting");

    let offsets = seeded_offsets(0xDA66_0001, 40, full.len());
    for &off in &offsets {
        std::fs::write(&journal, &full[..off]).unwrap();
        let mut cfg = quiet();
        cfg.resume = Some(journal.clone());
        let resumed = run_sweep(&cfg, &jobs, exec)
            .unwrap_or_else(|e| panic!("resume after crash at byte {off} failed: {e}"));
        assert_eq!(
            resumed.merged_report_json("kp"),
            reference,
            "crash at journal byte {off}: resumed report diverged"
        );
        assert_eq!(
            resumed.progress.skipped + resumed.progress.succeeded,
            jobs.len() as u64,
            "crash at journal byte {off}: job accounting broken"
        );
    }
    assert!(offsets.len() >= 40);
    std::fs::remove_file(&journal).unwrap();
}

#[test]
fn every_events_crash_offset_resumes_byte_identical() {
    let jobs = jobs();
    let reference = run_sweep(&quiet(), &jobs, exec).unwrap();
    let reference = reference.merged_report_json("kp");

    // A complete journal + events stream to carve crash prefixes from.
    // A short sampling interval guarantees the stream has content even
    // though the synthetic jobs are instant.
    let journal = tmp("ev_journal");
    let events = tmp("events");
    let _ = std::fs::remove_file(&journal);
    let _ = std::fs::remove_file(&events);
    let mut cfg = quiet();
    cfg.journal = Some(journal.clone());
    cfg.monitor.events = Some(events.clone());
    cfg.monitor.interval = Some(Duration::from_millis(1));
    run_sweep(&cfg, &jobs, exec).unwrap();
    let full_journal = std::fs::read(&journal).unwrap();
    let full_events = std::fs::read(&events).unwrap();
    assert!(!full_events.is_empty(), "events stream never flushed");

    // One crash tears both files: pair each events offset with a journal
    // offset from an independent seeded stream.
    let ev_offsets = seeded_offsets(0xDA66_0002, 16, full_events.len());
    let jr_offsets = seeded_offsets(0xDA66_0003, 16, full_journal.len());
    for (&ev_off, &jr_off) in ev_offsets.iter().zip(&jr_offsets) {
        std::fs::write(&events, &full_events[..ev_off]).unwrap();
        std::fs::write(&journal, &full_journal[..jr_off]).unwrap();
        let mut cfg = quiet();
        cfg.resume = Some(journal.clone());
        cfg.monitor.events = Some(events.clone());
        cfg.monitor.interval = Some(Duration::from_millis(1));
        let resumed = run_sweep(&cfg, &jobs, exec).unwrap_or_else(|e| {
            panic!("resume after crash at events byte {ev_off} / journal byte {jr_off}: {e}")
        });
        assert_eq!(
            resumed.merged_report_json("kp"),
            reference,
            "crash at events byte {ev_off} / journal byte {jr_off}: report diverged"
        );
        // The repaired stream must still be a valid, monotone JSONL log.
        let scan = dg_mon::scan_events(&events)
            .unwrap_or_else(|e| panic!("events unscannable after crash at byte {ev_off}: {e}"));
        let seqs: Vec<u64> = scan.snapshots.iter().map(|s| s.seq).collect();
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            seqs.len(),
            "crash at events byte {ev_off}: duplicate seqs after repair"
        );
    }
    std::fs::remove_file(&journal).unwrap();
    std::fs::remove_file(&events).unwrap();
}
