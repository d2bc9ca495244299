//! Append-only JSONL events stream (`dg-run --events PATH`).
//!
//! Each line is one [`TelemetrySnapshot`] with a strictly increasing
//! `seq`. The stream follows the job journal's crash-tolerance contract:
//! a process killed mid-append may leave one partial final line, which a
//! resume repairs by truncating to the last valid line boundary;
//! corruption anywhere *before* the tail is an error, because an
//! append-only file can only ever be damaged at its end. Unlike the
//! journal the stream is observability, not recovery state, so appends
//! flush but do not fsync.

use dg_fault::{retry_io, truncate_torn_tail, FaultSink, IoPlan, IoStream, RetryPolicy};
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

use crate::telemetry::TelemetrySnapshot;

/// Result of scanning an existing events file.
#[derive(Debug)]
pub struct EventsScan {
    /// Every intact snapshot, in file order.
    pub snapshots: Vec<TelemetrySnapshot>,
    /// Highest `seq` among the intact snapshots (0 when empty).
    pub last_seq: u64,
    /// Whether a partial trailing line was found (and should be dropped).
    pub dropped_partial_tail: bool,
    /// Byte length of the valid prefix; truncate to this before appending.
    pub valid_len: u64,
}

/// Parses an events file, tolerating exactly one damaged final line.
pub fn scan_events(path: &Path) -> io::Result<EventsScan> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;

    let mut snapshots = Vec::new();
    let mut last_seq = 0u64;
    let mut valid_len = 0u64;
    let mut dropped_partial_tail = false;

    let mut offset = 0usize;
    let mut chunks = text.split_inclusive('\n').peekable();
    while let Some(chunk) = chunks.next() {
        let is_last = chunks.peek().is_none();
        let line = chunk.trim_end_matches('\n');
        let end = offset + chunk.len();
        if line.trim().is_empty() {
            valid_len = end as u64;
            offset = end;
            continue;
        }
        match serde_json::from_str::<TelemetrySnapshot>(line) {
            Ok(snap) => {
                last_seq = last_seq.max(snap.seq);
                snapshots.push(snap);
                valid_len = end as u64;
                offset = end;
            }
            Err(e) => {
                if is_last {
                    dropped_partial_tail = true;
                    break;
                }
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt events line before tail at byte {offset}: {e}"),
                ));
            }
        }
    }

    Ok(EventsScan {
        snapshots,
        last_seq,
        dropped_partial_tail,
        valid_len,
    })
}

/// Appends snapshots to an events file, stamping each with the next
/// sequence number.
///
/// Writes go through a [`FaultSink`] so transient interruptions retry at
/// the exact byte; with an unarmed [`IoPlan`] (the [`EventsWriter::open`]
/// path) the sink is a plain file writer.
pub struct EventsWriter {
    sink: FaultSink,
    retry: RetryPolicy,
    next_seq: u64,
}

impl EventsWriter {
    /// Opens the stream. With `resume` set, an existing file is scanned,
    /// a damaged tail repaired, and numbering continues after the highest
    /// surviving `seq` — so a resumed run extends the stream without
    /// duplicate snapshots. Without `resume` the file is recreated and
    /// numbering starts at 1.
    pub fn open(path: &Path, resume: bool) -> io::Result<(Self, bool)> {
        Self::open_faulted(path, resume, &IoPlan::none())
    }

    /// [`EventsWriter::open`] with an injectable fault plan.
    pub fn open_faulted(path: &Path, resume: bool, plan: &IoPlan) -> io::Result<(Self, bool)> {
        let mut repaired_tail = false;
        let next_seq = if resume && path.exists() {
            let scan = scan_events(path)?;
            if scan.dropped_partial_tail {
                truncate_torn_tail(path, scan.valid_len)?;
                repaired_tail = true;
            }
            scan.last_seq + 1
        } else {
            1
        };
        let sink = if resume && path.exists() {
            FaultSink::open_append(path, IoStream::Events, plan.clone())?
        } else {
            FaultSink::create(path, IoStream::Events, plan.clone())?
        };
        Ok((
            EventsWriter {
                sink,
                retry: RetryPolicy::default(),
                next_seq,
            },
            repaired_tail,
        ))
    }

    /// Stamps `snap.seq` and appends it as one line, retrying transient
    /// write errors in place. Unlike the journal there is no fsync —
    /// the stream is observability, not recovery state.
    pub fn append(&mut self, snap: &mut TelemetrySnapshot) -> io::Result<()> {
        snap.seq = self.next_seq;
        self.next_seq += 1;
        let line = serde_json::to_string(snap)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let Self { sink, retry, .. } = self;
        sink.stage(line.as_bytes());
        sink.stage(b"\n");
        retry_io(retry, || sink.drain())
    }

    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dg_mon_events_{name}_{}", std::process::id()))
    }

    fn blank() -> TelemetrySnapshot {
        TelemetrySnapshot {
            seq: 0,
            elapsed_ms: 0,
            total: 1,
            done: 0,
            succeeded: 0,
            failed: 0,
            skipped: 0,
            retries: 0,
            stalled: 0,
            sim_cycles: 0,
            supersteps: 0,
            skipped_cycles: 0,
            mcycles_per_sec: 0.0,
            eta_ms: None,
            groups: Vec::new(),
            workers: Vec::new(),
        }
    }

    #[test]
    fn writer_stamps_increasing_seqs() {
        let path = tmp("stamp");
        let (mut w, repaired) = EventsWriter::open(&path, false).unwrap();
        assert!(!repaired);
        for i in 0..3u64 {
            let mut s = blank();
            s.elapsed_ms = i * 100;
            w.append(&mut s).unwrap();
            assert_eq!(s.seq, i + 1);
        }
        drop(w);
        let scan = scan_events(&path).unwrap();
        assert_eq!(scan.snapshots.len(), 3);
        assert_eq!(scan.last_seq, 3);
        assert!(!scan.dropped_partial_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn resume_repairs_partial_tail_and_continues_numbering() {
        let path = tmp("repair");
        let (mut w, _) = EventsWriter::open(&path, false).unwrap();
        for _ in 0..2 {
            w.append(&mut blank()).unwrap();
        }
        drop(w);
        // Simulate a crash mid-append: a torn final line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        let keep = text.len();
        text.push_str("{\"seq\": 3, \"elapsed_ms\"");
        std::fs::write(&path, &text).unwrap();

        let (mut w, repaired) = EventsWriter::open(&path, true).unwrap();
        assert!(repaired);
        w.append(&mut blank()).unwrap();
        drop(w);

        let scan = scan_events(&path).unwrap();
        assert!(!scan.dropped_partial_tail);
        assert_eq!(scan.snapshots.len(), 3);
        let seqs: Vec<u64> = scan.snapshots.iter().map(|s| s.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3]);
        assert!(std::fs::metadata(&path).unwrap().len() > keep as u64);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_is_an_error() {
        let path = tmp("midfile");
        std::fs::write(&path, "not json\n{\"also\": \"bad\"}\n").unwrap();
        let err = scan_events(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fresh_open_truncates_existing_stream() {
        let path = tmp("fresh");
        let (mut w, _) = EventsWriter::open(&path, false).unwrap();
        w.append(&mut blank()).unwrap();
        drop(w);
        let (mut w, _) = EventsWriter::open(&path, false).unwrap();
        w.append(&mut blank()).unwrap();
        drop(w);
        let scan = scan_events(&path).unwrap();
        assert_eq!(scan.snapshots.len(), 1);
        assert_eq!(scan.last_seq, 1);
        std::fs::remove_file(&path).unwrap();
    }
}
