//! Crash-safe append-only job journal.
//!
//! One JSON object per line, flushed *and fsynced* after every terminal job
//! completion, so a sweep killed at any instant loses at most the line
//! being written. `dg-run --resume <journal>` replays the file, skips jobs
//! that already succeeded, and re-runs the rest; a truncated or corrupt
//! *trailing* line (the kill-mid-write case) is dropped with a warning,
//! while corruption earlier in the file is reported as an error — that is
//! not a crash artifact but a damaged journal.

use crate::job::JobRecord;
use dg_fault::{retry_io, FaultSink, IoPlan, IoStream, RetryPolicy};
use serde::{DeError, Deserialize, Serialize, Value};
use std::fs::File;
use std::io::{self, Read};
use std::path::Path;

/// One journal line: a terminal [`JobRecord`] plus non-canonical wall-clock
/// accounting (kept out of merged reports, which must be deterministic).
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry<R> {
    /// The stable job id.
    pub id: String,
    /// Attempts consumed.
    pub attempts: u32,
    /// The job's result when it succeeded.
    pub output: Option<R>,
    /// The failure message when it did not.
    pub error: Option<String>,
    /// Wall-clock milliseconds spent across all attempts (display only).
    pub wall_ms: u64,
}

impl<R> JournalEntry<R> {
    /// The deterministic portion of the entry.
    pub fn into_record(self) -> JobRecord<R> {
        JobRecord {
            id: self.id,
            attempts: self.attempts,
            output: self.output,
            error: self.error,
        }
    }
}

// Hand-written impls: the vendored serde derive does not handle generics.
impl<R: Serialize> Serialize for JournalEntry<R> {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("id".to_string(), self.id.to_value()),
            ("attempts".to_string(), self.attempts.to_value()),
            ("output".to_string(), self.output.to_value()),
            ("error".to_string(), self.error.to_value()),
            ("wall_ms".to_string(), self.wall_ms.to_value()),
        ])
    }
}

impl<R: Deserialize> Deserialize for JournalEntry<R> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::custom("expected object for JournalEntry"))?;
        Ok(JournalEntry {
            id: Deserialize::from_value(serde::field(m, "id")?)?,
            attempts: Deserialize::from_value(serde::field(m, "attempts")?)?,
            output: Deserialize::from_value(serde::field(m, "output")?)?,
            error: Deserialize::from_value(serde::field(m, "error")?)?,
            wall_ms: Deserialize::from_value(serde::field(m, "wall_ms")?)?,
        })
    }
}

/// Appends journal lines with write-through durability.
///
/// Writes go through a [`FaultSink`], so an injected (or real) transient
/// interruption is retried in place — the sink's staged-record design
/// resumes a partial write at the exact byte, never duplicating a line
/// prefix mid-file. With an unarmed [`IoPlan`] (the
/// [`JournalWriter::open_append`] path) the sink is a plain file writer.
pub struct JournalWriter {
    sink: FaultSink,
    retry: RetryPolicy,
}

impl JournalWriter {
    /// Opens (creating directories as needed) a journal for appending.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(path: &Path) -> io::Result<Self> {
        Self::open_append_faulted(path, &IoPlan::none())
    }

    /// [`JournalWriter::open_append`] with an injectable fault plan.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append_faulted(path: &Path, plan: &IoPlan) -> io::Result<Self> {
        Ok(Self {
            sink: FaultSink::open_append(path, IoStream::Journal, plan.clone())?,
            retry: RetryPolicy::default(),
        })
    }

    /// Appends one entry as a JSON line and fsyncs it to disk before
    /// returning, so a kill after this call can never lose the entry.
    /// Transient write errors (`EINTR`, partial writes) are retried with
    /// bounded backoff; persistent ones (`ENOSPC`, fsync failure) surface
    /// to the caller, whose cue is to degrade, not to spin.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn append<R: Serialize>(&mut self, entry: &JournalEntry<R>) -> io::Result<()> {
        let line = serde_json::to_string(entry)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        let Self { sink, retry } = self;
        sink.stage(line.as_bytes());
        sink.stage(b"\n");
        retry_io(retry, || sink.drain())?;
        retry_io(retry, || sink.sync_data())
    }
}

/// The result of replaying a journal file.
#[derive(Debug)]
pub struct JournalReplay<R> {
    /// Entries in file order (duplicates possible across resumes; callers
    /// should treat the *last* entry per id as authoritative).
    pub entries: Vec<JournalEntry<R>>,
    /// Whether a partial/corrupt trailing line was dropped.
    pub dropped_partial_tail: bool,
    /// Byte length of the valid prefix — everything up to and including
    /// the last well-formed line. When a partial tail was dropped, the
    /// file must be truncated to this length ([`dg_fault::truncate_torn_tail`])
    /// before appending, or the half-written line would end up mid-file and
    /// poison the next resume.
    pub valid_len: u64,
}

/// Replays a journal file written by [`JournalWriter`].
///
/// A malformed *final* line is tolerated (a sweep killed mid-write leaves
/// exactly that artifact) and reported via
/// [`JournalReplay::dropped_partial_tail`]. A malformed line anywhere
/// earlier is an error.
///
/// # Errors
///
/// Filesystem errors, or `InvalidData` on mid-file corruption.
pub fn replay_journal<R: Deserialize>(path: &Path) -> io::Result<JournalReplay<R>> {
    let mut text = String::new();
    File::open(path)?.read_to_string(&mut text)?;

    // Non-empty lines with the byte offset just past each line's newline,
    // so `valid_len` can point at the end of the last well-formed line.
    let mut lines: Vec<(&str, u64)> = Vec::new();
    let mut offset = 0u64;
    for raw in text.split_inclusive('\n') {
        offset += raw.len() as u64;
        let content = raw.trim_end_matches(['\n', '\r']);
        if !content.trim().is_empty() {
            lines.push((content, offset));
        }
    }

    let mut entries = Vec::with_capacity(lines.len());
    let mut dropped_partial_tail = false;
    let mut valid_len = 0u64;
    for (i, (line, end)) in lines.iter().enumerate() {
        match serde_json::from_str::<JournalEntry<R>>(line) {
            Ok(e) => {
                entries.push(e);
                valid_len = *end;
            }
            Err(err) if i + 1 == lines.len() => {
                dg_mon::log_warn!(
                    "dropping partial trailing journal line: {err}";
                    "bytes" => line.len()
                );
                dropped_partial_tail = true;
            }
            Err(err) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("corrupt journal line {}: {err}", i + 1),
                ));
            }
        }
    }
    Ok(JournalReplay {
        entries,
        dropped_partial_tail,
        valid_len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("dg_runner_journal_{name}_{}", std::process::id()));
        p
    }

    fn entry(id: &str, out: u64) -> JournalEntry<u64> {
        JournalEntry {
            id: id.to_string(),
            attempts: 1,
            output: Some(out),
            error: None,
            wall_ms: 3,
        }
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = tmp("round_trip");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&entry("a", 1)).unwrap();
        w.append(&entry("b", 2)).unwrap();
        drop(w);
        let replay = replay_journal::<u64>(&path).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert!(!replay.dropped_partial_tail);
        assert_eq!(replay.entries[1].output, Some(2));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_tail_is_dropped() {
        let path = tmp("truncated");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&entry("a", 1)).unwrap();
        drop(w);
        // Simulate a kill mid-write: a half-written JSON line at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"id\":\"b\",\"atte");
        std::fs::write(&path, text).unwrap();
        let replay = replay_journal::<u64>(&path).unwrap();
        assert_eq!(replay.entries.len(), 1);
        assert!(replay.dropped_partial_tail);

        // Repairing to the valid prefix makes the file appendable again.
        dg_fault::truncate_torn_tail(&path, replay.valid_len).unwrap();
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&entry("b", 2)).unwrap();
        drop(w);
        let replay = replay_journal::<u64>(&path).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert!(!replay.dropped_partial_tail);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn mid_file_corruption_errors() {
        let path = tmp("corrupt_mid");
        let _ = std::fs::remove_file(&path);
        std::fs::write(
            &path,
            "garbage\n{\"id\":\"a\",\"attempts\":1,\"output\":1,\"error\":null,\"wall_ms\":0}\n",
        )
        .unwrap();
        let err = replay_journal::<u64>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn missing_file_is_an_error() {
        assert!(replay_journal::<u64>(Path::new("/nonexistent/journal.jsonl")).is_err());
    }

    #[test]
    fn empty_and_newline_only_files_replay_cleanly() {
        for (name, contents) in [("empty", ""), ("newlines", "\n\n\n"), ("crlf", "\r\n\r\n")] {
            let path = tmp(name);
            std::fs::write(&path, contents).unwrap();
            let replay = replay_journal::<u64>(&path).unwrap();
            assert!(replay.entries.is_empty(), "{name}");
            assert!(!replay.dropped_partial_tail, "{name}");
            assert_eq!(replay.valid_len, 0, "{name}");
            // The "repair" degenerates to truncating to zero — and the
            // file stays appendable.
            dg_fault::truncate_torn_tail(&path, replay.valid_len).unwrap();
            let mut w = JournalWriter::open_append(&path).unwrap();
            w.append(&entry("a", 1)).unwrap();
            drop(w);
            assert_eq!(replay_journal::<u64>(&path).unwrap().entries.len(), 1);
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn garbage_interleaved_with_valid_lines_is_rejected() {
        // An append-only journal can only ever be damaged at its end;
        // garbage *between* valid lines means something else rewrote the
        // file, and resuming from it silently would be worse than failing.
        let path = tmp("interleaved");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&entry("a", 1)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("!!! not json !!!\n");
        std::fs::write(&path, &text).unwrap();
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&entry("b", 2)).unwrap();
        drop(w);

        let err = replay_journal::<u64>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(
            err.to_string().contains("line 2"),
            "diagnosis should name the damaged line: {err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn two_damaged_trailing_lines_are_not_a_tail() {
        // Tolerance extends to exactly one torn line: two bad lines in a
        // row cannot come from one kill-mid-append.
        let path = tmp("double_tail");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&entry("a", 1)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"id\":\"b\"\n{\"id\":\"c\",\"atte");
        std::fs::write(&path, &text).unwrap();
        let err = replay_journal::<u64>(&path).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicate_ids_replay_in_order_so_the_last_wins() {
        // Resume cycles legitimately append a second terminal entry for
        // the same id (e.g. a job that failed, then succeeded on the
        // re-run). Replay preserves file order; the runner's resume map
        // inserts in order, so the last entry is authoritative.
        let path = tmp("dup_ids");
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::open_append(&path).unwrap();
        w.append(&JournalEntry::<u64> {
            id: "a".into(),
            attempts: 1,
            output: None,
            error: Some("transient".into()),
            wall_ms: 1,
        })
        .unwrap();
        w.append(&entry("a", 42)).unwrap();
        drop(w);
        let replay = replay_journal::<u64>(&path).unwrap();
        assert_eq!(replay.entries.len(), 2);
        assert_eq!(replay.entries[0].error.as_deref(), Some("transient"));
        assert_eq!(replay.entries[1].output, Some(42));

        // Through the runner: the failed first entry must not shadow the
        // later success — the job is skipped, keeping the journaled 42.
        struct J;
        impl crate::job::JobDesc for J {
            fn id(&self) -> &str {
                "a"
            }
        }
        let cfg = crate::runner::RunnerConfig {
            jobs: 1,
            verbose: false,
            resume: Some(path.clone()),
            ..Default::default()
        };
        let out = crate::runner::run_sweep(&cfg, &[J], |_j: &J, _c: &_| Ok(7u64)).unwrap();
        assert_eq!(out.progress.skipped, 1, "last entry wins, job skipped");
        assert_eq!(out.records[0].output, Some(42));
        std::fs::remove_file(&path).unwrap();
    }
}
