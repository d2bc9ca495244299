//! The injectable IO facade: a file sink that consults a fault plan.
//!
//! [`FaultSink`] is the write path the runner's durable artifacts go
//! through. Callers *stage* a whole record (one JSONL line), then
//! *drain* it to the file; the sink tracks its cumulative byte position,
//! so a retried drain after an injected `EINTR` or partial write resumes
//! at the exact byte where the last attempt stopped — never duplicating
//! a prefix mid-file. With an empty [`IoPlan`] every operation is a
//! plain passthrough to the file.

use crate::plan::{IoFault, IoFaultKind, IoStream};
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// `ENOSPC` as a raw OS error, so `io::Error::raw_os_error` round-trips
/// exactly like a real full disk.
const ENOSPC: i32 = 28;
/// `EINTR` as a raw OS error. Maps to `ErrorKind::Interrupted`.
const EINTR: i32 = 4;

/// One scheduled fault plus how many times it has fired.
#[derive(Debug)]
struct PlannedFault {
    fault: IoFault,
    fired: u32,
}

impl PlannedFault {
    fn armed(&self) -> bool {
        self.fault.times == 0 || self.fired < self.fault.times
    }
}

/// A shared, clonable fault plan. The default (and [`IoPlan::none`]) is
/// unarmed: sinks short-circuit every check, so a plan-free run takes
/// exactly the passthrough path. Cloning shares fire counts — the same
/// plan handed to the journal writer and the events writer is one
/// budgeted schedule, not two.
#[derive(Debug, Clone, Default)]
pub struct IoPlan {
    inner: Option<Arc<Mutex<Vec<PlannedFault>>>>,
}

impl IoPlan {
    /// The unarmed plan: every sink operation is a passthrough.
    pub fn none() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit faults.
    pub fn from_faults(faults: Vec<IoFault>) -> Self {
        if faults.is_empty() {
            return Self::none();
        }
        let planned = faults
            .into_iter()
            .map(|fault| PlannedFault { fault, fired: 0 })
            .collect();
        Self {
            inner: Some(Arc::new(Mutex::new(planned))),
        }
    }

    /// Parses `stream@byte:kind[xN]` specs (see [`IoFault::parse`]) into
    /// one plan.
    ///
    /// # Errors
    ///
    /// Returns the first parse failure.
    pub fn parse<S: AsRef<str>>(specs: &[S]) -> Result<Self, String> {
        let faults = specs
            .iter()
            .map(|s| IoFault::parse(s.as_ref()))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self::from_faults(faults))
    }

    /// Consults the plan for a write of `len` bytes starting at stream
    /// position `pos`. Returns the fault kind to inject plus the armed
    /// byte offset (the split point for partial writes), marking the
    /// fault fired.
    fn take_write_fault(&self, stream: IoStream, pos: u64, len: u64) -> Option<(IoFaultKind, u64)> {
        let inner = self.inner.as_ref()?;
        let mut plan = inner.lock().expect("fault plan lock");
        for p in plan.iter_mut() {
            if p.fault.stream != stream || !p.armed() {
                continue;
            }
            let hit = match p.fault.kind {
                // The disk is full from `at_byte`: any write that would
                // carry the stream past it fails.
                IoFaultKind::Enospc => pos + len > p.fault.at_byte,
                // Interruptions hit the write that crosses the offset.
                IoFaultKind::Eintr | IoFaultKind::Partial => {
                    pos <= p.fault.at_byte && p.fault.at_byte < pos + len
                }
                IoFaultKind::FsyncFail => false,
            };
            if hit {
                p.fired += 1;
                return Some((p.fault.kind, p.fault.at_byte));
            }
        }
        None
    }

    /// Consults the plan for an fsync at stream position `pos`.
    fn take_sync_fault(&self, stream: IoStream, pos: u64) -> bool {
        let Some(inner) = self.inner.as_ref() else {
            return false;
        };
        let mut plan = inner.lock().expect("fault plan lock");
        for p in plan.iter_mut() {
            if p.fault.stream == stream
                && p.fault.kind == IoFaultKind::FsyncFail
                && p.armed()
                && pos >= p.fault.at_byte
            {
                p.fired += 1;
                return true;
            }
        }
        false
    }
}

fn enospc_error(stream: IoStream, pos: u64) -> io::Error {
    // Raw errno, not `ErrorKind::StorageFull` by name: raw_os_error is
    // what real ENOSPC carries and what classification keys on.
    let os = io::Error::from_raw_os_error(ENOSPC);
    io::Error::new(
        os.kind(),
        format!("injected ENOSPC on {} stream at byte {pos}", stream.label()),
    )
}

fn eintr_error(stream: IoStream, pos: u64) -> io::Error {
    let os = io::Error::from_raw_os_error(EINTR);
    io::Error::new(
        os.kind(),
        format!("injected EINTR on {} stream at byte {pos}", stream.label()),
    )
}

fn partial_error(stream: IoStream, wrote: u64, total: u64) -> io::Error {
    io::Error::new(
        io::ErrorKind::Interrupted,
        format!(
            "injected partial write on {} stream: {wrote} of {total} bytes transferred",
            stream.label()
        ),
    )
}

fn fsync_error(stream: IoStream, pos: u64) -> io::Error {
    io::Error::other(format!(
        "injected fsync failure (EIO) on {} stream at byte {pos}",
        stream.label()
    ))
}

/// A record-oriented file sink that consults an [`IoPlan`] on every
/// write and fsync.
///
/// The staging buffer is the unit of durability: callers stage one
/// logical record (bytes), then drain. A drain that fails part-way keeps
/// the untransferred remainder staged, so retrying the drain continues
/// from the exact byte offset — the invariant that makes transient-fault
/// retry safe for append-only JSONL files.
#[derive(Debug)]
pub struct FaultSink {
    file: File,
    stream: IoStream,
    plan: IoPlan,
    /// Cumulative bytes actually written to the file through this sink
    /// (starting from the pre-existing length when opened for append).
    pos: u64,
    /// Staged-but-unwritten bytes.
    pending: Vec<u8>,
}

impl FaultSink {
    /// Opens (creating parent directories as needed) a file for
    /// appending; the fault-plan position starts at the existing length.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn open_append(path: &Path, stream: IoStream, plan: IoPlan) -> io::Result<Self> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let pos = file.metadata()?.len();
        Ok(Self {
            file,
            stream,
            plan,
            pos,
            pending: Vec::new(),
        })
    }

    /// Creates (truncating) a file; the fault-plan position starts at 0.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors.
    pub fn create(path: &Path, stream: IoStream, plan: IoPlan) -> io::Result<Self> {
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir)?;
        }
        Ok(Self {
            file: File::create(path)?,
            stream,
            plan,
            pos: 0,
            pending: Vec::new(),
        })
    }

    /// Stages bytes for the next [`FaultSink::drain`]. Staging never
    /// fails; faults fire on the write path.
    pub fn stage(&mut self, bytes: &[u8]) {
        self.pending.extend_from_slice(bytes);
    }

    /// Writes all staged bytes to the file, consulting the fault plan.
    /// On an injected partial write, the transferred prefix is unstaged
    /// (and counted into the position) before the error returns, so a
    /// retry picks up exactly where the fault struck.
    ///
    /// # Errors
    ///
    /// Injected faults or real filesystem errors.
    pub fn drain(&mut self) -> io::Result<()> {
        while !self.pending.is_empty() {
            let len = self.pending.len() as u64;
            if let Some((kind, at)) = self.plan.take_write_fault(self.stream, self.pos, len) {
                match kind {
                    IoFaultKind::Enospc => return Err(enospc_error(self.stream, self.pos)),
                    IoFaultKind::Eintr => return Err(eintr_error(self.stream, self.pos)),
                    IoFaultKind::Partial => {
                        let keep = (at.saturating_sub(self.pos)).min(len) as usize;
                        self.file.write_all(&self.pending[..keep])?;
                        self.pending.drain(..keep);
                        self.pos += keep as u64;
                        return Err(partial_error(self.stream, keep as u64, len));
                    }
                    IoFaultKind::FsyncFail => unreachable!("fsync faults fire on sync"),
                }
            }
            self.file.write_all(&self.pending)?;
            self.pos += len;
            self.pending.clear();
        }
        Ok(())
    }

    /// Syncs file data to disk, consulting the fault plan.
    ///
    /// # Errors
    ///
    /// An injected fsync failure or a real one.
    pub fn sync_data(&mut self) -> io::Result<()> {
        if self.plan.take_sync_fault(self.stream, self.pos) {
            return Err(fsync_error(self.stream, self.pos));
        }
        self.file.sync_data()
    }

    /// Cumulative bytes written through this sink (including any
    /// pre-existing length when opened for append).
    pub fn position(&self) -> u64 {
        self.pos
    }
}

/// Truncates an append-only JSONL file to its valid prefix — everything
/// up to the last well-formed line — and syncs the truncation to disk.
/// A torn tail left in place would sit mid-file once appending resumes.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn truncate_torn_tail(path: &Path, valid_len: u64) -> io::Result<()> {
    let file = OpenOptions::new().write(true).open(path)?;
    file.set_len(valid_len)?;
    file.sync_data()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dg_fault_sink_{name}_{}", std::process::id()))
    }

    fn plan(specs: &[&str]) -> IoPlan {
        IoPlan::parse(specs).unwrap()
    }

    #[test]
    fn unarmed_plan_is_passthrough() {
        let path = tmp("passthrough");
        let mut sink = FaultSink::create(&path, IoStream::Journal, IoPlan::none()).unwrap();
        sink.stage(b"hello\n");
        sink.drain().unwrap();
        sink.sync_data().unwrap();
        assert_eq!(sink.position(), 6);
        assert_eq!(std::fs::read(&path).unwrap(), b"hello\n");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn enospc_is_persistent_and_write_atomic() {
        let path = tmp("enospc");
        let mut sink =
            FaultSink::create(&path, IoStream::Journal, plan(&["journal@10:enospc"])).unwrap();
        sink.stage(b"0123456789"); // exactly fills the "disk"
        sink.drain().unwrap();
        sink.stage(b"x");
        let err = sink.drain().unwrap_err();
        assert_eq!(err.kind(), io::Error::from_raw_os_error(28).kind());
        // Still full on every retry; nothing leaked to the file.
        assert!(sink.drain().is_err());
        assert!(!sink.pending.is_empty());
        assert_eq!(std::fs::read(&path).unwrap(), b"0123456789");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn eintr_fires_n_times_then_clears() {
        let path = tmp("eintr");
        let mut sink =
            FaultSink::create(&path, IoStream::Events, plan(&["events@0:eintrx2"])).unwrap();
        sink.stage(b"abc");
        assert_eq!(sink.drain().unwrap_err().kind(), io::ErrorKind::Interrupted);
        assert_eq!(sink.drain().unwrap_err().kind(), io::ErrorKind::Interrupted);
        sink.drain().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"abc");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn partial_write_resumes_at_exact_byte() {
        let path = tmp("partial");
        let mut sink =
            FaultSink::create(&path, IoStream::Journal, plan(&["journal@4:partial"])).unwrap();
        sink.stage(b"0123456789");
        let err = sink.drain().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert_eq!(sink.position(), 4);
        assert!(!sink.pending.is_empty());
        // The retry writes only the remainder — no duplicated prefix.
        sink.drain().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"0123456789");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn fsync_fault_fires_at_offset() {
        let path = tmp("fsync");
        let mut sink =
            FaultSink::create(&path, IoStream::Journal, plan(&["journal@4:fsyncx1"])).unwrap();
        sink.stage(b"ab");
        sink.drain().unwrap();
        sink.sync_data().unwrap(); // position 2 < 4: not armed yet
        sink.stage(b"cd");
        sink.drain().unwrap();
        assert!(sink.sync_data().is_err());
        sink.sync_data().unwrap(); // x1: fired out
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn streams_are_independent() {
        let path = tmp("streams");
        let shared = plan(&["journal@0:enospc"]);
        let mut sink = FaultSink::create(&path, IoStream::Events, shared).unwrap();
        sink.stage(b"ok");
        sink.drain().unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn append_positions_after_existing_bytes() {
        let path = tmp("append_pos");
        std::fs::write(&path, b"12345").unwrap();
        let sink = FaultSink::open_append(&path, IoStream::Journal, IoPlan::none()).unwrap();
        assert_eq!(sink.position(), 5);
        std::fs::remove_file(&path).unwrap();
    }
}
