//! The interface `dg-system` uses to drive heterogeneous cores.

use dg_cache::SetAssocCache;
use dg_mem::MemorySubsystem;
use dg_obs::Tracer;
use dg_sim::clock::Cycle;
use dg_sim::types::{DomainId, MemResponse};

/// A simulated core: advanced one cycle at a time against the shared L3
/// and the memory subsystem.
pub trait Core: Send {
    /// The security domain this core belongs to.
    fn domain(&self) -> DomainId;

    /// Advances one CPU cycle. The core may look up the shared `l3` and
    /// issue requests into `mem`.
    ///
    /// **Back-pressure contract:** a refused request is retried every tick
    /// until accepted. The first request `mem` refuses during a tick is
    /// offered again, first, on the next tick; on a tick that
    /// [`Core::next_event_at`] declares idle, that single retry is the
    /// core's only call into `mem`. The event engine relies on this: a
    /// core whose only work is the retry may report itself parked
    /// (`None`), and the run loop credits the retries of the cycles it
    /// skips to the memory path ([`MemorySubsystem::settle_warp`]) instead
    /// of ticking them.
    fn tick(&mut self, now: Cycle, l3: &mut SetAssocCache, mem: &mut dyn MemorySubsystem);

    /// Delivers a completed memory response belonging to this core.
    fn on_response(&mut self, resp: &MemResponse, now: Cycle);

    /// True once the workload has fully retired (including draining
    /// outstanding misses and write-backs).
    fn finished(&self) -> bool;

    /// Instructions retired so far.
    fn instructions_retired(&self) -> u64;

    /// Cycle at which the core finished, if it has.
    fn finished_at(&self) -> Option<Cycle>;

    /// IPC over the interval `[0, end]` where `end` is the finish time (if
    /// finished) or `now` otherwise.
    fn ipc_at(&self, now: Cycle) -> f64 {
        let end = self.finished_at().unwrap_or(now).max(1);
        self.instructions_retired() as f64 / end as f64
    }

    /// Installs an observability tracer. Cores that emit trace events store
    /// the handle; the default ignores it.
    fn set_tracer(&mut self, _tracer: Tracer) {}

    /// HDR histogram of the simulated-cycle gaps between this core's
    /// instruction-completion events. Cores that do not track completion
    /// timing return the empty default.
    fn completion_snapshot(&self) -> dg_prof::HistSnapshot {
        dg_prof::HistSnapshot::default()
    }

    /// The earliest future cycle at which ticking this core could change
    /// state, given no responses arrive in between.
    ///
    /// - `Some(t)` with `t > now`: every tick in `[now, t)` is a no-op.
    /// - `Some(now)`: the core is active this cycle; no skipping.
    /// - `None`: the core advances only when [`Core::on_response`] is
    ///   called (or has nothing left to do); it schedules no event itself.
    ///   A core whose only per-cycle work is retrying a refused request is
    ///   parked too: the memory accepts the retry only at one of its own
    ///   events, which the engine never skips.
    ///
    /// The conservative default declares the core always active, which is
    /// correct for any implementation.
    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        Some(now)
    }
}
