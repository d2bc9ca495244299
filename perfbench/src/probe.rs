//! Outside-in instrumentation of the core layer.
//!
//! [`Probe::wrap`] puts a [`TimedCore`] around any `dg-cpu` core before it
//! is handed to `SystemBuilder::core`. The wrapper times every call the
//! system makes into the core, and wraps the `&mut dyn MemorySubsystem`
//! the core receives each tick in a [`FrontDoor`] that times and counts
//! the core's requests into memory. It also captures the exact call
//! sequence the cores observe at the memory boundary — which cycles were
//! ticked, which responses arrived, and which requests were offered with
//! what outcome — for replay against a benchmark-assembled memory stack
//! (see [`crate::replay`]). Nothing inside the simulator is modified.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_mem::{MemStats, MemorySubsystem};
use dg_obs::{InterferenceReport, ShaperReport, ShaperTimelineReport, Tracer};
use dg_prof::HistSnapshot;
use dg_sim::clock::Cycle;
use dg_sim::types::{DomainId, MemRequest, MemResponse};

use crate::measure::nanos;

/// Adds `v` to a relaxed counter.
pub fn bump(c: &AtomicU64, v: u64) {
    c.fetch_add(v, Ordering::Relaxed);
}

/// Reads a relaxed counter.
pub fn get(c: &AtomicU64) -> u64 {
    c.load(Ordering::Relaxed)
}

/// One call the cores observed at the memory boundary, in call order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Ev {
    /// A response delivered to a core at `now`.
    Resp { now: Cycle, resp: MemResponse },
    /// The system ticked cycle `now` (logged once per cycle, after that
    /// cycle's responses and before its requests).
    Tick { now: Cycle },
    /// A core offered `req` at `now`; `accepted` is the memory's answer.
    Send {
        now: Cycle,
        req: MemRequest,
        accepted: bool,
    },
}

impl Ev {
    /// The cycle the call happened in.
    pub fn cycle(&self) -> Cycle {
        match *self {
            Ev::Resp { now, .. } | Ev::Tick { now } | Ev::Send { now, .. } => now,
        }
    }
}

/// Totals accumulated by every wrapped core of one system.
#[derive(Debug, Default)]
pub struct CoreTally {
    pub tick_calls: AtomicU64,
    pub tick_ns: AtomicU64,
    /// Time inside front-door wrappers during core ticks (the memory's
    /// own `try_send` time plus the wrapper's bookkeeping).
    pub front_ns: AtomicU64,
    pub next_event_calls: AtomicU64,
    pub next_event_ns: AtomicU64,
    pub on_response_calls: AtomicU64,
    pub on_response_ns: AtomicU64,
    pub try_send_calls: AtomicU64,
    pub try_send_rejects: AtomicU64,
    /// Time the memory subsystem itself spent in `try_send`.
    pub try_send_ns: AtomicU64,
}

/// Shared instrumentation state of one system's cores: call timings and
/// the memory-boundary call log.
#[derive(Clone, Default)]
pub struct Probe {
    pub tally: Arc<CoreTally>,
    capture: Arc<Mutex<Vec<Ev>>>,
}

impl Probe {
    /// Wraps `core`. Exactly one core per system must be the `lead`: it
    /// logs the per-cycle tick marker.
    pub fn wrap(&self, core: Box<dyn Core>, lead: bool) -> Box<dyn Core> {
        Box::new(TimedCore {
            inner: core,
            lead,
            probe: self.clone(),
        })
    }

    /// Takes the calls captured so far, leaving the log empty.
    pub fn drain(&self) -> Vec<Ev> {
        std::mem::take(&mut *self.capture.lock().expect("capture log"))
    }

    fn log(&self, ev: Ev) {
        self.capture.lock().expect("capture log").push(ev);
    }
}

/// A core whose every call from the system is timed.
struct TimedCore {
    inner: Box<dyn Core>,
    lead: bool,
    probe: Probe,
}

impl Core for TimedCore {
    fn domain(&self) -> DomainId {
        self.inner.domain()
    }

    fn tick(&mut self, now: Cycle, l3: &mut SetAssocCache, mem: &mut dyn MemorySubsystem) {
        if self.lead {
            self.probe.log(Ev::Tick { now });
        }
        let t = &self.probe.tally;
        let mut front = FrontDoor {
            inner: mem,
            probe: &self.probe,
            wrapper_ns: 0,
        };
        let t0 = Instant::now();
        self.inner.tick(now, l3, &mut front);
        bump(&t.tick_ns, nanos(t0));
        bump(&t.tick_calls, 1);
        bump(&t.front_ns, front.wrapper_ns);
    }

    fn on_response(&mut self, resp: &MemResponse, now: Cycle) {
        let t0 = Instant::now();
        self.inner.on_response(resp, now);
        bump(&self.probe.tally.on_response_ns, nanos(t0));
        bump(&self.probe.tally.on_response_calls, 1);
        self.probe.log(Ev::Resp { now, resp: *resp });
    }

    fn finished(&self) -> bool {
        self.inner.finished()
    }

    fn instructions_retired(&self) -> u64 {
        self.inner.instructions_retired()
    }

    fn finished_at(&self) -> Option<Cycle> {
        self.inner.finished_at()
    }

    fn ipc_at(&self, now: Cycle) -> f64 {
        self.inner.ipc_at(now)
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn completion_snapshot(&self) -> HistSnapshot {
        self.inner.completion_snapshot()
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let t0 = Instant::now();
        let ev = self.inner.next_event_at(now);
        bump(&self.probe.tally.next_event_ns, nanos(t0));
        bump(&self.probe.tally.next_event_calls, 1);
        ev
    }
}

/// The memory front door as one core sees it during one tick.
struct FrontDoor<'a> {
    inner: &'a mut dyn MemorySubsystem,
    probe: &'a Probe,
    /// Time spent inside this wrapper, bookkeeping included, so the core's
    /// self time excludes all of it.
    wrapper_ns: u64,
}

impl MemorySubsystem for FrontDoor<'_> {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let t0 = Instant::now();
        let r = self.inner.try_send(req, now);
        let t = &self.probe.tally;
        bump(&t.try_send_ns, nanos(t0));
        bump(&t.try_send_calls, 1);
        if r.is_err() {
            bump(&t.try_send_rejects, 1);
        }
        self.probe.log(Ev::Send {
            now,
            req,
            accepted: r.is_ok(),
        });
        self.wrapper_ns += nanos(t0);
        r
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        self.inner.tick_into(now, out);
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        self.inner.next_event_at(now)
    }

    fn stats(&self) -> &MemStats {
        self.inner.stats()
    }

    fn stats_mut(&mut self) -> &mut MemStats {
        self.inner.stats_mut()
    }

    fn refresh_stats(&mut self) {
        self.inner.refresh_stats();
    }

    fn free_slots(&self) -> usize {
        self.inner.free_slots()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn shaper_reports(&self) -> Vec<ShaperReport> {
        self.inner.shaper_reports()
    }

    fn interference(&self) -> Option<InterferenceReport> {
        self.inner.interference()
    }

    fn enable_shaper_timelines(&mut self, window: Cycle) {
        self.inner.enable_shaper_timelines(window);
    }

    fn shaper_timelines(&self) -> Vec<ShaperTimelineReport> {
        self.inner.shaper_timelines()
    }
}
