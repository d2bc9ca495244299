//! Memory-internal layers, timed by capture/replay.
//!
//! The system builds its memory path privately, so its controller and
//! shapers cannot be wrapped in place. Instead the benchmark assembles the
//! same DAGguise stack itself from public constructors — `ShapedMemory`
//! over a timed `MemoryController`, with a timed `Shaper` or `PassThrough`
//! per domain — and feeds it the call sequence captured at the cores'
//! memory boundary ([`crate::probe::Ev`]). Every response must match the
//! captured one in cycle, domain and id, and every request must meet the
//! same accept/reject answer; any divergence is an error.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Instant;

use dagguise::{Shaper, ShaperConfig};
use dg_mem::{
    DomainShaper, MemStats, MemoryController, MemorySubsystem, PassThrough, SchedPolicy,
    ShapedMemory,
};
use dg_obs::{InterferenceReport, ShaperReport, ShaperTimelineReport, Tracer};
use dg_rdag::template::RdagTemplate;
use dg_sim::clock::Cycle;
use dg_sim::config::{RowPolicy, SystemConfig};
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqKind};

use crate::measure::nanos;
use crate::probe::{bump, Ev};

/// Totals accumulated by one replay stack.
#[derive(Debug, Default)]
pub struct MemTally {
    /// Whole-stack `tick_into` time (controller, DRAM and shapers).
    pub tick_ns: AtomicU64,
    /// Whole-stack `next_event_at` time.
    pub next_event_ns: AtomicU64,
    /// Controller `tick_into` time, DRAM device included.
    pub ctrl_tick_ns: AtomicU64,
    pub shaper_tick_ns: AtomicU64,
    pub shaper_accept_ns: AtomicU64,
    pub shaper_on_response_ns: AtomicU64,
    pub shaper_next_event_ns: AtomicU64,
    /// All calls into pass-through fronts of unprotected domains.
    pub passthrough_ns: AtomicU64,
    /// Requests the DAGguise shapers emitted, and how many were fake.
    pub emitted: AtomicU64,
    pub fakes: AtomicU64,
    /// Cycles replayed and responses checked.
    pub cycles: AtomicU64,
    pub responses: AtomicU64,
}

/// Times `f`, charging the elapsed nanoseconds to `c`.
fn timed<R>(c: &AtomicU64, f: impl FnOnce() -> R) -> R {
    let t0 = Instant::now();
    let r = f();
    bump(c, nanos(t0));
    r
}

/// A memory controller whose scheduling tick is timed.
struct TimedCtrl {
    inner: MemoryController,
    tally: Arc<MemTally>,
}

impl MemorySubsystem for TimedCtrl {
    fn try_send(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        self.inner.try_send(req, now)
    }

    fn tick_into(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        timed(&self.tally.ctrl_tick_ns, || self.inner.tick_into(now, out));
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

/// A per-domain shaper whose every call is timed: DAGguise shapers under
/// the `shaper_*` counters, pass-through fronts under `passthrough_ns`.
struct TimedShaper {
    inner: Box<dyn DomainShaper>,
    dagguise: bool,
    tally: Arc<MemTally>,
}

impl TimedShaper {
    fn counter<'a>(&'a self, dagguise: &'a AtomicU64) -> &'a AtomicU64 {
        if self.dagguise {
            dagguise
        } else {
            &self.tally.passthrough_ns
        }
    }
}

impl DomainShaper for TimedShaper {
    fn domain(&self) -> DomainId {
        self.inner.domain()
    }

    fn try_accept(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        let t0 = Instant::now();
        let r = self.inner.try_accept(req, now);
        bump(self.counter(&self.tally.shaper_accept_ns), nanos(t0));
        r
    }

    fn tick_into(&mut self, now: Cycle, space: usize, out: &mut Vec<MemRequest>) {
        let before = out.len();
        let t0 = Instant::now();
        self.inner.tick_into(now, space, out);
        bump(self.counter(&self.tally.shaper_tick_ns), nanos(t0));
        if self.dagguise {
            let emitted = &out[before..];
            bump(&self.tally.emitted, emitted.len() as u64);
            let fakes = emitted.iter().filter(|r| r.kind == ReqKind::Fake).count();
            bump(&self.tally.fakes, fakes as u64);
        }
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let t0 = Instant::now();
        let ev = self.inner.next_event_at(now);
        bump(self.counter(&self.tally.shaper_next_event_ns), nanos(t0));
        ev
    }

    fn on_response(&mut self, resp: &MemResponse, now: Cycle) -> Option<MemResponse> {
        let t0 = Instant::now();
        let r = self.inner.on_response(resp, now);
        bump(self.counter(&self.tally.shaper_on_response_ns), nanos(t0));
        r
    }

    fn pending(&self) -> usize {
        self.inner.pending()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.inner.set_tracer(tracer);
    }

    fn report(&self) -> Option<ShaperReport> {
        self.inner.report()
    }

    fn enable_timeline(&mut self, window: Cycle) {
        self.inner.enable_timeline(window);
    }

    fn timeline(&self) -> Option<ShaperTimelineReport> {
        self.inner.timeline()
    }
}

/// The DAGguise memory path exactly as `MemoryKind::Dagguise` builds it for
/// a single channel — closed-row FR-FCFS, one shaper per protected domain,
/// pass-through elsewhere — assembled from public constructors, with every
/// layer timed into `tally`. `cfg` is the system's configuration.
pub fn dagguise_stack(
    cfg: &SystemConfig,
    protected: &[Option<RdagTemplate>],
    tally: &Arc<MemTally>,
) -> Box<dyn MemorySubsystem> {
    let mut cfg = cfg.clone();
    cfg.cores = protected.len();
    cfg.row_policy = RowPolicy::Closed;
    let ctrl = TimedCtrl {
        inner: MemoryController::new(&cfg, SchedPolicy::FrFcfs),
        tally: Arc::clone(tally),
    };
    let shapers = protected
        .iter()
        .enumerate()
        .map(|(i, t)| -> Box<dyn DomainShaper> {
            let d = DomainId(i as u16);
            let inner: Box<dyn DomainShaper> = match t {
                Some(template) => {
                    Box::new(Shaper::new(ShaperConfig::from_system(d, *template, &cfg)))
                }
                None => Box::new(PassThrough::new(d, cfg.queues.transaction_queue)),
            };
            Box::new(TimedShaper {
                inner,
                dagguise: t.is_some(),
                tally: Arc::clone(tally),
            })
        })
        .collect();
    Box::new(ShapedMemory::new(ctrl, shapers))
}

#[cfg(test)]
/// The insecure open-row controller with no shapers, timed the same way.
/// Replaying a DAGguise capture into it must be detected as divergence.
pub fn insecure_stack(
    cfg: &SystemConfig,
    domains: usize,
    tally: &Arc<MemTally>,
) -> Box<dyn MemorySubsystem> {
    let mut cfg = cfg.clone();
    cfg.cores = domains;
    cfg.row_policy = RowPolicy::Open;
    Box::new(TimedCtrl {
        inner: MemoryController::new(&cfg, SchedPolicy::FrFcfs),
        tally: Arc::clone(tally),
    })
}

/// Drives a replay stack through captured calls, chunk by chunk.
pub struct Replayer {
    mem: Box<dyn MemorySubsystem>,
    tally: Arc<MemTally>,
    out: Vec<MemResponse>,
    /// The last replayed cycle and the stack's next event after it, kept
    /// across chunks to check the next ticked cycle against it.
    last: Option<(Cycle, Option<Cycle>)>,
}

impl Replayer {
    /// Replays into `mem`, whose layers report into `tally`.
    pub fn new(mem: Box<dyn MemorySubsystem>, tally: Arc<MemTally>) -> Self {
        Self {
            mem,
            tally,
            out: Vec::new(),
            last: None,
        }
    }

    /// Replays `evs`, which continue any previously fed chunk.
    ///
    /// # Errors
    ///
    /// Describes the first divergence from the captured sequence.
    pub fn feed(&mut self, evs: &[Ev]) -> Result<(), String> {
        let t = Arc::clone(&self.tally);
        let mut i = 0;
        while i < evs.len() {
            let now = evs[i].cycle();
            if let Some((prev, next)) = self.last {
                if now <= prev {
                    return Err(format!("capture out of order: cycle {now} after {prev}"));
                }
                // The system only skips cycles its memory declared idle.
                if now > prev + 1 && next.is_some_and(|n| n < now) {
                    return Err(format!(
                        "system skipped to cycle {now} past the stack's event at {next:?}"
                    ));
                }
            }
            self.out.clear();
            let (mem, out) = (&mut self.mem, &mut self.out);
            timed(&t.tick_ns, || mem.tick_into(now, out));
            let mut k = 0;
            while let Some(Ev::Resp { now: at, resp }) = evs.get(i) {
                if *at != now {
                    break;
                }
                match self.out.get(k) {
                    Some(r)
                        if r.id == resp.id
                            && r.domain == resp.domain
                            && r.completed_at == resp.completed_at => {}
                    got => {
                        return Err(format!(
                            "cycle {now}: captured response {:?}/{} (domain {}), replay gave {:?}",
                            resp.id,
                            resp.completed_at,
                            resp.domain,
                            got.map(|r| (r.id, r.completed_at, r.domain))
                        ))
                    }
                }
                k += 1;
                i += 1;
            }
            if k != self.out.len() {
                return Err(format!(
                    "cycle {now}: replay produced {} responses, capture saw {k}",
                    self.out.len()
                ));
            }
            bump(&t.responses, k as u64);
            match evs.get(i) {
                Some(Ev::Tick { now: at }) if *at == now => i += 1,
                other => {
                    return Err(format!(
                        "cycle {now}: expected tick marker, found {other:?}"
                    ))
                }
            }
            while let Some(Ev::Send {
                now: at,
                req,
                accepted,
            }) = evs.get(i)
            {
                if *at != now {
                    break;
                }
                if self.mem.try_send(*req, now).is_ok() != *accepted {
                    return Err(format!(
                        "cycle {now}: request {:?} was {} in capture but not in replay",
                        req.id,
                        if *accepted { "accepted" } else { "rejected" }
                    ));
                }
                i += 1;
            }
            let mem = &self.mem;
            let next = timed(&t.next_event_ns, || mem.next_event_at(now + 1));
            self.last = Some((now, next));
            bump(&t.cycles, 1);
        }
        Ok(())
    }
}
