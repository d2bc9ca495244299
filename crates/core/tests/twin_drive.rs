//! The no-op contract of `DomainShaper::next_event_at`, checked on the
//! shapers themselves: a twin ticked only when its `next_event_at` is due
//! (or right after an accept or a response) must emit exactly what a twin
//! ticked on every cycle emits, and end with the same report. The same
//! holds one level up, for a `ShapedMemory` that runs its fake traffic
//! between contacts.

use dagguise::{Shaper, ShaperConfig};
use dg_dram::{AddressMapper, MapScheme};
use dg_mem::{
    DomainShaper, MemoryController, MemorySubsystem, PassThrough, SchedPolicy, ShapedMemory,
};
use dg_obs::ShaperReport;
use dg_rdag::template::RdagTemplate;
use dg_sim::clock::Cycle;
use dg_sim::config::{RowPolicy, SystemConfig};
use dg_sim::rng::DetRng;
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqId, ReqKind};

const CYCLES: Cycle = 30_000;

/// What a receiver sees of one emission: cycle, id, bank and kind.
type Emission = (Cycle, ReqId, u32, ReqKind);

/// Everything a run of one twin leaves behind.
#[derive(Debug, PartialEq)]
struct Outcome {
    emissions: Vec<Emission>,
    report: Option<ShaperReport>,
    pending: usize,
}

fn config() -> SystemConfig {
    SystemConfig::two_core()
}

fn mapper(cfg: &SystemConfig) -> AddressMapper {
    AddressMapper::new(
        MapScheme::BankInterleaved,
        cfg.dram_org.banks,
        cfg.dram_org.row_bytes,
        cfg.dram_org.line_bytes,
    )
}

/// Drives `s` for [`CYCLES`] cycles against a seeded victim and a memory
/// of varying space and latency. The victim offers a fresh request with
/// some probability and retries a refused one on every cycle; every
/// emitted request completes 20–120 cycles later. With `lazy` the shaper
/// is ticked only when its `next_event_at` is due or it took an accept or
/// a response since its last tick; otherwise on every cycle.
fn drive(s: &mut dyn DomainShaper, lazy: bool, seed: u64) -> (Outcome, u64) {
    let cfg = config();
    let map = mapper(&cfg);
    let domain = s.domain();
    let mut rng = DetRng::new(seed);
    let mut offer: Option<MemRequest> = None;
    let mut next_id = 0;
    let mut in_flight: Vec<(Cycle, MemRequest)> = Vec::new();
    let mut emissions = Vec::new();
    let mut buf = Vec::new();
    let (mut woke, mut ticks) = (false, 0);
    for now in 0..CYCLES {
        // Responses due this cycle, in emission order.
        let mut i = 0;
        while i < in_flight.len() {
            if in_flight[i].0 == now {
                let (_, req) = in_flight.remove(i);
                let resp = MemResponse {
                    id: req.id,
                    domain: req.domain,
                    addr: req.addr,
                    req_type: req.req_type,
                    kind: req.kind,
                    arrived_at: req.created_at,
                    completed_at: now,
                };
                s.on_response(&resp, now);
                woke = true;
            } else {
                i += 1;
            }
        }
        // The victim: a new request now and then, a refused one every cycle.
        if offer.is_none() && rng.next_below(100) < 30 {
            next_id += 1;
            let addr = rng.next_below(1 << 24) * cfg.dram_org.line_bytes;
            let req = if rng.next_bool(0.2) {
                MemRequest::write(domain, addr, now)
            } else {
                MemRequest::read(domain, addr, now)
            };
            offer = Some(req.with_id(ReqId::compose(domain, next_id)));
        }
        if let Some(req) = offer.take() {
            match s.try_accept(req, now) {
                Ok(()) => woke = true,
                Err(req) => offer = Some(req),
            }
        }
        // Transaction-queue space varies, and is sometimes none.
        let space = rng.next_below(4) as usize;
        let due = s.next_event_at(now).is_some_and(|t| t <= now);
        if !lazy || due || woke {
            woke = false;
            ticks += 1;
            buf.clear();
            s.tick_into(now, space, &mut buf);
            assert!(buf.len() <= space, "emitted past the advertised space");
            for req in buf.drain(..) {
                emissions.push((now, req.id, map.decode(req.addr).bank, req.kind));
                let latency = 20 + (req.id.0 ^ now) % 101;
                in_flight.push((now + latency, req));
            }
        }
    }
    let outcome = Outcome {
        emissions,
        report: s.report(),
        pending: s.pending(),
    };
    (outcome, ticks)
}

/// Runs an every-cycle twin and a lazy twin built by `make`, and checks
/// they agree; returns the eager outcome and the lazy twin's tick count.
fn twins(make: impl Fn() -> Box<dyn DomainShaper>, seed: u64, what: &str) -> (Outcome, u64) {
    let (eager, eager_ticks) = drive(make().as_mut(), false, seed);
    let (lazy, lazy_ticks) = drive(make().as_mut(), true, seed);
    assert_eq!(eager_ticks, CYCLES);
    assert_eq!(
        eager.emissions.len(),
        lazy.emissions.len(),
        "{what}, seed {seed}: emission counts differ"
    );
    if let Some(i) = (0..eager.emissions.len()).find(|&i| eager.emissions[i] != lazy.emissions[i]) {
        panic!(
            "{what}, seed {seed}: emission {i} differs: every cycle {:?}, lazy {:?}",
            eager.emissions[i], lazy.emissions[i]
        );
    }
    assert_eq!(eager, lazy, "{what}, seed {seed}: reports differ");
    (eager, lazy_ticks)
}

#[test]
fn dagguise_shaper_ticked_only_when_due_matches_every_cycle() {
    let cfg = config();
    for (seqs, weight, writes) in [(4, 100, 0.01), (4, 25, 0.25), (8, 50, 0.125)] {
        let template = RdagTemplate::new(seqs, weight, writes);
        let what = format!("template ({seqs}, {weight}, {writes})");
        for seed in 0..4 {
            let (out, lazy_ticks) = twins(
                || {
                    Box::new(Shaper::new(ShaperConfig::from_system(
                        DomainId(0),
                        template,
                        &cfg,
                    )))
                },
                seed,
                &what,
            );
            let r = out.report.expect("a DAGguise shaper reports");
            assert!(
                r.real_forwarded > 0 && r.fakes_emitted > 0 && r.rejected > 0,
                "{what}: the drive must forward, fake and refuse: {r:?}"
            );
            assert!(
                lazy_ticks < CYCLES / 2,
                "{what}: the lazy twin ticked {lazy_ticks} of {CYCLES} cycles"
            );
        }
    }
}

#[test]
fn pass_through_ticked_only_when_due_matches_every_cycle() {
    for seed in 0..4 {
        let (out, lazy_ticks) = twins(
            || Box::new(PassThrough::new(DomainId(1), 8)),
            seed,
            "pass-through",
        );
        assert!(
            out.emissions.len() > 1000,
            "{} emissions",
            out.emissions.len()
        );
        assert!(lazy_ticks < CYCLES, "the lazy twin ticked every cycle");
    }
}

/// A DAGguise-shaped memory as the system builds it: closed-row FR-FCFS,
/// a shaper for domain 0 and a pass-through front for domain 1.
fn shaped_memory(template: RdagTemplate) -> ShapedMemory<MemoryController> {
    let mut cfg = config();
    cfg.row_policy = RowPolicy::Closed;
    let shapers: Vec<Box<dyn DomainShaper>> = vec![
        Box::new(Shaper::new(ShaperConfig::from_system(
            DomainId(0),
            template,
            &cfg,
        ))),
        Box::new(PassThrough::new(DomainId(1), 16)),
    ];
    ShapedMemory::new(MemoryController::new(&cfg, SchedPolicy::FrFcfs), shapers)
}

/// Sparse real sends from both domains: long quiet stretches between
/// short bursts, over the first half of `horizon`.
fn sparse_sends(seed: u64, horizon: Cycle) -> Vec<(Cycle, MemRequest)> {
    let cfg = config();
    let mut rng = DetRng::new(seed);
    let mut sends = Vec::new();
    let mut now = 0;
    let mut id = 0;
    while now < horizon / 2 {
        now += if rng.next_bool(0.7) {
            rng.next_below(5)
        } else {
            2_000 + rng.next_below(6_000)
        };
        id += 1;
        let d = DomainId(rng.next_below(2) as u16);
        let addr = rng.next_below(1 << 24) * cfg.dram_org.line_bytes;
        let req = if rng.next_bool(0.05) {
            MemRequest::write(d, addr, now)
        } else {
            MemRequest::read(d, addr, now)
        };
        sends.push((now, req.with_id(ReqId::compose(d, id))));
    }
    sends
}

/// What a core and a report see of one shaped-memory run.
#[derive(Debug, PartialEq)]
struct MemOutcome {
    /// (tick cycle, id, completion cycle) of every response.
    responses: Vec<(Cycle, ReqId, Cycle)>,
    /// The cycles of refused sends.
    refused: Vec<Cycle>,
    stats: String,
    interference: Option<dg_obs::InterferenceReport>,
    shapers: Vec<ShaperReport>,
}

/// How a twin decides which cycles to tick.
type Promise = fn(&ShapedMemory<MemoryController>, Cycle) -> Option<Cycle>;

/// Drives `mem` over `sends` for `horizon` cycles: every cycle, or only at
/// the cycles `promise` names and at sends. A span skipped after a
/// promised event is settled, as the engine settles its warps; a span
/// skipped after a `None` promise is not — the memory runs what it left
/// out, settlement included, at its next contact. Sends follow the tick of
/// their cycle, and a refused one is dropped. Returns the outcome after a
/// final settle of the empty span at `horizon`, and the number of ticks.
fn drive_memory(
    mut mem: ShapedMemory<MemoryController>,
    sends: &[(Cycle, MemRequest)],
    horizon: Cycle,
    promise: Option<Promise>,
) -> (MemOutcome, u64) {
    let (mut responses, mut refused) = (Vec::new(), Vec::new());
    let (mut buf, mut next, mut ticks) = (Vec::new(), 0, 0);
    let mut now = 0;
    while now < horizon {
        buf.clear();
        mem.tick_into(now, &mut buf);
        ticks += 1;
        responses.extend(buf.iter().map(|r| (now, r.id, r.completed_at)));
        while let Some(&(at, req)) = sends.get(next).filter(|(at, _)| *at <= now) {
            debug_assert_eq!(at, now, "a send was skipped");
            if mem.try_send(req, now).is_err() {
                refused.push(now);
            }
            next += 1;
        }
        now += 1;
        if let Some(promise) = promise {
            let event = promise(&mem, now);
            let send = sends.get(next).map_or(horizon, |&(at, _)| at.max(now));
            let to = event.map_or(horizon, |t| t.max(now)).min(send).min(horizon);
            if event.is_some() && to > now {
                mem.settle_warp(now, to, &[]);
            }
            now = to;
        }
    }
    mem.settle_warp(horizon, horizon, &[]);
    let outcome = MemOutcome {
        responses,
        refused,
        stats: format!("{:?}", mem.stats()),
        interference: mem.interference(),
        shapers: mem.shaper_reports(),
    };
    (outcome, ticks)
}

#[test]
fn shaped_memory_ticked_only_at_promises_and_sends_matches_every_cycle() {
    const HORIZON: Cycle = 120_000;
    for (seqs, weight, writes) in [(4, 100, 0.01), (2, 40, 0.25)] {
        let template = RdagTemplate::new(seqs, weight, writes);
        for seed in 0..3 {
            let what = format!("template ({seqs}, {weight}, {writes}), seed {seed}");
            let sends = sparse_sends(seed, HORIZON);
            let drive = |promise| drive_memory(shaped_memory(template), &sends, HORIZON, promise);
            let (every, _) = drive(None);
            let (eager, eager_ticks) = drive(Some(MemorySubsystem::next_event_at_eager));
            let (lazy, lazy_ticks) = drive(Some(MemorySubsystem::next_event_at));
            let r = &every.shapers[0];
            assert!(
                r.real_forwarded > 0 && r.fakes_emitted > 10 * r.real_forwarded,
                "{what}: the drive must be mostly fake traffic: {r:?}"
            );
            assert!(every.responses.len() > 20, "{what}: {every:?}");
            assert_eq!(every.responses, lazy.responses, "{what}: responses differ");
            assert_eq!(every, lazy, "{what}: lazy end state differs");
            assert_eq!(every, eager, "{what}: eager end state differs");
            // Fakes never wake the lazy twin: it ticks around the real
            // requests only.
            assert!(
                lazy_ticks * 2 < eager_ticks,
                "{what}: {lazy_ticks} lazy ticks, {eager_ticks} eager"
            );
        }
    }
}
