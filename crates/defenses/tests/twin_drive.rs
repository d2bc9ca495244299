//! The no-op contract of `DomainShaper::next_event_at`, checked on the
//! Camouflage shaper: a twin ticked only when its `next_event_at` is due (or
//! right after an accept or a response) must emit exactly what a twin
//! ticked on every cycle emits, and end in the same state. `ShapedMemory`
//! ticks its shapers that way under both engines, so no engine comparison
//! checks this claim.

use dg_defenses::{CamouflageShaper, IntervalDistribution};
use dg_dram::{AddressMapper, MapScheme};
use dg_mem::DomainShaper;
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::rng::DetRng;
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqId, ReqKind};

const CYCLES: Cycle = 30_000;

/// What a receiver sees of one emission: cycle, id, bank and kind.
type Emission = (Cycle, ReqId, u32, ReqKind);

/// Everything a run of one twin leaves behind: its emissions, and its
/// forwarded, fake and pending counts.
#[derive(Debug, PartialEq)]
struct Outcome {
    emissions: Vec<Emission>,
    counts: (u64, u64, usize),
}

/// Short profiled intervals, so the private queue fills and drains and
/// the transaction-queue space binds.
fn shaper(cfg: &SystemConfig, seed: u64) -> CamouflageShaper {
    let dist = IntervalDistribution::new(vec![3, 8, 20, 45]);
    CamouflageShaper::new(DomainId(0), dist, cfg, seed)
}

/// Drives `s` for [`CYCLES`] cycles against a seeded victim and a memory
/// of varying space and latency. The victim offers a fresh request with
/// some probability and retries a refused one on every cycle; every
/// emitted request completes 20–120 cycles later. With `lazy` the shaper
/// is ticked only when its `next_event_at` is due or it took an accept or
/// a response since its last tick; otherwise on every cycle.
fn drive(s: &mut CamouflageShaper, cfg: &SystemConfig, lazy: bool, seed: u64) -> (Outcome, u64) {
    let map = AddressMapper::new(
        MapScheme::BankInterleaved,
        cfg.dram_org.banks,
        cfg.dram_org.row_bytes,
        cfg.dram_org.line_bytes,
    );
    let domain = s.domain();
    let mut rng = DetRng::new(seed ^ 0x5eed);
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
        if offer.is_none() && rng.next_below(100) < 8 {
            next_id += 1;
            let addr = rng.next_below(1 << 24) * cfg.dram_org.line_bytes;
            let req = MemRequest::read(domain, addr, now);
            offer = Some(req.with_id(ReqId::compose(domain, next_id)));
        }
        if let Some(req) = offer.take() {
            match s.try_accept(req, now) {
                Ok(()) => woke = true,
                Err(req) => offer = Some(req),
            }
        }
        // Transaction-queue space varies, and is sometimes none.
        let space = rng.next_below(3) as usize;
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
    let counts = (s.forwarded(), s.fakes(), s.pending());
    (Outcome { emissions, counts }, ticks)
}

#[test]
fn camouflage_shaper_ticked_only_when_due_matches_every_cycle() {
    let cfg = SystemConfig::two_core();
    for seed in 0..4 {
        let (eager, eager_ticks) = drive(&mut shaper(&cfg, seed), &cfg, false, seed);
        let (lazy, lazy_ticks) = drive(&mut shaper(&cfg, seed), &cfg, true, seed);
        assert_eq!(eager_ticks, CYCLES);
        if let Some(i) =
            (0..eager.emissions.len()).find(|&i| eager.emissions.get(i) != lazy.emissions.get(i))
        {
            panic!(
                "seed {seed}: emission {i} differs: every cycle {:?}, lazy {:?}",
                eager.emissions[i],
                lazy.emissions.get(i)
            );
        }
        assert_eq!(eager, lazy, "seed {seed}: outcomes differ");
        let (forwarded, fakes, _) = eager.counts;
        assert!(
            forwarded > 1000 && fakes > 100,
            "seed {seed}: the drive must forward and fake: {:?}",
            eager.counts
        );
        assert!(
            lazy_ticks < CYCLES / 2,
            "seed {seed}: the lazy twin ticked {lazy_ticks} of {CYCLES} cycles"
        );
    }
}
