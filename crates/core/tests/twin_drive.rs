//! The no-op contract of `DomainShaper::next_event_at`, checked on the
//! shapers themselves: a twin ticked only when its `next_event_at` is due
//! (or right after an accept or a response) must emit exactly what a twin
//! ticked on every cycle emits, and end with the same report.

use dagguise::{Shaper, ShaperConfig};
use dg_dram::{AddressMapper, MapScheme};
use dg_mem::{DomainShaper, PassThrough};
use dg_obs::ShaperReport;
use dg_rdag::template::RdagTemplate;
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
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
