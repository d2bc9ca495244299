//! Property test for the PDES safety invariant: no memory subsystem acts
//! earlier than its last `next_event_at(now)` promise. Conservative
//! sharding leans entirely on this contract — a component acting before
//! its promise would need a message the barrier has not delivered yet —
//! so every memory path a channel can be built from is replayed against
//! random schedules, naive vs promise-skipping.

use dg_rdag::template::RdagTemplate;
use dg_shard::{check_lookahead_contract, Schedule};
use dg_sim::config::SystemConfig;
use dg_sim::types::{DomainId, MemRequest, ReqId};
use dg_system::{build_memory, MemoryKind};
use proptest::prelude::*;

const DOMAINS: usize = 2;

fn kinds() -> Vec<MemoryKind> {
    vec![
        MemoryKind::Insecure,
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(4, 100, 0.001)), None],
        },
        MemoryKind::Camouflage {
            protected: vec![Some(dg_defenses::IntervalDistribution::figure2()), None],
        },
        MemoryKind::TemporalPartition {
            slots_per_period: 8,
        },
        MemoryKind::FixedService,
        MemoryKind::FsBta,
        MemoryKind::FsSpatial,
    ]
}

/// Random timed request schedules: bursty arrivals (gap 0) mixed with
/// idle spans long enough to make skipping meaningful.
fn schedules() -> impl Strategy<Value = Schedule> {
    prop::collection::vec(
        (
            0u64..400,     // gap to the previous send
            0u64..1 << 20, // line-granular address entropy
            0u16..DOMAINS as u16,
            any::<bool>(),
        ),
        1..40,
    )
    .prop_map(|steps| {
        let mut now = 0u64;
        steps
            .into_iter()
            .enumerate()
            .map(|(i, (gap, line, domain, is_write))| {
                now += gap;
                let addr = line * 64;
                let d = DomainId(domain);
                let req = if is_write {
                    MemRequest::write(d, addr, now)
                } else {
                    MemRequest::read(d, addr, now)
                };
                (now, req.with_id(ReqId::compose(d, i as u64 + 1)))
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn promises_hold_on_every_memory_path(sends in schedules()) {
        let cfg = SystemConfig::two_core();
        for kind in kinds() {
            let make = || build_memory(&cfg, kind.clone(), DOMAINS);
            if let Err(v) = check_lookahead_contract(make, &sends, 30_000) {
                panic!("{} violated the lookahead contract: {v}", kind.label());
            }
        }
    }
}

/// The traced core workload used by the determinism oracle also stresses
/// the contract through the full system; keep a direct regression seed
/// here for the bursty arrival pattern that most easily exposes stale
/// promises (back-to-back sends straddling a refresh boundary).
#[test]
fn burst_straddling_refresh_keeps_promises() {
    let cfg = SystemConfig::two_core();
    let mut sends: Schedule = Vec::new();
    for i in 0..32u64 {
        let d = DomainId((i % 2) as u16);
        sends.push((
            3_100 + i, // near a tREFI boundary in CPU cycles
            MemRequest::read(d, i * 64 * 131, 3_100 + i).with_id(ReqId::compose(d, i + 1)),
        ));
    }
    for kind in kinds() {
        let make = || build_memory(&cfg, kind.clone(), DOMAINS);
        check_lookahead_contract(make, &sends, 40_000)
            .unwrap_or_else(|v| panic!("{} violated the contract: {v}", kind.label()));
    }
}
