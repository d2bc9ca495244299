//! Figure 5: the running example — shaping two secret-dependent request
//! patterns onto one defense rDAG, and adapting to a co-runner's phases.
//!
//! Part (a)/(b): a victim emits requests every 100 cycles (secret 0) or
//! every 200 cycles (secret 1); shaped by a 150-weight chain rDAG, the
//! output schedules coincide exactly.
//!
//! Part (c)/(d): with a co-running application alternating between a slow
//! phase (300-cycle intervals) and a fast phase (25-cycle intervals), the
//! shaper's injection intervals stretch from ~250 to ~325 cycles — the
//! adaptivity property.

use dagguise::{Shaper, ShaperConfig};
use dg_mem::{DomainShaper, MemoryController, MemorySubsystem, SchedPolicy};
use dg_rdag::template::RdagTemplate;
use dg_sim::clock::Cycle;
use dg_sim::config::{RowPolicy, SystemConfig};
use dg_sim::types::{DomainId, MemRequest, ReqId};
use dg_system::MemoryKind;
use serde::Serialize;

fn cfg() -> SystemConfig {
    let mut c = SystemConfig::two_core();
    c.clock_ratio = dg_sim::clock::ClockRatio::new(1);
    c.row_policy = RowPolicy::Closed;
    c
}

/// Shapes a victim that emits a request every `victim_gap` cycles and
/// returns the shaper's emission schedule over a fixed-latency memory.
fn shape_victim(victim_gap: Cycle, horizon: Cycle) -> Vec<Cycle> {
    let c = cfg();
    let mut shaper = Shaper::new(ShaperConfig::from_system(
        DomainId(0),
        RdagTemplate::new(1, 150, 0.0),
        &c,
    ));
    let latency = 100; // the example's fixed DRAM latency
    let mut emissions = Vec::new();
    let mut in_flight: Vec<(Cycle, MemRequest)> = Vec::new();
    let mut next_victim = 0;
    let mut k = 0u64;
    for now in 0..horizon {
        let mut i = 0;
        while i < in_flight.len() {
            if in_flight[i].0 <= now {
                let (when, req) = in_flight.swap_remove(i);
                let resp = dg_sim::types::MemResponse {
                    id: req.id,
                    domain: req.domain,
                    addr: req.addr,
                    req_type: req.req_type,
                    kind: req.kind,
                    arrived_at: when - latency,
                    completed_at: when,
                };
                shaper.on_response(&resp, now);
            } else {
                i += 1;
            }
        }
        if now >= next_victim {
            k += 1;
            let req = MemRequest::read(DomainId(0), (k % 64) * 64, now)
                .with_id(ReqId::compose(DomainId(0), k));
            if shaper.try_accept(req, now).is_ok() {
                next_victim = now + victim_gap + latency;
            }
        }
        for req in shaper.tick(now, usize::MAX) {
            emissions.push(now);
            in_flight.push((now + latency, req));
        }
    }
    emissions
}

/// Runs the shaped victim against a real memory controller shared with a
/// phase-switching co-runner; returns the shaper's injection intervals per
/// phase.
fn adaptivity() -> (f64, f64) {
    let c = cfg();
    let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
    let mut shaper = Shaper::new(ShaperConfig::from_system(
        DomainId(0),
        RdagTemplate::new(1, 150, 0.0),
        &c,
    ));
    let phase_len: Cycle = 60_000;
    let horizon = phase_len * 2;
    let mut emissions: Vec<Cycle> = Vec::new();
    let mut next_co = 0;
    let mut co_seq = 0u64;
    for now in 0..horizon {
        // Co-runner: a slow phase (300-cycle gaps, no pressure) then a
        // fast phase that saturates the transaction queue, like the
        // 25-cycle phase of the paper's example.
        let gap = if now < phase_len { 300 } else { 2 };
        while now >= next_co && mc.free_space() > 1 {
            co_seq += 1;
            let req = MemRequest::read(DomainId(1), (1 << 30) + (co_seq % 512) * 64, now)
                .with_id(ReqId::compose(DomainId(1), co_seq));
            if mc.try_send(req, now).is_ok() {
                next_co += gap;
            } else {
                break;
            }
        }
        next_co = next_co.max(now.saturating_sub(1000));
        for resp in mc.tick(now) {
            if resp.domain == DomainId(0) {
                shaper.on_response(&resp, now);
            }
        }
        let space = mc.free_space();
        for req in shaper.tick(now, space) {
            emissions.push(now);
            mc.try_send(req, now).expect("space checked");
        }
    }
    let mean_gap = |range: std::ops::Range<Cycle>| {
        let e: Vec<Cycle> = emissions
            .iter()
            .copied()
            .filter(|t| range.contains(t))
            .collect();
        if e.len() < 2 {
            return 0.0;
        }
        (e[e.len() - 1] - e[0]) as f64 / (e.len() - 1) as f64
    };
    // Skip warm-up at each phase edge.
    (
        mean_gap(5_000..phase_len),
        mean_gap(phase_len + 5_000..horizon),
    )
}

#[derive(Serialize)]
struct Fig5Data {
    secret0_emissions: Vec<Cycle>,
    secret1_emissions: Vec<Cycle>,
    identical: bool,
    phase1_interval: f64,
    phase2_interval: f64,
}

fn main() {
    let args = dg_bench::parse_harness_args();

    // Part 1: security — both secrets shape to the same schedule.
    let e0 = shape_victim(100, 3000);
    let e1 = shape_victim(200, 3000);
    dg_bench::print_table(
        "Figure 5(a/b): shaper output under the two secrets",
        &["secret", "emission cycles"],
        &[
            vec!["0 (100-cycle victim)".into(), format!("{e0:?}")],
            vec!["1 (200-cycle victim)".into(), format!("{e1:?}")],
        ],
    );
    assert_eq!(e0, e1, "shaped schedules must coincide");
    println!("→ identical schedules; interval = weight + latency = 250 cycles");

    // Part 2: adaptivity under a phase-switching co-runner.
    let (p1, p2) = adaptivity();
    dg_bench::print_table(
        "Figure 5(c/d): shaper injection interval per co-runner phase",
        &[
            "co-runner phase",
            "mean injection interval (cycles)",
            "paper",
        ],
        &[
            vec![
                "phase 1 (300-cycle gaps)".into(),
                format!("{p1:.1}"),
                "≈250".into(),
            ],
            vec![
                "phase 2 (saturating)".into(),
                format!("{p2:.1}"),
                "≈325".into(),
            ],
        ],
    );
    assert!(p2 > p1, "contention must stretch the shaper's intervals");
    println!(
        "→ the rDAG's timing dependencies slow the shaper under contention, \
         releasing bandwidth to the co-runner (versatility, §4.1)"
    );
    dg_bench::write_results(
        "fig5_example",
        &Fig5Data {
            identical: e0 == e1,
            secret0_emissions: e0,
            secret1_emissions: e1,
            phase1_interval: p1,
            phase2_interval: p2,
        },
    );

    // With --metrics / --trace, replay the running example as a full
    // two-core system (shaped victim + streaming co-runner) and export
    // the requested artifacts.
    if args.observing() {
        let mut victim = dg_cpu::MemTrace::new();
        for i in 0..400u64 {
            victim.load((i % 512) * 64 * 131, 100);
        }
        let mut co = dg_cpu::MemTrace::new();
        for i in 0..4000u64 {
            co.load((1 << 30) + (i % 512) * 64, 20);
        }
        let kind = MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(1, 150, 0.0)), None],
        };
        args.export_run(&cfg(), vec![victim, co], kind, 100_000_000, "fig5_example");
    }

    args.export_profile();
}
