//! Figure 2: why distribution-based shaping (Camouflage) is insufficient.
//!
//! Two victims whose request streams have identical *interval
//! distributions* but different timing are shaped by Camouflage; the
//! shaper's outputs still differ (the ordering of the 200/400-cycle
//! intervals leaks). The same victims shaped by DAGguise produce
//! bit-identical output schedules.
//!
//! The four shaper drives (Camouflage/DAGguise × secret 0/1) run as
//! `dg-runner` sweep jobs.

use dagguise::{Shaper, ShaperConfig};
use dg_defenses::{CamouflageShaper, IntervalDistribution};
use dg_mem::DomainShaper;
use dg_rdag::template::RdagTemplate;
use dg_runner::{run_sweep, JobDesc};
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqId};
use serde::Serialize;

/// Drives a shaper standalone with a constant-latency memory, injecting
/// victim requests at the given cycles. Returns the emission schedule.
fn drive(
    shaper: &mut dyn DomainShaper,
    inject_at: &[Cycle],
    horizon: Cycle,
    latency: Cycle,
) -> Vec<Cycle> {
    let mut emissions = Vec::new();
    let mut in_flight: Vec<(Cycle, MemRequest)> = Vec::new();
    let mut k = 0u64;
    for now in 0..horizon {
        let mut i = 0;
        while i < in_flight.len() {
            if in_flight[i].0 <= now {
                let (when, req) = in_flight.swap_remove(i);
                let resp = MemResponse {
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
        if inject_at.contains(&now) {
            k += 1;
            let req =
                MemRequest::read(DomainId(0), k * 64, now).with_id(ReqId::compose(DomainId(0), k));
            let _ = shaper.try_accept(req, now);
        }
        for req in shaper.tick(now, usize::MAX) {
            emissions.push(now);
            in_flight.push((now + latency, req));
        }
    }
    emissions
}

#[derive(Serialize)]
struct Fig2Data {
    camouflage_secret0: Vec<Cycle>,
    camouflage_secret1: Vec<Cycle>,
    camouflage_leaks: bool,
    dagguise_secret0: Vec<Cycle>,
    dagguise_secret1: Vec<Cycle>,
    dagguise_leaks: bool,
}

#[derive(Clone, Copy, PartialEq)]
enum ShaperKind {
    Camouflage,
    Dagguise,
}

struct DriveJob {
    id: String,
    shaper: ShaperKind,
    secret: usize,
}

impl JobDesc for DriveJob {
    fn id(&self) -> &str {
        &self.id
    }
}

fn main() {
    let args = dg_bench::parse_harness_args();
    let mut cfg = SystemConfig::two_core();
    cfg.clock_ratio = dg_sim::clock::ClockRatio::new(1);

    // Secret 0: early burst of requests. Secret 1: late burst.
    let secrets: [Vec<Cycle>; 2] = [vec![100, 180, 400], vec![1500, 1580, 1800]];
    let horizon = 3600;

    let jobs: Vec<DriveJob> = [ShaperKind::Camouflage, ShaperKind::Dagguise]
        .into_iter()
        .flat_map(|shaper| {
            (0..2).map(move |secret| DriveJob {
                id: format!(
                    "fig2/{}-s{secret}",
                    match shaper {
                        ShaperKind::Camouflage => "camouflage",
                        ShaperKind::Dagguise => "dagguise",
                    }
                ),
                shaper,
                secret,
            })
        })
        .collect();

    let outcome = run_sweep(&args.runner_config(), &jobs, |job, _ctx| {
        let inject = &secrets[job.secret];
        Ok::<Vec<Cycle>, dg_sim::error::SimError>(match job.shaper {
            ShaperKind::Camouflage => {
                let mut s =
                    CamouflageShaper::new(DomainId(0), IntervalDistribution::figure2(), &cfg, 7);
                drive(&mut s, inject, horizon, 30)
            }
            ShaperKind::Dagguise => {
                let mut s = Shaper::new(ShaperConfig::from_system(
                    DomainId(0),
                    RdagTemplate::new(1, 150, 0.0),
                    &cfg,
                ));
                drive(&mut s, inject, horizon, 30)
            }
        })
    })
    .unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });

    if !outcome.report_failures() {
        std::process::exit(1);
    }
    let schedule = |id: &str| {
        outcome
            .get(id)
            .and_then(|r| r.output.clone())
            .expect("all four drives succeeded")
    };
    let c0 = schedule("fig2/camouflage-s0");
    let c1 = schedule("fig2/camouflage-s1");
    let d0 = schedule("fig2/dagguise-s0");
    let d1 = schedule("fig2/dagguise-s1");

    let rows = vec![
        vec![
            "Camouflage".into(),
            format!("{:?}…", &c0[..c0.len().min(8)]),
            format!("{:?}…", &c1[..c1.len().min(8)]),
            if c0 == c1 {
                "identical".into()
            } else {
                "DIFFER → leak".into()
            },
        ],
        vec![
            "DAGguise".into(),
            format!("{:?}…", &d0[..d0.len().min(8)]),
            format!("{:?}…", &d1[..d1.len().min(8)]),
            if d0 == d1 {
                "identical → no leak".into()
            } else {
                "DIFFER".into()
            },
        ],
    ];
    dg_bench::print_table(
        "Figure 2: shaper output schedules under two victim secrets",
        &[
            "shaper",
            "emissions (secret 0)",
            "emissions (secret 1)",
            "verdict",
        ],
        &rows,
    );

    assert_ne!(c0, c1, "Camouflage must exhibit the ordering leak");
    assert_eq!(d0, d1, "DAGguise emissions must be secret-independent");
    println!(
        "\nCamouflage conforms to the interval distribution yet its output \
         schedule follows the victim; DAGguise's schedule is fixed by the \
         defense rDAG."
    );
    dg_bench::write_results(
        "fig2_camouflage",
        &Fig2Data {
            camouflage_leaks: c0 != c1,
            camouflage_secret0: c0,
            camouflage_secret1: c1,
            dagguise_leaks: d0 != d1,
            dagguise_secret0: d0,
            dagguise_secret1: d1,
        },
    );

    // Representative observed run for --metrics / --trace: a Camouflage-
    // shaped victim sharing memory with an unprotected co-runner.
    if args.observing() {
        let mut victim = dg_cpu::MemTrace::new();
        for i in 0..400u64 {
            victim.load((i % 256) * 64 * 131, 120);
        }
        let mut co = dg_cpu::MemTrace::new();
        for i in 0..2000u64 {
            co.load((1 << 30) + (i % 512) * 64, 30);
        }
        args.export_run(
            &cfg,
            vec![victim, co],
            dg_system::MemoryKind::Camouflage {
                protected: vec![Some(IntervalDistribution::figure2()), None],
            },
            100_000_000,
            "fig2_camouflage",
        );
    }

    // Leakage-observed run for --leak: covert capacity through a
    // Camouflage-shaped sender vs a DAGguise-shaped one, quantifying the
    // figure's qualitative leak as bits/s.
    if args.leak.is_some() {
        // Pristine system config: the ratio-1 tweak above exists only for
        // the standalone shaper drives, and the estimator needs the same
        // realistic timing the sweeps use. Like the sweep probe, merge
        // several repetitions with distinct messages so the finite-sample
        // noise floor averages out.
        let cfg = SystemConfig::two_core();
        let merged_probe = |kind: dg_system::MemoryKind| {
            let seeds = (0..8u64).map(|rep| 0xF162 + rep);
            dg_runner::run_covert_probe(&cfg, &kind, None, &dg_runner::LEAK_PROBE, seeds).0
        };
        let camo_leak = merged_probe(dg_system::MemoryKind::Camouflage {
            protected: vec![Some(IntervalDistribution::figure2()), None],
        });
        let dag_leak = merged_probe(dg_system::MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(2, 100, 0.0)), None],
        });
        println!(
            "\nCovert-channel MI capacity: Camouflage {:.0} bits/s vs DAGguise \
             {:.0} bits/s. The DAGguise figure is the estimator's finite-sample \
             floor (its emission schedule is secret-independent); a Camouflage \
             figure at or below it means this probe does not separate the two, \
             and the shaper-output comparison above is the check that does.",
            camo_leak.mean_capacity_bps, dag_leak.mean_capacity_bps
        );
        args.export_leak(&camo_leak);
    }

    args.export_profile();
}
