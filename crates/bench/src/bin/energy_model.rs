//! Extension: the §4.4 fake-request energy analysis.
//!
//! "Issuing fake requests … can incur high energy consumption. One
//! possible approach is to 'suppress' fake requests … as the data of
//! these fake requests is irrelevant." This harness quantifies that:
//! it runs a protected victim under DAGguise, splits DRAM access energy
//! into real vs fake traffic, and reports the energy the suppression
//! optimisation saves for defense rDAGs of increasing density.

use dg_dram::power::PowerParams;
use dg_rdag::template::RdagTemplate;
use dg_runner::material::docdist_trace;
use dg_sim::config::SystemConfig;
use dg_sim::types::DomainId;
use dg_system::{MemoryKind, SystemBuilder};
use serde::Serialize;

#[derive(Serialize)]
struct EnergyRow {
    sequences: u32,
    weight: u64,
    real_accesses: u64,
    fake_accesses: u64,
    real_nj: f64,
    fake_nj: f64,
    suppression_savings_pct: f64,
}

fn main() {
    let args = dg_bench::parse_harness_args();
    let scale = args.scale;
    let cfg = SystemConfig::two_core();
    let p = PowerParams::default();
    let victim = docdist_trace(&scale, 0);

    let mut rows = Vec::new();
    let mut data = Vec::new();
    for (seqs, weight) in [(1u32, 200u64), (2, 100), (4, 50), (4, 25), (8, 25)] {
        let template = RdagTemplate::new(seqs, weight, 0.25);
        let mut sys = SystemBuilder::new(cfg.clone())
            .trace_core(victim.clone())
            .memory(MemoryKind::Dagguise {
                protected: vec![Some(template)],
            })
            .build();
        sys.run_until_core_finished(0, scale.budget)
            .expect("victim finishes");
        let stats = sys.memory().stats();
        let e = stats.energy;
        let d0 = stats.domain(DomainId(0));
        let unsuppressed = e.total_unsuppressed_nj(&p);
        let savings = if unsuppressed > 0.0 {
            100.0 * e.suppression_savings_nj(&p) / unsuppressed
        } else {
            0.0
        };
        rows.push(vec![
            format!("{seqs}x{weight}"),
            (d0.reads + d0.writes).to_string(),
            d0.fakes.to_string(),
            format!("{:.0}", e.real_nj(&p)),
            format!("{:.0}", e.fake_nj(&p)),
            format!("{savings:.1}%"),
        ]);
        data.push(EnergyRow {
            sequences: seqs,
            weight,
            real_accesses: d0.reads + d0.writes,
            fake_accesses: d0.fakes,
            real_nj: e.real_nj(&p),
            fake_nj: e.fake_nj(&p),
            suppression_savings_pct: savings,
        });
    }

    dg_bench::print_table(
        "Extension (§4.4): DRAM energy of fake traffic and suppression savings",
        &[
            "defense rDAG",
            "real accesses",
            "fakes",
            "real nJ",
            "fake nJ",
            "suppression saves",
        ],
        &rows,
    );
    println!(
        "\nDenser defense rDAGs fabricate more fakes when the victim idles; \
         suppression avoids their entire DIMM access energy (§4.4)."
    );
    dg_bench::write_results("energy_model", &data);

    // Representative observed run for --metrics / --trace: the densest
    // defense rDAG from the sweep (most fake traffic, hence the most
    // interesting energy split).
    if args.observing() {
        args.export_run(
            &cfg,
            vec![victim],
            MemoryKind::Dagguise {
                protected: vec![Some(RdagTemplate::new(8, 25, 0.25))],
            },
            scale.budget,
            "energy_model",
        );
    }

    args.export_profile();
}
