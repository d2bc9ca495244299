//! Figure 1: memory timing side channels through different contention
//! types. Prints the attacker's latency trace for each victim scenario.

use dg_attacks::{figure1_scenario, run_covert_channel_estimated, CovertConfig, Figure1Scenario};
use dg_sim::config::SystemConfig;
use dg_sim::types::DomainId;
use serde::Serialize;

#[derive(Serialize)]
struct Fig1Row {
    scenario: String,
    latencies: Vec<u64>,
    steady_baseline: u64,
    peak_delay: i64,
}

fn main() {
    let args = dg_bench::parse_harness_args();
    let cfg = SystemConfig::two_core();

    let scenarios = [
        ("(a) no victim activity", Figure1Scenario::NoActivity),
        ("(b) different bank", Figure1Scenario::DifferentBank),
        ("(c) same bank, same row", Figure1Scenario::SameBankSameRow),
        (
            "(d) same bank, different row",
            Figure1Scenario::SameBankDifferentRow,
        ),
    ];

    let baseline = {
        let l = figure1_scenario(&cfg, Figure1Scenario::NoActivity);
        l[1..].iter().copied().max().unwrap_or(0)
    };

    let mut rows = Vec::new();
    let mut data = Vec::new();
    for (name, s) in scenarios {
        let lat = figure1_scenario(&cfg, s);
        let peak = lat[1..].iter().copied().max().unwrap_or(0);
        rows.push(vec![
            name.to_string(),
            format!("{:?}", &lat[1..]),
            format!("{:+}", peak as i64 - baseline as i64),
        ]);
        data.push(Fig1Row {
            scenario: name.to_string(),
            latencies: lat,
            steady_baseline: baseline,
            peak_delay: peak as i64 - baseline as i64,
        });
    }
    dg_bench::print_table(
        "Figure 1: attacker-observed probe latencies (CPU cycles)",
        &[
            "victim scenario",
            "latency trace (steady probes)",
            "peak delay",
        ],
        &rows,
    );
    println!(
        "\nThe attacker distinguishes every victim behaviour from its own \
         latencies: bank and row placement are both visible."
    );
    dg_bench::write_results("fig1_attack", &data);

    // Representative observed run for --metrics / --trace: an attacker-
    // style probe stream contending with a victim over insecure memory.
    if args.observing() {
        let mut probe = dg_cpu::MemTrace::new();
        for i in 0..500u64 {
            probe.load((i % 64) * 64 * 131, 50);
        }
        let mut victim = dg_cpu::MemTrace::new();
        for i in 0..500u64 {
            victim.load((1 << 30) + (i % 64) * 64 * 131, 50);
        }
        args.export_run(
            &cfg,
            vec![probe, victim],
            dg_system::MemoryKind::Insecure,
            100_000_000,
            "fig1_attack",
        );
    }

    // Leakage-observed run for --leak: the Figure 1 channel quantified as
    // bits/s through the insecure controller.
    if args.leak.is_some() {
        let mut mem = dg_system::build_memory(&cfg, dg_system::MemoryKind::Insecure, 2);
        let (covert, leak) = run_covert_channel_estimated(
            mem.as_mut(),
            DomainId(0),
            DomainId(1),
            &CovertConfig::default(),
            cfg.core.clock_hz,
            0xF161,
            8_000,
        );
        println!(
            "\nCovert-channel probe over insecure memory: {:.0} bits/s mean MI \
             capacity ({:.0} bits/s peak, decode error {:.2}).",
            leak.mean_capacity_bps, leak.peak_capacity_bps, covert.error_rate
        );
        args.export_leak(&leak);
    }

    args.export_profile();
}
