//! §5: the security verification harness (the Rosette artifact analogue).
//!
//! Runs, in order:
//! 1. the **base step** (bounded model checking from reset) for k = 1..6
//!    on the DAGguise model — all pass;
//! 2. the same BMC on the *leaky* strawman shaper — fails with a concrete
//!    counterexample, demonstrating the checker has teeth;
//! 3. the **induction step** at increasing k with the
//!    observable-projection strengthening, reporting the minimal k;
//! 4. the **unwinding proof**, which discharges the property for every
//!    horizon at once.

use dg_verif::{
    check_base, check_induction, check_unwinding, minimal_k, ModelConfig, ShaperKind, StateScope,
};
use serde::Serialize;

#[derive(Serialize)]
struct VerifyData {
    base_max_k: usize,
    leaky_counterexample_k: Option<usize>,
    minimal_induction_k: Option<usize>,
    unwinding_ok: bool,
}

fn main() {
    let args = dg_bench::parse_harness_args();
    if args.observing() {
        eprintln!(
            "note: verify_security is a model checker (no simulation); --metrics/--trace ignored"
        );
    }
    let full = args.scale == dg_runner::scale::Scale::paper();
    let base_max_k = if full { 6 } else { 4 };

    let dag = ModelConfig::paper(ShaperKind::Dagguise);
    let leaky = ModelConfig::paper(ShaperKind::LeakyForwarding);

    println!("=== Base step (bounded model checking from reset) ===");
    for k in 1..=base_max_k {
        match check_base(&dag, k) {
            Ok(()) => println!("  DAGguise  k={k}: **** Base Step Finished **** (unsat)"),
            Err(cex) => {
                println!("  DAGguise  k={k}: VIOLATION {cex:?}");
                std::process::exit(1);
            }
        }
    }

    let mut leaky_k = None;
    for k in 1..=base_max_k {
        if let Err(cex) = check_base(&leaky, k) {
            println!(
                "  Leaky     k={k}: counterexample found (sat) — tx traces \
                 {:?} vs {:?} under rx {:?} diverge at cycle {}",
                cex.tx_a, cex.tx_b, cex.rx, cex.diverge_at
            );
            leaky_k = Some(k);
            break;
        } else {
            println!("  Leaky     k={k}: no counterexample yet");
        }
    }
    assert!(leaky_k.is_some(), "the leaky strawman must be caught");

    println!("\n=== Induction step (k-induction, projection-strengthened) ===");
    let ind_cfg = ModelConfig::tiny(ShaperKind::Dagguise);
    let max_ind_k = if full { 4 } else { 3 };
    let mut min_k = None;
    for k in 1..=max_ind_k {
        match check_induction(&ind_cfg, k, StateScope::ProjectionEqual) {
            Ok(()) => {
                println!("  k={k}: **** Induction Step Finished **** (unsat)");
                if min_k.is_none() {
                    min_k = Some(k);
                }
            }
            Err(_) => println!("  k={k}: counterexample — k too small, trying a larger k"),
        }
    }
    let min_k = min_k.or_else(|| minimal_k(&ind_cfg, StateScope::ProjectionEqual, max_ind_k));
    println!(
        "  minimal k for this model: {:?} (the paper's larger Rosette model \
         needs k = 6)",
        min_k
    );

    println!("\n=== Unwinding proof (all horizons at once) ===");
    let unwinding_ok = check_unwinding(&dag).is_ok();
    println!(
        "  DAGguise : {}",
        if unwinding_ok {
            "PROVED — receiver-visible projection is tx-independent"
        } else {
            "FAILED"
        }
    );
    assert!(unwinding_ok);
    let leaky_unwinds = check_unwinding(&leaky).is_ok();
    println!(
        "  Leaky    : {}",
        if leaky_unwinds {
            "unexpectedly passed"
        } else {
            "violation found (as expected)"
        }
    );
    assert!(!leaky_unwinds);

    dg_bench::write_results(
        "verify_security",
        &VerifyData {
            base_max_k,
            leaky_counterexample_k: leaky_k,
            minimal_induction_k: min_k,
            unwinding_ok,
        },
    );
    println!("\nSecurity property verified: no attacker input distinguishes transmitter traces.");

    args.export_profile();
}
