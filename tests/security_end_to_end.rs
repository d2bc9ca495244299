//! End-to-end security tests: the receiver's observations must be
//! bit-identical across victim secrets under DAGguise (and Fixed
//! Service), and must differ under the insecure baseline and Camouflage —
//! the full-stack analogue of the §5 property, with the real DRAM timing
//! model, caches and workloads in the loop, on the `System` every harness
//! runs.

use dagguise_repro::prelude::*;
use dg_attacks::ProbeCore;
use dg_defenses::IntervalDistribution;
use dg_workloads::{DnaWorkload, DocDistWorkload};

/// Runs `victim_trace` on core 0 and a probe attacker on core 1 over
/// `kind` until the attacker has its `probes` observations; returns its
/// ordered latencies. Runs on both engines and checks that the event
/// engine shows the attacker exactly what the per-cycle loop does.
fn attacker_view(victim_trace: MemTrace, kind: &MemoryKind, probes: usize) -> Vec<u64> {
    let [event, naive] = [true, false].map(|skipping| {
        let attacker = ProbeCore::new(DomainId(1), 0x40, 150, probes);
        let log = attacker.log();
        let mut sys = SystemBuilder::new(SystemConfig::two_core())
            .trace_core(victim_trace.clone())
            .core(Box::new(attacker))
            .memory(kind.clone())
            .build();
        sys.set_event_skipping(skipping);
        sys.run_until_core_finished(1, 500_000_000)
            .expect("attacker never finished");
        log.latencies()
    });
    assert_eq!(event, naive, "the engines disagree on the attacker's view");
    event
}

fn dagguise(template: RdagTemplate) -> MemoryKind {
    MemoryKind::Dagguise {
        protected: vec![Some(template), None],
    }
}

fn docdist(secret: u64) -> MemTrace {
    DocDistWorkload::small(secret).record().0
}

fn dna(secret: u64) -> MemTrace {
    DnaWorkload::small(secret).record().0
}

#[test]
fn insecure_baseline_leaks_docdist_secret() {
    let a = attacker_view(docdist(0), &MemoryKind::Insecure, 150);
    let b = attacker_view(docdist(1), &MemoryKind::Insecure, 150);
    assert_ne!(a, b, "contention must expose the secret on the baseline");
}

#[test]
fn camouflage_leaks_docdist_secret() {
    // Distribution shaping keeps the victim's interval histogram but not
    // its ordering, so the secret still reaches the attacker.
    let camouflage = MemoryKind::Camouflage {
        protected: vec![Some(IntervalDistribution::new(vec![150, 300])), None],
    };
    let a = attacker_view(docdist(0), &camouflage, 150);
    let b = attacker_view(docdist(1), &camouflage, 150);
    assert_ne!(a, b, "Camouflage must not hide the secret");
}

#[test]
fn dagguise_hides_docdist_secret_bit_exactly() {
    let d = dagguise(RdagTemplate::new(4, 50, 0.25));
    let a = attacker_view(docdist(0), &d, 150);
    let b = attacker_view(docdist(1), &d, 150);
    assert_eq!(a, b, "attacker must observe identical latencies");
    assert!(!a.is_empty());
}

#[test]
fn dagguise_hides_dna_secret_bit_exactly() {
    let d = dagguise(RdagTemplate::new(8, 50, 0.125));
    let a = attacker_view(dna(3), &d, 150);
    let b = attacker_view(dna(4), &d, 150);
    assert_eq!(a, b);
}

#[test]
fn dagguise_hides_victim_presence_entirely() {
    // Not just which secret: whether the victim runs at all is invisible.
    let d = dagguise(RdagTemplate::new(4, 50, 0.25));
    let busy = attacker_view(docdist(0), &d, 150);
    let idle = attacker_view(MemTrace::new(), &d, 150);
    assert_eq!(busy, idle, "an idle victim looks exactly like a busy one");
}

#[test]
fn fs_bta_hides_docdist_secret_bit_exactly() {
    let a = attacker_view(docdist(0), &MemoryKind::FsBta, 150);
    let b = attacker_view(docdist(1), &MemoryKind::FsBta, 150);
    assert_eq!(a, b);
}

#[test]
fn dagguise_secrecy_holds_across_defense_rdag_choices() {
    // Any secret-independent defense rDAG is secure (§4.3) — sweep a few.
    for template in [
        RdagTemplate::new(1, 200, 0.5),
        RdagTemplate::new(2, 100, 0.25),
        RdagTemplate::new(8, 25, 0.1),
    ] {
        let d = dagguise(template);
        let a = attacker_view(docdist(0), &d, 80);
        let b = attacker_view(docdist(1), &d, 80);
        assert_eq!(a, b, "leak under template {template:?}");
    }
}
