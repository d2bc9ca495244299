//! Simulation-layer fault injection: each planned fault class must (a)
//! actually perturb or halt the run the way its supervision mechanism
//! expects, and (b) leave the event-driven engine byte-identical to the
//! naive per-cycle loop — fault boundaries participate in warp planning,
//! so skipping must never jump over an activation edge. Control-plane
//! faults (panic, frozen clock) belong to the supervision loop of
//! `dg_shard::run_colocation` and are tested with it.

use dg_cpu::MemTrace;
use dg_fault::SimFaultKind;
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_system::{MemoryKind, System, SystemBuilder};

fn stream(n: u64, base: u64, gap: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..n {
        t.load(base + i * 64 * 131, gap);
    }
    t
}

fn traces() -> Vec<MemTrace> {
    vec![stream(300, 0, 20), stream(3000, 1 << 30, 20)]
}

fn system(fault: Option<SimFaultKind>) -> System {
    let cfg = SystemConfig::two_core();
    let mut builder = SystemBuilder::new(cfg);
    for t in traces() {
        builder = builder.trace_core(t);
    }
    let mut sys = builder.memory(MemoryKind::Insecure).build();
    if let Some(f) = fault {
        sys.inject_fault(f);
    }
    sys
}

/// Runs a (possibly faulted) system to completion under either engine and
/// returns the observable outcome: end cycle plus per-core (instructions,
/// finish time).
fn engine_run(fault: Option<SimFaultKind>, naive: bool) -> (u64, Vec<(u64, Option<u64>)>) {
    let mut sys = system(fault);
    if naive {
        sys.set_event_skipping(false);
    }
    sys.run_until_core_finished(0, 200_000_000).unwrap();
    let cores = sys
        .cores()
        .iter()
        .map(|c| (c.instructions_retired(), c.finished_at()))
        .collect();
    (sys.now(), cores)
}

/// A stuck bank holds domain responses for a window; the event engine
/// must neither warp over the activation edge nor the release edge.
#[test]
fn stuck_bank_is_identical_across_engines_and_actually_stalls() {
    let fault = Some(SimFaultKind::StuckBank {
        at: 2_000,
        hold: 10_000,
    });
    let fast = engine_run(fault, false);
    let naive = engine_run(fault, true);
    assert_eq!(fast, naive, "engines diverged under a stuck bank");

    // The fault must be real: the victim finishes later than unfaulted.
    let clean_finish = engine_run(None, false).1[0].1.expect("victim finishes");
    let faulted_finish = fast.1[0].1.expect("victim finishes");
    assert!(
        faulted_finish > clean_finish,
        "stuck bank should delay the victim: {faulted_finish} vs {clean_finish}"
    );
}

/// A dropped response leaves the victim core waiting forever on its
/// outstanding miss — the budget deadline is the supervision mechanism
/// that catches it (and the runner escalates or quarantines from there).
#[test]
fn dropped_response_surfaces_as_deadline() {
    let mut sys = system(Some(SimFaultKind::DropResponse { nth: 1 }));
    let r = sys.run_until_core_finished(0, 2_000_000);
    assert_eq!(r.unwrap_err(), SimError::Deadline { budget: 2_000_000 });
}

/// Control-plane faults are no-ops inside the system (the supervision
/// loop above it implements them): armed on a bare system they change
/// nothing.
#[test]
fn control_plane_faults_do_not_touch_the_system() {
    let clean = engine_run(None, false);
    for fault in [
        SimFaultKind::Panic { at: 5_000 },
        SimFaultKind::FreezeClock { at: 2_000 },
    ] {
        assert_eq!(engine_run(Some(fault), false), clean, "{fault}");
    }
}
