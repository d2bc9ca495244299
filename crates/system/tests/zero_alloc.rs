//! The per-tick path is allocation-free: past warm-up, simulating the
//! benchmark's two DAGguise shapes, and the insecure open-row baseline under
//! the same saturating load, performs no heap allocation at all, on either
//! engine — directly wired, and the saturated DAGguise shape also across a
//! NoC. A counting global allocator (per thread, so concurrently running
//! tests do not disturb each other) backs the claim.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use dg_cpu::{DagWorkload, MemTrace};
use dg_rdag::template::RdagTemplate;
use dg_sim::config::SystemConfig;
use dg_system::{MemoryKind, ShardConfig, ShardedSystemBuilder, System, SystemBuilder};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` so allocations during thread teardown are not an error.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator with the caller's
// arguments unchanged; counting touches only a thread-local `Cell`, which
// needs no allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim (see the impl-level comment).
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim.
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded verbatim.
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim.
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

const STRIDE: u64 = 64 * 131;

fn dagguise() -> MemoryKind {
    MemoryKind::Dagguise {
        protected: vec![Some(RdagTemplate::new(4, 100, 0.01)), None],
    }
}

/// Two trace cores streaming row-missing loads with no compute between
/// them: the controller and DRAM work on every bus edge. Under DAGguise the
/// shaper does too, and the protected core is back-pressured by it.
fn streams() -> Vec<MemTrace> {
    (0..2u64)
        .map(|core| {
            let mut t = MemTrace::new();
            for i in 0..8_000 {
                t.load((core << 30) + i * STRIDE, 0);
            }
            t
        })
        .collect()
}

fn saturated(memory: MemoryKind) -> System {
    let mut b = SystemBuilder::new(SystemConfig::two_core());
    for t in streams() {
        b = b.trace_core(t);
    }
    b.memory(memory).build()
}

/// The saturated shape across a 64-cycle NoC hop: one shard on one thread,
/// so superstep routing and the NoC queues run on the test's thread.
fn saturated_on_noc(memory: MemoryKind) -> System {
    let scfg = ShardConfig {
        noc_latency: 64,
        max_parties: Some(1),
        ..ShardConfig::with_shards(1)
    };
    let mut b = ShardedSystemBuilder::new(SystemConfig::two_core(), scfg);
    for t in streams() {
        b = b.trace_core(t);
    }
    b.memory(memory).build()
}

/// Two DAG-chain cores with long dependency gaps: mostly quiescent time,
/// fake emission, and the DAG core's frontier.
fn idle() -> System {
    let mut b = SystemBuilder::new(SystemConfig::two_core());
    for core in 0..2u64 {
        let mut w = DagWorkload::chain(200, 10_000, STRIDE);
        for r in &mut w.reqs {
            r.addr += core << 30;
        }
        b = b.dag_core(w);
    }
    b.memory(dagguise()).build()
}

/// Runs `sys` past `warmup` cycles, then counts the allocations of the
/// next `window` cycles.
fn allocations_after_warmup(mut sys: System, naive: bool, warmup: u64, window: u64) -> u64 {
    sys.set_event_skipping(!naive);
    sys.run_for(warmup);
    let before = allocations();
    sys.run_for(window);
    let during = allocations() - before;
    assert!(
        (0..2).any(|d| !sys.core_finished(d)),
        "the window must fall inside the workload"
    );
    during
}

#[test]
fn saturated_dagguise_ticks_allocation_free_on_both_engines() {
    // The window spans the co-runner finishing (near cycle 167k), after
    // which the protected core runs alone, back-pressured.
    for naive in [false, true] {
        let n = allocations_after_warmup(saturated(dagguise()), naive, 100_000, 150_000);
        assert_eq!(n, 0, "naive engine: {naive}");
    }
}

#[test]
fn saturated_dagguise_on_the_noc_runs_allocation_free_on_both_engines() {
    // Barrier exchange, routing buffers and next-event hints reuse their
    // storage, and a single-party run spawns no worker threads.
    for naive in [false, true] {
        let n = allocations_after_warmup(saturated_on_noc(dagguise()), naive, 100_000, 150_000);
        assert_eq!(n, 0, "naive engine: {naive}");
    }
}

#[test]
fn idle_dag_chains_tick_allocation_free_on_both_engines() {
    for naive in [false, true] {
        let n = allocations_after_warmup(idle(), naive, 50_000, 200_000);
        assert_eq!(n, 0, "naive engine: {naive}");
    }
}

#[test]
fn saturated_open_row_insecure_ticks_allocation_free_on_both_engines() {
    // Open-row FR-FCFS without shapers: row conflicts take the precharge
    // path the closed-row DAGguise controller never does.
    for naive in [false, true] {
        let n = allocations_after_warmup(saturated(MemoryKind::Insecure), naive, 20_000, 150_000);
        assert_eq!(n, 0, "naive engine: {naive}");
    }
}
