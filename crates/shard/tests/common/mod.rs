//! Workloads shared by the sharded-runtime test suites: four trace cores
//! with distinct strides and gaps, and the memory kinds they run under.

use dg_cpu::MemTrace;
use dg_rdag::template::RdagTemplate;
use dg_system::MemoryKind;

/// `n` accesses at `stride`, every fifth a store.
pub fn stream(n: u64, base: u64, stride: u64, gap: u64) -> MemTrace {
    let mut t = MemTrace::new();
    for i in 0..n {
        if i % 5 == 4 {
            t.store(base + i * stride, gap);
        } else {
            t.load(base + i * stride, gap);
        }
    }
    t
}

pub fn four_traces() -> Vec<MemTrace> {
    vec![
        stream(200, 0, 64 * 97, 10),
        stream(400, 1 << 30, 64 * 131, 5),
        stream(150, 2 << 30, 64 * 193, 25),
        stream(300, 3 << 30, 64 * 61, 15),
    ]
}

/// One unshaped, one DAGguise-shaped and one Camouflage-shaped memory
/// path, each protecting core 0.
pub fn kinds() -> Vec<MemoryKind> {
    vec![
        MemoryKind::Insecure,
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(4, 100, 0.001)), None, None, None],
        },
        MemoryKind::Camouflage {
            protected: vec![
                Some(dg_defenses::IntervalDistribution::figure2()),
                None,
                None,
                None,
            ],
        },
    ]
}
