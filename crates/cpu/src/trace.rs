//! The memory-access trace format produced by `dg-workloads` and consumed
//! by [`crate::TraceCore`].

use dg_sim::types::Addr;
use serde::{Deserialize, Serialize};

/// One memory operation in a trace, preceded by `instrs_before`
/// non-memory instructions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceOp {
    /// Byte address accessed.
    pub addr: Addr,
    /// Store (true) or load (false).
    pub is_write: bool,
    /// Non-memory instructions executed before this operation.
    pub instrs_before: u64,
}

/// An instruction-annotated memory access trace.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemTrace {
    ops: Vec<TraceOp>,
    /// Instructions after the last memory operation.
    pub tail_instrs: u64,
}

impl MemTrace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a load of `addr` after `instrs_before` compute instructions.
    pub fn load(&mut self, addr: Addr, instrs_before: u64) -> &mut Self {
        self.ops.push(TraceOp {
            addr,
            is_write: false,
            instrs_before,
        });
        self
    }

    /// Appends a store to `addr` after `instrs_before` compute instructions.
    pub fn store(&mut self, addr: Addr, instrs_before: u64) -> &mut Self {
        self.ops.push(TraceOp {
            addr,
            is_write: true,
            instrs_before,
        });
        self
    }

    /// The operations in program order.
    pub fn ops(&self) -> &[TraceOp] {
        &self.ops
    }

    /// Number of memory operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the trace has no memory operations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Total instructions represented by the trace (memory operations count
    /// as one instruction each).
    pub fn total_instructions(&self) -> u64 {
        self.ops.iter().map(|op| op.instrs_before + 1).sum::<u64>() + self.tail_instrs
    }
}

impl FromIterator<TraceOp> for MemTrace {
    fn from_iter<I: IntoIterator<Item = TraceOp>>(iter: I) -> Self {
        Self {
            ops: iter.into_iter().collect(),
            tail_instrs: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_in_order() {
        let mut t = MemTrace::new();
        t.load(0x40, 10).store(0x80, 5);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        assert_eq!(t.ops()[0].addr, 0x40);
        assert!(!t.ops()[0].is_write);
        assert!(t.ops()[1].is_write);
    }

    #[test]
    fn instruction_accounting() {
        let mut t = MemTrace::new();
        t.load(0, 10).load(64, 20);
        t.tail_instrs = 5;
        // 10 + 1 + 20 + 1 + 5.
        assert_eq!(t.total_instructions(), 37);
    }

    #[test]
    fn from_iterator() {
        let t: MemTrace = (0..4u64)
            .map(|i| TraceOp {
                addr: i * 64,
                is_write: false,
                instrs_before: i,
            })
            .collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.total_instructions(), 1 + 1 + 1 + 2 + 1 + 3 + 1);
    }
}
