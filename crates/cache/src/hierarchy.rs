//! The per-core L1/L2 + shared L3 assembly.

use dg_sim::clock::Cycle;
use dg_sim::config::CacheConfig;
use dg_sim::types::Addr;
use serde::{Deserialize, Serialize};

use crate::cache::SetAssocCache;

/// The level at which an access hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HitLevel {
    /// Private L1 hit.
    L1,
    /// Private L2 hit.
    L2,
    /// Shared L3 hit.
    L3,
    /// Missed everywhere — must go to memory.
    Memory,
}

/// Outcome of pushing one access through the hierarchy. Held inline (no
/// heap), since every core tick that reaches a memory operation makes one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyOutcome {
    /// Where the access hit.
    pub level: HitLevel,
    /// Round-trip latency charged for the cache portion (for a memory miss
    /// this is the L3 lookup cost; DRAM latency accrues separately).
    pub latency: Cycle,
    /// The line fill that must be requested from memory: the demand
    /// address on a full miss.
    pub memory_read: Option<Addr>,
    /// Dirty L3 victims, at most one per level the access walked through.
    writebacks: [Addr; 3],
    n_writebacks: usize,
}

impl HierarchyOutcome {
    fn new() -> Self {
        Self {
            level: HitLevel::L1,
            latency: 0,
            memory_read: None,
            writebacks: [0; 3],
            n_writebacks: 0,
        }
    }

    fn push_writeback(&mut self, addr: Addr) {
        self.writebacks[self.n_writebacks] = addr;
        self.n_writebacks += 1;
    }

    /// Dirty lines evicted out of the L3 that must be written to memory.
    pub fn memory_writes(&self) -> &[Addr] {
        &self.writebacks[..self.n_writebacks]
    }

    fn hit(mut self, level: HitLevel, latency: Cycle) -> Self {
        self.level = level;
        self.latency = latency;
        self
    }
}

/// A core's private L1/L2 feeding a shared L3 (passed per call, since it is
/// shared across cores and owned by the system assembly).
#[derive(Debug, Clone, PartialEq)]
pub struct CacheHierarchy {
    l1: SetAssocCache,
    l2: SetAssocCache,
    l1_latency: Cycle,
    l2_latency: Cycle,
    l3_latency: Cycle,
}

impl CacheHierarchy {
    /// Builds the private levels from the configuration.
    pub fn new(cfg: &CacheConfig) -> Self {
        Self {
            l1: SetAssocCache::new(cfg.l1, "L1"),
            l2: SetAssocCache::new(cfg.l2, "L2"),
            l1_latency: cfg.l1.hit_latency,
            l2_latency: cfg.l2.hit_latency,
            l3_latency: cfg.l3_per_core.hit_latency,
        }
    }

    /// The private L1 (statistics access).
    pub fn l1(&self) -> &SetAssocCache {
        &self.l1
    }

    /// The private L2 (statistics access).
    pub fn l2(&self) -> &SetAssocCache {
        &self.l2
    }

    /// Pushes one demand access through L1 → L2 → `l3` → memory.
    ///
    /// Write misses allocate; dirty victims cascade downward, and dirty L3
    /// victims surface as `memory_writes`. The caller issues those (plus
    /// the demand fill on a full miss) to the memory subsystem.
    pub fn access(
        &mut self,
        addr: Addr,
        is_write: bool,
        l3: &mut SetAssocCache,
    ) -> HierarchyOutcome {
        let mut out = HierarchyOutcome::new();

        let o1 = self.l1.access(addr, is_write);
        if o1.hit {
            return out.hit(HitLevel::L1, self.l1_latency);
        }
        // L1 victim write-back goes to L2 (as a write).
        if let Some(wb) = o1.writeback {
            let o = self.l2.access(wb, true);
            if let Some(wb2) = o.writeback {
                let o3 = l3.access(wb2, true);
                if let Some(wb3) = o3.writeback {
                    out.push_writeback(wb3);
                }
            }
        }

        let o2 = self.l2.access(addr, false);
        if o2.hit {
            return out.hit(HitLevel::L2, self.l2_latency);
        }
        if let Some(wb) = o2.writeback {
            let o3 = l3.access(wb, true);
            if let Some(wb3) = o3.writeback {
                out.push_writeback(wb3);
            }
        }

        let o3 = l3.access(addr, false);
        if o3.hit {
            return out.hit(HitLevel::L3, self.l3_latency);
        }
        if let Some(wb3) = o3.writeback {
            out.push_writeback(wb3);
        }
        out.memory_read = Some(addr);
        out.hit(HitLevel::Memory, self.l3_latency)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::config::CacheLevelConfig;

    fn tiny_cfg() -> CacheConfig {
        // Small caches so evictions happen quickly in tests.
        CacheConfig {
            l1: CacheLevelConfig {
                size_bytes: 256,
                line_bytes: 64,
                ways: 2,
                hit_latency: 4,
            },
            l2: CacheLevelConfig {
                size_bytes: 512,
                line_bytes: 64,
                ways: 2,
                hit_latency: 13,
            },
            l3_per_core: CacheLevelConfig {
                size_bytes: 1024,
                line_bytes: 64,
                ways: 2,
                hit_latency: 42,
            },
        }
    }

    fn setup() -> (CacheHierarchy, SetAssocCache) {
        let cfg = tiny_cfg();
        (
            CacheHierarchy::new(&cfg),
            SetAssocCache::new(cfg.l3_per_core, "L3"),
        )
    }

    #[test]
    fn cold_miss_reaches_memory() {
        let (mut h, mut l3) = setup();
        let out = h.access(0x1000, false, &mut l3);
        assert_eq!(out.level, HitLevel::Memory);
        assert_eq!(out.memory_read, Some(0x1000));
        assert!(out.memory_writes().is_empty());
    }

    #[test]
    fn repeat_hits_in_l1() {
        let (mut h, mut l3) = setup();
        h.access(0x1000, false, &mut l3);
        let out = h.access(0x1000, false, &mut l3);
        assert_eq!(out.level, HitLevel::L1);
        assert_eq!(out.latency, 4);
        assert!(out.memory_read.is_none());
    }

    #[test]
    fn l1_eviction_falls_back_to_l2() {
        let (mut h, mut l3) = setup();
        // L1: 2 sets × 2 ways. Lines 0x0, 0x80, 0x100 map to set 0; filling
        // three evicts the first from L1, but it stays in L2.
        h.access(0x0, false, &mut l3);
        h.access(0x80, false, &mut l3);
        h.access(0x100, false, &mut l3);
        let out = h.access(0x0, false, &mut l3);
        assert_eq!(out.level, HitLevel::L2);
        assert_eq!(out.latency, 13);
    }

    #[test]
    fn working_set_larger_than_l2_hits_l3() {
        let (mut h, mut l3) = setup();
        // Touch enough distinct lines to overflow L1 and L2 (512 B = 8
        // lines) but fit in L3 (16 lines).
        for i in 0..12u64 {
            h.access(i * 64, false, &mut l3);
        }
        let out = h.access(0x0, false, &mut l3);
        // 0x0 was evicted from L1 and L2 but still lives in L3.
        assert_eq!(out.level, HitLevel::L3);
    }

    #[test]
    fn dirty_data_eventually_written_to_memory() {
        let (mut h, mut l3) = setup();
        h.access(0x0, true, &mut l3); // dirty in L1
                                      // Stream enough lines through to force 0x0 out of every level.
        let mut writes = Vec::new();
        for i in 1..64u64 {
            let out = h.access(i * 64, false, &mut l3);
            writes.extend_from_slice(out.memory_writes());
        }
        assert!(
            writes.contains(&0x0),
            "dirty line 0x0 must be written back to memory, got {writes:?}"
        );
    }

    #[test]
    fn streaming_misses_all_reach_memory() {
        let (mut h, mut l3) = setup();
        let mut reads = 0;
        for i in 0..100u64 {
            let out = h.access(i * 64 * 17, false, &mut l3);
            reads += usize::from(out.memory_read.is_some());
        }
        assert_eq!(reads, 100, "non-reused stream misses everywhere");
    }

    #[test]
    fn table2_hierarchy_latencies() {
        let cfg = CacheConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        let mut l3 = SetAssocCache::new(cfg.l3_per_core, "L3");
        h.access(0x40, false, &mut l3);
        assert_eq!(h.access(0x40, false, &mut l3).latency, 4);
    }
}
