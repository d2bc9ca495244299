//! A single set-associative, write-back, write-allocate cache level.

use dg_sim::config::CacheLevelConfig;
use dg_sim::types::Addr;
use serde::{Deserialize, Serialize};

/// Result of a cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// A dirty victim's address, evicted to make room (miss fills only).
    pub writeback: Option<Addr>,
}

/// A set-associative cache with LRU replacement.
///
/// Writes allocate (a write miss fills the line, then dirties it); dirty
/// victims are reported for the caller to push down the hierarchy.
///
/// Line state lives in three parallel, zero-initialized arrays (indexed
/// `set * ways + way`), so a new cache costs no memory until its sets are
/// touched: an LRU stamp of 0 marks an invalid line, since every access
/// stamps its line with a count that starts at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    name: &'static str,
    sets: u64,
    ways: usize,
    line_bytes: u64,
    tags: Vec<u64>,
    /// LRU stamp: larger = more recently used; 0 = invalid.
    lru: Vec<u64>,
    dirty: Vec<bool>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl SetAssocCache {
    /// Builds a cache from a level configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies zero sets or ways.
    pub fn new(cfg: CacheLevelConfig, name: &'static str) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "{name}: zero sets");
        assert!(cfg.ways > 0, "{name}: zero ways");
        let lines = (sets * u64::from(cfg.ways)) as usize;
        Self {
            name,
            sets,
            ways: cfg.ways as usize,
            line_bytes: cfg.line_bytes,
            tags: vec![0; lines],
            lru: vec![0; lines],
            dirty: vec![false; lines],
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Cache name (diagnostics).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Hits observed.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses observed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn index(&self, addr: Addr) -> (u64, u64) {
        let line = addr / self.line_bytes;
        (line % self.sets, line / self.sets)
    }

    /// The line indices of `set`.
    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = (set as usize) * self.ways;
        start..start + self.ways
    }

    /// The way of `set` holding `tag`, as a line index.
    fn find(&self, set: u64, tag: u64) -> Option<usize> {
        self.set_range(set)
            .find(|&i| self.lru[i] != 0 && self.tags[i] == tag)
    }

    /// Accesses `addr`; on a miss the line is filled (allocate-on-miss) and
    /// a dirty victim, if any, is reported for write-back.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> AccessOutcome {
        self.stamp += 1;
        let stamp = self.stamp;
        let (set, tag) = self.index(addr);

        if let Some(i) = self.find(set, tag) {
            self.lru[i] = stamp;
            self.dirty[i] |= is_write;
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }

        // Miss: pick the LRU way (invalid ones carry the smallest stamp, 0;
        // the first of equals wins).
        let range = self.set_range(set);
        let victim = range.start
            + self.lru[range]
                .iter()
                .enumerate()
                .min_by_key(|&(_, &lru)| lru)
                .map(|(way, _)| way)
                .expect("ways > 0");
        let writeback = (self.lru[victim] != 0 && self.dirty[victim]).then(|| {
            // Reconstruct the victim's address from its tag and set.
            (self.tags[victim] * self.sets + set) * self.line_bytes
        });
        self.tags[victim] = tag;
        self.lru[victim] = stamp;
        self.dirty[victim] = is_write;
        self.misses += 1;
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probes for presence without updating replacement state.
    pub fn contains(&self, addr: Addr) -> bool {
        let (set, tag) = self.index(addr);
        self.find(set, tag).is_some()
    }

    /// Invalidates everything (e.g. between experiment phases).
    pub fn flush(&mut self) {
        self.tags.fill(0);
        self.lru.fill(0);
        self.dirty.fill(false);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SetAssocCache {
        // 2 sets × 2 ways × 64B lines = 256 B.
        SetAssocCache::new(
            CacheLevelConfig {
                size_bytes: 256,
                line_bytes: 64,
                ways: 2,
                hit_latency: 1,
            },
            "test",
        )
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0x0, false).hit);
        assert!(c.access(0x0, false).hit);
        assert!(c.access(0x3F, false).hit, "same line, different offset");
        assert_eq!(c.hits(), 2);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        // Set 0 holds lines whose line-index is even (2 sets): 0x0, 0x80, 0x100.
        c.access(0x0, false);
        c.access(0x80, false);
        c.access(0x0, false); // touch 0x0: 0x80 becomes LRU
        c.access(0x100, false); // evicts 0x80
        assert!(c.contains(0x0));
        assert!(!c.contains(0x80));
        assert!(c.contains(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = small();
        c.access(0x0, true); // dirty
        c.access(0x80, false);
        let out = c.access(0x100, false); // evicts 0x0 (LRU, dirty)
        assert_eq!(out.writeback, Some(0x0));
        // Clean eviction reports nothing.
        let out = c.access(0x180, false); // evicts 0x80 (clean)
        assert_eq!(out.writeback, None);
    }

    #[test]
    fn write_hit_dirties_line() {
        let mut c = small();
        c.access(0x0, false);
        c.access(0x0, true); // hit + dirty
        c.access(0x80, false);
        let out = c.access(0x100, false); // evict 0x0
        assert_eq!(out.writeback, Some(0x0));
    }

    #[test]
    fn writeback_address_reconstruction() {
        let mut c = small();
        // Line index 5 (addr 0x140) maps to set 1, tag 2.
        c.access(0x140, true);
        c.access(0x1C0, false); // set 1
        let out = c.access(0x240, false); // set 1, evicts 0x140
        assert_eq!(out.writeback, Some(0x140));
    }

    #[test]
    fn contains_does_not_disturb_lru() {
        let mut c = small();
        c.access(0x0, false);
        c.access(0x80, false);
        assert!(c.contains(0x0));
        // 0x0 is still LRU (contains didn't touch it): next fill evicts it.
        c.access(0x100, false);
        assert!(!c.contains(0x0));
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = small();
        c.access(0x0, true);
        c.flush();
        assert!(!c.contains(0x0));
        assert!(!c.access(0x0, false).hit);
    }

    #[test]
    fn table2_l1_geometry() {
        let c = SetAssocCache::new(dg_sim::config::CacheConfig::default().l1, "L1");
        assert_eq!(c.sets, 64);
        assert_eq!(c.ways, 8);
    }
}
