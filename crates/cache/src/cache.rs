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
/// Each line is one `u64` word (indexed `set * ways + way`): a valid bit
/// (bit 0), a dirty bit (bit 1), the line's LRU rank within its set (0 =
/// most recently used, just enough bits for `ways - 1`) and the tag above
/// them. The words start zeroed, so a new cache costs no memory until its
/// sets are touched, and 0 is an invalid line.
#[derive(Debug, Clone, PartialEq)]
pub struct SetAssocCache {
    name: &'static str,
    sets: u64,
    ways: usize,
    line_bytes: u64,
    lines: Vec<u64>,
    /// The rank field, shifted down to bit 0.
    rank_mask: u64,
    /// Where the tag starts.
    tag_shift: u32,
    hits: u64,
    misses: u64,
}

const VALID: u64 = 1;
const DIRTY: u64 = 2;
const RANK_SHIFT: u32 = 2;

impl SetAssocCache {
    /// Builds a cache from a level configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration implies zero sets or ways, or tags too
    /// wide to share a line word with the valid, dirty and rank bits.
    pub fn new(cfg: CacheLevelConfig, name: &'static str) -> Self {
        let sets = cfg.sets();
        assert!(sets > 0, "{name}: zero sets");
        assert!(cfg.ways > 0, "{name}: zero ways");
        let rank_bits = u64::BITS - (u64::from(cfg.ways) - 1).leading_zeros();
        let tag_shift = RANK_SHIFT + rank_bits;
        let tag_bits = u64::BITS - (u64::MAX / cfg.line_bytes / sets).leading_zeros();
        assert!(
            tag_bits + tag_shift <= u64::BITS,
            "{name}: {tag_bits}-bit tags leave fewer than the {tag_shift} spare bits \
             a line word needs for {} ways",
            cfg.ways
        );
        let lines = (sets * u64::from(cfg.ways)) as usize;
        Self {
            name,
            sets,
            ways: cfg.ways as usize,
            line_bytes: cfg.line_bytes,
            lines: vec![0; lines],
            rank_mask: (1 << rank_bits) - 1,
            tag_shift,
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

    /// The set of `addr` and the word a valid, clean, most recently used
    /// line holding it would be.
    fn index(&self, addr: Addr) -> (u64, u64) {
        let line = addr / self.line_bytes;
        (
            line % self.sets,
            (line / self.sets) << self.tag_shift | VALID,
        )
    }

    /// The line words of `set`.
    fn set_range(&self, set: u64) -> std::ops::Range<usize> {
        let start = (set as usize) * self.ways;
        start..start + self.ways
    }

    /// The bits of a line word that name the line: tag and valid bit.
    fn key_mask(&self) -> u64 {
        !(DIRTY | self.rank_mask << RANK_SHIFT)
    }

    /// Accesses `addr`; on a miss the line is filled (allocate-on-miss) and
    /// a dirty victim, if any, is reported for write-back.
    pub fn access(&mut self, addr: Addr, is_write: bool) -> AccessOutcome {
        let (set, key) = self.index(addr);
        let (key_mask, ranks) = (self.key_mask(), self.rank_mask << RANK_SHIFT);
        let lru = (self.ways as u64 - 1) << RANK_SHIFT;
        let dirty = if is_write { DIRTY } else { 0 };
        let range = self.set_range(set);
        let lines = &mut self.lines[range];
        // One pass finds the hit and the victim: the first invalid (all
        // zero) way, else the least recently used one. A set with an
        // invalid way holds no valid line of rank `ways - 1`. Selects, not
        // branches: which way matches is data the host cannot predict.
        let (mut hit, mut victim) = (usize::MAX, 0);
        for (way, &line) in lines.iter().enumerate().rev() {
            if line & key_mask == key {
                hit = way;
            }
            if line == 0 || line & ranks == lru {
                victim = way;
            }
        }
        if hit != usize::MAX {
            // Every valid line more recent than the hit ages by one.
            let age = lines[hit] & ranks;
            if age != 0 {
                for line in lines.iter_mut() {
                    let newer = (*line & VALID != 0) & (*line & ranks < age);
                    *line += u64::from(newer) << RANK_SHIFT;
                }
            }
            lines[hit] = key | lines[hit] & DIRTY | dirty;
            self.hits += 1;
            return AccessOutcome {
                hit: true,
                writeback: None,
            };
        }
        // The victim leaves, every valid line left ages by one, and the new
        // line comes in as the most recently used.
        let old = std::mem::take(&mut lines[victim]);
        for line in lines.iter_mut() {
            *line += (*line & VALID) << RANK_SHIFT;
        }
        lines[victim] = key | dirty;
        self.misses += 1;
        // Reconstruct a dirty victim's address from its tag and set.
        let writeback = (old & (VALID | DIRTY) == VALID | DIRTY)
            .then(|| ((old >> self.tag_shift) * self.sets + set) * self.line_bytes);
        AccessOutcome {
            hit: false,
            writeback,
        }
    }

    /// Probes for presence without updating replacement state.
    pub fn contains(&self, addr: Addr) -> bool {
        let (set, key) = self.index(addr);
        let key_mask = self.key_mask();
        self.lines[self.set_range(set)]
            .iter()
            .any(|&line| line & key_mask == key)
    }

    /// Invalidates everything (e.g. between experiment phases).
    pub fn flush(&mut self) {
        self.lines.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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

    /// The three-array cache the line words replaced: tags, LRU stamps
    /// (0 = invalid) and dirty flags, scanned once to find a hit and again
    /// for the LRU victim.
    struct Reference {
        sets: u64,
        ways: usize,
        line_bytes: u64,
        tags: Vec<u64>,
        lru: Vec<u64>,
        dirty: Vec<bool>,
        stamp: u64,
        hits: u64,
        misses: u64,
    }

    impl Reference {
        fn new(cfg: CacheLevelConfig) -> Self {
            let lines = (cfg.sets() * u64::from(cfg.ways)) as usize;
            Self {
                sets: cfg.sets(),
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

        fn index(&self, addr: Addr) -> (u64, u64) {
            let line = addr / self.line_bytes;
            (line % self.sets, line / self.sets)
        }

        fn set_range(&self, set: u64) -> std::ops::Range<usize> {
            let start = (set as usize) * self.ways;
            start..start + self.ways
        }

        fn find(&self, set: u64, tag: u64) -> Option<usize> {
            self.set_range(set)
                .find(|&i| self.lru[i] != 0 && self.tags[i] == tag)
        }

        fn access(&mut self, addr: Addr, is_write: bool) -> AccessOutcome {
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
            let range = self.set_range(set);
            let victim = range.start
                + self.lru[range]
                    .iter()
                    .enumerate()
                    .min_by_key(|&(_, &lru)| lru)
                    .map(|(way, _)| way)
                    .expect("ways > 0");
            let writeback = (self.lru[victim] != 0 && self.dirty[victim])
                .then(|| (self.tags[victim] * self.sets + set) * self.line_bytes);
            self.tags[victim] = tag;
            self.lru[victim] = stamp;
            self.dirty[victim] = is_write;
            self.misses += 1;
            AccessOutcome {
                hit: false,
                writeback,
            }
        }

        fn contains(&self, addr: Addr) -> bool {
            let (set, tag) = self.index(addr);
            self.find(set, tag).is_some()
        }

        fn flush(&mut self) {
            self.tags.fill(0);
            self.lru.fill(0);
            self.dirty.fill(false);
        }
    }

    proptest! {
        /// The line-word cache answers every access, probe and counter
        /// exactly as the three-array reference does, flushes included, on
        /// 1-4 sets of 1, 2, 8 and 16 ways. Addresses come from a few lines
        /// more than the cache holds, some with the widest tags.
        #[test]
        fn line_words_match_the_three_array_reference(
            sets in 1u64..5,
            ways in prop::sample::select(vec![1u32, 2, 8, 16]),
            ops in prop::collection::vec((0u64..40, 0u8..4, any::<bool>(), 0u64..64, 0u8..40), 1..300),
        ) {
            let cfg = CacheLevelConfig {
                size_bytes: sets * u64::from(ways) * 64,
                line_bytes: 64,
                ways,
                hit_latency: 1,
            };
            let (mut cache, mut reference) = (SetAssocCache::new(cfg, "L"), Reference::new(cfg));
            let mut seen = Vec::new();
            for (line, high, is_write, offset, flush) in ops {
                if flush == 0 {
                    cache.flush();
                    reference.flush();
                }
                let line = match high {
                    0 => line,
                    1 => line | 1 << 40,
                    2 => line | 1 << 57,
                    _ => u64::MAX / 64 - line,
                };
                let addr = line * 64 + offset;
                prop_assert_eq!(cache.access(addr, is_write), reference.access(addr, is_write));
                prop_assert_eq!((cache.hits(), cache.misses()), (reference.hits, reference.misses));
                seen.push(addr);
                for &probe in &seen {
                    prop_assert_eq!(cache.contains(probe), reference.contains(probe), "{:#x}", probe);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "tiny: 64-bit tags leave fewer than the 6 spare bits")]
    fn new_rejects_tags_without_spare_bits() {
        // One set of 16 one-byte lines: the tag is the whole address.
        SetAssocCache::new(
            CacheLevelConfig {
                size_bytes: 16,
                line_bytes: 1,
                ways: 16,
                hit_latency: 1,
            },
            "tiny",
        );
    }

    #[test]
    fn table2_l1_geometry() {
        let c = SetAssocCache::new(dg_sim::config::CacheConfig::default().l1, "L1");
        assert_eq!(c.sets, 64);
        assert_eq!(c.ways, 8);
    }
}
