//! Cache hierarchy substrate (the gem5 cache-side substitute).
//!
//! Table 2's hierarchy: private 32 KB L1 and 256 KB L2 per core, and a
//! shared 1 MB-per-core L3. Caches are set-associative with LRU
//! replacement, write-back + write-allocate. Only LLC misses (and dirty
//! LLC evictions) reach the memory controller — the traffic the paper's
//! side channel lives on.
//!
//! The model is a *tag-store* model: it tracks presence and dirtiness, not
//! data. Hit latencies come from the configuration; miss traffic is
//! returned to the caller ([`HierarchyOutcome`]) to be issued to the
//! memory subsystem.
//!
//! # Example
//!
//! ```
//! use dg_cache::{CacheHierarchy, SetAssocCache};
//! use dg_sim::config::CacheConfig;
//!
//! let cfg = CacheConfig::default();
//! let mut l3 = SetAssocCache::new(cfg.l3_per_core, "L3");
//! let mut h = CacheHierarchy::new(&cfg);
//! let first = h.access(0x1000, false, &mut l3);
//! assert_eq!(first.memory_read, Some(0x1000)); // cold miss goes to memory
//! let again = h.access(0x1000, false, &mut l3);
//! assert!(again.memory_read.is_none()); // now an L1 hit
//! ```

pub mod cache;
pub mod hierarchy;

pub use cache::{AccessOutcome, SetAssocCache};
pub use hierarchy::{CacheHierarchy, HierarchyOutcome, HitLevel};
