//! Full-system assembly and experiment runners.
//!
//! This crate wires the substrates into the systems the paper evaluates:
//! cores (`dg-cpu`) with private caches and a shared L3 (`dg-cache`),
//! feeding a memory path that is one of: the insecure FR-FCFS controller,
//! a shaped controller with DAGguise or Camouflage shapers on protected
//! domains, or a Fixed Service / FS-BTA / Temporal Partitioning
//! controller (`dg-defenses`).
//!
//! [`System`] runs on the one simulation engine: a core's memory traffic
//! either goes straight to the memory path (the paper's system, built by
//! [`SystemBuilder`]) or crosses a NoC to per-channel controllers
//! partitioned into conservative-PDES shards ([`ShardedSystemBuilder`]).
//! On top of it sit the co-location results of Figures 9/10
//! ([`experiment`]; `dg_shard::run_colocation` produces them) and the
//! offline profiling sweep of Figure 7 ([`profile`]).
//!
//! # Example
//!
//! ```
//! use dg_system::{MemoryKind, SystemBuilder};
//! use dg_sim::config::SystemConfig;
//! use dg_cpu::MemTrace;
//!
//! let cfg = SystemConfig::two_core();
//! let mut t = MemTrace::new();
//! t.load(0x4000, 50);
//! let mut sys = SystemBuilder::new(cfg)
//!     .trace_core(t.clone())
//!     .trace_core(t)
//!     .memory(MemoryKind::Insecure)
//!     .build();
//! let end = sys.run_until_finished(1_000_000).unwrap();
//! assert!(end > 0);
//! ```

#![forbid(unsafe_code)]

mod barrier;
pub mod builder;
pub mod experiment;
mod msg;
pub mod profile;
mod shard;
pub mod system;

pub use builder::{build_memory, MemoryKind, ShardedSystemBuilder, SystemBuilder};
pub use experiment::{ColocationResult, CoreResult};
pub use profile::{profile_victim, select_defense_rdag, ProfilePoint};
pub use system::{memory_sections, ShardConfig, System};
