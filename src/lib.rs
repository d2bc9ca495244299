//! DAGguise reproduction — umbrella crate.
//!
//! This crate re-exports the whole workspace behind one dependency so the
//! examples under `examples/` and downstream users can write
//! `use dagguise_repro::prelude::*;` and get the full stack: the DAGguise
//! shaper itself ([`dagguise`]), the rDAG representation ([`dg_rdag`]),
//! the simulated memory system ([`dg_dram`], [`dg_mem`], [`dg_cache`],
//! [`dg_cpu`]), the baseline defenses ([`dg_defenses`]), workloads and
//! attacks ([`dg_workloads`], [`dg_attacks`]), the system assembly
//! and its one simulation engine ([`dg_system`]), the co-location entry
//! point ([`dg_shard`]), the security verifier ([`dg_verif`]) and the area
//! model ([`dg_area`]).
//!
//! Start with `examples/quickstart.rs`, or see README.md for the map of
//! the workspace.

pub use dagguise;
pub use dg_area;
pub use dg_attacks;
pub use dg_cache;
pub use dg_cpu;
pub use dg_defenses;
pub use dg_dram;
pub use dg_mem;
pub use dg_rdag;
pub use dg_shard;
pub use dg_sim;
pub use dg_system;
pub use dg_verif;
pub use dg_workloads;

/// The most commonly used items, re-exported flat.
pub mod prelude {
    pub use dagguise::{Shaper, ShaperConfig};
    pub use dg_cpu::{Core, DagWorkload, MemTrace};
    pub use dg_rdag::template::RdagTemplate;
    pub use dg_rdag::Rdag;
    pub use dg_sim::config::SystemConfig;
    pub use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqType};
    pub use dg_system::{MemoryKind, SystemBuilder};
}
