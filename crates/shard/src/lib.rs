//! `dg-shard`: the co-location entry point and the PDES safety harness.
//!
//! [`run_colocation`] runs traces on the one simulation engine
//! (`dg_system::System`) — cores wired straight to the memory path, or a
//! multi-channel system partitioned into conservative-PDES shards whose
//! core↔channel messages take a NoC hop — under one supervision loop.
//!
//! The sharded topology's defining property is *partition independence*:
//! for any shard count `S`, the merged run report is byte-identical
//! (engine telemetry aside) to the `S = 1` reference, because the logical
//! topology — every core↔channel message takes one NoC hop — does not
//! depend on the partitioning, and all cross-component communication is
//! replayed in the global `(deliver_at, sender, seq)` order. `dg-run
//! --shards 1` vs `--shards N` is the repo's differential oracle for it;
//! [`check_lookahead_contract`] checks the component promises it rests on.
//!
//! See DESIGN.md ("Sharded simulation") for the topology, the barrier
//! protocol, and the determinism argument.

pub mod experiment;
pub mod lookahead;

pub use dg_system::{ShardConfig, ShardedSystemBuilder, System as ShardedSystem};
pub use experiment::{run_colocation, RunOpts, RunOutput};
pub use lookahead::{
    check_lookahead_contract, replay_naive, replay_skipping, LookaheadViolation, Schedule,
};
