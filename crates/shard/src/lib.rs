//! `dg-shard`: conservative-PDES sharded simulation.
//!
//! Partitions a multi-channel system — cores plus one independent memory
//! controller (and defense instances) per channel — into shards, each
//! advanced on its own thread by the existing event engine, synchronized
//! with a conservative parallel-discrete-event barrier. The NoC hop
//! latency is the lookahead horizon: each superstep spans at most that
//! many cycles, so cross-shard messages (stamped with their delivery
//! cycle and carried on bounded SPSC rings) can be exchanged exclusively
//! at barriers without ever arriving late.
//!
//! The defining property is *partition independence*: for any shard count
//! `S`, the merged run report is byte-identical (engine telemetry aside)
//! to the `S = 1` reference, because the logical topology — every
//! core↔channel message takes one NoC hop — does not depend on the
//! partitioning, and all cross-component communication is replayed in the
//! global `(deliver_at, sender, seq)` order. `DG_SHARDS=1` vs
//! `DG_SHARDS=N` is the repo's differential oracle for the subsystem.
//!
//! See DESIGN.md ("Sharded simulation") for the topology, the barrier
//! protocol, and the determinism argument.

pub mod barrier;
pub mod experiment;
pub mod fragment;
pub mod lookahead;
pub mod msg;
pub mod shard;
pub mod system;

pub use barrier::SpinBarrier;
pub use experiment::{check_fault, run_colocation, shards_from_env, RunOpts, RunOutput};
pub use fragment::{ChannelFragment, ShardReportFragment};
pub use lookahead::{
    check_lookahead_contract, replay_naive, replay_skipping, LookaheadViolation, Schedule,
};
pub use msg::{SpscRing, StampedReq, StampedResp};
pub use shard::Shard;
pub use system::{ShardConfig, ShardedSystem, ShardedSystemBuilder};
