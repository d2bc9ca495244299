//! Cross-shard messages.
//!
//! Every message crossing a shard boundary is stamped with its *delivery
//! cycle* (`send cycle + NoC latency`) plus a `(sender, sequence)` pair.
//! The triple `(deliver_at, sender, seq)` is a total order that depends
//! only on the logical system — never on the shard count or thread
//! schedule — so the router can sort each superstep's batch and replay it
//! identically for any partitioning. That total order is the heart of the
//! byte-identical determinism argument (see DESIGN.md).

use dg_sim::clock::Cycle;
use dg_sim::types::{MemRequest, MemResponse};

/// A core→channel memory request in flight on the NoC.
#[derive(Debug, Clone, Copy)]
pub struct StampedReq {
    /// Cycle the request becomes visible at the target channel.
    pub deliver_at: Cycle,
    /// Global index of the issuing core.
    pub core: u32,
    /// Per-core monotone sequence number.
    pub seq: u64,
    /// The request, still carrying its *global* address (the receiving
    /// shard rewrites it into channel-local form at injection).
    pub req: MemRequest,
}

impl StampedReq {
    /// The global delivery order key.
    pub fn key(&self) -> (Cycle, u32, u64) {
        (self.deliver_at, self.core, self.seq)
    }
}

/// A channel→core memory response in flight on the NoC.
#[derive(Debug, Clone, Copy)]
pub struct StampedResp {
    /// Cycle the response becomes visible at the owning core.
    pub deliver_at: Cycle,
    /// Global index of the completing channel.
    pub channel: u32,
    /// Per-channel monotone sequence number.
    pub seq: u64,
    /// The response, already rewritten to its global address.
    pub resp: MemResponse,
}

impl StampedResp {
    /// The global delivery order key.
    pub fn key(&self) -> (Cycle, u32, u64) {
        (self.deliver_at, self.channel, self.seq)
    }
}
