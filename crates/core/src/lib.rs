//! DAGguise — the paper's defense mechanism.
//!
//! DAGguise places a *request shaper* between a protected domain's LLC and
//! the shared memory controller (Figure 3). The shaper buffers the domain's
//! requests in a private transaction queue and emits requests following the
//! timing dependencies of a public, secret-independent *defense rDAG*:
//! when the rDAG prescribes a request and a matching real request (same
//! bank, same read/write type) is buffered, that request is forwarded;
//! otherwise a fake request to a random address in the prescribed bank is
//! fabricated. Because everything the receiver can observe — emission
//! times, banks, types — is a function of the defense rDAG and of
//! receiver-visible contention alone, the victim's traffic is perfectly
//! hidden (§5; verified in `dg-verif`).
//!
//! # Quick start
//!
//! ```
//! use dagguise::{Shaper, ShaperConfig};
//! use dg_rdag::template::RdagTemplate;
//! use dg_sim::config::SystemConfig;
//! use dg_sim::types::DomainId;
//!
//! let cfg = SystemConfig::two_core();
//! // Figure 6(a): 4 parallel sequences, weight 100 DRAM cycles.
//! let template = RdagTemplate::new(4, 100, 0.001);
//! let shaper = Shaper::new(ShaperConfig::from_system(DomainId(0), template, &cfg));
//! assert_eq!(shaper.stats().fakes_emitted, 0);
//! ```

pub mod shaper;

pub use shaper::{Shaper, ShaperConfig, ShaperStats};
