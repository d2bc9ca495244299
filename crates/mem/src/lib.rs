//! The shared memory controller and its front-end plug-in point.
//!
//! This crate models the controller structure of §2.1: a global
//! *transaction queue*, per-bank *command queues* (implicit in the
//! scheduler's per-bank view), and a command scheduler (FCFS or FR-FCFS,
//! open- or closed-row) driving the [`dg_dram::DramDevice`].
//!
//! Defense mechanisms attach in two ways, mirroring the paper:
//!
//! * **Per-domain request shapers** ([`DomainShaper`]) sit between the LLC
//!   and the transaction queue (Figure 3). DAGguise and Camouflage are
//!   shapers; unprotected domains use [`PassThrough`]. The
//!   [`ShapedMemory`] assembly routes requests through the right shaper.
//! * **Whole-controller schedules** (Fixed Service, FS-BTA, Temporal
//!   Partitioning) replace the controller entirely; they implement
//!   [`MemorySubsystem`] directly in `dg-defenses`.
//!
//! # Example
//!
//! ```
//! use dg_mem::{MemoryController, MemorySubsystem, SchedPolicy};
//! use dg_sim::config::SystemConfig;
//! use dg_sim::types::{DomainId, MemRequest, ReqId};
//!
//! let cfg = SystemConfig::two_core();
//! let mut mc = MemoryController::new(&cfg, SchedPolicy::FrFcfs);
//! let req = MemRequest::read(DomainId(0), 0x40, 0).with_id(ReqId::compose(DomainId(0), 1));
//! mc.try_send(req, 0).unwrap();
//! let mut done = Vec::new();
//! let mut now = 0;
//! while done.is_empty() {
//!     done = mc.tick(now);
//!     now += 1;
//! }
//! assert_eq!(done[0].id, req.id);
//! ```

pub mod channel;
pub mod controller;
pub mod front;
pub mod stats;

pub use channel::{merge_interference, ChannelMap};
pub use controller::{MemoryController, SchedPolicy};
pub use front::{DomainShaper, MemorySubsystem, PassThrough, ShapedMemory};
pub use stats::{BankStats, DomainStats, MemStats};
