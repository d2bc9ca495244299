//! # dg-fault — deterministic fault injection for the sweep service
//!
//! Production sweeps run on hostile hosts: disks fill up, writes get
//! interrupted, fsync lies, and simulation models occasionally livelock
//! or crash. This crate makes those failures *reproducible* so every
//! supervision mechanism in the runner can be proven against the fault
//! class it exists to catch:
//!
//! * [`IoPlan`] / [`FaultSink`] ([`io`]) — an injectable IO facade for the
//!   journal, events stream, and report artifacts. A plan schedules
//!   `ENOSPC`, `EINTR`, partial writes, and fsync failures at exact byte
//!   offsets ([`IoFault`], parsed from `stream@byte:kind` specs). Without
//!   a plan the sink is a plain file writer — the observer-effect
//!   discipline is that an unarmed fault plane changes nothing.
//! * [`RetryPolicy`] / [`retry_io`] ([`retry`]) — bounded
//!   exponential-backoff retry for *transient* errors (`EINTR`,
//!   interrupted/partial writes); persistent errors (`ENOSPC`, fsync
//!   `EIO`) surface immediately so callers can degrade gracefully
//!   instead of spinning on a full disk.
//! * [`SimFault`] ([`sim`]) — seeded simulation-layer faults (stuck bank,
//!   dropped response, frozen simulated clock, deterministic panic),
//!   drawn per job id by [`draw_sim_fault`] so a chaos sweep is exactly
//!   reproducible from `--fault-seed`.
//!
//! Everything is a pure function of the plan/seed: the same plan against
//! the same write sequence fires at the same bytes, and the same seed
//! assigns the same faults to the same job ids, which is what lets CI
//! byte-compare a chaos run's recovery against an uninjected run.

pub mod io;
pub mod plan;
pub mod retry;
pub mod sim;

pub use io::{truncate_torn_tail, FaultSink, IoPlan};
pub use plan::{IoFault, IoFaultKind, IoStream};
pub use retry::{is_transient, retry_io, RetryPolicy};
pub use sim::{draw_sim_fault, hold_frozen_clock, SimFault, SimFaultKind, FREEZE_CAP};
