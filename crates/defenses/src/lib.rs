//! Baseline memory timing side-channel defenses.
//!
//! The paper compares DAGguise against the prior art:
//!
//! * [`fs`] — **Fixed Service** (Shafiee et al., MICRO'15, §3.1) and its
//!   performance-optimized variant **FS-BTA** (Bank Triple Alternation,
//!   §6.1): deterministic slotted schedules that completely isolate
//!   security domains at the cost of static bandwidth partitioning.
//! * [`fs_spatial`] — **bank-partitioned Fixed Service** (§8): each domain
//!   owns a disjoint set of banks and issues into them at full rate.
//! * [`tp`] — **Temporal Partitioning** (Wang et al., HPCA'14, §8):
//!   coarse time-multiplexing of the whole controller across domains.
//! * [`camouflage`] — **Camouflage** (Zhou et al., HPCA'17, §3.1): a
//!   per-domain shaper that matches a *distribution* of injection
//!   intervals but — unlike DAGguise — hides neither the ordering of
//!   intervals nor bank information (Figure 2).
//!
//! Fixed Service, FS-spatial and Temporal Partitioning replace the memory
//! controller: each is one [`schedule::FixedSchedule`] (the shared
//! [`dg_mem::MemorySubsystem`] body: private per-domain queues, fixed
//! service latency, completion drain) driven by its own
//! [`schedule::IssueRule`]. Camouflage is a [`dg_mem::DomainShaper`]
//! plugged into a shared controller, like DAGguise itself.

pub mod camouflage;
pub mod fs;
pub mod fs_spatial;
pub mod schedule;
pub mod tp;

pub use camouflage::{CamouflageShaper, IntervalDistribution};
pub use fs::{FixedService, FsConfig};
pub use fs_spatial::{FsSpatial, FsSpatialConfig};
pub use schedule::{FixedSchedule, IssueRule, ScheduleConfig};
pub use tp::{TemporalPartition, TpConfig};
