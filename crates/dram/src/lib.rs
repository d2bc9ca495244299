//! Cycle-level DRAM device model (the DRAMSim2 substitute).
//!
//! The paper evaluates DAGguise on gem5 + DRAMSim2; this crate rebuilds the
//! DRAM side from scratch: a single-channel, single-rank, multi-bank DDR3
//! device with the Table 2 timing parameters, per-bank row-buffer state
//! machines, a shared command bus and data bus, the four-activate window,
//! and periodic refresh.
//!
//! The model exposes *earliest-legal-issue* queries so a memory-controller
//! scheduler (in `dg-mem`) can ask "when could I issue this command?" and
//! *issue* operations that advance device state. All externally visible
//! times are in global CPU cycles (see [`dg_sim::clock`]); the constructor
//! converts the DRAM-cycle parameters of [`dg_sim::config::DramTiming`]
//! using the configured clock ratio.
//!
//! # Example
//!
//! ```
//! use dg_dram::{DramDevice, DramCommand};
//! use dg_sim::config::{DramOrg, DramTiming};
//! use dg_sim::clock::ClockRatio;
//!
//! let mut dev = DramDevice::new(DramOrg::default(), DramTiming::default(), ClockRatio::default());
//! let t = dev.earliest(DramCommand::Activate { bank: 0, row: 5 }, 0);
//! dev.issue(DramCommand::Activate { bank: 0, row: 5 }, t);
//! let rd = DramCommand::Read { bank: 0, auto_precharge: true };
//! let t_rd = dev.earliest(rd, t);
//! let done = dev.issue(rd, t_rd).expect("read returns data time");
//! assert!(done > t_rd);
//! ```

pub mod bank;
pub mod checker;
pub mod command;
pub mod device;
pub mod mapping;
pub mod power;
pub mod timing;

pub use bank::{Bank, BankState};
pub use checker::{check_trace, CommandRecorder, TraceEntry, Violation};
pub use command::DramCommand;
pub use device::{BlockReason, DramDevice, RankHorizons};
pub use mapping::{AddressMapper, MapScheme, PhysLoc};
pub use power::{EnergyCounter, PowerParams};
pub use timing::CpuTiming;
