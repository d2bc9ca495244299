//! Receiver (attacker) programs and leakage analysis.
//!
//! The receiver of §2.2 actively emits memory requests and infers the
//! transmitter's traffic from its own response latencies. This crate
//! provides:
//!
//! * [`probe`] — the constant-pattern probe attacker of Figure 1, as a
//!   standalone driver against a bare memory controller (for the Figure 1
//!   scenarios) and as a [`dg_cpu::Core`] ([`probe::ProbeCore`]) for
//!   full-system attacks.
//! * [`covert`] — the covert channel between a sender and a receiver
//!   core ([`covert::CovertConfig::transmit`]).
//! * [`distinguish`] — trace-distance metrics and the secret
//!   distinguisher: given receiver latency traces observed under two
//!   victim secrets, decide whether the channel leaks.
//!
//! The end-to-end security claims in this repository are all phrased via
//! these tools: the insecure baseline and Camouflage yield
//! *distinguishable* probe traces, DAGguise and Fixed Service yield
//! *bit-identical* ones.

pub mod covert;
pub mod distinguish;
pub mod probe;

pub use covert::{CovertConfig, CovertResult};
pub use distinguish::{distinguishable, mean_abs_diff, total_variation, LeakVerdict};
pub use probe::{figure1_scenario, Figure1Scenario, ProbeCore, ProbeLog, ProbeObservation};
