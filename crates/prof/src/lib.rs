//! Host-side profiling layer: span profiler, engine telemetry, and
//! HDR-style latency histograms.
//!
//! This crate is to *host* time what `dg-obs` is to *simulated* time. It
//! deliberately sits below every simulator crate (its only dependencies
//! are the vendored serde pair) so any component can open a span:
//!
//! ```
//! dg_prof::start();
//! {
//!     let _tick = dg_prof::span("tick");
//!     let _mem = dg_prof::span("mem_tick");
//!     // ... host work ...
//! }
//! let report = dg_prof::stop().unwrap();
//! assert_eq!(report.root.name, "run");
//! assert_eq!(report.root.children[0].name, "tick");
//! println!("{}", report.to_json());
//! ```
//!
//! Three independent pieces live here:
//!
//! - [`span()`]/[`start`]/[`stop`]: a thread-local hierarchical span
//!   profiler ([`ProfScope`] RAII guards over a frame stack) producing a
//!   per-component host-time attribution tree ([`ProfileReport`]) with
//!   JSON and collapsed-stack (flamegraph) exports.
//! - [`EngineCounters`]/[`EngineTelemetry`]: counters describing how the
//!   event-driven engine covered simulated time (warp distances, skip
//!   efficiency, scan backoff, per-component polls).
//! - [`LogHistogram`]/[`HistSnapshot`]: log-bucketed histograms with a
//!   3.125% quantile error bound and a deterministic, associative merge —
//!   used for simulated memory latency and instruction-completion
//!   distributions, so they are part of the *deterministic* report, not
//!   the host-time side channel.

pub mod collector;
pub mod hist;
pub mod span;
pub mod telemetry;

pub use hist::{bucket_index, bucket_lower_bound, Bucket, HistSnapshot, LogHistogram, SUB_BITS};
pub use span::{is_enabled, span, start, stop, ProfScope, ProfileNode, ProfileReport, ROOT_SPAN};
pub use telemetry::{ComponentPolls, EngineCounters, EngineTelemetry};
