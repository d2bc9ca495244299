//! # dg-mon — live run telemetry, stall watchdog, and trend analytics
//!
//! The live-observability plane for the DAGguise reproduction. Everything
//! observability so far (`dg-obs` traces, `dg-prof` profiles) is post-hoc:
//! a sweep is a black box until it exits. This crate threads a
//! lock-light heartbeat channel through the runner, the sharded PDES
//! coordinator, and the event-driven engine so a running sweep can be
//! watched, streamed, and supervised:
//!
//! * [`ProgressProbe`] / [`MonitorHub`] — per-job heartbeats (simulated
//!   cycles, supersteps, warp-skipped cycles) published with relaxed
//!   atomics from inside the simulation loop, folded into monotonic
//!   [`TelemetrySnapshot`]s by a sampling thread.
//! * [`Dashboard`] — the `dg-run --live` in-terminal view (per-worker
//!   state machine, aggregate sim-Mcycles/s, per-defense progress, ETA
//!   from completed-job medians).
//! * [`EventsWriter`] — `dg-run --events PATH` append-only JSONL stream
//!   with journal-style torn-tail repair on `--resume`.
//! * [`MonitorHub::watchdog_scan`] — the stall watchdog: a running job
//!   whose *simulated* clock stops advancing for a configurable host-time
//!   budget is cancelled through the existing supervision machinery,
//!   distinguishing livelock from "slow but alive".
//! * [`analyze_document`] / `dg-trend` — noise-aware regression verdicts
//!   over the `BENCH_perf.json` run history (trailing-window median ±
//!   MAD per stratified series), the basis of ci.sh's trend gate.
//! * [`log_error!`]/[`log_warn!`]/[`log_info!`]/[`log_debug!`] — the
//!   leveled structured-log facade (`DG_LOG`) that shares a stderr gate
//!   with the dashboard so diagnostics never shear the live region.
//! * [`env`](mod@env) — the three environment variables the simulator
//!   reads (`DG_NO_SKIP`, `DG_LOG`, `DG_MON_TEST_STALL`), parsed under one
//!   rule.
//!
//! The cardinal rule is **no observer effect**: monitoring may change
//! wall-clock timing but never simulation results — merged reports are
//! byte-identical with monitoring on or off, which
//! `monitoring_does_not_perturb_the_report` in `crates/runner/tests/monitor.rs`
//! enforces.

pub mod config;
pub mod dashboard;
pub mod env;
pub mod events;
pub mod heartbeat;
pub mod log;
pub mod telemetry;
pub mod trend;

pub use config::MonitorConfig;
pub use dashboard::Dashboard;
pub use events::{scan_events, EventsScan, EventsWriter};
pub use heartbeat::{JobState, MonitorHub, ProgressProbe};
pub use telemetry::{GroupProgress, TelemetrySnapshot, WorkerSnapshot};
pub use trend::{analyze_document, TrendOptions, TrendReport, TrendRow, Verdict};
