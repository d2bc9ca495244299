//! `dg-obs`: the observability layer of the DAGguise reproduction.
//!
//! Three pieces, designed to be wired through every simulation component
//! without perturbing it:
//!
//! * **Event tracing** — a cloneable [`Tracer`] handle records
//!   cycle-stamped [`Event`]s (request issue, LLC miss, shaper decisions,
//!   transaction-queue entry, DRAM bank commands, responses) into a bounded
//!   ring buffer. The default handle is a no-op whose `record` call is a
//!   single branch, and the whole mechanism compiles out when the `trace`
//!   feature is disabled.
//! * **Chrome trace export** — [`chrome_trace_json`] converts a recorded
//!   event stream into Chrome `trace_event` JSON that opens directly in
//!   Perfetto, with request lifecycles drawn as async spans per domain and
//!   DRAM commands as instants per bank.
//! * **Run reports** — [`RunReport`] snapshots every stats structure of a
//!   run (per-core IPC, per-domain traffic and latency histograms, shaper
//!   conformance, DRAM energy) plus the [`IntervalSampler`] time series
//!   into one serializable artifact.
//! * **Security observability (`dg-leak`)** — the [`leak`] module's
//!   [`InterferenceMatrix`] attributes every stalled cycle to the domain
//!   that caused it, [`ShaperTimeline`] records windowed shaper behaviour,
//!   and [`LeakEstimator`] turns attacker-observable latencies into a
//!   channel-capacity-over-time estimate.
//!
//! Determinism is part of the contract: with a fixed seed, both the event
//! stream and its JSON encodings are byte-identical across runs.

pub mod chrome;
pub mod event;
pub mod interval;
pub mod leak;
pub mod report;
pub mod tracer;

pub use chrome::{
    chrome_trace, chrome_trace_json, chrome_trace_sharded, chrome_trace_sharded_json,
};
pub use event::{BankCmd, Event, EventKind};
pub use interval::{IntervalSample, IntervalSampler};
pub use leak::{
    InterferenceMatrix, InterferenceReport, LeakEstimator, LeakReport, LeakSample, LeakSummary,
    ShaperTimeline, ShaperTimelineReport, ShaperWindow, StallCause, StallCauseCycles,
};
pub use report::{
    BankReport, CoreReport, DomainReport, DramReport, EnergyReport, RunMeta, RunReport,
    ShaperReport, TraceSummary,
};
pub use tracer::{RingBuffer, Tracer};
