//! `dg-runner`: checkpointed, work-stealing experiment orchestration.
//!
//! The figure harnesses and the `dg-run` CLI all drive their sweeps
//! through this crate:
//!
//! * **Jobs** ([`job`]) — stable string ids, per-attempt context, and the
//!   seed derivation that makes results independent of worker count.
//! * **Pool** ([`pool`]) — a work-stealing thread pool over
//!   `crossbeam::deque`, with `--jobs` resolution.
//! * **Journal** ([`journal`]) — an append-only fsynced JSONL checkpoint
//!   enabling `--resume` after a crash or kill.
//! * **Runner** ([`runner`]) — supervision: retries with budget
//!   escalation on [`SimError::Deadline`](dg_sim::error::SimError)
//!   (and, opt-in, on stall-watchdog cancellations), panic isolation,
//!   optional cooperative wall-clock timeouts, graceful journal
//!   degradation with a [`SweepHealth`] record and [`ExitClass`]
//!   taxonomy, quarantine bundles for terminally failed jobs, and
//!   deterministic merging into a canonical report.
//! * **Specs** ([`spec`], [`toml`]) — declarative TOML/JSON sweep grids
//!   for `dg-run`.
//! * **Material** ([`scale`], [`material`]) — workload scales and trace
//!   builders shared with `dg-bench`.
//! * **Leaderboards** ([`leak`], [`latency`], [`profile`]) — sweep-level
//!   aggregation: covert-channel capacity, merged HDR latency percentiles
//!   (deterministic, embedded in the report), and host-time cost per
//!   defense (nondeterministic, standalone artifact).
//! * **Live telemetry** (`dg-mon`, wired through [`runner`]) — worker
//!   heartbeats, the `--live` dashboard, the `--events` JSONL stream, and
//!   the stall watchdog. Strictly observational: enabling any of it never
//!   changes the merged report.
//!
//! The invariant the whole crate is built around: a job's result is a
//! pure function of its stable id and parameters. Scheduling order,
//! worker count, resume history, and wall-clock time never leak into the
//! merged report, so `dg-run --jobs 1` and `--jobs 16`, interrupted or
//! not, produce byte-identical output.

pub mod job;
pub mod journal;
pub mod latency;
pub mod leak;
pub mod material;
pub mod pool;
pub mod profile;
pub mod runner;
pub mod scale;
pub mod spec;
pub mod toml;

pub use job::{attempt_budget, job_seed, JobCtx, JobDesc, JobRecord};
pub use journal::{replay_journal, JournalEntry, JournalReplay, JournalWriter};
pub use latency::{latency_leaderboard, latency_table, merged_report_with_latency, LatencyRow};
pub use leak::{leak_leaderboard, leak_report_json, leak_table, LeakRow};
pub use pool::{effective_jobs, run_work_stealing};
pub use profile::{
    host_cost_leaderboard, host_cost_table, merged_profile, profile_report_json, HostCostRow,
};
pub use runner::{run_sweep, ExitClass, RunnerConfig, SweepHealth, SweepOutcome};
pub use scale::Scale;
pub use spec::{execute_job, ColocationJob, ExperimentSpec, GridSpec, OverrideSpec, VictimKind};
pub use toml::parse_toml;
