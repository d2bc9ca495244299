//! Experiment specifications: declarative sweep grids for `dg-run`.
//!
//! A spec (TOML or JSON) names a workload scale and a parameter grid —
//! defenses × victims × co-runners × seeds — which expands into a
//! deterministic, stably-identified job list. Expansion is a pure function
//! of the spec: the same file always yields the same jobs with the same
//! ids, which is what makes journals resumable and reports reproducible.

use crate::job::{JobCtx, JobDesc};
use crate::material::{dna_defense, dna_trace, docdist_defense, docdist_trace, spec_trace_seeded};
use crate::runner::{run_sweep, RunnerConfig, SweepOutcome};
use crate::scale::Scale;
use crate::toml::parse_toml;
use dg_defenses::IntervalDistribution;
use dg_fault::{draw_sim_fault, SimFault};
use dg_rdag::template::RdagTemplate;
use dg_shard::{run_colocation, RunOpts};
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_system::{ColocationResult, MemoryKind};
use dg_workloads::SpecPreset;
use serde::{DeError, Deserialize, Serialize, Value};
use std::io;
use std::path::Path;

/// The victim application of a co-location job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VictimKind {
    /// Document-distance (feature-vector) victim.
    DocDist,
    /// DNA k-mer matching victim.
    Dna,
}

impl VictimKind {
    /// Resolves a spec-file victim name.
    pub fn by_name(name: &str) -> Option<Self> {
        match name {
            "docdist" => Some(VictimKind::DocDist),
            "dna" => Some(VictimKind::Dna),
            _ => None,
        }
    }

    /// The stable spec-file name.
    pub fn label(self) -> &'static str {
        match self {
            VictimKind::DocDist => "docdist",
            VictimKind::Dna => "dna",
        }
    }

    /// Records the victim's memory trace.
    pub fn trace(self, scale: &Scale, secret: u64) -> dg_cpu::MemTrace {
        match self {
            VictimKind::DocDist => docdist_trace(scale, secret),
            VictimKind::Dna => dna_trace(scale, secret),
        }
    }

    /// The profiled defense rDAG for this victim (§4.3 methodology).
    pub fn defense_template(self) -> RdagTemplate {
        match self {
            VictimKind::DocDist => docdist_defense(),
            VictimKind::Dna => dna_defense(),
        }
    }
}

/// Defense names a spec grid may request.
pub const DEFENSE_NAMES: &[&str] = &[
    "insecure",
    "dagguise",
    "fixed_service",
    "fs_bta",
    "fs_spatial",
    "temporal_partition",
    "camouflage",
];

/// Builds the [`MemoryKind`] for a named defense with the victim on
/// domain 0.
fn memory_kind(defense: &str, victim: VictimKind) -> Option<MemoryKind> {
    Some(match defense {
        "insecure" => MemoryKind::Insecure,
        "dagguise" => MemoryKind::Dagguise {
            protected: vec![Some(victim.defense_template()), None],
        },
        "fixed_service" => MemoryKind::FixedService,
        "fs_bta" => MemoryKind::FsBta,
        "fs_spatial" => MemoryKind::FsSpatial,
        "temporal_partition" => MemoryKind::TemporalPartition {
            slots_per_period: 4,
        },
        "camouflage" => MemoryKind::Camouflage {
            protected: vec![Some(IntervalDistribution::figure2()), None],
        },
        _ => return None,
    })
}

/// A per-job override matched by id substring. The CI smoke spec uses one
/// to force a `Deadline` on the first attempt of a chosen job, exercising
/// the retry/escalation path deterministically.
#[derive(Debug, Clone, PartialEq)]
pub struct OverrideSpec {
    /// Substring of the job id this override applies to.
    pub pattern: String,
    /// Replacement base cycle budget for matching jobs.
    pub budget: u64,
}

/// The parameter grid: every combination becomes one job.
#[derive(Debug, Clone, PartialEq)]
pub struct GridSpec {
    /// Defense names (see [`DEFENSE_NAMES`]).
    pub defenses: Vec<String>,
    /// Victim names (`docdist`, `dna`).
    pub victims: Vec<String>,
    /// SPEC co-runner preset names.
    pub corunners: Vec<String>,
    /// Victim secrets to sweep.
    pub seeds: Vec<u64>,
}

/// A declarative sweep: scale + grid + overrides.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentSpec {
    /// Sweep name; prefixes every job id.
    pub name: String,
    /// Workload scale (preset plus optional field overrides).
    pub scale: Scale,
    /// The parameter grid.
    pub grid: GridSpec,
    /// Per-job budget overrides.
    pub overrides: Vec<OverrideSpec>,
    /// Whether each job also runs the covert-channel leakage probe
    /// (spec key `leak = true`, or forced by `dg-run --leak`).
    pub leak: bool,
    /// Whether each job records a host-time span profile (spec key
    /// `profile = true`, or forced by `dg-run --profile`). Profiles are
    /// host-dependent, so they ship in a standalone artifact, never in the
    /// deterministic merged report.
    pub profile: bool,
    /// Shard count for the NoC topology (spec key `shards = N`, or forced
    /// by `dg-run --shards N`). `None` wires the cores straight to the
    /// memory path.
    pub shards: Option<usize>,
    /// Seed for the deterministic simulation-fault plan (spec table
    /// `[fault] seed = N`, or `dg-run --fault-seed N`). `None` disables
    /// fault injection entirely; the fault plane is a strict no-op.
    pub fault_seed: Option<u64>,
    /// Fraction of jobs the fault plan afflicts (spec key `[fault]
    /// rate = F` in `[0, 1]`, default 1.0). Which jobs draw a fault — and
    /// which kind — is a pure function of `(fault_seed, job id)`, so the
    /// same plan always breaks the same jobs the same way.
    pub fault_rate: f64,
    /// Whether stall-watchdog cancellations count as retryable (spec key
    /// `retry_stalled = true`, or `dg-run --retry-stalled`). `None`
    /// defers to the [`RunnerConfig`] default (off).
    pub retry_stalled: Option<bool>,
    /// Failure budget: the sweep exits successfully as long as at most
    /// this many jobs fail terminally (spec key `max_failures = N`, or
    /// `dg-run --max-failures N`). `None` defers to the
    /// [`RunnerConfig`] default (0).
    pub max_failures: Option<u64>,
}

fn opt<'a>(m: &'a [(String, Value)], key: &str) -> Option<&'a Value> {
    m.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

// Hand-written: the vendored derive has no `#[serde(default)]`, and most
// spec sections are optional.
impl Deserialize for ExperimentSpec {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let m = v
            .as_map()
            .ok_or_else(|| DeError::custom("spec must be a table"))?;

        let name = match opt(m, "name") {
            Some(v) => String::from_value(v)?,
            None => return Err(DeError::custom("spec is missing `name`")),
        };

        let mut scale = Scale::quick();
        if let Some(sv) = opt(m, "scale") {
            let sm = sv
                .as_map()
                .ok_or_else(|| DeError::custom("[scale] must be a table"))?;
            if let Some(p) = opt(sm, "preset") {
                let p = String::from_value(p)?;
                scale = Scale::by_name(&p)
                    .ok_or_else(|| DeError::custom(format!("unknown scale preset `{p}`")))?;
            }
            for (key, val) in sm {
                match key.as_str() {
                    "preset" => {}
                    "docdist_vocab" => scale.docdist_vocab = u64::from_value(val)?,
                    "docdist_words" => scale.docdist_words = u64::from_value(val)?,
                    "dna_genome" => scale.dna_genome = usize::from_value(val)?,
                    "dna_read" => scale.dna_read = usize::from_value(val)?,
                    "spec_instructions" => scale.spec_instructions = u64::from_value(val)?,
                    "budget" => scale.budget = u64::from_value(val)?,
                    other => return Err(DeError::custom(format!("unknown [scale] key `{other}`"))),
                }
            }
        }

        let gv = opt(m, "grid").ok_or_else(|| DeError::custom("spec is missing [grid]"))?;
        let gm = gv
            .as_map()
            .ok_or_else(|| DeError::custom("[grid] must be a table"))?;
        let defenses = match opt(gm, "defenses") {
            Some(v) => Vec::<String>::from_value(v)?,
            None => return Err(DeError::custom("[grid] is missing `defenses`")),
        };
        let victims = match opt(gm, "victims") {
            Some(v) => Vec::<String>::from_value(v)?,
            None => vec!["docdist".to_string()],
        };
        let corunners = match opt(gm, "corunners") {
            Some(v) => Vec::<String>::from_value(v)?,
            None => return Err(DeError::custom("[grid] is missing `corunners`")),
        };
        let seeds = match opt(gm, "seeds") {
            Some(v) => Vec::<u64>::from_value(v)?,
            None => vec![0],
        };

        let mut overrides = Vec::new();
        if let Some(ov) = opt(m, "override") {
            for entry in ov
                .as_seq()
                .ok_or_else(|| DeError::custom("[[override]] must be an array of tables"))?
            {
                let om = entry
                    .as_map()
                    .ok_or_else(|| DeError::custom("[[override]] entries must be tables"))?;
                let pattern = match opt(om, "match") {
                    Some(v) => String::from_value(v)?,
                    None => return Err(DeError::custom("[[override]] is missing `match`")),
                };
                let budget = match opt(om, "budget") {
                    Some(v) => u64::from_value(v)?,
                    None => return Err(DeError::custom("[[override]] is missing `budget`")),
                };
                overrides.push(OverrideSpec { pattern, budget });
            }
        }

        let leak = match opt(m, "leak") {
            Some(v) => bool::from_value(v)?,
            None => false,
        };

        let profile = match opt(m, "profile") {
            Some(v) => bool::from_value(v)?,
            None => false,
        };

        let shards = match opt(m, "shards") {
            Some(v) => Some(usize::from_value(v)?),
            None => None,
        };

        let mut fault_seed = None;
        let mut fault_rate = 1.0;
        if let Some(fv) = opt(m, "fault") {
            let fm = fv
                .as_map()
                .ok_or_else(|| DeError::custom("[fault] must be a table"))?;
            for (key, val) in fm {
                match key.as_str() {
                    "seed" => fault_seed = Some(u64::from_value(val)?),
                    "rate" => fault_rate = f64::from_value(val)?,
                    other => return Err(DeError::custom(format!("unknown [fault] key `{other}`"))),
                }
            }
        }

        let retry_stalled = match opt(m, "retry_stalled") {
            Some(v) => Some(bool::from_value(v)?),
            None => None,
        };

        let max_failures = match opt(m, "max_failures") {
            Some(v) => Some(u64::from_value(v)?),
            None => None,
        };

        let spec = ExperimentSpec {
            name,
            scale,
            grid: GridSpec {
                defenses,
                victims,
                corunners,
                seeds,
            },
            overrides,
            leak,
            profile,
            shards,
            fault_seed,
            fault_rate,
            retry_stalled,
            max_failures,
        };
        spec.validate().map_err(DeError::custom)?;
        Ok(spec)
    }
}

impl ExperimentSpec {
    /// Parses a spec from TOML text.
    ///
    /// # Errors
    ///
    /// Syntax errors or a grid naming unknown defenses/victims/presets.
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        let doc = parse_toml(text)?;
        Self::from_value(&doc).map_err(|e| e.to_string())
    }

    /// Parses a spec from JSON text.
    ///
    /// # Errors
    ///
    /// Syntax errors or a grid naming unknown defenses/victims/presets.
    pub fn from_json_str(text: &str) -> Result<Self, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    /// Loads a spec file, dispatching on extension (`.toml` vs `.json`).
    ///
    /// # Errors
    ///
    /// I/O errors, syntax errors, or validation failures.
    pub fn load(path: &Path) -> io::Result<Self> {
        let text = std::fs::read_to_string(path)?;
        let parsed = match path.extension().and_then(|e| e.to_str()) {
            Some("json") => Self::from_json_str(&text),
            _ => Self::from_toml_str(&text),
        };
        parsed.map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })
    }

    /// Checks that every grid entry names a known defense, victim, and
    /// SPEC preset, and that the options can run together.
    ///
    /// # Errors
    ///
    /// Returns a message naming the unknown entry.
    pub fn validate(&self) -> Result<(), String> {
        for d in &self.grid.defenses {
            if !DEFENSE_NAMES.contains(&d.as_str()) {
                return Err(format!(
                    "unknown defense `{d}` (expected one of {})",
                    DEFENSE_NAMES.join(", ")
                ));
            }
        }
        for v in &self.grid.victims {
            if VictimKind::by_name(v).is_none() {
                return Err(format!("unknown victim `{v}` (expected docdist or dna)"));
            }
        }
        for c in &self.grid.corunners {
            if SpecPreset::by_name(c).is_none() {
                return Err(format!("unknown SPEC co-runner preset `{c}`"));
            }
        }
        if self.grid.defenses.is_empty() || self.grid.corunners.is_empty() {
            return Err("grid expands to zero jobs".to_string());
        }
        if self.shards == Some(0) {
            return Err("`shards` must be a positive integer".to_string());
        }
        if !(0.0..=1.0).contains(&self.fault_rate) {
            return Err(format!(
                "[fault] rate must be within [0, 1], got {}",
                self.fault_rate
            ));
        }
        if self.leak && self.fault_seed.is_some() {
            // The probe runs on a fault-free system of its own, so its
            // number would not describe the faulted run.
            return Err(
                "the leakage probe (`leak`, --leak) cannot run under a fault plan \
                 (`[fault]`, --fault-seed): its number would be measured without the fault"
                    .to_string(),
            );
        }
        Ok(())
    }

    /// Expands the grid into its deterministic job list. Ids have the
    /// shape `{name}/{victim}-s{seed}+{corunner}/{defense}`; ordering is
    /// victims × seeds × corunners × defenses, but nothing downstream
    /// depends on it (the merged report sorts by id).
    pub fn expand(&self) -> Vec<ColocationJob> {
        let mut jobs = Vec::new();
        for victim_name in &self.grid.victims {
            let victim = VictimKind::by_name(victim_name).expect("validated");
            for &secret in &self.grid.seeds {
                for corunner in &self.grid.corunners {
                    for defense in &self.grid.defenses {
                        let id = format!(
                            "{}/{}-s{secret}+{corunner}/{defense}",
                            self.name,
                            victim.label()
                        );
                        let mut scale = self.scale;
                        if let Some(o) = self.overrides.iter().find(|o| id.contains(&o.pattern)) {
                            scale.budget = o.budget;
                        }
                        let fault = self
                            .fault_seed
                            .and_then(|seed| draw_sim_fault(seed, &id, self.fault_rate));
                        jobs.push(ColocationJob {
                            id,
                            victim,
                            secret,
                            corunner: corunner.clone(),
                            defense: defense.clone(),
                            scale,
                            leak: self.leak,
                            profile: self.profile,
                            shards: self.shards,
                            fault,
                        });
                    }
                }
            }
        }
        jobs
    }

    /// Expands and runs the sweep under `cfg`.
    ///
    /// # Errors
    ///
    /// Journal/orchestration I/O errors ([`run_sweep`]).
    pub fn run(&self, cfg: &RunnerConfig) -> io::Result<SweepOutcome<ColocationResult>> {
        self.run_filtered(cfg, None)
    }

    /// [`ExperimentSpec::run`] restricted to jobs whose id contains
    /// `only` (all jobs when `None`) — the `dg-run --only` path, and the
    /// repro command quarantine bundles quote. Spec-level supervision
    /// knobs (`retry_stalled`, `max_failures`) are folded into a copy of
    /// `cfg` here so CLI overrides (already applied to the spec) win.
    ///
    /// # Errors
    ///
    /// `InvalidInput` when the filter matches no job or
    /// [`RunOpts::check`] refuses a job's options, else [`run_sweep`] I/O
    /// errors.
    pub fn run_filtered(
        &self,
        cfg: &RunnerConfig,
        only: Option<&str>,
    ) -> io::Result<SweepOutcome<ColocationResult>> {
        let mut cfg = cfg.clone();
        if let Some(retry_stalled) = self.retry_stalled {
            cfg.retry_stalled = retry_stalled;
        }
        if let Some(max_failures) = self.max_failures {
            cfg.max_failures = max_failures;
        }
        let mut jobs = self.expand();
        if let Some(pat) = only {
            jobs.retain(|j| j.id.contains(pat));
            if jobs.is_empty() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("--only `{pat}` matches no job in spec `{}`", self.name),
                ));
            }
        }
        // A job the engine cannot run as configured is refused before
        // anything runs.
        for j in &jobs {
            let opts = RunOpts {
                shards: j.shards,
                ..RunOpts::new(j.scale.budget)
            };
            if let Err(e) = opts.check() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("job `{}`: {e}", j.id),
                ));
            }
        }
        run_sweep(&cfg, &jobs, execute_job)
    }
}

/// One expanded grid point: a two-core co-location run.
#[derive(Debug, Clone, PartialEq)]
pub struct ColocationJob {
    /// Stable job id (see [`ExperimentSpec::expand`]).
    pub id: String,
    /// Victim application on domain 0.
    pub victim: VictimKind,
    /// Victim secret input.
    pub secret: u64,
    /// SPEC co-runner preset on domain 1.
    pub corunner: String,
    /// Defense name (see [`DEFENSE_NAMES`]).
    pub defense: String,
    /// Scale (with any per-job budget override already applied).
    pub scale: Scale,
    /// Whether to run the covert-channel leakage probe after the
    /// performance run.
    pub leak: bool,
    /// Whether to record a host-time span profile of the run and submit it
    /// to the process-global [`dg_prof::collector`].
    pub profile: bool,
    /// Shard count for the NoC topology (`None` = direct-wired).
    pub shards: Option<usize>,
    /// Deterministic simulation fault drawn from the spec's fault plan
    /// (`None` when the plan is disarmed or skipped this job). Every kind
    /// runs at every shard count.
    pub fault: Option<SimFault>,
}

impl JobDesc for ColocationJob {
    fn id(&self) -> &str {
        &self.id
    }

    fn manifest(&self) -> Value {
        Value::Map(vec![
            ("id".to_string(), self.id.to_value()),
            ("victim".to_string(), self.victim.label().to_value()),
            ("secret".to_string(), self.secret.to_value()),
            ("corunner".to_string(), self.corunner.to_value()),
            ("defense".to_string(), self.defense.to_value()),
            ("budget".to_string(), self.scale.budget.to_value()),
            ("leak".to_string(), self.leak.to_value()),
            ("profile".to_string(), self.profile.to_value()),
            ("shards".to_string(), self.shards.to_value()),
            (
                "fault".to_string(),
                self.fault.map(|f| f.to_string()).to_value(),
            ),
        ])
    }
}

/// Salt separating the leakage probe's RNG stream from the job's.
const LEAK_PROBE_SALT: u64 = 0x6c65_616b_2d70_7262; // "leak-prb"

/// Independent probe repetitions per job, each transmitting a different
/// pseudo-random message (see [`run_covert_probe`](crate::run_covert_probe)).
const LEAK_PROBE_REPS: u64 = 8;

/// Executes one grid point. All randomness comes from `ctx.seed` (a pure
/// function of the job id) and all work is bounded by the escalated cycle
/// budget, so the result is identical wherever and whenever the job runs.
///
/// # Errors
///
/// [`SimError::Deadline`] when the (escalated) budget is too small —
/// retried by the runner — or any other simulation error.
pub fn execute_job(job: &ColocationJob, ctx: &JobCtx) -> Result<ColocationResult, SimError> {
    if !job.profile {
        return execute_job_inner(job, ctx);
    }
    // The span profiler is thread-local, so concurrent worker threads each
    // record their own tree. Stop unconditionally — a dangling frame stack
    // would bleed into the next job scheduled on this worker — but only
    // submit profiles of successful attempts (a Deadline retry would
    // otherwise double-count the job).
    dg_prof::start();
    let result = execute_job_inner(job, ctx);
    let report = dg_prof::stop();
    if result.is_ok() {
        if let Some(report) = report {
            dg_prof::collector::submit(&job.id, report);
        }
    }
    result
}

/// Test hook for the stall watchdog: when `DG_MON_TEST_STALL` is set to a
/// substring of this job's id, the attempt busy-waits *without advancing
/// its simulated clock* until supervision cancels it (or a generous cap
/// trips). This manufactures the livelock signature — host time passing,
/// simulated time frozen — that the watchdog exists to catch, so the CI
/// smoke can prove a stalled job is flagged and aborted within budget.
fn test_stall_hook(job: &ColocationJob, ctx: &JobCtx) -> Result<(), SimError> {
    let Some(pattern) = dg_mon::env::test_stall() else {
        return Ok(());
    };
    if !job.id.contains(&pattern) {
        return Ok(());
    }
    let started = std::time::Instant::now();
    while !ctx.expired() {
        if started.elapsed() > std::time::Duration::from_secs(120) {
            return Err(SimError::Aborted(
                "test stall hook: no supervisor cancelled within 120s".to_string(),
            ));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    Err(SimError::Aborted(
        "test stall hook: simulated clock held".to_string(),
    ))
}

fn execute_job_inner(job: &ColocationJob, ctx: &JobCtx) -> Result<ColocationResult, SimError> {
    test_stall_hook(job, ctx)?;
    let cfg = SystemConfig::two_core();
    let (victim, corunner) = {
        let _prof = dg_prof::span("workload");
        (
            job.victim.trace(&job.scale, job.secret),
            spec_trace_seeded(&job.scale, &job.corunner, 1, ctx.seed),
        )
    };
    let kind = memory_kind(&job.defense, job.victim)
        .ok_or_else(|| SimError::InvalidConfig(format!("unknown defense `{}`", job.defense)))?;
    let budget = ctx.budget(job.scale.budget);
    // The planned fault fires on the attempts its retry scope names —
    // first-attempt-only faults vanish on retry (the supervision story:
    // detect, retry, recover), forced (`!`) faults chase every attempt
    // into quarantine.
    let fault = job
        .fault
        .filter(|f| f.fires_on(ctx.attempt))
        .map(|f| f.kind);
    // Supervision is always on: `ctx.expired()` is false without a
    // wall-clock timeout or a live monitor, and supervised runs are
    // identical to unsupervised ones.
    let mut result = run_colocation(
        &cfg,
        vec![victim, corunner],
        kind.clone(),
        RunOpts {
            shards: job.shards,
            abort: Some(&mut || ctx.expired()),
            probe: ctx.monitor.as_ref(),
            fault,
            ..RunOpts::new(budget)
        },
    )?
    .result;
    if job.leak {
        // The covert-channel probe, on the job's memory path and topology.
        let _prof = dg_prof::span("leak_probe");
        let seeds = (0..LEAK_PROBE_REPS).map(|rep| {
            (ctx.seed ^ LEAK_PROBE_SALT).wrapping_add(rep.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        });
        let probe = crate::run_covert_probe(&cfg, &kind, job.shards, &crate::LEAK_PROBE, seeds);
        result.leakage = Some(probe.1);
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: &str = r#"
name = "unit"

[scale]
preset = "smoke"

[grid]
defenses = ["insecure", "dagguise"]
victims = ["docdist", "dna"]
corunners = ["lbm"]
seeds = [0, 1]

[[override]]
match = "+lbm/dagguise"
budget = 1234
"#;

    #[test]
    fn toml_spec_expands_deterministically() {
        let spec = ExperimentSpec::from_toml_str(SPEC).unwrap();
        assert_eq!(spec.scale.dna_genome, Scale::smoke().dna_genome);
        let jobs = spec.expand();
        assert_eq!(jobs.len(), 8); // 2 defenses x 2 victims x 1 corunner x 2 seeds
        assert_eq!(jobs[0].id, "unit/docdist-s0+lbm/insecure");
        // Stable across re-expansion.
        let again: Vec<String> = spec.expand().into_iter().map(|j| j.id).collect();
        let first: Vec<String> = jobs.iter().map(|j| j.id.clone()).collect();
        assert_eq!(first, again);
        // Ids are unique.
        let mut sorted = first.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), first.len());
    }

    #[test]
    fn overrides_rebudget_matching_jobs_only() {
        let spec = ExperimentSpec::from_toml_str(SPEC).unwrap();
        for job in spec.expand() {
            if job.id.contains("+lbm/dagguise") {
                assert_eq!(job.scale.budget, 1234, "{}", job.id);
            } else {
                assert_eq!(job.scale.budget, Scale::smoke().budget, "{}", job.id);
            }
        }
    }

    #[test]
    fn unknown_names_are_rejected() {
        let bad = SPEC.replace("\"dagguise\"", "\"warp_field\"");
        let err = ExperimentSpec::from_toml_str(&bad).unwrap_err();
        assert!(err.contains("unknown defense"), "{err}");
        let bad = SPEC.replace("\"lbm\"", "\"notaspec\"");
        assert!(ExperimentSpec::from_toml_str(&bad).is_err());
        let bad = SPEC.replace("\"dna\"", "\"rsa\"");
        assert!(ExperimentSpec::from_toml_str(&bad).is_err());
    }

    #[test]
    fn json_spec_parses_too() {
        let json = r#"{
            "name": "j",
            "scale": {"preset": "smoke"},
            "grid": {"defenses": ["insecure"], "corunners": ["xz"]}
        }"#;
        let spec = ExperimentSpec::from_json_str(json).unwrap();
        assert_eq!(spec.grid.victims, vec!["docdist"]);
        assert_eq!(spec.grid.seeds, vec![0]);
        assert_eq!(spec.expand().len(), 1);
    }

    #[test]
    fn leak_key_propagates_to_jobs() {
        let spec = ExperimentSpec::from_toml_str(SPEC).unwrap();
        assert!(!spec.leak);
        assert!(spec.expand().iter().all(|j| !j.leak));

        let with_leak = format!("leak = true\n{SPEC}");
        let spec = ExperimentSpec::from_toml_str(&with_leak).unwrap();
        assert!(spec.leak);
        assert!(spec.expand().iter().all(|j| j.leak));
    }

    #[test]
    fn shards_key_propagates_and_rejects_zero() {
        let spec = ExperimentSpec::from_toml_str(SPEC).unwrap();
        assert_eq!(spec.shards, None);
        assert!(spec.expand().iter().all(|j| j.shards.is_none()));

        let with_shards = format!("shards = 4\n{SPEC}");
        let spec = ExperimentSpec::from_toml_str(&with_shards).unwrap();
        assert_eq!(spec.shards, Some(4));
        assert!(spec.expand().iter().all(|j| j.shards == Some(4)));

        let zero = format!("shards = 0\n{SPEC}");
        let err = ExperimentSpec::from_toml_str(&zero).unwrap_err();
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn fault_table_arms_a_deterministic_plan() {
        let spec = ExperimentSpec::from_toml_str(SPEC).unwrap();
        assert_eq!(spec.fault_seed, None);
        assert!(
            spec.expand().iter().all(|j| j.fault.is_none()),
            "no [fault] table, no faults"
        );

        let armed = format!("{SPEC}\n[fault]\nseed = 7\n");
        let spec = ExperimentSpec::from_toml_str(&armed).unwrap();
        assert_eq!(spec.fault_seed, Some(7));
        assert_eq!(spec.fault_rate, 1.0);
        let faults: Vec<Option<SimFault>> = spec.expand().iter().map(|j| j.fault).collect();
        assert!(
            faults.iter().all(Option::is_some),
            "rate 1.0 afflicts every job"
        );
        // Pure function of (seed, id): re-expansion draws identically.
        let again: Vec<Option<SimFault>> = spec.expand().iter().map(|j| j.fault).collect();
        assert_eq!(faults, again);

        let zero = format!("{SPEC}\n[fault]\nseed = 7\nrate = 0.0\n");
        let spec = ExperimentSpec::from_toml_str(&zero).unwrap();
        assert!(spec.expand().iter().all(|j| j.fault.is_none()));

        let bad_rate = format!("{SPEC}\n[fault]\nseed = 7\nrate = 1.5\n");
        let err = ExperimentSpec::from_toml_str(&bad_rate).unwrap_err();
        assert!(err.contains("rate"), "{err}");
        let bad_key = format!("{SPEC}\n[fault]\nseed = 7\nblast_radius = 3\n");
        assert!(ExperimentSpec::from_toml_str(&bad_key).is_err());
    }

    #[test]
    fn leak_probe_under_a_fault_plan_is_rejected() {
        let both = format!("leak = true\n{SPEC}\n[fault]\nseed = 7\n");
        let err = ExperimentSpec::from_toml_str(&both).unwrap_err();
        assert!(err.contains("fault plan"), "{err}");
    }

    /// The leakage probe runs on the job's topology: its summary agrees
    /// across shard counts, and the NoC hop changes it.
    #[test]
    fn leak_probe_honours_the_topology() {
        let leakage = |shards: &str| {
            let spec = ExperimentSpec::from_toml_str(&format!(
                "name = \"topo\"\nleak = true\n{shards}\n[scale]\npreset = \"smoke\"\n\
                 [grid]\ndefenses = [\"dagguise\"]\nvictims = [\"docdist\"]\n\
                 corunners = [\"lbm\"]\n"
            ))
            .unwrap();
            let cfg = RunnerConfig {
                retries: 0,
                verbose: false,
                ..RunnerConfig::default()
            };
            let outcome = spec.run(&cfg).unwrap();
            let (_, result) = outcome.outputs().next().expect("the job succeeds");
            result.leakage.clone().expect("the probe ran")
        };
        let one = leakage("shards = 1");
        assert_eq!(leakage("shards = 2"), one);
        assert_ne!(leakage(""), one, "the NoC hop must reach the probe");
    }

    /// A stuck bank drawn by the fault plan runs on the NoC topology: it
    /// changes the job's outcome, identically at 1 and 2 shards.
    #[test]
    fn sharded_sweeps_run_data_plane_faults() {
        let spec = |shards: usize, plan: &str| {
            ExperimentSpec::from_toml_str(&format!("shards = {shards}\n{SPEC}\n{plan}")).unwrap()
        };
        // The first plan that wedges a bank early in a fully budgeted
        // (smoke-scale, ~30k-cycle) job.
        let (plan, id) = (0..256)
            .find_map(|seed| {
                let plan = format!("[fault]\nseed = {seed}\n");
                let job = spec(1, &plan).expand().into_iter().find(|j| {
                    let early = |f: SimFault| {
                        matches!(f.kind, dg_fault::SimFaultKind::StuckBank { at, .. } if at < 10_000)
                    };
                    j.fault.is_some_and(early) && j.scale.budget == Scale::smoke().budget
                })?;
                Some((plan, job.id))
            })
            .expect("some plan wedges a bank early");
        let result = |shards: usize, plan: &str| {
            let cfg = RunnerConfig {
                retries: 0,
                verbose: false,
                ..RunnerConfig::default()
            };
            let outcome = spec(shards, plan).run_filtered(&cfg, Some(&id)).unwrap();
            let (_, result) = outcome.outputs().next().expect("the job succeeds");
            result.clone()
        };
        let faulted = result(1, &plan);
        assert_eq!(result(2, &plan), faulted);
        assert_ne!(result(1, ""), faulted);
    }

    #[test]
    fn supervision_keys_parse_and_default_off() {
        let spec = ExperimentSpec::from_toml_str(SPEC).unwrap();
        assert_eq!(spec.retry_stalled, None);
        assert_eq!(spec.max_failures, None);

        let tuned = format!("retry_stalled = true\nmax_failures = 3\n{SPEC}");
        let spec = ExperimentSpec::from_toml_str(&tuned).unwrap();
        assert_eq!(spec.retry_stalled, Some(true));
        assert_eq!(spec.max_failures, Some(3));
    }

    #[test]
    fn colocation_manifest_describes_the_grid_point() {
        let armed = format!("{SPEC}\n[fault]\nseed = 7\n");
        let spec = ExperimentSpec::from_toml_str(&armed).unwrap();
        let job = &spec.expand()[0];
        let doc = serde_json::to_string(&job.manifest()).unwrap();
        for needle in ["\"victim\"", "\"corunner\"", "\"defense\"", "\"budget\""] {
            assert!(doc.contains(needle), "manifest missing {needle}: {doc}");
        }
        let fault = job.fault.expect("armed plan");
        assert!(
            doc.contains(&fault.to_string()),
            "manifest should quote the drawn fault: {doc}"
        );
    }

    #[test]
    fn every_defense_name_builds_a_memory_kind() {
        for d in DEFENSE_NAMES {
            assert!(memory_kind(d, VictimKind::DocDist).is_some(), "{d}");
        }
        assert!(memory_kind("nope", VictimKind::Dna).is_none());
    }
}
