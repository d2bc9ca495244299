//! `dg-run`: execute an experiment spec through the orchestration runner.
//!
//! ```text
//! dg-run spec.toml [--jobs N] [--journal PATH] [--resume PATH]
//!                  [--retries N] [--backoff-ms N] [--escalation N]
//!                  [--timeout-s N] [--out PATH] [--leak PATH]
//!                  [--profile PATH] [--shards N] [--live] [--events PATH]
//!                  [--stall-s N] [--retry-stalled] [--max-failures N]
//!                  [--only PAT] [--fault-seed N] [--fault-rate F]
//!                  [--fault-io SPEC]... [--quarantine DIR]
//!                  [--print-jobs] [--quiet]
//! ```
//!
//! The merged report (`--out`, default `results/<name>.json`) contains
//! only deterministic fields — including the per-defense HDR latency
//! leaderboard — and is byte-identical for any `--jobs` value and across
//! kill/`--resume` cycles. `--leak PATH` forces the covert-channel
//! leakage probe on for every job, writes the merged leakage artifact to
//! PATH, and prints the defense leaderboard. `--profile PATH` records a
//! host-time span profile of every job, writes the profile artifact to
//! PATH plus a collapsed-stack `.folded` sibling (flamegraph input), and
//! prints the host-cost leaderboard; host time is machine-dependent, so
//! none of it enters the merged report. `--shards N` runs every job on the
//! NoC topology, partitioned into N conservative-PDES shards — results are
//! byte-identical for any N, fault plans included (but differ from a run
//! without `--shards`, whose cores are wired straight to the memory path
//! with no NoC hop).
//!
//! Live telemetry (`dg-mon`): `--live` renders an in-terminal dashboard,
//! `--events PATH` streams snapshots as append-only JSONL (torn tails are
//! repaired on `--resume`, like the journal), and `--stall-s N` arms the
//! stall watchdog, which cancels any job whose *simulated* clock stops
//! advancing for N host seconds. None of these change the merged report.
//! Diagnostics go through the leveled `DG_LOG` facade
//! (`error|warn|info|debug`, default `info`). The environment variables
//! `dg-run` reads are checked before anything runs (see `dg_mon::env`);
//! one that does not parse is a usage error.
//!
//! Fault injection (`dg-fault`): `--fault-seed N` arms the deterministic
//! simulation-fault plan (`--fault-rate F` scales what fraction of jobs
//! it afflicts), `--fault-io stream@byte:kind[xN]` plants host-IO faults
//! on the journal/events/report streams, `--retry-stalled` makes
//! watchdog cancellations retryable, `--max-failures N` sets the failure
//! budget, `--quarantine DIR` overrides where terminally failed jobs'
//! diagnostics bundles land (default `<out dir>/quarantine/<name>`), and
//! `--only PAT` restricts the sweep to jobs whose id contains PAT (the
//! repro path quarantine bundles quote).
//!
//! ## Exit codes
//!
//! | code | meaning |
//! |------|---------|
//! | 0    | success: every job succeeded, or failures ≤ `--max-failures` |
//! | 1    | job failures beyond the budget |
//! | 2    | usage / spec errors (bad flags, unparseable spec, `--only` matching nothing, options the engine cannot run) |
//! | 3    | infrastructure failure: journal degraded, events stream or artifact writes errored |
//! | 4    | over-budget failures dominated by stall-watchdog cancellations |
//!
//! Infrastructure damage outranks job failures; the CI chaos gate
//! asserts this taxonomy. See EXPERIMENTS.md for the spec format.

use dg_fault::{retry_io, FaultSink, IoPlan, IoStream, RetryPolicy};
use dg_mon::{log_error, log_info, log_warn};
use dg_runner::{
    effective_jobs, host_cost_leaderboard, host_cost_table, latency_leaderboard, latency_table,
    leak_leaderboard, leak_report_json, leak_table, merged_profile, merged_report_with_latency,
    profile_report_json, ExitClass, ExperimentSpec, RunnerConfig,
};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

struct Args {
    spec: PathBuf,
    cfg: RunnerConfig,
    out: Option<PathBuf>,
    leak: Option<PathBuf>,
    profile: Option<PathBuf>,
    shards: Option<usize>,
    fault_seed: Option<u64>,
    fault_rate: Option<f64>,
    retry_stalled: bool,
    max_failures: Option<u64>,
    only: Option<String>,
    print_jobs: bool,
}

impl Args {
    /// The command a quarantine bundle's repro line starts with: the spec
    /// plus every given flag that overrides it, so the repro re-runs the
    /// job on the same topology with the same fault plan.
    fn repro_prefix(&self) -> String {
        let mut cmd = format!("dg-run {}", self.spec.display());
        if let Some(n) = self.shards {
            cmd += &format!(" --shards {n}");
        }
        if let Some(n) = self.fault_seed {
            cmd += &format!(" --fault-seed {n}");
        }
        if let Some(f) = self.fault_rate {
            cmd += &format!(" --fault-rate {f}");
        }
        if let Some(path) = &self.leak {
            cmd += &format!(" --leak {}", path.display());
        }
        if let Some(path) = &self.profile {
            cmd += &format!(" --profile {}", path.display());
        }
        if self.retry_stalled {
            cmd += " --retry-stalled";
        }
        cmd
    }
}

fn usage() -> ! {
    // Help goes straight to stderr, not the log facade: it is the
    // interactive contract of the binary, not a diagnostic.
    eprintln!(
        "usage: dg-run <spec.toml|spec.json> [--jobs N] [--journal PATH] [--resume PATH]\n\
         \x20              [--retries N] [--backoff-ms N] [--escalation N] [--timeout-s N]\n\
         \x20              [--out PATH] [--leak PATH] [--profile PATH] [--shards N]\n\
         \x20              [--live] [--events PATH] [--stall-s N] [--retry-stalled]\n\
         \x20              [--max-failures N] [--only PAT] [--fault-seed N]\n\
         \x20              [--fault-rate F] [--fault-io SPEC]... [--quarantine DIR]\n\
         \x20              [--print-jobs] [--quiet]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut spec = None;
    let mut cfg = RunnerConfig::default();
    let mut jobs_flag = None;
    let mut out = None;
    let mut leak = None;
    let mut profile = None;
    let mut shards = None;
    let mut fault_seed = None;
    let mut fault_rate = None;
    let mut fault_io: Vec<String> = Vec::new();
    let mut retry_stalled = false;
    let mut max_failures = None;
    let mut only = None;
    let mut print_jobs = false;

    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| -> String {
            it.next().unwrap_or_else(|| {
                log_error!("{flag} requires a value");
                usage();
            })
        };
        match arg.as_str() {
            "--jobs" => match value("--jobs").parse::<usize>() {
                Ok(n) if n > 0 => jobs_flag = Some(n),
                _ => {
                    log_error!("--jobs must be a positive integer");
                    usage();
                }
            },
            "--journal" => cfg.journal = Some(PathBuf::from(value("--journal"))),
            "--resume" => cfg.resume = Some(PathBuf::from(value("--resume"))),
            "--retries" => match value("--retries").parse() {
                Ok(n) => cfg.retries = n,
                Err(_) => usage(),
            },
            "--backoff-ms" => match value("--backoff-ms").parse() {
                Ok(ms) => cfg.backoff = Duration::from_millis(ms),
                Err(_) => usage(),
            },
            "--escalation" => match value("--escalation").parse() {
                Ok(n) => cfg.escalation = n,
                Err(_) => usage(),
            },
            "--timeout-s" => match value("--timeout-s").parse() {
                Ok(s) => cfg.timeout = Some(Duration::from_secs(s)),
                Err(_) => usage(),
            },
            "--shards" => match value("--shards").parse::<usize>() {
                Ok(n) if n > 0 => shards = Some(n),
                _ => {
                    log_error!("--shards must be a positive integer");
                    usage();
                }
            },
            "--live" => cfg.monitor.live = true,
            "--events" => cfg.monitor.events = Some(PathBuf::from(value("--events"))),
            "--stall-s" => match value("--stall-s").parse::<f64>() {
                Ok(s) if s > 0.0 => {
                    cfg.monitor.stall_timeout = Some(Duration::from_secs_f64(s));
                }
                _ => {
                    log_error!("--stall-s must be a positive number of seconds");
                    usage();
                }
            },
            "--fault-seed" => match value("--fault-seed").parse::<u64>() {
                Ok(n) => fault_seed = Some(n),
                Err(_) => {
                    log_error!("--fault-seed must be an integer");
                    usage();
                }
            },
            "--fault-rate" => match value("--fault-rate").parse::<f64>() {
                Ok(f) if (0.0..=1.0).contains(&f) => fault_rate = Some(f),
                _ => {
                    log_error!("--fault-rate must be within [0, 1]");
                    usage();
                }
            },
            "--fault-io" => fault_io.push(value("--fault-io")),
            "--quarantine" => cfg.quarantine = Some(PathBuf::from(value("--quarantine"))),
            "--retry-stalled" => retry_stalled = true,
            "--max-failures" => match value("--max-failures").parse::<u64>() {
                Ok(n) => max_failures = Some(n),
                Err(_) => {
                    log_error!("--max-failures must be an integer");
                    usage();
                }
            },
            "--only" => only = Some(value("--only")),
            "--out" => out = Some(PathBuf::from(value("--out"))),
            "--leak" => leak = Some(PathBuf::from(value("--leak"))),
            "--profile" => profile = Some(PathBuf::from(value("--profile"))),
            "--print-jobs" => print_jobs = true,
            "--quiet" => cfg.verbose = false,
            "--help" | "-h" => usage(),
            other if spec.is_none() && !other.starts_with('-') => {
                spec = Some(PathBuf::from(other));
            }
            other => {
                log_error!("unknown argument `{other}`");
                usage();
            }
        }
    }
    cfg.jobs = effective_jobs(jobs_flag);
    cfg.fault_io = match IoPlan::parse(&fault_io) {
        Ok(plan) => plan,
        Err(e) => {
            log_error!("--fault-io: {e}");
            usage();
        }
    };
    Args {
        spec: spec.unwrap_or_else(|| usage()),
        cfg,
        out,
        leak,
        profile,
        shards,
        fault_seed,
        fault_rate,
        retry_stalled,
        max_failures,
        only,
        print_jobs,
    }
}

/// Writes an artifact through the fault plane's report stream, retrying
/// transient interruptions at the exact byte. With an unarmed plan this
/// is an ordinary create-write-fsync.
fn write_report(path: &Path, bytes: &[u8], plan: &IoPlan) -> std::io::Result<()> {
    let mut sink = FaultSink::create(path, IoStream::Report, plan.clone())?;
    let retry = RetryPolicy::default();
    sink.stage(bytes);
    retry_io(&retry, || sink.drain())?;
    retry_io(&retry, || sink.sync_data())
}

fn ensure_parent(path: &std::path::Path) -> bool {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            log_error!("creating {}: {e}", dir.display());
            return false;
        }
    }
    true
}

fn main() -> ExitCode {
    if let Err(e) = dg_mon::env::check() {
        // Straight to stderr: the log facade's threshold is itself one of
        // the variables checked.
        eprintln!("[error] {e}");
        return ExitCode::from(2);
    }
    let args = parse_args();

    let mut spec = match ExperimentSpec::load(&args.spec) {
        Ok(s) => s,
        Err(e) => {
            log_error!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.leak.is_some() {
        spec.leak = true;
    }
    if args.profile.is_some() {
        spec.profile = true;
    }
    if args.shards.is_some() {
        spec.shards = args.shards;
    }
    if args.fault_seed.is_some() {
        spec.fault_seed = args.fault_seed;
    }
    if let Some(rate) = args.fault_rate {
        spec.fault_rate = rate;
    }
    if args.retry_stalled {
        spec.retry_stalled = Some(true);
    }
    if args.max_failures.is_some() {
        spec.max_failures = args.max_failures;
    }

    if args.print_jobs {
        // Job ids are the machine-readable output here — stdout, no facade.
        for job in spec.expand() {
            println!("{}", job.id);
        }
        return ExitCode::SUCCESS;
    }

    if args.cfg.verbose {
        log_info!(
            "dg-run: sweep `{}` — {} jobs on {} workers",
            spec.name,
            spec.expand().len(),
            args.cfg.jobs;
            "sweep" => spec.name,
            "jobs" => spec.expand().len(),
            "workers" => args.cfg.jobs
        );
    }

    let repro_prefix = args.repro_prefix();
    let out_path = args
        .out
        .unwrap_or_else(|| PathBuf::from(format!("results/{}.json", spec.name)));

    let mut cfg = args.cfg;
    if cfg.quarantine.is_none() {
        let dir = out_path.parent().map(Path::to_path_buf).unwrap_or_default();
        cfg.quarantine = Some(dir.join("quarantine").join(&spec.name));
    }
    cfg.repro_prefix = Some(repro_prefix);

    let outcome = match spec.run_filtered(&cfg, args.only.as_deref()) {
        Ok(o) => o,
        Err(e) => {
            log_error!("{e}");
            // Bad inputs (spec contents, --only matching nothing) are
            // usage errors; anything else is broken infrastructure.
            let code = match e.kind() {
                std::io::ErrorKind::InvalidInput | std::io::ErrorKind::InvalidData => 2,
                _ => ExitClass::Infra.code(),
            };
            return ExitCode::from(code);
        }
    };

    // Artifact-write failures downgrade the exit to Infra without
    // discarding the rest of the run's output.
    let mut artifact_failed = false;

    if !ensure_parent(&out_path) {
        artifact_failed = true;
    }
    let report = merged_report_with_latency(&spec.name, &outcome);
    if let Err(e) = write_report(&out_path, report.as_bytes(), &cfg.fault_io) {
        log_error!("writing {}: {e}", out_path.display());
        artifact_failed = true;
    }
    if cfg.verbose {
        log_info!(
            "dg-run: wrote {}",
            out_path.display();
            "jobs" => outcome.progress.total,
            "retries" => outcome.progress.retries,
            "jobs_per_sec" => format!("{:.1}", outcome.progress.jobs_per_sec())
        );
        print!("{}", latency_table(&latency_leaderboard(&outcome)));
    }

    if let Some(profile_path) = &args.profile {
        if !ensure_parent(profile_path) {
            artifact_failed = true;
        }
        let profiles = dg_prof::collector::drain();
        let profile_json = profile_report_json(&spec.name, &profiles);
        if let Err(e) = std::fs::write(profile_path, &profile_json) {
            log_error!("writing {}: {e}", profile_path.display());
            artifact_failed = true;
        }
        let folded_path = profile_path.with_extension("folded");
        let folded = merged_profile(&profiles)
            .map(|p| p.collapsed())
            .unwrap_or_default();
        if let Err(e) = std::fs::write(&folded_path, &folded) {
            log_error!("writing {}: {e}", folded_path.display());
            artifact_failed = true;
        }
        print!("{}", host_cost_table(&host_cost_leaderboard(&profiles)));
        if cfg.verbose {
            log_info!(
                "dg-run: wrote host profile {} (+ {})",
                profile_path.display(),
                folded_path.display()
            );
            if profiles.is_empty() {
                log_info!("dg-run: note: no profiles collected (no job succeeded in this run)");
            }
        }
    }

    if let Some(leak_path) = &args.leak {
        if !ensure_parent(leak_path) {
            artifact_failed = true;
        }
        let leak_json = leak_report_json(&spec.name, &outcome);
        if let Err(e) = std::fs::write(leak_path, &leak_json) {
            log_error!("writing {}: {e}", leak_path.display());
            artifact_failed = true;
        }
        print!("{}", leak_table(&leak_leaderboard(&outcome)));
        if cfg.verbose {
            log_info!("dg-run: wrote leakage report {}", leak_path.display());
        }
    }

    outcome.report_failures();
    let health = &outcome.health;
    if health.journal_degraded {
        log_error!(
            "dg-run: journal degraded mid-sweep — the report above is complete, \
             but this run cannot be resumed; rerun on a healthy disk"
        );
    }
    for err in &health.io_errors {
        log_error!("dg-run: infrastructure: {err}");
    }
    for (id, bundle) in &health.quarantined {
        log_warn!(
            "dg-run: quarantined `{id}` — diagnostics at {}",
            bundle.display();
            "job" => id,
            "bundle" => bundle.display()
        );
    }

    // Artifact writes are infrastructure; Infra outranks the job-level
    // classes but never masks them in the logs above.
    let code = if artifact_failed {
        ExitClass::Infra.code()
    } else {
        outcome.exit_class().code()
    };
    ExitCode::from(code)
}
