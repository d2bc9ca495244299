//! The repository benchmark: absolute host time per simulated Mcycle on
//! two workloads, with per-layer tracing from the outside.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run first calibrates the host and computes the workload's
//! reference digest with the naive per-cycle engine. With `--trace 0` it
//! then repeats the workload on the event engine for `--seconds` seconds
//! and reports the end-to-end metrics ([`END_TO_END`]), each timed chunk
//! of the simulation at its fastest over the repetitions (see
//! [`end_to_end`]). Repetitions rotate over the host's CPUs, one CPU each,
//! so that a CPU slowed for a while by a co-tenant does not slow the whole
//! measurement. With `--trace 1` it runs the traced pass instead and
//! reports the per-layer metrics ([`PER_LAYER`]); the traced pass of
//! `dagguise-saturated` also runs a 126-job defense sweep ([`sweep`]), and
//! that of `dagguise-idle` the 64-core sharded runtime ([`sharded`]).
//! Each repetition's simulated statistics are checked against the
//! reference digest. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`; diagnostics go to
//! standard error.
//!
//! The simulator is driven only through its public API; layers are timed
//! by wrapping its public trait objects ([`probe`], [`replay`]).

mod classic;
mod digest;
mod measure;
mod probe;
mod replay;
mod sharded;
mod sweep;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use measure::{median, secs};

/// Workload names, as `--workload` takes them.
pub const WORKLOADS: [&str; 2] = ["dagguise-saturated", "dagguise-idle"];

/// End-to-end metrics (`--trace 0`): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("host_s_per_mcycle", "s/Mcycle"),
    ("host_us_per_request", "us"),
    ("jobs_per_hour", "jobs/h"),
    ("job_s_p50", "s"),
    ("job_s_p90", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. Layers a workload does
/// not exercise read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dg-system.ticks", "count"),
    ("dg-system.warps", "count"),
    ("dg-system.failed_scans", "count"),
    ("dg-system.backoff_suppressed", "count"),
    ("dg-system.scan_success_ratio", "ratio"),
    ("dg-system.other_s", "s"),
    ("dg-system.len_scaling", "ratio"),
    ("dg-cpu.tick_calls", "count"),
    ("dg-cpu.tick_self_s", "s"),
    ("dg-cpu.tick_ns_per_call", "ns"),
    ("dg-cpu.next_event_calls", "count"),
    ("dg-cpu.next_event_s", "s"),
    ("dg-cpu.on_response_s", "s"),
    ("dg-mem.try_send_calls", "count"),
    ("dg-mem.try_send_rejects", "count"),
    ("dg-mem.accept_ratio", "ratio"),
    ("dg-mem.try_send_s", "s"),
    ("dg-mem.tick_s", "s"),
    ("dg-mem.next_event_s", "s"),
    ("dg-mem.ctrl_tick_s", "s"),
    ("dg-mem.passthrough_s", "s"),
    ("dagguise.shaper_tick_s", "s"),
    ("dagguise.shaper_accept_s", "s"),
    ("dagguise.shaper_on_response_s", "s"),
    ("dagguise.shaper_next_event_s", "s"),
    ("dagguise.emitted", "count"),
    ("dagguise.fake_ratio", "ratio"),
    ("dg-dram.acts", "count"),
    ("dg-dram.row_hit_ratio", "ratio"),
    ("dg-runner.job_s.insecure", "s"),
    ("dg-runner.job_s.dagguise", "s"),
    ("dg-runner.job_s.fixed_service", "s"),
    ("dg-runner.job_s.fs_bta", "s"),
    ("dg-runner.job_s.fs_spatial", "s"),
    ("dg-runner.job_s.temporal_partition", "s"),
    ("dg-runner.job_s.camouflage", "s"),
    ("dg-runner.worker_busy_frac", "ratio"),
    ("dg-runner.merge_s", "s"),
    ("dg-runner.retries", "count"),
    ("dg-workloads.trace_gen_s", "s"),
    ("dg-shard.run_s", "s"),
    ("dg-shard.thread_speedup", "ratio"),
    ("dg-shard.vs_classic", "ratio"),
    ("dg-prof.overhead_frac", "ratio"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.replay_cycles", "count"),
    ("bench.replay_responses", "count"),
    ("bench.failed_frac", "ratio"),
    ("host.calib_1t_s", "s"),
    ("host.scaling_2t", "ratio"),
];

/// Fewest repetitions a measurement takes, however long they run.
const MIN_REPS: usize = 3;

/// One measured repetition of a workload with tracing off.
#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Set-up before the timed region: inputs and system build.
    pub setup_s: f64,
    /// Host wall time of the timed region.
    pub wall_s: f64,
    /// Simulated megacycles.
    pub mcycles: f64,
    /// Memory requests completed, real plus fake.
    pub requests: f64,
    /// Wall time of each chunk the simulation was timed in, in simulation
    /// order; they sum to `wall_s`.
    pub chunk_s: Vec<f64>,
    /// Peak resident memory of the process during the repetition.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
}

impl Rep {
    /// A repetition that could not run at all.
    pub fn failed(err: &str) -> Self {
        eprintln!("perfbench: run FAILED: {err}");
        Rep {
            attempted: 1,
            failed: 1,
            ..Rep::default()
        }
    }
}

/// Per-layer metric values, by name.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<String, f64>);

impl Layers {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_string(), value);
    }
}

/// The end-to-end metrics of a set of repetitions, each of which ran the
/// same deterministic simulation. Every chunk counts at its fastest over
/// the repetitions: host noise (co-tenants on a shared host, which come and
/// go within a fraction of a second) only ever adds time, so the least
/// disturbed run of a chunk is the steadiest estimate of its cost, and a
/// chunk of a few milliseconds often finds a quiet moment. The wall time
/// is the sum of these chunk times; the simulation is the workload's one
/// job, so it is also the p50 and p90 job time. Set-up time and peak
/// memory are the median repetition's.
fn end_to_end(reps: &[Rep]) -> BTreeMap<String, f64> {
    let ok: Vec<&Rep> = reps.iter().filter(|r| r.mcycles > 0.0).collect();
    let chunks = ok.iter().map(|r| r.chunk_s.len()).min().unwrap_or(0);
    let wall: f64 = (0..chunks)
        .map(|k| {
            ok.iter()
                .map(|r| r.chunk_s[k])
                .fold(f64::INFINITY, f64::min)
        })
        .sum();
    let (mcycles, requests) = ok
        .first()
        .map_or((f64::NAN, f64::NAN), |r| (r.mcycles, r.requests));
    [
        (
            "setup_s",
            median(&ok.iter().map(|r| r.setup_s).collect::<Vec<_>>()),
        ),
        ("wall_s", wall),
        ("host_s_per_mcycle", wall / mcycles),
        ("host_us_per_request", wall * 1e6 / requests),
        ("jobs_per_hour", 3600.0 / wall),
        ("job_s_p50", wall),
        ("job_s_p90", wall),
        (
            "peak_rss_mb",
            median(&ok.iter().map(|r| r.peak_rss_mb).collect::<Vec<_>>()),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect()
}

/// Whether `name` is a valid metric name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Renders the result line. Every metric of `table` must be present and
/// finite; otherwise the run is not correct.
fn result_json(
    table: &[(&str, &str)],
    values: &BTreeMap<String, f64>,
    attempted: u64,
    failed: u64,
) -> String {
    let mut correct = failed == 0 && attempted > 0;
    let mut parts = Vec::new();
    for (name, unit) in table {
        let v = values.get(*name).copied();
        let ok = valid_name(name) && !unit.is_empty() && v.is_some_and(f64::is_finite);
        if !ok {
            eprintln!("perfbench: metric {name} missing or not finite ({v:?})");
            correct = false;
        }
        let v = v.filter(|v| v.is_finite()).unwrap_or(0.0);
        parts.push(format!(
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        parts.join(", ")
    )
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad.clone())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad.clone())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(0.0),
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A directory for sweep journals, inside the build directory the binary
/// runs from, removed when the run ends.
fn scratch_dir() -> PathBuf {
    let exe = std::env::current_exe().unwrap_or_default();
    let dir = exe
        .parent()
        .map_or_else(|| PathBuf::from("."), |p| p.to_path_buf())
        .join(format!("perfbench-scratch-{}", std::process::id()));
    let _ = std::fs::create_dir_all(&dir);
    dir
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            std::process::exit(2);
        }
    };
    let scratch = scratch_dir();
    let code = run(&args, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    std::process::exit(code);
}

fn run(args: &Args, scratch: &std::path::Path) -> i32 {
    let calib = measure::calibrate();
    eprintln!(
        "perfbench: host calibration {:.4} s/unit on 1 thread, 2-thread scaling {:.3}",
        calib.one_thread_s, calib.scaling_2t
    );
    let (mut attempted, mut failed) = (1u64, 0u64);
    if !calib.plausible() {
        eprintln!("perfbench: MEASUREMENT FAILURE: 2-thread scaling above 2.0");
        failed += 1;
    }

    let load = match args.workload.as_str() {
        "dagguise-saturated" => classic::Load::Saturated,
        _ => classic::Load::Idle,
    };
    let mut w = classic::Classic::new(load, args.seed);
    let t0 = Instant::now();
    if let Err(e) = w.reference() {
        eprintln!("perfbench: reference run failed: {e}");
        return 1;
    }
    eprintln!(
        "perfbench: naive-engine reference digest in {:.2} s",
        secs(t0)
    );

    let (table, values) = if args.trace {
        let mut layers = Layers::default();
        for (name, _) in PER_LAYER {
            layers.set(name, 0.0);
        }
        let (a, f) = w.traced(args.seconds, &mut layers);
        attempted += a;
        failed += f;
        let (a, f) = match load {
            classic::Load::Saturated => sweep::traced(args.seed, scratch, &mut layers),
            classic::Load::Idle => sharded::traced(args.seed, &mut layers),
        };
        attempted += a;
        failed += f;
        layers.set("host.calib_1t_s", calib.one_thread_s);
        layers.set("host.scaling_2t", calib.scaling_2t);
        layers.set("bench.failed_frac", failed as f64 / attempted as f64);
        (PER_LAYER, layers.0)
    } else {
        let cpus = measure::allowed_cpus();
        let start = Instant::now();
        let mut reps = Vec::new();
        while reps.len() < MIN_REPS || secs(start) < args.seconds {
            if !cpus.is_empty() {
                measure::pin(&[cpus[reps.len() % cpus.len()]]);
            }
            measure::reset_peak_rss();
            let mut rep = w.rep();
            rep.peak_rss_mb = measure::peak_rss_mb();
            attempted += rep.attempted;
            failed += rep.failed;
            eprintln!(
                "perfbench: rep {}: {:.3} s wall, {:.3} Mcycles, {} failed",
                reps.len() + 1,
                rep.wall_s,
                rep.mcycles,
                rep.failed
            );
            reps.push(rep);
        }
        measure::pin(&cpus);
        (END_TO_END, end_to_end(&reps))
    };
    for (name, unit) in table {
        eprintln!(
            "  {name:<36} {:>16.6} {unit}",
            values.get(*name).copied().unwrap_or(f64::NAN)
        );
    }
    println!("{}", result_json(table, &values, attempted, failed));
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_has_a_valid_name_and_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(*name), "duplicate metric {name}");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{name}: unit {unit}"
            );
        }
        for d in sweep::DEFENSES {
            let name = format!("dg-runner.job_s.{d}");
            assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        }
        assert!(!valid_name("bad name"));
        assert!(!valid_name(".starts-with-dot"));
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let decl = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&decl), "BENCHMARK.json lacks {decl}");
        }
        assert_eq!(
            json.matches("\"name\":").count(),
            END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len()
        );
        for w in WORKLOADS {
            assert!(json.contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
    }

    #[test]
    fn missing_or_non_finite_metrics_make_a_run_incorrect() {
        let mut v: BTreeMap<String, f64> = END_TO_END
            .iter()
            .map(|(n, _)| (n.to_string(), 1.5))
            .collect();
        assert!(result_json(END_TO_END, &v, 3, 0).starts_with("{\"correct\": true"));
        assert!(result_json(END_TO_END, &v, 3, 1).starts_with("{\"correct\": false"));
        v.insert("wall_s".into(), f64::NAN);
        assert!(result_json(END_TO_END, &v, 3, 0).starts_with("{\"correct\": false"));
        v.remove("wall_s");
        assert!(result_json(END_TO_END, &v, 3, 0).starts_with("{\"correct\": false"));
    }

    #[test]
    fn end_to_end_metrics_take_each_chunk_at_its_fastest() {
        let rep = |chunk_s: Vec<f64>| Rep {
            setup_s: 0.1,
            wall_s: chunk_s.iter().sum(),
            mcycles: 2.0,
            requests: 1e5,
            peak_rss_mb: 10.0 * chunk_s.len() as f64,
            chunk_s,
            attempted: 1,
            failed: 0,
        };
        let m = end_to_end(&[rep(vec![2.0]), rep(vec![3.0]), rep(vec![1.0])]);
        assert_eq!(m["wall_s"], 1.0);
        assert_eq!(m["host_s_per_mcycle"], 0.5);
        assert_eq!(m["host_us_per_request"], 10.0);
        assert_eq!(m["jobs_per_hour"], 3600.0);
        assert_eq!(m["peak_rss_mb"], 10.0);
        assert_eq!(m["job_s_p90"], 1.0);
        assert_eq!(m.len(), END_TO_END.len());
        // The fastest chunks may come from different repetitions.
        let m = end_to_end(&[rep(vec![1.0, 4.0]), rep(vec![2.0, 3.0])]);
        assert_eq!(m["wall_s"], 4.0);
        assert_eq!(m["job_s_p50"], 4.0);
        assert_eq!(m["host_s_per_mcycle"], 2.0);
        assert_eq!(m["setup_s"], 0.1);
    }
}
