//! `dg-trend`: noise-aware perf-trend gate over `BENCH_perf.json`.
//!
//! Reads the benchmark run history, stratifies each scenario by its
//! comparable context (mode, shards, threads, host parallelism), and
//! judges the median of the latest samples against the median ± MAD of
//! the trailing window before them.
//! Exits 0 when no series regressed, 1 on regression, 2 on usage or
//! structural errors — so ci.sh can use it directly as a gate.

use std::process::ExitCode;

use dg_mon::{analyze_document, TrendOptions};

fn usage() {
    eprintln!(
        "usage: dg-trend [PATH] [options]\n\
         \n\
         Judge the latest benchmark runs in PATH (default BENCH_perf.json)\n\
         against their trailing history with noise-aware verdicts.\n\
         \n\
         options:\n\
           --window N       trailing samples, before the latest five, to\n\
                            compare against (default 8)\n\
           --min-history N  priors required for an active verdict (default 4)\n\
           --min-drop PCT   noise floor in percent (default 10)\n\
           --noise-k K      tolerated noise sigmas, MAD-estimated (default 2)\n\
           --inject PCT     append PCT%-slower copies of the recent runs to\n\
                            every series first (self-test for the gate)\n\
           --quiet          print only regressions\n\
           -h, --help       show this help"
    );
}

fn main() -> ExitCode {
    let mut path = String::from("BENCH_perf.json");
    let mut path_set = false;
    let mut opts = TrendOptions::default();
    let mut quiet = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| -> Result<String, String> {
            args.next().ok_or_else(|| format!("{flag} needs a value"))
        };
        let parsed: Result<(), String> = (|| {
            match arg.as_str() {
                "--window" => {
                    opts.window = value("--window")?
                        .parse()
                        .map_err(|e| format!("--window: {e}"))?;
                }
                "--min-history" => {
                    opts.min_history = value("--min-history")?
                        .parse()
                        .map_err(|e| format!("--min-history: {e}"))?;
                }
                "--min-drop" => {
                    let pct: f64 = value("--min-drop")?
                        .parse()
                        .map_err(|e| format!("--min-drop: {e}"))?;
                    opts.min_drop = pct / 100.0;
                }
                "--noise-k" => {
                    opts.noise_k = value("--noise-k")?
                        .parse()
                        .map_err(|e| format!("--noise-k: {e}"))?;
                }
                "--inject" => {
                    opts.inject_pct = Some(
                        value("--inject")?
                            .parse()
                            .map_err(|e| format!("--inject: {e}"))?,
                    );
                }
                "--quiet" => quiet = true,
                "-h" | "--help" => {
                    usage();
                    std::process::exit(0);
                }
                _ if !arg.starts_with('-') && !path_set => {
                    path = arg.clone();
                    path_set = true;
                }
                _ => return Err(format!("unknown argument: {arg}")),
            }
            Ok(())
        })();
        if let Err(e) = parsed {
            eprintln!("dg-trend: {e}");
            usage();
            return ExitCode::from(2);
        }
    }

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("dg-trend: reading {path}: {e}");
            return ExitCode::from(2);
        }
    };

    let report = match analyze_document(&text, &opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("dg-trend: {path}: {e}");
            return ExitCode::from(2);
        }
    };

    if !quiet {
        print!("{}", report.table());
    }

    let regressions = report.regressions();
    if regressions.is_empty() {
        if !quiet {
            println!(
                "dg-trend: no regressions across {} series{}",
                report.rows.len(),
                if report.injected {
                    " (with injection)"
                } else {
                    ""
                }
            );
        }
        ExitCode::SUCCESS
    } else {
        for r in &regressions {
            println!(
                "dg-trend: REGRESSION {} [{}]: recent median {:.3} vs median {:.3} ({:+.1}%, allowed ±{:.1}%)",
                r.scenario, r.stratum, r.recent, r.median, r.delta_pct, r.allowed_pct
            );
        }
        ExitCode::from(1)
    }
}
