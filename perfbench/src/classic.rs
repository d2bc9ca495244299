//! The two DAGguise workloads on the classic `System` with the event
//! engine: `dagguise-saturated` (trace cores streaming back-to-back
//! misses) and `dagguise-idle` (DAG-chain cores with long dependency
//! gaps). Domain 0 is protected by the rDAG template (4, 100, 0.01).

use std::sync::Arc;
use std::time::Instant;

use dg_cpu::{Core, DagCore, DagWorkload, MemTrace, TraceCore};
use dg_obs::RunReport;
use dg_rdag::template::RdagTemplate;
use dg_sim::config::SystemConfig;
use dg_sim::error::SimError;
use dg_sim::types::DomainId;
use dg_system::{MemoryKind, System, SystemBuilder};

use crate::digest::Digest;
use crate::measure::{median, mix, secs};
use crate::probe::{get, Probe};
use crate::replay::{dagguise_stack, MemTally, Replayer};
use crate::{Layers, Rep};

/// Cycle budget of one run; generous, a deadline means a broken engine.
const BUDGET: u64 = 2_000_000_000;
/// Cycles per capture chunk: the traced run pauses this often to replay
/// the captured calls, which bounds the capture log's memory.
const CHUNK: u64 = 250_000;
/// Cycles per timed chunk of a measured repetition on either load, a few
/// milliseconds of host time each.
const SATURATED_CHUNK: u64 = 20_000;
const IDLE_CHUNK: u64 = 32_000;
/// Loads each trace core streams in `dagguise-saturated`.
const STREAM: u64 = 8_000;
/// Requests per DAG chain in `dagguise-idle`, and the gap between them.
const CHAIN: usize = 200;
const CHAIN_GAP: u64 = 10_000;
/// Address stride of both workloads: 131 lines walks every bank and a new
/// row on each access, so every load misses the caches and the row.
const STRIDE: u64 = 64 * 131;

/// Which load the two cores put on the shaped memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    Saturated,
    Idle,
}

/// One classic-system DAGguise workload at one seed.
pub struct Classic {
    load: Load,
    seed: u64,
    reference: Option<Digest>,
}

/// A finished simulation and what it cost.
struct Run {
    setup_s: f64,
    gen_s: f64,
    wall_s: f64,
    /// Wall time of each chunk the run was timed in.
    chunk_s: Vec<f64>,
    report: RunReport,
}

impl Classic {
    pub fn new(load: Load, seed: u64) -> Self {
        Self {
            load,
            seed,
            reference: None,
        }
    }

    fn protected() -> Vec<Option<RdagTemplate>> {
        vec![Some(RdagTemplate::new(4, 100, 0.01)), None]
    }

    /// Per-core base address: each domain owns its own gigabyte, shifted
    /// by a seed-derived line offset.
    fn base(&self, core: u64) -> u64 {
        (core << 30) + (mix(self.seed, core) % 4096) * 64
    }

    /// Generates the cores at `half` or full length; returns them with the
    /// generation time.
    fn cores(&self, cfg: &SystemConfig, half: bool) -> (Vec<Box<dyn Core>>, f64) {
        let t0 = Instant::now();
        let cores = (0..2u64)
            .map(|c| -> Box<dyn Core> {
                let domain = DomainId(c as u16);
                match self.load {
                    Load::Saturated => {
                        let n = if half { STREAM / 2 } else { STREAM };
                        let mut t = MemTrace::new();
                        for i in 0..n {
                            t.load(self.base(c) + i * STRIDE, 0);
                        }
                        Box::new(TraceCore::new(domain, t, cfg))
                    }
                    Load::Idle => {
                        let n = if half { CHAIN / 2 } else { CHAIN };
                        let mut w = DagWorkload::chain(n, CHAIN_GAP, STRIDE);
                        for r in &mut w.reqs {
                            r.addr += self.base(c);
                        }
                        Box::new(DagCore::new(domain, w, cfg))
                    }
                }
            })
            .collect();
        (cores, secs(t0))
    }

    /// Builds the system, with every core wrapped by `probe` if given.
    fn build(&self, half: bool, probe: Option<&Probe>) -> (System, f64, f64) {
        let t0 = Instant::now();
        let cfg = SystemConfig::two_core();
        let (cores, gen_s) = self.cores(&cfg, half);
        let mut b = SystemBuilder::new(cfg);
        for (i, core) in cores.into_iter().enumerate() {
            b = b.core(match probe {
                Some(p) => p.wrap(core, i == 0),
                None => core,
            });
        }
        let sys = b
            .memory(MemoryKind::Dagguise {
                protected: Self::protected(),
            })
            .build();
        (sys, secs(t0), gen_s)
    }

    /// One untraced run on the event engine, or on the naive engine, timed
    /// in chunks of `chunk` cycles. A chunk boundary caps a warp, so only
    /// the engine counters depend on the chunk length.
    fn run(&self, half: bool, naive: bool, chunk: u64) -> Result<Run, String> {
        let (mut sys, setup_s, gen_s) = self.build(half, None);
        sys.set_event_skipping(!naive);
        let mut chunk_s = Vec::new();
        loop {
            let t0 = Instant::now();
            let r = sys.run_until_finished(chunk);
            chunk_s.push(secs(t0));
            match r {
                Ok(_) => break,
                Err(SimError::Deadline { .. }) if sys.now() < BUDGET => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        Ok(Run {
            setup_s,
            gen_s,
            wall_s: chunk_s.iter().sum(),
            chunk_s,
            report: sys.report("perfbench"),
        })
    }

    /// A measured repetition's chunk length.
    fn timed_chunk(&self) -> u64 {
        match self.load {
            Load::Saturated => SATURATED_CHUNK,
            Load::Idle => IDLE_CHUNK,
        }
    }

    /// One traced run: wrapped cores capture the memory-boundary calls,
    /// which are replayed chunk by chunk into a timed DAGguise stack.
    /// Returns the run (wall time excludes replay) plus both tallies.
    fn traced_run(&self) -> Result<(Run, Probe, Arc<MemTally>), String> {
        let probe = Probe::default();
        let (mut sys, setup_s, gen_s) = self.build(false, Some(&probe));
        let tally = Arc::new(MemTally::default());
        let mut replay = Replayer::new(
            dagguise_stack(sys.config(), &Self::protected(), &tally),
            Arc::clone(&tally),
        );
        let mut wall_s = 0.0;
        loop {
            let t0 = Instant::now();
            let r = sys.run_until_finished(CHUNK);
            wall_s += secs(t0);
            replay
                .feed(&probe.drain())
                .map_err(|e| format!("replay diverged from capture: {e}"))?;
            match r {
                Ok(_) => break,
                Err(SimError::Deadline { .. }) if sys.now() < BUDGET => {}
                Err(e) => return Err(e.to_string()),
            }
        }
        let report = sys.report("perfbench");
        drop(sys);
        Ok((
            Run {
                setup_s,
                gen_s,
                wall_s,
                chunk_s: vec![wall_s],
                report,
            },
            probe,
            tally,
        ))
    }

    fn check(&self, what: &str, report: &RunReport) -> bool {
        self.reference
            .as_ref()
            .is_some_and(|d| d.check(what, &Digest::of_report(report)))
    }
}

fn mcycles(r: &RunReport) -> f64 {
    r.meta.total_cycles as f64 / 1e6
}

fn requests(r: &RunReport) -> f64 {
    r.domains
        .iter()
        .map(|d| d.reads + d.writes + d.fakes)
        .sum::<u64>() as f64
}

impl Classic {
    /// Runs the naive engine once and keeps its digest as the reference.
    pub fn reference(&mut self) -> Result<(), String> {
        let run = self.run(false, true, BUDGET)?;
        self.reference = Some(Digest::of_report(&run.report));
        Ok(())
    }

    /// One single-threaded repetition on the event engine with tracing off.
    pub fn rep(&mut self) -> Rep {
        match self.run(false, false, self.timed_chunk()) {
            Ok(run) => Rep {
                setup_s: run.setup_s,
                wall_s: run.wall_s,
                mcycles: mcycles(&run.report),
                requests: requests(&run.report),
                chunk_s: run.chunk_s,
                peak_rss_mb: 0.0,
                attempted: 1,
                failed: u64::from(!self.check("run", &run.report)),
            },
            Err(e) => Rep::failed(&e),
        }
    }

    /// The traced pass: fills `layers`, returns (attempted, failed).
    pub fn traced(&mut self, seconds: f64, layers: &mut Layers) -> (u64, u64) {
        let (mut attempted, mut failed) = (0, 0);
        let mut fail = |ok: bool| {
            attempted += 1;
            failed += u64::from(!ok);
        };
        let start = Instant::now();
        let (mut plain, mut traced, mut prof) = (Vec::new(), Vec::new(), Vec::new());
        let mut last = None;
        while plain.len() < 2 || secs(start) < seconds {
            match self.run(false, false, BUDGET) {
                Ok(run) => {
                    fail(self.check("untraced run", &run.report));
                    plain.push(run);
                }
                Err(e) => {
                    eprintln!("perfbench: run failed: {e}");
                    fail(false);
                }
            }
            match self.traced_run() {
                Ok((run, probe, tally)) => {
                    fail(self.check("traced run", &run.report));
                    traced.push(run.wall_s);
                    last = Some((run, probe, tally));
                }
                Err(e) => {
                    eprintln!("perfbench: traced run FAILED: {e}");
                    fail(false);
                }
            }
            dg_prof::start();
            let r = self.run(false, false, BUDGET);
            dg_prof::stop();
            match r {
                Ok(run) => {
                    fail(self.check("profiled run", &run.report));
                    prof.push(run.wall_s);
                }
                Err(_) => fail(false),
            }
        }
        let plain_wall = median(&plain.iter().map(|r| r.wall_s).collect::<Vec<_>>());
        layers.set(
            "bench.trace_overhead_frac",
            median(&traced) / plain_wall - 1.0,
        );
        layers.set("dg-prof.overhead_frac", median(&prof) / plain_wall - 1.0);

        // Run-length probe: host cost per simulated Mcycle at full over half
        // length. Linear cost reads 1.0. The half-length runs are checked
        // against a naive-engine digest of their own.
        let full_spm = median(
            &plain
                .iter()
                .map(|r| r.wall_s / mcycles(&r.report))
                .collect::<Vec<_>>(),
        );
        let half_ref = self
            .run(true, true, BUDGET)
            .ok()
            .map(|r| Digest::of_report(&r.report));
        let mut half = Vec::new();
        for _ in 0..2 {
            match self.run(true, false, BUDGET) {
                Ok(r) => {
                    let digest = Digest::of_report(&r.report);
                    fail(
                        half_ref
                            .as_ref()
                            .is_some_and(|d| d.check("half-length run", &digest)),
                    );
                    half.push(r.wall_s / mcycles(&r.report));
                }
                Err(e) => {
                    eprintln!("perfbench: half-length run failed: {e}");
                    fail(false);
                }
            }
        }
        layers.set("dg-system.len_scaling", full_spm / median(&half));

        if let Some(run) = plain.first() {
            engine_layers(&run.report, layers);
            layers.set(
                "dg-workloads.trace_gen_s",
                median(&plain.iter().map(|r| r.gen_s).collect::<Vec<_>>()),
            );
        }
        if let Some((run, probe, tally)) = last {
            core_layers(&run, &probe, layers);
            mem_layers(&tally, layers);
        }
        (attempted, failed)
    }
}

/// `dg-system` engine counters and `dg-dram` simulated counts of a run.
fn engine_layers(r: &RunReport, layers: &mut Layers) {
    let e = &r.engine;
    layers.set("dg-system.ticks", e.ticks as f64);
    layers.set("dg-system.warps", e.warps as f64);
    layers.set("dg-system.failed_scans", e.failed_scans as f64);
    layers.set("dg-system.backoff_suppressed", e.backoff_suppressed as f64);
    let scans = (e.warps + e.failed_scans) as f64;
    layers.set(
        "dg-system.scan_success_ratio",
        if scans > 0.0 {
            e.warps as f64 / scans
        } else {
            0.0
        },
    );
    let acts: u64 = r.banks.iter().map(|b| b.acts).sum();
    let hits: u64 = r.banks.iter().map(|b| b.row_hits).sum();
    let misses: u64 = r.banks.iter().map(|b| b.row_misses).sum();
    layers.set("dg-dram.acts", acts as f64);
    layers.set(
        "dg-dram.row_hit_ratio",
        if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        },
    );
}

fn core_layers(run: &Run, probe: &Probe, layers: &mut Layers) {
    let t = &probe.tally;
    let ns = |c| get(c) as f64 * 1e-9;
    let tick_calls = get(&t.tick_calls) as f64;
    let tick_self = ns(&t.tick_ns) - ns(&t.front_ns);
    layers.set("dg-cpu.tick_calls", tick_calls);
    layers.set("dg-cpu.tick_self_s", tick_self);
    layers.set(
        "dg-cpu.tick_ns_per_call",
        tick_self * 1e9 / tick_calls.max(1.0),
    );
    layers.set("dg-cpu.next_event_calls", get(&t.next_event_calls) as f64);
    layers.set("dg-cpu.next_event_s", ns(&t.next_event_ns));
    layers.set("dg-cpu.on_response_s", ns(&t.on_response_ns));
    let sends = get(&t.try_send_calls) as f64;
    let rejects = get(&t.try_send_rejects) as f64;
    layers.set("dg-mem.try_send_calls", sends);
    layers.set("dg-mem.try_send_rejects", rejects);
    layers.set(
        "dg-mem.accept_ratio",
        if sends > 0.0 {
            1.0 - rejects / sends
        } else {
            0.0
        },
    );
    layers.set("dg-mem.try_send_s", ns(&t.try_send_ns));
    let in_cores = ns(&t.tick_ns) + ns(&t.next_event_ns) + ns(&t.on_response_ns);
    layers.set("dg-system.other_s", (run.wall_s - in_cores).max(0.0));
}

fn mem_layers(t: &MemTally, layers: &mut Layers) {
    let ns = |c| get(c) as f64 * 1e-9;
    layers.set("dg-mem.tick_s", ns(&t.tick_ns));
    layers.set("dg-mem.next_event_s", ns(&t.next_event_ns));
    layers.set("dg-mem.ctrl_tick_s", ns(&t.ctrl_tick_ns));
    layers.set("dg-mem.passthrough_s", ns(&t.passthrough_ns));
    layers.set("dagguise.shaper_tick_s", ns(&t.shaper_tick_ns));
    layers.set("dagguise.shaper_accept_s", ns(&t.shaper_accept_ns));
    layers.set(
        "dagguise.shaper_on_response_s",
        ns(&t.shaper_on_response_ns),
    );
    layers.set("dagguise.shaper_next_event_s", ns(&t.shaper_next_event_ns));
    let emitted = get(&t.emitted) as f64;
    layers.set("dagguise.emitted", emitted);
    layers.set(
        "dagguise.fake_ratio",
        if emitted > 0.0 {
            get(&t.fakes) as f64 / emitted
        } else {
            0.0
        },
    );
    layers.set("bench.replay_cycles", get(&t.cycles) as f64);
    layers.set("bench.replay_responses", get(&t.responses) as f64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay::insecure_stack;

    /// Captures a short DAGguise run with wrapped cores.
    fn capture() -> (Vec<crate::probe::Ev>, SystemConfig) {
        let probe = Probe::default();
        let cfg = SystemConfig::two_core();
        let bench = Classic::new(Load::Saturated, 3);
        let mut b = SystemBuilder::new(cfg.clone());
        for c in 0..2u64 {
            let mut t = MemTrace::new();
            for i in 0..300 {
                t.load(bench.base(c) + i * STRIDE, 0);
            }
            b = b.core(probe.wrap(
                Box::new(TraceCore::new(DomainId(c as u16), t, &cfg)),
                c == 0,
            ));
        }
        let mut sys = b
            .memory(MemoryKind::Dagguise {
                protected: Classic::protected(),
            })
            .build();
        sys.run_until_finished(BUDGET).unwrap();
        (probe.drain(), sys.config().clone())
    }

    #[test]
    fn replay_matches_the_same_memory_kind() {
        let (evs, cfg) = capture();
        assert!(evs.len() > 1000);
        let tally = Arc::new(MemTally::default());
        let mut r = Replayer::new(
            dagguise_stack(&cfg, &Classic::protected(), &tally),
            Arc::clone(&tally),
        );
        r.feed(&evs).unwrap();
        assert!(get(&tally.responses) >= 600);
        assert!(get(&tally.emitted) > 0);
    }

    #[test]
    fn replay_against_a_mismatched_memory_kind_is_detected() {
        let (evs, cfg) = capture();
        let tally = Arc::new(MemTally::default());
        let mut r = Replayer::new(insecure_stack(&cfg, 2, &tally), Arc::clone(&tally));
        assert!(r.feed(&evs).is_err());
        // A different defense template diverges too.
        let other = vec![Some(RdagTemplate::new(2, 40, 0.01)), None];
        let mut r = Replayer::new(dagguise_stack(&cfg, &other, &tally), Arc::clone(&tally));
        assert!(r.feed(&evs).is_err());
    }
}
