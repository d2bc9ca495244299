//! The sharded runtime behind the `dg-shard` layer: 64 cores and 4
//! channels partitioned into 4 shards, running cache-resident loop traces.
//! After one warm-up pass through DRAM every load hits L1, so each core
//! tick is pure compute over a small host working set and the runs
//! measure the runtime's superstep barrier/exchange path rather than host
//! memory.
//!
//! It runs in the traced pass of `dagguise-idle`. It is not an end-to-end
//! workload: a sharded run cannot be timed in chunks (a run resumed after
//! its budget ran out can report a different end cycle), and whole runs of
//! a tenth of a second, each timed at its fastest over a measurement,
//! still spread by a quarter between measurements on a shared 2-CPU host.

use std::time::Instant;

use dg_cpu::MemTrace;
use dg_obs::RunReport;
use dg_shard::{ShardConfig, ShardedSystemBuilder};
use dg_sim::config::SystemConfig;
use dg_system::{MemoryKind, SystemBuilder};

use crate::digest::Digest;
use crate::measure::{median, mix, secs};
use crate::Layers;

const CORES: usize = 64;
const CHANNELS: u32 = 4;
const SHARDS: usize = 4;
/// NoC hop latency: a wide hop is a wide PDES lookahead, so supersteps
/// are long and barrier costs amortize.
const NOC: u64 = 1024;
/// Loads per core over a 64-line loop.
const LOADS: u64 = 4_000;
/// Instructions retired before each load.
const GAP: u64 = 64;
const BUDGET: u64 = 2_000_000_000;
/// Timed rounds of the traced pass; each layer metric is a median.
const ROUNDS: usize = 5;

fn config() -> SystemConfig {
    let mut cfg = SystemConfig::scale_out(CORES, CHANNELS);
    cfg.cache.l1.size_bytes = 8 * 1024;
    cfg.cache.l2.size_bytes = 16 * 1024;
    cfg.cache.l3_per_core.size_bytes = 16 * 1024;
    cfg
}

/// One loop trace per core over its own 4 KB footprint; the seed shifts
/// each footprint by a line offset.
fn traces(seed: u64) -> Vec<MemTrace> {
    (0..CORES as u64)
        .map(|c| {
            let base = (c << 30) + (mix(seed, c) % 1024) * 64;
            let mut t = MemTrace::new();
            for i in 0..LOADS {
                t.load(base + (i % 64) * 64, GAP);
            }
            t
        })
        .collect()
}

/// One run on the sharded runtime with `parties` worker threads, or with
/// `parties: None` on the classic single-threaded `System`, on the event
/// engine or the naive one: its wall time and report. The classic system
/// has no NoC hop, so it simulates fewer cycles than the sharded one.
fn run(seed: u64, parties: Option<usize>, naive: bool) -> Result<(f64, RunReport), String> {
    let t0;
    let r = match parties {
        Some(parties) => {
            let scfg = ShardConfig {
                noc_latency: NOC,
                max_parties: Some(parties),
                ..ShardConfig::with_shards(SHARDS)
            };
            let mut b = ShardedSystemBuilder::new(config(), scfg);
            for t in traces(seed) {
                b = b.trace_core(t);
            }
            let mut sys = b.memory(MemoryKind::Insecure).build();
            sys.set_event_skipping(!naive);
            t0 = Instant::now();
            sys.run_until_finished(BUDGET)
                .map(|_| sys.report("perfbench"))
        }
        None => {
            let mut b = SystemBuilder::new(config());
            for t in traces(seed) {
                b = b.trace_core(t);
            }
            let mut sys = b.memory(MemoryKind::Insecure).build();
            sys.set_event_skipping(!naive);
            t0 = Instant::now();
            sys.run_until_finished(BUDGET)
                .map(|_| sys.report("perfbench"))
        }
    };
    let wall_s = secs(t0);
    r.map(|report| (wall_s, report)).map_err(|e| e.to_string())
}

/// Times the 4 shards on 1 and on 2 worker threads and the classic
/// `System` on the same traces, checking every run against a naive-engine
/// digest of its runtime, and fills the `dg-shard` layer. Returns
/// (attempted, failed).
pub fn traced(seed: u64, layers: &mut Layers) -> (u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let mut walls = [Vec::new(), Vec::new(), Vec::new()];
    let runtimes = [
        (Some(1), "1-worker sharded run"),
        (Some(2), "2-worker sharded run"),
        (None, "classic run"),
    ];
    for ((parties, what), walls) in runtimes.into_iter().zip(&mut walls) {
        let reference = run(seed, parties, true).map(|(_, r)| Digest::of_report(&r));
        for _ in 0..ROUNDS {
            attempted += 1;
            let checked = reference.clone().and_then(|d| {
                let (wall_s, report) = run(seed, parties, false)?;
                Ok((wall_s, d.check(what, &Digest::of_report(&report))))
            });
            match checked {
                Ok((wall_s, ok)) => {
                    failed += u64::from(!ok);
                    walls.push(wall_s);
                }
                Err(e) => {
                    eprintln!("perfbench: {what} failed: {e}");
                    failed += 1;
                }
            }
        }
    }
    let [one, two, classic] = walls.map(|w| median(&w));
    layers.set("dg-shard.run_s", one);
    layers.set("dg-shard.thread_speedup", one / two);
    layers.set("dg-shard.vs_classic", classic / one);
    (attempted, failed)
}
