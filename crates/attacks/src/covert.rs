//! Covert-channel capacity measurement through the memory controller.
//!
//! Side channels and covert channels share the medium (§2.2's
//! communication model): here a colluding *sender* deliberately modulates
//! memory-controller contention (heavy traffic = bit 1, silence = bit 0,
//! one bit per epoch) and a *receiver* decodes bits by timing its own
//! probes. Measuring the achieved error rate gives a direct, quantitative
//! view of how much information the channel carries — near-zero error on
//! the insecure controller, coin-flip error (zero capacity) once DAGguise
//! shapes the sender.
//!
//! Both ends are cores, a sender and the receiver's [`ProbeCore`], that
//! run on a system like any other core; [`CovertConfig::transmit`]
//! decodes the receiver's log after the run.

use crate::probe::ProbeCore;
use dg_cache::SetAssocCache;
use dg_cpu::Core;
use dg_mem::MemorySubsystem;
use dg_obs::{LeakEstimator, LeakReport};
use dg_sim::clock::Cycle;
use dg_sim::rng::DetRng;
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqId};
use serde::{Deserialize, Serialize};

/// The line every receiver probe reads.
const RECEIVER_ADDR: u64 = 0x40;

/// Parameters of the covert-channel experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CovertConfig {
    /// Cycles per transmitted bit.
    pub epoch: Cycle,
    /// Number of bits to transmit.
    pub bits: usize,
    /// Sender request gap while transmitting a 1.
    pub sender_gap: Cycle,
    /// Receiver probe think time.
    pub probe_gap: Cycle,
}

impl Default for CovertConfig {
    fn default() -> Self {
        Self {
            epoch: 3_000,
            bits: 64,
            sender_gap: 8,
            probe_gap: 60,
        }
    }
}

/// Result of a covert-channel run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CovertResult {
    /// The transmitted bit string.
    pub sent: Vec<bool>,
    /// The decoded bit string.
    pub decoded: Vec<bool>,
    /// Bit error rate in [0, 1].
    pub error_rate: f64,
    /// Raw channel rate in bits per second at the given clock.
    pub raw_bits_per_sec: f64,
}

impl CovertResult {
    /// Approximate channel capacity in bits/s: raw rate × (1 − H(e)),
    /// where H is the binary entropy of the error rate (a binary symmetric
    /// channel bound).
    pub fn capacity_bits_per_sec(&self) -> f64 {
        let e = self.error_rate.clamp(1e-9, 1.0 - 1e-9);
        let h = -e * e.log2() - (1.0 - e) * (1.0 - e).log2();
        self.raw_bits_per_sec * (1.0 - h).max(0.0)
    }
}

/// Latency-bucket width (cycles) and count for the probe's MI histograms.
/// Coarse buckets keep the per-window contingency table well-populated at
/// covert-probe observation rates; finer ones inflate the finite-sample
/// noise floor faster than they add resolution.
const LEAK_BUCKET_WIDTH: Cycle = 64;
const LEAK_BUCKETS: usize = 8;

impl CovertConfig {
    /// Transmits a pseudo-random message drawn from `seed` and decodes it.
    ///
    /// `run` gets the sender and the receiver, to become cores 0 and 1 of
    /// a system, and the cycles the message takes (one epoch per bit); it
    /// runs that system for those cycles. The receiver probes a fixed line,
    /// thinking `probe_gap` cycles between probes. After the run each of
    /// its probes belongs to the epoch its response completed in, and
    /// epochs whose mean probe latency exceeds the median are read as 1s.
    /// The estimator sees every probe keyed by the bit the sender was
    /// transmitting, in windows of `leak_window` cycles at `clock_hz`.
    ///
    /// The report is permutation-null corrected: alongside the true
    /// labelling, the same latency stream is estimated under cyclically
    /// rotated bit labels. A rotated labelling has the same marginals but
    /// no causal alignment with the sender, so any MI it reads is spurious
    /// correlation between the (secret-independent) latency pattern and the
    /// message — a structural noise floor that shaped memory would
    /// otherwise appear to carry. The nulls' mean is subtracted
    /// window-by-window (see [`LeakReport::subtract_null`]); samples stay
    /// signed, the aggregate mean is clamped at zero.
    pub fn transmit(
        &self,
        seed: u64,
        clock_hz: f64,
        leak_window: Cycle,
        run: impl FnOnce([Box<dyn Core>; 2], Cycle),
    ) -> (CovertResult, LeakReport) {
        let sender = CovertSender::new(DomainId(0), self, seed);
        let message = sender.message.clone();
        let receiver = ProbeCore::new(DomainId(1), RECEIVER_ADDR, self.probe_gap, usize::MAX);
        let log = receiver.log();
        run(
            [Box::new(sender), Box::new(receiver)],
            self.epoch * self.bits as u64,
        );

        let observations = log.observations();
        let epoch_of = |at: Cycle| ((at / self.epoch) as usize).min(self.bits - 1);
        // Each epoch's probe latency sum and probe count.
        let mut epochs = vec![(0u64, 0u64); self.bits];
        for o in &observations {
            let e = &mut epochs[epoch_of(o.completed)];
            *e = (e.0 + o.latency(), e.1 + 1);
        }
        // The MI estimate with the message's bits rotated by `rot` as the
        // probes' labels (0: the bits actually sent).
        let estimate = |rot: usize| {
            let mut est =
                LeakEstimator::new(leak_window, clock_hz, 2, LEAK_BUCKET_WIDTH, LEAK_BUCKETS);
            for o in &observations {
                let bit = message[(epoch_of(o.completed) + rot) % self.bits];
                est.observe(o.completed, bit as usize, o.latency());
            }
            est.finish();
            est.report()
        };
        let mut rots: Vec<usize> = [self.bits / 4, self.bits / 2, 3 * self.bits / 4]
            .into_iter()
            .filter(|&r| r > 0 && r < self.bits)
            .collect();
        rots.dedup();
        let nulls: Vec<LeakReport> = rots.into_iter().map(estimate).collect();
        let report = estimate(0).subtract_null(&nulls);

        let means: Vec<f64> = epochs
            .iter()
            .map(|&(sum, n)| match n {
                0 => f64::MAX, // starved epoch reads as heavy contention
                n => sum as f64 / n as f64,
            })
            .collect();
        let mut sorted: Vec<f64> = means.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let median = sorted[sorted.len() / 2];
        let decoded: Vec<bool> = means.iter().map(|&m| m > median).collect();

        let errors = message.iter().zip(&decoded).filter(|(a, b)| a != b).count();
        let result = CovertResult {
            sent: message,
            decoded,
            error_rate: errors as f64 / self.bits as f64,
            raw_bits_per_sec: clock_hz / self.epoch as f64,
        };
        (result, report)
    }
}

/// The covert sender as a core: during 1-epochs it reads one fresh random
/// line every `sender_gap` cycles; during 0-epochs it stays silent. Its
/// requests bypass the caches, so every one reaches the memory path.
///
/// A refused request is offered again, unchanged, on every tick until
/// accepted (the [`Core`] back-pressure contract) — also past the end of
/// its 1-epoch — and the next fresh request follows `sender_gap` cycles
/// after the acceptance.
#[derive(Debug)]
struct CovertSender {
    domain: DomainId,
    cfg: CovertConfig,
    message: Vec<bool>,
    rng: DetRng,
    /// Requests the memory path accepted; the next one's id is `sent + 1`.
    sent: u64,
    next_send: Cycle,
    pending: Option<MemRequest>,
}

impl CovertSender {
    /// A sender for `domain` transmitting a pseudo-random message drawn
    /// from `seed`; the same stream then draws its addresses.
    fn new(domain: DomainId, cfg: &CovertConfig, seed: u64) -> Self {
        let mut rng = DetRng::new(seed);
        let message = (0..cfg.bits).map(|_| rng.next_bool(0.5)).collect();
        Self {
            domain,
            cfg: *cfg,
            message,
            rng,
            sent: 0,
            next_send: 0,
            pending: None,
        }
    }
}

impl Core for CovertSender {
    fn domain(&self) -> DomainId {
        self.domain
    }

    fn tick(&mut self, now: Cycle, _l3: &mut SetAssocCache, mem: &mut dyn MemorySubsystem) {
        let req = match self.pending.take() {
            Some(req) => req,
            None if now >= self.next_send
                && self.message.get((now / self.cfg.epoch) as usize) == Some(&true) =>
            {
                let addr = (self.rng.next_u64() % (1 << 26)) & !63;
                MemRequest::read(self.domain, addr, now)
                    .with_id(ReqId::compose(self.domain, self.sent + 1))
            }
            None => return,
        };
        match mem.try_send(req, now) {
            Ok(()) => {
                self.sent += 1;
                self.next_send = now + self.cfg.sender_gap;
            }
            Err(back) => self.pending = Some(back),
        }
    }

    fn on_response(&mut self, _resp: &MemResponse, _now: Cycle) {}

    fn finished(&self) -> bool {
        false
    }

    fn instructions_retired(&self) -> u64 {
        self.sent
    }

    fn finished_at(&self) -> Option<Cycle> {
        None
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        if self.pending.is_some() {
            return None; // parked on the retry
        }
        let from = now.max(self.next_send);
        let epoch = (from / self.cfg.epoch) as usize;
        let ones_ahead = self.message.iter().skip(epoch).position(|&b| b)?;
        Some(from.max((epoch + ones_ahead) as Cycle * self.cfg.epoch))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_rdag::template::RdagTemplate;
    use dg_sim::config::SystemConfig;
    use dg_system::{MemoryKind, ShardConfig, ShardedSystemBuilder, SystemBuilder};

    fn cfg() -> CovertConfig {
        CovertConfig {
            epoch: 2_000,
            bits: 32,
            sender_gap: 6,
            probe_gap: 50,
        }
    }

    fn run_on(kind: MemoryKind, seed: u64, skipping: bool) -> (CovertResult, LeakReport) {
        cfg().transmit(seed, 2.4e9, 8_000, |[sender, receiver], horizon| {
            let mut sys = SystemBuilder::new(SystemConfig::two_core())
                .core(sender)
                .core(receiver)
                .memory(kind)
                .build();
            sys.set_event_skipping(skipping);
            sys.run_for(horizon)
        })
    }

    fn run(kind: MemoryKind, seed: u64) -> (CovertResult, LeakReport) {
        run_on(kind, seed, true)
    }

    /// The run across the default 64-cycle NoC hop, on one shard.
    fn run_on_noc(kind: MemoryKind, seed: u64, skipping: bool) -> (CovertResult, LeakReport) {
        cfg().transmit(seed, 2.4e9, 8_000, |[sender, receiver], horizon| {
            let scfg = ShardConfig::default();
            let mut sys = ShardedSystemBuilder::new(SystemConfig::two_core(), scfg)
                .core(sender)
                .core(receiver)
                .memory(kind)
                .build();
            sys.set_event_skipping(skipping);
            sys.run_for(horizon)
        })
    }

    fn dagguise() -> MemoryKind {
        MemoryKind::Dagguise {
            protected: vec![Some(RdagTemplate::new(2, 100, 0.0)), None],
        }
    }

    #[test]
    fn insecure_channel_transmits_reliably() {
        let (r, _) = run(MemoryKind::Insecure, 11);
        assert!(
            r.error_rate < 0.2,
            "contention channel should decode well: e = {}",
            r.error_rate
        );
        assert!(r.capacity_bits_per_sec() > 1e5);
    }

    #[test]
    fn dagguise_reduces_channel_to_noise() {
        let (r, _) = run(dagguise(), 11);
        // The shaped sender's traffic is invisible; decoding degenerates
        // to the median split, i.e. a coin flip.
        assert!(
            (0.3..=0.7).contains(&r.error_rate),
            "shaped channel must be noise: e = {}",
            r.error_rate
        );
        assert!(r.capacity_bits_per_sec() < 0.25 * r.raw_bits_per_sec);
    }

    #[test]
    fn estimator_separates_insecure_from_dagguise() {
        // Mirrors the sweep probe: merge several repetitions with distinct
        // messages so per-run finite-sample noise averages out.
        let seeds = [11u64, 12, 13, 14];
        let insecure = LeakReport::merged(&seeds.map(|s| run(MemoryKind::Insecure, s).1));
        let shaped = LeakReport::merged(&seeds.map(|s| run(dagguise(), s).1));

        assert!(
            insecure.mean_capacity_bps > 0.0,
            "insecure channel must leak: {}",
            insecure.mean_capacity_bps
        );
        assert!(!insecure.samples.is_empty());
        assert!(
            shaped.mean_capacity_bps < 0.05 * insecure.mean_capacity_bps,
            "DAGguise must collapse MI capacity: shaped {} vs insecure {}",
            shaped.mean_capacity_bps,
            insecure.mean_capacity_bps
        );
    }

    #[test]
    fn both_engines_carry_the_same_channel() {
        // The sender's wake-ups (next 1-epoch, next gap, parked retry) let
        // the event engine skip exactly the cycles the per-cycle loop
        // spends idle.
        for kind in [MemoryKind::Insecure, dagguise()] {
            let naive = run_on(kind.clone(), 11, false);
            assert_eq!(run_on(kind, 11, true), naive);
        }
    }

    #[test]
    fn the_noc_carries_the_channel_without_flooding() {
        // The NoC refuses a core that has a transaction queue's worth of
        // requests outstanding on a channel, so the sender's reads cannot
        // pile up ahead of the probe and starve it: merged as the sweep
        // probe merges them, the repetitions clear the sweep gate's
        // 50,000 bits/s floor for the insecure controller. A parked sender
        // wakes on the response that returns its credit, on both engines
        // alike.
        let seeds = [11u64, 12, 13, 14];
        let runs = seeds.map(|s| run_on_noc(MemoryKind::Insecure, s, true));
        let merged = LeakReport::merged(&runs.clone().map(|r| r.1));
        assert!(
            merged.mean_capacity_bps >= 50_000.0,
            "NoC channel starved: {} bits/s",
            merged.mean_capacity_bps
        );
        assert_eq!(run_on_noc(MemoryKind::Insecure, 11, false), runs[0]);
    }

    #[test]
    fn sender_retries_a_refused_request_unchanged() {
        // A memory that refuses everything: the sender must offer the
        // same request (address and id) on every tick, 1-epoch or not,
        // and report itself parked.
        struct Refuse(Vec<MemRequest>, dg_mem::MemStats);
        impl MemorySubsystem for Refuse {
            fn try_send(&mut self, req: MemRequest, _now: Cycle) -> Result<(), MemRequest> {
                self.0.push(req);
                Err(req)
            }
            fn tick_into(&mut self, _now: Cycle, _out: &mut Vec<MemResponse>) {}
            fn stats(&self) -> &dg_mem::MemStats {
                &self.1
            }
            fn stats_mut(&mut self) -> &mut dg_mem::MemStats {
                &mut self.1
            }
            fn free_slots(&self) -> usize {
                0
            }
        }
        let probe = cfg();
        let mut sender = CovertSender::new(DomainId(0), &probe, 11);
        let first_one = sender.message.iter().position(|&b| b).unwrap() as Cycle;
        let start = first_one * probe.epoch;
        assert_eq!(sender.next_event_at(0), Some(start));
        let mut mem = Refuse(Vec::new(), dg_mem::MemStats::new(1, 64));
        let mut l3 = SetAssocCache::new(SystemConfig::two_core().cache.l3_per_core, "L3");
        for now in start..start + 3 * probe.epoch {
            sender.tick(now, &mut l3, &mut mem);
        }
        assert_eq!(mem.0.len() as Cycle, 3 * probe.epoch);
        assert!(mem.0.iter().all(|r| *r == mem.0[0]));
        assert_eq!(sender.next_event_at(start + 3 * probe.epoch), None);
    }

    #[test]
    fn capacity_bound_behaviour() {
        let r = CovertResult {
            sent: vec![],
            decoded: vec![],
            error_rate: 0.5,
            raw_bits_per_sec: 1000.0,
        };
        assert!(r.capacity_bits_per_sec() < 1e-3);
        let r2 = CovertResult {
            error_rate: 0.0,
            ..r
        };
        assert!((r2.capacity_bits_per_sec() - 1000.0).abs() < 1e-3);
    }
}
