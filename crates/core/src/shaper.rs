//! The DAGguise request shaper (§4.4).

use std::collections::VecDeque;

use dg_dram::{AddressMapper, MapScheme, PhysLoc};
use dg_mem::DomainShaper;
use dg_obs::{EventKind, ShaperReport, ShaperTimeline, ShaperTimelineReport, Tracer};
use dg_rdag::exec::{RdagExecutor, SlotDemand};
use dg_rdag::template::RdagTemplate;
use dg_sim::clock::{ClockRatio, Cycle};
use dg_sim::rng::DetRng;
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqId, ReqKind};
use serde::{Deserialize, Serialize};

/// Configuration of one shaper instance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShaperConfig {
    /// The security domain this shaper protects.
    pub domain: DomainId,
    /// The defense rDAG template (public, secret-independent).
    pub template: RdagTemplate,
    /// Private transaction queue capacity (8 in the paper's Table 3 sizing).
    pub queue_capacity: usize,
    /// Banks in the DRAM device.
    pub banks: u32,
    /// DRAM row size in bytes (for fake address generation).
    pub row_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Rows per bank addressable by fake requests.
    pub rows: u64,
    /// CPU:DRAM clock ratio for edge-weight conversion.
    pub clock_ratio: ClockRatio,
    /// Seed for fake-address generation. The stream is independent of any
    /// secret: it is consumed only when a fake is emitted, and *whether* a
    /// fake is emitted at a slot is invisible to the receiver.
    pub seed: u64,
}

impl ShaperConfig {
    /// Derives a shaper configuration from a system configuration.
    pub fn from_system(
        domain: DomainId,
        template: RdagTemplate,
        cfg: &dg_sim::config::SystemConfig,
    ) -> Self {
        let rows =
            cfg.dram_org.capacity_bytes / (u64::from(cfg.dram_org.banks) * cfg.dram_org.row_bytes);
        Self {
            domain,
            template,
            queue_capacity: cfg.queues.private_queue,
            banks: cfg.dram_org.banks,
            row_bytes: cfg.dram_org.row_bytes,
            line_bytes: cfg.dram_org.line_bytes,
            rows: rows.max(1),
            clock_ratio: cfg.clock_ratio,
            seed: 0xDA65_u64 ^ (u64::from(domain.0) << 32),
        }
    }
}

/// Counters describing a shaper's activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShaperStats {
    /// Real victim requests forwarded into prescribed slots.
    pub real_forwarded: u64,
    /// Fake requests fabricated to fill unmatched slots.
    pub fakes_emitted: u64,
    /// Victim requests accepted into the private queue.
    pub accepted: u64,
    /// Acceptances refused because the private queue was full
    /// (back-pressure to the victim core; invisible to other domains).
    pub rejected: u64,
    /// Sum over forwarded requests of (emission cycle − creation cycle):
    /// the shaping delay experienced by the victim.
    pub delay_sum: Cycle,
}

impl ShaperStats {
    /// Fraction of emitted requests that were fake.
    pub fn fake_fraction(&self) -> f64 {
        let total = self.real_forwarded + self.fakes_emitted;
        if total == 0 {
            0.0
        } else {
            self.fakes_emitted as f64 / total as f64
        }
    }

    /// Mean shaping delay of forwarded requests in CPU cycles.
    pub fn mean_delay(&self) -> f64 {
        if self.real_forwarded == 0 {
            0.0
        } else {
            self.delay_sum as f64 / self.real_forwarded as f64
        }
    }
}

/// The DAGguise request shaper: a proxy agent for one protected domain.
///
/// The shaper implements [`DomainShaper`] and plugs into
/// [`dg_mem::ShapedMemory`]. Its externally visible behaviour — *when* it
/// emits, to *which bank*, with *which type* — is driven exclusively by the
/// defense rDAG's execution state, which advances on receiver-visible
/// completions. The victim's buffered requests determine only the payload
/// (real vs fake) of each prescribed slot.
#[derive(Debug)]
pub struct Shaper {
    config: ShaperConfig,
    executor: RdagExecutor,
    queue: VecDeque<MemRequest>,
    mapper: AddressMapper,
    /// The request each defense-rDAG sequence has in flight: the executor
    /// allows at most one per sequence.
    in_flight: Vec<Option<ReqId>>,
    rng: DetRng,
    fake_seq: u64,
    stats: ShaperStats,
    tracer: Tracer,
    /// Windowed emission telemetry, recorded only when enabled. Purely
    /// observational: it never influences what or when the shaper emits.
    timeline: Option<ShaperTimeline>,
}

impl Shaper {
    /// Builds a shaper from its configuration.
    pub fn new(config: ShaperConfig) -> Self {
        let executor = RdagExecutor::new(
            config.template.sequence_specs(config.banks),
            config.clock_ratio,
        );
        let mapper = AddressMapper::new(
            MapScheme::BankInterleaved,
            config.banks,
            config.row_bytes,
            config.line_bytes,
        );
        let rng = DetRng::new(config.seed);
        let in_flight = vec![None; executor.sequence_count()];
        Self {
            config,
            executor,
            queue: VecDeque::new(),
            mapper,
            in_flight,
            rng,
            fake_seq: 0,
            stats: ShaperStats::default(),
            tracer: Tracer::noop(),
            timeline: None,
        }
    }

    /// Activity counters.
    pub fn stats(&self) -> &ShaperStats {
        &self.stats
    }

    /// The configuration this shaper runs.
    pub fn config(&self) -> &ShaperConfig {
        &self.config
    }

    /// The defense-rDAG execution state (for harness introspection).
    pub fn executor(&self) -> &RdagExecutor {
        &self.executor
    }

    /// Finds the oldest buffered victim request matching the prescribed
    /// bank and type, removing and returning it.
    fn take_matching(&mut self, demand: &SlotDemand) -> Option<MemRequest> {
        let pos = self.queue.iter().position(|r| {
            r.req_type == demand.req_type && self.mapper.decode(r.addr).bank == demand.bank
        })?;
        self.queue.remove(pos)
    }

    /// Fabricates a fake request to a random address in the prescribed bank
    /// (§4.4: "the fake request accesses a random address in the targeted
    /// bank").
    fn make_fake(&mut self, demand: &SlotDemand, now: Cycle) -> MemRequest {
        let row = self.rng.next_below(self.config.rows);
        let col = self
            .rng
            .next_below(self.config.row_bytes / self.config.line_bytes);
        let addr = self.mapper.encode(PhysLoc {
            bank: demand.bank,
            row,
            col,
        });
        self.fake_seq += 1;
        // Fake ids live in a reserved id space so they can never collide
        // with core-issued ids of the same domain.
        let id = ReqId::compose(DomainId(self.config.domain.0 | 0x8000), self.fake_seq);
        let mut req = MemRequest::fake(self.config.domain, addr, demand.req_type, now);
        req.id = id;
        req
    }
}

impl DomainShaper for Shaper {
    fn domain(&self) -> DomainId {
        self.config.domain
    }

    fn try_accept(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        if self.queue.len() >= self.config.queue_capacity {
            self.stats.rejected += 1;
            self.tracer.record(now, || EventKind::ShaperReject {
                id: req.id,
                domain: req.domain,
            });
            return Err(req);
        }
        debug_assert_eq!(
            req.domain, self.config.domain,
            "request routed to wrong shaper"
        );
        self.tracer.record(now, || EventKind::ShaperAccept {
            id: req.id,
            domain: req.domain,
        });
        self.queue.push_back(req);
        self.stats.accepted += 1;
        self.tracer.record(now, || EventKind::ShaperQueueDepth {
            domain: self.config.domain,
            depth: self.queue.len() as u32,
        });
        Ok(())
    }

    fn tick_into(&mut self, now: Cycle, space: usize, out: &mut Vec<MemRequest>) {
        let _prof = dg_prof::span("rdag_exec");
        let start = out.len();
        // Iterating by sequence index matches the order `poll` returned
        // demands in, so the emission schedule is unchanged — but without
        // allocating a demand vector on every tick.
        for seq in 0..self.executor.sequence_count() {
            if out.len() - start >= space {
                // Transaction queue full: the slot stays due and will be
                // retried next cycle. The stall depends only on global
                // congestion, never on this domain's secrets.
                break;
            }
            let Some(demand) = self.executor.demand(seq, now) else {
                continue;
            };
            // Telemetry inputs, captured before the slot is filled: how
            // deep the private queue was and how long the slot sat due.
            let depth = self.queue.len();
            let slack = now - self.executor.due_at(demand.seq).unwrap_or(now);
            let req = match self.take_matching(&demand) {
                Some(real) => {
                    self.stats.real_forwarded += 1;
                    self.stats.delay_sum += now.saturating_sub(real.created_at);
                    self.tracer.record(now, || EventKind::ShaperEmitReal {
                        id: real.id,
                        domain: real.domain,
                        bank: demand.bank,
                    });
                    // Forwarding popped the private queue: sample the new
                    // depth for the counter track.
                    self.tracer.record(now, || EventKind::ShaperQueueDepth {
                        domain: self.config.domain,
                        depth: self.queue.len() as u32,
                    });
                    real
                }
                None => {
                    self.stats.fakes_emitted += 1;
                    let fake = self.make_fake(&demand, now);
                    self.tracer.record(now, || EventKind::ShaperEmitFake {
                        id: fake.id,
                        domain: self.config.domain,
                        bank: demand.bank,
                    });
                    fake
                }
            };
            if let Some(tl) = &mut self.timeline {
                tl.record_emission(now, depth, slack, req.kind.is_fake());
            }
            self.executor.emitted(demand.seq, now);
            self.in_flight[demand.seq] = Some(req.id);
            out.push(req);
        }
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        // The shaper acts only when a defense-rDAG slot comes due. With
        // every sequence waiting on a response there is no self-scheduled
        // event: completions arrive through the inner controller, whose own
        // `next_event_at` covers them.
        self.executor.earliest_due().map(|at| at.max(now))
    }

    fn settle_refusals(&mut self, req: &MemRequest, from: Cycle, to: Cycle) {
        debug_assert!(
            self.queue.len() >= self.config.queue_capacity,
            "settled refusals against a private queue with room"
        );
        self.stats.rejected += to.saturating_sub(from);
        if self.tracer.enabled() {
            for now in from..to {
                self.tracer.record(now, || EventKind::ShaperReject {
                    id: req.id,
                    domain: req.domain,
                });
            }
        }
    }

    fn on_response(&mut self, resp: &MemResponse, now: Cycle) -> Option<MemResponse> {
        let seq = self
            .in_flight
            .iter()
            .position(|&id| id == Some(resp.id))
            .expect("response for a request this shaper never emitted");
        self.in_flight[seq] = None;
        self.executor.completed(seq, now);
        match resp.kind {
            ReqKind::Real => Some(*resp),
            ReqKind::Fake => None,
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    fn enable_timeline(&mut self, window: Cycle) {
        self.timeline = Some(ShaperTimeline::new(self.config.domain.0, window));
    }

    fn timeline(&self) -> Option<ShaperTimelineReport> {
        self.timeline.as_ref().map(|tl| tl.report())
    }

    fn report(&self) -> Option<ShaperReport> {
        Some(ShaperReport {
            domain: self.config.domain.0,
            real_forwarded: self.stats.real_forwarded,
            fakes_emitted: self.stats.fakes_emitted,
            accepted: self.stats.accepted,
            rejected: self.stats.rejected,
            fake_fraction: self.stats.fake_fraction(),
            mean_delay: (self.stats.real_forwarded > 0).then(|| self.stats.mean_delay()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_sim::config::SystemConfig;
    use dg_sim::types::ReqType;

    fn cfg_with(template: RdagTemplate) -> ShaperConfig {
        let mut sys = SystemConfig::two_core();
        sys.clock_ratio = ClockRatio::new(1);
        ShaperConfig::from_system(DomainId(0), template, &sys)
    }

    fn shaper(seqs: u32, weight: u64) -> Shaper {
        Shaper::new(cfg_with(RdagTemplate::new(seqs, weight, 0.0)))
    }

    /// Drives the shaper standalone: every emitted request completes
    /// `latency` cycles later.
    fn run_standalone(s: &mut Shaper, cycles: Cycle, latency: Cycle) -> Vec<(Cycle, MemRequest)> {
        let mut emissions = Vec::new();
        let mut completions: VecDeque<(Cycle, MemRequest)> = VecDeque::new();
        for now in 0..cycles {
            while let Some(&(when, req)) = completions.front() {
                if when > now {
                    break;
                }
                completions.pop_front();
                let resp = MemResponse {
                    id: req.id,
                    domain: req.domain,
                    addr: req.addr,
                    req_type: req.req_type,
                    kind: req.kind,
                    arrived_at: when - latency,
                    completed_at: when,
                };
                s.on_response(&resp, now);
            }
            for req in s.tick(now, usize::MAX) {
                emissions.push((now, req));
                completions.push_back((now + latency, req));
            }
        }
        emissions
    }

    #[test]
    fn emits_fakes_when_idle() {
        let mut s = shaper(1, 150);
        let emissions = run_standalone(&mut s, 1000, 100);
        assert!(!emissions.is_empty());
        assert!(emissions.iter().all(|(_, r)| r.kind.is_fake()));
        assert_eq!(s.stats().fakes_emitted, emissions.len() as u64);
        // Steady state: one emission every latency + weight cycles.
        let gaps: Vec<Cycle> = emissions.windows(2).map(|w| w[1].0 - w[0].0).collect();
        assert!(gaps.iter().all(|&g| g == 250), "gaps {gaps:?}");
    }

    #[test]
    fn forwards_matching_real_requests() {
        let mut s = shaper(1, 150);
        // Find the bank the first slot demands and enqueue a matching read.
        let demand = s.executor.poll(0)[0];
        let addr = s.mapper.encode(PhysLoc {
            bank: demand.bank,
            row: 3,
            col: 1,
        });
        let req = MemRequest::read(DomainId(0), addr, 0).with_id(ReqId::compose(DomainId(0), 1));
        s.try_accept(req, 0).unwrap();
        let out = s.tick(0, usize::MAX);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].id, req.id);
        assert_eq!(out[0].kind, ReqKind::Real);
        assert_eq!(s.stats().real_forwarded, 1);
        assert_eq!(s.stats().fakes_emitted, 0);
    }

    #[test]
    fn mismatched_bank_gets_fake_instead() {
        let mut s = shaper(1, 150);
        let demand = s.executor.poll(0)[0];
        let wrong_bank = (demand.bank + 1) % 8;
        let addr = s.mapper.encode(PhysLoc {
            bank: wrong_bank,
            row: 3,
            col: 1,
        });
        let req = MemRequest::read(DomainId(0), addr, 0).with_id(ReqId::compose(DomainId(0), 1));
        s.try_accept(req, 0).unwrap();
        let out = s.tick(0, usize::MAX);
        assert_eq!(out.len(), 1);
        assert!(out[0].kind.is_fake());
        // The fake targets the prescribed bank.
        assert_eq!(s.mapper.decode(out[0].addr).bank, demand.bank);
        assert_eq!(s.pending(), 1, "victim request stays buffered");
    }

    #[test]
    fn mismatched_type_gets_fake_instead() {
        let mut s = Shaper::new(cfg_with(RdagTemplate::new(1, 150, 0.0))); // reads only
        let demand = s.executor.poll(0)[0];
        let addr = s.mapper.encode(PhysLoc {
            bank: demand.bank,
            row: 1,
            col: 0,
        });
        let w = MemRequest::write(DomainId(0), addr, 0).with_id(ReqId::compose(DomainId(0), 1));
        s.try_accept(w, 0).unwrap();
        let out = s.tick(0, usize::MAX);
        assert!(out[0].kind.is_fake());
        assert_eq!(out[0].req_type, ReqType::Read);
    }

    #[test]
    fn fake_responses_are_consumed() {
        let mut s = shaper(1, 100);
        let out = s.tick(0, usize::MAX);
        let fake = out[0];
        assert!(fake.kind.is_fake());
        let resp = MemResponse {
            id: fake.id,
            domain: fake.domain,
            addr: fake.addr,
            req_type: fake.req_type,
            kind: fake.kind,
            arrived_at: 0,
            completed_at: 50,
        };
        assert_eq!(s.on_response(&resp, 50), None);
    }

    #[test]
    fn private_queue_backpressure() {
        let mut s = shaper(1, 100);
        let cap = s.config().queue_capacity;
        for i in 0..cap as u64 {
            let req =
                MemRequest::read(DomainId(0), i * 64, 0).with_id(ReqId::compose(DomainId(0), i));
            s.try_accept(req, 0).unwrap();
        }
        let extra =
            MemRequest::read(DomainId(0), 0x9000, 0).with_id(ReqId::compose(DomainId(0), 99));
        assert!(s.try_accept(extra, 0).is_err());
        assert_eq!(s.stats().rejected, 1);
    }

    #[test]
    fn emission_times_independent_of_victim_traffic() {
        // The core security property, exercised at the unit level: the
        // shaper's emission schedule (cycle, bank, type) is identical
        // whether or not the victim enqueues requests.
        let t = RdagTemplate::new(2, 120, 0.1);
        let mut idle = Shaper::new(cfg_with(t));
        let idle_emissions = run_standalone(&mut idle, 3000, 80);

        let mut busy = Shaper::new(cfg_with(t));
        let mut emissions = Vec::new();
        let mut completions: VecDeque<(Cycle, MemRequest)> = VecDeque::new();
        let mut injected = 0u64;
        for now in 0..3000 {
            // The victim floods the shaper with requests to varied banks.
            if now % 7 == 0 && busy.pending() < busy.config().queue_capacity {
                injected += 1;
                let req = MemRequest::read(DomainId(0), (injected * 64) % 65536, now)
                    .with_id(ReqId::compose(DomainId(0), injected));
                let _ = busy.try_accept(req, now);
            }
            while let Some(&(when, req)) = completions.front() {
                if when > now {
                    break;
                }
                completions.pop_front();
                let resp = MemResponse {
                    id: req.id,
                    domain: req.domain,
                    addr: req.addr,
                    req_type: req.req_type,
                    kind: req.kind,
                    arrived_at: when - 80,
                    completed_at: when,
                };
                busy.on_response(&resp, now);
            }
            for req in busy.tick(now, usize::MAX) {
                emissions.push((now, req));
                completions.push_back((now + 80, req));
            }
        }
        assert!(injected > 0);
        assert!(busy.stats().real_forwarded > 0, "some requests forwarded");
        // Compare the receiver-visible schedule: (cycle, bank, type).
        let visible = |e: &[(Cycle, MemRequest)]| -> Vec<(Cycle, u32, ReqType)> {
            e.iter()
                .map(|(c, r)| (*c, busy.mapper.decode(r.addr).bank, r.req_type))
                .collect()
        };
        assert_eq!(visible(&idle_emissions), visible(&emissions));
    }

    #[test]
    fn timeline_records_windows_without_changing_emissions() {
        let t = RdagTemplate::new(1, 150, 0.0);
        let mut plain = Shaper::new(cfg_with(t));
        let plain_emissions = run_standalone(&mut plain, 2000, 100);

        let mut observed = Shaper::new(cfg_with(t));
        observed.enable_timeline(500);
        let observed_emissions = run_standalone(&mut observed, 2000, 100);

        // Observer effect: enabling telemetry changes nothing visible.
        let key = |e: &[(Cycle, MemRequest)]| -> Vec<(Cycle, u64)> {
            e.iter().map(|(c, r)| (*c, r.addr)).collect()
        };
        assert_eq!(key(&plain_emissions), key(&observed_emissions));

        let tl = observed.timeline().expect("timeline enabled");
        assert_eq!(tl.domain, 0);
        assert_eq!(tl.window, 500);
        assert!(tl.windows.len() >= 2);
        let total: u64 = tl.windows.iter().map(|w| w.real + w.fake).sum();
        assert_eq!(total, observed_emissions.len() as u64);
    }

    #[test]
    fn delay_accounting() {
        let mut s = shaper(1, 100);
        let demand = s.executor.poll(0)[0];
        let addr = s.mapper.encode(PhysLoc {
            bank: demand.bank,
            row: 0,
            col: 0,
        });
        // Created at 0 but only forwarded at cycle 40.
        let req = MemRequest::read(DomainId(0), addr, 0).with_id(ReqId::compose(DomainId(0), 1));
        s.try_accept(req, 10).unwrap();
        let out = s.tick(40, usize::MAX);
        assert_eq!(out.len(), 1);
        assert_eq!(s.stats().delay_sum, 40);
        assert_eq!(s.stats().mean_delay(), 40.0);
    }

    #[test]
    fn zero_space_stalls_slot_without_losing_it() {
        let mut s = shaper(1, 100);
        assert!(s.tick(0, 0).is_empty());
        // Slot still due next cycle.
        let out = s.tick(1, 1);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn fake_fraction_stat() {
        let mut st = ShaperStats::default();
        assert_eq!(st.fake_fraction(), 0.0);
        st.fakes_emitted = 3;
        st.real_forwarded = 1;
        assert!((st.fake_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "never emitted")]
    fn foreign_response_panics() {
        let mut s = shaper(1, 100);
        let resp = MemResponse {
            id: ReqId(424242),
            domain: DomainId(0),
            addr: 0,
            req_type: ReqType::Read,
            kind: ReqKind::Real,
            arrived_at: 0,
            completed_at: 1,
        };
        s.on_response(&resp, 1);
    }
}
