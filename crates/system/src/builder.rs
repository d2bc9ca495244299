//! Builders for the memory/defense configurations the paper evaluates:
//! [`SystemBuilder`] and [`ShardedSystemBuilder`] assemble a [`System`],
//! which owns one memory path per channel and routes between them;
//! [`build_memory`] builds one channel's path alone, for component tests
//! that drive it without cores.

use dagguise::{Shaper, ShaperConfig};
use dg_cpu::{Core, DagCore, DagWorkload, MemTrace, TraceCore};
use dg_defenses::{
    CamouflageShaper, FixedService, FsConfig, FsSpatial, FsSpatialConfig, IntervalDistribution,
    TemporalPartition, TpConfig,
};
use dg_mem::{
    DomainShaper, MemoryController, MemorySubsystem, PassThrough, SchedPolicy, ShapedMemory,
};
use dg_rdag::template::RdagTemplate;
use dg_sim::config::{RowPolicy, SystemConfig};
use dg_sim::types::DomainId;

use crate::system::{ShardConfig, System};

/// Which memory path to build.
#[derive(Debug, Clone)]
pub enum MemoryKind {
    /// Insecure baseline: open-row FR-FCFS, no shaping.
    Insecure,
    /// DAGguise: closed-row FR-FCFS with a shaper on each protected domain.
    /// `protected[i]` gives the defense rDAG for domain `i` (`None` =
    /// unprotected pass-through).
    Dagguise {
        /// Per-domain defense rDAG templates.
        protected: Vec<Option<RdagTemplate>>,
    },
    /// Fixed Service across all domains (closed-row discipline baked into
    /// the slot timing).
    FixedService,
    /// FS-BTA: bank-triple-alternation Fixed Service.
    FsBta,
    /// Spatially-partitioned Fixed Service: each domain owns a disjoint
    /// set of banks (§8).
    FsSpatial,
    /// Temporal Partitioning with the given slots per period.
    TemporalPartition {
        /// Request slots per domain period.
        slots_per_period: u64,
    },
    /// Camouflage shapers on protected domains.
    Camouflage {
        /// Per-domain interval distributions (`None` = unprotected).
        protected: Vec<Option<IntervalDistribution>>,
    },
}

impl MemoryKind {
    /// Short stable name used in run reports and artifact metadata.
    pub fn label(&self) -> &'static str {
        match self {
            MemoryKind::Insecure => "insecure",
            MemoryKind::Dagguise { .. } => "dagguise",
            MemoryKind::FixedService => "fixed_service",
            MemoryKind::FsBta => "fs_bta",
            MemoryKind::FsSpatial => "fs_spatial",
            MemoryKind::TemporalPartition { .. } => "temporal_partition",
            MemoryKind::Camouflage { .. } => "camouflage",
        }
    }
}

/// Assembles a [`System`] from cores and a memory kind: the paper's
/// direct-wired topology (cores straight to the memory path, shared L3).
pub struct SystemBuilder {
    cfg: SystemConfig,
    scfg: ShardConfig,
    cores: Vec<Box<dyn Core>>,
    kind: MemoryKind,
}

impl SystemBuilder {
    /// Starts building a system with the given base configuration.
    pub fn new(cfg: SystemConfig) -> Self {
        Self {
            cfg,
            scfg: ShardConfig {
                noc_latency: 0,
                ..ShardConfig::default()
            },
            cores: Vec::new(),
            kind: MemoryKind::Insecure,
        }
    }

    /// Adds a trace-driven core; its domain is its position.
    pub fn trace_core(mut self, trace: MemTrace) -> Self {
        let domain = DomainId(self.cores.len() as u16);
        self.cores
            .push(Box::new(TraceCore::new(domain, trace, &self.cfg)));
        self
    }

    /// Adds a DAG-workload core; its domain is its position.
    pub fn dag_core(mut self, workload: DagWorkload) -> Self {
        let domain = DomainId(self.cores.len() as u16);
        self.cores
            .push(Box::new(DagCore::new(domain, workload, &self.cfg)));
        self
    }

    /// Adds an already-built core.
    pub fn core(mut self, core: Box<dyn Core>) -> Self {
        self.cores.push(core);
        self
    }

    /// Selects the memory path.
    pub fn memory(mut self, kind: MemoryKind) -> Self {
        self.kind = kind;
        self
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics if no cores were added, a per-domain defense list does not
    /// match the core count, or the sharding configuration is invalid
    /// ([`ShardConfig::check`]).
    pub fn build(self) -> System {
        assert!(!self.cores.is_empty(), "a system needs at least one core");
        System::new(self.cfg, self.scfg, self.cores, self.kind)
    }
}

/// Builds a [`System`] on an explicit sharding configuration — at a NoC
/// latency of 1 or more, the multi-channel NoC topology partitioned into
/// shards.
pub struct ShardedSystemBuilder(SystemBuilder);

impl ShardedSystemBuilder {
    /// Starts building with the given base and sharding configurations.
    pub fn new(cfg: SystemConfig, scfg: ShardConfig) -> Self {
        Self(SystemBuilder {
            scfg,
            ..SystemBuilder::new(cfg)
        })
    }

    /// Adds a trace-driven core; its domain is its position.
    pub fn trace_core(self, trace: MemTrace) -> Self {
        Self(self.0.trace_core(trace))
    }

    /// Adds an already-built core.
    pub fn core(self, core: Box<dyn Core>) -> Self {
        Self(self.0.core(core))
    }

    /// Selects the memory path (instantiated once per channel).
    pub fn memory(self, kind: MemoryKind) -> Self {
        Self(self.0.memory(kind))
    }

    /// Builds the system (see [`SystemBuilder::build`]).
    pub fn build(self) -> System {
        self.0.build()
    }
}

/// Builds just the memory path of a one-channel `cfg` for `domains`
/// security domains, applying the same row-policy discipline as
/// [`SystemBuilder::build`]. For component tests that drive the memory
/// subsystem directly, without cores; every harness, the attack and
/// leakage probes included, runs its cores on a [`System`].
///
/// # Panics
///
/// Panics if `cfg` has more than one channel (a [`System`] routes between
/// channels) or a per-domain defense list does not match `domains`.
pub fn build_memory(
    cfg: &SystemConfig,
    kind: MemoryKind,
    domains: usize,
) -> Box<dyn MemorySubsystem> {
    assert_eq!(
        cfg.dram_org.channels, 1,
        "build_memory builds one channel's memory path"
    );
    let mut cfg = cfg.clone();
    cfg.cores = domains;
    build_single_channel(&mut cfg, kind, domains, 0)
}

/// The memory path of every channel in `cfg` (index = channel id), each
/// with its own controller *and its own defense instances*, on an equal
/// slice of the capacity. Reflects the row policy the lanes run into
/// `cfg`, so the caller's [`System`] sees the discipline actually applied.
pub(crate) fn build_lanes(
    cfg: &mut SystemConfig,
    kind: &MemoryKind,
    domains: usize,
) -> Vec<Box<dyn MemorySubsystem>> {
    let channels = cfg.dram_org.channels.max(1);
    (0..channels)
        .map(|ch| {
            // Bank count, timing and queues are per-channel quantities, so
            // they carry over unchanged.
            let mut lane_cfg = cfg.clone();
            lane_cfg.dram_org.channels = 1;
            lane_cfg.dram_org.capacity_bytes /= channels as u64;
            let lane = build_single_channel(&mut lane_cfg, kind.clone(), domains, ch);
            cfg.row_policy = lane_cfg.row_policy;
            lane
        })
        .collect()
}

/// One channel's memory path. `channel` salts any randomized defense so
/// parallel channels do not emit identical cover-traffic schedules.
fn build_single_channel(
    cfg: &mut SystemConfig,
    kind: MemoryKind,
    domains: usize,
    channel: u32,
) -> Box<dyn MemorySubsystem> {
    match kind {
        MemoryKind::Insecure => {
            cfg.row_policy = RowPolicy::Open;
            Box::new(MemoryController::new(cfg, SchedPolicy::FrFcfs))
        }
        MemoryKind::Dagguise { protected } => {
            assert_eq!(
                protected.len(),
                domains,
                "one defense entry per core required"
            );
            // Row-buffer state must be hidden: closed-row policy (§6.1).
            cfg.row_policy = RowPolicy::Closed;
            let mc = MemoryController::new(cfg, SchedPolicy::FrFcfs);
            let shapers: Vec<Box<dyn DomainShaper>> = protected
                .into_iter()
                .enumerate()
                .map(|(i, t)| -> Box<dyn DomainShaper> {
                    let d = DomainId(i as u16);
                    match t {
                        Some(template) => {
                            Box::new(Shaper::new(ShaperConfig::from_system(d, template, cfg)))
                        }
                        None => Box::new(PassThrough::new(d, cfg.queues.transaction_queue)),
                    }
                })
                .collect();
            Box::new(ShapedMemory::new(mc, shapers))
        }
        MemoryKind::FixedService => {
            let fs_cfg = FsConfig::fixed_service(cfg, domains);
            Box::new(FixedService::new(cfg, fs_cfg))
        }
        MemoryKind::FsBta => {
            let fs_cfg = FsConfig::fs_bta(cfg, domains);
            Box::new(FixedService::new(cfg, fs_cfg))
        }
        MemoryKind::FsSpatial => {
            let fs_cfg = FsSpatialConfig::new(cfg, domains);
            Box::new(FsSpatial::new(cfg, fs_cfg))
        }
        MemoryKind::TemporalPartition { slots_per_period } => {
            let tp_cfg = TpConfig::new(cfg, domains, slots_per_period);
            Box::new(TemporalPartition::new(cfg, tp_cfg))
        }
        MemoryKind::Camouflage { protected } => {
            assert_eq!(
                protected.len(),
                domains,
                "one distribution entry per core required"
            );
            cfg.row_policy = RowPolicy::Closed;
            let mc = MemoryController::new(cfg, SchedPolicy::FrFcfs);
            let shapers: Vec<Box<dyn DomainShaper>> = protected
                .into_iter()
                .enumerate()
                .map(|(i, dist)| -> Box<dyn DomainShaper> {
                    let d = DomainId(i as u16);
                    match dist {
                        Some(dist) => Box::new(CamouflageShaper::new(
                            d,
                            dist,
                            cfg,
                            0xCA30 ^ i as u64 ^ ((channel as u64) << 16),
                        )),
                        None => Box::new(PassThrough::new(d, cfg.queues.transaction_queue)),
                    }
                })
                .collect();
            Box::new(ShapedMemory::new(mc, shapers))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(n: u64) -> MemTrace {
        let mut t = MemTrace::new();
        for i in 0..n {
            t.load(i * 64 * 131, 30);
        }
        t
    }

    #[test]
    fn builds_every_memory_kind() {
        let kinds: Vec<MemoryKind> = vec![
            MemoryKind::Insecure,
            MemoryKind::Dagguise {
                protected: vec![Some(RdagTemplate::new(4, 100, 0.001)), None],
            },
            MemoryKind::FixedService,
            MemoryKind::FsBta,
            MemoryKind::FsSpatial,
            MemoryKind::TemporalPartition {
                slots_per_period: 8,
            },
            MemoryKind::Camouflage {
                protected: vec![Some(IntervalDistribution::figure2()), None],
            },
        ];
        for kind in kinds {
            let mut sys = SystemBuilder::new(SystemConfig::two_core())
                .trace_core(trace(50))
                .trace_core(trace(50))
                .memory(kind.clone())
                .build();
            let end = sys.run_until_finished(50_000_000);
            assert!(end.is_ok(), "kind {kind:?} deadlocked: {end:?}");
        }
    }

    #[test]
    fn multi_channel_system_runs_every_memory_kind() {
        let kinds: Vec<MemoryKind> = vec![
            MemoryKind::Insecure,
            MemoryKind::Dagguise {
                protected: vec![Some(RdagTemplate::new(4, 100, 0.001)), None],
            },
            MemoryKind::TemporalPartition {
                slots_per_period: 8,
            },
            MemoryKind::Camouflage {
                protected: vec![Some(IntervalDistribution::figure2()), None],
            },
        ];
        for kind in kinds {
            let mut cfg = SystemConfig::two_core();
            cfg.dram_org.channels = 4;
            let mut sys = SystemBuilder::new(cfg)
                .trace_core(trace(50))
                .trace_core(trace(50))
                .memory(kind.clone())
                .build();
            let end = sys.run_until_finished(50_000_000);
            assert!(end.is_ok(), "kind {kind:?} deadlocked: {end:?}");
            let report = sys.report("multi_channel");
            // 4 channels x 8 banks concatenated channel-major (empty for
            // fixed-schedule paths without a bank model).
            assert!(report.banks.is_empty() || report.banks.len() == 32);
            assert!(
                report.cores.iter().all(|c| c.finished),
                "kind {kind:?} left cores unfinished"
            );
            // Both cores walk the same addresses, so the shared L3 absorbs
            // the second core's loads: exactly one stream reaches memory.
            let reads: u64 = report.domains.iter().map(|d| d.reads).sum();
            assert!(reads >= 50, "kind {kind:?} lost memory reads: {reads}");
        }
    }

    #[test]
    fn channel_salt_decorrelates_camouflage_lanes() {
        // Parallel channels running Camouflage must not emit identical
        // fake schedules; the per-channel seed salt guarantees it. Observe
        // each lane's first autonomous fake emission cycle.
        let mut cfg = SystemConfig::two_core();
        cfg.dram_org.channels = 2;
        let lanes = build_lanes(
            &mut cfg,
            &MemoryKind::Camouflage {
                protected: vec![Some(IntervalDistribution::figure2()), None],
            },
            2,
        );
        let bank_acts: Vec<Vec<u64>> = lanes
            .into_iter()
            .map(|mut lane| {
                let mut out = Vec::new();
                for now in 0..50_000 {
                    lane.tick_into(now, &mut out);
                }
                assert!(
                    lane.stats().domain(DomainId(0)).fakes > 0,
                    "camouflage lane never emitted fakes"
                );
                lane.stats().banks.iter().map(|b| b.acts).collect()
            })
            .collect();
        assert_ne!(
            bank_acts[0], bank_acts[1],
            "channel salt failed to decorrelate fake schedules"
        );
    }

    #[test]
    fn dag_core_system() {
        let mut sys = SystemBuilder::new(SystemConfig::two_core())
            .dag_core(DagWorkload::chain(10, 100, 64))
            .memory(MemoryKind::Insecure)
            .build();
        sys.run_until_finished(1_000_000).unwrap();
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn empty_system_rejected() {
        let _ = SystemBuilder::new(SystemConfig::two_core()).build();
    }

    #[test]
    #[should_panic(expected = "one defense entry per core")]
    fn mismatched_protection_list_rejected() {
        let _ = SystemBuilder::new(SystemConfig::two_core())
            .trace_core(trace(10))
            .memory(MemoryKind::Dagguise { protected: vec![] })
            .build();
    }
}
