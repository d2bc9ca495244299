//! The request-DAG core: executes a workload expressed as an original rDAG.

use std::collections::VecDeque;

use dg_cache::SetAssocCache;
use dg_mem::MemorySubsystem;
use dg_sim::clock::Cycle;
use dg_sim::config::SystemConfig;
use dg_sim::types::{DomainId, MemRequest, MemResponse, ReqId};
use serde::{Deserialize, Serialize};

use crate::core_trait::Core;

/// One memory request of a DAG workload.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagReq {
    /// Byte address.
    pub addr: u64,
    /// Store (true) or load (false).
    pub is_write: bool,
    /// Indices of requests whose completion this one depends on.
    pub deps: Vec<u32>,
    /// CPU cycles of computation between the last dependency's completion
    /// and this request's emission (the rDAG edge weight, §4.1).
    pub gap: Cycle,
    /// Instructions attributed to this request (retired at completion).
    pub instrs: u64,
}

/// A workload expressed as a dependency graph of memory requests — the
/// *original rDAG* of the application (§4.1).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DagWorkload {
    /// Requests; dependencies must point to lower indices.
    pub reqs: Vec<DagReq>,
}

impl DagWorkload {
    /// A linear chain of `n` reads spaced `gap` cycles apart — the victim
    /// pattern of the Figure 5 running example.
    pub fn chain(n: usize, gap: Cycle, stride: u64) -> Self {
        let reqs = (0..n)
            .map(|i| DagReq {
                addr: i as u64 * stride,
                is_write: false,
                deps: if i == 0 { vec![] } else { vec![i as u32 - 1] },
                gap,
                instrs: 100,
            })
            .collect();
        Self { reqs }
    }

    /// Validates that dependencies are topologically ordered (point to
    /// lower indices).
    pub fn validate(&self) -> Result<(), String> {
        for (i, r) in self.reqs.iter().enumerate() {
            for &d in &r.deps {
                if d as usize >= i {
                    return Err(format!("request {i} depends on later request {d}"));
                }
            }
        }
        Ok(())
    }

    /// Total instructions in the workload.
    pub fn total_instructions(&self) -> u64 {
        self.reqs.iter().map(|r| r.instrs).sum()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqState {
    /// This many distinct dependencies have not completed yet.
    Blocked(u32),
    /// Dependencies done; emission due at the stored cycle.
    Ready(Cycle),
    /// In flight.
    Issued,
    /// Response received.
    Done,
}

/// A core that executes a [`DagWorkload`] against the memory subsystem,
/// bypassing the cache hierarchy (the workload is already expressed as
/// LLC-miss traffic).
#[derive(Debug)]
pub struct DagCore {
    domain: DomainId,
    workload: DagWorkload,
    state: Vec<ReqState>,
    /// Reverse dependencies in CSR form: the distinct dependents of
    /// request `i` are `dependents[dependents_at[i]..dependents_at[i + 1]]`.
    dependents_at: Vec<u32>,
    dependents: Vec<u32>,
    /// The frontier: indices of `Ready` requests, ascending (the issue
    /// order among requests due on the same cycle).
    ready: Vec<u32>,
    /// Requests in state `Done`.
    done: usize,
    max_outstanding: usize,
    outstanding: usize,
    send_backlog: VecDeque<(usize, MemRequest)>,
    /// Request id → workload index.
    id_to_idx: Vec<(ReqId, usize)>,
    next_seq: u64,
    instrs_done: u64,
    finished_at: Option<Cycle>,
    /// Emission time of each request (for trace comparison in tests and
    /// the Figure 5 harness).
    pub emissions: Vec<(Cycle, u64)>,
    /// Completion time of each request by index.
    pub completions: Vec<Option<Cycle>>,
    /// Gaps between request-completion events (simulated cycles).
    completion_gaps: dg_prof::LogHistogram,
    last_completion: Cycle,
}

impl DagCore {
    /// Builds a core for `domain` executing `workload`.
    ///
    /// # Panics
    ///
    /// Panics if the workload's dependencies are not topologically ordered.
    pub fn new(domain: DomainId, workload: DagWorkload, cfg: &SystemConfig) -> Self {
        workload.validate().expect("workload must be a DAG");
        let n = workload.reqs.len();
        // The distinct dependencies of request `i` (a repeated entry in
        // `deps` is the same edge).
        let distinct = |i: usize| {
            let deps = &workload.reqs[i].deps;
            deps.iter()
                .enumerate()
                .filter(move |&(j, d)| !deps[..j].contains(d))
                .map(|(_, &d)| d as usize)
        };
        // Counting pass, then a reverse fill pass that walks each
        // dependency's end offset back to its start: the ranges are carved
        // out of one flat array with no scratch copy.
        let mut dependents_at = vec![0u32; n + 1];
        let mut state = Vec::with_capacity(n);
        let mut ready = Vec::new();
        for (i, r) in workload.reqs.iter().enumerate() {
            let mut blocking = 0;
            for d in distinct(i) {
                dependents_at[d] += 1;
                blocking += 1;
            }
            state.push(if blocking == 0 {
                ready.push(i as u32);
                ReqState::Ready(r.gap)
            } else {
                ReqState::Blocked(blocking)
            });
        }
        for i in 1..=n {
            dependents_at[i] += dependents_at[i - 1];
        }
        let mut dependents = vec![0u32; dependents_at[n] as usize];
        for i in (0..n).rev() {
            for d in distinct(i) {
                dependents_at[d] -= 1;
                dependents[dependents_at[d] as usize] = i as u32;
            }
        }
        Self {
            domain,
            workload,
            state,
            dependents_at,
            dependents,
            ready,
            done: 0,
            max_outstanding: cfg.core.max_outstanding_misses as usize,
            outstanding: 0,
            send_backlog: VecDeque::new(),
            id_to_idx: Vec::new(),
            next_seq: 0,
            instrs_done: 0,
            finished_at: None,
            // Every request is emitted exactly once.
            emissions: Vec::with_capacity(n),
            completions: vec![None; n],
            completion_gaps: dg_prof::LogHistogram::new(),
            last_completion: 0,
        }
    }

    fn alloc_id(&mut self) -> ReqId {
        self.next_seq += 1;
        ReqId::compose(self.domain, self.next_seq)
    }

    /// Releases the dependents whose last outstanding dependency was
    /// `completed`: they become due `gap` cycles from now.
    fn unblock_dependents(&mut self, completed: usize, now: Cycle) {
        let span =
            self.dependents_at[completed] as usize..self.dependents_at[completed + 1] as usize;
        for k in span {
            let i = self.dependents[k] as usize;
            let ReqState::Blocked(left) = self.state[i] else {
                unreachable!("a dependent waits until its dependencies are done");
            };
            self.state[i] = if left == 1 {
                let at = self.ready.partition_point(|&j| (j as usize) < i);
                self.ready.insert(at, i as u32);
                ReqState::Ready(now + self.workload.reqs[i].gap)
            } else {
                ReqState::Blocked(left - 1)
            };
        }
    }
}

impl Core for DagCore {
    fn domain(&self) -> DomainId {
        self.domain
    }

    fn tick(&mut self, now: Cycle, _l3: &mut SetAssocCache, mem: &mut dyn MemorySubsystem) {
        if self.finished_at.is_some() {
            return;
        }
        // Retry back-pressured sends first (ordering preserved).
        while let Some((idx, req)) = self.send_backlog.pop_front() {
            match mem.try_send(req, now) {
                Ok(()) => {
                    self.emissions.push((now, req.addr));
                    self.state[idx] = ReqState::Issued;
                }
                Err(back) => {
                    self.send_backlog.push_front((idx, back));
                    break;
                }
            }
        }

        // Due frontier requests issue in ascending index order.
        let mut k = 0;
        while k < self.ready.len() {
            if self.outstanding >= self.max_outstanding {
                break;
            }
            let i = self.ready[k] as usize;
            let ReqState::Ready(at) = self.state[i] else {
                unreachable!("the frontier holds only ready requests");
            };
            if at > now {
                k += 1;
                continue;
            }
            self.ready.remove(k);
            let (addr, is_write) = {
                let r = &self.workload.reqs[i];
                (r.addr, r.is_write)
            };
            let id = self.alloc_id();
            let req = if is_write {
                MemRequest::write(self.domain, addr, now).with_id(id)
            } else {
                MemRequest::read(self.domain, addr, now).with_id(id)
            };
            self.id_to_idx.push((id, i));
            self.outstanding += 1;
            match mem.try_send(req, now) {
                Ok(()) => {
                    self.emissions.push((now, req.addr));
                    self.state[i] = ReqState::Issued;
                }
                Err(back) => {
                    self.send_backlog.push_back((i, back));
                    // Mark issued-pending so we do not re-enqueue.
                    self.state[i] = ReqState::Issued;
                }
            }
        }

        if self.done == self.state.len() {
            self.finished_at = Some(now);
        }
    }

    fn on_response(&mut self, resp: &MemResponse, now: Cycle) {
        let Some(pos) = self.id_to_idx.iter().position(|(id, _)| *id == resp.id) else {
            return;
        };
        let (_, idx) = self.id_to_idx.swap_remove(pos);
        self.state[idx] = ReqState::Done;
        self.done += 1;
        self.completions[idx] = Some(now);
        self.outstanding -= 1;
        self.instrs_done += self.workload.reqs[idx].instrs;
        self.completion_gaps.record(now - self.last_completion);
        self.last_completion = now;
        self.unblock_dependents(idx, now);
    }

    fn finished(&self) -> bool {
        self.finished_at.is_some()
    }

    fn instructions_retired(&self) -> u64 {
        self.instrs_done
    }

    fn finished_at(&self) -> Option<Cycle> {
        self.finished_at
    }

    fn completion_snapshot(&self) -> dg_prof::HistSnapshot {
        self.completion_gaps.snapshot()
    }

    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        // A non-empty send backlog changes nothing here: retrying its
        // refused head is all a tick does for it until a memory event, and
        // a warp settles the refusals in between (the `Core` contract).
        if self.finished_at.is_some() {
            return None;
        }
        if self.done == self.state.len() {
            return Some(now); // tick sets finished_at
        }
        if self.outstanding >= self.max_outstanding {
            return None; // MLP-limited: woken by on_response
        }
        // The next emission is the earliest frontier deadline; Blocked and
        // Issued requests advance only via on_response.
        self.ready
            .iter()
            .filter_map(|&i| match self.state[i as usize] {
                ReqState::Ready(at) => Some(at.max(now)),
                _ => None,
            })
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dg_mem::{MemoryController, SchedPolicy};
    use dg_sim::config::RowPolicy;

    fn cfg() -> SystemConfig {
        let mut c = SystemConfig::two_core();
        c.clock_ratio = dg_sim::clock::ClockRatio::new(1);
        c.row_policy = RowPolicy::Closed;
        c
    }

    fn run(core: &mut DagCore, cfg: &SystemConfig, budget: Cycle) -> Cycle {
        let mut l3 = SetAssocCache::new(cfg.cache.l3_per_core, "L3");
        let mut mc = MemoryController::new(cfg, SchedPolicy::FrFcfs);
        for now in 0..budget {
            for r in mc.tick(now) {
                core.on_response(&r, now);
            }
            core.tick(now, &mut l3, &mut mc);
            if core.finished() {
                return now;
            }
        }
        panic!("did not finish");
    }

    #[test]
    fn chain_emits_serially_with_gaps() {
        let c = cfg();
        let w = DagWorkload::chain(4, 100, 64);
        let mut core = DagCore::new(DomainId(0), w, &c);
        run(&mut core, &c, 100_000);
        assert_eq!(core.emissions.len(), 4);
        // Every emission is at least gap + service after the previous.
        for pair in core.emissions.windows(2) {
            assert!(pair[1].0 - pair[0].0 >= 100);
        }
        assert_eq!(core.instructions_retired(), 400);
    }

    #[test]
    fn parallel_roots_overlap() {
        let c = cfg();
        let w = DagWorkload {
            reqs: (0..4)
                .map(|i| DagReq {
                    addr: i * 64,
                    is_write: false,
                    deps: vec![],
                    gap: 0,
                    instrs: 10,
                })
                .collect(),
        };
        let mut core = DagCore::new(DomainId(0), w, &c);
        run(&mut core, &c, 100_000);
        // All four issue on cycle 0 (no dependencies, MLP allows it).
        assert!(core.emissions.iter().all(|&(t, _)| t == 0));
    }

    #[test]
    fn diamond_dependency_order() {
        let c = cfg();
        //   0 -> 1, 0 -> 2, {1,2} -> 3
        let w = DagWorkload {
            reqs: vec![
                DagReq {
                    addr: 0,
                    is_write: false,
                    deps: vec![],
                    gap: 0,
                    instrs: 1,
                },
                DagReq {
                    addr: 64,
                    is_write: false,
                    deps: vec![0],
                    gap: 10,
                    instrs: 1,
                },
                DagReq {
                    addr: 128,
                    is_write: false,
                    deps: vec![0],
                    gap: 50,
                    instrs: 1,
                },
                DagReq {
                    addr: 192,
                    is_write: true,
                    deps: vec![1, 2],
                    gap: 5,
                    instrs: 1,
                },
            ],
        };
        let mut core = DagCore::new(DomainId(0), w, &c);
        run(&mut core, &c, 100_000);
        let t = |i: usize| core.completions[i].unwrap();
        assert!(t(1) > t(0));
        assert!(t(2) > t(0));
        assert!(t(3) > t(1).max(t(2)));
    }

    #[test]
    fn delayed_completion_delays_dependents() {
        // The versatility property at the workload level: run the same
        // chain against a slow (contended) memory and a fast one; emission
        // gaps stretch under contention.
        let c = cfg();
        let w = DagWorkload::chain(3, 100, 64);

        let mut fast = DagCore::new(DomainId(0), w.clone(), &c);
        let t_fast = run(&mut fast, &c, 100_000);

        // Slow memory: inject a competing request stream into the MC.
        let mut slow = DagCore::new(DomainId(0), w, &c);
        let mut l3 = SetAssocCache::new(c.cache.l3_per_core, "L3");
        let mut mc = MemoryController::new(&c, SchedPolicy::FrFcfs);
        let mut k = 0u64;
        let mut t_slow = 0;
        for now in 0..1_000_000 {
            if now % 20 == 0 && mc.free_space() > 4 {
                k += 1;
                let req = MemRequest::read(DomainId(1), 4096 + (k % 64) * 64, now)
                    .with_id(ReqId::compose(DomainId(1), k));
                let _ = mc.try_send(req, now);
            }
            for r in mc.tick(now) {
                if r.domain == DomainId(0) {
                    slow.on_response(&r, now);
                }
            }
            slow.tick(now, &mut l3, &mut mc);
            if slow.finished() {
                t_slow = now;
                break;
            }
        }
        assert!(
            t_slow > t_fast,
            "contention must slow the chain: {t_slow} vs {t_fast}"
        );
    }

    fn req(addr: u64, deps: Vec<u32>, gap: Cycle) -> DagReq {
        DagReq {
            addr,
            is_write: false,
            deps,
            gap,
            instrs: 1,
        }
    }

    #[test]
    fn repeated_dependencies_are_one_edge() {
        let c = cfg();
        // 1 lists 0 twice; 2 lists 1 twice and 0 once.
        let w = DagWorkload {
            reqs: vec![
                req(0, vec![], 0),
                req(64, vec![0, 0], 3),
                req(128, vec![1, 0, 1], 0),
            ],
        };
        let mut core = DagCore::new(DomainId(0), w, &c);
        run(&mut core, &c, 100_000);
        let t = |i: usize| core.completions[i].unwrap();
        assert!(t(0) < t(1) && t(1) < t(2));
    }

    #[test]
    fn frontier_stays_in_index_order() {
        // 3 is released before 2; the frontier (the issue order among
        // requests due on one cycle) must still list 2 first.
        let w = DagWorkload {
            reqs: vec![
                req(0, vec![], 0),
                req(64, vec![], 0),
                req(128, vec![1], 0),
                req(192, vec![0], 0),
            ],
        };
        let mut core = DagCore::new(DomainId(0), w, &cfg());
        assert_eq!(core.ready, vec![0, 1]);
        core.ready.clear();
        core.unblock_dependents(0, 10);
        core.unblock_dependents(1, 10);
        assert_eq!(core.ready, vec![2, 3]);
        assert_eq!(core.state[2], ReqState::Ready(10));
    }

    #[test]
    fn validate_rejects_forward_deps() {
        let w = DagWorkload {
            reqs: vec![DagReq {
                addr: 0,
                is_write: false,
                deps: vec![0],
                gap: 0,
                instrs: 1,
            }],
        };
        assert!(w.validate().is_err());
    }

    #[test]
    fn total_instructions() {
        assert_eq!(DagWorkload::chain(5, 10, 64).total_instructions(), 500);
    }
}
