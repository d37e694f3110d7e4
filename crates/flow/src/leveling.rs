//! Parametric lexicographic load leveling.
//!
//! This module answers the paper's scheduling question (Eq. (1)) exactly for
//! unit-width allocations: place every deadline job's demand inside its
//! `[start, end)` window so that the *normalized peak load* profile is
//! lexicographically minimal — first minimize the worst slot's `z_t / C_t`,
//! then the next worst among the remaining free slots, and so on.
//!
//! Algorithm:
//!
//! 1. **Parametric search** for the minimal peak ratio `λ`: feasibility at a
//!    given `λ` (slot caps `⌊λ·C_t⌋`) is one max-flow; bisection converges
//!    to the minimal feasible breakpoint. When all free slot capacities are
//!    equal the search runs directly over integer per-slot loads and is
//!    exact by construction.
//! 2. **Min-cut slot fixing** for the lexicographic refinement: at the
//!    optimal `λ`, slots that cannot shed load (their capacity arc is
//!    saturated and they cannot reach the sink in the residual graph) are
//!    *peak-critical*; their caps are frozen and the search repeats over the
//!    remaining slots.
//!
//! One solve builds **one** network ([`LevelNet`]); only its slot → sink
//! capacities change afterwards. A feasibility probe is a boolean — the
//! max-flow *value* is unique — so probes run warm, augmenting whatever
//! flow the previous probe left. A round's allocation is the one place the
//! flow itself is read, so it restarts Dinic from zero flow: its result
//! depends on nothing but the arc order and the caps, which keeps every
//! plan independent of the probe sequence that found the caps.
//!
//! Total unimodularity of the underlying polytope means the returned
//! allocation is integral — the combinatorial counterpart of the paper's
//! Lemma 2 argument for the LP.

use crate::dinic::Dinic;
use crate::error::FlowError;
use crate::graph::{EdgeId, FlowNetwork, NodeId};

/// One deadline-aware job for the leveler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelingJob {
    /// First usable slot (inclusive) — the job's arrival/ready slot `a_i`.
    pub start: usize,
    /// One past the last usable slot (exclusive) — the deadline `d_i`.
    pub end: usize,
    /// Total demand in allocation units (e.g. task-slots).
    pub demand: u64,
    /// Optional cap on units placed in any single slot (max parallelism).
    pub per_slot_cap: Option<u64>,
}

/// A leveling instance over a slot horizon.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LevelingInstance {
    /// Capacity `C_t` of each slot, in allocation units.
    pub slot_caps: Vec<u64>,
    /// The deadline jobs to place.
    pub jobs: Vec<LevelingJob>,
}

/// The result of a leveling solve.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelingSolution {
    /// `allocation[job][slot]` units placed, dense over the horizon.
    pub allocation: Vec<Vec<u64>>,
    /// Per-slot total load `z_t`.
    pub slot_loads: Vec<u64>,
    /// The achieved `max_t z_t / C_t`.
    pub peak_ratio: f64,
}

impl LevelingInstance {
    /// Horizon length in slots.
    pub fn horizon(&self) -> usize {
        self.slot_caps.len()
    }

    fn validate(&self) -> Result<(), FlowError> {
        let horizon = self.horizon();
        for (idx, job) in self.jobs.iter().enumerate() {
            if job.start >= job.end || job.end > horizon {
                return Err(FlowError::InvalidWindow { job: idx });
            }
        }
        Ok(())
    }

    /// Minimizes only the single worst normalized slot load
    /// (one round of the lexicographic process).
    ///
    /// # Errors
    ///
    /// * [`FlowError::InvalidWindow`] for malformed jobs.
    /// * [`FlowError::Infeasible`] if demand does not fit even at full
    ///   capacity.
    pub fn solve_minmax(&self) -> Result<LevelingSolution, FlowError> {
        self.solve_lexmin_rounds(1)
    }

    /// Computes the full lexicographic min-max allocation.
    ///
    /// # Errors
    ///
    /// Same as [`LevelingInstance::solve_minmax`].
    pub fn solve_lexmin(&self) -> Result<LevelingSolution, FlowError> {
        // Each round fixes at least one slot, so `horizon + 1` rounds are
        // always enough for the exact lexicographic optimum.
        self.solve_lexmin_rounds(self.horizon() + 1)
    }

    /// Like [`LevelingInstance::solve_lexmin`] but with at most
    /// `max_rounds` rounds in total (at least one) — the first round is
    /// always the exact min-max; further rounds refine lexicographically
    /// until the budget runs out. Schedulers use this to keep re-planning
    /// latency bounded on long horizons.
    ///
    /// # Errors
    ///
    /// Same as [`LevelingInstance::solve_minmax`].
    pub fn solve_lexmin_rounds(&self, max_rounds: usize) -> Result<LevelingSolution, FlowError> {
        self.validate()?;
        let horizon = self.horizon();
        let mut net = LevelNet::build(self)?;
        // Feasibility requires the full-capacity instance to fit. Later
        // rounds need not ask again: freezing slots at the caps in use
        // keeps the previous round's allocation feasible.
        if !net.feasible(&self.slot_caps) {
            return Err(FlowError::Infeasible);
        }
        let mut fixed: Vec<Option<u64>> = vec![None; horizon];
        // For the same reason the previous round's per-slot peak bound
        // upper-bounds the next round's optimum — each refinement round
        // searches a strictly smaller range.
        let mut peak_hint = None;
        for round in 1.. {
            let (caps, bound) = net.minmax_caps(&fixed, peak_hint);
            net.allocate(&caps)?;
            peak_hint = bound;
            let critical = net.critical_slots(&caps, &fixed);
            let mut fixed_any = false;
            for t in 0..horizon {
                if critical[t] {
                    fixed[t] = Some(caps[t]);
                    fixed_any = true;
                }
            }
            if !fixed_any {
                // No free slot is pinned at the peak: the remaining profile
                // is already lexicographically settled by the caps in use.
                // Freeze all saturated free slots to make progress; if none
                // are saturated we are done.
                let mut saturated_any = false;
                for t in 0..horizon {
                    if fixed[t].is_none() && caps[t] > 0 && net.slot_load(t) == caps[t] {
                        fixed[t] = Some(caps[t]);
                        saturated_any = true;
                    }
                }
                if !saturated_any {
                    break;
                }
            }
            if round >= max_rounds || fixed.iter().all(Option::is_some) {
                break;
            }
        }
        Ok(net.solution())
    }

    /// The slot caps of a probe: frozen slots at their `fixed` value, every
    /// free slot's capacity `c` cut to `free(c)`.
    fn caps(&self, fixed: &[Option<u64>], free: impl Fn(u64) -> u64) -> Vec<u64> {
        let slots = self.slot_caps.iter().zip(fixed);
        slots.map(|(&c, f)| f.unwrap_or_else(|| free(c))).collect()
    }
}

const SOURCE: NodeId = 0;

/// The one flow network of a solve — `source → job → slot → sink`, built
/// once by [`LevelNet::build`] — and the value of the flow it carries now.
struct LevelNet<'a> {
    inst: &'a LevelingInstance,
    net: FlowNetwork,
    /// `source → job j`. The job's slot arcs are the `end - start` edges
    /// added right after it, in slot order.
    source_edges: Vec<EdgeId>,
    /// `slot t → sink`: the only arcs whose capacity ever changes.
    sink_edges: Vec<EdgeId>,
    /// Σ demand — the flow value that places every job.
    total: u64,
    flow: u64,
}

impl<'a> LevelNet<'a> {
    /// Builds the topology with every slot at full capacity. Dinic's walk,
    /// hence every allocation, depends on the per-node arc order fixed
    /// here: jobs in instance order, each job's slots ascending, then the
    /// slot → sink arcs.
    fn build(inst: &'a LevelingInstance) -> Result<Self, FlowError> {
        let n_jobs = inst.jobs.len();
        let slot_base = 1 + n_jobs;
        let sink = slot_base + inst.horizon();
        let mut net = FlowNetwork::new(sink + 1);
        let mut source_edges = Vec::with_capacity(n_jobs);
        for (j, job) in inst.jobs.iter().enumerate() {
            source_edges.push(net.add_edge(SOURCE, 1 + j, job.demand)?);
            let per_slot = job.per_slot_cap.unwrap_or(job.demand).min(job.demand);
            for t in job.start..job.end {
                net.add_edge(1 + j, slot_base + t, per_slot)?;
            }
        }
        let mut sink_edges = Vec::with_capacity(inst.horizon());
        for (t, &cap) in inst.slot_caps.iter().enumerate() {
            sink_edges.push(net.add_edge(slot_base + t, sink, cap)?);
        }
        Ok(LevelNet {
            inst,
            net,
            source_edges,
            sink_edges,
            total: inst.jobs.iter().map(|j| j.demand).sum(),
            flow: 0,
        })
    }

    fn slot_node(&self, t: usize) -> NodeId {
        1 + self.inst.jobs.len() + t
    }

    fn sink(&self) -> NodeId {
        self.slot_node(self.inst.horizon())
    }

    /// `job j → slot t`, for `t` inside the job's window.
    fn slot_edge(&self, j: usize, t: usize) -> EdgeId {
        EdgeId(self.source_edges[j].0 + 1 + t - self.inst.jobs[j].start)
    }

    fn slot_load(&self, t: usize) -> u64 {
        self.net.flow(self.sink_edges[t])
    }

    /// Whether all demand fits under `caps` — a **warm** probe: the flow
    /// already on the network is cut back where a cap shrank and augmented
    /// from there. Only the boolean is meaningful; which maximum flow the
    /// network ends up holding depends on the probes before this one.
    fn feasible(&mut self, caps: &[u64]) -> bool {
        for (t, &cap) in caps.iter().enumerate() {
            let excess = self.slot_load(t).saturating_sub(cap);
            if excess > 0 {
                self.cancel_through_slot(t, excess);
            }
            self.net.set_capacity(self.sink_edges[t], cap);
        }
        self.augment()
    }

    /// Takes `excess` units of flow off slot `t`. Every path is
    /// `source → job → slot → sink`, so cancelling a unit is one update on
    /// each of its three arcs and leaves a valid (smaller) flow.
    fn cancel_through_slot(&mut self, t: usize, excess: u64) {
        let (slot, sink) = (self.slot_node(t), self.sink());
        let mut left = excess;
        for i in 0..self.net.adj[slot].len() {
            // Besides its sink arc a slot has only the twins of its
            // job → slot arcs; a twin's residual is the flow that job
            // sends here.
            let twin = &self.net.adj[slot][i];
            if twin.to == sink || twin.cap == 0 {
                continue;
            }
            let (j, back) = (twin.to - 1, twin.cap.min(left));
            self.net.cancel(self.slot_edge(j, t), back);
            self.net.cancel(self.source_edges[j], back);
            left -= back;
            if left == 0 {
                break;
            }
        }
        self.net.cancel(self.sink_edges[t], excess);
        self.flow -= excess;
    }

    /// Augments the current flow to a maximum one; true if it places all
    /// demand.
    fn augment(&mut self) -> bool {
        let sink = self.sink();
        self.flow += Dinic::new(&mut self.net).max_flow(SOURCE, sink);
        self.flow == self.total
    }

    /// The round's allocation under `caps`: Dinic **from zero flow**, so
    /// the flow found is the one a freshly built network would give.
    fn allocate(&mut self, caps: &[u64]) -> Result<(), FlowError> {
        self.net.reset();
        self.flow = 0;
        for (&edge, &cap) in self.sink_edges.iter().zip(caps) {
            self.net.set_capacity(edge, cap);
        }
        if self.augment() {
            Ok(())
        } else {
            Err(FlowError::Infeasible)
        }
    }

    /// One parametric round: the caps with the minimal peak over free
    /// slots given `fixed` caps, and — on the uniform integer-search path —
    /// the minimal per-slot bound, which the caller feeds back as
    /// `peak_hint` to shrink the next round's search range. The caller
    /// vouches that full capacity (and the hint) is feasible under `fixed`.
    fn minmax_caps(
        &mut self,
        fixed: &[Option<u64>],
        peak_hint: Option<u64>,
    ) -> (Vec<u64>, Option<u64>) {
        let inst = self.inst;
        let mut free_caps = (0..inst.horizon())
            .filter(|&t| fixed[t].is_none())
            .map(|t| inst.slot_caps[t]);
        let first = free_caps.next();
        let uniform = free_caps.all(|c| Some(c) == first);
        if let (true, Some(c)) = (uniform, first) {
            // Exact integer search over the per-slot load bound `m`,
            // top-seeded by the previous round's bound when available.
            let bounded = |m: u64| inst.caps(fixed, |c| m.min(c));
            let mut hi = peak_hint.map_or(c, |h| h.min(c));
            let mut lo = 0u64;
            while lo < hi {
                let mid = lo + (hi - lo) / 2;
                if self.feasible(&bounded(mid)) {
                    hi = mid;
                } else {
                    lo = mid + 1;
                }
            }
            (bounded(lo), Some(lo))
        } else {
            // Bisection on the real ratio λ; integer caps change only at
            // breakpoints k/C_t, so 60 iterations pin the minimal one for
            // any realistic capacity magnitude.
            let at =
                |lambda: f64| inst.caps(fixed, |c| ((lambda * c as f64) + 1e-9).floor() as u64);
            let (mut lo, mut hi) = (0.0f64, 1.0f64);
            for _ in 0..60 {
                let mid = 0.5 * (lo + hi);
                if self.feasible(&at(mid)) {
                    hi = mid;
                } else {
                    lo = mid;
                }
            }
            (at(hi), None)
        }
    }

    /// Free slots that cannot shed load at the caps just allocated: the
    /// slot node cannot reach the sink in the residual graph, so no
    /// rerouting exists. The set of nodes that reach the sink is the same
    /// for every maximum flow (the sink side of the maximal minimum cut),
    /// so these slots are pinned in every feasible allocation at `caps`.
    fn critical_slots(&self, caps: &[u64], fixed: &[Option<u64>]) -> Vec<bool> {
        let reaches_sink = self.net.reaches(self.sink());
        (0..self.inst.horizon())
            .map(|t| fixed[t].is_none() && caps[t] > 0 && !reaches_sink[self.slot_node(t)])
            .collect()
    }

    /// Reads the allocation the network holds (call after
    /// [`LevelNet::allocate`]).
    fn solution(&self) -> LevelingSolution {
        let horizon = self.inst.horizon();
        let allocation = (self.inst.jobs.iter().enumerate())
            .map(|(j, job)| {
                let mut row = vec![0u64; horizon];
                for (t, placed) in (job.start..).zip(&mut row[job.start..job.end]) {
                    *placed = self.net.flow(self.slot_edge(j, t));
                }
                row
            })
            .collect();
        let slot_loads: Vec<u64> = (0..horizon).map(|t| self.slot_load(t)).collect();
        let peak_ratio = slot_loads
            .iter()
            .zip(self.inst.slot_caps.iter())
            .filter(|&(_, &c)| c > 0)
            .map(|(&z, &c)| z as f64 / c as f64)
            .fold(0.0f64, f64::max);
        LevelingSolution {
            allocation,
            slot_loads,
            peak_ratio,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(start: usize, end: usize, demand: u64) -> LevelingJob {
        LevelingJob {
            start,
            end,
            demand,
            per_slot_cap: None,
        }
    }

    fn check_valid(inst: &LevelingInstance, sol: &LevelingSolution) {
        for (j, alloc) in sol.allocation.iter().enumerate() {
            let total: u64 = alloc.iter().sum();
            assert_eq!(total, inst.jobs[j].demand, "job {j} demand");
            for (t, &a) in alloc.iter().enumerate() {
                if a > 0 {
                    assert!(t >= inst.jobs[j].start && t < inst.jobs[j].end, "window");
                    if let Some(cap) = inst.jobs[j].per_slot_cap {
                        assert!(a <= cap, "per-slot cap");
                    }
                }
            }
        }
        for (t, &load) in sol.slot_loads.iter().enumerate() {
            assert!(load <= inst.slot_caps[t], "capacity at {t}");
        }
    }

    #[test]
    fn levels_uniform_demand_evenly() {
        let inst = LevelingInstance {
            slot_caps: vec![10; 4],
            jobs: vec![job(0, 4, 12), job(0, 4, 8)],
        };
        let sol = inst.solve_lexmin().unwrap();
        check_valid(&inst, &sol);
        assert_eq!(sol.slot_loads, vec![5, 5, 5, 5]);
        assert!((sol.peak_ratio - 0.5).abs() < 1e-9);
    }

    /// Splitmix64: the fixed-seed stream of the instance generators here.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_instance(rng: &mut u64) -> LevelingInstance {
        let horizon = 1 + (next(rng) % 16) as usize;
        let uniform = next(rng).is_multiple_of(2);
        let cap = 1 + next(rng) % 12;
        let slot_caps = (0..horizon)
            .map(|_| if uniform { cap } else { next(rng) % 13 })
            .collect();
        let jobs = (0..next(rng) % 9)
            .map(|_| {
                let start = (next(rng) % horizon as u64) as usize;
                LevelingJob {
                    start,
                    end: start + 1 + (next(rng) % (horizon - start) as u64) as usize,
                    demand: next(rng) % 30,
                    per_slot_cap: next(rng).is_multiple_of(3).then(|| 1 + next(rng) % 6),
                }
            })
            .collect();
        LevelingInstance { slot_caps, jobs }
    }

    #[test]
    fn warm_probes_answer_like_cold_ones_in_any_order() {
        // The metamorphic check on flow cancellation: a probe's boolean
        // must not depend on what the network was asked before. Bounds go
        // up (caps only grow), down (every probe cancels flow) and
        // shuffled; the cold answer comes from a network built for that one
        // probe.
        let mut rng = 0x5eed_u64;
        for _ in 0..400 {
            let inst = random_instance(&mut rng);
            let top = inst.slot_caps.iter().copied().max().unwrap_or(0);
            let fixed: Vec<Option<u64>> = (inst.slot_caps.iter())
                .map(|&c| {
                    next(&mut rng)
                        .is_multiple_of(4)
                        .then(|| next(&mut rng) % (c + 1))
                })
                .collect();
            let ascending: Vec<u64> = (0..=top).collect();
            let descending: Vec<u64> = (0..=top).rev().collect();
            let mut shuffled = ascending.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, (next(&mut rng) % (i as u64 + 1)) as usize);
            }
            for order in [ascending, descending, shuffled] {
                let mut warm = LevelNet::build(&inst).unwrap();
                for bound in order {
                    let caps = inst.caps(&fixed, |c| bound.min(c));
                    let cold = LevelNet::build(&inst).unwrap().feasible(&caps);
                    assert_eq!(warm.feasible(&caps), cold, "{inst:?} bound {bound}");
                    let carried: u64 = (0..inst.horizon()).map(|t| warm.slot_load(t)).sum();
                    assert_eq!(carried, warm.flow, "flow value out of step");
                }
            }
        }
    }

    #[test]
    fn tight_window_forces_peak() {
        // Job 0 must cram 8 units into slots [0,2); job 1 is flexible.
        let inst = LevelingInstance {
            slot_caps: vec![10; 4],
            jobs: vec![job(0, 2, 8), job(0, 4, 8)],
        };
        let sol = inst.solve_lexmin().unwrap();
        check_valid(&inst, &sol);
        // Minimal peak is 4 (job 0 split evenly), and the flexible job's
        // load levels the rest: loads 4,4,4,4.
        assert_eq!(sol.slot_loads, vec![4, 4, 4, 4]);
    }

    #[test]
    fn lexicographic_refinement_flattens_tail() {
        // One rigid job pins slots 0-1 at 6; the flexible job should spread
        // over slots 2..6 evenly rather than arbitrarily.
        let inst = LevelingInstance {
            slot_caps: vec![10; 6],
            jobs: vec![job(0, 2, 12), job(2, 6, 8)],
        };
        let sol = inst.solve_lexmin().unwrap();
        check_valid(&inst, &sol);
        assert_eq!(&sol.slot_loads[..2], &[6, 6]);
        assert_eq!(&sol.slot_loads[2..], &[2, 2, 2, 2]);
    }

    #[test]
    fn respects_per_slot_caps() {
        let inst = LevelingInstance {
            slot_caps: vec![100; 5],
            jobs: vec![LevelingJob {
                start: 0,
                end: 5,
                demand: 10,
                per_slot_cap: Some(2),
            }],
        };
        let sol = inst.solve_lexmin().unwrap();
        check_valid(&inst, &sol);
        assert_eq!(sol.slot_loads, vec![2, 2, 2, 2, 2]);
    }

    #[test]
    fn infeasible_demand_detected() {
        let inst = LevelingInstance {
            slot_caps: vec![2; 2],
            jobs: vec![job(0, 2, 5)],
        };
        assert_eq!(inst.solve_lexmin().unwrap_err(), FlowError::Infeasible);
        assert_eq!(inst.solve_minmax().unwrap_err(), FlowError::Infeasible);
    }

    #[test]
    fn invalid_window_detected() {
        let inst = LevelingInstance {
            slot_caps: vec![2; 2],
            jobs: vec![job(1, 1, 1)],
        };
        assert_eq!(
            inst.solve_lexmin().unwrap_err(),
            FlowError::InvalidWindow { job: 0 }
        );
        let inst2 = LevelingInstance {
            slot_caps: vec![2; 2],
            jobs: vec![job(0, 3, 1)],
        };
        assert!(matches!(
            inst2.solve_lexmin(),
            Err(FlowError::InvalidWindow { .. })
        ));
    }

    #[test]
    fn heterogeneous_capacities_normalize() {
        // Slot 0 has capacity 20, slot 1 capacity 10: leveling by *ratio*
        // puts twice as much load on slot 0.
        let inst = LevelingInstance {
            slot_caps: vec![20, 10],
            jobs: vec![job(0, 2, 15)],
        };
        let sol = inst.solve_lexmin().unwrap();
        check_valid(&inst, &sol);
        assert_eq!(sol.slot_loads, vec![10, 5]);
        assert!((sol.peak_ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_instance() {
        let inst = LevelingInstance {
            slot_caps: vec![5; 3],
            jobs: vec![],
        };
        let sol = inst.solve_lexmin().unwrap();
        assert_eq!(sol.peak_ratio, 0.0);
        assert_eq!(sol.slot_loads, vec![0, 0, 0]);
    }

    #[test]
    fn motivating_example_leaves_room_for_adhoc() {
        // Paper Fig. 1: workflow W1 = two chained jobs, deadline slot 200,
        // cluster capacity normalized to 1 "job-width" unit per slot... use
        // 2 units/slot so the leveler can halve the footprint.
        // Job1 work 100 units in window [0,100), job2 in [100, 200): but the
        // leveler sees the *decomposed* windows; with loose deadlines it
        // stretches each job across its window at half width.
        let inst = LevelingInstance {
            slot_caps: vec![2; 200],
            jobs: vec![job(0, 100, 100), job(100, 200, 100)],
        };
        let sol = inst.solve_lexmin().unwrap();
        check_valid(&inst, &sol);
        // Exactly one unit per slot everywhere: half the cluster stays free
        // for ad-hoc jobs at all times.
        assert!(sol.slot_loads.iter().all(|&l| l == 1));
        assert!((sol.peak_ratio - 0.5).abs() < 1e-9);
    }

    #[test]
    fn minmax_alone_does_not_flatten_tail() {
        // solve_minmax only guarantees the single worst slot; this is the
        // behavioural difference the lexicographic pass exists to fix.
        let inst = LevelingInstance {
            slot_caps: vec![10; 6],
            jobs: vec![job(0, 2, 12), job(2, 6, 8)],
        };
        let minmax = inst.solve_minmax().unwrap();
        check_valid(&inst, &minmax);
        assert_eq!(minmax.slot_loads[..2].iter().max(), Some(&6));
    }
}
