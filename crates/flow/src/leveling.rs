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
//!    equal the search runs over integer per-slot loads and starts at the
//!    round's **interval-density bound** — the densest interval's demand,
//!    net of the frozen caps inside it, per free slot inside it (Hall's
//!    condition read per interval). No level below it can be feasible, and
//!    it *is* the minimal level whenever per-job slot caps do not bind
//!    (Gale 1957; the critical interval of Yao–Demers–Shenker), so the
//!    round's first question is its allocation at the bound. Only when
//!    that fails does an exact bisection over the levels above it run.
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
        LevelNet::build(self)?.solve(max_rounds)
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
    /// Every job's `(start, end, demand)`, latest start first — the order
    /// [`LevelNet::density_bound`] sweeps in.
    windows: Vec<(usize, usize, u64)>,
    /// Σ demand — the flow value that places every job.
    total: u64,
    flow: u64,
    asked: Asked,
}

/// What a solve has asked its network so far.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Asked {
    /// [`LevelNet::feasible`] calls.
    warm_probes: u32,
    /// [`LevelNet::allocate`] calls.
    cold_runs: u32,
    /// Rounds that allocated at their density bound first.
    bound_tries: u32,
    /// Bound tries that were infeasible. After the first, later rounds of
    /// the solve no longer try: per-slot caps are binding here, and a
    /// failed cold run costs more than the probes it would save.
    bound_misses: u32,
}

impl<'a> LevelNet<'a> {
    /// Builds the topology with every slot at full capacity, each node's
    /// arc list reserved at its exact degree. Dinic's walk, hence every
    /// allocation, depends on the per-node arc order fixed here: jobs in
    /// instance order, each job's slots ascending, then the slot → sink
    /// arcs. The caller has validated the windows.
    fn build(inst: &'a LevelingInstance) -> Result<Self, FlowError> {
        let (n_jobs, horizon) = (inst.jobs.len(), inst.horizon());
        let slot_base = 1 + n_jobs;
        let sink = slot_base + horizon;
        // Source: one arc per job. Job: its source twin and one arc per
        // window slot. Slot: one twin per covering job and its sink arc.
        // Sink: one twin per slot.
        let mut degrees = vec![1; sink + 1];
        degrees[SOURCE] = n_jobs;
        degrees[sink] = horizon;
        let mut window_arcs = 0;
        for (j, job) in inst.jobs.iter().enumerate() {
            degrees[1 + j] += job.end - job.start;
            window_arcs += job.end - job.start;
            for slot in &mut degrees[slot_base + job.start..slot_base + job.end] {
                *slot += 1;
            }
        }
        let mut net = FlowNetwork::with_degrees(&degrees, n_jobs + window_arcs + horizon);
        let mut source_edges = Vec::with_capacity(n_jobs);
        for (j, job) in inst.jobs.iter().enumerate() {
            source_edges.push(net.add_edge(SOURCE, 1 + j, job.demand)?);
            let per_slot = job.per_slot_cap.unwrap_or(job.demand).min(job.demand);
            for t in job.start..job.end {
                net.add_edge(1 + j, slot_base + t, per_slot)?;
            }
        }
        let mut sink_edges = Vec::with_capacity(horizon);
        for (t, &cap) in inst.slot_caps.iter().enumerate() {
            sink_edges.push(net.add_edge(slot_base + t, sink, cap)?);
        }
        let mut windows: Vec<_> = (inst.jobs.iter())
            .map(|j| (j.start, j.end, j.demand))
            .collect();
        windows.sort_unstable_by_key(|w| std::cmp::Reverse(w.0));
        Ok(LevelNet {
            inst,
            net,
            source_edges,
            sink_edges,
            windows,
            total: inst.jobs.iter().map(|j| j.demand).sum(),
            flow: 0,
            asked: Asked::default(),
        })
    }

    /// The lexicographic rounds, at most `max_rounds` (at least one); the
    /// last round's allocation is left on the network and read out.
    fn solve(&mut self, max_rounds: usize) -> Result<LevelingSolution, FlowError> {
        let horizon = self.inst.horizon();
        let mut fixed: Vec<Option<u64>> = vec![None; horizon];
        // Freezing slots at the caps in use keeps the previous round's
        // allocation feasible, so its per-slot level upper-bounds the next
        // round's optimum — each refinement round searches a strictly
        // smaller range.
        let mut peak_hint = None;
        for round in 1.. {
            let (caps, level) = self.level_round(&fixed, peak_hint, round == 1)?;
            peak_hint = level;
            let critical = self.critical_slots(&caps, &fixed);
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
                    if fixed[t].is_none() && caps[t] > 0 && self.slot_load(t) == caps[t] {
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
        Ok(self.solution())
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
        self.asked.warm_probes += 1;
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
        self.asked.cold_runs += 1;
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

    /// One parametric round, left allocated on the network: the caps with
    /// the minimal peak over free slots given `fixed` caps and — on the
    /// uniform integer path — that minimal per-slot level, which the caller
    /// feeds back as `peak_hint` to top the next round's search. Only the
    /// `first` round can find the instance infeasible; the caller vouches
    /// that full capacity and the hint are feasible in later ones.
    fn level_round(
        &mut self,
        fixed: &[Option<u64>],
        peak_hint: Option<u64>,
        first: bool,
    ) -> Result<(Vec<u64>, Option<u64>), FlowError> {
        let inst = self.inst;
        let mut free_caps = (0..inst.horizon())
            .filter(|&t| fixed[t].is_none())
            .map(|t| inst.slot_caps[t]);
        let first_cap = free_caps.next();
        let uniform = free_caps.all(|c| Some(c) == first_cap);
        let full = |net: &mut Self| net.feasible(&inst.caps(fixed, |c| c));
        let Some(c) = first_cap.filter(|_| uniform) else {
            if first && !full(self) {
                return Err(FlowError::Infeasible);
            }
            let caps = self.ratio_caps(fixed);
            self.allocate(&caps)?;
            return Ok((caps, None));
        };
        // Exact integer search over the per-slot level `m`, from the
        // density bound up to the previous round's level.
        let bounded = |m: u64| inst.caps(fixed, |c| m.min(c));
        let mut hi = peak_hint.map_or(c, |h| h.min(c));
        let mut lo = self.density_bound(fixed, hi);
        if self.asked.bound_misses == 0 {
            // No level below the bound fits, so if the bound does, this
            // allocation is the round's — and in round 1 it also answers
            // the full-capacity question.
            self.asked.bound_tries += 1;
            let caps = bounded(lo);
            if self.allocate(&caps).is_ok() {
                return Ok((caps, Some(lo)));
            }
            self.asked.bound_misses += 1;
            lo = hi.min(lo + 1);
        }
        if first && !full(self) {
            return Err(FlowError::Infeasible);
        }
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.feasible(&bounded(mid)) {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        let caps = bounded(lo);
        self.allocate(&caps)?;
        Ok((caps, Some(lo)))
    }

    /// The round's interval-density bound on the per-slot level: the
    /// maximum over intervals `[a, b)` with `a` a job start of
    /// ⌈(demand of the jobs whose windows lie inside − frozen caps inside)
    /// / free slots inside⌉, clamped to `hi`. That demand can go nowhere
    /// but the interval, so some free slot inside carries at least the
    /// bound at every feasible level; when no job's per-slot cap binds the
    /// converse holds too (Hall's condition read per interval), and the
    /// bound is the minimal level. One sweep per distinct start.
    fn density_bound(&self, fixed: &[Option<u64>], hi: u64) -> u64 {
        let horizon = self.inst.horizon();
        // Demand of the jobs starting at or after the current `a`, by end.
        let mut ending = vec![0u64; horizon + 1];
        let mut bound = 0;
        let mut windows = self.windows.iter().peekable();
        while let Some(&&(a, _, _)) = windows.peek() {
            while let Some(&(_, end, demand)) = windows.next_if(|w| w.0 == a) {
                ending[end] += demand;
            }
            let (mut inside, mut frozen, mut free) = (0u64, 0u64, 0u64);
            for b in a + 1..=horizon {
                inside += ending[b];
                match fixed[b - 1] {
                    Some(cap) => frozen += cap,
                    None => free += 1,
                }
                if free > 0 {
                    bound = bound.max(inside.saturating_sub(frozen).div_ceil(free));
                }
            }
        }
        bound.min(hi)
    }

    /// Bisection on the real ratio λ, for free slots of unequal capacity;
    /// integer caps change only at breakpoints k/C_t, so 60 iterations pin
    /// the minimal one for any realistic capacity magnitude.
    fn ratio_caps(&mut self, fixed: &[Option<u64>]) -> Vec<u64> {
        let inst = self.inst;
        let at = |lambda: f64| inst.caps(fixed, |c| ((lambda * c as f64) + 1e-9).floor() as u64);
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        for _ in 0..60 {
            let mid = 0.5 * (lo + hi);
            if self.feasible(&at(mid)) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        at(hi)
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
            let fixed = random_fixed(&inst, &mut rng);
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

    /// Random frozen caps, a quarter of the slots, each at most the slot's
    /// capacity (zero included).
    fn random_fixed(inst: &LevelingInstance, rng: &mut u64) -> Vec<Option<u64>> {
        (inst.slot_caps.iter())
            .map(|&c| next(rng).is_multiple_of(4).then(|| next(rng) % (c + 1)))
            .collect()
    }

    #[test]
    fn density_bound_is_a_lower_bound_and_exact_without_binding_caps() {
        // The minimal level comes from cold probes on fresh networks, level
        // by level; infeasible instances (no level fits) are kept to check
        // the clamp. Exactness is asserted under Gale's condition: every
        // job's arc cap at least every cap in its window at that level.
        let mut rng = 0xb0_0d_u64;
        let (mut feasible, mut exact) = (0, 0);
        for _ in 0..8000 {
            let inst = random_instance(&mut rng);
            let fixed = random_fixed(&inst, &mut rng);
            let mut free = (0..inst.horizon()).filter(|&t| fixed[t].is_none());
            let Some(c) = free.next().map(|t| inst.slot_caps[t]) else {
                continue;
            };
            if !free.all(|t| inst.slot_caps[t] == c) {
                continue;
            }
            let net = LevelNet::build(&inst).unwrap();
            let bound = net.density_bound(&fixed, c);
            assert!(bound <= c, "{inst:?} {fixed:?}: bound {bound} above {c}");
            let fits = |m: u64| {
                let caps = inst.caps(&fixed, |c| m.min(c));
                LevelNet::build(&inst).unwrap().feasible(&caps)
            };
            let Some(level) = (0..=c).find(|&m| fits(m)) else {
                continue;
            };
            feasible += 1;
            assert!(bound <= level, "{inst:?} {fixed:?}: {bound} > {level}");
            let caps = inst.caps(&fixed, |c| level.min(c));
            let uncapped = inst.jobs.iter().all(|job| {
                let arc = job.per_slot_cap.unwrap_or(job.demand).min(job.demand);
                caps[job.start..job.end].iter().all(|&cap| arc >= cap)
            });
            if uncapped {
                exact += 1;
                assert_eq!(bound, level, "{inst:?} {fixed:?}");
            }
        }
        assert!(
            feasible > 600 && exact > 400,
            "{feasible} feasible, {exact} exact"
        );
    }

    #[test]
    fn a_round_at_its_bound_costs_one_allocation() {
        // The instance of `tests/flow_props.rs`'
        // `peak_hint_seeding_matches_unseeded_refinement`.
        let inst = LevelingInstance {
            slot_caps: vec![10; 8],
            jobs: vec![job(0, 2, 14), job(1, 5, 6), job(2, 8, 12)],
        };
        let mut net = LevelNet::build(&inst).unwrap();
        let sol = net.solve(inst.horizon() + 1).unwrap();
        assert_eq!(sol.slot_loads, vec![7, 7, 3, 3, 3, 3, 3, 3]);
        // Round 1 pins slots 0-1 at 7, round 2 the rest at 3.
        let asked = Asked {
            warm_probes: 0,
            cold_runs: 2,
            bound_tries: 2,
            bound_misses: 0,
        };
        assert_eq!(net.asked, asked);
    }

    #[test]
    fn a_missed_bound_is_not_tried_again() {
        // Job 1 may place one unit per slot, so slots 0-1 need level 4
        // while the densest interval says 3: round 1 misses, asks the
        // full-capacity question and bisects; round 2 goes straight to its
        // bisection.
        let inst = LevelingInstance {
            slot_caps: vec![10; 4],
            jobs: vec![
                LevelingJob {
                    per_slot_cap: Some(3),
                    ..job(0, 2, 6)
                },
                LevelingJob {
                    per_slot_cap: Some(1),
                    ..job(0, 4, 4)
                },
            ],
        };
        let mut net = LevelNet::build(&inst).unwrap();
        assert_eq!(net.density_bound(&[None; 4], 10), 3);
        let sol = net.solve(inst.horizon() + 1).unwrap();
        // The bisection-only search's plan (the only one at these levels).
        assert_eq!(sol.allocation, vec![vec![3, 3, 0, 0], vec![1, 1, 1, 1]]);
        assert_eq!(sol.slot_loads, vec![4, 4, 1, 1]);
        assert_eq!((net.asked.bound_tries, net.asked.bound_misses), (1, 1));
        // One allocation per round plus the missed try.
        assert_eq!(net.asked.cold_runs, 3);
        assert!(net.asked.warm_probes > 1, "{:?}", net.asked);
    }

    #[test]
    fn build_reserves_each_arc_list_exactly() {
        // A degree counted short makes its list reallocate (capacity
        // doubles past the length); one counted long leaves it slack.
        let mut rng = 0xa7c5_u64;
        for _ in 0..400 {
            let inst = random_instance(&mut rng);
            let net = LevelNet::build(&inst).unwrap();
            for (v, arcs) in net.net.adj.iter().enumerate() {
                assert_eq!(arcs.capacity(), arcs.len(), "node {v} of {inst:?}");
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
