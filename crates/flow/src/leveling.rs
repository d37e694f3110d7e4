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
//! 1. **One exact level search** per round. A level `(k, c)` pairs a free
//!    slot capacity `c` with a load `k ≤ c`: a free slot of capacity `C`
//!    carries `⌊k·C / c⌋`, less one if that quotient is whole, positive and
//!    `C > c`. By `k / c`, the smaller `c` first at equal ratios, levels are
//!    ordered as a peak ratio `λ` with caps `⌊λ·C + 1e-9⌋` meets them, so
//!    the least feasible one has the caps bisection on `λ` pins (DESIGN.md
//!    §34). A round first allocates at its **interval-density bound**, the
//!    least level at or above the densest interval's demand, net of its
//!    frozen caps, per unit of its free capacity (Hall's condition read per
//!    interval): no lower level fits, and with one free capacity and no
//!    binding per-job slot cap it *is* the minimal level (Gale 1957; the
//!    critical interval of Yao–Demers–Shenker). Only a miss bisects, warm.
//! 2. **Min-cut slot fixing** for the lexicographic refinement: at the
//!    optimal level, slots that cannot shed load (their capacity arc is
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
//! plan independent of the probe sequence that found the caps. Dinic's
//! first phase from zero flow is one pass over the arcs in that order.
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

    /// Computes the full lexicographic min-max allocation.
    ///
    /// # Errors
    ///
    /// Same as [`LevelingInstance::solve_lexmin_rounds`].
    pub fn solve_lexmin(&self) -> Result<LevelingSolution, FlowError> {
        // Each round fixes at least one slot, so `horizon + 1` rounds are
        // always enough for the exact lexicographic optimum.
        self.solve_lexmin_rounds(self.horizon() + 1)
    }

    /// Like [`LevelingInstance::solve_lexmin`] but with at most
    /// `max_rounds` rounds in total (at least one) — the first round is
    /// always the exact min-max; further rounds refine lexicographically
    /// until the budget runs out. Schedulers use this to keep re-planning
    /// latency bounded on long horizons. One round minimizes only the
    /// single worst normalized slot load.
    ///
    /// # Errors
    ///
    /// * [`FlowError::InvalidWindow`] for malformed jobs.
    /// * [`FlowError::Infeasible`] if demand does not fit even at full
    ///   capacity.
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

/// Capacity of each of `job`'s `job → slot` arcs: its per-slot cap, never
/// more than its demand.
fn slot_arc_cap(job: &LevelingJob) -> u64 {
    job.per_slot_cap.unwrap_or(job.demand).min(job.demand)
}

/// A candidate level of a round: `k` units at capacity `c` (module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Level {
    k: u64,
    c: u64,
}

impl Level {
    /// The cap at this level of a free slot of capacity `cap`: its steps
    /// `(j, cap)`, `j ≥ 1`, at or below this level.
    fn cap(self, cap: u64) -> u64 {
        if self.k == 0 || cap == self.c {
            return self.k;
        }
        let (scaled, c) = (u128::from(self.k) * u128::from(cap), u128::from(self.c));
        (scaled / c) as u64 - u64::from(cap > self.c && scaled % c == 0)
    }
}

impl Ord for Level {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        let ratio = |a: &Self, b: &Self| u128::from(a.k) * u128::from(b.c);
        (ratio(self, other).cmp(&ratio(other, self))).then(self.c.cmp(&other.c))
    }
}

impl PartialOrd for Level {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The least `m` in `lo..=hi` where the monotone `holds` is true (at `hi`).
fn least(mut lo: u64, mut hi: u64, mut holds: impl FnMut(u64) -> bool) -> u64 {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        (lo, hi) = if holds(mid) { (lo, mid) } else { (mid + 1, hi) };
    }
    lo
}

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
    /// Infeasible bound tries of rounds with one free capacity. After the
    /// first, later such rounds no longer try: per-slot caps bind here, and
    /// a failed cold run costs more than the probes it would save. Rounds
    /// with unequal capacities always try: rounding down to a level misses
    /// too, and says nothing of later rounds.
    bound_misses: u32,
    /// [`LevelNet::critical_slots`] calls: one per round but the one that
    /// exhausts the budget.
    reach_passes: u32,
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
            for t in job.start..job.end {
                net.add_edge(1 + j, slot_base + t, slot_arc_cap(job))?;
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
        let mut hint = None;
        for round in 1.. {
            let (caps, level) = self.level_round(&fixed, hint, round == 1)?;
            if round >= max_rounds {
                // What the round would freeze only steers later rounds.
                break;
            }
            hint = Some(level);
            let mut freeze = self.critical_slots(&caps, &fixed);
            if freeze.is_empty() {
                // No free slot is pinned at the peak: the remaining profile
                // is already lexicographically settled by the caps in use.
                // Freeze all saturated free slots to make progress; if none
                // are saturated we are done.
                let open = |t: &usize| fixed[*t].is_none() && caps[*t] > 0;
                freeze = (0..horizon)
                    .filter(|t| open(t) && self.slot_load(*t) == caps[*t])
                    .collect();
            }
            for &t in &freeze {
                fixed[t] = Some(caps[t]);
            }
            if freeze.is_empty() || fixed.iter().all(Option::is_some) {
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
    /// the flow found is the one a freshly built network would give. From
    /// zero flow every shortest path is `source → job → slot → sink`, and
    /// the first phase's current-arc DFS walks the jobs in order and each
    /// job's slots ascending, so that phase is one pass: each job sends
    /// `min(demand left, arc cap, slot room)` to each window slot in turn
    /// (DESIGN.md §33). Dinic continues from its flow.
    fn allocate(&mut self, caps: &[u64]) -> Result<(), FlowError> {
        self.asked.cold_runs += 1;
        self.net.reset();
        self.flow = 0;
        let mut room = caps.to_vec();
        for (j, job) in self.inst.jobs.iter().enumerate() {
            let (arc_cap, mut left) = (slot_arc_cap(job), job.demand);
            let first_arc = self.source_edges[j].0 + 1;
            for (k, t) in (job.start..job.end).enumerate() {
                if left == 0 {
                    break;
                }
                let sent = left.min(arc_cap).min(room[t]);
                if sent > 0 {
                    self.net.push(EdgeId(first_arc + k), sent);
                    room[t] -= sent;
                    left -= sent;
                }
            }
            self.net.push(self.source_edges[j], job.demand - left);
            self.flow += job.demand - left;
        }
        for ((&edge, &cap), left) in self.sink_edges.iter().zip(caps).zip(room) {
            self.net.set_capacity(edge, cap);
            self.net.push(edge, cap - left);
        }
        self.augment().then_some(()).ok_or(FlowError::Infeasible)
    }

    /// One round, left allocated on the network: the caps at the minimal
    /// level over free slots given `fixed` caps, and that level, which tops
    /// the next round's search as its `hint`. Only the `first` round can
    /// find the instance infeasible; the caller vouches that full capacity
    /// and the hint are feasible in later ones.
    fn level_round(
        &mut self,
        fixed: &[Option<u64>],
        hint: Option<Level>,
        first: bool,
    ) -> Result<(Vec<u64>, Level), FlowError> {
        let inst = self.inst;
        let free = (inst.slot_caps.iter().zip(fixed)).filter(|(_, f)| f.is_none());
        let mut sizes: Vec<u64> = free.map(|(&c, _)| c).filter(|&c| c > 0).collect();
        sizes.sort_unstable();
        sizes.dedup();
        let top = sizes.last().copied().unwrap_or(0);
        let grid = |m| Level { k: m, c: top };
        let cell = |level: Level| least(0, top, |m| grid(m) >= level);
        let at = |level: Level| inst.caps(fixed, |c| level.cap(c));
        let hi = hint.map_or(top, cell);
        let bound = self.density_bound(fixed, &sizes);
        // No level below the bound fits, so if the bound does, this
        // allocation is the round's — and in round 1 it also answers the
        // full-capacity question. A try that returns no answer missed.
        let tried = sizes.len() > 1 || self.asked.bound_misses == 0;
        if tried {
            self.asked.bound_tries += 1;
            let caps = at(bound);
            if self.allocate(&caps).is_ok() {
                return Ok((caps, bound));
            }
            self.asked.bound_misses += u32::from(sizes.len() < 2);
        }
        if first && !self.feasible(&inst.caps(fixed, |c| c)) {
            return Err(FlowError::Infeasible);
        }
        // The least feasible load `m` of the top capacity ends a cell that
        // holds at most one step of each other capacity.
        let lo = cell(bound) + u64::from(tried && bound.c == top);
        let m = least(lo.min(hi), hi, |m| self.feasible(&at(grid(m))));
        let (below, end) = (grid(m.saturating_sub(1)), grid(m));
        let mut steps: Vec<Level> = (sizes.iter())
            .map(|&c| Level { k: end.cap(c), c })
            .filter(|&l| below < l && l < end && (l > bound || l == bound && !tried))
            .chain([end])
            .collect();
        steps.sort_unstable();
        let last = steps.len() as u64 - 1;
        let level = steps[least(0, last, |j| self.feasible(&at(steps[j as usize]))) as usize];
        let caps = at(level);
        self.allocate(&caps)?;
        Ok((caps, level))
    }

    /// The round's interval-density bound over the free capacities `sizes`:
    /// the least level at or above the maximum over intervals `[a, b)`, `a`
    /// a job start, of (demand of the jobs whose windows lie inside − frozen
    /// caps inside) / free capacity inside. That demand can go nowhere but
    /// the interval, so no lower level fits (module docs, step 1). One
    /// sweep per distinct start.
    fn density_bound(&self, fixed: &[Option<u64>], sizes: &[u64]) -> Level {
        let (horizon, wide) = (self.inst.horizon(), u128::from);
        // Demand of the jobs starting at or after the current `a`, by end.
        let mut ending = vec![0u64; horizon + 1];
        let (mut most, mut per) = (0u64, 1u64);
        let mut windows = self.windows.iter().peekable();
        while let Some(&&(a, _, _)) = windows.peek() {
            while let Some(&(_, end, demand)) = windows.next_if(|w| w.0 == a) {
                ending[end] += demand;
            }
            let (mut inside, mut frozen, mut room) = (0u64, 0u64, 0u64);
            for b in a + 1..=horizon {
                inside += ending[b];
                match fixed[b - 1] {
                    Some(cap) => frozen += cap,
                    None => room += self.inst.slot_caps[b - 1],
                }
                let over = inside.saturating_sub(frozen);
                if room > 0 && wide(over) * wide(per) > wide(most) * wide(room) {
                    (most, per) = (over, room);
                }
            }
        }
        let at_least = |c: u64| (wide(most) * wide(c)).div_ceil(wide(per)).min(wide(c)) as u64;
        let levels = sizes.iter().map(|&c| Level { k: at_least(c), c });
        levels.min().unwrap_or(Level { k: 0, c: 0 })
    }

    /// Free slots that cannot shed load at the caps just allocated: the
    /// slot node cannot reach the sink in the residual graph, so no
    /// rerouting exists. The set of nodes that reach the sink is the same
    /// for every maximum flow (the sink side of the maximal minimum cut),
    /// so these slots are pinned in every feasible allocation at `caps`.
    fn critical_slots(&mut self, caps: &[u64], fixed: &[Option<u64>]) -> Vec<usize> {
        self.asked.reach_passes += 1;
        let reaches_sink = self.net.reaches(self.sink());
        (0..self.inst.horizon())
            .filter(|&t| fixed[t].is_none() && caps[t] > 0 && !reaches_sink[self.slot_node(t)])
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
        // The minimal level comes from cold probes on fresh networks over
        // every candidate level in order; infeasible instances (no level
        // fits) are kept to check that the bound stays a level. Exactness
        // is asserted for one free capacity under Gale's condition: every
        // job's arc cap at least every cap in its window at that level.
        let mut rng = 0xb0_0d_u64;
        let (mut feasible, mut unequal, mut exact) = (0, 0, 0);
        for _ in 0..8000 {
            let inst = random_instance(&mut rng);
            let fixed = random_fixed(&inst, &mut rng);
            let free = (0..inst.horizon()).filter(|&t| fixed[t].is_none());
            let mut sizes: Vec<u64> = free.map(|t| inst.slot_caps[t]).filter(|&c| c > 0).collect();
            sizes.sort_unstable();
            sizes.dedup();
            let Some(&top) = sizes.last() else {
                continue;
            };
            let net = LevelNet::build(&inst).unwrap();
            let bound = net.density_bound(&fixed, &sizes);
            let full = Level { k: top, c: top };
            assert!(
                bound <= full,
                "{inst:?} {fixed:?}: bound {bound:?} above {full:?}"
            );
            let mut levels: Vec<Level> = (sizes.iter())
                .flat_map(|&c| (0..=c).map(move |k| Level { k, c }))
                .collect();
            levels.sort_unstable();
            let fits = |level: Level| {
                let caps = inst.caps(&fixed, |c| level.cap(c));
                LevelNet::build(&inst).unwrap().feasible(&caps)
            };
            let Some(level) = levels.into_iter().find(|&l| fits(l)) else {
                continue;
            };
            feasible += 1;
            assert!(bound <= level, "{inst:?} {fixed:?}: {bound:?} > {level:?}");
            if sizes.len() > 1 {
                unequal += 1;
                continue;
            }
            let caps = inst.caps(&fixed, |c| level.cap(c));
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
            feasible > 1000 && unequal > 400 && exact > 400,
            "{feasible} feasible, {unequal} with unequal capacities, {exact} exact"
        );
    }

    #[test]
    fn a_fresh_allocation_equals_dinic_from_zero_arc_for_arc() {
        // The one-pass first phase against Dinic alone on a network built
        // for the caps, edge by edge. The allocating network has been
        // allocated at other caps first, so its reset is under test too.
        // Infeasible caps are kept: the maximum flow is compared either way.
        let mut rng = 0x00a1_10c8_u64;
        let (mut capped, mut closed, mut idle) = (0, 0, 0);
        for _ in 0..2500 {
            let inst = random_instance(&mut rng);
            let top = inst.slot_caps.iter().copied().max().unwrap_or(0);
            let fixed = random_fixed(&inst, &mut rng);
            let mut at_level = || {
                let level = next(&mut rng) % (top + 1);
                inst.caps(&fixed, |c| level.min(c))
            };
            let (before, caps) = (at_level(), at_level());
            let mut net = LevelNet::build(&inst).unwrap();
            let _ = net.allocate(&before);
            let _ = net.allocate(&caps);
            let mut fresh = LevelNet::build(&inst).unwrap();
            for (&edge, &cap) in fresh.sink_edges.iter().zip(&caps) {
                fresh.net.set_capacity(edge, cap);
            }
            let sink = fresh.sink();
            let flow = Dinic::new(&mut fresh.net).max_flow(SOURCE, sink);
            assert_eq!(net.flow, flow, "{inst:?} under {caps:?}");
            for e in (0..net.net.edge_count()).map(EdgeId) {
                assert_eq!(
                    net.net.flow(e),
                    fresh.net.flow(e),
                    "{e:?} of {inst:?} under {caps:?}"
                );
            }
            capped += inst
                .jobs
                .iter()
                .filter(|j| j.per_slot_cap.is_some())
                .count();
            closed += caps.iter().filter(|&&c| c == 0).count();
            idle += inst.jobs.iter().filter(|j| j.demand == 0).count();
        }
        assert!(
            capped > 1000 && closed > 1000 && idle > 100,
            "{capped} capped jobs, {closed} closed slots, {idle} idle jobs"
        );
    }

    #[test]
    fn a_round_at_its_bound_costs_one_allocation() {
        // The instance of `tests/flow_props.rs`'
        // `peak_hint_seeding_matches_unseeded_refinement`. Round 1 pins
        // slots 0-1 at 7, round 2 the rest at 3, so the solve ends after
        // round 2 on any budget above it.
        let inst = LevelingInstance {
            slot_caps: vec![10; 8],
            jobs: vec![job(0, 2, 14), job(1, 5, 6), job(2, 8, 12)],
        };
        for (budget, rounds) in [(1, 1), (2, 2), (inst.horizon() + 1, 2)] {
            let mut net = LevelNet::build(&inst).unwrap();
            let sol = net.solve(budget).unwrap();
            if rounds == 2 {
                assert_eq!(sol.slot_loads, vec![7, 7, 3, 3, 3, 3, 3, 3]);
            }
            let asked = Asked {
                warm_probes: 0,
                cold_runs: rounds,
                bound_tries: rounds,
                bound_misses: 0,
                reach_passes: reach_passes(budget, rounds),
            };
            assert_eq!(net.asked, asked, "budget {budget}");
        }
    }

    #[test]
    fn a_round_with_unequal_capacities_at_its_bound_costs_one_allocation() {
        // Round 1's densest interval is slots 0-1 (14 units on 30 of
        // capacity): level 5 of 10 caps them at 5 and 9 and pins them.
        // Round 2 spreads 10 units at density 1/6 over capacities 10, 20,
        // 10, 20: the least level at or above it is 2 of 10, where the
        // slots of 20 carry 3, and the rest is pinned there.
        let inst = LevelingInstance {
            slot_caps: vec![10, 20, 10, 20, 10, 20],
            jobs: vec![job(0, 2, 14), job(2, 6, 10)],
        };
        for (budget, rounds) in [(1, 1), (2, 2), (inst.horizon() + 1, 2)] {
            let mut net = LevelNet::build(&inst).unwrap();
            let sol = net.solve(budget).unwrap();
            if rounds == 2 {
                assert_eq!(sol.slot_loads, vec![5, 9, 2, 3, 2, 3]);
            }
            let asked = Asked {
                warm_probes: 0,
                cold_runs: rounds,
                bound_tries: rounds,
                bound_misses: 0,
                reach_passes: reach_passes(budget, rounds),
            };
            assert_eq!(net.asked, asked, "budget {budget}");
        }
    }

    #[test]
    fn a_miss_with_unequal_capacities_leaves_later_bounds_tried() {
        // Round 1's densest interval is slots 0-1 (15 units on 30 of
        // capacity), but at level 5 of 10 the slot of 20 carries 9: the try
        // misses, the full-capacity question is asked and the search lands
        // on 10 of 20. Round 2 has one free capacity and tries its bound (3)
        // all the same: a miss that rounding down explains says nothing of
        // per-slot caps.
        let inst = LevelingInstance {
            slot_caps: vec![10, 20, 10, 10],
            jobs: vec![job(0, 2, 15), job(2, 4, 6)],
        };
        for budget in [2, inst.horizon() + 1] {
            let mut net = LevelNet::build(&inst).unwrap();
            let sol = net.solve(budget).unwrap();
            assert_eq!(sol.slot_loads, vec![5, 10, 3, 3]);
            let asked = Asked {
                warm_probes: 5,
                cold_runs: 3,
                bound_tries: 2,
                bound_misses: 0,
                reach_passes: reach_passes(budget, 2),
            };
            assert_eq!(net.asked, asked, "budget {budget}");
        }
    }

    /// Reachability passes of a solve that ran `rounds` rounds on a budget
    /// of `budget`: none in the round that exhausts the budget, one in
    /// every other (a solve that ends early needs its last one to see that
    /// every slot is frozen).
    fn reach_passes(budget: usize, rounds: u32) -> u32 {
        if budget as u32 == rounds {
            rounds - 1
        } else {
            rounds
        }
    }

    #[test]
    fn a_missed_bound_is_not_tried_again() {
        // Job 1 may place one unit per slot, so slots 0-1 need level 4
        // while the densest interval says 3: round 1 misses, asks the
        // full-capacity question and bisects; round 2 goes straight to its
        // bisection, and pins the rest.
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
        for budget in [2, inst.horizon() + 1] {
            let mut net = LevelNet::build(&inst).unwrap();
            assert_eq!(net.density_bound(&[None; 4], &[10]), Level { k: 3, c: 10 });
            let sol = net.solve(budget).unwrap();
            // The bisection-only search's plan (the only one at these
            // levels).
            assert_eq!(sol.allocation, vec![vec![3, 3, 0, 0], vec![1, 1, 1, 1]]);
            assert_eq!(sol.slot_loads, vec![4, 4, 1, 1]);
            assert_eq!((net.asked.bound_tries, net.asked.bound_misses), (1, 1));
            // One allocation per round plus the missed try.
            assert_eq!(net.asked.cold_runs, 3);
            assert!(net.asked.warm_probes > 1, "{:?}", net.asked);
            assert_eq!(net.asked.reach_passes, reach_passes(budget, 2));
        }
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
        assert_eq!(
            inst.solve_lexmin_rounds(1).unwrap_err(),
            FlowError::Infeasible
        );
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
        // One round only guarantees the single worst slot; this is the
        // behavioural difference the lexicographic pass exists to fix.
        let inst = LevelingInstance {
            slot_caps: vec![10; 6],
            jobs: vec![job(0, 2, 12), job(2, 6, 8)],
        };
        let minmax = inst.solve_lexmin_rounds(1).unwrap();
        check_valid(&inst, &minmax);
        assert_eq!(minmax.slot_loads[..2].iter().max(), Some(&6));
    }
}
