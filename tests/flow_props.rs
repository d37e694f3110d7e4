//! Property-based tests of the max-flow substrate: max-flow/min-cut
//! duality, conservation, leveling optimality bounds, and the differential
//! check of the one-network lexmin driver against a from-scratch reference.

use flowtime_flow::leveling::{LevelingInstance, LevelingJob, LevelingSolution};
use flowtime_flow::{Dinic, FlowError, FlowNetwork};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random small directed network with source 0 and sink n-1.
fn network() -> impl Strategy<Value = (usize, Vec<(usize, usize, u64)>)> {
    (3usize..9).prop_flat_map(|n| {
        let edge = (0..n, 0..n, 1u64..30).prop_filter("no self-loop", |(a, b, _)| a != b);
        proptest::collection::vec(edge, 1..25).prop_map(move |edges| (n, edges))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Max-flow equals the capacity of the discovered minimum cut.
    #[test]
    fn max_flow_equals_min_cut((n, edges) in network()) {
        let mut net = FlowNetwork::new(n);
        let handles: Vec<_> = edges
            .iter()
            .map(|&(a, b, c)| ((a, b, c), net.add_edge(a, b, c).unwrap()))
            .collect();
        let mut dinic = Dinic::new(&mut net);
        let flow = dinic.max_flow(0, n - 1);
        let source_side = dinic.min_cut_source_side(0);
        prop_assert!(source_side[0]);
        prop_assert!(!source_side[n - 1]);
        let cut_capacity: u64 = handles
            .iter()
            .filter(|&&((a, b, _), _)| source_side[a] && !source_side[b])
            .map(|&((_, _, c), _)| c)
            .sum();
        prop_assert_eq!(flow, cut_capacity);
    }

    /// Flow conservation holds at every internal node, and per-edge flow
    /// respects capacity.
    #[test]
    fn conservation_and_capacity((n, edges) in network()) {
        let mut net = FlowNetwork::new(n);
        let handles: Vec<_> = edges
            .iter()
            .map(|&(a, b, c)| ((a, b, c), net.add_edge(a, b, c).unwrap()))
            .collect();
        let flow = Dinic::new(&mut net).max_flow(0, n - 1);
        let mut balance = vec![0i64; n];
        for ((a, b, c), e) in handles {
            let f = net.flow(e);
            prop_assert!(f <= c, "edge over capacity");
            balance[a] -= f as i64;
            balance[b] += f as i64;
        }
        prop_assert_eq!(balance[0], -(flow as i64));
        prop_assert_eq!(balance[n - 1], flow as i64);
        for (v, &b) in balance.iter().enumerate().take(n - 1).skip(1) {
            prop_assert_eq!(b, 0, "conservation at {}", v);
        }
    }
}

/// Random feasible leveling instances.
fn leveling() -> impl Strategy<Value = LevelingInstance> {
    (3usize..10, 2u64..12).prop_flat_map(|(h, cap)| {
        let job = (0..h, 1usize..h, 1u64..40).prop_map(move |(s, len, d)| {
            let start = s.min(h - 1);
            let end = (start + len).min(h).max(start + 1);
            let demand = d.min(cap * (end - start) as u64);
            LevelingJob {
                start,
                end,
                demand,
                per_slot_cap: None,
            }
        });
        proptest::collection::vec(job, 1..5).prop_map(move |jobs| LevelingInstance {
            slot_caps: vec![cap; h],
            jobs,
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The lexmin peak is optimal: no feasible allocation has a lower max
    /// load, verified against the densest single job and the densest
    /// interval — ⌈demand of the jobs whose windows lie inside `[a, b)` /
    /// (b − a)⌉, by brute force over every interval. This generator's
    /// slots are uniform and its jobs uncapped, so no arc cap binds and the
    /// interval bound is exact (Hall's condition read per interval): the
    /// min-max round's peak load equals it.
    #[test]
    fn lexmin_peak_respects_lower_bounds(inst in leveling()) {
        let cap = inst.slot_caps[0];
        let Ok(sol) = inst.solve_lexmin() else { return Ok(()); };
        // Demands are all satisfied within windows and caps.
        for (job, alloc) in inst.jobs.iter().zip(&sol.allocation) {
            let total: u64 = alloc.iter().sum();
            prop_assert_eq!(total, job.demand);
        }
        // Lower bound 1: densest single job (demand / window / cap).
        for job in &inst.jobs {
            let density = job.demand as f64 / ((job.end - job.start) as f64 * cap as f64);
            prop_assert!(sol.peak_ratio >= density - 1e-9);
        }
        // Lower bound 2: densest interval, in whole units per slot.
        let horizon = inst.horizon();
        let mut bound = 0u64;
        for a in 0..horizon {
            for b in a + 1..=horizon {
                let inside = inst.jobs.iter().filter(|j| j.start >= a && j.end <= b);
                let demand: u64 = inside.map(|j| j.demand).sum();
                bound = bound.max(demand.div_ceil((b - a) as u64));
            }
        }
        prop_assert!(sol.peak_ratio >= bound as f64 / cap as f64 - 1e-9);
        // Upper bound sanity: a peak ratio is at most 1.
        prop_assert!(sol.peak_ratio <= 1.0 + 1e-9);
        // One round can never beat lexmin's first level, and sits at the
        // interval bound exactly.
        let minmax = inst.solve_lexmin_rounds(1).unwrap();
        prop_assert!((minmax.peak_ratio - sol.peak_ratio).abs() < 1e-6);
        prop_assert_eq!(minmax.slot_loads.iter().max().copied(), Some(bound));
    }

    /// Leveling solutions never violate slot capacities.
    #[test]
    fn leveling_respects_capacity(inst in leveling()) {
        if let Ok(sol) = inst.solve_lexmin() {
            for (t, &load) in sol.slot_loads.iter().enumerate() {
                prop_assert!(load <= inst.slot_caps[t]);
            }
        }
    }
}

/// The differential oracle: the lexmin round loop written from scratch on
/// its own textbook Dinic. Every probe, every allocation and every
/// critical-slot pass builds a fresh network and runs Dinic cold on it; no
/// round trusts anything the round before learned (no peak hint, the
/// full-capacity check repeated). The driver in `flowtime_flow::leveling`
/// must return exactly this, plan byte for plan byte.
mod reference {
    use super::*;

    /// What one fresh network under `caps`, solved cold, says.
    struct Cold {
        flow: u64,
        solution: LevelingSolution,
        /// Slots with no residual path to the sink.
        stuck: Vec<bool>,
    }

    /// Textbook Dinic on a flat arc list: arc `2k` is the `k`-th edge,
    /// `2k + 1` its residual twin, and each node lists its arcs in the
    /// order they were added. BFS levels, then one augmenting path per DFS
    /// from the source, each node resuming at its current arc. It shares
    /// no code with the product's `Dinic`.
    struct Textbook {
        to: Vec<usize>,
        residual: Vec<u64>,
        out: Vec<Vec<usize>>,
    }

    impl Textbook {
        fn new(nodes: usize, edges: &[(usize, usize, u64)]) -> Self {
            let mut net = Textbook {
                to: Vec::new(),
                residual: Vec::new(),
                out: vec![Vec::new(); nodes],
            };
            for &(u, v, cap) in edges {
                for (from, to, cap) in [(u, v, cap), (v, u, 0)] {
                    net.out[from].push(net.to.len());
                    net.to.push(to);
                    net.residual.push(cap);
                }
            }
            net
        }

        fn max_flow(&mut self, source: usize, sink: usize) -> u64 {
            let mut total = 0;
            loop {
                let mut level = vec![usize::MAX; self.out.len()];
                level[source] = 0;
                let mut queue = std::collections::VecDeque::from([source]);
                while let Some(v) = queue.pop_front() {
                    for &a in &self.out[v] {
                        if self.residual[a] > 0 && level[self.to[a]] == usize::MAX {
                            level[self.to[a]] = level[v] + 1;
                            queue.push_back(self.to[a]);
                        }
                    }
                }
                if level[sink] == usize::MAX {
                    return total;
                }
                let mut next = vec![0; self.out.len()];
                while let sent @ 1.. = self.augment(source, sink, u64::MAX, &level, &mut next) {
                    total += sent;
                }
            }
        }

        fn augment(
            &mut self,
            v: usize,
            sink: usize,
            limit: u64,
            level: &[usize],
            next: &mut [usize],
        ) -> u64 {
            if v == sink {
                return limit;
            }
            while next[v] < self.out[v].len() {
                let a = self.out[v][next[v]];
                let w = self.to[a];
                if self.residual[a] > 0 && level[w] == level[v] + 1 {
                    let sent = self.augment(w, sink, limit.min(self.residual[a]), level, next);
                    if sent > 0 {
                        self.residual[a] -= sent;
                        self.residual[a ^ 1] += sent;
                        return sent;
                    }
                }
                next[v] += 1;
            }
            0
        }
    }

    fn cold(inst: &LevelingInstance, caps: &[u64]) -> Cold {
        let (n_jobs, horizon) = (inst.jobs.len(), inst.horizon());
        let (slot_base, sink) = (1 + n_jobs, 1 + n_jobs + horizon);
        let mut arcs = Vec::new();
        for (j, job) in inst.jobs.iter().enumerate() {
            arcs.push((0, 1 + j, job.demand));
            let per_slot = job.per_slot_cap.unwrap_or(job.demand).min(job.demand);
            arcs.extend((job.start..job.end).map(|t| (1 + j, slot_base + t, per_slot)));
        }
        arcs.extend(
            caps.iter()
                .enumerate()
                .map(|(t, &c)| (slot_base + t, sink, c)),
        );
        let mut net = Textbook::new(sink + 1, &arcs);
        let flow = net.max_flow(0, sink);
        let mut allocation = vec![vec![0u64; horizon]; n_jobs];
        let mut slot_loads = vec![0u64; horizon];
        // Residual arcs reversed: `into[v]` lists who can step to `v`.
        let mut into: Vec<Vec<usize>> = vec![Vec::new(); sink + 1];
        for (k, &(u, v, cap)) in arcs.iter().enumerate() {
            let (left, carried) = (net.residual[2 * k], net.residual[2 * k + 1]);
            assert_eq!(left + carried, cap, "arc {k} off its capacity");
            if (1..slot_base).contains(&u) {
                allocation[u - 1][v - slot_base] = carried;
                slot_loads[v - slot_base] += carried;
            }
            if left > 0 {
                into[v].push(u);
            }
            if carried > 0 {
                into[u].push(v);
            }
        }
        let mut reaches = vec![false; sink + 1];
        let mut stack = vec![sink];
        while let Some(v) = stack.pop() {
            if !std::mem::replace(&mut reaches[v], true) {
                stack.extend(&into[v]);
            }
        }
        let loaded = slot_loads
            .iter()
            .zip(&inst.slot_caps)
            .filter(|&(_, &c)| c > 0);
        let peak_ratio = loaded
            .map(|(&z, &c)| z as f64 / c as f64)
            .fold(0.0, f64::max);
        Cold {
            flow,
            solution: LevelingSolution {
                allocation,
                slot_loads,
                peak_ratio,
            },
            stuck: (0..horizon).map(|t| !reaches[slot_base + t]).collect(),
        }
    }

    pub fn solve_lexmin_rounds(
        inst: &LevelingInstance,
        max_rounds: usize,
    ) -> Result<LevelingSolution, FlowError> {
        let horizon = inst.horizon();
        if let Some(job) = (inst.jobs.iter()).position(|j| j.start >= j.end || j.end > horizon) {
            return Err(FlowError::InvalidWindow { job });
        }
        let total: u64 = inst.jobs.iter().map(|j| j.demand).sum();
        let feasible = |caps: Vec<u64>| cold(inst, &caps).flow == total;
        let mut fixed: Vec<Option<u64>> = vec![None; horizon];
        let mut last = None;
        for _ in 0..max_rounds.max(1) {
            let under = |free: &dyn Fn(u64) -> u64| -> Vec<u64> {
                let slots = inst.slot_caps.iter().zip(&fixed);
                slots.map(|(&c, f)| f.unwrap_or_else(|| free(c))).collect()
            };
            if !feasible(under(&|c| c)) {
                return Err(FlowError::Infeasible);
            }
            let mut free = (0..horizon)
                .filter(|&t| fixed[t].is_none())
                .map(|t| inst.slot_caps[t]);
            let first = free.next();
            let caps = if let (Some(c), true) = (first, free.all(|c| Some(c) == first)) {
                let (mut lo, mut hi) = (0u64, c);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if feasible(under(&|c| mid.min(c))) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                under(&|c| lo.min(c))
            } else {
                let at = |l: f64| under(&|c| ((l * c as f64) + 1e-9).floor() as u64);
                let (mut lo, mut hi) = (0.0f64, 1.0f64);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if feasible(at(mid)) {
                        hi = mid;
                    } else {
                        lo = mid;
                    }
                }
                at(hi)
            };
            let (allocated, stuck) = (cold(inst, &caps).solution, cold(inst, &caps).stuck);
            let open = |t: &usize| fixed[*t].is_none() && caps[*t] > 0;
            let mut freeze: Vec<usize> = (0..horizon).filter(|t| open(t) && stuck[*t]).collect();
            if freeze.is_empty() {
                let full = |t: &usize| allocated.slot_loads[*t] == caps[*t];
                freeze = (0..horizon).filter(|t| open(t) && full(t)).collect();
            }
            last = Some(allocated);
            for &t in &freeze {
                fixed[t] = Some(caps[t]);
            }
            if freeze.is_empty() || fixed.iter().all(Option::is_some) {
                break;
            }
        }
        Ok(last.unwrap())
    }
}

/// A random instance, feasible or not: horizon 1–24, uniform or
/// heterogeneous slot caps (zeros included), 0–12 jobs with random windows,
/// demands 0–40, per-slot caps on a third of the jobs.
fn any_leveling(seed: u64) -> LevelingInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = rng.gen_range(1..=24usize);
    let cap = rng.gen_range(0..=14u64);
    let uniform = rng.gen_range(0..2) == 0;
    let slot_caps = (0..horizon)
        .map(|_| {
            if uniform {
                cap
            } else {
                rng.gen_range(0..=14u64)
            }
        })
        .collect();
    let n_jobs = rng.gen_range(0..=12usize);
    let jobs = (0..n_jobs)
        .map(|_| {
            let start = rng.gen_range(0..horizon);
            let end = rng.gen_range(start + 1..=horizon);
            // Mostly sized to fit, so that deep refinement is exercised;
            // a quarter are drawn from the whole range and often do not.
            let room = (end - start) as u64 * cap.max(1) * 2 / (1 + n_jobs as u64);
            let most = if rng.gen_range(0..4) == 0 {
                40
            } else {
                room.min(40)
            };
            LevelingJob {
                start,
                end,
                demand: rng.gen_range(0..=most),
                per_slot_cap: (rng.gen_range(0..3) == 0).then(|| rng.gen_range(1..=8u64)),
            }
        })
        .collect();
    LevelingInstance { slot_caps, jobs }
}

/// The driver equals the reference — allocation, slot loads, peak ratio
/// bits, or the typed error — at every round budget.
fn matches_reference(inst: &LevelingInstance) -> Result<bool, String> {
    for rounds in [1, 2, 3, inst.horizon() + 1] {
        let got = inst.solve_lexmin_rounds(rounds);
        let want = reference::solve_lexmin_rounds(inst, rounds);
        let same_bits = match (&got, &want) {
            (Ok(g), Ok(w)) => g.peak_ratio.to_bits() == w.peak_ratio.to_bits(),
            _ => true,
        };
        if got != want || !same_bits {
            return Err(format!(
                "{rounds} rounds on {inst:?}:\n got {got:?}\nwant {want:?}"
            ));
        }
    }
    Ok(inst.solve_lexmin().is_ok())
}

/// 3 000 fixed seeds: the same corpus on every run, so a plan byte that
/// moves fails here before it fails a golden.
#[test]
fn lexmin_driver_matches_reference_on_fixed_corpus() {
    let mut solved = 0;
    for seed in 0..3000 {
        match matches_reference(&any_leveling(seed)) {
            Ok(feasible) => solved += usize::from(feasible),
            Err(msg) => panic!("seed {seed}: {msg}"),
        }
    }
    assert!(
        solved > 1000,
        "only {solved} feasible instances: the corpus went soft"
    );
}

/// A capacity-churn-shaped instance at product magnitudes: a full
/// capacity of 60–400 tasks per slot, a second level (a half, three
/// quarters, seven tenths, a quarter of it, or none) on about a third of
/// the slots, 1–10 jobs sized to fit, a third of them per-slot capped.
/// Distinct ratios `k / C` sit close here, unlike `any_leveling`'s 0–14.
fn churned_leveling(seed: u64) -> LevelingInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let horizon = rng.gen_range(2..=16usize);
    let full = rng.gen_range(60..=400u64);
    let second = [full / 2, 3 * full / 4, 7 * full / 10, full / 4, 0][rng.gen_range(0..5usize)];
    let slot_caps: Vec<u64> = (0..horizon)
        .map(|_| {
            if rng.gen_range(0..3) == 0 {
                second
            } else {
                full
            }
        })
        .collect();
    let n_jobs = rng.gen_range(1..=10usize);
    let jobs = (0..n_jobs)
        .map(|_| {
            let start = rng.gen_range(0..horizon);
            let end = rng.gen_range(start + 1..=horizon);
            let per_slot_cap = (rng.gen_range(0..3) == 0).then(|| rng.gen_range(1..=full / 3));
            let room: u64 = (slot_caps[start..end].iter())
                .map(|&c| per_slot_cap.map_or(c, |p| p.min(c)))
                .sum();
            LevelingJob {
                start,
                end,
                demand: rng.gen_range(0..=room * 2 / (1 + n_jobs as u64)),
                per_slot_cap,
            }
        })
        .collect();
    LevelingInstance { slot_caps, jobs }
}

/// The churn family against the reference, whose λ-bisection on `f64` is
/// the specification of the leveler's exact level search.
#[test]
fn lexmin_matches_reference_under_capacity_churn() {
    let seeds = if cfg!(debug_assertions) { 40 } else { 400 };
    let (mut solved, mut churned) = (0, 0);
    for seed in 0..seeds {
        let inst = churned_leveling(seed);
        match matches_reference(&inst) {
            Ok(feasible) => solved += u64::from(feasible),
            Err(msg) => panic!("seed {seed}: {msg}"),
        }
        let mut caps = inst.slot_caps.iter().filter(|&&c| c > 0);
        let first = caps.next();
        churned += u64::from(caps.any(|c| Some(c) != first));
    }
    assert!(
        solved * 4 > seeds * 3 && churned * 2 > seeds,
        "{solved} feasible and {churned} with unequal capacities of {seeds}"
    );
}

/// The seeded public path (peak hint, implied probes skipped) lands on the
/// allocation of the unseeded reference — the hint only prunes the search
/// range, never the answer.
#[test]
fn peak_hint_seeding_matches_unseeded_refinement() {
    let job = |start, end, demand| LevelingJob {
        start,
        end,
        demand,
        per_slot_cap: None,
    };
    let inst = LevelingInstance {
        slot_caps: vec![10; 8],
        jobs: vec![job(0, 2, 14), job(1, 5, 6), job(2, 8, 12)],
    };
    let seeded = inst.solve_lexmin().unwrap();
    let unseeded = reference::solve_lexmin_rounds(&inst, inst.horizon() + 1).unwrap();
    assert_eq!(seeded, unseeded);
    // Two rounds, at levels 7 and 3: the hint is live in round 2.
    assert_eq!(seeded.slot_loads, vec![7, 7, 3, 3, 3, 3, 3, 3]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Same check on seeds the fixed corpus does not contain.
    #[test]
    fn lexmin_driver_matches_reference(seed in 3000u64..u64::MAX) {
        if let Err(msg) = matches_reference(&any_leveling(seed)) {
            prop_assert!(false, "seed {}: {}", seed, msg);
        }
    }
}
