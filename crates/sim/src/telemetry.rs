//! Per-run solver and engine telemetry.
//!
//! Schedulers that re-solve an optimization problem on every replan (the
//! FlowTime LP path) expose counters describing how much solver work the
//! run cost and how much of it was avoided by warm starts and plan
//! caching. The engine snapshots these counters into
//! [`crate::SimOutcome::solver_telemetry`] at the end of a run, and the
//! CLI/bench layers render them next to the scheduling metrics.
//!
//! [`EngineTelemetry`] is the engine's own effort report: event-queue
//! traffic, peak live-job population, and wall time of the run loop. It
//! lands in [`crate::SimOutcome::engine_telemetry`] and is what the sweep
//! runner rolls up to show what a many-run sweep cost.
//!
//! All counter fields are deterministic functions of the (workload,
//! cluster, scheduler-config) triple, so they serialize into golden
//! fixtures. The nondeterministic fields — accumulated wall-clock time —
//! are deliberately excluded from serialization *and* equality so
//! byte-identity assertions over serialized outcomes stay meaningful
//! across machines and thread counts.

use serde::{DeError, Deserialize, Serialize, Value};

/// Counters describing solver effort across all replans of one run.
///
/// `PartialEq` and serde intentionally ignore [`replan_wall_nanos`]
/// (wall-clock time is machine-dependent); every other field participates.
///
/// [`replan_wall_nanos`]: SolverTelemetry::replan_wall_nanos
#[derive(Debug, Clone, Default)]
pub struct SolverTelemetry {
    /// Full replans performed (LP or flow re-solved, or cache hit).
    pub replans: u64,
    /// Simplex solves that ran the cold two-phase path: the first lexmin
    /// round's main solve, and every later round's or necessity trial's
    /// that its commit or probe left undecided.
    pub cold_solves: u64,
    /// Lexmin steps decided in place from the retained optimum: necessity
    /// trials answered by a probe (optimal or certified infeasible) and
    /// rounds after the first reached by a commit of the last round's
    /// freezes. One count per trial or round.
    pub warm_solves: u64,
    /// Probes and commits that could not decide (no column to take `θ`'s
    /// place, lost dual feasibility, a certificate within noise, a step
    /// cap, a failed residual or feasibility check) and were solved cold.
    /// Counted in `cold_solves` too.
    pub warm_fallbacks: u64,
    /// Simplex pivots spent in cold solves.
    pub cold_pivots: u64,
    /// Simplex pivots spent in probes and commits that found an optimum.
    pub warm_pivots: u64,
    /// Replans answered verbatim by the plan cache (identical problem).
    pub cache_hits_exact: u64,
    /// Replans answered by time-shifting the cached plan (pure elapsed-time
    /// relabel of the previous problem).
    pub cache_hits_shift: u64,
    /// Replans that had to re-solve because no cached plan applied.
    pub cache_misses: u64,
    /// Replans solved by the parametric-flow backend (no simplex).
    pub flow_solves: u64,
    /// Replans whose solve failed, degrading the scheduler to greedy mode.
    pub degraded_replans: u64,
    /// Accumulated wall-clock nanoseconds spent inside replans. Excluded
    /// from serialization and equality: wall time is not deterministic.
    pub replan_wall_nanos: u64,
}

impl SolverTelemetry {
    /// Adds `other`'s counters into `self` (sweep rollups). Wall time
    /// accumulates too, though it stays invisible to serde and equality.
    pub fn accumulate(&mut self, other: &SolverTelemetry) {
        self.replans += other.replans;
        self.cold_solves += other.cold_solves;
        self.warm_solves += other.warm_solves;
        self.warm_fallbacks += other.warm_fallbacks;
        self.cold_pivots += other.cold_pivots;
        self.warm_pivots += other.warm_pivots;
        self.cache_hits_exact += other.cache_hits_exact;
        self.cache_hits_shift += other.cache_hits_shift;
        self.cache_misses += other.cache_misses;
        self.flow_solves += other.flow_solves;
        self.degraded_replans += other.degraded_replans;
        self.replan_wall_nanos += other.replan_wall_nanos;
    }

    /// Total cache hits of either kind.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits_exact + self.cache_hits_shift
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "replans {} | simplex cold/warm {}/{} (fallbacks {}) | pivots cold/warm {}/{} | \
             cache hits {} (exact {}, shift {}) misses {} | flow solves {} | degraded {} | \
             replan wall {:.3} ms",
            self.replans,
            self.cold_solves,
            self.warm_solves,
            self.warm_fallbacks,
            self.cold_pivots,
            self.warm_pivots,
            self.cache_hits(),
            self.cache_hits_exact,
            self.cache_hits_shift,
            self.cache_misses,
            self.flow_solves,
            self.degraded_replans,
            self.replan_wall_nanos as f64 / 1e6,
        )
    }
}

/// Field order for the serialized map (and the golden fixture).
const FIELDS: [&str; 11] = [
    "replans",
    "cold_solves",
    "warm_solves",
    "warm_fallbacks",
    "cold_pivots",
    "warm_pivots",
    "cache_hits_exact",
    "cache_hits_shift",
    "cache_misses",
    "flow_solves",
    "degraded_replans",
];

impl SolverTelemetry {
    fn field(&self, name: &str) -> u64 {
        match name {
            "replans" => self.replans,
            "cold_solves" => self.cold_solves,
            "warm_solves" => self.warm_solves,
            "warm_fallbacks" => self.warm_fallbacks,
            "cold_pivots" => self.cold_pivots,
            "warm_pivots" => self.warm_pivots,
            "cache_hits_exact" => self.cache_hits_exact,
            "cache_hits_shift" => self.cache_hits_shift,
            "cache_misses" => self.cache_misses,
            "flow_solves" => self.flow_solves,
            "degraded_replans" => self.degraded_replans,
            _ => unreachable!("unknown telemetry field {name}"),
        }
    }
}

// Manual impls rather than derives: `replan_wall_nanos` must stay out of
// both the serialized form and equality (see the module docs).
impl PartialEq for SolverTelemetry {
    fn eq(&self, other: &Self) -> bool {
        FIELDS.iter().all(|f| self.field(f) == other.field(f))
    }
}

impl Serialize for SolverTelemetry {
    fn to_value(&self) -> Value {
        Value::Map(
            FIELDS
                .iter()
                .map(|&f| (f.to_string(), Value::U64(self.field(f))))
                .collect(),
        )
    }
}

impl Deserialize for SolverTelemetry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let map = v.as_map().ok_or_else(|| DeError::expected("object", v))?;
        let get = |name: &str| -> Result<u64, DeError> {
            match serde::find(map, name) {
                Some(value) => u64::from_value(value),
                None => Err(DeError::custom(format!(
                    "missing field `SolverTelemetry.{name}`"
                ))),
            }
        };
        Ok(SolverTelemetry {
            replans: get("replans")?,
            cold_solves: get("cold_solves")?,
            warm_solves: get("warm_solves")?,
            warm_fallbacks: get("warm_fallbacks")?,
            cold_pivots: get("cold_pivots")?,
            warm_pivots: get("warm_pivots")?,
            cache_hits_exact: get("cache_hits_exact")?,
            cache_hits_shift: get("cache_hits_shift")?,
            cache_misses: get("cache_misses")?,
            flow_solves: get("flow_solves")?,
            degraded_replans: get("degraded_replans")?,
            replan_wall_nanos: 0,
        })
    }
}

/// Counters describing the engine's own per-run effort (as opposed to the
/// scheduler's solver effort in [`SolverTelemetry`]).
///
/// `PartialEq` and serde intentionally ignore [`wall_nanos`] — wall-clock
/// time is machine-dependent, and excluding it is what lets serialized
/// [`crate::SimOutcome`]s be compared byte-for-byte across thread counts
/// and hosts.
///
/// [`wall_nanos`]: EngineTelemetry::wall_nanos
#[derive(Debug, Clone, Default)]
pub struct EngineTelemetry {
    /// Slots the run loop simulated (= `slots_elapsed` for complete runs).
    pub slots_simulated: u64,
    /// Arrival/ready events popped off the event heap.
    pub events_processed: u64,
    /// Total event-heap operations (pushes plus pops).
    pub heap_ops: u64,
    /// Peak number of live (arrived, incomplete) jobs observed in any slot.
    pub peak_live_jobs: u64,
    /// Wall-clock nanoseconds spent inside the run loop. Excluded from
    /// serialization and equality: wall time is not deterministic.
    pub wall_nanos: u64,
}

/// Field order for the serialized map (and the golden fixtures).
const ENGINE_FIELDS: [&str; 4] = [
    "slots_simulated",
    "events_processed",
    "heap_ops",
    "peak_live_jobs",
];

impl EngineTelemetry {
    fn field(&self, name: &str) -> u64 {
        match name {
            "slots_simulated" => self.slots_simulated,
            "events_processed" => self.events_processed,
            "heap_ops" => self.heap_ops,
            "peak_live_jobs" => self.peak_live_jobs,
            _ => unreachable!("unknown engine telemetry field {name}"),
        }
    }

    /// Adds `other`'s counters into `self` (sweep rollups). Wall time
    /// accumulates too; peak live jobs takes the maximum across runs.
    pub fn accumulate(&mut self, other: &EngineTelemetry) {
        self.slots_simulated += other.slots_simulated;
        self.events_processed += other.events_processed;
        self.heap_ops += other.heap_ops;
        self.peak_live_jobs = self.peak_live_jobs.max(other.peak_live_jobs);
        self.wall_nanos += other.wall_nanos;
    }

    /// One-line human summary for CLI output.
    pub fn summary(&self) -> String {
        format!(
            "slots {} | events {} | heap ops {} | peak live jobs {} | wall {:.3} ms",
            self.slots_simulated,
            self.events_processed,
            self.heap_ops,
            self.peak_live_jobs,
            self.wall_nanos as f64 / 1e6,
        )
    }
}

// Manual impls rather than derives: `wall_nanos` must stay out of both the
// serialized form and equality (see the struct docs).
impl PartialEq for EngineTelemetry {
    fn eq(&self, other: &Self) -> bool {
        ENGINE_FIELDS
            .iter()
            .all(|f| self.field(f) == other.field(f))
    }
}

impl Serialize for EngineTelemetry {
    fn to_value(&self) -> Value {
        Value::Map(
            ENGINE_FIELDS
                .iter()
                .map(|&f| (f.to_string(), Value::U64(self.field(f))))
                .collect(),
        )
    }
}

impl Deserialize for EngineTelemetry {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let map = v.as_map().ok_or_else(|| DeError::expected("object", v))?;
        let get = |name: &str| -> Result<u64, DeError> {
            match serde::find(map, name) {
                Some(value) => u64::from_value(value),
                None => Err(DeError::custom(format!(
                    "missing field `EngineTelemetry.{name}`"
                ))),
            }
        };
        Ok(EngineTelemetry {
            slots_simulated: get("slots_simulated")?,
            events_processed: get("events_processed")?,
            heap_ops: get("heap_ops")?,
            peak_live_jobs: get("peak_live_jobs")?,
            wall_nanos: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SolverTelemetry {
        SolverTelemetry {
            replans: 9,
            cold_solves: 3,
            warm_solves: 12,
            warm_fallbacks: 1,
            cold_pivots: 140,
            warm_pivots: 22,
            cache_hits_exact: 2,
            cache_hits_shift: 1,
            cache_misses: 6,
            flow_solves: 0,
            degraded_replans: 0,
            replan_wall_nanos: 123_456,
        }
    }

    #[test]
    fn wall_time_is_invisible_to_equality_and_serde() {
        let a = sample();
        let mut b = sample();
        b.replan_wall_nanos = 999_999_999;
        assert_eq!(a, b);
        assert_eq!(a.to_value(), b.to_value());
        let back = SolverTelemetry::from_value(&a.to_value()).unwrap();
        assert_eq!(back.replan_wall_nanos, 0);
        assert_eq!(back, a);
    }

    #[test]
    fn counters_round_trip() {
        let t = sample();
        let back = SolverTelemetry::from_value(&t.to_value()).unwrap();
        assert_eq!(back, t);
        assert_eq!(back.cold_solves + back.warm_solves, 15);
        assert_eq!(back.cache_hits(), 3);
    }

    #[test]
    fn counter_differences_break_equality() {
        let a = sample();
        let mut b = sample();
        b.warm_solves += 1;
        assert_ne!(a, b);
    }

    #[test]
    fn summary_mentions_every_headline_number() {
        let s = sample().summary();
        for needle in ["replans 9", "3/12", "140/22", "hits 3", "misses 6"] {
            assert!(s.contains(needle), "`{s}` missing `{needle}`");
        }
    }

    #[test]
    fn missing_counter_fields_are_rejected() {
        let v = Value::Map(vec![("replans".to_string(), Value::U64(1))]);
        assert!(SolverTelemetry::from_value(&v).is_err());
    }

    fn engine_sample() -> EngineTelemetry {
        EngineTelemetry {
            slots_simulated: 40,
            events_processed: 12,
            heap_ops: 25,
            peak_live_jobs: 7,
            wall_nanos: 555,
        }
    }

    #[test]
    fn engine_wall_time_is_invisible_to_equality_and_serde() {
        let a = engine_sample();
        let mut b = engine_sample();
        b.wall_nanos = 1_000_000_000;
        assert_eq!(a, b);
        assert_eq!(a.to_value(), b.to_value());
        let back = EngineTelemetry::from_value(&a.to_value()).unwrap();
        assert_eq!(back.wall_nanos, 0);
        assert_eq!(back, a);
    }

    #[test]
    fn engine_counters_round_trip_and_differ() {
        let a = engine_sample();
        let back = EngineTelemetry::from_value(&a.to_value()).unwrap();
        assert_eq!(back, a);
        let mut b = engine_sample();
        b.heap_ops += 1;
        assert_ne!(a, b);
        assert!(EngineTelemetry::from_value(&Value::U64(3)).is_err());
    }

    #[test]
    fn accumulate_sums_counters_and_maxes_peak() {
        let mut solver = sample();
        solver.accumulate(&sample());
        assert_eq!(solver.replans, 18);
        assert_eq!(solver.cold_pivots, 280);
        assert_eq!(solver.replan_wall_nanos, 246_912);

        let mut engine = engine_sample();
        let mut other = engine_sample();
        other.peak_live_jobs = 3;
        engine.accumulate(&other);
        assert_eq!(engine.slots_simulated, 80);
        assert_eq!(engine.peak_live_jobs, 7);
        assert_eq!(engine.wall_nanos, 1110);
        let s = engine.summary();
        assert!(s.contains("slots 80"), "{s}");
    }
}
