//! Cluster description.

use flowtime_dag::ResourceVec;
use serde::{Deserialize, Serialize};

/// A time-bounded capacity override: during `[from_slot, to_slot)` the
/// cluster offers `capacity` instead of its base capacity.
///
/// This models the paper's time-varying cap `C_t^r` (Eq. (4): "the
/// resource cap could vary with time to provide more flexibility") —
/// maintenance windows, co-tenant reservations, or elastic expansion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CapacityWindow {
    /// First slot the override applies to (inclusive).
    pub from_slot: u64,
    /// First slot after the override (exclusive).
    pub to_slot: u64,
    /// The capacity in force during the window.
    pub capacity: ResourceVec,
}

/// Static description of the simulated cluster.
///
/// Base capacity is constant; optional [`CapacityWindow`]s override it for
/// slot ranges (later windows win where they overlap).
///
/// # Example
///
/// ```
/// use flowtime_sim::ClusterConfig;
/// use flowtime_dag::ResourceVec;
/// let c = ClusterConfig::new(ResourceVec::new([500, 1_048_576]), 10.0)
///     // half the cluster is down for maintenance during slots 100..160
///     .with_capacity_window(100, 160, ResourceVec::new([250, 524_288]));
/// assert_eq!(c.capacity_at(99), ResourceVec::new([500, 1_048_576]));
/// assert_eq!(c.capacity_at(100), ResourceVec::new([250, 524_288]));
/// assert_eq!(c.capacity_at(160), ResourceVec::new([500, 1_048_576]));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterConfig {
    capacity: ResourceVec,
    slot_seconds: f64,
    #[serde(default)]
    windows: Vec<CapacityWindow>,
}

impl ClusterConfig {
    /// Creates a cluster with the given base capacity and slot duration in
    /// seconds (used only for converting metrics to wall-clock units).
    pub fn new(capacity: ResourceVec, slot_seconds: f64) -> Self {
        ClusterConfig {
            capacity,
            slot_seconds,
            windows: Vec::new(),
        }
    }

    /// Adds a capacity override for `[from_slot, to_slot)`. Overlapping
    /// windows resolve in favour of the one added last.
    #[must_use]
    pub fn with_capacity_window(
        mut self,
        from_slot: u64,
        to_slot: u64,
        capacity: ResourceVec,
    ) -> Self {
        self.windows.push(CapacityWindow {
            from_slot,
            to_slot,
            capacity,
        });
        self
    }

    /// Base (default) capacity of the cluster.
    pub fn capacity(&self) -> ResourceVec {
        self.capacity
    }

    /// The capacity in force during `slot` (base capacity unless a window
    /// covers the slot).
    pub fn capacity_at(&self, slot: u64) -> ResourceVec {
        self.windows
            .iter()
            .rev()
            .find(|w| w.from_slot <= slot && slot < w.to_slot)
            .map_or(self.capacity, |w| w.capacity)
    }

    /// The configured capacity overrides, in insertion order.
    pub fn windows(&self) -> &[CapacityWindow] {
        &self.windows
    }

    /// Duration of one slot in seconds.
    pub fn slot_seconds(&self) -> f64 {
        self.slot_seconds
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let c = ClusterConfig::new(ResourceVec::new([10, 100]), 5.0);
        assert_eq!(c.capacity(), ResourceVec::new([10, 100]));
        assert_eq!(c.slot_seconds(), 5.0);
        assert!(c.windows().is_empty());
        assert_eq!(c.capacity_at(12345), ResourceVec::new([10, 100]));
    }

    #[test]
    fn windows_override_in_range_only() {
        let c = ClusterConfig::new(ResourceVec::new([10, 100]), 5.0).with_capacity_window(
            5,
            8,
            ResourceVec::new([4, 40]),
        );
        assert_eq!(c.windows().len(), 1);
        assert_eq!(c.capacity_at(4), ResourceVec::new([10, 100]));
        assert_eq!(c.capacity_at(5), ResourceVec::new([4, 40]));
        assert_eq!(c.capacity_at(7), ResourceVec::new([4, 40]));
        assert_eq!(c.capacity_at(8), ResourceVec::new([10, 100]));
    }

    #[test]
    fn later_windows_win_on_overlap() {
        let c = ClusterConfig::new(ResourceVec::new([10, 100]), 5.0)
            .with_capacity_window(0, 10, ResourceVec::new([4, 40]))
            .with_capacity_window(5, 10, ResourceVec::new([2, 20]));
        assert_eq!(c.capacity_at(3), ResourceVec::new([4, 40]));
        assert_eq!(c.capacity_at(6), ResourceVec::new([2, 20]));
    }

    #[test]
    fn serde_round_trip_without_windows_field() {
        // Older traces serialized ClusterConfig before windows existed.
        let json = r#"{"capacity":[8,64],"slot_seconds":10.0}"#;
        let c: ClusterConfig = serde_json::from_str(json).unwrap();
        assert_eq!(c.capacity(), ResourceVec::new([8, 64]));
        assert!(c.windows().is_empty());
    }
}
