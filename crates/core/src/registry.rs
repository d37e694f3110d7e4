//! The scheduler registry: the one place a scheduler is built from a name.
//!
//! The paper's evaluation (Section VII) compares FlowTime against CORA,
//! EDF, Fair, FIFO and Morpheus on one workload, which only means
//! something if every front end — the CLI, the daemon, the experiment
//! harness — resolves the same name to the same scheduler in the same
//! initial state. [`Algo`] is that resolution; a new baseline is one
//! variant here and nothing anywhere else.

use crate::schedulers::{
    CoraScheduler, EdfScheduler, FairScheduler, FifoScheduler, FlowTimeConfig, FlowTimeScheduler,
    MorpheusScheduler,
};
use flowtime_sim::{ClusterConfig, Scheduler};
use serde::Serialize;

/// The algorithms compared in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
#[allow(missing_docs)]
pub enum Algo {
    FlowTime,
    /// Ablation: FlowTime without deadline slack (Fig. 5).
    FlowTimeNoDs,
    Cora,
    Edf,
    Fair,
    Fifo,
    Morpheus,
}

impl Algo {
    /// The five algorithms shown in Fig. 4, in the paper's order, plus the
    /// Morpheus baseline named in Section VII-A.
    pub const FIG4: [Algo; 6] = [
        Algo::FlowTime,
        Algo::Cora,
        Algo::Edf,
        Algo::Fair,
        Algo::Fifo,
        Algo::Morpheus,
    ];

    /// Display name matching the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Algo::FlowTime => "FlowTime",
            Algo::FlowTimeNoDs => "FlowTime_no_ds",
            Algo::Cora => "CORA",
            Algo::Edf => "EDF",
            Algo::Fair => "Fair",
            Algo::Fifo => "FIFO",
            Algo::Morpheus => "Morpheus",
        }
    }

    /// Parses a scheduler name as printed by [`Algo::name`], ignoring case
    /// and separators (`flowtime`, `FlowTime_no_ds`, `flow-time-no-ds` and
    /// the like all resolve).
    pub fn parse(name: &str) -> Option<Algo> {
        let norm: String = name
            .chars()
            .filter(char::is_ascii_alphanumeric)
            .collect::<String>()
            .to_ascii_lowercase();
        match norm.as_str() {
            "flowtime" => Some(Algo::FlowTime),
            "flowtimenods" => Some(Algo::FlowTimeNoDs),
            "cora" => Some(Algo::Cora),
            "edf" => Some(Algo::Edf),
            "fair" => Some(Algo::Fair),
            "fifo" => Some(Algo::Fifo),
            "morpheus" => Some(Algo::Morpheus),
            _ => None,
        }
    }

    /// Instantiates the scheduler with the default [`FlowTimeConfig`].
    pub fn make(&self, cluster: &ClusterConfig) -> Box<dyn Scheduler> {
        self.make_with(cluster, &FlowTimeConfig::default())
    }

    /// Instantiates the scheduler, building the two FlowTime variants on
    /// top of `base` (the no-slack ablation overrides only
    /// [`FlowTimeConfig::slack_slots`]); the baselines take no tuning.
    pub fn make_with(&self, cluster: &ClusterConfig, base: &FlowTimeConfig) -> Box<dyn Scheduler> {
        match self {
            Algo::FlowTime => Box::new(FlowTimeScheduler::new(cluster.clone(), base.clone())),
            Algo::FlowTimeNoDs => Box::new(FlowTimeScheduler::new(
                cluster.clone(),
                FlowTimeConfig {
                    slack_slots: 0,
                    ..base.clone()
                },
            )),
            Algo::Cora => Box::new(CoraScheduler::new(cluster.clone())),
            Algo::Edf => Box::new(EdfScheduler::new()),
            Algo::Fair => Box::new(FairScheduler::new()),
            Algo::Fifo => Box::new(FifoScheduler::new()),
            Algo::Morpheus => Box::new(MorpheusScheduler::new(cluster.clone())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowtime_dag::ResourceVec;

    /// Every registered algorithm: [`Algo::FIG4`] plus the Fig. 5 ablation.
    const ALL: [Algo; 7] = [
        Algo::FlowTime,
        Algo::FlowTimeNoDs,
        Algo::Cora,
        Algo::Edf,
        Algo::Fair,
        Algo::Fifo,
        Algo::Morpheus,
    ];

    #[test]
    fn every_algo_round_trips_through_its_display_name() {
        for algo in ALL {
            assert_eq!(Algo::parse(algo.name()), Some(algo), "{}", algo.name());
        }
        for fig4 in Algo::FIG4 {
            assert!(ALL.contains(&fig4));
        }
    }

    #[test]
    fn parse_is_blind_to_case_and_separators_and_rejects_the_rest() {
        for (spelling, algo) in [
            ("flowtime", Algo::FlowTime),
            ("FlowTime", Algo::FlowTime),
            ("flow-time", Algo::FlowTime),
            ("flowtime-no-ds", Algo::FlowTimeNoDs),
            ("FlowTime_no_ds", Algo::FlowTimeNoDs),
            ("FLOWTIMENODS", Algo::FlowTimeNoDs),
            ("CORA", Algo::Cora),
            ("cora", Algo::Cora),
            ("edf", Algo::Edf),
            ("Fair", Algo::Fair),
            ("FIFO", Algo::Fifo),
            ("morpheus", Algo::Morpheus),
        ] {
            assert_eq!(Algo::parse(spelling), Some(algo), "{spelling}");
        }
        for unknown in ["", "nope", "flowtime2", "dagps", "e d g"] {
            assert_eq!(Algo::parse(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn make_builds_the_named_scheduler() {
        let cluster = ClusterConfig::new(ResourceVec::new([4, 4096]), 10.0);
        for algo in ALL {
            // The no-slack ablation is the FlowTime scheduler under
            // another configuration, so it reports FlowTime's name.
            let expect = match algo {
                Algo::FlowTimeNoDs => "FlowTime",
                other => other.name(),
            };
            assert_eq!(algo.make(&cluster).name(), expect);
        }
    }
}
