//! PUMA-style MapReduce job templates.
//!
//! The paper's testbed runs jobs from the PUMA benchmark suite [17] —
//! InvertedIndex, SequenceCount, and WordCount over Wikipedia-style text
//! (≥10 GB inputs) plus SelfJoin over synthetic data. Only the *shape* of a
//! job matters to a scheduler (task count, per-task runtime, container
//! size), so each template scales those parameters per input gigabyte with
//! constants consistent with PUMA's published characteristics (map-heavy
//! text jobs; SelfJoin shuffle-heavy with longer reduce-ish tasks;
//! TeraSort/Grep added for workload variety).

use flowtime_dag::{JobSpec, ResourceVec};
use serde::{Deserialize, Serialize};

/// The PUMA benchmarks modelled by the generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PumaBenchmark {
    /// Word frequency count over text (map-dominated).
    WordCount,
    /// Inverted index construction (map-dominated, larger intermediate).
    InvertedIndex,
    /// Frequency of every 3-gram sequence (heavier maps than WordCount).
    SequenceCount,
    /// Self-join of adjacency lists (shuffle-heavy, long tasks).
    SelfJoin,
    /// Distributed sort (balanced map/reduce).
    TeraSort,
    /// Pattern search (light, short tasks).
    Grep,
}

impl PumaBenchmark {
    /// All modelled benchmarks.
    pub const ALL: [PumaBenchmark; 6] = [
        PumaBenchmark::WordCount,
        PumaBenchmark::InvertedIndex,
        PumaBenchmark::SequenceCount,
        PumaBenchmark::SelfJoin,
        PumaBenchmark::TeraSort,
        PumaBenchmark::Grep,
    ];

    /// The text-processing subset used in the paper's workflow experiments
    /// (Section VII-A) plus SelfJoin.
    pub const PAPER_SET: [PumaBenchmark; 4] = [
        PumaBenchmark::InvertedIndex,
        PumaBenchmark::SequenceCount,
        PumaBenchmark::WordCount,
        PumaBenchmark::SelfJoin,
    ];

    /// Benchmark name as used in reports.
    pub fn name(&self) -> &'static str {
        match self {
            PumaBenchmark::WordCount => "WordCount",
            PumaBenchmark::InvertedIndex => "InvertedIndex",
            PumaBenchmark::SequenceCount => "SequenceCount",
            PumaBenchmark::SelfJoin => "SelfJoin",
            PumaBenchmark::TeraSort => "TeraSort",
            PumaBenchmark::Grep => "Grep",
        }
    }

    /// `(tasks_per_gb, task_slots, container)` shape constants.
    ///
    /// One task processes one HDFS-block-sized split (~128 MB ⇒ 8
    /// tasks/GB) with per-benchmark runtime multipliers; containers are
    /// 1 core and 2–4 GiB as typical for YARN MapReduce.
    fn constants(&self) -> (u64, u64, ResourceVec) {
        match self {
            PumaBenchmark::WordCount => (8, 2, ResourceVec::new([1, 2048])),
            PumaBenchmark::InvertedIndex => (8, 3, ResourceVec::new([1, 3072])),
            PumaBenchmark::SequenceCount => (8, 4, ResourceVec::new([1, 3072])),
            PumaBenchmark::SelfJoin => (6, 5, ResourceVec::new([1, 4096])),
            PumaBenchmark::TeraSort => (8, 3, ResourceVec::new([1, 4096])),
            PumaBenchmark::Grep => (8, 1, ResourceVec::new([1, 2048])),
        }
    }

    /// Builds the job spec for this benchmark over `input_gb` gigabytes.
    ///
    /// At least one task is always produced; the paper's jobs use ≥10 GB.
    ///
    /// # Example
    ///
    /// ```
    /// use flowtime_workload::PumaBenchmark;
    /// let job = PumaBenchmark::WordCount.job(10);
    /// assert_eq!(job.tasks(), 80);
    /// assert_eq!(job.work(), 160);
    /// ```
    pub fn job(&self, input_gb: u64) -> JobSpec {
        let (tasks_per_gb, task_slots, container) = self.constants();
        let tasks = (tasks_per_gb * input_gb).max(1);
        JobSpec::new(self.name(), tasks, task_slots, container)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_scale_with_input() {
        for b in PumaBenchmark::ALL {
            let small = b.job(10);
            let large = b.job(100);
            assert_eq!(large.tasks(), small.tasks() * 10, "{}", b.name());
            assert_eq!(small.task_slots(), large.task_slots());
            assert!(small.validate_ok());
        }
    }

    #[test]
    fn zero_input_still_valid() {
        let j = PumaBenchmark::Grep.job(0);
        assert_eq!(j.tasks(), 1);
    }

    #[test]
    fn paper_set_is_subset_of_all() {
        for b in PumaBenchmark::PAPER_SET {
            assert!(PumaBenchmark::ALL.contains(&b));
        }
    }

    trait ValidateOk {
        fn validate_ok(&self) -> bool;
    }
    impl ValidateOk for JobSpec {
        fn validate_ok(&self) -> bool {
            self.tasks() > 0 && self.task_slots() > 0 && !self.per_task().is_zero()
        }
    }
}
