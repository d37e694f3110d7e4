//! Experiment harness regenerating every table and figure of the FlowTime
//! paper's evaluation (Section VII).
//!
//! Each paper figure has a binary in `src/bin/` (`fig1`, `fig4`, `fig5`,
//! `fig6`, `fig7`, `trace_sim`) plus a `repro_all` driver; timing lives in
//! the standalone `benchmark/` crate. This library holds the shared
//! machinery: workload construction, the checked runner over
//! [`flowtime::run`], metric summarization, and table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod scaling;
pub mod sweep;

pub use experiments::{Algo, SummaryRow};
