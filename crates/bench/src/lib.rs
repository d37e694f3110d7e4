//! Experiment harness regenerating every table and figure of the FlowTime
//! paper's evaluation (Section VII).
//!
//! Every experiment is a module of the one `repro` binary (`src/bin/repro`:
//! `repro fig1|fig4|...|all`); timing lives in the standalone `benchmark/`
//! crate. This library holds the shared machinery: workload construction,
//! the checked runner over [`flowtime::run`], metric summarization, the
//! sweep grid, and table rendering.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod report;
pub mod sweep;

pub use experiments::{Algo, SummaryRow};
