//! The repository benchmark: three workloads over the public API of the
//! `ppp-*` crates, with untraced passes for the end-to-end metrics and
//! traced passes, timed from outside each layer, for the per-layer
//! metrics. `README.md` beside this crate describes the workloads and
//! the metrics.

pub mod ingest;
pub mod ledger;
pub mod pipeline;
pub mod run;
pub mod stats;
