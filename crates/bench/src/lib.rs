//! # ppp-bench: benchmark harness for the PPP reproduction
//!
//! Micro-benchmarks (`profilers`, `flow`, `vm`, `obs`, `wire`) measure
//! the real wall-clock cost of instrumentation analysis, flow
//! estimation, instrumented execution, metric recording and the delta
//! codec using the in-tree [`harness`] (no external benchmarking crates,
//! so the workspace builds offline). The paper's tables and figures come
//! from `ppp-repro` (see `EXPERIMENTS.md`).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
