//! # ppp-core: practical path profiling for dynamic optimizers
//!
//! A from-scratch implementation of the three path profilers studied in
//! Bond & McKinley, *Practical Path Profiling for Dynamic Optimizers*
//! (CGO 2005):
//!
//! - **PP** — Ball–Larus path profiling (§3.1): DAG conversion, unique
//!   path numbering, Ball's event counting, instrumentation pushing;
//! - **TPP** — Joshi et al.'s targeted path profiling (§3.2): cold-path
//!   elimination with poisoning, obvious paths, and obvious-loop
//!   disconnection, guided by an edge profile;
//! - **PPP** — the paper's contribution (§4): six additional techniques
//!   (low-coverage routine filtering, a global cold-edge criterion with a
//!   self-adjusting threshold, pushing past cold edges, smart path
//!   numbering, and free poisoning) that cut overhead to dynamic-optimizer
//!   levels.
//!
//! It also implements the paper's **evaluation machinery**: the
//! unit-flow and branch-flow metrics (§5.1), definite and potential flow
//! with hot-path reconstruction (appendix Figs. 14–16, including the fix
//! to Ball et al.'s algorithm), estimated-profile construction (§5),
//! Wall-style accuracy (§6.1), and coverage with the overcount penalty
//! (§6.2).
//!
//! # Quick start
//!
//! ```
//! use ppp_core::{instrument_module, normalize_module, ProfilerConfig};
//! use ppp_ir::{FunctionBuilder, Module};
//! use ppp_vm::{run, RunOptions};
//!
//! // Build a module, normalize it, and take an edge-profiled run.
//! let mut module = Module::new();
//! let mut b = FunctionBuilder::new("main", 0);
//! let bound = b.constant(4);
//! let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
//! let v = b.rand(bound);
//! b.branch(v, t, e);
//! b.switch_to(t);
//! b.jump(j);
//! b.switch_to(e);
//! b.jump(j);
//! b.switch_to(j);
//! b.ret(None);
//! module.add_function(b.finish());
//! normalize_module(&mut module);
//!
//! let profiled = run(&module, "main", &RunOptions::default().traced())?;
//! let edges = profiled.edge_profile.expect("traced");
//!
//! // Instrument with PPP and run the instrumented module.
//! let plan = instrument_module(&module, Some(&edges), &ProfilerConfig::ppp());
//! let result = run(&plan.module, "main", &RunOptions::default())?;
//! assert_eq!(result.checksum, profiled.checksum); // semantics preserved
//! # Ok::<(), ppp_vm::VmError>(())
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod accuracy;
pub mod analysis;
pub mod cold;
pub mod coverage;
pub mod dag;
pub mod edge_profile;
pub mod estimate;
pub mod events;
pub mod flow;
pub mod instrument;
pub mod net;
pub mod numbering;
pub mod obvious;
pub mod plan;
pub mod poison;
pub mod profiler;
pub mod push;
pub mod sampling;
pub mod score;

pub use accuracy::{accuracy, actual_hot_paths, hot_flow_fraction, HotPath};
pub use analysis::ModuleAnalysis;
pub use coverage::{
    edge_profile_coverage, instrumented_fraction, profiler_coverage, Coverage, InstrumentedFraction,
};
pub use dag::{Dag, DagEdge, DagEdgeId, DagEdgeKind};
pub use edge_profile::{edge_instrument, EdgeInstrumentation};
pub use estimate::{
    edge_profile_estimate, profiler_estimate, EstimateOptions, EstimatedPath, EstimatedProfile,
};
pub use flow::{
    definite_flow, potential_flow, reconstruct, FlowAnalysis, FlowKind, FlowMap, FlowMetric,
    ReconstructedPath,
};
pub use instrument::{
    instrument_analyzed, instrument_module, measured_paths, normalize_module, FuncPlan, ModulePlan,
    PlacePos, Placement, SkipReason,
};
pub use net::{net_hot_flow_coverage, NetConfig, NetPredictor};
pub use profiler::{Params, PppToggles, ProfilerConfig, ProfilerKind, Technique};
pub use sampling::{sampled_module, SAMPLE_COUNTER_BASE};
pub use score::{edge_profile_score, profiler_score, EdgeScore, ProfilerScore};
