//! # ppp-lint: dataflow-based static analysis for the PPP reproduction
//!
//! A lint framework over the `ppp-ir` register machine and the `ppp-core`
//! instrumentation planner, built on a generic worklist [`dataflow`]
//! engine. Five analyses ship with the crate:
//!
//! 1. **Initialization** ([`init`]) — forward must/may assigned-register
//!    analysis; reports definite (`PPP002`) and path-dependent (`PPP004`)
//!    uses of unwritten registers.
//! 2. **Dead code** ([`deadcode`]) — unreachable blocks (`PPP001`) and,
//!    via backward liveness, pure writes never read (`PPP003`).
//! 3. **Instrumentation soundness** ([`soundness`]) — proves the
//!    Ball–Larus contract of an instrumented routine in one pass over its
//!    profiling DAG, whatever its path count: the numbering is a
//!    bijection onto `[0, N)`, and every node gets the path-register
//!    state the paths reaching it share, so each path counts exactly
//!    once, at its own id, inside its counter table, without reading
//!    stale register state (`PPP101`–`PPP105`).
//! 4. **Plan conformance** ([`conformance`]) — compares the `Prof`
//!    instructions physically present in the instrumented code against
//!    the placements the planner recorded (`PPP201`–`PPP203`), and checks
//!    that instrumentation changed nothing else (`PPP204`) by comparing
//!    each routine with the uninstrumented one. The generic lints
//!    therefore run once per module ([`ModuleLint::new`]), not once per
//!    plan ([`ModuleLint::plan`]).
//! 5. **Translation validation** ([`transval`]) — replays the
//!    [`ppp_ir::TransformWitness`] each optimizer transform emits and
//!    checks it against the source and optimized modules (CFG simulation,
//!    clone fidelity, side-effect preservation, unroll-guard
//!    justification), and checks edge profiles for shape agreement and
//!    Kirchhoff flow conservation (`PPP301`–`PPP308`).
//!
//! Diagnostics carry stable codes and render as text or JSON — see
//! [`diag`]. A report is *clean* when it contains no errors and no
//! warnings; info findings are advisory.
//!
//! ```
//! use ppp_core::{instrument_module, normalize_module, ProfilerConfig};
//! use ppp_ir::{FunctionBuilder, Module};
//!
//! let mut module = Module::new();
//! let mut b = FunctionBuilder::new("main", 0);
//! b.ret(None);
//! module.add_function(b.finish());
//! normalize_module(&mut module);
//!
//! let lint = ppp_lint::ModuleLint::new(&module);
//! let plan = instrument_module(&module, None, &ProfilerConfig::pp());
//! assert!(lint.plan(&plan).is_clean());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod conformance;
pub mod dataflow;
pub mod deadcode;
pub mod diag;
pub mod init;
pub mod soundness;
pub mod transval;

pub use dataflow::{solve, Analysis, BitSet, Direction, Solution};
pub use diag::{Code, Diagnostic, LintReport, Severity};
pub use transval::{check_profile, check_transform};

use ppp_core::ModulePlan;
use ppp_ir::{Cfg, FuncId, Module};

/// Runs the generic dataflow lints (init, dead code) on every function.
pub fn lint_module(module: &Module) -> LintReport {
    let mut report = LintReport::new();
    for (i, f) in module.functions.iter().enumerate() {
        let fid = FuncId::new(i);
        let cfg = Cfg::new(f);
        report.extend(deadcode::check_function(f, fid, &cfg));
        report.extend(init::check_function(f, fid, &cfg));
    }
    report.sort();
    report
}

/// Lints an instrumentation plan on its own: the soundness proof and the
/// placement checks of plan conformance (`PPP101`–`PPP203`). The full
/// lint of a plan is [`ModuleLint::plan`].
pub fn lint_plan(plan: &ModulePlan) -> LintReport {
    let mut report = LintReport::new();
    report.extend(soundness::check_plan(plan));
    report.extend(conformance::check_plan(plan));
    report.sort();
    report
}

/// The generic lints of one uninstrumented module, run once and shared
/// by the full lint of every plan instrumented from it.
pub struct ModuleLint<'m> {
    module: &'m Module,
    generic: LintReport,
}

impl<'m> ModuleLint<'m> {
    /// Runs [`lint_module`] on `module`.
    pub fn new(module: &'m Module) -> Self {
        ModuleLint {
            module,
            generic: lint_module(module),
        }
    }

    /// The full lint of `plan`, instrumented from this module: the
    /// generic findings, [`lint_plan`], and the check that instrumentation
    /// changed nothing the generic lints see (`PPP204`), which makes the
    /// generic findings hold for the instrumented module too.
    pub fn plan(&self, plan: &ModulePlan) -> LintReport {
        let mut report = self.generic.clone();
        report.extend(soundness::check_plan(plan));
        report.extend(conformance::check_plan(plan));
        report.extend(conformance::check_structure(self.module, plan));
        report.sort();
        report
    }
}
