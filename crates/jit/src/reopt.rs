//! The witnessed re-optimize step, shared by every generation of
//! [`run_jit`](crate::run_jit) and by the one-shot `ppp-repro` pipeline,
//! whose §7.3 front half is generation 1 of the loop with every function
//! hot.
//!
//! Each step opens a `stage.<label>` child span under the caller's span
//! and yields a `(label, LintReport)` pair: every transform's witness is
//! replayed and checked ([`ppp_lint::check_transform`], PPP3xx) and every
//! traced profile is gated for shape and flow conservation
//! ([`ppp_lint::check_profile`], PPP307/308).

use crate::{JitError, JitOptions};
use ppp_core::normalize_module;
use ppp_ir::{Module, ModuleEdgeProfile, ModulePathProfile};
use ppp_lint::LintReport;
use ppp_obs::Span;
use ppp_opt::{
    focus_profile, inline_module_witnessed, optimize_module_witnessed, select_hot_functions,
    unroll_module_witnessed, InlineOptions, InlineReport, UnrollOptions, UnrollReport,
};
use ppp_vm::{run, RunOptions, RunResult};

/// Runs `module` traced at `seed` and moves its edge and exact path
/// profiles out of the result. A traced run retires the same cost as an
/// uninstrumented one.
///
/// # Errors
///
/// [`JitError::NoMain`] when the module cannot execute,
/// [`JitError::NotTraced`] when the run came back without profiles.
pub fn traced(
    module: &Module,
    seed: u64,
    bench: &str,
) -> Result<(RunResult, ModuleEdgeProfile, ModulePathProfile), JitError> {
    let options = RunOptions::default().with_seed(seed).traced();
    let mut r = run(module, "main", &options).map_err(JitError::no_main(bench))?;
    let (Some(edges), Some(paths)) = (r.edge_profile.take(), r.path_profile.take()) else {
        return Err(JitError::NotTraced {
            benchmark: bench.to_owned(),
        });
    };
    Ok((r, edges, paths))
}

/// The `stage.profile@<at>` step: a traced run of `module` whose edge
/// profile is gated into `stages`. The stage span is handed back open so
/// the caller can attach the run's figures to it.
///
/// # Errors
///
/// As [`traced`].
pub fn profile_stage(
    module: &Module,
    at: &str,
    seed: u64,
    bench: &str,
    parent: &Span,
    stages: &mut Vec<(String, LintReport)>,
) -> Result<(Span, RunResult, ModuleEdgeProfile, ModulePathProfile), JitError> {
    let span = parent.child(&format!("stage.profile@{at}"));
    let (r, edges, paths) = traced(module, seed, bench)?;
    stages.push((
        format!("profile@{at}"),
        ppp_lint::check_profile(module, &edges),
    ));
    Ok((span, r, edges, paths))
}

/// The witnessed scalar pass then normalization, as a
/// `stage.<label>` step.
fn scalar_stage(module: &mut Module, label: &str, parent: &Span) -> (String, LintReport) {
    let _s = parent.child(&format!("stage.{label}"));
    let src = module.clone();
    let (_, w) = optimize_module_witnessed(module);
    let report = ppp_lint::check_transform(&src, &w, module);
    normalize_module(module);
    (label.to_owned(), report)
}

/// The `stage.scalar@gen` bootstrap: "standard scalar optimizations" on
/// freshly generated code (§7.3), witnessed, then normalized.
pub fn bootstrap(module: &mut Module, parent: &Span) -> (String, LintReport) {
    scalar_stage(module, "scalar@gen", parent)
}

/// What one [`reoptimize`] step produced.
#[derive(Clone, Debug)]
pub struct Reoptimized {
    /// The re-optimized module.
    pub module: Module,
    /// Inliner report.
    pub inline: InlineReport,
    /// Unroller report.
    pub unroll: UnrollReport,
    /// Functions the hot-focus pass selected.
    pub hot_functions: usize,
    /// `inline`, `profile@inline`, `unroll`, `scalar@opt` and
    /// `profile@opt` reports, in that order.
    pub stages: Vec<(String, LintReport)>,
    /// The traced run of the re-optimized module (its cost is the
    /// uninstrumented cost).
    pub run: RunResult,
    /// Edge profile of the re-optimized module.
    pub edges: ModuleEdgeProfile,
    /// Exact path profile of the re-optimized module.
    pub paths: ModulePathProfile,
}

/// Re-optimizes the functions of `module` that are hot in `profile`:
/// witnessed inline → re-profile → witnessed unroll → witnessed scalar
/// and normalization → profile (§7.3). With `hot_threshold` 0 every
/// function is hot and the profile is used as is.
///
/// # Errors
///
/// As [`traced`].
pub fn reoptimize(
    mut module: Module,
    profile: &ModuleEdgeProfile,
    bench: &str,
    options: &JitOptions,
    parent: &Span,
) -> Result<Reoptimized, JitError> {
    let mut stages = Vec::with_capacity(5);
    let hot = select_hot_functions(&module, profile, options.hot_threshold);
    let inline = {
        let _s = parent.child("stage.inline");
        let focused = focus_profile(&module, profile, &hot);
        let src = module.clone();
        let (rep, w) = inline_module_witnessed(&mut module, &focused, &InlineOptions::default());
        stages.push((
            "inline".into(),
            ppp_lint::check_transform(&src, &w, &module),
        ));
        rep
    };
    let (_, _, e1, _) = profile_stage(&module, "inline", options.seed, bench, parent, &mut stages)?;
    let unroll = {
        let _s = parent.child("stage.unroll");
        let focused = focus_profile(
            &module,
            &e1,
            &select_hot_functions(&module, &e1, options.hot_threshold),
        );
        let src = module.clone();
        let (rep, w) = unroll_module_witnessed(&mut module, &focused, &UnrollOptions::default());
        stages.push((
            "unroll".into(),
            ppp_lint::check_transform(&src, &w, &module),
        ));
        rep
    };
    stages.push(scalar_stage(&mut module, "scalar@opt", parent));
    let (mut s, run, edges, paths) =
        profile_stage(&module, "opt", options.seed, bench, parent, &mut stages)?;
    s.set("cost_units", run.cost);
    s.set("dynamic_paths", paths.total_unit_flow());
    let stats = edges.stats();
    s.set("profiled_functions", stats.functions);
    s.set("zero_functions", stats.zero_functions);
    drop(s);
    Ok(Reoptimized {
        module,
        inline,
        unroll,
        hot_functions: hot.len(),
        stages,
        run,
        edges,
        paths,
    })
}
