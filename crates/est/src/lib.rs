//! `ppp-est` — static branch prediction and frequency propagation.
//!
//! A dynamic optimizer's first generation has no profile: cold-start
//! planning must run on *predicted* flow. This crate produces that
//! prediction as a [`ModuleEdgeProfile`] that is indistinguishable,
//! interface-wise, from a measured profile — shape-matched and exactly
//! Kirchhoff-flow-conservative (PPP308) — so every downstream consumer
//! (the instrumentation planner, the potential-flow estimator, the
//! degradation ladder) takes it without special cases.
//!
//! The pipeline is three classic passes:
//!
//! 1. [`heur`] — Ball–Larus syntactic branch heuristics (loop-branch,
//!    loop-exit, loop-header, call, return, store, opcode, guard)
//!    combined Dempster–Shafer-style into one taken-probability per
//!    branch;
//! 2. [`freq`] — Wu–Larus loop-nest frequency propagation with capped
//!    trip counts and explicit irreducible-region handling;
//! 3. [`flow`] — exact integerization by path/cycle decomposition, so
//!    conservation holds by construction rather than by repair.
//!
//! Findings flow through `ppp-lint` as the stable PPP5xx band:
//! PPP501 irreducible-region-capped, PPP502 heuristic-conflict,
//! PPP503 non-conservative-estimate-repaired, PPP504 estimate-zeroed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod flow;
pub mod freq;
pub mod heur;

pub use heur::{FuncPredictions, HEURISTIC_NAMES, PROB_CLAMP};

use ppp_ir::{
    analyze_loops, BlockId, EdgeRef, FuncEdgeProfile, FuncId, Function, Module, ModuleEdgeProfile,
};
use ppp_lint::{Code, Diagnostic, LintReport};

/// Knobs for the estimator.
#[derive(Clone, Copy, Debug)]
pub struct EstOptions {
    /// Flow units injected at every function's entry block.
    pub entry_flow: u64,
    /// Trip-count cap: no loop amplifies its inflow by more than this.
    pub max_trip: f64,
    /// Replace every heuristic with a uniform split over successors —
    /// the baseline `repro predict` measures the heuristics against.
    pub uniform: bool,
}

impl Default for EstOptions {
    fn default() -> Self {
        Self {
            entry_flow: 1_000_000,
            max_trip: 64.0,
            uniform: false,
        }
    }
}

/// Aggregate statistics for one [`estimate_module`] run.
#[derive(Clone, Debug, Default)]
pub struct EstStats {
    /// Functions estimated.
    pub funcs: u64,
    /// Functions zeroed because no return is reachable (PPP504).
    pub zeroed_funcs: u64,
    /// Multi-way branches predicted.
    pub branches: u64,
    /// Branches each heuristic fired on, indexed like
    /// [`HEURISTIC_NAMES`].
    pub heuristic_fires: [u64; 8],
    /// Branches with strongly disagreeing heuristics (PPP502).
    pub conflicts: u64,
    /// Irreducible retreating edges encountered (PPP501).
    pub irreducible_edges: u64,
    /// Loops whose cyclic probability hit the trip cap.
    pub trip_caps: u64,
    /// Natural loops whose multipliers were computed.
    pub loops: u64,
    /// Block visits across all propagation passes.
    pub propagation_visits: u64,
    /// Entry-to-return path components extracted.
    pub paths: u64,
    /// Cycle components extracted.
    pub cycles: u64,
    /// Flow dropped while repairing non-conservative real flow
    /// (PPP503), in counts.
    pub discarded_flow: u64,
}

/// The outcome of estimating a whole module: statistics plus PPP5xx
/// diagnostics.
#[derive(Clone, Debug, Default)]
pub struct EstReport {
    /// Aggregate statistics.
    pub stats: EstStats,
    /// PPP501–PPP504 findings, sorted.
    pub diagnostics: LintReport,
}

fn diag(code: Code, fid: FuncId, f: &Function, block: Option<BlockId>, msg: String) -> Diagnostic {
    Diagnostic {
        code,
        func: fid,
        func_name: f.name.clone(),
        block,
        message: msg,
    }
}

/// Statically estimates one function's edge profile.
///
/// The returned profile always shape-matches `f` and satisfies flow
/// conservation exactly. Findings and statistics are appended to
/// `report`.
pub fn estimate_function(
    f: &Function,
    fid: FuncId,
    opts: &EstOptions,
    report: &mut EstReport,
) -> FuncEdgeProfile {
    let (cfg, dom, loops) = analyze_loops(f);
    report.stats.funcs += 1;

    let can_exit = freq::reaches_return(f, &cfg);
    if !can_exit[cfg.entry().index()] {
        report.stats.zeroed_funcs += 1;
        report.diagnostics.push(diag(
            Code::EstimateZeroed,
            fid,
            f,
            Some(cfg.entry()),
            "no return block is reachable from entry; static estimate zeroed".into(),
        ));
        return FuncEdgeProfile::zeroed(f);
    }

    let preds = heur::predict_function(f, &cfg, &dom, &loops, opts.uniform);
    report.stats.branches += preds.branches;
    for (i, n) in preds.fired.iter().enumerate() {
        report.stats.heuristic_fires[i] += n;
    }
    report.stats.conflicts += preds.conflicts.len() as u64;
    for &b in &preds.conflicts {
        report.diagnostics.push(diag(
            Code::HeuristicConflict,
            fid,
            f,
            Some(b),
            "branch heuristics strongly disagree; combined estimate is weak".into(),
        ));
    }

    let irreducible = loops.irreducible_edges();
    if !irreducible.is_empty() {
        report.stats.irreducible_edges += irreducible.len() as u64;
        report.diagnostics.push(diag(
            Code::IrreducibleRegionCapped,
            fid,
            f,
            Some(irreducible[0].from),
            format!(
                "{} irreducible retreating edge(s) receive zero trip credit",
                irreducible.len()
            ),
        ));
    }

    let flow = freq::propagate(
        f,
        &cfg,
        &loops,
        &can_exit,
        &preds,
        opts.entry_flow as f64,
        opts.max_trip,
    );
    report.stats.trip_caps += flow.trip_caps;
    report.stats.loops += flow.loops;
    report.stats.propagation_visits += flow.visits;

    let (profile, dstats) = flow::integerize(f, &cfg, &flow, opts.entry_flow as f64);
    report.stats.paths += dstats.paths;
    report.stats.cycles += dstats.cycles;
    report.stats.discarded_flow += dstats.discarded;
    if dstats.discarded > 0 {
        report.diagnostics.push(diag(
            Code::EstimateRepaired,
            fid,
            f,
            None,
            format!(
                "{} counts of non-conservative real flow dropped to restore \
                 exact conservation",
                dstats.discarded
            ),
        ));
    }

    debug_assert!(
        profile.is_flow_conservative(f),
        "{}: static estimate violates flow conservation",
        f.name
    );
    profile
}

/// Statically estimates every function of `module`.
///
/// The returned [`ModuleEdgeProfile`] shape-matches the module and is
/// flow-conservative everywhere; `ppp_est_*` metrics are recorded on
/// the ambient [`ppp_obs`] context.
pub fn estimate_module(module: &Module, opts: &EstOptions) -> (ModuleEdgeProfile, EstReport) {
    let mut report = EstReport::default();
    let mut out = ModuleEdgeProfile::zeroed(module);
    for (i, f) in module.functions.iter().enumerate() {
        let fid = FuncId::new(i);
        *out.func_mut(fid) = estimate_function(f, fid, opts, &mut report);
    }
    report.diagnostics.sort();
    record_metrics(&report, opts);
    (out, report)
}

fn record_metrics(report: &EstReport, opts: &EstOptions) {
    let obs = ppp_obs::global();
    let m = obs.metrics();
    let mode = if opts.uniform { "uniform" } else { "heuristic" };
    let k = [("mode", mode)];
    m.inc_by("ppp_est_funcs_total", &k, report.stats.funcs);
    m.inc_by("ppp_est_zeroed_funcs_total", &k, report.stats.zeroed_funcs);
    for (i, name) in HEURISTIC_NAMES.iter().enumerate() {
        if report.stats.heuristic_fires[i] > 0 {
            m.inc_by(
                "ppp_est_branches_total",
                &[("mode", mode), ("heuristic", name)],
                report.stats.heuristic_fires[i],
            );
        }
    }
    m.inc_by("ppp_est_conflicts_total", &k, report.stats.conflicts);
    m.inc_by(
        "ppp_est_irreducible_edges_total",
        &k,
        report.stats.irreducible_edges,
    );
    m.inc_by("ppp_est_trip_caps_total", &k, report.stats.trip_caps);
    m.inc_by("ppp_est_loops_total", &k, report.stats.loops);
    m.inc_by(
        "ppp_est_propagation_block_visits_total",
        &k,
        report.stats.propagation_visits,
    );
    m.inc_by(
        "ppp_est_components_total",
        &[("mode", mode), ("shape", "path")],
        report.stats.paths,
    );
    m.inc_by(
        "ppp_est_components_total",
        &[("mode", mode), ("shape", "cycle")],
        report.stats.cycles,
    );
    m.inc_by(
        "ppp_est_discarded_flow_total",
        &k,
        report.stats.discarded_flow,
    );
}

/// The statically hottest acyclic entry-to-return path of `f` under
/// `profile` (greedy maximum-flow successor walk) — the static analogue
/// of PPP's hot-path selection, used to seed first-generation path
/// instrumentation.
pub fn hottest_path(f: &Function, profile: &FuncEdgeProfile) -> Vec<BlockId> {
    let cfg = ppp_ir::Cfg::new(f);
    let mut path = vec![cfg.entry()];
    let mut b = cfg.entry();
    let mut seen = vec![false; f.blocks.len()];
    seen[b.index()] = true;
    while !f.block(b).term.is_return() {
        let n = f.block(b).term.successor_count();
        let mut best: Option<(BlockId, u64)> = None;
        for s in 0..n {
            let e = EdgeRef::new(b, s);
            let tgt = f.edge_target(e);
            if seen[tgt.index()] {
                continue;
            }
            let w = profile.edge(e);
            if best.is_none_or(|(_, bw)| w > bw) {
                best = Some((tgt, w));
            }
        }
        let Some((tgt, _)) = best else { break };
        seen[tgt.index()] = true;
        path.push(tgt);
        b = tgt;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::{FunctionBuilder, Reg};

    fn diamond() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(Reg(0), t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn diamond_estimate_is_conservative_and_nonzero() {
        let m = diamond();
        let (p, r) = estimate_module(&m, &EstOptions::default());
        assert!(p.shape_matches(&m));
        assert!(p.is_flow_conservative(&m));
        assert!(!p.func(FuncId(0)).is_zero());
        assert_eq!(r.stats.funcs, 1);
        assert_eq!(r.stats.zeroed_funcs, 0);
        assert!(r.diagnostics.is_clean());
    }

    /// entry -> header; header -> {body, exit}; body -> header.
    fn header_loop() -> (Module, BlockId) {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 1);
        let (h, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(h);
        b.switch_to(h);
        b.branch(Reg(0), body, exit);
        b.switch_to(body);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        m.add_function(b.finish());
        (m, h)
    }

    #[test]
    fn loop_flow_is_amplified() {
        let (m, h) = header_loop();
        let (p, r) = estimate_module(&m, &EstOptions::default());
        assert!(p.is_flow_conservative(&m));
        let f = p.func(FuncId(0));
        // The loop-branch heuristic must make the header hotter than the
        // entry: the back edge is predicted taken.
        assert!(f.block(h) > f.entries(), "loop not amplified: {f:?}");
        assert_eq!(r.stats.loops, 1);
        // The branch sits at the header: loop-exit fires, not
        // loop-branch (the back edge is the latch's jump).
        assert!(r.stats.heuristic_fires[1] > 0, "loop-exit never fired");
    }

    #[test]
    fn latch_branch_fires_loop_branch_heuristic() {
        // entry -> h; h -> body; body(branch) -> {h, exit}.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 1);
        let (h, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(h);
        b.switch_to(h);
        b.jump(body);
        b.switch_to(body);
        b.branch(Reg(0), h, exit);
        b.switch_to(exit);
        b.ret(None);
        m.add_function(b.finish());
        let (p, r) = estimate_module(&m, &EstOptions::default());
        assert!(p.is_flow_conservative(&m));
        assert!(r.stats.heuristic_fires[0] > 0, "loop-branch never fired");
        let f = p.func(FuncId(0));
        // Loop-branch, loop-exit, and return all agree here, so the
        // combined back-edge probability is high; the trip cap bounds
        // the amplification at 64.
        let trips = f.block(h) as f64 / f.entries().max(1) as f64;
        assert!((4.0..=64.0).contains(&trips), "trips: {trips}");
    }

    #[test]
    fn uniform_mode_fires_no_heuristics() {
        let m = diamond();
        let opts = EstOptions {
            uniform: true,
            ..EstOptions::default()
        };
        let (p, r) = estimate_module(&m, &opts);
        assert!(p.is_flow_conservative(&m));
        assert_eq!(r.stats.heuristic_fires, [0; 8]);
        // A uniform diamond splits the entry flow in half.
        let f = p.func(FuncId(0));
        let half = f.edge(EdgeRef::new(BlockId(0), 0)) as i64;
        let other = f.edge(EdgeRef::new(BlockId(0), 1)) as i64;
        assert!((half - other).abs() <= 1, "{half} vs {other}");
    }

    #[test]
    fn estimate_records_est_metrics_on_the_ambient_context() {
        let previous = ppp_obs::global();
        let (ctx, _collect) = ppp_obs::ObsCtx::collecting();
        ppp_obs::install_global(ctx.clone());
        let (_, r) = estimate_module(&header_loop().0, &EstOptions::default());
        ppp_obs::install_global(previous);
        // Sibling tests may estimate into the same context meanwhile,
        // so this run's figures are lower bounds.
        let metrics = ctx.metrics();
        let k = [("mode", "heuristic")];
        assert!(metrics.counter_value("ppp_est_funcs_total", &k) >= r.stats.funcs);
        assert!(metrics.counter_value("ppp_est_loops_total", &k) >= r.stats.loops);
        for (name, &fires) in HEURISTIC_NAMES.iter().zip(&r.stats.heuristic_fires) {
            let k = [("mode", "heuristic"), ("heuristic", *name)];
            assert!(metrics.counter_value("ppp_est_branches_total", &k) >= fires);
        }
        assert_eq!((r.stats.funcs, r.stats.loops), (1, 1));
        assert!(r.stats.branches > 0);
    }

    #[test]
    fn hottest_path_walks_entry_to_return() {
        let m = diamond();
        let (p, _) = estimate_module(&m, &EstOptions::default());
        let path = hottest_path(m.function(FuncId(0)), p.func(FuncId(0)));
        assert_eq!(path.first(), Some(&BlockId(0)));
        assert_eq!(path.last(), Some(&BlockId(3)));
    }
}
