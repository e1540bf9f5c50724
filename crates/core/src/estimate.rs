//! Constructing estimated path profiles (§5).
//!
//! A profiling method's *estimated path profile* is what an optimizer
//! would actually consume:
//!
//! - **edge profiling**: no paths are measured; the whole profile is
//!   reconstructed from the edge profile — potential flow for accuracy
//!   (it predicts hot paths better, §6.1), definite flow for coverage;
//! - **PP/TPP/PPP**: measured counts for the instrumented paths
//!   `P_instr`, decoded back to concrete paths, plus definite-flow
//!   estimates for everything uninstrumented (`P_uninstr`). When a plan
//!   instruments nothing at all, potential flow substitutes so accuracy
//!   matches plain edge profiling (§6.1).

use crate::analysis::ModuleAnalysis;
use crate::dag::Dag;
use crate::flow::{potential_flow, reconstruct, FlowKind, FlowMetric};
use crate::instrument::{measured_paths, ModulePlan};
use crate::profiler::ProfilerKind;
use ppp_ir::{FuncId, Module, ModuleEdgeProfile, ModulePathProfile, PathKey};
use std::collections::HashMap;

/// One estimated path.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct EstimatedPath {
    /// Estimated execution frequency.
    pub freq: u64,
    /// Branch count (from the path's shape).
    pub branches: u32,
    /// Whether the estimate comes from instrumentation (vs. flow
    /// reconstruction).
    pub measured: bool,
}

impl EstimatedPath {
    /// Estimated flow under `metric`.
    pub fn flow(&self, metric: FlowMetric) -> u64 {
        metric.flow(self.freq, self.branches)
    }
}

/// An estimated path profile for a whole module.
#[derive(Clone, Debug, Default)]
pub struct EstimatedProfile {
    /// Per-function estimates, indexed by [`FuncId`].
    pub funcs: Vec<HashMap<PathKey, EstimatedPath>>,
}

impl EstimatedProfile {
    /// Iterates `(func, key, estimate)` over all paths.
    pub fn iter(&self) -> impl Iterator<Item = (FuncId, &PathKey, EstimatedPath)> {
        self.funcs
            .iter()
            .enumerate()
            .flat_map(|(i, m)| m.iter().map(move |(k, &e)| (FuncId::new(i), k, e)))
    }

    /// Number of estimated paths.
    pub fn len(&self) -> usize {
        self.funcs.iter().map(HashMap::len).sum()
    }

    /// Returns `true` when no paths are estimated.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Reconstruction limits.
#[derive(Clone, Copy, Debug)]
pub struct EstimateOptions {
    /// Flow cutoff for potential-flow reconstruction (it can enumerate
    /// exponentially many paths without one); definite flow uses 0.
    pub potential_cutoff: u64,
    /// Per-function cap on reconstructed paths.
    pub max_paths_per_func: usize,
}

impl Default for EstimateOptions {
    fn default() -> Self {
        Self {
            potential_cutoff: 0,
            max_paths_per_func: 50_000,
        }
    }
}

/// Estimates the whole program from the edge profile alone, using the
/// given flow kind (potential for accuracy, definite for coverage).
pub fn edge_profile_estimate(
    module: &Module,
    edges: &ModuleEdgeProfile,
    kind: FlowKind,
    metric: FlowMetric,
    opts: &EstimateOptions,
) -> EstimatedProfile {
    let analysis = ModuleAnalysis::new(module, Some(edges), metric, opts);
    let mut out = EstimatedProfile::empty(module);
    for fid in module.func_ids() {
        let slot = &mut out.funcs[fid.index()];
        match kind {
            FlowKind::Definite => insert_definite(&analysis, fid, slot),
            FlowKind::Potential => insert_potential(analysis.dag(fid), metric, opts, slot),
        }
    }
    out
}

impl EstimatedProfile {
    fn empty(module: &Module) -> Self {
        Self {
            funcs: vec![HashMap::new(); module.functions.len()],
        }
    }
}

/// Adds a reconstructed path unless its key is already estimated: the
/// first estimate of a key wins.
fn insert_reconstructed(
    out: &mut HashMap<PathKey, EstimatedPath>,
    key: &PathKey,
    freq: u64,
    branches: u32,
) {
    if !out.contains_key(key) {
        out.insert(
            key.clone(),
            EstimatedPath {
                freq,
                branches,
                measured: false,
            },
        );
    }
}

fn insert_definite(
    analysis: &ModuleAnalysis<'_>,
    fid: FuncId,
    out: &mut HashMap<PathKey, EstimatedPath>,
) {
    for p in analysis.definite_paths(fid) {
        insert_reconstructed(out, &p.key, p.freq, p.branches);
    }
}

fn insert_potential(
    dag: &Dag,
    metric: FlowMetric,
    opts: &EstimateOptions,
    out: &mut HashMap<PathKey, EstimatedPath>,
) {
    let flow = potential_flow(dag);
    for p in reconstruct(
        dag,
        &flow,
        FlowKind::Potential,
        metric,
        opts.potential_cutoff,
        opts.max_paths_per_func,
    ) {
        insert_reconstructed(out, &dag.path_key(&p.edges), p.freq, p.branches);
    }
}

/// Builds a profiler's estimated path profile (§5): measured paths from
/// the runtime counters, plus flow-reconstructed estimates for
/// uninstrumented paths and routines.
pub fn profiler_estimate(
    original: &Module,
    plan: &ModulePlan,
    edges: &ModuleEdgeProfile,
    store: &ppp_vm::ProfileStore,
    metric: FlowMetric,
    opts: &EstimateOptions,
) -> EstimatedProfile {
    // The plan's DAGs already carry the edge profile's frequencies.
    let _ = edges;
    let analysis = ModuleAnalysis::of_plan(original, plan, metric, opts);
    estimate_measured(&analysis, plan, &measured_paths(plan, original, store))
}

/// [`profiler_estimate`] from the plan's decoded counters `measured`,
/// with the definite-flow paths of `analysis`, which `plan` was
/// instrumented from.
pub(crate) fn estimate_measured(
    analysis: &ModuleAnalysis<'_>,
    plan: &ModulePlan,
    measured: &ModulePathProfile,
) -> EstimatedProfile {
    let mut out = EstimatedProfile::empty(analysis.module());

    // Measured paths first: they take precedence over reconstructions.
    for (fid, key, stats) in measured.iter() {
        out.funcs[fid.index()].insert(
            key.clone(),
            EstimatedPath {
                freq: stats.freq,
                branches: stats.branches,
                measured: true,
            },
        );
    }

    // Uninstrumented estimation: when nothing at all was instrumented the
    // paper falls back to potential flow (§6.1); otherwise definite flow
    // (§5) fills P_uninstr.
    let potential = plan.instrumented_count() == 0;
    for fp in &plan.funcs {
        if fp.dag.entries() == 0 && plan.config.kind != ProfilerKind::Pp {
            continue; // never ran: nothing to estimate
        }
        let slot = &mut out.funcs[fp.func.index()];
        if potential {
            insert_potential(&fp.dag, analysis.metric(), analysis.options(), slot);
        } else {
            debug_assert!(
                fp.dag == *analysis.dag(fp.func),
                "plan and analysis disagree"
            );
            insert_definite(analysis, fp.func, slot);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::{instrument_module, normalize_module};
    use crate::profiler::ProfilerConfig;
    use ppp_ir::{BinOp, FunctionBuilder};
    use ppp_vm::{run, RunOptions};

    fn workload() -> Module {
        let mut m = Module::new();
        let mut mb = FunctionBuilder::new("main", 0);
        let n = mb.constant(300);
        mb.call_void(FuncId(1), vec![n]);
        mb.ret(None);
        m.add_function(mb.finish());

        // A loop whose two branches are driven by one hidden value: the
        // path profile correlates, the edge profile cannot see it.
        let mut fb = FunctionBuilder::new("work", 1);
        let i = fb.param(0);
        let hdr = fb.new_block();
        let body = fb.new_block();
        let l1 = fb.new_block();
        let r1 = fb.new_block();
        let mid = fb.new_block();
        let l2 = fb.new_block();
        let r2 = fb.new_block();
        let latch = fb.new_block();
        let exit = fb.new_block();
        fb.jump(hdr);
        fb.switch_to(hdr);
        fb.branch(i, body, exit);
        fb.switch_to(body);
        let two = fb.constant(2);
        let s = fb.rand(two);
        fb.branch(s, l1, r1);
        fb.switch_to(l1);
        fb.jump(mid);
        fb.switch_to(r1);
        fb.jump(mid);
        fb.switch_to(mid);
        fb.branch(s, l2, r2); // perfectly correlated with the first branch
        fb.switch_to(l2);
        fb.jump(latch);
        fb.switch_to(r2);
        fb.jump(latch);
        fb.switch_to(latch);
        let one = fb.constant(1);
        fb.binary_to(i, BinOp::Sub, i, one);
        fb.jump(hdr);
        fb.switch_to(exit);
        fb.ret(None);
        m.add_function(fb.finish());
        normalize_module(&mut m);
        m
    }

    #[test]
    fn edge_estimate_produces_paths_for_both_kinds() {
        let m = workload();
        let r = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let edges = r.edge_profile.unwrap();
        let opts = EstimateOptions::default();
        let pot = edge_profile_estimate(&m, &edges, FlowKind::Potential, FlowMetric::Branch, &opts);
        let def = edge_profile_estimate(&m, &edges, FlowKind::Definite, FlowMetric::Branch, &opts);
        assert!(!pot.is_empty());
        // Potential flow enumerates at least as many paths as definite.
        assert!(pot.len() >= def.len());
    }

    #[test]
    fn edge_estimate_cannot_distinguish_correlated_paths() {
        // With 50/50 correlated branches, the true hot paths are LL and RR,
        // but potential flow rates all four combinations equally.
        let m = workload();
        let r = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let truth = r.path_profile.unwrap();
        let edges = r.edge_profile.unwrap();
        let est = edge_profile_estimate(
            &m,
            &edges,
            FlowKind::Potential,
            FlowMetric::Branch,
            &EstimateOptions::default(),
        );
        // Ground truth: only 2 of the 4 iteration paths execute.
        // Iteration paths start at the loop header (b1); the function-entry
        // path starts at b0 and is excluded.
        let work = FuncId(1);
        let hdr = ppp_ir::BlockId(1);
        let iteration_paths_truth = truth
            .func(work)
            .paths
            .keys()
            .filter(|k| k.start == hdr && k.edges.len() >= 5)
            .count();
        assert_eq!(iteration_paths_truth, 2, "correlation: only LL and RR run");
        let iteration_paths_est = est.funcs[work.index()]
            .keys()
            .filter(|k| k.start == hdr && k.edges.len() >= 5)
            .count();
        assert!(
            iteration_paths_est >= 4,
            "edge profile sees all four combinations"
        );
    }

    #[test]
    fn profiler_estimate_marks_measured_paths() {
        let m = workload();
        let r = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let edges = r.edge_profile.unwrap();
        let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::ppp());
        let ir = run(&plan.module, "main", &RunOptions::default()).unwrap();
        let est = profiler_estimate(
            &m,
            &plan,
            &edges,
            &ir.store,
            FlowMetric::Branch,
            &EstimateOptions::default(),
        );
        assert!(est.iter().any(|(_, _, e)| e.measured));
        // Measured hot iteration paths should dominate the estimate.
        let work = FuncId(1);
        let hot: Vec<_> = est.funcs[work.index()]
            .iter()
            .filter(|(_, e)| e.measured && e.freq > 50)
            .collect();
        assert!(!hot.is_empty(), "hot correlated paths must be measured");
    }
}
