//! The end-to-end instrumentation pipeline: PP, TPP, and PPP (§3–4).
//!
//! [`instrument_module`] clones a module and rewrites each routine:
//!
//! 1. build the profiling [`Dag`] (§3.1);
//! 2. **PPP/LC**: skip routines the edge profile already covers (§4.1);
//! 3. mark cold edges — local criterion (§3.2), PPP's global criterion
//!    (§4.2) with the self-adjusting loop (§4.3) — and disconnect obvious
//!    loops (§3.2); skip all-obvious routines;
//! 4. number paths (Fig. 2 / Fig. 6) and run event counting (§3.1/§4.5);
//! 5. place and push instrumentation (§3.1/§4.4);
//! 6. poison cold edges — free (§4.6) or checked (§3.2);
//! 7. declare the counter table (array, or 701×3 hash above 4000 paths)
//!    and lower the op lists onto CFG edges (splitting critical edges).
//!
//! The returned [`ModulePlan`] retains everything needed to *decode*
//! runtime counters back into concrete paths ([`measured_paths`]).
//!
//! [`instrument_analyzed`] instruments from a [`ModuleAnalysis`], so
//! every configuration of a benchmark shares one DAG, loop forest and
//! definite flow per routine; [`instrument_module`] analyzes first.

use crate::analysis::ModuleAnalysis;
use crate::cold::{cold_edges, union_cold, ColdCriteria};
use crate::dag::{Dag, DagEdgeId, DagEdgeKind};
use crate::estimate::EstimateOptions;
use crate::events::{event_counting, TreeWeights};
use crate::flow::FlowMetric;
use crate::numbering::{decode_path, number_paths, Numbering, NumberingOrder};
use crate::obvious::{all_paths_obvious, disconnectable_loops};
use crate::plan::{combine, lower, PlanOp};
use crate::poison::{apply_poisoning, PoisonMode};
use crate::profiler::{ProfilerConfig, ProfilerKind};
use crate::push::{place_and_push, PushConfig};
use ppp_ir::{
    Cfg, EdgeRef, FuncId, Function, Inst, Module, ModuleEdgeProfile, ModulePathProfile, ProfOp,
    TableDecl, TableId, TableKind,
};
use std::collections::HashMap;
use std::sync::Arc;

/// Why a routine was left uninstrumented.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum SkipReason {
    /// The profile shows the routine never ran.
    NeverExecuted,
    /// PPP §4.1: edge-profile coverage met the threshold.
    HighCoverage(f64),
    /// Every counted path is obvious (§3.2): the edge profile is exact.
    AllObvious,
    /// Cold marking removed every path.
    NoCountedPaths,
}

/// Whether a lowered op list was inserted at the start or the end of its
/// block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PlacePos {
    /// Ops were prepended at the block start (sole-incoming-edge target).
    Prepend,
    /// Ops were appended at the block end (sole-outgoing-edge source, a
    /// freshly split edge block, or the single-block count).
    Append,
}

/// One physical instrumentation insertion: which block received a lowered
/// op list and where. Recorded so `ppp-lint`'s plan-conformance analysis
/// can re-derive the expected `Prof` layout of every block and compare it
/// against the instrumented code.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Placement {
    /// Block that received the ops (possibly created by edge splitting).
    pub block: ppp_ir::BlockId,
    /// Start-of-block or end-of-block insertion.
    pub pos: PlacePos,
    /// The lowered profiling ops, in block order.
    pub ops: Vec<ppp_ir::ProfOp>,
}

/// Per-routine instrumentation outcome.
#[derive(Clone, PartialEq, Debug)]
pub struct FuncPlan {
    /// The routine.
    pub func: FuncId,
    /// Whether instrumentation was inserted.
    pub instrumented: bool,
    /// Why not, when not.
    pub skip_reason: Option<SkipReason>,
    /// The profiling DAG (pre-instrumentation CFG), shared with the
    /// [`ModuleAnalysis`] the plan was instrumented from.
    pub dag: Arc<Dag>,
    /// Cold-edge mask.
    pub cold: Vec<bool>,
    /// Path numbering over the pruned DAG (when instrumented).
    pub numbering: Option<Numbering>,
    /// Counter table (when instrumented).
    pub table: Option<TableId>,
    /// Hot path count `N`.
    pub n_paths: u64,
    /// Whether the counter table is hash-backed.
    pub uses_hash: bool,
    /// Self-adjusting-criterion iterations used (§4.3).
    pub sac_iterations: u32,
    /// Obvious loops disconnected.
    pub disconnected_loops: usize,
    /// Final per-DAG-edge op lists (for inspection and tests).
    pub edge_ops: Vec<Vec<PlanOp>>,
    /// Where each lowered op list physically landed (empty when not
    /// instrumented).
    pub placements: Vec<Placement>,
    /// Whether counts use the checked (poison-testing) variants.
    pub checked: bool,
    /// Edge-profile coverage estimate used by LC (branch metric).
    pub lc_coverage: f64,
}

/// A fully planned, instrumented module.
#[derive(Clone, Debug)]
pub struct ModulePlan {
    /// The instrumented clone (run this in the VM).
    pub module: Module,
    /// Per-routine plans, indexed by [`FuncId`].
    pub funcs: Vec<FuncPlan>,
    /// The configuration that produced this plan.
    pub config: ProfilerConfig,
}

impl ModulePlan {
    /// Number of instrumented routines.
    pub fn instrumented_count(&self) -> usize {
        self.funcs.iter().filter(|f| f.instrumented).count()
    }

    /// Total static instrumentation instructions inserted.
    pub fn static_prof_insts(&self) -> usize {
        self.module
            .functions
            .iter()
            .map(Function::prof_inst_count)
            .sum()
    }

    /// The plan's placements as op lists placed into `original`, the
    /// module the plan was instrumented from: a prepended list runs when
    /// its block is entered, an appended one when its block is left, and
    /// a split block's list when its edge is taken. Fed to
    /// [`ppp_vm::PlanConsumers`] beside [`ModulePlan::module`], they give
    /// the plan's instrumented run from a run of `original`.
    ///
    /// That holds when the instrumented routines differ from `original`
    /// only by the placed ops and split edges, as a clean plan lint
    /// proves (PPP204 and the conformance check).
    pub fn op_sites(&self, original: &Module) -> Vec<(FuncId, ppp_vm::OpSite, Vec<ProfOp>)> {
        use ppp_vm::OpSite;
        let mut sites = Vec::new();
        for fp in self.funcs.iter().filter(|fp| !fp.placements.is_empty()) {
            let func = fp.func;
            let n = original.function(func).blocks.len();
            // Every block past the original ones is one split edge.
            let mut split_of = HashMap::new();
            for (b, block) in self.module.function(func).iter_blocks().take(n) {
                for s in 0..block.term.successor_count() {
                    let target = block.term.successor(s).expect("in-range successor");
                    if target.index() >= n {
                        let e = EdgeRef::new(b, s);
                        split_of.insert(target, e);
                        sites.push((func, OpSite::Split(e), Vec::new()));
                    }
                }
            }
            // A later prepend lands in front of an earlier one.
            for p in fp.placements.iter().rev() {
                if p.pos == PlacePos::Prepend {
                    sites.push((func, OpSite::Enter(p.block), p.ops.clone()));
                }
            }
            for p in &fp.placements {
                if p.pos == PlacePos::Append {
                    let site = match split_of.get(&p.block) {
                        Some(&e) => OpSite::Split(e),
                        None => OpSite::Leave(p.block),
                    };
                    sites.push((func, site, p.ops.clone()));
                }
            }
        }
        sites
    }
}

/// Normalizes every function for profiling: unique exit block and
/// predecessor-free entry. Run this (on both the traced and instrumented
/// copies — they must share block ids) before profiling.
pub fn normalize_module(module: &mut Module) {
    ppp_ir::transform::normalize_for_profiling(module);
}

/// Instruments `module` per `config`.
///
/// `profile` is required for TPP and PPP (they are profile-guided); PP
/// ignores it.
///
/// # Panics
///
/// Panics if TPP/PPP is requested without a profile, or if the module was
/// not [`normalize_module`]d.
pub fn instrument_module(
    module: &Module,
    profile: Option<&ModuleEdgeProfile>,
    config: &ProfilerConfig,
) -> ModulePlan {
    let analysis = ModuleAnalysis::new(
        module,
        profile,
        FlowMetric::Branch,
        &EstimateOptions::default(),
    );
    instrument_analyzed(&analysis, config)
}

/// Instruments the analyzed module per `config`, reusing the analysis's
/// DAGs, loop forests and definite flows; equal to [`instrument_module`]
/// over the analysis's module and profile.
///
/// # Panics
///
/// Panics if TPP/PPP is requested from an analysis without a profile.
pub fn instrument_analyzed(analysis: &ModuleAnalysis<'_>, config: &ProfilerConfig) -> ModulePlan {
    let (module, profile) = (analysis.module(), analysis.profile());
    assert!(
        config.kind == ProfilerKind::Pp || profile.is_some(),
        "{} requires an edge profile",
        config.kind.name()
    );
    let mut out_module = module.clone();
    let funcs = module
        .func_ids()
        .map(|fid| plan_function(analysis, fid, config, &mut out_module))
        .collect();
    ModulePlan {
        module: out_module,
        funcs,
        config: *config,
    }
}

fn plan_function(
    analysis: &ModuleAnalysis<'_>,
    fid: FuncId,
    config: &ProfilerConfig,
    out_module: &mut Module,
) -> FuncPlan {
    let f = analysis.module().function(fid);
    let profile = analysis.profile().map(|p| p.func(fid));
    let program_unit_flow = analysis.program_unit_flow();
    let dag = Arc::clone(analysis.dag(fid));
    let ne = dag.edge_count();
    let p = &config.params;
    let mut plan = FuncPlan {
        func: fid,
        instrumented: false,
        skip_reason: None,
        cold: vec![false; ne],
        numbering: None,
        table: None,
        n_paths: 0,
        uses_hash: false,
        sac_iterations: 0,
        disconnected_loops: 0,
        edge_ops: vec![Vec::new(); ne],
        placements: Vec::new(),
        checked: false,
        lc_coverage: 0.0,
        dag,
    };
    let dag = &plan.dag;

    let guided = config.kind != ProfilerKind::Pp;
    if guided && dag.entries() == 0 {
        plan.skip_reason = Some(SkipReason::NeverExecuted);
        return plan;
    }

    // LC (§4.1): coverage the edge profile already provides.
    if guided {
        let total = dag.total_branch_flow();
        plan.lc_coverage = if total == 0 {
            1.0
        } else {
            let df = analysis.definite_flow(fid);
            df.entry_map(dag).total_flow(FlowMetric::Branch) as f64 / total as f64
        };
        if config.kind == ProfilerKind::Ppp
            && config.toggles.low_coverage
            && plan.lc_coverage >= p.lc_coverage
        {
            plan.skip_reason = Some(SkipReason::HighCoverage(plan.lc_coverage));
            return plan;
        }
    }

    // Cold edges (§3.2, §4.2) and obvious loops (§3.2).
    let mut sac_iterations = 0u32;
    let mut disconnected_loops = 0usize;
    let cold = if !guided {
        vec![false; ne]
    } else {
        let profile = profile.expect("guided profilers have a profile");
        let forest = analysis.loops(fid);
        let mut disconnect = |current: &[bool]| -> Vec<bool> {
            let loops = disconnectable_loops(f, dag, forest, profile, current, p.obvious_loop_trip);
            disconnected_loops = loops.len();
            let mut mask = current.to_vec();
            for l in &loops {
                for &e in &l.cold_edges {
                    mask[e.index()] = true;
                }
            }
            mask
        };
        match config.kind {
            ProfilerKind::Tpp => {
                // TPP applies the local criterion only when it converts a
                // hash-table routine into an array routine (§3.2).
                let none = vec![false; ne];
                let n_full = number_paths(dag, &none, NumberingOrder::BallLarus).n_paths;
                let base = if n_full > p.hash_threshold {
                    let local = cold_edges(dag, &ColdCriteria::local_only(p.cold_local_ratio));
                    let n_pruned = number_paths(dag, &local, NumberingOrder::BallLarus).n_paths;
                    if n_pruned <= p.hash_threshold {
                        local
                    } else {
                        none
                    }
                } else {
                    none
                };
                disconnect(&base)
            }
            ProfilerKind::Ppp => {
                // Local always; global when SAC is enabled (§4.2);
                // self-adjust the global threshold until the routine fits
                // in an array (§4.3).
                let local = cold_edges(dag, &ColdCriteria::local_only(p.cold_local_ratio));
                let mut global_ratio = p.cold_global_ratio;
                let mut current = if config.toggles.global_cold_and_sac {
                    let global = cold_edges(
                        dag,
                        &ColdCriteria {
                            local_ratio: 0.0,
                            global_ratio: Some(global_ratio),
                            program_unit_flow,
                        },
                    );
                    let both = union_cold(&local, &global);
                    // A routine whose *every* edge sits below the global
                    // threshold is usually genuinely cold (skip it), but
                    // long-path routines can carry real branch flow at low
                    // edge frequencies; if the local criterion alone keeps
                    // the routine alive, prefer it over zeroing.
                    if number_paths(dag, &both, NumberingOrder::BallLarus).n_paths == 0
                        && number_paths(dag, &local, NumberingOrder::BallLarus).n_paths > 0
                        && dag.total_branch_flow() as f64
                            > program_unit_flow as f64 * p.global_keep_alive_ratio
                    {
                        local.clone()
                    } else {
                        both
                    }
                } else {
                    local.clone()
                };
                current = disconnect(&current);
                if config.toggles.global_cold_and_sac {
                    // Self-adjusting loop (§4.3): raise the global
                    // threshold until the routine fits in an array — but
                    // never let the escalation destroy the routine's hot
                    // paths entirely. If an iteration would leave zero
                    // counted paths (uniform edge frequencies cross the
                    // threshold all at once), revert to the last useful
                    // mask and accept hashing instead.
                    loop {
                        let n = number_paths(dag, &current, NumberingOrder::BallLarus).n_paths;
                        if n <= p.hash_threshold || sac_iterations >= p.sac_max_iters {
                            break;
                        }
                        sac_iterations += 1;
                        global_ratio *= p.sac_multiplier;
                        let global = cold_edges(
                            dag,
                            &ColdCriteria {
                                local_ratio: 0.0,
                                global_ratio: Some(global_ratio),
                                program_unit_flow,
                            },
                        );
                        let candidate = disconnect(&union_cold(&local, &global));
                        let n_candidate =
                            number_paths(dag, &candidate, NumberingOrder::BallLarus).n_paths;
                        if n_candidate == 0 && n > 0 {
                            break; // keep `current`; the table will hash
                        }
                        current = candidate;
                    }
                }
                current
            }
            ProfilerKind::Pp => unreachable!("handled above"),
        }
    };
    plan.cold = cold;
    plan.sac_iterations = sac_iterations;
    plan.disconnected_loops = disconnected_loops;

    // Numbering (Fig. 2 / Fig. 6).
    let spn = config.kind == ProfilerKind::Ppp && config.toggles.smart_numbering;
    let order = if spn {
        NumberingOrder::SmartDecreasingFreq
    } else {
        NumberingOrder::BallLarus
    };
    let numbering = number_paths(&plan.dag, &plan.cold, order);
    plan.n_paths = numbering.n_paths;
    if numbering.n_paths == 0 {
        plan.skip_reason = Some(SkipReason::NoCountedPaths);
        return plan;
    }

    // All-obvious routines need no instrumentation (§3.2) — the edge
    // profile reconstructs them exactly.
    if guided && all_paths_obvious(&plan.dag, &plan.cold, &numbering) == Some(true) {
        plan.skip_reason = Some(SkipReason::AllObvious);
        plan.numbering = Some(numbering);
        return plan;
    }

    // Event counting (§3.1/§4.5), placement, pushing (§3.1/§4.4).
    let weights = if spn {
        TreeWeights::Measured
    } else {
        TreeWeights::Static
    };
    let inc = event_counting(&plan.dag, &plan.cold, &numbering, weights);
    let checked = config.kind == ProfilerKind::Ppp && !config.toggles.free_poisoning;
    let push_cfg = PushConfig {
        ignore_cold: config.kind == ProfilerKind::Ppp && config.toggles.push_past_cold,
        merge_set_count: !checked,
    };
    let mut ops = place_and_push(&plan.dag, &plan.cold, &inc, &numbering, push_cfg);

    // Poisoning (§3.2/§4.6).
    let mode = if checked {
        PoisonMode::Checked
    } else {
        PoisonMode::Free
    };
    let outcome = apply_poisoning(&plan.dag, &plan.cold, &mut ops, numbering.n_paths, mode);

    // Counter table (§7.4).
    plan.uses_hash = numbering.n_paths > p.hash_threshold;
    let kind = if plan.uses_hash {
        TableKind::Hash {
            slots: p.hash_slots,
            max_probes: p.hash_probes,
        }
    } else {
        TableKind::Array {
            size: outcome.max_counter_index + 1,
        }
    };
    let table = out_module.add_table(TableDecl {
        func: fid,
        kind,
        hot_paths: numbering.n_paths,
    });

    // Lower onto the cloned function.
    let mut placements = apply_ops(
        out_module.function_mut(fid),
        &plan.dag,
        &ops,
        table,
        checked,
    );
    if plan.dag.entry == plan.dag.exit {
        // Single-block routine: its one (empty) path has no edge to carry
        // a count, so count it in the block body.
        let entry = plan.dag.entry;
        let count = ppp_ir::ProfOp::CountConst { table, index: 0 };
        out_module
            .function_mut(fid)
            .block_mut(entry)
            .insts
            .push(Inst::Prof(count));
        placements.push(Placement {
            block: entry,
            pos: PlacePos::Append,
            ops: vec![count],
        });
    }
    plan.placements = placements;

    plan.instrumented = true;
    plan.numbering = Some(numbering);
    plan.table = Some(table);
    plan.edge_ops = ops;
    plan.checked = checked;
    plan
}

/// Physically places per-DAG-edge op lists onto the function's CFG and
/// records where each lowered list landed.
fn apply_ops(
    f: &mut Function,
    dag: &Dag,
    ops: &[Vec<PlanOp>],
    table: TableId,
    checked: bool,
) -> Vec<Placement> {
    // Group by physical CFG edge: both dummies of a back edge land on the
    // back edge, exit-side ops first (they finish the old path before the
    // entry-side ops start the new one).
    let mut exit_side: HashMap<EdgeRef, Vec<PlanOp>> = HashMap::new();
    let mut entry_side: HashMap<EdgeRef, Vec<PlanOp>> = HashMap::new();
    let mut real: HashMap<EdgeRef, Vec<PlanOp>> = HashMap::new();
    for (i, list) in ops.iter().enumerate() {
        if list.is_empty() {
            continue;
        }
        let e = dag.edge(DagEdgeId(i as u32));
        match e.kind {
            DagEdgeKind::Real(r) => {
                real.insert(r, list.clone());
            }
            DagEdgeKind::ExitDummy { back } => {
                exit_side.insert(back, list.clone());
            }
            DagEdgeKind::EntryDummy { back } => {
                entry_side.insert(back, list.clone());
            }
        }
    }
    let mut physical: Vec<(EdgeRef, Vec<PlanOp>)> = Vec::new();
    let mut backs: Vec<EdgeRef> = exit_side.keys().chain(entry_side.keys()).copied().collect();
    backs.sort();
    backs.dedup();
    for back in backs {
        let mut list = exit_side.remove(&back).unwrap_or_default();
        list.extend(entry_side.remove(&back).unwrap_or_default());
        physical.push((back, combine(&list, !checked)));
    }
    let mut reals: Vec<(EdgeRef, Vec<PlanOp>)> = real.into_iter().collect();
    reals.sort_by_key(|(e, _)| *e);
    physical.extend(reals);

    // Pre-instrumentation CFG facts guide placement.
    let cfg = Cfg::new(f);
    let mut placements = Vec::new();
    for (edge, list) in physical {
        let lowered = lower(&list, table, checked);
        let ir_ops: Vec<Inst> = lowered.iter().copied().map(Inst::Prof).collect();
        let src_succs = f.block(edge.from).term.successor_count();
        let target = f.edge_target(edge);
        let (block, pos) = if src_succs == 1 {
            // Sole outgoing edge: append at the source block's end.
            f.block_mut(edge.from).insts.extend(ir_ops);
            (edge.from, PlacePos::Append)
        } else if cfg.preds(target).len() == 1 {
            // Sole incoming edge: prepend at the target block's start.
            let insts = &mut f.block_mut(target).insts;
            insts.splice(0..0, ir_ops);
            (target, PlacePos::Prepend)
        } else {
            // Critical edge: split it.
            let mid = ppp_ir::transform::split_edge(f, edge);
            f.block_mut(mid).insts.extend(ir_ops);
            (mid, PlacePos::Append)
        };
        placements.push(Placement {
            block,
            pos,
            ops: lowered,
        });
    }
    placements
}

/// Decodes runtime counters back into a measured path profile.
///
/// `original` must be the pre-instrumentation module (block/edge ids in
/// the decoded [`ppp_ir::PathKey`]s refer to it). Counts at poisoned
/// indices (at or above `N`) are cold tallies and are not decoded.
pub fn measured_paths(
    plan: &ModulePlan,
    original: &Module,
    store: &ppp_vm::ProfileStore,
) -> ModulePathProfile {
    let mut out = ModulePathProfile::with_capacity(original.functions.len());
    for fp in &plan.funcs {
        let (Some(table), Some(numbering)) = (fp.table, fp.numbering.as_ref()) else {
            continue;
        };
        if !fp.instrumented {
            continue;
        }
        let f = original.function(fp.func);
        for (key, count) in store.table(table).iter_counts() {
            if key >= fp.n_paths {
                continue; // poisoned (cold) tally
            }
            let Some(edges) = decode_path(&fp.dag, numbering, &fp.cold, key) else {
                continue;
            };
            let path_key = fp.dag.path_key(&edges);
            out.func_mut(fp.func).record(f, path_key, count);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiler::Technique;
    use ppp_ir::{verify_module, BinOp, FunctionBuilder};
    use ppp_vm::{run, RunOptions};

    /// A program with a branchy function driven by correlated randomness:
    /// main calls `work(n)` which loops, branching on a per-iteration
    /// scenario value — plenty of distinct paths.
    fn workload() -> Module {
        let mut m = Module::new();
        let mut mb = FunctionBuilder::new("main", 0);
        let n = mb.constant(200);
        mb.call_void(FuncId(1), vec![n]);
        mb.ret(None);
        m.add_function(mb.finish());

        let mut fb = FunctionBuilder::new("work", 1);
        let i = fb.param(0);
        let hdr = fb.new_block();
        let body = fb.new_block();
        let left = fb.new_block();
        let right = fb.new_block();
        let join = fb.new_block();
        let l2 = fb.new_block();
        let r2 = fb.new_block();
        let latch = fb.new_block();
        let exit = fb.new_block();
        fb.jump(hdr);
        fb.switch_to(hdr);
        fb.branch(i, body, exit);
        fb.switch_to(body);
        let ten = fb.constant(10);
        let s = fb.rand(ten); // scenario 0..10
        let three = fb.constant(3);
        let c1 = fb.binary(BinOp::Lt, s, three);
        fb.branch(c1, left, right);
        fb.switch_to(left);
        fb.emit(s);
        fb.jump(join);
        fb.switch_to(right);
        fb.jump(join);
        fb.switch_to(join);
        // Correlated second branch: same scenario value.
        let c2 = fb.binary(BinOp::Lt, s, three);
        fb.branch(c2, l2, r2);
        fb.switch_to(l2);
        fb.jump(latch);
        fb.switch_to(r2);
        fb.emit(s);
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

    fn ground_truth(m: &Module) -> (ModuleEdgeProfile, ModulePathProfile, u64, u64) {
        let r = run(m, "main", &RunOptions::default().traced()).unwrap();
        (
            r.edge_profile.unwrap(),
            r.path_profile.unwrap(),
            r.checksum,
            r.cost,
        )
    }

    fn check_profiler(config: ProfilerConfig) -> (ModulePlan, f64) {
        let m = workload();
        let (edges, truth, checksum, base_cost) = ground_truth(&m);
        let plan = instrument_module(&m, Some(&edges), &config);
        assert_eq!(verify_module(&plan.module), Ok(()), "instrumented IR valid");
        let r = run(&plan.module, "main", &RunOptions::default()).unwrap();
        assert_eq!(
            r.checksum, checksum,
            "instrumentation must not change semantics"
        );
        assert!(r.cost >= base_cost);
        let measured = measured_paths(&plan, &m, &r.store);
        // Every measured hot path must exist in the ground truth, with a
        // plausible frequency (PPP may overcount via cold executions).
        let mut measured_flow = 0u64;
        for (fid, key, stats) in measured.iter() {
            let actual = truth
                .func(fid)
                .paths
                .get(key)
                .unwrap_or_else(|| panic!("measured path {key:?} not in ground truth"));
            assert!(stats.branches == actual.branches);
            measured_flow += stats.freq.min(actual.freq) * u64::from(stats.branches);
        }
        let coverage = measured_flow as f64 / truth.total_branch_flow() as f64;
        (plan, coverage)
    }

    #[test]
    fn pp_measures_everything_exactly() {
        let m = workload();
        let (edges, truth, _, _) = ground_truth(&m);
        let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::pp());
        let r = run(&plan.module, "main", &RunOptions::default()).unwrap();
        let measured = measured_paths(&plan, &m, &r.store);
        // PP with array tables is exact: identical path profiles.
        for (fid, key, stats) in truth.iter() {
            let got = measured
                .func(fid)
                .paths
                .get(key)
                .copied()
                .unwrap_or_else(|| panic!("path {key:?} missing from PP measurement"));
            assert_eq!(got.freq, stats.freq, "PP must count {key:?} exactly");
        }
        assert_eq!(measured.total_unit_flow(), truth.total_unit_flow());
    }

    #[test]
    fn tpp_and_ppp_cover_hot_flow() {
        for config in [ProfilerConfig::tpp(), ProfilerConfig::ppp()] {
            let (plan, coverage) = check_profiler(config);
            assert!(
                coverage > 0.5,
                "{} coverage too low: {coverage}",
                plan.config.label()
            );
        }
    }

    #[test]
    fn ppp_is_cheaper_than_pp_and_tpp() {
        let m = workload();
        let (edges, _, _, base) = ground_truth(&m);
        let cost = |config: ProfilerConfig| {
            let plan = instrument_module(&m, Some(&edges), &config);
            run(&plan.module, "main", &RunOptions::default())
                .unwrap()
                .overhead_vs(base)
                .expect("baseline retired instructions")
        };
        let pp = cost(ProfilerConfig::pp());
        let tpp = cost(ProfilerConfig::tpp());
        let ppp = cost(ProfilerConfig::ppp());
        assert!(ppp <= tpp + 1e-9, "PPP ({ppp}) must not exceed TPP ({tpp})");
        assert!(tpp <= pp + 1e-9, "TPP ({tpp}) must not exceed PP ({pp})");
        assert!(ppp < pp, "PPP ({ppp}) must beat PP ({pp})");
    }

    #[test]
    fn leave_one_out_configs_run_and_verify() {
        let m = workload();
        let (edges, _, checksum, _) = ground_truth(&m);
        for t in Technique::ALL {
            let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::ppp_without(t));
            assert_eq!(verify_module(&plan.module), Ok(()));
            let r = run(&plan.module, "main", &RunOptions::default()).unwrap();
            assert_eq!(r.checksum, checksum, "{t:?} changed semantics");
        }
    }

    #[test]
    fn never_executed_functions_are_skipped_by_guided_profilers() {
        let mut m = workload();
        // Add an uncalled function.
        let mut fb = FunctionBuilder::new("dead", 0);
        fb.ret(None);
        let dead = m.add_function(fb.finish());
        normalize_module(&mut m);
        let (edges, _, _, _) = ground_truth(&m);
        let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::ppp());
        assert_eq!(
            plan.funcs[dead.index()].skip_reason,
            Some(SkipReason::NeverExecuted)
        );
        // PP instruments it anyway.
        let pp = instrument_module(&m, None, &ProfilerConfig::pp());
        assert!(pp.funcs[dead.index()].instrumented);
    }
}
