//! One analysis of a module and its edge profile, shared by every
//! consumer of a benchmark (§5–6).
//!
//! The edge scorer and each profiler configuration read the same facts
//! about each routine: its profiling [`Dag`] (built from the module and
//! the guidance profile), the loop forest the DAG's static weights come
//! from, its definite flow (Fig. 14), and the definite-flow paths
//! reconstructed from it (Fig. 16). A [`ModuleAnalysis`] computes each of
//! them at most once. DAGs and loop forests are built up front; flows
//! and reconstructions on first use, or all at once with
//! [`ModuleAnalysis::reconstruct_executed`].
//!
//! Plans instrumented from an analysis ([`instrument_analyzed`]) share
//! its DAGs (`FuncPlan::dag` is an [`Arc`] clone), and
//! [`profiler_score`](crate::profiler_score) reads its reconstructions,
//! so scoring a plan rebuilds nothing.
//!
//! [`instrument_analyzed`]: crate::instrument_analyzed

use crate::dag::Dag;
use crate::estimate::EstimateOptions;
use crate::flow::{definite_flow, reconstruct, FlowAnalysis, FlowKind, FlowMetric};
use crate::instrument::ModulePlan;
use ppp_ir::{analyze_loops, FuncId, LoopForest, Module, ModuleEdgeProfile, PathKey};
use std::sync::{Arc, OnceLock};

/// One definite-flow path of a routine, as reconstructed (§5).
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct DefinitePath {
    pub(crate) key: PathKey,
    pub(crate) freq: u64,
    pub(crate) branches: u32,
}

impl DefinitePath {
    pub(crate) fn flow(&self, metric: FlowMetric) -> u64 {
        metric.flow(self.freq, self.branches)
    }
}

struct Routine {
    dag: Arc<Dag>,
    loops: OnceLock<LoopForest>,
    definite: OnceLock<FlowAnalysis>,
    paths: OnceLock<Vec<DefinitePath>>,
}

impl Routine {
    fn new(dag: Arc<Dag>, loops: Option<LoopForest>) -> Self {
        Self {
            dag,
            loops: loops.map_or_else(OnceLock::new, OnceLock::from),
            definite: OnceLock::new(),
            paths: OnceLock::new(),
        }
    }
}

/// The per-benchmark analysis: every routine's DAG, loop forest,
/// definite flow and definite-flow paths under one metric and one
/// reconstruction cap.
pub struct ModuleAnalysis<'a> {
    module: &'a Module,
    profile: Option<&'a ModuleEdgeProfile>,
    metric: FlowMetric,
    opts: EstimateOptions,
    routines: Vec<Routine>,
    program_unit_flow: u64,
}

impl<'a> ModuleAnalysis<'a> {
    /// Builds every routine's DAG (with frequencies from `profile`, when
    /// given) and loop forest. Definite-flow paths are reconstructed
    /// under `metric`, capped at `opts.max_paths_per_func` per routine;
    /// `opts.potential_cutoff` is what the edge scorer enumerates down to.
    ///
    /// # Panics
    ///
    /// Panics if the module was not
    /// [`normalize_module`](crate::normalize_module)d.
    pub fn new(
        module: &'a Module,
        profile: Option<&'a ModuleEdgeProfile>,
        metric: FlowMetric,
        opts: &EstimateOptions,
    ) -> Self {
        let routines: Vec<Routine> = module
            .func_ids()
            .map(|fid| {
                let f = module.function(fid);
                let (dag, loops) = Dag::build_with_loops(f, profile.map(|p| p.func(fid)));
                Routine::new(Arc::new(dag), Some(loops))
            })
            .collect();
        Self::from_routines(module, profile, metric, opts, routines)
    }

    /// An analysis over the DAGs of `plan`, instrumented from `module`:
    /// what the standalone scoring functions reconstruct from. It carries
    /// no profile, so it must not instrument.
    pub(crate) fn of_plan(
        module: &'a Module,
        plan: &ModulePlan,
        metric: FlowMetric,
        opts: &EstimateOptions,
    ) -> Self {
        let routines = plan
            .funcs
            .iter()
            .map(|fp| Routine::new(Arc::clone(&fp.dag), None))
            .collect();
        Self::from_routines(module, None, metric, opts, routines)
    }

    fn from_routines(
        module: &'a Module,
        profile: Option<&'a ModuleEdgeProfile>,
        metric: FlowMetric,
        opts: &EstimateOptions,
        routines: Vec<Routine>,
    ) -> Self {
        // Program-wide unit flow (total dynamic paths), for the global
        // cold criterion (§4.2).
        let program_unit_flow = routines.iter().map(|r| r.dag.total_path_freq()).sum();
        Self {
            module,
            profile,
            metric,
            opts: *opts,
            routines,
            program_unit_flow,
        }
    }

    /// Reconstructs the definite-flow paths of every routine that ran
    /// now, rather than on first use.
    pub fn reconstruct_executed(&self) {
        for fid in self.module.func_ids() {
            if self.dag(fid).entries() > 0 {
                self.definite_paths(fid);
            }
        }
    }

    /// The analyzed module.
    pub fn module(&self) -> &'a Module {
        self.module
    }

    /// The edge profile the DAGs carry, when one was given.
    pub fn profile(&self) -> Option<&'a ModuleEdgeProfile> {
        self.profile
    }

    /// The flow metric of the reconstructions.
    pub(crate) fn metric(&self) -> FlowMetric {
        self.metric
    }

    /// The reconstruction limits.
    pub(crate) fn options(&self) -> &EstimateOptions {
        &self.opts
    }

    /// Total path executions over all routines.
    pub(crate) fn program_unit_flow(&self) -> u64 {
        self.program_unit_flow
    }

    /// The profiling DAG of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range (as every per-routine accessor).
    pub(crate) fn dag(&self, f: FuncId) -> &Arc<Dag> {
        &self.routines[f.index()].dag
    }

    /// The loop forest of `f`.
    pub(crate) fn loops(&self, f: FuncId) -> &LoopForest {
        self.routines[f.index()]
            .loops
            .get_or_init(|| analyze_loops(self.module.function(f)).2)
    }

    /// The definite flow of `f` (Fig. 14).
    pub(crate) fn definite_flow(&self, f: FuncId) -> &FlowAnalysis {
        let r = &self.routines[f.index()];
        r.definite.get_or_init(|| definite_flow(&r.dag))
    }

    /// The definite-flow paths of `f` in reconstruction order, duplicate
    /// keys included: exactly what [`reconstruct`] returns for definite
    /// flow with cutoff 0.
    pub(crate) fn definite_paths(&self, f: FuncId) -> &[DefinitePath] {
        let r = &self.routines[f.index()];
        r.paths.get_or_init(|| {
            let flow = self.definite_flow(f);
            reconstruct(
                &r.dag,
                flow,
                FlowKind::Definite,
                self.metric,
                0,
                self.opts.max_paths_per_func,
            )
            .into_iter()
            .map(|p| DefinitePath {
                key: r.dag.path_key(&p.edges),
                freq: p.freq,
                branches: p.branches,
            })
            .collect()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coverage::coverage_measured;
    use crate::estimate::estimate_measured;
    use crate::instrument::instrument_analyzed;
    use crate::profiler::ProfilerConfig;
    use ppp_ir::{
        BlockId, EdgeRef, FuncEdgeProfile, FunctionBuilder, ModulePathProfile, PathKey, Reg,
    };

    /// A loop whose header H (1) returns 1000 times on 10 entries, with
    /// back edges from latches 3 (100 times) and 4 (50 times): not flow
    /// conservative, so the return path H -> exit gets definite flow
    /// after both back edges, twice under one key (start H).
    fn two_back_edges() -> (Module, ModuleEdgeProfile) {
        let mut b = FunctionBuilder::new("dup", 1);
        let (h, body, l0, l1, exit) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.jump(h);
        b.switch_to(h);
        b.branch(Reg(0), body, exit);
        b.switch_to(body);
        b.branch(Reg(0), l0, l1);
        b.switch_to(l0);
        b.jump(h);
        b.switch_to(l1);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let mut p = FuncEdgeProfile::zeroed(&f);
        p.set_entries(10);
        let e = |from: u32, s: usize| EdgeRef::new(BlockId(from), s);
        for (edge, freq) in [
            (e(0, 0), 10),
            (e(1, 1), 1000),
            (e(3, 0), 100),
            (e(4, 0), 50),
        ] {
            p.set_edge(edge, freq);
        }
        let mut m = Module::new();
        m.add_function(f);
        let mut edges = ModuleEdgeProfile::zeroed(&m);
        *edges.func_mut(FuncId(0)) = p;
        (m, edges)
    }

    #[test]
    fn duplicate_definite_keys_are_kept_and_each_consumer_reads_them_its_way() {
        let (m, edges) = two_back_edges();
        let opts = EstimateOptions::default();
        let analysis = ModuleAnalysis::new(&m, Some(&edges), FlowMetric::Branch, &opts);
        let from_header = PathKey {
            start: BlockId(1),
            edges: vec![EdgeRef::new(BlockId(1), 1)],
        };
        let paths: Vec<_> = analysis
            .definite_paths(FuncId(0))
            .iter()
            .map(|p| (p.key.start, p.freq))
            .collect();
        assert_eq!(
            paths[..3],
            [(BlockId(1), 940), (BlockId(1), 890), (BlockId(0), 850)]
        );
        let all: u64 = analysis
            .definite_paths(FuncId(0))
            .iter()
            .map(|p| p.flow(FlowMetric::Branch))
            .sum();

        // Nothing measured: coverage counts every reconstructed path, the
        // estimate keeps the first (hottest) of the duplicates.
        let plan = instrument_analyzed(&analysis, &ProfilerConfig::pp());
        let measured = ModulePathProfile::with_capacity(1);
        let truth = ModulePathProfile::with_capacity(1);
        let cov = coverage_measured(&analysis, &plan, &measured, &truth);
        assert_eq!(cov.definite_uninstrumented, all);
        let est = estimate_measured(&analysis, &plan, &measured);
        assert_eq!(est.funcs[0].len(), paths.len() - 1);
        assert_eq!(est.funcs[0][&from_header].freq, 940);
    }
}
