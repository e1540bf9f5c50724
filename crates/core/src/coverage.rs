//! Coverage of an estimated path profile (§6.2), and the instrumented
//! dynamic-path fractions of Figure 11.
//!
//! Coverage is the fraction of actual program flow a method *definitely*
//! measures. For edge profiling that is `DF(P) / F(P)` (Ball et al.'s
//! attribution of definite flow); for a profiler it combines measured
//! flow with computed definite flow, minus an overcount penalty for the
//! cold executions PPP's pushing lets slip into hot counters (§4.4):
//!
//! ```text
//!   Coverage = (F(P_instr) + DF(P_uninstr) - F_overcount) / F(P)
//! ```

use crate::analysis::ModuleAnalysis;
use crate::estimate::EstimateOptions;
use crate::flow::FlowMetric;
use crate::instrument::{measured_paths, ModulePlan};
use ppp_ir::{Module, ModulePathProfile};

/// Coverage components (all flows under the chosen metric).
#[derive(Clone, Copy, Debug, Default)]
pub struct Coverage {
    /// Actual flow of the measured paths, `F(P_instr)`.
    pub measured_actual: u64,
    /// Flow the counters reported, `MF(P_instr)` (may overcount).
    pub measured_reported: u64,
    /// Definite flow of uninstrumented paths, `DF(P_uninstr)`.
    pub definite_uninstrumented: u64,
    /// Overcount penalty `max(0, MF - F)`.
    pub overcount: u64,
    /// Total actual program flow, `F(P)`.
    pub total: u64,
}

impl Coverage {
    /// The coverage ratio in `[0, 1]`.
    pub fn ratio(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        let covered =
            (self.measured_actual + self.definite_uninstrumented).saturating_sub(self.overcount);
        (covered as f64 / self.total as f64).clamp(0.0, 1.0)
    }
}

/// Coverage of plain edge profiling: `DF(P) / F(P)`.
pub fn edge_profile_coverage(
    module: &Module,
    edges: &ppp_ir::ModuleEdgeProfile,
    truth: &ModulePathProfile,
    metric: FlowMetric,
) -> Coverage {
    let analysis = ModuleAnalysis::new(module, Some(edges), metric, &EstimateOptions::default());
    edge_coverage(&analysis, truth)
}

/// [`edge_profile_coverage`] of the analysis's profile.
pub(crate) fn edge_coverage(analysis: &ModuleAnalysis<'_>, truth: &ModulePathProfile) -> Coverage {
    let metric = analysis.metric();
    let mut c = Coverage {
        total: total_flow(truth, metric),
        ..Coverage::default()
    };
    for fid in analysis.module().func_ids() {
        let definite = analysis
            .definite_flow(fid)
            .entry_map(analysis.dag(fid))
            .total_flow(metric);
        c.definite_uninstrumented = c.definite_uninstrumented.saturating_add(definite);
    }
    c
}

/// Coverage of an instrumented run (§6.2).
pub fn profiler_coverage(
    original: &Module,
    plan: &ModulePlan,
    store: &ppp_vm::ProfileStore,
    truth: &ModulePathProfile,
    metric: FlowMetric,
    opts: &EstimateOptions,
) -> Coverage {
    let analysis = ModuleAnalysis::of_plan(original, plan, metric, opts);
    coverage_measured(
        &analysis,
        plan,
        &measured_paths(plan, original, store),
        truth,
    )
}

/// [`profiler_coverage`] from the plan's decoded counters `measured`,
/// with the definite-flow paths of `analysis`, which `plan` was
/// instrumented from.
pub(crate) fn coverage_measured(
    analysis: &ModuleAnalysis<'_>,
    plan: &ModulePlan,
    measured: &ModulePathProfile,
    truth: &ModulePathProfile,
) -> Coverage {
    let metric = analysis.metric();
    let mut c = Coverage {
        total: total_flow(truth, metric),
        ..Coverage::default()
    };

    // Measured flow: reported by counters vs. actually executed.
    for (fid, key, stats) in measured.iter() {
        c.measured_reported += metric.flow(stats.freq, stats.branches);
        if let Some(actual) = truth.func(fid).paths.get(key) {
            c.measured_actual += metric.flow(actual.freq, actual.branches);
        }
    }
    c.overcount = c.measured_reported.saturating_sub(c.measured_actual);

    // Definite flow of everything not measured: exact per-path definite
    // flows, reconstructed from the edge profile embedded in each DAG.
    // Every reconstructed path counts, duplicate keys included.
    for fp in &plan.funcs {
        if fp.dag.entries() == 0 {
            continue;
        }
        debug_assert!(
            fp.dag == *analysis.dag(fp.func),
            "plan and analysis disagree"
        );
        let instrumented = &measured.func(fp.func).paths;
        for p in analysis.definite_paths(fp.func) {
            if !instrumented.contains_key(&p.key) {
                c.definite_uninstrumented += p.flow(metric);
            }
        }
    }
    c
}

/// Figure 11's quantities: the fraction of dynamic paths (unit flow) a
/// profiler measured, and the portion of those that went through hash
/// tables.
#[derive(Clone, Copy, Debug, Default)]
pub struct InstrumentedFraction {
    /// Measured dynamic paths / total dynamic paths.
    pub measured: f64,
    /// Hash-counted dynamic paths / total dynamic paths.
    pub hashed: f64,
}

/// Computes Figure 11's instrumented-path fractions.
pub fn instrumented_fraction(
    original: &Module,
    plan: &ModulePlan,
    store: &ppp_vm::ProfileStore,
    truth: &ModulePathProfile,
) -> InstrumentedFraction {
    fraction_measured(plan, &measured_paths(plan, original, store), truth)
}

/// [`instrumented_fraction`] from the plan's decoded counters `measured`.
pub(crate) fn fraction_measured(
    plan: &ModulePlan,
    measured: &ModulePathProfile,
    truth: &ModulePathProfile,
) -> InstrumentedFraction {
    let total = truth.total_unit_flow();
    if total == 0 {
        return InstrumentedFraction::default();
    }
    let mut counted = 0u64;
    let mut hashed = 0u64;
    for fp in &plan.funcs {
        if !fp.instrumented {
            continue;
        }
        let func_counted: u64 = measured
            .func(fp.func)
            .paths
            .iter()
            .map(|(k, s)| {
                // Cap at the actual execution count so PPP overcounts do
                // not inflate the fraction beyond reality.
                truth
                    .func(fp.func)
                    .paths
                    .get(k)
                    .map_or(0, |a| s.freq.min(a.freq))
            })
            .sum();
        counted += func_counted;
        if fp.uses_hash {
            hashed += func_counted;
        }
    }
    InstrumentedFraction {
        measured: counted as f64 / total as f64,
        hashed: hashed as f64 / total as f64,
    }
}

pub(crate) fn total_flow(truth: &ModulePathProfile, metric: FlowMetric) -> u64 {
    truth
        .iter()
        .map(|(_, _, s)| metric.flow(s.freq, s.branches))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instrument::{instrument_module, normalize_module};
    use crate::profiler::ProfilerConfig;
    use ppp_ir::{BinOp, FuncId, FunctionBuilder, Module};
    use ppp_vm::{run, RunOptions};

    fn workload() -> Module {
        let mut m = Module::new();
        let mut mb = FunctionBuilder::new("main", 0);
        let n = mb.constant(400);
        mb.call_void(FuncId(1), vec![n]);
        mb.ret(None);
        m.add_function(mb.finish());
        let mut fb = FunctionBuilder::new("work", 1);
        let i = fb.param(0);
        let hdr = fb.new_block();
        let body = fb.new_block();
        let l = fb.new_block();
        let r = fb.new_block();
        let latch = fb.new_block();
        let exit = fb.new_block();
        fb.jump(hdr);
        fb.switch_to(hdr);
        fb.branch(i, body, exit);
        fb.switch_to(body);
        let four = fb.constant(4);
        let s = fb.rand(four);
        let c = fb.binary(BinOp::Eq, s, four); // never true: biased branch
        fb.branch(c, l, r);
        fb.switch_to(l);
        fb.jump(latch);
        fb.switch_to(r);
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

    #[test]
    fn edge_coverage_is_partial_but_positive() {
        let m = workload();
        let r = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let truth = r.path_profile.unwrap();
        let edges = r.edge_profile.unwrap();
        let c = edge_profile_coverage(&m, &edges, &truth, FlowMetric::Branch);
        let ratio = c.ratio();
        // The biased branch makes most flow definite here; still bounded.
        assert!(ratio > 0.0 && ratio <= 1.0, "ratio = {ratio}");
    }

    #[test]
    fn profiler_coverage_beats_edge_coverage() {
        let m = workload();
        let r = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let truth = r.path_profile.unwrap();
        let edges = r.edge_profile.unwrap();
        let edge_cov = edge_profile_coverage(&m, &edges, &truth, FlowMetric::Branch).ratio();
        for config in [
            ProfilerConfig::pp(),
            ProfilerConfig::tpp(),
            ProfilerConfig::ppp(),
        ] {
            let plan = instrument_module(&m, Some(&edges), &config);
            let ir = run(&plan.module, "main", &RunOptions::default()).unwrap();
            let cov = profiler_coverage(
                &m,
                &plan,
                &ir.store,
                &truth,
                FlowMetric::Branch,
                &EstimateOptions::default(),
            )
            .ratio();
            assert!(
                cov + 1e-9 >= edge_cov,
                "{}: {cov} < edge {edge_cov}",
                config.label()
            );
        }
    }

    #[test]
    fn pp_coverage_is_total() {
        let m = workload();
        let r = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let truth = r.path_profile.unwrap();
        let edges = r.edge_profile.unwrap();
        let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::pp());
        let ir = run(&plan.module, "main", &RunOptions::default()).unwrap();
        let cov = profiler_coverage(
            &m,
            &plan,
            &ir.store,
            &truth,
            FlowMetric::Branch,
            &EstimateOptions::default(),
        );
        assert!((cov.ratio() - 1.0).abs() < 1e-9, "PP measures everything");
        assert_eq!(cov.overcount, 0);
    }

    #[test]
    fn instrumented_fraction_pp_is_one() {
        let m = workload();
        let r = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let truth = r.path_profile.unwrap();
        let edges = r.edge_profile.unwrap();
        let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::pp());
        let ir = run(&plan.module, "main", &RunOptions::default()).unwrap();
        let f = instrumented_fraction(&m, &plan, &ir.store, &truth);
        assert!((f.measured - 1.0).abs() < 1e-9);
        assert_eq!(f.hashed, 0.0, "small routines use arrays");
        // TPP/PPP instrument at most as much.
        let ppp = instrument_module(&m, Some(&edges), &ProfilerConfig::ppp());
        let irp = run(&ppp.module, "main", &RunOptions::default()).unwrap();
        let fp = instrumented_fraction(&m, &ppp, &irp.store, &truth);
        assert!(fp.measured <= f.measured + 1e-9);
    }
}
