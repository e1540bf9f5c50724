//! Differential test of the one-analysis-per-benchmark pipeline: on every
//! suite entry at scale 0.01, VM seeds 701 and 702, and once with every
//! ablation configuration, the shared [`ModuleAnalysis`] must give what
//! each consumer computed on its own before it existed.
//!
//! Per plan: `instrument_analyzed` equals `instrument_module` (the
//! instrumented module and every `FuncPlan` field); `profiler_score`, the
//! standalone scoring functions and `run_prepared` all equal, bit for bit,
//! the estimate + accuracy, coverage and fractions of the reference
//! below; and the edge score of the shared analysis equals a fresh
//! one's. The reference is the scoring as it was before the analysis:
//! every call decodes the counters and reconstructs definite flow from
//! the plan's DAGs itself.

use ppp_core::{
    accuracy, definite_flow, edge_profile_coverage, edge_profile_estimate, edge_profile_score,
    instrument_analyzed, instrument_module, instrumented_fraction, measured_paths, potential_flow,
    profiler_coverage, profiler_estimate, profiler_score, reconstruct, EstimateOptions,
    EstimatedPath, EstimatedProfile, FlowKind, FlowMetric, ModuleAnalysis, ModulePlan,
    ProfilerKind,
};
use ppp_ir::{FuncId, Module, ModuleEdgeProfile, ModulePathProfile, PathKey};
use ppp_repro::{
    estimate_options, ingest_guidance, pipeline_configs, prepare_benchmark, run_prepared,
    PipelineOptions,
};
use ppp_vm::{run, ProfileStore, RunOptions};
use ppp_workloads::spec2000_suite;
use std::collections::{HashMap, HashSet};

/// The reference estimate: measured paths, then per routine the first
/// reconstruction of each key (definite flow, or potential flow when
/// nothing was instrumented).
fn reference_estimate(
    original: &Module,
    plan: &ModulePlan,
    store: &ProfileStore,
    metric: FlowMetric,
    opts: &EstimateOptions,
) -> EstimatedProfile {
    let mut out = EstimatedProfile {
        funcs: vec![HashMap::new(); original.functions.len()],
    };
    for (fid, key, stats) in measured_paths(plan, original, store).iter() {
        out.funcs[fid.index()].insert(
            key.clone(),
            EstimatedPath {
                freq: stats.freq,
                branches: stats.branches,
                measured: true,
            },
        );
    }
    let (kind, cutoff) = if plan.instrumented_count() == 0 {
        (FlowKind::Potential, opts.potential_cutoff)
    } else {
        (FlowKind::Definite, 0)
    };
    for fp in &plan.funcs {
        if fp.dag.entries() == 0 && plan.config.kind != ProfilerKind::Pp {
            continue;
        }
        let analysis = match kind {
            FlowKind::Definite => definite_flow(&fp.dag),
            FlowKind::Potential => potential_flow(&fp.dag),
        };
        let mut rec: HashMap<PathKey, EstimatedPath> = HashMap::new();
        for p in reconstruct(
            &fp.dag,
            &analysis,
            kind,
            metric,
            cutoff,
            opts.max_paths_per_func,
        ) {
            rec.entry(fp.dag.path_key(&p.edges))
                .or_insert(EstimatedPath {
                    freq: p.freq,
                    branches: p.branches,
                    measured: false,
                });
        }
        let slot = &mut out.funcs[fp.func.index()];
        for (k, v) in rec {
            slot.entry(k).or_insert(v);
        }
    }
    out
}

/// The reference coverage ratio: measured flow, minus the overcount,
/// plus the definite flow of every reconstructed path (duplicates
/// included) that was not measured.
fn reference_coverage(
    original: &Module,
    plan: &ModulePlan,
    store: &ProfileStore,
    truth: &ModulePathProfile,
    metric: FlowMetric,
    opts: &EstimateOptions,
) -> f64 {
    let measured = measured_paths(plan, original, store);
    let (mut reported, mut actual, mut definite) = (0u64, 0u64, 0u64);
    let mut keys: HashSet<(FuncId, &PathKey)> = HashSet::new();
    for (fid, key, stats) in measured.iter() {
        keys.insert((fid, key));
        reported += metric.flow(stats.freq, stats.branches);
        if let Some(a) = truth.func(fid).paths.get(key) {
            actual += metric.flow(a.freq, a.branches);
        }
    }
    for fp in &plan.funcs {
        if fp.dag.entries() == 0 {
            continue;
        }
        let df = definite_flow(&fp.dag);
        for p in reconstruct(
            &fp.dag,
            &df,
            FlowKind::Definite,
            metric,
            0,
            opts.max_paths_per_func,
        ) {
            if !keys.contains(&(fp.func, &fp.dag.path_key(&p.edges))) {
                definite += p.flow(metric);
            }
        }
    }
    let total: u64 = truth
        .iter()
        .map(|(_, _, s)| metric.flow(s.freq, s.branches))
        .sum();
    if total == 0 {
        return 1.0;
    }
    let covered = (actual + definite).saturating_sub(reported.saturating_sub(actual));
    (covered as f64 / total as f64).clamp(0.0, 1.0)
}

/// Asserts two estimates hold the same paths with the same values.
fn assert_same_estimate(a: &EstimatedProfile, b: &EstimatedProfile, case: &str) {
    assert_eq!(a.funcs.len(), b.funcs.len(), "{case}");
    for (i, (fa, fb)) in a.funcs.iter().zip(&b.funcs).enumerate() {
        assert!(fa == fb, "{case}: estimates of function #{i} differ");
    }
}

fn check_suite(seed: u64, ablations: bool) -> usize {
    let mut plans = 0;
    for entry in spec2000_suite() {
        let options = PipelineOptions {
            scale: 0.01,
            seed,
            ablations,
            ..PipelineOptions::default()
        };
        let (metric, ratio) = (options.metric, options.hot_ratio);
        let prep = prepare_benchmark(&entry, &options).expect("suite entry runs");
        let (guidance, _) =
            ingest_guidance(&prep.module, Some(prep.edges.clone()), Some(&prep.truth));
        let zeroed = ModuleEdgeProfile::zeroed(&prep.module);
        let guide = guidance.as_ref().unwrap_or(&zeroed);
        let (module, truth) = (&prep.module, &prep.truth);
        let opts = estimate_options(truth, &options);
        let analysis = ModuleAnalysis::new(module, Some(guide), metric, &opts);
        analysis.reconstruct_executed();
        let pipeline = run_prepared(prep.clone(), &options).expect("pipeline completes");

        // The edge scorer: the shared analysis against a fresh one and
        // against the full potential-flow estimate.
        let case = format!("{} seed {seed}", prep.name);
        let shared = edge_profile_score(&analysis, truth, ratio);
        let fresh = ModuleAnalysis::new(module, Some(guide), metric, &opts);
        assert_eq!(shared, edge_profile_score(&fresh, truth, ratio), "{case}");
        let est = edge_profile_estimate(module, guide, FlowKind::Potential, metric, &opts);
        let acc = accuracy(truth, &est, metric, ratio);
        let cov = edge_profile_coverage(module, guide, truth, metric).ratio();
        assert_eq!(shared.accuracy.to_bits(), acc.to_bits(), "{case}: edge");
        assert_eq!(shared.coverage.to_bits(), cov.to_bits(), "{case}: edge");
        assert_eq!(pipeline.edge.accuracy.to_bits(), acc.to_bits(), "{case}");
        assert_eq!(pipeline.edge.coverage.to_bits(), cov.to_bits(), "{case}");

        let configs = pipeline_configs(&options);
        assert_eq!(pipeline.profilers.len(), configs.len(), "{case}");
        for (config, result) in configs.iter().zip(&pipeline.profilers) {
            let case = format!("{case} {}", config.label());
            let plan = instrument_analyzed(&analysis, config);
            let alone = instrument_module(module, Some(guide), config);
            assert_eq!(plan.module, alone.module, "{case}: instrumented module");
            assert_eq!(plan.funcs.len(), alone.funcs.len(), "{case}");
            for (a, b) in plan.funcs.iter().zip(&alone.funcs) {
                assert_eq!(a, b, "{case}: plan of function #{}", a.func.index());
                assert_eq!(a.lc_coverage.to_bits(), b.lc_coverage.to_bits(), "{case}");
            }

            let opts_run = RunOptions::default().with_seed(seed);
            let store = run(&plan.module, "main", &opts_run).expect("runs").store;
            let ref_est = reference_estimate(module, &alone, &store, metric, &opts);
            let ref_acc = accuracy(truth, &ref_est, metric, ratio);
            let ref_cov = reference_coverage(module, &alone, &store, truth, metric, &opts);

            let est = profiler_estimate(module, &alone, guide, &store, metric, &opts);
            assert_same_estimate(&est, &ref_est, &case);
            let cov = profiler_coverage(module, &alone, &store, truth, metric, &opts);
            let fraction = instrumented_fraction(module, &alone, &store, truth);
            let score = profiler_score(&analysis, &plan, &store, truth, ratio);
            for (what, got, want) in [
                ("accuracy", score.accuracy, ref_acc),
                ("coverage", score.coverage.ratio(), ref_cov),
                ("standalone coverage", cov.ratio(), ref_cov),
                ("measured", score.fraction.measured, fraction.measured),
                ("hashed", score.fraction.hashed, fraction.hashed),
                ("pipeline accuracy", result.accuracy, ref_acc),
                ("pipeline coverage", result.coverage, ref_cov),
                (
                    "pipeline measured",
                    result.fraction.measured,
                    fraction.measured,
                ),
                ("pipeline hashed", result.fraction.hashed, fraction.hashed),
            ] {
                assert_eq!(got.to_bits(), want.to_bits(), "{case}: {what}");
            }
            plans += 1;
        }
    }
    plans
}

#[test]
fn shared_analysis_matches_standalone_scoring_on_the_suite() {
    let plans: usize = [701, 702].map(|seed| check_suite(seed, false)).iter().sum();
    assert_eq!(plans, 2 * 18 * 3);
}

#[test]
fn shared_analysis_matches_standalone_scoring_under_ablations() {
    let configs = pipeline_configs(&PipelineOptions {
        ablations: true,
        ..PipelineOptions::default()
    });
    assert_eq!(configs.len(), 13);
    assert_eq!(check_suite(701, true), 18 * 13);
}
