//! Micro-benchmarks for the flow-estimation algorithms (appendix
//! Figs. 14–16): definite flow, potential flow, and hot-path
//! reconstruction over a profiled module; the edge-profile score (§6),
//! top-k next to the full estimate + accuracy + coverage; and the
//! PP/TPP/PPP scores, each from its own reconstructions and decodes next
//! to one shared analysis.

use ppp_bench::harness::bench;
use ppp_core::{
    accuracy, definite_flow, edge_profile_coverage, edge_profile_estimate, edge_profile_score,
    instrument_module, instrumented_fraction, normalize_module, potential_flow, profiler_coverage,
    profiler_estimate, profiler_score, reconstruct, Dag, EstimateOptions, FlowKind, FlowMetric,
    ModuleAnalysis, ProfilerConfig,
};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, BenchmarkSpec};

fn main() {
    let mut spec = BenchmarkSpec::named("bench-flow").scaled(0.1);
    spec.explosive_funcs = 1;
    let mut module = generate(&spec);
    normalize_module(&mut module);
    let traced = run(&module, "main", &RunOptions::default().traced()).unwrap();
    let edges = traced.edge_profile.unwrap();
    let truth = traced.path_profile.unwrap();
    let dags: Vec<Dag> = module
        .func_ids()
        .map(|f| Dag::build(module.function(f), Some(edges.func(f))))
        .collect();
    let total_flow: u64 = dags.iter().map(Dag::total_branch_flow).sum();
    let cutoff = total_flow / 2000;

    bench("flow", "dag-construction", || {
        module
            .func_ids()
            .map(|f| Dag::build(module.function(f), Some(edges.func(f))).edge_count())
            .sum::<usize>()
    });
    bench("flow", "definite-flow", || {
        dags.iter()
            .map(|d| definite_flow(d).entry_map(d).total_paths())
            .sum::<u64>()
    });
    bench("flow", "potential-flow", || {
        dags.iter()
            .map(|d| potential_flow(d).entry_map(d).total_paths())
            .sum::<u64>()
    });
    {
        let analyses: Vec<_> = dags.iter().map(definite_flow).collect();
        bench("flow", "reconstruct-definite", || {
            dags.iter()
                .zip(&analyses)
                .map(|(d, a)| {
                    reconstruct(d, a, FlowKind::Definite, FlowMetric::Branch, 0, 10_000).len()
                })
                .sum::<usize>()
        });
    }
    {
        let analyses: Vec<_> = dags.iter().map(potential_flow).collect();
        bench("flow", "reconstruct-potential", || {
            dags.iter()
                .zip(&analyses)
                .map(|(d, a)| {
                    reconstruct(
                        d,
                        a,
                        FlowKind::Potential,
                        FlowMetric::Branch,
                        cutoff,
                        10_000,
                    )
                    .len()
                })
                .sum::<usize>()
        });
    }
    {
        // The pipeline's configuration: the paper's 0.125% hot threshold
        // and a potential-flow cutoff at half of it. Both scorers must
        // agree before either is timed.
        let (metric, hot_ratio) = (FlowMetric::Branch, 0.00125);
        let opts = EstimateOptions {
            potential_cutoff: (hot_ratio * 0.5 * truth.total_branch_flow() as f64) as u64,
            ..EstimateOptions::default()
        };
        let full = || {
            let est = edge_profile_estimate(&module, &edges, FlowKind::Potential, metric, &opts);
            (
                accuracy(&truth, &est, metric, hot_ratio),
                edge_profile_coverage(&module, &edges, &truth, metric).ratio(),
            )
        };
        let top_k = || {
            let analysis = ModuleAnalysis::new(&module, Some(&edges), metric, &opts);
            edge_profile_score(&analysis, &truth, hot_ratio)
        };
        let (acc, cov) = full();
        let score = top_k();
        assert_eq!(score.accuracy.to_bits(), acc.to_bits(), "accuracy");
        assert_eq!(score.coverage.to_bits(), cov.to_bits(), "coverage");
        println!(
            "flow: edge-score: {} hot path(s); {} path(s) enumerated",
            score.hot_paths, score.paths_enumerated
        );
        bench("flow", "edge-score-full", full);
        bench("flow", "edge-score-top-k", top_k);

        // PP, TPP and PPP runs of the module, then each scored the way
        // the pipeline used to (estimate + accuracy, coverage and
        // fractions, each decoding the counters and reconstructing
        // definite flow itself) and from one shared analysis. Both must
        // agree before either is timed.
        let runs: Vec<_> = [
            ProfilerConfig::pp(),
            ProfilerConfig::tpp(),
            ProfilerConfig::ppp(),
        ]
        .iter()
        .map(|config| {
            let plan = instrument_module(&module, Some(&edges), config);
            let store = run(&plan.module, "main", &RunOptions::default())
                .unwrap()
                .store;
            (plan, store)
        })
        .collect();
        let separate = || {
            runs.iter()
                .map(|(plan, store)| {
                    let est = profiler_estimate(&module, plan, &edges, store, metric, &opts);
                    let cov = profiler_coverage(&module, plan, store, &truth, metric, &opts);
                    let fraction = instrumented_fraction(&module, plan, store, &truth);
                    let acc = accuracy(&truth, &est, metric, hot_ratio);
                    [acc, cov.ratio(), fraction.measured, fraction.hashed].map(f64::to_bits)
                })
                .collect::<Vec<_>>()
        };
        let shared = || {
            let analysis = ModuleAnalysis::new(&module, Some(&edges), metric, &opts);
            runs.iter()
                .map(|(plan, store)| {
                    let s = profiler_score(&analysis, plan, store, &truth, hot_ratio);
                    let f = s.fraction;
                    [s.accuracy, s.coverage.ratio(), f.measured, f.hashed].map(f64::to_bits)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(separate(), shared(), "profiler scores");
        bench("flow", "profiler-score-separate", separate);
        bench("flow", "profiler-score-shared", shared);
    }
}
