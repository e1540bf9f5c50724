//! Differential test of the top-k edge-profile scorer: on every suite
//! entry, two VM seeds and both hot ratios of the paper, with each
//! entry's real guidance profile, `edge_profile_score` must return the
//! same accuracy and coverage, bit for bit, as the full potential-flow
//! estimate scored by `accuracy` and `edge_profile_coverage`.

use ppp_core::{
    accuracy, edge_profile_coverage, edge_profile_estimate, edge_profile_score, EstimateOptions,
    FlowKind, ModuleAnalysis,
};
use ppp_ir::ModuleEdgeProfile;
use ppp_repro::{
    estimate_options, ingest_guidance, prepare_benchmark, PipelineOptions, PreparedBenchmark,
};
use ppp_workloads::spec2000_suite;

/// Asserts scorer == oracle on one case; returns the paths the scorer
/// enumerated and the distinct paths the full estimate holds.
fn check(
    prep: &PreparedBenchmark,
    guide: &ModuleEdgeProfile,
    options: &PipelineOptions,
    opts: &EstimateOptions,
) -> (usize, usize) {
    let (m, truth, metric, ratio) = (&prep.module, &prep.truth, options.metric, options.hot_ratio);
    let est = edge_profile_estimate(m, guide, FlowKind::Potential, metric, opts);
    let acc = accuracy(truth, &est, metric, ratio);
    let cov = edge_profile_coverage(m, guide, truth, metric).ratio();
    let s = edge_profile_score(
        &ModuleAnalysis::new(m, Some(guide), metric, opts),
        truth,
        ratio,
    );
    let case = format!(
        "{} seed {} ratio {} cap {}",
        prep.name, options.seed, ratio, opts.max_paths_per_func
    );
    assert_eq!(s.accuracy.to_bits(), acc.to_bits(), "accuracy: {case}");
    assert_eq!(s.coverage.to_bits(), cov.to_bits(), "coverage: {case}");
    (s.paths_enumerated, est.len())
}

#[test]
fn scorer_matches_full_estimate_on_the_suite() {
    let mut enumerated = 0;
    let mut estimated = 0;
    for seed in [701, 702] {
        let base = PipelineOptions {
            scale: 0.01,
            seed,
            ..PipelineOptions::default()
        };
        for entry in spec2000_suite() {
            let prep = prepare_benchmark(&entry, &base).expect("suite entry runs");
            let (guidance, _) =
                ingest_guidance(&prep.module, Some(prep.edges.clone()), Some(&prep.truth));
            let zeroed = ModuleEdgeProfile::zeroed(&prep.module);
            let guide = guidance.as_ref().unwrap_or(&zeroed);
            for hot_ratio in [0.00125, 0.01] {
                let options = PipelineOptions { hot_ratio, ..base };
                let opts = estimate_options(&prep.truth, &options);
                let (e, n) = check(&prep, guide, &options, &opts);
                enumerated += e;
                estimated += n;
                // A tiny per-routine cap truncates most routines.
                let capped = EstimateOptions {
                    max_paths_per_func: 3,
                    ..opts
                };
                check(&prep, guide, &options, &capped);
            }
        }
    }
    assert!(
        enumerated < estimated,
        "the scorer enumerates fewer paths ({enumerated}) than the full estimate holds ({estimated})"
    );
}
