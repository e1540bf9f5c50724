//! Static-estimate quality sweep: `ppp-est` vs. measured profiles.
//!
//! Backs the `repro predict` subcommand. Rung 5 of the degradation
//! ladder guides instrumentation with a profile synthesized by
//! `ppp-est` (Ball–Larus branch heuristics + loop-nest frequency
//! propagation). This sweep measures how much that synthesis is worth:
//! for every benchmark, the heuristic estimate and a *uniform* baseline
//! (equal branch probabilities pushed through the identical propagation
//! machinery) each drive the potential-flow path estimator, and both are
//! scored against the benchmark's exact measured ground truth with the
//! branch-flow metric.
//!
//! Two gates are checked and surfaced in [`PredictOutcome::ok`] /
//! [`predict_json`]:
//!
//! * every estimate satisfies PPP308 flow conservation (by
//!   construction — a violation here is a `ppp-est` bug);
//! * across the suite, the heuristics must strictly beat the uniform
//!   baseline on at least 14 of the 18 benchmarks ([`WINS_REQUIRED`]).
//!
//! Everything is deterministic: the workloads and the estimator have no
//! randomness, and `--seed` only selects the measured truth run.

use crate::format::Table;
use crate::pipeline::{
    estimate_options, prepare_benchmark, sweep_suite, PipelineError, PipelineOptions,
    PreparedBenchmark,
};
use ppp_core::{edge_profile_score, ModuleAnalysis};
use ppp_est::{estimate_module, EstOptions};
use ppp_ir::ModuleEdgeProfile;
use ppp_lint::Code;
use ppp_obs::json::{self, Fixed4, ToJson};

/// Suite-level gate: of 18 benchmarks, the heuristic estimate must
/// strictly beat the uniform baseline on at least 14. Scaled
/// proportionally when the sweep runs on a subset.
pub const WINS_REQUIRED: (usize, usize) = (14, 18);

/// How many wins a sweep over `n` benchmarks needs to pass the gate.
pub fn wins_required(n: usize) -> usize {
    (n * WINS_REQUIRED.0)
        .div_ceil(WINS_REQUIRED.1)
        .max(1)
        .min(n)
}

/// Everything measured for one benchmark.
#[derive(Clone, Debug)]
pub struct PredictOutcome {
    /// Benchmark name.
    pub benchmark: String,
    /// The heuristic estimate passes PPP308 flow conservation (must
    /// always hold; checked, not assumed).
    pub conservative: bool,
    /// Two-way branches predicted.
    pub branches: u64,
    /// Natural loops whose trip multiplier was computed.
    pub loops: u64,
    /// Functions zeroed for lack of a reachable return (PPP504).
    pub zeroed_funcs: u64,
    /// PPP501..PPP504 finding counts, in code order.
    pub diag_counts: [usize; 4],
    /// Estimator accuracy driven by the heuristic static estimate.
    pub est_accuracy: f64,
    /// Estimator accuracy driven by the uniform baseline.
    pub uniform_accuracy: f64,
    /// Coverage with the heuristic estimate.
    pub est_coverage: f64,
    /// Coverage with the uniform baseline.
    pub uniform_coverage: f64,
}

impl PredictOutcome {
    /// Accuracy the heuristics add over flat 50/50 branch weights.
    pub fn lift(&self) -> f64 {
        self.est_accuracy - self.uniform_accuracy
    }

    /// `true` when the heuristics strictly beat the uniform baseline on
    /// this benchmark.
    pub fn beats_uniform(&self) -> bool {
        self.est_accuracy > self.uniform_accuracy
    }

    /// The per-benchmark gate: conservation. (The win ratio is a
    /// suite-level gate; a single lost benchmark is not a failure.)
    pub fn ok(&self) -> bool {
        self.conservative
    }
}

/// One outcome as a JSON object (stable keys; ratios to four decimals).
impl ToJson for PredictOutcome {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("benchmark", &self.benchmark)
                .field("ok", self.ok())
                .field("conservative", self.conservative)
                .field("beats_uniform", self.beats_uniform())
                .field("branches", self.branches)
                .field("loops", self.loops)
                .field("zeroed_funcs", self.zeroed_funcs)
                .obj("diagnostics", |o| {
                    for (code, n) in ["ppp501", "ppp502", "ppp503", "ppp504"]
                        .into_iter()
                        .zip(self.diag_counts)
                    {
                        o.field(code, n);
                    }
                })
                .field("est_accuracy", Fixed4(self.est_accuracy))
                .field("uniform_accuracy", Fixed4(self.uniform_accuracy))
                .field("lift", Fixed4(self.lift()))
                .field("est_coverage", Fixed4(self.est_coverage))
                .field("uniform_coverage", Fixed4(self.uniform_coverage));
        });
    }
}

/// Scores the static estimates for one prepared benchmark.
pub fn predict_prepared(prep: &PreparedBenchmark, options: &PipelineOptions) -> PredictOutcome {
    let obs = ppp_obs::global();
    let mut span = obs.span("predict.bench");
    span.set("bench", prep.name.as_str());
    let module = &prep.module;
    let est_opts = estimate_options(&prep.truth, options);

    let (est, report) = estimate_module(module, &EstOptions::default());
    let (uniform, _) = estimate_module(
        module,
        &EstOptions {
            uniform: true,
            ..EstOptions::default()
        },
    );
    let conservative = est.is_flow_conservative(module) && est.shape_matches(module);
    let diag_counts = [
        Code::IrreducibleRegionCapped,
        Code::HeuristicConflict,
        Code::EstimateRepaired,
        Code::EstimateZeroed,
    ]
    .map(|c| {
        report
            .diagnostics
            .diagnostics
            .iter()
            .filter(|d| d.code == c)
            .count()
    });

    // Both profiles drive the same potential-flow path estimator and are
    // scored against the measured truth with the branch-flow metric.
    let score = |profile: &ModuleEdgeProfile| {
        let analysis = ModuleAnalysis::new(module, Some(profile), options.metric, &est_opts);
        let s = edge_profile_score(&analysis, &prep.truth, options.hot_ratio);
        (s.accuracy, s.coverage)
    };
    let (est_accuracy, est_coverage) = score(&est);
    let (uniform_accuracy, uniform_coverage) = score(&uniform);

    let outcome = PredictOutcome {
        benchmark: prep.name.clone(),
        conservative,
        branches: report.stats.branches,
        loops: report.stats.loops,
        zeroed_funcs: report.stats.zeroed_funcs,
        diag_counts,
        est_accuracy,
        uniform_accuracy,
        est_coverage,
        uniform_coverage,
    };
    span.set("accuracy", outcome.est_accuracy);
    span.set("lift", outcome.lift());
    span.set("beats_uniform", outcome.beats_uniform());
    outcome
}

/// Scores static-estimate quality across the suite (or one named
/// benchmark). `options.workers` changes wall-clock only.
pub fn predict_suite(
    bench: Option<&str>,
    options: &PipelineOptions,
) -> Result<Vec<PredictOutcome>, PipelineError> {
    sweep_suite(bench, options.workers, "predict.progress", |entry| {
        prepare_benchmark(entry, options).map(|prep| predict_prepared(&prep, options))
    })
    .into_iter()
    .collect()
}

/// The suite-level verdict: every estimate conservative and enough
/// benchmarks where the heuristics beat the baseline.
pub fn predict_gate(outcomes: &[PredictOutcome]) -> bool {
    let wins = outcomes.iter().filter(|o| o.beats_uniform()).count();
    outcomes.iter().all(PredictOutcome::ok) && wins >= wins_required(outcomes.len())
}

/// Renders predict outcomes as a text table.
pub fn predict_table(outcomes: &[PredictOutcome]) -> String {
    let mut t = Table::new([
        "Benchmark",
        "Acc est",
        "Acc uniform",
        "Lift",
        "Cov est",
        "Branches",
        "Loops",
        "PPP50x",
    ]);
    for o in outcomes {
        t.row([
            o.benchmark.clone(),
            format!("{:.3}", o.est_accuracy),
            format!("{:.3}", o.uniform_accuracy),
            format!("{:+.3}", o.lift()),
            format!("{:.3}", o.est_coverage),
            o.branches.to_string(),
            o.loops.to_string(),
            format!(
                "{}/{}/{}/{}",
                o.diag_counts[0], o.diag_counts[1], o.diag_counts[2], o.diag_counts[3]
            ),
        ]);
    }
    let wins = outcomes.iter().filter(|o| o.beats_uniform()).count();
    let mean_lift = if outcomes.is_empty() {
        0.0
    } else {
        outcomes.iter().map(PredictOutcome::lift).sum::<f64>() / outcomes.len() as f64
    };
    format!(
        "Predict sweep: {} benchmarks, heuristics beat uniform on {} (need {}), \
         mean lift {:+.4}, gate {}\n{}",
        outcomes.len(),
        wins,
        wins_required(outcomes.len()),
        mean_lift,
        if predict_gate(outcomes) {
            "PASS"
        } else {
            "FAIL"
        },
        t.render()
    )
}

/// Renders predict outcomes as a JSON document (stable keys; consumed by
/// the CI estimate-quality artifact `PREDICT_ci.json`).
pub fn predict_json(outcomes: &[PredictOutcome], seed: u64) -> String {
    json::object(|o| {
        o.field("kind", "ppp-predict")
            .field("seed", seed)
            .field("benchmarks", outcomes.len())
            .field(
                "wins",
                outcomes.iter().filter(|o| o.beats_uniform()).count(),
            )
            .field("wins_required", wins_required(outcomes.len()))
            .field("ok", predict_gate(outcomes))
            .field("outcomes", outcomes);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_workloads::spec2000_suite;

    fn tiny() -> PipelineOptions {
        PipelineOptions {
            scale: 0.02,
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn predict_mcf_holds_invariants() {
        let out = predict_suite(Some("mcf"), &tiny()).expect("sweep completes");
        assert_eq!(out.len(), 1);
        let o = &out[0];
        assert!(o.ok(), "not conservative: {o:?}");
        assert!(o.branches > 0 && o.loops > 0, "estimator saw no CFG: {o:?}");
        // Accuracies are probabilities of hot-set agreement.
        for a in [
            o.est_accuracy,
            o.uniform_accuracy,
            o.est_coverage,
            o.uniform_coverage,
        ] {
            assert!((0.0..=1.0).contains(&a), "score out of range: {o:?}");
        }
    }

    #[test]
    fn predict_is_deterministic() {
        let opts = tiny();
        let a = predict_suite(Some("vpr"), &opts).expect("sweep completes");
        let b = predict_suite(Some("vpr"), &opts).expect("sweep completes");
        assert_eq!(predict_json(&a, 701), predict_json(&b, 701));
    }

    #[test]
    fn win_threshold_scales_with_subset_size() {
        assert_eq!(wins_required(18), 14);
        assert_eq!(wins_required(1), 1);
        assert_eq!(wins_required(2), 2);
        assert_eq!(wins_required(9), 7);
        assert_eq!(wins_required(0), 0);
    }

    #[test]
    fn heuristics_beat_uniform_on_most_of_the_suite() {
        // The headline gate, at test scale: ≥14/18 benchmarks where the
        // heuristic estimate scores strictly above the uniform baseline.
        let opts = PipelineOptions {
            scale: 0.01,
            ..PipelineOptions::default()
        };
        let out = predict_suite(None, &opts).expect("sweep completes");
        assert_eq!(out.len(), spec2000_suite().len());
        assert!(predict_gate(&out), "gate failed:\n{}", predict_table(&out));
    }
}
