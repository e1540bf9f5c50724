//! # ppp-repro: regenerating the paper's evaluation
//!
//! End-to-end reproduction harness for Bond & McKinley (CGO 2005): runs
//! the 18 synthetic SPEC2000 personalities through the full pipeline
//! (profile → inline+unroll → re-profile → instrument with PP/TPP/PPP →
//! run → evaluate) and renders every table and figure of the paper's
//! evaluation section.
//!
//! Use the `ppp-repro` binary:
//!
//! ```text
//! ppp-repro [--scale X] [--quick] table1|table2|fig9|fig10|fig11|fig12|fig13|all
//! ```
//!
//! Besides the reports, `ppp-repro lint` checks every instrumentation
//! plan the pipeline produces, `ppp-repro validate` replays each
//! optimizer transform's witness through the `ppp-lint` translation
//! validator (`PPP3xx`) and checks every traced edge profile for flow
//! conservation, and `ppp-repro chaos` sweeps every fault site of its
//! fault model across the suite, asserting the ingestion pipeline always
//! completes with a *reported* (never silent) degradation.
//!
//! The pipeline is instrumented with `ppp-obs` spans and metrics:
//! `ppp-repro bench` emits/compares versioned perf-baseline artifacts
//! (`BENCH_*.json`, see [`mod@bench`]), and `ppp-repro trace <bench>`
//! runs one benchmark with span collection on and prints that run's
//! per-stage time/cost breakdown tree and self-time ledger (see
//! [`trace`]).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod bench;
pub mod chaos;
pub mod cli;
pub mod degrade;
pub mod drift;
pub mod drive;
pub mod format;
pub mod inspect;
pub mod jit;
pub mod pipeline;
pub mod predict;
pub mod reports;
pub mod top;
pub mod trace;

pub use bench::{
    baseline_from_json, baseline_json, baseline_table, collect_baseline, compare_baselines,
    regressions_json, regressions_table, BenchBaseline, BenchProfilerRecord, BenchRecord,
    Regression, BASELINE_KIND, BASELINE_SCHEMA_VERSION,
};
pub use chaos::{
    chaos_prepared, chaos_scenario, chaos_suite, chaos_table, ChaosOutcome, ChaosVerdict,
    FaultPlan, FaultSite,
};
pub use cli::ArgCursor;
pub use degrade::{
    ingest_guidance, ingest_guidance_at, DegradationEvent, DegradationReport, LadderRung,
};
pub use drift::{
    drift_json, drift_suite, drift_table, DriftOutcome, DriftScenario, DRIFT_SCENARIOS,
};
pub use drive::{
    drive, drive_json, drive_table, serve, BenchDrive, DriveOptions, DriveReport, Quantiles,
    Transport,
};
pub use inspect::inspect_benchmark;
pub use jit::{
    jit_gate, jit_json, jit_options, jit_suite, jit_table, JIT_KIND, JIT_SCHEMA_VERSION,
};
pub use pipeline::{
    check_suite, estimate_options, lint_benchmark, pipeline_configs, prepare_benchmark,
    run_benchmark, run_prepared, validate_benchmark, BenchmarkRun, NamedReports, PipelineError,
    PipelineOptions, PreparedBenchmark, ProfilerResult,
};
pub use predict::{
    predict_gate, predict_json, predict_prepared, predict_suite, predict_table, PredictOutcome,
    WINS_REQUIRED,
};
pub use reports::{
    all_reports, fig10, fig11, fig12, fig13, fig9, run_suite, table1, table2, MissingConfig,
    SuiteError,
};
pub use top::{render_stats, top};
pub use trace::{trace_benchmark, Trace};

/// Serializes tests that touch process-global observation state (the
/// global context, its metrics registry, the flight recorder): one
/// binary runs them on parallel threads, and a swap-install mid-drive
/// would split records across registries.
#[cfg(test)]
pub(crate) fn obs_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
