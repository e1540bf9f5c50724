//! The end-to-end experiment pipeline (§7): generate → profile →
//! inline+unroll → re-profile → instrument (PP/TPP/PPP and ablations) →
//! run → evaluate.

use ppp_core::{
    accuracy, actual_hot_paths, edge_profile_score, hot_flow_fraction, instrument_module,
    instrumented_fraction, profiler_coverage, profiler_estimate, EstimateOptions, FlowMetric,
    InstrumentedFraction, ProfilerConfig, Technique,
};
use ppp_ir::{Module, ModuleEdgeProfile, ModulePathProfile};
use ppp_jit::{bootstrap, profile_stage, reoptimize, JitError, JitOptions};
use ppp_opt::{InlineReport, UnrollReport};
use ppp_vm::{run, RunOptions, RunResult};
use ppp_workloads::{generate, spec2000_suite, BenchClass, SuiteEntry};

use crate::degrade::{ingest_guidance, DegradationReport};
use ppp_obs::Value;

/// Typed failures of the experiment pipeline. Its front half is
/// generation 1 of the `ppp-jit` loop, so it fails the way the loop's
/// re-optimize step does ([`JitError::NoMain`], [`JitError::NotTraced`]).
/// As typed errors they feed the degradation ladder (a damaged *profile*
/// degrades, a damaged *workload* is an error the caller sees) instead
/// of aborting the run.
pub type PipelineError = JitError;

/// Named lint reports (a stage or profiler configuration, then its
/// report), in pipeline order.
pub type NamedReports = Vec<(String, ppp_lint::LintReport)>;

/// Pipeline configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineOptions {
    /// Workload scale factor (1.0 = suite default).
    pub scale: f64,
    /// Hot-path threshold as a fraction of total flow (paper: 0.125%).
    pub hot_ratio: f64,
    /// Flow metric for accuracy/coverage (paper: branch flow).
    pub metric: FlowMetric,
    /// Also run the five leave-one-out PPP ablations (Figure 13).
    pub ablations: bool,
    /// VM seed (kept fixed across the whole pipeline: the paper's *self*
    /// advice setting, §7.2).
    pub seed: u64,
    /// Worker threads for suite-level sweeps (`repro chaos --workers`,
    /// `repro bench --workers`). `0` or `1` runs sequentially; any value
    /// produces byte-identical output (results are collected in suite
    /// order and each benchmark's work is seed-deterministic).
    pub workers: usize,
}

impl Default for PipelineOptions {
    fn default() -> Self {
        Self {
            scale: 1.0,
            hot_ratio: 0.00125,
            metric: FlowMetric::Branch,
            ablations: false,
            seed: 0x5EED,
            workers: 1,
        }
    }
}

/// Dynamic path statistics of one program phase (Table 1 rows).
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseStats {
    /// Total dynamic paths (unit flow).
    pub dynamic_paths: u64,
    /// Average branches per dynamic path.
    pub avg_branches: f64,
    /// Average (non-instrumentation) instructions per dynamic path.
    pub avg_insts: f64,
    /// Uninstrumented execution cost (cost-model units).
    pub cost: u64,
    /// Distinct paths observed.
    pub distinct_paths: usize,
}

fn phase_stats(result: &RunResult, truth: &ModulePathProfile) -> PhaseStats {
    let paths = truth.total_unit_flow().max(1);
    PhaseStats {
        dynamic_paths: truth.total_unit_flow(),
        avg_branches: truth.total_branch_flow() as f64 / paths as f64,
        avg_insts: result.steps as f64 / paths as f64,
        cost: result.cost,
        distinct_paths: truth.distinct_paths(),
    }
}

/// Evaluation of one profiler on one benchmark.
#[derive(Clone, Debug)]
pub struct ProfilerResult {
    /// Display label ("PP", "TPP", "PPP", "PPP-FP", ...).
    pub label: String,
    /// Runtime overhead vs. the uninstrumented baseline (0.05 = 5%).
    pub overhead: f64,
    /// Accuracy (§6.1) of the estimated profile.
    pub accuracy: f64,
    /// Coverage (§6.2).
    pub coverage: f64,
    /// Fraction of dynamic paths measured / hashed (Figure 11).
    pub fraction: InstrumentedFraction,
    /// Routines instrumented.
    pub instrumented_routines: usize,
    /// Routines using hash tables.
    pub hashed_routines: usize,
    /// Static instrumentation instructions inserted.
    pub static_prof_insts: usize,
    /// Paths lost to hash-probe exhaustion.
    pub lost_paths: u64,
}

/// Accuracy/coverage of plain edge profiling (its overhead is negligible,
/// §2).
#[derive(Clone, Copy, Debug, Default)]
pub struct EdgeResult {
    /// Accuracy via potential-flow reconstruction.
    pub accuracy: f64,
    /// Coverage (attribution of definite flow).
    pub coverage: f64,
}

/// Table 2 data: hot-path structure of the exact profile.
#[derive(Clone, Copy, Debug, Default)]
pub struct HotPathSummary {
    /// Distinct dynamic paths.
    pub distinct_paths: usize,
    /// Hot paths at the 0.125% threshold and their flow share.
    pub hot_0125: (usize, f64),
    /// Hot paths at the 1% threshold and their flow share.
    pub hot_1: (usize, f64),
}

/// Everything measured for one benchmark.
#[derive(Clone, Debug)]
pub struct BenchmarkRun {
    /// Benchmark name.
    pub name: String,
    /// INT or FP.
    pub class: BenchClass,
    /// Stats before inlining/unrolling.
    pub orig: PhaseStats,
    /// Stats after inlining/unrolling (all profiling runs use this code).
    pub opt: PhaseStats,
    /// Inliner report.
    pub inline: InlineReport,
    /// Unroller report.
    pub unroll: UnrollReport,
    /// Edge-profiling estimator quality.
    pub edge: EdgeResult,
    /// PP, TPP, PPP (and ablations when enabled), in that order.
    pub profilers: Vec<ProfilerResult>,
    /// Table 2 summary of the optimized code's exact profile.
    pub hot_paths: HotPathSummary,
    /// What the ingestion ladder did to the guidance profile (rung
    /// `full-profile` with no events in a healthy run).
    pub degradation: DegradationReport,
}

impl BenchmarkRun {
    /// Finds a profiler result by label.
    pub fn profiler(&self, label: &str) -> Option<&ProfilerResult> {
        self.profilers.iter().find(|p| p.label == label)
    }
}

/// The profiling-ready artifact of the pipeline front half: the workload
/// after scalar optimization, inlining, and unrolling, together with the
/// evaluation profiles of the optimized code.
#[derive(Clone, Debug)]
pub struct PreparedBenchmark {
    /// Benchmark name.
    pub name: String,
    /// INT or FP.
    pub class: BenchClass,
    /// The optimized module every profiler instruments.
    pub module: Module,
    /// Edge profile of the optimized code (instrumentation guidance).
    pub edges: ModuleEdgeProfile,
    /// Exact path profile of the optimized code (ground truth).
    pub truth: ModulePathProfile,
    /// Stats before inlining/unrolling.
    pub orig: PhaseStats,
    /// Stats after inlining/unrolling.
    pub opt: PhaseStats,
    /// Inliner report.
    pub inline: InlineReport,
    /// Unroller report.
    pub unroll: UnrollReport,
    /// Uninstrumented execution cost of the optimized code.
    pub baseline_cost: u64,
}

/// Runs the pipeline front half with every transform emitting a
/// [`ppp_ir::TransformWitness`] that is immediately replayed and checked
/// (translation validation), and every traced profile checked for shape
/// agreement and flow conservation. Returns the artifact plus the named
/// per-stage lint reports, in pipeline order.
fn prepare_validated(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<(PreparedBenchmark, NamedReports), PipelineError> {
    let spec = entry.spec.clone().scaled(options.scale);
    let mut span = ppp_obs::global().span("pipeline.prepare");
    span.set("bench", spec.name.as_str());
    let mut module = generate(&spec);
    // "We perform standard scalar optimizations" on the original code
    // (§7.3) before measuring its path characteristics.
    let mut stages = vec![bootstrap(&mut module, &span)];

    // Phase 1: profile the original code.
    let (mut s, r0, edges0, truth0) = profile_stage(
        &module,
        "orig",
        options.seed,
        &spec.name,
        &span,
        &mut stages,
    )?;
    let orig = phase_stats(&r0, &truth0);
    s.set("cost_units", r0.cost);
    s.set("dynamic_paths", orig.dynamic_paths);
    drop(s);

    // Phases 2 and 3: inline and unroll, re-profiling between stages
    // (§7.3), the same scalar optimizations on the expanded code, and
    // the evaluation profile of the optimized code — generation 1 of the
    // re-optimization loop, with every function hot.
    let jit = JitOptions {
        seed: options.seed,
        ..JitOptions::default()
    };
    let gen = reoptimize(module, &edges0, &spec.name, &jit, &span)?;
    stages.extend(gen.stages);
    let baseline_cost = gen.run.cost;
    span.set("baseline_cost", baseline_cost);

    let prep = PreparedBenchmark {
        name: spec.name,
        class: entry.class,
        opt: phase_stats(&gen.run, &gen.paths),
        module: gen.module,
        edges: gen.edges,
        truth: gen.paths,
        orig,
        inline: gen.inline,
        unroll: gen.unroll,
        baseline_cost,
    };
    Ok((prep, stages))
}

/// Runs the pipeline front half for one suite entry: generate → optimize
/// → profile → inline+unroll (re-profiling between stages, §7.3) →
/// optimize → profile. Every transform is translation-validated as it
/// runs; a failed stage is reported loudly on stderr but does not abort,
/// so experiments still complete while the defect is investigated. The
/// result is what every profiler configuration (and `repro lint`)
/// consumes.
pub fn prepare_benchmark(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<PreparedBenchmark, PipelineError> {
    let (prep, stages) = prepare_validated(entry, options)?;
    let obs = ppp_obs::global();
    for (stage, report) in &stages {
        if !report.is_empty() {
            obs.metrics().inc(
                "ppp_pipeline_validation_failures_total",
                &[("bench", prep.name.as_str()), ("stage", stage.as_str())],
            );
            obs.warn(
                "pipeline.validation_failed",
                &[
                    ("bench", Value::from(prep.name.as_str())),
                    ("stage", Value::from(stage.as_str())),
                    ("report", Value::from(report.to_string())),
                ],
            );
        }
    }
    Ok(prep)
}

/// Runs the witnessed pipeline front half for one suite entry and returns
/// the per-stage translation-validation and profile-consistency reports
/// in pipeline order (backs the `repro validate` subcommand). Stage names
/// are `scalar@gen`, `profile@orig`, `inline`, `profile@inline`,
/// `unroll`, `scalar@opt`, and `profile@opt`.
pub fn validate_benchmark(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<NamedReports, PipelineError> {
    Ok(prepare_validated(entry, options)?.1)
}

/// The profiler configurations the pipeline evaluates: PP, TPP, PPP, plus
/// the ablations when enabled.
pub fn pipeline_configs(options: &PipelineOptions) -> Vec<ProfilerConfig> {
    let mut configs = vec![
        ProfilerConfig::pp(),
        ProfilerConfig::tpp(),
        ProfilerConfig::ppp(),
    ];
    if options.ablations {
        configs.extend(Technique::ALL.map(ProfilerConfig::ppp_without));
        // One-at-a-time methodology (§8.3): baseline plus each technique.
        configs.push(ProfilerConfig::ppp_baseline());
        configs.extend(
            Technique::ALL
                .iter()
                .filter_map(|&t| ProfilerConfig::one_at_a_time(t)),
        );
    }
    configs
}

/// Runs the full pipeline for one suite entry.
///
/// The guidance profile passes through the degradation ladder
/// ([`ingest_guidance`]) before any profiler consumes it: a damaged
/// profile downgrades the guidance and is recorded in
/// [`BenchmarkRun::degradation`] instead of panicking.
///
/// # Errors
///
/// Returns a [`PipelineError`] when the workload itself cannot be
/// executed (no `main`) — profile damage is not an error.
pub fn run_benchmark(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<BenchmarkRun, PipelineError> {
    let prep = prepare_benchmark(entry, options)?;
    run_prepared(prep, options)
}

/// Runs `per_entry` over the suite entries `only` names (one benchmark
/// or a comma-separated list; `None` is the whole suite), announcing
/// each with a `progress` info event.
///
/// `workers > 1` fans the entries over that many threads. Results come
/// back in suite order, so a sweep whose per-entry work is
/// seed-deterministic is byte-identical to a sequential one.
pub(crate) fn sweep_suite<T: Send>(
    only: Option<&str>,
    workers: usize,
    progress: &str,
    per_entry: impl Fn(&SuiteEntry) -> T + Sync,
) -> Vec<T> {
    let suite = spec2000_suite();
    let entries: Vec<_> = suite
        .iter()
        .filter(|e| selects(only, &e.spec.name))
        .collect();
    ppp_agg::run_indexed(workers, entries.len(), |i| {
        let entry = entries[i];
        ppp_obs::global().info(
            progress,
            &[("bench", Value::from(entry.spec.name.as_str()))],
        );
        per_entry(entry)
    })
}

/// `true` when `only` (one benchmark or a comma-separated list; `None`
/// is the whole suite) names the benchmark `name`.
pub(crate) fn selects(only: Option<&str>, name: &str) -> bool {
    only.is_none_or(|b| b.split(',').any(|x| x == name))
}

/// Lints every pipeline-produced plan or, with `validate`,
/// translation-validates the witnessed stages of every suite entry
/// `only` names, `options.workers` at a time (backs `repro lint` and
/// `repro validate`). Results come back in suite order, one
/// `(benchmark, reports)` pair each.
pub fn check_suite(
    validate: bool,
    only: Option<&str>,
    options: &PipelineOptions,
) -> Vec<(String, Result<NamedReports, PipelineError>)> {
    let progress = if validate {
        "validate.progress"
    } else {
        "lint.progress"
    };
    sweep_suite(only, options.workers, progress, |entry| {
        let checked = if validate {
            validate_benchmark(entry, options)
        } else {
            lint_benchmark(entry, options)
        };
        (entry.spec.name.clone(), checked)
    })
}

/// Back half of [`run_benchmark`], starting from a prepared artifact
/// (chaos scenarios call this with deliberately damaged preparations).
pub fn run_prepared(
    prep: PreparedBenchmark,
    options: &PipelineOptions,
) -> Result<BenchmarkRun, PipelineError> {
    let obs = ppp_obs::global();
    let mut span = obs.span("pipeline.run");
    span.set("bench", prep.name.as_str());
    // Degradation ladder: sanitize the guidance before anything trusts it.
    let (guidance, degradation) = {
        let mut s = span.child("pipeline.ingest_guidance");
        let (g, d) = ingest_guidance(&prep.module, Some(prep.edges.clone()), Some(&prep.truth));
        s.set("rung", d.rung().name());
        s.set("events", d.events.len());
        (g, d)
    };
    obs.metrics().inc(
        "ppp_degrade_rung_total",
        &[
            ("bench", prep.name.as_str()),
            ("rung", degradation.rung().name()),
        ],
    );
    if degradation.degraded() {
        span.event(
            ppp_obs::Level::Warn,
            "degrade.rung",
            &[
                ("bench", Value::from(prep.name.as_str())),
                ("rung", Value::from(degradation.rung().name())),
                ("detail", Value::from(degradation.to_string())),
            ],
        );
    }
    let zeroed = ModuleEdgeProfile::zeroed(&prep.module);
    let guide_ref = guidance.as_ref().unwrap_or(&zeroed);

    // Edge-profiling estimator (accuracy from potential flow, §6.1;
    // coverage = attribution of definite flow, §6.2).
    let est_opts = estimate_options(&prep.truth, options);
    let edge = {
        let mut s = span.child("pipeline.edge_estimate");
        let score = edge_profile_score(
            &prep.module,
            guide_ref,
            &prep.truth,
            options.metric,
            options.hot_ratio,
            &est_opts,
        );
        s.set("accuracy", score.accuracy);
        s.set("coverage", score.coverage);
        s.set("hot_paths", score.hot_paths);
        s.set("paths_enumerated", score.paths_enumerated);
        EdgeResult {
            accuracy: score.accuracy,
            coverage: score.coverage,
        }
    };

    // The generic lints see nothing instrumentation changes (the plan
    // lint checks that), so they run once, on the uninstrumented module.
    let lint = {
        let _s = span.child("pipeline.lint");
        ppp_lint::ModuleLint::new(&prep.module)
    };
    let profilers = pipeline_configs(options)
        .iter()
        .map(|c| {
            let guidance = guidance.as_ref();
            run_profiler(&prep, guidance, &lint, c, options, &est_opts, &span)
        })
        .collect();

    let _s = span.child("pipeline.summarize");
    // Table 2 summary.
    let hot_paths = HotPathSummary {
        distinct_paths: prep.truth.distinct_paths(),
        hot_0125: (
            actual_hot_paths(&prep.truth, options.metric, 0.00125).len(),
            hot_flow_fraction(&prep.truth, options.metric, 0.00125),
        ),
        hot_1: (
            actual_hot_paths(&prep.truth, options.metric, 0.01).len(),
            hot_flow_fraction(&prep.truth, options.metric, 0.01),
        ),
    };

    Ok(BenchmarkRun {
        name: prep.name,
        class: prep.class,
        orig: prep.orig,
        opt: prep.opt,
        inline: prep.inline,
        unroll: prep.unroll,
        edge,
        profilers,
        hot_paths,
        degradation,
    })
}

/// Instruments a prepared suite entry under every pipeline configuration
/// and lints each plan, with the generic lints of the uninstrumented
/// module merged in (backs the `repro lint` subcommand).
pub fn lint_benchmark(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<NamedReports, PipelineError> {
    let prep = prepare_benchmark(entry, options)?;
    let lint = ppp_lint::ModuleLint::new(&prep.module);
    Ok(pipeline_configs(options)
        .iter()
        .map(|c| {
            let plan = instrument_module(&prep.module, Some(&prep.edges), c);
            (c.label(), lint.plan(&plan))
        })
        .collect())
}

/// The estimate options every pipeline stage uses for a benchmark whose
/// ground truth is `truth`.
pub fn estimate_options(truth: &ModulePathProfile, options: &PipelineOptions) -> EstimateOptions {
    // Potential-flow reconstruction needs a cutoff to avoid exponential
    // enumeration; half the hot threshold keeps every candidate that
    // could enter the hot set while pruning the tail.
    let total = truth
        .iter()
        .map(|(_, _, s)| options.metric.flow(s.freq, s.branches))
        .sum::<u64>();
    EstimateOptions {
        potential_cutoff: ((options.hot_ratio * 0.5) * total as f64) as u64,
        max_paths_per_func: 50_000,
    }
}

fn run_profiler(
    prep: &PreparedBenchmark,
    guidance: Option<&ModuleEdgeProfile>,
    module_lint: &ppp_lint::ModuleLint<'_>,
    config: &ProfilerConfig,
    options: &PipelineOptions,
    est_opts: &EstimateOptions,
    parent: &ppp_obs::Span,
) -> ProfilerResult {
    let obs = ppp_obs::global();
    let mut span = parent.child("pipeline.profiler");
    span.set("profiler", config.label());
    let (module, truth) = (&prep.module, &prep.truth);
    // A guidance profile that violates Kirchhoff's law would silently
    // misdirect instrumentation placement. The degradation ladder
    // (`ingest_guidance`) guarantees `guidance` is shape-matching and
    // flow conservative on every rung — rung 5 hands back a ppp-est
    // static estimate, not `None`.
    debug_assert!(
        guidance.is_none_or(|g| g.shape_matches(module) && g.is_flow_conservative(module)),
        "{}: {} handed unsanitized guidance",
        prep.name,
        config.label(),
    );
    let zeroed;
    let edges = match guidance {
        Some(g) => g,
        None => {
            zeroed = ModuleEdgeProfile::zeroed(module);
            &zeroed
        }
    };
    let label = config.label();
    let plan = {
        let _s = span.child("pipeline.instrument");
        instrument_module(module, guidance, config)
    };
    // Soundness gate: a plan that fails the lint would silently corrupt
    // the measured profile, so surface it loudly before running.
    let lint = {
        let _s = span.child("pipeline.lint");
        module_lint.plan(&plan)
    };
    if !lint.is_clean() {
        obs.metrics().inc(
            "ppp_plan_lint_failures_total",
            &[("bench", prep.name.as_str()), ("profiler", label.as_str())],
        );
        span.event(
            ppp_obs::Level::Warn,
            "pipeline.lint_failed",
            &[
                ("bench", Value::from(prep.name.as_str())),
                ("profiler", Value::from(label.as_str())),
                ("report", Value::from(lint.to_string())),
            ],
        );
    }
    let r = {
        let mut s = span.child("vm.run");
        let r = run(
            &plan.module,
            "main",
            &RunOptions::default().with_seed(options.seed),
        )
        .expect("instrumented module runs");
        s.set("steps", r.steps);
        s.set("cost_units", r.cost);
        s.set("prof_cost_units", r.prof_cost);
        s.set("paths_lost", r.store.total_lost());
        s.set("hash_collisions", r.store.total_collisions());
        r
    };
    // VM observables are read post-run from counters the interpreter
    // already keeps; nothing here perturbed the measured execution.
    r.record_metrics(
        obs.metrics(),
        &[("bench", prep.name.as_str()), ("profiler", label.as_str())],
    );
    let (acc, cov, fraction) = {
        let _s = span.child("pipeline.estimate");
        let est = profiler_estimate(module, &plan, edges, &r.store, options.metric, est_opts);
        let acc = accuracy(truth, &est, options.metric, options.hot_ratio);
        let cov = profiler_coverage(module, &plan, &r.store, truth, options.metric, est_opts);
        let fraction = instrumented_fraction(module, &plan, &r.store, truth);
        (acc, cov, fraction)
    };
    let overhead = match r.overhead_vs(prep.baseline_cost) {
        Some(oh) => oh,
        None => {
            // A benchmark whose baseline retired zero cost units cannot
            // express overhead as a ratio; report 0 and leave a metric
            // trail instead of panicking (see `RunResult::overhead_vs`).
            obs.metrics().inc(
                "ppp_degenerate_baseline_total",
                &[("bench", prep.name.as_str()), ("profiler", label.as_str())],
            );
            span.event(
                ppp_obs::Level::Warn,
                "pipeline.degenerate_baseline",
                &[
                    ("bench", Value::from(prep.name.as_str())),
                    ("profiler", Value::from(label.as_str())),
                ],
            );
            0.0
        }
    };
    span.set("overhead", overhead);
    span.set("accuracy", acc);
    ProfilerResult {
        label,
        overhead,
        accuracy: acc,
        coverage: cov.ratio(),
        fraction,
        instrumented_routines: plan.instrumented_count(),
        hashed_routines: plan.funcs.iter().filter(|f| f.uses_hash).count(),
        static_prof_insts: plan.static_prof_insts(),
        lost_paths: r.store.total_lost(),
    }
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
    fn pipeline_runs_one_int_benchmark() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let run = run_benchmark(entry, &tiny()).expect("pipeline completes");
        assert_eq!(run.name, "mcf");
        assert!(!run.degradation.degraded(), "healthy run stays on rung 1");
        assert_eq!(run.profilers.len(), 3);
        for p in &run.profilers {
            assert!(p.overhead >= 0.0, "{}: overhead {}", p.label, p.overhead);
            assert!(
                (0.0..=1.0).contains(&p.accuracy),
                "{}: accuracy {}",
                p.label,
                p.accuracy
            );
            assert!((0.0..=1.0).contains(&p.coverage));
        }
        // PP measures everything; TPP/PPP should be cheaper than PP.
        let pp = run.profiler("PP").unwrap();
        let ppp = run.profiler("PPP").unwrap();
        assert!((pp.fraction.measured - 1.0).abs() < 0.02 || pp.lost_paths > 0);
        assert!(ppp.overhead <= pp.overhead + 1e-9);
    }

    #[test]
    fn pipeline_runs_one_fp_benchmark_with_ablations() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "swim").unwrap();
        let opts = PipelineOptions {
            ablations: true,
            ..tiny()
        };
        let run = run_benchmark(entry, &opts).expect("pipeline completes");
        // PP, TPP, PPP + 5 leave-one-out + baseline + 4 one-at-a-time.
        assert_eq!(run.profilers.len(), 13);
        assert!(run.profiler("PPP-FP").is_some());
        assert!(run.profiler("TPPbase").is_some());
        assert!(run.profiler("TPPbase+LC").is_some());
        // FP code: unrolling should have kicked in.
        assert!(run.unroll.dynamic_avg_factor() > 1.0, "swim unrolls");
    }

    #[test]
    fn witnessed_pipeline_validates_clean() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "bzip2").unwrap();
        let stages = validate_benchmark(entry, &tiny()).expect("pipeline completes");
        let names: Vec<_> = stages.iter().map(|(s, _)| s.as_str()).collect();
        assert_eq!(
            names,
            [
                "scalar@gen",
                "profile@orig",
                "inline",
                "profile@inline",
                "unroll",
                "scalar@opt",
                "profile@opt"
            ]
        );
        for (stage, report) in &stages {
            assert!(report.is_empty(), "gzip {stage} dirty:\n{report}");
        }
    }

    #[test]
    fn inconsistent_profile_degrades_instead_of_panicking() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let options = tiny();
        let mut prep = prepare_benchmark(entry, &options).expect("pipeline completes");
        let f0 = &prep.module.functions[0];
        let b = f0
            .block_ids()
            .find(|&b| f0.block(b).term.successor_count() > 0)
            .expect("mcf main has a branch");
        prep.edges
            .func_mut(ppp_ir::FuncId(0))
            .bump_edge(ppp_ir::EdgeRef::new(b, 0));
        // The damaged guidance must not panic: the ladder quarantines or
        // rebuilds the inconsistent function and the run completes with a
        // structured report.
        let run = run_prepared(prep, &options).expect("pipeline completes despite damage");
        assert!(run.degradation.degraded());
        assert!(run
            .degradation
            .events
            .iter()
            .any(|e| e.cause == "flow-violation"));
        assert_eq!(run.profilers.len(), 3);
    }

    #[test]
    fn optimization_lengthens_paths() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mgrid").unwrap();
        let run = run_benchmark(entry, &tiny()).expect("pipeline completes");
        assert!(
            run.opt.avg_insts > run.orig.avg_insts,
            "unrolling should lengthen paths: {} -> {}",
            run.orig.avg_insts,
            run.opt.avg_insts
        );
    }
}
