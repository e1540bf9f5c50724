//! The `long-run` and `short-window` workloads: passes of the 18-entry
//! suite through `ppp_repro::run_benchmark`, and a traced pass that makes
//! the same calls as `prepare_benchmark`/`run_prepared` with a timer
//! around each call into a layer.

use crate::ledger::Ledger;
use ppp_core::{
    accuracy, actual_hot_paths, edge_profile_coverage, edge_profile_estimate, hot_flow_fraction,
    instrument_module, instrumented_fraction, normalize_module, profiler_coverage,
    profiler_estimate, EstimateOptions, FlowKind,
};
use ppp_ir::{Module, ModuleEdgeProfile, ModulePathProfile};
use ppp_opt::{
    inline_module_witnessed, optimize_module_witnessed, unroll_module_witnessed, InlineOptions,
    UnrollOptions,
};
use ppp_repro::{
    baseline_from_json, baseline_json, compare_baselines, ingest_guidance, pipeline_configs,
    run_benchmark, BenchBaseline, BenchProfilerRecord, BenchRecord, BenchmarkRun, PipelineOptions,
    BASELINE_SCHEMA_VERSION,
};
use ppp_vm::{run, RunOptions, RunResult};
use ppp_workloads::{generate, spec2000_suite, BenchClass, SuiteEntry};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The inputs of a pipeline workload: suite entries and options.
pub struct Suite {
    /// The 18 suite entries, in suite order.
    pub entries: Vec<SuiteEntry>,
    /// Pipeline options (scale and VM seed set by the workload).
    pub options: PipelineOptions,
}

/// Builds the inputs: the suite at `scale`, each module generated once
/// to check that it has a `main` to run.
///
/// # Errors
///
/// Names the first entry whose generated module has no `main`.
pub fn setup(scale: f64, seed: u64) -> Result<Suite, String> {
    let entries = spec2000_suite();
    for entry in &entries {
        let module = generate(&entry.spec.clone().scaled(scale));
        if module.function_by_name("main").is_none() {
            return Err(format!("{}: generated module has no main", entry.spec.name));
        }
    }
    Ok(Suite {
        entries,
        options: PipelineOptions {
            scale,
            seed,
            ..PipelineOptions::default()
        },
    })
}

/// One pass over the suite: wall time, and per entry its seconds and
/// its record (or error), in suite order. Records carry no wall time.
pub struct Pass {
    /// Wall seconds of the whole pass.
    pub wall_s: f64,
    /// Seconds of each entry.
    pub times: Vec<f64>,
    /// Per-entry outcome.
    pub records: Vec<Result<BenchRecord, String>>,
}

fn class_name(c: BenchClass) -> &'static str {
    match c {
        BenchClass::Int => "INT",
        BenchClass::Fp => "FP",
    }
}

/// The record `ppp_repro::collect_baseline` builds for one run.
fn record_from_run(run: &BenchmarkRun) -> BenchRecord {
    BenchRecord {
        name: run.name.clone(),
        class: class_name(run.class).to_owned(),
        wall_ms: 0.0,
        baseline_cost: run.opt.cost,
        dynamic_paths: run.opt.dynamic_paths,
        distinct_paths: run.opt.distinct_paths as u64,
        degradation_rung: run.degradation.rung().name().to_owned(),
        profilers: run
            .profilers
            .iter()
            .map(|p| BenchProfilerRecord {
                label: p.label.clone(),
                overhead: p.overhead,
                accuracy: p.accuracy,
                coverage: p.coverage,
                measured: p.fraction.measured,
                hashed: p.fraction.hashed,
                lost_paths: p.lost_paths,
            })
            .collect(),
    }
}

impl Suite {
    /// The pipeline options of the input window with VM seed `seed`.
    pub fn window(&self, seed: u64) -> PipelineOptions {
        PipelineOptions {
            seed,
            ..self.options
        }
    }

    /// Runs `f` on each entry in turn, timing each call.
    fn pass(&self, mut f: impl FnMut(&SuiteEntry) -> Result<BenchRecord, String>) -> Pass {
        let started = Instant::now();
        let mut times = Vec::new();
        let records = self
            .entries
            .iter()
            .map(|entry| {
                let t = Instant::now();
                let out = f(entry);
                times.push(t.elapsed().as_secs_f64());
                out
            })
            .collect();
        Pass {
            wall_s: started.elapsed().as_secs_f64(),
            times,
            records,
        }
    }
}

/// Runs one untraced pass of the input window with VM seed `seed`:
/// `run_benchmark` on each entry in turn.
pub fn untraced_pass(suite: &Suite, seed: u64) -> Pass {
    let options = suite.window(seed);
    suite.pass(|entry| {
        run_benchmark(entry, &options)
            .map(|run| record_from_run(&run))
            .map_err(|e| e.to_string())
    })
}

/// Runs one traced pass of the input window with VM seed `seed`,
/// adding per-layer self times and counts to `ledger`. Its records must
/// equal an untraced pass's.
pub fn traced_pass(suite: &Suite, seed: u64, ledger: &mut Ledger) -> Pass {
    let options = suite.window(seed);
    suite.pass(|entry| {
        let t = Instant::now();
        let out = traced_entry(entry, &options, ledger);
        ledger.add(
            &format!("bench.{}_s", entry.spec.name),
            t.elapsed().as_secs_f64(),
        );
        out
    })
}

/// The pipeline's traced VM run (`pipeline::traced`), timed as
/// `vm.traced_s`.
fn traced_run(
    module: &Module,
    options: &PipelineOptions,
    ledger: &mut Ledger,
) -> Result<(RunResult, ModuleEdgeProfile, ModulePathProfile), String> {
    let opts = RunOptions::default().with_seed(options.seed).traced();
    let r = ledger
        .time("vm.traced_s", || run(module, "main", &opts))
        .map_err(|e| format!("cannot execute benchmark: {e}"))?;
    ledger.add("vm.traced_steps", r.steps as f64);
    let (Some(edges), Some(paths)) = (r.edge_profile.clone(), r.path_profile.clone()) else {
        return Err("traced run produced no profiles".to_owned());
    };
    Ok((r, edges, paths))
}

/// `prepare_benchmark` followed by `run_prepared`, call for call.
fn traced_entry(
    entry: &SuiteEntry,
    options: &PipelineOptions,
    ledger: &mut Ledger,
) -> Result<BenchRecord, String> {
    let spec = entry.spec.clone().scaled(options.scale);
    let name = spec.name.clone();
    let fail = |e: String| format!("{name}: {e}");
    let mut module = ledger.time("workloads.generate_s", || generate(&spec));

    let src = module.clone();
    let (_, w) = ledger.time("opt.scalar_s", || optimize_module_witnessed(&mut module));
    black_box(ledger.time("lint.transval_s", || {
        ppp_lint::check_transform(&src, &w, &module)
    }));
    ledger.time("opt.scalar_s", || normalize_module(&mut module));

    let (_, edges0, _) = traced_run(&module, options, ledger).map_err(fail)?;
    black_box(ledger.time("lint.transval_s", || {
        ppp_lint::check_profile(&module, &edges0)
    }));

    let src = module.clone();
    let (_, w) = ledger.time("opt.inline_s", || {
        inline_module_witnessed(&mut module, &edges0, &InlineOptions::default())
    });
    black_box(ledger.time("lint.transval_s", || {
        ppp_lint::check_transform(&src, &w, &module)
    }));
    let (_, edges1, _) = traced_run(&module, options, ledger).map_err(fail)?;
    black_box(ledger.time("lint.transval_s", || {
        ppp_lint::check_profile(&module, &edges1)
    }));

    let src = module.clone();
    let (_, w) = ledger.time("opt.unroll_s", || {
        unroll_module_witnessed(&mut module, &edges1, &UnrollOptions::default())
    });
    black_box(ledger.time("lint.transval_s", || {
        ppp_lint::check_transform(&src, &w, &module)
    }));
    let src = module.clone();
    let (_, w) = ledger.time("opt.scalar_s", || optimize_module_witnessed(&mut module));
    black_box(ledger.time("lint.transval_s", || {
        ppp_lint::check_transform(&src, &w, &module)
    }));
    ledger.time("opt.scalar_s", || normalize_module(&mut module));

    let (r2, edges, truth) = traced_run(&module, options, ledger).map_err(fail)?;
    black_box(ledger.time("lint.transval_s", || {
        ppp_lint::check_profile(&module, &edges)
    }));
    let baseline_cost = r2.cost;

    // run_prepared
    let guidance_in = Some(edges.clone());
    let (guidance, degradation) = ledger.time("repro.degrade_s", || {
        ingest_guidance(&module, guidance_in, Some(&truth))
    });
    let zeroed = ModuleEdgeProfile::zeroed(&module);
    let guide_ref = guidance.as_ref().unwrap_or(&zeroed);
    let est_opts = estimate_options(&truth, options);
    black_box(ledger.time("core.edge_estimate_s", || {
        let est = edge_profile_estimate(
            &module,
            guide_ref,
            FlowKind::Potential,
            options.metric,
            &est_opts,
        );
        (
            accuracy(&truth, &est, options.metric, options.hot_ratio),
            edge_profile_coverage(&module, guide_ref, &truth, options.metric).ratio(),
        )
    }));

    let mut profilers = Vec::new();
    for config in pipeline_configs(options) {
        let label = config.label();
        let plan = ledger.time("core.instrument_s", || {
            instrument_module(&module, guidance.as_ref(), &config)
        });
        black_box(ledger.time("lint.plan_s", || ppp_lint::lint_plan(&plan)));
        let vm_layer = format!("vm.{}_s", label.to_ascii_lowercase());
        let opts = RunOptions::default().with_seed(options.seed);
        let r = ledger
            .time(&vm_layer, || run(&plan.module, "main", &opts))
            .map_err(|e| fail(format!("{label}: instrumented run: {e}")))?;
        ledger.add("vm.instrumented_steps", r.steps as f64);
        ledger.add("vm.prof_steps", r.prof_steps as f64);
        r.record_metrics(
            ppp_obs::global().metrics(),
            &[("bench", name.as_str()), ("profiler", label.as_str())],
        );
        let (acc, cov, fraction) = ledger.time("core.path_estimate_s", || {
            let est = profiler_estimate(
                &module,
                &plan,
                guide_ref,
                &r.store,
                options.metric,
                &est_opts,
            );
            (
                accuracy(&truth, &est, options.metric, options.hot_ratio),
                profiler_coverage(&module, &plan, &r.store, &truth, options.metric, &est_opts),
                instrumented_fraction(&module, &plan, &r.store, &truth),
            )
        });
        profilers.push(BenchProfilerRecord {
            overhead: r.overhead_vs(baseline_cost).unwrap_or(0.0),
            accuracy: acc,
            coverage: cov.ratio(),
            measured: fraction.measured,
            hashed: fraction.hashed,
            lost_paths: r.store.total_lost(),
            label,
        });
    }

    black_box(ledger.time("core.summarize_s", || {
        (
            truth.distinct_paths(),
            actual_hot_paths(&truth, options.metric, 0.00125).len(),
            hot_flow_fraction(&truth, options.metric, 0.00125),
            actual_hot_paths(&truth, options.metric, 0.01).len(),
            hot_flow_fraction(&truth, options.metric, 0.01),
        )
    }));

    Ok(BenchRecord {
        name: name.clone(),
        class: class_name(entry.class).to_owned(),
        wall_ms: 0.0,
        baseline_cost,
        dynamic_paths: truth.total_unit_flow(),
        distinct_paths: truth.distinct_paths() as u64,
        degradation_rung: degradation.rung().name().to_owned(),
        profilers,
    })
}

/// `estimate_options` of `ppp_repro::pipeline` (crate-private there),
/// re-derived from its formula.
fn estimate_options(truth: &ModulePathProfile, options: &PipelineOptions) -> EstimateOptions {
    let total = truth
        .iter()
        .map(|(_, _, s)| options.metric.flow(s.freq, s.branches))
        .sum::<u64>();
    EstimateOptions {
        potential_cutoff: ((options.hot_ratio * 0.5) * total as f64) as u64,
        max_paths_per_func: 50_000,
    }
}

/// A one-record baseline in the suite's configuration, with wall time
/// cleared so that only fixed points remain.
fn fixed_points(options: &PipelineOptions, record: &BenchRecord) -> BenchBaseline {
    BenchBaseline {
        schema_version: BASELINE_SCHEMA_VERSION,
        seed: options.seed,
        scale: options.scale,
        hot_ratio: options.hot_ratio,
        benchmarks: vec![BenchRecord {
            wall_ms: 0.0,
            ..record.clone()
        }],
    }
}

/// Checks one record against the expected one: `compare_baselines` at
/// threshold 0 in both directions, then byte equality of every fixed
/// point (overhead, accuracy, coverage, measured, hashed and lost
/// paths, costs and rung).
///
/// # Errors
///
/// Describes the first mismatch.
pub fn check_record(
    options: &PipelineOptions,
    expected: &BenchRecord,
    got: &BenchRecord,
) -> Result<(), String> {
    let (want, have) = (fixed_points(options, expected), fixed_points(options, got));
    for (old, new) in [(&want, &have), (&have, &want)] {
        let regs = compare_baselines(old, new, 0.0)?;
        if let Some(r) = regs.first() {
            return Err(format!(
                "{} {} {}: expected {} got {}",
                r.bench, r.profiler, r.quantity, r.old, r.new
            ));
        }
    }
    let (want, have) = (baseline_json(&want), baseline_json(&have));
    if want != have {
        return Err(format!(
            "{}: fixed points differ\n  expected {want}\n  got      {have}",
            got.name
        ));
    }
    Ok(())
}

/// Loads the committed reference fixed points at `path`, if the file
/// exists: one baseline per line, one line per input window seed.
///
/// # Errors
///
/// A reference that exists but does not parse, or that does not hold
/// exactly the windows `seeds` at this scale, is an error.
pub fn load_reference(
    path: &Path,
    options: &PipelineOptions,
    seeds: &[u64],
) -> Result<Option<Vec<BenchBaseline>>, String> {
    let Ok(doc) = std::fs::read_to_string(path) else {
        return Ok(None);
    };
    let what = |e: String| format!("{}: {e}", path.display());
    let windows = doc
        .lines()
        .map(|l| baseline_from_json(l).map_err(what))
        .collect::<Result<Vec<_>, _>>()?;
    let found: Vec<u64> = windows.iter().map(|b| b.seed).collect();
    if found != seeds || windows.iter().any(|b| b.scale != options.scale) {
        return Err(what(format!(
            "holds seeds {found:?}, expected {seeds:?} at scale {}",
            options.scale
        )));
    }
    Ok(Some(windows))
}

/// The reference artifact for one pass per input window: one baseline
/// per line, wall times cleared.
///
/// # Errors
///
/// Fails when any entry of any pass failed.
pub fn reference_json(suite: &Suite, passes: &[(u64, Pass)]) -> Result<String, String> {
    let mut out = String::new();
    for (seed, pass) in passes {
        let mut benchmarks = Vec::new();
        for r in &pass.records {
            benchmarks.push(BenchRecord {
                wall_ms: 0.0,
                ..r.clone()?
            });
        }
        let options = suite.window(*seed);
        out.push_str(&baseline_json(&BenchBaseline {
            schema_version: BASELINE_SCHEMA_VERSION,
            seed: options.seed,
            scale: options.scale,
            hot_ratio: options.hot_ratio,
            benchmarks,
        }));
        out.push('\n');
    }
    Ok(out)
}

/// Checks every pass's records against the reference, or, without one,
/// against the first successful record of the same entry in the same
/// input window. Returns `(attempted, failures)`, one operation per
/// entry per pass; `passes` pairs each pass with its window's VM seed.
pub fn check_passes(
    suite: &Suite,
    reference: Option<&[BenchBaseline]>,
    passes: &[(u64, &Pass)],
) -> (u64, Vec<String>) {
    let mut expected: BTreeMap<(u64, usize), BenchRecord> = BTreeMap::new();
    if let Some(windows) = reference {
        for w in windows {
            for (i, e) in suite.entries.iter().enumerate() {
                if let Some(r) = w.benchmarks.iter().find(|b| b.name == e.spec.name) {
                    expected.insert((w.seed, i), r.clone());
                }
            }
        }
    }
    let mut attempted = 0;
    let mut failures = Vec::new();
    for (seed, pass) in passes {
        let options = suite.window(*seed);
        for (i, got) in pass.records.iter().enumerate() {
            attempted += 1;
            let name = &suite.entries[i].spec.name;
            let verdict = match (got, expected.get(&(*seed, i))) {
                (Err(e), _) => Err(e.clone()),
                (Ok(g), Some(want)) => check_record(&options, want, g),
                (Ok(_), None) if reference.is_some() => {
                    Err(format!("{name}: seed {seed} missing from the reference"))
                }
                (Ok(g), None) => {
                    expected.insert((*seed, i), g.clone());
                    Ok(())
                }
            };
            if let Err(e) = verdict {
                failures.push(format!("seed {seed}: {e}"));
            }
        }
    }
    (attempted, failures)
}
