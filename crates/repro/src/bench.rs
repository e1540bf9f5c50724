//! Versioned perf-baseline artifacts (`repro bench`).
//!
//! One run of the 18-benchmark suite produces a [`BenchBaseline`]: the
//! Figure 9–13 quantities (overhead, accuracy, coverage,
//! instrumented-path fractions) plus wall-time and cost units, per
//! benchmark and per profiler, serialized as JSON with an explicit
//! `schema_version`. Baselines are committed to the repo
//! (`BENCH_seed.json`) and diffed in CI: [`compare_baselines`] flags any
//! regression beyond a threshold in the *deterministic* quantities
//! (overhead is measured in cost-model units, and accuracy/coverage are
//! seed-determined, so the gate is machine-independent); wall-time is
//! recorded but never gated or compared.

use crate::pipeline::{run_benchmark, sweep_suite, BenchmarkRun, PipelineOptions};
use ppp_obs::json;
use ppp_obs::Value;
use ppp_workloads::BenchClass;
use std::time::Instant;

/// Version of the baseline artifact schema. Bump when a field changes
/// meaning; `compare_baselines` refuses to diff across versions.
pub const BASELINE_SCHEMA_VERSION: u64 = 1;

/// The artifact's `kind` discriminator.
pub const BASELINE_KIND: &str = "ppp-bench-baseline";

/// One profiler's measurements on one benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchProfilerRecord {
    /// Profiler label ("PP", "TPP", "PPP").
    pub label: String,
    /// Runtime overhead vs. the uninstrumented baseline (0.05 = 5%).
    pub overhead: f64,
    /// Accuracy (§6.1).
    pub accuracy: f64,
    /// Coverage (§6.2).
    pub coverage: f64,
    /// Fraction of dynamic paths measured.
    pub measured: f64,
    /// Fraction of dynamic paths hash-counted.
    pub hashed: f64,
    /// Paths lost to hash-probe exhaustion.
    pub lost_paths: u64,
}

/// One benchmark's row of the baseline.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchRecord {
    /// Benchmark name.
    pub name: String,
    /// "INT" or "FP".
    pub class: String,
    /// Wall-clock time of the full pipeline run, milliseconds
    /// (machine-dependent; recorded, never gated).
    pub wall_ms: f64,
    /// Uninstrumented cost units of the optimized code (deterministic).
    pub baseline_cost: u64,
    /// Total dynamic paths of the optimized code.
    pub dynamic_paths: u64,
    /// Distinct paths observed.
    pub distinct_paths: u64,
    /// Degradation-ladder rung the guidance profile settled on.
    pub degradation_rung: String,
    /// Per-profiler measurements, in pipeline order.
    pub profilers: Vec<BenchProfilerRecord>,
}

/// A full perf baseline: suite configuration plus per-benchmark records.
#[derive(Clone, Debug, PartialEq)]
pub struct BenchBaseline {
    /// Schema version ([`BASELINE_SCHEMA_VERSION`] when freshly built).
    pub schema_version: u64,
    /// VM seed the suite ran with.
    pub seed: u64,
    /// Workload scale factor.
    pub scale: f64,
    /// Hot-path threshold.
    pub hot_ratio: f64,
    /// One record per benchmark that completed.
    pub benchmarks: Vec<BenchRecord>,
}

impl BenchBaseline {
    /// Suite-total wall time in milliseconds (machine-dependent;
    /// recorded in the artifact as a derived convenience column,
    /// never gated).
    pub fn total_wall_ms(&self) -> f64 {
        self.benchmarks.iter().map(|r| r.wall_ms).sum()
    }
}

fn class_name(c: BenchClass) -> &'static str {
    match c {
        BenchClass::Int => "INT",
        BenchClass::Fp => "FP",
    }
}

fn record_from_run(run: &BenchmarkRun, wall_ms: f64) -> BenchRecord {
    BenchRecord {
        name: run.name.clone(),
        class: class_name(run.class).to_owned(),
        wall_ms,
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

/// Runs the suite (or one benchmark) and builds a baseline artifact.
///
/// Per-benchmark wall-time is measured here, around the whole pipeline
/// run; everything else comes from the run itself. Failed benchmarks are
/// reported through the observation sink and skipped, matching
/// [`crate::run_suite`]. `options.workers > 1` fans the benchmarks over
/// that many threads; every gated quantity is seed-deterministic and
/// records are collected in suite order, so only `wall_ms` (recorded,
/// never gated) can differ from a sequential run.
pub fn collect_baseline(only: Option<&str>, options: &PipelineOptions) -> BenchBaseline {
    let records = sweep_suite(only, options.workers, "bench.progress", |entry| {
        let started = Instant::now();
        match run_benchmark(entry, options) {
            Ok(run) => {
                let wall_ms = started.elapsed().as_secs_f64() * 1e3;
                Some(record_from_run(&run, wall_ms))
            }
            Err(err) => {
                ppp_obs::global().event(
                    ppp_obs::Level::Error,
                    "bench.benchmark_failed",
                    &[
                        ("bench", Value::from(entry.spec.name.as_str())),
                        ("error", Value::from(err.to_string())),
                    ],
                );
                None
            }
        }
    });
    let benchmarks = records.into_iter().flatten().collect();
    BenchBaseline {
        schema_version: BASELINE_SCHEMA_VERSION,
        seed: options.seed,
        scale: options.scale,
        hot_ratio: options.hot_ratio,
        benchmarks,
    }
}

/// Serializes a baseline as its canonical JSON artifact.
pub fn baseline_json(b: &BenchBaseline) -> String {
    json::object(|o| {
        o.field("schema_version", b.schema_version)
            .field("kind", BASELINE_KIND)
            .field("seed", b.seed)
            .field("scale", b.scale)
            .field("hot_ratio", b.hot_ratio)
            .field("total_wall_ms", b.total_wall_ms())
            .objs("benchmarks", &b.benchmarks, |o, r| {
                o.field("name", &r.name)
                    .field("class", &r.class)
                    .field("wall_ms", r.wall_ms)
                    .field("baseline_cost", r.baseline_cost)
                    .field("dynamic_paths", r.dynamic_paths)
                    .field("distinct_paths", r.distinct_paths)
                    .field("degradation_rung", &r.degradation_rung)
                    .objs("profilers", &r.profilers, |o, p| {
                        o.field("label", &p.label)
                            .field("overhead", p.overhead)
                            .field("accuracy", p.accuracy)
                            .field("coverage", p.coverage)
                            .field("measured", p.measured)
                            .field("hashed", p.hashed)
                            .field("lost_paths", p.lost_paths);
                    });
            });
    })
}

/// Parses a baseline artifact back from its JSON form.
///
/// # Errors
///
/// Returns a message for malformed documents or a wrong `kind`; an
/// unknown `schema_version` parses (so CI can print a useful diff error)
/// but [`compare_baselines`] will refuse it.
pub fn baseline_from_json(doc: &str) -> Result<BenchBaseline, String> {
    let v = json::parse(doc).map_err(|e| e.to_string())?;
    let kind = v.need_str("kind")?;
    if kind != BASELINE_KIND {
        return Err(format!("not a {BASELINE_KIND} artifact (kind={kind:?})"));
    }
    let mut benchmarks = Vec::new();
    for r in v.need_arr("benchmarks")? {
        let mut profilers = Vec::new();
        for p in r.need_arr("profilers")? {
            profilers.push(BenchProfilerRecord {
                label: p.need_str("label")?.to_owned(),
                overhead: p.need_f64("overhead")?,
                accuracy: p.need_f64("accuracy")?,
                coverage: p.need_f64("coverage")?,
                measured: p.need_f64("measured")?,
                hashed: p.need_f64("hashed")?,
                lost_paths: p.need_u64("lost_paths")?,
            });
        }
        benchmarks.push(BenchRecord {
            name: r.need_str("name")?.to_owned(),
            class: r.need_str("class")?.to_owned(),
            wall_ms: r.need_f64("wall_ms")?,
            baseline_cost: r.need_u64("baseline_cost")?,
            dynamic_paths: r.need_u64("dynamic_paths")?,
            distinct_paths: r.need_u64("distinct_paths")?,
            degradation_rung: r.need_str("degradation_rung")?.to_owned(),
            profilers,
        });
    }
    Ok(BenchBaseline {
        schema_version: v.need_u64("schema_version")?,
        seed: v.need_u64("seed")?,
        scale: v.need_f64("scale")?,
        hot_ratio: v.need_f64("hot_ratio")?,
        benchmarks,
    })
}

/// Renders a baseline as a human-readable table.
pub fn baseline_table(b: &BenchBaseline) -> String {
    let mut t = crate::format::Table::new([
        "Benchmark",
        "Class",
        "Wall(ms)",
        "Dyn.paths",
        "Rung",
        "Profiler",
        "Overhead",
        "Accuracy",
        "Coverage",
    ]);
    for r in &b.benchmarks {
        for (i, p) in r.profilers.iter().enumerate() {
            t.row([
                if i == 0 {
                    r.name.clone()
                } else {
                    String::new()
                },
                if i == 0 {
                    r.class.clone()
                } else {
                    String::new()
                },
                if i == 0 {
                    format!("{:.0}", r.wall_ms)
                } else {
                    String::new()
                },
                if i == 0 {
                    r.dynamic_paths.to_string()
                } else {
                    String::new()
                },
                if i == 0 {
                    r.degradation_rung.clone()
                } else {
                    String::new()
                },
                p.label.clone(),
                format!("{:+.1}%", 100.0 * p.overhead),
                format!("{:.1}%", 100.0 * p.accuracy),
                format!("{:.1}%", 100.0 * p.coverage),
            ]);
        }
    }
    format!(
        "perf baseline: schema v{}, seed {}, scale {}, {} benchmarks\n{}",
        b.schema_version,
        b.seed,
        b.scale,
        b.benchmarks.len(),
        t.render()
    )
}

/// One flagged difference between two baselines.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Benchmark name.
    pub bench: String,
    /// Profiler label, or "-" for benchmark-level findings.
    pub profiler: String,
    /// Quantity that regressed (`overhead`, `accuracy`, `coverage`,
    /// `missing-benchmark`, `missing-profiler`).
    pub quantity: String,
    /// Old value.
    pub old: f64,
    /// New value.
    pub new: f64,
}

impl Regression {
    fn new(bench: &str, profiler: &str, quantity: &str, old: f64, new: f64) -> Self {
        Self {
            bench: bench.to_owned(),
            profiler: profiler.to_owned(),
            quantity: quantity.to_owned(),
            old,
            new,
        }
    }
}

/// Diffs `new` against `old` and returns every regression beyond
/// `threshold` (an absolute delta on ratio-valued quantities: overhead
/// up, accuracy down, or coverage down by more than `threshold`).
/// Benchmarks or profilers present in `old` but absent from `new` are
/// regressions; extra entries in `new` are not.
///
/// # Errors
///
/// Returns a message when the artifacts are incomparable: different
/// schema versions, seeds, scales, or hot ratios.
pub fn compare_baselines(
    old: &BenchBaseline,
    new: &BenchBaseline,
    threshold: f64,
) -> Result<Vec<Regression>, String> {
    if old.schema_version != new.schema_version || old.schema_version != BASELINE_SCHEMA_VERSION {
        return Err(format!(
            "schema mismatch: old v{}, new v{}, tool v{BASELINE_SCHEMA_VERSION}",
            old.schema_version, new.schema_version
        ));
    }
    if old.seed != new.seed || old.scale != new.scale || old.hot_ratio != new.hot_ratio {
        return Err(format!(
            "config mismatch: old (seed {}, scale {}, hot {}) vs new (seed {}, scale {}, hot {})",
            old.seed, old.scale, old.hot_ratio, new.seed, new.scale, new.hot_ratio
        ));
    }
    let mut regs = Vec::new();
    for o in &old.benchmarks {
        let Some(n) = new.benchmarks.iter().find(|n| n.name == o.name) else {
            regs.push(Regression::new(&o.name, "-", "missing-benchmark", 1.0, 0.0));
            continue;
        };
        for op in &o.profilers {
            let Some(np) = n.profilers.iter().find(|np| np.label == op.label) else {
                regs.push(Regression::new(
                    &o.name,
                    &op.label,
                    "missing-profiler",
                    1.0,
                    0.0,
                ));
                continue;
            };
            if np.overhead > op.overhead + threshold {
                regs.push(Regression::new(
                    &o.name,
                    &op.label,
                    "overhead",
                    op.overhead,
                    np.overhead,
                ));
            }
            if np.accuracy < op.accuracy - threshold {
                regs.push(Regression::new(
                    &o.name,
                    &op.label,
                    "accuracy",
                    op.accuracy,
                    np.accuracy,
                ));
            }
            if np.coverage < op.coverage - threshold {
                regs.push(Regression::new(
                    &o.name,
                    &op.label,
                    "coverage",
                    op.coverage,
                    np.coverage,
                ));
            }
        }
    }
    Ok(regs)
}

/// Renders a comparison outcome as text (regressions, or a clean bill).
pub fn regressions_table(regs: &[Regression]) -> String {
    if regs.is_empty() {
        return "no regressions".to_owned();
    }
    let mut t = crate::format::Table::new(["Benchmark", "Profiler", "Quantity", "Old", "New"]);
    for r in regs {
        t.row([
            r.bench.clone(),
            r.profiler.clone(),
            r.quantity.clone(),
            format!("{:.4}", r.old),
            format!("{:.4}", r.new),
        ]);
    }
    format!("{} regression(s):\n{}", regs.len(), t.render())
}

/// Renders a comparison outcome as JSON.
pub fn regressions_json(regs: &[Regression]) -> String {
    json::object(|o| {
        o.objs("regressions", regs, |o, r| {
            o.field("bench", &r.bench)
                .field("profiler", &r.profiler)
                .field("quantity", &r.quantity)
                .field("old", r.old)
                .field("new", r.new);
        })
        .field("count", regs.len());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchBaseline {
        BenchBaseline {
            schema_version: BASELINE_SCHEMA_VERSION,
            seed: 701,
            scale: 0.1,
            hot_ratio: 0.00125,
            benchmarks: vec![BenchRecord {
                name: "mcf".into(),
                class: "INT".into(),
                wall_ms: 123.5,
                baseline_cost: 1_000_000,
                dynamic_paths: 42_000,
                distinct_paths: 120,
                degradation_rung: "full-profile".into(),
                profilers: vec![
                    BenchProfilerRecord {
                        label: "PP".into(),
                        overhead: 0.30,
                        accuracy: 0.95,
                        coverage: 0.99,
                        measured: 1.0,
                        hashed: 0.4,
                        lost_paths: 0,
                    },
                    BenchProfilerRecord {
                        label: "PPP".into(),
                        overhead: 0.05,
                        accuracy: 0.90,
                        coverage: 0.95,
                        measured: 0.97,
                        hashed: 0.0,
                        lost_paths: 3,
                    },
                ],
            }],
        }
    }

    #[test]
    fn baseline_json_round_trips() {
        let b = sample();
        let doc = baseline_json(&b);
        let back = baseline_from_json(&doc).expect("parses");
        assert_eq!(b, back);
        assert_eq!(doc, baseline_json(&back));
    }

    #[test]
    fn from_json_rejects_wrong_kind() {
        assert!(baseline_from_json("{\"kind\":\"other\"}").is_err());
        assert!(baseline_from_json("not json").is_err());
    }

    #[test]
    fn identical_baselines_compare_clean() {
        let b = sample();
        assert_eq!(compare_baselines(&b, &b, 0.10).unwrap(), vec![]);
    }

    #[test]
    fn injected_overhead_regression_is_flagged() {
        let old = sample();
        let mut new = sample();
        new.benchmarks[0].profilers[1].overhead += 0.25; // PPP slows down
        let regs = compare_baselines(&old, &new, 0.10).unwrap();
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].quantity, "overhead");
        assert_eq!(regs[0].profiler, "PPP");
        // Within the generous threshold: not flagged.
        let mut small = sample();
        small.benchmarks[0].profilers[1].overhead += 0.05;
        assert!(compare_baselines(&old, &small, 0.10).unwrap().is_empty());
    }

    #[test]
    fn accuracy_drop_and_missing_entries_are_flagged() {
        let old = sample();
        let mut new = sample();
        new.benchmarks[0].profilers[0].accuracy -= 0.2;
        new.benchmarks[0].profilers.remove(1); // PPP gone
        let regs = compare_baselines(&old, &new, 0.10).unwrap();
        let quantities: Vec<_> = regs.iter().map(|r| r.quantity.as_str()).collect();
        assert!(quantities.contains(&"accuracy"));
        assert!(quantities.contains(&"missing-profiler"));

        let empty = BenchBaseline {
            benchmarks: vec![],
            ..sample()
        };
        let regs = compare_baselines(&old, &empty, 0.10).unwrap();
        assert_eq!(regs[0].quantity, "missing-benchmark");
    }

    #[test]
    fn incomparable_configs_error_out() {
        let a = sample();
        let mut b = sample();
        b.scale = 1.0;
        assert!(compare_baselines(&a, &b, 0.10).is_err());
        let mut c = sample();
        c.schema_version = 999;
        assert!(compare_baselines(&a, &c, 0.10).is_err());
    }

    #[test]
    fn wall_time_is_never_gated() {
        let old = sample();
        let mut new = sample();
        new.benchmarks[0].wall_ms *= 100.0;
        assert!(compare_baselines(&old, &new, 0.10).unwrap().is_empty());
    }

    #[test]
    fn the_artifact_carries_the_derived_total_wall_column() {
        let b = sample();
        let doc = baseline_json(&b);
        assert!(doc.contains("\"total_wall_ms\":"));
        let v = json::parse(&doc).expect("parses");
        let total = v.need_f64("total_wall_ms").unwrap();
        assert!((total - b.total_wall_ms()).abs() < 1e-9);
        // Derived on write: round-tripping reproduces it byte-exact.
        let back = baseline_from_json(&doc).expect("parses");
        assert_eq!(doc, baseline_json(&back));
    }
}
