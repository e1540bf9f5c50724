//! Paper-style reports: one generator per table and figure of the
//! evaluation section (Tables 1–2, Figures 9–13).
//!
//! Every generator consumes the same `Vec<BenchmarkRun>` (produced once by
//! [`run_suite`]) and renders the rows/series the paper reports, so
//! `ppp-repro all` regenerates the entire evaluation in one pass.

use crate::format::{f2, pct, pct_signed, Table};
use crate::pipeline::{
    run_benchmark, sweep_suite, BenchmarkRun, PipelineError, PipelineOptions, ProfilerResult,
};
use ppp_core::{ProfilerConfig, Technique};
use ppp_workloads::BenchClass;
use std::fmt;

/// Suite entries whose pipeline failed, in suite order. Each error
/// names its benchmark.
#[derive(Debug)]
pub struct SuiteError {
    /// The failed entries' errors.
    pub failed: Vec<PipelineError>,
}

impl fmt::Display for SuiteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} suite entr", self.failed.len())?;
        f.write_str(if self.failed.len() == 1 { "y" } else { "ies" })?;
        f.write_str(" failed")?;
        for (i, e) in self.failed.iter().enumerate() {
            f.write_str(if i == 0 { ": " } else { "; " })?;
            write!(f, "{e}")?;
        }
        Ok(())
    }
}

impl std::error::Error for SuiteError {}

/// A run set that lacks a configuration a report reads.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MissingConfig {
    /// The run without it.
    pub benchmark: String,
    /// The configuration's label.
    pub label: String,
}

impl fmt::Display for MissingConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: no {} result in the run set",
            self.benchmark, self.label
        )
    }
}

impl std::error::Error for MissingConfig {}

/// Runs the whole 18-benchmark suite, `options.workers` benchmarks at a
/// time; runs come back in suite order, so the reports do not depend on
/// the worker count.
///
/// Progress goes to stderr (runs take seconds each at full scale).
///
/// # Errors
///
/// A [`SuiteError`] naming every entry whose pipeline failed: a report
/// over the remaining entries would silently drop rows from every
/// average.
pub fn run_suite(options: &PipelineOptions) -> Result<Vec<BenchmarkRun>, SuiteError> {
    suite_runs(sweep_suite(None, options.workers, "suite.progress", |e| {
        run_benchmark(e, options).inspect_err(|err| {
            let obs = ppp_obs::global();
            obs.metrics()
                .inc("ppp_suite_errors_total", &[("bench", &e.spec.name)]);
            obs.event(
                ppp_obs::Level::Error,
                "suite.benchmark_failed",
                &[
                    ("bench", ppp_obs::Value::from(e.spec.name.as_str())),
                    ("error", ppp_obs::Value::from(err.to_string())),
                ],
            );
        })
    }))
}

/// Every run, or every failure when any entry failed.
fn suite_runs(
    results: Vec<Result<BenchmarkRun, PipelineError>>,
) -> Result<Vec<BenchmarkRun>, SuiteError> {
    let (runs, failed): (Vec<_>, Vec<_>) = results.into_iter().partition(Result::is_ok);
    if failed.is_empty() {
        Ok(runs.into_iter().map(Result::unwrap).collect())
    } else {
        Err(SuiteError {
            failed: failed.into_iter().filter_map(Result::err).collect(),
        })
    }
}

fn class_rows(runs: &[BenchmarkRun], class: BenchClass) -> impl Iterator<Item = &BenchmarkRun> {
    runs.iter().filter(move |r| r.class == class)
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Table 1: dynamic path characteristics with and without inlining and
/// unrolling.
pub fn table1(runs: &[BenchmarkRun]) -> String {
    let mut t = Table::new([
        "Benchmark",
        "Dyn.paths(K)",
        "Avg branches",
        "Avg instrs",
        "Dyn.paths'(K)",
        "Avg branches'",
        "Avg instrs'",
        "% calls inlined",
        "Avg unroll",
        "Speedup",
    ]);
    let row = |t: &mut Table, r: &BenchmarkRun| {
        t.row([
            r.name.clone(),
            format!("{:.1}", r.orig.dynamic_paths as f64 / 1e3),
            f2(r.orig.avg_branches),
            f2(r.orig.avg_insts),
            format!("{:.1}", r.opt.dynamic_paths as f64 / 1e3),
            f2(r.opt.avg_branches),
            f2(r.opt.avg_insts),
            pct(r.inline.dynamic_fraction()),
            f2(r.unroll.dynamic_avg_factor()),
            f2(r.orig.cost as f64 / r.opt.cost as f64),
        ]);
    };
    let avg_row = |t: &mut Table, label: &str, rs: Vec<&BenchmarkRun>| {
        t.row([
            label.to_owned(),
            format!(
                "{:.1}",
                mean(rs.iter().map(|r| r.orig.dynamic_paths as f64 / 1e3))
            ),
            f2(mean(rs.iter().map(|r| r.orig.avg_branches))),
            f2(mean(rs.iter().map(|r| r.orig.avg_insts))),
            format!(
                "{:.1}",
                mean(rs.iter().map(|r| r.opt.dynamic_paths as f64 / 1e3))
            ),
            f2(mean(rs.iter().map(|r| r.opt.avg_branches))),
            f2(mean(rs.iter().map(|r| r.opt.avg_insts))),
            pct(mean(rs.iter().map(|r| r.inline.dynamic_fraction()))),
            f2(mean(rs.iter().map(|r| r.unroll.dynamic_avg_factor()))),
            f2(mean(
                rs.iter().map(|r| r.orig.cost as f64 / r.opt.cost as f64),
            )),
        ]);
    };
    for r in class_rows(runs, BenchClass::Int) {
        row(&mut t, r);
    }
    t.separator();
    avg_row(
        &mut t,
        "INT Avg",
        class_rows(runs, BenchClass::Int).collect(),
    );
    t.separator();
    for r in class_rows(runs, BenchClass::Fp) {
        row(&mut t, r);
    }
    t.separator();
    avg_row(&mut t, "FP Avg", class_rows(runs, BenchClass::Fp).collect());
    avg_row(&mut t, "Overall Avg", runs.iter().collect());
    format!(
        "Table 1: dynamic path characteristics with and without inlining and unrolling\n\
         (primed columns are after inlining+unrolling; paper: 45% calls inlined,\n\
         avg unroll 2.28, speedup 1.03 overall)\n{}",
        t.render()
    )
}

/// Table 2: hot paths and their share of program flow.
pub fn table2(runs: &[BenchmarkRun]) -> String {
    let mut t = Table::new([
        "Benchmark",
        "Distinct paths",
        "Hot(>=0.125%)",
        "% flow",
        "Hot(>=1%)",
        "% flow ",
    ]);
    let row = |t: &mut Table, r: &BenchmarkRun| {
        t.row([
            r.name.clone(),
            r.hot_paths.distinct_paths.to_string(),
            r.hot_paths.hot_0125.0.to_string(),
            pct(r.hot_paths.hot_0125.1),
            r.hot_paths.hot_1.0.to_string(),
            pct(r.hot_paths.hot_1.1),
        ]);
    };
    for r in class_rows(runs, BenchClass::Int) {
        row(&mut t, r);
    }
    t.separator();
    t.row([
        "INT Avg".to_owned(),
        String::new(),
        String::new(),
        pct(mean(
            class_rows(runs, BenchClass::Int).map(|r| r.hot_paths.hot_0125.1),
        )),
        String::new(),
        pct(mean(
            class_rows(runs, BenchClass::Int).map(|r| r.hot_paths.hot_1.1),
        )),
    ]);
    t.separator();
    for r in class_rows(runs, BenchClass::Fp) {
        row(&mut t, r);
    }
    t.separator();
    t.row([
        "FP Avg".to_owned(),
        String::new(),
        String::new(),
        pct(mean(
            class_rows(runs, BenchClass::Fp).map(|r| r.hot_paths.hot_0125.1),
        )),
        String::new(),
        pct(mean(
            class_rows(runs, BenchClass::Fp).map(|r| r.hot_paths.hot_1.1),
        )),
    ]);
    t.row([
        "Overall Avg".to_owned(),
        String::new(),
        String::new(),
        pct(mean(runs.iter().map(|r| r.hot_paths.hot_0125.1))),
        String::new(),
        pct(mean(runs.iter().map(|r| r.hot_paths.hot_1.1))),
    ]);
    format!(
        "Table 2: hot paths in the (inlined+unrolled) benchmarks\n\
         (paper overall: 92.7% flow at >=0.125%, 74.1% at >=1%)\n{}",
        t.render()
    )
}

/// The paper's three profilers, in figure order.
fn paper_configs() -> [ProfilerConfig; 3] {
    [
        ProfilerConfig::pp(),
        ProfilerConfig::tpp(),
        ProfilerConfig::ppp(),
    ]
}

/// The average rows under every per-benchmark figure: a class, or the
/// whole suite.
const AVERAGES: [(&str, Option<BenchClass>); 3] = [
    ("INT Avg", Some(BenchClass::Int)),
    ("FP Avg", Some(BenchClass::Fp)),
    ("Overall Avg", None),
];

/// A run with its results for a report's configurations, in order.
type Row<'a> = (&'a BenchmarkRun, Vec<&'a ProfilerResult>);

/// Each run with its results for `configs`, in order.
///
/// # Errors
///
/// [`MissingConfig`] naming the first run and configuration without a
/// result: a missing configuration never reads as zero or drops a row.
fn with_results<'a>(
    runs: &'a [BenchmarkRun],
    configs: &[ProfilerConfig],
) -> Result<Vec<Row<'a>>, MissingConfig> {
    runs.iter()
        .map(|r| {
            let results = configs
                .iter()
                .map(|c| {
                    let label = c.label();
                    r.profiler(&label).ok_or_else(|| MissingConfig {
                        benchmark: r.name.clone(),
                        label,
                    })
                })
                .collect::<Result<_, _>>()?;
            Ok((r, results))
        })
        .collect()
}

/// The rows of `rows` in `class` (every row for `None`).
fn in_class<'r, 'a>(rows: &'r [Row<'a>], class: Option<BenchClass>) -> Vec<&'r Row<'a>> {
    rows.iter()
        .filter(|(r, _)| class.is_none_or(|c| r.class == c))
        .collect()
}

fn per_profiler_figure(
    runs: &[BenchmarkRun],
    title: &str,
    note: &str,
    with_edge: bool,
    get: impl Fn(&ProfilerResult) -> f64,
    get_edge: impl Fn(&BenchmarkRun) -> f64,
    fmt: impl Fn(f64) -> String,
) -> Result<String, MissingConfig> {
    let configs = paper_configs();
    let rows = with_results(runs, &configs)?;
    let mut headers = vec!["Benchmark".to_owned()];
    if with_edge {
        headers.push("Edge".to_owned());
    }
    headers.extend(configs.iter().map(ProfilerConfig::label));
    let mut t = Table::new(headers);
    let row = |t: &mut Table, label: String, rs: &[&Row<'_>]| {
        let mut cells = vec![label];
        if with_edge {
            cells.push(fmt(mean(rs.iter().map(|(r, _)| get_edge(r)))));
        }
        for i in 0..configs.len() {
            cells.push(fmt(mean(rs.iter().map(|(_, p)| get(p[i])))));
        }
        t.row(cells);
    };
    for one in &rows {
        row(&mut t, one.0.name.clone(), &[one]);
    }
    t.separator();
    for (label, class) in AVERAGES {
        row(&mut t, label.to_owned(), &in_class(&rows, class));
    }
    Ok(format!("{title}\n{note}\n{}", t.render()))
}

/// Figure 9: accuracy of edge profiling, TPP, and PPP (PP shown as the
/// measurement reference).
///
/// # Errors
///
/// [`MissingConfig`] when a run lacks PP, TPP or PPP.
pub fn fig9(runs: &[BenchmarkRun]) -> Result<String, MissingConfig> {
    per_profiler_figure(
        runs,
        "Figure 9: accuracy (fraction of hot path flow predicted)",
        "(paper: edge profiles average 73% and fall to 26%; PPP averages 96%, within 1% of TPP)",
        true,
        |p| p.accuracy,
        |r| r.edge.accuracy,
        pct,
    )
}

/// Figure 10: coverage of edge profiling, TPP, and PPP.
///
/// # Errors
///
/// [`MissingConfig`] when a run lacks PP, TPP or PPP.
pub fn fig10(runs: &[BenchmarkRun]) -> Result<String, MissingConfig> {
    per_profiler_figure(
        runs,
        "Figure 10: coverage (fraction of actual path profile measured)",
        "(paper: edge profiles capture about half; TPP slightly above PPP)",
        true,
        |p| p.coverage,
        |r| r.edge.coverage,
        pct,
    )
}

/// Figure 11: fraction of dynamic paths instrumented (hashed portion in
/// parentheses, the paper's stripes).
///
/// # Errors
///
/// [`MissingConfig`] when a run lacks PP, TPP or PPP.
pub fn fig11(runs: &[BenchmarkRun]) -> Result<String, MissingConfig> {
    let configs = paper_configs();
    let rows = with_results(runs, &configs)?;
    let mut t = Table::new(
        std::iter::once("Benchmark".to_owned())
            .chain(configs.iter().map(ProfilerConfig::label))
            .collect::<Vec<_>>(),
    );
    let cell = |p: &ProfilerResult| {
        if p.fraction.hashed > 0.0005 {
            format!(
                "{} ({} hashed)",
                pct(p.fraction.measured),
                pct(p.fraction.hashed)
            )
        } else {
            pct(p.fraction.measured)
        }
    };
    for (r, results) in &rows {
        t.row(std::iter::once(r.name.clone()).chain(results.iter().map(|p| cell(p))));
    }
    t.separator();
    for (label, class) in AVERAGES {
        let rs = in_class(&rows, class);
        let avg = |i: usize| pct(mean(rs.iter().map(|(_, p)| p[i].fraction.measured)));
        t.row(std::iter::once(label.to_owned()).chain((0..configs.len()).map(avg)));
    }
    Ok(format!(
        "Figure 11: fraction of dynamic paths instrumented (hashed share in parens)\n\
         (paper: TPP and PPP instrument about half of dynamic paths)\n{}",
        t.render()
    ))
}

/// Figure 12: runtime overheads of PP, TPP, and PPP.
///
/// # Errors
///
/// [`MissingConfig`] when a run lacks PP, TPP or PPP.
pub fn fig12(runs: &[BenchmarkRun]) -> Result<String, MissingConfig> {
    per_profiler_figure(
        runs,
        "Figure 12: runtime overhead of path profiling",
        "(paper averages: PP 31%, TPP 12%, PPP 5%)",
        false,
        |p| p.overhead,
        |_| 0.0,
        pct_signed,
    )
}

/// Figure 13: leave-one-out ablation of PPP's techniques, normalized to
/// TPP's overhead, for benchmarks where PPP improves on TPP by more than
/// 5% (the paper's selection rule); then the one-at-a-time table.
///
/// # Errors
///
/// [`MissingConfig`] when a run lacks TPP or one of the ablation
/// configurations [`pipeline_configs`](crate::pipeline_configs) adds.
pub fn fig13(runs: &[BenchmarkRun]) -> Result<String, MissingConfig> {
    let leave_one_out: Vec<ProfilerConfig> = std::iter::once(ProfilerConfig::ppp())
        .chain(Technique::ALL.map(ProfilerConfig::ppp_without))
        .collect();
    let labels = |configs: &[ProfilerConfig]| {
        std::iter::once("Benchmark".to_owned())
            .chain(configs.iter().map(ProfilerConfig::label))
            .collect::<Vec<_>>()
    };
    let mut t = Table::new(labels(&leave_one_out));
    let with_tpp: Vec<ProfilerConfig> = std::iter::once(ProfilerConfig::tpp())
        .chain(leave_one_out.iter().copied())
        .collect();
    let mut qualifying = 0;
    for (r, results) in with_results(runs, &with_tpp)? {
        let (tpp, ppp) = (results[0], results[1]);
        // Selection rule: PPP improves runtime by > 5% over TPP (i.e. the
        // overhead gap exceeds 5 percentage points of runtime... the
        // paper's phrasing "more than 5% over TPP" — use overhead gap).
        if tpp.overhead - ppp.overhead <= 0.005 {
            continue;
        }
        qualifying += 1;
        let mut cells = vec![r.name.clone()];
        for p in &results[1..] {
            let norm = if tpp.overhead.abs() < 1e-9 {
                f64::NAN
            } else {
                p.overhead / tpp.overhead
            };
            cells.push(if norm.is_nan() {
                "-".to_owned()
            } else {
                f2(norm)
            });
        }
        t.row(cells);
    }
    let body = if qualifying == 0 {
        "(no benchmark met the selection rule at this scale)\n".to_owned()
    } else {
        t.render()
    };

    // One-at-a-time methodology (§8.3): the paper reports it only in
    // prose ("LC and SPN are beneficial, lowering TPP's overhead by 27%
    // and 16%"); we render the full table.
    let one_at_a_time: Vec<ProfilerConfig> = std::iter::once(ProfilerConfig::ppp_baseline())
        .chain(
            Technique::ALL
                .iter()
                .filter_map(|&t| ProfilerConfig::one_at_a_time(t)),
        )
        .collect();
    let rows = with_results(runs, &one_at_a_time)?;
    // Rows whose baseline has an overhead to normalize by.
    let live: Vec<&Row<'_>> = rows
        .iter()
        .filter(|(_, p)| p[0].overhead.abs() >= 1e-9)
        .collect();
    let mut t2 = Table::new(labels(&one_at_a_time));
    for (r, results) in &live {
        let base = results[0].overhead;
        t2.row(
            std::iter::once(r.name.clone()).chain(results.iter().map(|p| f2(p.overhead / base))),
        );
    }
    let mut avg = vec!["Avg".to_owned()];
    for i in 0..one_at_a_time.len() {
        avg.push(f2(mean(
            live.iter().map(|(_, p)| p[i].overhead / p[0].overhead),
        )));
    }
    t2.separator();
    t2.row(avg);

    Ok(format!(
        "Figure 13: PPP leave-one-out overhead, normalized to TPP (1.00 = TPP's overhead)\n\
         (lower is better; paper: FP and SAC matter most, Push next; removing a\n\
         technique sometimes helps on specific benchmarks — performance anomalies)\n{body}\n\
         One-at-a-time (§8.3): baseline + one technique, normalized to the baseline\n\
         (paper prose: LC and SPN lower the baseline's overhead by 27% and 16%)\n{}",
        t2.render()
    ))
}

/// Renders every table and figure.
///
/// # Errors
///
/// [`MissingConfig`] when a run lacks a configuration a figure reads.
pub fn all_reports(runs: &[BenchmarkRun]) -> Result<String, MissingConfig> {
    Ok([
        table1(runs),
        table2(runs),
        fig9(runs)?,
        fig10(runs)?,
        fig11(runs)?,
        fig12(runs)?,
        fig13(runs)?,
    ]
    .join("\n"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_workloads::spec2000_suite;

    fn tiny_runs() -> Vec<BenchmarkRun> {
        let suite = spec2000_suite();
        let opts = PipelineOptions {
            scale: 0.02,
            ablations: true,
            ..PipelineOptions::default()
        };
        // Two benchmarks, one of each class, keep tests fast.
        ["mcf", "mgrid"]
            .iter()
            .map(|n| {
                let e = suite.iter().find(|e| e.spec.name == *n).unwrap();
                run_benchmark(e, &opts).expect("pipeline completes")
            })
            .collect()
    }

    #[test]
    fn reports_render_for_small_suite() {
        let runs = tiny_runs();
        let t1 = table1(&runs);
        assert!(t1.contains("mcf"));
        assert!(t1.contains("INT Avg"));
        let t2 = table2(&runs);
        assert!(t2.contains("Distinct paths"));
        let f9 = fig9(&runs).expect("every configuration ran");
        assert!(f9.contains("Edge"));
        assert!(f9.contains("Overall Avg"));
        let f12 = fig12(&runs).expect("every configuration ran");
        assert!(f12.contains("PPP"));
        let f11 = fig11(&runs).expect("every configuration ran");
        assert!(f11.contains("mgrid"));
        let f13 = fig13(&runs).expect("every configuration ran");
        assert!(f13.contains("Figure 13"));
        let all = all_reports(&runs).expect("every configuration ran");
        assert!(all.len() > 1000);
    }

    #[test]
    fn a_missing_configuration_fails_the_reports_and_is_named() {
        let mut runs = tiny_runs();
        runs[1].profilers.retain(|p| p.label != "PPP-SPN");
        let missing = MissingConfig {
            benchmark: "mgrid".into(),
            label: "PPP-SPN".into(),
        };
        assert_eq!(fig13(&runs), Err(missing.clone()));
        assert_eq!(all_reports(&runs), Err(missing));
        assert!(fig12(&runs).is_ok(), "fig12 reads no ablation");
        runs[0].profilers.retain(|p| p.label != "TPP");
        let err = fig9(&runs).expect_err("mcf has no TPP");
        assert_eq!(err.to_string(), "mcf: no TPP result in the run set");
    }

    #[test]
    fn a_failed_entry_fails_the_suite_and_is_named() {
        let mut results: Vec<_> = tiny_runs().into_iter().map(Ok).collect();
        assert_eq!(suite_runs(results.clone()).expect("no failure").len(), 2);
        results.insert(
            1,
            Err(PipelineError::NoMain {
                benchmark: "swim".into(),
                error: ppp_vm::VmError::NoSuchFunction {
                    name: "main".into(),
                },
            }),
        );
        let err = suite_runs(results).expect_err("a failed entry fails the suite");
        assert_eq!(err.failed.len(), 1);
        assert_eq!(
            err.to_string(),
            "1 suite entry failed: swim: cannot execute benchmark: no function named \"main\""
        );
    }
}
