//! Runs one workload and builds its report: the end-to-end metrics from
//! untraced passes, or the per-layer metrics from traced passes.

use crate::ingest::{self, Host};
use crate::ledger::Ledger;
use crate::pipeline;
use crate::stats::{median, Percentile};
use ppp_workloads::{spec2000_suite, BenchClass};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The suite at scale 0.5: VM interpretation dominates.
    LongRun,
    /// The suite at scale 0.01: compile-side layers dominate.
    ShortWindow,
    /// Recorded deltas streamed into a durable aggregation server.
    Ingest,
}

impl Workload {
    /// Parses a workload name.
    ///
    /// # Errors
    ///
    /// Lists the known names.
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "long-run" => Ok(Self::LongRun),
            "short-window" => Ok(Self::ShortWindow),
            "ingest" => Ok(Self::Ingest),
            _ => Err(format!(
                "unknown workload {name:?} (long-run, short-window, ingest)"
            )),
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::LongRun => "long-run",
            Self::ShortWindow => "short-window",
            Self::Ingest => "ingest",
        }
    }

    /// The workload's default scale.
    pub fn scale(self) -> f64 {
        match self {
            Self::LongRun => 0.5,
            Self::ShortWindow => 0.01,
            Self::Ingest => ingest::SCALE,
        }
    }

    /// Set-ups made per run; `setup_s` is the fastest.
    fn setups(self) -> usize {
        match self {
            Self::LongRun | Self::ShortWindow => 5,
            Self::Ingest => 3,
        }
    }
}

/// One run's configuration.
#[derive(Clone, Debug)]
pub struct Config {
    /// Which workload.
    pub workload: Workload,
    /// Input seed (the VM seed of every run).
    pub seed: u64,
    /// Seconds to keep starting passes for.
    pub seconds: f64,
    /// `true` for the traced run (per-layer metrics).
    pub trace: bool,
    /// Workload scale (the workload's default unless overridden).
    pub scale: f64,
    /// Reference fixed points (defaults to the committed file for the
    /// workload and seed).
    pub reference: Option<PathBuf>,
}

/// End-to-end metrics, with units, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("suite_s", "s"),
    ("fp_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics other than the per-benchmark `bench.<name>_s`
/// rows, with units, in report order.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("workloads.generate_s", "s"),
    ("opt.scalar_s", "s"),
    ("opt.inline_s", "s"),
    ("opt.unroll_s", "s"),
    ("lint.transval_s", "s"),
    ("lint.plan_s", "s"),
    ("vm.traced_s", "s"),
    ("vm.traced_steps", "count"),
    ("vm.pp_s", "s"),
    ("vm.tpp_s", "s"),
    ("vm.ppp_s", "s"),
    ("vm.instrumented_steps", "count"),
    ("vm.prof_steps", "count"),
    ("vm.steps_per_s", "1/s"),
    ("core.instrument_s", "s"),
    ("core.edge_estimate_s", "s"),
    ("core.path_estimate_s", "s"),
    ("core.summarize_s", "s"),
    ("repro.degrade_s", "s"),
    ("agg.encode_s", "s"),
    ("agg.encode_bytes_per_delta", "B"),
    ("agg.decode_s", "s"),
    ("agg.wal_s", "s"),
    ("agg.wal_appends", "count"),
    ("agg.checkpoint_s", "s"),
    ("agg.checkpoints", "count"),
    ("agg.merge_s", "s"),
    ("agg.snapshots", "count"),
    ("agg.backpressure_stalls", "count"),
    ("agg.max_queue_depth", "count"),
    ("agg.frames", "count"),
    ("agg.frames_rejected", "count"),
    ("ingest_deltas_per_s", "deltas/s"),
    ("flush_samples", "count"),
    ("fail_ratio", "ratio"),
    ("unattributed_s", "s"),
    ("trace_overhead_s", "s"),
];

/// The layers' busy-time metrics; `unattributed_s` is traced wall time
/// minus their sum.
const LAYER_TIMES: [&str; 20] = [
    "workloads.generate_s",
    "opt.scalar_s",
    "opt.inline_s",
    "opt.unroll_s",
    "lint.transval_s",
    "lint.plan_s",
    "vm.traced_s",
    "vm.pp_s",
    "vm.tpp_s",
    "vm.ppp_s",
    "core.instrument_s",
    "core.edge_estimate_s",
    "core.path_estimate_s",
    "core.summarize_s",
    "repro.degrade_s",
    "agg.encode_s",
    "agg.decode_s",
    "agg.wal_s",
    "agg.checkpoint_s",
    "agg.merge_s",
];

/// Every per-layer metric name with its unit, `bench.<name>_s` rows
/// included.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER
        .iter()
        .map(|(n, u)| ((*n).to_owned(), *u))
        .collect();
    out.extend(
        spec2000_suite()
            .iter()
            .map(|e| (format!("bench.{}_s", e.spec.name), "s")),
    );
    out
}

/// A finished run.
pub struct Report {
    /// Operations attempted (benchmark runs, or deltas on ingest).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the JSON result.
    pub lines: Vec<String>,
}

impl Report {
    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect::<Vec<_>>()
            .join(", ");
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed
        )
    }
}

/// A finite JSON number (non-finite values cannot occur in a correct
/// run; they print as 0 rather than as invalid JSON).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The directory the benchmark writes its scratch files under.
fn work_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join(".work")
        .join(std::process::id().to_string())
}

/// Default reference file for a workload and seed.
pub fn default_reference(workload: Workload, seed: u64) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("ref")
        .join(format!("{}-{seed}.json", workload.name()))
}

/// Times `setups` set-ups, keeping the last one's result. The time is
/// the fastest set-up (best-of-N).
fn timed_setups<T>(
    setups: usize,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..setups.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f()?);
        best = best.min(t.elapsed().as_secs_f64());
    }
    let kept = last.expect("at least one set-up ran");
    Ok((best, kept))
}

/// `true` while another pass of `last_s` seconds still fits the budget.
fn another_pass(measure_start: Instant, seconds: f64, last_s: f64) -> bool {
    measure_start.elapsed().as_secs_f64() + last_s <= seconds
}

/// Runs one workload as configured.
///
/// # Errors
///
/// Set-up failures, and a traced run whose outputs differ from the
/// untraced run's (no per-layer numbers are reported then).
pub fn run(config: &Config) -> Result<Report, String> {
    let dir = work_dir();
    let out = match config.workload {
        Workload::LongRun | Workload::ShortWindow => run_pipeline(config),
        Workload::Ingest => run_ingest(config, &dir),
    };
    let _ = std::fs::remove_dir_all(&dir);
    let _ = dir.parent().map(std::fs::remove_dir);
    out
}

/// VM seeds of a pipeline workload's input windows, derived from the
/// run's seed. `short-window` profiles four short windows, so that one
/// run does not hinge on what a single short window happens to execute.
pub fn window_seeds(workload: Workload, seed: u64) -> Vec<u64> {
    let windows = if workload == Workload::ShortWindow {
        4
    } else {
        1
    };
    (0..windows)
        .map(|w| seed.wrapping_add(w * 1_000_003))
        .collect()
}

/// Writes the reference fixed points of a pipeline workload, one pass
/// per input window, to `path`.
///
/// # Errors
///
/// Fails for the ingest workload, on a failed entry, or on I/O errors.
pub fn write_reference(config: &Config, path: &Path) -> Result<(), String> {
    if config.workload == Workload::Ingest {
        return Err("the ingest workload checks against its recorded run".to_owned());
    }
    let suite = pipeline::setup(config.scale, config.seed)?;
    let passes: Vec<(u64, pipeline::Pass)> = window_seeds(config.workload, config.seed)
        .into_iter()
        .map(|seed| (seed, pipeline::untraced_pass(&suite, seed)))
        .collect();
    let doc = pipeline::reference_json(&suite, &passes)?;
    std::fs::write(path, doc).map_err(|e| format!("{}: {e}", path.display()))
}

fn metric_line(name: &str, value: f64, unit: &str) -> String {
    format!("{name:<26} {value:>16.6} {unit}")
}

fn fail_line(attempted: u64, failed: u64, what: &str) -> String {
    format!(
        "{:<26} {:>16.6} ratio ({failed} failed of {attempted} {what})",
        "fail_ratio",
        failed as f64 / attempted.max(1) as f64
    )
}

/// The end-to-end report: the metrics in [`END_TO_END`] order, then the
/// readable extras and the failure ratio.
fn e2e_report(
    values: [f64; 4],
    attempted: u64,
    failed: u64,
    mut lines: Vec<String>,
    extra: &[String],
    what: &str,
) -> Report {
    let metrics: Vec<(String, f64, &'static str)> = END_TO_END
        .iter()
        .zip(values)
        .map(|((name, unit), v)| ((*name).to_owned(), v, *unit))
        .collect();
    lines.extend(metrics.iter().map(|(n, v, u)| metric_line(n, *v, u)));
    lines.extend(extra.iter().cloned());
    lines.push(fail_line(attempted, failed, what));
    Report {
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// The traced run's report: `ledger` values, overridden by `extra`,
/// then the percentile lines.
fn per_layer_report(
    ledger: &Ledger,
    extra: &[(&str, f64)],
    attempted: u64,
    failed: u64,
    mut lines: Vec<String>,
    percentiles: &[(&str, Percentile, &str)],
) -> Report {
    let metrics: Vec<(String, f64, &'static str)> = per_layer_metrics()
        .into_iter()
        .map(|(name, unit)| {
            let value = extra
                .iter()
                .find(|(n, _)| *n == name)
                .map_or_else(|| ledger.get(&name), |(_, v)| *v);
            (name, value, unit)
        })
        .collect();
    lines.extend(
        metrics
            .iter()
            .filter(|(n, _, _)| n != "fail_ratio")
            .map(|(n, v, u)| metric_line(n, *v, u)),
    );
    for (name, p, unit) in percentiles {
        lines.push(format!("{name:<26} {}", p.render(unit)));
    }
    lines.push(fail_line(attempted, failed, "operations"));
    Report {
        attempted,
        failed,
        metrics,
        lines,
    }
}

/// The traced pass with the least wall time among `passes` (pairs of
/// wall seconds and ledger), with its `unattributed_s` set.
fn fastest_traced(passes: &[(f64, &Ledger)]) -> Option<(f64, Ledger)> {
    let (wall, ledger) = passes.iter().min_by(|a, b| a.0.total_cmp(&b.0))?;
    let mut l = (*ledger).clone();
    let layers: f64 = LAYER_TIMES.iter().map(|n| l.get(n)).sum();
    l.set("unattributed_s", wall - layers);
    Some((*wall, l))
}

fn run_pipeline(config: &Config) -> Result<Report, String> {
    let seeds = window_seeds(config.workload, config.seed);
    // The committed references hold the workloads' own scales.
    let reference_path = config.reference.clone().or_else(|| {
        (config.scale == config.workload.scale())
            .then(|| default_reference(config.workload, config.seed))
    });
    let setup = || pipeline::setup(config.scale, config.seed);
    let (mut setup_s, suite) = timed_setups(config.workload.setups(), setup)?;
    let reference = match &reference_path {
        Some(path) => pipeline::load_reference(path, &suite.options, &seeds)?,
        None => None,
    };
    let mut lines = vec![format!(
        "workload {} seed {} scale {}, input window seeds {seeds:?}: reference {}",
        config.workload.name(),
        config.seed,
        config.scale,
        match (&reference_path, &reference) {
            (Some(path), Some(_)) => path.display().to_string(),
            _ => "none (passes of one window must agree)".to_owned(),
        }
    )];

    // Passes cycle through the input windows; every window gets at
    // least one pass.
    let started = Instant::now();
    let mut untraced: Vec<(usize, pipeline::Pass)> = Vec::new();
    let mut traced: Vec<(usize, pipeline::Pass, Ledger)> = Vec::new();
    for k in 0.. {
        // Set-up is cheap here: repeat it between passes, so that its
        // best-of-N spans the run like the passes' does.
        let (again, _) = timed_setups(1, setup)?;
        setup_s = setup_s.min(again);
        let w = k % seeds.len();
        let pass = pipeline::untraced_pass(&suite, seeds[w]);
        let mut last = pass.wall_s;
        untraced.push((w, pass));
        if config.trace {
            let mut ledger = Ledger::default();
            let pass = pipeline::traced_pass(&suite, seeds[w], &mut ledger);
            last += pass.wall_s;
            traced.push((w, pass, ledger));
        }
        if k + 1 >= seeds.len() && !another_pass(started, config.seconds, last) {
            break;
        }
    }
    let checked: Vec<(u64, &pipeline::Pass)> =
        untraced.iter().map(|(w, p)| (seeds[*w], p)).collect();
    let (attempted, failures) = pipeline::check_passes(&suite, reference.as_deref(), &checked);
    let failed = failures.len() as u64;
    lines.extend(failures.iter().map(|f| format!("FAILED {f}")));

    // Each entry's fastest time in each window, summed over the
    // entries and averaged over the windows.
    let best_of = |fp_only: bool| {
        let mut total = 0.0;
        for w in 0..seeds.len() {
            for (i, entry) in suite.entries.iter().enumerate() {
                if fp_only && entry.class != BenchClass::Fp {
                    continue;
                }
                total += untraced
                    .iter()
                    .filter(|(pw, _)| *pw == w)
                    .map(|(_, p)| p.times[i])
                    .fold(f64::INFINITY, f64::min);
            }
        }
        total / seeds.len() as f64
    };
    let suite_s = best_of(false);

    if !config.trace {
        lines.push(format!(
            "{} untraced pass(es) over {} window(s); best of each entry per window:",
            untraced.len(),
            seeds.len()
        ));
        return Ok(e2e_report(
            [setup_s, suite_s, best_of(true), peak_rss_mb()],
            attempted,
            failed,
            lines,
            &[],
            "benchmark runs",
        ));
    }

    // The traced passes must measure the same program.
    for (w, pass, _) in &traced {
        let first = &untraced
            .iter()
            .find(|(uw, _)| uw == w)
            .expect("every window has an untraced pass")
            .1;
        let options = suite.window(seeds[*w]);
        for (entry, (want, got)) in suite
            .entries
            .iter()
            .zip(first.records.iter().zip(&pass.records))
        {
            let same = match (want, got) {
                (Ok(want), Ok(got)) => pipeline::check_record(&options, want, got),
                (Err(a), Err(b)) if a == b => Ok(()),
                _ => Err("one pass failed, the other did not".to_owned()),
            };
            same.map_err(|e| {
                format!(
                    "traced pass differs from the untraced pass on {} (seed {}): {e}",
                    entry.spec.name, seeds[*w]
                )
            })?;
        }
    }
    // Per window, the fastest traced pass; averaged over the windows.
    let mut fastest = Vec::new();
    let mut overhead = 0.0;
    for w in 0..seeds.len() {
        let of_window: Vec<(f64, &Ledger)> = traced
            .iter()
            .filter(|(tw, _, _)| *tw == w)
            .map(|(_, p, l)| (p.wall_s, l))
            .collect();
        let (wall, mut ledger) = fastest_traced(&of_window).expect("every window is traced");
        let busy: f64 = ["vm.traced_s", "vm.pp_s", "vm.tpp_s", "vm.ppp_s"]
            .iter()
            .map(|n| ledger.get(n))
            .sum();
        let steps = ledger.get("vm.traced_steps") + ledger.get("vm.instrumented_steps");
        ledger.set("vm.steps_per_s", steps / busy);
        let untraced_best = untraced
            .iter()
            .filter(|(uw, _)| *uw == w)
            .map(|(_, p)| p.wall_s)
            .fold(f64::INFINITY, f64::min);
        overhead += (wall - untraced_best) / seeds.len() as f64;
        fastest.push(ledger);
    }
    lines.push(format!(
        "{} traced pass(es) over {} window(s); fastest traced pass per window:",
        traced.len(),
        seeds.len()
    ));
    let extra = [
        ("trace_overhead_s", overhead),
        ("fail_ratio", failed as f64 / attempted.max(1) as f64),
    ];
    Ok(per_layer_report(
        &Ledger::mean(&fastest),
        &extra,
        attempted,
        failed,
        lines,
        &[],
    ))
}

fn run_ingest(config: &Config, dir: &Path) -> Result<Report, String> {
    let server_dir = dir.join("server");
    let (setup_s, (inputs, host)) = timed_setups(config.workload.setups(), || {
        let inputs = ingest::record(config.scale, config.seed)?;
        let host = Host::start(&inputs, &server_dir)?;
        Ok((inputs, host))
    })?;
    let mut lines = vec![format!(
        "workload ingest seed {} scale {}: {} deltas over {} benchmarks, \
         {} connections, {} shards",
        config.seed,
        config.scale,
        inputs.deltas(),
        inputs.benches.len(),
        ingest::CONNECTIONS,
        ingest::SHARDS
    )];
    let started = Instant::now();
    let mut host = Some(host);
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        let h = match host.take() {
            Some(h) => h,
            None => Host::start(&inputs, &server_dir)?,
        };
        let pass = ingest::untraced_pass(&inputs, &h);
        h.stop();
        let mut last = pass.wall_s;
        untraced.push(pass);
        if config.trace {
            let mut ledger = Ledger::default();
            let (wall_s, finals) = ingest::traced_pass(&inputs, &dir.join("replay"), &mut ledger)?;
            last += wall_s;
            traced.push((wall_s, finals, ledger));
        }
        if !another_pass(started, config.seconds, last) {
            break;
        }
    }
    let attempted: u64 = untraced.iter().map(|p| p.attempted).sum();
    let failed: u64 = untraced.iter().map(|p| p.failed).sum();
    for p in &untraced {
        lines.extend(p.failures.iter().map(|f| format!("FAILED {f}")));
    }
    // Each benchmark's fastest stream, summed per connection; the
    // slower connection sets the pass.
    let fastest_stream = |i: usize| {
        untraced
            .iter()
            .map(|p| p.stream_s[i])
            .fold(f64::INFINITY, f64::min)
    };
    let suite_s = (0..ingest::CONNECTIONS)
        .map(|c| {
            (c..inputs.benches.len())
                .step_by(ingest::CONNECTIONS)
                .map(fastest_stream)
                .sum::<f64>()
        })
        .fold(0.0, f64::max);
    let fp_s: f64 = (0..inputs.benches.len())
        .filter(|&i| inputs.benches[i].class == BenchClass::Fp)
        .map(fastest_stream)
        .sum();
    let rate = inputs.deltas() as f64 / suite_s;
    let flush_us: Vec<f64> = untraced.iter().flat_map(|p| p.flush_us.clone()).collect();
    let snapshot_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|p| p.snapshot_ms.clone())
        .collect();

    if !config.trace {
        lines.push(format!(
            "{} untraced pass(es); fastest pass:",
            untraced.len()
        ));
        let extra = [
            metric_line("ingest_deltas_per_s", rate, "deltas/s"),
            format!(
                "{:<26} {}",
                "flush_p50_us",
                Percentile::of(&flush_us, 50).render("us")
            ),
            format!(
                "{:<26} {}",
                "flush_p90_us",
                Percentile::of(&flush_us, 90).render("us")
            ),
        ];
        return Ok(e2e_report(
            [setup_s, suite_s, fp_s, peak_rss_mb()],
            attempted,
            failed,
            lines,
            &extra,
            "deltas",
        ));
    }

    // The traced passes must merge the same profiles.
    for (_, finals, _) in &traced {
        for (i, bench) in inputs.benches.iter().enumerate() {
            if finals[i].0 != bench.edges_v2 || finals[i].1 != bench.paths_v2 {
                return Err(format!(
                    "traced pass merged a different profile for {} than the recorded run",
                    bench.name
                ));
            }
            if untraced[0].snapshots[i]
                .as_ref()
                .is_some_and(|s| *s != finals[i])
            {
                return Err(format!(
                    "traced pass merged a different profile for {} than the server",
                    bench.name
                ));
            }
        }
    }
    let passes: Vec<(f64, &Ledger)> = traced.iter().map(|(w, _, l)| (*w, l)).collect();
    let (traced_wall, ledger) = fastest_traced(&passes).expect("at least one traced pass");
    let per_pass_median = |f: fn(&ingest::Pass) -> f64| {
        median(&untraced.iter().map(f).collect::<Vec<_>>()).unwrap_or(0.0)
    };
    lines.push(format!(
        "{} traced pass(es); fastest traced pass:",
        traced.len()
    ));
    let extra = [
        (
            "trace_overhead_s",
            traced_wall
                - untraced
                    .iter()
                    .map(|p| p.wall_s)
                    .fold(f64::INFINITY, f64::min),
        ),
        ("fail_ratio", failed as f64 / attempted.max(1) as f64),
        ("ingest_deltas_per_s", rate),
        ("flush_samples", flush_us.len() as f64),
        (
            "agg.backpressure_stalls",
            per_pass_median(|p| p.stalls as f64),
        ),
        (
            "agg.max_queue_depth",
            untraced
                .iter()
                .map(|p| p.max_queue_depth as f64)
                .fold(0.0, f64::max),
        ),
        (
            "agg.frames_rejected",
            untraced.iter().map(|p| p.frames_rejected as f64).sum(),
        ),
    ];
    let percentiles = [
        ("flush_p50_us", Percentile::of(&flush_us, 50), "us"),
        ("flush_p90_us", Percentile::of(&flush_us, 90), "us"),
        ("agg.flush_p99_us", Percentile::of(&flush_us, 99), "us"),
        (
            "agg.snapshot_p50_ms",
            Percentile::of(&snapshot_ms, 50),
            "ms",
        ),
        (
            "agg.snapshot_p90_ms",
            Percentile::of(&snapshot_ms, 90),
            "ms",
        ),
    ];
    Ok(per_layer_report(
        &ledger,
        &extra,
        attempted,
        failed,
        lines,
        &percentiles,
    ))
}
