//! Integration tests for the perf-baseline artifact and the
//! observability layer's overhead bound.

use ppp_repro::{
    baseline_from_json, baseline_json, collect_baseline, compare_baselines, run_benchmark,
    PipelineOptions,
};
use ppp_workloads::spec2000_suite;
use std::sync::Mutex;
use std::time::Instant;

/// Tests that swap the process-global observation context must not
/// interleave with each other (the test harness runs them on threads).
static GLOBAL_CTX_LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> PipelineOptions {
    PipelineOptions {
        scale: 0.02,
        ..PipelineOptions::default()
    }
}

/// `repro bench --workers N` changes wall-clock only: every gated
/// quantity — and the artifact bytes once the machine-dependent
/// `wall_ms` is masked — matches the sequential run exactly.
#[test]
fn parallel_baseline_matches_sequential() {
    let sequential = PipelineOptions {
        scale: 0.01,
        workers: 1,
        ..PipelineOptions::default()
    };
    let parallel = PipelineOptions {
        workers: 4,
        ..sequential
    };
    let mut a = collect_baseline(None, &sequential);
    let mut b = collect_baseline(None, &parallel);
    assert_eq!(b.benchmarks.len(), 18);
    assert!(
        compare_baselines(&a, &b, 0.0)
            .expect("comparable")
            .is_empty(),
        "gated quantities must not move under --workers"
    );
    for r in a.benchmarks.iter_mut().chain(b.benchmarks.iter_mut()) {
        r.wall_ms = 0.0;
    }
    assert_eq!(baseline_json(&a), baseline_json(&b));
}

/// The committed `BENCH_seed.json` re-emits byte for byte: parsing a
/// line and writing it again through the one JSON writer changes
/// nothing, so the CI perf gate compares like with like.
#[test]
fn committed_seed_baseline_re_emits_byte_identically() {
    let doc = include_str!("../../../BENCH_seed.json");
    assert!(doc.ends_with('\n'));
    for line in doc.lines() {
        let back = baseline_from_json(line).expect("committed baseline parses");
        assert_eq!(back.benchmarks.len(), 18);
        assert_eq!(baseline_json(&back), line);
    }
}

/// `repro bench --format json` output (the artifact `baseline_json`
/// prints verbatim) parses back and covers all 18 benchmarks with the
/// Figure 9–13 quantities.
#[test]
fn bench_json_covers_all_18_benchmarks() {
    let baseline = collect_baseline(None, &tiny());
    let doc = baseline_json(&baseline);
    let back = baseline_from_json(&doc).expect("artifact parses");
    assert_eq!(back.schema_version, ppp_repro::BASELINE_SCHEMA_VERSION);
    assert_eq!(back.benchmarks.len(), 18, "all suite entries covered");
    let suite = spec2000_suite();
    for entry in &suite {
        let rec = back
            .benchmarks
            .iter()
            .find(|b| b.name == entry.spec.name)
            .unwrap_or_else(|| panic!("{} missing from artifact", entry.spec.name));
        assert!(rec.wall_ms > 0.0, "{}: wall-time recorded", rec.name);
        assert!(rec.baseline_cost > 0, "{}: cost units recorded", rec.name);
        assert!(rec.dynamic_paths > 0, "{}: dynamic paths", rec.name);
        let labels: Vec<_> = rec.profilers.iter().map(|p| p.label.as_str()).collect();
        assert_eq!(labels, ["PP", "TPP", "PPP"], "{}", rec.name);
        for p in &rec.profilers {
            assert!(p.overhead >= 0.0, "{}/{}", rec.name, p.label);
            assert!(
                (0.0..=1.0).contains(&p.accuracy),
                "{}/{}",
                rec.name,
                p.label
            );
            assert!(
                (0.0..=1.0).contains(&p.coverage),
                "{}/{}",
                rec.name,
                p.label
            );
        }
    }
}

/// An injected regression makes the comparison non-empty — which is what
/// drives the CLI's non-zero exit code.
#[test]
fn injected_regression_fails_the_gate() {
    let entry_opts = tiny();
    let old = collect_baseline(Some("mcf"), &entry_opts);
    assert_eq!(old.benchmarks.len(), 1);
    // Same config, same seed: a re-run is identical in the gated
    // quantities, so the diff is clean.
    let new = collect_baseline(Some("mcf"), &entry_opts);
    assert!(
        compare_baselines(&old, &new, 0.10)
            .expect("comparable")
            .is_empty(),
        "identical runs must not regress"
    );
    // Now inject a regression beyond the threshold.
    let mut bad = new.clone();
    bad.benchmarks[0].profilers[2].overhead += 0.5;
    let regs = compare_baselines(&old, &bad, 0.10).expect("comparable");
    assert!(!regs.is_empty(), "injected regression must be flagged");
    assert_eq!(regs[0].quantity, "overhead");
}

/// The acceptance bound: with no-op sinks installed, span/metric
/// instrumentation adds <2% wall-time to a pipeline run.
///
/// The pipeline only observes at stage boundaries (never per VM
/// instruction), so the bound is checked by measuring (a) a full
/// benchmark run under a no-op context, (b) the number of observation
/// records that run emits when collected, and (c) the measured per-record
/// cost of the no-op path — asserting `records × per-record < 2% × run`.
#[test]
fn noop_observation_overhead_is_under_two_percent() {
    let _guard = GLOBAL_CTX_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let suite = spec2000_suite();
    let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
    let options = tiny();

    // (b) Count the records one run emits.
    let prev = ppp_obs::global();
    let (ctx, collect) = ppp_obs::ObsCtx::collecting();
    ppp_obs::install_global(ctx);
    run_benchmark(entry, &options).expect("collected run completes");
    let records = collect.len() as u64;

    // (a) Time the same run under a no-op sink (median of 3).
    ppp_obs::install_global(ppp_obs::ObsCtx::noop());
    let mut runs: Vec<u128> = (0..3)
        .map(|_| {
            let t = Instant::now();
            run_benchmark(entry, &options).expect("noop run completes");
            t.elapsed().as_nanos()
        })
        .collect();
    runs.sort();
    let run_ns = runs[1];

    // (c) Per-record cost of the no-op path (span open/set/close is the
    // most expensive record pair the pipeline emits).
    let noop = ppp_obs::ObsCtx::noop();
    let iters = 10_000u64;
    let t = Instant::now();
    for i in 0..iters {
        let mut s = noop.span("bench.probe");
        s.set("i", i);
    }
    let per_record_ns = t.elapsed().as_nanos() / u128::from(iters);
    ppp_obs::install_global(prev);

    let obs_ns = u128::from(records) * per_record_ns;
    assert!(records > 10, "pipeline emits spans ({records})");
    assert!(
        obs_ns * 50 < run_ns,
        "no-op observation cost {obs_ns}ns ({records} records × {per_record_ns}ns) \
         exceeds 2% of the {run_ns}ns run"
    );
}

/// Observation must never perturb results: the gated quantities are
/// identical whether records are dropped or collected.
#[test]
fn observation_sinks_do_not_change_measurements() {
    let _guard = GLOBAL_CTX_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let options = tiny();
    let prev = ppp_obs::global();
    ppp_obs::install_global(ppp_obs::ObsCtx::noop());
    let a = collect_baseline(Some("vpr"), &options);
    let (ctx, _collect) = ppp_obs::ObsCtx::collecting();
    ppp_obs::install_global(ctx);
    let b = collect_baseline(Some("vpr"), &options);
    ppp_obs::install_global(prev);
    assert_eq!(a.benchmarks.len(), b.benchmarks.len());
    let (ra, rb) = (&a.benchmarks[0], &b.benchmarks[0]);
    assert_eq!(ra.baseline_cost, rb.baseline_cost);
    assert_eq!(ra.dynamic_paths, rb.dynamic_paths);
    for (pa, pb) in ra.profilers.iter().zip(&rb.profilers) {
        assert_eq!(pa.label, pb.label);
        assert_eq!(pa.overhead, pb.overhead);
        assert_eq!(pa.accuracy, pb.accuracy);
        assert_eq!(pa.coverage, pb.coverage);
        assert_eq!(pa.lost_paths, pb.lost_paths);
    }
}
