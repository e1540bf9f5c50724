//! Tests of the benchmark itself: the percentile rule, the correctness
//! gate, and tiny-scale smoke runs of every workload against the metric
//! names `BENCHMARK.json` lists.

use perfbench::stats::{median, Percentile, MIN_BEYOND};
use ppp_obs::json::{self, Json};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn samples(n: usize) -> Vec<f64> {
    // Shuffled on purpose: the percentile must sort.
    (1..=n).rev().map(|v| v as f64).collect()
}

#[test]
fn percentiles_need_ten_samples_beyond_them() {
    // p50 of 1..=20 is rank 10, with exactly 10 samples above it.
    assert_eq!(Percentile::of(&samples(20), 50).value, Some(10.0));
    assert_eq!(Percentile::of(&samples(19), 50).value, None);
    // p90 needs 100 samples, p99 needs 1000.
    assert_eq!(Percentile::of(&samples(100), 90).value, Some(90.0));
    assert_eq!(Percentile::of(&samples(99), 90).value, None);
    assert_eq!(Percentile::of(&samples(1000), 99).value, Some(990.0));
    assert_eq!(Percentile::of(&samples(999), 99).value, None);
    assert_eq!(Percentile::of(&[], 50).value, None);
    assert_eq!(MIN_BEYOND, 10);
}

#[test]
fn percentiles_carry_their_sample_count() {
    let supported = Percentile::of(&samples(100), 90);
    assert_eq!(supported.samples, 100);
    assert_eq!(supported.render("us"), "90.000 us (n=100)");
    let unsupported = Percentile::of(&samples(50), 90);
    assert_eq!(unsupported.samples, 50);
    let text = unsupported.render("us");
    assert!(text.starts_with("unsupported (n=50"), "{text}");
}

#[test]
fn median_of_odd_even_and_empty() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

/// Runs the benchmark binary and returns its parsed JSON result.
fn run_bench(args: &[&str]) -> (Json, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    (json::parse(last).expect("the last line is JSON"), stdout)
}

fn scratch(name: &str) -> PathBuf {
    Path::new(env!("CARGO_TARGET_TMPDIR")).join(name)
}

#[test]
fn a_tampered_reference_raises_the_fail_ratio() {
    let reference = scratch("short-window-tiny.json");
    let common = [
        "--workload",
        "short-window",
        "--scale",
        "0.002",
        "--seconds",
        "0",
    ];
    let status = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(common)
        .args(["--write-reference", reference.to_str().expect("utf-8 path")])
        .status()
        .expect("benchmark binary runs");
    assert!(status.success());
    let reference_arg = ["--reference", reference.to_str().expect("utf-8 path")];

    let (clean, _) = run_bench(&[&common[..], &reference_arg[..]].concat());
    assert_eq!(clean.get("failed").and_then(Json::as_u64), Some(0));
    assert_eq!(clean.get("correct"), Some(&Json::Bool(true)));

    // One lost path more on one profiler of one benchmark.
    let doc = std::fs::read_to_string(&reference).expect("reference written");
    let tampered = doc.replacen("\"lost_paths\":0", "\"lost_paths\":1", 1);
    assert_ne!(doc, tampered);
    std::fs::write(&reference, tampered).expect("reference rewritten");
    let (bad, stdout) = run_bench(&[&common[..], &reference_arg[..]].concat());
    let attempted = bad
        .get("attempted")
        .and_then(Json::as_u64)
        .expect("attempted");
    let failed = bad.get("failed").and_then(Json::as_u64).expect("failed");
    assert!(failed > 0 && failed <= attempted, "{stdout}");
    assert_eq!(bad.get("correct"), Some(&Json::Bool(false)));
    assert!(stdout.contains("FAILED"), "{stdout}");
    let ratio_line = stdout
        .lines()
        .find(|l| l.starts_with("fail_ratio"))
        .expect("fail_ratio printed");
    assert!(!ratio_line.contains(" 0.000000 "), "{ratio_line}");
}

/// `name -> unit` of one metric list in `BENCHMARK.json`.
fn declared(list: &str) -> BTreeMap<String, String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let doc = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let v = json::parse(&doc).expect("BENCHMARK.json parses");
    v.get(list)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_owned();
            (field("name"), field("unit"))
        })
        .collect()
}

/// `name -> unit` of the metrics a run printed.
fn printed(result: &Json) -> BTreeMap<String, String> {
    result
        .get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            let unit = m.get("unit").and_then(Json::as_str).expect("unit");
            (name.clone(), unit.to_owned())
        })
        .collect()
}

fn smoke(workload: &str, scale: &str) {
    for (trace, list) in [("0", "end_to_end"), ("1", "per_layer")] {
        let args = [
            "--workload",
            workload,
            "--scale",
            scale,
            "--seconds",
            "0",
            "--trace",
            trace,
        ];
        let (result, stdout) = run_bench(&args);
        assert_eq!(
            result.get("failed").and_then(Json::as_u64),
            Some(0),
            "{stdout}"
        );
        assert_eq!(
            printed(&result),
            declared(list),
            "{workload} --trace {trace}"
        );
        for name in declared(list).keys() {
            assert!(
                stdout.lines().any(|l| l.starts_with(name.as_str())),
                "{name} missing from the readable report:\n{stdout}"
            );
        }
    }
}

#[test]
fn long_run_smoke_prints_every_declared_metric() {
    smoke("long-run", "0.002");
}

#[test]
fn short_window_smoke_prints_every_declared_metric() {
    smoke("short-window", "0.002");
}

#[test]
fn ingest_smoke_prints_every_declared_metric() {
    smoke("ingest", "0.005");
}
