//! Command-line handling of the `ppp-repro` binary: every suite sweep
//! takes one benchmark or a comma-separated list, and an unknown name
//! anywhere in the list or a second subcommand is a usage error (exit 2).

use ppp_obs::json::{self, Json};
use std::process::{Command, Output};

/// Runs the binary with its scratch output (flight-recorder dumps)
/// kept under the test target directory.
fn repro(args: &[&str]) -> Output {
    let scratch = env!("CARGO_TARGET_TMPDIR");
    Command::new(env!("CARGO_BIN_EXE_ppp-repro"))
        .args(args)
        .args(["--flight-dir", scratch])
        .current_dir(scratch)
        .output()
        .expect("ppp-repro starts")
}

#[test]
fn chaos_and_validate_run_every_benchmark_of_a_comma_list() {
    for sweep in ["chaos", "validate"] {
        let out = repro(&[sweep, "mcf,swim", "--scale", "0.01", "--format", "json"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{sweep}: {stderr}");
        let doc = json::parse(std::str::from_utf8(&out.stdout).expect("UTF-8")).expect("JSON");
        let records = doc.as_arr().expect("an array of per-benchmark records");
        let mut names: Vec<_> = records
            .iter()
            .filter_map(|r| r.get("benchmark").and_then(Json::as_str))
            .collect();
        names.dedup();
        assert_eq!(names, ["mcf", "swim"], "{sweep}");
    }
}

#[test]
fn an_unknown_name_in_a_comma_list_is_a_usage_error() {
    for sweep in [
        "chaos", "validate", "lint", "drift", "predict", "bench", "jit", "drive",
    ] {
        let out = repro(&[sweep, "mcf,nosuch", "--scale", "0.01"]);
        assert_eq!(out.status.code(), Some(2), "{sweep}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("unknown benchmark \"nosuch\""), "{sweep}");
    }
}

#[test]
fn a_second_subcommand_is_a_usage_error() {
    for args in [["trace", "mcf", "lint"], ["chaos", "mcf", "drift"]] {
        let out = repro(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("one subcommand at a time"), "{args:?}");
    }
}
