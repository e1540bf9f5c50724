//! `repro trace` is a view of the one benchmark run it traces. The
//! trace installs a process-global collecting context, so these tests
//! live in their own binary: a test on a sibling thread would write its
//! spans and metrics into it.

use ppp_obs::json::{self, Json, ToJson};
use ppp_repro::trace::{Trace, TRACE_SCHEMA};
use ppp_repro::{trace_benchmark, PipelineOptions};
use ppp_workloads::spec2000_suite;
use std::sync::{Mutex, PoisonError};

/// Both tests swap the process-global context.
static GLOBAL_CTX_LOCK: Mutex<()> = Mutex::new(());

/// Metric families of subsystems the traced run never enters.
const FOREIGN: [&str; 6] = [
    "ppp_agg_",
    "ppp_wal_",
    "ppp_jit_",
    "ppp_est_",
    "ppp_stale_",
    "ppp_match_",
];

fn trace_mcf() -> Trace {
    let _global = GLOBAL_CTX_LOCK
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    let suite = spec2000_suite();
    let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
    let options = PipelineOptions {
        scale: 0.02,
        ..PipelineOptions::default()
    };
    trace_benchmark(entry, &options).expect("trace completes")
}

fn span_names<'a>(node: &'a Json, out: &mut Vec<&'a str>) {
    out.push(node.get("name").and_then(Json::as_str).expect("span name"));
    for child in node.get("children").and_then(Json::as_arr).unwrap_or(&[]) {
        span_names(child, out);
    }
}

#[test]
fn trace_renders_stage_tree_and_metrics() {
    let text = trace_mcf().text();
    for stage in [
        "pipeline.prepare",
        "stage.profile@opt",
        "pipeline.run",
        "pipeline.profiler",
        "pipeline.lint",
        "vm.run",
    ] {
        assert!(text.contains(stage), "{stage}: {text}");
    }
    assert!(text.contains("ledger (self time by span name):"), "{text}");
    // The metric dump is the run's own.
    assert!(text.contains("ppp_vm_cost_units_total"), "{text}");
    assert!(text.contains("ppp_degrade_rung_total"), "{text}");
    assert!(text.contains("profiler=\"PPP\""), "{text}");
    for family in FOREIGN {
        assert!(!text.contains(family), "{family}: {text}");
    }
}

#[test]
fn trace_json_is_a_parseable_schema_versioned_artifact() {
    let doc = trace_mcf().to_json();
    let v = json::parse(&doc).expect("trace JSON parses");
    assert_eq!(v.get("schema").and_then(Json::as_str), Some(TRACE_SCHEMA));
    assert_eq!(v.get("benchmark").and_then(Json::as_str), Some("mcf"));
    let roots = v
        .get("spans")
        .and_then(|s| s.get("roots"))
        .and_then(Json::as_arr);
    let roots = roots.expect("span roots");
    let root_names: Vec<_> = roots
        .iter()
        .filter_map(|r| r.get("name")?.as_str())
        .collect();
    assert_eq!(root_names, ["pipeline.prepare", "pipeline.run"], "{doc}");
    let mut names = Vec::new();
    roots.iter().for_each(|r| span_names(r, &mut names));
    for name in &names {
        let staged = name.ends_with(".replay") || name.starts_with("jit.");
        assert!(
            !staged && !["client.send", "shard.apply"].contains(name),
            "{name}"
        );
    }
    // Self times telescope to the roots' time, up to one microsecond of
    // truncation per span.
    let ledger = v.get("ledger").and_then(Json::as_arr).expect("ledger");
    let sum =
        |rows: &[Json], k: &str| -> u64 { rows.iter().filter_map(|r| r.get(k)?.as_u64()).sum() };
    let spans = sum(ledger, "count");
    assert_eq!(spans, names.len() as u64, "every span is in the ledger");
    let (self_us, roots_us) = (sum(ledger, "self_us"), sum(roots, "elapsed_us"));
    assert!(
        self_us.abs_diff(roots_us) <= spans,
        "{self_us} vs {roots_us} µs"
    );
    let metrics = v
        .get("metrics")
        .and_then(|m| m.get("metrics"))
        .and_then(Json::as_arr);
    for m in metrics.expect("metric snapshot") {
        let name = m.get("name").and_then(Json::as_str).expect("metric name");
        assert!(!FOREIGN.iter().any(|f| name.starts_with(f)), "{name}");
    }
    assert!(doc.contains("ppp_vm_cost_units_total"), "{doc}");
}
