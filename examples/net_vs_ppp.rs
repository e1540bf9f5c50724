//! Dynamo's NET predictor versus a real path profile (§2).
//!
//! Dynamo selects hot traces with *Next Executing Tail*: once a trace
//! head becomes hot, the very next path to execute there is chosen — one
//! trace per head, no counting. The paper argues NET "cannot distinguish
//! between the cases of a few dominant hot paths and many warm paths",
//! while PPP sees all of them (§2).
//!
//! This example builds both cases and measures how much hot flow each
//! approach identifies:
//!
//! - **dominant**: strongly biased branches — one path per head carries
//!   most flow. NET does fine.
//! - **warm**: near-uniform scenario-driven paths — each head spreads its
//!   flow over several warm paths. NET's one-per-head selection collapses.
//!
//! Run with: `cargo run --release --example net_vs_ppp`

use ppp::core::{
    accuracy, instrument_module, net_hot_flow_coverage, normalize_module, profiler_estimate,
    EstimateOptions, FlowMetric, NetConfig, NetPredictor, ProfilerConfig,
};
use ppp::vm::{run, run_with, RunOptions, Tracer};
use ppp::workloads::{generate, BenchmarkSpec};

fn scenario(name: &str, correlation: f64, bias: f64) -> (f64, f64) {
    // Identical program structure for both scenarios (fixed seed): only
    // the branch-behaviour knobs differ.
    let mut spec = BenchmarkSpec::named("net-demo");
    spec.name = name.to_owned();
    spec.correlation = correlation;
    spec.bias = bias;
    spec.scenario_ways = 64;
    spec.outer_iters = 4000;
    let mut module = generate(&spec);
    normalize_module(&mut module);

    // One traced run that also records the ordered path stream.
    let mut tracer = Tracer::new(&module);
    tracer.record_sequence();
    run_with(&module, "main", &RunOptions::default(), &mut tracer).expect("runs");
    let sequence = tracer.take_sequence();
    let (edges, truth) = tracer.finish(&module);

    // NET consumes the stream online.
    let mut net = NetPredictor::new(NetConfig { hot_threshold: 10 });
    net.observe_stream(&sequence);
    let net_cov = net_hot_flow_coverage(&net, &truth, FlowMetric::Branch, 0.00125);

    // PPP profiles, then its estimate is scored the usual way (§6.1).
    let plan = instrument_module(&module, Some(&edges), &ProfilerConfig::ppp());
    let r = run(&plan.module, "main", &RunOptions::default()).expect("runs");
    let est = profiler_estimate(
        &module,
        &plan,
        &edges,
        &r.store,
        FlowMetric::Branch,
        &EstimateOptions::default(),
    );
    let ppp_acc = accuracy(&truth, &est, FlowMetric::Branch, 0.00125);
    (net_cov, ppp_acc)
}

fn main() {
    println!(
        "{:12} {:>14} {:>14}",
        "scenario", "NET coverage", "PPP accuracy"
    );
    let (net_dom, ppp_dom) = scenario("net-dominant", 0.0, 0.97);
    println!(
        "{:12} {:>13.1}% {:>13.1}%   (one dominant path per head)",
        "dominant",
        100.0 * net_dom,
        100.0 * ppp_dom
    );
    let (net_warm, ppp_warm) = scenario("net-warm", 1.0, 0.55);
    println!(
        "{:12} {:>13.1}% {:>13.1}%   (many warm paths per head)",
        "warm",
        100.0 * net_warm,
        100.0 * ppp_warm
    );
    assert!(
        ppp_warm > net_warm,
        "PPP must beat NET in the warm-path regime"
    );
    assert!(
        net_dom > net_warm,
        "NET should degrade when flow spreads over warm paths"
    );
    println!(
        "\nNET keeps up when one path dominates each head, but in the warm regime it\n\
         commits to a single (possibly unlucky) tail per head — Dynamo's bail-out\n\
         scenario — while PPP's counters rank every warm path (§2)."
    );
}
