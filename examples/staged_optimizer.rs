//! The whole product: a self-hosted staged dynamic optimizer cycle.
//!
//! No oracle profiles anywhere — every profile is collected by
//! instrumentation this library inserted:
//!
//! 1. **stage 0**: instrument all edges, run, decode an edge profile,
//!    persist it in the checksummed v2 container (what a profile file on
//!    disk would hold);
//! 2. **stage 1**: reload the edge profile, inline + unroll + scalar-opt
//!    the program (the paper's §7.3 staging), re-collect edges on the
//!    optimized code;
//! 3. **stage 2**: PPP-instrument the optimized code guided by that
//!    profile, run, decode the hot paths a path-based optimizer would
//!    consume (§1's superblock/hyperblock clients).
//!
//! Run with: `cargo run --release --example staged_optimizer`

use ppp::core::{
    edge_instrument, instrument_module, measured_paths, normalize_module, ProfilerConfig,
};
use ppp::ir::{read_edge_profile_v2, write_edge_profile_v2, Module, ModuleEdgeProfile};
use ppp::opt::{inline_module, optimize_module, unroll_module, InlineOptions, UnrollOptions};
use ppp::vm::{run, RunOptions};
use ppp::workloads::{generate, BenchmarkSpec};

fn collect_edges(module: &Module) -> (ModuleEdgeProfile, u64, u64) {
    let instr = edge_instrument(module);
    let r = run(&instr.module, "main", &RunOptions::default()).expect("runs");
    let base = run(module, "main", &RunOptions::default()).expect("runs");
    (instr.decode(module, &r.store), r.cost, base.cost)
}

fn main() {
    let mut spec = BenchmarkSpec::named("staged-demo");
    spec.bias = 0.88; // SPEC-like: most branches are predictable
    spec.avg_trip = 14;
    spec.counted_loop_prob = 0.6;
    let mut module = generate(&spec);
    normalize_module(&mut module);

    // Stage 0: collect and persist an edge profile.
    let (edges0, cost_instr, cost_base) = collect_edges(&module);
    let profile_file = write_edge_profile_v2(&module, &edges0);
    println!(
        "stage 0: edge-instrumented run (+{:.1}% overhead), profile persisted ({} bytes)",
        100.0 * (cost_instr as f64 / cost_base as f64 - 1.0),
        profile_file.len()
    );

    // Stage 1: reload and optimize.
    let edges0 = read_edge_profile_v2(&module, profile_file.as_bytes()).expect("profile reloads");
    let inline = inline_module(&mut module, &edges0, &InlineOptions::default());
    let (edges1, _, _) = collect_edges(&module);
    let unroll = unroll_module(&mut module, &edges1, &UnrollOptions::default());
    optimize_module(&mut module);
    normalize_module(&mut module);
    println!(
        "stage 1: inlined {:.0}% of dynamic calls, avg unroll {:.2}",
        100.0 * inline.dynamic_fraction(),
        unroll.dynamic_avg_factor()
    );

    // Stage 2: path-profile the optimized code with PPP.
    let (edges2, _, base2) = collect_edges(&module);
    let plan = instrument_module(&module, Some(&edges2), &ProfilerConfig::ppp());
    let r = run(&plan.module, "main", &RunOptions::default()).expect("runs");
    let measured = measured_paths(&plan, &module, &r.store);
    let mut hot: Vec<_> = measured
        .iter()
        .map(|(f, k, s)| (f, k.clone(), s.branch_flow()))
        .collect();
    hot.sort_by_key(|t| std::cmp::Reverse(t.2));
    println!(
        "stage 2: PPP path profiling at +{:.1}% overhead, {} paths measured",
        100.0 * r.overhead_vs(base2).expect("live baseline"),
        measured.distinct_paths()
    );
    println!("\nhottest paths for the optimizer:");
    for (f, key, flow) in hot.iter().take(5) {
        let func = module.function(*f);
        println!(
            "  {:12} {} blocks starting at {}, branch flow {}",
            func.name,
            key.blocks(func).len(),
            key.start,
            flow
        );
    }
    println!(
        "\nEvery profile above came from inserted instrumentation — the full\n\
         staged-compilation loop the paper targets, with path profiling cheap\n\
         enough to leave on (§9)."
    );
}
