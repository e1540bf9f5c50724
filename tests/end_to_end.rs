//! Cross-crate integration tests: the whole stack, end to end, on
//! generated workloads.

use ppp::core::{instrument_module, measured_paths, normalize_module, ProfilerConfig, Technique};
use ppp::ir::verify_module;
use ppp::opt::{inline_module, unroll_module, InlineOptions, UnrollOptions};
use ppp::vm::{run, RunOptions};
use ppp::workloads::{generate, spec2000_suite, BenchmarkSpec};

fn workload(name: &str) -> ppp::ir::Module {
    let mut m = generate(&BenchmarkSpec::named(name).scaled(0.05));
    normalize_module(&mut m);
    m
}

/// Instrumentation must never change program semantics, for any profiler
/// configuration, on any benchmark personality — the checksum is the
/// oracle.
#[test]
fn instrumentation_is_semantically_transparent_across_suite() {
    let suite = spec2000_suite();
    for entry in suite.iter().step_by(4) {
        let m = generate(&entry.spec.clone().scaled(0.02));
        let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let edges = traced.edge_profile.unwrap();
        for config in [
            ProfilerConfig::pp(),
            ProfilerConfig::tpp(),
            ProfilerConfig::ppp(),
        ] {
            let plan = instrument_module(&m, Some(&edges), &config);
            assert_eq!(verify_module(&plan.module), Ok(()), "{}", entry.spec.name);
            let r = run(&plan.module, "main", &RunOptions::default()).unwrap();
            assert_eq!(
                r.checksum,
                traced.checksum,
                "{} under {}",
                entry.spec.name,
                config.label()
            );
        }
    }
}

/// The full staged-optimizer pipeline (profile → inline → unroll →
/// re-instrument) preserves semantics at every step.
#[test]
fn optimization_pipeline_preserves_semantics() {
    let mut m = workload("pipeline-e2e");
    let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
    let checksum = traced.checksum;
    let edges0 = traced.edge_profile.unwrap();

    inline_module(&mut m, &edges0, &InlineOptions::default());
    assert_eq!(verify_module(&m), Ok(()));
    let r1 = run(&m, "main", &RunOptions::default().traced()).unwrap();
    assert_eq!(r1.checksum, checksum, "inlining broke semantics");

    let edges1 = r1.edge_profile.unwrap();
    unroll_module(&mut m, &edges1, &UnrollOptions::default());
    normalize_module(&mut m);
    assert_eq!(verify_module(&m), Ok(()));
    let r2 = run(&m, "main", &RunOptions::default().traced()).unwrap();
    assert_eq!(r2.checksum, checksum, "unrolling broke semantics");

    // And instrumenting the optimized module is still transparent.
    let edges2 = r2.edge_profile.unwrap();
    let plan = instrument_module(&m, Some(&edges2), &ProfilerConfig::ppp());
    let r3 = run(&plan.module, "main", &RunOptions::default()).unwrap();
    assert_eq!(
        r3.checksum, checksum,
        "instrumenting optimized code broke semantics"
    );
}

/// PP's measured profile equals the tracer's exact profile whenever no
/// hash table loses paths.
#[test]
fn pp_measures_exactly_when_arrays_suffice() {
    let mut spec = BenchmarkSpec::named("exact-check").scaled(0.05);
    spec.explosive_funcs = 0; // keep every routine under the hash threshold
    let m = generate(&spec);
    let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
    let edges = traced.edge_profile.unwrap();
    let truth = traced.path_profile.unwrap();
    let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::pp());
    assert!(plan.funcs.iter().all(|f| !f.uses_hash));
    let r = run(&plan.module, "main", &RunOptions::default()).unwrap();
    assert_eq!(r.store.total_lost(), 0);
    let measured = measured_paths(&plan, &m, &r.store);
    assert_eq!(measured.total_unit_flow(), truth.total_unit_flow());
    for (fid, key, stats) in truth.iter() {
        let got = measured.func(fid).paths.get(key).copied();
        assert_eq!(got.map(|s| s.freq), Some(stats.freq), "path {key:?}");
    }
}

/// Overheads must be ordered PPP <= TPP <= PP (allowing tiny noise) and
/// PPP must never lose much accuracy to TPP.
#[test]
fn profiler_ordering_holds_on_generated_workloads() {
    for name in ["order-a", "order-b"] {
        let m = workload(name);
        let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let base = traced.cost;
        let edges = traced.edge_profile.unwrap();
        let cost = |c: ProfilerConfig| {
            let plan = instrument_module(&m, Some(&edges), &c);
            run(&plan.module, "main", &RunOptions::default())
                .unwrap()
                .overhead_vs(base)
                .expect("live baseline")
        };
        let pp = cost(ProfilerConfig::pp());
        let tpp = cost(ProfilerConfig::tpp());
        let ppp = cost(ProfilerConfig::ppp());
        assert!(tpp <= pp + 1e-9, "{name}: TPP {tpp} > PP {pp}");
        assert!(ppp <= tpp + 1e-9, "{name}: PPP {ppp} > TPP {tpp}");
    }
}

/// Each leave-one-out ablation runs, verifies, and costs at least as much
/// as full PPP minus noise (removing a technique should not help much).
#[test]
fn ablations_cost_no_less_than_full_ppp() {
    let m = workload("ablate");
    let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
    let base = traced.cost;
    let edges = traced.edge_profile.unwrap();
    let full = {
        let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::ppp());
        run(&plan.module, "main", &RunOptions::default())
            .unwrap()
            .overhead_vs(base)
            .expect("live baseline")
    };
    for t in Technique::ALL {
        let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::ppp_without(t));
        assert_eq!(verify_module(&plan.module), Ok(()), "{t:?}");
        let oh = run(&plan.module, "main", &RunOptions::default())
            .unwrap()
            .overhead_vs(base)
            .expect("live baseline");
        // The paper observes occasional anomalies where removing a
        // technique helps (SPN permutes cache behaviour); under the cost
        // model only small reversals are possible (ordering effects).
        assert!(
            oh >= full - 0.02,
            "removing {t:?} reduced overhead too much: {oh} vs {full}"
        );
    }
}

/// The textual IR round-trips for generated modules (printer ↔ parser).
#[test]
fn generated_modules_roundtrip_through_text() {
    let m = workload("roundtrip");
    let text = ppp::ir::print_module(&m);
    let parsed = ppp::ir::parse_module(&text).expect("printed module parses");
    assert_eq!(m, parsed);
}

/// Real profiles persist and reload losslessly (the staged-optimizer
/// save/load cycle).
#[test]
fn profiles_roundtrip_through_persistence() {
    let m = workload("persist");
    let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
    let edges = traced.edge_profile.unwrap();
    let paths = traced.path_profile.unwrap();

    let etext = ppp::ir::write_edge_profile_v2(&m, &edges);
    let eback = ppp::ir::read_edge_profile_v2(&m, etext.as_bytes()).expect("edge profile loads");
    assert_eq!(edges, eback);

    let ptext = ppp::ir::write_path_profile_v2(&m, &paths);
    let pback = ppp::ir::read_path_profile_v2(&m, ptext.as_bytes()).expect("path profile loads");
    assert_eq!(paths, pback);

    // A reloaded edge profile drives instrumentation identically.
    let plan_a = instrument_module(&m, Some(&edges), &ProfilerConfig::ppp());
    let plan_b = instrument_module(&m, Some(&eback), &ProfilerConfig::ppp());
    assert_eq!(plan_a.module, plan_b.module);
}

/// Determinism: the same spec and seed produce identical results at every
/// stage, including instrumented runs.
#[test]
fn whole_stack_is_deterministic() {
    let run_once = || {
        let m = workload("determinism");
        let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let edges = traced.edge_profile.unwrap();
        let plan = instrument_module(&m, Some(&edges), &ProfilerConfig::ppp());
        let r = run(&plan.module, "main", &RunOptions::default()).unwrap();
        (traced.checksum, traced.cost, r.cost, r.prof_steps)
    };
    assert_eq!(run_once(), run_once());
}
