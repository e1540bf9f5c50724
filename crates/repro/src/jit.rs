//! `repro jit`: the closed re-optimization loop over the suite.
//!
//! Runs each benchmark through `ppp-jit`'s generation loop (serve under
//! PPP instrumentation → live snapshot → re-optimize hot functions →
//! validate → transfer the stale profile → hot-swap → iterate) and emits
//! a schema-versioned `ppp-jit/v1` artifact with per-generation
//! cost-model speedup, time-to-steady-state, transfer coverage, and
//! witness/lint verdicts. [`jit_gate`] is the CI contract: every
//! benchmark must reach steady state within the generation cap with
//! monotone non-increasing cost, every generation witness-validated
//! (PPP3xx-clean), and every transferred profile PPP308
//! flow-conservative.

use crate::format::Table;
use crate::pipeline::{sweep_suite, PipelineOptions};
use ppp_jit::{run_jit, JitError, JitOptions, JitOutcome};
use ppp_obs::json;
use ppp_workloads::generate;

/// Version of the `ppp-jit` artifact schema.
pub const JIT_SCHEMA_VERSION: u64 = 1;

/// The artifact's `kind` discriminator (`ppp-jit/v1` together with
/// [`JIT_SCHEMA_VERSION`]).
pub const JIT_KIND: &str = "ppp-jit";

/// Builds the engine options for a suite sweep from the shared pipeline
/// options plus the jit-specific knobs.
pub fn jit_options(
    options: &PipelineOptions,
    generations: usize,
    hot_threshold: f64,
) -> JitOptions {
    JitOptions {
        generations: generations.max(1),
        hot_threshold,
        seed: options.seed,
        scale: options.scale,
        ..JitOptions::default()
    }
}

/// Runs the re-optimization loop over the suite.
///
/// `bench` narrows the sweep to one benchmark or a comma-separated
/// list (the CI smoke runs three representative ones). Progress goes
/// to the observation sink. `workers > 1` fans benchmarks over that
/// many threads; each loop is seed-deterministic and results are
/// collected in suite order, so everything except wall-clock fields is
/// byte-identical to a sequential sweep.
pub fn jit_suite(
    bench: Option<&str>,
    jopts: &JitOptions,
    workers: usize,
) -> Result<Vec<JitOutcome>, JitError> {
    sweep_suite(bench, workers, "jit.progress", |entry| {
        let module = generate(&entry.spec.clone().scaled(jopts.scale));
        run_jit(&module, &entry.spec.name, jopts)
    })
    .into_iter()
    .collect()
}

/// The CI convergence contract over a sweep's outcomes.
///
/// # Errors
///
/// Returns a message naming every benchmark that missed steady state,
/// increased cost across a generation, failed a witness/lint gate, or
/// transferred a non-conservative profile.
pub fn jit_gate(outcomes: &[JitOutcome]) -> Result<(), String> {
    let mut failures = Vec::new();
    for o in outcomes {
        if !o.steady_state {
            failures.push(format!(
                "{}: no steady state within {} generation(s)",
                o.bench, o.generations_run
            ));
        }
        if !o.monotone_costs() {
            failures.push(format!("{}: cost increased across a generation", o.bench));
        }
        if !o.witness_clean() {
            failures.push(format!("{}: a witness/lint gate failed", o.bench));
        }
        if !o.transfers_conservative() {
            failures.push(format!("{}: a transferred profile broke PPP308", o.bench));
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

/// Renders a sweep as the `ppp-jit/v1` JSON artifact.
pub fn jit_json(outcomes: &[JitOutcome], jopts: &JitOptions) -> String {
    json::object(|o| {
        o.field("schema_version", JIT_SCHEMA_VERSION)
            .field("kind", JIT_KIND)
            .field("seed", jopts.seed)
            .field("scale", jopts.scale)
            .field("hot_threshold", jopts.hot_threshold)
            .field("epsilon", jopts.epsilon)
            .field("generation_cap", jopts.generations)
            .objs("benchmarks", outcomes, |o, b| {
                o.field("bench", &b.bench)
                    .field("steady_state", b.steady_state)
                    .field("generations_to_steady", b.generations_run)
                    .field("initial_cost", b.initial_cost)
                    .field("final_cost", b.final_cost)
                    .field("total_speedup", b.total_speedup)
                    .field("swaps", b.swaps)
                    .field("monotone", b.monotone_costs())
                    .field("witness_clean", b.witness_clean())
                    .field("transfers_conservative", b.transfers_conservative())
                    .field("wall_ms", b.wall_ms)
                    .objs("generations", &b.generations, |o, g| {
                        o.field("generation", g.generation)
                            .field("candidate_cost", g.candidate_cost)
                            .field("cost_after", g.cost_after)
                            .field("improvement", g.improvement)
                            .field("speedup_vs_initial", g.speedup_vs_initial)
                            .field("promoted", g.promoted)
                            .field("serve_cost", g.serve_cost)
                            .field("serve_prof_cost", g.serve_prof_cost)
                            .field("overhead", g.overhead)
                            .field("deltas_streamed", g.deltas_streamed)
                            .field("instrumented_routines", g.instrumented_routines)
                            .field("static_prof_insts", g.static_prof_insts)
                            .field("hot_functions", g.hot_functions)
                            .field("total_functions", g.total_functions)
                            .field("inlined_sites", g.inline.inlined_sites)
                            .field(
                                "unrolled_loops",
                                g.unroll.counted_unrolled + g.unroll.generic_unrolled,
                            )
                            .field("witness_clean", g.witness_clean());
                        match &g.transfer {
                            None => o.field("transfer", ()),
                            Some(t) => o.obj("transfer", |o| {
                                o.field("pairs", t.pairs)
                                    .field("anchor_pairs", t.anchor_pairs)
                                    .field("unmatched_old", t.unmatched_old)
                                    .field("unmatched_new", t.unmatched_new)
                                    .field("transferred_edges", t.transferred_edges)
                                    .field("dropped_flow", t.dropped_flow)
                                    .field("moved_flow", t.moved_flow)
                                    .field("renormalized_funcs", t.renormalized_funcs)
                                    .field("zeroed_funcs", t.zeroed_funcs)
                                    .field("coverage", t.coverage)
                                    .field("identity", t.identity)
                                    .field("conservative", t.conservative);
                            }),
                        };
                        o.field("wall_ms", g.wall_ms);
                    });
            });
    })
}

/// Renders a sweep as a human-readable table.
pub fn jit_table(outcomes: &[JitOutcome]) -> String {
    let mut t = Table::new([
        "Benchmark",
        "Gens",
        "Steady",
        "Init cost",
        "Final cost",
        "Speedup",
        "Overhead@1",
        "Transfer cov",
        "Witness",
        "Wall(ms)",
    ]);
    for o in outcomes {
        let coverage = o
            .generations
            .iter()
            .filter_map(|g| g.transfer.as_ref())
            .map(|tr| tr.coverage)
            .fold(f64::NAN, f64::min);
        t.row([
            o.bench.clone(),
            o.generations_run.to_string(),
            if o.steady_state { "yes" } else { "NO" }.to_owned(),
            o.initial_cost.to_string(),
            o.final_cost.to_string(),
            format!("{:.3}x", o.total_speedup),
            o.generations
                .first()
                .map_or_else(String::new, |g| format!("{:+.1}%", 100.0 * g.overhead)),
            if coverage.is_nan() {
                "-".to_owned()
            } else {
                format!("{:.1}%", 100.0 * coverage)
            },
            if o.witness_clean() { "clean" } else { "DIRTY" }.to_owned(),
            format!("{:.0}", o.wall_ms),
        ]);
    }
    let steady = outcomes.iter().filter(|o| o.steady_state).count();
    format!(
        "jit loop: {} benchmark(s), {} steady, {} swaps total\n{}",
        outcomes.len(),
        steady,
        outcomes.iter().map(|o| o.swaps).sum::<u64>(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::prepare_benchmark;
    use ppp_ir::{write_edge_profile_v2, write_path_profile_v2};
    use ppp_vm::{run, RunOptions};
    use ppp_workloads::spec2000_suite;

    /// The hot-swap determinism safety net: a 1-generation loop with the
    /// full profile available (warm start, hot_threshold 0) must be
    /// byte-identical to the one-shot pipeline — same optimized module
    /// (compared through its canonical profile serialization), same
    /// ground-truth profiles, same cost — across the whole suite and two
    /// seeds.
    #[test]
    fn one_generation_loop_is_byte_identical_to_the_one_shot_pipeline() {
        for seed in [0x5EEDu64, 701] {
            let options = PipelineOptions {
                scale: 0.02,
                seed,
                ..PipelineOptions::default()
            };
            let suite = spec2000_suite();
            for entry in &suite {
                let name = entry.spec.name.as_str();
                let prep = prepare_benchmark(entry, &options).expect("pipeline completes");
                let jopts = JitOptions {
                    generations: 1,
                    ..jit_options(&options, 1, 0.0)
                };
                let module = generate(&entry.spec.clone().scaled(options.scale));
                let out = run_jit(&module, name, &jopts).expect("loop completes");
                assert_eq!(out.generations_run, 1, "{name}@{seed}");
                let g = &out.generations[0];
                assert!(g.promoted, "{name}@{seed}: generation 1 must promote");
                assert!(g.witness_clean(), "{name}@{seed}");
                assert_eq!(out.final_cost, prep.baseline_cost, "{name}@{seed}: cost");
                assert_eq!(
                    (g.inline.inlined_sites, g.inline.total_sites),
                    (prep.inline.inlined_sites, prep.inline.total_sites),
                    "{name}@{seed}: inline report"
                );
                assert_eq!(
                    (g.unroll.counted_unrolled, g.unroll.generic_unrolled),
                    (prep.unroll.counted_unrolled, prep.unroll.generic_unrolled),
                    "{name}@{seed}: unroll report"
                );
                // The observable that matters for hot-swap: the module
                // the loop ends up serving is the pipeline's optimized
                // module, bit for bit (canonical profile serialization
                // covers every function name, CFG shape, and count).
                let r = run(
                    &out.final_module,
                    "main",
                    &RunOptions::default().with_seed(seed).traced(),
                )
                .expect("final module runs");
                assert_eq!(
                    write_edge_profile_v2(&out.final_module, &r.edge_profile.clone().unwrap()),
                    write_edge_profile_v2(&prep.module, &prep.edges),
                    "{name}@{seed}: edge profile observables"
                );
                assert_eq!(
                    write_path_profile_v2(&out.final_module, &r.path_profile.clone().unwrap()),
                    write_path_profile_v2(&prep.module, &prep.truth),
                    "{name}@{seed}: path profile observables"
                );
                assert_eq!(r.cost, prep.baseline_cost, "{name}@{seed}: traced cost");
            }
        }
    }

    #[test]
    fn the_suite_sweep_converges_and_passes_the_gate() {
        let options = PipelineOptions {
            scale: 0.02,
            seed: 701,
            ..PipelineOptions::default()
        };
        let jopts = jit_options(&options, 6, 0.0);
        let outcomes = jit_suite(None, &jopts, 4).expect("sweep completes");
        assert_eq!(outcomes.len(), spec2000_suite().len());
        jit_gate(&outcomes).expect("convergence contract");
        let json = jit_json(&outcomes, &jopts);
        let v = json::parse(&json).expect("artifact parses");
        assert_eq!(
            v.get("kind").and_then(json::Json::as_str),
            Some(JIT_KIND),
            "artifact kind"
        );
        assert_eq!(
            v.get("schema_version").and_then(json::Json::as_u64),
            Some(JIT_SCHEMA_VERSION)
        );
        let benches = v.get("benchmarks").and_then(json::Json::as_arr).unwrap();
        assert_eq!(benches.len(), outcomes.len());
        let table = jit_table(&outcomes);
        for o in &outcomes {
            assert!(table.contains(&o.bench), "table missing {}", o.bench);
        }
    }

    #[test]
    fn parallel_sweep_matches_sequential_on_every_deterministic_field() {
        let options = PipelineOptions {
            scale: 0.01,
            seed: 42,
            ..PipelineOptions::default()
        };
        let jopts = jit_options(&options, 3, 0.0);
        let a = jit_suite(Some("mcf"), &jopts, 1).expect("sequential");
        let b = jit_suite(Some("mcf"), &jopts, 4).expect("parallel");
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.bench, y.bench);
            assert_eq!(x.initial_cost, y.initial_cost);
            assert_eq!(x.final_cost, y.final_cost);
            assert_eq!(x.generations_run, y.generations_run);
            assert_eq!(x.steady_state, y.steady_state);
            assert_eq!(
                write_edge_profile_v2(&x.final_module, &x.final_guidance),
                write_edge_profile_v2(&y.final_module, &y.final_guidance)
            );
        }
    }

    #[test]
    fn the_gate_names_a_non_converged_benchmark() {
        let options = PipelineOptions {
            scale: 0.01,
            seed: 7,
            ..PipelineOptions::default()
        };
        let jopts = jit_options(&options, 3, 0.0);
        let mut outcomes = jit_suite(Some("mcf"), &jopts, 1).expect("sweep");
        outcomes[0].steady_state = false;
        let err = jit_gate(&outcomes).expect_err("gate trips");
        assert!(err.contains("mcf"), "{err}");
        assert!(err.contains("no steady state"), "{err}");
    }
}
