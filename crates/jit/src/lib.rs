//! # ppp-jit: the closed re-optimization loop PPP was built for
//!
//! The paper's thesis is that practical path profiling is cheap enough
//! to run *inside* a dynamic optimizer. This crate closes that loop over
//! the workspace's existing tiers: it serves a workload under PPP
//! instrumentation in the VM ([`ppp_vm::VmHost`]), streams tracer deltas
//! to a live aggregator (`ppp-agg`), snapshots, folds the snapshot back
//! onto the served module ([`fold_edge_profile`] — exact, because
//! instrumentation only appends to CFGs and the VM replays bit-identical
//! control flow at a fixed seed), re-optimizes the hot functions with
//! the witnessed profile-guided transforms (`ppp-opt`), validates every
//! witness (`ppp-lint`, PPP3xx) and every profile (PPP307/308),
//! transfers the stale profile onto the new module (`ppp-match`) so the
//! next generation's instrumentation starts warm, hot-swaps the
//! re-optimized code into the host, and iterates until the cost-model
//! improvement between generations drops below epsilon.
//!
//! Promotion is conservative — a candidate replaces the served module
//! only if its uninstrumented cost-model cost did not increase — so the
//! served cost is monotone non-increasing across generations by
//! construction, and the loop always terminates (steady state or the
//! generation cap).
//!
//! With `hot_threshold = 0.0` and a warm start, a 1-generation loop is
//! byte-identical to the one-shot `ppp-repro` pipeline front end: the
//! determinism safety net for hot-swapping (`repro jit` exposes the
//! loop; the equivalence property is tested there).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod fold;

pub use engine::{
    run_jit, transfer_guidance, GenerationReport, JitError, JitOptions, JitOutcome, TransferSummary,
};
pub use fold::fold_edge_profile;

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_workloads::{generate, spec2000_suite};

    fn options() -> JitOptions {
        JitOptions {
            generations: 4,
            seed: 701,
            scale: 0.05,
            ..JitOptions::default()
        }
    }

    #[test]
    fn the_loop_reaches_steady_state_with_monotone_costs_and_clean_gates() {
        let entry = &spec2000_suite()[0];
        let module = generate(&entry.spec.clone().scaled(0.05));
        let out = run_jit(&module, &entry.spec.name, &options()).expect("loop completes");
        assert!(out.steady_state, "must converge within the cap");
        assert!(out.monotone_costs());
        assert!(out.witness_clean());
        assert!(out.transfers_conservative());
        assert!(out.final_cost <= out.initial_cost);
        assert!(!out.generations.is_empty());
        // The host performed one swap per post-first generation plus the
        // final re-instrumentation swap.
        assert_eq!(out.swaps, out.generations_run as u64);
        // The serving runs really streamed deltas into the aggregator.
        assert!(out.generations.iter().all(|g| g.deltas_streamed > 0));
    }

    #[test]
    fn the_loop_records_generation_spans_and_jit_metrics() {
        let previous = ppp_obs::global();
        let (ctx, collect) = ppp_obs::ObsCtx::collecting();
        ppp_obs::install_global(ctx.clone());
        let entry = &spec2000_suite()[1];
        let module = generate(&entry.spec.clone().scaled(0.05));
        let out = run_jit(&module, &entry.spec.name, &options());
        ppp_obs::install_global(previous);
        let out = out.expect("loop completes");
        let tree = ppp_obs::SpanTree::build(&collect.records());
        // Each generation sits under its loop, never at the root.
        assert!(tree.roots.iter().all(|r| r.name != "jit.generation"));
        assert!(tree.roots.iter().any(|r| r.name == "jit.loop"));
        let ledger = tree.ledger();
        let spans = |name: &str| {
            ledger
                .iter()
                .find(|r| r.name == name)
                .map_or(0, |r| r.count)
        };
        // Sibling tests may run loops into the same context meanwhile,
        // so this loop's figures are lower bounds.
        let generations = out.generations_run as u64;
        assert!(spans("jit.generation") >= generations);
        assert!(spans("jit.serve") >= generations);
        let metrics = ctx.metrics();
        let bench = [("bench", entry.spec.name.as_str())];
        let count = |name: &str| metrics.counter_value(name, &bench);
        let promoted = out.generations.iter().filter(|g| g.promoted).count() as u64;
        assert!(promoted > 0, "some generation promotes");
        assert!(count("ppp_jit_generations_total") >= generations);
        assert!(count("ppp_jit_swaps_total") >= out.swaps);
        assert!(count("ppp_jit_promotions_total") >= promoted);
    }

    #[test]
    fn cold_start_converges_too_and_ends_at_the_same_module_as_warm() {
        let entry = &spec2000_suite()[1];
        let module = generate(&entry.spec.clone().scaled(0.05));
        let warm = run_jit(&module, &entry.spec.name, &options()).expect("warm loop");
        let cold = run_jit(
            &module,
            &entry.spec.name,
            &JitOptions {
                cold_start: true,
                ..options()
            },
        )
        .expect("cold loop");
        assert!(cold.steady_state);
        assert!(cold.witness_clean());
        // Cold start only changes generation 1's instrumentation
        // guidance; the serving run still yields the exact profile, so
        // both loops optimize identically from there.
        assert_eq!(warm.final_cost, cold.final_cost);
        assert_eq!(
            ppp_ir::write_edge_profile_v2(&warm.final_module, &warm.final_guidance),
            ppp_ir::write_edge_profile_v2(&cold.final_module, &cold.final_guidance),
        );
    }

    #[test]
    fn a_prohibitive_hot_threshold_yields_an_identity_generation() {
        let entry = &spec2000_suite()[2];
        let module = generate(&entry.spec.clone().scaled(0.05));
        let out = run_jit(
            &module,
            &entry.spec.name,
            &JitOptions {
                hot_threshold: 1.1,
                generations: 2,
                seed: 701,
                scale: 0.05,
                ..JitOptions::default()
            },
        )
        .expect("loop completes");
        // Nothing is hot enough to touch: the first generation's
        // candidate is the module itself (cost unchanged), which is
        // immediately steady.
        assert!(out.steady_state);
        assert_eq!(out.generations_run, 1);
        assert_eq!(out.final_cost, out.initial_cost);
        let g = &out.generations[0];
        assert_eq!(g.hot_functions, 0);
        assert_eq!(g.inline.inlined_sites, 0);
        assert!(g.promoted, "an equal-cost candidate still promotes");
    }
}
