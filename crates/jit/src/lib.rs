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
//! transfers the stale profile onto the new module
//! ([`ppp_match::transfer_module_edges`], the same transfer the
//! matched-stale loader runs) so the next generation's instrumentation
//! starts warm, hot-swaps the re-optimized code into the host, and
//! iterates until the cost-model improvement between generations drops
//! below epsilon.
//!
//! Promotion is conservative — a candidate replaces the served module
//! only if its uninstrumented cost-model cost did not increase — so the
//! served cost is monotone non-increasing across generations by
//! construction, and the loop always terminates (steady state or the
//! generation cap).
//!
//! The one-shot `ppp-repro` pipeline front end is generation 1 of this
//! loop by construction: both run the same [`bootstrap`] and
//! [`reoptimize`] steps. With `hot_threshold = 0.0` and a warm start, a
//! 1-generation loop is therefore byte-identical to it — the
//! determinism safety net for hot-swapping (`repro jit` exposes the
//! loop; the equivalence property is tested there).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod engine;
mod fold;
mod reopt;

pub use engine::{run_jit, GenerationReport, JitError, JitOptions, JitOutcome};
pub use fold::fold_edge_profile;
pub use reopt::{
    bootstrap, edge_profile, edge_profile_stage, profile_stage, reoptimize, traced, Reoptimized,
};

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
        assert!(spans("jit.lint") >= generations);
        // Each generation re-optimizes through the pipeline's own
        // `stage.*` steps.
        assert!(spans("stage.inline") >= generations);
        assert!(spans("stage.profile@opt") >= generations);
        assert_eq!(spans("jit.reoptimize") + spans("jit.evaluate"), 0);
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

    /// Every count of a transfer report, the PPP4xx findings included.
    fn counts(t: &ppp_match::TransferReport) -> impl PartialEq + std::fmt::Debug {
        (
            (t.paired_funcs, t.anchor_paired, t.identity),
            (t.unmatched_old.clone(), t.unmatched_new.clone()),
            (t.matched_blocks, t.total_old_blocks, t.transferred_edges),
            (t.renormalized_funcs.clone(), t.zeroed_funcs.clone()),
            (t.dropped_flow, t.moved_flow, t.old_flow),
            t.diagnostics.diagnostics.clone(),
        )
    }

    #[test]
    fn the_loop_and_the_matched_loader_report_one_transfer_alike() {
        // mcf's first re-optimization zeroes functions, the case where a
        // second copy of the transfer once counted them as renormalized
        // too. Rebuild the loop's generation-1 transfer by hand, carry
        // the profile across in memory and through a persisted artifact,
        // and hold both reports to the loop's own.
        let entry = &spec2000_suite()[1];
        let name = entry.spec.name.as_str();
        let module = generate(&entry.spec.clone().scaled(0.05));
        let out = run_jit(
            &module,
            name,
            &JitOptions {
                generations: 1,
                ..options()
            },
        )
        .expect("loop completes");
        let looped = out.generations[0]
            .transfer
            .as_ref()
            .expect("gen 1 promotes");

        let span = ppp_obs::global().span("test");
        let mut old = module.clone();
        bootstrap(&mut old, &span);
        let (_, profile, _) = traced(&old, options().seed, name).expect("runs");
        let new = reoptimize(old.clone(), &profile, name, &options(), &span)
            .expect("re-optimizes")
            .module;
        let (warm, in_memory) = ppp_match::transfer_module_edges(&old, &new, &profile);
        let bytes = ppp_ir::write_edge_profile_v2(&old, &profile);
        let (loaded, msr) =
            ppp_match::read_edge_profile_matched(&old, &new, bytes.as_bytes()).expect("loads");

        assert!(
            !in_memory.zeroed_funcs.is_empty(),
            "{name} zeroes a function"
        );
        assert!(in_memory
            .zeroed_funcs
            .iter()
            .all(|f| !in_memory.renormalized_funcs.contains(f)));
        assert_eq!(counts(&in_memory), counts(&msr.transfer));
        assert_eq!(counts(&in_memory), counts(looped));
        assert_eq!(
            ppp_ir::write_edge_profile_v2(&new, &warm),
            ppp_ir::write_edge_profile_v2(&new, &loaded)
        );
        assert!(msr.quarantined.is_empty());
        assert_eq!(msr.is_lossless(), in_memory.is_lossless());
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
