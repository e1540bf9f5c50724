//! `repro trace <bench>`: replay one benchmark with spans enabled and
//! print the per-stage time/cost breakdown tree.
//!
//! The pipeline reads its observation context from the process-global
//! slot, so tracing is a matter of temporarily installing a collecting
//! context, replaying the run, and reconstructing the span tree from the
//! captured records. The previous context (and its metrics) is restored
//! afterwards.
//!
//! Besides the figure pipeline, the trace replays the benchmark once
//! more with incremental delta export on and streams the deltas through
//! a sharded aggregator (`agg.replay`), so the `ppp_agg_*` metrics —
//! frames ingested, merge/snapshot timings, batch sizes — show up in
//! the same dump as the VM and pipeline observables. A short
//! `ppp-jit` loop (`jit.replay`) rides along too, putting the
//! `jit.generation` spans and `ppp_jit_*` metrics in the same dump.

use crate::drift::split_blocks;
use crate::pipeline::{run_benchmark, PipelineError, PipelineOptions};
use ppp_agg::{AggClient, AggConfig, AggService, DurOptions, Hello, InProcSink};
use ppp_ir::write_edge_profile_v2;
use ppp_match::read_edge_profile_matched;
use ppp_obs::{ObsCtx, SpanTree};
use ppp_vm::{RunOptions, SplitMix64};
use ppp_workloads::{generate, SuiteEntry};
use std::sync::Arc;

/// Replays the benchmark's delta stream through a 2-shard aggregator
/// under `agg.replay` spans, purely so the aggregation metrics land in
/// the trace dump. Failures are reported as events, never fatal: the
/// trace's job is to show what happened.
fn replay_aggregation(ctx: &ObsCtx, entry: &SuiteEntry, options: &PipelineOptions) {
    let span = ctx.span("agg.replay");
    let module = Arc::new(generate(&entry.spec.clone().scaled(options.scale)));
    let run_options = RunOptions::default()
        .traced()
        .with_seed(options.seed)
        .with_delta_interval(2048);
    let result = match ppp_vm::run(&module, "main", &run_options) {
        Ok(r) => r,
        Err(e) => {
            span.event(
                ppp_obs::Level::Error,
                "agg.replay_failed",
                &[("error", ppp_obs::Value::from(e.to_string()))],
            );
            return;
        }
    };
    // The replay is durable on purpose: deltas append to a WAL under a
    // scratch directory, a checkpoint is cut, and a second service
    // recovers from the artifacts — so the `ppp_wal_*` durability
    // metrics land in the trace dump alongside the rest.
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ppp-scratch/trace")
        .join(&entry.spec.name);
    let _ = std::fs::remove_dir_all(&dir);
    let config = AggConfig {
        shards: 2,
        ..AggConfig::default()
    };
    let service = AggService::new_durable(config, DurOptions::new(&dir, 8));
    let stream = || -> Result<(), String> {
        let agg = service.register(&entry.spec.name, &module)?;
        let hello = Hello {
            bench: entry.spec.name.clone(),
            funcs: module.functions.len(),
            scale_bits: options.scale.to_bits(),
            worker: 0,
        };
        let mut client = AggClient::open(
            Arc::clone(&module),
            InProcSink::new(Arc::clone(&agg)),
            4,
            &hello,
        )?;
        for d in &result.deltas {
            client.push_delta(&d.edges, &d.paths)?;
        }
        client.finish()?;
        let _ = agg.snapshot();
        service.checkpoint_all()?;
        let recovered = AggService::new_durable(config, DurOptions::new(&dir, 8));
        recovered.register(&entry.spec.name, &module)?;
        Ok(())
    };
    if let Err(e) = stream() {
        span.event(
            ppp_obs::Level::Error,
            "agg.replay_failed",
            &[("error", ppp_obs::Value::from(e))],
        );
    }
}

/// Replays the persisted edge profile through the cross-version matched
/// loader against a block-split variant of the module (`match.replay`),
/// so the `ppp_stale_*`/`ppp_match_*` metrics — sections matched,
/// blocks transferred, flow dropped, PPP40x diagnostics — land in the
/// trace dump alongside the VM and aggregation observables.
fn replay_matched_stale(ctx: &ObsCtx, entry: &SuiteEntry, options: &PipelineOptions) {
    let mut span = ctx.span("match.replay");
    let module = generate(&entry.spec.clone().scaled(options.scale));
    let run_options = RunOptions::default().traced().with_seed(options.seed);
    let result = match ppp_vm::run(&module, "main", &run_options) {
        Ok(r) => r,
        Err(e) => {
            span.event(
                ppp_obs::Level::Error,
                "match.replay_failed",
                &[("error", ppp_obs::Value::from(e.to_string()))],
            );
            return;
        }
    };
    let Some(edges) = result.edge_profile else {
        span.event(ppp_obs::Level::Error, "match.replay_failed", &[]);
        return;
    };
    let bytes = write_edge_profile_v2(&module, &edges);
    let mut newer = module.clone();
    split_blocks(&mut newer, &mut SplitMix64::new(options.seed ^ 0x7_1ACE));
    match read_edge_profile_matched(&module, &newer, bytes.as_bytes()) {
        Ok((_, msr)) => {
            span.set("lossless", msr.is_lossless());
            span.set("matched_blocks", msr.matched_blocks as u64);
            span.set("dropped_flow", msr.dropped_flow);
        }
        Err(e) => span.event(
            ppp_obs::Level::Error,
            "match.replay_failed",
            &[("error", ppp_obs::Value::from(e.to_string()))],
        ),
    }
}

/// Runs the `ppp-est` static estimator over the benchmark's module
/// (`est.replay`), so the `ppp_est_*` metrics — branches predicted per
/// heuristic, loops, trip caps, decomposition components, PPP50x
/// diagnostics — land in the trace dump alongside the other stages.
fn replay_static_estimate(ctx: &ObsCtx, entry: &SuiteEntry, options: &PipelineOptions) {
    let mut span = ctx.span("est.replay");
    let module = generate(&entry.spec.clone().scaled(options.scale));
    let (estimate, report) = ppp_est::estimate_module(&module, &ppp_est::EstOptions::default());
    span.set("funcs", report.stats.funcs);
    span.set("branches", report.stats.branches);
    span.set("loops", report.stats.loops);
    span.set("diagnostics", report.diagnostics.diagnostics.len() as u64);
    span.set("conservative", estimate.is_flow_conservative(&module));
}

/// Runs a short closed re-optimization loop over the benchmark
/// (`jit.replay`), so the `jit.generation` spans and the `ppp_jit_*`
/// metrics — generations, promotions, swaps, transferred-flow drops,
/// steady states — land in the trace dump alongside the other stages.
fn replay_jit_loop(ctx: &ObsCtx, entry: &SuiteEntry, options: &PipelineOptions) {
    let mut span = ctx.span("jit.replay");
    let module = generate(&entry.spec.clone().scaled(options.scale));
    let jopts = ppp_jit::JitOptions {
        generations: 2,
        seed: options.seed,
        scale: options.scale,
        ..ppp_jit::JitOptions::default()
    };
    match ppp_jit::run_jit(&module, &entry.spec.name, &jopts) {
        Ok(out) => {
            span.set("generations", out.generations_run as u64);
            span.set("steady_state", out.steady_state);
            span.set("swaps", out.swaps);
            span.set("final_cost", out.final_cost);
        }
        Err(e) => span.event(
            ppp_obs::Level::Error,
            "jit.replay_failed",
            &[("error", ppp_obs::Value::from(e.to_string()))],
        ),
    }
}

/// Schema tag of the JSON trace artifact (`repro trace --format json`).
pub const TRACE_SCHEMA: &str = "ppp-trace/v1";

/// Replays `entry` under a collecting context and returns the run, the
/// reconstructed span tree, and the replay's private metric registry.
fn trace_replay(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<(crate::pipeline::BenchmarkRun, SpanTree, ObsCtx), PipelineError> {
    let previous = ppp_obs::global();
    let (ctx, collect) = ObsCtx::collecting();
    ppp_obs::install_global(ctx.clone());
    let outcome = run_benchmark(entry, options);
    if outcome.is_ok() {
        replay_aggregation(&ctx, entry, options);
        replay_matched_stale(&ctx, entry, options);
        replay_static_estimate(&ctx, entry, options);
        replay_jit_loop(&ctx, entry, options);
    }
    ppp_obs::install_global(previous);
    let run = outcome?;
    let tree = SpanTree::build(&collect.records());
    Ok((run, tree, ctx))
}

/// Replays `entry` with span collection enabled and renders the
/// per-stage breakdown tree plus the run's metric dump.
///
/// # Errors
///
/// Propagates the pipeline's error when the benchmark cannot run.
pub fn trace_benchmark(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<String, PipelineError> {
    let (run, tree, ctx) = trace_replay(entry, options)?;
    let mut out = String::new();
    out.push_str(&format!(
        "trace: {} ({} profilers, degradation rung {})\n\n",
        run.name,
        run.profilers.len(),
        run.degradation.rung().name()
    ));
    out.push_str(&tree.render());
    out.push_str("\nmetrics:\n");
    out.push_str(&ctx.metrics().render_prometheus());
    Ok(out)
}

/// Replays `entry` like [`trace_benchmark`] but renders a
/// machine-readable [`TRACE_SCHEMA`] document: the span tree as nested
/// JSON plus the full metric registry snapshot.
///
/// # Errors
///
/// Propagates the pipeline's error when the benchmark cannot run.
pub fn trace_benchmark_json(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<String, PipelineError> {
    let (run, tree, ctx) = trace_replay(entry, options)?;
    Ok(format!(
        "{{\"schema\":\"{}\",\"benchmark\":\"{}\",\"profilers\":{},\"rung\":\"{}\",\
         \"spans\":{},\"metrics\":{}}}",
        TRACE_SCHEMA,
        ppp_obs::json::escape(&run.name),
        run.profilers.len(),
        run.degradation.rung().name(),
        tree.to_json(),
        ctx.metrics().to_json(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_workloads::spec2000_suite;

    #[test]
    fn trace_renders_stage_tree_and_metrics() {
        let _obs = crate::obs_test_lock();
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let options = PipelineOptions {
            scale: 0.02,
            ..PipelineOptions::default()
        };
        let text = trace_benchmark(entry, &options).expect("trace completes");
        // The breakdown covers both pipeline halves and the VM runs…
        assert!(text.contains("pipeline.prepare"), "{text}");
        assert!(text.contains("stage.profile@opt"), "{text}");
        assert!(text.contains("pipeline.run"), "{text}");
        assert!(text.contains("pipeline.profiler"), "{text}");
        assert!(text.contains("vm.run"), "{text}");
        // …and the metric dump carries the VM observables.
        assert!(text.contains("ppp_vm_cost_units_total"), "{text}");
        assert!(
            text.contains("profiler=\"PPP\""),
            "per-profiler labels present: {text}"
        );
        // The aggregation replay contributes its stage and metrics too.
        assert!(text.contains("agg.replay"), "{text}");
        assert!(text.contains("ppp_agg_frames_ingested_total"), "{text}");
        assert!(text.contains("ppp_agg_deltas_merged_total"), "{text}");
        assert!(text.contains("ppp_agg_snapshot_micros"), "{text}");
        // The durable replay leaves WAL/checkpoint/recovery metrics.
        assert!(text.contains("ppp_wal_appends_total"), "{text}");
        assert!(text.contains("ppp_wal_checkpoints_total"), "{text}");
        assert!(text.contains("ppp_wal_recoveries_total"), "{text}");
        // …as does the cross-version matched-stale replay.
        assert!(text.contains("match.replay"), "{text}");
        assert!(text.contains("ppp_stale_sections_total"), "{text}");
        assert!(text.contains("ppp_match_blocks_total"), "{text}");
        assert!(text.contains("ppp_match_funcs_total"), "{text}");
        // …and the static-estimator replay.
        assert!(text.contains("est.replay"), "{text}");
        assert!(text.contains("ppp_est_funcs_total"), "{text}");
        assert!(text.contains("ppp_est_branches_total"), "{text}");
        assert!(text.contains("ppp_est_loops_total"), "{text}");
        // …and the re-optimization loop replay with its generations.
        assert!(text.contains("jit.replay"), "{text}");
        assert!(text.contains("jit.generation"), "{text}");
        assert!(text.contains("jit.serve"), "{text}");
        assert!(text.contains("ppp_jit_generations_total"), "{text}");
        assert!(text.contains("ppp_jit_swaps_total"), "{text}");
        assert!(text.contains("ppp_jit_promotions_total"), "{text}");
    }

    #[test]
    fn trace_json_is_a_parseable_schema_versioned_artifact() {
        use ppp_obs::json::{self, Json};
        let _obs = crate::obs_test_lock();
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let options = PipelineOptions {
            scale: 0.02,
            ..PipelineOptions::default()
        };
        let doc = trace_benchmark_json(entry, &options).expect("trace completes");
        let v = json::parse(&doc).expect("trace JSON parses");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(TRACE_SCHEMA));
        assert_eq!(v.get("benchmark").and_then(Json::as_str), Some("mcf"));
        let roots = v
            .get("spans")
            .and_then(|s| s.get("roots"))
            .and_then(Json::as_arr)
            .expect("span roots");
        assert!(!roots.is_empty(), "{doc}");
        // The same stages the text renderer shows are in the tree…
        assert!(doc.contains("pipeline.prepare"), "{doc}");
        assert!(doc.contains("agg.replay"), "{doc}");
        // …and the metric snapshot rode along.
        assert!(doc.contains("ppp_vm_cost_units_total"), "{doc}");
    }
}
