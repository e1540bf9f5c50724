//! `repro trace <bench>`: run one benchmark with spans enabled and
//! print the per-stage time/cost breakdown tree.
//!
//! The pipeline reads its observation context from the process-global
//! slot, so tracing is a matter of temporarily installing a collecting
//! context, running the benchmark once, and reconstructing the span
//! tree from the captured records. The previous context (and its
//! metrics) is restored afterwards. Everything the trace shows comes
//! from that one run: the `pipeline.prepare`/`pipeline.run` trees, the
//! ledger that folds their self time by span name
//! ([`SpanTree::ledger`]), and the run's own metrics.

use crate::format::Table;
use crate::pipeline::{run_benchmark, PipelineError, PipelineOptions};
use ppp_obs::json::{self, ToJson};
use ppp_obs::{ObsCtx, SpanTree};
use ppp_workloads::SuiteEntry;

/// Schema tag of the JSON trace artifact (`repro trace --format json`).
pub const TRACE_SCHEMA: &str = "ppp-trace/v1";

/// One traced run: its result, its reconstructed span tree, and the
/// run's private metric registry. [`Trace::text`] renders it for
/// people; its [`ToJson`] form is the [`TRACE_SCHEMA`] artifact.
pub struct Trace {
    run: crate::pipeline::BenchmarkRun,
    tree: SpanTree,
    ctx: ObsCtx,
}

/// Runs `entry` under a collecting context, restoring the previous
/// global context afterwards.
///
/// # Errors
///
/// Propagates the pipeline's error when the benchmark cannot run.
pub fn trace_benchmark(
    entry: &SuiteEntry,
    options: &PipelineOptions,
) -> Result<Trace, PipelineError> {
    let previous = ppp_obs::global();
    let (ctx, collect) = ObsCtx::collecting();
    ppp_obs::install_global(ctx.clone());
    let outcome = run_benchmark(entry, options);
    ppp_obs::install_global(previous);
    let run = outcome?;
    let tree = SpanTree::build(&collect.records());
    Ok(Trace { run, tree, ctx })
}

impl Trace {
    /// The per-stage breakdown tree, the self-time ledger, and the
    /// run's metric dump.
    pub fn text(&self) -> String {
        format!(
            "trace: {} ({} profilers, degradation rung {})\n\n{}\nledger (self time by span name):\n{}\nmetrics:\n{}",
            self.run.name,
            self.run.profilers.len(),
            self.run.degradation.rung().name(),
            self.tree.render(),
            self.ledger_table(),
            self.ctx.metrics().render_prometheus()
        )
    }

    fn ledger_table(&self) -> String {
        let ledger = self.tree.ledger();
        let traced_us: u64 = ledger.iter().map(|r| r.self_us).sum();
        let ms = |us: u64| format!("{:.3}", us as f64 / 1000.0);
        let mut t = Table::new(["Span", "Count", "Total(ms)", "Self(ms)", "Self%"]);
        for r in &ledger {
            t.row([
                r.name.clone(),
                r.count.to_string(),
                ms(r.total_us),
                ms(r.self_us),
                format!("{:.1}", 100.0 * r.self_us as f64 / traced_us.max(1) as f64),
            ]);
        }
        t.render()
    }
}

/// The span tree as nested JSON, its ledger, and the full metric
/// registry snapshot.
impl ToJson for Trace {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("schema", TRACE_SCHEMA)
                .field("benchmark", &self.run.name)
                .field("profilers", self.run.profilers.len())
                .field("rung", self.run.degradation.rung().name())
                .field("spans", &self.tree)
                .field("ledger", self.tree.ledger())
                .field("metrics", self.ctx.metrics());
        });
    }
}
