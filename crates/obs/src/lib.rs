//! # ppp-obs — structured observability for the PPP pipeline
//!
//! Zero-dependency tracing (spans + events), a typed metrics registry,
//! and helpers for perf-baseline telemetry. The paper this repo
//! reproduces is *about* an overhead/accuracy trade-off, so the
//! infrastructure that measures overhead is itself a first-class
//! subsystem: every pipeline stage runs under a [`Span`], every
//! interesting count lands in the [`Registry`], and `repro bench`
//! persists the Figure 9–13 quantities as versioned JSON artifacts.
//!
//! Design rules:
//!
//! - **No per-instruction observation.** VM metrics are extracted from
//!   [`RunResult`]-style counters after the run; the interpreter hot
//!   loop has zero obs calls, so the no-op-sink overhead bound (<2%)
//!   holds by construction.
//! - **Sinks never panic and never touch stdout.** Diagnostics go to
//!   stderr, keeping `--format json` stdout pure.
//! - **One JSON writer.** Every artifact is written through
//!   [`json::ToJson`] and [`json::object`]; counters stay exact `u64`
//!   end to end, including `u64::MAX` saturation values.
//!
//! ## Quick tour
//!
//! ```
//! use ppp_obs::{ObsCtx, Level, Value};
//!
//! let (ctx, collect) = ppp_obs::ObsCtx::collecting();
//! {
//!     let mut stage = ctx.span("pipeline.instrument");
//!     stage.set("bench", "mcf");
//!     let inner = stage.child("vm.run");
//!     drop(inner);
//!     stage.event(Level::Warn, "degrade.rung", &[("rung", Value::from("full-profile"))]);
//! }
//! ctx.metrics().inc_by("ppp_vm_cost_units_total", &[("bench", "mcf")], 1234);
//!
//! let tree = ppp_obs::SpanTree::build(&collect.records());
//! assert_eq!(tree.roots.len(), 1);
//! assert!(ctx.metrics().render_prometheus().contains("ppp_vm_cost_units_total"));
//! ```
//!
//! [`RunResult`]: https://docs.rs/ppp-vm

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flight;
pub mod json;
pub mod metrics;
pub mod names;
pub mod sink;
pub mod span;

pub use flight::{
    flight_dump, flight_recorder, install_flight, FlightRecorder, TeeSink, DEFAULT_FLIGHT_CAPACITY,
    FLIGHT_SCHEMA,
};
pub use metrics::{
    CounterHandle, Histogram, HistogramHandle, MetricKey, MetricValue, Registry, HISTOGRAM_BUCKETS,
    LABEL_OTHER, MAX_LABEL_CARDINALITY,
};
pub use sink::{CollectSink, Level, NoopSink, Obs, Record, RecordKind, TextSink, Value};
pub use span::{global, install_global, ObsCtx, Span};

use json::ToJson;
use std::collections::BTreeMap;

/// One node of a reconstructed span tree.
#[derive(Clone, Debug)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Span id.
    pub id: u64,
    /// Wall-time covered, microseconds (0 when the span never closed).
    pub elapsed_us: u64,
    /// Fields from the closing record.
    pub fields: Vec<(String, Value)>,
    /// Events attributed to this span, in order.
    pub events: Vec<Record>,
    /// Child spans, in start order.
    pub children: Vec<SpanNode>,
}

/// One span name's row of a [`SpanTree::ledger`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LedgerRow {
    /// Span name.
    pub name: String,
    /// Spans of this name in the tree.
    pub count: u64,
    /// Their summed elapsed time, microseconds.
    pub total_us: u64,
    /// Their summed self time (elapsed minus the children's elapsed),
    /// microseconds.
    pub self_us: u64,
}

/// A forest of spans reconstructed from a flat record stream.
#[derive(Clone, Debug, Default)]
pub struct SpanTree {
    /// Root spans, in start order.
    pub roots: Vec<SpanNode>,
    /// Events that happened outside any span.
    pub orphan_events: Vec<Record>,
}

impl SpanTree {
    /// Rebuilds the tree from records (as captured by a
    /// [`CollectSink`] or parsed back from a JSON-lines stream).
    pub fn build(records: &[Record]) -> Self {
        let mut nodes: BTreeMap<u64, SpanNode> = BTreeMap::new();
        let mut parent_of: BTreeMap<u64, u64> = BTreeMap::new();
        let mut order: Vec<u64> = Vec::new();
        let mut orphan_events = Vec::new();
        for rec in records {
            match rec.kind {
                RecordKind::SpanStart => {
                    nodes.insert(
                        rec.span,
                        SpanNode {
                            name: rec.name.clone(),
                            id: rec.span,
                            elapsed_us: 0,
                            fields: Vec::new(),
                            events: Vec::new(),
                            children: Vec::new(),
                        },
                    );
                    parent_of.insert(rec.span, rec.parent);
                    order.push(rec.span);
                }
                RecordKind::SpanEnd => {
                    if let Some(n) = nodes.get_mut(&rec.span) {
                        n.elapsed_us = rec.elapsed_us.unwrap_or(0);
                        n.fields = rec.fields.clone();
                    }
                }
                RecordKind::Event => {
                    if let Some(n) = nodes.get_mut(&rec.span) {
                        n.events.push(rec.clone());
                    } else {
                        orphan_events.push(rec.clone());
                    }
                }
            }
        }
        // Attach children to parents, deepest-started last. Walk the
        // start order in reverse so a child is complete before it is
        // moved into its parent.
        let mut tree = SpanTree {
            roots: Vec::new(),
            orphan_events,
        };
        for id in order.iter().rev() {
            let parent = parent_of.get(id).copied().unwrap_or(0);
            let Some(node) = nodes.remove(id) else {
                continue;
            };
            if parent == 0 {
                tree.roots.insert(0, node);
            } else if let Some(p) = nodes.get_mut(&parent) {
                p.children.insert(0, node);
            } else {
                // Parent never recorded (truncated stream): promote.
                tree.roots.insert(0, node);
            }
        }
        tree
    }

    /// Stitches a cross-process trace: `remote` records (typically the
    /// server side) are grafted into `local` records (the client side).
    ///
    /// Remote span/parent ids are offset past the local id range so the
    /// two processes' independent allocators cannot collide; a remote
    /// root span carrying a `remote_parent` field (see
    /// [`ObsCtx::span_remote`]) whose value names a local span is
    /// re-parented under it, reconstructing the client→server causality
    /// from either side's sink.
    pub fn stitch(local: &[Record], remote: &[Record]) -> Self {
        let local_max = local
            .iter()
            .flat_map(|r| [r.span, r.parent])
            .max()
            .unwrap_or(0);
        let local_spans: std::collections::BTreeSet<u64> = local
            .iter()
            .filter(|r| r.kind == RecordKind::SpanStart)
            .map(|r| r.span)
            .collect();
        let mut combined: Vec<Record> = local.to_vec();
        for rec in remote {
            let mut rec = rec.clone();
            if rec.span != 0 {
                rec.span += local_max;
            }
            if rec.parent != 0 {
                rec.parent += local_max;
            } else if matches!(rec.kind, RecordKind::SpanStart | RecordKind::SpanEnd) {
                let rp = match rec.field("remote_parent") {
                    Some(Value::U64(rp)) => Some(*rp),
                    _ => None,
                };
                if let Some(rp) = rp {
                    if local_spans.contains(&rp) {
                        rec.parent = rp;
                    }
                }
            }
            combined.push(rec);
        }
        Self::build(&combined)
    }

    /// Folds the tree by span name: per name, how many spans closed,
    /// their summed elapsed time, and their summed self time (elapsed
    /// minus the children's elapsed). Rows are sorted by self time,
    /// largest first, then by name.
    ///
    /// Self times telescope: over the whole ledger they sum to the
    /// roots' elapsed time, up to the microsecond truncation of each
    /// span. Children that overlap their parent (spans opened on other
    /// threads) clamp the parent's self time at zero.
    pub fn ledger(&self) -> Vec<LedgerRow> {
        fn fold<'a>(node: &'a SpanNode, rows: &mut BTreeMap<&'a str, LedgerRow>) {
            let children: u64 = node.children.iter().map(|c| c.elapsed_us).sum();
            let row = rows.entry(&node.name).or_insert_with(|| LedgerRow {
                name: node.name.clone(),
                ..LedgerRow::default()
            });
            row.count += 1;
            row.total_us += node.elapsed_us;
            row.self_us += node.elapsed_us.saturating_sub(children);
            for child in &node.children {
                fold(child, rows);
            }
        }
        let mut rows = BTreeMap::new();
        for root in &self.roots {
            fold(root, &mut rows);
        }
        let mut rows: Vec<LedgerRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_us.cmp(&a.self_us).then_with(|| a.name.cmp(&b.name)));
        rows
    }

    /// Renders the tree as an indented per-stage breakdown. Each line
    /// shows the span name, elapsed wall-time, its share of the parent's
    /// time (a root's share of all roots' time), and any fields.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let roots_us: u64 = self.roots.iter().map(|r| r.elapsed_us).sum();
        for root in &self.roots {
            Self::render_node(root, roots_us, 0, &mut out);
        }
        for ev in &self.orphan_events {
            out.push_str(&format!("* [{}] {}\n", ev.level.as_str(), ev.name));
        }
        out
    }

    fn render_node(node: &SpanNode, parent_us: u64, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        let pct = 100.0 * node.elapsed_us as f64 / parent_us.max(1) as f64;
        out.push_str(&format!(
            "{indent}{}  {:.3} ms  ({pct:.1}%)",
            node.name,
            node.elapsed_us as f64 / 1000.0
        ));
        for (k, v) in &node.fields {
            out.push_str(&format!("  {k}={v}"));
        }
        out.push('\n');
        for ev in &node.events {
            let mut line = format!("{indent}  ! [{}] {}", ev.level.as_str(), ev.name);
            for (k, v) in &ev.fields {
                line.push_str(&format!(" {k}={v}"));
            }
            out.push_str(&line);
            out.push('\n');
        }
        for child in &node.children {
            Self::render_node(child, node.elapsed_us.max(1), depth + 1, out);
        }
    }
}

/// The tree as a JSON document (`roots` + `orphan_events`), for
/// `repro trace --format json` and machine consumers.
impl ToJson for SpanTree {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("roots", &self.roots)
                .field("orphan_events", &self.orphan_events);
        });
    }
}

impl ToJson for LedgerRow {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("name", &self.name)
                .field("count", self.count)
                .field("total_us", self.total_us)
                .field("self_us", self.self_us);
        });
    }
}

impl ToJson for SpanNode {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("name", &self.name)
                .field("id", self.id)
                .field("elapsed_us", self.elapsed_us)
                .obj("fields", |o| {
                    for (k, v) in &self.fields {
                        o.field(k, v);
                    }
                })
                .field("events", &self.events)
                .field("children", &self.children);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tree_rebuilds_nesting_from_flat_records() {
        let (ctx, collect) = ObsCtx::collecting();
        {
            let root = ctx.span("pipeline.run");
            {
                let inner = root.child("vm.run");
                inner.event(Level::Warn, "vm.saturated", &[("n", Value::U64(2))]);
            }
            let _r = root.child("report.render");
        }
        let tree = SpanTree::build(&collect.records());
        assert_eq!(tree.roots.len(), 1);
        let root = &tree.roots[0];
        assert_eq!(root.name, "pipeline.run");
        assert_eq!(root.children.len(), 2);
        assert_eq!(root.children[0].name, "vm.run");
        assert_eq!(root.children[1].name, "report.render");
        assert_eq!(root.children[0].events.len(), 1);
        assert!(tree.orphan_events.is_empty());

        let text = tree.render();
        assert!(text.contains("pipeline.run"));
        assert!(text.contains("  vm.run"));
        assert!(text.contains("! [warn] vm.saturated n=2"));
    }

    /// Start and end records for `(id, parent, name, elapsed_us)`
    /// spans, started in the given order.
    fn timed(spans: &[(u64, u64, &str, u64)]) -> Vec<Record> {
        let rec = |kind, &(span, parent, name, elapsed): &(u64, u64, &str, u64)| Record {
            kind,
            level: Level::Info,
            span,
            parent,
            name: name.into(),
            at_us: 0,
            elapsed_us: (kind == RecordKind::SpanEnd).then_some(elapsed),
            fields: Vec::new(),
        };
        let starts = spans.iter().map(|s| rec(RecordKind::SpanStart, s));
        let ends = spans.iter().map(|s| rec(RecordKind::SpanEnd, s));
        starts.chain(ends).collect()
    }

    #[test]
    fn render_gives_roots_their_share_of_all_roots() {
        let tree = SpanTree::build(&timed(&[
            (1, 0, "pipeline.prepare", 3000),
            (2, 1, "stage.inline", 1500),
            (3, 0, "pipeline.run", 1000),
        ]));
        let text = tree.render();
        assert!(
            text.contains("pipeline.prepare  3.000 ms  (75.0%)"),
            "{text}"
        );
        assert!(text.contains("  stage.inline  1.500 ms  (50.0%)"), "{text}");
        assert!(text.contains("pipeline.run  1.000 ms  (25.0%)"), "{text}");
        // An empty forest, or one whose spans never closed, renders
        // without dividing by zero.
        let open = SpanTree::build(&timed(&[(1, 0, "x", 0)]));
        assert!(open.render().contains("x  0.000 ms  (0.0%)"));
    }

    #[test]
    fn ledger_folds_self_time_by_name() {
        let tree = SpanTree::build(&timed(&[
            (1, 0, "pipeline.run", 100),
            (2, 1, "pipeline.profiler", 40),
            (3, 2, "vm.run", 30),
            (4, 1, "pipeline.profiler", 50),
            (5, 4, "vm.run", 45),
            (6, 0, "pipeline.prepare", 20),
        ]));
        let row = |name: &str, count, total_us, self_us| LedgerRow {
            name: name.into(),
            count,
            total_us,
            self_us,
        };
        assert_eq!(
            tree.ledger(),
            vec![
                row("vm.run", 2, 75, 75),
                row("pipeline.prepare", 1, 20, 20),
                row("pipeline.profiler", 2, 90, 15),
                row("pipeline.run", 1, 100, 10),
            ]
        );
        let self_sum: u64 = tree.ledger().iter().map(|r| r.self_us).sum();
        assert_eq!(self_sum, 120, "self times telescope to the roots' time");
        // Children that over-cover their parent clamp it at zero.
        let overlapped =
            SpanTree::build(&timed(&[(1, 0, "a", 10), (2, 1, "b", 8), (3, 1, "b", 8)]));
        assert_eq!(overlapped.ledger()[1], row("a", 1, 10, 0));
    }

    #[test]
    fn tree_promotes_children_of_missing_parents() {
        // A truncated stream: only the child's records survive; its
        // parent 4 was never seen.
        let recs = timed(&[(9, 4, "vm.run", 10)]);
        let tree = SpanTree::build(&recs);
        assert_eq!(tree.roots.len(), 1);
        assert_eq!(tree.roots[0].name, "vm.run");
    }

    #[test]
    fn stitch_grafts_remote_spans_under_the_local_sender() {
        // Two independent contexts with overlapping span-id ranges —
        // exactly what two processes produce.
        let (client, client_sink) = ObsCtx::collecting();
        let (server, server_sink) = ObsCtx::collecting();
        let trace_id = 0xDEAD_BEEF_u64;
        let send_id;
        {
            let send = client.span("client.send");
            send_id = send.id();
            // Server handles the frame carrying (trace_id, send_id).
            let apply = server.span_remote("shard.apply", trace_id, send_id);
            let _child = apply.child("shard.decode");
        }
        let local = client_sink.records();
        let remote = server_sink.records();
        // Both allocators started at 1, so ids overlap before stitching.
        assert!(remote.iter().any(|r| r.span == local[0].span));

        let tree = SpanTree::stitch(&local, &remote);
        assert_eq!(tree.roots.len(), 1, "one stitched trace");
        let root = &tree.roots[0];
        assert_eq!(root.name, "client.send");
        assert_eq!(root.children.len(), 1);
        let apply = &root.children[0];
        assert_eq!(apply.name, "shard.apply");
        assert_eq!(
            apply.fields.iter().find(|(k, _)| k == "trace_id"),
            Some(&("trace_id".to_owned(), Value::U64(trace_id)))
        );
        assert_eq!(apply.children.len(), 1);
        assert_eq!(apply.children[0].name, "shard.decode");
    }

    #[test]
    fn stitch_keeps_unmatched_remote_roots_as_roots() {
        let (client, client_sink) = ObsCtx::collecting();
        let (server, server_sink) = ObsCtx::collecting();
        drop(client.span("client.send"));
        // Remote parent id 999 never appears locally.
        drop(server.span_remote("shard.apply", 7, 999));
        let tree = SpanTree::stitch(&client_sink.records(), &server_sink.records());
        assert_eq!(tree.roots.len(), 2);
    }

    #[test]
    fn span_tree_json_round_trips_through_the_parser() {
        let (ctx, collect) = ObsCtx::collecting();
        {
            let mut root = ctx.span("pipeline.run");
            root.set("bench", "mcf");
            let inner = root.child("vm.run");
            inner.event(Level::Warn, "vm.saturated", &[("n", Value::U64(2))]);
        }
        ctx.info("loose.event", &[]);
        let tree = SpanTree::build(&collect.records());
        let doc = tree.to_json();
        let v = json::parse(&doc).expect("tree JSON parses");
        let roots = v.get("roots").and_then(json::Json::as_arr).unwrap();
        assert_eq!(roots.len(), 1);
        assert_eq!(
            roots[0].get("name").and_then(json::Json::as_str),
            Some("pipeline.run")
        );
        let children = roots[0]
            .get("children")
            .and_then(json::Json::as_arr)
            .unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(
            children[0]
                .get("events")
                .and_then(json::Json::as_arr)
                .map(<[json::Json]>::len),
            Some(1)
        );
        assert_eq!(
            v.get("orphan_events")
                .and_then(json::Json::as_arr)
                .map(<[json::Json]>::len),
            Some(1)
        );
    }
}
