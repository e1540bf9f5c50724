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
    Histogram, MetricKey, MetricValue, Registry, HISTOGRAM_BUCKETS, LABEL_OTHER,
    MAX_LABEL_CARDINALITY,
};
pub use sink::{CollectSink, Level, NoopSink, Obs, Record, RecordKind, TextSink, Value};
pub use span::{global, install_global, ObsCtx, Span};

use json::ToJson;

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
        use std::collections::BTreeMap;
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

    /// Renders the tree as an indented per-stage breakdown. Each line
    /// shows the span name, elapsed wall-time, its share of the parent's
    /// time, and any fields.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for root in &self.roots {
            Self::render_node(root, root.elapsed_us.max(1), 0, &mut out);
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

    #[test]
    fn tree_promotes_children_of_missing_parents() {
        // A truncated stream: only the child's records survive.
        let recs = vec![
            Record {
                kind: RecordKind::SpanStart,
                level: Level::Info,
                span: 9,
                parent: 4, // never seen
                name: "vm.run".into(),
                at_us: 0,
                elapsed_us: None,
                fields: Vec::new(),
            },
            Record {
                kind: RecordKind::SpanEnd,
                level: Level::Info,
                span: 9,
                parent: 4,
                name: "vm.run".into(),
                at_us: 10,
                elapsed_us: Some(10),
                fields: Vec::new(),
            },
        ];
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
