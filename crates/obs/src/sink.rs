//! Observation sinks: where span and event records go.
//!
//! A [`Record`] is one observation — a span opening, a span closing, or a
//! point event — with a small bag of typed fields. Sinks are deliberately
//! dumb: they receive finished records and write them somewhere. All
//! aggregation lives in the metrics registry, and all structure (span
//! parentage, timing) is carried *in* the record so a sink never needs
//! per-span state.
//!
//! Provided sinks:
//!
//! - [`NoopSink`] — drops everything; the production default when no one
//!   is watching. Observation cost with this sink installed is the cost
//!   of building the record, which the pipeline only does at stage
//!   boundaries (never per instruction).
//! - [`TextSink`] — human-oriented one-line diagnostics, also typically
//!   stderr; replaces the ad-hoc `eprintln!` warnings.
//! - [`CollectSink`] — buffers records in memory for tests and for
//!   `repro trace`'s breakdown tree.

use crate::json::{self, ToJson};
use std::fmt;
use std::io::Write;
use std::sync::{Arc, Mutex};

/// What kind of observation a [`Record`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecordKind {
    /// A span opened.
    SpanStart,
    /// A span closed; `elapsed_us` is populated.
    SpanEnd,
    /// A point-in-time event (diagnostic, warning, milestone).
    Event,
}

impl RecordKind {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            RecordKind::SpanStart => "span_start",
            RecordKind::SpanEnd => "span_end",
            RecordKind::Event => "event",
        }
    }
}

/// Severity attached to events (spans are always `Info`).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Level {
    /// Fine-grained progress.
    Debug,
    /// Normal milestones.
    Info,
    /// Something degraded but the pipeline continues.
    Warn,
    /// Something failed.
    Error,
}

impl Level {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            Level::Debug => "debug",
            Level::Info => "info",
            Level::Warn => "warn",
            Level::Error => "error",
        }
    }
}

/// A typed field value on a record.
#[derive(Clone, PartialEq, Debug)]
pub enum Value {
    /// Unsigned integer (counts, cost units).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating point (ratios, percentages).
    F64(f64),
    /// Text.
    Str(String),
    /// Flag.
    Bool(bool),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::I64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(s) => write!(f, "{s}"),
            Value::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl ToJson for Value {
    fn write_json(&self, out: &mut String) {
        match self {
            Value::U64(v) => v.write_json(out),
            Value::I64(v) => v.write_json(out),
            Value::F64(v) => v.write_json(out),
            Value::Str(s) => s.write_json(out),
            Value::Bool(b) => b.write_json(out),
        }
    }
}

impl From<u64> for Value {
    fn from(v: u64) -> Self {
        Value::U64(v)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Self {
        Value::U64(v as u64)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::I64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// One observation record.
#[derive(Clone, PartialEq, Debug)]
pub struct Record {
    /// What this record is.
    pub kind: RecordKind,
    /// Severity (meaningful for events; `Info` for spans).
    pub level: Level,
    /// Span id (0 for events outside any span).
    pub span: u64,
    /// Parent span id (0 for roots).
    pub parent: u64,
    /// Span or event name, dotted taxonomy (`pipeline.instrument`,
    /// `vm.run`, `degrade.rung`).
    pub name: String,
    /// Microseconds since the context epoch.
    pub at_us: u64,
    /// For `SpanEnd`: wall-time the span covered, in microseconds.
    pub elapsed_us: Option<u64>,
    /// Typed payload fields, in insertion order.
    pub fields: Vec<(String, Value)>,
}

impl Record {
    /// Fetches a field by name.
    pub fn field(&self, name: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == name).map(|(_, v)| v)
    }
}

/// The record as one JSON object; `elapsed_us` and `fields` appear only
/// when present.
impl ToJson for Record {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("kind", self.kind.as_str())
                .field("level", self.level.as_str())
                .field("span", self.span)
                .field("parent", self.parent)
                .field("name", &self.name)
                .field("at_us", self.at_us);
            if let Some(e) = self.elapsed_us {
                o.field("elapsed_us", e);
            }
            if !self.fields.is_empty() {
                o.obj("fields", |o| {
                    for (k, v) in &self.fields {
                        o.field(k, v);
                    }
                });
            }
        });
    }
}

/// An observation sink. Implementations must be cheap to call and must
/// never panic — they are invoked from library code that owes its caller
/// a result regardless of telemetry health.
pub trait Obs: Send + Sync {
    /// Consumes one record.
    fn record(&self, rec: &Record);

    /// True when records would be discarded unseen. Callers may use this
    /// to skip building expensive field payloads.
    fn enabled(&self) -> bool {
        true
    }
}

/// Discards everything.
#[derive(Default, Clone, Copy, Debug)]
pub struct NoopSink;

impl Obs for NoopSink {
    fn record(&self, _rec: &Record) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Human-oriented one-line diagnostics. Only events at `Info` and above
/// are printed; span records are suppressed so interactive runs stay
/// quiet. This is the default sink, replacing the old scattered
/// `eprintln!` calls.
pub struct TextSink {
    out: Mutex<Box<dyn Write + Send>>,
    min_level: Level,
}

impl TextSink {
    /// Wraps a writer with a minimum event level.
    pub fn new(out: Box<dyn Write + Send>, min_level: Level) -> Self {
        Self {
            out: Mutex::new(out),
            min_level,
        }
    }

    /// The standard diagnostic sink: events at `Warn`+ to stderr.
    pub fn stderr() -> Self {
        Self::new(Box::new(std::io::stderr()), Level::Warn)
    }

    /// A stderr sink that also shows `Info` progress events.
    pub fn stderr_verbose() -> Self {
        Self::new(Box::new(std::io::stderr()), Level::Info)
    }
}

impl Obs for TextSink {
    fn record(&self, rec: &Record) {
        if rec.kind != RecordKind::Event || rec.level < self.min_level {
            return;
        }
        if let Ok(mut w) = self.out.lock() {
            let mut line = format!("[{}] {}", rec.level.as_str(), rec.name);
            for (k, v) in &rec.fields {
                line.push_str(&format!(" {k}={v}"));
            }
            let _ = writeln!(w, "{line}");
        }
    }
}

/// Buffers records in memory; for tests and `repro trace`.
#[derive(Default, Clone)]
pub struct CollectSink {
    records: Arc<Mutex<Vec<Record>>>,
}

impl CollectSink {
    /// An empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// A snapshot of everything recorded so far.
    pub fn records(&self) -> Vec<Record> {
        self.records.lock().expect("collect lock").clone()
    }

    /// Number of records so far.
    pub fn len(&self) -> usize {
        self.records.lock().expect("collect lock").len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Obs for CollectSink {
    fn record(&self, rec: &Record) {
        self.records.lock().expect("collect lock").push(rec.clone());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Record {
        Record {
            kind: RecordKind::Event,
            level: Level::Warn,
            span: 3,
            parent: 1,
            name: "degrade.rung".into(),
            at_us: 42,
            elapsed_us: None,
            fields: vec![
                ("rung".into(), Value::Str("salvaged-functions".into())),
                ("lost".into(), Value::U64(7)),
                ("ok".into(), Value::Bool(true)),
            ],
        }
    }

    #[test]
    fn record_json_line_parses_back() {
        let line = rec().to_json();
        let v = crate::json::parse(&line).expect("valid JSON");
        assert_eq!(v.get("kind").unwrap().as_str(), Some("event"));
        assert_eq!(v.get("span").unwrap().as_u64(), Some(3));
        let fields = v.get("fields").unwrap();
        assert_eq!(
            fields.get("rung").unwrap().as_str(),
            Some("salvaged-functions")
        );
        assert_eq!(fields.get("lost").unwrap().as_u64(), Some(7));
    }

    #[test]
    fn span_end_carries_elapsed() {
        let mut r = rec();
        r.kind = RecordKind::SpanEnd;
        r.elapsed_us = Some(99);
        let v = crate::json::parse(&r.to_json()).unwrap();
        assert_eq!(v.get("elapsed_us").unwrap().as_u64(), Some(99));
    }

    #[test]
    fn noop_reports_disabled() {
        assert!(!NoopSink.enabled());
        NoopSink.record(&rec()); // must not panic
    }

    #[test]
    fn collect_sink_buffers_in_order() {
        let c = CollectSink::new();
        let mut a = rec();
        a.name = "first".into();
        let mut b = rec();
        b.name = "second".into();
        c.record(&a);
        c.record(&b);
        let got = c.records();
        assert_eq!(got.len(), 2);
        assert_eq!(got[0].name, "first");
        assert_eq!(got[1].name, "second");
    }

    #[test]
    fn text_sink_filters_below_min_level() {
        let buf: Arc<Mutex<Vec<u8>>> = Arc::default();
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, b: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(b);
                Ok(b.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let sink = TextSink::new(Box::new(Shared(buf.clone())), Level::Warn);
        let mut info = rec();
        info.level = Level::Info;
        sink.record(&info); // filtered
        sink.record(&rec()); // warn: kept
        let mut span = rec();
        span.kind = RecordKind::SpanStart;
        sink.record(&span); // spans never printed
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("[warn] degrade.rung"));
        assert!(text.contains("rung=salvaged-functions"));
    }
}
