//! The flight recorder: a fixed-capacity ring of recent observation
//! records, dumped to a schema-versioned JSON artifact when something
//! goes wrong.
//!
//! The serve tier's whole value is surviving crashes — but a crash also
//! discards every in-memory span and metric, which is exactly when they
//! are most needed. The [`FlightRecorder`] is an [`Obs`] sink holding
//! the last N records in a preallocated ring (fixed capacity, no
//! growth, overwrite-oldest), teed alongside whatever sink is already
//! installed. On a panic, an injected fault, a wire `Reject`, or an
//! abrupt `Server::kill`, [`flight_dump`] writes the ring plus a full
//! metrics-registry snapshot as a [`FLIGHT_SCHEMA`] JSON document — the
//! post-mortem a restarted process can no longer produce.
//!
//! Recording is one mutex lock and one slot overwrite per record; the
//! interpreter hot loop still makes zero obs calls, so the <2% no-op
//! overhead bound is untouched.

use crate::json;
use crate::metrics::Registry;
use crate::sink::{Obs, Record};
use crate::span::{global, install_global};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// Schema tag written into every dump artifact.
pub const FLIGHT_SCHEMA: &str = "ppp-flight-recorder/v1";

/// Default ring capacity (records retained).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 512;

/// A fixed-capacity ring-buffer sink retaining the most recent records.
///
/// The ring is preallocated at construction and never grows; once full,
/// each new record overwrites the oldest slot.
pub struct FlightRecorder {
    ring: Mutex<Ring>,
}

struct Ring {
    slots: Vec<Option<Record>>,
    /// Next write position.
    head: usize,
    /// Total records ever seen (≥ retained count).
    seen: u64,
}

impl FlightRecorder {
    /// A recorder retaining the last `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            ring: Mutex::new(Ring {
                slots: vec![None; capacity.max(1)],
                head: 0,
                seen: 0,
            }),
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> Vec<Record> {
        let r = self.ring.lock().expect("flight ring lock");
        let cap = r.slots.len();
        (0..cap)
            .filter_map(|i| r.slots[(r.head + i) % cap].clone())
            .collect()
    }

    /// Total records seen over the recorder's lifetime.
    pub fn seen(&self) -> u64 {
        self.ring.lock().expect("flight ring lock").seen
    }

    /// Renders the post-mortem document: the retained records plus a
    /// snapshot of `registry`, under the [`FLIGHT_SCHEMA`] tag.
    pub fn dump_json(&self, reason: &str, registry: &Registry) -> String {
        json::object(|o| {
            o.field("schema", FLIGHT_SCHEMA)
                .field("reason", reason)
                .field("records_seen", self.seen())
                .field("records", self.records())
                .field("registry", registry);
        })
    }
}

impl Obs for FlightRecorder {
    fn record(&self, rec: &Record) {
        if let Ok(mut r) = self.ring.lock() {
            let cap = r.slots.len();
            let head = r.head;
            r.slots[head] = Some(rec.clone());
            r.head = (head + 1) % cap;
            r.seen += 1;
        }
    }
}

/// Fans each record out to every sink; enabled when any sink is.
pub struct TeeSink {
    sinks: Vec<Arc<dyn Obs>>,
}

impl TeeSink {
    /// Tees across `sinks`.
    pub fn new(sinks: Vec<Arc<dyn Obs>>) -> Self {
        Self { sinks }
    }
}

impl Obs for TeeSink {
    fn record(&self, rec: &Record) {
        for s in &self.sinks {
            s.record(rec);
        }
    }

    fn enabled(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }
}

struct FlightState {
    recorder: Arc<FlightRecorder>,
    dir: PathBuf,
    /// The sink the global context had before the tee was spliced in,
    /// so a re-install replaces the old tee instead of chaining it.
    base: Arc<dyn Obs>,
    tee: Arc<dyn Obs>,
}

fn flight_cell() -> &'static Mutex<Option<FlightState>> {
    static FLIGHT: OnceLock<Mutex<Option<FlightState>>> = OnceLock::new();
    FLIGHT.get_or_init(|| Mutex::new(None))
}

/// Installs a process-global flight recorder: the current global
/// context's sink is replaced by a tee feeding both it and a fresh
/// [`FlightRecorder`]; dumps land under `dir`. Re-installing replaces
/// the previous recorder (the tee is re-spliced, never chained).
/// Returns the recorder.
pub fn install_flight(dir: impl Into<PathBuf>, capacity: usize) -> Arc<FlightRecorder> {
    let mut st = flight_cell().lock().expect("flight state lock");
    let recorder = Arc::new(FlightRecorder::new(capacity));
    let cur = global();
    let cur_sink = cur.sink();
    let base = match st.take() {
        // If the global sink is still our tee, splice from the original
        // base; if someone installed a fresh context since, honor it.
        Some(prev) if Arc::ptr_eq(&cur_sink, &prev.tee) => prev.base,
        _ => cur_sink,
    };
    let tee: Arc<dyn Obs> = Arc::new(TeeSink::new(vec![
        Arc::clone(&base),
        Arc::clone(&recorder) as Arc<dyn Obs>,
    ]));
    install_global(cur.with_sink(Arc::clone(&tee)));
    *st = Some(FlightState {
        recorder: Arc::clone(&recorder),
        dir: dir.into(),
        base,
        tee,
    });
    recorder
}

/// The installed recorder, if any.
pub fn flight_recorder() -> Option<Arc<FlightRecorder>> {
    flight_cell()
        .lock()
        .expect("flight state lock")
        .as_ref()
        .map(|s| Arc::clone(&s.recorder))
}

/// Writes a post-mortem dump named after `reason` (sanitized) into the
/// installed recorder's directory and returns its path. `None` when no
/// recorder is installed; write failures are swallowed (telemetry must
/// never take down the pipeline it observes).
pub fn flight_dump(reason: &str) -> Option<PathBuf> {
    let st = flight_cell().lock().expect("flight state lock");
    let s = st.as_ref()?;
    let ctx = global();
    let doc = s.recorder.dump_json(reason, ctx.metrics());
    let stem: String = reason
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = s.dir.join(format!("flight-{stem}.json"));
    std::fs::create_dir_all(&s.dir).ok()?;
    std::fs::write(&path, doc).ok()?;
    ctx.metrics().inc(crate::names::FLIGHT_DUMPS, &[]);
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::sink::{Level, RecordKind, Value};

    fn rec(i: u64) -> Record {
        Record {
            kind: RecordKind::Event,
            level: Level::Info,
            span: 0,
            parent: 0,
            name: format!("ev.{i}"),
            at_us: i,
            elapsed_us: None,
            fields: vec![("i".into(), Value::U64(i))],
        }
    }

    #[test]
    fn ring_retains_the_last_n_records() {
        let fr = FlightRecorder::new(4);
        for i in 0..10 {
            fr.record(&rec(i));
        }
        let got = fr.records();
        assert_eq!(fr.seen(), 10);
        assert_eq!(got.len(), 4);
        let names: Vec<_> = got.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["ev.6", "ev.7", "ev.8", "ev.9"], "oldest first");
    }

    #[test]
    fn partial_ring_keeps_insertion_order() {
        let fr = FlightRecorder::new(8);
        for i in 0..3 {
            fr.record(&rec(i));
        }
        let names: Vec<_> = fr.records().iter().map(|r| r.name.clone()).collect();
        assert_eq!(names, ["ev.0", "ev.1", "ev.2"]);
    }

    #[test]
    fn dump_document_parses_and_carries_schema_records_and_registry() {
        let fr = FlightRecorder::new(16);
        for i in 0..5 {
            fr.record(&rec(i));
        }
        let reg = Registry::new();
        reg.inc_by("ppp_agg_frames_ingested_total", &[("bench", "mcf")], 42);
        let doc = fr.dump_json("server-kill", &reg);
        let v = json::parse(&doc).expect("dump is valid JSON");
        assert_eq!(v.get("schema").and_then(Json::as_str), Some(FLIGHT_SCHEMA));
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("server-kill"));
        assert_eq!(v.get("records_seen").and_then(Json::as_u64), Some(5));
        let records = v.get("records").and_then(Json::as_arr).expect("records");
        assert_eq!(records.len(), 5);
        assert_eq!(records[0].get("name").and_then(Json::as_str), Some("ev.0"));
        let metrics = v
            .get("registry")
            .and_then(|r| r.get("metrics"))
            .and_then(Json::as_arr)
            .expect("registry snapshot");
        assert_eq!(metrics.len(), 1);
    }

    #[test]
    fn tee_fans_out_and_reports_enabled() {
        let collect = crate::CollectSink::new();
        let fr = Arc::new(FlightRecorder::new(4));
        let tee = TeeSink::new(vec![
            Arc::new(collect.clone()) as Arc<dyn Obs>,
            Arc::clone(&fr) as Arc<dyn Obs>,
        ]);
        assert!(tee.enabled());
        tee.record(&rec(1));
        assert_eq!(collect.len(), 1);
        assert_eq!(fr.seen(), 1);
        let noop_tee = TeeSink::new(vec![Arc::new(crate::NoopSink) as Arc<dyn Obs>]);
        assert!(!noop_tee.enabled());
    }
}
