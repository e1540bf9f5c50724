//! A typed metrics registry: counters, gauges, and histograms with fixed
//! log2 buckets, exposed as Prometheus-style text and as JSON.
//!
//! Metrics are keyed by `(name, sorted labels)`. The registry is
//! internally synchronized (a single mutex — the pipeline records metrics
//! at stage boundaries, not per instruction, so contention is nil) and
//! cheap to clone-share via [`std::sync::Arc`].
//!
//! Semantics follow the Prometheus data model:
//!
//! - **counter** — monotonically non-decreasing `u64`, saturating;
//! - **gauge** — last-write-wins `f64`;
//! - **histogram** — `u64` observations in buckets `[2^(i-1), 2^i)`
//!   (bucket 0 holds zeros), plus exact `sum` and `count`.
//!
//! A name registered as one type and used as another is a programming
//! error; the mismatched write is dropped and counted in the registry's
//! own `ppp_obs_type_conflicts_total` counter — observability must never
//! panic the pipeline it observes.

use crate::json::{self, ToJson};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Mutex;

/// Number of log2 histogram buckets: bucket 0 holds zeros, bucket `i`
/// (1..=64) holds values in `[2^(i-1), 2^i)`.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A metric key: name plus sorted label pairs.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct MetricKey {
    /// Metric name (Prometheus conventions: `snake_case`, unit-suffixed).
    pub name: String,
    /// Label pairs, kept sorted by label name.
    pub labels: Vec<(String, String)>,
}

impl MetricKey {
    /// Builds a key, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
            .collect();
        labels.sort();
        Self {
            name: name.to_owned(),
            labels,
        }
    }

    fn prom_suffix(&self) -> String {
        if self.labels.is_empty() {
            return String::new();
        }
        let body = self
            .labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", prom_escape(v)))
            .collect::<Vec<_>>()
            .join(",");
        format!("{{{body}}}")
    }
}

/// Escapes a Prometheus label value (backslash, quote, newline).
pub fn prom_escape(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// One metric's current value.
#[derive(Clone, PartialEq, Debug)]
pub enum MetricValue {
    /// Saturating monotonic counter.
    Counter(u64),
    /// Last-write-wins gauge.
    Gauge(f64),
    /// Log2-bucketed histogram of `u64` observations.
    Histogram(Histogram),
}

impl MetricValue {
    fn type_name(&self) -> &'static str {
        match self {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        }
    }
}

/// Histogram state: fixed log2 buckets plus exact sum/count.
#[derive(Clone, PartialEq, Debug)]
pub struct Histogram {
    /// `buckets[0]` counts zero observations; `buckets[i]` counts values
    /// in `[2^(i-1), 2^i)`.
    pub buckets: Vec<u64>,
    /// Number of observations.
    pub count: u64,
    /// Saturating sum of observations.
    pub sum: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: vec![0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl Histogram {
    /// Bucket index of `v`: 0 for 0, else `bit_length(v)`.
    pub fn bucket_of(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    fn observe(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Inclusive upper bound of bucket `i` (`None` for the zero bucket's
    /// exact bound, which is 0).
    pub fn upper_bound(i: usize) -> u64 {
        if i == 0 {
            0
        } else if i >= 64 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Estimates the `q`-quantile (`0.0..=1.0`) as the inclusive upper
    /// bound of the bucket holding the rank-`⌈q·count⌉` observation —
    /// a conservative (never-underestimating) tail-latency figure.
    /// Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::upper_bound(i);
            }
        }
        u64::MAX
    }

    /// Folds `other` into `self` (bucket-wise add, saturating sum).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, c) in self.buckets.iter_mut().zip(&other.buckets) {
            *b = b.saturating_add(*c);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }
}

/// Maximum distinct values accepted per `(metric name, label key)`
/// pair; later values collapse into [`LABEL_OTHER`] so unbounded
/// identifier spaces (client ids, worker ids) cannot grow the registry
/// without bound.
pub const MAX_LABEL_CARDINALITY: usize = 32;

/// The collapse bucket label value for over-cardinality writes.
pub const LABEL_OTHER: &str = "other";

/// The metrics registry.
#[derive(Default, Debug)]
pub struct Registry {
    inner: Mutex<BTreeMap<MetricKey, MetricValue>>,
    conflicts: Mutex<u64>,
    /// Distinct values seen per `(metric name, label key)`, capped at
    /// [`MAX_LABEL_CARDINALITY`]. A short linear-scanned list: the set
    /// of metric/label-key combinations is small and fixed, so lookups
    /// stay allocation-free on the hot path.
    cardinality: Mutex<Vec<(String, String, Vec<String>)>>,
    collapsed: Mutex<u64>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Caps label cardinality: a value past the per-key limit is
    /// rewritten to [`LABEL_OTHER`] before keying the metric.
    fn bounded<'a>(&self, name: &str, labels: &[(&'a str, &'a str)]) -> Vec<(&'a str, &'a str)> {
        let mut card = self.cardinality.lock().expect("cardinality lock");
        labels
            .iter()
            .map(|&(k, v)| {
                if v == LABEL_OTHER {
                    return (k, v);
                }
                let i = match card.iter().position(|(n, lk, _)| n == name && lk == k) {
                    Some(i) => i,
                    None => {
                        card.push((name.to_owned(), k.to_owned(), Vec::new()));
                        card.len() - 1
                    }
                };
                let values = &mut card[i].2;
                if values.iter().any(|x| x == v) {
                    (k, v)
                } else if values.len() < MAX_LABEL_CARDINALITY {
                    values.push(v.to_owned());
                    (k, v)
                } else {
                    *self.collapsed.lock().expect("collapsed lock") += 1;
                    (k, LABEL_OTHER)
                }
            })
            .collect()
    }

    /// Adds `by` to the counter `name{labels}` (created at zero).
    pub fn inc_by(&self, name: &str, labels: &[(&str, &str)], by: u64) {
        let labels = self.bounded(name, labels);
        let key = MetricKey::new(name, &labels);
        let mut m = self.inner.lock().expect("registry lock");
        match m.entry(key).or_insert(MetricValue::Counter(0)) {
            MetricValue::Counter(c) => *c = c.saturating_add(by),
            _ => self.conflict(),
        }
    }

    /// Increments the counter `name{labels}` by one.
    pub fn inc(&self, name: &str, labels: &[(&str, &str)]) {
        self.inc_by(name, labels, 1);
    }

    /// Sets the gauge `name{labels}`.
    pub fn set_gauge(&self, name: &str, labels: &[(&str, &str)], v: f64) {
        let labels = self.bounded(name, labels);
        let key = MetricKey::new(name, &labels);
        let mut m = self.inner.lock().expect("registry lock");
        match m.entry(key).or_insert(MetricValue::Gauge(0.0)) {
            MetricValue::Gauge(g) => *g = v,
            _ => self.conflict(),
        }
    }

    /// Records `v` into the histogram `name{labels}`.
    pub fn observe(&self, name: &str, labels: &[(&str, &str)], v: u64) {
        let labels = self.bounded(name, labels);
        let key = MetricKey::new(name, &labels);
        let mut m = self.inner.lock().expect("registry lock");
        match m
            .entry(key)
            .or_insert_with(|| MetricValue::Histogram(Histogram::default()))
        {
            MetricValue::Histogram(h) => h.observe(v),
            _ => self.conflict(),
        }
    }

    fn conflict(&self) {
        *self.conflicts.lock().expect("conflict lock") += 1;
    }

    /// How many writes were dropped due to a type conflict.
    pub fn type_conflicts(&self) -> u64 {
        *self.conflicts.lock().expect("conflict lock")
    }

    /// How many label values were collapsed into [`LABEL_OTHER`]
    /// because their `(metric, label key)` hit the cardinality cap.
    pub fn labels_collapsed(&self) -> u64 {
        *self.collapsed.lock().expect("collapsed lock")
    }

    /// Current value of a counter (0 when absent).
    pub fn counter_value(&self, name: &str, labels: &[(&str, &str)]) -> u64 {
        match self
            .inner
            .lock()
            .expect("registry lock")
            .get(&MetricKey::new(name, labels))
        {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// Current value of a gauge (`None` when absent).
    pub fn gauge_value(&self, name: &str, labels: &[(&str, &str)]) -> Option<f64> {
        match self
            .inner
            .lock()
            .expect("registry lock")
            .get(&MetricKey::new(name, labels))
        {
            Some(MetricValue::Gauge(g)) => Some(*g),
            _ => None,
        }
    }

    /// Snapshot of every metric, sorted by key.
    pub fn snapshot(&self) -> Vec<(MetricKey, MetricValue)> {
        self.inner
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }

    /// Merge of a histogram across all label sets sharing `name`
    /// (`None` when no histogram by that name exists).
    pub fn merged_histogram(&self, name: &str) -> Option<Histogram> {
        let m = self.inner.lock().expect("registry lock");
        let mut merged: Option<Histogram> = None;
        for (k, v) in m.iter() {
            if k.name == name {
                if let MetricValue::Histogram(h) = v {
                    merged.get_or_insert_with(Histogram::default).merge(h);
                }
            }
        }
        merged
    }

    /// Sum of a counter across all label sets sharing `name`.
    pub fn counter_total(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .expect("registry lock")
            .iter()
            .filter(|(k, _)| k.name == name)
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                _ => 0,
            })
            .sum()
    }

    /// Renders every metric in the Prometheus text exposition format.
    ///
    /// Histograms render cumulative `_bucket{le="..."}` series (only the
    /// buckets in use, plus `+Inf`), `_sum`, and `_count`.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_name = String::new();
        for (key, value) in self.snapshot() {
            if key.name != last_name {
                let _ = writeln!(out, "# TYPE {} {}", key.name, value.type_name());
                last_name = key.name.clone();
            }
            match value {
                MetricValue::Counter(c) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.prom_suffix(), c);
                }
                MetricValue::Gauge(g) => {
                    let _ = writeln!(out, "{}{} {}", key.name, key.prom_suffix(), g);
                }
                MetricValue::Histogram(h) => {
                    let mut cumulative = 0u64;
                    let highest = h.buckets.iter().rposition(|&c| c > 0).unwrap_or(0);
                    for i in 0..=highest {
                        cumulative += h.buckets[i];
                        let mut labels = key.labels.clone();
                        labels.push(("le".into(), Histogram::upper_bound(i).to_string()));
                        labels.sort();
                        let suffix = MetricKey {
                            name: String::new(),
                            labels,
                        }
                        .prom_suffix();
                        let _ = writeln!(out, "{}_bucket{} {}", key.name, suffix, cumulative);
                    }
                    let mut labels = key.labels.clone();
                    labels.push(("le".into(), "+Inf".into()));
                    labels.sort();
                    let suffix = MetricKey {
                        name: String::new(),
                        labels,
                    }
                    .prom_suffix();
                    let _ = writeln!(out, "{}_bucket{} {}", key.name, suffix, h.count);
                    let _ = writeln!(out, "{}_sum{} {}", key.name, key.prom_suffix(), h.sum);
                    let _ = writeln!(out, "{}_count{} {}", key.name, key.prom_suffix(), h.count);
                }
            }
        }
        out
    }
}

/// Every metric as a JSON document (`{"metrics":[...]}` in key order,
/// exact integers; histograms carry sparse `[index, count]` buckets).
impl ToJson for Registry {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.objs("metrics", self.snapshot(), |o, (key, value)| {
                o.field("name", &key.name).obj("labels", |o| {
                    for (k, v) in &key.labels {
                        o.field(k, v);
                    }
                });
                match value {
                    MetricValue::Counter(c) => o.field("type", "counter").field("value", c),
                    MetricValue::Gauge(g) => o.field("type", "gauge").field("value", g),
                    MetricValue::Histogram(h) => o
                        .field("type", "histogram")
                        .field("count", h.count)
                        .field("sum", h.sum)
                        .arr("buckets", |a| {
                            for (i, &c) in h.buckets.iter().enumerate().filter(|(_, &c)| c > 0) {
                                a.arr(|p| {
                                    p.item(i).item(c);
                                });
                            }
                        }),
                };
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_semantics() {
        let r = Registry::new();
        r.inc("hits_total", &[]);
        r.inc_by("hits_total", &[], 4);
        r.inc("hits_total", &[("kind", "a")]);
        assert_eq!(r.counter_value("hits_total", &[]), 5);
        assert_eq!(r.counter_value("hits_total", &[("kind", "a")]), 1);
        assert_eq!(r.counter_total("hits_total"), 6);
        // Saturating, never wrapping.
        r.inc_by("hits_total", &[], u64::MAX);
        assert_eq!(r.counter_value("hits_total", &[]), u64::MAX);
    }

    #[test]
    fn gauge_last_write_wins() {
        let r = Registry::new();
        r.set_gauge("depth", &[], 2.0);
        r.set_gauge("depth", &[], -1.5);
        assert_eq!(r.gauge_value("depth", &[]), Some(-1.5));
        assert_eq!(r.gauge_value("missing", &[]), None);
    }

    #[test]
    fn label_order_is_canonical() {
        let r = Registry::new();
        r.inc("x_total", &[("b", "2"), ("a", "1")]);
        r.inc("x_total", &[("a", "1"), ("b", "2")]);
        assert_eq!(r.counter_value("x_total", &[("b", "2"), ("a", "1")]), 2);
        assert_eq!(r.snapshot().len(), 1);
    }

    #[test]
    fn histogram_log2_buckets() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(u64::MAX), 64);

        let r = Registry::new();
        for v in [0, 1, 3, 3, 900] {
            r.observe("lat_us", &[], v);
        }
        let snap = r.snapshot();
        let MetricValue::Histogram(h) = &snap[0].1 else {
            panic!("not a histogram")
        };
        assert_eq!(h.count, 5);
        assert_eq!(h.sum, 907);
        assert_eq!(h.buckets[0], 1); // the zero
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // the two 3s
        assert_eq!(h.buckets[10], 1); // 900 in [512,1024)
    }

    #[test]
    fn type_conflicts_are_dropped_not_panicking() {
        let r = Registry::new();
        r.inc("m", &[]);
        r.set_gauge("m", &[], 1.0);
        r.observe("m", &[], 7);
        assert_eq!(r.counter_value("m", &[]), 1);
        assert_eq!(r.type_conflicts(), 2);
    }

    #[test]
    fn prometheus_text_escapes_label_values() {
        let r = Registry::new();
        r.inc("odd_total", &[("path", "a\"b\\c\nd")]);
        let text = r.render_prometheus();
        assert!(text.contains("# TYPE odd_total counter"));
        assert!(
            text.contains(r#"odd_total{path="a\"b\\c\nd"} 1"#),
            "bad escaping in: {text}"
        );
    }

    #[test]
    fn prometheus_histogram_is_cumulative() {
        let r = Registry::new();
        for v in [1, 1, 2, 8] {
            r.observe("h", &[("stage", "run")], v);
        }
        let text = r.render_prometheus();
        assert!(text.contains(r#"h_bucket{le="1",stage="run"} 2"#), "{text}");
        assert!(text.contains(r#"h_bucket{le="3",stage="run"} 3"#), "{text}");
        assert!(
            text.contains(r#"h_bucket{le="15",stage="run"} 4"#),
            "{text}"
        );
        assert!(
            text.contains(r#"h_bucket{le="+Inf",stage="run"} 4"#),
            "{text}"
        );
        assert!(text.contains(r#"h_sum{stage="run"} 12"#), "{text}");
        assert!(text.contains(r#"h_count{stage="run"} 4"#), "{text}");
    }

    #[test]
    fn json_round_trip_is_lossless() {
        use crate::json::Json;
        let r = Registry::new();
        r.inc_by("c_total", &[("k", "v with \"quotes\"")], u64::MAX);
        r.set_gauge("g", &[], 0.125);
        for v in [0, 5, 1 << 40] {
            r.observe("h_units", &[("b", "mcf")], v);
        }
        let doc = r.to_json();
        assert_eq!(
            doc,
            r#"{"metrics":[{"name":"c_total","labels":{"k":"v with \"quotes\""},"type":"counter","value":18446744073709551615},{"name":"g","labels":{},"type":"gauge","value":0.125},{"name":"h_units","labels":{"b":"mcf"},"type":"histogram","count":3,"sum":1099511627781,"buckets":[[0,1],[3,1],[41,1]]}]}"#
        );
        let v = json::parse(&doc).expect("parses");
        let m = v.need_arr("metrics").unwrap();
        assert_eq!(m[0].need_u64("value"), Ok(u64::MAX));
        assert_eq!(
            m[0].get("labels").and_then(|l| l.need_str("k").ok()),
            Some("v with \"quotes\"")
        );
        assert_eq!(m[1].need_f64("value"), Ok(0.125));
        assert_eq!(m[2].need_u64("sum"), Ok(1 + 4 + (1 << 40)));
        let buckets = m[2].need_arr("buckets").unwrap();
        assert_eq!(
            buckets[2],
            Json::Arr(vec![Json::Int(41), Json::Int(1)]),
            "2^40 lands in bucket 41"
        );
    }

    #[test]
    fn quantiles_walk_the_cumulative_buckets() {
        let h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0, "empty histogram");

        let r = Registry::new();
        // 90 fast observations (≤ 15µs), 9 medium, 1 slow.
        for _ in 0..90 {
            r.observe("lat", &[], 9);
        }
        for _ in 0..9 {
            r.observe("lat", &[], 100);
        }
        r.observe("lat", &[], 5000);
        let h = r.merged_histogram("lat").expect("histogram exists");
        assert_eq!(h.quantile(0.5), 15); // bucket [8,16)
        assert_eq!(h.quantile(0.95), 127); // bucket [64,128)
        assert_eq!(h.quantile(0.99), 127);
        assert_eq!(h.quantile(1.0), 8191); // bucket [4096,8192)
        assert_eq!(h.quantile(0.0), 15, "q=0 clamps to the first rank");
    }

    #[test]
    fn merged_histogram_spans_label_sets() {
        let r = Registry::new();
        r.observe("lat", &[("bench", "mcf")], 4);
        r.observe("lat", &[("bench", "vpr")], 4);
        r.inc("lat_total", &[]); // different name, different type
        let h = r.merged_histogram("lat").expect("merged");
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 8);
        assert!(r.merged_histogram("missing").is_none());
        assert!(r.merged_histogram("lat_total").is_none());
    }

    /// The cardinality regression test: 10k distinct clients must not
    /// grow the registry past the per-key cap plus the `other` bucket.
    #[test]
    fn label_cardinality_is_bounded_under_10k_clients() {
        let r = Registry::new();
        for client in 0..10_000u64 {
            let id = client.to_string();
            r.inc("ppp_retry_resent_frames_total", &[("client", id.as_str())]);
            r.observe("ppp_agg_ingest_micros", &[("client", id.as_str())], client);
        }
        let snap = r.snapshot();
        let counters = snap
            .iter()
            .filter(|(k, _)| k.name == "ppp_retry_resent_frames_total")
            .count();
        assert_eq!(counters, MAX_LABEL_CARDINALITY + 1, "cap + other bucket");
        let hists = snap
            .iter()
            .filter(|(k, _)| k.name == "ppp_agg_ingest_micros")
            .count();
        assert_eq!(hists, MAX_LABEL_CARDINALITY + 1);
        // Nothing was dropped: the overflow landed in `other`.
        assert_eq!(r.counter_total("ppp_retry_resent_frames_total"), 10_000);
        assert_eq!(
            r.counter_value("ppp_retry_resent_frames_total", &[("client", LABEL_OTHER)]),
            10_000 - MAX_LABEL_CARDINALITY as u64
        );
        let h = r.merged_histogram("ppp_agg_ingest_micros").expect("merged");
        assert_eq!(h.count, 10_000);
        assert_eq!(
            r.labels_collapsed(),
            2 * (10_000 - MAX_LABEL_CARDINALITY as u64)
        );
        // Values inside the cap keep their identity.
        assert_eq!(
            r.counter_value("ppp_retry_resent_frames_total", &[("client", "0")]),
            1
        );
    }
}
