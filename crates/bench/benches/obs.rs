//! Micro-benchmarks for the observability layer: the no-op fast path
//! (what every production pipeline run pays), the collecting path, the
//! metrics registry — string-keyed writes next to writes through bound
//! handles, after checking the two render alike — and the
//! render/serialize surfaces.

use ppp_bench::harness::bench;
use ppp_obs::json::ToJson;
use ppp_obs::{CounterHandle, ObsCtx, Registry};

fn spans() {
    let noop = ObsCtx::noop();
    bench("obs", "span-noop", || {
        let mut s = noop.span("bench.span");
        s.set("k", 1u64);
    });

    let (collecting, sink) = ObsCtx::collecting();
    bench("obs", "span-collect", || {
        let mut s = collecting.span("bench.span");
        s.set("k", 1u64);
    });
    println!("obs: {} records collected", sink.len());

    bench("obs", "event-noop", || {
        noop.event(
            ppp_obs::Level::Info,
            "bench.event",
            &[("k", ppp_obs::Value::from(1u64))],
        );
    });
}

/// Replays one write sequence through bound handles and through the
/// string API into two registries, and asserts they render alike: the
/// handle rows below time the same storage the string rows do.
fn check_handles_match_strings() {
    let (by_handle, by_string) = (Registry::new(), Registry::new());
    // Each client's handle is bound at its first write, the moment the
    // string API claims that label value, so both hit the cap alike.
    let mut counters: Vec<Option<CounterHandle>> = vec![None; 40];
    let histogram = by_handle.histogram("ppp_bench_micros", &[("bench", "mcf")]);
    for i in 0..4_000u64 {
        let client = (i * 7 % 40) as usize;
        counters[client]
            .get_or_insert_with(|| {
                by_handle.counter("ppp_bench_frames_total", &[("client", &client.to_string())])
            })
            .inc_by(i);
        by_string.inc_by(
            "ppp_bench_frames_total",
            &[("client", &client.to_string())],
            i,
        );
        histogram.observe(i * i);
        by_string.observe("ppp_bench_micros", &[("bench", "mcf")], i * i);
    }
    assert_eq!(by_handle.render_prometheus(), by_string.render_prometheus());
    assert_eq!(by_handle.to_json(), by_string.to_json());
    assert_eq!(by_handle.labels_collapsed(), by_string.labels_collapsed());
    println!(
        "obs: handle and string writes render alike ({} labels collapsed)",
        by_string.labels_collapsed()
    );
}

fn metrics() {
    let reg = Registry::new();
    let labels = [("bench", "mcf"), ("profiler", "PPP")];
    bench("obs", "counter-inc", || {
        reg.inc("ppp_bench_iterations_total", &labels);
    });
    let counter = reg.counter("ppp_bench_iterations_total", &labels);
    bench("obs", "counter-handle-inc", || counter.inc());
    bench("obs", "gauge-set", || {
        reg.set_gauge("ppp_bench_gauge", &labels, 42.0);
    });
    let mut v = 1u64;
    bench("obs", "histogram-observe", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        reg.observe("ppp_bench_histogram", &labels, v >> 40);
    });
    let histogram = reg.histogram("ppp_bench_histogram", &labels);
    bench("obs", "histogram-handle-observe", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        histogram.observe(v >> 40);
    });
    bench("obs", "render-prometheus", || reg.render_prometheus());
    bench("obs", "render-json", || reg.to_json());
}

fn main() {
    check_handles_match_strings();
    spans();
    metrics();
}
