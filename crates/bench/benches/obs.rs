//! Micro-benchmarks for the observability layer: the no-op fast path
//! (what every production pipeline run pays), the collecting path, the
//! metrics registry, and the render/serialize surfaces.

use ppp_bench::harness::bench;
use ppp_obs::json::ToJson;
use ppp_obs::{ObsCtx, Registry};

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

fn metrics() {
    let reg = Registry::new();
    let labels = [("bench", "mcf"), ("profiler", "PPP")];
    bench("obs", "counter-inc", || {
        reg.inc("ppp_bench_iterations_total", &labels);
    });
    bench("obs", "gauge-set", || {
        reg.set_gauge("ppp_bench_gauge", &labels, 42.0);
    });
    let mut v = 1u64;
    bench("obs", "histogram-observe", || {
        v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
        reg.observe("ppp_bench_histogram", &labels, v >> 40);
    });
    bench("obs", "render-prometheus", || reg.render_prometheus());
    bench("obs", "render-json", || reg.to_json());
}

fn main() {
    spans();
    metrics();
}
