//! `repro top <addr>`: a refreshing text dashboard over the serve
//! tier's live-introspection (`Stats`) wire frame.
//!
//! Each refresh sends one `StatsRequest` to the server and renders the
//! [`ppp_agg::STATS_SCHEMA`] reply: uptime, frames accepted, per-bench
//! shard queue depths, sequence watermarks, checkpoint lag, and the
//! headline `ppp_agg_*` counters from the server's metric registry.
//! The request path never touches the shard queues, so watching a
//! server under load does not disturb ingestion.

use ppp_agg::STATS_SCHEMA;
use ppp_obs::json::{self, Json};
use std::net::SocketAddr;
use std::time::Duration;

/// Delay between dashboard refreshes.
const REFRESH: Duration = Duration::from_secs(1);

/// Per-request connect/read deadline.
const TIMEOUT: Duration = Duration::from_secs(2);

/// Sum of every registry counter named `name`, across label sets.
fn counter_total(registry: &Json, name: &str) -> u64 {
    registry.need_arr("metrics").map_or(0, |items| {
        items
            .iter()
            .filter(|m| m.need_str("name") == Ok(name))
            .filter_map(|m| m.need_u64("value").ok())
            .sum()
    })
}

/// Renders one Stats document as a dashboard page.
///
/// # Errors
///
/// Returns a message when the document is not parseable
/// [`STATS_SCHEMA`] JSON.
pub fn render_stats(doc: &str) -> Result<String, String> {
    let v = json::parse(doc).map_err(|e| format!("stats document unparseable: {e}"))?;
    let schema = v.need_str("schema").unwrap_or("?");
    if schema != STATS_SCHEMA {
        return Err(format!(
            "unexpected stats schema {schema:?} (want {STATS_SCHEMA:?})"
        ));
    }
    let uptime_ms = v.need_u64("uptime_ms").unwrap_or(0);
    let frames = v.need_u64("frames_accepted").unwrap_or(0);
    let durable = matches!(v.get("durable"), Some(Json::Bool(true)));
    let mut out = format!(
        "ppp-agg: up {:.1} s, {frames} frame(s) accepted{}\n",
        uptime_ms as f64 / 1e3,
        if durable { ", durable" } else { "" },
    );
    let registry = v.get("registry");
    if let Some(reg) = registry {
        out.push_str(&format!(
            "ingested {} frame(s), merged {} delta(s), served {} stats request(s), {} flight dump(s)\n",
            counter_total(reg, ppp_obs::names::AGG_FRAMES_INGESTED),
            counter_total(reg, "ppp_agg_deltas_merged_total"),
            counter_total(reg, ppp_obs::names::STATS_SERVED),
            counter_total(reg, ppp_obs::names::FLIGHT_DUMPS),
        ));
    }
    let benches = v.need_arr("benches").unwrap_or(&[]);
    if benches.is_empty() {
        out.push_str("(no benchmarks registered)\n");
        return Ok(out);
    }
    let mut t = crate::format::Table::new([
        "Benchmark",
        "Shards",
        "Queues",
        "Clients",
        "Since-ckpt",
        "Stalls",
    ]);
    for b in benches {
        let num = |key: &str| b.need_u64(key).map_or("?".to_owned(), |n| n.to_string());
        let depths = b.need_arr("queue_depths").map_or("?".to_owned(), |d| {
            let d: Vec<String> = d
                .iter()
                .filter_map(Json::as_u64)
                .map(|n| n.to_string())
                .collect();
            d.join(",")
        });
        t.row([
            b.need_str("bench").unwrap_or("?").to_owned(),
            num("shards"),
            depths,
            b.need_arr("watermarks")
                .map_or("?".to_owned(), |w| w.len().to_string()),
            num("frames_since_checkpoint"),
            num("backpressure_stalls"),
        ]);
    }
    out.push_str(&t.render());
    Ok(out)
}

/// Polls the server at `addr` and prints the dashboard: once (`once`,
/// the `--once` flag) or in a clear-screen refresh loop until the
/// process is interrupted.
///
/// # Errors
///
/// Returns a message on a connect/transport failure or an unparseable
/// reply.
pub fn top(addr: SocketAddr, once: bool) -> Result<(), String> {
    loop {
        let doc = ppp_agg::fetch_stats(addr, TIMEOUT)?;
        let page = render_stats(&doc)?;
        if once {
            println!("{addr}\n{page}");
            return Ok(());
        }
        // ANSI clear + home, then the refreshed page.
        print!("\x1b[2J\x1b[H{addr}\n{page}");
        use std::io::Write as _;
        std::io::stdout().flush().ok();
        std::thread::sleep(REFRESH);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::serve;

    #[test]
    fn renders_a_live_server_snapshot() {
        let server = serve("127.0.0.1:0", 2, 8, None).expect("server spawns");
        let doc = ppp_agg::fetch_stats(server.addr(), Duration::from_secs(5)).expect("stats frame");
        let page = render_stats(&doc).expect("stats render");
        assert!(page.contains("ppp-agg: up"), "{page}");
        assert!(page.contains("frame(s) accepted"), "{page}");
        assert!(page.contains("no benchmarks registered"), "{page}");
        server.shutdown();
    }

    #[test]
    fn renders_per_bench_rows_from_a_canned_document() {
        let doc = format!(
            "{{\"schema\":\"{STATS_SCHEMA}\",\"uptime_ms\":2500,\"frames_accepted\":7,\
             \"durable\":true,\"benches\":[{{\"bench\":\"mcf\",\"shards\":2,\
             \"queue_depths\":[0,3],\"watermarks\":[{{\"client\":1,\"seq\":9}}],\
             \"frames_since_checkpoint\":4,\"backpressure_stalls\":1}}],\
             \"registry\":{{\"metrics\":[{{\"name\":\"ppp_agg_frames_ingested_total\",\
             \"labels\":{{}},\"type\":\"counter\",\"value\":6}}]}}}}"
        );
        let page = render_stats(&doc).expect("stats render");
        assert!(page.contains("up 2.5 s"), "{page}");
        assert!(page.contains("durable"), "{page}");
        assert!(page.contains("mcf"), "{page}");
        assert!(page.contains("0,3"), "{page}");
        assert!(page.contains("ingested 6 frame(s)"), "{page}");
    }

    #[test]
    fn rejects_a_foreign_schema() {
        let err = render_stats("{\"schema\":\"nope/v9\"}").expect_err("refused");
        assert!(err.contains("nope/v9"), "{err}");
    }
}
