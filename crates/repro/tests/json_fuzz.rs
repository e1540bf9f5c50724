//! Seeded damage fuzz over `ppp_obs::json::parse`, the decoder that
//! `repro top` runs on a server's Stats reply and `repro bench
//! --compare` runs on baseline files.
//!
//! Contract: a damaged document parses or yields a `JsonError`; it never
//! panics and never overflows the stack. The inputs are the committed
//! `BENCH_seed.json` and a live Stats document from a server that has
//! ingested a drive. Each is cut at every byte and hit by seeded
//! multi-byte corruptions. The parser takes `&str`, so invalid UTF-8 is
//! replaced first, as `fetch_stats` refuses non-UTF-8 payloads itself.

use ppp_obs::json;
use ppp_repro::{drive, serve, DriveOptions, Transport};
use ppp_vm::SplitMix64;
use std::time::Duration;

const SEEDS: u64 = 300;

/// Bytes that steer the parser into its structural paths.
const STRUCTURAL: &[u8] = b"[]{}\",:\\-.0e";

fn parse_bytes(bytes: &[u8]) -> Result<json::Json, json::JsonError> {
    json::parse(&String::from_utf8_lossy(bytes))
}

/// Every truncation plus `SEEDS` rounds of 1–8 corrupted bytes (random
/// values, structural characters, and deep `[` runs).
fn fuzz(name: &str, doc: &str) {
    assert!(
        json::parse(doc).is_ok(),
        "{name}: the undamaged document parses"
    );
    let bytes = doc.as_bytes();
    for cut in 0..bytes.len() {
        assert!(
            parse_bytes(&bytes[..cut]).is_err(),
            "{name}: cut at {cut} parses"
        );
    }
    let len = bytes.len() as u64;
    for seed in 0..SEEDS {
        let mut rng = SplitMix64::new(seed);
        let mut damaged = bytes.to_vec();
        for _ in 0..=rng.next_u64() % 8 {
            let at = (rng.next_u64() % len) as usize;
            damaged[at] = match rng.next_u64() % 3 {
                0 => rng.next_u64() as u8,
                1 => STRUCTURAL[(rng.next_u64() % STRUCTURAL.len() as u64) as usize],
                _ => b'[',
            };
        }
        let _ = parse_bytes(&damaged);
        let at = (rng.next_u64() % len) as usize;
        let mut nested = bytes[..at].to_vec();
        nested.extend(std::iter::repeat_n(b'[', 100_000));
        nested.extend_from_slice(&bytes[at..]);
        let _ = parse_bytes(&nested);
    }
}

#[test]
fn committed_baseline_survives_damage() {
    fuzz(
        "BENCH_seed.json",
        include_str!("../../../BENCH_seed.json").trim_end(),
    );
}

#[test]
fn live_stats_document_survives_damage() {
    let server = serve("127.0.0.1:0", 2, 8, None).expect("server spawns");
    let options = DriveOptions {
        workers: 2,
        shards: 2,
        repeats: 1,
        scale: 0.02,
        delta_interval: 1024,
        transport: Transport::Connect(server.addr()),
        ..DriveOptions::default()
    };
    drive(Some("mcf"), &options).expect("drive completes");
    let doc = ppp_agg::fetch_stats(server.addr(), Duration::from_secs(5)).expect("stats frame");
    server.shutdown();
    let v = json::parse(&doc).expect("stats parse");
    assert!(!v.need_arr("benches").expect("benches").is_empty(), "{doc}");
    fuzz("stats", &doc);
}
