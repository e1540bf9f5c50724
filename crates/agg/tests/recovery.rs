//! The crash-recovery invariant (ISSUE 8 acceptance criterion): for
//! any crash point — at a checkpoint boundary, between deltas, or mid
//! WAL append (a torn tail) — recovering from checkpoint + WAL and
//! replaying the client's **entire** stream yields profiles
//! byte-identical (persist_v2 serialization) to the uncrashed
//! single-shot profiles, with every resent frame deduplicated by the
//! sequence watermark. Checked across {1, 2, 8} shards for every
//! benchmark in the 18-benchmark suite.

use ppp_agg::wal::{wal_path, Wal};
use ppp_agg::{AggClient, AggConfig, Aggregator, DurOptions, FrameSink, Hello};
use ppp_ir::wire::{decode_frame, encode_frame, encode_seq_payload};
use ppp_ir::{write_edge_profile_v2, write_path_profile_v2, Frame, FrameKind, Module};
use ppp_vm::{run, RunOptions, SplitMix64};
use ppp_workloads::{generate, spec2000_suite};
use std::path::PathBuf;
use std::sync::Arc;

const SCALE: f64 = 0.02;
const DELTA_INTERVAL: u64 = 4096;
/// Deliberately tiny so every stream crosses several checkpoint
/// boundaries.
const CHECKPOINT_EVERY: u64 = 3;

/// A [`FrameSink`] that records the exact wire stream a client sends.
struct RecordingSink(Vec<Frame>);

impl FrameSink for RecordingSink {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        let (frame, used) = decode_frame(bytes).map_err(|e| e.to_string())?;
        assert_eq!(used, bytes.len(), "sink got exactly one frame");
        self.0.push(frame);
        Ok(())
    }
}

/// The sequenced wire stream one client would send for `deltas`.
fn client_stream(bench: &str, module: &Arc<Module>, deltas: &[ppp_vm::ProfileDelta]) -> Vec<Frame> {
    let hello = Hello {
        bench: bench.to_owned(),
        funcs: module.functions.len(),
        scale_bits: SCALE.to_bits(),
        worker: 0,
    };
    let mut client =
        AggClient::open(Arc::clone(module), RecordingSink(Vec::new()), 3, &hello).expect("open");
    for d in deltas {
        client.push_delta(&d.edges, &d.paths).expect("push");
    }
    client.finish().expect("finish");
    client.into_sink().0
}

/// Ingests one frame as its encoded bytes; `true` when the watermark
/// dropped it as a duplicate. Panics on a refusal.
fn ingest(agg: &Aggregator, frame: &Frame) -> bool {
    let report = agg.ingest_stream(&frame.encode());
    assert!(
        report.rejected.is_empty() && report.wire_error.is_none(),
        "{report:?}"
    );
    report.duplicates == 1
}

fn scratch(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ppp-scratch/recovery")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable(bench: &str, module: &Arc<Module>, shards: usize, dir: &PathBuf) -> Aggregator {
    let (agg, _) = Aggregator::recover(
        bench,
        Arc::clone(module),
        AggConfig {
            shards,
            queue_cap: 8,
        },
        DurOptions::new(dir, CHECKPOINT_EVERY),
    )
    .expect("recover");
    agg
}

/// Crashes after `prefix` frames (optionally tearing `torn_bytes` off
/// the WAL tail, simulating a crash mid-append), recovers, replays the
/// full stream, and returns the snapshot bytes.
fn crash_and_recover(
    bench: &str,
    module: &Arc<Module>,
    frames: &[Frame],
    shards: usize,
    dir: &PathBuf,
    prefix: usize,
    torn_bytes: u64,
) -> (String, String, u64) {
    let _ = std::fs::remove_dir_all(dir);
    let agg = durable(bench, module, shards, dir);
    for f in &frames[..prefix] {
        ingest(&agg, f);
    }
    // The crash: no drain, no shutdown checkpoint, WAL handle dropped.
    drop(agg);
    if torn_bytes > 0 {
        let wal = ppp_agg::wal::wal_path(dir, bench);
        if let Ok(meta) = std::fs::metadata(&wal) {
            if meta.len() > 0 {
                let keep = meta
                    .len()
                    .saturating_sub(torn_bytes.min(meta.len() - 1).max(1));
                let f = std::fs::OpenOptions::new()
                    .write(true)
                    .open(&wal)
                    .expect("open wal for tearing");
                f.set_len(keep).expect("tear wal tail");
            }
        }
    }
    let agg = durable(bench, module, shards, dir);
    // The resuming client replays everything it ever sent; the
    // watermark must absorb the overlap.
    let mut duplicates = 0u64;
    for f in frames {
        duplicates += u64::from(ingest(&agg, f));
    }
    let (edges, paths) = agg.snapshot();
    (
        write_edge_profile_v2(module, &edges),
        write_path_profile_v2(module, &paths),
        duplicates,
    )
}

#[test]
fn recovery_is_byte_identical_at_every_crash_point() {
    for entry in spec2000_suite() {
        let name = &entry.spec.name;
        let module = Arc::new(generate(&entry.spec.clone().scaled(SCALE)));
        let options = RunOptions::default()
            .traced()
            .with_seed(0x5EED)
            .with_delta_interval(DELTA_INTERVAL);
        let result = run(&module, "main", &options).expect("benchmark runs");
        let edges = result.edge_profile.as_ref().expect("traced");
        let paths = result.path_profile.as_ref().expect("traced");
        let edge_bytes = write_edge_profile_v2(&module, edges);
        let path_bytes = write_path_profile_v2(&module, paths);
        let frames = client_stream(name, &module, &result.deltas);
        let seq_frames = frames
            .iter()
            .filter(|f| matches!(f.kind, FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta))
            .count() as u64;
        assert!(seq_frames >= 2, "{name}: stream worth crashing");

        let mut rng = SplitMix64::new(0xC0FFEE ^ name.len() as u64);
        for shards in [1usize, 2, 8] {
            let dir = scratch(&format!("{name}-{shards}"));
            // Crash points: every checkpoint boundary, plus two seeded
            // mid-interval points, plus the empty and full prefixes.
            let mut prefixes: Vec<usize> = (0..=frames.len())
                .filter(|k| *k == 0 || *k == frames.len() || *k % CHECKPOINT_EVERY as usize == 0)
                .collect();
            for _ in 0..2 {
                prefixes.push((rng.next_u64() % (frames.len() as u64 + 1)) as usize);
            }
            prefixes.dedup();
            for &prefix in &prefixes {
                let (e, p, _) = crash_and_recover(name, &module, &frames, shards, &dir, prefix, 0);
                assert_eq!(
                    e, edge_bytes,
                    "{name} {shards} shards: edges after crash at frame {prefix}"
                );
                assert_eq!(
                    p, path_bytes,
                    "{name} {shards} shards: paths after crash at frame {prefix}"
                );
            }
            // Torn WAL tails: a crash mid-append at seeded depths.
            for _ in 0..2 {
                let prefix = 1 + (rng.next_u64() % frames.len() as u64) as usize;
                let torn = 1 + rng.next_u64() % 64;
                let (e, p, _) =
                    crash_and_recover(name, &module, &frames, shards, &dir, prefix, torn);
                assert_eq!(
                    e, edge_bytes,
                    "{name} {shards} shards: edges after torn tail ({torn}B) at frame {prefix}"
                );
                assert_eq!(
                    p, path_bytes,
                    "{name} {shards} shards: paths after torn tail ({torn}B) at frame {prefix}"
                );
            }
        }
    }
}

#[test]
fn full_resend_after_recovery_is_fully_deduplicated() {
    // A retrying client that crashes *after* the server ingested
    // everything resends its whole stream; every sequenced frame must
    // come back `Duplicate` and the snapshot must not move.
    let suite = spec2000_suite();
    let entry = suite.iter().find(|e| e.spec.name == "mcf").expect("mcf");
    let module = Arc::new(generate(&entry.spec.clone().scaled(SCALE)));
    let options = RunOptions::default()
        .traced()
        .with_seed(42)
        .with_delta_interval(DELTA_INTERVAL);
    let result = run(&module, "main", &options).expect("runs");
    let frames = client_stream("mcf", &module, &result.deltas);
    let seq_frames = frames
        .iter()
        .filter(|f| matches!(f.kind, FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta))
        .count() as u64;

    let dir = scratch("double-replay");
    let (e1, p1, d1) = crash_and_recover("mcf", &module, &frames, 2, &dir, frames.len(), 0);
    assert_eq!(d1, seq_frames, "everything resent was deduplicated");

    // And replaying a third time over the *same* recovered state —
    // without another crash — still changes nothing.
    let agg = durable("mcf", &module, 2, &dir);
    let mut d2 = 0u64;
    for f in &frames {
        d2 += u64::from(ingest(&agg, f));
    }
    assert_eq!(d2, seq_frames);
    let (edges, paths) = agg.snapshot();
    assert_eq!(write_edge_profile_v2(&module, &edges), e1);
    assert_eq!(write_path_profile_v2(&module, &paths), p1);
    let edges_ref = result.edge_profile.as_ref().expect("traced");
    assert_eq!(e1, write_edge_profile_v2(&module, edges_ref));
}

#[test]
fn durable_ingest_and_recovery_record_wal_and_agg_metrics() {
    // The aggregator, its WAL and recovery record into the ambient
    // context. Sibling tests ingest meanwhile, but under other `bench`
    // labels, so this stream's series are exact.
    let bench = "metrics-mcf";
    let suite = spec2000_suite();
    let entry = suite.iter().find(|e| e.spec.name == "mcf").expect("mcf");
    let module = Arc::new(generate(&entry.spec.clone().scaled(SCALE)));
    let options = RunOptions::default()
        .traced()
        .with_seed(701)
        .with_delta_interval(DELTA_INTERVAL);
    let result = run(&module, "main", &options).expect("runs");
    let frames = client_stream(bench, &module, &result.deltas);
    let seq_frames = frames
        .iter()
        .filter(|f| matches!(f.kind, FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta))
        .count() as u64;
    let stream: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
    let dir = scratch("metrics");

    let previous = ppp_obs::global();
    let (ctx, _collect) = ppp_obs::ObsCtx::collecting();
    ppp_obs::install_global(ctx.clone());
    let agg = durable(bench, &module, 2, &dir);
    let report = agg.ingest_stream(&stream);
    let _ = agg.snapshot();
    drop(agg);
    drop(durable(bench, &module, 2, &dir));
    ppp_obs::install_global(previous);
    assert!(report.clean(), "{report:?}");

    let metrics = ctx.metrics();
    let counter = |name: &str| metrics.counter_value(name, &[("bench", bench)]);
    assert_eq!(counter(ppp_obs::names::WAL_APPENDS), seq_frames);
    let checkpoints = counter(ppp_obs::names::WAL_CHECKPOINTS);
    assert_eq!(checkpoints, seq_frames / CHECKPOINT_EVERY);
    assert_eq!(
        counter(ppp_obs::names::WAL_RECOVERIES),
        2,
        "cold start + restart"
    );
    let text = metrics.render_prometheus();
    let series = format!("ppp_agg_frames_ingested_total{{bench=\"{bench}\",kind=\"hello\"}} 1");
    assert!(text.contains(&series), "{text}");
    let series = format!("ppp_agg_snapshot_micros_count{{bench=\"{bench}\"}} 1");
    assert!(text.contains(&series), "{text}");
}

#[test]
fn wal_holding_a_persist_v2_delta_fails_recovery() {
    // A WAL written before deltas went binary: its sequenced frames
    // carry persist_v2 text. Recovery must fail loudly, not start from
    // zero or skip the record.
    let suite = spec2000_suite();
    let entry = suite.iter().find(|e| e.spec.name == "mcf").expect("mcf");
    let module = Arc::new(generate(&entry.spec.clone().scaled(SCALE)));
    let options = RunOptions::default()
        .traced()
        .with_seed(42)
        .with_delta_interval(DELTA_INTERVAL);
    let result = run(&module, "main", &options).expect("runs");
    let text = write_edge_profile_v2(&module, &result.deltas[0].edges);
    let frame = encode_frame(
        FrameKind::SeqEdgeDelta,
        &encode_seq_payload(0, 1, text.as_bytes()),
    );
    let dir = scratch("persist-v2-wal");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let mut wal = Wal::open(&wal_path(&dir, "mcf"), 0, "mcf").expect("open wal");
    wal.append(&frame).expect("append");
    drop(wal);
    let err = match Aggregator::recover(
        "mcf",
        Arc::clone(&module),
        AggConfig::default(),
        DurOptions::new(&dir, CHECKPOINT_EVERY),
    ) {
        Err(e) => e,
        Ok(_) => panic!("a persist_v2 WAL record was replayed"),
    };
    assert!(err.starts_with("wal replay: payload"), "{err}");
}

#[test]
fn wal_holds_frames_as_received_and_replays_them() {
    // The WAL appends each sequenced frame's received bytes. They must
    // be exactly what re-encoding the decoded frame logged before, for
    // a stream ingested as bytes and for one ingested frame by frame,
    // and recovery must replay them to the same snapshot.
    let suite = spec2000_suite();
    let entry = suite
        .iter()
        .find(|e| e.spec.name == "parser")
        .expect("parser");
    let module = Arc::new(generate(&entry.spec.clone().scaled(SCALE)));
    let options = RunOptions::default()
        .traced()
        .with_seed(701)
        .with_delta_interval(DELTA_INTERVAL);
    let result = run(&module, "main", &options).expect("runs");
    let frames = client_stream("parser", &module, &result.deltas);
    let received: Vec<u8> = frames.iter().flat_map(Frame::encode).collect();
    let is_seq = |f: &&Frame| matches!(f.kind, FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta);
    // Re-encoding every decoded sequenced frame: what the WAL held when
    // it logged `frame.encode()`.
    let reencoded: Vec<u8> = frames
        .iter()
        .filter(is_seq)
        .flat_map(Frame::encode)
        .collect();
    let seq_frames = frames.iter().filter(is_seq).count() as u64;
    let edges_ref = write_edge_profile_v2(&module, result.edge_profile.as_ref().expect("traced"));
    let paths_ref = write_path_profile_v2(&module, result.path_profile.as_ref().expect("traced"));
    for shards in [1usize, 2, 8] {
        for by_frame in [false, true] {
            let dir = scratch(&format!("wal-bytes-{shards}-{by_frame}"));
            // No checkpoints: the WAL keeps the whole stream.
            let config = AggConfig {
                shards,
                queue_cap: 8,
            };
            let (agg, _) = Aggregator::recover(
                "parser",
                Arc::clone(&module),
                config,
                DurOptions::new(&dir, 0),
            )
            .expect("cold start");
            if by_frame {
                for f in &frames {
                    ingest(&agg, f);
                }
            } else {
                let report = agg.ingest_stream(&received);
                assert!(report.clean(), "{report:?}");
            }
            drop(agg);
            let wal = std::fs::read(wal_path(&dir, "parser")).expect("read wal");
            assert_eq!(
                wal, reencoded,
                "{shards} shards, by frame {by_frame}: WAL bytes"
            );

            let (agg, report) = Aggregator::recover(
                "parser",
                Arc::clone(&module),
                config,
                DurOptions::new(&dir, 0),
            )
            .expect("recover");
            assert_eq!(report.replayed, seq_frames, "every logged frame replayed");
            assert!(!report.had_checkpoint);
            let (edges, paths) = agg.snapshot();
            assert_eq!(write_edge_profile_v2(&module, &edges), edges_ref);
            assert_eq!(write_path_profile_v2(&module, &paths), paths_ref);
        }
    }
}
