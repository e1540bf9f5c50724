//! Owner-only fan-out: a sequenced delta reaches only the shards that
//! own at least one of its function records, while snapshots (whose
//! flush gate goes through every queue) still include it.
//!
//! Messages are counted through `ppp_agg_deltas_merged_total{shard}`.
//! The metrics registry is process-global and caps each label at 32
//! values, so this test keeps a binary of its own: in `determinism.rs`,
//! which registers over a hundred aggregator names, its `bench` label
//! could collapse into `other`.

use ppp_agg::{AggConfig, Aggregator};
use ppp_ir::wire::{encode_frame, encode_seq_payload, FrameKind};
use ppp_ir::{
    encode_edge_delta, encode_path_delta, BlockId, EdgeRef, FuncId, FunctionBuilder, Module,
    ModuleEdgeProfile, ModulePathProfile, PathKey, Reg,
};
use std::sync::Arc;

const SHARDS: usize = 4;

/// Eight diamond functions: shard `k` owns `f{k}` and `f{k + 4}`.
fn module() -> Arc<Module> {
    let mut m = Module::new();
    for i in 0..2 * SHARDS {
        let mut b = FunctionBuilder::new(format!("f{i}"), 1);
        let (t, e) = (b.new_block(), b.new_block());
        b.branch(Reg(0), t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        m.add_function(b.finish());
    }
    Arc::new(m)
}

fn merged(bench: &str, shard: usize) -> u64 {
    ppp_obs::global().metrics().counter_value(
        "ppp_agg_deltas_merged_total",
        &[("bench", bench), ("shard", &shard.to_string())],
    )
}

fn ingest(agg: &Aggregator, kind: FrameKind, seq: u64, container: &[u8]) {
    let frame = encode_frame(kind, &encode_seq_payload(0, seq, container));
    let report = agg.ingest_stream(&frame);
    assert_eq!(report.frames_accepted(), 1, "applied: {report:?}");
}

#[test]
fn a_delta_for_one_shard_wakes_only_that_shard() {
    let bench = "fanout-one-shard";
    let m = module();
    let agg = Aggregator::new(
        bench,
        Arc::clone(&m),
        AggConfig {
            shards: SHARDS,
            queue_cap: 4,
        },
    );
    // Flow in f1 and f5 only, both owned by shard 1.
    let mut edges = ModuleEdgeProfile::zeroed(&m);
    let mut paths = ModulePathProfile::with_capacity(m.functions.len());
    for (fid, n) in [(1usize, 3u64), (5, 7)] {
        let p = &mut edges.funcs[fid];
        p.set_entries(n);
        p.set_block(BlockId(0), n);
        p.set_edge(EdgeRef::new(BlockId(0), 1), n);
        p.set_block(BlockId(2), n);
        paths.func_mut(FuncId::new(fid)).record(
            m.function(FuncId::new(fid)),
            PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 1)],
            },
            n,
        );
    }
    ingest(
        &agg,
        FrameKind::SeqEdgeDelta,
        1,
        &encode_edge_delta(&m, &edges),
    );
    ingest(
        &agg,
        FrameKind::SeqPathDelta,
        2,
        &encode_path_delta(&m, &paths),
    );
    // An empty delta is accepted and sequenced but reaches no shard.
    let empty = ModulePathProfile::with_capacity(m.functions.len());
    ingest(
        &agg,
        FrameKind::SeqPathDelta,
        3,
        &encode_path_delta(&m, &empty),
    );
    assert_eq!(agg.watermark(0), 3);

    // The snapshot's flush gate passes every queue, so it includes the
    // delta, and once it returns every merge has been counted.
    let (snap_edges, snap_paths) = agg.snapshot();
    assert_eq!(snap_edges, edges, "snapshot includes the delta");
    assert_eq!(snap_paths, paths, "snapshot includes the delta");
    let counts: Vec<u64> = (0..SHARDS).map(|k| merged(bench, k)).collect();
    assert_eq!(
        counts,
        vec![0, 2, 0, 0],
        "one edge and one path message, both to shard 1"
    );
}
