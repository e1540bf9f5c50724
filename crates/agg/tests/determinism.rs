//! The aggregation determinism invariant: N-way sharded aggregation of
//! a run's delta stream yields profiles **byte-identical** (persist_v2
//! serialization) to the sequential single-shot profiles, for every
//! benchmark in the 18-benchmark suite, across seeds and shard counts —
//! and every merged snapshot is flow conservative (the PPP308
//! invariant). The shards add sparse per-shard records; two more tests
//! hold them to the dense sequential merges they replaced, on recorded
//! deltas and on saturating ones.

use ppp_agg::{AggClient, AggConfig, AggService, Hello, InProcSink};
use ppp_ir::{
    write_edge_profile_v2, write_path_profile_v2, EdgeRef, FuncId, Module, ModuleEdgeProfile,
    ModulePathProfile,
};
use ppp_vm::ProfileDelta;
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};
use std::sync::Arc;

/// Small but non-trivial dynamic work per benchmark: the full suite ×
/// 2 seeds × 3 shard counts must stay test-suite fast.
const SCALE: f64 = 0.02;
const DELTA_INTERVAL: u64 = 4096;
/// A finer delta cut for the differential tests: more, smaller deltas.
const FINE_INTERVAL: u64 = 1024;

#[test]
fn sharded_aggregation_is_byte_identical_to_sequential() {
    for entry in spec2000_suite() {
        let module = Arc::new(generate(&entry.spec.clone().scaled(SCALE)));
        for seed in [0x5EED_u64, 42] {
            let options = RunOptions::default()
                .traced()
                .with_seed(seed)
                .with_delta_interval(DELTA_INTERVAL);
            let result = run(&module, "main", &options).expect("benchmark runs");
            let edges = result.edge_profile.as_ref().expect("traced");
            let paths = result.path_profile.as_ref().expect("traced");
            assert!(
                !result.deltas.is_empty(),
                "{}: delta stream produced",
                entry.spec.name
            );

            // Reference bytes: the sequential single-shot profile.
            let edge_bytes = write_edge_profile_v2(&module, edges);
            let path_bytes = write_path_profile_v2(&module, paths);

            for shards in [1usize, 2, 8] {
                let (snap_edges, snap_paths) =
                    aggregate(&entry.spec.name, &module, &result.deltas, shards, seed);
                assert_eq!(
                    write_edge_profile_v2(&module, &snap_edges),
                    edge_bytes,
                    "{} seed {seed}: {shards}-shard edge snapshot must be byte-identical",
                    entry.spec.name
                );
                assert_eq!(
                    write_path_profile_v2(&module, &snap_paths),
                    path_bytes,
                    "{} seed {seed}: {shards}-shard path snapshot must be byte-identical",
                    entry.spec.name
                );
                // PPP308: merged snapshots conserve flow at every block.
                assert!(
                    snap_edges.is_flow_conservative(&module),
                    "{} seed {seed}: {shards}-shard snapshot flow",
                    entry.spec.name
                );
            }
        }
    }
}

/// Streams `deltas` through the full client → wire → sharded-aggregator
/// path and snapshots the merge.
fn aggregate(
    bench: &str,
    module: &Arc<Module>,
    deltas: &[ProfileDelta],
    shards: usize,
    seed: u64,
) -> (ModuleEdgeProfile, ModulePathProfile) {
    let key = format!("{bench}-{seed}-{shards}");
    // Batch 3: a deliberately awkward batch size.
    stream(&key, module, deltas, shards, 3)
}

/// Streams `deltas` under the aggregator name `key` with client batch
/// size `batch` and snapshots the merge.
fn stream(
    key: &str,
    module: &Arc<Module>,
    deltas: &[ProfileDelta],
    shards: usize,
    batch: usize,
) -> (ModuleEdgeProfile, ModulePathProfile) {
    let service = AggService::new(AggConfig {
        shards,
        queue_cap: 8,
    });
    let agg = service.register(key, module).expect("register");
    let hello = Hello {
        bench: key.to_owned(),
        funcs: module.functions.len(),
        scale_bits: SCALE.to_bits(),
        worker: 0,
    };
    let mut client = AggClient::open(
        Arc::clone(module),
        InProcSink::new(Arc::clone(&agg)),
        batch,
        &hello,
    )
    .expect("open");
    for d in deltas {
        client.push_delta(&d.edges, &d.paths).expect("push");
    }
    client.finish().expect("finish");
    agg.snapshot()
}

/// The sequential dense merge of `deltas`: the reference the shards'
/// sparse adds must reproduce byte for byte.
fn sequential(module: &Module, deltas: &[ProfileDelta]) -> (ModuleEdgeProfile, ModulePathProfile) {
    let mut edges = ModuleEdgeProfile::zeroed(module);
    let mut paths = ModulePathProfile::with_capacity(module.functions.len());
    for d in deltas {
        edges.merge(&d.edges);
        paths.merge(&d.paths);
    }
    (edges, paths)
}

/// Records `name`'s delta stream at [`SCALE`], cut every
/// [`FINE_INTERVAL`] events.
fn recorded(name: &str, seed: u64) -> (Arc<Module>, Vec<ProfileDelta>) {
    let suite = spec2000_suite();
    let entry = suite
        .iter()
        .find(|e| e.spec.name == name)
        .expect("suite entry");
    let module = Arc::new(generate(&entry.spec.clone().scaled(SCALE)));
    let options = RunOptions::default()
        .traced()
        .with_seed(seed)
        .with_delta_interval(FINE_INTERVAL);
    let deltas = run(&module, "main", &options)
        .expect("benchmark runs")
        .deltas;
    assert!(deltas.len() > 1, "{name}: several deltas cut");
    (module, deltas)
}

/// Asserts the snapshot of `deltas` streamed one delta per frame pair
/// into `shards` shards is byte-identical to their sequential merge.
fn assert_matches_sequential(what: &str, module: &Arc<Module>, deltas: &[ProfileDelta]) {
    let (edges, paths) = sequential(module, deltas);
    let edge_bytes = write_edge_profile_v2(module, &edges);
    let path_bytes = write_path_profile_v2(module, &paths);
    for shards in [1usize, 2, 8] {
        let (snap_edges, snap_paths) = stream(what, module, deltas, shards, 1);
        assert_eq!(
            write_edge_profile_v2(module, &snap_edges),
            edge_bytes,
            "{what}: {shards}-shard edge snapshot vs sequential merge"
        );
        assert_eq!(
            write_path_profile_v2(module, &snap_paths),
            path_bytes,
            "{what}: {shards}-shard path snapshot vs sequential merge"
        );
        assert_eq!(snap_edges, edges, "{what}: {shards} shards");
        assert_eq!(snap_paths, paths, "{what}: {shards} shards");
    }
}

#[test]
fn sparse_shard_adds_match_the_sequential_dense_merge() {
    for name in ["mcf", "parser", "crafty", "swim", "art"] {
        let (module, deltas) = recorded(name, 701);
        assert_matches_sequential(name, &module, &deltas);
    }
}

#[test]
fn saturating_deltas_pin_like_the_sequential_dense_merge() {
    let (module, mut deltas) = recorded("parser", 702);
    // A delta whose every non-zero counter and path frequency sits at
    // u64::MAX, sent first and last, around the recorded stream.
    let mut pinned = deltas[0].clone();
    let mut hot = None;
    for (i, f) in pinned.edges.funcs.iter_mut().enumerate() {
        if f.is_zero() {
            continue;
        }
        f.set_entries(u64::MAX);
        for (bid, b) in module.functions[i].iter_blocks() {
            if f.block(bid) > 0 {
                f.set_block(bid, u64::MAX);
            }
            for s in 0..b.term.successor_count() {
                let e = EdgeRef::new(bid, s);
                if f.edge(e) > 0 {
                    f.set_edge(e, u64::MAX);
                    hot.get_or_insert((FuncId::new(i), e));
                }
            }
        }
    }
    for fp in &mut pinned.paths.funcs {
        fp.paths.values_mut().for_each(|s| s.freq = u64::MAX);
    }
    deltas.insert(0, pinned.clone());
    deltas.push(pinned.clone());
    let (edges, paths) = sequential(&module, &deltas);
    let (func, edge) = hot.expect("the first delta has edge flow");
    assert_eq!(edges.func(func).entries(), u64::MAX, "entries pinned");
    assert_eq!(edges.func(func).edge(edge), u64::MAX, "edge pinned");
    assert!(pinned.paths.distinct_paths() > 0);
    for (f, key, _) in pinned.paths.iter() {
        assert_eq!(paths.func(f).paths[key].freq, u64::MAX, "path pinned");
    }
    assert_matches_sequential("parser-saturated", &module, &deltas);
}
