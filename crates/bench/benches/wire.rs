//! Micro-benchmarks for the delta codecs: the sparse binary encoding
//! that sequenced frames carry, next to the persist_v2 text container
//! that checkpoints keep, on one recorded delta per benchmark. Also
//! times the CRC-32 that frames and v2 sections compute.

use ppp_bench::harness::bench;
use ppp_ir::{
    crc32, decode_edge_delta, decode_path_delta, encode_edge_delta, encode_path_delta,
    read_edge_profile_v2, read_path_profile_v2, write_edge_profile_v2, write_path_profile_v2,
};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};

/// Scale and delta cut of the recorded runs (the ingest workload's).
const SCALE: f64 = 1.0;
const DELTA_INTERVAL: u64 = 2560;

fn main() {
    for name in ["mcf", "parser", "swim"] {
        let suite = spec2000_suite();
        let entry = suite
            .iter()
            .find(|e| e.spec.name == name)
            .expect("suite entry");
        let module = generate(&entry.spec.clone().scaled(SCALE));
        let options = RunOptions::default()
            .traced()
            .with_seed(701)
            .with_delta_interval(DELTA_INTERVAL);
        let r = run(&module, "main", &options).expect("benchmark runs");
        let d = &r.deltas[r.deltas.len() / 2];

        let edges = encode_edge_delta(&module, &d.edges);
        let paths = encode_path_delta(&module, &d.paths);
        let edges_v2 = write_edge_profile_v2(&module, &d.edges);
        let paths_v2 = write_path_profile_v2(&module, &d.paths);
        assert_eq!(
            decode_edge_delta(&module, &edges).expect("decodes"),
            d.edges
        );
        assert_eq!(
            decode_path_delta(&module, &paths).expect("decodes"),
            d.paths
        );
        assert_eq!(
            read_edge_profile_v2(&module, edges_v2.as_bytes()).expect("reads"),
            d.edges
        );
        assert_eq!(
            read_path_profile_v2(&module, paths_v2.as_bytes()).expect("reads"),
            d.paths
        );
        println!(
            "wire: {name}: {} delta(s); binary {} B, persist_v2 {} B (edge + path)",
            r.deltas.len(),
            edges.len() + paths.len(),
            edges_v2.len() + paths_v2.len()
        );

        let group = format!("wire/{name}");
        bench(&group, "binary-encode", || {
            (
                encode_edge_delta(&module, &d.edges),
                encode_path_delta(&module, &d.paths),
            )
        });
        bench(&group, "binary-decode", || {
            (
                decode_edge_delta(&module, &edges),
                decode_path_delta(&module, &paths),
            )
        });
        bench(&group, "v2-write", || {
            (
                write_edge_profile_v2(&module, &d.edges),
                write_path_profile_v2(&module, &d.paths),
            )
        });
        bench(&group, "v2-read", || {
            (
                read_edge_profile_v2(&module, edges_v2.as_bytes()),
                read_path_profile_v2(&module, paths_v2.as_bytes()),
            )
        });
        bench(&group, "crc32-v2-bytes", || {
            crc32(edges_v2.as_bytes()) ^ crc32(paths_v2.as_bytes())
        });
    }
}
