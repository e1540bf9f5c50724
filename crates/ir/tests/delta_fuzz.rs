//! Seeded damage fuzz over the binary delta decoder.
//!
//! Contract: [`decode_edge_delta`] / [`decode_path_delta`] handed
//! arbitrary bytes return a profile or a typed [`DeltaError`] — they
//! never panic, and a declared count or length the remaining bytes
//! cannot hold is refused before anything is allocated from it. The
//! sweep covers every truncation point, seeded multi-byte flips, huge
//! declared counts, overflowing varints and out-of-range ids, over a
//! hand-built sample and a delta recorded from a suite benchmark.

use ppp_ir::{
    decode_edge_delta, decode_path_delta, encode_edge_delta, encode_path_delta, BlockId,
    DeltaError, EdgeRef, FuncId, FunctionBuilder, Module, ModuleEdgeProfile, ModulePathProfile,
    PathKey, Reg, EDGE_DELTA_MAGIC, PATH_DELTA_MAGIC,
};
use ppp_vm::{run, RunOptions, SplitMix64};
use ppp_workloads::{generate, spec2000_suite};

const SEEDS: u64 = 300;

/// A diamond `main` and a single-block `leaf`.
fn sample_module() -> Module {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("main", 1);
    let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
    b.branch(Reg(0), t, e);
    b.switch_to(t);
    b.jump(j);
    b.switch_to(e);
    b.jump(j);
    b.switch_to(j);
    b.ret(None);
    m.add_function(b.finish());
    let mut l = FunctionBuilder::new("leaf", 0);
    l.ret(None);
    m.add_function(l.finish());
    m
}

fn sample_payloads(m: &Module) -> (Vec<u8>, Vec<u8>) {
    let mut edges = ModuleEdgeProfile::zeroed(m);
    let f0 = edges.func_mut(FuncId(0));
    f0.set_entries(6);
    f0.set_block(BlockId(0), 6);
    f0.set_edge(EdgeRef::new(BlockId(0), 0), 4);
    f0.set_edge(EdgeRef::new(BlockId(0), 1), u64::MAX);
    f0.set_block(BlockId(3), 6);
    edges.func_mut(FuncId(1)).set_entries(3);
    let mut paths = ModulePathProfile::with_capacity(2);
    let f = m.function(FuncId(0));
    for (succ, freq) in [(0usize, 4u64), (1, 2)] {
        paths.func_mut(FuncId(0)).record(
            f,
            PathKey {
                start: BlockId(0),
                edges: vec![
                    EdgeRef::new(BlockId(0), succ),
                    EdgeRef::new(BlockId(1 + succ as u32), 0),
                ],
            },
            freq,
        );
    }
    paths.func_mut(FuncId(1)).record(
        m.function(FuncId(1)),
        PathKey {
            start: BlockId(0),
            edges: vec![],
        },
        3,
    );
    (encode_edge_delta(m, &edges), encode_path_delta(m, &paths))
}

/// The first delta of a small traced `mcf` run.
fn recorded() -> (Module, Vec<u8>, Vec<u8>) {
    let suite = spec2000_suite();
    let entry = suite.iter().find(|e| e.spec.name == "mcf").expect("mcf");
    let module = generate(&entry.spec.clone().scaled(0.02));
    let options = RunOptions::default()
        .traced()
        .with_seed(701)
        .with_delta_interval(1024);
    let r = run(&module, "main", &options).expect("runs");
    let d = &r.deltas[0];
    let (e, p) = (
        encode_edge_delta(&module, &d.edges),
        encode_path_delta(&module, &d.paths),
    );
    (module, e, p)
}

/// Feeds bytes through both decoders (kind confusion included); any
/// return is fine, any panic fails the test.
fn exercise(m: &Module, edge: &[u8], path: &[u8]) {
    let _ = decode_edge_delta(m, edge);
    let _ = decode_path_delta(m, path);
    let _ = decode_edge_delta(m, path);
    let _ = decode_path_delta(m, edge);
}

fn corpora() -> Vec<(Module, Vec<u8>, Vec<u8>)> {
    let m = sample_module();
    let (e, p) = sample_payloads(&m);
    vec![(m, e, p), recorded()]
}

#[test]
fn every_truncation_point_decodes_or_errors() {
    for (m, edge, path) in corpora() {
        assert!(decode_edge_delta(&m, &edge).is_ok());
        assert!(decode_path_delta(&m, &path).is_ok());
        for cut in 0..edge.len().max(path.len()) {
            exercise(
                &m,
                &edge[..cut.min(edge.len())],
                &path[..cut.min(path.len())],
            );
        }
    }
}

#[test]
fn seeded_byte_flips_decode_or_error() {
    for (m, edge, path) in corpora() {
        for seed in 0..SEEDS {
            let mut rng = SplitMix64::new(seed);
            let mut e = edge.clone();
            let mut p = path.clone();
            for _ in 0..=rng.next_u64() % 8 {
                let at = (rng.next_u64() % e.len() as u64) as usize;
                e[at] = rng.next_u64() as u8;
                let at = (rng.next_u64() % p.len() as u64) as usize;
                p[at] = rng.next_u64() as u8;
            }
            exercise(&m, &e, &p);
        }
    }
}

fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

fn build(magic: [u8; 4], fields: &[u64]) -> Vec<u8> {
    let mut out = magic.to_vec();
    for &v in fields {
        varint(&mut out, v);
    }
    out
}

#[test]
fn huge_declared_counts_are_refused_before_allocating() {
    let m = sample_module();
    for n in [3, 1000, u64::from(u32::MAX), u64::MAX] {
        // Block count, edge count, path count, path length.
        let cases = [
            (build(EDGE_DELTA_MAGIC, &[0, 1, n, 0, 1]), true),
            (build(EDGE_DELTA_MAGIC, &[0, 1, 0, n, 0, 0, 1]), true),
            (build(PATH_DELTA_MAGIC, &[0, n, 0, 1, 0]), false),
            (build(PATH_DELTA_MAGIC, &[0, 1, 0, 1, n, 0]), false),
        ];
        for (bytes, edge) in cases {
            let err = if edge {
                decode_edge_delta(&m, &bytes).unwrap_err()
            } else {
                decode_path_delta(&m, &bytes).unwrap_err()
            };
            assert!(
                matches!(err, DeltaError::Count { declared, .. } if declared == n),
                "count {n}: {err:?}"
            );
        }
    }
}

#[test]
fn overflowing_varints_are_refused() {
    let m = sample_module();
    // Ten bytes whose last carries more than bit 63, and eleven bytes.
    let ten = [0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F];
    let eleven = [0x80u8; 10]
        .iter()
        .copied()
        .chain([0x01])
        .collect::<Vec<u8>>();
    for body in [&ten[..], &eleven[..]] {
        let mut e = EDGE_DELTA_MAGIC.to_vec();
        e.push(0);
        e.extend_from_slice(body);
        assert_eq!(
            decode_edge_delta(&m, &e).unwrap_err(),
            DeltaError::BadVarint { at: 5 }
        );
        let mut p = PATH_DELTA_MAGIC.to_vec();
        p.extend_from_slice(&[0, 1, 0]);
        p.extend_from_slice(body);
        assert_eq!(
            decode_path_delta(&m, &p).unwrap_err(),
            DeltaError::BadVarint { at: 7 }
        );
    }
    // u64::MAX itself is a valid ten-byte varint.
    let max = build(EDGE_DELTA_MAGIC, &[1, u64::MAX, 0, 0]);
    let d = decode_edge_delta(&m, &max).expect("u64::MAX entries");
    assert_eq!(d.func(FuncId(1)).entries(), u64::MAX);
}

#[test]
fn out_of_range_ids_are_typed() {
    let m = sample_module();
    let range = |r: Result<(), DeltaError>, what: &str| match r {
        Err(DeltaError::Range { what: w, .. }) => assert_eq!(w, what),
        other => panic!("expected {what} out of range, got {other:?}"),
    };
    let edge = |f: &[u64]| decode_edge_delta(&m, &build(EDGE_DELTA_MAGIC, f)).map(|_| ());
    let path = |f: &[u64]| decode_path_delta(&m, &build(PATH_DELTA_MAGIC, f)).map(|_| ());
    range(edge(&[2, 1, 0, 0]), "function");
    range(edge(&[u64::MAX, 1, 0, 0]), "function");
    range(edge(&[0, 1, 1, 4, 1, 0]), "block");
    range(edge(&[0, 1, 0, 1, 0, 2, 1]), "successor");
    // b3 returns: it has no successors at all.
    range(edge(&[0, 1, 0, 1, 3, 0, 1]), "successor");
    range(path(&[2, 1, 0, 1, 0]), "function");
    range(path(&[0, 1, 9, 1, 0]), "block");
    range(path(&[0, 1, 0, 1, 1, 2]), "successor");
    // The chain reaches the return block b3; a further step is out of range.
    range(path(&[0, 1, 0, 1, 3, 0, 0, 0]), "successor");
}
