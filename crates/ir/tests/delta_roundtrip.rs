//! Differential test of the binary delta codec against persist_v2.
//!
//! For every delta a traced run cuts — all 18 suite entries, two
//! seeds — `decode(encode(d))` must equal `read_*_v2(write_*_v2(d))`,
//! and re-encoding the decoded profile must give back the same bytes
//! (the encoding is canonical). Hand-built payloads then pin the edge
//! cases and the records the canonical decoder refuses.

use ppp_ir::{
    decode_edge_delta, decode_path_delta, encode_edge_delta, encode_path_delta,
    read_edge_profile_v2, read_path_profile_v2, write_edge_profile_v2, write_path_profile_v2,
    BlockId, DeltaError, EdgeRef, FuncId, FunctionBuilder, Module, ModuleEdgeProfile,
    ModulePathProfile, PathKey, Reg, EDGE_DELTA_MAGIC, PATH_DELTA_MAGIC,
};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};

const SCALE: f64 = 0.02;
const DELTA_INTERVAL: u64 = 1024;

fn assert_edges_agree(m: &Module, d: &ModuleEdgeProfile, what: &str) {
    let bytes = encode_edge_delta(m, d);
    let binary = decode_edge_delta(m, &bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    let text = read_edge_profile_v2(m, write_edge_profile_v2(m, d).as_bytes())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(binary, text, "{what}: edge codecs disagree");
    assert_eq!(binary, *d, "{what}: edge delta changed");
    assert_eq!(
        encode_edge_delta(m, &binary),
        bytes,
        "{what}: not canonical"
    );
}

fn assert_paths_agree(m: &Module, d: &ModulePathProfile, what: &str) {
    let bytes = encode_path_delta(m, d);
    let binary = decode_path_delta(m, &bytes).unwrap_or_else(|e| panic!("{what}: {e}"));
    let text = read_path_profile_v2(m, write_path_profile_v2(m, d).as_bytes())
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    assert_eq!(binary, text, "{what}: path codecs disagree");
    assert_eq!(binary, *d, "{what}: path delta changed");
    assert_eq!(
        encode_path_delta(m, &binary),
        bytes,
        "{what}: not canonical"
    );
}

#[test]
fn every_recorded_delta_matches_persist_v2() {
    let mut deltas = 0usize;
    for entry in spec2000_suite() {
        let name = &entry.spec.name;
        let module = generate(&entry.spec.clone().scaled(SCALE));
        for seed in [701u64, 702] {
            let options = RunOptions::default()
                .traced()
                .with_seed(seed)
                .with_delta_interval(DELTA_INTERVAL);
            let r = run(&module, "main", &options).expect("benchmark runs");
            assert!(!r.deltas.is_empty(), "{name}: no deltas cut");
            for (k, d) in r.deltas.iter().enumerate() {
                let what = format!("{name} seed {seed} delta {k}");
                assert_edges_agree(&module, &d.edges, &what);
                assert_paths_agree(&module, &d.paths, &what);
            }
            deltas += r.deltas.len();
        }
    }
    assert!(deltas > 100, "only {deltas} deltas recorded");
}

/// A diamond `f0`, a single-block `f1`, an untouched diamond `f2`.
fn sample_module() -> Module {
    let mut m = Module::new();
    for name in ["f0", "f1", "f2"] {
        let mut b = FunctionBuilder::new(name, 1);
        if name != "f1" {
            let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
            b.branch(Reg(0), t, e);
            b.switch_to(t);
            b.jump(j);
            b.switch_to(e);
            b.jump(j);
            b.switch_to(j);
        }
        b.ret(None);
        m.add_function(b.finish());
    }
    m
}

#[test]
fn edge_cases_roundtrip() {
    let m = sample_module();

    // Empty profiles: the magic alone.
    let edges = ModuleEdgeProfile::zeroed(&m);
    let paths = ModulePathProfile::with_capacity(3);
    assert_eq!(encode_edge_delta(&m, &edges), EDGE_DELTA_MAGIC);
    assert_eq!(encode_path_delta(&m, &paths), PATH_DELTA_MAGIC);
    assert_edges_agree(&m, &edges, "empty edges");
    assert_paths_agree(&m, &paths, "empty paths");
    assert_edges_agree(
        &Module::new(),
        &ModuleEdgeProfile::zeroed(&Module::new()),
        "no functions",
    );

    // Saturated counters, an entries-only function, an empty function.
    let mut edges = ModuleEdgeProfile::zeroed(&m);
    let f0 = edges.func_mut(FuncId(0));
    f0.set_entries(u64::MAX);
    f0.set_block(BlockId(0), u64::MAX);
    f0.set_edge(EdgeRef::new(BlockId(0), 1), u64::MAX);
    f0.set_edge(EdgeRef::new(BlockId(2), 0), 1);
    edges.func_mut(FuncId(1)).set_entries(7);
    assert_edges_agree(&m, &edges, "saturated edges");

    // Zero-frequency paths, saturated paths, a single-block path with
    // no edges, and a function with no paths.
    let mut paths = ModulePathProfile::with_capacity(3);
    let f = m.function(FuncId(0));
    for (succ, freq) in [(0, 0), (1, u64::MAX)] {
        let mid = BlockId(1 + succ as u32);
        paths.func_mut(FuncId(0)).record(
            f,
            PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), succ), EdgeRef::new(mid, 0)],
            },
            freq,
        );
    }
    paths.func_mut(FuncId(0)).record(
        f,
        PathKey {
            start: BlockId(3),
            edges: vec![],
        },
        0,
    );
    paths.func_mut(FuncId(1)).record(
        m.function(FuncId(1)),
        PathKey {
            start: BlockId(0),
            edges: vec![],
        },
        5,
    );
    assert_paths_agree(&m, &paths, "edge-case paths");
}

/// Builds a payload from varint fields.
fn payload(magic: [u8; 4], fields: &[u64]) -> Vec<u8> {
    let mut out = magic.to_vec();
    for &v in fields {
        let mut v = v;
        while v >= 0x80 {
            out.push((v as u8) | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }
    out
}

fn not_canonical<T: std::fmt::Debug>(r: Result<T, DeltaError>, what: &str) {
    match r {
        Err(DeltaError::NotCanonical { .. }) => {}
        other => panic!("{what}: expected a non-canonical refusal, got {other:?}"),
    }
}

#[test]
fn edge_records_the_encoder_never_writes_are_refused() {
    let m = sample_module();
    // Baseline: f0 with entries 1, block b0=1, edge b0#0=1.
    let ok = payload(EDGE_DELTA_MAGIC, &[0, 1, 1, 0, 1, 1, 0, 0, 1]);
    assert!(decode_edge_delta(&m, &ok).is_ok());
    let cases: [(&str, &[u64]); 8] = [
        ("functions out of order", &[1, 1, 0, 0, 0, 1, 0, 0]),
        ("duplicate function", &[0, 1, 0, 0, 0, 1, 0, 0]),
        ("blocks out of order", &[0, 1, 2, 3, 1, 0, 1, 0]),
        ("duplicate block", &[0, 1, 2, 0, 1, 0, 1, 0]),
        ("zero block count", &[0, 1, 1, 0, 0, 0]),
        ("edges out of order", &[0, 1, 0, 2, 0, 1, 1, 0, 0, 1]),
        ("duplicate edge", &[0, 1, 0, 2, 0, 1, 1, 0, 1, 1]),
        ("zero edge count", &[0, 1, 0, 1, 0, 0, 0]),
    ];
    for (what, fields) in cases {
        not_canonical(
            decode_edge_delta(&m, &payload(EDGE_DELTA_MAGIC, fields)),
            what,
        );
    }
    not_canonical(
        decode_edge_delta(&m, &payload(EDGE_DELTA_MAGIC, &[2, 0, 0, 0])),
        "empty function record",
    );
    // An overlong varint (0 written as two bytes) is refused too.
    let mut overlong = EDGE_DELTA_MAGIC.to_vec();
    overlong.extend_from_slice(&[0x80, 0x00, 1, 0, 0]);
    assert_eq!(
        decode_edge_delta(&m, &overlong).unwrap_err(),
        DeltaError::BadVarint { at: 4 }
    );
}

#[test]
fn path_records_the_encoder_never_writes_are_refused() {
    let m = sample_module();
    // f0: path b0 via succ 0 then b1's succ 0, freq 3.
    let one = [0u64, 3, 2, 0, 0];
    let ok = payload(PATH_DELTA_MAGIC, &[&[0, 1][..], &one].concat());
    assert!(decode_path_delta(&m, &ok).is_ok());
    let dup = payload(PATH_DELTA_MAGIC, &[&[0, 2][..], &one, &one].concat());
    not_canonical(decode_path_delta(&m, &dup), "duplicate path");
    let swapped = [&[0, 2][..], &[0, 1, 2, 1, 0], &one].concat();
    not_canonical(
        decode_path_delta(&m, &payload(PATH_DELTA_MAGIC, &swapped)),
        "paths out of order",
    );
    // A path that is a prefix of the previous one sorts first.
    let prefix = [&[0, 2][..], &one, &[0, 1, 1, 0]].concat();
    not_canonical(
        decode_path_delta(&m, &payload(PATH_DELTA_MAGIC, &prefix)),
        "prefix after its extension",
    );
    not_canonical(
        decode_path_delta(&m, &payload(PATH_DELTA_MAGIC, &[0, 0])),
        "empty function record",
    );
    let back = [&[1, 1][..], &[0, 1, 0], &[0, 1][..], &one].concat();
    not_canonical(
        decode_path_delta(&m, &payload(PATH_DELTA_MAGIC, &back)),
        "functions out of order",
    );
    // persist_v2 text is not a binary delta.
    let text = write_path_profile_v2(&m, &ModulePathProfile::with_capacity(3));
    assert_eq!(
        decode_path_delta(&m, text.as_bytes()).unwrap_err(),
        DeltaError::BadMagic {
            expected: PATH_DELTA_MAGIC
        }
    );
    // The other delta kind is refused by its magic.
    assert!(matches!(
        decode_edge_delta(&m, &ok),
        Err(DeltaError::BadMagic { .. })
    ));
}
