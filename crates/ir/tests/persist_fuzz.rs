//! Seeded byte-damage fuzz over the v2 profile persist format.
//!
//! Contract: a loader handed arbitrary damaged bytes returns either a
//! clean parse or a typed [`ppp_ir::ProfileLoadError`] — it never
//! panics. The sweep covers every truncation point of both v2 artifacts
//! plus a seed-loop of multi-byte corruptions (including invalid UTF-8),
//! through both strictness levels (strict and salvage).

use ppp_ir::{
    read_edge_profile_v2, read_path_profile_v2, salvage_edge_profile, salvage_path_profile,
    write_edge_profile_v2, write_path_profile_v2, BlockId, EdgeRef, FuncId, FunctionBuilder,
    Module, ModuleEdgeProfile, ModulePathProfile, PathKey, Reg,
};

const SEEDS: u64 = 300;

/// SplitMix64, inlined because `ppp-ir` depends on nothing.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound.max(1)
    }
}

/// A diamond `main`, a single-block `leaf`, and a name with spaces.
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
    let mut l = FunctionBuilder::new("leaf helper", 0);
    l.ret(None);
    m.add_function(l.finish());
    m
}

fn sample_edges(m: &Module) -> ModuleEdgeProfile {
    let mut p = ModuleEdgeProfile::zeroed(m);
    let f0 = p.func_mut(FuncId(0));
    f0.set_entries(6);
    f0.set_block(BlockId(0), 6);
    f0.set_edge(EdgeRef::new(BlockId(0), 0), 4);
    f0.set_edge(EdgeRef::new(BlockId(0), 1), 2);
    f0.set_block(BlockId(1), 4);
    f0.set_edge(EdgeRef::new(BlockId(1), 0), 4);
    f0.set_block(BlockId(2), 2);
    f0.set_edge(EdgeRef::new(BlockId(2), 0), 2);
    f0.set_block(BlockId(3), 6);
    let f1 = p.func_mut(FuncId(1));
    f1.set_entries(3);
    f1.set_block(BlockId(0), 3);
    p
}

fn sample_paths(m: &Module) -> ModulePathProfile {
    let mut paths = ModulePathProfile::with_capacity(2);
    let f = m.function(FuncId(0));
    paths.func_mut(FuncId(0)).record(
        f,
        PathKey {
            start: BlockId(0),
            edges: vec![EdgeRef::new(BlockId(0), 0), EdgeRef::new(BlockId(1), 0)],
        },
        4,
    );
    paths.func_mut(FuncId(0)).record(
        f,
        PathKey {
            start: BlockId(0),
            edges: vec![EdgeRef::new(BlockId(0), 1), EdgeRef::new(BlockId(2), 0)],
        },
        2,
    );
    paths.func_mut(FuncId(1)).record(
        m.function(FuncId(1)),
        PathKey {
            start: BlockId(0),
            edges: vec![],
        },
        3,
    );
    paths
}

/// Feeds damaged bytes through every v2 loader; any return is fine,
/// any panic fails the test.
fn exercise_v2(m: &Module, edge_bytes: &[u8], path_bytes: &[u8]) {
    let _ = read_edge_profile_v2(m, edge_bytes);
    let _ = salvage_edge_profile(m, edge_bytes);
    let _ = read_path_profile_v2(m, path_bytes);
    let _ = salvage_path_profile(m, path_bytes);
    // Kind confusion: each artifact through the other kind's loaders.
    let _ = read_edge_profile_v2(m, path_bytes);
    let _ = salvage_path_profile(m, edge_bytes);
}

#[test]
fn every_truncation_point_parses_or_errors() {
    let m = sample_module();
    let edge = write_edge_profile_v2(&m, &sample_edges(&m)).into_bytes();
    let path = write_path_profile_v2(&m, &sample_paths(&m)).into_bytes();
    for cut in 0..=edge.len() {
        exercise_v2(&m, &edge[..cut], &path[..path.len().min(cut)]);
    }
    for cut in 0..=path.len() {
        exercise_v2(&m, &edge[..edge.len().min(cut)], &path[..cut]);
    }
}

#[test]
fn seeded_byte_flips_parse_or_error() {
    let m = sample_module();
    let edge = write_edge_profile_v2(&m, &sample_edges(&m)).into_bytes();
    let path = write_path_profile_v2(&m, &sample_paths(&m)).into_bytes();
    for seed in 0..SEEDS {
        let mut rng = Rng(seed);
        let mut e = edge.clone();
        let mut p = path.clone();
        // 1..=8 flips each, to arbitrary byte values (invalid UTF-8
        // included); occasionally also truncate after flipping.
        for _ in 0..=rng.below(8) {
            let at = rng.below(e.len() as u64) as usize;
            e[at] = rng.next() as u8;
            let at = rng.below(p.len() as u64) as usize;
            p[at] = rng.next() as u8;
        }
        if rng.below(4) == 0 {
            e.truncate(rng.below(e.len() as u64 + 1) as usize);
            p.truncate(rng.below(p.len() as u64 + 1) as usize);
        }
        exercise_v2(&m, &e, &p);
    }
}

#[test]
fn salvage_never_half_applies_a_section() {
    // Whatever the damage, a salvaged function either carries its exact
    // original counts or is fully quarantined (zeroed / pathless).
    let m = sample_module();
    let edges = sample_edges(&m);
    let bytes = write_edge_profile_v2(&m, &edges).into_bytes();
    for seed in 0..SEEDS {
        let mut rng = Rng(seed ^ 0xABCD);
        let mut b = bytes.clone();
        let at = rng.below(b.len() as u64) as usize;
        b[at] = rng.next() as u8;
        if let Ok(s) = salvage_edge_profile(&m, &b) {
            for (i, fp) in s.profile.funcs.iter().enumerate() {
                let quarantined = s.quarantined.contains(&FuncId::new(i));
                assert!(
                    if quarantined {
                        fp.is_zero()
                    } else {
                        *fp == *edges.func(FuncId::new(i))
                    },
                    "seed {seed}: function {i} half-applied"
                );
            }
        }
    }
}
