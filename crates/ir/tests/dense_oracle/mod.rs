//! Differential harness for the sparse delta decoders.
//!
//! [`edges`] and [`paths`] decode a payload the way a test wants it —
//! as a module-shaped profile — but first run both the dense oracle
//! ([`decode`]) and the sparse record decoders, split into every part
//! count in [`PARTS`], and assert they agree: the same `Ok`/`Err`, the
//! same [`DeltaError`], and, added into an empty profile, the same
//! profile. Every call site in a test is therefore a differential check.

mod decode;

use ppp_ir::{
    decode_edge_records, decode_path_records, DeltaError, Module, ModuleEdgeProfile,
    ModulePathProfile,
};

/// Part counts every payload is split into (1 = one shard, 8 = more
/// parts than the sample modules have functions).
pub const PARTS: [usize; 4] = [1, 2, 3, 8];

/// Decodes an edge delta, asserting the sparse decoder agrees with the
/// oracle at every part count.
pub fn edges(m: &Module, bytes: &[u8]) -> Result<ModuleEdgeProfile, DeltaError> {
    let oracle = decode::decode_edge_delta(m, bytes);
    for parts in PARTS {
        let sparse = decode_edge_records(m, bytes, parts).map(|records| {
            assert_eq!(records.len(), parts);
            let mut p = ModuleEdgeProfile::zeroed(m);
            records.iter().for_each(|r| r.add_to(&mut p));
            p
        });
        assert_eq!(sparse, oracle, "edge delta, {parts} part(s)");
    }
    oracle
}

/// Decodes a path delta, asserting the sparse decoder agrees with the
/// oracle at every part count.
pub fn paths(m: &Module, bytes: &[u8]) -> Result<ModulePathProfile, DeltaError> {
    let oracle = decode::decode_path_delta(m, bytes);
    for parts in PARTS {
        let sparse = decode_path_records(m, bytes, parts).map(|records| {
            assert_eq!(records.len(), parts);
            let mut p = ModulePathProfile::with_capacity(m.functions.len());
            records.into_iter().for_each(|r| r.add_to(&mut p));
            p
        });
        assert_eq!(sparse, oracle, "path delta, {parts} part(s)");
    }
    oracle
}
