//! Sparse binary encoding of streamed profile deltas.
//!
//! A worker's delta covers the few functions that ran since its last
//! flush, so the wire carries non-zero entries only, as LEB128 varints
//! behind a 4-byte magic. Sequenced delta frames ([`crate::wire`])
//! hold exactly one such payload; the aggregator's WAL stores those
//! frames verbatim. Checkpoints and on-disk profiles stay persist_v2
//! ([`crate::write_edge_profile_v2`]).
//!
//! ```text
//! edge payload  := "PPDE" edge_func*
//! edge_func     := func entries nblocks (block count){nblocks}
//!                  nedges (block succ count){nedges}
//! path payload  := "PPDP" path_func*
//! path_func     := func npaths (start freq len succ{len}){npaths}
//! ```
//!
//! Every field is a varint. A path names its start block and the
//! successor index taken at each step; the blocks in between follow by
//! chaining through the CFG, so a decoded path always chains.
//!
//! The encoding is **canonical**: one profile has exactly one
//! encoding, and re-encoding a decoded payload gives back the same
//! bytes. The decoder therefore refuses what the encoder never writes:
//! functions, blocks, edges and paths out of strictly increasing order
//! (which also rules out duplicates), zero block and edge counts, empty
//! function records, and overlong varints. There are no checksums here:
//! the enclosing frame's CRC-32 covers the payload.
//!
//! Decoding never panics and never sizes an allocation from a declared
//! count before checking it against the bytes that remain.

use crate::ids::{BlockId, EdgeRef, FuncId};
use crate::module::Module;
use crate::path::{ModulePathProfile, PathKey};
use crate::profile::ModuleEdgeProfile;
use std::fmt;

/// Magic opening every binary edge delta.
pub const EDGE_DELTA_MAGIC: [u8; 4] = *b"PPDE";

/// Magic opening every binary path delta.
pub const PATH_DELTA_MAGIC: [u8; 4] = *b"PPDP";

/// Typed failures from decoding a binary delta. `at` is the byte
/// offset into the payload where the fault was found.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum DeltaError {
    /// The payload does not open with the expected magic (this is how
    /// a persist_v2 text payload is refused).
    BadMagic {
        /// The magic the decoder expected.
        expected: [u8; 4],
    },
    /// The payload ends inside a record.
    Truncated {
        /// Offset of the unfinished field.
        at: usize,
    },
    /// A varint overflows `u64`, runs past ten bytes, or is overlong
    /// (a non-minimal encoding).
    BadVarint {
        /// Offset of the varint's first byte.
        at: usize,
    },
    /// A declared count or path length exceeds what the remaining
    /// bytes could hold.
    Count {
        /// Offset of the count.
        at: usize,
        /// The declared value.
        declared: u64,
        /// Bytes left after the count.
        remaining: usize,
    },
    /// A function, block or successor id outside the module's shape.
    Range {
        /// Offset of the id.
        at: usize,
        /// Which id (`function`, `block`, `successor`).
        what: &'static str,
        /// The id read.
        value: u64,
    },
    /// A record the canonical encoder never writes: out of order,
    /// duplicated, a zero count, or an empty function record.
    NotCanonical {
        /// Offset of the offending field.
        at: usize,
        /// What is wrong.
        what: &'static str,
    },
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BadMagic { expected } => write!(
                f,
                "not a binary delta (expected magic {:?})",
                String::from_utf8_lossy(expected)
            ),
            DeltaError::Truncated { at } => write!(f, "delta truncated at byte {at}"),
            DeltaError::BadVarint { at } => write!(f, "bad varint at byte {at}"),
            DeltaError::Count {
                at,
                declared,
                remaining,
            } => write!(
                f,
                "count {declared} at byte {at} exceeds the {remaining} byte(s) left"
            ),
            DeltaError::Range { at, what, value } => {
                write!(f, "{what} {value} at byte {at} is out of range")
            }
            DeltaError::NotCanonical { at, what } => {
                write!(f, "non-canonical delta at byte {at}: {what}")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push((v as u8) | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Serializes the non-zero entries of an edge profile shaped like
/// `module`.
pub fn encode_edge_delta(module: &Module, profile: &ModuleEdgeProfile) -> Vec<u8> {
    let mut out = EDGE_DELTA_MAGIC.to_vec();
    let (mut blocks, mut edges) = (Vec::new(), Vec::new());
    for (i, f) in module.functions.iter().enumerate() {
        let p = profile.func(FuncId::new(i));
        blocks.clear();
        edges.clear();
        for (bid, b) in f.iter_blocks() {
            if p.block(bid) > 0 {
                blocks.push((bid.0, p.block(bid)));
            }
            for s in 0..b.term.successor_count() {
                let n = p.edge(EdgeRef::new(bid, s));
                if n > 0 {
                    edges.push((bid.0, s, n));
                }
            }
        }
        if p.entries() == 0 && blocks.is_empty() && edges.is_empty() {
            continue;
        }
        put(&mut out, i as u64);
        put(&mut out, p.entries());
        put(&mut out, blocks.len() as u64);
        for &(b, n) in &blocks {
            put(&mut out, u64::from(b));
            put(&mut out, n);
        }
        put(&mut out, edges.len() as u64);
        for &(b, s, n) in &edges {
            put(&mut out, u64::from(b));
            put(&mut out, s as u64);
            put(&mut out, n);
        }
    }
    out
}

/// Serializes every path of a path profile shaped like `module`,
/// zero-frequency paths included, in persist_v2's record order (start
/// block, then edge list).
///
/// Path edges must chain from the start block, as every path the VM
/// tracer records does: only successor indices are written.
pub fn encode_path_delta(module: &Module, profile: &ModulePathProfile) -> Vec<u8> {
    let mut out = PATH_DELTA_MAGIC.to_vec();
    for i in 0..module.functions.len() {
        let fp = profile.func(FuncId::new(i));
        if fp.paths.is_empty() {
            continue;
        }
        let mut entries: Vec<(&PathKey, u64)> = fp.paths.iter().map(|(k, s)| (k, s.freq)).collect();
        entries.sort_unstable_by(|a, b| a.0.start.cmp(&b.0.start).then(a.0.edges.cmp(&b.0.edges)));
        put(&mut out, i as u64);
        put(&mut out, entries.len() as u64);
        for (key, freq) in entries {
            put(&mut out, u64::from(key.start.0));
            put(&mut out, freq);
            put(&mut out, key.edges.len() as u64);
            for e in &key.edges {
                put(&mut out, u64::from(e.succ));
            }
        }
    }
    out
}

/// A bounds-checked varint reader over one payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn open(bytes: &'a [u8], magic: [u8; 4]) -> Result<Self, DeltaError> {
        if !bytes.starts_with(&magic) {
            return Err(DeltaError::BadMagic { expected: magic });
        }
        Ok(Self { bytes, pos: 4 })
    }

    fn done(&self) -> bool {
        self.pos == self.bytes.len()
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Reads one minimal LEB128 `u64`.
    fn varint(&mut self) -> Result<u64, DeltaError> {
        let at = self.pos;
        let mut v = 0u64;
        for i in 0..10 {
            let Some(&b) = self.bytes.get(self.pos) else {
                return Err(DeltaError::Truncated { at });
            };
            self.pos += 1;
            let low = u64::from(b & 0x7F);
            // The tenth byte carries only bit 63.
            if i == 9 && b > 1 {
                return Err(DeltaError::BadVarint { at });
            }
            v |= low << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(DeltaError::BadVarint { at });
                }
                return Ok(v);
            }
        }
        Err(DeltaError::BadVarint { at })
    }

    /// Reads an id and checks it against `bound`.
    fn id(&mut self, what: &'static str, bound: usize) -> Result<usize, DeltaError> {
        let at = self.pos;
        let v = self.varint()?;
        match usize::try_from(v) {
            Ok(i) if i < bound => Ok(i),
            _ => Err(DeltaError::Range { at, what, value: v }),
        }
    }

    /// Reads a count of records that each take at least `min_bytes`,
    /// refusing counts the remaining bytes cannot hold.
    fn count(&mut self, min_bytes: usize) -> Result<usize, DeltaError> {
        let at = self.pos;
        let declared = self.varint()?;
        let remaining = self.remaining();
        match usize::try_from(declared) {
            Ok(n) if n.checked_mul(min_bytes).is_some_and(|b| b <= remaining) => Ok(n),
            _ => Err(DeltaError::Count {
                at,
                declared,
                remaining,
            }),
        }
    }

    /// Reads a count that must be non-zero.
    fn nonzero(&mut self, what: &'static str) -> Result<u64, DeltaError> {
        let at = self.pos;
        match self.varint()? {
            0 => Err(DeltaError::NotCanonical { at, what }),
            n => Ok(n),
        }
    }

    /// Reads a function id strictly above `prev`.
    fn func(&mut self, module: &Module, prev: Option<usize>) -> Result<usize, DeltaError> {
        let at = self.pos;
        let fid = self.id("function", module.functions.len())?;
        if prev.is_some_and(|p| fid <= p) {
            return Err(DeltaError::NotCanonical {
                at,
                what: "function records out of order",
            });
        }
        Ok(fid)
    }
}

/// Decodes a binary edge delta into a profile shaped like `module`.
///
/// # Errors
///
/// Any payload the canonical encoder would not write for `module` is
/// a typed [`DeltaError`]; this function never panics.
pub fn decode_edge_delta(module: &Module, bytes: &[u8]) -> Result<ModuleEdgeProfile, DeltaError> {
    let mut r = Reader::open(bytes, EDGE_DELTA_MAGIC)?;
    let mut profile = ModuleEdgeProfile::zeroed(module);
    let mut prev = None;
    while !r.done() {
        let record = r.pos;
        let fid = r.func(module, prev)?;
        prev = Some(fid);
        let f = &module.functions[fid];
        let p = &mut profile.funcs[fid];
        p.set_entries(r.varint()?);
        let nblocks = r.count(2)?;
        let mut last = None;
        for _ in 0..nblocks {
            let at = r.pos;
            let b = r.id("block", f.blocks.len())?;
            if last.is_some_and(|l| b <= l) {
                return Err(DeltaError::NotCanonical {
                    at,
                    what: "block records out of order",
                });
            }
            last = Some(b);
            p.set_block(BlockId::new(b), r.nonzero("zero block count")?);
        }
        let nedges = r.count(3)?;
        let mut last = None;
        for _ in 0..nedges {
            let at = r.pos;
            let b = r.id("block", f.blocks.len())?;
            let s = r.id("successor", f.blocks[b].term.successor_count())?;
            if last.is_some_and(|l| (b, s) <= l) {
                return Err(DeltaError::NotCanonical {
                    at,
                    what: "edge records out of order",
                });
            }
            last = Some((b, s));
            p.set_edge(
                EdgeRef::new(BlockId::new(b), s),
                r.nonzero("zero edge count")?,
            );
        }
        if p.entries() == 0 && nblocks == 0 && nedges == 0 {
            return Err(DeltaError::NotCanonical {
                at: record,
                what: "empty function record",
            });
        }
    }
    Ok(profile)
}

/// Decodes a binary path delta into a profile shaped like `module`.
///
/// # Errors
///
/// See [`decode_edge_delta`]; identical policy.
pub fn decode_path_delta(module: &Module, bytes: &[u8]) -> Result<ModulePathProfile, DeltaError> {
    let mut r = Reader::open(bytes, PATH_DELTA_MAGIC)?;
    let mut profile = ModulePathProfile::with_capacity(module.functions.len());
    let mut prev = None;
    while !r.done() {
        let fid = r.func(module, prev)?;
        prev = Some(fid);
        let f = &module.functions[fid];
        let at = r.pos;
        let npaths = r.count(3)?;
        if npaths == 0 {
            return Err(DeltaError::NotCanonical {
                at,
                what: "empty function record",
            });
        }
        // The previous path, kept in one reused buffer.
        let mut last: Option<BlockId> = None;
        let mut last_edges: Vec<EdgeRef> = Vec::new();
        for _ in 0..npaths {
            let at = r.pos;
            let start = BlockId::new(r.id("block", f.blocks.len())?);
            let freq = r.varint()?;
            let len = r.count(1)?;
            let mut edges = Vec::with_capacity(len);
            let mut cur = start;
            for _ in 0..len {
                let term = &f.block(cur).term;
                let s = r.id("successor", term.successor_count())?;
                edges.push(EdgeRef::new(cur, s));
                // In range by the check just above.
                cur = term.successor(s).unwrap_or(cur);
            }
            if last.is_some_and(|l| (l, &last_edges[..]) >= (start, &edges[..])) {
                return Err(DeltaError::NotCanonical {
                    at,
                    what: "path records out of order",
                });
            }
            last = Some(start);
            last_edges.clear();
            last_edges.extend_from_slice(&edges);
            profile.funcs[fid].record(f, PathKey { start, edges }, freq);
        }
    }
    Ok(profile)
}
