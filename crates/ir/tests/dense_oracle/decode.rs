//! The dense binary-delta decoders as they stood before the sparse
//! record decoders replaced them, kept as the test oracle. Below the
//! imports the code is verbatim. Also compiled into the `wire`
//! micro-bench through `#[path]`.

// The `wire` bench includes this file without using every item.
#![allow(dead_code)]

use ppp_ir::{
    BlockId, DeltaError, EdgeRef, Module, ModuleEdgeProfile, ModulePathProfile, PathKey,
    EDGE_DELTA_MAGIC, PATH_DELTA_MAGIC,
};

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
