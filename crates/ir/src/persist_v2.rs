//! Profile persistence: the versioned, checksummed v2 container.
//!
//! Staged optimizers collect a profile in one run and consume it in a
//! later compile (§1). A bare line format would let a flipped byte
//! silently become a different count and a truncated file parse as a
//! smaller profile, and path profiles *feed* optimization decisions, so
//! v2 wraps a line-oriented record grammar in an integrity-protected
//! container:
//!
//! ```text
//! ppp-profile v2 edge funcs 2
//! func 0 len 34 crc 9a0b1c2d name main
//! entries 120
//! block b0 120
//! edge b0 0 120
//! func 1 len 10 crc 00112233 name helper
//! entries 4
//! end
//! ```
//!
//! - a **magic + version + kind** header line;
//! - one **length-prefixed section per function** carrying the function's
//!   records, its name, and a CRC-32 of the payload bytes;
//! - an **`end` trailer** so silent tail truncation is detectable.
//!
//! Three loader strictness levels correspond to the degradation ladder's
//! rungs:
//!
//! 1. [`read_edge_profile_v2`] / [`read_path_profile_v2`] — strict: any
//!    fault is a typed [`ProfileLoadError`].
//! 2. [`salvage_edge_profile`] / [`salvage_path_profile`] — per-section
//!    salvage: a corrupted section quarantines *that function only*
//!    (left zeroed / pathless); everything else loads normally.
//! 3. [`read_edge_profile_stale`] / [`read_path_profile_stale`] — stale
//!    shape tolerance: sections are matched to functions **by name**
//!    (indices are allowed to have shifted), records that still fit the
//!    current CFG shape are kept, and the rest are dropped and counted
//!    (Meta's Stale Profile Matching shows salvaging beats discarding).
//!
//! All loaders take raw bytes and never panic: corrupt input — including
//! invalid UTF-8 from byte-level damage — yields a typed error or a
//! recorded per-section fault.

use crate::function::Function;
use crate::ids::{BlockId, EdgeRef, FuncId};
use crate::module::Module;
use crate::path::{FuncPathProfile, ModulePathProfile, PathKey};
use crate::profile::{FuncEdgeProfile, ModuleEdgeProfile};
use std::fmt;
use std::fmt::Write as _;

/// Magic token opening every v2 profile artifact.
pub const PROFILE_MAGIC: &str = "ppp-profile";

/// A record inside a profile section that failed to parse or referenced
/// a block or successor outside the function's shape.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ProfileParseError {
    /// 1-based line number within the section payload.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ProfileParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ProfileParseError {}

/// Typed errors from loading a persisted v2 profile.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProfileLoadError {
    /// The artifact does not start with `ppp-profile`.
    BadMagic,
    /// The artifact's version token is not `v2`.
    UnsupportedVersion {
        /// The version token found.
        found: String,
    },
    /// The artifact holds the other profile kind (edge vs. path).
    WrongKind {
        /// The kind the loader expected.
        expected: &'static str,
        /// The kind the header declares.
        found: String,
    },
    /// The container header or a section header is malformed.
    MalformedHeader {
        /// 1-based line number.
        line: usize,
        /// Description.
        message: String,
    },
    /// The artifact ends before a declared section payload (or the `end`
    /// trailer): the file was truncated.
    Truncated {
        /// Section (function) index being read, when known.
        func: Option<usize>,
        /// Bytes the section header promised.
        expected: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// A section's payload does not hash to its recorded CRC-32.
    ChecksumMismatch {
        /// Section (function) index.
        func: usize,
        /// Function name recorded in the section header.
        name: String,
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes actually present.
        actual: u32,
    },
    /// A section payload is not valid UTF-8 (byte-level damage).
    NotUtf8 {
        /// Section (function) index, when the damage is inside a section.
        func: Option<usize>,
    },
    /// A record inside a section failed to parse or referenced a block or
    /// successor outside the function's shape.
    Record {
        /// Section (function) index.
        func: usize,
        /// Function name.
        name: String,
        /// The underlying parse failure.
        error: ProfileParseError,
    },
    /// The artifact's section count does not match the module.
    FunctionCount {
        /// Functions in the module.
        expected: usize,
        /// Sections in the artifact.
        found: usize,
    },
    /// A section's recorded name differs from the module's function name
    /// at that index (strict loading only; the stale loader matches by
    /// name instead).
    NameMismatch {
        /// Section (function) index.
        func: usize,
        /// Name the module has.
        expected: String,
        /// Name the artifact recorded.
        found: String,
    },
}

impl fmt::Display for ProfileLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProfileLoadError::BadMagic => write!(f, "not a ppp-profile artifact (bad magic)"),
            ProfileLoadError::UnsupportedVersion { found } => {
                write!(f, "unsupported profile version {found:?} (expected v2)")
            }
            ProfileLoadError::WrongKind { expected, found } => {
                write!(f, "expected a {expected} profile but found kind {found:?}")
            }
            ProfileLoadError::MalformedHeader { line, message } => {
                write!(f, "line {line}: malformed header: {message}")
            }
            ProfileLoadError::Truncated {
                func,
                expected,
                available,
            } => match func {
                Some(i) => write!(
                    f,
                    "truncated artifact: function {i} section promises {expected} bytes, \
                     {available} remain"
                ),
                None => write!(
                    f,
                    "truncated artifact: {expected} bytes expected, {available} remain"
                ),
            },
            ProfileLoadError::ChecksumMismatch {
                func,
                name,
                expected,
                actual,
            } => write!(
                f,
                "function {i} ({name:?}): checksum mismatch (recorded {expected:08x}, \
                 computed {actual:08x})",
                i = func
            ),
            ProfileLoadError::NotUtf8 { func } => match func {
                Some(i) => write!(f, "function {i} section is not valid UTF-8"),
                None => write!(f, "artifact is not valid UTF-8"),
            },
            ProfileLoadError::Record { func, name, error } => {
                write!(f, "function {func} ({name:?}): {error}")
            }
            ProfileLoadError::FunctionCount { expected, found } => write!(
                f,
                "artifact has {found} function section(s) but the module has {expected}"
            ),
            ProfileLoadError::NameMismatch {
                func,
                expected,
                found,
            } => write!(
                f,
                "function {func} is named {expected:?} in the module but {found:?} in the artifact"
            ),
        }
    }
}

impl std::error::Error for ProfileLoadError {}

/// One quarantined section from a salvage load.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SectionFault {
    /// Section (function) index in the artifact.
    pub func: usize,
    /// Function name from the section header (empty when unreadable).
    pub name: String,
    /// What went wrong.
    pub error: ProfileLoadError,
}

impl fmt::Display for SectionFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.error)
    }
}

/// Result of a salvage load: the intact portions of the profile plus the
/// per-section faults that were quarantined instead of trusted.
#[derive(Clone, Debug)]
pub struct Salvaged<T> {
    /// The loaded profile; quarantined functions are zeroed (edge) or
    /// pathless (path).
    pub profile: T,
    /// Function indices (into the *module*) whose sections were
    /// quarantined.
    pub quarantined: Vec<FuncId>,
    /// What was wrong with each quarantined section.
    pub faults: Vec<SectionFault>,
}

impl<T> Salvaged<T> {
    /// `true` when nothing was quarantined: the artifact loaded clean.
    pub fn is_clean(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Outcome of a stale-shape load: what aligned, what was dropped.
#[derive(Clone, Debug, Default)]
pub struct StaleReport {
    /// Sections matched to a module function by name.
    pub matched_funcs: usize,
    /// Matched sections whose index had shifted (renumbered functions).
    pub renumbered_funcs: usize,
    /// Section names with no function in the module.
    pub unmatched_sections: Vec<String>,
    /// Module functions with no section in the artifact.
    pub unprofiled_funcs: Vec<String>,
    /// Record lines (edge) or whole paths (path) dropped because they no
    /// longer fit the matched function's CFG shape.
    pub dropped_records: u64,
    /// Sections skipped for integrity faults (CRC, truncation, UTF-8).
    pub faults: Vec<SectionFault>,
}

impl StaleReport {
    /// `true` when every section matched at its original index with no
    /// drops: the artifact is not stale at all.
    pub fn is_exact(&self) -> bool {
        self.renumbered_funcs == 0
            && self.unmatched_sections.is_empty()
            && self.unprofiled_funcs.is_empty()
            && self.dropped_records == 0
            && self.faults.is_empty()
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Writers
// ---------------------------------------------------------------------------

fn write_container(module: &Module, kind: &str, payload_of: impl Fn(usize) -> String) -> String {
    let mut out = format!(
        "{PROFILE_MAGIC} v2 {kind} funcs {}\n",
        module.functions.len()
    );
    for (i, f) in module.functions.iter().enumerate() {
        let payload = payload_of(i);
        let _ = writeln!(
            out,
            "func {i} len {} crc {:08x} name {}",
            payload.len(),
            crc32(payload.as_bytes()),
            f.name
        );
        out.push_str(&payload);
    }
    out.push_str("end\n");
    out
}

/// Serializes an edge profile into the checksummed v2 container.
pub fn write_edge_profile_v2(module: &Module, profile: &ModuleEdgeProfile) -> String {
    write_container(module, "edge", |i| {
        let f = &module.functions[i];
        let p = profile.func(FuncId::new(i));
        let mut s = String::new();
        let _ = writeln!(s, "entries {}", p.entries());
        for (bid, b) in f.iter_blocks() {
            if p.block(bid) > 0 {
                let _ = writeln!(s, "block {bid} {}", p.block(bid));
            }
            for succ in 0..b.term.successor_count() {
                let e = EdgeRef::new(bid, succ);
                if p.edge(e) > 0 {
                    let _ = writeln!(s, "edge {bid} {succ} {}", p.edge(e));
                }
            }
        }
        s
    })
}

/// Serializes a path profile into the checksummed v2 container.
pub fn write_path_profile_v2(module: &Module, profile: &ModulePathProfile) -> String {
    write_container(module, "path", |i| {
        let fp = profile.func(FuncId::new(i));
        // Deterministic record order: start block, then edge list.
        let mut entries: Vec<(&PathKey, u64)> = fp.paths.iter().map(|(k, s)| (k, s.freq)).collect();
        entries.sort_by(|a, b| a.0.start.cmp(&b.0.start).then(a.0.edges.cmp(&b.0.edges)));
        let mut s = String::new();
        for (key, freq) in entries {
            let _ = write!(s, "path {} {freq} :", key.start);
            for e in &key.edges {
                let _ = write!(s, " {e}");
            }
            s.push('\n');
        }
        s
    })
}

// ---------------------------------------------------------------------------
// Container walking
// ---------------------------------------------------------------------------

/// One raw section of a v2 container.
struct RawSection<'a> {
    /// Index recorded in the section header.
    index: usize,
    /// Name recorded in the section header.
    name: String,
    /// Raw payload bytes (UTF-8 not yet verified).
    payload: &'a [u8],
    /// Recorded CRC-32.
    crc: u32,
    /// 1-based line number of the section header (for diagnostics).
    line: usize,
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            line: 0,
        }
    }

    /// Next `\n`-terminated line (without the newline); `None` at EOF.
    fn next_line(&mut self) -> Option<&'a [u8]> {
        if self.pos >= self.bytes.len() {
            return None;
        }
        self.line += 1;
        let rest = &self.bytes[self.pos..];
        match rest.iter().position(|&b| b == b'\n') {
            Some(n) => {
                self.pos += n + 1;
                Some(&rest[..n])
            }
            None => {
                self.pos = self.bytes.len();
                Some(rest)
            }
        }
    }

    /// Takes exactly `n` raw bytes, or `None` if fewer remain.
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.pos..];
        if rest.len() < n {
            return None;
        }
        self.pos += n;
        self.line += rest[..n].iter().filter(|&&b| b == b'\n').count();
        Some(&rest[..n])
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }
}

fn header_err(line: usize, message: &str) -> ProfileLoadError {
    ProfileLoadError::MalformedHeader {
        line,
        message: message.to_owned(),
    }
}

/// Parses the container header line; returns the declared section count.
fn parse_header(
    cursor: &mut Cursor<'_>,
    expected_kind: &'static str,
) -> Result<usize, ProfileLoadError> {
    let line = cursor.next_line().ok_or(ProfileLoadError::BadMagic)?;
    let line = std::str::from_utf8(line).map_err(|_| ProfileLoadError::BadMagic)?;
    let mut w = line.split_whitespace();
    if w.next() != Some(PROFILE_MAGIC) {
        return Err(ProfileLoadError::BadMagic);
    }
    match w.next() {
        Some("v2") => {}
        found => {
            return Err(ProfileLoadError::UnsupportedVersion {
                found: found.unwrap_or("").to_owned(),
            })
        }
    }
    match w.next() {
        Some(k) if k == expected_kind => {}
        found => {
            return Err(ProfileLoadError::WrongKind {
                expected: expected_kind,
                found: found.unwrap_or("").to_owned(),
            })
        }
    }
    if w.next() != Some("funcs") {
        return Err(header_err(cursor.line, "expected 'funcs <n>'"));
    }
    w.next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| header_err(cursor.line, "bad function count"))
}

/// Parses a `func <i> len <n> crc <hex> name <name>` section header.
fn parse_section_header(
    line: &str,
    ln: usize,
) -> Result<(usize, usize, u32, String), ProfileLoadError> {
    let mut w = line.split_whitespace();
    if w.next() != Some("func") {
        return Err(header_err(ln, "expected 'func' section header or 'end'"));
    }
    let index: usize = w
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| header_err(ln, "bad section index"))?;
    if w.next() != Some("len") {
        return Err(header_err(ln, "expected 'len'"));
    }
    let len: usize = w
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| header_err(ln, "bad section length"))?;
    if w.next() != Some("crc") {
        return Err(header_err(ln, "expected 'crc'"));
    }
    let crc = w
        .next()
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| header_err(ln, "bad section crc"))?;
    if w.next() != Some("name") {
        return Err(header_err(ln, "expected 'name'"));
    }
    let name = match line.split_once(" name ") {
        Some((_, n)) => n.to_owned(),
        None => return Err(header_err(ln, "expected 'name'")),
    };
    Ok((index, len, crc, name))
}

/// Walks every section of a v2 container. Container-level damage (bad
/// magic / unreadable header) is a hard error; the caller decides what to
/// do with per-section outcomes.
fn walk_sections<'a>(
    bytes: &'a [u8],
    expected_kind: &'static str,
) -> Result<(usize, Vec<Result<RawSection<'a>, SectionFault>>), ProfileLoadError> {
    let mut cursor = Cursor::new(bytes);
    let declared = parse_header(&mut cursor, expected_kind)?;
    let mut sections = Vec::new();
    let mut next_index = 0usize;
    loop {
        let ln = cursor.line + 1;
        let Some(raw_line) = cursor.next_line() else {
            // Missing `end` trailer: the tail of the artifact is gone.
            sections.push(Err(SectionFault {
                func: next_index,
                name: String::new(),
                error: ProfileLoadError::Truncated {
                    func: None,
                    expected: 4, // the `end\n` trailer
                    available: 0,
                },
            }));
            break;
        };
        let Ok(line) = std::str::from_utf8(raw_line) else {
            sections.push(Err(SectionFault {
                func: next_index,
                name: String::new(),
                error: ProfileLoadError::NotUtf8 { func: None },
            }));
            break;
        };
        if line.trim() == "end" {
            break;
        }
        match parse_section_header(line, ln) {
            Ok((index, len, crc, name)) => {
                let available = cursor.remaining();
                match cursor.take(len) {
                    Some(payload) => {
                        next_index = index + 1;
                        sections.push(Ok(RawSection {
                            index,
                            name,
                            payload,
                            crc,
                            line: ln,
                        }));
                    }
                    None => {
                        sections.push(Err(SectionFault {
                            func: index,
                            name,
                            error: ProfileLoadError::Truncated {
                                func: Some(index),
                                expected: len,
                                available,
                            },
                        }));
                        break;
                    }
                }
            }
            Err(error) => {
                // Without a trustworthy length prefix there is no way to
                // find the next section boundary; everything from here on
                // is unrecoverable.
                sections.push(Err(SectionFault {
                    func: next_index,
                    name: String::new(),
                    error,
                }));
                break;
            }
        }
    }
    Ok((declared, sections))
}

/// Verifies a raw section's integrity and returns its payload text.
fn section_text<'a>(s: &RawSection<'a>) -> Result<&'a str, ProfileLoadError> {
    let actual = crc32(s.payload);
    if actual != s.crc {
        return Err(ProfileLoadError::ChecksumMismatch {
            func: s.index,
            name: s.name.clone(),
            expected: s.crc,
            actual,
        });
    }
    std::str::from_utf8(s.payload).map_err(|_| ProfileLoadError::NotUtf8 {
        func: Some(s.index),
    })
}

// ---------------------------------------------------------------------------
// Section record parsing
// ---------------------------------------------------------------------------

fn record_err(line: usize, message: &str) -> ProfileParseError {
    ProfileParseError {
        line,
        message: message.to_owned(),
    }
}

fn parse_block_tok(
    tok: Option<&str>,
    ln: usize,
    f: &Function,
) -> Result<BlockId, ProfileParseError> {
    let t = tok.ok_or_else(|| record_err(ln, "missing block"))?;
    let n: u32 = t
        .strip_prefix('b')
        .and_then(|x| x.parse().ok())
        .ok_or_else(|| record_err(ln, "bad block token"))?;
    if (n as usize) < f.blocks.len() {
        Ok(BlockId(n))
    } else {
        Err(record_err(ln, "block out of range"))
    }
}

/// Applies one edge-profile record line to `p`.
fn apply_edge_record(
    f: &Function,
    p: &mut FuncEdgeProfile,
    line: &str,
    ln: usize,
) -> Result<(), ProfileParseError> {
    let mut w = line.split_whitespace();
    match w.next().unwrap_or("") {
        "entries" => {
            let n = w
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| record_err(ln, "bad entry count"))?;
            p.set_entries(n);
        }
        "block" => {
            let b = parse_block_tok(w.next(), ln, f)?;
            let n = w
                .next()
                .and_then(|s| s.parse().ok())
                .ok_or_else(|| record_err(ln, "bad block count"))?;
            p.set_block(b, n);
        }
        "edge" => {
            let b = parse_block_tok(w.next(), ln, f)?;
            let s: usize = w
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| record_err(ln, "bad successor index"))?;
            if f.block(b).term.successor(s).is_none() {
                return Err(record_err(ln, "successor index out of range"));
            }
            let n = w
                .next()
                .and_then(|x| x.parse().ok())
                .ok_or_else(|| record_err(ln, "bad edge count"))?;
            p.set_edge(EdgeRef::new(b, s), n);
        }
        other => return Err(record_err(ln, &format!("unknown record {other:?}"))),
    }
    Ok(())
}

/// Parses an edge section payload into `p`. In lenient mode, records that
/// fail are dropped and counted; in strict mode the first failure wins.
fn parse_edge_section(
    f: &Function,
    text: &str,
    lenient: bool,
    p: &mut FuncEdgeProfile,
) -> Result<u64, ProfileParseError> {
    let mut dropped = 0u64;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match apply_edge_record(f, p, line, ln + 1) {
            Ok(()) => {}
            Err(e) if lenient => {
                let _ = e;
                dropped += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(dropped)
}

/// Parses one `path <start> <freq> : <edges>` record.
fn parse_path_record(
    f: &Function,
    line: &str,
    ln: usize,
) -> Result<(PathKey, u64), ProfileParseError> {
    let (head, edges_txt) = line
        .split_once(':')
        .ok_or_else(|| record_err(ln, "missing ':' separator"))?;
    let mut w = head.split_whitespace();
    if w.next() != Some("path") {
        return Err(record_err(ln, "expected 'path'"));
    }
    let start = parse_block_tok(w.next(), ln, f)?;
    let freq: u64 = w
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| record_err(ln, "bad frequency"))?;
    let mut edges = Vec::new();
    let mut cur = start;
    for tok in edges_txt.split_whitespace() {
        let (b, s) = tok
            .split_once('#')
            .ok_or_else(|| record_err(ln, "bad edge token"))?;
        let b = parse_block_tok(Some(b), ln, f)?;
        let s: usize = s
            .parse()
            .map_err(|_| record_err(ln, "bad successor index"))?;
        let Some(tgt) = f.block(b).term.successor(s) else {
            return Err(record_err(ln, "edge does not exist"));
        };
        if b != cur {
            return Err(record_err(ln, "path edges do not chain"));
        }
        cur = tgt;
        edges.push(EdgeRef::new(b, s));
    }
    Ok((PathKey { start, edges }, freq))
}

/// Parses a path section payload into `out` (lenient: drop + count).
fn parse_path_section(
    f: &Function,
    text: &str,
    lenient: bool,
    out: &mut FuncPathProfile,
) -> Result<u64, ProfileParseError> {
    let mut dropped = 0u64;
    for (ln, raw) in text.lines().enumerate() {
        let line = raw.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match parse_path_record(f, line, ln + 1) {
            Ok((key, freq)) => out.record(f, key, freq),
            Err(e) if lenient => {
                let _ = e;
                dropped += 1;
            }
            Err(e) => return Err(e),
        }
    }
    Ok(dropped)
}

// ---------------------------------------------------------------------------
// Strict loaders
// ---------------------------------------------------------------------------

fn strict_sections<'a>(
    module: &Module,
    bytes: &'a [u8],
    kind: &'static str,
) -> Result<Vec<(FuncId, &'a str)>, ProfileLoadError> {
    let (declared, sections) = walk_sections(bytes, kind)?;
    if declared != module.functions.len() {
        return Err(ProfileLoadError::FunctionCount {
            expected: module.functions.len(),
            found: declared,
        });
    }
    let mut out = Vec::with_capacity(sections.len());
    for (i, s) in sections.into_iter().enumerate() {
        let s = s.map_err(|f| f.error)?;
        if s.index != i || s.index >= module.functions.len() {
            return Err(header_err(s.line, "section index out of order"));
        }
        let f = &module.functions[s.index];
        if f.name != s.name {
            return Err(ProfileLoadError::NameMismatch {
                func: s.index,
                expected: f.name.clone(),
                found: s.name,
            });
        }
        out.push((FuncId::new(s.index), section_text(&s)?));
    }
    if out.len() != module.functions.len() {
        return Err(ProfileLoadError::FunctionCount {
            expected: module.functions.len(),
            found: out.len(),
        });
    }
    Ok(out)
}

/// Loads a v2 edge profile strictly: any integrity or shape fault is a
/// typed error.
///
/// # Errors
///
/// Every fault class maps to a [`ProfileLoadError`] variant; this
/// function never panics, whatever the input bytes.
pub fn read_edge_profile_v2(
    module: &Module,
    bytes: &[u8],
) -> Result<ModuleEdgeProfile, ProfileLoadError> {
    let sections = strict_sections(module, bytes, "edge")?;
    let mut profile = ModuleEdgeProfile::zeroed(module);
    for (fid, text) in sections {
        let f = module.function(fid);
        parse_edge_section(f, text, false, profile.func_mut(fid)).map_err(|error| {
            ProfileLoadError::Record {
                func: fid.index(),
                name: f.name.clone(),
                error,
            }
        })?;
    }
    Ok(profile)
}

/// Loads a v2 path profile strictly.
///
/// # Errors
///
/// See [`read_edge_profile_v2`]; identical policy.
pub fn read_path_profile_v2(
    module: &Module,
    bytes: &[u8],
) -> Result<ModulePathProfile, ProfileLoadError> {
    let sections = strict_sections(module, bytes, "path")?;
    let mut profile = ModulePathProfile::with_capacity(module.functions.len());
    for (fid, text) in sections {
        let f = module.function(fid);
        parse_path_section(f, text, false, profile.func_mut(fid)).map_err(|error| {
            ProfileLoadError::Record {
                func: fid.index(),
                name: f.name.clone(),
                error,
            }
        })?;
    }
    Ok(profile)
}

// ---------------------------------------------------------------------------
// Salvage loaders
// ---------------------------------------------------------------------------

fn salvage_load<T>(
    module: &Module,
    bytes: &[u8],
    kind: &'static str,
    mut profile: T,
    mut apply: impl FnMut(&mut T, FuncId, &str) -> Result<(), ProfileParseError>,
) -> Result<Salvaged<T>, ProfileLoadError> {
    let (_, sections) = walk_sections(bytes, kind)?;
    let mut faults = Vec::new();
    let mut quarantined = Vec::new();
    let mut seen = vec![false; module.functions.len()];
    for s in sections {
        match s {
            Ok(raw) => {
                let index = raw.index;
                if index >= module.functions.len() {
                    faults.push(SectionFault {
                        func: index,
                        name: raw.name,
                        error: ProfileLoadError::FunctionCount {
                            expected: module.functions.len(),
                            found: index + 1,
                        },
                    });
                    continue;
                }
                let fid = FuncId::new(index);
                let f = module.function(fid);
                seen[index] = true;
                let outcome = section_text(&raw).and_then(|text| {
                    apply(&mut profile, fid, text).map_err(|error| ProfileLoadError::Record {
                        func: index,
                        name: f.name.clone(),
                        error,
                    })
                });
                if let Err(error) = outcome {
                    quarantined.push(fid);
                    faults.push(SectionFault {
                        func: index,
                        name: f.name.clone(),
                        error,
                    });
                }
            }
            Err(fault) => {
                // Container damage from this point on: every not-yet-seen
                // function is effectively quarantined by the same fault.
                if fault.func < module.functions.len() && !seen[fault.func] {
                    quarantined.push(FuncId::new(fault.func));
                }
                faults.push(fault);
            }
        }
    }
    for (i, s) in seen.iter().enumerate() {
        if !s && !quarantined.contains(&FuncId::new(i)) {
            quarantined.push(FuncId::new(i));
        }
    }
    quarantined.sort();
    quarantined.dedup();
    Ok(Salvaged {
        profile,
        quarantined,
        faults,
    })
}

/// Loads a v2 edge profile, quarantining corrupted sections instead of
/// failing: each faulty function is left zeroed (trivially conservative)
/// and reported, everything intact loads normally.
///
/// # Errors
///
/// Only container-level damage (bad magic, wrong kind/version) is fatal.
pub fn salvage_edge_profile(
    module: &Module,
    bytes: &[u8],
) -> Result<Salvaged<ModuleEdgeProfile>, ProfileLoadError> {
    salvage_load(
        module,
        bytes,
        "edge",
        ModuleEdgeProfile::zeroed(module),
        |profile, fid, text| {
            // Parse into a scratch profile so a mid-section fault cannot
            // leave half a function's counts behind.
            let f = module.function(fid);
            let mut scratch = FuncEdgeProfile::zeroed(f);
            parse_edge_section(f, text, false, &mut scratch)?;
            *profile.func_mut(fid) = scratch;
            Ok(())
        },
    )
}

/// Loads a v2 path profile, quarantining corrupted sections (see
/// [`salvage_edge_profile`]); faulty functions end up with no paths.
///
/// # Errors
///
/// Only container-level damage is fatal.
pub fn salvage_path_profile(
    module: &Module,
    bytes: &[u8],
) -> Result<Salvaged<ModulePathProfile>, ProfileLoadError> {
    salvage_load(
        module,
        bytes,
        "path",
        ModulePathProfile::with_capacity(module.functions.len()),
        |profile, fid, text| {
            let f = module.function(fid);
            let mut scratch = FuncPathProfile::new();
            parse_path_section(f, text, false, &mut scratch)?;
            *profile.func_mut(fid) = scratch;
            Ok(())
        },
    )
}

// ---------------------------------------------------------------------------
// Stale-shape loaders
// ---------------------------------------------------------------------------

fn stale_load<T>(
    module: &Module,
    bytes: &[u8],
    kind: &'static str,
    mut profile: T,
    mut apply: impl FnMut(&mut T, FuncId, &str) -> Result<u64, ProfileParseError>,
) -> Result<(T, StaleReport), ProfileLoadError> {
    let (_, sections) = walk_sections(bytes, kind)?;
    let mut report = StaleReport::default();
    let mut seen = vec![false; module.functions.len()];
    for s in sections {
        match s {
            Ok(raw) => match module.function_by_name(&raw.name) {
                Some(fid) => {
                    seen[fid.index()] = true;
                    report.matched_funcs += 1;
                    if fid.index() != raw.index {
                        report.renumbered_funcs += 1;
                    }
                    match section_text(&raw) {
                        Ok(text) => match apply(&mut profile, fid, text) {
                            Ok(dropped) => report.dropped_records += dropped,
                            // Lenient application never errors, but keep
                            // the plumbing honest.
                            Err(error) => report.faults.push(SectionFault {
                                func: raw.index,
                                name: raw.name,
                                error: ProfileLoadError::Record {
                                    func: fid.index(),
                                    name: module.function(fid).name.clone(),
                                    error,
                                },
                            }),
                        },
                        Err(error) => report.faults.push(SectionFault {
                            func: raw.index,
                            name: raw.name,
                            error,
                        }),
                    }
                }
                None => report.unmatched_sections.push(raw.name),
            },
            Err(fault) => report.faults.push(fault),
        }
    }
    for (i, s) in seen.iter().enumerate() {
        if !s {
            report
                .unprofiled_funcs
                .push(module.functions[i].name.clone());
        }
    }
    Ok((profile, report))
}

/// Loads a v2 edge profile written for a *different build* of the module:
/// sections are matched to functions by name (indices may have shifted),
/// and every record that still fits the current CFG shape is kept while
/// the rest are dropped and counted — salvaging a stale profile instead
/// of refusing it.
///
/// The result is generally *not* flow conservative (dropped records break
/// Kirchhoff's law); callers are expected to push it through the
/// degradation ladder, which quarantines or re-derives the functions that
/// no longer balance.
///
/// # Errors
///
/// Only container-level damage is fatal.
pub fn read_edge_profile_stale(
    module: &Module,
    bytes: &[u8],
) -> Result<(ModuleEdgeProfile, StaleReport), ProfileLoadError> {
    stale_load(
        module,
        bytes,
        "edge",
        ModuleEdgeProfile::zeroed(module),
        |profile, fid, text| {
            parse_edge_section(module.function(fid), text, true, profile.func_mut(fid))
        },
    )
}

/// Loads a v2 path profile for a different build of the module; see
/// [`read_edge_profile_stale`]. Paths whose edges no longer chain in the
/// renamed function are dropped and counted.
///
/// # Errors
///
/// Only container-level damage is fatal.
pub fn read_path_profile_stale(
    module: &Module,
    bytes: &[u8],
) -> Result<(ModulePathProfile, StaleReport), ProfileLoadError> {
    stale_load(
        module,
        bytes,
        "path",
        ModulePathProfile::with_capacity(module.functions.len()),
        |profile, fid, text| {
            parse_path_section(module.function(fid), text, true, profile.func_mut(fid))
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;

    fn sample() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        let c = b.constant(1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        m.add_function(b.finish());
        let mut g = FunctionBuilder::new("g", 1);
        let p = g.param(0);
        g.ret(Some(p));
        m.add_function(g.finish());
        m
    }

    fn sample_edges(m: &Module) -> ModuleEdgeProfile {
        let mut p = ModuleEdgeProfile::zeroed(m);
        let f0 = p.func_mut(FuncId(0));
        f0.set_entries(10);
        f0.set_block(BlockId(0), 10);
        f0.set_edge(EdgeRef::new(BlockId(0), 0), 7);
        f0.set_edge(EdgeRef::new(BlockId(0), 1), 3);
        f0.set_block(BlockId(1), 7);
        f0.set_edge(EdgeRef::new(BlockId(1), 0), 7);
        f0.set_block(BlockId(2), 3);
        f0.set_edge(EdgeRef::new(BlockId(2), 0), 3);
        f0.set_block(BlockId(3), 10);
        p.func_mut(FuncId(1)).set_entries(4);
        p.func_mut(FuncId(1)).set_block(BlockId(0), 4);
        p
    }

    #[test]
    fn v2_edge_roundtrip() {
        let m = sample();
        let p = sample_edges(&m);
        let text = write_edge_profile_v2(&m, &p);
        let back = read_edge_profile_v2(&m, text.as_bytes()).expect("loads");
        assert_eq!(p, back);
    }

    #[test]
    fn v2_path_roundtrip() {
        let m = sample();
        let mut p = ModulePathProfile::with_capacity(2);
        let f = m.function(FuncId(0));
        p.func_mut(FuncId(0)).record(
            f,
            PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 0), EdgeRef::new(BlockId(1), 0)],
            },
            7,
        );
        p.func_mut(FuncId(0)).record(
            f,
            PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 1), EdgeRef::new(BlockId(2), 0)],
            },
            3,
        );
        let text = write_path_profile_v2(&m, &p);
        let back = read_path_profile_v2(&m, text.as_bytes()).expect("loads");
        assert_eq!(p, back);
    }

    #[test]
    fn bad_references_rejected() {
        let m = sample();
        for (kind, main) in [
            ("edge", "edge b9 0 1\n"),
            ("edge", "edge b0 5 1\n"),
            ("edge", "nope\n"),
            ("path", "path b0 3 : b0#7\n"),
            ("path", "path b0 3 : b1#0\n"),
        ] {
            let text = write_container(&m, kind, |i| [main, ""][i].to_owned());
            let r = if kind == "edge" {
                read_edge_profile_v2(&m, text.as_bytes()).map(|_| ())
            } else {
                read_path_profile_v2(&m, text.as_bytes()).map(|_| ())
            };
            assert!(
                matches!(r, Err(ProfileLoadError::Record { func: 0, .. })),
                "{main:?}: {r:?}"
            );
        }
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let m = sample();
        let main = "\n; a comment\nentries 2 ; trailing\n";
        let text = write_container(&m, "edge", |i| [main, ""][i].to_owned());
        let p = read_edge_profile_v2(&m, text.as_bytes()).expect("loads");
        assert_eq!(p.func(FuncId(0)).entries(), 2);
    }

    #[test]
    fn flipped_byte_is_detected() {
        let m = sample();
        let p = sample_edges(&m);
        let text = write_edge_profile_v2(&m, &p);
        // Flip a digit inside the first payload (after the section header).
        let pos = text.find("entries 10").expect("payload") + "entries 1".len();
        let mut bytes = text.into_bytes();
        bytes[pos] = b'9';
        match read_edge_profile_v2(&m, &bytes) {
            Err(ProfileLoadError::ChecksumMismatch { func: 0, .. }) => {}
            other => panic!("expected checksum mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncation_is_detected() {
        let m = sample();
        let p = sample_edges(&m);
        let text = write_edge_profile_v2(&m, &p);
        // (Cutting only the final newline leaves a complete artifact, so
        // start the cuts inside the `end` trailer.)
        for cut in [text.len() - 2, text.len() / 2, 20] {
            let r = read_edge_profile_v2(&m, &text.as_bytes()[..cut]);
            assert!(r.is_err(), "cut at {cut} must not load cleanly");
        }
    }

    #[test]
    fn salvage_quarantines_only_the_damaged_function() {
        let m = sample();
        let p = sample_edges(&m);
        let text = write_edge_profile_v2(&m, &p);
        let pos = text.find("entries 10").expect("payload");
        let mut bytes = text.into_bytes();
        bytes[pos] = b'X';
        let s = salvage_edge_profile(&m, &bytes).expect("container ok");
        assert_eq!(s.quarantined, vec![FuncId(0)]);
        assert_eq!(s.faults.len(), 1);
        assert!(s.profile.func(FuncId(0)).is_zero());
        assert_eq!(s.profile.func(FuncId(1)).entries(), 4);
    }

    #[test]
    fn stale_loader_matches_by_name_across_reordering() {
        let m = sample();
        let p = sample_edges(&m);
        let text = write_edge_profile_v2(&m, &p);
        // A "newer build" with the functions in the opposite order.
        let mut m2 = Module::new();
        let mut g = FunctionBuilder::new("g", 1);
        let pr = g.param(0);
        g.ret(Some(pr));
        m2.add_function(g.finish());
        let mut b = FunctionBuilder::new("main", 0);
        let c = b.constant(1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        m2.add_function(b.finish());
        let (loaded, report) = read_edge_profile_stale(&m2, text.as_bytes()).expect("loads");
        assert_eq!(report.matched_funcs, 2);
        assert_eq!(report.renumbered_funcs, 2);
        assert_eq!(report.dropped_records, 0);
        let main2 = m2.function_by_name("main").unwrap();
        assert_eq!(loaded.func(main2).entries(), 10);
        assert_eq!(loaded.func(main2).edge(EdgeRef::new(BlockId(0), 0)), 7);
        assert!(loaded.is_flow_conservative(&m2));
    }

    #[test]
    fn stale_loader_drops_records_that_no_longer_fit() {
        let m = sample();
        let p = sample_edges(&m);
        let text = write_edge_profile_v2(&m, &p);
        // A build of "main" that lost its diamond: single block, ret.
        let mut m2 = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        m2.add_function(b.finish());
        let (loaded, report) = read_edge_profile_stale(&m2, text.as_bytes()).expect("loads");
        assert_eq!(report.matched_funcs, 1);
        assert!(report.dropped_records > 0);
        assert_eq!(report.unmatched_sections, vec!["g".to_owned()]);
        assert_eq!(loaded.func(FuncId(0)).entries(), 10);
    }

    #[test]
    fn wrong_kind_and_bad_magic_are_typed() {
        let m = sample();
        let p = sample_edges(&m);
        let text = write_edge_profile_v2(&m, &p);
        assert!(matches!(
            read_path_profile_v2(&m, text.as_bytes()),
            Err(ProfileLoadError::WrongKind { .. })
        ));
        assert!(matches!(
            read_edge_profile_v2(&m, b"edge-profile v1\n"),
            Err(ProfileLoadError::BadMagic)
        ));
        assert!(matches!(
            read_edge_profile_v2(&m, b"ppp-profile v3 edge funcs 2\nend\n"),
            Err(ProfileLoadError::UnsupportedVersion { .. })
        ));
    }

    #[test]
    fn invalid_utf8_is_typed_not_panicking() {
        let m = sample();
        let p = sample_edges(&m);
        let mut bytes = write_edge_profile_v2(&m, &p).into_bytes();
        let pos = bytes.len() / 2;
        bytes[pos] = 0xFF;
        let r = read_edge_profile_v2(&m, &bytes);
        assert!(r.is_err());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // CRC-32/IEEE of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }
}
