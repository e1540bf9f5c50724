//! Durability for the aggregator: checkpoint files + a delta WAL.
//!
//! Both artifacts reuse the integrity armour the repo already has.
//! The **WAL** is simply the accepted sequenced wire frames
//! ([`ppp_ir::wire`], CRC-framed binary deltas) appended verbatim to
//! `<dir>/<bench>.wal` *before* the delta is applied; a torn tail (a
//! crash mid-append) is detected by the frame CRC and cut off on
//! recovery. The **checkpoint** at `<dir>/<bench>.ckpt` is itself a
//! frame stream — a `Hello`-kind manifest naming the bench, the shard
//! count, and every client's acked sequence watermark, followed by one
//! persist_v2 edge + path container per shard (each carrying only the
//! functions that shard owns) and a closing `Done`. Checkpoints are
//! written to a temp file and atomically renamed, so a crash mid-write
//! leaves the previous checkpoint intact; the WAL is truncated only
//! *after* the rename, so a crash between the two merely replays
//! deltas the watermark dedup then drops.
//!
//! Recovery (`Aggregator::recover` in [`crate::recover`]) therefore
//! reconstructs exactly the uncrashed state: checkpoint first, then
//! every complete WAL record above the checkpointed watermarks.

use ppp_ir::wire::{decode_stream, encode_frame, Frame, FrameKind};
use ppp_ir::{
    read_edge_profile_v2, read_path_profile_v2, write_edge_profile_v2, write_path_profile_v2,
    Module, ModuleEdgeProfile, ModulePathProfile,
};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// Durability knobs for one aggregator.
#[derive(Clone, Debug)]
pub struct DurOptions {
    /// Directory holding `<bench>.ckpt` / `<bench>.wal`.
    pub dir: PathBuf,
    /// Write a checkpoint every this many accepted sequenced deltas
    /// (0 = only on explicit [`crate::Aggregator::checkpoint`] calls).
    pub checkpoint_every: u64,
}

impl DurOptions {
    /// Durability under `dir`, checkpointing every `checkpoint_every`
    /// accepted deltas.
    pub fn new(dir: impl Into<PathBuf>, checkpoint_every: u64) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every,
        }
    }
}

/// Benchmark names come from `Hello` frames, i.e. over a trust
/// boundary; anything that could traverse directories is flattened
/// before it becomes a file name.
fn safe_stem(bench: &str) -> String {
    let mut stem: String = bench
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if stem.is_empty() || stem.bytes().all(|b| b == b'.') {
        stem = "_".to_owned();
    }
    stem
}

/// Path of the WAL for `bench` under `dir`.
pub fn wal_path(dir: &Path, bench: &str) -> PathBuf {
    dir.join(format!("{}.wal", safe_stem(bench)))
}

/// Path of the checkpoint for `bench` under `dir`.
pub fn checkpoint_path(dir: &Path, bench: &str) -> PathBuf {
    dir.join(format!("{}.ckpt", safe_stem(bench)))
}

/// An open WAL, appending complete wire frames.
pub struct Wal {
    file: File,
    len: u64,
    bench: String,
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, truncated to
    /// `valid_len` — recovery passes the verified frame-prefix length
    /// so a torn tail never survives into the next append.
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn open(path: &Path, valid_len: u64, bench: &str) -> std::io::Result<Wal> {
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .write(true)
            .truncate(false)
            .open(path)?;
        file.set_len(valid_len)?;
        let mut file = file;
        file.seek(SeekFrom::End(0))?;
        Ok(Wal {
            file,
            len: valid_len,
            bench: bench.to_owned(),
        })
    }

    /// Bytes currently in the log.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the log holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends one encoded frame, handing it to the OS with one
    /// `write`. There is no fsync: an appended frame survives a crash
    /// of this process, not a power loss.
    ///
    /// # Errors
    ///
    /// Propagates write failures; the caller must then refuse the
    /// delta (never apply what was not logged).
    pub fn append(&mut self, frame_bytes: &[u8]) -> std::io::Result<()> {
        let started = std::time::Instant::now();
        self.file.write_all(frame_bytes)?;
        self.len += frame_bytes.len() as u64;
        let obs = ppp_obs::global();
        let metrics = obs.metrics();
        metrics.observe(
            ppp_obs::names::WAL_APPEND_MICROS,
            &[("bench", &self.bench)],
            started.elapsed().as_micros() as u64,
        );
        metrics.inc(ppp_obs::names::WAL_APPENDS, &[("bench", &self.bench)]);
        metrics.inc_by(
            ppp_obs::names::WAL_BYTES,
            &[("bench", &self.bench)],
            frame_bytes.len() as u64,
        );
        Ok(())
    }

    /// Empties the log (called after a checkpoint rename lands).
    ///
    /// # Errors
    ///
    /// Propagates file-system failures.
    pub fn reset(&mut self) -> std::io::Result<()> {
        self.file.set_len(0)?;
        self.file.seek(SeekFrom::Start(0))?;
        self.len = 0;
        Ok(())
    }
}

/// What a WAL scan found: the decodable frame prefix and how much
/// tail (if any) was torn off by a crash mid-append.
pub struct WalScan {
    /// Every complete, CRC-valid frame in order.
    pub frames: Vec<Frame>,
    /// Byte length of the valid prefix.
    pub valid_len: u64,
    /// Bytes past the valid prefix (torn tail), 0 when clean.
    pub torn_bytes: u64,
    /// The wire error that ended the scan, if any.
    pub damage: Option<String>,
}

/// Reads and verifies the WAL at `path`. A missing file is an empty,
/// clean scan.
///
/// # Errors
///
/// Propagates file-system failures (not frame damage — that is
/// reported in the scan).
pub fn scan_wal(path: &Path) -> std::io::Result<WalScan> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    let (frames, damage) = decode_stream(&bytes);
    let (valid_len, damage) = match damage {
        Some((at, e)) => (at as u64, Some(e.to_string())),
        None => (bytes.len() as u64, None),
    };
    Ok(WalScan {
        frames,
        torn_bytes: bytes.len() as u64 - valid_len,
        valid_len,
        damage,
    })
}

/// A loaded checkpoint: merged profiles plus the per-client sequence
/// watermarks captured in the same consistent cut.
pub struct Checkpoint {
    /// Shard count recorded at write time (informational; recovery
    /// re-shards freely because merges are order-independent).
    pub shards: usize,
    /// Per-client acked sequence watermarks.
    pub watermarks: BTreeMap<u64, u64>,
    /// Merged edge profile.
    pub edges: ModuleEdgeProfile,
    /// Merged path profile.
    pub paths: ModulePathProfile,
}

/// Serializes and atomically installs a checkpoint. `shard_profiles`
/// holds one module-shaped (edge, path) pair per shard, each carrying
/// only that shard's owned functions. Returns bytes written.
///
/// # Errors
///
/// Propagates file-system failures; the previous checkpoint (if any)
/// is untouched on failure.
pub fn write_checkpoint(
    dir: &Path,
    bench: &str,
    module: &Module,
    watermarks: &BTreeMap<u64, u64>,
    shard_profiles: &[(ModuleEdgeProfile, ModulePathProfile)],
) -> std::io::Result<u64> {
    std::fs::create_dir_all(dir)?;
    let mut manifest = format!(
        "ppp-agg ckpt v1\nbench {bench}\nfuncs {}\nshards {}\n",
        module.functions.len(),
        shard_profiles.len()
    );
    for (client, seq) in watermarks {
        manifest.push_str(&format!("client {client} {seq}\n"));
    }
    let mut bytes = encode_frame(FrameKind::Hello, manifest.as_bytes());
    for (edges, paths) in shard_profiles {
        bytes.extend(encode_frame(
            FrameKind::EdgeDelta,
            write_edge_profile_v2(module, edges).as_bytes(),
        ));
        bytes.extend(encode_frame(
            FrameKind::PathDelta,
            write_path_profile_v2(module, paths).as_bytes(),
        ));
    }
    bytes.extend(encode_frame(FrameKind::Done, b""));

    let target = checkpoint_path(dir, bench);
    let tmp = target.with_extension("ckpt.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &target)?;
    let obs = ppp_obs::global();
    let metrics = obs.metrics();
    metrics.inc(ppp_obs::names::WAL_CHECKPOINTS, &[("bench", bench)]);
    metrics.inc_by(
        ppp_obs::names::WAL_CHECKPOINT_BYTES,
        &[("bench", bench)],
        bytes.len() as u64,
    );
    Ok(bytes.len() as u64)
}

/// Loads the checkpoint for `bench`, strictly verified against
/// `module`. `Ok(None)` when no checkpoint exists.
///
/// # Errors
///
/// A checkpoint that exists but fails any check (frame damage, bad
/// manifest, shape mismatch, missing `Done`) is an error: atomic
/// rename means a valid install can only be damaged after the fact,
/// which must surface loudly rather than silently start from zero.
pub fn read_checkpoint(
    dir: &Path,
    bench: &str,
    module: &Module,
) -> Result<Option<Checkpoint>, String> {
    let path = checkpoint_path(dir, bench);
    let mut bytes = Vec::new();
    match File::open(&path) {
        Ok(mut f) => f
            .read_to_end(&mut bytes)
            .map_err(|e| format!("checkpoint {}: {e}", path.display()))?,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("checkpoint {}: {e}", path.display())),
    };
    let (frames, damage) = decode_stream(&bytes);
    if let Some((at, e)) = damage {
        return Err(format!(
            "checkpoint {} damaged at byte {at}: {e}",
            path.display()
        ));
    }
    let mut it = frames.into_iter();
    let manifest = match it.next() {
        Some(f) if f.kind == FrameKind::Hello => f.payload,
        _ => return Err(format!("checkpoint {} has no manifest", path.display())),
    };
    let (shards, watermarks) = parse_manifest(&manifest, bench, module)
        .map_err(|e| format!("checkpoint {}: {e}", path.display()))?;
    let mut edges = ModuleEdgeProfile::zeroed(module);
    let mut paths = ModulePathProfile::with_capacity(module.functions.len());
    let mut saw_done = false;
    for frame in it {
        match frame.kind {
            FrameKind::EdgeDelta => {
                let shard = read_edge_profile_v2(module, &frame.payload)
                    .map_err(|e| format!("checkpoint {}: edge shard: {e}", path.display()))?;
                edges.merge(&shard);
            }
            FrameKind::PathDelta => {
                let shard = read_path_profile_v2(module, &frame.payload)
                    .map_err(|e| format!("checkpoint {}: path shard: {e}", path.display()))?;
                paths.merge(&shard);
            }
            FrameKind::Done => saw_done = true,
            other => {
                return Err(format!(
                    "checkpoint {}: unexpected {other} frame",
                    path.display()
                ))
            }
        }
    }
    if !saw_done {
        return Err(format!(
            "checkpoint {} is incomplete (no Done frame)",
            path.display()
        ));
    }
    Ok(Some(Checkpoint {
        shards,
        watermarks,
        edges,
        paths,
    }))
}

fn parse_manifest(
    payload: &[u8],
    bench: &str,
    module: &Module,
) -> Result<(usize, BTreeMap<u64, u64>), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "manifest is not utf-8".to_owned())?;
    let mut lines = text.lines();
    if lines.next() != Some("ppp-agg ckpt v1") {
        return Err("missing manifest header".to_owned());
    }
    let mut shards = 1usize;
    let mut watermarks = BTreeMap::new();
    for line in lines {
        let Some((key, value)) = line.split_once(' ') else {
            return Err(format!("malformed manifest line {line:?}"));
        };
        match key {
            "bench" => {
                if value != bench {
                    return Err(format!(
                        "manifest is for bench {value:?}, expected {bench:?}"
                    ));
                }
            }
            "funcs" => {
                let funcs: usize = value.parse().map_err(|_| format!("bad funcs {value:?}"))?;
                if funcs != module.functions.len() {
                    return Err(format!(
                        "manifest has {funcs} functions, module has {}",
                        module.functions.len()
                    ));
                }
            }
            "shards" => {
                shards = value.parse().map_err(|_| format!("bad shards {value:?}"))?;
            }
            "client" => {
                let (id, seq) = value
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed client line {line:?}"))?;
                let id: u64 = id.parse().map_err(|_| format!("bad client id {id:?}"))?;
                let seq: u64 = seq.parse().map_err(|_| format!("bad watermark {seq:?}"))?;
                watermarks.insert(id, seq);
            }
            _ => return Err(format!("unknown manifest key {key:?}")),
        }
    }
    Ok((shards, watermarks))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::wire::encode_seq_payload;

    fn scratch(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ppp-scratch/wal-unit")
            .join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn bench_names_cannot_escape_the_directory() {
        assert_eq!(safe_stem("mcf"), "mcf");
        assert_eq!(safe_stem("../../etc/passwd"), ".._.._etc_passwd");
        assert_eq!(safe_stem(".."), "_");
        assert_eq!(safe_stem(""), "_");
    }

    #[test]
    fn wal_append_scan_roundtrip_and_torn_tail() {
        let dir = scratch("torn-tail");
        let path = wal_path(&dir, "t");
        let frame = encode_frame(
            FrameKind::SeqEdgeDelta,
            &encode_seq_payload(1, 1, b"payload"),
        );
        {
            let mut wal = Wal::open(&path, 0, "t").expect("open");
            wal.append(&frame).expect("append");
            wal.append(&frame).expect("append");
            assert_eq!(wal.len(), 2 * frame.len() as u64);
        }
        // Simulate a crash mid-append: half a frame at the tail.
        {
            let mut f = OpenOptions::new().append(true).open(&path).expect("open");
            f.write_all(&frame[..frame.len() / 2]).expect("tear");
        }
        let scan = scan_wal(&path).expect("scan");
        assert_eq!(scan.frames.len(), 2);
        assert_eq!(scan.valid_len, 2 * frame.len() as u64);
        assert_eq!(scan.torn_bytes, (frame.len() / 2) as u64);
        assert!(scan.damage.is_some());

        // Re-opening at the valid length truncates the torn tail.
        let wal = Wal::open(&path, scan.valid_len, "t").expect("reopen");
        assert_eq!(wal.len(), scan.valid_len);
        let scan = scan_wal(&path).expect("rescan");
        assert_eq!(scan.torn_bytes, 0);
        assert!(scan.damage.is_none());

        // Missing files scan clean and empty.
        let scan = scan_wal(&wal_path(&dir, "absent")).expect("scan absent");
        assert!(scan.frames.is_empty() && scan.torn_bytes == 0);
    }
}
