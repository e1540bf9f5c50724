//! The K-way sharded profile aggregator.
//!
//! One [`Aggregator`] owns the merged profile for one module. Incoming
//! deltas are fanned to K shard threads over bounded queues
//! ([`crate::queue::BoundedQueue`]); shard `k` merges exactly the
//! functions with `func_id % K == k`, so every function is owned by one
//! shard and per-function counts are never raced. Merging uses the
//! saturating adds of [`ModuleEdgeProfile::merge`] /
//! [`ModulePathProfile::merge`], which are commutative and associative —
//! so the merged profile is independent of delta arrival order, and a
//! [`Aggregator::snapshot`] (which assembles functions in id order) is
//! **byte-identical** under persist_v2 serialization to a sequential
//! single-worker merge of the same deltas.
//!
//! A snapshot works by pushing a flush gate through every shard queue:
//! FIFO order guarantees every delta submitted *before* the snapshot is
//! merged before the gate opens, without pausing ingestion of later
//! deltas.

use crate::queue::BoundedQueue;
use crate::wal::{self, DurOptions, Wal};
use ppp_ir::wire::{
    decode_frame, split_seq_payload, split_trace_context, Frame, FrameKind, WireError,
    FRAME_HEADER_LEN,
};
use ppp_ir::{
    read_edge_profile_v2, read_path_profile_v2, Module, ModuleEdgeProfile, ModulePathProfile,
};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Aggregator sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct AggConfig {
    /// Number of shard threads (min 1). Functions are owned by shard
    /// `func_id % shards`.
    pub shards: usize,
    /// Per-shard queue capacity; producers block (backpressure) when a
    /// shard falls this far behind.
    pub queue_cap: usize,
}

impl Default for AggConfig {
    fn default() -> Self {
        Self {
            shards: 4,
            queue_cap: 64,
        }
    }
}

/// Why a frame (or profile) was refused. The `class` is a stable label
/// used for the `ppp_agg_frames_rejected_total{reason}` metric.
#[derive(Clone, Debug)]
pub struct IngestError {
    /// Stable machine-readable rejection class.
    pub class: &'static str,
    /// Human-readable detail.
    pub detail: String,
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.class, self.detail)
    }
}

impl std::error::Error for IngestError {}

/// What happened to an accepted frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IngestOutcome {
    /// The frame's delta was merged (or the frame was control traffic).
    Applied,
    /// A sequenced frame at or below the client's watermark: dropped
    /// without merging. This is the idempotent-retry path, not an
    /// error — the client is resending an unacked window.
    Duplicate,
}

/// The ingest "front" of an aggregator: per-client sequence
/// watermarks plus the durability state (WAL handle, checkpoint
/// cadence). Sequenced ingestion holds this lock across
/// dedup → WAL append → fan-out, and [`Aggregator::checkpoint`] holds
/// it across the flush gate, so a checkpoint's `(profiles,
/// watermarks)` pair is always a consistent cut of the seq stream.
pub(crate) struct Front {
    pub(crate) watermarks: BTreeMap<u64, u64>,
    pub(crate) since_checkpoint: u64,
    pub(crate) wal: Option<Wal>,
    pub(crate) dur: Option<DurOptions>,
}

/// What one shard has merged so far (module-shaped; only the shard's
/// own functions ever carry flow).
struct ShardState {
    edges: ModuleEdgeProfile,
    paths: ModulePathProfile,
}

/// One message through a shard queue. Deltas carry their enqueue time
/// so shards can account queue-wait latency.
enum Msg {
    Edges(Arc<ModuleEdgeProfile>, Instant),
    Paths(Arc<ModulePathProfile>, Instant),
    Flush(Arc<Gate>),
}

/// Countdown barrier for snapshot flushes.
struct Gate {
    remaining: Mutex<usize>,
    done: Condvar,
}

impl Gate {
    fn new(n: usize) -> Self {
        Self {
            remaining: Mutex::new(n),
            done: Condvar::new(),
        }
    }

    fn arrive(&self) {
        let mut g = self.remaining.lock().expect("gate lock");
        *g -= 1;
        if *g == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut g = self.remaining.lock().expect("gate lock");
        while *g > 0 {
            g = self.done.wait(g).expect("gate lock");
        }
    }
}

/// Outcome of ingesting one byte stream (see
/// [`Aggregator::ingest_stream`]).
#[derive(Clone, Debug, Default)]
pub struct StreamReport {
    /// Frames decoded and accepted, per kind name.
    pub accepted: Vec<(&'static str, u64)>,
    /// Frames decoded but refused (payload damage, shape mismatch, …):
    /// `(frame index, error)`.
    pub rejected: Vec<(usize, IngestError)>,
    /// Wire-level damage that ended decoding: byte offset + error.
    pub wire_error: Option<(usize, WireError)>,
    /// A `Done` frame was seen (orderly end of stream).
    pub saw_done: bool,
    /// Total payload bytes of accepted frames.
    pub bytes_accepted: u64,
    /// Sequenced frames dropped as duplicates (retry replays). Not a
    /// rejection: duplicates are the idempotence contract working.
    pub duplicates: u64,
}

impl StreamReport {
    /// Total accepted frames.
    pub fn frames_accepted(&self) -> u64 {
        self.accepted.iter().map(|(_, n)| n).sum()
    }

    /// `true` when nothing was refused and the stream ended cleanly
    /// with `Done`.
    pub fn clean(&self) -> bool {
        self.rejected.is_empty() && self.wire_error.is_none() && self.saw_done
    }

    fn bump(&mut self, kind: FrameKind) {
        let name = kind.name();
        match self.accepted.iter_mut().find(|(k, _)| *k == name) {
            Some((_, n)) => *n += 1,
            None => self.accepted.push((name, 1)),
        }
    }
}

/// A sharded, concurrent profile aggregator for one module.
///
/// Dropping the aggregator closes the queues and joins the shard
/// threads; any unsnapshotted flow is discarded.
pub struct Aggregator {
    module: Arc<Module>,
    bench: String,
    queues: Vec<Arc<BoundedQueue<Msg>>>,
    states: Vec<Arc<Mutex<ShardState>>>,
    workers: Vec<JoinHandle<()>>,
    obs: ppp_obs::ObsCtx,
    pub(crate) front: Mutex<Front>,
}

impl Aggregator {
    /// Spawns the shard threads for `module`. `bench` labels this
    /// aggregator's metrics.
    pub fn new(bench: &str, module: Arc<Module>, config: AggConfig) -> Self {
        let shards = config.shards.max(1);
        let obs = ppp_obs::global();
        let mut queues = Vec::with_capacity(shards);
        let mut states = Vec::with_capacity(shards);
        let mut workers = Vec::with_capacity(shards);
        for k in 0..shards {
            let queue = Arc::new(BoundedQueue::new(config.queue_cap));
            let state = Arc::new(Mutex::new(ShardState {
                edges: ModuleEdgeProfile::zeroed(&module),
                paths: ModulePathProfile::with_capacity(module.functions.len()),
            }));
            let worker = {
                let queue = Arc::clone(&queue);
                let state = Arc::clone(&state);
                let obs = obs.clone();
                let bench = bench.to_owned();
                std::thread::Builder::new()
                    .name(format!("agg-shard-{k}"))
                    .spawn(move || shard_loop(k, shards, &queue, &state, &obs, &bench))
                    .expect("spawn shard thread")
            };
            queues.push(queue);
            states.push(state);
            workers.push(worker);
        }
        Self {
            module,
            bench: bench.to_owned(),
            queues,
            states,
            workers,
            obs,
            front: Mutex::new(Front {
                watermarks: BTreeMap::new(),
                since_checkpoint: 0,
                wal: None,
                dur: None,
            }),
        }
    }

    /// The module this aggregator merges profiles for.
    pub fn module(&self) -> &Arc<Module> {
        &self.module
    }

    /// The benchmark name labelling this aggregator's metrics.
    pub fn bench(&self) -> &str {
        &self.bench
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Submits an edge-profile delta for merging. Blocks (backpressure)
    /// while shard queues are full.
    ///
    /// # Errors
    ///
    /// Refuses deltas whose shape does not match the module — a
    /// mis-shaped profile must never reach a shard accumulator.
    pub fn submit_edges(&self, delta: ModuleEdgeProfile) -> Result<(), IngestError> {
        if !delta.shape_matches(&self.module) {
            return Err(IngestError {
                class: "shape-mismatch",
                detail: format!(
                    "edge delta has {} functions, module has {}",
                    delta.funcs.len(),
                    self.module.functions.len()
                ),
            });
        }
        self.fan_out(Msg::Edges(Arc::new(delta), Instant::now()))
    }

    /// Submits a path-profile delta for merging (same contract as
    /// [`Aggregator::submit_edges`]).
    ///
    /// # Errors
    ///
    /// Refuses deltas with the wrong function count.
    pub fn submit_paths(&self, delta: ModulePathProfile) -> Result<(), IngestError> {
        if delta.funcs.len() != self.module.functions.len() {
            return Err(IngestError {
                class: "shape-mismatch",
                detail: format!(
                    "path delta has {} functions, module has {}",
                    delta.funcs.len(),
                    self.module.functions.len()
                ),
            });
        }
        self.fan_out(Msg::Paths(Arc::new(delta), Instant::now()))
    }

    fn fan_out(&self, msg: Msg) -> Result<(), IngestError> {
        // One Arc'd delta goes to every shard; each merges only the
        // functions it owns.
        for q in &self.queues {
            self.obs.metrics().observe(
                "ppp_agg_queue_depth",
                &[("bench", &self.bench)],
                q.depth() as u64,
            );
            let m = match &msg {
                Msg::Edges(e, at) => Msg::Edges(Arc::clone(e), *at),
                Msg::Paths(p, at) => Msg::Paths(Arc::clone(p), *at),
                Msg::Flush(_) => unreachable!("fan_out is for deltas"),
            };
            if !q.push(m) {
                return Err(IngestError {
                    class: "closed",
                    detail: "aggregator is shutting down".to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Decodes and ingests one wire frame.
    ///
    /// # Errors
    ///
    /// Refuses frames whose payload fails the strict persist_v2 loaders
    /// or whose shape does not match the module, sequenced frames that
    /// jump past the client's watermark (`seq-gap`), unsequenced delta
    /// kinds (`protocol`: they bypass the WAL and the watermark), and
    /// server-side frame kinds (`Ack`/`Reject`) arriving inbound.
    /// `Hello` payloads are validated by the transport layer; here they
    /// are accepted as opaque.
    pub fn ingest_frame(&self, frame: &Frame) -> Result<IngestOutcome, IngestError> {
        let started = Instant::now();
        let out = self.ingest_frame_inner(frame);
        self.obs.metrics().observe(
            ppp_obs::names::INGEST_MICROS,
            &[("bench", &self.bench)],
            started.elapsed().as_micros() as u64,
        );
        out
    }

    fn ingest_frame_inner(&self, frame: &Frame) -> Result<IngestOutcome, IngestError> {
        match frame.kind {
            FrameKind::Hello | FrameKind::Done => Ok(IngestOutcome::Applied),
            FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta => self.apply_seq(frame, true),
            // Unsequenced deltas would bypass the WAL and the watermark;
            // the rest are answered by the transport tier or flow
            // server-to-client only.
            FrameKind::EdgeDelta
            | FrameKind::PathDelta
            | FrameKind::Ack
            | FrameKind::Reject
            | FrameKind::StatsRequest
            | FrameKind::StatsResponse => Err(IngestError {
                class: "protocol",
                detail: format!("{} frames are not ingested", frame.kind),
            }),
        }
    }

    /// Core of sequenced ingestion: dedup against the client watermark,
    /// append to the WAL (when `log` — recovery replays with `log =
    /// false`), then fan out, all under the front lock so a concurrent
    /// checkpoint sees a consistent (profiles, watermarks) cut.
    pub(crate) fn apply_seq(&self, frame: &Frame, log: bool) -> Result<IngestOutcome, IngestError> {
        let (client, seq, container) =
            split_seq_payload(&frame.payload).map_err(|e| IngestError {
                class: "payload",
                detail: format!("seq header: {e}"),
            })?;
        if seq == 0 {
            return Err(IngestError {
                class: "payload",
                detail: format!("client {client} sent sequence 0 (sequences start at 1)"),
            });
        }
        // A traced sender prefixes the container with a trace-context
        // block. Strip it before decoding and open the server-side
        // apply span carrying the sender's ids, so the client's send
        // span and this apply stitch into one cross-process trace.
        // Untraced (pre-trace) frames pass through unchanged.
        let (trace, container) = split_trace_context(container);
        let _apply_span = trace.map(|t| {
            let mut s = self
                .obs
                .span_remote("shard.apply", t.trace_id, t.parent_span);
            s.set("client", client);
            s.set("seq", seq);
            s
        });
        // Decode and shape-check the container before touching any
        // durable state: a damaged payload must be refused, not logged.
        let msg = match frame.kind {
            FrameKind::SeqEdgeDelta => {
                let profile =
                    read_edge_profile_v2(&self.module, container).map_err(|e| IngestError {
                        class: "payload",
                        detail: format!("seq edge delta: {e}"),
                    })?;
                if !profile.shape_matches(&self.module) {
                    return Err(IngestError {
                        class: "shape-mismatch",
                        detail: "seq edge delta shape does not match module".to_owned(),
                    });
                }
                Msg::Edges(Arc::new(profile), Instant::now())
            }
            FrameKind::SeqPathDelta => {
                let profile =
                    read_path_profile_v2(&self.module, container).map_err(|e| IngestError {
                        class: "payload",
                        detail: format!("seq path delta: {e}"),
                    })?;
                Msg::Paths(Arc::new(profile), Instant::now())
            }
            other => {
                return Err(IngestError {
                    class: "protocol",
                    detail: format!("{other} is not a sequenced delta"),
                })
            }
        };
        let mut front = self.front.lock().expect("front lock");
        let watermark = front.watermarks.get(&client).copied().unwrap_or(0);
        if seq <= watermark {
            self.obs
                .metrics()
                .inc(ppp_obs::names::AGG_DUPLICATES, &[("bench", &self.bench)]);
            return Ok(IngestOutcome::Duplicate);
        }
        if seq != watermark + 1 {
            return Err(IngestError {
                class: "seq-gap",
                detail: format!(
                    "client {client} jumped from watermark {watermark} to {seq}; \
                     resend the gap first"
                ),
            });
        }
        if log {
            if let Some(wal) = front.wal.as_mut() {
                if let Err(e) = wal.append(&frame.encode()) {
                    // Never apply what was not logged: losing the WAL
                    // loses the durability contract, so the delta is
                    // refused and the client retries (or fails loudly).
                    self.obs.metrics().inc(
                        ppp_obs::names::WAL_ERRORS,
                        &[("bench", &self.bench), ("op", "append")],
                    );
                    return Err(IngestError {
                        class: "wal",
                        detail: format!("wal append failed: {e}"),
                    });
                }
            }
        }
        front.watermarks.insert(client, seq);
        front.since_checkpoint += 1;
        let due = front.dur.as_ref().is_some_and(|d| {
            d.checkpoint_every > 0 && front.since_checkpoint >= d.checkpoint_every
        });
        let fanned = self.fan_out(msg);
        drop(front);
        fanned?;
        if due {
            if let Err(e) = self.checkpoint() {
                self.obs.metrics().inc(
                    ppp_obs::names::WAL_ERRORS,
                    &[("bench", &self.bench), ("op", "checkpoint")],
                );
                self.obs.warn(
                    "agg.checkpoint_failed",
                    &[("error", ppp_obs::Value::from(e))],
                );
            }
        }
        Ok(IngestOutcome::Applied)
    }

    /// The acked sequence watermark for `client` (0 when unseen).
    pub fn watermark(&self, client: u64) -> u64 {
        self.front
            .lock()
            .expect("front lock")
            .watermarks
            .get(&client)
            .copied()
            .unwrap_or(0)
    }

    /// All per-client watermarks.
    pub fn watermarks(&self) -> BTreeMap<u64, u64> {
        self.front.lock().expect("front lock").watermarks.clone()
    }

    /// Deepest shard queue right now — the admission-control signal for
    /// load shedding.
    pub fn max_queue_depth(&self) -> usize {
        self.queues.iter().map(|q| q.depth()).max().unwrap_or(0)
    }

    /// Per-shard queue depths, in shard order — the live-introspection
    /// view served by the `stats` wire frame.
    pub fn queue_depths(&self) -> Vec<usize> {
        self.queues.iter().map(|q| q.depth()).collect()
    }

    /// Sequenced frames applied since the last checkpoint (the WAL's
    /// replay depth if the process died right now). 0 for non-durable
    /// aggregators.
    pub fn frames_since_checkpoint(&self) -> u64 {
        self.front.lock().expect("front lock").since_checkpoint
    }

    /// Writes a checkpoint (profiles + watermarks in one consistent
    /// cut) and truncates the WAL. Returns `false` for a
    /// non-durable aggregator (nothing to do).
    ///
    /// Sequenced ingestion blocks for the duration — the price of the
    /// exact cut that makes recovery byte-identical.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint I/O failures. The WAL is only truncated
    /// after the checkpoint rename lands, so a failure here never
    /// loses logged deltas.
    pub fn checkpoint(&self) -> Result<bool, String> {
        let mut front = self.front.lock().expect("front lock");
        let Some(dur) = front.dur.clone() else {
            return Ok(false);
        };
        let gate = Arc::new(Gate::new(self.queues.len()));
        for q in &self.queues {
            if !q.push(Msg::Flush(Arc::clone(&gate))) {
                gate.arrive();
            }
        }
        gate.wait();
        let profiles = self.shard_profiles();
        wal::write_checkpoint(
            &dur.dir,
            &self.bench,
            &self.module,
            &front.watermarks,
            &profiles,
        )
        .map_err(|e| format!("checkpoint write: {e}"))?;
        if let Some(w) = front.wal.as_mut() {
            w.reset().map_err(|e| format!("wal reset: {e}"))?;
        }
        front.since_checkpoint = 0;
        Ok(true)
    }

    /// Installs the WAL handle and durability options (recovery calls
    /// this after replay so replayed frames are not re-logged).
    pub(crate) fn attach_durability(&self, wal_handle: Wal, dur: DurOptions) {
        let mut front = self.front.lock().expect("front lock");
        front.wal = Some(wal_handle);
        front.dur = Some(dur);
    }

    /// One module-shaped (edge, path) pair per shard, each carrying
    /// only that shard's owned functions. Callers must have flushed
    /// first (see [`Aggregator::checkpoint`]).
    fn shard_profiles(&self) -> Vec<(ModuleEdgeProfile, ModulePathProfile)> {
        let shards = self.queues.len();
        let funcs = self.module.functions.len();
        let mut out = Vec::with_capacity(shards);
        for (k, state) in self.states.iter().enumerate() {
            let st = state.lock().expect("shard state lock");
            let mut edges = ModuleEdgeProfile::zeroed(&self.module);
            let mut paths = ModulePathProfile::with_capacity(funcs);
            for fid in (k..funcs).step_by(shards) {
                edges.funcs[fid] = st.edges.funcs[fid].clone();
                paths.funcs[fid] = st.paths.funcs[fid].clone();
            }
            out.push((edges, paths));
        }
        out
    }

    /// Decodes a concatenated frame stream and ingests every decodable
    /// frame, recording metrics. Damage never panics and never merges:
    /// wire-level damage ends decoding (no resync), payload-level
    /// damage rejects that frame and continues.
    pub fn ingest_stream(&self, bytes: &[u8]) -> StreamReport {
        let mut report = StreamReport::default();
        let mut pos = 0;
        let mut index = 0usize;
        let metrics = self.obs.metrics();
        let bench: &str = &self.bench;
        while pos < bytes.len() {
            match decode_frame(&bytes[pos..]) {
                Ok((frame, used)) => {
                    match self.ingest_frame(&frame) {
                        Ok(IngestOutcome::Applied) => {
                            report.bump(frame.kind);
                            report.bytes_accepted += frame.payload.len() as u64;
                            metrics.inc(
                                "ppp_agg_frames_ingested_total",
                                &[("bench", bench), ("kind", frame.kind.name())],
                            );
                            metrics.inc_by(
                                "ppp_agg_bytes_ingested_total",
                                &[("bench", bench)],
                                (used - FRAME_HEADER_LEN) as u64,
                            );
                            if frame.kind == FrameKind::Done {
                                report.saw_done = true;
                            }
                        }
                        Ok(IngestOutcome::Duplicate) => {
                            report.duplicates += 1;
                        }
                        Err(e) => {
                            metrics.inc(
                                "ppp_agg_frames_rejected_total",
                                &[("bench", bench), ("reason", e.class)],
                            );
                            report.rejected.push((index, e));
                        }
                    }
                    pos += used;
                    index += 1;
                }
                Err(e) => {
                    metrics.inc(
                        "ppp_agg_frames_rejected_total",
                        &[("bench", bench), ("reason", e.class())],
                    );
                    report.wire_error = Some((pos, e));
                    break;
                }
            }
        }
        report
    }

    /// Flushes every shard and assembles the merged profiles.
    ///
    /// Every delta submitted before this call is included; deltas
    /// submitted concurrently may or may not be. Functions are taken
    /// from their owning shard in function-id order, so the result —
    /// and its persist_v2 serialization — is deterministic.
    pub fn snapshot(&self) -> (ModuleEdgeProfile, ModulePathProfile) {
        let started = Instant::now();
        let gate = Arc::new(Gate::new(self.queues.len()));
        for q in &self.queues {
            // A closed queue means shutdown already started; its shard
            // has merged everything it will ever merge, which is
            // exactly the flush guarantee.
            if !q.push(Msg::Flush(Arc::clone(&gate))) {
                gate.arrive();
            }
        }
        gate.wait();
        let shards = self.queues.len();
        let mut edges = ModuleEdgeProfile::zeroed(&self.module);
        let mut paths = ModulePathProfile::with_capacity(self.module.functions.len());
        for (k, state) in self.states.iter().enumerate() {
            let st = state.lock().expect("shard state lock");
            for fid in 0..self.module.functions.len() {
                if fid % shards == k {
                    edges.funcs[fid] = st.edges.funcs[fid].clone();
                    paths.funcs[fid] = st.paths.funcs[fid].clone();
                }
            }
        }
        self.obs.metrics().observe(
            "ppp_agg_snapshot_micros",
            &[("bench", &self.bench)],
            started.elapsed().as_micros() as u64,
        );
        (edges, paths)
    }

    /// Total backpressure stalls across all shard queues.
    pub fn backpressure_stalls(&self) -> u64 {
        self.queues.iter().map(|q| q.stalls()).sum()
    }

    /// Closes the queues and joins the shard threads. Idempotent; also
    /// runs on drop.
    pub fn shutdown(&mut self) {
        for q in &self.queues {
            q.close();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Aggregator {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Body of one shard thread: drain the queue, merge owned functions.
fn shard_loop(
    k: usize,
    shards: usize,
    queue: &BoundedQueue<Msg>,
    state: &Mutex<ShardState>,
    obs: &ppp_obs::ObsCtx,
    bench: &str,
) {
    let shard_label = k.to_string();
    while let Some(msg) = queue.pop() {
        match msg {
            Msg::Edges(delta, enqueued) => {
                record_queue_wait(obs, bench, enqueued);
                let started = Instant::now();
                let mut st = state.lock().expect("shard state lock");
                for fid in (k..delta.funcs.len()).step_by(shards) {
                    if !delta.funcs[fid].is_zero() {
                        st.edges.funcs[fid].merge(&delta.funcs[fid]);
                    }
                }
                drop(st);
                record_merge(obs, bench, &shard_label, started);
            }
            Msg::Paths(delta, enqueued) => {
                record_queue_wait(obs, bench, enqueued);
                let started = Instant::now();
                let mut st = state.lock().expect("shard state lock");
                for fid in (k..delta.funcs.len()).step_by(shards) {
                    if !delta.funcs[fid].paths.is_empty() {
                        st.paths.funcs[fid].merge(&delta.funcs[fid]);
                    }
                }
                drop(st);
                record_merge(obs, bench, &shard_label, started);
            }
            Msg::Flush(gate) => gate.arrive(),
        }
    }
}

fn record_queue_wait(obs: &ppp_obs::ObsCtx, bench: &str, enqueued: Instant) {
    obs.metrics().observe(
        ppp_obs::names::QUEUE_WAIT_MICROS,
        &[("bench", bench)],
        enqueued.elapsed().as_micros() as u64,
    );
}

fn record_merge(obs: &ppp_obs::ObsCtx, bench: &str, shard: &str, started: Instant) {
    let metrics = obs.metrics();
    metrics.inc(
        "ppp_agg_deltas_merged_total",
        &[("bench", bench), ("shard", shard)],
    );
    metrics.observe(
        "ppp_agg_merge_micros",
        &[("bench", bench)],
        started.elapsed().as_micros() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::wire::{encode_frame, encode_seq_payload};
    use ppp_ir::{
        write_edge_profile_v2, write_path_profile_v2, BlockId, EdgeRef, FuncId, FunctionBuilder,
        PathKey, Reg,
    };

    fn test_module(funcs: usize) -> Arc<Module> {
        let mut m = Module::new();
        for i in 0..funcs {
            let mut b = FunctionBuilder::new(format!("f{i}"), 1);
            let (t, e) = (b.new_block(), b.new_block());
            b.branch(Reg(0), t, e);
            b.switch_to(t);
            b.ret(None);
            b.switch_to(e);
            b.ret(None);
            m.add_function(b.finish());
        }
        Arc::new(m)
    }

    fn delta_for(m: &Module, fid: usize, weight: u64) -> ModuleEdgeProfile {
        let mut d = ModuleEdgeProfile::zeroed(m);
        let p = &mut d.funcs[fid];
        p.set_entries(weight);
        p.set_block(BlockId(0), weight);
        p.set_edge(EdgeRef::new(BlockId(0), 0), weight);
        p.set_block(BlockId(1), weight);
        d
    }

    #[test]
    fn sharded_merge_equals_sequential_merge() {
        let m = test_module(7);
        for shards in [1usize, 2, 3, 8] {
            let agg = Aggregator::new(
                "t",
                Arc::clone(&m),
                AggConfig {
                    shards,
                    queue_cap: 4,
                },
            );
            let mut reference = ModuleEdgeProfile::zeroed(&m);
            for i in 0..50 {
                let d = delta_for(&m, i % 7, (i as u64) + 1);
                reference.merge(&d);
                agg.submit_edges(d).expect("open");
            }
            let (edges, _) = agg.snapshot();
            assert_eq!(edges, reference, "{shards} shards");
            assert_eq!(
                write_edge_profile_v2(&m, &edges),
                write_edge_profile_v2(&m, &reference)
            );
        }
    }

    #[test]
    fn snapshot_includes_everything_submitted_before_it() {
        let m = test_module(3);
        let agg = Aggregator::new("t", Arc::clone(&m), AggConfig::default());
        agg.submit_edges(delta_for(&m, 0, 5)).expect("open");
        let (a, _) = agg.snapshot();
        assert_eq!(a.funcs[0].entries(), 5);
        agg.submit_edges(delta_for(&m, 0, 5)).expect("open");
        let (b, _) = agg.snapshot();
        assert_eq!(b.funcs[0].entries(), 10, "snapshots are cumulative");
    }

    #[test]
    fn shape_mismatch_is_refused() {
        let m = test_module(3);
        let other = test_module(4);
        let agg = Aggregator::new("t", Arc::clone(&m), AggConfig::default());
        let bad = ModuleEdgeProfile::zeroed(&other);
        assert_eq!(agg.submit_edges(bad).unwrap_err().class, "shape-mismatch");
        let badp = ModulePathProfile::with_capacity(4);
        assert_eq!(agg.submit_paths(badp).unwrap_err().class, "shape-mismatch");
    }

    #[test]
    fn stream_ingest_merges_and_reports() {
        let m = test_module(2);
        let agg = Aggregator::new("t", Arc::clone(&m), AggConfig::default());
        let d = delta_for(&m, 1, 9);
        let paths = ModulePathProfile::with_capacity(2);
        let mut stream = Vec::new();
        stream.extend(encode_frame(FrameKind::Hello, b"hi"));
        stream.extend(encode_frame(
            FrameKind::SeqEdgeDelta,
            &encode_seq_payload(0, 1, write_edge_profile_v2(&m, &d).as_bytes()),
        ));
        stream.extend(encode_frame(
            FrameKind::SeqPathDelta,
            &encode_seq_payload(0, 2, write_path_profile_v2(&m, &paths).as_bytes()),
        ));
        stream.extend(encode_frame(FrameKind::Done, b""));
        let report = agg.ingest_stream(&stream);
        assert!(report.clean(), "{report:?}");
        assert_eq!(report.frames_accepted(), 4);
        let (edges, _) = agg.snapshot();
        assert_eq!(edges.funcs[1].entries(), 9);
    }

    #[test]
    fn damaged_stream_rejects_without_merging_or_panicking() {
        let m = test_module(2);
        let agg = Aggregator::new("t", Arc::clone(&m), AggConfig::default());
        let d = delta_for(&m, 0, 3);
        let good = encode_frame(
            FrameKind::SeqEdgeDelta,
            &encode_seq_payload(0, 1, write_edge_profile_v2(&m, &d).as_bytes()),
        );

        // Flip a payload byte: CRC refuses the frame at the wire layer.
        let mut corrupt = good.clone();
        let at = FRAME_HEADER_LEN + 10;
        corrupt[at] ^= 0x20;
        let report = agg.ingest_stream(&corrupt);
        assert!(report.wire_error.is_some());
        assert_eq!(report.frames_accepted(), 0);

        // Truncate mid-payload: typed truncation, nothing merged.
        let report = agg.ingest_stream(&good[..good.len() - 4]);
        assert!(matches!(
            report.wire_error,
            Some((_, WireError::Truncated { .. }))
        ));

        // A frame whose payload passes CRC but fails the strict loader
        // (wrong profile kind) is rejected at the payload layer.
        let paths = ModulePathProfile::with_capacity(2);
        let wrong = encode_frame(
            FrameKind::SeqEdgeDelta,
            &encode_seq_payload(0, 1, write_path_profile_v2(&m, &paths).as_bytes()),
        );
        let report = agg.ingest_stream(&wrong);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].1.class, "payload");

        let (edges, _) = agg.snapshot();
        assert!(edges.funcs.iter().all(|f| f.is_zero()), "nothing merged");
    }

    #[test]
    fn unsequenced_delta_frames_are_refused_as_protocol() {
        let m = test_module(2);
        let agg = Aggregator::new("t", Arc::clone(&m), AggConfig::default());
        let mut paths = ModulePathProfile::with_capacity(2);
        paths.func_mut(FuncId(0)).record(
            m.function(FuncId(0)),
            PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 0)],
            },
            4,
        );
        for frame in [
            Frame::new(
                FrameKind::EdgeDelta,
                write_edge_profile_v2(&m, &delta_for(&m, 1, 9)).into_bytes(),
            ),
            Frame::new(
                FrameKind::PathDelta,
                write_path_profile_v2(&m, &paths).into_bytes(),
            ),
        ] {
            let err = agg
                .ingest_frame(&frame)
                .expect_err("unsequenced delta refused");
            assert_eq!(err.class, "protocol", "{}: {err}", frame.kind);
        }
        let (edges, paths) = agg.snapshot();
        assert!(edges.funcs.iter().all(|f| f.is_zero()), "nothing merged");
        assert!(paths.funcs.iter().all(|f| f.paths.is_empty()));
    }

    #[test]
    fn concurrent_submitters_converge() {
        let m = test_module(5);
        let agg = Arc::new(Aggregator::new(
            "t",
            Arc::clone(&m),
            AggConfig {
                shards: 3,
                queue_cap: 2,
            },
        ));
        let mut reference = ModuleEdgeProfile::zeroed(&m);
        for w in 0..4u64 {
            for i in 0..25u64 {
                reference.merge(&delta_for(&m, ((w * 25 + i) % 5) as usize, i + 1));
            }
        }
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let agg = Arc::clone(&agg);
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for i in 0..25u64 {
                        let d = delta_for(&m, ((w * 25 + i) % 5) as usize, i + 1);
                        agg.submit_edges(d).expect("open");
                    }
                });
            }
        });
        let (edges, _) = agg.snapshot();
        assert_eq!(edges, reference);
    }
}
