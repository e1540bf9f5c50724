//! The K-way sharded profile aggregator.
//!
//! One [`Aggregator`] owns the merged profile for one module. Shard `k`
//! of K owns exactly the functions with `func_id % K == k`, so
//! per-function counts are never raced. A sequenced delta is validated
//! once, on the thread that received it, and split into per-shard
//! sparse records ([`ppp_ir::EdgeRecords`] / [`ppp_ir::PathRecords`]);
//! only shards that own at least one record get a message over their
//! bounded queue ([`crate::queue::BoundedQueue`]), and each adds its
//! records straight into its state. The adds saturate like
//! [`ModuleEdgeProfile::merge`] / [`ModulePathProfile::merge`], which
//! are commutative and associative — so the merged profile is
//! independent of delta arrival order, and a [`Aggregator::snapshot`]
//! (which assembles functions in id order) is **byte-identical** under
//! persist_v2 serialization to a sequential merge of the same deltas.
//!
//! A snapshot works by pushing a flush gate through *every* shard queue:
//! FIFO order guarantees every delta submitted *before* the snapshot is
//! merged before the gate opens, without pausing ingestion of later
//! deltas.

use crate::queue::BoundedQueue;
use crate::wal::{self, DurOptions, Wal};
use ppp_ir::wire::{
    check_frame, split_seq_payload, split_trace_context, Frame, FrameKind, WireError,
    FRAME_HEADER_LEN,
};
use ppp_ir::{
    decode_edge_records, decode_path_records, EdgeRecords, Module, ModuleEdgeProfile,
    ModulePathProfile, PathRecords,
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

/// One message through a shard queue: a delta's records for the
/// functions this shard owns, or a flush gate. Records carry their
/// enqueue time so shards can account queue-wait latency.
enum Msg {
    Edges(EdgeRecords, Instant),
    Paths(PathRecords, Instant),
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
                    .spawn(move || shard_loop(k, &queue, &state, &obs, &bench))
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

    /// Sends each shard its message for one delta: `msgs` holds one
    /// entry per shard, in shard order, `None` where the delta names
    /// none of the shard's functions.
    fn fan_out(&self, msgs: Vec<Option<Msg>>) -> Result<(), IngestError> {
        for (q, msg) in self.queues.iter().zip(msgs) {
            let Some(msg) = msg else { continue };
            self.obs.metrics().observe(
                "ppp_agg_queue_depth",
                &[("bench", &self.bench)],
                q.depth() as u64,
            );
            if !q.push(msg) {
                return Err(IngestError {
                    class: "closed",
                    detail: "aggregator is shutting down".to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Ingests one decoded wire frame.
    ///
    /// A durable aggregator logs the frame re-encoded, which gives the
    /// bytes it arrived in; the TCP server and [`Aggregator::ingest_stream`]
    /// log the received bytes without re-encoding them.
    ///
    /// # Errors
    ///
    /// Refuses frames whose payload is not a binary delta
    /// ([`ppp_ir::delta`]) of the module (`payload`: a persist_v2 text
    /// payload is refused too), sequenced frames that
    /// jump past the client's watermark (`seq-gap`), unsequenced delta
    /// kinds (`protocol`: they bypass the WAL and the watermark), and
    /// server-side frame kinds (`Ack`/`Reject`) arriving inbound.
    /// `Hello` payloads are validated by the transport layer; here they
    /// are accepted as opaque.
    pub fn ingest_frame(&self, frame: &Frame) -> Result<IngestOutcome, IngestError> {
        self.ingest_wire(frame.kind, &frame.encode())
    }

    /// [`Aggregator::ingest_frame`] for a frame still in its wire bytes
    /// (`wire`: header and payload, CRC already checked), which a
    /// durable aggregator appends to its WAL as they are.
    pub(crate) fn ingest_wire(
        &self,
        kind: FrameKind,
        wire: &[u8],
    ) -> Result<IngestOutcome, IngestError> {
        let started = Instant::now();
        let out = match kind {
            FrameKind::Hello | FrameKind::Done => Ok(IngestOutcome::Applied),
            FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta => {
                self.apply_seq(kind, &wire[FRAME_HEADER_LEN..], Some(wire))
            }
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
                detail: format!("{kind} frames are not ingested"),
            }),
        };
        self.obs.metrics().observe(
            ppp_obs::names::INGEST_MICROS,
            &[("bench", &self.bench)],
            started.elapsed().as_micros() as u64,
        );
        out
    }

    /// Core of sequenced ingestion: validate the payload and split it
    /// into per-shard records, dedup against the client watermark,
    /// append `wal_record` to the WAL (recovery replays with `None`),
    /// then fan out, all under the front lock so a concurrent
    /// checkpoint sees a consistent (profiles, watermarks) cut.
    pub(crate) fn apply_seq(
        &self,
        kind: FrameKind,
        payload: &[u8],
        wal_record: Option<&[u8]>,
    ) -> Result<IngestOutcome, IngestError> {
        let (client, seq, container) = split_seq_payload(payload).map_err(|e| IngestError {
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
        // Validate the whole delta against the module before touching
        // any durable state: a damaged payload must be refused, not
        // logged, and never partly merged.
        let shards = self.queues.len();
        let msgs: Vec<Option<Msg>> = match kind {
            FrameKind::SeqEdgeDelta => {
                let parts = decode_edge_records(&self.module, container, shards).map_err(|e| {
                    IngestError {
                        class: "payload",
                        detail: format!("seq edge delta: {e}"),
                    }
                })?;
                let at = Instant::now();
                parts
                    .into_iter()
                    .map(|r| (!r.is_empty()).then_some(Msg::Edges(r, at)))
                    .collect()
            }
            FrameKind::SeqPathDelta => {
                let parts = decode_path_records(&self.module, container, shards).map_err(|e| {
                    IngestError {
                        class: "payload",
                        detail: format!("seq path delta: {e}"),
                    }
                })?;
                let at = Instant::now();
                parts
                    .into_iter()
                    .map(|r| (!r.is_empty()).then_some(Msg::Paths(r, at)))
                    .collect()
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
        if let (Some(record), Some(wal)) = (wal_record, front.wal.as_mut()) {
            if let Err(e) = wal.append(record) {
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
        front.watermarks.insert(client, seq);
        front.since_checkpoint += 1;
        let due = front.dur.as_ref().is_some_and(|d| {
            d.checkpoint_every > 0 && front.since_checkpoint >= d.checkpoint_every
        });
        let fanned = self.fan_out(msgs);
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

    /// Moves each function's row of a loaded checkpoint into its owning
    /// shard's state. Recovery calls this on a fresh aggregator before
    /// any delta, so every row replaces an all-zero one.
    pub(crate) fn seed(&self, edges: ModuleEdgeProfile, paths: ModulePathProfile) {
        let mut states: Vec<_> = self
            .states
            .iter()
            .map(|s| s.lock().expect("shard state lock"))
            .collect();
        let shards = states.len();
        for (fid, (e, p)) in edges.funcs.into_iter().zip(paths.funcs).enumerate() {
            let st = &mut states[fid % shards];
            st.edges.funcs[fid] = e;
            st.paths.funcs[fid] = p;
        }
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
            match check_frame(&bytes[pos..]) {
                Ok((kind, used)) => {
                    match self.ingest_wire(kind, &bytes[pos..pos + used]) {
                        Ok(IngestOutcome::Applied) => {
                            report.bump(kind);
                            report.bytes_accepted += (used - FRAME_HEADER_LEN) as u64;
                            metrics.inc(
                                ppp_obs::names::AGG_FRAMES_INGESTED,
                                &[("bench", bench), ("kind", kind.name())],
                            );
                            metrics.inc_by(
                                "ppp_agg_bytes_ingested_total",
                                &[("bench", bench)],
                                (used - FRAME_HEADER_LEN) as u64,
                            );
                            if kind == FrameKind::Done {
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

/// Body of one shard thread: drain the queue, add each delta's
/// records (all of them for functions this shard owns).
fn shard_loop(
    k: usize,
    queue: &BoundedQueue<Msg>,
    state: &Mutex<ShardState>,
    obs: &ppp_obs::ObsCtx,
    bench: &str,
) {
    let shard_label = k.to_string();
    while let Some(msg) = queue.pop() {
        match msg {
            Msg::Edges(records, enqueued) => {
                record_queue_wait(obs, bench, enqueued);
                let started = Instant::now();
                records.add_to(&mut state.lock().expect("shard state lock").edges);
                record_merge(obs, bench, &shard_label, started);
            }
            Msg::Paths(records, enqueued) => {
                record_queue_wait(obs, bench, enqueued);
                let started = Instant::now();
                records.add_to(&mut state.lock().expect("shard state lock").paths);
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
        encode_edge_delta, encode_path_delta, write_edge_profile_v2, write_path_profile_v2,
        BlockId, EdgeRef, FuncId, FunctionBuilder, PathKey, Reg,
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

    /// Ingests `delta` as client `client`'s sequenced edge frame `seq`.
    fn submit(agg: &Aggregator, client: u64, seq: u64, delta: &ModuleEdgeProfile) {
        let payload = encode_seq_payload(client, seq, &encode_edge_delta(agg.module(), delta));
        let frame = Frame::new(FrameKind::SeqEdgeDelta, payload);
        assert_eq!(
            agg.ingest_frame(&frame).expect("open"),
            IngestOutcome::Applied
        );
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
                submit(&agg, 0, i as u64 + 1, &d);
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
        submit(&agg, 0, 1, &delta_for(&m, 0, 5));
        let (a, _) = agg.snapshot();
        assert_eq!(a.funcs[0].entries(), 5);
        submit(&agg, 0, 2, &delta_for(&m, 0, 5));
        let (b, _) = agg.snapshot();
        assert_eq!(b.funcs[0].entries(), 10, "snapshots are cumulative");
    }

    #[test]
    fn shape_mismatch_is_refused() {
        // Deltas of a 4-function module naming function 3 must never
        // reach the shards of a 3-function aggregator.
        let m = test_module(3);
        let other = test_module(4);
        let agg = Aggregator::new("t", Arc::clone(&m), AggConfig::default());
        let mut paths = ModulePathProfile::with_capacity(4);
        paths.func_mut(FuncId(3)).record(
            other.function(FuncId(3)),
            PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 0)],
            },
            1,
        );
        for (kind, container) in [
            (
                FrameKind::SeqEdgeDelta,
                encode_edge_delta(&other, &delta_for(&other, 3, 2)),
            ),
            (FrameKind::SeqPathDelta, encode_path_delta(&other, &paths)),
        ] {
            let frame = Frame::new(kind, encode_seq_payload(0, 1, &container));
            let err = agg.ingest_frame(&frame).expect_err("mis-shaped delta");
            assert_eq!(err.class, "payload", "{kind}: {err}");
            assert!(err.detail.contains("function 3"), "{err}");
        }
        assert_eq!(agg.watermark(0), 0, "no sequence consumed");
        let (edges, paths) = agg.snapshot();
        assert!(edges.funcs.iter().all(|f| f.is_zero()), "nothing merged");
        assert!(paths.funcs.iter().all(|f| f.paths.is_empty()));
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
            &encode_seq_payload(0, 1, &encode_edge_delta(&m, &d)),
        ));
        stream.extend(encode_frame(
            FrameKind::SeqPathDelta,
            &encode_seq_payload(0, 2, &encode_path_delta(&m, &paths)),
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
            &encode_seq_payload(0, 1, &encode_edge_delta(&m, &d)),
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

        // A frame whose payload passes CRC but fails the decoder
        // (wrong delta kind) is rejected at the payload layer.
        let paths = ModulePathProfile::with_capacity(2);
        let wrong = encode_frame(
            FrameKind::SeqEdgeDelta,
            &encode_seq_payload(0, 1, &encode_path_delta(&m, &paths)),
        );
        let report = agg.ingest_stream(&wrong);
        assert_eq!(report.rejected.len(), 1);
        assert_eq!(report.rejected[0].1.class, "payload");

        let (edges, _) = agg.snapshot();
        assert!(edges.funcs.iter().all(|f| f.is_zero()), "nothing merged");
    }

    #[test]
    fn persist_v2_seq_payloads_are_refused_unlogged() {
        let m = test_module(2);
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ppp-scratch/shard-unit/persist-v2-refused");
        let _ = std::fs::remove_dir_all(&dir);
        let (agg, _) = Aggregator::recover(
            "t",
            Arc::clone(&m),
            AggConfig::default(),
            DurOptions::new(&dir, 0),
        )
        .expect("cold start");
        let mut paths = ModulePathProfile::with_capacity(2);
        paths.func_mut(FuncId(1)).record(
            m.function(FuncId(1)),
            PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 1)],
            },
            2,
        );
        let text = [
            (
                FrameKind::SeqEdgeDelta,
                write_edge_profile_v2(&m, &delta_for(&m, 0, 3)),
            ),
            (FrameKind::SeqPathDelta, write_path_profile_v2(&m, &paths)),
        ];
        for (kind, container) in text {
            let frame = Frame::new(kind, encode_seq_payload(0, 1, container.as_bytes()));
            let err = agg.ingest_frame(&frame).expect_err("text payload refused");
            assert_eq!(err.class, "payload", "{kind}: {err}");
            assert!(err.detail.contains("not a binary delta"), "{err}");
        }
        assert_eq!(agg.watermark(0), 0, "no sequence consumed");
        assert_eq!(agg.frames_since_checkpoint(), 0);
        let (edges, paths) = agg.snapshot();
        assert!(edges.funcs.iter().all(|f| f.is_zero()), "nothing merged");
        assert!(paths.funcs.iter().all(|f| f.paths.is_empty()));
        let wal = crate::wal::scan_wal(&crate::wal::wal_path(&dir, "t")).expect("scan");
        assert!(
            wal.frames.is_empty() && wal.valid_len == 0,
            "nothing logged"
        );
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
                        submit(&agg, w, i + 1, &d);
                    }
                });
            }
        });
        let (edges, _) = agg.snapshot();
        assert_eq!(edges, reference);
    }
}
