//! The aggregation service and the worker-side streaming client.
//!
//! [`AggService`] hosts one [`Aggregator`] per registered benchmark,
//! keyed by the benchmark name carried in `Hello` frames. Registration
//! is idempotent, so N workers streaming the same benchmark all land on
//! the same aggregator.
//!
//! [`AggClient`] is the producer half: a VM worker hands it profile
//! deltas as they are cut; the client merges them into a local batch
//! (saturating, so batching cannot change the merged result) and ships
//! the batch as wire frames every `max_batch` deltas. Frames flow
//! through a [`FrameSink`] — in-process straight into an aggregator's
//! wire decoder, or over TCP — so the wire path is exercised even when
//! no socket is involved.

use crate::shard::{AggConfig, Aggregator};
use crate::wal::DurOptions;
use ppp_ir::wire::{
    encode_frame, encode_seq_payload, encode_seq_payload_traced, FrameKind, TraceContext,
};
use ppp_ir::{encode_edge_delta, encode_path_delta, Module, ModuleEdgeProfile, ModulePathProfile};
use ppp_obs::{CounterHandle, HistogramHandle};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Contents of a `Hello` frame: which benchmark the following deltas
/// belong to, from which worker.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Hello {
    /// Benchmark (aggregator registry key).
    pub bench: String,
    /// Function count of the worker's module — cross-checked against
    /// the server's module so mismatched builds are refused up front.
    pub funcs: usize,
    /// Workload scale factor as exact `f64` bits (text-safe).
    pub scale_bits: u64,
    /// Worker id (diagnostics only).
    pub worker: u64,
}

impl Hello {
    /// Serializes into a `Hello` frame payload.
    pub fn encode(&self) -> Vec<u8> {
        format!(
            "ppp-agg hello v1\nbench {}\nfuncs {}\nscale_bits {:016x}\nworker {}\n",
            self.bench, self.funcs, self.scale_bits, self.worker
        )
        .into_bytes()
    }

    /// Parses a `Hello` frame payload.
    ///
    /// # Errors
    ///
    /// Returns a description of the first malformed line. Never panics.
    pub fn parse(payload: &[u8]) -> Result<Hello, String> {
        let text = std::str::from_utf8(payload).map_err(|_| "hello is not utf-8".to_owned())?;
        let mut lines = text.lines();
        if lines.next() != Some("ppp-agg hello v1") {
            return Err("missing hello header".to_owned());
        }
        let mut bench = None;
        let mut funcs = None;
        let mut scale_bits = None;
        let mut worker = None;
        for line in lines {
            let Some((key, value)) = line.split_once(' ') else {
                return Err(format!("malformed hello line {line:?}"));
            };
            match key {
                "bench" => bench = Some(value.to_owned()),
                "funcs" => {
                    funcs = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| format!("bad funcs count {value:?}"))?,
                    );
                }
                "scale_bits" => {
                    scale_bits = Some(
                        u64::from_str_radix(value, 16)
                            .map_err(|_| format!("bad scale_bits {value:?}"))?,
                    );
                }
                "worker" => {
                    worker = Some(
                        value
                            .parse::<u64>()
                            .map_err(|_| format!("bad worker id {value:?}"))?,
                    );
                }
                _ => return Err(format!("unknown hello key {key:?}")),
            }
        }
        Ok(Hello {
            bench: bench.ok_or("hello missing bench")?,
            funcs: funcs.ok_or("hello missing funcs")?,
            scale_bits: scale_bits.unwrap_or(0),
            worker: worker.unwrap_or(0),
        })
    }
}

/// A registry of per-benchmark aggregators.
pub struct AggService {
    config: AggConfig,
    aggs: Mutex<BTreeMap<String, Arc<Aggregator>>>,
    durability: Option<DurOptions>,
}

impl AggService {
    /// Creates an empty service; every registered aggregator uses
    /// `config`.
    pub fn new(config: AggConfig) -> Arc<Self> {
        Arc::new(Self {
            config,
            aggs: Mutex::new(BTreeMap::new()),
            durability: None,
        })
    }

    /// Creates a *durable* service: every registered aggregator
    /// checkpoints + WALs under `durability.dir`, and registration
    /// recovers whatever state survives there — so restarting a
    /// crashed service and re-registering a benchmark resumes from the
    /// last durable cut instead of zero.
    pub fn new_durable(config: AggConfig, durability: DurOptions) -> Arc<Self> {
        Arc::new(Self {
            config,
            aggs: Mutex::new(BTreeMap::new()),
            durability: Some(durability),
        })
    }

    /// `true` when registrations recover from / persist to disk.
    pub fn is_durable(&self) -> bool {
        self.durability.is_some()
    }

    /// Returns the aggregator for `bench`, spawning it on first use.
    /// On a durable service, first use recovers checkpoint + WAL state
    /// from the durability directory.
    ///
    /// # Errors
    ///
    /// Refuses re-registration under the same key with a different
    /// module shape (two workers disagreeing about the program must not
    /// share an accumulator), and propagates recovery failures.
    pub fn register(&self, bench: &str, module: &Arc<Module>) -> Result<Arc<Aggregator>, String> {
        let mut aggs = self.aggs.lock().expect("service lock");
        if let Some(existing) = aggs.get(bench) {
            if existing.module().functions.len() != module.functions.len() {
                return Err(format!(
                    "benchmark {bench:?} already registered with {} functions, got {}",
                    existing.module().functions.len(),
                    module.functions.len()
                ));
            }
            return Ok(Arc::clone(existing));
        }
        let agg = match &self.durability {
            Some(dur) => {
                let (agg, report) =
                    Aggregator::recover(bench, Arc::clone(module), self.config, dur.clone())?;
                if !report.cold_start() {
                    ppp_obs::global().info(
                        "agg.recovered",
                        &[
                            ("bench", ppp_obs::Value::from(bench)),
                            ("summary", ppp_obs::Value::from(report.summary())),
                        ],
                    );
                }
                agg
            }
            None => Aggregator::new(bench, Arc::clone(module), self.config),
        };
        let agg = Arc::new(agg);
        aggs.insert(bench.to_owned(), Arc::clone(&agg));
        Ok(agg)
    }

    /// Checkpoints every registered durable aggregator (graceful
    /// shutdown path). Returns the number checkpointed.
    ///
    /// # Errors
    ///
    /// Reports the first failure after attempting every aggregator.
    pub fn checkpoint_all(&self) -> Result<usize, String> {
        let aggs: Vec<Arc<Aggregator>> = self
            .aggs
            .lock()
            .expect("service lock")
            .values()
            .cloned()
            .collect();
        let mut written = 0;
        let mut first_err = None;
        for agg in aggs {
            match agg.checkpoint() {
                Ok(true) => written += 1,
                Ok(false) => {}
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(written),
        }
    }

    /// The aggregator registered for `bench`, if any.
    pub fn get(&self, bench: &str) -> Option<Arc<Aggregator>> {
        self.aggs.lock().expect("service lock").get(bench).cloned()
    }

    /// Registered benchmark keys, sorted.
    pub fn keys(&self) -> Vec<String> {
        self.aggs
            .lock()
            .expect("service lock")
            .keys()
            .cloned()
            .collect()
    }
}

/// Where a client's frames go.
pub trait FrameSink {
    /// Delivers one encoded frame.
    ///
    /// # Errors
    ///
    /// Returns a description of the delivery failure.
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String>;
}

/// A borrowed sink delivers to the sink it borrows, so a caller keeps
/// the sink (and its counters) after the client is gone.
impl<S: FrameSink + ?Sized> FrameSink for &mut S {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).send_frame(bytes)
    }
}

/// A boxed sink, so one client type serves any transport.
impl<S: FrameSink + ?Sized> FrameSink for Box<S> {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        (**self).send_frame(bytes)
    }
}

/// Delivers frames straight into an [`Aggregator`]'s wire decoder —
/// deliberately through the full encode/decode/CRC path, so in-process
/// aggregation exercises exactly the bytes TCP would carry.
pub struct InProcSink {
    agg: Arc<Aggregator>,
}

impl InProcSink {
    /// A sink feeding `agg`.
    pub fn new(agg: Arc<Aggregator>) -> Self {
        Self { agg }
    }
}

impl FrameSink for InProcSink {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        let report = self.agg.ingest_stream(bytes);
        if let Some((off, e)) = &report.wire_error {
            return Err(format!("wire damage at byte {off}: {e}"));
        }
        if let Some((i, e)) = report.rejected.first() {
            return Err(format!("frame {i} rejected: {e}"));
        }
        Ok(())
    }
}

/// Deterministic, jitter-free retry schedule for resilient sinks:
/// attempt `n` sleeps `min(base << n, cap)`. No randomness — the same
/// failure sequence always produces the same schedule, which keeps
/// chaos and drive runs reproducible.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Delivery attempts before giving up (min 1).
    pub attempts: u32,
    /// First backoff sleep.
    pub base: Duration,
    /// Backoff ceiling.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 8,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(400),
        }
    }
}

impl RetryPolicy {
    /// The sleep before retry number `attempt` (0-based).
    pub fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.min(16);
        let exp = self.base.checked_mul(1u32 << shift).unwrap_or(self.cap);
        exp.min(self.cap)
    }
}

/// The worker-side streaming client: batches deltas, ships sequenced
/// frames. Every delta frame carries `(client id, seq)` — the client
/// id is the hello's `worker`, the sequence is strictly monotonic from
/// 1 — so the server can drop retried duplicates and report an acked
/// watermark for reconnect-and-resume.
pub struct AggClient<S: FrameSink> {
    module: Arc<Module>,
    sink: S,
    max_batch: usize,
    batch_edges: ModuleEdgeProfile,
    batch_paths: ModulePathProfile,
    batched: usize,
    /// Client id carried in sequenced frames (the hello's `worker`).
    client: u64,
    /// Next sequence number to assign.
    next_seq: u64,
    /// Frames sent, by kind (diagnostics).
    frames_sent: u64,
    /// Payload bytes sent.
    bytes_sent: u64,
    finished: bool,
    /// When set, flushed frames carry a trace context (this trace id +
    /// the send span's id) so server-side apply spans stitch under
    /// this client's send spans. `None` keeps the wire bytes identical
    /// to an untraced client.
    trace_id: Option<u64>,
    /// The process-global context when the client opened: its send
    /// spans and metrics go there.
    obs: ppp_obs::ObsCtx,
    /// `ppp_agg_client_frames_sent_total{kind}`, one per frame kind.
    sent_by_kind: Vec<(FrameKind, CounterHandle)>,
    batch_deltas: HistogramHandle,
}

impl<S: FrameSink> AggClient<S> {
    /// Opens a session: sends `hello` immediately, then batches up to
    /// `max_batch` deltas (min 1) per frame pair.
    ///
    /// # Errors
    ///
    /// Fails if the hello frame cannot be delivered.
    pub fn open(
        module: Arc<Module>,
        sink: S,
        max_batch: usize,
        hello: &Hello,
    ) -> Result<Self, String> {
        let obs = ppp_obs::global();
        let metrics = obs.metrics();
        let mut client = Self {
            batch_edges: ModuleEdgeProfile::zeroed(&module),
            batch_paths: ModulePathProfile::with_capacity(module.functions.len()),
            module,
            sink,
            max_batch: max_batch.max(1),
            batched: 0,
            client: hello.worker,
            next_seq: 1,
            frames_sent: 0,
            bytes_sent: 0,
            finished: false,
            trace_id: None,
            sent_by_kind: FrameKind::ALL
                .iter()
                .map(|&k| {
                    let labels = [("kind", k.name())];
                    (
                        k,
                        metrics.counter("ppp_agg_client_frames_sent_total", &labels),
                    )
                })
                .collect(),
            batch_deltas: metrics.histogram("ppp_agg_batch_deltas", &[]),
            obs,
        };
        client.send(FrameKind::Hello, &hello.encode())?;
        Ok(client)
    }

    /// Adds one delta to the current batch, flushing when full. The
    /// local batch merge saturates, so batch size cannot change the
    /// aggregate.
    ///
    /// # Errors
    ///
    /// Propagates delivery failures from a triggered flush.
    pub fn push_delta(
        &mut self,
        edges: &ModuleEdgeProfile,
        paths: &ModulePathProfile,
    ) -> Result<(), String> {
        self.batch_edges.merge(edges);
        self.batch_paths.merge(paths);
        self.batched += 1;
        if self.batched >= self.max_batch {
            self.flush()?;
        }
        Ok(())
    }

    /// Ships the current batch as an edge frame + a path frame.
    ///
    /// # Errors
    ///
    /// Propagates delivery failures.
    pub fn flush(&mut self) -> Result<(), String> {
        if self.batched == 0 {
            return Ok(());
        }
        self.batch_deltas.observe(self.batched as u64);
        let edges = encode_edge_delta(&self.module, &self.batch_edges);
        let paths = encode_path_delta(&self.module, &self.batch_paths);
        // The send span's id rides inside the frames, so it must be
        // open (and allocated) before the payloads are encoded; it
        // closes when this flush returns, covering the delivery.
        let send_span = self.trace_id.map(|tid| {
            let mut s = self.obs.span("client.send");
            s.set("trace_id", tid);
            s.set("client", self.client);
            s.set("first_seq", self.next_seq);
            s
        });
        let (seq_edges, seq_paths) = match (&send_span, self.trace_id) {
            (Some(span), Some(tid)) => {
                let ctx = TraceContext::sampled(tid, span.id());
                (
                    encode_seq_payload_traced(self.client, self.next_seq, &ctx, &edges),
                    encode_seq_payload_traced(self.client, self.next_seq + 1, &ctx, &paths),
                )
            }
            _ => (
                encode_seq_payload(self.client, self.next_seq, &edges),
                encode_seq_payload(self.client, self.next_seq + 1, &paths),
            ),
        };
        self.send(FrameKind::SeqEdgeDelta, &seq_edges)?;
        self.next_seq += 1;
        self.send(FrameKind::SeqPathDelta, &seq_paths)?;
        self.next_seq += 1;
        for f in &mut self.batch_edges.funcs {
            f.zero();
        }
        for f in &mut self.batch_paths.funcs {
            f.clear();
        }
        self.batched = 0;
        Ok(())
    }

    /// Flushes any remainder and sends `Done`. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates delivery failures.
    pub fn finish(&mut self) -> Result<(), String> {
        if self.finished {
            return Ok(());
        }
        self.flush()?;
        self.send(FrameKind::Done, b"")?;
        self.finished = true;
        Ok(())
    }

    /// Enables distributed tracing for subsequent flushes: each frame
    /// pair carries `(trace_id, send-span id)` so the server's
    /// `shard.apply` span stitches under this client's `client.send`.
    pub fn set_trace_id(&mut self, trace_id: u64) {
        self.trace_id = Some(trace_id);
    }

    /// `(frames, payload bytes)` sent so far.
    pub fn sent(&self) -> (u64, u64) {
        (self.frames_sent, self.bytes_sent)
    }

    /// Highest sequence number assigned so far (0 before any flush).
    /// After a clean `finish`, the server's acked watermark for this
    /// client must equal this.
    pub fn last_seq(&self) -> u64 {
        self.next_seq - 1
    }

    /// Consumes the client, returning its sink (e.g. to read a TCP ack).
    pub fn into_sink(self) -> S {
        self.sink
    }

    fn send(&mut self, kind: FrameKind, payload: &[u8]) -> Result<(), String> {
        let bytes = encode_frame(kind, payload);
        self.sink.send_frame(&bytes)?;
        self.frames_sent += 1;
        self.bytes_sent += payload.len() as u64;
        if let Some((_, sent)) = self.sent_by_kind.iter().find(|(k, _)| *k == kind) {
            sent.inc();
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::{BlockId, EdgeRef, FunctionBuilder, Reg};

    fn test_module() -> Arc<Module> {
        let mut m = Module::new();
        for i in 0..3 {
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

    #[test]
    fn hello_roundtrip_and_damage() {
        let h = Hello {
            bench: "mcf".to_owned(),
            funcs: 12,
            scale_bits: 0.25f64.to_bits(),
            worker: 3,
        };
        assert_eq!(Hello::parse(&h.encode()), Ok(h.clone()));
        assert!(Hello::parse(b"nope").is_err());
        assert!(Hello::parse(b"ppp-agg hello v1\nfuncs twelve\n").is_err());
        assert!(
            Hello::parse(b"ppp-agg hello v1\nfuncs 3\n").is_err(),
            "bench required"
        );
    }

    #[test]
    fn service_registration_is_idempotent_and_shape_checked() {
        let m = test_module();
        let svc = AggService::new(AggConfig::default());
        let a = svc.register("crafty", &m).expect("register");
        let b = svc.register("crafty", &m).expect("re-register");
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(svc.keys(), vec!["crafty".to_owned()]);

        let mut other = Module::new();
        let mut fb = FunctionBuilder::new("only", 0);
        fb.ret(None);
        other.add_function(fb.finish());
        assert!(svc.register("crafty", &Arc::new(other)).is_err());
        assert!(svc.get("crafty").is_some());
        assert!(svc.get("vpr").is_none());
    }

    #[test]
    fn client_batches_and_aggregates_through_the_wire() {
        let m = test_module();
        let svc = AggService::new(AggConfig {
            shards: 2,
            queue_cap: 8,
        });
        let agg = svc.register("gap", &m).expect("register");

        let mut delta = ModuleEdgeProfile::zeroed(&m);
        let p = &mut delta.funcs[1];
        p.set_entries(2);
        p.set_block(BlockId(0), 2);
        p.set_edge(EdgeRef::new(BlockId(0), 1), 2);
        p.set_block(BlockId(2), 2);
        let paths = ModulePathProfile::with_capacity(3);

        let hello = Hello {
            bench: "gap".to_owned(),
            funcs: 3,
            scale_bits: 0,
            worker: 0,
        };
        let mut client =
            AggClient::open(Arc::clone(&m), InProcSink::new(Arc::clone(&agg)), 4, &hello)
                .expect("open");
        for _ in 0..10 {
            client.push_delta(&delta, &paths).expect("push");
        }
        client.finish().expect("finish");
        client.finish().expect("idempotent");
        // 10 deltas at batch 4 = 3 flushes = 1 hello + 6 delta frames + done.
        assert_eq!(client.sent().0, 8);

        let (edges, _) = agg.snapshot();
        assert_eq!(edges.funcs[1].entries(), 20);
        assert_eq!(edges.funcs[1].edge(EdgeRef::new(BlockId(0), 1)), 20);
    }

    #[test]
    fn traced_client_stitches_send_and_apply_spans() {
        let (ctx, collect) = ppp_obs::ObsCtx::collecting();
        ppp_obs::install_global(ctx);
        let m = test_module();
        // Created after install_global so the aggregator observes into
        // the collecting context.
        let svc = AggService::new(AggConfig::default());
        let agg = svc.register("traced", &m).expect("register");
        let hello = Hello {
            bench: "traced".to_owned(),
            funcs: 3,
            scale_bits: 0,
            worker: 7,
        };
        let mut client =
            AggClient::open(Arc::clone(&m), InProcSink::new(Arc::clone(&agg)), 1, &hello)
                .expect("open");
        client.set_trace_id(0xABCD);
        client
            .push_delta(
                &ModuleEdgeProfile::zeroed(&m),
                &ModulePathProfile::with_capacity(3),
            )
            .expect("push");
        client.finish().expect("finish");
        ppp_obs::install_global(ppp_obs::ObsCtx::noop());

        // Partition the shared stream into the two "processes".
        let recs = collect.records();
        let local: Vec<_> = recs
            .iter()
            .filter(|r| r.name == "client.send")
            .cloned()
            .collect();
        let remote: Vec<_> = recs
            .iter()
            .filter(|r| r.name == "shard.apply")
            .cloned()
            .collect();
        assert!(!local.is_empty() && !remote.is_empty());

        let tree = ppp_obs::SpanTree::stitch(&local, &remote);
        assert_eq!(tree.roots.len(), 1, "one flush, one trace");
        let send = &tree.roots[0];
        assert_eq!(send.name, "client.send");
        // One flush ships an edge + a path frame: two apply spans.
        assert_eq!(send.children.len(), 2);
        for apply in &send.children {
            assert_eq!(apply.name, "shard.apply");
            assert_eq!(
                apply.fields.iter().find(|(k, _)| k == "trace_id"),
                Some(&("trace_id".to_owned(), ppp_obs::Value::U64(0xABCD)))
            );
        }
    }
}
