//! Localhost TCP transport for the aggregation service.
//!
//! One thread per connection, std networking only. The protocol is the
//! frame stream of [`ppp_ir::wire`]: the first frame must be a `Hello`
//! naming a benchmark the server's resolver can produce a module for;
//! the server replies with an `Ack` frame carrying the client's acked
//! sequence watermark (the reconnect-and-resume point). Sequenced
//! delta frames are merged idempotently (duplicates below the
//! watermark are dropped); on `Done` the server acks the final
//! watermark so the client knows everything it sent was merged before
//! it reads a snapshot.
//!
//! Nothing here hangs and nothing fails silently:
//!
//! - every socket carries read/write deadlines
//!   ([`ServeOptions::read_timeout`]) — a stalled peer (slowloris)
//!   surfaces as a typed [`WireError::TimedOut`], is told so via a
//!   `Reject` frame, and loses the connection;
//! - a server over [`ServeOptions::max_conns`] or past
//!   [`ServeOptions::shed_depth`] *sheds*: it sends a `Reject` with
//!   class `overloaded` and closes, so a retrying client backs off and
//!   resends (the watermark makes that lossless);
//! - damaged frames earn a `Reject` and close the connection (the
//!   wire format has no resync point) — counters already merged
//!   remain valid and the rejection is visible in
//!   `ppp_agg_frames_rejected_total`;
//! - [`Server::shutdown`] drains: connection handlers finish reading
//!   what is in flight, ack it, and (on a durable service) a final
//!   checkpoint is written. [`Server::kill`] is the opposite on
//!   purpose — an abrupt crash for recovery testing.
//!
//! [`ResilientSink`] is the client half of the story: bounded
//! jitter-free exponential backoff ([`RetryPolicy`]), reconnects
//! against a shared (swappable) address, and resumes from the
//! server's acked watermark by resending its retained unacked window.

use crate::service::{AggService, FrameSink, Hello, RetryPolicy};
use crate::shard::{Aggregator, IngestOutcome};
use ppp_ir::wire::{
    decode_frame, encode_frame, encode_reject_payload, encode_seq_payload, split_reject_payload,
    split_seq_payload, Frame, FrameKind, WireError, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use ppp_ir::Module;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Schema tag of the live-introspection document served for a
/// `StatsRequest` frame.
pub const STATS_SCHEMA: &str = "ppp-stats/v1";

/// Resolves the benchmark named by a `Hello` to its module. Returning
/// `None` refuses the connection.
pub type ModuleResolver = dyn Fn(&Hello) -> Option<Arc<Module>> + Send + Sync;

/// Server limits and deadlines.
#[derive(Clone, Copy, Debug)]
pub struct ServeOptions {
    /// Connections beyond this are shed with a `Reject` (`overloaded`).
    pub max_conns: usize,
    /// Per-read deadline. Doubles as the slowloris budget: a peer that
    /// stalls longer mid-frame is rejected with `timed-out`.
    pub read_timeout: Duration,
    /// Per-write deadline (a peer that stops draining our acks).
    pub write_timeout: Duration,
    /// Shed incoming deltas when the deepest shard queue exceeds this
    /// (`None` = rely on backpressure alone).
    pub shed_depth: Option<usize>,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_conns: 64,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            shed_depth: None,
        }
    }
}

/// A frame-read failure: wire damage (including a typed timeout) or a
/// transport error.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ReadError {
    /// Damage in the frame bytes, or a read deadline firing
    /// ([`WireError::TimedOut`]).
    Wire(WireError),
    /// A transport failure outside the frame grammar.
    Io(String),
}

impl ReadError {
    /// Stable machine-readable class (metric labels, reject frames).
    pub fn class(&self) -> &'static str {
        match self {
            ReadError::Wire(e) => e.class(),
            ReadError::Io(_) => "io",
        }
    }
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Wire(e) => e.fmt(f),
            ReadError::Io(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for ReadError {}

fn io_read_error(e: &std::io::Error) -> ReadError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
            ReadError::Wire(WireError::TimedOut)
        }
        _ => ReadError::Io(e.to_string()),
    }
}

/// A running TCP front-end over an [`AggService`].
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    crash: Arc<AtomicBool>,
    frames: Arc<AtomicU64>,
    conns: Arc<Mutex<Vec<Option<TcpStream>>>>,
    service: Arc<AggService>,
    accept_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Starts accepting on `listener` (bind it first — `127.0.0.1:0`
    /// picks a free port). Returns immediately; connections are served
    /// on background threads until [`Server::shutdown`].
    pub fn spawn(
        listener: TcpListener,
        service: Arc<AggService>,
        resolver: Arc<ModuleResolver>,
        options: ServeOptions,
    ) -> std::io::Result<Server> {
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let crash = Arc::new(AtomicBool::new(false));
        let frames = Arc::new(AtomicU64::new(0));
        let conns: Arc<Mutex<Vec<Option<TcpStream>>>> = Arc::new(Mutex::new(Vec::new()));
        let started = Instant::now();
        let accept_thread = {
            let stop = Arc::clone(&stop);
            let crash = Arc::clone(&crash);
            let frames = Arc::clone(&frames);
            let conns = Arc::clone(&conns);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("agg-accept".to_owned())
                .spawn(move || {
                    accept_loop(
                        &listener, &service, &resolver, options, &stop, &crash, &frames, &conns,
                        started,
                    );
                })?
        };
        Ok(Server {
            addr,
            stop,
            crash,
            frames,
            conns,
            service,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Delta frames accepted (merged) so far, across all connections.
    pub fn frames_accepted(&self) -> u64 {
        self.frames.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stops accepting, lets every connection
    /// handler drain and ack what is already in flight, then writes a
    /// final checkpoint on a durable service. A delta the server read
    /// is never dropped by a graceful restart.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        if self.service.is_durable() {
            if let Err(e) = self.service.checkpoint_all() {
                ppp_obs::global().warn(
                    "agg.shutdown_checkpoint_failed",
                    &[("error", ppp_obs::Value::from(e))],
                );
            }
        }
    }

    /// Abrupt crash: kills every connection mid-frame and joins the
    /// threads **without** draining, acking, or checkpointing. This is
    /// deliberately the worst case a client and the recovery path can
    /// face; `repro drive --kill-after` uses it.
    pub fn kill(mut self) {
        // The kill event lands in the flight-recorder ring *before* the
        // dump, so the post-mortem artifact records what died and how
        // much it had accepted.
        ppp_obs::global().warn(
            "server.kill",
            &[
                ("addr", ppp_obs::Value::from(self.addr.to_string())),
                (
                    "frames_accepted",
                    ppp_obs::Value::U64(self.frames_accepted()),
                ),
            ],
        );
        self.crash.store(true, Ordering::SeqCst);
        self.stop.store(true, Ordering::SeqCst);
        for s in self.conns.lock().expect("conns lock").iter().flatten() {
            let _ = s.shutdown(Shutdown::Both);
        }
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        let _ = ppp_obs::flight_dump("server-kill");
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_loop(
    listener: &TcpListener,
    service: &Arc<AggService>,
    resolver: &Arc<ModuleResolver>,
    options: ServeOptions,
    stop: &Arc<AtomicBool>,
    crash: &Arc<AtomicBool>,
    frames: &Arc<AtomicU64>,
    conns: &Arc<Mutex<Vec<Option<TcpStream>>>>,
    started: Instant,
) {
    let active = Arc::new(AtomicUsize::new(0));
    let handles: Mutex<Vec<JoinHandle<()>>> = Mutex::new(Vec::new());
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(options.read_timeout));
        let _ = stream.set_write_timeout(Some(options.write_timeout));
        let _ = stream.set_nodelay(true);
        if active.load(Ordering::SeqCst) >= options.max_conns.max(1) {
            ppp_obs::global()
                .metrics()
                .inc(ppp_obs::names::SHED_TOTAL, &[("reason", "admission")]);
            let _ = send_reject(&mut stream, "overloaded", "connection limit reached; retry");
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let slot = {
            let mut g = conns.lock().expect("conns lock");
            match stream.try_clone() {
                Ok(clone) => {
                    if let Some(i) = g.iter().position(Option::is_none) {
                        g[i] = Some(clone);
                        Some(i)
                    } else {
                        g.push(Some(clone));
                        Some(g.len() - 1)
                    }
                }
                Err(_) => None,
            }
        };
        let service = Arc::clone(service);
        let resolver = Arc::clone(resolver);
        let active = Arc::clone(&active);
        let stop = Arc::clone(stop);
        let crash = Arc::clone(crash);
        let frames = Arc::clone(frames);
        let conns = Arc::clone(conns);
        let handle = std::thread::Builder::new()
            .name("agg-conn".to_owned())
            .spawn(move || {
                // A failed connection must not take the server down;
                // outcomes are reported over the socket and in metrics.
                let _ = serve_connection(
                    &mut stream,
                    &service,
                    &resolver,
                    &options,
                    &stop,
                    &crash,
                    &frames,
                    started,
                );
                if let Some(i) = slot {
                    conns.lock().expect("conns lock")[i] = None;
                }
                active.fetch_sub(1, Ordering::SeqCst);
            });
        if let Ok(h) = handle {
            handles.lock().expect("handles lock").push(h);
        }
        // Reap finished connection threads opportunistically.
        let mut g = handles.lock().expect("handles lock");
        g.retain(|h| !h.is_finished());
    }
    for h in handles.into_inner().expect("handles lock") {
        let _ = h.join();
    }
}

/// Reads exactly one frame from `r`. `Ok(None)` on clean EOF at a frame
/// boundary.
///
/// # Errors
///
/// Wire damage (bad magic/kind/CRC, truncation mid-frame) comes back
/// as [`ReadError::Wire`]; a read deadline firing is the typed
/// [`WireError::TimedOut`]; other transport failures are
/// [`ReadError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<Frame>, ReadError> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    let mut got = 0;
    while got < header.len() {
        match r.read(&mut header[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(ReadError::Wire(WireError::Truncated {
                    expected: FRAME_HEADER_LEN,
                    available: got,
                }))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_read_error(&e)),
        }
    }
    let (_, len, _) = ppp_ir::wire::decode_header(&header).map_err(ReadError::Wire)?;
    if len > MAX_FRAME_PAYLOAD {
        return Err(ReadError::Wire(WireError::Oversize { declared: len }));
    }
    let mut bytes = Vec::with_capacity(FRAME_HEADER_LEN + len);
    bytes.extend_from_slice(&header);
    bytes.resize(FRAME_HEADER_LEN + len, 0);
    let mut at = FRAME_HEADER_LEN;
    while at < bytes.len() {
        match r.read(&mut bytes[at..]) {
            Ok(0) => {
                return Err(ReadError::Wire(WireError::Truncated {
                    expected: FRAME_HEADER_LEN + len,
                    available: at,
                }))
            }
            Ok(n) => at += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_read_error(&e)),
        }
    }
    let (frame, _) = decode_frame(&bytes).map_err(ReadError::Wire)?;
    Ok(Some(frame))
}

fn send_ack(stream: &mut TcpStream, client: u64, watermark: u64) -> std::io::Result<()> {
    stream.write_all(&encode_frame(
        FrameKind::Ack,
        &encode_seq_payload(client, watermark, b""),
    ))
}

fn send_reject(stream: &mut TcpStream, class: &str, detail: &str) -> std::io::Result<()> {
    // A reject is an anomaly worth a post-mortem: dump the flight
    // recorder (no-op when none is installed). The reason is
    // class-deterministic so repeated rejects overwrite one artifact.
    let _ = ppp_obs::flight_dump(&format!("reject-{class}"));
    stream.write_all(&encode_frame(
        FrameKind::Reject,
        &encode_reject_payload(class, detail),
    ))
}

/// Renders the `ppp-stats/v1` live-introspection document: uptime,
/// frames accepted, per-bench shard queue depths and watermarks, and a
/// full metrics-registry snapshot. Served without requiring a `Hello`,
/// and without touching any shard queue — reading stats never disturbs
/// ingestion.
fn stats_json(service: &AggService, started: Instant, frames: u64) -> String {
    let mut benches = Vec::new();
    for key in service.keys() {
        let Some(agg) = service.get(&key) else {
            continue;
        };
        let depths = agg
            .queue_depths()
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join(",");
        let watermarks = agg
            .watermarks()
            .iter()
            .map(|(c, s)| format!("{{\"client\":{c},\"seq\":{s}}}"))
            .collect::<Vec<_>>()
            .join(",");
        benches.push(format!(
            "{{\"bench\":\"{}\",\"shards\":{},\"queue_depths\":[{depths}],\
             \"watermarks\":[{watermarks}],\"frames_since_checkpoint\":{},\
             \"backpressure_stalls\":{}}}",
            ppp_obs::json::escape(&key),
            agg.shards(),
            agg.frames_since_checkpoint(),
            agg.backpressure_stalls(),
        ));
    }
    format!(
        "{{\"schema\":\"{STATS_SCHEMA}\",\"uptime_ms\":{},\"frames_accepted\":{frames},\
         \"durable\":{},\"benches\":[{}],\"registry\":{}}}",
        started.elapsed().as_millis(),
        service.is_durable(),
        benches.join(","),
        ppp_obs::global().metrics().to_json(),
    )
}

/// Requests one live-introspection document from the server at `addr`:
/// a single empty `StatsRequest` frame, answered with a
/// [`STATS_SCHEMA`] JSON text payload.
///
/// # Errors
///
/// Fails on connect/transport errors, a `Reject`, or a non-stats
/// reply.
pub fn fetch_stats(addr: SocketAddr, timeout: Duration) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(&encode_frame(FrameKind::StatsRequest, b""))
        .map_err(|e| e.to_string())?;
    match read_frame(&mut stream) {
        Ok(Some(f)) if f.kind == FrameKind::StatsResponse => {
            String::from_utf8(f.payload).map_err(|_| "stats payload is not utf-8".to_owned())
        }
        Ok(Some(f)) if f.kind == FrameKind::Reject => {
            let (class, detail) = split_reject_payload(&f.payload);
            Err(format!("server rejected: {class}: {detail}"))
        }
        Ok(Some(f)) => Err(format!("expected stats-response, got {} frame", f.kind)),
        Ok(None) => Err("connection closed before stats response".to_owned()),
        Err(e) => Err(format!("reading stats: {e}")),
    }
}

/// Serves one connection to completion: hello (acked with the resume
/// watermark), sequenced deltas, done (acked with the final
/// watermark). Every refusal is a `Reject` frame before the close —
/// never a silent drop.
///
/// # Errors
///
/// Returns a description of the first protocol violation or transport
/// failure; the caller just drops the connection.
#[allow(clippy::too_many_arguments)]
fn serve_connection(
    stream: &mut TcpStream,
    service: &Arc<AggService>,
    resolver: &Arc<ModuleResolver>,
    options: &ServeOptions,
    stop: &AtomicBool,
    crash: &AtomicBool,
    frames: &AtomicU64,
    started: Instant,
) -> Result<(), String> {
    let mut agg: Option<Arc<Aggregator>> = None;
    let mut client_id = 0u64;
    let mut draining = false;
    loop {
        if crash.load(Ordering::SeqCst) {
            return Err("server crashed".to_owned());
        }
        if stop.load(Ordering::SeqCst) && !draining {
            // Graceful stop: keep reading what is already in flight,
            // but shrink the deadline so an idle client releases us.
            draining = true;
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        }
        let frame = match read_frame(stream) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()), // clean EOF
            Err(ReadError::Wire(WireError::TimedOut)) => {
                if crash.load(Ordering::SeqCst) {
                    return Err("server crashed".to_owned());
                }
                if draining || stop.load(Ordering::SeqCst) {
                    // Drained: everything read was merged; final ack.
                    if let Some(a) = &agg {
                        let _ = send_ack(stream, client_id, a.watermark(client_id));
                    }
                    return Ok(());
                }
                // Slowloris: the peer stalled mid-stream. Say so, then
                // close — never pin the thread.
                ppp_obs::global()
                    .metrics()
                    .inc(ppp_obs::names::SHED_TOTAL, &[("reason", "timed-out")]);
                let _ = send_reject(stream, "timed-out", "read deadline fired mid-stream");
                return Err(WireError::TimedOut.to_string());
            }
            Err(e) => {
                let _ = send_reject(stream, e.class(), &e.to_string());
                return Err(e.to_string());
            }
        };
        match frame.kind {
            FrameKind::Hello => {
                let hello = Hello::parse(&frame.payload).inspect_err(|e| {
                    let _ = send_reject(stream, "hello", e);
                })?;
                let module = resolver(&hello).ok_or_else(|| {
                    let msg = format!("unknown benchmark {:?}", hello.bench);
                    let _ = send_reject(stream, "unknown-bench", &msg);
                    msg
                })?;
                if module.functions.len() != hello.funcs {
                    let msg = format!(
                        "hello declares {} functions, server module has {}",
                        hello.funcs,
                        module.functions.len()
                    );
                    let _ = send_reject(stream, "shape", &msg);
                    return Err(msg);
                }
                let a = service.register(&hello.bench, &module).inspect_err(|e| {
                    let _ = send_reject(stream, "register", e);
                })?;
                record_tcp_frame(&a, &frame);
                client_id = hello.worker;
                send_ack(stream, client_id, a.watermark(client_id)).map_err(|e| e.to_string())?;
                agg = Some(a);
            }
            FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta => {
                let Some(a) = &agg else {
                    let _ = send_reject(stream, "no-hello", "delta before hello");
                    return Err("delta before hello".to_owned());
                };
                if let Some(depth) = options.shed_depth {
                    let now = a.max_queue_depth();
                    if now > depth {
                        // Load shedding: refuse *without* applying, so
                        // the watermark stays put and the client's
                        // retry (after backoff) is lossless.
                        ppp_obs::global()
                            .metrics()
                            .inc(ppp_obs::names::SHED_TOTAL, &[("reason", "overloaded")]);
                        let _ = send_reject(
                            stream,
                            "overloaded",
                            &format!("shard queue depth {now} over shed limit {depth}; retry"),
                        );
                        return Err("shed: overloaded".to_owned());
                    }
                }
                match a.ingest_frame(&frame) {
                    Ok(IngestOutcome::Applied) => {
                        frames.fetch_add(1, Ordering::SeqCst);
                        record_tcp_frame(a, &frame);
                    }
                    Ok(IngestOutcome::Duplicate) => {} // counted by the aggregator
                    Err(e) => {
                        let _ = send_reject(stream, e.class, &e.detail);
                        return Err(e.to_string());
                    }
                }
            }
            FrameKind::Done => {
                let Some(a) = &agg else {
                    let _ = send_reject(stream, "no-hello", "done before hello");
                    return Err("done before hello".to_owned());
                };
                record_tcp_frame(a, &frame);
                send_ack(stream, client_id, a.watermark(client_id)).map_err(|e| e.to_string())?;
            }
            FrameKind::StatsRequest => {
                // Live introspection: served without a hello and
                // without touching any shard queue.
                let doc = stats_json(service, started, frames.load(Ordering::SeqCst));
                ppp_obs::global()
                    .metrics()
                    .inc(ppp_obs::names::STATS_SERVED, &[]);
                stream
                    .write_all(&encode_frame(FrameKind::StatsResponse, doc.as_bytes()))
                    .map_err(|e| e.to_string())?;
            }
            FrameKind::EdgeDelta
            | FrameKind::PathDelta
            | FrameKind::Ack
            | FrameKind::Reject
            | FrameKind::StatsResponse => {
                // Server-only kinds, and unsequenced deltas: those would
                // bypass the WAL and the watermark, so an ack would lie.
                let msg = format!("clients may not send {} frames", frame.kind);
                let _ = send_reject(stream, "protocol", &msg);
                return Err(msg);
            }
        }
    }
}

fn record_tcp_frame(agg: &Aggregator, frame: &Frame) {
    let obs = ppp_obs::global();
    let bench = agg.bench();
    obs.metrics().inc(
        "ppp_agg_frames_ingested_total",
        &[("bench", bench), ("kind", frame.kind.name())],
    );
    obs.metrics().inc_by(
        "ppp_agg_bytes_ingested_total",
        &[("bench", bench)],
        frame.payload.len() as u64,
    );
}

/// A [`FrameSink`] writing frames to one TCP connection (no retry —
/// see [`ResilientSink`] for the self-healing variant).
pub struct TcpSink {
    stream: TcpStream,
    hello_watermark: Option<u64>,
}

impl TcpSink {
    /// Connects with 5-second read/write deadlines.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Self::connect_with(addr, Duration::from_secs(5))
    }

    /// Connects with explicit read/write deadlines.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with(addr: SocketAddr, timeout: Duration) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        Ok(Self {
            stream,
            hello_watermark: None,
        })
    }

    /// The watermark the server acked for our hello (the resume
    /// point), once the hello has been sent.
    pub fn hello_watermark(&self) -> Option<u64> {
        self.hello_watermark
    }

    /// Reads one `Ack` frame and returns its watermark.
    ///
    /// # Errors
    ///
    /// A `Reject` frame, wire damage, a timeout, or EOF all fail with
    /// a description (rejects include the server's class + detail).
    pub fn read_ack(&mut self) -> Result<u64, String> {
        read_ack_on(&mut self.stream)
    }

    /// Waits for the server's `Done` ack. Call after
    /// [`crate::AggClient::finish`].
    ///
    /// # Errors
    ///
    /// Fails on transport errors or a non-ack reply.
    pub fn wait_ack(&mut self) -> Result<(), String> {
        self.read_ack().map(|_| ())
    }
}

fn read_ack_on(stream: &mut TcpStream) -> Result<u64, String> {
    match read_frame(stream) {
        Ok(Some(f)) if f.kind == FrameKind::Ack => split_seq_payload(&f.payload)
            .map(|(_, watermark, _)| watermark)
            .map_err(|e| format!("malformed ack: {e}")),
        Ok(Some(f)) if f.kind == FrameKind::Reject => {
            let (class, detail) = split_reject_payload(&f.payload);
            ppp_obs::global()
                .metrics()
                .inc(ppp_obs::names::RETRY_REJECTS, &[("class", &class)]);
            Err(format!("server rejected: {class}: {detail}"))
        }
        Ok(Some(f)) => Err(format!("expected ack, got {} frame", f.kind)),
        Ok(None) => Err("connection closed before ack".to_owned()),
        Err(e) => Err(format!("reading ack: {e}")),
    }
}

fn frame_kind_of(bytes: &[u8]) -> Option<FrameKind> {
    bytes.get(4).copied().and_then(FrameKind::from_byte)
}

impl FrameSink for TcpSink {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream.write_all(bytes).map_err(|e| e.to_string())?;
        if frame_kind_of(bytes) == Some(FrameKind::Hello) {
            self.hello_watermark = Some(self.read_ack()?);
        }
        Ok(())
    }
}

/// Cumulative resilience counters for one [`ResilientSink`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResilientStats {
    /// Sessions established (first connect + every reconnect).
    pub connects: u64,
    /// Backoff sleeps taken.
    pub backoffs: u64,
    /// Frames resent from the retained window after a reconnect.
    pub resent: u64,
    /// Server rejects observed.
    pub rejects: u64,
}

/// A self-healing [`FrameSink`]: deadlines on every socket, bounded
/// jitter-free exponential backoff, reconnect against a shared
/// (swappable) address, and resume from the server's acked watermark.
///
/// Sequenced frames are retained until acked; after a reconnect the
/// sink replays everything above the server's watermark — and because
/// the server dedups below it, an ambiguous failure (did the crashed
/// server merge my last frame?) is safe to answer with "resend".
pub struct ResilientSink {
    addr: Arc<Mutex<SocketAddr>>,
    policy: RetryPolicy,
    timeout: Duration,
    stream: Option<TcpStream>,
    hello: Option<Vec<u8>>,
    /// Unacked sequenced frames, in seq order.
    retained: Vec<(u64, Vec<u8>)>,
    /// Server-acked watermark (frames at or below are pruned).
    acked: u64,
    /// Highest seq written on the *current* session.
    sent_in_session: u64,
    /// Highest seq ever handed to this sink.
    last_seq: u64,
    stats: ResilientStats,
}

impl ResilientSink {
    /// A sink targeting the address in `addr` — shared so an
    /// orchestrator can repoint every client after restarting the
    /// server elsewhere.
    pub fn new(addr: Arc<Mutex<SocketAddr>>, policy: RetryPolicy, timeout: Duration) -> Self {
        Self {
            addr,
            policy,
            timeout,
            stream: None,
            hello: None,
            retained: Vec::new(),
            acked: 0,
            sent_in_session: 0,
            last_seq: 0,
            stats: ResilientStats::default(),
        }
    }

    /// A sink pinned to one address with default policy and a
    /// 5-second deadline.
    pub fn connect(addr: SocketAddr) -> Self {
        Self::new(
            Arc::new(Mutex::new(addr)),
            RetryPolicy::default(),
            Duration::from_secs(5),
        )
    }

    /// Resilience counters so far.
    pub fn stats(&self) -> ResilientStats {
        self.stats
    }

    /// The server-acked sequence watermark.
    pub fn acked(&self) -> u64 {
        self.acked
    }

    fn backoff(&mut self, attempt: u32) {
        self.stats.backoffs += 1;
        ppp_obs::global()
            .metrics()
            .inc(ppp_obs::names::RETRY_BACKOFFS, &[]);
        std::thread::sleep(self.policy.backoff(attempt));
    }

    fn teardown(&mut self) {
        self.stream = None;
        self.sent_in_session = self.acked;
    }

    fn prune(&mut self) {
        let acked = self.acked;
        self.retained.retain(|(seq, _)| *seq > acked);
    }

    /// Establishes a session if none: connect, hello, read the resume
    /// watermark, replay the retained window above it.
    fn ensure_session(&mut self) -> Result<(), String> {
        if self.stream.is_some() {
            return Ok(());
        }
        let hello = self.hello.clone().ok_or("no hello sent yet")?;
        let addr = *self.addr.lock().expect("addr lock");
        let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(self.timeout))
            .map_err(|e| e.to_string())?;
        stream.write_all(&hello).map_err(|e| e.to_string())?;
        let watermark = match read_ack_on(&mut stream) {
            Ok(w) => w,
            Err(e) => {
                self.stats.rejects += 1;
                return Err(e);
            }
        };
        self.stats.connects += 1;
        ppp_obs::global()
            .metrics()
            .inc(ppp_obs::names::RETRY_RECONNECTS, &[]);
        self.acked = self.acked.max(watermark);
        self.prune();
        self.sent_in_session = watermark;
        // Resume: replay everything the server has not acked.
        for (seq, bytes) in &self.retained {
            if *seq <= watermark {
                continue;
            }
            stream.write_all(bytes).map_err(|e| e.to_string())?;
            self.sent_in_session = *seq;
            self.stats.resent += 1;
            ppp_obs::global()
                .metrics()
                .inc(ppp_obs::names::RETRY_RESENT, &[]);
        }
        self.stream = Some(stream);
        Ok(())
    }

    /// One delivery pass: session up, retained window flushed through
    /// `last_seq`.
    fn deliver_window(&mut self) -> Result<(), String> {
        self.ensure_session()?;
        let pending: Vec<(u64, Vec<u8>)> = self
            .retained
            .iter()
            .filter(|(seq, _)| *seq > self.sent_in_session)
            .cloned()
            .collect();
        let Some(stream) = self.stream.as_mut() else {
            return Err("no session".to_owned());
        };
        for (seq, bytes) in pending {
            stream.write_all(&bytes).map_err(|e| e.to_string())?;
            self.sent_in_session = seq;
        }
        Ok(())
    }

    fn with_retry(
        &mut self,
        what: &str,
        mut step: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let mut last = String::new();
        for attempt in 0..self.policy.attempts.max(1) {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            match step(self) {
                Ok(()) => return Ok(()),
                Err(e) => {
                    self.teardown();
                    last = e;
                }
            }
        }
        Err(format!(
            "{what} failed after {} attempts: {last}",
            self.policy.attempts.max(1)
        ))
    }

    /// Sends `Done` and confirms the server's final watermark covers
    /// everything we ever sent, reconnecting and resending as needed.
    fn finish_done(&mut self, bytes: &[u8]) -> Result<(), String> {
        let done = bytes.to_vec();
        let target = self.last_seq;
        self.with_retry("done", move |sink| {
            sink.deliver_window()?;
            let stream = sink.stream.as_mut().ok_or("no session")?;
            stream.write_all(&done).map_err(|e| e.to_string())?;
            let watermark = read_ack_on(stream)?;
            sink.acked = sink.acked.max(watermark);
            sink.prune();
            if watermark < target {
                return Err(format!(
                    "server acked watermark {watermark}, expected {target}"
                ));
            }
            Ok(())
        })
    }
}

impl FrameSink for ResilientSink {
    fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
        match frame_kind_of(bytes) {
            Some(FrameKind::Hello) => {
                self.hello = Some(bytes.to_vec());
                self.with_retry("hello", |sink| sink.ensure_session())
            }
            Some(FrameKind::SeqEdgeDelta) | Some(FrameKind::SeqPathDelta) => {
                let (_, seq, _) = split_seq_payload(&bytes[FRAME_HEADER_LEN..])
                    .map_err(|e| format!("malformed seq frame: {e}"))?;
                if self.retained.last().is_none_or(|(s, _)| *s < seq) {
                    self.retained.push((seq, bytes.to_vec()));
                }
                self.last_seq = self.last_seq.max(seq);
                self.with_retry("delta", |sink| sink.deliver_window())
            }
            Some(FrameKind::Done) => self.finish_done(bytes),
            _ => Err("a delta session carries only hello, sequenced deltas and done".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::AggClient;
    use crate::shard::AggConfig;
    use crate::wal::DurOptions;
    use ppp_ir::{
        write_edge_profile_v2, BlockId, EdgeRef, FunctionBuilder, ModuleEdgeProfile,
        ModulePathProfile, Reg,
    };
    use std::path::PathBuf;

    fn test_module() -> Arc<Module> {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 1);
        let (t, e) = (b.new_block(), b.new_block());
        b.branch(Reg(0), t, e);
        b.switch_to(t);
        b.ret(None);
        b.switch_to(e);
        b.ret(None);
        m.add_function(b.finish());
        Arc::new(m)
    }

    fn test_resolver(m: &Arc<Module>) -> Arc<ModuleResolver> {
        let module = Arc::clone(m);
        Arc::new(move |h: &Hello| (h.bench == "tcp-test").then(|| Arc::clone(&module)))
    }

    fn start_server(m: &Arc<Module>) -> (Server, Arc<AggService>) {
        start_server_with(m, ServeOptions::default())
    }

    fn start_server_with(m: &Arc<Module>, options: ServeOptions) -> (Server, Arc<AggService>) {
        let service = AggService::new(AggConfig {
            shards: 2,
            queue_cap: 8,
        });
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let server = Server::spawn(listener, Arc::clone(&service), test_resolver(m), options)
            .expect("spawn");
        (server, service)
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ppp-scratch/tcp-unit")
            .join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    fn one_delta(m: &Module) -> (ModuleEdgeProfile, ModulePathProfile) {
        let mut delta = ModuleEdgeProfile::zeroed(m);
        let p = &mut delta.funcs[0];
        p.set_entries(1);
        p.set_block(BlockId(0), 1);
        p.set_edge(EdgeRef::new(BlockId(0), 0), 1);
        p.set_block(BlockId(1), 1);
        (delta, ModulePathProfile::with_capacity(1))
    }

    #[test]
    fn full_roundtrip_over_tcp() {
        let m = test_module();
        let (server, service) = start_server(&m);
        let (delta, paths) = one_delta(&m);

        let hello = Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 1,
        };
        let sink = TcpSink::connect(server.addr()).expect("connect");
        let mut client = AggClient::open(Arc::clone(&m), sink, 2, &hello).expect("open");
        for _ in 0..5 {
            client.push_delta(&delta, &paths).expect("push");
        }
        client.finish().expect("finish");
        let last_seq = client.last_seq();
        let mut sink = client.into_sink();
        assert_eq!(
            sink.hello_watermark(),
            Some(0),
            "fresh session resumes at 0"
        );
        let watermark = sink.read_ack().expect("done ack");
        assert_eq!(watermark, last_seq, "server acked everything we sent");

        let agg = service.get("tcp-test").expect("registered");
        let (edges, _) = agg.snapshot();
        assert_eq!(edges.funcs[0].entries(), 5);
        server.shutdown();
    }

    #[test]
    fn corrupt_frame_is_rejected_but_keeps_prior_merges() {
        let m = test_module();
        let (server, service) = start_server(&m);
        let (delta, paths) = one_delta(&m);
        let hello = Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 2,
        };
        let sink = TcpSink::connect(server.addr()).expect("connect");
        let mut client = AggClient::open(Arc::clone(&m), sink, 1, &hello).expect("open");
        client.push_delta(&delta, &paths).expect("push");
        let mut sink = client.into_sink();
        // Garbage after valid frames: the server must reject and
        // close, not panic and not stay silent.
        sink.send_frame(b"garbage-not-a-frame-garbage")
            .expect("send raw");
        match sink.read_ack() {
            Err(e) => assert!(
                e.contains("rejected") || e.contains("closed"),
                "typed refusal, got {e}"
            ),
            Ok(w) => panic!("expected reject, got ack {w}"),
        }
        let agg = service.get("tcp-test").expect("still registered");
        let (edges, _) = agg.snapshot();
        assert_eq!(edges.funcs[0].entries(), 1, "prior merge survived");
        server.shutdown();
    }

    #[test]
    fn unsequenced_delta_gets_a_protocol_reject_and_no_ack() {
        let m = test_module();
        let (server, service) = start_server(&m);
        let (delta, _) = one_delta(&m);
        let hello = Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 4,
        };
        let sink = TcpSink::connect(server.addr()).expect("connect");
        let client = AggClient::open(Arc::clone(&m), sink, 1, &hello).expect("open");
        let mut sink = client.into_sink();
        let container = write_edge_profile_v2(&m, &delta);
        sink.send_frame(&encode_frame(FrameKind::EdgeDelta, container.as_bytes()))
            .expect("send raw");
        match sink.read_ack() {
            Err(e) => assert!(e.contains("rejected: protocol"), "{e}"),
            Ok(w) => panic!("unsequenced delta was acked at watermark {w}"),
        }
        let agg = service.get("tcp-test").expect("registered");
        assert!(agg.snapshot().0.funcs[0].is_zero(), "nothing merged");
        server.shutdown();
    }

    #[test]
    fn unknown_bench_is_rejected_in_the_open() {
        let m = test_module();
        let (server, _service) = start_server(&m);
        let hello = Hello {
            bench: "nope".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 0,
        };
        let sink = TcpSink::connect(server.addr()).expect("connect");
        let err = match AggClient::open(Arc::clone(&m), sink, 1, &hello) {
            Err(e) => e,
            Ok(_) => panic!("unknown bench was accepted"),
        };
        assert!(err.contains("unknown-bench"), "{err}");
        server.shutdown();
    }

    #[test]
    fn stalled_peer_gets_typed_timeout_reject() {
        let m = test_module();
        let (server, service) = start_server_with(
            &m,
            ServeOptions {
                read_timeout: Duration::from_millis(100),
                ..ServeOptions::default()
            },
        );
        let (delta, paths) = one_delta(&m);
        let hello = Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 3,
        };
        let sink = TcpSink::connect(server.addr()).expect("connect");
        let mut client = AggClient::open(Arc::clone(&m), sink, 1, &hello).expect("open");
        client.push_delta(&delta, &paths).expect("push");
        let mut sink = client.into_sink();
        // Send half a frame header, then stall. The server's read
        // deadline must fire and reject with the typed class — the
        // thread is never pinned.
        sink.send_frame(&ppp_ir::wire::FRAME_MAGIC[..2])
            .expect("stall bytes");
        match sink.read_ack() {
            Err(e) => assert!(e.contains("timed-out"), "typed timeout, got {e}"),
            Ok(w) => panic!("expected timed-out reject, got ack {w}"),
        }
        let agg = service.get("tcp-test").expect("registered");
        let (edges, _) = agg.snapshot();
        assert_eq!(edges.funcs[0].entries(), 1, "pre-stall merge survived");
        server.shutdown();
    }

    #[test]
    fn resilient_sink_survives_kill_and_restart_without_double_counting() {
        let m = test_module();
        let dir = scratch("kill-restart");
        let make_service = || {
            AggService::new_durable(
                AggConfig {
                    shards: 2,
                    queue_cap: 8,
                },
                DurOptions::new(&dir, 4),
            )
        };
        let spawn = |service: &Arc<AggService>| {
            Server::spawn(
                TcpListener::bind("127.0.0.1:0").expect("bind"),
                Arc::clone(service),
                test_resolver(&m),
                ServeOptions {
                    read_timeout: Duration::from_millis(200),
                    ..ServeOptions::default()
                },
            )
            .expect("spawn")
        };
        let service_a = make_service();
        let server_a = spawn(&service_a);
        let addr = Arc::new(Mutex::new(server_a.addr()));

        let (delta, paths) = one_delta(&m);
        let hello = Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 7,
        };
        let sink = ResilientSink::new(
            Arc::clone(&addr),
            RetryPolicy {
                attempts: 10,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(50),
            },
            Duration::from_millis(500),
        );
        let mut client = AggClient::open(Arc::clone(&m), sink, 1, &hello).expect("open");
        for _ in 0..3 {
            client.push_delta(&delta, &paths).expect("push");
        }

        // Abrupt kill: no drain, no ack, no final checkpoint. State
        // survives only via checkpoint + WAL.
        server_a.kill();
        drop(service_a);

        // Restart on a fresh port over the same durability dir and
        // repoint the shared address.
        let service_b = make_service();
        let server_b = spawn(&service_b);
        *addr.lock().expect("addr lock") = server_b.addr();

        for _ in 0..3 {
            client
                .push_delta(&delta, &paths)
                .expect("push after restart");
        }
        client.finish().expect("finish");
        let sink = client.into_sink();
        let stats = sink.stats();
        assert!(stats.connects >= 2, "reconnected at least once: {stats:?}");
        assert_eq!(sink.acked(), 12, "all 12 seq frames acked");

        let agg = service_b.register("tcp-test", &m).expect("recovered");
        let (edges, _) = agg.snapshot();
        assert_eq!(
            edges.funcs[0].entries(),
            6,
            "6 deltas exactly once across the kill: {stats:?}"
        );
        server_b.shutdown();
    }

    #[test]
    fn graceful_shutdown_acks_in_flight_and_checkpoints() {
        let m = test_module();
        let dir = scratch("graceful");
        let service = AggService::new_durable(
            AggConfig {
                shards: 2,
                queue_cap: 8,
            },
            // checkpoint_every = 0: only explicit checkpoints, so the
            // file below can only come from the shutdown path.
            DurOptions::new(&dir, 0),
        );
        let server = Server::spawn(
            TcpListener::bind("127.0.0.1:0").expect("bind"),
            Arc::clone(&service),
            test_resolver(&m),
            ServeOptions::default(),
        )
        .expect("spawn");
        let (delta, paths) = one_delta(&m);
        let hello = Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 9,
        };
        let sink = TcpSink::connect(server.addr()).expect("connect");
        let mut client = AggClient::open(Arc::clone(&m), sink, 1, &hello).expect("open");
        for _ in 0..4 {
            client.push_delta(&delta, &paths).expect("push");
        }
        client.finish().expect("finish");
        client.into_sink().wait_ack().expect("done ack");
        server.shutdown();
        assert!(
            crate::wal::checkpoint_path(&dir, "tcp-test").exists(),
            "graceful shutdown wrote a checkpoint"
        );

        // A fresh durable service recovers the acked state.
        let service2 = AggService::new_durable(
            AggConfig {
                shards: 2,
                queue_cap: 8,
            },
            DurOptions::new(&dir, 0),
        );
        let agg = service2.register("tcp-test", &m).expect("recover");
        let (edges, _) = agg.snapshot();
        assert_eq!(edges.funcs[0].entries(), 4, "nothing acked was dropped");
    }

    #[test]
    fn stats_frame_serves_live_introspection_without_disturbing_ingest() {
        let m = test_module();
        let (server, service) = start_server(&m);
        let (delta, paths) = one_delta(&m);
        let hello = Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 4,
        };
        let sink = TcpSink::connect(server.addr()).expect("connect");
        let mut client = AggClient::open(Arc::clone(&m), sink, 1, &hello).expect("open");
        for _ in 0..3 {
            client.push_delta(&delta, &paths).expect("push");
        }

        // Scrape stats over a separate connection, mid-session.
        let doc = fetch_stats(server.addr(), Duration::from_secs(2)).expect("stats");
        let v = ppp_obs::json::parse(&doc).expect("stats JSON parses");
        assert_eq!(
            v.get("schema").and_then(ppp_obs::json::Json::as_str),
            Some(STATS_SCHEMA)
        );
        assert!(v
            .get("uptime_ms")
            .and_then(ppp_obs::json::Json::as_u64)
            .is_some());
        assert!(
            v.get("frames_accepted")
                .and_then(ppp_obs::json::Json::as_u64)
                .expect("frames_accepted")
                >= 6,
            "3 flushed delta pairs visible"
        );
        let benches = v
            .get("benches")
            .and_then(ppp_obs::json::Json::as_arr)
            .expect("benches");
        let bench = benches
            .iter()
            .find(|b| b.get("bench").and_then(ppp_obs::json::Json::as_str) == Some("tcp-test"))
            .expect("tcp-test listed");
        assert_eq!(
            bench
                .get("queue_depths")
                .and_then(ppp_obs::json::Json::as_arr)
                .map(<[ppp_obs::json::Json]>::len),
            Some(2),
            "one depth per shard"
        );
        assert!(v.get("registry").is_some(), "metrics snapshot included");

        // Ingestion was not disturbed: the session finishes cleanly and
        // everything lands.
        client.finish().expect("finish");
        client.into_sink().wait_ack().expect("done ack");
        let agg = service.get("tcp-test").expect("registered");
        let (edges, _) = agg.snapshot();
        assert_eq!(edges.funcs[0].entries(), 3);
        server.shutdown();
    }

    #[test]
    fn admission_overload_is_a_typed_reject() {
        let m = test_module();
        let (server, _service) = start_server_with(
            &m,
            ServeOptions {
                max_conns: 1,
                ..ServeOptions::default()
            },
        );
        // Hold the only slot open with a live session.
        let hello = Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker: 1,
        };
        let sink = TcpSink::connect(server.addr()).expect("connect");
        let _held = AggClient::open(Arc::clone(&m), sink, 1, &hello).expect("open");

        let hello2 = Hello {
            worker: 2,
            ..hello.clone()
        };
        let sink2 = TcpSink::connect(server.addr()).expect("connect");
        let err = match AggClient::open(Arc::clone(&m), sink2, 1, &hello2) {
            Err(e) => e,
            Ok(_) => panic!("over-limit connection was accepted"),
        };
        assert!(err.contains("overloaded"), "{err}");
        server.shutdown();
    }
}
