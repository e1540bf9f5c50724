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
//! it reads a snapshot. Hello, deltas and Done all go through the
//! aggregator's one accounted per-frame step, the same one in-process
//! streams use, so both transports report the same `ppp_agg_*`
//! series.
//!
//! Nothing here hangs and nothing fails silently:
//!
//! - every socket carries read/write deadlines
//!   ([`ServeOptions::timeout`]) — a stalled peer (slowloris)
//!   surfaces as a typed [`WireError::TimedOut`], is told so via a
//!   `Reject` frame, and loses the connection;
//! - a server over [`ServeOptions::max_conns`] *sheds*: it sends a
//!   `Reject` with class `overloaded` and closes, so a retrying client
//!   backs off and resends (the watermark makes that lossless);
//! - damaged or refused frames earn a `Reject` and close the
//!   connection (the wire format has no resync point) — counters
//!   already merged remain valid, and once a `Hello` has bound the
//!   connection the rejection is visible in
//!   `ppp_agg_frames_rejected_total`;
//! - [`Server::shutdown`] drains: connection handlers finish reading
//!   what is in flight, ack it, and (on a durable service) a final
//!   checkpoint is written. [`Server::kill`] is the opposite on
//!   purpose — an abrupt crash for recovery testing.
//!
//! [`TcpSink`] is one plain connection. [`ResilientSink`] is built on
//! it: bounded jitter-free exponential backoff ([`RetryPolicy`]),
//! reconnects (a fresh [`TcpSink`] each) against a shared (swappable)
//! address, and resumes from the server's acked watermark by resending
//! its retained unacked window.

use crate::service::{AggService, FrameSink, Hello, RetryPolicy};
use crate::shard::{Aggregator, IngestOutcome};
use ppp_ir::wire::{
    check_frame, encode_frame, encode_reject_payload, encode_seq_payload, split_reject_payload,
    split_seq_payload, FrameKind, WireError, FRAME_HEADER_LEN, MAX_FRAME_PAYLOAD,
};
use ppp_ir::Module;
use ppp_obs::json;
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
    /// Per-read and per-write deadline. Doubles as the slowloris
    /// budget: a peer that stalls longer mid-frame is rejected with
    /// `timed-out`, and one that stops draining our acks fails the
    /// write.
    pub timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            max_conns: 64,
            timeout: Duration::from_secs(5),
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
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
}

/// What the server handle, its accept thread and every connection
/// thread share.
struct Shared {
    service: Arc<AggService>,
    resolver: Arc<ModuleResolver>,
    options: ServeOptions,
    started: Instant,
    stop: AtomicBool,
    crash: AtomicBool,
    /// Delta frames accepted, across all connections.
    frames: AtomicU64,
    /// The accepted-frame count at which connections stop serving
    /// ([`Server::hold_at`]; `u64::MAX` = never).
    hold_at: AtomicU64,
    /// A connection has stopped at `hold_at`.
    held: AtomicBool,
    /// Connections being served (admission control).
    active: AtomicUsize,
    /// A clone of each live connection's socket, for [`Server::kill`].
    conns: Mutex<Vec<Option<TcpStream>>>,
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
        let shared = Arc::new(Shared {
            service,
            resolver,
            options,
            started: Instant::now(),
            stop: AtomicBool::new(false),
            crash: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            hold_at: AtomicU64::new(u64::MAX),
            held: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            conns: Mutex::new(Vec::new()),
        });
        let accept_thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("agg-accept".to_owned())
                .spawn(move || accept_loop(&listener, &shared))?
        };
        Ok(Server {
            addr,
            shared,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Delta frames accepted (merged) so far, across all connections.
    pub fn frames_accepted(&self) -> u64 {
        self.shared.frames.load(Ordering::SeqCst)
    }

    /// Stops serving at the `n`-th accepted delta frame: each connection
    /// that accepts it, or a later one, then sends nothing more (no ack)
    /// until [`Server::kill`] or shutdown, and [`Server::held`] turns
    /// true. Arm it before clients connect; a crash test then kills the
    /// server mid-stream however fast the clients finish.
    pub fn hold_at(&self, n: u64) {
        self.shared.hold_at.store(n, Ordering::SeqCst);
    }

    /// Whether a connection has stopped at the [`Server::hold_at`] mark.
    pub fn held(&self) -> bool {
        self.shared.held.load(Ordering::SeqCst)
    }

    /// Graceful shutdown: stops accepting, lets every connection
    /// handler drain and ack what is already in flight, then writes a
    /// final checkpoint on a durable service. A delta the server read
    /// is never dropped by a graceful restart.
    pub fn shutdown(mut self) {
        self.stop_accepting();
        let service = &self.shared.service;
        if service.is_durable() {
            if let Err(e) = service.checkpoint_all() {
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
        let Shared { crash, conns, .. } = &*self.shared;
        crash.store(true, Ordering::SeqCst);
        for s in conns.lock().expect("conns lock").iter().flatten() {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.stop_accepting();
        let _ = ppp_obs::flight_dump("server-kill");
    }

    /// Stops the accept loop and joins it, which joins every
    /// connection thread. Idempotent.
    fn stop_accepting(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_accepting();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_read_timeout(Some(shared.options.timeout));
        let _ = stream.set_write_timeout(Some(shared.options.timeout));
        let _ = stream.set_nodelay(true);
        if shared.active.load(Ordering::SeqCst) >= shared.options.max_conns.max(1) {
            ppp_obs::global()
                .metrics()
                .inc(ppp_obs::names::SHED_TOTAL, &[("reason", "admission")]);
            let _ = send_reject(&mut stream, "overloaded", "connection limit reached; retry");
            continue;
        }
        shared.active.fetch_add(1, Ordering::SeqCst);
        let slot = {
            let mut g = shared.conns.lock().expect("conns lock");
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
        let shared = Arc::clone(shared);
        let handle = std::thread::Builder::new()
            .name("agg-conn".to_owned())
            .spawn(move || {
                // A failed connection must not take the server down;
                // outcomes are reported over the socket and in metrics.
                let _ = serve_connection(&mut stream, &shared);
                if let Some(i) = slot {
                    shared.conns.lock().expect("conns lock")[i] = None;
                }
                shared.active.fetch_sub(1, Ordering::SeqCst);
            });
        if let Ok(h) = handle {
            handles.push(h);
        }
        // Reap finished connection threads opportunistically.
        handles.retain(|h| !h.is_finished());
    }
    for h in handles {
        let _ = h.join();
    }
}

/// Reads exactly one frame from `r`: its kind and its CRC-checked wire
/// bytes, header included. `Ok(None)` on clean EOF at a frame boundary.
///
/// # Errors
///
/// Wire damage (bad magic/kind/CRC, truncation mid-frame) comes back
/// as [`ReadError::Wire`]; a read deadline firing is the typed
/// [`WireError::TimedOut`]; other transport failures are
/// [`ReadError::Io`].
pub fn read_frame(r: &mut impl Read) -> Result<Option<(FrameKind, Vec<u8>)>, ReadError> {
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
    let (kind, _) = check_frame(&bytes).map_err(ReadError::Wire)?;
    Ok(Some((kind, bytes)))
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
fn stats_json(shared: &Shared) -> String {
    let service = &shared.service;
    json::object(|o| {
        o.field("schema", STATS_SCHEMA)
            .field("uptime_ms", shared.started.elapsed().as_millis())
            .field("frames_accepted", shared.frames.load(Ordering::SeqCst))
            .field("durable", service.is_durable())
            .objs(
                "benches",
                service
                    .keys()
                    .into_iter()
                    .filter_map(|key| Some((service.get(&key)?, key))),
                |o, (agg, key)| {
                    o.field("bench", key)
                        .field("shards", agg.shards())
                        .field("queue_depths", agg.queue_depths())
                        .objs("watermarks", agg.watermarks(), |o, (c, s)| {
                            o.field("client", c).field("seq", s);
                        })
                        .field("frames_since_checkpoint", agg.frames_since_checkpoint())
                        .field("backpressure_stalls", agg.backpressure_stalls());
                },
            )
            .field("registry", ppp_obs::global().metrics());
    })
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
        Ok(Some((FrameKind::StatsResponse, mut wire))) => {
            String::from_utf8(wire.split_off(FRAME_HEADER_LEN))
                .map_err(|_| "stats payload is not utf-8".to_owned())
        }
        Ok(Some((FrameKind::Reject, wire))) => {
            let (class, detail) = split_reject_payload(&wire[FRAME_HEADER_LEN..]);
            Err(format!("server rejected: {class}: {detail}"))
        }
        Ok(Some((kind, _))) => Err(format!("expected stats-response, got {kind} frame")),
        Ok(None) => Err("connection closed before stats response".to_owned()),
        Err(e) => Err(format!("reading stats: {e}")),
    }
}

/// Serves one connection to completion: hello (acked with the resume
/// watermark), sequenced deltas, done (acked with the final
/// watermark). Every frame after the hello goes through the bound
/// aggregator's accounted step ([`Aggregator::ingest_wire`]), so the
/// metrics match in-process ingestion. Every refusal is a `Reject`
/// frame before the close — never a silent drop.
///
/// # Errors
///
/// Returns a description of the first protocol violation or transport
/// failure; the caller just drops the connection.
fn serve_connection(stream: &mut TcpStream, shared: &Shared) -> Result<(), String> {
    let mut agg: Option<Arc<Aggregator>> = None;
    let mut client_id = 0u64;
    let mut draining = false;
    loop {
        if shared.crash.load(Ordering::SeqCst) {
            return Err("server crashed".to_owned());
        }
        if shared.stop.load(Ordering::SeqCst) && !draining {
            // Graceful stop: keep reading what is already in flight,
            // but shrink the deadline so an idle client releases us.
            draining = true;
            let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
        }
        let (kind, wire) = match read_frame(stream) {
            Ok(Some(f)) => f,
            Ok(None) => return Ok(()), // clean EOF
            Err(ReadError::Wire(WireError::TimedOut)) => {
                if shared.crash.load(Ordering::SeqCst) {
                    return Err("server crashed".to_owned());
                }
                if draining || shared.stop.load(Ordering::SeqCst) {
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
                // Wire damage on a bound connection counts under its
                // bench, as it does in-process.
                if let (Some(a), ReadError::Wire(w)) = (&agg, &e) {
                    a.count_rejected(w.class());
                }
                let _ = send_reject(stream, e.class(), &e.to_string());
                return Err(e.to_string());
            }
        };
        match kind {
            FrameKind::StatsRequest => {
                // Live introspection: served without a hello and
                // without touching any shard queue.
                let doc = stats_json(shared);
                ppp_obs::global()
                    .metrics()
                    .inc(ppp_obs::names::STATS_SERVED, &[]);
                stream
                    .write_all(&encode_frame(FrameKind::StatsResponse, doc.as_bytes()))
                    .map_err(|e| e.to_string())?;
                continue;
            }
            FrameKind::Hello => {
                let hello = Hello::parse(&wire[FRAME_HEADER_LEN..]).inspect_err(|e| {
                    let _ = send_reject(stream, "hello", e);
                })?;
                let module = (shared.resolver)(&hello).ok_or_else(|| {
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
                let a = shared
                    .service
                    .register(&hello.bench, &module)
                    .inspect_err(|e| {
                        let _ = send_reject(stream, "register", e);
                    })?;
                client_id = hello.worker;
                agg = Some(a);
            }
            _ => {}
        }
        let Some(a) = &agg else {
            let msg = format!("{kind} before hello");
            let _ = send_reject(stream, "no-hello", &msg);
            return Err(msg);
        };
        // The WAL gets the bytes as received: no re-encode and no
        // second CRC.
        match a.ingest_wire(kind, &wire) {
            Ok(IngestOutcome::Applied) => {
                if matches!(kind, FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta) {
                    let accepted = shared.frames.fetch_add(1, Ordering::SeqCst) + 1;
                    if accepted >= shared.hold_at.load(Ordering::SeqCst) {
                        return hold(shared);
                    }
                }
            }
            Ok(IngestOutcome::Duplicate) => {}
            Err(e) => {
                let _ = send_reject(stream, e.class, &e.detail);
                return Err(e.to_string());
            }
        }
        if matches!(kind, FrameKind::Hello | FrameKind::Done) {
            send_ack(stream, client_id, a.watermark(client_id)).map_err(|e| e.to_string())?;
        }
    }
}

/// Parks a connection that reached [`Server::hold_at`]: it sends
/// nothing more until the server is killed or shut down, then drops.
#[cold]
fn hold(shared: &Shared) -> Result<(), String> {
    shared.held.store(true, Ordering::SeqCst);
    while !shared.crash.load(Ordering::SeqCst) && !shared.stop.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(1));
    }
    Err("held at the hold mark".to_owned())
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
        match read_frame(&mut self.stream) {
            Ok(Some((FrameKind::Ack, wire))) => split_seq_payload(&wire[FRAME_HEADER_LEN..])
                .map(|(_, watermark, _)| watermark)
                .map_err(|e| format!("malformed ack: {e}")),
            Ok(Some((FrameKind::Reject, wire))) => {
                let (class, detail) = split_reject_payload(&wire[FRAME_HEADER_LEN..]);
                ppp_obs::global()
                    .metrics()
                    .inc(ppp_obs::names::RETRY_REJECTS, &[("class", &class)]);
                Err(format!("server rejected: {class}: {detail}"))
            }
            Ok(Some((kind, _))) => Err(format!("expected ack, got {kind} frame")),
            Ok(None) => Err("connection closed before ack".to_owned()),
            Err(e) => Err(format!("reading ack: {e}")),
        }
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

fn frame_kind_of(bytes: &[u8]) -> Option<FrameKind> {
    bytes.get(4).copied().and_then(FrameKind::from_byte)
}

impl FrameSink for TcpSink {
    /// Writes the frame; a `Hello` also waits for its ack.
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

/// A self-healing [`FrameSink`] built on [`TcpSink`]: deadlines on
/// every socket, bounded jitter-free exponential backoff, reconnect
/// against a shared (swappable) address, and resume from the server's
/// acked watermark.
///
/// Sequenced frames are retained until acked; after a reconnect the
/// sink replays everything above the server's watermark — and because
/// the server dedups below it, an ambiguous failure (did the crashed
/// server merge my last frame?) is safe to answer with "resend".
pub struct ResilientSink {
    addr: Arc<Mutex<SocketAddr>>,
    policy: RetryPolicy,
    timeout: Duration,
    session: Option<TcpSink>,
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
            session: None,
            hello: None,
            retained: Vec::new(),
            acked: 0,
            sent_in_session: 0,
            last_seq: 0,
            stats: ResilientStats::default(),
        }
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
        self.session = None;
        self.sent_in_session = self.acked;
    }

    fn prune(&mut self) {
        let acked = self.acked;
        self.retained.retain(|(seq, _)| *seq > acked);
    }

    /// Establishes a session if none: connect, hello, read the resume
    /// watermark, replay the retained window above it.
    fn ensure_session(&mut self) -> Result<(), String> {
        if self.session.is_some() {
            return Ok(());
        }
        let hello = self.hello.clone().ok_or("no hello sent yet")?;
        let addr = *self.addr.lock().expect("addr lock");
        let mut session = TcpSink::connect_with(addr, self.timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        if let Err(e) = session.send_frame(&hello) {
            self.stats.rejects += 1;
            return Err(e);
        }
        let watermark = session.hello_watermark().unwrap_or(0);
        self.stats.connects += 1;
        ppp_obs::global()
            .metrics()
            .inc(ppp_obs::names::RETRY_RECONNECTS, &[]);
        self.acked = self.acked.max(watermark);
        self.prune();
        self.sent_in_session = watermark;
        // Resume: replay everything the server has not acked.
        for (seq, bytes) in &self.retained {
            session.send_frame(bytes)?;
            self.sent_in_session = *seq;
            self.stats.resent += 1;
            ppp_obs::global()
                .metrics()
                .inc(ppp_obs::names::RETRY_RESENT, &[]);
        }
        self.session = Some(session);
        Ok(())
    }

    /// One delivery pass: session up, retained window flushed through
    /// `last_seq`.
    fn deliver_window(&mut self) -> Result<(), String> {
        self.ensure_session()?;
        let Self {
            session,
            retained,
            sent_in_session,
            ..
        } = self;
        let session = session.as_mut().ok_or("no session")?;
        let from = retained.partition_point(|(seq, _)| *seq <= *sent_in_session);
        for (seq, bytes) in &retained[from..] {
            session.send_frame(bytes)?;
            *sent_in_session = *seq;
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
            let session = sink.session.as_mut().ok_or("no session")?;
            session.send_frame(&done)?;
            let watermark = session.read_ack()?;
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
        write_edge_profile_v2, BlockId, EdgeRef, FuncId, FunctionBuilder, ModuleEdgeProfile,
        ModulePathProfile, PathKey, Reg,
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

    fn hello(worker: u64) -> Hello {
        Hello {
            bench: "tcp-test".to_owned(),
            funcs: 1,
            scale_bits: 0,
            worker,
        }
    }

    /// Opens a session over a plain TCP sink as worker `worker`.
    fn open(server: &Server, m: &Arc<Module>, batch: usize, worker: u64) -> AggClient<TcpSink> {
        let sink = TcpSink::connect(server.addr()).expect("connect");
        AggClient::open(Arc::clone(m), sink, batch, &hello(worker)).expect("open")
    }

    fn test_resolver(m: &Arc<Module>) -> Arc<ModuleResolver> {
        let module = Arc::clone(m);
        Arc::new(move |h: &Hello| (h.bench == "tcp-test").then(|| Arc::clone(&module)))
    }

    fn start_server(m: &Arc<Module>) -> (Server, Arc<AggService>) {
        start_server_with(m, ServeOptions::default())
    }

    fn start_server_with(m: &Arc<Module>, options: ServeOptions) -> (Server, Arc<AggService>) {
        let service = AggService::new(CONFIG);
        (spawn(m, &service, options), service)
    }

    const CONFIG: AggConfig = AggConfig {
        shards: 2,
        queue_cap: 8,
    };

    fn spawn(m: &Arc<Module>, service: &Arc<AggService>, options: ServeOptions) -> Server {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        Server::spawn(listener, Arc::clone(service), test_resolver(m), options).expect("spawn")
    }

    fn durable(dir: &std::path::Path, checkpoint_every: u64) -> Arc<AggService> {
        AggService::new_durable(CONFIG, DurOptions::new(dir, checkpoint_every))
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

        let mut client = open(&server, &m, 2, 1);
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
        let mut client = open(&server, &m, 1, 2);
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
        let client = open(&server, &m, 1, 4);
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
    fn persist_v2_seq_delta_gets_a_payload_reject_and_no_ack() {
        let m = test_module();
        let (server, service) = start_server(&m);
        let (delta, _) = one_delta(&m);
        let client = open(&server, &m, 1, 5);
        let mut sink = client.into_sink();
        let container = write_edge_profile_v2(&m, &delta);
        sink.send_frame(&encode_frame(
            FrameKind::SeqEdgeDelta,
            &encode_seq_payload(5, 1, container.as_bytes()),
        ))
        .expect("send raw");
        match sink.read_ack() {
            Err(e) => assert!(e.contains("rejected: payload"), "{e}"),
            Ok(w) => panic!("persist_v2 seq delta was acked at watermark {w}"),
        }
        let agg = service.get("tcp-test").expect("registered");
        assert!(agg.snapshot().0.funcs[0].is_zero(), "nothing merged");
        assert_eq!(agg.watermark(5), 0, "no sequence consumed");
        server.shutdown();
    }

    #[test]
    fn unknown_bench_is_rejected_in_the_open() {
        let m = test_module();
        let (server, _service) = start_server(&m);
        let hello = Hello {
            bench: "nope".to_owned(),
            ..hello(0)
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
    fn resilient_sink_gives_up_on_a_refused_hello_after_its_attempts() {
        let m = test_module();
        let (server, _service) = start_server(&m);
        let hello = Hello {
            bench: "nope".to_owned(),
            ..hello(0)
        };
        let mut sink = ResilientSink::new(
            Arc::new(Mutex::new(server.addr())),
            RetryPolicy {
                attempts: 2,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(1),
            },
            Duration::from_secs(5),
        );
        let err = match AggClient::open(Arc::clone(&m), &mut sink, 1, &hello) {
            Err(e) => e,
            Ok(_) => panic!("unknown bench was accepted"),
        };
        assert!(err.contains("unknown-bench"), "{err}");
        assert!(err.contains("after 2 attempts"), "{err}");
        let stats = sink.stats();
        assert_eq!((stats.rejects, stats.connects), (2, 0), "{stats:?}");
        server.shutdown();
    }

    #[test]
    fn stalled_peer_gets_typed_timeout_reject() {
        let m = test_module();
        let (server, service) = start_server_with(
            &m,
            ServeOptions {
                timeout: Duration::from_millis(100),
                ..ServeOptions::default()
            },
        );
        let (delta, paths) = one_delta(&m);
        let mut client = open(&server, &m, 1, 3);
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
        let options = ServeOptions {
            timeout: Duration::from_millis(200),
            ..ServeOptions::default()
        };
        let service_a = durable(&dir, 4);
        let server_a = spawn(&m, &service_a, options);
        let addr = Arc::new(Mutex::new(server_a.addr()));

        let (delta, paths) = one_delta(&m);
        let hello = hello(7);
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
        let service_b = durable(&dir, 4);
        let server_b = spawn(&m, &service_b, options);
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
        // checkpoint_every = 0: only explicit checkpoints, so the file
        // below can only come from the shutdown path.
        let service = durable(&dir, 0);
        let server = spawn(&m, &service, ServeOptions::default());
        let (delta, paths) = one_delta(&m);
        let mut client = open(&server, &m, 1, 9);
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
        let agg = durable(&dir, 0).register("tcp-test", &m).expect("recover");
        let (edges, _) = agg.snapshot();
        assert_eq!(edges.funcs[0].entries(), 4, "nothing acked was dropped");
    }

    #[test]
    fn stats_frame_serves_live_introspection_without_disturbing_ingest() {
        let m = test_module();
        let (server, service) = start_server(&m);
        let (delta, paths) = one_delta(&m);
        let mut client = open(&server, &m, 1, 4);
        for _ in 0..3 {
            client.push_delta(&delta, &paths).expect("push");
        }

        // Scrape stats over a separate connection, mid-session. The
        // pushes are not acked, so a scrape can overtake them: poll
        // until the three pairs show or a deadline passes.
        let frames_accepted =
            |v: &json::Json| v.get("frames_accepted").and_then(json::Json::as_u64);
        let deadline = Instant::now() + Duration::from_secs(10);
        let v = loop {
            let doc = fetch_stats(server.addr(), Duration::from_secs(2)).expect("stats");
            let v = ppp_obs::json::parse(&doc).expect("stats JSON parses");
            if frames_accepted(&v).is_some_and(|n| n >= 6) || Instant::now() > deadline {
                break v;
            }
            std::thread::sleep(Duration::from_millis(5));
        };
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

    /// Forwards frames to a [`TcpSink`] and keeps the sequenced ones'
    /// bytes, as sent.
    struct Tee {
        tcp: TcpSink,
        sent: Vec<u8>,
    }

    impl FrameSink for Tee {
        fn send_frame(&mut self, bytes: &[u8]) -> Result<(), String> {
            if matches!(
                frame_kind_of(bytes),
                Some(FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta)
            ) {
                self.sent.extend_from_slice(bytes);
            }
            self.tcp.send_frame(bytes)
        }
    }

    #[test]
    fn wal_logs_delta_frames_as_received_over_tcp() {
        let m = test_module();
        let dir = scratch("wal-as-received");
        let service = durable(&dir, 0);
        let server = spawn(&m, &service, ServeOptions::default());
        let (delta, _) = one_delta(&m);
        let mut paths = ModulePathProfile::with_capacity(1);
        paths.func_mut(FuncId(0)).record(
            m.function(FuncId(0)),
            PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 0)],
            },
            1,
        );
        let hello = hello(3);
        let tee = Tee {
            tcp: TcpSink::connect(server.addr()).expect("connect"),
            sent: Vec::new(),
        };
        let mut client = AggClient::open(Arc::clone(&m), tee, 1, &hello).expect("open");
        for _ in 0..4 {
            client.push_delta(&delta, &paths).expect("push");
        }
        client.finish().expect("finish");
        let mut tee = client.into_sink();
        tee.tcp.wait_ack().expect("done ack");
        // Abrupt kill: no drain and no final checkpoint, so the WAL
        // holds the whole stream.
        server.kill();
        drop(service);

        let wal = std::fs::read(crate::wal::wal_path(&dir, "tcp-test")).expect("read wal");
        assert_eq!(wal, tee.sent, "WAL holds the 8 delta frames as sent");
        let (frames, damage) = ppp_ir::wire::decode_stream(&wal);
        assert!(damage.is_none());
        let reencoded: Vec<u8> = frames
            .iter()
            .flat_map(ppp_ir::wire::Frame::encode)
            .collect();
        assert_eq!(
            wal, reencoded,
            "and as re-encoding the decoded frames gives"
        );
        assert_eq!(frames.len(), 8);

        let service = durable(&dir, 0);
        let agg = service.register("tcp-test", &m).expect("recover");
        assert_eq!(agg.watermark(3), 8, "every logged frame replayed");
        let (edges, paths) = agg.snapshot();
        assert_eq!(edges.funcs[0].entries(), 4);
        assert_eq!(paths.funcs[0].total_unit_flow(), 4);
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
        let _held = open(&server, &m, 1, 1);

        let sink2 = TcpSink::connect(server.addr()).expect("connect");
        let err = match AggClient::open(Arc::clone(&m), sink2, 1, &hello(2)) {
            Err(e) => e,
            Ok(_) => panic!("over-limit connection was accepted"),
        };
        assert!(err.contains("overloaded"), "{err}");
        server.shutdown();
    }
}
