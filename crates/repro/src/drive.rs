//! `repro drive`: a parallel load generator for the aggregation service.
//!
//! N worker threads each run traced benchmarks with incremental delta
//! export enabled and stream the deltas — through the real wire encoder
//! — into a K-way sharded [`Aggregator`](ppp_agg::Aggregator). Three
//! transports share one code path: in-process frame delivery (the
//! default), a self-hosted localhost TCP server (`--tcp`), and an
//! external server started with `repro serve` (`--connect ADDR`).
//!
//! Besides generating load, the driver *checks* the aggregation
//! contract on every run: each benchmark's merged snapshot must equal
//! the saturating merge of the same runs' single-shot profiles (so the
//! deterministic persist_v2 writer emits the same bytes for both), and
//! must pass the PPP308
//! flow-conservation lint. Throughput is reported as sustained VM
//! events (dynamic steps) per second across all workers.

use crate::format::Table;
use crate::pipeline::selects;
use ppp_agg::{
    run_indexed, AggClient, AggConfig, AggService, DurOptions, FrameSink, Hello, InProcSink,
    ResilientSink, RetryPolicy, ServeOptions, Server,
};
use ppp_ir::{Module, ModuleEdgeProfile, ModulePathProfile};
use ppp_obs::{json, names, Histogram};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, spec2000_suite};
use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How driver workers reach the aggregation service.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Transport {
    /// Frames are encoded and decoded in process (no socket). The wire
    /// path — framing, CRC, binary delta payloads — is still exercised.
    InProc,
    /// The driver hosts its own server on `127.0.0.1:0` and every
    /// worker connects over real TCP.
    Tcp,
    /// Workers connect to an external `repro serve` instance. The
    /// driver cannot snapshot a remote aggregator, so the determinism
    /// and lint verdicts are skipped.
    Connect(SocketAddr),
}

/// Load-driver configuration (`repro drive` flags).
#[derive(Clone, Debug)]
pub struct DriveOptions {
    /// Parallel VM workers streaming deltas.
    pub workers: usize,
    /// Aggregator shards (in-proc and self-hosted TCP modes).
    pub shards: usize,
    /// Traced runs per benchmark; repeat `r` uses seed `seed + r`.
    pub repeats: usize,
    /// Workload scale factor.
    pub scale: f64,
    /// Base VM seed.
    pub seed: u64,
    /// Trace events per delta cut ([`RunOptions::delta_interval`]).
    pub delta_interval: u64,
    /// Deltas merged per shipped batch ([`AggClient`]).
    pub batch: usize,
    /// How frames reach the service.
    pub transport: Transport,
    /// Durability directory (`--checkpoint-dir`): the service
    /// checkpoints and WALs under it, and recovers from it.
    pub checkpoint_dir: Option<PathBuf>,
    /// Deltas between automatic checkpoints (`--checkpoint-every`;
    /// 0 = only explicit/shutdown checkpoints).
    pub checkpoint_every: u64,
    /// Kill the self-hosted TCP server abruptly after it accepts this
    /// many frames, restart it over the same durability directory, and
    /// let the resilient clients reconnect and resume. Requires
    /// `--tcp` and `--checkpoint-dir`.
    pub kill_after: Option<u64>,
}

impl Default for DriveOptions {
    fn default() -> Self {
        Self {
            workers: 4,
            shards: 4,
            repeats: 2,
            scale: 0.05,
            seed: 0x5EED,
            delta_interval: 2048,
            batch: 4,
            transport: Transport::InProc,
            checkpoint_dir: None,
            checkpoint_every: 64,
            kill_after: None,
        }
    }
}

impl DriveOptions {
    fn durability(&self) -> Option<DurOptions> {
        self.checkpoint_dir
            .as_ref()
            .map(|dir| DurOptions::new(dir, self.checkpoint_every))
    }
}

/// One benchmark's aggregate outcome across all its repeats.
#[derive(Clone, Debug)]
pub struct BenchDrive {
    /// Benchmark name.
    pub bench: String,
    /// Completed runs.
    pub runs: usize,
    /// Wire frames shipped by this benchmark's clients.
    pub frames: u64,
    /// Wire payload bytes shipped.
    pub bytes: u64,
    /// Profile deltas cut and streamed.
    pub deltas: u64,
    /// Dynamic VM steps executed across the runs.
    pub events: u64,
    /// Snapshot byte-identical to the local reference merge
    /// (`None` under `--connect`: no local snapshot to compare).
    pub deterministic: Option<bool>,
    /// Snapshot passed the PPP308 flow-conservation lint.
    pub lint_clean: Option<bool>,
}

/// Full outcome of one `repro drive` invocation.
#[derive(Clone, Debug)]
pub struct DriveReport {
    /// Per-benchmark outcomes, in suite order.
    pub benches: Vec<BenchDrive>,
    /// Configuration echo: worker threads.
    pub workers: usize,
    /// Configuration echo: shards.
    pub shards: usize,
    /// Configuration echo: repeats per benchmark.
    pub repeats: usize,
    /// Transport label ("in-proc", "tcp", or the connect address).
    pub transport: String,
    /// Wall-clock time of the whole drive, milliseconds.
    pub wall_ms: f64,
    /// Sustained VM events per second across all workers
    /// (machine-dependent; reported, never gated).
    pub events_per_sec: f64,
    /// Mid-run server kills injected (`--kill-after`) that actually
    /// fired. The determinism verdicts still have to hold across them.
    pub kills: u64,
    /// Per-frame ingest latency quantiles (`ppp_agg_ingest_micros`)
    /// over the drive window; `None` when nothing was observed.
    pub ingest_latency: Option<Quantiles>,
    /// Shard queue-wait quantiles (`ppp_agg_queue_wait_micros`).
    pub queue_wait: Option<Quantiles>,
    /// WAL append quantiles (`ppp_wal_append_micros`); `None` without
    /// `--checkpoint-dir`.
    pub wal_append: Option<Quantiles>,
}

impl DriveReport {
    /// Total frames shipped.
    pub fn frames(&self) -> u64 {
        self.benches.iter().map(|b| b.frames).sum()
    }

    /// Total wire payload bytes shipped.
    pub fn bytes(&self) -> u64 {
        self.benches.iter().map(|b| b.bytes).sum()
    }

    /// `true` when every checked benchmark was byte-identical and
    /// lint-clean (vacuously true under `--connect`).
    pub fn ok(&self) -> bool {
        self.benches
            .iter()
            .all(|b| b.deterministic.unwrap_or(true) && b.lint_clean.unwrap_or(true))
    }
}

/// Conservative tail-latency quantiles for one latency histogram, in
/// microseconds: the log2-bucket upper bound holding the rank, so p50
/// /p95/p99 never underestimate.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Quantiles {
    /// Observations inside the drive window.
    pub count: u64,
    /// Median, microseconds (bucket upper bound).
    pub p50: u64,
    /// 95th percentile, microseconds.
    pub p95: u64,
    /// 99th percentile, microseconds.
    pub p99: u64,
}

/// The latency histograms surfaced in the drive report, in field order
/// (ingest, queue-wait, WAL append).
const LATENCY_METRICS: [&str; 3] = [
    names::INGEST_MICROS,
    names::QUEUE_WAIT_MICROS,
    names::WAL_APPEND_MICROS,
];

impl Quantiles {
    fn from_histogram(h: &Histogram) -> Self {
        Self {
            count: h.count,
            p50: h.quantile(0.50),
            p95: h.quantile(0.95),
            p99: h.quantile(0.99),
        }
    }
}

/// Diffs a merged histogram across the drive window: `after` minus the
/// pre-drive `before` snapshot, so a long-lived process (or a test
/// harness running many drives) reports only this drive's
/// observations. `None` when nothing was observed in the window.
fn histogram_delta(before: Option<&Histogram>, after: Option<Histogram>) -> Option<Quantiles> {
    let mut h = after?;
    if let Some(b) = before {
        for (x, y) in h.buckets.iter_mut().zip(&b.buckets) {
            *x = x.saturating_sub(*y);
        }
        h.count = h.count.saturating_sub(b.count);
        h.sum = h.sum.saturating_sub(b.sum);
    }
    (h.count > 0).then(|| Quantiles::from_histogram(&h))
}

/// Per-work-unit stats rolled up into [`BenchDrive`] records.
struct UnitStats {
    bench: usize,
    frames: u64,
    bytes: u64,
    deltas: u64,
    events: u64,
}

/// The local reference merge a benchmark's snapshot is checked against.
type Reference = Mutex<Option<(ModuleEdgeProfile, ModulePathProfile)>>;

/// Runs the load driver over the suite (or the benchmarks `only` names:
/// one or a comma-separated list).
///
/// # Errors
///
/// Returns a message when `only` names no suite benchmark, a connection or
/// stream fails, or a server cannot be spawned. A failed determinism or
/// lint check is *not* an error — it lands in the report (and flips
/// [`DriveReport::ok`]), so the CLI can exit nonzero with the full
/// picture printed.
pub fn drive(only: Option<&str>, options: &DriveOptions) -> Result<DriveReport, String> {
    let suite = spec2000_suite();
    let entries: Vec<_> = suite
        .iter()
        .filter(|e| selects(only, &e.spec.name))
        .collect();
    if entries.is_empty() {
        return Err(format!("unknown benchmark {:?}", only.unwrap_or("")));
    }
    let modules: Vec<(String, Arc<Module>)> = entries
        .iter()
        .map(|e| {
            let spec = e.spec.clone().scaled(options.scale);
            (spec.name.clone(), Arc::new(generate(&spec)))
        })
        .collect();

    if options.kill_after.is_some() {
        if options.transport != Transport::Tcp {
            return Err("--kill-after needs the self-hosted --tcp transport".to_owned());
        }
        if options.checkpoint_dir.is_none() {
            return Err(
                "--kill-after needs --checkpoint-dir so the restarted server can recover"
                    .to_owned(),
            );
        }
    }

    // Local service + optional self-hosted server. Both live in slots
    // so the kill monitor can replace them mid-run.
    let config = AggConfig {
        shards: options.shards,
        ..AggConfig::default()
    };
    let durability = options.durability();
    let make_service = {
        let durability = durability.clone();
        move || match &durability {
            Some(dur) => AggService::new_durable(config, dur.clone()),
            None => AggService::new(config),
        }
    };
    let service_slot: Arc<Mutex<Arc<AggService>>> = Arc::new(Mutex::new(make_service()));
    let resolver: Arc<ppp_agg::ModuleResolver> = {
        let resolve_map: Vec<(String, Arc<Module>)> = modules.clone();
        Arc::new(move |hello: &Hello| {
            resolve_map
                .iter()
                .find(|(name, _)| *name == hello.bench)
                .map(|(_, m)| Arc::clone(m))
        })
    };
    let spawn_server = {
        let resolver = Arc::clone(&resolver);
        move |service: &Arc<AggService>| -> Result<Server, String> {
            let listener = TcpListener::bind(("127.0.0.1", 0))
                .map_err(|e| format!("cannot bind loopback listener: {e}"))?;
            Server::spawn(
                listener,
                Arc::clone(service),
                Arc::clone(&resolver),
                ServeOptions::default(),
            )
            .map_err(|e| format!("cannot spawn server: {e}"))
        }
    };
    // Where the socket transports connect: fixed under --connect, and
    // repointed by the kill monitor under --tcp.
    let server_slot: Arc<Mutex<Option<Server>>> = Arc::new(Mutex::new(None));
    let addr_slot: Arc<Mutex<SocketAddr>> = Arc::new(Mutex::new(match options.transport {
        Transport::Connect(addr) => addr,
        _ => "127.0.0.1:0".parse().expect("literal addr"),
    }));
    if options.transport == Transport::Tcp {
        let server = spawn_server(&service_slot.lock().expect("service slot"))?;
        *addr_slot.lock().expect("addr slot") = server.addr();
        *server_slot.lock().expect("server slot") = Some(server);
    }

    // The kill monitor: once the server has accepted `kill_after`
    // frames, kill it abruptly (no drain, no acks, no final
    // checkpoint), stand up a fresh service that recovers from the
    // checkpoint + WAL, and repoint the shared address so the
    // resilient clients reconnect and resume.
    let drive_done = Arc::new(AtomicBool::new(false));
    let mut kills = 0u64;
    let monitor = options.kill_after.map(|kill_after| {
        let server_slot = Arc::clone(&server_slot);
        let service_slot = Arc::clone(&service_slot);
        let addr_slot = Arc::clone(&addr_slot);
        let drive_done = Arc::clone(&drive_done);
        let make_service = make_service.clone();
        let spawn_server = spawn_server.clone();
        std::thread::spawn(move || -> Result<u64, String> {
            while !drive_done.load(Ordering::SeqCst) {
                let accepted = server_slot
                    .lock()
                    .expect("server slot")
                    .as_ref()
                    .map_or(0, Server::frames_accepted);
                if accepted < kill_after {
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
                let server = server_slot.lock().expect("server slot").take();
                if let Some(server) = server {
                    server.kill();
                }
                let fresh = make_service();
                let server = spawn_server(&fresh)?;
                *addr_slot.lock().expect("addr slot") = server.addr();
                *service_slot.lock().expect("service slot") = fresh;
                *server_slot.lock().expect("server slot") = Some(server);
                ppp_obs::global().info(
                    "drive.server_killed",
                    &[("after_frames", ppp_obs::Value::from(accepted))],
                );
                return Ok(1);
            }
            Ok(0)
        })
    });
    let references: Vec<Reference> = modules.iter().map(|_| Mutex::new(None)).collect();

    // Latency histograms accumulate in the process-global registry;
    // snapshot them up front so the report covers only this drive.
    let obs = ppp_obs::global();
    let lat_before: Vec<Option<Histogram>> = LATENCY_METRICS
        .iter()
        .map(|n| obs.metrics().merged_histogram(n))
        .collect();

    // Fan the work units over the workers. Unit `u` is repeat `u / B`
    // of benchmark `u % B`, so every benchmark gets traffic early.
    let nbench = modules.len();
    let units = nbench * options.repeats.max(1);
    let started = Instant::now();
    let stats = run_indexed(options.workers, units, |u| -> Result<UnitStats, String> {
        let bench = u % nbench;
        let repeat = u / nbench;
        let (name, module) = &modules[bench];
        let run_options = RunOptions::default()
            .traced()
            .with_seed(options.seed.wrapping_add(repeat as u64))
            .with_delta_interval(options.delta_interval.max(1));
        let result = run(module, "main", &run_options).map_err(|e| format!("{name}: {e}"))?;
        let edges = result.edge_profile.as_ref().expect("traced run");
        let paths = result.path_profile.as_ref().expect("traced run");

        // Fold this run into the benchmark's local reference merge
        // (pointless under --connect: there is no snapshot to compare).
        if !matches!(options.transport, Transport::Connect(_)) {
            let mut r = references[bench].lock().expect("reference lock");
            match r.as_mut() {
                Some((re, rp)) => {
                    re.merge(edges);
                    rp.merge(paths);
                }
                None => *r = Some((edges.clone(), paths.clone())),
            }
        }

        // Stream the deltas through the configured transport. Over a
        // socket the sink retries and resumes, so a refused or dropped
        // connection (or, under --kill-after, a dead server) is
        // survived when the server comes back, and `finish` returns
        // once the server acked everything.
        let sink: Box<dyn FrameSink> = match options.transport {
            Transport::InProc => {
                let service = Arc::clone(&*service_slot.lock().expect("service slot"));
                Box::new(InProcSink::new(service.register(name, module)?))
            }
            Transport::Tcp | Transport::Connect(_) => Box::new(ResilientSink::new(
                Arc::clone(&addr_slot),
                RetryPolicy {
                    attempts: 12,
                    base: Duration::from_millis(10),
                    cap: Duration::from_millis(200),
                },
                Duration::from_secs(5),
            )),
        };
        let hello = Hello {
            bench: name.clone(),
            funcs: module.functions.len(),
            scale_bits: options.scale.to_bits(),
            worker: u as u64,
        };
        let mut client = AggClient::open(Arc::clone(module), sink, options.batch.max(1), &hello)
            .map_err(|e| format!("{name}: hello: {e}"))?;
        // Every worker's stream is trace-propagated: the send span's
        // context rides inside the sequenced frames, so the server's
        // apply spans stitch under it from either side's sink.
        client.set_trace_id(
            options
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(u as u64 + 1),
        );
        for d in &result.deltas {
            client
                .push_delta(&d.edges, &d.paths)
                .map_err(|e| format!("{name}: stream: {e}"))?;
        }
        client
            .finish()
            .map_err(|e| format!("{name}: finish: {e}"))?;
        let (frames, bytes) = client.sent();
        Ok(UnitStats {
            bench,
            frames,
            bytes,
            deltas: result.deltas.len() as u64,
            events: result.steps,
        })
    });
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    drive_done.store(true, Ordering::SeqCst);
    if let Some(monitor) = monitor {
        kills = monitor
            .join()
            .map_err(|_| "kill monitor panicked".to_owned())??;
    }

    // Roll up per benchmark, then verify each snapshot where we can.
    let mut benches: Vec<BenchDrive> = modules
        .iter()
        .map(|(name, _)| BenchDrive {
            bench: name.clone(),
            runs: 0,
            frames: 0,
            bytes: 0,
            deltas: 0,
            events: 0,
            deterministic: None,
            lint_clean: None,
        })
        .collect();
    for s in stats {
        let s = s?;
        let b = &mut benches[s.bench];
        b.runs += 1;
        b.frames += s.frames;
        b.bytes += s.bytes;
        b.deltas += s.deltas;
        b.events += s.events;
    }
    if !matches!(options.transport, Transport::Connect(_)) {
        let service = Arc::clone(&*service_slot.lock().expect("service slot"));
        for (i, (name, module)) in modules.iter().enumerate() {
            // After a mid-run kill the final service may never have
            // seen a bench whose clients finished before the crash;
            // registering a durable service recovers it from disk.
            let agg = if durability.is_some() {
                service.register(name, module)?
            } else {
                service
                    .get(name)
                    .ok_or_else(|| format!("{name}: never registered"))?
            };
            let (snap_edges, snap_paths) = agg.snapshot();
            let guard = references[i].lock().expect("reference lock");
            let (re, rp) = guard.as_ref().expect("at least one run per benchmark");
            benches[i].deterministic = Some(snap_edges == *re && snap_paths == *rp);
            benches[i].lint_clean = Some(ppp_lint::check_profile(module, &snap_edges).is_empty());
        }
    }
    if let Some(server) = server_slot.lock().expect("server slot").take() {
        server.shutdown();
    }

    let events: u64 = benches.iter().map(|b| b.events).sum();
    let events_per_sec = if wall_ms > 0.0 {
        events as f64 / (wall_ms / 1e3)
    } else {
        0.0
    };
    ppp_obs::global().metrics().set_gauge(
        "ppp_drive_events_per_sec",
        &[("transport", transport_label(&options.transport).as_str())],
        events_per_sec,
    );
    let quantiles = |i: usize| {
        histogram_delta(
            lat_before[i].as_ref(),
            obs.metrics().merged_histogram(LATENCY_METRICS[i]),
        )
    };
    Ok(DriveReport {
        benches,
        workers: options.workers.max(1),
        shards: options.shards.max(1),
        repeats: options.repeats.max(1),
        transport: transport_label(&options.transport),
        wall_ms,
        events_per_sec,
        kills,
        ingest_latency: quantiles(0),
        queue_wait: quantiles(1),
        wal_append: quantiles(2),
    })
}

fn transport_label(t: &Transport) -> String {
    match t {
        Transport::InProc => "in-proc".to_owned(),
        Transport::Tcp => "tcp".to_owned(),
        Transport::Connect(addr) => addr.to_string(),
    }
}

/// Renders a drive report as a text table plus a throughput summary.
pub fn drive_table(r: &DriveReport) -> String {
    let mut t = Table::new([
        "Benchmark",
        "Runs",
        "Deltas",
        "Frames",
        "Bytes",
        "Events",
        "Identical",
        "Lint",
    ]);
    let verdict = |v: Option<bool>, yes: &str, no: &str| match v {
        Some(true) => yes.to_owned(),
        Some(false) => no.to_owned(),
        None => "-".to_owned(),
    };
    for b in &r.benches {
        t.row([
            b.bench.clone(),
            b.runs.to_string(),
            b.deltas.to_string(),
            b.frames.to_string(),
            b.bytes.to_string(),
            b.events.to_string(),
            verdict(b.deterministic, "yes", "NO"),
            verdict(b.lint_clean, "clean", "DIRTY"),
        ]);
    }
    let kills = if r.kills > 0 {
        format!(" ({} mid-run server kill(s) recovered)", r.kills)
    } else {
        String::new()
    };
    let lat = |label: &str, q: &Option<Quantiles>| match q {
        Some(q) => format!(
            "{label} us p50/p95/p99: {}/{}/{} (n={})",
            q.p50, q.p95, q.p99, q.count
        ),
        None => format!("{label} us p50/p95/p99: -"),
    };
    format!(
        "drive: {} worker(s) x {} repeat(s) over {} benchmark(s), {} shard(s), {} transport{}\n\
         {} frames, {} bytes in {:.0} ms -> {:.0} events/sec\n\
         {}; {}; {}\n{}",
        r.workers,
        r.repeats,
        r.benches.len(),
        r.shards,
        r.transport,
        kills,
        r.frames(),
        r.bytes(),
        r.wall_ms,
        r.events_per_sec,
        lat("ingest", &r.ingest_latency),
        lat("queue-wait", &r.queue_wait),
        lat("wal-append", &r.wal_append),
        t.render()
    )
}

/// Renders a drive report as JSON (stable keys).
pub fn drive_json(r: &DriveReport) -> String {
    let quant = |o: &mut json::Obj<'_>, key: &str, q: &Option<Quantiles>| {
        match q {
            Some(q) => o.obj(key, |o| {
                o.field("count", q.count)
                    .field("p50_us", q.p50)
                    .field("p95_us", q.p95)
                    .field("p99_us", q.p99);
            }),
            None => o.field(key, ()),
        };
    };
    json::object(|o| {
        o.field("workers", r.workers)
            .field("shards", r.shards)
            .field("repeats", r.repeats)
            .field("transport", &r.transport)
            .field("wall_ms", r.wall_ms)
            .field("events_per_sec", r.events_per_sec)
            .field("frames", r.frames())
            .field("bytes", r.bytes())
            .field("kills", r.kills)
            .field("ok", r.ok())
            .obj("latency", |o| {
                quant(o, "ingest", &r.ingest_latency);
                quant(o, "queue_wait", &r.queue_wait);
                quant(o, "wal_append", &r.wal_append);
            })
            .objs("benchmarks", &r.benches, |o, b| {
                o.field("bench", &b.bench)
                    .field("runs", b.runs)
                    .field("deltas", b.deltas)
                    .field("frames", b.frames)
                    .field("bytes", b.bytes)
                    .field("events", b.events)
                    .field("deterministic", b.deterministic)
                    .field("lint_clean", b.lint_clean);
            });
    })
}

/// Hosts a standalone aggregation server (`repro serve`).
///
/// The resolver regenerates workload modules on demand from the
/// benchmark name and the scale carried in each client's `Hello`, so
/// any `repro drive --connect` at a matching scale can stream to it.
/// With `durability` set the service checkpoints and WALs under the
/// given directory — and *recovers from it on startup*, so restarting
/// a crashed `repro serve` over the same directory loses nothing that
/// was acked.
///
/// # Errors
///
/// Returns a message when the listener cannot bind.
pub fn serve(
    addr: &str,
    shards: usize,
    max_conns: usize,
    durability: Option<DurOptions>,
) -> Result<Server, String> {
    let listener = TcpListener::bind(addr).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    let config = AggConfig {
        shards,
        ..AggConfig::default()
    };
    let service = match durability {
        Some(dur) => AggService::new_durable(config, dur),
        None => AggService::new(config),
    };
    let resolver: Arc<ppp_agg::ModuleResolver> = Arc::new(|hello: &Hello| {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == hello.bench)?;
        let scale = f64::from_bits(hello.scale_bits);
        let spec = if scale > 0.0 && scale.is_finite() {
            entry.spec.clone().scaled(scale)
        } else {
            entry.spec.clone()
        };
        Some(Arc::new(generate(&spec)))
    });
    Server::spawn(
        listener,
        service,
        resolver,
        ServeOptions {
            max_conns,
            ..ServeOptions::default()
        },
    )
    .map_err(|e| format!("cannot spawn server: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(transport: Transport) -> DriveOptions {
        DriveOptions {
            workers: 2,
            shards: 2,
            repeats: 2,
            scale: 0.02,
            delta_interval: 1024,
            transport,
            ..DriveOptions::default()
        }
    }

    #[test]
    fn in_proc_drive_is_deterministic_and_lint_clean() {
        let _obs = crate::obs_test_lock();
        let r = drive(Some("mcf"), &tiny(Transport::InProc)).expect("drive completes");
        assert!(r.ok(), "{}", drive_table(&r));
        assert_eq!(r.benches.len(), 1);
        let b = &r.benches[0];
        assert_eq!(b.runs, 2);
        assert!(b.frames > 0 && b.bytes > 0 && b.deltas > 0 && b.events > 0);
        assert_eq!(b.deterministic, Some(true));
        assert_eq!(b.lint_clean, Some(true));
        // Tail-latency accounting: the ingest and queue-wait quantiles
        // cover the drive window (WAL append needs --checkpoint-dir).
        let ingest = r.ingest_latency.expect("ingest histogram observed");
        assert!(ingest.count > 0, "{ingest:?}");
        assert!(ingest.p50 <= ingest.p95 && ingest.p95 <= ingest.p99);
        assert!(r.queue_wait.expect("queue-wait observed").count > 0);
        assert_eq!(r.wal_append, None, "no durability configured");
    }

    #[test]
    fn self_hosted_tcp_drive_matches_the_reference() {
        let r = drive(Some("vpr"), &tiny(Transport::Tcp)).expect("drive completes");
        assert!(r.ok(), "{}", drive_table(&r));
        assert_eq!(r.benches[0].deterministic, Some(true));
        assert!(r.transport == "tcp");
    }

    fn scratch(tag: &str) -> std::path::PathBuf {
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ppp-scratch/drive-unit")
            .join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("scratch dir");
        dir
    }

    #[test]
    fn kill_after_recovers_byte_identically_with_no_double_counts() {
        let _obs = crate::obs_test_lock();
        let mut options = tiny(Transport::Tcp);
        options.checkpoint_dir = Some(scratch("kill-after"));
        options.checkpoint_every = 4;
        options.kill_after = Some(3);
        let r = drive(Some("mcf"), &options).expect("drive completes");
        assert_eq!(r.kills, 1, "the kill fired");
        // The whole point: a mid-run crash + restart must still yield
        // a snapshot byte-identical to the local reference merge (no
        // lost deltas, no double counts from client resends).
        assert_eq!(
            r.benches[0].deterministic,
            Some(true),
            "{}",
            drive_table(&r)
        );
        assert_eq!(r.benches[0].lint_clean, Some(true));
        // The durable transport observed WAL append latency too.
        assert!(r.wal_append.expect("wal append observed").count > 0);
    }

    #[test]
    fn killed_server_leaves_a_parseable_flight_recorder_dump() {
        use ppp_obs::json::{self, Json};
        let _obs = crate::obs_test_lock();
        let dump_dir = scratch("flight-kill");
        ppp_obs::install_flight(&dump_dir, 256);
        let mut options = tiny(Transport::Tcp);
        options.checkpoint_dir = Some(scratch("flight-kill-wal"));
        options.checkpoint_every = 4;
        options.kill_after = Some(3);
        let r = drive(Some("mcf"), &options).expect("drive completes");
        assert_eq!(r.kills, 1, "the kill fired");
        let path = dump_dir.join("flight-server-kill.json");
        let doc = std::fs::read_to_string(&path).expect("kill dump written");
        let v = json::parse(&doc).expect("dump parses");
        assert_eq!(
            v.get("schema").and_then(Json::as_str),
            Some(ppp_obs::FLIGHT_SCHEMA)
        );
        assert_eq!(v.get("reason").and_then(Json::as_str), Some("server-kill"));
        // The ring retained the pre-kill telemetry: the server's own
        // kill event (frames accepted so far) made it into the dump.
        let records = v.get("records").and_then(Json::as_arr).expect("records");
        assert!(
            records
                .iter()
                .any(|r| r.get("name").and_then(Json::as_str) == Some("server.kill")),
            "dump carries the server.kill event: {doc}"
        );
        // …and the registry snapshot rode along.
        assert!(v.get("registry").is_some());
    }

    #[test]
    fn kill_after_without_durability_is_refused() {
        let mut options = tiny(Transport::Tcp);
        options.kill_after = Some(1);
        let err = drive(Some("mcf"), &options).expect_err("refused");
        assert!(err.contains("--checkpoint-dir"), "{err}");
    }

    #[test]
    fn connect_mode_streams_to_an_external_server() {
        let server = serve("127.0.0.1:0", 2, 8, None).expect("server spawns");
        let addr = server.addr();
        let r = drive(Some("mcf"), &tiny(Transport::Connect(addr))).expect("drive completes");
        // No local snapshot: verdicts are skipped, traffic still flows.
        assert_eq!(r.benches[0].deterministic, None);
        assert!(r.benches[0].frames > 0);
        assert!(r.ok());
        server.shutdown();
    }

    #[test]
    fn renderers_are_stable() {
        let r = drive(Some("mcf"), &tiny(Transport::InProc)).expect("drive completes");
        let table = drive_table(&r);
        assert!(table.contains("mcf") && table.contains("events/sec"));
        let json_doc = drive_json(&r);
        assert!(json_doc.contains("\"ok\":true"));
        assert!(json_doc.contains("\"bench\":\"mcf\""));
    }
}
