//! The `ingest` workload: recorded profile deltas streamed over
//! loopback TCP into a durable in-process aggregation `Server`, and a
//! traced pass that replays the client's and the server's ingest calls
//! in one thread with a timer around each call into a layer.

use crate::ledger::Ledger;
use ppp_agg::wal::{wal_path, write_checkpoint, Wal};
use ppp_agg::{AggClient, AggConfig, AggService, DurOptions, Hello, ServeOptions, Server, TcpSink};
use ppp_ir::wire::{
    decode_frame, encode_frame, encode_seq_payload, split_seq_payload, split_trace_context,
    FrameKind,
};
use ppp_ir::{
    read_edge_profile_v2, read_path_profile_v2, write_edge_profile_v2, write_path_profile_v2,
    Module, ModuleEdgeProfile, ModulePathProfile,
};
use ppp_vm::{run, ProfileDelta, RunOptions};
use ppp_workloads::{generate, spec2000_suite, BenchClass};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// Workload scale of the recorded runs.
pub const SCALE: f64 = 1.0;
/// Trace events per delta cut.
pub const DELTA_INTERVAL: u64 = 2560;
/// Aggregator shards per benchmark.
pub const SHARDS: usize = 2;
/// Sequenced frames between automatic checkpoints.
pub const CHECKPOINT_EVERY: u64 = 1024;
/// Deltas between a client's snapshot polls.
pub const SNAPSHOT_EVERY: usize = 128;
/// Client connections streaming at once.
pub const CONNECTIONS: usize = 2;

/// One benchmark's recorded traced run.
pub struct Recorded {
    /// Benchmark name.
    pub name: String,
    /// INT or FP.
    pub class: BenchClass,
    /// The module the deltas belong to.
    pub module: Arc<Module>,
    /// Deltas in the order they were cut.
    pub deltas: Vec<ProfileDelta>,
    /// persist_v2 bytes of the run's final edge profile.
    pub edges_v2: String,
    /// persist_v2 bytes of the run's final path profile.
    pub paths_v2: String,
}

/// The recorded inputs of the workload.
pub struct Inputs {
    /// One recording per suite entry, in suite order.
    pub benches: Vec<Recorded>,
    /// Scale of the recorded runs.
    pub scale: f64,
}

impl Inputs {
    /// Total deltas over all benchmarks.
    pub fn deltas(&self) -> u64 {
        self.benches.iter().map(|b| b.deltas.len() as u64).sum()
    }
}

/// Records the inputs: one traced run per suite entry at `scale` with
/// delta export on.
///
/// # Errors
///
/// Names the entry whose run failed or produced no profile.
pub fn record(scale: f64, seed: u64) -> Result<Inputs, String> {
    let options = RunOptions::default()
        .traced()
        .with_seed(seed)
        .with_delta_interval(DELTA_INTERVAL);
    let mut benches = Vec::new();
    for entry in spec2000_suite() {
        let spec = entry.spec.clone().scaled(scale);
        let module = Arc::new(generate(&spec));
        let name = spec.name;
        let r = run(&module, "main", &options).map_err(|e| format!("{name}: {e}"))?;
        let (Some(edges), Some(paths)) = (&r.edge_profile, &r.path_profile) else {
            return Err(format!("{name}: traced run produced no profiles"));
        };
        if r.deltas.is_empty() {
            return Err(format!("{name}: traced run cut no deltas"));
        }
        benches.push(Recorded {
            edges_v2: write_edge_profile_v2(&module, edges),
            paths_v2: write_path_profile_v2(&module, paths),
            name,
            class: entry.class,
            module,
            deltas: r.deltas,
        });
    }
    Ok(Inputs { benches, scale })
}

/// A running durable aggregation server on loopback.
pub struct Host {
    service: Arc<AggService>,
    server: Server,
    dir: PathBuf,
}

/// A fresh, empty directory at `dir`.
fn fresh_dir(dir: &Path) -> Result<(), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

impl Host {
    /// Starts a server with an empty durability directory at `dir`.
    ///
    /// # Errors
    ///
    /// Reports directory, bind or spawn failures.
    pub fn start(inputs: &Inputs, dir: &Path) -> Result<Host, String> {
        fresh_dir(dir)?;
        let config = AggConfig {
            shards: SHARDS,
            ..AggConfig::default()
        };
        let service = AggService::new_durable(config, DurOptions::new(dir, CHECKPOINT_EVERY));
        let modules: Vec<(String, Arc<Module>)> = inputs
            .benches
            .iter()
            .map(|b| (b.name.clone(), Arc::clone(&b.module)))
            .collect();
        let resolver: Arc<ppp_agg::ModuleResolver> = Arc::new(move |hello: &Hello| {
            modules
                .iter()
                .find(|(name, _)| *name == hello.bench)
                .map(|(_, m)| Arc::clone(m))
        });
        let listener =
            TcpListener::bind(("127.0.0.1", 0)).map_err(|e| format!("bind loopback: {e}"))?;
        let server = Server::spawn(
            listener,
            Arc::clone(&service),
            resolver,
            ServeOptions::default(),
        )
        .map_err(|e| format!("spawn server: {e}"))?;
        Ok(Host {
            service,
            server,
            dir: dir.to_owned(),
        })
    }

    /// Shuts the server down (joining its threads) and removes its
    /// durability directory.
    pub fn stop(self) {
        self.server.shutdown();
        drop(self.service);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One untraced ingest pass.
#[derive(Default)]
pub struct Pass {
    /// Wall seconds from the first hello to the last Done-ack.
    pub wall_s: f64,
    /// Stream seconds (hello to Done-ack) per benchmark, in suite order.
    pub stream_s: Vec<f64>,
    /// Deltas pushed.
    pub attempted: u64,
    /// Deltas lost to a rejected stream or a wrong snapshot.
    pub failed: u64,
    /// What went wrong, one line per failure.
    pub failures: Vec<String>,
    /// Microseconds of each `push_delta` (batch 1: one flush each).
    pub flush_us: Vec<f64>,
    /// Milliseconds of each `Aggregator::snapshot` poll.
    pub snapshot_ms: Vec<f64>,
    /// Deepest shard queue seen at a snapshot poll.
    pub max_queue_depth: usize,
    /// Backpressure stalls summed over the aggregators.
    pub stalls: u64,
    /// Frames the server refused (each refusal ends that stream).
    pub frames_rejected: u64,
    /// Final snapshots in persist_v2, per benchmark in suite order
    /// (`None` where the stream was refused).
    pub snapshots: Vec<Option<(String, String)>>,
}

/// What one connection's stream of benchmarks observed.
#[derive(Default)]
struct Stream {
    stream_s: Vec<(usize, f64)>,
    flush_us: Vec<f64>,
    snapshot_ms: Vec<f64>,
    max_queue_depth: usize,
    failed: Vec<(usize, String)>,
}

/// Streams `bench` over `sink`, returning the sink for reuse.
fn stream_bench(
    bench: &Recorded,
    scale: f64,
    client: u64,
    sink: TcpSink,
    service: &AggService,
    out: &mut Stream,
) -> Result<TcpSink, String> {
    let hello = Hello {
        bench: bench.name.clone(),
        funcs: bench.module.functions.len(),
        scale_bits: scale.to_bits(),
        worker: client,
    };
    let mut c = AggClient::open(Arc::clone(&bench.module), sink, 1, &hello)
        .map_err(|e| format!("hello: {e}"))?;
    let agg = service
        .get(&bench.name)
        .ok_or("hello acked but nothing registered")?;
    for (k, d) in bench.deltas.iter().enumerate() {
        let t = Instant::now();
        c.push_delta(&d.edges, &d.paths)
            .map_err(|e| format!("delta {k}: {e}"))?;
        out.flush_us.push(t.elapsed().as_secs_f64() * 1e6);
        if (k + 1) % SNAPSHOT_EVERY == 0 {
            let t = Instant::now();
            black_box(agg.snapshot());
            out.snapshot_ms.push(t.elapsed().as_secs_f64() * 1e3);
            out.max_queue_depth = out.max_queue_depth.max(agg.max_queue_depth());
        }
    }
    c.finish().map_err(|e| format!("finish: {e}"))?;
    let mut sink = c.into_sink();
    sink.wait_ack().map_err(|e| format!("done ack: {e}"))?;
    Ok(sink)
}

/// One connection: serves the benchmarks `conn`, `conn + CONNECTIONS`,
/// ... in turn, one hello each, reconnecting after a refused stream.
fn connection(inputs: &Inputs, host: &Host, conn: usize) -> Stream {
    let mut out = Stream::default();
    let mut sink = None;
    for i in (conn..inputs.benches.len()).step_by(CONNECTIONS) {
        let bench = &inputs.benches[i];
        let started = Instant::now();
        let s = match sink.take() {
            Some(s) => Ok(s),
            None => TcpSink::connect(host.server.addr()).map_err(|e| format!("connect: {e}")),
        };
        match s.and_then(|s| {
            stream_bench(
                bench,
                inputs.scale,
                conn as u64 + 1,
                s,
                &host.service,
                &mut out,
            )
        }) {
            Ok(s) => sink = Some(s),
            Err(e) => out.failed.push((i, format!("{}: {e}", bench.name))),
        }
        out.stream_s.push((i, started.elapsed().as_secs_f64()));
    }
    out
}

/// Runs one untraced pass against `host` and verifies every final
/// snapshot: byte-identical in persist_v2 to the recorded run's final
/// profiles and clean under `ppp_lint::check_profile`.
pub fn untraced_pass(inputs: &Inputs, host: &Host) -> Pass {
    let started = Instant::now();
    let streams: Vec<Stream> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| s.spawn(move || connection(inputs, host, conn)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut pass = Pass {
        wall_s: started.elapsed().as_secs_f64(),
        attempted: inputs.deltas(),
        ..Pass::default()
    };
    pass.stream_s = vec![0.0; inputs.benches.len()];
    pass.snapshots = vec![None; inputs.benches.len()];
    let mut refused = vec![false; inputs.benches.len()];
    for st in streams {
        for (i, secs) in st.stream_s {
            pass.stream_s[i] = secs;
        }
        pass.flush_us.extend(st.flush_us);
        pass.snapshot_ms.extend(st.snapshot_ms);
        pass.max_queue_depth = pass.max_queue_depth.max(st.max_queue_depth);
        for (i, e) in st.failed {
            refused[i] = true;
            pass.frames_rejected += 1;
            pass.failures.push(e);
        }
    }
    for (i, bench) in inputs.benches.iter().enumerate() {
        let verdict = if refused[i] {
            Err(String::new())
        } else {
            verify_snapshot(i, bench, host, &mut pass)
        };
        if let Err(e) = verdict {
            pass.failed += bench.deltas.len() as u64;
            if !e.is_empty() {
                pass.failures.push(format!("{}: {e}", bench.name));
            }
        }
    }
    pass
}

fn verify_snapshot(i: usize, bench: &Recorded, host: &Host, pass: &mut Pass) -> Result<(), String> {
    let agg = host.service.get(&bench.name).ok_or("never registered")?;
    pass.stalls += agg.backpressure_stalls();
    let (edges, paths) = agg.snapshot();
    let snapshot = (
        write_edge_profile_v2(&bench.module, &edges),
        write_path_profile_v2(&bench.module, &paths),
    );
    let identical = snapshot.0 == bench.edges_v2 && snapshot.1 == bench.paths_v2;
    pass.snapshots[i] = Some(snapshot);
    if !identical {
        return Err("final snapshot differs from the recorded profile".to_owned());
    }
    let lint = ppp_lint::check_profile(&bench.module, &edges);
    if !lint.is_empty() {
        return Err(format!("final snapshot is not lint-clean: {lint}"));
    }
    Ok(())
}

/// A decoded sequenced delta, as the server's `apply_seq` holds it.
enum Delta {
    Edges(ModuleEdgeProfile),
    Paths(ModulePathProfile),
}

/// `decode_frame` + `split_seq_payload` + `read_*_profile_v2` + the
/// shape check, as the server runs them on one frame.
fn decode(module: &Module, bytes: &[u8]) -> Result<(ppp_ir::wire::Frame, Delta), String> {
    let (frame, _) = decode_frame(bytes).map_err(|e| e.to_string())?;
    let (_, _, container) = split_seq_payload(&frame.payload).map_err(|e| e.to_string())?;
    let (_, container) = split_trace_context(container);
    let delta = match frame.kind {
        FrameKind::SeqEdgeDelta => {
            let p = read_edge_profile_v2(module, container).map_err(|e| e.to_string())?;
            if !p.shape_matches(module) {
                return Err("seq edge delta shape does not match module".to_owned());
            }
            Delta::Edges(p)
        }
        FrameKind::SeqPathDelta => {
            Delta::Paths(read_path_profile_v2(module, container).map_err(|e| e.to_string())?)
        }
        other => return Err(format!("{other} is not a sequenced delta")),
    };
    Ok((frame, delta))
}

/// Each shard's owned functions of the merged profile, as
/// `Aggregator::checkpoint` hands them to `write_checkpoint`.
fn shard_profiles(
    module: &Module,
    edges: &ModuleEdgeProfile,
    paths: &ModulePathProfile,
) -> Vec<(ModuleEdgeProfile, ModulePathProfile)> {
    let funcs = module.functions.len();
    (0..SHARDS)
        .map(|k| {
            let mut e = ModuleEdgeProfile::zeroed(module);
            let mut p = ModulePathProfile::with_capacity(funcs);
            for fid in (k..funcs).step_by(SHARDS) {
                e.funcs[fid] = edges.funcs[fid].clone();
                p.funcs[fid] = paths.funcs[fid].clone();
            }
            (e, p)
        })
        .collect()
}

/// Replays one pass of the ingest path in this thread: the client's
/// batch merge and frame encoding, then the server's decode, WAL
/// append, merge, checkpoint and snapshot calls, each timed into its
/// layer. Returns the final merged profiles in persist_v2, per
/// benchmark in suite order.
///
/// # Errors
///
/// Reports a refused frame or a durability failure.
pub fn traced_pass(
    inputs: &Inputs,
    dir: &Path,
    ledger: &mut Ledger,
) -> Result<(f64, Vec<(String, String)>), String> {
    fresh_dir(dir)?;
    let started = Instant::now();
    let mut merged = Vec::new();
    let mut delta_bytes = 0u64;
    for (i, bench) in inputs.benches.iter().enumerate() {
        let bench_started = Instant::now();
        let module = &bench.module;
        let name = bench.name.as_str();
        let fail = |e: String| format!("{name}: {e}");
        let client = (i % CONNECTIONS) as u64 + 1;
        let hello = Hello {
            bench: name.to_owned(),
            funcs: module.functions.len(),
            scale_bits: inputs.scale.to_bits(),
            worker: client,
        };
        let bytes = ledger.time("agg.encode_s", || {
            encode_frame(FrameKind::Hello, &hello.encode())
        });
        ledger
            .time("agg.decode_s", || {
                let (frame, _) = decode_frame(&bytes).map_err(|e| e.to_string())?;
                Hello::parse(&frame.payload)
            })
            .map_err(fail)?;
        let mut wal = ledger
            .time("agg.wal_s", || Wal::open(&wal_path(dir, name), 0, name))
            .map_err(|e| fail(e.to_string()))?;
        let mut batch_edges = ModuleEdgeProfile::zeroed(module);
        let mut batch_paths = ModulePathProfile::with_capacity(module.functions.len());
        let mut edges = ModuleEdgeProfile::zeroed(module);
        let mut paths = ModulePathProfile::with_capacity(module.functions.len());
        let mut watermarks = BTreeMap::new();
        let (mut seq, mut since_checkpoint) = (1u64, 0u64);
        for (k, d) in bench.deltas.iter().enumerate() {
            ledger.time("agg.merge_s", || {
                batch_edges.merge(&d.edges);
                batch_paths.merge(&d.paths);
            });
            let frames = ledger.time("agg.encode_s", || {
                let e = write_edge_profile_v2(module, &batch_edges);
                let p = write_path_profile_v2(module, &batch_paths);
                [
                    encode_frame(
                        FrameKind::SeqEdgeDelta,
                        &encode_seq_payload(client, seq, e.as_bytes()),
                    ),
                    encode_frame(
                        FrameKind::SeqPathDelta,
                        &encode_seq_payload(client, seq + 1, p.as_bytes()),
                    ),
                ]
            });
            ledger.time("agg.merge_s", || {
                batch_edges.funcs.iter_mut().for_each(|f| f.zero());
                batch_paths.funcs.iter_mut().for_each(|f| f.clear());
            });
            for bytes in &frames {
                delta_bytes += bytes.len() as u64;
                let (frame, delta) = ledger
                    .time("agg.decode_s", || decode(module, bytes))
                    .map_err(fail)?;
                let logged = ledger.time("agg.encode_s", || frame.encode());
                ledger
                    .time("agg.wal_s", || wal.append(&logged))
                    .map_err(|e| fail(format!("wal append: {e}")))?;
                ledger.add("agg.wal_appends", 1.0);
                watermarks.insert(client, seq);
                seq += 1;
                since_checkpoint += 1;
                ledger.time("agg.merge_s", || match &delta {
                    Delta::Edges(e) => edges.merge(e),
                    Delta::Paths(p) => paths.merge(p),
                });
                ledger.add("agg.frames", 1.0);
                if since_checkpoint >= CHECKPOINT_EVERY {
                    ledger
                        .time("agg.checkpoint_s", || {
                            let shards = shard_profiles(module, &edges, &paths);
                            write_checkpoint(dir, name, module, &watermarks, &shards)
                        })
                        .map_err(|e| fail(format!("checkpoint: {e}")))?;
                    ledger
                        .time("agg.wal_s", || wal.reset())
                        .map_err(|e| fail(format!("wal reset: {e}")))?;
                    ledger.add("agg.checkpoints", 1.0);
                    since_checkpoint = 0;
                }
            }
            if (k + 1) % SNAPSHOT_EVERY == 0 {
                ledger.time("agg.merge_s", || black_box((edges.clone(), paths.clone())));
                ledger.add("agg.snapshots", 1.0);
            }
        }
        let done = ledger.time("agg.encode_s", || encode_frame(FrameKind::Done, b""));
        ledger
            .time("agg.decode_s", || decode_frame(&done))
            .map_err(|e| fail(e.to_string()))?;
        ledger.add(
            &format!("bench.{name}_s"),
            bench_started.elapsed().as_secs_f64(),
        );
        merged.push((edges, paths));
    }
    let wall_s = started.elapsed().as_secs_f64();
    ledger.set(
        "agg.encode_bytes_per_delta",
        delta_bytes as f64 / inputs.deltas().max(1) as f64,
    );
    let _ = std::fs::remove_dir_all(dir);
    let finals = inputs
        .benches
        .iter()
        .zip(merged)
        .map(|(b, (e, p))| {
            (
                write_edge_profile_v2(&b.module, &e),
                write_path_profile_v2(&b.module, &p),
            )
        })
        .collect();
    Ok((wall_s, finals))
}
