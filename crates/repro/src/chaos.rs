//! Chaos sweep: deterministic fault injection over the full pipeline.
//!
//! Backs the `repro chaos` subcommand. For each benchmark, every
//! [`FaultSite`] is injected with a seeded [`FaultPlan`] and the damaged
//! artifact is pushed through the ingestion degradation ladder
//! ([`ingest_guidance`]). The sweep asserts the robustness contract:
//!
//! 1. the pipeline always completes — no fault site may panic;
//! 2. damage is never silent — every effective injection produces a
//!    structured [`DegradationReport`] entry (a fault that happens to be
//!    byte-benign, e.g. truncating only a trailing newline, is recorded
//!    as [`ChaosVerdict::Harmless`]);
//! 3. whatever guidance survives still passes the `ppp-lint` profile
//!    checks (shape + Kirchhoff flow conservation, PPP308).

use crate::degrade::{ingest_guidance, ingest_guidance_at, DegradationReport, LadderRung};
use crate::format::Table;
use crate::pipeline::{
    instrument_and_run, prepare_benchmark, PipelineError, PipelineOptions, PreparedBenchmark,
};
use ppp_agg::{AggConfig, Aggregator, DurOptions, Hello, IngestOutcome, ReadError};
use ppp_core::ProfilerConfig;
use ppp_faults::{FaultPlan, FaultSite};
use ppp_ir::{
    encode_edge_delta, encode_path_delta, encode_seq_payload, salvage_edge_profile,
    salvage_path_profile, write_edge_profile_v2, write_path_profile_v2, Frame, FrameKind, Module,
    ModuleEdgeProfile, SectionFault, WireError,
};
use ppp_match::read_edge_profile_matched;
use ppp_obs::json::{self, ToJson};
use ppp_vm::{run, HaltReason, RunOptions, SplitMix64};
use ppp_workloads::spec2000_suite;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How one injected fault played out.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChaosVerdict {
    /// The injection turned out byte-benign (e.g. the truncation cut only
    /// a trailing newline, or the run finished inside the kill budget);
    /// the pipeline correctly stayed healthy.
    Harmless,
    /// The damage took effect and the pipeline completed with a reported
    /// degradation. This is the contract holding.
    Reported,
    /// The damage took effect but nothing was reported — a gate failure.
    Silent,
}

impl ChaosVerdict {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            ChaosVerdict::Harmless => "harmless",
            ChaosVerdict::Reported => "reported",
            ChaosVerdict::Silent => "silent",
        }
    }
}

impl fmt::Display for ChaosVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Outcome of one `(benchmark, fault site)` scenario.
#[derive(Clone, Debug)]
pub struct ChaosOutcome {
    /// Benchmark name.
    pub benchmark: String,
    /// Injected fault site.
    pub site: FaultSite,
    /// Injection seed.
    pub seed: u64,
    /// What the injection did, human-readable.
    pub detail: String,
    /// What the ingestion ladder reported.
    pub report: DegradationReport,
    /// Whether the surviving guidance passed `ppp_lint::check_profile`.
    pub lint_clean: bool,
    /// Whether the static-estimate rung, if reached, supplied live
    /// guidance: non-zero, PPP308-conservative, and a report event
    /// naming the `ppp-est` estimator. Vacuously `true` on other rungs.
    pub estimator_ok: bool,
    /// The gate verdict.
    pub verdict: ChaosVerdict,
    /// Flight-recorder dump written for this scenario, when the site is
    /// a serve-tier fault ([`FaultSite::dumps_flight_recorder`]) and a
    /// recorder is installed (`ppp_obs::install_flight`). Deliberately
    /// not serialized: the dump is a side artifact, and its ring
    /// content is timing-dependent while [`ChaosOutcome::to_json`] must
    /// stay byte-identical between sequential and parallel sweeps.
    pub flight_dump: Option<std::path::PathBuf>,
}

impl ChaosOutcome {
    /// `true` when this scenario upholds the robustness contract.
    pub fn ok(&self) -> bool {
        self.verdict != ChaosVerdict::Silent && self.lint_clean && self.estimator_ok
    }
}

/// The outcome as a JSON object (stable keys).
impl ToJson for ChaosOutcome {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("benchmark", &self.benchmark)
                .field("site", self.site.name())
                .field("seed", self.seed)
                .field("verdict", self.verdict.name())
                .field("lint_clean", self.lint_clean)
                .field("estimator_ok", self.estimator_ok)
                .field("detail", &self.detail)
                .field("degradation", &self.report);
        });
    }
}

fn record_faults(report: &mut DegradationReport, faults: &[SectionFault]) {
    for f in faults {
        report.push(
            "load-fault",
            format!("section {} ({}): {}", f.func, f.name, f.error),
        );
    }
}

fn lint_ok(module: &Module, guidance: Option<&ModuleEdgeProfile>) -> bool {
    guidance.is_none_or(|g| ppp_lint::check_profile(module, g).is_empty())
}

/// The rung-5 contract: a scenario that bottoms out on the
/// static-estimate rung must still hand back *live* guidance — non-zero
/// somewhere, flow conservative — and its report must name the
/// estimator, so cold starts are never silent `None`s. Vacuously true
/// on every other rung.
fn static_rung_ok(
    module: &Module,
    guidance: Option<&ModuleEdgeProfile>,
    report: &DegradationReport,
) -> bool {
    if report.rung() != LadderRung::StaticEstimate {
        return true;
    }
    let Some(g) = guidance else { return false };
    g.shape_matches(module)
        && g.is_flow_conservative(module)
        && g.funcs.iter().any(|f| !f.is_zero())
        && report.events.iter().any(|e| e.detail.contains("ppp-est"))
}

fn damage_bytes(plan: &FaultPlan, bytes: &mut Vec<u8>) -> String {
    match plan.site {
        FaultSite::TruncateEdgeBytes | FaultSite::TruncatePathBytes => {
            let full = bytes.len();
            let cut = plan.truncate_bytes(bytes);
            format!("truncated artifact at byte {cut} of {full}")
        }
        _ => {
            let hits = plan.corrupt_bytes(bytes, 4);
            format!("flipped bytes at offsets {hits:?}")
        }
    }
}

/// The frame stream one healthy worker would send for `prep`: `Hello`,
/// a seq edge delta, a seq path delta, `Done`.
fn seq_worker_frames(prep: &PreparedBenchmark) -> Vec<Frame> {
    let hello = Hello {
        bench: prep.name.clone(),
        funcs: prep.module.functions.len(),
        scale_bits: 0,
        worker: 0,
    };
    vec![
        Frame::new(FrameKind::Hello, hello.encode()),
        Frame::new(
            FrameKind::SeqEdgeDelta,
            encode_seq_payload(0, 1, &encode_edge_delta(&prep.module, &prep.edges)),
        ),
        Frame::new(
            FrameKind::SeqPathDelta,
            encode_seq_payload(0, 2, &encode_path_delta(&prep.module, &prep.truth)),
        ),
        Frame::new(FrameKind::Done, b"".to_vec()),
    ]
}

fn encode_stream(frames: &[Frame]) -> Vec<u8> {
    frames.iter().flat_map(Frame::encode).collect()
}

/// A reader that yields a fixed prefix of bytes, then times out — the
/// in-memory model of a slowloris peer whose socket deadline fires.
struct StallReader<'a> {
    data: &'a [u8],
    at: usize,
}

impl std::io::Read for StallReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.at >= self.data.len() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "stalled peer",
            ));
        }
        let n = buf.len().min(self.data.len() - self.at);
        buf[..n].copy_from_slice(&self.data[self.at..self.at + n]);
        self.at += n;
        Ok(n)
    }
}

/// Scratch directory (inside `target/`) for one durable chaos
/// scenario, wiped before use. The name is unique per process and call,
/// so sweeps running at once (tests at different scales) never replay
/// each other's WAL.
fn chaos_scratch(prep: &PreparedBenchmark, site: FaultSite, seed: u64) -> std::path::PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ppp-scratch/chaos")
        .join(format!(
            "{}-{}-{seed}-{}-{call}",
            prep.name,
            site.name(),
            std::process::id()
        ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs the merged snapshot of `agg` through the ingestion ladder with
/// `extra` report entries attached.
fn ladder_from_aggregator(
    prep: &PreparedBenchmark,
    detail: String,
    agg: &Aggregator,
    extra: Vec<(&str, String)>,
    harmless: bool,
    force_fail: bool,
) -> (String, DegradationReport, bool, bool, bool) {
    let module = &prep.module;
    let (snap_edges, snap_paths) = agg.snapshot();
    let have_edges = snap_edges.funcs.iter().any(|f| !f.is_zero());
    let have_paths = snap_paths.funcs.iter().any(|fp| !fp.paths.is_empty());
    let (g, mut report) = ingest_guidance(
        module,
        have_edges.then_some(snap_edges),
        if have_paths { Some(&snap_paths) } else { None },
    );
    for (kind, d) in extra {
        report.push(kind, d);
    }
    let lint = !force_fail && lint_ok(module, g.as_ref());
    let est = static_rung_ok(module, g.as_ref(), &report);
    (detail, report, harmless, lint, est)
}

/// Feeds a (possibly damaged) frame stream through a real 2-shard
/// aggregator, then runs whatever survived the merge through the
/// ingestion ladder. Wire-level damage, refused frames, and a missing
/// `Done` each land as structured report entries.
fn wire_fault_scenario(
    prep: &PreparedBenchmark,
    detail: String,
    stream: &[u8],
) -> (String, DegradationReport, bool, bool, bool) {
    let module = &prep.module;
    let agg = Aggregator::new(
        &prep.name,
        Arc::new(module.clone()),
        AggConfig {
            shards: 2,
            queue_cap: 8,
        },
    );
    let sr = agg.ingest_stream(stream);
    let (snap_edges, snap_paths) = agg.snapshot();
    // The contract under damage: whatever *did* merge is still a valid
    // saturating sum of intact deltas, so it can seed the ladder.
    let harmless = sr.clean() && snap_edges == prep.edges;
    let have_edges = snap_edges.funcs.iter().any(|f| !f.is_zero());
    let have_paths = snap_paths.funcs.iter().any(|fp| !fp.paths.is_empty());
    let (g, mut report) = ingest_guidance(
        module,
        have_edges.then_some(snap_edges),
        if have_paths { Some(&snap_paths) } else { None },
    );
    if let Some((off, e)) = &sr.wire_error {
        report.push(
            "wire-damage",
            format!("stream undecodable at byte {off}: {e}"),
        );
    }
    for (idx, e) in &sr.rejected {
        report.push("frame-rejected", format!("frame #{idx} refused: {e}"));
    }
    if !sr.saw_done {
        report.push(
            "connection-lost",
            format!(
                "stream ended after {} accepted frame(s) without Done",
                sr.frames_accepted()
            ),
        );
    }
    let lint = lint_ok(module, g.as_ref());
    let est_ok = static_rung_ok(module, g.as_ref(), &report);
    (detail, report, harmless, lint, est_ok)
}

/// Runs one fault scenario against a prepared benchmark.
///
/// Never panics: every outcome — including container-level load errors —
/// lands on a ladder rung with a structured report.
pub fn chaos_scenario(
    prep: &PreparedBenchmark,
    site: FaultSite,
    seed: u64,
    options: &PipelineOptions,
) -> ChaosOutcome {
    let plan = FaultPlan::new(site, seed);
    let module = &prep.module;
    // Each arm yields: what the injection did, the surviving guidance,
    // the ladder's report, whether the damage was byte-benign, and
    // whether the static-estimate rung (if hit) held its contract.
    let (detail, report, harmless, lint_clean, estimator_ok) = match site {
        FaultSite::TruncateEdgeBytes | FaultSite::CorruptEdgeBytes => {
            let mut bytes = write_edge_profile_v2(module, &prep.edges).into_bytes();
            let detail = damage_bytes(&plan, &mut bytes);
            match salvage_edge_profile(module, &bytes) {
                Ok(s) => {
                    let harmless = s.is_clean() && s.profile == prep.edges;
                    let (g, mut report) =
                        ingest_guidance(module, Some(s.profile), Some(&prep.truth));
                    record_faults(&mut report, &s.faults);
                    let lint = lint_ok(module, g.as_ref());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    (detail, report, harmless, lint, est)
                }
                Err(e) => {
                    // Container-level damage: the whole artifact is
                    // untrusted; rebuild everything from paths.
                    let (g, mut report) = ingest_guidance(module, None, Some(&prep.truth));
                    report.push("load-error", e.to_string());
                    let lint = lint_ok(module, g.as_ref());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    (detail, report, false, lint, est)
                }
            }
        }
        FaultSite::TruncatePathBytes | FaultSite::CorruptPathBytes => {
            // Model a crashed node that persisted only its path profile:
            // the damaged path artifact is the sole guidance source.
            let mut bytes = write_path_profile_v2(module, &prep.truth).into_bytes();
            let detail = damage_bytes(&plan, &mut bytes);
            match salvage_path_profile(module, &bytes) {
                Ok(s) => {
                    let harmless = s.is_clean();
                    let (g, mut report) = ingest_guidance(module, None, Some(&s.profile));
                    record_faults(&mut report, &s.faults);
                    let lint = lint_ok(module, g.as_ref());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    (detail, report, harmless, lint, est)
                }
                Err(e) => {
                    let (g, mut report) = ingest_guidance(module, None, None);
                    report.push("load-error", e.to_string());
                    let lint = lint_ok(module, g.as_ref());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    (detail, report, false, lint, est)
                }
            }
        }
        FaultSite::SaturateCounters => {
            let mut edges = prep.edges.clone();
            let hit = plan.saturate_edge_profile(&mut edges);
            let detail = match hit {
                Some(i) => format!("pinned counters of function #{i} at u64::MAX"),
                None => "empty profile; nothing to saturate".to_owned(),
            };
            let (g, report) = ingest_guidance(module, Some(edges), Some(&prep.truth));
            let lint = lint_ok(module, g.as_ref());
            let est = static_rung_ok(module, g.as_ref(), &report);
            (detail, report, hit.is_none(), lint, est)
        }
        FaultSite::HashOverflow => {
            // Shrink the paper's 701×3 table to 7×3 and force hashing
            // everywhere; probe exhaustion must be *counted*, not silent.
            let mut config = ProfilerConfig::ppp();
            config.params.hash_threshold = 0;
            config.params.hash_slots = 7;
            let (_, r) = instrument_and_run(module, &prep.edges, &config, options.seed);
            let lost = r.store.total_lost();
            let mut report = DegradationReport::default();
            if lost > 0 {
                report.final_rung = Some(LadderRung::SalvagedFunctions);
                report.push(
                    "hash-overflow",
                    format!("{lost} dynamic paths lost to probe exhaustion in a 7x3 table"),
                );
            }
            let detail = "ran PPP with a 7-slot hash table (hash threshold 0)".to_owned();
            (detail, report, lost == 0, true, true)
        }
        FaultSite::DropTraceEvents => {
            let tf = plan.trace_faults();
            let opts = RunOptions::default()
                .with_seed(options.seed)
                .traced()
                .with_trace_faults(tf);
            let detail = format!(
                "dropped every {}th edge event and {}th path completion",
                tf.drop_edge_every, tf.drop_path_every
            );
            match run(module, "main", &opts) {
                Ok(r) => {
                    let (de, dp) = r.trace_events_dropped;
                    let (g, mut report) =
                        ingest_guidance(module, r.edge_profile, r.path_profile.as_ref());
                    if de + dp > 0 {
                        report.push(
                            "trace-drops",
                            format!("VM dropped {de} edge event(s), {dp} path completion(s)"),
                        );
                    }
                    let lint = lint_ok(module, g.as_ref());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    (detail, report, de + dp == 0, lint, est)
                }
                Err(e) => {
                    let (g, mut report) = ingest_guidance(module, None, None);
                    report.push("vm-error", e.to_string());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    (detail, report, false, true, est)
                }
            }
        }
        FaultSite::KillMidRun => {
            // Budget well inside the run's expected step count, so the
            // profile is cut off with paths still in flight.
            let est = (prep.opt.avg_insts * prep.opt.dynamic_paths.max(1) as f64) as u64;
            let budget = plan.kill_step_budget().min((est / 3).max(50));
            let opts = RunOptions {
                max_steps: budget,
                ..RunOptions::default().with_seed(options.seed).traced()
            };
            let detail = format!("killed the profiled run after {budget} steps");
            match run(module, "main", &opts) {
                Ok(r) => {
                    let killed = r.halt == HaltReason::StepLimit;
                    let (g, mut report) =
                        ingest_guidance(module, r.edge_profile, r.path_profile.as_ref());
                    if killed {
                        report.push(
                            "killed-mid-run",
                            format!("run halted after {budget} steps with paths in flight"),
                        );
                    }
                    let lint = lint_ok(module, g.as_ref());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    (detail, report, !killed, lint, est)
                }
                Err(e) => {
                    let (g, mut report) = ingest_guidance(module, None, None);
                    report.push("vm-error", e.to_string());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    (detail, report, false, true, est)
                }
            }
        }
        FaultSite::TruncateFrame => {
            // A worker dying mid-send: the frame stream is cut at a
            // seed-chosen byte, possibly mid-header or mid-payload.
            let mut stream = encode_stream(&seq_worker_frames(prep));
            let full = stream.len();
            let cut = plan.truncate_bytes(&mut stream);
            let detail = format!("truncated the frame stream at byte {cut} of {full}");
            wire_fault_scenario(prep, detail, &stream)
        }
        FaultSite::CorruptFrame => {
            // Bit rot on the wire: the per-frame CRC (or the header
            // magic/kind/length checks) must refuse the damaged frame.
            let mut stream = encode_stream(&seq_worker_frames(prep));
            let hits = plan.corrupt_bytes(&mut stream, 4);
            let detail = format!("flipped frame-stream bytes at offsets {hits:?}");
            wire_fault_scenario(prep, detail, &stream)
        }
        FaultSite::KillConnection => {
            // The connection drops between frames: a seed-chosen prefix
            // of whole frames arrives, and `Done` never does.
            let frames = seq_worker_frames(prep);
            let delivered = plan.frames_delivered(frames.len());
            let stream = encode_stream(&frames[..delivered]);
            let detail = format!(
                "killed the worker connection after {delivered} of {} frames",
                frames.len()
            );
            wire_fault_scenario(prep, detail, &stream)
        }
        FaultSite::CrashRestart => {
            // Crash the durable aggregator after a seed-chosen prefix of
            // sequenced frames — no drain, no final checkpoint — then
            // recover from checkpoint + WAL and let the client replay
            // its *entire* stream, as a resuming client would. Exactly
            // the uncrashed snapshot must come out: nothing lost,
            // nothing double-counted.
            let dir = chaos_scratch(prep, site, seed);
            let dur = DurOptions::new(&dir, 1);
            let config = AggConfig {
                shards: 2,
                queue_cap: 8,
            };
            let module_arc = Arc::new(module.clone());
            let frames = seq_worker_frames(prep);
            let delivered = plan.frames_delivered(frames.len());
            let mut entries: Vec<(&str, String)> = Vec::new();
            let mut force_fail = false;
            let crash_recover = || -> Result<(Aggregator, String), String> {
                let (agg, _) =
                    Aggregator::recover(&prep.name, Arc::clone(&module_arc), config, dur.clone())?;
                for f in &frames[..delivered] {
                    agg.ingest_frame(f).map_err(|e| e.to_string())?;
                }
                drop(agg); // the crash: WAL handle gone, no shutdown checkpoint
                let (agg, rec) =
                    Aggregator::recover(&prep.name, Arc::clone(&module_arc), config, dur)?;
                for f in &frames {
                    agg.ingest_frame(f).map_err(|e| e.to_string())?;
                }
                Ok((agg, rec.summary()))
            };
            let outcome = match crash_recover() {
                Ok((agg, recovery)) => {
                    let (snap_edges, snap_paths) = agg.snapshot();
                    let identical = write_edge_profile_v2(module, &snap_edges)
                        == write_edge_profile_v2(module, &prep.edges)
                        && write_path_profile_v2(module, &snap_paths)
                            == write_path_profile_v2(module, &prep.truth);
                    entries.push((
                        "crash-restart",
                        format!(
                            "crashed after {delivered} of {} frames; recovery: {recovery}",
                            frames.len()
                        ),
                    ));
                    if !identical {
                        entries.push((
                            "recovery-mismatch",
                            "recovered+replayed snapshot differs from the uncrashed one".to_owned(),
                        ));
                        force_fail = true;
                    }
                    let detail = format!(
                        "crashed the durable aggregator after {delivered} of {} frames, recovered, replayed",
                        frames.len()
                    );
                    ladder_from_aggregator(prep, detail, &agg, entries, false, force_fail)
                }
                Err(e) => {
                    // Recovery itself failing is a contract failure.
                    let (g, mut report) = ingest_guidance(module, None, None);
                    report.push("recovery-error", e);
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    let detail = "crash + recovery failed".to_owned();
                    (detail, report, false, false, est)
                }
            };
            let _ = std::fs::remove_dir_all(&dir);
            outcome
        }
        FaultSite::StallConnection => {
            // A slowloris peer: the byte stream stalls mid-frame. The
            // frame reader must surface the typed `timed-out` error —
            // never block forever, never mistake the stall for damage.
            let stream = encode_stream(&seq_worker_frames(prep));
            let cut = plan.stall_offset(stream.len());
            let mut reader = StallReader {
                data: &stream[..cut],
                at: 0,
            };
            let agg = Aggregator::new(
                &prep.name,
                Arc::new(module.clone()),
                AggConfig {
                    shards: 2,
                    queue_cap: 8,
                },
            );
            let mut accepted = 0usize;
            let stall_error = loop {
                match ppp_agg::read_frame(&mut reader) {
                    Ok(Some(f)) => {
                        if agg.ingest_frame(&f).is_ok() {
                            accepted += 1;
                        }
                    }
                    Ok(None) => break None,
                    Err(e) => break Some(e),
                }
            };
            let typed = matches!(stall_error, Some(ReadError::Wire(WireError::TimedOut)));
            let mut entries: Vec<(&str, String)> = Vec::new();
            let force_fail = !typed;
            match &stall_error {
                Some(e) => entries.push((
                    "stalled-connection",
                    format!(
                        "peer stalled at byte {cut} of {}; read surfaced class {:?}: {e}",
                        stream.len(),
                        e.class()
                    ),
                )),
                None => entries.push((
                    "stalled-connection",
                    format!("stall at byte {cut} landed on a frame boundary and read as EOF"),
                )),
            }
            let detail = format!(
                "stalled the connection at byte {cut} of {} ({accepted} whole frame(s) arrived)",
                stream.len()
            );
            ladder_from_aggregator(prep, detail, &agg, entries, false, force_fail)
        }
        FaultSite::ShedOverload => {
            // An overloaded server sheds seed-chosen delta frames with
            // `overloaded` rejections; the client retries each one. The
            // resend after an ambiguous failure is also modeled: every
            // shed frame is delivered *twice* once the server accepts
            // it, and the sequence-watermark dedup must count it once.
            let agg = Aggregator::new(
                &prep.name,
                Arc::new(module.clone()),
                AggConfig {
                    shards: 2,
                    queue_cap: 8,
                },
            );
            let frames = seq_worker_frames(prep);
            let mask = plan.shed_mask(frames.len());
            let mut shed = 0u64;
            let mut duplicates = 0u64;
            let mut error = None;
            for (i, f) in frames.iter().enumerate() {
                let retried =
                    mask[i] && matches!(f.kind, FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta);
                // First delivery (post-shed retry) applies; the
                // ambiguous resend must dedup.
                let deliveries = if retried {
                    shed += 1;
                    2
                } else {
                    1
                };
                for _ in 0..deliveries {
                    match agg.ingest_frame(f) {
                        Ok(IngestOutcome::Applied) => {}
                        Ok(IngestOutcome::Duplicate) => duplicates += 1,
                        Err(e) => error = Some(e.to_string()),
                    }
                }
            }
            let (snap_edges, _) = agg.snapshot();
            let identical = write_edge_profile_v2(module, &snap_edges)
                == write_edge_profile_v2(module, &prep.edges);
            let mut entries: Vec<(&str, String)> = Vec::new();
            let mut force_fail = false;
            if shed > 0 {
                entries.push((
                    "shed-overload",
                    format!(
                        "{shed} frame(s) shed with overloaded rejections and resent; \
                         {duplicates} ambiguous resend(s) dropped as duplicates"
                    ),
                ));
            }
            if let Some(e) = error {
                entries.push(("shed-error", e));
                force_fail = true;
            }
            if !identical || duplicates != shed {
                entries.push((
                    "shed-mismatch",
                    format!(
                        "snapshot identical={identical}, duplicates={duplicates} of {shed} resends — \
                         a shed or resent delta was lost or double-counted"
                    ),
                ));
                force_fail = true;
            }
            let harmless = shed == 0 && !force_fail;
            let detail = format!(
                "shed {shed} of {} frames under overload, retried each, resent each once more",
                frames.len()
            );
            ladder_from_aggregator(prep, detail, &agg, entries, harmless, force_fail)
        }
        FaultSite::StaleShape => {
            // Load the old artifact against a "newer build": the function
            // order rotated AND blocks were split, so naive name/shape
            // matching cannot place the counters. The matched-stale
            // loader (`ppp-match`) transfers them across the CFG change,
            // and the ladder must land on (at least) the matched-stale
            // rung — never silently on full-profile.
            let bytes = write_edge_profile_v2(module, &prep.edges).into_bytes();
            let mut stale = module.clone();
            stale.functions.rotate_left(1);
            let mut rng = SplitMix64::new(seed ^ 0x57A1_E5AA);
            crate::drift::split_blocks(&mut stale, &mut rng);
            let detail = format!(
                "rotated and block-split the {}-function module under a persisted profile",
                stale.functions.len()
            );
            match read_edge_profile_matched(module, &stale, &bytes) {
                Ok((p, msr)) => {
                    let harmless = msr.is_lossless();
                    let floor = if harmless {
                        LadderRung::FullProfile
                    } else {
                        LadderRung::MatchedStale
                    };
                    let (g, mut report) = ingest_guidance_at(&stale, Some(p), None, floor);
                    if !harmless {
                        report.push(
                            "stale-shape",
                            format!(
                                "transferred {} of {} blocks across versions ({} funcs renormalized, {} zeroed, {} flow dropped)",
                                msr.matched_blocks,
                                msr.total_old_blocks,
                                msr.renormalized_funcs.len(),
                                msr.zeroed_funcs.len(),
                                msr.dropped_flow
                            ),
                        );
                    }
                    record_faults(&mut report, &msr.stale.faults);
                    let lint = lint_ok(&stale, g.as_ref());
                    let est = static_rung_ok(&stale, g.as_ref(), &report);
                    (detail, report, harmless, lint, est)
                }
                Err(e) => {
                    let (g, mut report) = ingest_guidance(&stale, None, None);
                    report.push("load-error", e.to_string());
                    let lint = lint_ok(&stale, g.as_ref());
                    let est = static_rung_ok(&stale, g.as_ref(), &report);
                    (detail, report, false, lint, est)
                }
            }
        }
        FaultSite::StaleSnapshotMidReopt => {
            // The JIT loop re-optimizes off an aggregator snapshot taken
            // while the serving run was still streaming deltas: replay
            // the workload with delta streaming, deliver only a
            // seed-chosen prefix of the stream, and snapshot. The
            // snapshot is a truthful prefix — but an arbitrary delta
            // boundary need not be flow-conservative, so the ladder must
            // repair or degrade it, never consume it silently.
            let r = run(
                module,
                "main",
                &RunOptions::default()
                    .with_seed(options.seed)
                    .traced()
                    .with_delta_interval(128),
            );
            match r {
                Ok(r) => {
                    let agg = Arc::new(Aggregator::new(
                        &prep.name,
                        Arc::new(module.clone()),
                        AggConfig {
                            shards: 2,
                            queue_cap: 8,
                        },
                    ));
                    let hello = Hello {
                        bench: prep.name.clone(),
                        funcs: module.functions.len(),
                        scale_bits: 0,
                        worker: 0,
                    };
                    let total = r.deltas.len();
                    let delivered = plan.frames_delivered(total);
                    let mut entries: Vec<(&str, String)> = Vec::new();
                    let mut force_fail = false;
                    match ppp_agg::AggClient::open(
                        Arc::new(module.clone()),
                        ppp_agg::InProcSink::new(Arc::clone(&agg)),
                        4,
                        &hello,
                    ) {
                        Ok(mut client) => {
                            for d in r.deltas.iter().take(delivered) {
                                if let Err(e) = client.push_delta(&d.edges, &d.paths) {
                                    entries.push(("stream-error", e));
                                    force_fail = true;
                                    break;
                                }
                            }
                            if let Err(e) = client.finish() {
                                entries.push(("stream-error", e));
                                force_fail = true;
                            }
                        }
                        Err(e) => {
                            entries.push(("stream-error", e));
                            force_fail = true;
                        }
                    }
                    let harmless = delivered == total && !force_fail;
                    if !harmless {
                        entries.push((
                            "stale-snapshot",
                            format!(
                                "re-optimization consumed a snapshot at delta {delivered} of \
                                 {total}; the serving run was still streaming"
                            ),
                        ));
                    }
                    let detail = format!(
                        "snapshotted mid-serve at delta {delivered} of {total} before re-optimizing"
                    );
                    ladder_from_aggregator(prep, detail, &agg, entries, harmless, force_fail)
                }
                Err(e) => {
                    let (g, mut report) = ingest_guidance(module, None, None);
                    report.push("run-error", e.to_string());
                    let lint = lint_ok(module, g.as_ref());
                    let est = static_rung_ok(module, g.as_ref(), &report);
                    ("serving run failed".to_owned(), report, false, lint, est)
                }
            }
        }
        FaultSite::SwapDuringRun => {
            // The host hot-swaps a re-optimized generation while a
            // workload run is in flight: the run completes on the old
            // code (its checkout pins the old Arc), so its profile
            // arrives against the *new* module's shape and must cross
            // generations via ppp-match before it can guide anything.
            let host = ppp_vm::VmHost::new(Arc::new(module.clone()));
            let checkout = host.checkout();
            let mut next_gen = module.clone();
            let (inline_rep, _) = ppp_opt::inline_module_witnessed(
                &mut next_gen,
                &prep.edges,
                &ppp_opt::InlineOptions::default(),
            );
            ppp_core::normalize_module(&mut next_gen);
            host.swap(Arc::new(next_gen.clone()));
            let detail = format!(
                "swapped generation {} in while a generation-{} run was in flight \
                 ({} call sites inlined)",
                host.generation(),
                checkout.generation,
                inline_rep.inlined_sites
            );
            match run(
                &checkout.module,
                "main",
                &RunOptions::default().with_seed(options.seed).traced(),
            ) {
                Ok(r) => {
                    let old_edges = r.edge_profile.unwrap_or_else(|| prep.edges.clone());
                    let (warm, summary) =
                        ppp_jit::transfer_guidance(&checkout.module, &next_gen, &old_edges);
                    let harmless = summary.identity && summary.dropped_flow == 0;
                    let floor = if harmless {
                        LadderRung::FullProfile
                    } else {
                        LadderRung::MatchedStale
                    };
                    let (g, mut report) = ingest_guidance_at(&next_gen, Some(warm), None, floor);
                    if !harmless {
                        report.push(
                            "swap-during-run",
                            format!(
                                "in-flight run finished on stale code after the swap; \
                                 transferred {} pairs ({} renormalized, {} zeroed, {} flow dropped)",
                                summary.pairs,
                                summary.renormalized_funcs,
                                summary.zeroed_funcs,
                                summary.dropped_flow
                            ),
                        );
                    }
                    let lint = lint_ok(&next_gen, g.as_ref());
                    let est = static_rung_ok(&next_gen, g.as_ref(), &report);
                    (detail, report, harmless, lint, est)
                }
                Err(e) => {
                    let (g, mut report) = ingest_guidance(&next_gen, None, None);
                    report.push("run-error", e.to_string());
                    let lint = lint_ok(&next_gen, g.as_ref());
                    let est = static_rung_ok(&next_gen, g.as_ref(), &report);
                    (detail, report, false, lint, est)
                }
            }
        }
    };
    let verdict = if harmless {
        ChaosVerdict::Harmless
    } else if report.degraded() {
        ChaosVerdict::Reported
    } else {
        ChaosVerdict::Silent
    };
    // Serve-tier faults leave a post-mortem: the scenario-keyed reason
    // makes the filename deterministic, so parallel and sequential
    // sweeps produce the same artifact set.
    let flight_dump = site
        .dumps_flight_recorder()
        .then(|| ppp_obs::flight_dump(&format!("chaos-{}-{}-{seed}", prep.name, site.name())))
        .flatten();
    ChaosOutcome {
        benchmark: prep.name.clone(),
        site,
        seed,
        detail,
        report,
        lint_clean,
        estimator_ok,
        verdict,
        flight_dump,
    }
}

/// Sweeps every fault site over one prepared benchmark.
pub fn chaos_prepared(
    prep: &PreparedBenchmark,
    seed: u64,
    options: &PipelineOptions,
) -> Vec<ChaosOutcome> {
    FaultSite::ALL
        .iter()
        .map(|&site| chaos_scenario(prep, site, seed, options))
        .collect()
}

/// Prepares one suite benchmark and sweeps every fault site over it.
pub fn chaos_benchmark(
    entry: &ppp_workloads::SuiteEntry,
    seed: u64,
    options: &PipelineOptions,
) -> Result<Vec<ChaosOutcome>, PipelineError> {
    let prep = prepare_benchmark(entry, options)?;
    Ok(chaos_prepared(&prep, seed, options))
}

/// Sweeps every fault site across the suite (or one named benchmark).
///
/// Progress goes to stderr. Returns every scenario outcome in suite ×
/// site order. `options.workers > 1` fans the benchmarks over that many
/// threads; every scenario is seed-deterministic and results are
/// collected in suite order, so the output is byte-identical to a
/// sequential sweep.
pub fn chaos_suite(
    bench: Option<&str>,
    seed: u64,
    options: &PipelineOptions,
) -> Result<Vec<ChaosOutcome>, PipelineError> {
    let suite = spec2000_suite();
    let entries: Vec<_> = suite
        .iter()
        .filter(|e| bench.is_none_or(|b| e.spec.name == b))
        .collect();
    let per_bench = ppp_agg::run_indexed(options.workers, entries.len(), |i| {
        let entry = entries[i];
        ppp_obs::global().info(
            "chaos.progress",
            &[("bench", ppp_obs::Value::from(entry.spec.name.as_str()))],
        );
        chaos_benchmark(entry, seed, options)
    });
    let mut outcomes = Vec::new();
    for r in per_bench {
        outcomes.extend(r?);
    }
    Ok(outcomes)
}

/// Renders chaos outcomes as a text table.
pub fn chaos_table(outcomes: &[ChaosOutcome]) -> String {
    let mut t = Table::new([
        "Benchmark",
        "Fault site",
        "Verdict",
        "Rung",
        "Lint",
        "Detail",
    ]);
    for o in outcomes {
        t.row([
            o.benchmark.clone(),
            o.site.to_string(),
            o.verdict.to_string(),
            o.report.rung().to_string(),
            if o.lint_clean { "clean" } else { "DIRTY" }.to_owned(),
            o.detail.clone(),
        ]);
    }
    let failures = outcomes.iter().filter(|o| !o.ok()).count();
    format!(
        "Chaos sweep: {} scenarios, {} reported, {} harmless, {} FAILED\n{}",
        outcomes.len(),
        outcomes
            .iter()
            .filter(|o| o.verdict == ChaosVerdict::Reported)
            .count(),
        outcomes
            .iter()
            .filter(|o| o.verdict == ChaosVerdict::Harmless)
            .count(),
        failures,
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> PipelineOptions {
        PipelineOptions {
            scale: 0.02,
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn chaos_sweep_upholds_the_contract_on_one_benchmark() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let options = tiny();
        let prep = prepare_benchmark(entry, &options).expect("pipeline completes");
        let outcomes = chaos_prepared(&prep, 701, &options);
        assert_eq!(outcomes.len(), FaultSite::ALL.len());
        for o in &outcomes {
            assert!(
                o.ok(),
                "{} {}: silent or lint-dirty\n{}",
                o.benchmark,
                o.site,
                o.report
            );
        }
        // The sweep must actually bite: most sites take effect.
        let reported = outcomes
            .iter()
            .filter(|o| o.verdict == ChaosVerdict::Reported)
            .count();
        assert!(reported >= 5, "only {reported} scenarios took effect");
        // The stale-shape site routes through the cross-version matcher:
        // the CFG drift is real, so the ladder must report (at least)
        // the matched-stale rung — never a silent full-profile claim.
        let stale = outcomes
            .iter()
            .find(|o| o.site == FaultSite::StaleShape)
            .unwrap();
        assert_ne!(stale.verdict, ChaosVerdict::Silent);
        assert!(
            stale.report.rung() >= LadderRung::MatchedStale,
            "stale-shape landed on {}",
            stale.report.rung()
        );
    }

    #[test]
    fn static_estimate_rung_supplies_live_guidance() {
        // Force total guidance loss, the way a load-error scenario does,
        // and check the contract the sweep gates on: rung 5 yields a
        // non-zero conservative estimate and names the estimator.
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let prep = prepare_benchmark(entry, &tiny()).expect("pipeline completes");
        let (g, report) = ingest_guidance(&prep.module, None, None);
        assert_eq!(report.rung(), LadderRung::StaticEstimate);
        assert!(static_rung_ok(&prep.module, g.as_ref(), &report));
        assert!(lint_ok(&prep.module, g.as_ref()));
        // Dropping the guidance or the estimator event must fail it.
        assert!(!static_rung_ok(&prep.module, None, &report));
        let mut scrubbed = report.clone();
        scrubbed.events.retain(|e| !e.detail.contains("ppp-est"));
        assert!(!static_rung_ok(&prep.module, g.as_ref(), &scrubbed));
    }

    #[test]
    fn serve_tier_faults_leave_flight_recorder_dumps() {
        use ppp_obs::json::{self, Json};
        let _obs = crate::obs_test_lock();
        let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/ppp-scratch/chaos-flight");
        let _ = std::fs::remove_dir_all(&dir);
        ppp_obs::install_flight(&dir, 128);
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let options = tiny();
        let prep = prepare_benchmark(entry, &options).expect("pipeline completes");
        for site in FaultSite::ALL
            .into_iter()
            .filter(|s| s.dumps_flight_recorder())
        {
            let o = chaos_scenario(&prep, site, 701, &options);
            assert_ne!(o.verdict, ChaosVerdict::Silent, "{site}");
            let path = o
                .flight_dump
                .unwrap_or_else(|| panic!("{site}: no dump artifact"));
            let doc = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("{site}: unreadable dump {path:?}: {e}"));
            let v = json::parse(&doc).expect("dump parses");
            assert_eq!(
                v.get("schema").and_then(Json::as_str),
                Some(ppp_obs::FLIGHT_SCHEMA)
            );
            assert_eq!(
                v.get("reason").and_then(Json::as_str),
                Some(format!("chaos-mcf-{}-701", site.name()).as_str())
            );
        }
        // Sites outside the serve tier never write dumps.
        let o = chaos_scenario(&prep, FaultSite::SaturateCounters, 701, &options);
        assert_eq!(o.flight_dump, None);
    }

    #[test]
    fn chaos_is_deterministic() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let options = tiny();
        let prep = prepare_benchmark(entry, &options).expect("pipeline completes");
        let a = chaos_prepared(&prep, 42, &options);
        let b = chaos_prepared(&prep, 42, &options);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        // The --workers contract: fan-out changes wall-clock only.
        let sequential = PipelineOptions {
            scale: 0.01,
            workers: 1,
            ..PipelineOptions::default()
        };
        let parallel = PipelineOptions {
            workers: 4,
            ..sequential
        };
        let a = chaos_suite(None, 701, &sequential).expect("sequential sweep");
        let b = chaos_suite(None, 701, &parallel).expect("parallel sweep");
        assert_eq!(a.len(), FaultSite::ALL.len() * spec2000_suite().len());
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(chaos_table(&a), chaos_table(&b));
    }

    #[test]
    fn renderers_cover_every_scenario() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
        let options = tiny();
        let prep = prepare_benchmark(entry, &options).expect("pipeline completes");
        let outcomes = chaos_prepared(&prep, 7, &options);
        let table = chaos_table(&outcomes);
        let json = outcomes.to_json();
        for site in FaultSite::ALL {
            assert!(table.contains(site.name()), "table missing {site}");
            assert!(json.contains(site.name()), "json missing {site}");
        }
        assert!(json.starts_with('[') && json.ends_with(']'));
    }
}
