//! Chaos sweep: deterministic fault injection over the full pipeline.
//!
//! Backs the `repro chaos` subcommand. For each benchmark, every
//! [`FaultSite`] is injected with a seeded [`FaultPlan`]; whatever
//! guidance survives goes through one settle step: the ingestion
//! degradation ladder ([`ingest_guidance_at`]), the profile lint, and the
//! verdict. The sweep asserts the robustness contract:
//!
//! 1. the pipeline always completes — no fault site may panic;
//! 2. damage is never silent — every effective injection produces a
//!    structured [`DegradationReport`] entry (a fault that happens to be
//!    byte-benign, e.g. truncating only a trailing newline, is recorded
//!    as [`ChaosVerdict::Harmless`]);
//! 3. whatever guidance survives still passes the `ppp-lint` profile
//!    checks (shape + Kirchhoff flow conservation, PPP308).

use crate::degrade::{ingest_guidance_at, transfer_floor, DegradationReport, LadderRung};
use crate::format::Table;
use crate::pipeline::{
    prepare_benchmark, sweep_suite, PipelineError, PipelineOptions, PreparedBenchmark,
};
use ppp_agg::{AggConfig, Aggregator, DurOptions, Hello, ReadError};
use ppp_core::{instrument_module, ProfilerConfig};
use ppp_ir::wire::check_frame;
use ppp_ir::{
    encode_edge_delta, encode_frame, encode_path_delta, encode_seq_payload, salvage_edge_profile,
    salvage_path_profile, write_edge_profile_v2, write_path_profile_v2, FrameKind, Module,
    ModuleEdgeProfile, ModulePathProfile, SectionFault, WireError,
};
use ppp_match::{read_edge_profile_matched, transfer_module_edges};
use ppp_obs::json::{self, ToJson};
use ppp_vm::{run, run_with, HaltReason, RunOptions, SplitMix64, Tracer};
use std::borrow::Cow;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

mod faults;

pub use faults::{FaultPlan, FaultSite};

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

/// What one fault injection produced, for [`settle`] to gate: what it
/// did, the module the guidance targets (the prepared one, or the stale
/// or next-generation build a cross-version fault loads against), the
/// surviving edges and paths, the ladder's rung floor, the report events
/// the site itself observed, whether the damage turned out byte-benign,
/// and whether a contract check of the site already failed.
struct Injection<'a> {
    detail: String,
    module: Cow<'a, Module>,
    edges: Option<ModuleEdgeProfile>,
    paths: Option<Cow<'a, ModulePathProfile>>,
    floor: LadderRung,
    events: Vec<(&'static str, String)>,
    harmless: bool,
    failed: bool,
}

impl<'a> Injection<'a> {
    /// An injection against `module` that left no guidance and observed
    /// nothing; each arm overrides what its injection produced.
    fn on(module: Cow<'a, Module>, detail: String) -> Self {
        Injection {
            detail,
            module,
            edges: None,
            paths: None,
            floor: LadderRung::FullProfile,
            events: Vec::new(),
            harmless: false,
            failed: false,
        }
    }

    /// Appends a report event the site observed.
    fn event(mut self, cause: &'static str, detail: impl ToString) -> Self {
        self.events.push((cause, detail.to_string()));
        self
    }

    /// Reports the damage as an event, unless it turned out harmless.
    fn damage(self, cause: &'static str, detail: impl ToString) -> Self {
        if self.harmless {
            self
        } else {
            self.event(cause, detail)
        }
    }

    /// Seeds the ladder with an aggregator's merged snapshot; a side
    /// with no counts at all counts as missing.
    fn merged(self, edges: ModuleEdgeProfile, paths: ModulePathProfile) -> Self {
        let have_edges = edges.funcs.iter().any(|f| !f.is_zero());
        let have_paths = paths.funcs.iter().any(|fp| !fp.paths.is_empty());
        Injection {
            edges: have_edges.then_some(edges),
            paths: have_paths.then_some(Cow::Owned(paths)),
            ..self
        }
    }
}

fn load_faults(faults: &[SectionFault]) -> Vec<(&'static str, String)> {
    let fault = |f: &SectionFault| format!("section {} ({}): {}", f.func, f.name, f.error);
    faults.iter().map(|f| ("load-fault", fault(f))).collect()
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

/// The gate of every laddered site: runs the surviving guidance down the
/// ingestion ladder, appends the site's own events, lints what survived,
/// checks the static-estimate rung, then picks the verdict.
fn settle(prep: &PreparedBenchmark, plan: &FaultPlan, inj: Injection<'_>) -> ChaosOutcome {
    let module = &*inj.module;
    let (g, mut report) = ingest_guidance_at(module, inj.edges, inj.paths.as_deref(), inj.floor);
    for (cause, detail) in inj.events {
        report.push(cause, detail);
    }
    let lint_clean = !inj.failed && lint_ok(module, g.as_ref());
    let estimator_ok = static_rung_ok(module, g.as_ref(), &report);
    ChaosOutcome {
        lint_clean,
        estimator_ok,
        ..outcome(prep, plan, inj.detail, report, inj.harmless)
    }
}

/// A scenario with its final report: picks the verdict and, for
/// serve-tier sites, leaves a flight-recorder post-mortem whose
/// scenario-keyed name is the same in parallel and sequential sweeps.
fn outcome(
    prep: &PreparedBenchmark,
    plan: &FaultPlan,
    detail: String,
    report: DegradationReport,
    harmless: bool,
) -> ChaosOutcome {
    let (site, seed) = (plan.site, plan.seed);
    let verdict = if harmless {
        ChaosVerdict::Harmless
    } else if report.degraded() {
        ChaosVerdict::Reported
    } else {
        ChaosVerdict::Silent
    };
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
        lint_clean: true,
        estimator_ok: true,
        verdict,
        flight_dump,
    }
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

/// The `Hello` one healthy worker opens its stream with.
fn hello(prep: &PreparedBenchmark) -> Hello {
    Hello {
        bench: prep.name.clone(),
        funcs: prep.module.functions.len(),
        scale_bits: 0,
        worker: 0,
    }
}

/// The encoded frames one healthy worker would send for `prep`:
/// `Hello`, a seq edge delta, a seq path delta, `Done`.
fn seq_worker_frames(prep: &PreparedBenchmark) -> Vec<Vec<u8>> {
    vec![
        encode_frame(FrameKind::Hello, &hello(prep).encode()),
        encode_frame(
            FrameKind::SeqEdgeDelta,
            &encode_seq_payload(0, 1, &encode_edge_delta(&prep.module, &prep.edges)),
        ),
        encode_frame(
            FrameKind::SeqPathDelta,
            &encode_seq_payload(0, 2, &encode_path_delta(&prep.module, &prep.truth)),
        ),
        encode_frame(FrameKind::Done, b""),
    ]
}

/// Ingests one encoded frame: `Ok(true)` when the sequence watermark
/// dropped it as a duplicate, `Err` when the aggregator refused it.
fn ingest_one(agg: &Aggregator, wire: &[u8]) -> Result<bool, String> {
    let report = agg.ingest_stream(wire);
    match (report.wire_error, report.rejected.first()) {
        (Some((_, e)), _) => Err(e.to_string()),
        (None, Some((_, e))) => Err(e.to_string()),
        (None, None) => Ok(report.duplicates > 0),
    }
}

/// A reader whose every read times out: chained after a byte prefix, the
/// in-memory model of a slowloris peer whose socket deadline fires.
struct TimesOut;

impl std::io::Read for TimesOut {
    fn read(&mut self, _: &mut [u8]) -> std::io::Result<usize> {
        let stalled = std::io::Error::new(std::io::ErrorKind::TimedOut, "stalled peer");
        Err(stalled)
    }
}

/// Scratch directory (inside `target/`) for one durable chaos
/// scenario, wiped before use. The name is unique per process and call,
/// so sweeps running at once (tests at different scales) never replay
/// each other's WAL.
fn chaos_scratch(prep: &PreparedBenchmark, plan: &FaultPlan) -> std::path::PathBuf {
    static CALLS: AtomicU64 = AtomicU64::new(0);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    let (site, seed, pid) = (plan.site.name(), plan.seed, std::process::id());
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/ppp-scratch/chaos")
        .join(format!("{}-{site}-{seed}-{pid}-{call}", prep.name));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Every scenario aggregator: two shards behind a short queue.
const SCENARIO_AGG: AggConfig = AggConfig {
    shards: 2,
    queue_cap: 8,
};

/// Builds the scenario aggregator for `prep`, feeds it through `feed`,
/// and returns what `feed` returned with the merged snapshot.
fn aggregate<T>(
    prep: &PreparedBenchmark,
    feed: impl FnOnce(&Arc<Aggregator>) -> T,
) -> (T, ModuleEdgeProfile, ModulePathProfile) {
    let module = Arc::new(prep.module.clone());
    let agg = Arc::new(Aggregator::new(&prep.name, module, SCENARIO_AGG));
    let fed = feed(&agg);
    let (edges, paths) = agg.snapshot();
    (fed, edges, paths)
}

/// Feeds a (possibly damaged) frame stream through the scenario
/// aggregator; whatever survived the merge seeds the ladder. Wire-level
/// damage, refused frames, and a missing `Done` each land as structured
/// report entries.
fn wire_fault<'a>(prep: &'a PreparedBenchmark, detail: String, stream: &[u8]) -> Injection<'a> {
    let (sr, edges, paths) = aggregate(prep, |agg| agg.ingest_stream(stream));
    // The contract under damage: whatever *did* merge is still a valid
    // saturating sum of intact deltas, so it can seed the ladder.
    let harmless = sr.clean() && edges == prep.edges;
    let mut inj = Injection {
        harmless,
        ..Injection::on(Cow::Borrowed(&prep.module), detail)
    };
    if let Some((off, e)) = &sr.wire_error {
        let undecodable = format!("stream undecodable at byte {off}: {e}");
        inj = inj.event("wire-damage", undecodable);
    }
    for (idx, e) in &sr.rejected {
        inj = inj.event("frame-rejected", format!("frame #{idx} refused: {e}"));
    }
    if !sr.saw_done {
        let accepted = sr.frames_accepted();
        let lost = format!("stream ended after {accepted} accepted frame(s) without Done");
        inj = inj.event("connection-lost", lost);
    }
    inj.merged(edges, paths)
}

/// Runs one fault scenario against a prepared benchmark.
///
/// Never panics: every outcome — including container-level load errors —
/// lands on a ladder rung with a structured report. Each site only
/// injects its fault and says what survived; one settle step gates it.
pub fn chaos_scenario(
    prep: &PreparedBenchmark,
    site: FaultSite,
    seed: u64,
    options: &PipelineOptions,
) -> ChaosOutcome {
    let plan = FaultPlan::new(site, seed);
    let module = &prep.module;
    let on = |detail: String| Injection::on(Cow::Borrowed(module), detail);
    let inj = match site {
        FaultSite::TruncateEdgeBytes | FaultSite::CorruptEdgeBytes => {
            let mut bytes = write_edge_profile_v2(module, &prep.edges).into_bytes();
            let detail = damage_bytes(&plan, &mut bytes);
            let truth = Some(Cow::Borrowed(&prep.truth));
            match salvage_edge_profile(module, &bytes) {
                Ok(s) => Injection {
                    harmless: s.is_clean() && s.profile == prep.edges,
                    events: load_faults(&s.faults),
                    edges: Some(s.profile),
                    paths: truth,
                    ..on(detail)
                },
                // Container-level damage: the whole artifact is
                // untrusted; rebuild everything from paths.
                Err(e) => Injection {
                    paths: truth,
                    ..on(detail)
                }
                .event("load-error", e),
            }
        }
        FaultSite::TruncatePathBytes | FaultSite::CorruptPathBytes => {
            // Model a crashed node that persisted only its path profile:
            // the damaged path artifact is the sole guidance source.
            let mut bytes = write_path_profile_v2(module, &prep.truth).into_bytes();
            let detail = damage_bytes(&plan, &mut bytes);
            match salvage_path_profile(module, &bytes) {
                Ok(s) => Injection {
                    harmless: s.is_clean(),
                    events: load_faults(&s.faults),
                    paths: Some(Cow::Owned(s.profile)),
                    ..on(detail)
                },
                Err(e) => on(detail).event("load-error", e),
            }
        }
        FaultSite::SaturateCounters => {
            let mut edges = prep.edges.clone();
            let hit = plan.saturate_edge_profile(&mut edges);
            let detail = match hit {
                Some(i) => format!("pinned counters of function #{i} at u64::MAX"),
                None => "empty profile; nothing to saturate".to_owned(),
            };
            Injection {
                edges: Some(edges),
                paths: Some(Cow::Borrowed(&prep.truth)),
                harmless: hit.is_none(),
                ..on(detail)
            }
        }
        FaultSite::HashOverflow => {
            // Shrink the paper's 701×3 table to 7×3 and force hashing
            // everywhere; probe exhaustion must be *counted*, not silent.
            // The one site that runs no ladder: it damages the profiler,
            // not a profile, so it reports its loss counter directly.
            let mut config = ProfilerConfig::ppp();
            config.params.hash_threshold = 0;
            config.params.hash_slots = 7;
            let instrumented = instrument_module(module, Some(&prep.edges), &config).module;
            let detail = "ran PPP with a 7-slot hash table (hash threshold 0)".to_owned();
            let opts = RunOptions::default().with_seed(options.seed);
            let r = match run(&instrumented, "main", &opts) {
                Ok(r) => r,
                Err(e) => return settle(prep, &plan, on(detail).event("run-error", e)),
            };
            let lost = r.store.total_lost();
            let mut report = DegradationReport::default();
            if lost > 0 {
                report.final_rung = Some(LadderRung::SalvagedFunctions);
                report.push(
                    "hash-overflow",
                    format!("{lost} dynamic paths lost to probe exhaustion in a 7x3 table"),
                );
            }
            return outcome(prep, &plan, detail, report, lost == 0);
        }
        FaultSite::DropTraceEvents => {
            let tf = plan.trace_faults();
            let detail = format!(
                "dropped every {}th edge event and {}th path completion",
                tf.drop_edge_every, tf.drop_path_every
            );
            let mut tracer = Tracer::new(module);
            tracer.inject_faults(tf);
            let opts = RunOptions::default().with_seed(options.seed);
            match run_with(module, "main", &opts, &mut tracer) {
                Ok(_) => {
                    let (de, dp) = tracer.dropped_events();
                    let obs = ppp_obs::global();
                    let labels = [("bench", prep.name.as_str())];
                    obs.metrics()
                        .inc_by("ppp_vm_trace_edge_events_dropped_total", &labels, de);
                    obs.metrics()
                        .inc_by("ppp_vm_trace_path_events_dropped_total", &labels, dp);
                    let (edges, paths) = tracer.finish(module);
                    let drops = format!("VM dropped {de} edge event(s), {dp} path completion(s)");
                    Injection {
                        edges: Some(edges),
                        paths: Some(Cow::Owned(paths)),
                        harmless: de + dp == 0,
                        ..on(detail)
                    }
                    .damage("trace-drops", drops)
                }
                Err(e) => on(detail).event("vm-error", e),
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
                Ok(r) => Injection {
                    edges: r.edge_profile,
                    paths: r.path_profile.map(Cow::Owned),
                    harmless: r.halt != HaltReason::StepLimit,
                    ..on(detail)
                }
                .damage(
                    "killed-mid-run",
                    format!("run halted after {budget} steps with paths in flight"),
                ),
                Err(e) => on(detail).event("vm-error", e),
            }
        }
        FaultSite::TruncateFrame => {
            // A worker dying mid-send: the frame stream is cut at a
            // seed-chosen byte, possibly mid-header or mid-payload.
            let mut stream = seq_worker_frames(prep).concat();
            let full = stream.len();
            let cut = plan.truncate_bytes(&mut stream);
            let detail = format!("truncated the frame stream at byte {cut} of {full}");
            wire_fault(prep, detail, &stream)
        }
        FaultSite::CorruptFrame => {
            // Bit rot on the wire: the per-frame CRC (or the header
            // magic/kind/length checks) must refuse the damaged frame.
            let mut stream = seq_worker_frames(prep).concat();
            let hits = plan.corrupt_bytes(&mut stream, 4);
            let detail = format!("flipped frame-stream bytes at offsets {hits:?}");
            wire_fault(prep, detail, &stream)
        }
        FaultSite::KillConnection => {
            // The connection drops between frames: a seed-chosen prefix
            // of whole frames arrives, and `Done` never does.
            let frames = seq_worker_frames(prep);
            let (sent, delivered) = (frames.len(), plan.frames_delivered(frames.len()));
            let stream = frames[..delivered].concat();
            let detail = format!("killed the worker connection after {delivered} of {sent} frames");
            wire_fault(prep, detail, &stream)
        }
        FaultSite::CrashRestart => {
            // Crash the durable aggregator after a seed-chosen prefix of
            // sequenced frames — no drain, no final checkpoint — then
            // recover from checkpoint + WAL and let the client replay
            // its *entire* stream, as a resuming client would. Exactly
            // the uncrashed snapshot must come out: nothing lost,
            // nothing double-counted.
            let dir = chaos_scratch(prep, &plan);
            let dur = DurOptions::new(&dir, 1);
            let module_arc = Arc::new(module.clone());
            let recover =
                |dur| Aggregator::recover(&prep.name, module_arc.clone(), SCENARIO_AGG, dur);
            let frames = seq_worker_frames(prep);
            let delivered = plan.frames_delivered(frames.len());
            let crash_recover = || -> Result<_, String> {
                let (agg, _) = recover(dur.clone())?;
                for f in &frames[..delivered] {
                    ingest_one(&agg, f)?;
                }
                drop(agg); // the crash: WAL handle gone, no shutdown checkpoint
                let (agg, rec) = recover(dur)?;
                for f in &frames {
                    ingest_one(&agg, f)?;
                }
                let (edges, paths) = agg.snapshot();
                Ok((edges, paths, rec.summary()))
            };
            let recovered = crash_recover();
            let _ = std::fs::remove_dir_all(&dir);
            let sent = frames.len();
            match recovered {
                Ok((edges, paths, recovery)) => {
                    let identical = edges == prep.edges && paths == prep.truth;
                    let detail = format!(
                        "crashed the durable aggregator after {delivered} of {sent} frames, recovered, replayed"
                    );
                    let crash =
                        format!("crashed after {delivered} of {sent} frames; recovery: {recovery}");
                    let mut inj = Injection {
                        failed: !identical,
                        ..on(detail)
                    }
                    .event("crash-restart", crash);
                    if !identical {
                        let mismatch = "recovered+replayed snapshot differs from the uncrashed one";
                        inj = inj.event("recovery-mismatch", mismatch);
                    }
                    inj.merged(edges, paths)
                }
                // Recovery itself failing is a contract failure.
                Err(e) => Injection {
                    failed: true,
                    ..on("crash + recovery failed".to_owned())
                }
                .event("recovery-error", e),
            }
        }
        FaultSite::StallConnection => {
            // A slowloris peer: the byte stream stalls mid-frame. The
            // frame reader must surface the typed `timed-out` error —
            // never block forever, never mistake the stall for damage.
            let stream = seq_worker_frames(prep).concat();
            let len = stream.len();
            let cut = plan.stall_offset(len);
            let mut reader = std::io::Read::chain(&stream[..cut], TimesOut);
            let ((stall_error, accepted), edges, paths) = aggregate(prep, |agg| {
                let mut accepted = 0usize;
                let stall_error = loop {
                    match ppp_agg::read_frame(&mut reader) {
                        Ok(Some((_, wire))) => {
                            accepted += usize::from(ingest_one(agg, &wire).is_ok())
                        }
                        Ok(None) => break None,
                        Err(e) => break Some(e),
                    }
                };
                (stall_error, accepted)
            });
            let typed = matches!(stall_error, Some(ReadError::Wire(WireError::TimedOut)));
            let stalled = match &stall_error {
                Some(e) => format!(
                    "peer stalled at byte {cut} of {len}; read surfaced class {:?}: {e}",
                    e.class()
                ),
                None => format!("stall at byte {cut} landed on a frame boundary and read as EOF"),
            };
            let detail = format!(
                "stalled the connection at byte {cut} of {len} ({accepted} whole frame(s) arrived)"
            );
            Injection {
                failed: !typed,
                ..on(detail)
            }
            .event("stalled-connection", stalled)
            .merged(edges, paths)
        }
        FaultSite::ShedOverload => {
            // An overloaded server sheds seed-chosen delta frames with
            // `overloaded` rejections; the client retries each one. The
            // resend after an ambiguous failure is also modeled: every
            // shed frame is delivered *twice* once the server accepts
            // it, and the sequence-watermark dedup must count it once.
            let frames = seq_worker_frames(prep);
            let mask = plan.shed_mask(frames.len());
            let ((shed, duplicates, error), edges, paths) = aggregate(prep, |agg| {
                let (mut shed, mut duplicates, mut error) = (0u64, 0u64, None);
                for (i, f) in frames.iter().enumerate() {
                    let retried = mask[i]
                        && matches!(
                            check_frame(f),
                            Ok((FrameKind::SeqEdgeDelta | FrameKind::SeqPathDelta, _))
                        );
                    shed += u64::from(retried);
                    // First delivery (post-shed retry) applies; the
                    // ambiguous resend must dedup.
                    for _ in 0..1 + usize::from(retried) {
                        match ingest_one(agg, f) {
                            Ok(duplicate) => duplicates += u64::from(duplicate),
                            Err(e) => error = Some(e),
                        }
                    }
                }
                (shed, duplicates, error)
            });
            let identical = edges == prep.edges;
            let mismatch = !identical || duplicates != shed;
            let failed = error.is_some() || mismatch;
            let detail = format!(
                "shed {shed} of {} frames under overload, retried each, resent each once more",
                frames.len()
            );
            let mut inj = Injection {
                harmless: shed == 0 && !failed,
                failed,
                ..on(detail)
            };
            if shed > 0 {
                inj = inj.event(
                    "shed-overload",
                    format!(
                        "{shed} frame(s) shed with overloaded rejections and resent; \
                         {duplicates} ambiguous resend(s) dropped as duplicates"
                    ),
                );
            }
            if let Some(e) = error {
                inj = inj.event("shed-error", e);
            }
            if mismatch {
                inj = inj.event(
                    "shed-mismatch",
                    format!(
                        "snapshot identical={identical}, duplicates={duplicates} of {shed} resends — \
                         a shed or resent delta was lost or double-counted"
                    ),
                );
            }
            inj.merged(edges, paths)
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
                    let t = &msr.transfer;
                    let transferred = format!(
                        "transferred {} of {} blocks across versions ({} funcs renormalized, {} zeroed, {} flow dropped)",
                        t.matched_blocks,
                        t.total_old_blocks,
                        t.renormalized_funcs.len(),
                        t.zeroed_funcs.len(),
                        t.dropped_flow
                    );
                    let mut inj = Injection {
                        edges: Some(p),
                        floor: transfer_floor(harmless),
                        harmless,
                        ..Injection::on(Cow::Owned(stale), detail)
                    }
                    .damage("stale-shape", transferred);
                    inj.events.extend(load_faults(&msr.stale.faults));
                    inj
                }
                Err(e) => Injection::on(Cow::Owned(stale), detail).event("load-error", e),
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
            let opts = RunOptions::default()
                .with_seed(options.seed)
                .traced()
                .with_delta_interval(128);
            match run(module, "main", &opts) {
                Ok(r) => {
                    let total = r.deltas.len();
                    let delivered = plan.frames_delivered(total);
                    let (errors, edges, paths) = aggregate(prep, |agg| {
                        let sink = ppp_agg::InProcSink::new(Arc::clone(agg));
                        let module = Arc::new(module.clone());
                        match ppp_agg::AggClient::open(module, sink, 4, &hello(prep)) {
                            Ok(mut client) => {
                                let pushed = (r.deltas.iter().take(delivered))
                                    .try_for_each(|d| client.push_delta(&d.edges, &d.paths));
                                let finished = client.finish();
                                [pushed, finished]
                                    .into_iter()
                                    .filter_map(Result::err)
                                    .collect()
                            }
                            Err(e) => vec![e],
                        }
                    });
                    let failed = !errors.is_empty();
                    let detail = format!(
                        "snapshotted mid-serve at delta {delivered} of {total} before re-optimizing"
                    );
                    let stale = format!(
                        "re-optimization consumed a snapshot at delta {delivered} of \
                         {total}; the serving run was still streaming"
                    );
                    Injection {
                        events: errors.into_iter().map(|e| ("stream-error", e)).collect(),
                        harmless: delivered == total && !failed,
                        failed,
                        ..on(detail)
                    }
                    .damage("stale-snapshot", stale)
                    .merged(edges, paths)
                }
                Err(e) => on("serving run failed".to_owned()).event("run-error", e),
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
            let opts = RunOptions::default().with_seed(options.seed).traced();
            match run(&checkout.module, "main", &opts) {
                Ok(r) => {
                    let old_edges = r.edge_profile.unwrap_or_else(|| prep.edges.clone());
                    let (warm, t) = transfer_module_edges(&checkout.module, &next_gen, &old_edges);
                    let harmless = t.is_lossless();
                    let swapped = format!(
                        "in-flight run finished on stale code after the swap; \
                         transferred {} pairs ({} renormalized, {} zeroed, {} flow dropped)",
                        t.paired_funcs,
                        t.renormalized_funcs.len(),
                        t.zeroed_funcs.len(),
                        t.dropped_flow
                    );
                    Injection {
                        edges: Some(warm),
                        floor: transfer_floor(harmless),
                        harmless,
                        ..Injection::on(Cow::Owned(next_gen), detail)
                    }
                    .damage("swap-during-run", swapped)
                }
                Err(e) => Injection::on(Cow::Owned(next_gen), detail).event("run-error", e),
            }
        }
    };
    settle(prep, &plan, inj)
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

/// Sweeps every fault site across the suite (or one named benchmark).
///
/// Returns every scenario outcome in suite × site order. Every scenario
/// is seed-deterministic, so `options.workers` changes wall-clock only.
pub fn chaos_suite(
    bench: Option<&str>,
    seed: u64,
    options: &PipelineOptions,
) -> Result<Vec<ChaosOutcome>, PipelineError> {
    let per_bench: Vec<_> = sweep_suite(bench, options.workers, "chaos.progress", |entry| {
        prepare_benchmark(entry, options).map(|prep| chaos_prepared(&prep, seed, options))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(per_bench.into_iter().flatten().collect())
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
    let count = |v| outcomes.iter().filter(|o| o.verdict == v).count();
    format!(
        "Chaos sweep: {} scenarios, {} reported, {} harmless, {} FAILED\n{}",
        outcomes.len(),
        count(ChaosVerdict::Reported),
        count(ChaosVerdict::Harmless),
        outcomes.iter().filter(|o| !o.ok()).count(),
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::ingest_guidance;
    use ppp_workloads::spec2000_suite;

    fn tiny() -> PipelineOptions {
        PipelineOptions {
            scale: 0.02,
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn chaos_sweep_upholds_the_contract_on_one_benchmark() {
        // The sweep's crash-recover site appends to a WAL, which lands in
        // the global metrics a drive test reads.
        let _obs = crate::obs_test_lock();
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
        // The sweep's crash-recover site appends to a WAL, which lands in
        // the global metrics a drive test reads.
        let _obs = crate::obs_test_lock();
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
        // The sweep's crash-recover site appends to a WAL, which lands in
        // the global metrics a drive test reads.
        let _obs = crate::obs_test_lock();
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
        // The sweep's crash-recover site appends to a WAL, which lands in
        // the global metrics a drive test reads.
        let _obs = crate::obs_test_lock();
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
