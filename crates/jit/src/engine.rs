//! The generation loop: serve → snapshot → re-optimize → validate →
//! transfer → swap → repeat until steady state.

use crate::fold::fold_edge_profile;
use crate::reopt::{bootstrap, reoptimize, traced};
use ppp_agg::{AggClient, AggConfig, AggService, Hello, InProcSink};
use ppp_core::{instrument_module, ProfilerConfig};
use ppp_ir::{Module, ModuleEdgeProfile};
use ppp_lint::LintReport;
use ppp_match::{transfer_module_edges, TransferReport};
use ppp_opt::{InlineReport, UnrollReport};
use ppp_vm::{RunOptions, VmError, VmHost};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// Typed failures of the re-optimization loop (and of the one-shot
/// pipeline, which runs its first generation).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum JitError {
    /// The benchmark module has no `main` to execute.
    NoMain {
        /// Benchmark name.
        benchmark: String,
        /// Underlying VM error.
        error: VmError,
    },
    /// A traced run came back without profiles (tracing disabled).
    NotTraced {
        /// Benchmark name.
        benchmark: String,
    },
    /// The aggregation tier refused a registration or a frame.
    Agg {
        /// Benchmark name.
        benchmark: String,
        /// Aggregator-side error text.
        detail: String,
    },
}

impl fmt::Display for JitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JitError::NoMain { benchmark, error } => {
                write!(f, "{benchmark}: cannot execute benchmark: {error}")
            }
            JitError::NotTraced { benchmark } => {
                write!(f, "{benchmark}: traced run produced no profiles")
            }
            JitError::Agg { benchmark, detail } => {
                write!(f, "{benchmark}: aggregation: {detail}")
            }
        }
    }
}

impl std::error::Error for JitError {}

impl JitError {
    /// Maps a failed run of `bench`'s module to [`JitError::NoMain`].
    pub(crate) fn no_main(bench: &str) -> impl FnOnce(VmError) -> Self + '_ {
        |error| JitError::NoMain {
            benchmark: bench.to_owned(),
            error,
        }
    }
}

/// Tuning knobs of the re-optimization loop.
#[derive(Clone, Copy, Debug)]
pub struct JitOptions {
    /// Generation cap: the loop stops here even without steady state.
    pub generations: usize,
    /// Hot-function threshold (share of module flow in `[0, 1]`) for
    /// [`ppp_opt::select_hot_functions`]. `0.0` re-optimizes every
    /// function — the one-shot pipeline's setting, which makes a
    /// 1-generation loop byte-identical to it.
    pub hot_threshold: f64,
    /// Steady-state criterion: stop when the relative cost-model
    /// improvement of a generation falls below this.
    pub epsilon: f64,
    /// VM seed (fixed across the loop: the paper's *self advice*
    /// setting, §7.2).
    pub seed: u64,
    /// Workload scale factor, carried in each delta stream's `Hello`.
    pub scale: f64,
    /// Start generation 1 from a `ppp-est` static estimate instead of a
    /// traced warmup profile (a cold code cache).
    pub cold_start: bool,
}

/// Tracer delta interval of each serving run's stream.
const DELTA_INTERVAL: u64 = 2048;
/// Deltas per shipped frame batch.
const BATCH: usize = 4;
/// Aggregator shard threads.
const SHARDS: usize = 2;

impl Default for JitOptions {
    fn default() -> Self {
        Self {
            generations: 8,
            hot_threshold: 0.0,
            epsilon: 0.01,
            seed: 0x5EED,
            scale: 1.0,
            cold_start: false,
        }
    }
}

/// Everything one generation of the loop did.
#[derive(Clone, Debug)]
pub struct GenerationReport {
    /// Generation number (1-based).
    pub generation: usize,
    /// Host generation counter serving this generation's code.
    pub host_generation: u64,
    /// Instrumented serving-run cost (cost-model units).
    pub serve_cost: u64,
    /// Profiling-only share of the serving cost.
    pub serve_prof_cost: u64,
    /// Serving overhead vs. the uninstrumented cost of the same code.
    pub overhead: f64,
    /// Deltas streamed to the aggregator by the serving run.
    pub deltas_streamed: usize,
    /// Routines the PPP plan instrumented.
    pub instrumented_routines: usize,
    /// Static instrumentation instructions inserted.
    pub static_prof_insts: usize,
    /// Functions selected as hot this generation.
    pub hot_functions: usize,
    /// Total functions in the module.
    pub total_functions: usize,
    /// Inliner report for the candidate.
    pub inline: InlineReport,
    /// Unroller report for the candidate.
    pub unroll: UnrollReport,
    /// Named per-stage lint reports (witness validation PPP3xx, profile
    /// gates PPP307/308), in stage order.
    pub stages: Vec<(String, LintReport)>,
    /// Uninstrumented cost-model cost of the candidate module.
    pub candidate_cost: u64,
    /// Cost of the code the loop serves *after* this generation (the
    /// candidate if promoted, otherwise unchanged) — monotone
    /// non-increasing across generations by construction.
    pub cost_after: u64,
    /// Relative improvement over the previous generation (signed).
    pub improvement: f64,
    /// Cumulative speedup vs. generation 0 (initial cost / cost_after).
    pub speedup_vs_initial: f64,
    /// Whether the candidate replaced the served module.
    pub promoted: bool,
    /// Profile transfer onto the promoted module (None when the
    /// candidate was rejected).
    pub transfer: Option<TransferReport>,
    /// Wall-clock time of the generation (recorded, never gated).
    pub wall_ms: f64,
}

impl GenerationReport {
    /// `true` when every stage gate of this generation came back clean.
    pub fn witness_clean(&self) -> bool {
        self.stages.iter().all(|(_, r)| r.is_empty())
    }

    /// `true` when the transferred guidance passed the PPP308
    /// flow-conservation gate (the `transfer` stage; vacuously true when
    /// nothing was transferred). Always expected: transfer repairs or
    /// zeroes.
    pub fn transfer_conservative(&self) -> bool {
        self.stages
            .iter()
            .filter(|(name, _)| name == "transfer")
            .all(|(_, r)| r.is_empty())
    }
}

/// The outcome of a full re-optimization loop on one benchmark.
#[derive(Clone, Debug)]
pub struct JitOutcome {
    /// Benchmark name.
    pub bench: String,
    /// Per-generation reports, in order.
    pub generations: Vec<GenerationReport>,
    /// `true` when the steady-state criterion fired (as opposed to the
    /// generation cap).
    pub steady_state: bool,
    /// Generations executed until steady state (or the cap).
    pub generations_run: usize,
    /// Uninstrumented cost of generation 0 (post-bootstrap, pre-loop).
    pub initial_cost: u64,
    /// Uninstrumented cost of the final served module.
    pub final_cost: u64,
    /// `initial_cost / final_cost`.
    pub total_speedup: f64,
    /// Module hot-swaps performed by the host (includes the final
    /// re-instrumentation swap).
    pub swaps: u64,
    /// Lint report of the final re-instrumentation plan.
    pub final_instrument: LintReport,
    /// The steady-state module the host is left serving (uninstrumented
    /// form).
    pub final_module: Module,
    /// The warm guidance profile the final instrumentation used.
    pub final_guidance: ModuleEdgeProfile,
    /// Total wall-clock time of the loop (recorded, never gated).
    pub wall_ms: f64,
}

impl JitOutcome {
    /// `true` when `cost_after` never increases across generations.
    ///
    /// Generation 1 is the initial profile-guided build and sets the
    /// baseline; `initial_cost` (the unoptimized generation 0) is not
    /// part of the monotone chain, mirroring the one-shot pipeline
    /// which ships its PGO build unconditionally.
    pub fn monotone_costs(&self) -> bool {
        let mut prev = u64::MAX;
        self.generations.iter().all(|g| {
            let ok = g.cost_after <= prev;
            prev = g.cost_after;
            ok
        })
    }

    /// `true` when every generation's stage gates are clean and the
    /// final instrumentation plan lints clean.
    pub fn witness_clean(&self) -> bool {
        self.generations.iter().all(GenerationReport::witness_clean)
            && self.final_instrument.is_empty()
    }

    /// `true` when every profile transfer was PPP308-conservative.
    pub fn transfers_conservative(&self) -> bool {
        self.generations
            .iter()
            .all(GenerationReport::transfer_conservative)
    }
}

/// Runs the closed re-optimization loop on one (freshly generated,
/// unoptimized) module until steady state or the generation cap.
///
/// Generation 0 is the one-shot pipeline's [`bootstrap`](crate::bootstrap)
/// (witnessed scalar optimization, then normalization). Each
/// subsequent generation instruments the served module with PPP,
/// hot-swaps the instrumented code into a [`VmHost`], runs the workload
/// once while streaming tracer deltas to a live aggregator, snapshots,
/// folds the snapshot back onto the served module (exact, see
/// [`fold_edge_profile`]), re-optimizes the hot functions with the
/// pipeline's own step ([`reoptimize`](crate::reoptimize): witnessed
/// inline → re-profile → witnessed unroll → witnessed scalar → profile),
/// and promotes the candidate only if its uninstrumented cost
/// did not increase — transferring the stale profile onto the new module
/// so the next generation's instrumentation starts warm. Every stage is
/// translation-validated and every profile gated for flow conservation.
pub fn run_jit(module: &Module, bench: &str, options: &JitOptions) -> Result<JitOutcome, JitError> {
    let obs = ppp_obs::global();
    let started = Instant::now();
    let mut span = obs.span("jit.loop");
    span.set("bench", bench);

    // Generation 0: the pipeline's bootstrap, witnessed and gated. One
    // run of it gives the initial cost and generation 1's
    // instrumentation guidance: warm, a traced run (it retires the
    // uninstrumented cost) whose profile is the guidance (self advice);
    // cold, an untraced run and the ppp-est static estimate.
    let mut m = module.clone();
    let mut boot_stages = vec![bootstrap(&mut m, &span)];
    let (initial_cost, mut guidance) = if options.cold_start {
        let seeded = RunOptions::default().with_seed(options.seed);
        let r0 = ppp_vm::run(&m, "main", &seeded).map_err(JitError::no_main(bench))?;
        let est = ppp_est::estimate_module(&m, &ppp_est::EstOptions::default()).0;
        (r0.cost, est)
    } else {
        let (r0, e0, _) = traced(&m, options.seed, bench)?;
        (r0.cost, e0)
    };
    let mut cost_cur = initial_cost;
    boot_stages.push((
        "guidance@boot".into(),
        ppp_lint::check_profile(&m, &guidance),
    ));

    let service = AggService::new(AggConfig {
        shards: SHARDS,
        ..AggConfig::default()
    });
    let mut host: Option<VmHost> = None;
    let mut swaps = 0u64;
    let mut generations: Vec<GenerationReport> = Vec::new();
    let mut steady_state = false;

    for g in 1..=options.generations.max(1) {
        let gen_started = Instant::now();
        let mut gspan = span.child("jit.generation");
        gspan.set("bench", bench);
        gspan.set("generation", g as u64);
        let mut stages: Vec<(String, LintReport)> = std::mem::take(&mut boot_stages);

        // Instrument the served module and hot-swap the plan in.
        let plan = {
            let _s = gspan.child("jit.instrument");
            instrument_module(&m, Some(&guidance), &ProfilerConfig::ppp())
        };
        let lint = {
            let _s = gspan.child("jit.lint");
            ppp_lint::ModuleLint::new(&m).plan(&plan)
        };
        stages.push(("instrument".into(), lint));
        let instrumented = Arc::new(plan.module.clone());
        let host_generation = match &host {
            None => {
                host = Some(VmHost::new(Arc::clone(&instrumented)));
                0
            }
            Some(h) => {
                let _s = gspan.child("jit.swap");
                swaps += 1;
                obs.metrics()
                    .inc("ppp_jit_swaps_total", &[("bench", bench)]);
                h.swap(Arc::clone(&instrumented))
            }
        };
        let host_ref = host.as_ref().expect("host installed");

        // Serve one workload run under instrumentation, streaming
        // tracer deltas.
        let (checkout, served) = {
            let mut s = gspan.child("jit.serve");
            let (checkout, served) = host_ref
                .run_current(
                    "main",
                    &RunOptions::default()
                        .with_seed(options.seed)
                        .traced()
                        .with_delta_interval(DELTA_INTERVAL),
                )
                .map_err(JitError::no_main(bench))?;
            s.set("cost_units", served.cost);
            s.set("deltas", served.deltas.len() as u64);
            (checkout, served)
        };

        // Stream the deltas to the live aggregator and snapshot.
        let key = format!("{bench}@g{g}");
        let agg_err = |detail: String| JitError::Agg {
            benchmark: bench.to_owned(),
            detail,
        };
        let agg = service.register(&key, &checkout.module).map_err(agg_err)?;
        let hello = Hello {
            bench: key.clone(),
            funcs: checkout.module.functions.len(),
            scale_bits: options.scale.to_bits(),
            worker: g as u64,
        };
        let mut client = AggClient::open(
            Arc::clone(&checkout.module),
            InProcSink::new(Arc::clone(&agg)),
            BATCH,
            &hello,
        )
        .map_err(agg_err)?;
        client.set_trace_id(
            options
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(g as u64),
        );
        for d in &served.deltas {
            client.push_delta(&d.edges, &d.paths).map_err(agg_err)?;
        }
        client.finish().map_err(agg_err)?;
        let (snap_edges, _snap_paths) = {
            let _s = gspan.child("jit.snapshot");
            agg.snapshot()
        };

        // Serving overhead is measured against the uninstrumented cost
        // of the code that served this generation.
        let serve_baseline = cost_cur;

        // Fold the snapshot back onto the served (uninstrumented)
        // module: exact by construction, gated anyway.
        let profile = fold_edge_profile(&m, &snap_edges);
        stages.push((
            "snapshot@fold".into(),
            ppp_lint::check_profile(&m, &profile),
        ));

        // Re-optimize the hot functions (witnessed at every step) and
        // evaluate the candidate's uninstrumented cost-model cost.
        let reopt = reoptimize(m.clone(), &profile, bench, options, &gspan)?;
        stages.extend(reopt.stages);
        let candidate_cost = reopt.run.cost;
        let improvement = (cost_cur as f64 - candidate_cost as f64) / cost_cur.max(1) as f64;
        // Generation 1 is the initial profile-guided build — it always
        // ships, exactly like the one-shot pipeline (the canonical PGO
        // deployment rebuilds with the profile unconditionally). From
        // generation 2 on the loop keeps the champion: a re-optimized
        // candidate only replaces the served module when the cost model
        // says it does not regress, which makes `cost_after` monotone
        // non-increasing across generations by construction.
        let promoted = g == 1 || candidate_cost <= cost_cur;

        // Promote: transfer the stale profile so the next generation's
        // instrumentation starts warm instead of cold.
        let mut transfer = None;
        if promoted {
            let _s = gspan.child("jit.transfer");
            let (warm, report) = transfer_module_edges(&m, &reopt.module, &profile);
            obs.metrics().inc_by(
                "ppp_jit_transfer_dropped_flow_total",
                &[("bench", bench)],
                report.dropped_flow,
            );
            stages.push((
                "transfer".into(),
                ppp_lint::check_profile(&reopt.module, &warm),
            ));
            transfer = Some(report);
            m = reopt.module;
            cost_cur = candidate_cost;
            guidance = warm;
            obs.metrics()
                .inc("ppp_jit_promotions_total", &[("bench", bench)]);
        } else {
            // Keep serving the old code; its exact profile is the best
            // guidance for the next instrumentation.
            guidance = profile;
        }

        obs.metrics()
            .inc("ppp_jit_generations_total", &[("bench", bench)]);
        obs.metrics()
            .set_gauge("ppp_jit_cost_units", &[("bench", bench)], cost_cur as f64);
        gspan.set("cost_units", cost_cur);
        gspan.set("promoted", promoted);
        gspan.set("hot_functions", reopt.hot_functions as u64);

        let overhead = served.cost as f64 / serve_baseline.max(1) as f64 - 1.0;
        generations.push(GenerationReport {
            generation: g,
            host_generation,
            serve_cost: served.cost,
            serve_prof_cost: served.prof_cost,
            overhead,
            deltas_streamed: served.deltas.len(),
            instrumented_routines: plan.instrumented_count(),
            static_prof_insts: plan.static_prof_insts(),
            hot_functions: reopt.hot_functions,
            total_functions: m.functions.len(),
            inline: reopt.inline,
            unroll: reopt.unroll,
            stages,
            candidate_cost,
            cost_after: cost_cur,
            improvement,
            speedup_vs_initial: initial_cost as f64 / cost_cur.max(1) as f64,
            promoted,
            transfer,
            wall_ms: gen_started.elapsed().as_secs_f64() * 1e3,
        });

        if improvement < options.epsilon {
            steady_state = true;
            break;
        }
    }

    // Leave the host serving the steady-state code, re-instrumented
    // with the warm guidance.
    let final_plan = instrument_module(&m, Some(&guidance), &ProfilerConfig::ppp());
    let final_instrument = {
        let _s = span.child("jit.lint");
        ppp_lint::ModuleLint::new(&m).plan(&final_plan)
    };
    if let Some(h) = &host {
        swaps += 1;
        obs.metrics()
            .inc("ppp_jit_swaps_total", &[("bench", bench)]);
        h.swap(Arc::new(final_plan.module));
    }
    if steady_state {
        obs.metrics()
            .inc("ppp_jit_steady_state_total", &[("bench", bench)]);
    }
    let generations_run = generations.len();
    span.set("generations", generations_run as u64);
    span.set("steady_state", steady_state);
    span.set("final_cost", cost_cur);

    Ok(JitOutcome {
        bench: bench.to_owned(),
        generations,
        steady_state,
        generations_run,
        initial_cost,
        final_cost: cost_cur,
        total_speedup: initial_cost as f64 / cost_cur.max(1) as f64,
        swaps,
        final_instrument,
        final_module: m,
        final_guidance: guidance,
        wall_ms: started.elapsed().as_secs_f64() * 1e3,
    })
}
