//! Version-drift sweep: accuracy decay of transferred vs. fresh profiles.
//!
//! Backs the `repro drift` subcommand. Production PGO applies a profile
//! collected on program version *N* to version *N+k*; this sweep
//! measures what that costs. For each benchmark personality, the
//! prepared (optimized) module is deterministically perturbed by each
//! [`DriftScenario`] — the kinds of edits real program versions drift
//! by — and the old profile is transferred onto the new CFG through the
//! `ppp-match` matched-stale loader. The transferred profile and a fresh
//! profile of the perturbed module then drive the same potential-flow
//! estimator, and both are scored against the perturbed module's exact
//! ground truth with the branch-flow metric, yielding an
//! accuracy/coverage decay figure the paper does not have.
//!
//! Two invariants are checked on every scenario and surfaced in
//! [`DriftOutcome::ok`]:
//!
//! * every transferred profile satisfies PPP308 flow conservation;
//! * the `identity` scenario (zero perturbation) transfers losslessly.
//!
//! Everything is seeded: the same `--seed` yields byte-identical
//! perturbations, transfers, and scores.

use crate::degrade::{ingest_guidance_at, transfer_floor, DegradationReport};
use crate::format::Table;
use crate::pipeline::{
    estimate_options, prepare_benchmark, sweep_suite, PipelineError, PipelineOptions,
    PreparedBenchmark,
};
use ppp_core::{edge_profile_score, ModuleAnalysis};
use ppp_ir::{
    analyze_loops, verify_module, write_edge_profile_v2, Block, FuncId, Inst, Module,
    ModuleEdgeProfile, Reg, Terminator,
};
use ppp_jit::{edge_profile, traced};
use ppp_lint::Code;
use ppp_match::read_edge_profile_matched;
use ppp_obs::json::{self, Fixed4, ToJson};
use ppp_opt::{inline_module_witnessed, unroll_module_witnessed, InlineOptions, UnrollOptions};
use ppp_vm::SplitMix64;
use std::fmt;

/// A uniform index in `[0, n)`, one draw per call.
fn below(rng: &mut SplitMix64, n: usize) -> usize {
    rng.below(n as i64) as usize
}

fn fnv(s: &str) -> u64 {
    s.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One deterministic program-version perturbation.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DriftScenario {
    /// No change at all; the transfer must be lossless.
    Identity,
    /// Straight-line blocks split in two (instruction scheduling /
    /// code-layout drift).
    SplitBlocks,
    /// A never-taken branch with a detour block added in front of
    /// existing jumps (new feature guarded off).
    AddBranches,
    /// Acyclic-region branches collapsed to their else arm (dead code /
    /// feature removal).
    RemoveBranches,
    /// Call sites retargeted to a different same-arity leaf function
    /// (API migration).
    ChangeCallSites,
    /// Every non-`main` function renamed `*_v2` (symbol churn; exercises
    /// the anchor-identity fallback).
    RenameFunctions,
    /// Another inline + unroll pass over the module (optimizer drift),
    /// via the existing witnessed transforms.
    InlineUnroll,
}

/// All scenarios, in the fixed order `repro drift` runs them.
pub const DRIFT_SCENARIOS: [DriftScenario; 7] = [
    DriftScenario::Identity,
    DriftScenario::SplitBlocks,
    DriftScenario::AddBranches,
    DriftScenario::RemoveBranches,
    DriftScenario::ChangeCallSites,
    DriftScenario::RenameFunctions,
    DriftScenario::InlineUnroll,
];

impl DriftScenario {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            DriftScenario::Identity => "identity",
            DriftScenario::SplitBlocks => "split-blocks",
            DriftScenario::AddBranches => "add-branches",
            DriftScenario::RemoveBranches => "remove-branches",
            DriftScenario::ChangeCallSites => "change-call-sites",
            DriftScenario::RenameFunctions => "rename-functions",
            DriftScenario::InlineUnroll => "inline-unroll",
        }
    }
}

impl fmt::Display for DriftScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Splits up to two multi-instruction blocks per function in half; the
/// second half becomes a fresh block (a pure layout change).
pub(crate) fn split_blocks(m: &mut Module, rng: &mut SplitMix64) {
    for f in &mut m.functions {
        let candidates: Vec<usize> = (0..f.blocks.len())
            .filter(|&b| f.blocks[b].insts.len() >= 2)
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let picks = 1 + below(rng, 2.min(candidates.len()));
        let start = below(rng, candidates.len());
        for i in 0..picks {
            let b = candidates[(start + i) % candidates.len()];
            let mid = f.blocks[b].insts.len() / 2;
            if mid == 0 {
                continue;
            }
            let tail = f.blocks[b].insts.split_off(mid);
            let term = f.blocks[b].term.clone();
            let nid = f.add_block(Block { insts: tail, term });
            f.blocks[b].term = Terminator::Jump { target: nid };
        }
    }
}

/// Inserts a never-taken guard branch (plus a detour block) in front of
/// one unconditional jump per function: the CFG gains a branch and a
/// block, execution is unchanged.
fn add_branches(m: &mut Module, rng: &mut SplitMix64) {
    for f in &mut m.functions {
        let jumps: Vec<usize> = (0..f.blocks.len())
            .filter(|&b| matches!(f.blocks[b].term, Terminator::Jump { .. }))
            .collect();
        if jumps.is_empty() {
            continue;
        }
        let b = jumps[below(rng, jumps.len())];
        let Terminator::Jump { target } = f.blocks[b].term else {
            unreachable!();
        };
        let guard = Reg(f.reg_count);
        f.reg_count += 1;
        let detour = f.add_block(Block {
            insts: Vec::new(),
            term: Terminator::Jump { target },
        });
        f.blocks[b].insts.push(Inst::Const {
            dst: guard,
            value: 0,
        });
        f.blocks[b].term = Terminator::Branch {
            cond: guard,
            then_target: detour,
            else_target: target,
        };
    }
}

/// Collapses one acyclic-region branch per function to its else arm.
/// Only edges are *removed* and only outside any loop (and only in
/// reducible functions), so no cycle — and no non-termination — can be
/// introduced.
fn remove_branches(m: &mut Module, rng: &mut SplitMix64) {
    for f in &mut m.functions {
        let (_cfg, _dom, loops) = analyze_loops(f);
        if !loops.irreducible_edges().is_empty() {
            continue;
        }
        let candidates: Vec<usize> = (0..f.blocks.len())
            .filter(|&b| match f.blocks[b].term {
                Terminator::Branch {
                    then_target,
                    else_target,
                    ..
                } => {
                    loops.depth(ppp_ir::BlockId::new(b)) == 0
                        && loops.depth(then_target) == 0
                        && loops.depth(else_target) == 0
                }
                _ => false,
            })
            .collect();
        if candidates.is_empty() {
            continue;
        }
        let b = candidates[below(rng, candidates.len())];
        let Terminator::Branch { else_target, .. } = f.blocks[b].term else {
            unreachable!();
        };
        f.blocks[b].term = Terminator::Jump {
            target: else_target,
        };
    }
}

/// Retargets up to two call sites per module to a different leaf
/// function of the same arity (never `main`, never the caller itself —
/// no recursion is introduced).
fn change_call_sites(m: &mut Module, rng: &mut SplitMix64) {
    let leaves: Vec<(FuncId, u32)> = m
        .func_ids()
        .filter(|&fid| {
            let f = m.function(fid);
            f.name != "main"
                && !f
                    .blocks
                    .iter()
                    .any(|b| b.insts.iter().any(|i| matches!(i, Inst::Call { .. })))
        })
        .map(|fid| (fid, m.function(fid).param_count))
        .collect();
    if leaves.is_empty() {
        return;
    }
    let mut retargeted = 0;
    for fi in 0..m.functions.len() {
        if retargeted >= 2 {
            break;
        }
        let caller = FuncId::new(fi);
        for bi in 0..m.functions[fi].blocks.len() {
            if retargeted >= 2 {
                break;
            }
            for ii in 0..m.functions[fi].blocks[bi].insts.len() {
                let Inst::Call { callee, args, .. } = &m.functions[fi].blocks[bi].insts[ii] else {
                    continue;
                };
                let (callee, arity) = (*callee, args.len() as u32);
                let options: Vec<FuncId> = leaves
                    .iter()
                    .filter(|&&(l, pc)| l != caller && l != callee && pc == arity)
                    .map(|&(l, _)| l)
                    .collect();
                if options.is_empty() {
                    continue;
                }
                let new_callee = options[below(rng, options.len())];
                if let Inst::Call { callee, .. } = &mut m.functions[fi].blocks[bi].insts[ii] {
                    *callee = new_callee;
                }
                retargeted += 1;
                break;
            }
        }
    }
}

/// Renames every non-`main` function `*_v2`, defeating name-based
/// section matching (the anchor-identity fallback must carry the load).
fn rename_functions(m: &mut Module) {
    for f in &mut m.functions {
        if f.name != "main" {
            f.name.push_str("_v2");
        }
    }
}

fn apply_scenario(
    scenario: DriftScenario,
    prep: &PreparedBenchmark,
    options: &PipelineOptions,
    rng: &mut SplitMix64,
) -> Result<Module, PipelineError> {
    let mut m = prep.module.clone();
    match scenario {
        DriftScenario::Identity => {}
        DriftScenario::SplitBlocks => split_blocks(&mut m, rng),
        DriftScenario::AddBranches => add_branches(&mut m, rng),
        DriftScenario::RemoveBranches => remove_branches(&mut m, rng),
        DriftScenario::ChangeCallSites => change_call_sites(&mut m, rng),
        DriftScenario::RenameFunctions => rename_functions(&mut m),
        DriftScenario::InlineUnroll => {
            let _ = inline_module_witnessed(&mut m, &prep.edges, &InlineOptions::default());
            let (_, e1) = edge_profile(&m, options.seed, &prep.name)?;
            let _ = unroll_module_witnessed(&mut m, &e1, &UnrollOptions::default());
        }
    }
    debug_assert!(
        verify_module(&m).is_ok(),
        "{}: {scenario} produced an invalid module",
        prep.name
    );
    Ok(m)
}

/// Everything measured for one benchmark × scenario cell.
#[derive(Clone, Debug)]
pub struct DriftOutcome {
    /// Benchmark name.
    pub benchmark: String,
    /// The perturbation applied.
    pub scenario: DriftScenario,
    /// `true` when the transfer was lossless (identity must be).
    pub lossless: bool,
    /// `true` when the transferred profile passes PPP308 flow
    /// conservation (must always hold).
    pub conservative: bool,
    /// Old blocks matched onto the new CFG, as a fraction.
    pub matched_ratio: f64,
    /// Function pairs rescued by anchor identity (renames).
    pub anchor_paired: usize,
    /// Dynamic flow dropped in transfer.
    pub dropped_flow: u64,
    /// PPP401..PPP404 finding counts, in code order.
    pub diag_counts: [usize; 4],
    /// What the ingestion ladder did to the transferred guidance.
    pub report: DegradationReport,
    /// Estimator accuracy driven by a fresh profile of the new version.
    pub fresh_accuracy: f64,
    /// Estimator accuracy driven by the transferred profile.
    pub transferred_accuracy: f64,
    /// Coverage with the fresh profile.
    pub fresh_coverage: f64,
    /// Coverage with the transferred profile.
    pub transferred_coverage: f64,
}

impl DriftOutcome {
    /// Accuracy lost by using the transferred profile instead of
    /// re-profiling (can be negative when the transfer happens to score
    /// higher on the hot set).
    pub fn accuracy_decay(&self) -> f64 {
        self.fresh_accuracy - self.transferred_accuracy
    }

    /// Coverage lost by using the transferred profile.
    pub fn coverage_decay(&self) -> f64 {
        self.fresh_coverage - self.transferred_coverage
    }

    /// The sweep's gate: conservation always, losslessness on identity.
    pub fn ok(&self) -> bool {
        self.conservative && (self.scenario != DriftScenario::Identity || self.lossless)
    }
}

/// One outcome as a JSON object (stable keys; ratios to four decimals).
impl ToJson for DriftOutcome {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("benchmark", &self.benchmark)
                .field("scenario", self.scenario.name())
                .field("ok", self.ok())
                .field("lossless", self.lossless)
                .field("conservative", self.conservative)
                .field("rung", self.report.rung().name())
                .field("matched_ratio", Fixed4(self.matched_ratio))
                .field("anchor_paired", self.anchor_paired)
                .field("dropped_flow", self.dropped_flow)
                .obj("diagnostics", |o| {
                    for (code, n) in ["ppp401", "ppp402", "ppp403", "ppp404"]
                        .into_iter()
                        .zip(self.diag_counts)
                    {
                        o.field(code, n);
                    }
                })
                .field("fresh_accuracy", Fixed4(self.fresh_accuracy))
                .field("transferred_accuracy", Fixed4(self.transferred_accuracy))
                .field("accuracy_decay", Fixed4(self.accuracy_decay()))
                .field("fresh_coverage", Fixed4(self.fresh_coverage))
                .field("transferred_coverage", Fixed4(self.transferred_coverage))
                .field("coverage_decay", Fixed4(self.coverage_decay()));
        });
    }
}

/// Runs every drift scenario for one prepared benchmark.
pub fn drift_prepared(
    prep: &PreparedBenchmark,
    seed: u64,
    options: &PipelineOptions,
) -> Result<Vec<DriftOutcome>, PipelineError> {
    let obs = ppp_obs::global();
    let old_bytes = write_edge_profile_v2(&prep.module, &prep.edges);
    let mut outcomes = Vec::with_capacity(DRIFT_SCENARIOS.len());
    for (si, &scenario) in DRIFT_SCENARIOS.iter().enumerate() {
        let mut span = obs.span("drift.scenario");
        span.set("bench", prep.name.as_str());
        span.set("scenario", scenario.name());
        let mut rng = SplitMix64::new(seed ^ fnv(&prep.name) ^ ((si as u64) << 32));
        let new_module = apply_scenario(scenario, prep, options, &mut rng)?;

        // Fresh ground truth and fresh guidance on the perturbed module.
        let (_run, fresh_edges, fresh_truth) = traced(&new_module, options.seed, &prep.name)?;
        let est_opts = estimate_options(&fresh_truth, options);

        // Transfer the old profile across versions.
        let (transferred, msr) =
            read_edge_profile_matched(&prep.module, &new_module, old_bytes.as_bytes())
                .expect("self-written artifact has an intact container");
        let conservative = transferred.is_flow_conservative(&new_module);
        let lossless = msr.is_lossless();
        let t = &msr.transfer;
        let total_old: usize = t.total_old_blocks.max(1);
        let diag_counts = [
            Code::UnanchoredBlock,
            Code::AmbiguousAnchor,
            Code::SplitMergedRegion,
            Code::NonConservativeTransfer,
        ]
        .map(|c| {
            t.diagnostics
                .diagnostics
                .iter()
                .filter(|d| d.code == c)
                .count()
        });

        // Ladder ingestion: a non-lossless transfer lands on (at least)
        // the matched-stale rung, never on full-profile.
        let (guidance, report) = ingest_guidance_at(
            &new_module,
            Some(transferred),
            None,
            transfer_floor(lossless),
        );

        // Score both profiles against the perturbed version's truth.
        let zeroed = ModuleEdgeProfile::zeroed(&new_module);
        let guide_ref = guidance.as_ref().unwrap_or(&zeroed);
        let score = |profile: &ModuleEdgeProfile| {
            let analysis =
                ModuleAnalysis::new(&new_module, Some(profile), options.metric, &est_opts);
            let s = edge_profile_score(&analysis, &fresh_truth, options.hot_ratio);
            (s.accuracy, s.coverage)
        };
        let (fresh_accuracy, fresh_coverage) = score(&fresh_edges);
        let (transferred_accuracy, transferred_coverage) = score(guide_ref);

        let outcome = DriftOutcome {
            benchmark: prep.name.clone(),
            scenario,
            lossless,
            conservative,
            matched_ratio: t.matched_blocks as f64 / total_old as f64,
            anchor_paired: t.anchor_paired,
            dropped_flow: t.dropped_flow,
            diag_counts,
            report,
            fresh_accuracy,
            transferred_accuracy,
            fresh_coverage,
            transferred_coverage,
        };
        span.set("ok", outcome.ok());
        span.set("accuracy_decay", outcome.accuracy_decay());
        outcomes.push(outcome);
    }
    Ok(outcomes)
}

/// Sweeps every drift scenario across the suite (or one named
/// benchmark). Every scenario is seed-deterministic, so
/// `options.workers` changes wall-clock only.
pub fn drift_suite(
    bench: Option<&str>,
    seed: u64,
    options: &PipelineOptions,
) -> Result<Vec<DriftOutcome>, PipelineError> {
    let per_bench: Vec<_> = sweep_suite(bench, options.workers, "drift.progress", |entry| {
        prepare_benchmark(entry, options).and_then(|prep| drift_prepared(&prep, seed, options))
    })
    .into_iter()
    .collect::<Result<_, _>>()?;
    Ok(per_bench.into_iter().flatten().collect())
}

/// Renders drift outcomes as a text table.
pub fn drift_table(outcomes: &[DriftOutcome]) -> String {
    let mut t = Table::new([
        "Benchmark",
        "Scenario",
        "Match %",
        "Rung",
        "Acc fresh",
        "Acc xfer",
        "Decay",
        "Cov xfer",
        "PPP40x",
    ]);
    for o in outcomes {
        t.row([
            o.benchmark.clone(),
            o.scenario.to_string(),
            format!("{:.1}", o.matched_ratio * 100.0),
            o.report.rung().to_string(),
            format!("{:.3}", o.fresh_accuracy),
            format!("{:.3}", o.transferred_accuracy),
            format!("{:+.3}", o.accuracy_decay()),
            format!("{:.3}", o.transferred_coverage),
            format!(
                "{}/{}/{}/{}",
                o.diag_counts[0], o.diag_counts[1], o.diag_counts[2], o.diag_counts[3]
            ),
        ]);
    }
    let failures = outcomes.iter().filter(|o| !o.ok()).count();
    let mean_decay = if outcomes.is_empty() {
        0.0
    } else {
        outcomes
            .iter()
            .map(DriftOutcome::accuracy_decay)
            .sum::<f64>()
            / outcomes.len() as f64
    };
    format!(
        "Drift sweep: {} scenarios, {} lossless, mean accuracy decay {:+.4}, {} FAILED\n{}",
        outcomes.len(),
        outcomes.iter().filter(|o| o.lossless).count(),
        mean_decay,
        failures,
        t.render()
    )
}

/// Renders drift outcomes as a JSON document (stable keys; consumed by
/// the CI accuracy-decay artifact).
pub fn drift_json(outcomes: &[DriftOutcome], seed: u64) -> String {
    json::object(|o| {
        o.field("kind", "ppp-drift")
            .field("seed", seed)
            .field("scenarios", outcomes.len())
            .field("ok", outcomes.iter().all(DriftOutcome::ok))
            .field("outcomes", outcomes);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degrade::LadderRung;
    use ppp_workloads::spec2000_suite;

    fn tiny() -> PipelineOptions {
        PipelineOptions {
            scale: 0.02,
            ..PipelineOptions::default()
        }
    }

    #[test]
    fn drift_mcf_all_scenarios_hold_invariants() {
        let out = drift_suite(Some("mcf"), 0x0DD5, &tiny()).expect("sweep completes");
        assert_eq!(out.len(), DRIFT_SCENARIOS.len());
        for o in &out {
            assert!(o.ok(), "{} {} failed: {o:?}", o.benchmark, o.scenario);
            assert!(o.conservative, "{}: not conservative", o.scenario);
        }
        let identity = &out[0];
        assert_eq!(identity.scenario, DriftScenario::Identity);
        assert!(identity.lossless);
        assert_eq!(identity.report.rung(), LadderRung::FullProfile);
        assert!((identity.accuracy_decay()).abs() < 1e-9);
        // Rename must be carried by anchor identity, and a non-lossless
        // transfer must land on the matched-stale rung (or below).
        let rename = out
            .iter()
            .find(|o| o.scenario == DriftScenario::RenameFunctions)
            .unwrap();
        assert!(
            rename.anchor_paired > 0,
            "anchor fallback unused: {rename:?}"
        );
        for o in &out {
            if !o.lossless {
                assert!(
                    o.report.rung() >= LadderRung::MatchedStale,
                    "{}: non-lossless transfer reported as {}",
                    o.scenario,
                    o.report.rung()
                );
            }
        }
    }

    #[test]
    fn drift_sweep_is_deterministic() {
        let opts = tiny();
        let a = drift_suite(Some("vpr"), 7, &opts).expect("sweep completes");
        let b = drift_suite(Some("vpr"), 7, &opts).expect("sweep completes");
        assert_eq!(drift_json(&a, 7), drift_json(&b, 7));
        let c = drift_suite(Some("vpr"), 8, &opts).expect("sweep completes");
        // A different seed must still hold the invariants.
        assert!(c.iter().all(DriftOutcome::ok));
    }

    #[test]
    fn perturbations_change_the_cfg() {
        let suite = spec2000_suite();
        let entry = suite.iter().find(|e| e.spec.name == "bzip2").unwrap();
        let prep = prepare_benchmark(entry, &tiny()).expect("prepare");
        let mut rng = SplitMix64::new(99);
        let mut m = prep.module.clone();
        split_blocks(&mut m, &mut rng);
        let old_blocks: usize = prep.module.functions.iter().map(|f| f.blocks.len()).sum();
        let new_blocks: usize = m.functions.iter().map(|f| f.blocks.len()).sum();
        assert!(new_blocks > old_blocks, "split-blocks was a no-op");
        assert!(verify_module(&m).is_ok());
    }
}
