//! Scoring edge profiling and the path profilers (§6) from one
//! [`ModuleAnalysis`].
//!
//! [`profiler_score`] decodes a profiler's counters once and returns what
//! [`profiler_estimate`](crate::profiler_estimate) scored by
//! [`accuracy`](crate::accuracy()),
//! [`profiler_coverage`](crate::profiler_coverage) and
//! [`instrumented_fraction`](crate::instrumented_fraction) return, with
//! the analysis's definite-flow paths standing in for the
//! reconstructions each of them repeats.
//!
//! [`edge_profile_score`] returns exactly what
//! [`edge_profile_estimate`](crate::edge_profile_estimate) (potential
//! flow) followed by [`accuracy`](crate::accuracy()) and
//! [`edge_profile_coverage`](crate::edge_profile_coverage) return, but
//! enumerates only the estimated paths that can enter the top
//! `k = |H_actual|`.
//!
//! Why stopping early is exact:
//!
//! - every path reconstructed from an entry signature `(f, b)` has
//!   frequency `f` and `b` branches, so its flow is the signature's flow,
//!   and each routine yields its paths in non-increasing flow order;
//! - seeds of all routines are merged by `(flow desc, func, per-routine
//!   seed index)`, which keeps each routine's own enumeration order, so
//!   the per-routine path cap and the first-wins rule for duplicate
//!   [`PathKey`]s behave as in the full estimate;
//! - once `k` distinct paths are known, a seed whose flow is below the
//!   `k`-th one cannot place a path in the top `k`; seeds tied with it
//!   are still enumerated, so the ranking's tie-break sees every
//!   candidate.

use crate::accuracy::{accuracy, actual_hot_paths, matched_fraction};
use crate::analysis::ModuleAnalysis;
use crate::coverage::{
    coverage_measured, edge_coverage, fraction_measured, Coverage, InstrumentedFraction,
};
use crate::dag::Dag;
use crate::estimate::estimate_measured;
use crate::flow::{
    potential_flow, reconstruct_seed, seeds, FlowAnalysis, FlowKind, ReconstructedPath,
};
use crate::instrument::{measured_paths, ModulePlan};
use ppp_ir::{FuncId, ModulePathProfile, PathKey};
use std::cmp::Reverse;
use std::collections::HashSet;

/// Accuracy and coverage of an edge profile, with the work it took.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct EdgeScore {
    /// Wall-style accuracy of the potential-flow estimate (§6.1).
    pub accuracy: f64,
    /// Definite-flow coverage ratio (§6.2).
    pub coverage: f64,
    /// `|H_actual|`: how many estimated paths accuracy reads.
    pub hot_paths: usize,
    /// Potential-flow paths reconstructed to find them.
    pub paths_enumerated: usize,
}

/// Accuracy, coverage and instrumented fractions of one profiler run.
#[derive(Clone, Copy, Debug)]
pub struct ProfilerScore {
    /// Wall-style accuracy of the estimated profile (§6.1).
    pub accuracy: f64,
    /// Coverage components (§6.2).
    pub coverage: Coverage,
    /// Figure 11's measured and hashed fractions.
    pub fraction: InstrumentedFraction,
}

/// Scores the run of `plan`, instrumented from `analysis`, whose counters
/// are in `store`, against `truth` at `hot_ratio`: the profiler's
/// estimate scored by `accuracy`, its coverage and its instrumented
/// fractions, from one decode of the counters.
pub fn profiler_score(
    analysis: &ModuleAnalysis<'_>,
    plan: &ModulePlan,
    store: &ppp_vm::ProfileStore,
    truth: &ModulePathProfile,
    hot_ratio: f64,
) -> ProfilerScore {
    let measured = measured_paths(plan, analysis.module(), store);
    let est = estimate_measured(analysis, plan, &measured);
    ProfilerScore {
        accuracy: accuracy(truth, &est, analysis.metric(), hot_ratio),
        coverage: coverage_measured(analysis, plan, &measured, truth),
        fraction: fraction_measured(plan, &measured, truth),
    }
}

/// One routine's potential-flow reconstruction state.
struct Routine<'d> {
    func: FuncId,
    dag: &'d Dag,
    flow: FlowAnalysis,
    seeds: Vec<(u64, u32, u64)>,
    produced: Vec<ReconstructedPath>,
    seen: HashSet<PathKey>,
}

/// Scores the edge profile of `analysis` against `truth`: the accuracy
/// of its potential-flow estimate at `hot_ratio` and its definite-flow
/// coverage, equal to the three-call oracle described in the module docs.
pub fn edge_profile_score(
    analysis: &ModuleAnalysis<'_>,
    truth: &ModulePathProfile,
    hot_ratio: f64,
) -> EdgeScore {
    let (metric, opts) = (analysis.metric(), analysis.options());
    let hot = actual_hot_paths(truth, metric, hot_ratio);
    let k = hot.len();
    let cov = edge_coverage(analysis, truth);
    // With no hot paths there is nothing to rank.
    let mut routines: Vec<Routine<'_>> = analysis
        .module()
        .func_ids()
        .filter(|_| k > 0)
        .filter_map(|fid| {
            let dag = &**analysis.dag(fid);
            let flow = potential_flow(dag);
            let seeds = seeds(dag, &flow, metric, opts.potential_cutoff);
            (!seeds.is_empty()).then(|| Routine {
                func: fid,
                dag,
                flow,
                seeds,
                produced: Vec::new(),
                seen: HashSet::new(),
            })
        })
        .collect();

    // All seeds, hottest first; each routine keeps its own seed order.
    let mut order: Vec<(u64, usize, usize)> = routines
        .iter()
        .enumerate()
        .flat_map(|(r, routine)| {
            routine
                .seeds
                .iter()
                .enumerate()
                .map(move |(i, &(f, b, _))| (metric.flow(f, b), r, i))
        })
        .collect();
    order.sort_unstable_by_key(|&(flow, r, i)| (Reverse(flow), r, i));

    let mut candidates: Vec<(u64, FuncId, PathKey)> = Vec::new();
    let mut kth_flow = None;
    for (seed_flow, r, i) in order {
        if kth_flow.is_some_and(|t| seed_flow < t) {
            break;
        }
        let routine = &mut routines[r];
        let start = routine.produced.len();
        if start >= opts.max_paths_per_func {
            continue;
        }
        reconstruct_seed(
            routine.dag,
            &routine.flow,
            FlowKind::Potential,
            routine.seeds[i],
            opts.max_paths_per_func,
            &mut routine.produced,
        );
        for p in &routine.produced[start..] {
            let flow = p.flow(metric);
            let key = routine.dag.path_key(&p.edges);
            // The first estimate of a key wins, as in the full estimate.
            if !routine.seen.insert(key.clone()) || flow == 0 {
                continue;
            }
            candidates.push((flow, routine.func, key));
            if candidates.len() == k {
                kth_flow = Some(flow);
            }
        }
    }

    let paths_enumerated = routines.iter().map(|r| r.produced.len()).sum();
    let est = candidates
        .iter()
        .map(|(flow, f, key)| (*flow, *f, key))
        .collect();
    EdgeScore {
        accuracy: matched_fraction(&hot, est),
        coverage: cov.ratio(),
        hot_paths: k,
        paths_enumerated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimateOptions;
    use crate::flow::fixtures::figure8;
    use crate::flow::FlowMetric;
    use crate::{edge_profile_coverage, edge_profile_estimate};
    use ppp_ir::{
        BlockId, EdgeRef, FuncEdgeProfile, Function, FunctionBuilder, Module, ModuleEdgeProfile,
        Reg,
    };

    fn module_of(f: Function, p: FuncEdgeProfile) -> (Module, ModuleEdgeProfile) {
        let mut m = Module::new();
        m.add_function(f);
        let mut edges = ModuleEdgeProfile::zeroed(&m);
        *edges.func_mut(FuncId(0)) = p;
        (m, edges)
    }

    fn key(start: u32, edges: &[(u32, usize)]) -> PathKey {
        PathKey {
            start: BlockId(start),
            edges: edges
                .iter()
                .map(|&(b, s)| EdgeRef::new(BlockId(b), s))
                .collect(),
        }
    }

    fn truth_of(m: &Module, paths: &[(PathKey, u64)]) -> ModulePathProfile {
        let mut t = ModulePathProfile::with_capacity(1);
        for (k, freq) in paths {
            t.func_mut(FuncId(0))
                .record(m.function(FuncId(0)), k.clone(), *freq);
        }
        t
    }

    /// The full estimate + accuracy + coverage the scorer must equal.
    fn oracle(
        m: &Module,
        edges: &ModuleEdgeProfile,
        truth: &ModulePathProfile,
        ratio: f64,
        opts: &EstimateOptions,
    ) -> (f64, f64) {
        let metric = FlowMetric::Branch;
        let est = edge_profile_estimate(m, edges, FlowKind::Potential, metric, opts);
        (
            accuracy(truth, &est, metric, ratio),
            edge_profile_coverage(m, edges, truth, metric).ratio(),
        )
    }

    fn score_matches_oracle(
        m: &Module,
        edges: &ModuleEdgeProfile,
        truth: &ModulePathProfile,
        ratio: f64,
        opts: &EstimateOptions,
    ) -> EdgeScore {
        let analysis = ModuleAnalysis::new(m, Some(edges), FlowMetric::Branch, opts);
        let s = edge_profile_score(&analysis, truth, ratio);
        let (acc, cov) = oracle(m, edges, truth, ratio, opts);
        assert_eq!(s.accuracy.to_bits(), acc.to_bits(), "accuracy");
        assert_eq!(s.coverage.to_bits(), cov.to_bits(), "coverage");
        s
    }

    // Figure 8's four paths, by the blocks they visit.
    const ABDEG: [(u32, usize); 5] = [(0, 0), (1, 0), (2, 0), (4, 0), (5, 0)];
    const ACDEG: [(u32, usize); 5] = [(0, 0), (1, 1), (3, 0), (4, 0), (5, 0)];
    const ABDFG: [(u32, usize); 5] = [(0, 0), (1, 0), (2, 0), (4, 1), (6, 0)];
    const ACDFG: [(u32, usize); 5] = [(0, 0), (1, 1), (3, 0), (4, 1), (6, 0)];

    /// Figure 8 with a truth consistent with its edge profile.
    fn figure8_case(third: [(u32, usize); 5]) -> (Module, ModuleEdgeProfile, ModulePathProfile) {
        let (f, p) = figure8();
        let (m, edges) = module_of(f, p);
        let truth = truth_of(
            &m,
            &[
                (key(0, &ABDEG), 40),
                (key(0, &ACDEG), 20),
                (key(0, &third), 20),
            ],
        );
        (m, edges, truth)
    }

    #[test]
    fn boundary_tie_is_broken_by_edges() {
        // k = 3; the potential-flow estimate ranks ABDEG (100), ACDEG (60)
        // and then ABDFG and ACDFG tied at 40. ABDFG has the smaller edges,
        // so it takes the third slot and ACDFG falls out.
        let opts = EstimateOptions::default();
        let (m, edges, truth) = figure8_case(ABDFG);
        let s = score_matches_oracle(&m, &edges, &truth, 0.0, &opts);
        assert_eq!(s.hot_paths, 3);
        assert_eq!(s.paths_enumerated, 4, "both tied paths are enumerated");
        assert_eq!(s.accuracy, 1.0);

        let (m, edges, truth) = figure8_case(ACDFG);
        let s = score_matches_oracle(&m, &edges, &truth, 0.0, &opts);
        assert_eq!(s.accuracy, 120.0 / 160.0, "ACDFG loses the tie");
    }

    #[test]
    fn seeds_tied_at_the_boundary_are_all_enumerated() {
        // Entry (0) branches to X (1) 40 times or D (2) 20 times; D always
        // goes on to E (3). Paths 0-X and 0-D-E both have flow 40, from
        // the seeds (40, 1) and (20, 2), and (20, 2) is enumerated first.
        // With k = 1, 0-X must still be reached: its edges are smaller.
        let mut b = FunctionBuilder::new("tied", 1);
        let (x, d, e, f, g) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(Reg(0), x, d);
        b.switch_to(x);
        b.jump(g);
        b.switch_to(d);
        b.branch(Reg(0), e, f);
        b.switch_to(e);
        b.jump(g);
        b.switch_to(f);
        b.jump(g);
        b.switch_to(g);
        b.ret(None);
        let func = b.finish();
        let mut p = FuncEdgeProfile::zeroed(&func);
        p.set_entries(60);
        for (from, s, freq) in [(0, 0, 40), (0, 1, 20), (1, 0, 40), (2, 0, 20), (3, 0, 20)] {
            p.set_edge(EdgeRef::new(BlockId(from), s), freq);
        }
        let (m, edges) = module_of(func, p);
        let truth = truth_of(&m, &[(key(0, &[(0, 0), (1, 0)]), 40)]);
        let s = score_matches_oracle(&m, &edges, &truth, 0.0, &EstimateOptions::default());
        assert_eq!((s.hot_paths, s.paths_enumerated), (1, 2));
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    fn stops_below_the_kth_flow() {
        // k = 1: only ABDEG's seed (flow 100) is enumerated.
        let (f, p) = figure8();
        let (m, edges) = module_of(f, p);
        let truth = truth_of(&m, &[(key(0, &ABDEG), 80)]);
        let s = score_matches_oracle(&m, &edges, &truth, 0.0, &EstimateOptions::default());
        assert_eq!((s.hot_paths, s.paths_enumerated), (1, 1));
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    fn no_hot_paths_scores_one_and_still_covers() {
        // A ratio above 1 leaves H_actual empty: nothing is enumerated,
        // but coverage is still definite flow over total flow (50%).
        let (m, edges, truth) = figure8_case(ABDFG);
        let s = score_matches_oracle(&m, &edges, &truth, 2.0, &EstimateOptions::default());
        assert_eq!((s.hot_paths, s.paths_enumerated), (0, 0));
        assert_eq!(s.accuracy, 1.0);
        assert_eq!(s.coverage, 0.5);
    }

    #[test]
    fn fewer_estimated_paths_than_hot_paths() {
        // The cutoff keeps only ABDEG (flow 100 > 60) against k = 3.
        let opts = EstimateOptions {
            potential_cutoff: 60,
            ..EstimateOptions::default()
        };
        let (m, edges, truth) = figure8_case(ABDFG);
        let s = score_matches_oracle(&m, &edges, &truth, 0.0, &opts);
        assert_eq!((s.hot_paths, s.paths_enumerated), (3, 1));
        assert_eq!(s.accuracy, 80.0 / 160.0);
    }

    /// A loop whose header H (1) has two latches: body (2) takes
    /// successor `hot` 60 times and the other one 30 times, to latch 3
    /// (successor 0) or 4 (successor 1), and both latches jump back to H.
    /// Iteration paths after either back edge share one `PathKey`.
    /// Returns the module and the keys of the hot and cold iterations.
    fn two_latch_loop(hot: usize) -> (Module, ModuleEdgeProfile, PathKey, PathKey) {
        let mut b = FunctionBuilder::new("latches", 1);
        let (h, body, l0, l1, exit) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.jump(h);
        b.switch_to(h);
        b.branch(Reg(0), body, exit);
        b.switch_to(body);
        b.branch(Reg(0), l0, l1);
        b.switch_to(l0);
        b.jump(h);
        b.switch_to(l1);
        b.jump(h);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let mut p = FuncEdgeProfile::zeroed(&f);
        p.set_entries(10);
        let e = |from: u32, s: usize| EdgeRef::new(BlockId(from), s);
        p.set_edge(e(0, 0), 10);
        p.set_edge(e(1, 0), 90);
        p.set_edge(e(1, 1), 10);
        let cold = 1 - hot;
        let latch = |s: usize| 3 + s as u32;
        for (s, freq) in [(hot, 60), (cold, 30)] {
            p.set_edge(e(2, s), freq);
            p.set_edge(e(latch(s), 0), freq);
        }
        let iteration = |s: usize| key(1, &[(1, 0), (2, s), (latch(s), 0)]);
        let (m, edges) = module_of(f, p);
        (m, edges, iteration(hot), iteration(cold))
    }

    #[test]
    fn duplicate_key_keeps_its_first_estimate() {
        // The hot iteration is estimated at 60 after its own back edge
        // (flow 120) and at 30 after the other one (flow 60). The first,
        // hotter estimate must win: kept last, it would tie with the cold
        // iteration at 60 and lose the single slot to its smaller edges.
        let (m, edges, hot, _) = two_latch_loop(1);
        let opts = EstimateOptions::default();
        let est = edge_profile_estimate(&m, &edges, FlowKind::Potential, FlowMetric::Branch, &opts);
        assert_eq!(est.funcs[0][&hot].freq, 60);
        let truth = truth_of(&m, &[(hot, 60)]);
        let s = score_matches_oracle(&m, &edges, &truth, 0.0, &opts);
        assert_eq!(s.hot_paths, 1);
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    fn duplicate_key_takes_one_slot() {
        // With the hot iteration's edges smallest, its duplicate at 60
        // would outrank the cold iteration for the second slot if
        // duplicates were counted twice.
        let (m, edges, hot, cold) = two_latch_loop(0);
        let truth = truth_of(&m, &[(hot, 60), (cold, 30)]);
        let s = score_matches_oracle(&m, &edges, &truth, 0.0, &EstimateOptions::default());
        assert_eq!(s.hot_paths, 2);
        assert_eq!(s.accuracy, 1.0);
    }

    #[test]
    fn path_cap_counts_produced_paths() {
        let opts = EstimateOptions {
            max_paths_per_func: 3,
            ..EstimateOptions::default()
        };
        let (m, edges, truth) = figure8_case(ACDFG);
        let s = score_matches_oracle(&m, &edges, &truth, 0.0, &opts);
        assert_eq!(s.paths_enumerated, 3);
    }

    /// 70 sequential balanced diamonds: 2^70 potential-flow paths share
    /// the signature (50, 70), which overflowed the path count.
    #[test]
    fn seventy_diamonds_saturate_the_path_count() {
        let mut b = FunctionBuilder::new("diamonds", 1);
        let mut p_edges = Vec::new();
        let mut left_path = Vec::new();
        let mut right_path = Vec::new();
        let mut head = BlockId(0);
        for _ in 0..70 {
            let (l, r, join) = (b.new_block(), b.new_block(), b.new_block());
            b.branch(Reg(0), l, r);
            b.switch_to(l);
            b.jump(join);
            b.switch_to(r);
            b.jump(join);
            b.switch_to(join);
            for (from, s) in [(head, 0), (head, 1), (l, 0), (r, 0)] {
                p_edges.push(EdgeRef::new(from, s));
            }
            left_path.extend([(head.0, 0), (l.0, 0)]);
            right_path.extend([(head.0, 1), (r.0, 0)]);
            head = join;
        }
        b.ret(None);
        let f = b.finish();
        let mut p = FuncEdgeProfile::zeroed(&f);
        p.set_entries(100);
        for e in p_edges {
            p.set_edge(e, 50);
        }
        let (m, edges) = module_of(f, p);

        let dag = Dag::build(m.function(FuncId(0)), Some(edges.func(FuncId(0))));
        let pf = potential_flow(&dag);
        let entry = pf.entry_map(&dag);
        assert!(!entry.is_empty());
        assert_eq!(entry.get(50, 70), u64::MAX);
        assert_eq!(entry.total_paths(), u64::MAX);

        let truth = truth_of(&m, &[(key(0, &left_path), 50), (key(0, &right_path), 50)]);
        let opts = EstimateOptions {
            max_paths_per_func: 64,
            ..EstimateOptions::default()
        };
        let s = score_matches_oracle(&m, &edges, &truth, 0.00125, &opts);
        assert_eq!((s.hot_paths, s.paths_enumerated), (2, 64));
        // The first 64 paths all take the left arm of the first diamond.
        assert_eq!(s.accuracy, 0.5);
    }
}
