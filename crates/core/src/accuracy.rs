//! Accuracy of an estimated path profile (§6.1): Wall's weight-matching
//! scheme.
//!
//! The actual hot paths `H_actual` are those whose flow is at least a
//! threshold fraction of total program flow (the paper uses 0.125%). The
//! estimated hot set `H_estimated` is the `|H_actual|` hottest paths of
//! the estimate. Accuracy is the fraction of *actual* hot-path flow the
//! estimate identifies:
//!
//! ```text
//!   Accuracy = F(H_estimated ∩ H_actual) / F(H_actual)
//! ```

use crate::estimate::EstimatedProfile;
use crate::flow::FlowMetric;
use ppp_ir::{FuncId, ModulePathProfile, PathKey};
use std::cmp::Ordering;
use std::collections::HashSet;

/// One hot path with its actual flow.
#[derive(Clone, Debug)]
pub struct HotPath {
    /// Owning function.
    pub func: FuncId,
    /// Path identity.
    pub key: PathKey,
    /// Actual flow under the chosen metric.
    pub flow: u64,
}

/// Selects the actual hot paths: flow at least `threshold_ratio` of total
/// program flow, hottest first (deterministic tie-break on identity).
pub fn actual_hot_paths(
    truth: &ModulePathProfile,
    metric: FlowMetric,
    threshold_ratio: f64,
) -> Vec<HotPath> {
    let total: u64 = truth
        .iter()
        .map(|(_, _, s)| metric.flow(s.freq, s.branches))
        .sum();
    let cutoff = (threshold_ratio * total as f64).max(0.0);
    let mut hot: Vec<HotPath> = truth
        .iter()
        .filter_map(|(f, k, s)| {
            let flow = metric.flow(s.freq, s.branches);
            (flow as f64 >= cutoff && flow > 0).then(|| HotPath {
                func: f,
                key: k.clone(),
                flow,
            })
        })
        .collect();
    sort_hot(&mut hot);
    hot
}

fn sort_hot(hot: &mut [HotPath]) {
    hot.sort_by(|a, b| rank((a.flow, a.func, &a.key), (b.flow, b.func, &b.key)));
}

/// The one hot-path ranking: flow descending, then function, start block
/// and edges ascending. It is a total order on distinct `(func, key)`
/// pairs, so a selection by it is as deterministic as a sort.
pub(crate) fn rank(a: (u64, FuncId, &PathKey), b: (u64, FuncId, &PathKey)) -> Ordering {
    b.0.cmp(&a.0)
        .then(a.1.cmp(&b.1))
        .then(a.2.start.cmp(&b.2.start))
        .then(a.2.edges.cmp(&b.2.edges))
}

/// Wall's weight matching: the share of `hot`'s flow found among the
/// `|hot|` best-ranked distinct estimated paths `est` (1.0 when `hot` is
/// empty).
pub(crate) fn matched_fraction(hot: &[HotPath], mut est: Vec<(u64, FuncId, &PathKey)>) -> f64 {
    let k = hot.len();
    if k == 0 {
        return 1.0;
    }
    // Only membership in the top k matters, so a selection suffices.
    if est.len() > k {
        est.select_nth_unstable_by(k - 1, |a, b| rank(*a, *b));
        est.truncate(k);
    }
    let est_set: HashSet<(FuncId, &PathKey)> = est.iter().map(|&(_, f, k)| (f, k)).collect();
    let denom: u64 = hot.iter().map(|h| h.flow).sum();
    let matched: u64 = hot
        .iter()
        .filter(|h| est_set.contains(&(h.func, &h.key)))
        .map(|h| h.flow)
        .sum();
    matched as f64 / denom as f64
}

/// Hot-path flow as a fraction of total program flow (Table 2's
/// percentage columns).
pub fn hot_flow_fraction(truth: &ModulePathProfile, metric: FlowMetric, ratio: f64) -> f64 {
    let total: u64 = truth
        .iter()
        .map(|(_, _, s)| metric.flow(s.freq, s.branches))
        .sum();
    if total == 0 {
        return 0.0;
    }
    let hot: u64 = actual_hot_paths(truth, metric, ratio)
        .iter()
        .map(|h| h.flow)
        .sum();
    hot as f64 / total as f64
}

/// Computes accuracy of `estimated` against the exact profile.
///
/// Returns 1.0 when there are no hot paths at all (nothing to predict).
pub fn accuracy(
    truth: &ModulePathProfile,
    estimated: &EstimatedProfile,
    metric: FlowMetric,
    threshold_ratio: f64,
) -> f64 {
    let hot = actual_hot_paths(truth, metric, threshold_ratio);
    let est = estimated
        .iter()
        .map(|(f, k, e)| (e.flow(metric), f, k))
        .filter(|&(flow, _, _)| flow > 0)
        .collect();
    matched_fraction(&hot, est)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimate::EstimatedPath;
    use ppp_ir::{BlockId, EdgeRef, Function, FunctionBuilder, Reg};
    use std::collections::HashMap;

    fn branchy() -> Function {
        let mut b = FunctionBuilder::new("f", 1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(Reg(0), t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    fn key(succ: usize, mid: u32) -> PathKey {
        PathKey {
            start: BlockId(0),
            edges: vec![
                EdgeRef::new(BlockId(0), succ),
                EdgeRef::new(BlockId(mid), 0),
            ],
        }
    }

    fn truth_with(freqs: &[(usize, u32, u64)]) -> ModulePathProfile {
        let f = branchy();
        let mut t = ModulePathProfile::with_capacity(1);
        for &(succ, mid, freq) in freqs {
            t.func_mut(FuncId(0)).record(&f, key(succ, mid), freq);
        }
        t
    }

    fn estimate_with(entries: &[(usize, u32, u64, bool)]) -> EstimatedProfile {
        let mut m: HashMap<PathKey, EstimatedPath> = HashMap::new();
        for &(succ, mid, freq, measured) in entries {
            m.insert(
                key(succ, mid),
                EstimatedPath {
                    freq,
                    branches: 1,
                    measured,
                },
            );
        }
        EstimatedProfile { funcs: vec![m] }
    }

    #[test]
    fn perfect_estimate_scores_one() {
        let truth = truth_with(&[(0, 1, 90), (1, 2, 10)]);
        let est = estimate_with(&[(0, 1, 90, true), (1, 2, 10, true)]);
        assert_eq!(accuracy(&truth, &est, FlowMetric::Branch, 0.00125), 1.0);
    }

    #[test]
    fn wrong_ranking_loses_hot_flow() {
        // Hot threshold keeps both paths; estimate only knows the cold one.
        let truth = truth_with(&[(0, 1, 90), (1, 2, 10)]);
        let est = estimate_with(&[(1, 2, 100, false)]);
        let a = accuracy(&truth, &est, FlowMetric::Branch, 0.00125);
        assert!((a - 0.1).abs() < 1e-9, "only the 10% path matched: {a}");
    }

    #[test]
    fn estimate_truncated_to_hot_count() {
        // One actual hot path; the estimate ranks a bogus path first, so
        // the single estimated slot misses it.
        let truth = truth_with(&[(0, 1, 100)]);
        let est = estimate_with(&[(1, 2, 500, false), (0, 1, 400, false)]);
        let a = accuracy(&truth, &est, FlowMetric::Branch, 0.00125);
        assert_eq!(a, 0.0);
    }

    #[test]
    fn threshold_excludes_cold_paths_from_hot_set() {
        let truth = truth_with(&[(0, 1, 99_900), (1, 2, 100)]);
        // 0.125% of 100_000 = 125 > 100: only one hot path.
        let hot = actual_hot_paths(&truth, FlowMetric::Branch, 0.00125);
        assert_eq!(hot.len(), 1);
        assert_eq!(hot[0].flow, 99_900);
        let frac = hot_flow_fraction(&truth, FlowMetric::Branch, 0.00125);
        assert!((frac - 0.999).abs() < 1e-9);
    }

    #[test]
    fn empty_truth_scores_one() {
        let truth = ModulePathProfile::with_capacity(1);
        let est = estimate_with(&[]);
        assert_eq!(accuracy(&truth, &est, FlowMetric::Branch, 0.00125), 1.0);
    }

    #[test]
    fn unit_and_branch_metrics_differ() {
        let f = branchy();
        let mut truth = ModulePathProfile::with_capacity(1);
        // A 1-branch path and a 0-branch path (start at join, no edges...
        // use the same shape but frequency differences instead).
        truth.func_mut(FuncId(0)).record(&f, key(0, 1), 10);
        truth.func_mut(FuncId(0)).record(
            &f,
            PathKey {
                start: BlockId(3),
                edges: vec![],
            },
            1000,
        );
        // Branch metric: the 0-branch path carries no flow.
        let hot_b = actual_hot_paths(&truth, FlowMetric::Branch, 0.0);
        assert_eq!(hot_b.len(), 1);
        let hot_u = actual_hot_paths(&truth, FlowMetric::Unit, 0.0);
        assert_eq!(hot_u.len(), 2);
        assert_eq!(hot_u[0].flow, 1000);
    }
}
