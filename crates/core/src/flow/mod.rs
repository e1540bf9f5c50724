//! Flow metrics and edge-profile flow estimation (§5 and the appendix).
//!
//! *Flow* measures the amount of execution on paths. Prior work used
//! **unit flow** (`F(p) = freq(p)`), which weights a one-branch path the
//! same as a ten-branch path; the paper introduces **branch flow**
//! (`F(p) = freq(p) × branches(p)`) which is invariant under inlining
//! (Fig. 7) and makes a routine's total flow computable directly from its
//! edge profile: it is the sum of branch-edge frequencies.
//!
//! [`definite_flow`] and [`potential_flow`] implement the appendix
//! algorithms (Figs. 14–15): dynamic programs over the DAG computing, per
//! node, a multiset of `(frequency, branch-count) → path-count` values.
//! Definite flow is the execution an edge profile *guarantees* each path;
//! potential flow is the most it *allows*. [`reconstruct`] recovers the
//! concrete hot paths from either (Fig. 16, including the paper's fix).

mod compute;
mod reconstruct;

pub use compute::{definite_flow, edge_map, potential_flow, FlowAnalysis};
pub use reconstruct::{reconstruct, FlowKind, ReconstructedPath};
pub(crate) use reconstruct::{reconstruct_seed, seeds};

use std::collections::BTreeMap;

/// How path flow is measured (§5.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowMetric {
    /// `F(p) = freq(p)`: all paths weigh the same (prior work).
    Unit,
    /// `F(p) = freq(p) × branches(p)`: the paper's metric.
    Branch,
}

impl FlowMetric {
    /// Flow of a path with the given frequency and branch count.
    pub fn flow(self, freq: u64, branches: u32) -> u64 {
        match self {
            FlowMetric::Unit => freq,
            FlowMetric::Branch => freq.saturating_mul(u64::from(branches)),
        }
    }
}

/// A multiset of flow values: `(frequency, branches) → number of paths`.
///
/// This is the `[(f, b) ↦ Δ]` structure of the appendix; [`FlowMap::join`]
/// is the `⊎` operator.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct FlowMap {
    entries: BTreeMap<(u64, u32), u64>,
}

impl FlowMap {
    /// Creates an empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a map with one entry.
    pub fn singleton(freq: u64, branches: u32, count: u64) -> Self {
        let mut m = Self::new();
        m.add(freq, branches, count);
        m
    }

    /// Adds `count` paths with the given signature (`⊎` with a singleton).
    ///
    /// Counts saturate at `u64::MAX`, like Ball–Larus numbering: a routine
    /// of `n` sequential diamonds has `2^n` paths with one signature.
    pub fn add(&mut self, freq: u64, branches: u32, count: u64) {
        if count == 0 {
            return;
        }
        let slot = self.entries.entry((freq, branches)).or_insert(0);
        *slot = slot.saturating_add(count);
    }

    /// Merges another map into this one (the `⊎` operator).
    pub fn join(&mut self, other: &FlowMap) {
        for (&(f, b), &d) in &other.entries {
            self.add(f, b, d);
        }
    }

    /// Looks up the path count for a signature.
    pub fn get(&self, freq: u64, branches: u32) -> u64 {
        self.entries.get(&(freq, branches)).copied().unwrap_or(0)
    }

    /// Iterates `(freq, branches, count)` in ascending signature order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32, u64)> + '_ {
        self.entries.iter().map(|(&(f, b), &d)| (f, b, d))
    }

    /// Total flow under `metric`: `Σ Δ · F(f, b)`.
    pub fn total_flow(&self, metric: FlowMetric) -> u64 {
        self.iter()
            .map(|(f, b, d)| metric.flow(f, b).saturating_mul(d))
            .fold(0, u64::saturating_add)
    }

    /// Total number of paths recorded (`Σ Δ`), saturating.
    pub fn total_paths(&self) -> u64 {
        self.entries
            .values()
            .fold(0, |acc, &d| acc.saturating_add(d))
    }

    /// Returns `true` if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

impl FromIterator<(u64, u32, u64)> for FlowMap {
    fn from_iter<I: IntoIterator<Item = (u64, u32, u64)>>(iter: I) -> Self {
        let mut m = FlowMap::new();
        for (f, b, d) in iter {
            m.add(f, b, d);
        }
        m
    }
}

/// The Figure 8 routine shared by the flow and scoring tests.
#[cfg(test)]
pub(crate) mod fixtures {
    use ppp_ir::{BlockId, EdgeRef, FuncEdgeProfile, Function, FunctionBuilder, Reg};

    /// A -> B(50) | C(30); B, C -> D; D -> E(60) | F(20); E, F -> G
    /// (exit). Paths ABDEG, ACDEG, ABDFG, ACDFG. Block ids: entry=0 jumps
    /// to A=1, B=2, C=3, D=4, E=5, F=6, G=7.
    pub(crate) fn figure8() -> (Function, FuncEdgeProfile) {
        let mut b = FunctionBuilder::new("fig8", 1);
        let a = b.new_block();
        let bb = b.new_block();
        let cc = b.new_block();
        let dd = b.new_block();
        let ee = b.new_block();
        let ff = b.new_block();
        let gg = b.new_block();
        b.jump(a);
        b.switch_to(a);
        b.branch(Reg(0), bb, cc);
        b.switch_to(bb);
        b.jump(dd);
        b.switch_to(cc);
        b.jump(dd);
        b.switch_to(dd);
        b.branch(Reg(0), ee, ff);
        b.switch_to(ee);
        b.jump(gg);
        b.switch_to(ff);
        b.jump(gg);
        b.switch_to(gg);
        b.ret(None);
        let f = b.finish();
        let mut p = FuncEdgeProfile::zeroed(&f);
        p.set_entries(80);
        let e = |from: u32, s: usize| EdgeRef::new(BlockId(from), s);
        p.set_edge(e(0, 0), 80);
        p.set_edge(e(1, 0), 50); // A -> B
        p.set_edge(e(1, 1), 30); // A -> C
        p.set_edge(e(2, 0), 50);
        p.set_edge(e(3, 0), 30);
        p.set_edge(e(4, 0), 60); // D -> E
        p.set_edge(e(4, 1), 20); // D -> F
        p.set_edge(e(5, 0), 60);
        p.set_edge(e(6, 0), 20);
        (f, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_flow_values() {
        assert_eq!(FlowMetric::Unit.flow(10, 3), 10);
        assert_eq!(FlowMetric::Branch.flow(10, 3), 30);
        assert_eq!(FlowMetric::Branch.flow(10, 0), 0);
    }

    #[test]
    fn map_add_and_join() {
        let mut a = FlowMap::singleton(5, 2, 1);
        a.add(5, 2, 2);
        let b = FlowMap::singleton(7, 1, 4);
        a.join(&b);
        assert_eq!(a.get(5, 2), 3);
        assert_eq!(a.get(7, 1), 4);
        assert_eq!(a.get(9, 9), 0);
        assert_eq!(a.total_paths(), 7);
        assert_eq!(a.total_flow(FlowMetric::Branch), 5 * 2 * 3 + 7 * 4);
        assert_eq!(a.total_flow(FlowMetric::Unit), 5 * 3 + 7 * 4);
    }

    #[test]
    fn counts_and_totals_saturate() {
        let mut a = FlowMap::singleton(3, 1, u64::MAX - 1);
        a.add(3, 1, 5);
        a.add(4, 1, 2);
        assert_eq!(a.get(3, 1), u64::MAX);
        assert_eq!(a.total_paths(), u64::MAX);
        assert_eq!(a.total_flow(FlowMetric::Branch), u64::MAX);
    }

    #[test]
    fn zero_counts_ignored() {
        let mut a = FlowMap::new();
        a.add(1, 1, 0);
        assert!(a.is_empty());
    }

    #[test]
    fn from_iterator_collects() {
        let m: FlowMap = [(1, 1, 1), (2, 2, 2), (1, 1, 1)].into_iter().collect();
        assert_eq!(m.get(1, 1), 2);
        assert_eq!(m.get(2, 2), 2);
    }
}
