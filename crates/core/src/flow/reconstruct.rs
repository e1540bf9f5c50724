//! Hot-path selection from definite/potential flow profiles (Fig. 16).
//!
//! Given the node-level flow multisets, this walks the DAG from `ENTRY`
//! re-deriving which concrete edges can carry each `(f, b)` signature,
//! debiting multiplicities as paths are enumerated — the appendix
//! algorithm, including the `used`-set fix the authors confirmed with
//! Ball. The potential-flow variant applies the two changes described in
//! the appendix: the child frequency is taken from the child map (not
//! `f + f_s`), and the match condition relaxes to `g ≥ f` when the edge
//! frequency caps the flow.

use crate::dag::{Dag, DagEdgeId};
use crate::flow::{FlowAnalysis, FlowMetric};

/// Which flow profile paths are reconstructed from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowKind {
    /// Definite flow (guaranteed execution).
    Definite,
    /// Potential flow (allowed execution).
    Potential,
}

/// One reconstructed path with its estimated flow.
#[derive(Clone, Debug)]
pub struct ReconstructedPath {
    /// DAG edges from `ENTRY` to `EXIT`.
    pub edges: Vec<DagEdgeId>,
    /// Estimated path frequency (`f'` in Fig. 16).
    pub freq: u64,
    /// Branch count of the path.
    pub branches: u32,
}

impl ReconstructedPath {
    /// Estimated flow under `metric`.
    pub fn flow(&self, metric: FlowMetric) -> u64 {
        metric.flow(self.freq, self.branches)
    }
}

/// Reconstructs paths whose estimated flow exceeds `cutoff` under
/// `metric`, up to `max_paths` results (a safety valve; the paper had no
/// cap, and ran out of memory on gcc for it).
///
/// Entry signatures are enumerated hottest first, and every path from a
/// signature has that signature's flow, so paths come out in
/// non-increasing flow order.
pub fn reconstruct(
    dag: &Dag,
    analysis: &FlowAnalysis,
    kind: FlowKind,
    metric: FlowMetric,
    cutoff: u64,
    max_paths: usize,
) -> Vec<ReconstructedPath> {
    let mut out = Vec::new();
    for seed in seeds(dag, analysis, metric, cutoff) {
        if out.len() >= max_paths {
            break;
        }
        reconstruct_seed(dag, analysis, kind, seed, max_paths, &mut out);
    }
    out
}

/// The entry signatures `(freq, branches, count)` whose flow under
/// `metric` exceeds `cutoff`, hottest first (ties in ascending signature
/// order). Every path [`reconstruct_seed`] produces from a seed has
/// exactly the seed's `freq` and `branches`, hence the seed's flow.
pub(crate) fn seeds(
    dag: &Dag,
    analysis: &FlowAnalysis,
    metric: FlowMetric,
    cutoff: u64,
) -> Vec<(u64, u32, u64)> {
    let mut seeds: Vec<(u64, u32, u64)> = analysis
        .entry_map(dag)
        .iter()
        .filter(|&(f, b, _)| metric.flow(f, b) > cutoff)
        .collect();
    seeds.sort_by_key(|&(f, b, _)| std::cmp::Reverse(metric.flow(f, b)));
    seeds
}

/// Appends the paths of one entry signature `(freq, branches, count)` to
/// `out`, stopping once `out` holds `max_paths` paths.
pub(crate) fn reconstruct_seed(
    dag: &Dag,
    analysis: &FlowAnalysis,
    kind: FlowKind,
    (f, b, delta): (u64, u32, u64),
    max_paths: usize,
    out: &mut Vec<ReconstructedPath>,
) {
    debug_assert_eq!(
        analysis.definite,
        kind == FlowKind::Definite,
        "analysis kind must match reconstruction kind"
    );
    let mut rec = Reconstructor {
        dag,
        analysis,
        kind,
        out,
        max_paths,
    };
    rec.enumerate(dag.entry, &mut Vec::new(), f, b, f, delta);
}

struct Reconstructor<'a> {
    dag: &'a Dag,
    analysis: &'a FlowAnalysis,
    kind: FlowKind,
    out: &'a mut Vec<ReconstructedPath>,
    max_paths: usize,
}

impl Reconstructor<'_> {
    /// Fig. 16's `enumerate`, iterative over candidates at each node.
    fn enumerate(
        &mut self,
        v: ppp_ir::BlockId,
        prefix: &mut Vec<DagEdgeId>,
        f: u64,
        b: u32,
        f_orig: u64,
        delta: u64,
    ) {
        if self.out.len() >= self.max_paths {
            return;
        }
        if v == self.dag.exit {
            let branches = prefix
                .iter()
                .filter(|&&e| self.dag.edge(e).is_branch)
                .count() as u32;
            self.out.push(ReconstructedPath {
                edges: prefix.clone(),
                freq: f_orig,
                branches,
            });
            return;
        }
        let mut remaining = delta;
        // Candidate continuations: edge e and a child signature (f_t, c)
        // in M[tgt(e)] whose edge-level image matches (f, b).
        for &eid in self.dag.out_edges(v) {
            if remaining == 0 {
                break;
            }
            let e = self.dag.edge(eid);
            let c = b.checked_sub(u32::from(e.is_branch));
            let Some(c) = c else { continue };
            // `analysis` is a shared reference field: copying it out keeps
            // the borrow independent of `&mut self` below.
            let analysis = self.analysis;
            let tgt_map = analysis.at(e.to);
            match self.kind {
                FlowKind::Definite => {
                    // Fig. 16: child frequency is f + f_s.
                    let f_s = self.dag.node_freq(e.to).saturating_sub(e.freq);
                    let f_t = f + f_s;
                    let avail = tgt_map.get(f_t, c);
                    if avail == 0 {
                        continue;
                    }
                    let debit = remaining.min(avail);
                    prefix.push(eid);
                    self.enumerate(e.to, prefix, f_t, c, f_orig, debit);
                    prefix.pop();
                    remaining -= debit;
                }
                FlowKind::Potential => {
                    // Appendix changes: child entries (f_t, c) with
                    // min(f_t, freq(e)) == f; when f == freq(e) that is
                    // every f_t >= f.
                    let candidates: Vec<(u64, u64)> = tgt_map
                        .iter()
                        .filter(|&(f_t, cc, _)| cc == c && f_t.min(e.freq) == f)
                        .map(|(f_t, _, d)| (f_t, d))
                        .collect();
                    for (f_t, avail) in candidates {
                        if remaining == 0 {
                            break;
                        }
                        let debit = remaining.min(avail);
                        prefix.push(eid);
                        self.enumerate(e.to, prefix, f_t, c, f_orig, debit);
                        prefix.pop();
                        remaining -= debit;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Dag;
    use crate::flow::fixtures::figure8;
    use crate::flow::{definite_flow, potential_flow};
    use ppp_ir::{BlockId, EdgeRef, FuncEdgeProfile, FunctionBuilder, Reg};

    fn blocks_of(dag: &Dag, path: &ReconstructedPath) -> Vec<u32> {
        let mut v = vec![dag.entry.0];
        for &e in &path.edges {
            v.push(dag.edge(e).to.0);
        }
        v
    }

    #[test]
    fn definite_reconstruction_finds_the_guaranteed_paths() {
        let (f, p) = figure8();
        let dag = Dag::build(&f, Some(&p));
        let df = definite_flow(&dag);
        let paths = reconstruct(&dag, &df, FlowKind::Definite, FlowMetric::Branch, 0, 100);
        assert_eq!(paths.len(), 2);
        // Hottest first: ABDEG with definite freq 30 (flow 60).
        assert_eq!(paths[0].freq, 30);
        assert_eq!(paths[0].branches, 2);
        assert_eq!(blocks_of(&dag, &paths[0]), vec![0, 1, 2, 4, 5, 7]);
        // Then ACDEG with definite freq 10 (flow 20).
        assert_eq!(paths[1].freq, 10);
        assert_eq!(blocks_of(&dag, &paths[1]), vec![0, 1, 3, 4, 5, 7]);
    }

    #[test]
    fn potential_reconstruction_finds_all_four_paths() {
        let (f, p) = figure8();
        let dag = Dag::build(&f, Some(&p));
        let pf = potential_flow(&dag);
        let mut paths = reconstruct(&dag, &pf, FlowKind::Potential, FlowMetric::Branch, 0, 100);
        assert_eq!(paths.len(), 4);
        paths.sort_by_key(|p| std::cmp::Reverse(p.freq));
        // ABDEG: min(50,60) = 50; ACDEG: 30; ABDFG & ACDFG: 20.
        assert_eq!(paths[0].freq, 50);
        assert_eq!(blocks_of(&dag, &paths[0]), vec![0, 1, 2, 4, 5, 7]);
        assert_eq!(paths[1].freq, 30);
        assert_eq!(paths[2].freq, 20);
        assert_eq!(paths[3].freq, 20);
    }

    #[test]
    fn cutoff_filters_cold_paths() {
        let (f, p) = figure8();
        let dag = Dag::build(&f, Some(&p));
        let df = definite_flow(&dag);
        // Cutoff 30 branch flow keeps only ABDEG (flow 60).
        let paths = reconstruct(&dag, &df, FlowKind::Definite, FlowMetric::Branch, 30, 100);
        assert_eq!(paths.len(), 1);
        assert_eq!(paths[0].freq, 30);
    }

    #[test]
    fn max_paths_caps_enumeration() {
        let (f, p) = figure8();
        let dag = Dag::build(&f, Some(&p));
        let pf = potential_flow(&dag);
        let paths = reconstruct(&dag, &pf, FlowKind::Potential, FlowMetric::Branch, 0, 2);
        assert_eq!(paths.len(), 2);
    }

    #[test]
    fn reconstructed_edges_map_to_path_keys() {
        let (f, p) = figure8();
        let dag = Dag::build(&f, Some(&p));
        let df = definite_flow(&dag);
        let paths = reconstruct(&dag, &df, FlowKind::Definite, FlowMetric::Branch, 0, 100);
        let key = dag.path_key(&paths[0].edges);
        assert_eq!(key.start, BlockId(0));
        assert_eq!(key.branch_count(&f), 2);
        assert_eq!(key.edges.len(), 5);
    }

    /// On a routine with a loop, signatures flow through the dummy edges
    /// like any others.
    #[test]
    fn reconstruction_handles_loops() {
        let mut b = FunctionBuilder::new("loopy", 1);
        let hdr = b.new_block();
        let body = b.new_block();
        let exit = b.new_block();
        b.jump(hdr);
        b.switch_to(hdr);
        b.branch(Reg(0), body, exit);
        b.switch_to(body);
        b.jump(hdr);
        b.switch_to(exit);
        b.ret(None);
        let f = b.finish();
        let mut p = FuncEdgeProfile::zeroed(&f);
        p.set_entries(10);
        p.set_edge(EdgeRef::new(BlockId(0), 0), 10);
        p.set_edge(EdgeRef::new(BlockId(1), 0), 990); // hdr -> body
        p.set_edge(EdgeRef::new(BlockId(1), 1), 10); // hdr -> exit
        p.set_edge(EdgeRef::new(BlockId(2), 0), 990); // back edge
        let dag = Dag::build(&f, Some(&p));
        let df = definite_flow(&dag);
        let paths = reconstruct(&dag, &df, FlowKind::Definite, FlowMetric::Branch, 0, 100);
        // The dominant iteration path hdr -> body -> (back) is guaranteed
        // at least 980 executions: of 1000 paths, at most 10+10 avoid it.
        let iter_path = paths
            .iter()
            .find(|p| blocks_of(&dag, p) == vec![0, 1, 2, 3])
            .expect("iteration path reconstructed");
        assert!(iter_path.freq >= 980, "freq = {}", iter_path.freq);
    }
}
