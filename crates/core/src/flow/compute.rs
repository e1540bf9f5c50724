//! Definite and potential flow (appendix Figs. 14–15).
//!
//! Both are reverse-topological dynamic programs over the profiling DAG.
//! For each node `v`, `M[v]` is the multiset of per-path values `(f, b)`:
//!
//! - **definite** (Fig. 14): `f` is the execution frequency the edge
//!   profile *guarantees* the path — crossing edge `e` can "leak" at most
//!   `f_s = freq(tgt(e)) − freq(e)` executions to sibling edges, so the
//!   guarantee shrinks by `f_s` per merge;
//! - **potential** (Fig. 15): `f` is the most execution the profile
//!   *allows* the path — capped by `min(f, freq(e))` at every edge.
//!
//! `b` counts branch edges (for the branch-flow metric) and increments
//! whenever the traversed edge is a branch.

use crate::dag::{Dag, DagEdgeId};
use crate::flow::FlowMap;

/// Result of a definite- or potential-flow computation.
#[derive(Clone, Debug)]
pub struct FlowAnalysis {
    /// `M[v]` per block index.
    node: Vec<FlowMap>,
    /// Whether this is definite (vs. potential) flow.
    pub definite: bool,
}

impl FlowAnalysis {
    /// The flow map at `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range.
    pub fn at(&self, b: ppp_ir::BlockId) -> &FlowMap {
        &self.node[b.index()]
    }

    /// The routine-level flow map (`M[ENTRY]`).
    pub fn entry_map<'a>(&'a self, dag: &Dag) -> &'a FlowMap {
        self.at(dag.entry)
    }
}

fn run(dag: &Dag, definite: bool) -> FlowAnalysis {
    let n_blocks = dag
        .topo()
        .iter()
        .map(|b| b.index() + 1)
        .max()
        .unwrap_or(0)
        .max(dag.exit.index().max(dag.entry.index()) + 1);
    let mut node: Vec<FlowMap> = vec![FlowMap::new(); n_blocks];
    let total = dag.total_path_freq();
    node[dag.exit.index()] = FlowMap::singleton(total, 0, 1);

    for &v in dag.topo().iter().rev() {
        if v == dag.exit {
            continue;
        }
        let mut mv = FlowMap::new();
        for &eid in dag.out_edges(v) {
            let e = dag.edge(eid);
            let tgt_map = &node[e.to.index()];
            let shift = u32::from(e.is_branch);
            if definite {
                // f_s: flow that may bypass e into its siblings at tgt.
                let f_s = dag.node_freq(e.to).saturating_sub(e.freq);
                for (f, b, d) in tgt_map.iter() {
                    if f > f_s {
                        mv.add(f - f_s, b + shift, d);
                    }
                }
            } else {
                for (f, b, d) in tgt_map.iter() {
                    mv.add(f.min(e.freq), b + shift, d);
                }
            }
        }
        node[v.index()] = mv;
    }
    FlowAnalysis { node, definite }
}

/// Computes definite flow (Fig. 14).
pub fn definite_flow(dag: &Dag) -> FlowAnalysis {
    run(dag, true)
}

/// Computes potential flow (Fig. 15).
pub fn potential_flow(dag: &Dag) -> FlowAnalysis {
    run(dag, false)
}

/// Edge-level map `M[e]`, derived on demand (the reconstruction walks
/// node maps directly, but tests and the paper's presentation use these).
pub fn edge_map(dag: &Dag, analysis: &FlowAnalysis, eid: DagEdgeId) -> FlowMap {
    let e = dag.edge(eid);
    let tgt = analysis.at(e.to);
    let mut out = FlowMap::new();
    if analysis.definite {
        let f_s = dag.node_freq(e.to).saturating_sub(e.freq);
        for (f, b, d) in tgt.iter() {
            if f > f_s {
                out.add(f - f_s, b, d);
            }
        }
    } else {
        for (f, b, d) in tgt.iter() {
            out.add(f.min(e.freq), b, d);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::fixtures::figure8;
    use crate::flow::FlowMetric;
    use ppp_ir::{BlockId, EdgeRef, FuncEdgeProfile, FunctionBuilder};

    #[test]
    fn figure8_definite_flow_matches_paper() {
        let (f, p) = figure8();
        let dag = crate::dag::Dag::build(&f, Some(&p));
        // Total actual branch flow: 50 + 30 + 60 + 20 = 160 (§5.2).
        assert_eq!(dag.total_branch_flow(), 160);
        let df = definite_flow(&dag);
        let entry = df.entry_map(&dag);
        // Paper: definite flows are 60 (ABDEG), 20 (ACDEG), 0, 0 in
        // branch-flow terms; in (f, b) form that is (30, 2) and (10, 2).
        assert_eq!(entry.get(30, 2), 1);
        assert_eq!(entry.get(10, 2), 1);
        assert_eq!(entry.total_flow(FlowMetric::Branch), 80);
        // Coverage of the edge profile: 80 / 160 = 50% (§6.2).
        let coverage = entry.total_flow(FlowMetric::Branch) as f64 / dag.total_branch_flow() as f64;
        assert!((coverage - 0.5).abs() < 1e-12);
    }

    #[test]
    fn figure8_potential_flow_caps_by_edges() {
        let (f, p) = figure8();
        let dag = crate::dag::Dag::build(&f, Some(&p));
        let pf = potential_flow(&dag);
        let entry = pf.entry_map(&dag);
        // Potential flows: ABDEG min(50,60)=50, ACDEG min(30,60)=30,
        // ABDFG min(50,20)=20, ACDFG min(30,20)=20; all with 2 branches.
        assert_eq!(entry.get(50, 2), 1);
        assert_eq!(entry.get(30, 2), 1);
        assert_eq!(entry.get(20, 2), 2);
        assert_eq!(entry.total_paths(), 4);
        // Potential flow over-promises: total exceeds actual flow.
        assert!(entry.total_flow(FlowMetric::Branch) >= 160);
    }

    #[test]
    fn straight_line_routine_is_fully_definite() {
        let mut b = FunctionBuilder::new("straight", 0);
        let x = b.new_block();
        b.jump(x);
        b.switch_to(x);
        b.ret(None);
        let f = b.finish();
        let mut p = FuncEdgeProfile::zeroed(&f);
        p.set_entries(42);
        p.set_edge(EdgeRef::new(BlockId(0), 0), 42);
        let dag = crate::dag::Dag::build(&f, Some(&p));
        let df = definite_flow(&dag);
        let entry = df.entry_map(&dag);
        assert_eq!(entry.get(42, 0), 1);
        // No branches: zero branch flow, but full unit flow.
        assert_eq!(entry.total_flow(FlowMetric::Branch), 0);
        assert_eq!(entry.total_flow(FlowMetric::Unit), 42);
    }

    #[test]
    fn fully_biased_branch_is_fully_definite() {
        let (f, mut p) = figure8();
        // Make the profile deterministic: A always -> B, D always -> E.
        let e = |from: u32, s: usize| EdgeRef::new(BlockId(from), s);
        p.set_edge(e(1, 0), 80);
        p.set_edge(e(1, 1), 0);
        p.set_edge(e(2, 0), 80);
        p.set_edge(e(3, 0), 0);
        p.set_edge(e(4, 0), 80);
        p.set_edge(e(4, 1), 0);
        p.set_edge(e(5, 0), 80);
        p.set_edge(e(6, 0), 0);
        let dag = crate::dag::Dag::build(&f, Some(&p));
        let df = definite_flow(&dag);
        let entry = df.entry_map(&dag);
        assert_eq!(entry.get(80, 2), 1);
        assert_eq!(
            entry.total_flow(FlowMetric::Branch),
            dag.total_branch_flow()
        );
    }

    #[test]
    fn edge_maps_match_paper_intermediates() {
        let (f, p) = figure8();
        let dag = crate::dag::Dag::build(&f, Some(&p));
        let df = definite_flow(&dag);
        // M_D[A->B] = {(30, 1)}: D's (60,1) survives the merge at B... via
        // B: f_s = freq(B) - freq(A->B) = 0, so M[A->B] = M[B] = {(30,1)}.
        let ab = dag
            .real_edge(EdgeRef::new(BlockId(1), 0))
            .expect("A->B exists");
        let m = edge_map(&dag, &df, ab);
        assert_eq!(m.get(30, 1), 1);
        assert_eq!(m.total_paths(), 1);
    }
}
