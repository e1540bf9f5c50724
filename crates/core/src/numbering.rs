//! Path numbering: Ball–Larus (Fig. 2) and PPP's smart variant (Fig. 6).
//!
//! Both algorithms walk blocks in reverse topological order and assign each
//! edge `Val(e) = NumPaths(v)` accumulated so far, so the sum of `Val`
//! along any `ENTRY → EXIT` DAG path is a unique number in `[0, N)`. They
//! differ only in the order a block's outgoing edges are visited:
//!
//! - **Ball–Larus** (Fig. 2): increasing `NumPaths(target)`, which keeps
//!   edge increments small;
//! - **Smart path numbering** (Fig. 6, §4.5): *decreasing execution
//!   frequency*, which assigns `Val = 0` — i.e. no increment — to each
//!   block's hottest outgoing edge.
//!
//! Cold (excluded) edges take no part in numbering; paths through them are
//! not counted (§3.2) and are handled by poisoning.

use crate::dag::{Dag, DagEdgeId};

/// Edge-visit order for numbering.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NumberingOrder {
    /// Fig. 2: increasing `NumPaths(target)` (PP and TPP).
    BallLarus,
    /// Fig. 6: decreasing measured edge frequency (PPP's SPN, §4.5).
    SmartDecreasingFreq,
    /// *Increasing* frequency: the hottest edge is visited last and so
    /// receives the largest `Val`. This is the numbering posture of
    /// selective path profiling (SPP), which "assigns high path numbers
    /// to profiled paths" — the paper's §2 contrast: with this order the
    /// hottest paths carry the most increments instead of none.
    SppIncreasingFreq,
}

/// The result of numbering a (possibly pruned) DAG.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Numbering {
    /// `Val(e)` per DAG edge; `0` for cold edges and edges off all
    /// counted paths.
    pub val: Vec<i64>,
    /// Paths from each node to `EXIT` avoiding cold edges (`NumPaths` in
    /// Fig. 2). Saturating: [`u64::MAX`] means "too many".
    pub paths_from: Vec<u64>,
    /// Paths from `ENTRY` to each node avoiding cold edges.
    pub paths_to: Vec<u64>,
    /// Total countable paths `N = NumPaths(ENTRY)`.
    pub n_paths: u64,
}

impl Numbering {
    /// Returns `true` if edge `e` lies on at least one counted
    /// (`ENTRY → EXIT`, cold-free) path.
    pub fn on_counted_path(&self, dag: &Dag, e: DagEdgeId, cold: &[bool]) -> bool {
        if cold[e.index()] {
            return false;
        }
        let edge = dag.edge(e);
        self.paths_to[edge.from.index()] > 0 && self.paths_from[edge.to.index()] > 0
    }

    /// Number of counted paths passing through edge `e`
    /// (`paths_to(src) × paths_from(tgt)`, saturating).
    pub fn paths_through(&self, dag: &Dag, e: DagEdgeId, cold: &[bool]) -> u64 {
        if cold[e.index()] {
            return 0;
        }
        let edge = dag.edge(e);
        self.paths_to[edge.from.index()].saturating_mul(self.paths_from[edge.to.index()])
    }
}

/// Numbers the DAG's cold-free paths.
///
/// `cold[e]` excludes edge `e` (its `Val` stays `0` and no path through it
/// is counted).
pub fn number_paths(dag: &Dag, cold: &[bool], order: NumberingOrder) -> Numbering {
    assert_eq!(
        cold.len(),
        dag.edge_count(),
        "cold mask must cover all edges"
    );
    let n_blocks = dag
        .topo()
        .iter()
        .map(|b| b.index() + 1)
        .max()
        .unwrap_or(0)
        .max(dag.exit.index() + 1);
    let mut paths_from = vec![0u64; n_blocks];
    let mut val = vec![0i64; dag.edge_count()];

    // Reverse topological: exit first.
    for &v in dag.topo().iter().rev() {
        if v == dag.exit {
            paths_from[v.index()] = 1;
            continue;
        }
        let mut out: Vec<DagEdgeId> = dag
            .out_edges(v)
            .iter()
            .copied()
            .filter(|&e| !cold[e.index()])
            .collect();
        match order {
            NumberingOrder::BallLarus => {
                out.sort_by_key(|&e| (paths_from[dag.edge(e).to.index()], e));
            }
            NumberingOrder::SmartDecreasingFreq => {
                out.sort_by_key(|&e| (std::cmp::Reverse(dag.edge(e).freq), e));
            }
            NumberingOrder::SppIncreasingFreq => {
                out.sort_by_key(|&e| (dag.edge(e).freq, e));
            }
        }
        let mut np: u64 = 0;
        for e in out {
            let tgt = dag.edge(e).to;
            val[e.index()] = i64::try_from(np.min(i64::MAX as u64)).expect("clamped");
            np = np.saturating_add(paths_from[tgt.index()]);
        }
        paths_from[v.index()] = np;
    }

    // Forward pass: paths from ENTRY to each node.
    let mut paths_to = vec![0u64; n_blocks];
    paths_to[dag.entry.index()] = 1;
    for &v in dag.topo() {
        let pt = paths_to[v.index()];
        if pt == 0 {
            continue;
        }
        for &e in dag.out_edges(v) {
            if cold[e.index()] {
                continue;
            }
            let tgt = dag.edge(e).to;
            paths_to[tgt.index()] = paths_to[tgt.index()].saturating_add(pt);
        }
    }

    // Zero the Val of edges that are on no counted path, so they never
    // receive increments.
    for (i, v) in val.iter_mut().enumerate() {
        let edge = dag.edge(DagEdgeId(i as u32));
        if cold[i] || paths_to[edge.from.index()] == 0 || paths_from[edge.to.index()] == 0 {
            *v = 0;
        }
    }

    let n_paths = paths_from[dag.entry.index()];
    Numbering {
        val,
        paths_from,
        paths_to,
        n_paths,
    }
}

/// Decodes path number `p` back to its DAG edge sequence.
///
/// Returns `None` if `p` is not a valid path number (e.g. a poisoned
/// index).
pub fn decode_path(
    dag: &Dag,
    numbering: &Numbering,
    cold: &[bool],
    p: u64,
) -> Option<Vec<DagEdgeId>> {
    if p >= numbering.n_paths {
        return None;
    }
    let mut remaining = p;
    let mut node = dag.entry;
    let mut out = Vec::new();
    // Bounded walk: a simple path visits each node at most once.
    for _ in 0..=dag.topo().len() {
        if node == dag.exit {
            return Some(out);
        }
        // Choose the edge whose interval [Val(e), Val(e)+paths_from(tgt))
        // contains `remaining`: the edge with the largest Val <= remaining.
        let mut best: Option<(DagEdgeId, i64)> = None;
        for &e in dag.out_edges(node) {
            if cold[e.index()] {
                continue;
            }
            let edge = dag.edge(e);
            if numbering.paths_from[edge.to.index()] == 0 {
                continue;
            }
            let v = numbering.val[e.index()];
            if v as u64 <= remaining && best.is_none_or(|(_, bv)| v > bv) {
                best = Some((e, v));
            }
        }
        let (e, v) = best?;
        remaining -= v as u64;
        node = dag.edge(e).to;
        out.push(e);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dag::Dag;
    use ppp_ir::{BlockId as B, Function, FunctionBuilder, Reg};

    /// The Figure 1 routine: A -> B|C; B -> D; C -> D; D -> E|F; E -> F;
    /// F is a loop latch back to A... Figure 1 has a back edge F -> A and
    /// exit G. We encode: A(0) branches to B(1), C(2); both to D(3);
    /// D branches to E(4), F(5); E -> F; F branches back to A (back edge)
    /// or to G(6) = exit.
    fn figure1() -> Function {
        let mut b = FunctionBuilder::new("fig1", 2);
        let entry = b.new_block(); // A = b1 (keep b0 as virtual entry)
        let bb = b.new_block();
        let cc = b.new_block();
        let dd = b.new_block();
        let ee = b.new_block();
        let ff = b.new_block();
        let gg = b.new_block();
        b.jump(entry);
        b.switch_to(entry);
        b.branch(Reg(0), bb, cc);
        b.switch_to(bb);
        b.jump(dd);
        b.switch_to(cc);
        b.jump(dd);
        b.switch_to(dd);
        b.branch(Reg(1), ee, ff);
        b.switch_to(ee);
        b.jump(ff);
        b.switch_to(ff);
        b.branch(Reg(0), entry, gg); // back edge to A, exit to G
        b.switch_to(gg);
        b.ret(None);
        b.finish()
    }

    fn no_cold(dag: &Dag) -> Vec<bool> {
        vec![false; dag.edge_count()]
    }

    #[test]
    fn figure1_has_expected_path_count() {
        // 2 (A-split) * 2 (D-split) = 4 paths from A to the F-split, times
        // 2 ways to end (back edge or G)... ENTRY adds the dummy path start
        // at A only (back edge targets A which is also the path start).
        // Counting: paths start at ENTRY(b0) or via entry-dummy to A; both
        // reach A immediately, so N = (ways A..F) * (F->G or F->EXIT dummy)
        // = 4 * 2 = 8 per path start; starts share node A, so N = 8 + 8?
        // The DAG: b0 -> A (real) and b0 -> A (entry dummy) are parallel
        // edges, so N doubles: both represent distinct path *starts* but
        // identical block sequences. The paper's Figure 1 reports 8 paths
        // for the equivalent structure; our extra factor 2 comes from the
        // virtual entry also reaching A. Verify the invariant rather than
        // the literal count: every number decodes to a unique path.
        let f = figure1();
        let dag = Dag::build(&f, None);
        let cold = no_cold(&dag);
        let num = number_paths(&dag, &cold, NumberingOrder::BallLarus);
        assert_eq!(num.n_paths, 16);
        // Path number uniqueness: decode every p and re-sum the vals.
        for p in 0..num.n_paths {
            let path = decode_path(&dag, &num, &cold, p).expect("valid path");
            let sum: i64 = path.iter().map(|&e| num.val[e.index()]).sum();
            assert_eq!(sum as u64, p, "path numbers must round-trip");
        }
        assert_eq!(decode_path(&dag, &num, &cold, num.n_paths), None);
    }

    #[test]
    fn vals_are_zero_on_some_spanning_structure() {
        let f = figure1();
        let dag = Dag::build(&f, None);
        let cold = no_cold(&dag);
        let num = number_paths(&dag, &cold, NumberingOrder::BallLarus);
        // At least one outgoing edge of every branching node has Val 0.
        for &v in dag.topo() {
            let outs = dag.out_edges(v);
            if outs.len() >= 2 {
                assert!(outs.iter().any(|&e| num.val[e.index()] == 0));
            }
        }
    }

    #[test]
    fn smart_numbering_zeroes_hottest_edge() {
        let f = figure1();
        let mut dag = Dag::build(&f, None);
        let cold = no_cold(&dag);
        // Make one of A's outgoing edges much hotter, in a way that
        // disagrees with the Ball-Larus order.
        let a_out: Vec<DagEdgeId> = dag.out_edges(B(1)).to_vec();
        assert_eq!(a_out.len(), 2);
        // Give the *second* (higher NumPaths order) edge the higher freq.
        let hot = a_out[1];
        dag.set_edge_freq(hot, 1000);
        dag.set_edge_freq(a_out[0], 1);
        let num = number_paths(&dag, &cold, NumberingOrder::SmartDecreasingFreq);
        assert_eq!(num.val[hot.index()], 0, "hottest edge gets Val 0");
        assert_ne!(num.val[a_out[0].index()], 0);
        // Uniqueness still holds.
        for p in 0..num.n_paths {
            let path = decode_path(&dag, &num, &cold, p).expect("valid");
            let sum: i64 = path.iter().map(|&e| num.val[e.index()]).sum();
            assert_eq!(sum as u64, p);
        }
    }

    #[test]
    fn cold_edges_prune_paths() {
        let f = figure1();
        let dag = Dag::build(&f, None);
        let mut cold = no_cold(&dag);
        // Freeze A -> C (the real edge from block 1 to block 2).
        let ac = (0..dag.edge_count())
            .map(|i| DagEdgeId(i as u32))
            .find(|&e| dag.edge(e).from == B(1) && dag.edge(e).to == B(2))
            .unwrap();
        cold[ac.index()] = true;
        let num = number_paths(&dag, &cold, NumberingOrder::BallLarus);
        assert_eq!(num.n_paths, 8); // halved
        assert_eq!(num.val[ac.index()], 0);
        assert_eq!(num.paths_through(&dag, ac, &cold), 0);
        // Decoded paths never use the cold edge.
        for p in 0..num.n_paths {
            let path = decode_path(&dag, &num, &cold, p).expect("valid");
            assert!(!path.contains(&ac));
        }
    }

    #[test]
    fn spp_order_loads_the_hottest_edge() {
        let f = figure1();
        let mut dag = Dag::build(&f, None);
        let a_out: Vec<DagEdgeId> = dag.out_edges(B(1)).to_vec();
        let hot = a_out[1];
        dag.set_edge_freq(hot, 1000);
        dag.set_edge_freq(a_out[0], 1);
        let cold = no_cold(&dag);
        let num = number_paths(&dag, &cold, NumberingOrder::SppIncreasingFreq);
        // SPP's posture: the hottest outgoing edge gets the LARGEST value
        // (it is visited last), so hot paths carry increments.
        assert!(num.val[hot.index()] > 0, "hottest edge must carry a value");
        assert_eq!(num.val[a_out[0].index()], 0);
        // Numbering is still a bijection.
        for p in 0..num.n_paths {
            let path = decode_path(&dag, &num, &cold, p).expect("valid");
            let sum: i64 = path.iter().map(|&e| num.val[e.index()]).sum();
            assert_eq!(sum as u64, p);
        }
    }

    #[test]
    fn paths_through_counts_match_totals() {
        let f = figure1();
        let dag = Dag::build(&f, None);
        let cold = no_cold(&dag);
        let num = number_paths(&dag, &cold, NumberingOrder::BallLarus);
        // Paths through all of EXIT's in-edges sum to N.
        let total: u64 = dag
            .in_edges(dag.exit)
            .iter()
            .map(|&e| num.paths_through(&dag, e, &cold))
            .sum();
        assert_eq!(total, num.n_paths);
    }
}
