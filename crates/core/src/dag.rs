//! CFG → DAG conversion for path profiling (§3.1).
//!
//! Ball–Larus profiling removes every back edge `latch → header` and adds
//! two dummy edges: `ENTRY → header` and `latch → EXIT`. Acyclic paths in
//! the resulting DAG correspond one-to-one with the dynamic paths the
//! profiler counts: a path entering via an `ENTRY → header` dummy is an
//! iteration path started by the back edge, and a path leaving via a
//! `latch → EXIT` dummy ends with that back edge taken.
//!
//! The [`Dag`] keeps, per edge, the *measured* frequency (from an edge
//! profile, when available), a *predicted weight* (static heuristics, used
//! by PP's numbering and event counting), and whether the edge is a
//! *branch* in the paper's §5.1 sense — dummy exit edges inherit the
//! branchiness of the back edge they stand for, so branch-flow accounting
//! agrees exactly with the VM's ground-truth tracer.

use ppp_ir::{analyze_loops, BlockId, Cfg, EdgeRef, FuncEdgeProfile, Function, LoopForest};

/// Index of an edge within a [`Dag`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct DagEdgeId(pub u32);

impl DagEdgeId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// What a DAG edge stands for in the original CFG.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DagEdgeKind {
    /// An original (non-back) CFG edge.
    Real(EdgeRef),
    /// Dummy `ENTRY → header` edge standing for the start of an iteration
    /// path after back edge `back` is taken.
    EntryDummy {
        /// The back edge this dummy stands for.
        back: EdgeRef,
    },
    /// Dummy `latch → EXIT` edge standing for the end of a path at back
    /// edge `back`.
    ExitDummy {
        /// The back edge this dummy stands for.
        back: EdgeRef,
    },
}

/// One DAG edge.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct DagEdge {
    /// Source DAG node (a CFG block; `ENTRY` is the function entry block).
    pub from: BlockId,
    /// Target DAG node (`EXIT` is the unique return block).
    pub to: BlockId,
    /// CFG meaning of this edge.
    pub kind: DagEdgeKind,
    /// `true` if the corresponding CFG edge leaves a block with at least
    /// two successors (§5.1); entry dummies are never branches.
    pub is_branch: bool,
    /// Measured execution frequency (0 without a profile).
    pub freq: u64,
    /// Predicted frequency from static heuristics (loops ×10, even branch
    /// splits) — what PP's spanning tree and numbering order use (§4.5).
    pub weight: f64,
}

/// The profiling DAG of one function.
#[derive(Clone, PartialEq, Debug)]
pub struct Dag {
    /// Function entry block (the DAG's `ENTRY`).
    pub entry: BlockId,
    /// Unique return block (the DAG's `EXIT`).
    pub exit: BlockId,
    edges: Vec<DagEdge>,
    out: Vec<Vec<DagEdgeId>>,
    inn: Vec<Vec<DagEdgeId>>,
    topo: Vec<BlockId>,
    node_freq: Vec<u64>,
    entries: u64,
}

impl Dag {
    /// Builds the profiling DAG of `f`, attaching frequencies from
    /// `profile` when given.
    ///
    /// # Panics
    ///
    /// Panics if `f` does not have exactly one `return` block or if its
    /// entry block has predecessors — run
    /// [`single_exit`](ppp_ir::transform::single_exit) and
    /// [`ensure_virtual_entry`](ppp_ir::transform::ensure_virtual_entry)
    /// first.
    pub fn build(f: &Function, profile: Option<&FuncEdgeProfile>) -> Self {
        Self::build_with_loops(f, profile).0
    }

    /// [`Dag::build`], also returning the loop forest of `f` that the
    /// static weights are computed from.
    ///
    /// # Panics
    ///
    /// As [`Dag::build`].
    pub(crate) fn build_with_loops(
        f: &Function,
        profile: Option<&FuncEdgeProfile>,
    ) -> (Self, LoopForest) {
        let (cfg, _, loops) = analyze_loops(f);
        (Self::from_parts(f, &cfg, &loops, profile), loops)
    }

    fn from_parts(
        f: &Function,
        cfg: &Cfg,
        loops: &LoopForest,
        profile: Option<&FuncEdgeProfile>,
    ) -> Self {
        let returns = f.return_blocks();
        assert_eq!(
            returns.len(),
            1,
            "function {} must be single-exit for DAG conversion",
            f.name
        );
        let exit = returns[0];
        assert!(
            cfg.preds(f.entry).is_empty(),
            "function {} entry must have no predecessors",
            f.name
        );

        let n = f.blocks.len();
        let weights = static_weights(f, loops);
        let mut edges: Vec<DagEdge> = Vec::new();
        let mut out: Vec<Vec<DagEdgeId>> = vec![Vec::new(); n];
        let mut inn: Vec<Vec<DagEdgeId>> = vec![Vec::new(); n];

        let push = |edges: &mut Vec<DagEdge>,
                    out: &mut Vec<Vec<DagEdgeId>>,
                    inn: &mut Vec<Vec<DagEdgeId>>,
                    e: DagEdge| {
            let id = DagEdgeId(edges.len() as u32);
            out[e.from.index()].push(id);
            inn[e.to.index()].push(id);
            edges.push(e);
        };

        for (b, block) in f.iter_blocks() {
            if !cfg.is_reachable(b) {
                continue;
            }
            let succs = block.term.successor_count();
            for s in 0..succs {
                let tgt = block.term.successor(s).expect("in-range successor");
                let e = EdgeRef::new(b, s);
                let freq = profile.map_or(0, |p| p.edge(e));
                let weight = weights.edge(f, e);
                let is_branch = succs >= 2;
                if cfg.is_retreating(b, tgt) {
                    // Break the back edge into two dummies (§3.1).
                    push(
                        &mut edges,
                        &mut out,
                        &mut inn,
                        DagEdge {
                            from: f.entry,
                            to: tgt,
                            kind: DagEdgeKind::EntryDummy { back: e },
                            is_branch: false,
                            freq,
                            weight,
                        },
                    );
                    push(
                        &mut edges,
                        &mut out,
                        &mut inn,
                        DagEdge {
                            from: b,
                            to: exit,
                            kind: DagEdgeKind::ExitDummy { back: e },
                            is_branch,
                            freq,
                            weight,
                        },
                    );
                } else {
                    push(
                        &mut edges,
                        &mut out,
                        &mut inn,
                        DagEdge {
                            from: b,
                            to: tgt,
                            kind: DagEdgeKind::Real(e),
                            is_branch,
                            freq,
                            weight,
                        },
                    );
                }
            }
        }

        let topo = topo_order(f.entry, n, &edges, &out);

        let entries = profile.map_or(0, |p| p.entries());
        let mut node_freq = vec![0u64; n];
        node_freq[f.entry.index()] = entries;
        for &b in &topo {
            if b != f.entry {
                node_freq[b.index()] = inn[b.index()].iter().map(|&i| edges[i.index()].freq).sum();
            }
        }

        Self {
            entry: f.entry,
            exit,
            edges,
            out,
            inn,
            topo,
            node_freq,
            entries,
        }
    }

    /// All edges, indexed by [`DagEdgeId`].
    pub fn edges(&self) -> &[DagEdge] {
        &self.edges
    }

    /// The edge with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    #[inline]
    pub fn edge(&self, id: DagEdgeId) -> &DagEdge {
        &self.edges[id.index()]
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of blocks of the function the DAG was built from.
    pub fn block_count(&self) -> usize {
        self.out.len()
    }

    /// Outgoing edges of `b`.
    pub fn out_edges(&self, b: BlockId) -> &[DagEdgeId] {
        &self.out[b.index()]
    }

    /// Incoming edges of `b`.
    pub fn in_edges(&self, b: BlockId) -> &[DagEdgeId] {
        &self.inn[b.index()]
    }

    /// Topological order over nodes reachable from `ENTRY` (entry first;
    /// `EXIT` last when it is reachable).
    pub fn topo(&self) -> &[BlockId] {
        &self.topo
    }

    /// Measured frequency of node `b` (sum of incoming DAG edge
    /// frequencies; `ENTRY` uses the function's entry count).
    pub fn node_freq(&self, b: BlockId) -> u64 {
        self.node_freq[b.index()]
    }

    /// Number of function invocations in the attached profile.
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Total path executions: the measured frequency of `EXIT`
    /// (returns plus back-edge path endings). This is the `F` seeding the
    /// definite/potential flow algorithms (Figs. 14–15).
    pub fn total_path_freq(&self) -> u64 {
        self.node_freq(self.exit)
    }

    /// Total branch flow of the function: the sum of branch-edge
    /// frequencies (§5.1).
    pub fn total_branch_flow(&self) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.is_branch)
            .map(|e| e.freq)
            .sum()
    }

    /// Finds the DAG edge for a non-back CFG edge.
    pub fn real_edge(&self, e: ppp_ir::EdgeRef) -> Option<DagEdgeId> {
        self.find_edge(|k| matches!(k, DagEdgeKind::Real(r) if r == e))
    }

    /// Finds the `ENTRY → header` dummy for a back edge.
    pub fn entry_dummy(&self, back: ppp_ir::EdgeRef) -> Option<DagEdgeId> {
        self.find_edge(|k| matches!(k, DagEdgeKind::EntryDummy { back: b } if b == back))
    }

    /// Finds the `latch → EXIT` dummy for a back edge.
    pub fn exit_dummy(&self, back: ppp_ir::EdgeRef) -> Option<DagEdgeId> {
        self.find_edge(|k| matches!(k, DagEdgeKind::ExitDummy { back: b } if b == back))
    }

    fn find_edge(&self, pred: impl Fn(DagEdgeKind) -> bool) -> Option<DagEdgeId> {
        self.edges
            .iter()
            .position(|e| pred(e.kind))
            .map(|i| DagEdgeId(i as u32))
    }

    /// Converts a DAG edge sequence (an `ENTRY → EXIT` path) into the
    /// [`PathKey`](ppp_ir::PathKey) identity used by the ground-truth
    /// tracer: the start block plus the CFG edges taken, with a
    /// terminating back edge when the path ends at one.
    pub fn path_key(&self, edges: &[DagEdgeId]) -> ppp_ir::PathKey {
        let mut start = self.entry;
        let mut out = Vec::with_capacity(edges.len());
        for (i, &id) in edges.iter().enumerate() {
            match self.edge(id).kind {
                DagEdgeKind::Real(e) => out.push(e),
                DagEdgeKind::EntryDummy { back } => {
                    debug_assert_eq!(i, 0, "entry dummy must start the path");
                    start = self.edge(id).to;
                    let _ = back;
                }
                DagEdgeKind::ExitDummy { back } => {
                    debug_assert_eq!(i, edges.len() - 1, "exit dummy must end the path");
                    out.push(back);
                }
            }
        }
        ppp_ir::PathKey { start, edges: out }
    }

    /// Overrides the measured frequency of one edge (for synthetic
    /// profiles in tests and examples) and re-derives node frequencies.
    pub fn set_edge_freq(&mut self, id: DagEdgeId, freq: u64) {
        self.edges[id.index()].freq = freq;
        self.recompute_node_freqs();
    }

    /// Overrides the function entry count (for synthetic profiles).
    pub fn set_entries(&mut self, entries: u64) {
        self.entries = entries;
        self.recompute_node_freqs();
    }

    fn recompute_node_freqs(&mut self) {
        self.node_freq[self.entry.index()] = self.entries;
        for i in 0..self.node_freq.len() {
            let b = BlockId::new(i);
            if b != self.entry {
                self.node_freq[i] = self.inn[i]
                    .iter()
                    .map(|&e| self.edges[e.index()].freq)
                    .sum();
            }
        }
    }
}

fn topo_order(entry: BlockId, n: usize, edges: &[DagEdge], out: &[Vec<DagEdgeId>]) -> Vec<BlockId> {
    // Iterative DFS postorder, reversed.
    let mut visited = vec![false; n];
    let mut order = Vec::new();
    let mut stack: Vec<(BlockId, usize)> = vec![(entry, 0)];
    visited[entry.index()] = true;
    while let Some(&mut (b, ref mut next)) = stack.last_mut() {
        let outs = &out[b.index()];
        if *next < outs.len() {
            let tgt = edges[outs[*next].index()].to;
            *next += 1;
            if !visited[tgt.index()] {
                visited[tgt.index()] = true;
                stack.push((tgt, 0));
            }
        } else {
            order.push(b);
            stack.pop();
        }
    }
    order.reverse();
    order
}

/// Static frequency heuristics: blocks weigh `10^loop-depth`, and a
/// block's weight splits evenly over its successors. PP uses these where
/// TPP/PPP use the measured edge profile (§3.1, §4.5).
struct StaticWeights {
    block: Vec<f64>,
}

impl StaticWeights {
    fn edge(&self, f: &Function, e: EdgeRef) -> f64 {
        let n = f.block(e.from).term.successor_count().max(1);
        self.block[e.from.index()] / n as f64
    }
}

fn static_weights(f: &Function, loops: &LoopForest) -> StaticWeights {
    let block = f
        .block_ids()
        .map(|b| 10f64.powi(loops.depth(b) as i32))
        .collect();
    StaticWeights { block }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::{FunctionBuilder, Module, Reg};
    use ppp_vm::{run, RunOptions};

    /// entry(0) -> 1(hdr); 1 -> 2 | 4; 2 -> 3; 3 -> 1 (back); 4: ret
    fn looped() -> Function {
        let mut b = FunctionBuilder::new("f", 1);
        let b1 = b.new_block();
        let b2 = b.new_block();
        let b3 = b.new_block();
        let b4 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.branch(Reg(0), b2, b4);
        b.switch_to(b2);
        b.jump(b3);
        b.switch_to(b3);
        b.jump(b1);
        b.switch_to(b4);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn back_edge_becomes_two_dummies() {
        let f = looped();
        let dag = Dag::build(&f, None);
        let kinds: Vec<_> = dag.edges().iter().map(|e| e.kind).collect();
        let back = EdgeRef::new(BlockId(3), 0);
        assert!(kinds.contains(&DagEdgeKind::EntryDummy { back }));
        assert!(kinds.contains(&DagEdgeKind::ExitDummy { back }));
        assert!(!kinds
            .iter()
            .any(|k| matches!(k, DagEdgeKind::Real(e) if *e == back)));
        // 5 real non-back edges? edges: 0->1, 1->2, 1->4, 2->3 are real;
        // 3->1 became two dummies. Total 4 + 2 = 6.
        assert_eq!(dag.edge_count(), 6);
    }

    #[test]
    fn dag_is_acyclic_and_topo_covers_reachable() {
        let f = looped();
        let dag = Dag::build(&f, None);
        let topo = dag.topo();
        assert_eq!(topo[0], BlockId(0));
        assert_eq!(*topo.last().unwrap(), dag.exit);
        let pos = |b: BlockId| topo.iter().position(|&x| x == b).unwrap();
        for e in dag.edges() {
            assert!(pos(e.from) < pos(e.to), "edge {e:?} violates topo order");
        }
    }

    #[test]
    fn branchiness_follows_cfg_sources() {
        let f = looped();
        let dag = Dag::build(&f, None);
        for e in dag.edges() {
            match e.kind {
                DagEdgeKind::Real(r) => {
                    let expect = f.block(r.from).term.successor_count() >= 2;
                    assert_eq!(e.is_branch, expect);
                }
                // The back edge 3->1 comes from single-successor b3.
                DagEdgeKind::ExitDummy { .. } => assert!(!e.is_branch),
                DagEdgeKind::EntryDummy { .. } => assert!(!e.is_branch),
            }
        }
    }

    #[test]
    fn frequencies_come_from_profile_and_node_freqs_balance() {
        let _f = looped();
        let mut m = Module::new();
        // Drive the loop with a real execution to get a consistent profile.
        let mut mb = FunctionBuilder::new("main", 0);
        let bound = mb.constant(8);
        let v = mb.rand(bound);
        mb.call_void(ppp_ir::FuncId(1), vec![v]);
        mb.ret(None);
        m.add_function(mb.finish());
        // Rebuild f as a counted loop so it terminates: use param as count.
        let mut fb = FunctionBuilder::new("f", 1);
        let i = fb.param(0);
        let b1 = fb.new_block();
        let b2 = fb.new_block();
        let b3 = fb.new_block();
        let b4 = fb.new_block();
        fb.jump(b1);
        fb.switch_to(b1);
        fb.branch(i, b2, b4);
        fb.switch_to(b2);
        fb.jump(b3);
        fb.switch_to(b3);
        let one = fb.constant(1);
        fb.binary_to(i, ppp_ir::BinOp::Sub, i, one);
        fb.jump(b1);
        fb.switch_to(b4);
        fb.ret(None);
        m.add_function(fb.finish());

        let r = run(&m, "main", &RunOptions::default().traced()).unwrap();
        let prof = r.edge_profile.unwrap();
        let fp = prof.func(ppp_ir::FuncId(1));
        let dag = Dag::build(m.function(ppp_ir::FuncId(1)), Some(fp));
        // Node freq of exit = returns + back-edge endings = entries + iters.
        let iters = fp.edge(EdgeRef::new(BlockId(3), 0));
        assert_eq!(dag.total_path_freq(), dag.entries() + iters);
        // Flow conservation at the loop header: in = dummy + real entry.
        assert_eq!(dag.node_freq(BlockId(1)), dag.entries() + iters);
    }

    #[test]
    fn static_weights_prefer_loops() {
        let f = looped();
        let dag = Dag::build(&f, None);
        // The loop-internal edge 2->3 gets weight 10 (depth 1), while the
        // loop-exit edge 1->4 gets 10/2 = 5 and entry edge 0->1 gets 1.
        let w = |from: u32, kind_real: bool| {
            dag.edges()
                .iter()
                .find(|e| {
                    e.from == BlockId(from) && matches!(e.kind, DagEdgeKind::Real(_)) == kind_real
                })
                .unwrap()
                .weight
        };
        assert_eq!(w(0, true), 1.0);
        assert_eq!(w(2, true), 10.0);
    }

    #[test]
    #[should_panic(expected = "single-exit")]
    fn multi_exit_rejected() {
        let mut b = FunctionBuilder::new("f", 1);
        let other = b.new_block();
        b.branch(Reg(0), other, other);
        b.switch_to(other);
        b.ret(None);
        let mut f = b.finish();
        // Force two returns.
        f.blocks[0].term = ppp_ir::Terminator::Return { value: None };
        let _ = Dag::build(&f, None);
    }
}
