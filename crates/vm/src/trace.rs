//! Exact execution tracing: edge profiles and ground-truth path profiles.
//!
//! The tracer observes every taken CFG edge and maintains, per activation,
//! the current Ball–Larus path (started at function entry or a loop
//! header, ended at a `return` or a taken back edge — §3.1). Paths are
//! interned in a per-function prefix trie so the per-edge cost is one
//! child step (two array loads, no hashing), and the full
//! [`ModulePathProfile`] is reconstructed on demand.
//!
//! This is the reproduction's *reference* profile: unlike PP
//! instrumentation it has no hash-table losses and no truncation, so
//! accuracy/coverage are measured against exact data (§6).

use crate::sink::{EdgeCounter, Sink};
use ppp_ir::{
    BlockId, Cfg, EdgeRef, FuncId, Function, Module, ModuleEdgeProfile, ModulePathProfile, PathKey,
};
use std::collections::HashMap;

/// Whether a taken edge is a back edge (ends the current path).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum EdgeKind {
    /// Forward edge: extends the current path.
    Forward,
    /// Back edge: terminates the current path and starts a new one at the
    /// edge's target (a loop header).
    Back,
}

/// Precomputed per-function edge classification for the tracer.
#[derive(Clone, Debug)]
pub struct EdgeClassifier {
    /// `kinds[block][succ]` mirrors the function's successor lists.
    kinds: Vec<Vec<EdgeKind>>,
}

impl EdgeClassifier {
    /// Classifies every edge of `f` as forward or back (retreating with
    /// respect to reverse postorder; on reducible CFGs these are exactly
    /// the natural-loop back edges).
    pub fn new(f: &Function) -> Self {
        let cfg = Cfg::new(f);
        let kinds = f
            .iter_blocks()
            .map(|(id, b)| {
                (0..b.term.successor_count())
                    .map(|s| {
                        let tgt = b.term.successor(s).expect("in-range successor");
                        if cfg.is_retreating(id, tgt) {
                            EdgeKind::Back
                        } else {
                            EdgeKind::Forward
                        }
                    })
                    .collect()
            })
            .collect();
        Self { kinds }
    }

    /// Kind of edge `(b, s)`.
    #[inline]
    pub fn kind(&self, e: EdgeRef) -> EdgeKind {
        self.kinds[e.from.index()][e.succ_index()]
    }
}

/// Marks an absent root or child in a [`PathTrie`].
const NONE: u32 = u32::MAX;

/// Path-interning trie for one function: a prefix forest with one root
/// per start block.
///
/// Each node is a distinct path prefix. Every edge out of a node leaves
/// the block its prefix ends at, so a node's children are keyed by
/// successor index alone: the first step from a node allocates one child
/// slot per successor of that block, and each later step is two array
/// loads.
#[derive(Clone, Debug)]
struct PathTrie {
    /// Root state per start block (`NONE` until first entered).
    roots: Vec<u32>,
    /// Per-state data, in creation order.
    nodes: Vec<TrieNode>,
    /// Child-slot arena: node `n`'s child along successor `s` is
    /// `kids[n.kids + s]` (`NONE` until first taken).
    kids: Vec<u32>,
}

#[derive(Clone, Copy, Debug)]
struct TrieNode {
    /// Parent state (`NONE` for roots).
    parent: u32,
    /// Incoming edge; for roots, `via.from` is the start block.
    via: EdgeRef,
    /// Offset of this node's child slots in [`PathTrie::kids`] (`NONE`
    /// until the first step out of the node).
    kids: u32,
    /// Paths *ending* at this state.
    count: u64,
}

impl PathTrie {
    fn new(f: &Function) -> Self {
        Self {
            roots: vec![NONE; f.blocks.len()],
            nodes: Vec::new(),
            kids: Vec::new(),
        }
    }

    fn push(&mut self, parent: u32, via: EdgeRef) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("path trie overflowed u32 states");
        self.nodes.push(TrieNode {
            parent,
            via,
            kids: NONE,
            count: 0,
        });
        id
    }

    #[inline]
    fn root(&mut self, start: BlockId) -> u32 {
        let s = self.roots[start.index()];
        if s != NONE {
            return s;
        }
        let id = self.push(NONE, EdgeRef::new(start, 0));
        self.roots[start.index()] = id;
        id
    }

    /// Extends `state` by `edge`, which must leave the block the state's
    /// prefix ends at; `succs` is that block's successor count.
    #[inline]
    fn step(&mut self, state: u32, edge: EdgeRef, succs: usize) -> u32 {
        debug_assert!(edge.succ_index() < succs, "successor out of range");
        let mut base = self.nodes[state as usize].kids;
        if base == NONE {
            base = u32::try_from(self.kids.len()).expect("path trie overflowed u32 slots");
            self.kids.resize(self.kids.len() + succs, NONE);
            self.nodes[state as usize].kids = base;
        }
        let slot = base as usize + edge.succ_index();
        let child = self.kids[slot];
        if child != NONE {
            return child;
        }
        let id = self.push(state, edge);
        self.kids[slot] = id;
        id
    }

    #[inline]
    fn end_path(&mut self, state: u32) {
        let c = &mut self.nodes[state as usize].count;
        *c = c.saturating_add(1);
    }

    fn key_of(&self, state: u32) -> PathKey {
        let mut edges = Vec::new();
        let mut cur = state;
        while self.nodes[cur as usize].parent != NONE {
            let n = &self.nodes[cur as usize];
            edges.push(n.via);
            cur = n.parent;
        }
        edges.reverse();
        PathKey {
            start: self.nodes[cur as usize].via.from,
            edges,
        }
    }

    fn reconstruct(&self, f: &Function, out: &mut ppp_ir::FuncPathProfile) {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.count == 0 {
                continue;
            }
            out.record(f, self.key_of(i as u32), node.count);
        }
    }
}

/// Live per-activation path state, owned by the interpreter's frames.
#[derive(Clone, Copy, Debug)]
pub struct PathCursor {
    state: u32,
}

/// One cut of a traced run's incremental profile stream: the edge and
/// path flow accumulated since the previous cut (or since the start of
/// the run, for the first delta).
///
/// Deltas exist so N concurrent VM workers can stream partial profiles
/// to an aggregation tier (`ppp-agg`) instead of holding a whole run's
/// profile until exit. Merging every delta of a run — in any order,
/// with saturating adds — reproduces exactly the profiles
/// [`Tracer::finish`] returns; the VM tests pin that invariant.
#[derive(Clone, Debug)]
pub struct ProfileDelta {
    /// Edge/block/entry flow since the previous cut.
    pub edges: ModuleEdgeProfile,
    /// Path completions since the previous cut.
    pub paths: ModulePathProfile,
}

/// Incremental delta accumulation (armed by [`Tracer::enable_deltas`]).
///
/// Path completions are staged as `(trie state, count)` — states are
/// only resolvable to [`PathKey`]s against the trie, so raw cuts are
/// held until [`Tracer::take_deltas`] sees the module.
#[derive(Clone, Debug)]
struct DeltaState {
    /// Trace events (entries + edges + completions) per cut.
    interval: u64,
    /// Events recorded since the last cut.
    tick: u64,
    /// Edge flow since the last cut.
    edges: EdgeCounter,
    /// Per-function completed-path counts since the last cut, keyed by
    /// trie state.
    paths: Vec<HashMap<u32, u64>>,
    /// Finished raw cuts, resolved at `finish`.
    cuts: Vec<(ModuleEdgeProfile, Vec<HashMap<u32, u64>>)>,
}

impl DeltaState {
    fn new(module: &Module, interval: u64) -> Self {
        Self {
            interval,
            tick: 0,
            edges: EdgeCounter::new(module),
            paths: vec![HashMap::new(); module.functions.len()],
            cuts: Vec::new(),
        }
    }

    /// `true` when anything accumulated since the last cut.
    fn dirty(&self) -> bool {
        self.tick > 0
    }

    fn cut(&mut self) {
        let edges = self.edges.take();
        let n = self.paths.len();
        let paths = std::mem::replace(&mut self.paths, vec![HashMap::new(); n]);
        self.cuts.push((edges, paths));
        self.tick = 0;
    }

    /// Counts one recorded event; cuts when the interval fills.
    #[inline]
    fn tick(&mut self) {
        self.tick += 1;
        if self.tick >= self.interval {
            self.cut();
        }
    }
}

/// Deterministic trace-event fault injection (testing only).
///
/// Real profile collectors lose events — ring buffers wrap, signals race,
/// agents detach — so the ingestion side must cope with profiles whose
/// flow no longer balances. These knobs drop events on a fixed cadence
/// (seed-phased, so runs are reproducible but the first casualty moves
/// with the seed), producing exactly the damage shapes the degradation
/// ladder has to absorb:
///
/// - dropped *edge* events leave a flow-inconsistent edge profile
///   (Kirchhoff violations at the affected blocks);
/// - dropped *path completions* leave an undercounted path profile.
#[derive(Clone, Copy, Debug)]
pub struct TraceFaults {
    /// Drop every Nth edge-profile update (0 = never drop).
    pub drop_edge_every: u64,
    /// Drop every Nth path completion (0 = never drop).
    pub drop_path_every: u64,
    /// Phase seed: offsets which event in the cadence is the first lost.
    pub seed: u64,
}

/// Collects edge and path profiles during a run.
#[derive(Clone, Debug)]
pub struct Tracer {
    edges: EdgeCounter,
    classifiers: Vec<EdgeClassifier>,
    tries: Vec<PathTrie>,
    /// When enabled, the ordered stream of completed paths as
    /// `(function, trie state)` pairs — resolvable to [`PathKey`]s at the
    /// end. Online predictors (e.g. Dynamo's NET) consume this.
    sequence: Option<Vec<(FuncId, u32)>>,
    /// Active fault-injection plan, if any.
    faults: Option<TraceFaults>,
    /// Incremental delta accumulation, if armed.
    delta: Option<DeltaState>,
    /// Edge events observed since the last edge drop.
    edge_tick: u64,
    /// Path completions observed since the last path drop.
    path_tick: u64,
    /// Edge-profile updates deliberately dropped.
    dropped_edges: u64,
    /// Path completions deliberately dropped.
    dropped_paths: u64,
}

impl Tracer {
    /// Creates a tracer shaped for `module`.
    pub fn new(module: &Module) -> Self {
        Self {
            edges: EdgeCounter::new(module),
            classifiers: module.functions.iter().map(EdgeClassifier::new).collect(),
            tries: module.functions.iter().map(PathTrie::new).collect(),
            sequence: None,
            faults: None,
            delta: None,
            edge_tick: 0,
            path_tick: 0,
            dropped_edges: 0,
            dropped_paths: 0,
        }
    }

    /// Enables recording of the ordered path-completion stream
    /// (memory: one entry per dynamic path).
    pub fn record_sequence(&mut self) {
        self.sequence = Some(Vec::new());
    }

    /// Arms incremental delta export: every `interval` recorded trace
    /// events (entries, edges, path completions) the accumulated flow is
    /// cut into a [`ProfileDelta`], retrievable with
    /// [`Tracer::take_deltas`]. Fault-dropped events never reach a delta,
    /// so merged deltas always equal the cumulative profiles — damaged
    /// or not.
    pub fn enable_deltas(&mut self, module: &Module, interval: u64) {
        if interval > 0 {
            self.delta = Some(DeltaState::new(module, interval));
        }
    }

    /// Arms deterministic trace-event dropping (see [`TraceFaults`]).
    pub fn inject_faults(&mut self, faults: TraceFaults) {
        // Phase the cadences by the seed so different seeds lose
        // different events while the same seed reproduces exactly.
        if faults.drop_edge_every > 0 {
            self.edge_tick = faults.seed % faults.drop_edge_every;
        }
        if faults.drop_path_every > 0 {
            self.path_tick = (faults.seed >> 17) % faults.drop_path_every;
        }
        self.faults = Some(faults);
    }

    /// `(dropped edge events, dropped path completions)` so far.
    pub fn dropped_events(&self) -> (u64, u64) {
        (self.dropped_edges, self.dropped_paths)
    }

    /// Decides whether the next edge-profile update is dropped.
    #[inline]
    fn drop_edge_event(&mut self) -> bool {
        let Some(f) = self.faults else { return false };
        if f.drop_edge_every == 0 {
            return false;
        }
        self.edge_tick += 1;
        if self.edge_tick >= f.drop_edge_every {
            self.edge_tick = 0;
            self.dropped_edges += 1;
            true
        } else {
            false
        }
    }

    /// Decides whether the next path completion is dropped.
    #[inline]
    fn drop_path_event(&mut self) -> bool {
        let Some(f) = self.faults else { return false };
        if f.drop_path_every == 0 {
            return false;
        }
        self.path_tick += 1;
        if self.path_tick >= f.drop_path_every {
            self.path_tick = 0;
            self.dropped_paths += 1;
            true
        } else {
            false
        }
    }

    // The per-event methods are `#[inline]`: a caller that passes its
    // tracer to `run_with` instantiates the interpreter loop in its own
    // crate, and must still inline them there.

    /// Called when `func` is entered; returns the cursor for its first path.
    #[inline]
    pub fn enter_function(&mut self, func: FuncId, entry: BlockId) -> PathCursor {
        self.edges.enter(func, entry);
        if let Some(d) = &mut self.delta {
            d.edges.enter(func, entry);
            d.tick();
        }
        PathCursor {
            state: self.tries[func.index()].root(entry),
        }
    }

    /// Called when edge `e` of `func` is taken; `target` is the block the
    /// edge leads to. Updates the edge profile and advances (or ends and
    /// restarts) the current path. `e` must leave the block `cursor`'s
    /// path currently ends at.
    #[inline]
    pub fn take_edge(
        &mut self,
        func: FuncId,
        cursor: &mut PathCursor,
        e: EdgeRef,
        target: BlockId,
    ) {
        // A dropped edge event loses the *counts* only; the path cursor
        // still advances so the trie never sees a malformed edge chain.
        if !self.drop_edge_event() {
            self.edges.edge(func, &mut (), e, target);
            if let Some(d) = &mut self.delta {
                d.edges.edge(func, &mut (), e, target);
                d.tick();
            }
        }
        let fi = func.index();
        let kinds = &self.classifiers[fi].kinds[e.from.index()];
        let (kind, succs) = (kinds[e.succ_index()], kinds.len());
        let trie = &mut self.tries[fi];
        match kind {
            EdgeKind::Forward => {
                cursor.state = trie.step(cursor.state, e, succs);
            }
            EdgeKind::Back => {
                // The back edge belongs to the ending path (it is its
                // terminating branch), then a fresh path starts at the
                // header.
                let end_state = trie.step(cursor.state, e, succs);
                if !self.drop_path_event() {
                    self.tries[fi].end_path(end_state);
                    if let Some(seq) = &mut self.sequence {
                        seq.push((func, end_state));
                    }
                    self.delta_path(func, end_state);
                }
                cursor.state = self.tries[fi].root(target);
            }
        }
    }

    /// Called when the current activation of `func` returns.
    #[inline]
    pub fn exit_function(&mut self, func: FuncId, cursor: PathCursor) {
        if self.drop_path_event() {
            return;
        }
        self.tries[func.index()].end_path(cursor.state);
        if let Some(seq) = &mut self.sequence {
            seq.push((func, cursor.state));
        }
        self.delta_path(func, cursor.state);
    }

    /// Stages one path completion into the current delta cut.
    #[inline]
    fn delta_path(&mut self, func: FuncId, state: u32) {
        if let Some(d) = &mut self.delta {
            let c = d.paths[func.index()].entry(state).or_insert(0);
            *c = c.saturating_add(1);
            d.tick();
        }
    }

    /// Takes the ordered path completions recorded so far (empty unless
    /// [`Tracer::record_sequence`] was called).
    pub fn take_sequence(&mut self) -> Vec<(FuncId, PathKey)> {
        let Some(seq) = &mut self.sequence else {
            return Vec::new();
        };
        let mut key = resolver(&self.tries);
        std::mem::take(seq)
            .into_iter()
            .map(|(func, state)| (func, key(func.index(), state)))
            .collect()
    }

    /// Takes the deltas cut so far, the partial one included (empty
    /// unless [`Tracer::enable_deltas`] was called). Merging every delta
    /// a tracer gives up reproduces its cumulative profiles exactly.
    pub fn take_deltas(&mut self, module: &Module) -> Vec<ProfileDelta> {
        let Some(d) = &mut self.delta else {
            return Vec::new();
        };
        if d.dirty() {
            d.cut();
        }
        let mut key = resolver(&self.tries);
        std::mem::take(&mut d.cuts)
            .into_iter()
            .map(|(edges, raw_paths)| {
                let mut paths = ModulePathProfile::with_capacity(module.functions.len());
                for (fi, states) in raw_paths.into_iter().enumerate() {
                    let f = module.function(FuncId::new(fi));
                    for (state, count) in states {
                        paths.funcs[fi].record(f, key(fi, state), count);
                    }
                }
                ProfileDelta { edges, paths }
            })
            .collect()
    }

    /// Finishes tracing, producing the edge profile and the exact path
    /// profile.
    pub fn finish(self, module: &Module) -> (ModuleEdgeProfile, ModulePathProfile) {
        let mut paths = ModulePathProfile::with_capacity(module.functions.len());
        for (i, trie) in self.tries.iter().enumerate() {
            let func = FuncId::new(i);
            trie.reconstruct(module.function(func), paths.func_mut(func));
        }
        (self.edges.finish(), paths)
    }
}

/// Resolves `(function index, trie state)` pairs to path keys, walking
/// each state's trie branch once.
fn resolver(tries: &[PathTrie]) -> impl FnMut(usize, u32) -> PathKey + '_ {
    let mut cache: Vec<HashMap<u32, PathKey>> = vec![HashMap::new(); tries.len()];
    move |fi, state| {
        cache[fi]
            .entry(state)
            .or_insert_with(|| tries[fi].key_of(state))
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::FunctionBuilder;
    use ppp_ir::Reg;

    /// 0 -> 1(hdr); 1 -> 2 | 3; 2 -> 1 (back); 3: ret
    fn looped() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("f", 1);
        let b1 = b.new_block();
        let b2 = b.new_block();
        let b3 = b.new_block();
        b.jump(b1);
        b.switch_to(b1);
        b.branch(Reg(0), b2, b3);
        b.switch_to(b2);
        b.jump(b1);
        b.switch_to(b3);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn classifier_marks_back_edges() {
        let m = looped();
        let c = EdgeClassifier::new(m.function(FuncId(0)));
        assert_eq!(c.kind(EdgeRef::new(BlockId(0), 0)), EdgeKind::Forward);
        assert_eq!(c.kind(EdgeRef::new(BlockId(2), 0)), EdgeKind::Back);
    }

    #[test]
    fn tracer_records_loop_iteration_paths() {
        let m = looped();
        let f = FuncId(0);
        let mut t = Tracer::new(&m);
        // Simulate: enter, 0->1, 1->2, 2->1 (back), 1->3, return.
        let mut cur = t.enter_function(f, BlockId(0));
        t.take_edge(f, &mut cur, EdgeRef::new(BlockId(0), 0), BlockId(1));
        t.take_edge(f, &mut cur, EdgeRef::new(BlockId(1), 0), BlockId(2));
        t.take_edge(f, &mut cur, EdgeRef::new(BlockId(2), 0), BlockId(1));
        t.take_edge(f, &mut cur, EdgeRef::new(BlockId(1), 1), BlockId(3));
        t.exit_function(f, cur);
        let (edges, paths) = t.finish(&m);

        assert_eq!(edges.func(f).entries(), 1);
        assert_eq!(edges.func(f).edge(EdgeRef::new(BlockId(2), 0)), 1);
        assert_eq!(edges.func(f).block(BlockId(1)), 2);

        let fp = paths.func(f);
        assert_eq!(fp.distinct_paths(), 2);
        // Path A: entry -> 1 -> 2 -> (back to 1), one branch (1->2) plus no
        // branch on jump edges; the back edge 2->1 has a single-successor
        // source so it is not a branch.
        let a = PathKey {
            start: BlockId(0),
            edges: vec![
                EdgeRef::new(BlockId(0), 0),
                EdgeRef::new(BlockId(1), 0),
                EdgeRef::new(BlockId(2), 0),
            ],
        };
        // Path B: 1 -> 3 return, one branch.
        let b = PathKey {
            start: BlockId(1),
            edges: vec![EdgeRef::new(BlockId(1), 1)],
        };
        assert_eq!(fp.paths[&a].freq, 1);
        assert_eq!(fp.paths[&a].branches, 1);
        assert_eq!(fp.paths[&b].freq, 1);
        assert_eq!(fp.paths[&b].branches, 1);
    }

    fn run_looped_iters(t: &mut Tracer, iters: usize) {
        let f = FuncId(0);
        let mut cur = t.enter_function(f, BlockId(0));
        t.take_edge(f, &mut cur, EdgeRef::new(BlockId(0), 0), BlockId(1));
        for _ in 0..iters {
            t.take_edge(f, &mut cur, EdgeRef::new(BlockId(1), 0), BlockId(2));
            t.take_edge(f, &mut cur, EdgeRef::new(BlockId(2), 0), BlockId(1));
        }
        t.take_edge(f, &mut cur, EdgeRef::new(BlockId(1), 1), BlockId(3));
        t.exit_function(f, cur);
    }

    #[test]
    fn dropped_edge_events_break_flow_but_not_paths() {
        let m = looped();
        let mut t = Tracer::new(&m);
        t.inject_faults(TraceFaults {
            drop_edge_every: 3,
            drop_path_every: 0,
            seed: 7,
        });
        run_looped_iters(&mut t, 10);
        let (de, dp) = t.dropped_events();
        assert!(de > 0);
        assert_eq!(dp, 0);
        let (edges, paths) = t.finish(&m);
        // The edge profile lost flow at some blocks...
        assert!(!edges.is_flow_conservative(&m));
        // ...but the path profile is intact: 10 loop paths + 1 exit path.
        assert_eq!(paths.func(FuncId(0)).total_unit_flow(), 11);
    }

    #[test]
    fn dropped_path_events_undercount_paths_deterministically() {
        let m = looped();
        let collect = |seed| {
            let mut t = Tracer::new(&m);
            t.inject_faults(TraceFaults {
                drop_edge_every: 0,
                drop_path_every: 4,
                seed,
            });
            run_looped_iters(&mut t, 10);
            let dropped = t.dropped_events().1;
            let (_, paths) = t.finish(&m);
            (dropped, paths.func(FuncId(0)).total_unit_flow())
        };
        let (d1, flow1) = collect(42);
        let (d2, flow2) = collect(42);
        assert!(d1 > 0);
        assert_eq!(flow1 + d1, 11, "dropped paths are exactly the missing flow");
        assert_eq!((d1, flow1), (d2, flow2), "same seed, same losses");
    }

    #[test]
    fn deltas_merge_back_to_cumulative_profiles() {
        let m = looped();
        // Tiny interval forces many cuts; the merged stream must equal a
        // delta-free trace exactly.
        for interval in [1u64, 3, 1000] {
            let mut t = Tracer::new(&m);
            t.enable_deltas(&m, interval);
            run_looped_iters(&mut t, 10);
            run_looped_iters(&mut t, 2);
            let deltas = t.take_deltas(&m);
            let (edges, paths) = t.finish(&m);
            if interval == 1 {
                assert!(deltas.len() > 10, "interval 1 cuts per event");
            }
            let mut medges = ppp_ir::ModuleEdgeProfile::zeroed(&m);
            let mut mpaths = ppp_ir::ModulePathProfile::with_capacity(m.functions.len());
            for d in &deltas {
                medges.merge(&d.edges);
                mpaths.merge(&d.paths);
            }
            assert_eq!(medges, edges, "interval {interval}: edges");
            assert_eq!(mpaths, paths, "interval {interval}: paths");
            assert!(edges.is_flow_conservative(&m));
        }
    }

    #[test]
    fn deltas_mirror_fault_dropped_events() {
        let m = looped();
        let mut t = Tracer::new(&m);
        t.enable_deltas(&m, 2);
        t.inject_faults(TraceFaults {
            drop_edge_every: 3,
            drop_path_every: 4,
            seed: 7,
        });
        run_looped_iters(&mut t, 10);
        let (de, dp) = t.dropped_events();
        assert!(de > 0 && dp > 0);
        let deltas = t.take_deltas(&m);
        let (edges, paths) = t.finish(&m);
        let mut medges = ppp_ir::ModuleEdgeProfile::zeroed(&m);
        let mut mpaths = ppp_ir::ModulePathProfile::with_capacity(m.functions.len());
        for d in &deltas {
            medges.merge(&d.edges);
            mpaths.merge(&d.paths);
        }
        // Dropped events are missing from *both* sides equally.
        assert_eq!(medges, edges);
        assert_eq!(mpaths, paths);
    }

    #[test]
    fn sequence_lists_completions_in_run_order() {
        let m = looped();
        let mut t = Tracer::new(&m);
        t.record_sequence();
        run_looped_iters(&mut t, 2);
        let f = FuncId(0);
        let first = PathKey {
            start: BlockId(0),
            edges: vec![
                EdgeRef::new(BlockId(0), 0),
                EdgeRef::new(BlockId(1), 0),
                EdgeRef::new(BlockId(2), 0),
            ],
        };
        let again = PathKey {
            start: BlockId(1),
            edges: vec![EdgeRef::new(BlockId(1), 0), EdgeRef::new(BlockId(2), 0)],
        };
        let exit = PathKey {
            start: BlockId(1),
            edges: vec![EdgeRef::new(BlockId(1), 1)],
        };
        assert_eq!(t.take_sequence(), vec![(f, first), (f, again), (f, exit)]);
        assert!(t.take_sequence().is_empty(), "taken once");
    }

    #[test]
    fn repeated_paths_accumulate() {
        let m = looped();
        let f = FuncId(0);
        let mut t = Tracer::new(&m);
        for _ in 0..3 {
            let mut cur = t.enter_function(f, BlockId(0));
            t.take_edge(f, &mut cur, EdgeRef::new(BlockId(0), 0), BlockId(1));
            t.take_edge(f, &mut cur, EdgeRef::new(BlockId(1), 1), BlockId(3));
            t.exit_function(f, cur);
        }
        let (_, paths) = t.finish(&m);
        let fp = paths.func(f);
        assert_eq!(fp.distinct_paths(), 1);
        assert_eq!(fp.total_unit_flow(), 3);
    }
}
