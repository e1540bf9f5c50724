//! Edge profiles: execution frequencies for CFG edges and blocks.
//!
//! Edge profiles are the cheap profile the paper assumes a dynamic
//! optimizer already has (overheads of 0.5–3% via sampling or hardware,
//! §2). Here they are produced exactly by the VM tracer and consumed by
//! the inliner, the unroller, and the TPP/PPP instrumenters.

use crate::function::Function;
use crate::ids::{BlockId, EdgeRef, FuncId};
use std::fmt;

/// Which side of Kirchhoff's law a [`FlowViolation`] breaks.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FlowViolationKind {
    /// Incoming edge flow (plus entries, for the entry block) does not
    /// equal the block's frequency.
    In,
    /// Outgoing edge flow does not equal the block's frequency
    /// (non-return blocks only; return blocks exit instead).
    Out,
    /// The total frequency of return blocks does not equal the entry
    /// count (flow must leave the function exactly once per activation).
    Exit,
}

impl fmt::Display for FlowViolationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FlowViolationKind::In => "in-flow",
            FlowViolationKind::Out => "out-flow",
            FlowViolationKind::Exit => "exit-flow",
        })
    }
}

/// One violation of per-block flow conservation (Kirchhoff's law).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowViolation {
    /// The block at fault ([`None`] for the function-wide exit check).
    pub block: Option<BlockId>,
    /// Which conservation equation failed.
    pub kind: FlowViolationKind,
    /// The value the equation requires.
    pub expected: u64,
    /// The value the profile records.
    pub actual: u64,
}

/// Edge and block frequencies for one function.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FuncEdgeProfile {
    /// `edge_freq[b][s]` = executions of edge `(b, s)`.
    edge_freq: Vec<Vec<u64>>,
    /// `block_freq[b]` = executions of block `b`.
    block_freq: Vec<u64>,
    /// Number of times the function was entered.
    entries: u64,
}

impl FuncEdgeProfile {
    /// Creates an all-zero profile shaped like `f`.
    pub fn zeroed(f: &Function) -> Self {
        Self {
            edge_freq: f
                .blocks
                .iter()
                .map(|b| vec![0; b.term.successor_count()])
                .collect(),
            block_freq: vec![0; f.blocks.len()],
            entries: 0,
        }
    }

    /// Frequency of `edge`.
    ///
    /// # Panics
    ///
    /// Panics if the edge is out of range for the profiled function.
    #[inline]
    pub fn edge(&self, edge: EdgeRef) -> u64 {
        self.edge_freq[edge.from.index()][edge.succ_index()]
    }

    /// Frequency of block `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b` is out of range for the profiled function.
    #[inline]
    pub fn block(&self, b: BlockId) -> u64 {
        self.block_freq[b.index()]
    }

    /// Number of invocations of the function.
    #[inline]
    pub fn entries(&self) -> u64 {
        self.entries
    }

    /// Records one execution of `edge` (used by the tracer). Saturates at
    /// [`u64::MAX`] instead of overflowing; see
    /// [`FuncEdgeProfile::saturated`].
    #[inline]
    pub fn bump_edge(&mut self, edge: EdgeRef) {
        let c = &mut self.edge_freq[edge.from.index()][edge.succ_index()];
        *c = c.saturating_add(1);
    }

    /// Records one execution of block `b` (used by the tracer). Saturating.
    #[inline]
    pub fn bump_block(&mut self, b: BlockId) {
        let c = &mut self.block_freq[b.index()];
        *c = c.saturating_add(1);
    }

    /// Records one function entry (used by the tracer). Saturating.
    #[inline]
    pub fn bump_entry(&mut self) {
        self.entries = self.entries.saturating_add(1);
    }

    /// Sets the frequency of `edge` (used when synthesizing profiles).
    pub fn set_edge(&mut self, edge: EdgeRef, freq: u64) {
        self.edge_freq[edge.from.index()][edge.succ_index()] = freq;
    }

    /// Sets the frequency of block `b` (used when synthesizing profiles).
    pub fn set_block(&mut self, b: BlockId, freq: u64) {
        self.block_freq[b.index()] = freq;
    }

    /// Sets the entry count (used when synthesizing profiles).
    pub fn set_entries(&mut self, entries: u64) {
        self.entries = entries;
    }

    /// Adds `freq` executions of `edge`, saturating at [`u64::MAX`] (used
    /// when merging sparse delta records).
    pub fn add_edge(&mut self, edge: EdgeRef, freq: u64) {
        let c = &mut self.edge_freq[edge.from.index()][edge.succ_index()];
        *c = c.saturating_add(freq);
    }

    /// Adds `freq` executions of block `b`. Saturating.
    pub fn add_block(&mut self, b: BlockId, freq: u64) {
        let c = &mut self.block_freq[b.index()];
        *c = c.saturating_add(freq);
    }

    /// Adds `entries` function entries. Saturating.
    pub fn add_entries(&mut self, entries: u64) {
        self.entries = self.entries.saturating_add(entries);
    }

    /// Sum of all edge frequencies (saturating: two pinned counters must
    /// total [`u64::MAX`], not wrap back to small).
    pub fn total_edge_flow(&self) -> u64 {
        self.edge_freq
            .iter()
            .flatten()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Sum of frequencies of *branch* edges: edges whose source block has
    /// at least two successors (the paper's definition of a branch, §5.1).
    /// Saturating.
    pub fn total_branch_flow(&self) -> u64 {
        self.edge_freq
            .iter()
            .filter(|edges| edges.len() >= 2)
            .flatten()
            .fold(0u64, |acc, &c| acc.saturating_add(c))
    }

    /// Merges another profile of the same shape into this one
    /// (used to combine multi-run inputs, §7.2). Counter sums saturate at
    /// [`u64::MAX`] instead of overflowing.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &FuncEdgeProfile) {
        assert_eq!(
            self.edge_freq.len(),
            other.edge_freq.len(),
            "profiles must have the same shape"
        );
        for (a, b) in self.edge_freq.iter_mut().zip(&other.edge_freq) {
            assert_eq!(a.len(), b.len(), "profiles must have the same shape");
            for (x, y) in a.iter_mut().zip(b) {
                *x = x.saturating_add(*y);
            }
        }
        for (x, y) in self.block_freq.iter_mut().zip(&other.block_freq) {
            *x = x.saturating_add(*y);
        }
        self.entries = self.entries.saturating_add(other.entries);
    }

    /// `true` when any counter has pinned at [`u64::MAX`]: the profile
    /// overflowed and degraded to saturation, so relative frequencies are
    /// no longer trustworthy. Ingestion reports (and usually quarantines)
    /// saturated functions instead of consuming them silently.
    pub fn saturated(&self) -> bool {
        self.entries == u64::MAX
            || self.block_freq.contains(&u64::MAX)
            || self.edge_freq.iter().flatten().any(|&c| c == u64::MAX)
    }

    /// Resets every counter to zero (used to quarantine a function whose
    /// profile cannot be trusted: the all-zero profile is trivially flow
    /// conservative, so downstream consumers treat the routine as
    /// never-executed rather than mis-guided).
    pub fn zero(&mut self) {
        for row in &mut self.edge_freq {
            row.iter_mut().for_each(|c| *c = 0);
        }
        self.block_freq.iter_mut().for_each(|c| *c = 0);
        self.entries = 0;
    }

    /// `true` when every counter is zero.
    pub fn is_zero(&self) -> bool {
        self.entries == 0
            && self.block_freq.iter().all(|&c| c == 0)
            && self.edge_freq.iter().flatten().all(|&c| c == 0)
    }

    /// `true` when the profile's shape matches `f`: one block-frequency
    /// slot per block and one edge-frequency slot per successor.
    pub fn shape_matches(&self, f: &Function) -> bool {
        self.block_freq.len() == f.blocks.len()
            && self.edge_freq.len() == f.blocks.len()
            && self
                .edge_freq
                .iter()
                .zip(&f.blocks)
                .all(|(row, b)| row.len() == b.term.successor_count())
    }

    /// Checks per-block flow conservation (Kirchhoff's law) against `f`:
    /// for every block, incoming edge flow (plus the entry count, for the
    /// entry block) must equal the block frequency; for every non-return
    /// block, outgoing edge flow must equal the block frequency; and the
    /// total frequency of return blocks must equal the entry count. Exact
    /// tracing of any run that terminates normally satisfies all three.
    ///
    /// Returns every violation, in block order.
    ///
    /// # Panics
    ///
    /// Panics if the profile's shape does not match `f` (check
    /// [`FuncEdgeProfile::shape_matches`] first).
    pub fn flow_violations(&self, f: &Function) -> Vec<FlowViolation> {
        assert!(
            self.shape_matches(f),
            "profile shape does not match function {}",
            f.name
        );
        let n = f.blocks.len();
        let mut inflow = vec![0u64; n];
        inflow[f.entry.index()] = self.entries;
        for (bi, row) in self.edge_freq.iter().enumerate() {
            for (s, &freq) in row.iter().enumerate() {
                let tgt = f.blocks[bi]
                    .term
                    .successor(s)
                    .expect("shape-matched successor");
                // Saturating: a profile whose counters pinned at MAX is
                // being *checked* here, not trusted — the check must
                // report violations, not overflow.
                inflow[tgt.index()] = inflow[tgt.index()].saturating_add(freq);
            }
        }
        let mut violations = Vec::new();
        let mut exit_flow = 0u64;
        for (bi, block) in f.blocks.iter().enumerate() {
            let freq = self.block_freq[bi];
            if inflow[bi] != freq {
                violations.push(FlowViolation {
                    block: Some(BlockId::new(bi)),
                    kind: FlowViolationKind::In,
                    expected: freq,
                    actual: inflow[bi],
                });
            }
            if block.term.is_return() {
                exit_flow = exit_flow.saturating_add(freq);
            } else {
                let out: u64 = self.edge_freq[bi]
                    .iter()
                    .fold(0u64, |acc, &c| acc.saturating_add(c));
                if out != freq {
                    violations.push(FlowViolation {
                        block: Some(BlockId::new(bi)),
                        kind: FlowViolationKind::Out,
                        expected: freq,
                        actual: out,
                    });
                }
            }
        }
        if exit_flow != self.entries {
            violations.push(FlowViolation {
                block: None,
                kind: FlowViolationKind::Exit,
                expected: self.entries,
                actual: exit_flow,
            });
        }
        violations
    }

    /// `true` when the profile both matches `f`'s shape and satisfies
    /// flow conservation everywhere.
    pub fn is_flow_conservative(&self, f: &Function) -> bool {
        self.shape_matches(f) && self.flow_violations(f).is_empty()
    }

    /// Average trip count of a loop, estimated from the profile as
    /// `(back-edge flow + entry flow) / entry flow` — i.e. body executions
    /// per loop entry. Returns `None` when the loop never runs.
    pub fn loop_trip_count(&self, back_edges: &[EdgeRef], entry_edges: &[EdgeRef]) -> Option<f64> {
        let back: u64 = back_edges.iter().map(|&e| self.edge(e)).sum();
        let entry: u64 = entry_edges.iter().map(|&e| self.edge(e)).sum();
        if entry == 0 {
            None
        } else {
            Some((back + entry) as f64 / entry as f64)
        }
    }
}

/// Edge profiles for every function in a module.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ModuleEdgeProfile {
    /// Per-function profiles, indexed by [`FuncId`].
    pub funcs: Vec<FuncEdgeProfile>,
}

impl ModuleEdgeProfile {
    /// Creates an all-zero profile shaped like `module`.
    pub fn zeroed(module: &crate::Module) -> Self {
        Self {
            funcs: module
                .functions
                .iter()
                .map(FuncEdgeProfile::zeroed)
                .collect(),
        }
    }

    /// Profile for function `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func(&self, f: FuncId) -> &FuncEdgeProfile {
        &self.funcs[f.index()]
    }

    /// Profile for function `f`, mutably.
    ///
    /// # Panics
    ///
    /// Panics if `f` is out of range.
    #[inline]
    pub fn func_mut(&mut self, f: FuncId) -> &mut FuncEdgeProfile {
        &mut self.funcs[f.index()]
    }

    /// Program-wide branch flow (the denominator of branch-flow ratios;
    /// saturating).
    pub fn total_branch_flow(&self) -> u64 {
        self.funcs
            .iter()
            .fold(0u64, |acc, p| acc.saturating_add(p.total_branch_flow()))
    }

    /// `true` when any function's counters have pinned at [`u64::MAX`].
    pub fn saturated(&self) -> bool {
        self.funcs.iter().any(FuncEdgeProfile::saturated)
    }

    /// Derives an edge profile from a path profile, reversing the exact
    /// tracer's bookkeeping: every taken edge on a path bumps that edge
    /// and its target block, return-ending paths contribute function
    /// entries, and the entry block is bumped once per entry. For a
    /// complete path profile of a terminating run, the result is exactly
    /// the edge profile the tracer would have recorded (in particular it
    /// is flow conservative).
    ///
    /// Paths that do not fit `module` — dangling block/successor
    /// references or edges that fail to chain — are skipped rather than
    /// trusted; the second return value counts the *dynamic* flow dropped
    /// that way. This is the degradation-ladder rung that rebuilds
    /// instrumentation guidance from whatever paths survived a corrupted
    /// or truncated artifact.
    pub fn from_paths(module: &crate::Module, paths: &crate::ModulePathProfile) -> (Self, u64) {
        let mut out = Self::zeroed(module);
        let mut dropped = 0u64;
        for (fid, key, stats) in paths.iter() {
            if fid.index() >= module.functions.len() {
                dropped = dropped.saturating_add(stats.freq);
                continue;
            }
            let f = module.function(fid);
            let p = &mut out.funcs[fid.index()];
            if !apply_path(f, p, key, stats.freq) {
                dropped = dropped.saturating_add(stats.freq);
            }
        }
        (out, dropped)
    }

    /// `true` when the profile has one entry per function and each
    /// matches that function's shape.
    pub fn shape_matches(&self, module: &crate::Module) -> bool {
        self.funcs.len() == module.functions.len()
            && self
                .funcs
                .iter()
                .zip(&module.functions)
                .all(|(p, f)| p.shape_matches(f))
    }

    /// `true` when the profile matches `module`'s shape and every
    /// function's counts satisfy flow conservation
    /// (see [`FuncEdgeProfile::flow_violations`]).
    pub fn is_flow_conservative(&self, module: &crate::Module) -> bool {
        self.shape_matches(module)
            && self
                .funcs
                .iter()
                .zip(&module.functions)
                .all(|(p, f)| p.flow_violations(f).is_empty())
    }

    /// Merges another module profile of the same shape.
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ.
    pub fn merge(&mut self, other: &ModuleEdgeProfile) {
        assert_eq!(self.funcs.len(), other.funcs.len());
        for (a, b) in self.funcs.iter_mut().zip(&other.funcs) {
            a.merge(b);
        }
    }

    /// Summarizes the profile for telemetry (see [`ProfileStats`]).
    pub fn stats(&self) -> ProfileStats {
        ProfileStats {
            functions: self.funcs.len() as u64,
            entries: self
                .funcs
                .iter()
                .fold(0u64, |acc, p| acc.saturating_add(p.entries())),
            total_edge_flow: self
                .funcs
                .iter()
                .fold(0u64, |acc, p| acc.saturating_add(p.total_edge_flow())),
            total_branch_flow: self
                .funcs
                .iter()
                .fold(0u64, |acc, p| acc.saturating_add(p.total_branch_flow())),
            saturated_functions: self.funcs.iter().filter(|p| p.saturated()).count() as u64,
            zero_functions: self.funcs.iter().filter(|p| p.is_zero()).count() as u64,
        }
    }
}

/// Aggregate metadata about an edge profile, cheap to compute and stable
/// to report: the observability layer records these as gauges per
/// pipeline stage, and `repro trace` prints them in its breakdown tree.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ProfileStats {
    /// Functions covered by the profile.
    pub functions: u64,
    /// Total function entries observed.
    pub entries: u64,
    /// Total edge flow (sum over all edges; saturating).
    pub total_edge_flow: u64,
    /// Total branch flow (the accuracy denominator; saturating).
    pub total_branch_flow: u64,
    /// Functions with at least one counter pinned at [`u64::MAX`].
    pub saturated_functions: u64,
    /// Functions with no recorded flow at all (cold or unreached).
    pub zero_functions: u64,
}

/// Replays one path onto `p`, validating every reference against `f`.
/// Returns `false` (leaving `p` untouched) when the path does not fit.
fn apply_path(f: &Function, p: &mut FuncEdgeProfile, key: &crate::PathKey, freq: u64) -> bool {
    if key.start.index() >= f.blocks.len() {
        return false;
    }
    // Validation pass first so a half-applied malformed path cannot skew
    // the counts it already touched.
    let mut cur = key.start;
    for e in &key.edges {
        if e.from != cur || e.from.index() >= f.blocks.len() {
            return false;
        }
        match f.block(e.from).term.successor(e.succ_index()) {
            Some(tgt) => cur = tgt,
            None => return false,
        }
    }
    let final_block = cur;
    for e in &key.edges {
        let tgt = f.edge_target(*e);
        let c = &mut p.edge_freq[e.from.index()][e.succ_index()];
        *c = c.saturating_add(freq);
        let b = &mut p.block_freq[tgt.index()];
        *b = b.saturating_add(freq);
    }
    // Back edges never target a return block (a return block cannot lie on
    // a cycle), so a path whose final block returns is a return-ending
    // path: it accounts for one function activation, whose entry the
    // tracer bumps on function entry.
    if f.block(final_block).term.is_return() {
        p.entries = p.entries.saturating_add(freq);
        let b = &mut p.block_freq[f.entry.index()];
        *b = b.saturating_add(freq);
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::function::FunctionBuilder;
    use crate::ids::Reg;

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

    #[test]
    fn stats_summarize_entries_flow_and_cold_functions() {
        let mut m = crate::Module::new();
        let fa = m.add_function(branchy());
        let fb = m.add_function(branchy());
        let mut mp = ModuleEdgeProfile::zeroed(&m);
        mp.func_mut(fa).bump_entry();
        mp.func_mut(fa).bump_edge(EdgeRef::new(BlockId(0), 0));
        mp.func_mut(fa).bump_edge(EdgeRef::new(BlockId(0), 0));
        mp.func_mut(fb)
            .set_edge(EdgeRef::new(BlockId(0), 1), u64::MAX);
        let s = mp.stats();
        assert_eq!(s.functions, 2);
        assert_eq!(s.entries, 1);
        assert_eq!(s.total_edge_flow, u64::MAX); // saturating sum
        assert_eq!(s.saturated_functions, 1);
        assert_eq!(s.zero_functions, 0);
        assert_eq!(ModuleEdgeProfile::zeroed(&m).stats().zero_functions, 2);
    }

    #[test]
    fn bump_and_read() {
        let f = branchy();
        let mut p = FuncEdgeProfile::zeroed(&f);
        let e0 = EdgeRef::new(BlockId(0), 0);
        p.bump_entry();
        p.bump_block(BlockId(0));
        p.bump_edge(e0);
        p.bump_edge(e0);
        assert_eq!(p.edge(e0), 2);
        assert_eq!(p.block(BlockId(0)), 1);
        assert_eq!(p.entries(), 1);
    }

    #[test]
    fn branch_flow_counts_only_multi_successor_sources() {
        let f = branchy();
        let mut p = FuncEdgeProfile::zeroed(&f);
        // Branch edges from b0 (2 successors) count; jump edges do not.
        p.set_edge(EdgeRef::new(BlockId(0), 0), 7);
        p.set_edge(EdgeRef::new(BlockId(0), 1), 3);
        p.set_edge(EdgeRef::new(BlockId(1), 0), 7);
        p.set_edge(EdgeRef::new(BlockId(2), 0), 3);
        assert_eq!(p.total_branch_flow(), 10);
        assert_eq!(p.total_edge_flow(), 20);
    }

    #[test]
    fn merge_adds_counts() {
        let f = branchy();
        let mut a = FuncEdgeProfile::zeroed(&f);
        let mut b = FuncEdgeProfile::zeroed(&f);
        let e = EdgeRef::new(BlockId(0), 1);
        a.bump_edge(e);
        b.bump_edge(e);
        b.bump_entry();
        a.merge(&b);
        assert_eq!(a.edge(e), 2);
        assert_eq!(a.entries(), 1);
    }

    #[test]
    fn trip_count_estimation() {
        let f = branchy();
        let mut p = FuncEdgeProfile::zeroed(&f);
        let back = EdgeRef::new(BlockId(1), 0);
        let entry = EdgeRef::new(BlockId(0), 0);
        p.set_edge(back, 90);
        p.set_edge(entry, 10);
        assert_eq!(p.loop_trip_count(&[back], &[entry]), Some(10.0));
        let cold = FuncEdgeProfile::zeroed(&f);
        assert_eq!(cold.loop_trip_count(&[back], &[entry]), None);
    }

    #[test]
    fn shape_match_detects_mismatches() {
        let f = branchy();
        let p = FuncEdgeProfile::zeroed(&f);
        assert!(p.shape_matches(&f));
        let mut g = FunctionBuilder::new("g", 0);
        g.ret(None);
        let g = g.finish();
        assert!(!p.shape_matches(&g));
    }

    #[test]
    fn conservative_profile_has_no_violations() {
        // branchy: b0 -> b1 | b2, b1 -> b3, b2 -> b3, b3 ret.
        let f = branchy();
        let mut p = FuncEdgeProfile::zeroed(&f);
        p.set_entries(10);
        p.set_block(BlockId(0), 10);
        p.set_edge(EdgeRef::new(BlockId(0), 0), 7);
        p.set_edge(EdgeRef::new(BlockId(0), 1), 3);
        p.set_block(BlockId(1), 7);
        p.set_edge(EdgeRef::new(BlockId(1), 0), 7);
        p.set_block(BlockId(2), 3);
        p.set_edge(EdgeRef::new(BlockId(2), 0), 3);
        p.set_block(BlockId(3), 10);
        assert_eq!(p.flow_violations(&f), vec![]);
        assert!(p.is_flow_conservative(&f));
    }

    #[test]
    fn each_kirchhoff_side_is_detected() {
        let f = branchy();
        let mut p = FuncEdgeProfile::zeroed(&f);
        p.set_entries(1);
        // Entry block frequency missing: in-flow 1 vs freq 0, and the
        // exit check (returns total 0 vs 1 entry) also fires.
        let v = p.flow_violations(&f);
        assert!(v
            .iter()
            .any(|x| x.kind == FlowViolationKind::In && x.block == Some(BlockId(0))));
        assert!(v.iter().any(|x| x.kind == FlowViolationKind::Exit));
        assert!(!p.is_flow_conservative(&f));

        // Out-flow: block executed but no edge leaves it.
        let mut q = FuncEdgeProfile::zeroed(&f);
        q.set_block(BlockId(1), 5);
        let v = q.flow_violations(&f);
        assert!(v
            .iter()
            .any(|x| x.kind == FlowViolationKind::Out && x.block == Some(BlockId(1))));
    }

    #[test]
    fn zero_profile_is_conservative() {
        let f = branchy();
        let p = FuncEdgeProfile::zeroed(&f);
        assert!(p.is_flow_conservative(&f));
    }

    #[test]
    fn module_conservation_covers_all_functions() {
        let mut m = crate::Module::new();
        m.add_function(branchy());
        m.add_function(branchy());
        let mut p = ModuleEdgeProfile::zeroed(&m);
        assert!(p.shape_matches(&m) && p.is_flow_conservative(&m));
        p.func_mut(FuncId(1)).set_block(BlockId(2), 1);
        assert!(!p.is_flow_conservative(&m));
        p.funcs.pop();
        assert!(!p.shape_matches(&m));
    }

    #[test]
    fn saturated_counters_never_wrap_totals_or_flow_checks() {
        let f = branchy();
        let mut p = FuncEdgeProfile::zeroed(&f);
        // Two pinned branch edges: totals must pin at MAX, not wrap to ~MAX-1.
        p.set_edge(EdgeRef::new(BlockId(0), 0), u64::MAX);
        p.set_edge(EdgeRef::new(BlockId(0), 1), u64::MAX);
        assert_eq!(p.total_edge_flow(), u64::MAX);
        assert_eq!(p.total_branch_flow(), u64::MAX);
        assert!(p.saturated());

        // flow_violations must *report* (not overflow) on a saturated
        // profile: b3 receives MAX from both b1 and b2.
        p.set_edge(EdgeRef::new(BlockId(1), 0), u64::MAX);
        p.set_edge(EdgeRef::new(BlockId(2), 0), u64::MAX);
        p.set_block(BlockId(3), u64::MAX);
        p.set_entries(u64::MAX);
        let v = p.flow_violations(&f); // must not panic in debug builds
        assert!(v.iter().any(|x| x.kind == FlowViolationKind::In));

        // Module totals saturate too.
        let mut m = crate::Module::new();
        m.add_function(branchy());
        m.add_function(branchy());
        let mut mp = ModuleEdgeProfile::zeroed(&m);
        mp.func_mut(FuncId(0))
            .set_edge(EdgeRef::new(BlockId(0), 0), u64::MAX);
        mp.func_mut(FuncId(1))
            .set_edge(EdgeRef::new(BlockId(0), 1), 9);
        assert_eq!(mp.total_branch_flow(), u64::MAX);
    }

    #[test]
    fn merge_saturates_at_max() {
        let f = branchy();
        let e = EdgeRef::new(BlockId(0), 0);
        let mut a = FuncEdgeProfile::zeroed(&f);
        a.set_edge(e, u64::MAX - 1);
        a.set_entries(u64::MAX);
        let mut b = FuncEdgeProfile::zeroed(&f);
        b.set_edge(e, 5);
        b.set_entries(1);
        a.merge(&b);
        assert_eq!(a.edge(e), u64::MAX);
        assert_eq!(a.entries(), u64::MAX);
    }

    #[test]
    fn module_profile_totals() {
        let mut m = crate::Module::new();
        m.add_function(branchy());
        m.add_function(branchy());
        let mut p = ModuleEdgeProfile::zeroed(&m);
        p.func_mut(FuncId(0))
            .set_edge(EdgeRef::new(BlockId(0), 0), 5);
        p.func_mut(FuncId(1))
            .set_edge(EdgeRef::new(BlockId(0), 1), 6);
        assert_eq!(p.total_branch_flow(), 11);
    }
}
