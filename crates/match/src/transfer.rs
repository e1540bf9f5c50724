//! Profile transfer across a [`MatchReport`], with boundary
//! renormalization.
//!
//! The raw transfer copies entries, matched block frequencies, and
//! matched edge frequencies onto the new CFG. If the result already
//! satisfies Kirchhoff flow conservation (the `PPP308` invariant) — as an
//! identity transfer always does — it is returned untouched, so identity
//! transfers are byte-identical on re-serialization.
//!
//! Otherwise a single reverse-postorder repair pass rebuilds the flow
//! around the matched region:
//!
//! * retreating (loop back) edge weights are *frozen* at their
//!   transferred values — they carry the loop trip counts, the most
//!   valuable part of the old profile;
//! * each block's frequency is recomputed as its inflow (entries for the
//!   entry block, plus all in-edge weights — non-retreating in-edges are
//!   final by RPO order, retreating ones are frozen);
//! * non-retreating out-edges are rescaled to exactly `freq − retreating
//!   out-flow` with a largest-remainder split, so every block balances
//!   exactly.
//!
//! Because every reachable block then has `inflow = freq = outflow`, exit
//! flow telescopes back to the entry count and the repaired profile is
//! conservative in one pass — no fixpoint iteration, no geometric decay
//! on loops. The pass can still fail: flow stranded on blocks that became
//! unreachable, or a frozen retreating out-flow exceeding the block's
//! inflow, cannot be repaired locally. Those functions are zeroed (the
//! zero profile is trivially conservative) and flagged `PPP404`, so the
//! invariant "every transferred profile passes PPP308" holds
//! unconditionally.
//!
//! [`transfer_module_edges`] is the one way a module's edge profile
//! crosses program versions: the matched-stale loader runs it after its
//! salvage load, the JIT loop runs it on every promotion.

use crate::matcher::MatchReport;
use crate::stale::match_modules;
use ppp_ir::{Cfg, EdgeRef, FuncEdgeProfile, Function, Module, ModuleEdgeProfile};
use ppp_lint::{Code, Diagnostic, LintReport, Severity};

/// What the transfer did to one function's profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct TransferStats {
    /// Edge records copied onto the new CFG.
    pub transferred_edges: usize,
    /// Edge flow on old edges with no usable image in the new CFG, or
    /// all of the old edge flow when the function was zeroed.
    pub dropped_flow: u64,
    /// Total absolute block-frequency adjustment made by renormalization.
    pub moved_flow: u64,
    /// `true` when the raw transfer violated flow conservation and the
    /// repair pass ran.
    pub renormalized: bool,
    /// `true` when repair failed and the function was zeroed (`PPP404`).
    pub zeroed: bool,
}

/// Transfers an edge profile for one function pair. The result always
/// satisfies `FuncEdgeProfile::flow_violations(new_f).is_empty()`.
pub(crate) fn transfer_edge_profile(
    report: &MatchReport,
    old_f: &Function,
    new_f: &Function,
    old_p: &FuncEdgeProfile,
) -> (FuncEdgeProfile, TransferStats) {
    let mut stats = TransferStats::default();
    let mut p = FuncEdgeProfile::zeroed(new_f);
    if old_p.is_zero() {
        return (p, stats);
    }
    p.set_entries(old_p.entries());
    for b in old_f.block_ids() {
        let Some(n) = report.map_block(b) else {
            // Unmatched old block: its out-flow has nowhere to go.
            for s in 0..old_f.block(b).term.successor_count() {
                stats.dropped_flow = stats
                    .dropped_flow
                    .saturating_add(old_p.edge(EdgeRef::new(b, s)));
            }
            continue;
        };
        p.set_block(n, old_p.block(b));
        for s in 0..old_f.block(b).term.successor_count() {
            let e = EdgeRef::new(b, s);
            match report.map_edge(old_f, new_f, e) {
                Some(ne) => {
                    p.set_edge(ne, old_p.edge(e));
                    stats.transferred_edges += 1;
                }
                None => {
                    stats.dropped_flow = stats.dropped_flow.saturating_add(old_p.edge(e));
                }
            }
        }
    }

    if p.flow_violations(new_f).is_empty() {
        return (p, stats);
    }
    stats.renormalized = true;
    match renormalize(new_f, &mut p) {
        Some(moved) => stats.moved_flow = moved,
        None => {
            p.zero();
            stats.zeroed = true;
            // Nothing reaches the new CFG: the mapped flow is dropped too.
            stats.dropped_flow = old_p.total_edge_flow();
        }
    }
    (p, stats)
}

/// What carrying a module's edge profile across program versions did.
#[derive(Clone, Debug, Default)]
pub struct TransferReport {
    /// Function pairs transferred.
    pub paired_funcs: usize,
    /// Pairs found by anchor identity (renamed functions rescued).
    pub anchor_paired: usize,
    /// Names of old functions whose profiles had no destination.
    pub unmatched_old: Vec<String>,
    /// Names of new functions that start unprofiled.
    pub unmatched_new: Vec<String>,
    /// Old blocks matched onto the new CFG, across all pairs.
    pub matched_blocks: usize,
    /// Total old blocks across all pairs.
    pub total_old_blocks: usize,
    /// Edge records copied onto the new CFGs.
    pub transferred_edges: usize,
    /// Functions whose transfer needed boundary renormalization and
    /// kept a profile. Disjoint from `zeroed_funcs`.
    pub renormalized_funcs: Vec<String>,
    /// Functions zeroed because the transfer could not be made
    /// flow-conservative (each also carries a PPP404 finding).
    pub zeroed_funcs: Vec<String>,
    /// Old flow with no image in the new module: edge flow on unmapped
    /// edges of paired functions, all the edge flow of every zeroed
    /// function, plus the edge flow *and entry count* of every
    /// unmatched old function. The units are mixed — a paired function
    /// contributes edge flow only, an unmatched one its entries too —
    /// so this is not pure edge flow; `old_flow` is summed the same way,
    /// which keeps [`TransferReport::coverage`] in `[0, 1]`.
    pub dropped_flow: u64,
    /// Total absolute flow adjustment made by renormalization.
    pub moved_flow: u64,
    /// Old flow the transfer had to place, in `dropped_flow`'s units.
    pub old_flow: u64,
    /// `true` when every pair is a block-level identity and nothing went
    /// unmatched on either side.
    pub identity: bool,
    /// All PPP4xx findings, sorted.
    pub diagnostics: LintReport,
}

impl TransferReport {
    /// Fraction of the old flow carried across (1.0 when nothing was
    /// dropped).
    pub fn coverage(&self) -> f64 {
        if self.old_flow == 0 {
            1.0
        } else {
            1.0 - self.dropped_flow as f64 / self.old_flow as f64
        }
    }

    /// `true` when nothing was dropped, renormalized, or zeroed anywhere:
    /// the transferred profile is the old profile, bit for bit.
    pub fn is_lossless(&self) -> bool {
        self.identity
            && self.dropped_flow == 0
            && self.renormalized_funcs.is_empty()
            && self.zeroed_funcs.is_empty()
    }
}

/// Transfers `profile` (collected on `old`) onto `new`: pairs the
/// functions ([`match_modules`]), transfers each pair's edge profile,
/// and zeroes every pair that cannot be repaired (`PPP404`).
///
/// The returned profile always satisfies PPP308 flow conservation for
/// every function. When `old` and `new` are the same program the
/// transfer is lossless and the profile comes back unchanged.
pub fn transfer_module_edges(
    old: &Module,
    new: &Module,
    profile: &ModuleEdgeProfile,
) -> (ModuleEdgeProfile, TransferReport) {
    let mm = match_modules(old, new);
    let name = |m: &Module, f| m.function(f).name.clone();
    let mut r = TransferReport {
        paired_funcs: mm.pairs.len(),
        anchor_paired: mm.anchor_paired(),
        unmatched_old: mm.unmatched_old.iter().map(|&f| name(old, f)).collect(),
        unmatched_new: mm.unmatched_new.iter().map(|&f| name(new, f)).collect(),
        identity: mm.is_identity(),
        ..TransferReport::default()
    };
    let mut out = ModuleEdgeProfile::zeroed(new);
    for pair in &mm.pairs {
        let (old_f, new_f) = (old.function(pair.old), new.function(pair.new));
        let old_p = profile.func(pair.old);
        r.matched_blocks += pair.report.matched_blocks();
        r.total_old_blocks += old_f.blocks.len();
        r.diagnostics
            .extend(pair.report.diagnostics.iter().cloned());
        r.old_flow = r.old_flow.saturating_add(old_p.total_edge_flow());
        let (p, stats) = transfer_edge_profile(&pair.report, old_f, new_f, old_p);
        r.transferred_edges += stats.transferred_edges;
        r.dropped_flow = r.dropped_flow.saturating_add(stats.dropped_flow);
        r.moved_flow = r.moved_flow.saturating_add(stats.moved_flow);
        if stats.zeroed {
            r.zeroed_funcs.push(new_f.name.clone());
            r.diagnostics.push(Diagnostic {
                code: Code::NonConservativeTransfer,
                func: pair.new,
                func_name: new_f.name.clone(),
                block: None,
                message: "transferred profile could not be renormalized to flow \
                          conservation; function profile zeroed"
                    .to_string(),
            });
        } else if stats.renormalized {
            r.renormalized_funcs.push(new_f.name.clone());
        }
        debug_assert!(p.flow_violations(new_f).is_empty());
        *out.func_mut(pair.new) = p;
    }
    for &f in &mm.unmatched_old {
        let p = profile.func(f);
        let flow = p.total_edge_flow().saturating_add(p.entries());
        r.dropped_flow = r.dropped_flow.saturating_add(flow);
        r.old_flow = r.old_flow.saturating_add(flow);
    }
    r.diagnostics.sort();
    debug_assert!(
        r.diagnostics.count(Severity::Error)
            == r.diagnostics
                .diagnostics
                .iter()
                .filter(|d| d.code == Code::NonConservativeTransfer)
                .count()
    );
    (out, r)
}

/// One-pass RPO flow repair; returns the moved flow, or `None` when the
/// profile cannot be made conservative (caller zeroes it).
fn renormalize(f: &Function, p: &mut FuncEdgeProfile) -> Option<u64> {
    let cfg = Cfg::new(f);
    let rpo: Vec<_> = cfg.reverse_postorder().to_vec();
    let mut moved: u64 = 0;
    for &b in &rpo {
        let mut inflow: u64 = if b == f.entry { p.entries() } else { 0 };
        for &e in cfg.preds(b) {
            inflow = inflow.saturating_add(p.edge(e));
        }
        moved = moved.saturating_add(p.block(b).abs_diff(inflow));
        p.set_block(b, inflow);
        let sc = f.block(b).term.successor_count();
        if sc == 0 {
            continue;
        }
        // Freeze retreating out-edges; budget the rest.
        let mut frozen: u64 = 0;
        let mut scalable: Vec<(EdgeRef, u64)> = Vec::new();
        for s in 0..sc {
            let e = EdgeRef::new(b, s);
            let w = p.edge(e);
            if cfg.is_retreating(b, f.edge_target(e)) {
                frozen = frozen.saturating_add(w);
            } else {
                scalable.push((e, w));
            }
        }
        if frozen > inflow {
            return None; // loop back-flow exceeds what reaches the block
        }
        let budget = inflow - frozen;
        let current: u64 = scalable.iter().map(|(_, w)| w).sum();
        if current == budget {
            continue;
        }
        if scalable.is_empty() {
            return None; // all out-edges retreating, budget unplaceable
        }
        if current == 0 {
            // No signal to scale: send the whole budget down the first
            // non-retreating successor.
            moved = moved.saturating_add(budget);
            p.set_edge(scalable[0].0, budget);
            continue;
        }
        // Largest-remainder proportional split: sums to budget exactly.
        let mut assigned: u64 = 0;
        let mut shares: Vec<(EdgeRef, u64, u128)> = Vec::new();
        for &(e, w) in &scalable {
            let num = u128::from(w) * u128::from(budget);
            let q = (num / u128::from(current)) as u64;
            let r = num % u128::from(current);
            assigned = assigned.saturating_add(q);
            shares.push((e, q, r));
        }
        let mut leftover = budget - assigned;
        // Ties broken by successor index for determinism.
        shares.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.succ.cmp(&b.0.succ)));
        for share in shares.iter_mut() {
            if leftover == 0 {
                break;
            }
            share.1 += 1;
            leftover -= 1;
        }
        for &(e, q, _) in &shares {
            moved = moved.saturating_add(p.edge(e).abs_diff(q));
            p.set_edge(e, q);
        }
    }
    if p.flow_violations(f).is_empty() {
        Some(moved)
    } else {
        None // e.g. flow stranded on blocks unreachable in the new CFG
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::match_functions;
    use ppp_ir::{BlockId, FuncId, FunctionBuilder, Module};

    fn diamond(name: &str) -> Function {
        let mut b = FunctionBuilder::new(name, 1);
        let c = b.constant(1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    fn diamond_profile(f: &Function) -> FuncEdgeProfile {
        let mut p = FuncEdgeProfile::zeroed(f);
        p.set_entries(10);
        p.set_block(BlockId(0), 10);
        p.set_edge(EdgeRef::new(BlockId(0), 0), 7);
        p.set_edge(EdgeRef::new(BlockId(0), 1), 3);
        p.set_block(BlockId(1), 7);
        p.set_edge(EdgeRef::new(BlockId(1), 0), 7);
        p.set_block(BlockId(2), 3);
        p.set_edge(EdgeRef::new(BlockId(2), 0), 3);
        p.set_block(BlockId(3), 10);
        p
    }

    #[test]
    fn identity_transfer_is_bit_exact() {
        let mut m = Module::new();
        m.add_function(diamond("f"));
        let f = m.function(FuncId(0));
        let old = diamond_profile(f);
        let r = match_functions(&m, f, &m, f, FuncId(0), "f");
        let (new, stats) = transfer_edge_profile(&r, f, f, &old);
        assert_eq!(stats.dropped_flow, 0);
        assert!(!stats.renormalized && !stats.zeroed);
        assert_eq!(new, old);
        assert!(new.flow_violations(f).is_empty());
    }

    #[test]
    fn renormalization_repairs_dropped_arm() {
        // New version changes one arm of the diamond so its flow is
        // dropped; the repair pass must rebuild a conservative profile.
        let mut m = Module::new();
        m.add_function(diamond("f"));
        let mut g = diamond("f");
        // Make block 1 (then-arm) unrecognizable: add instructions.
        let mut fb_block = g.block(BlockId(1)).clone();
        fb_block.insts.push(ppp_ir::Inst::Const {
            dst: ppp_ir::Reg(5),
            value: 99,
        });
        fb_block.insts.push(ppp_ir::Inst::Emit {
            src: ppp_ir::Reg(5),
        });
        *g.block_mut(BlockId(1)) = fb_block;
        g.reg_count = g.reg_count.max(6);
        let mut m2 = Module::new();
        m2.add_function(g);

        let old_f = m.function(FuncId(0));
        let new_f = m2.function(FuncId(0));
        let old = diamond_profile(old_f);
        let r = match_functions(&m, old_f, &m2, new_f, FuncId(0), "f");
        let (new, stats) = transfer_edge_profile(&r, old_f, new_f, &old);
        assert!(new.flow_violations(new_f).is_empty());
        assert_eq!(new.entries(), 10);
        assert!(stats.renormalized || stats.dropped_flow == 0);
        assert!(!stats.zeroed);
    }
}
