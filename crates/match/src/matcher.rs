//! The CFG-similarity matcher.
//!
//! Given an old and a new version of a [`Function`], the matcher builds a
//! block correspondence in three phases:
//!
//! 1. **Anchor seeding** — a strong hash that occurs exactly once in each
//!    version is an unambiguous anchor; the pair is matched at full
//!    confidence. The two entry blocks are also seeded (at reduced
//!    confidence when only their weak hashes agree): profiles flow from
//!    the entry, so an entry match is worth a small leap of faith.
//! 2. **Neighborhood propagation** — a worklist floods matches outward
//!    from the seeds. When a matched pair's terminators agree in kind and
//!    arity, the i-th successors are candidate pairs; a unique unmatched
//!    predecessor on both sides is likewise a candidate. Candidates are
//!    accepted if their anchors are compatible (strong, weak, or — for
//!    structure-only matches — branch signature plus equal loop depth and
//!    a matched immediate dominator), with confidence decaying by the
//!    strength of the evidence.
//! 3. **Ambiguity resolution** — strong hashes with several occurrences
//!    are paired only when dominator and loop context single out one
//!    candidate; otherwise the block is reported ambiguous.
//!
//! Leftovers become diagnostics in the PPP4xx band: old blocks with no
//! match are `PPP401` (unanchored) or `PPP402` (ambiguous anchor), new
//! blocks with no pre-image adjacent to the matched region are `PPP403`
//! (split/merged region).

use crate::anchor::{anchor_function, AnchorSet, BlockAnchor};
use ppp_ir::{BlockId, Cfg, EdgeRef, FuncId, Function, Module};
use ppp_lint::{Code, Diagnostic};
use std::collections::HashMap;

/// Confidence floor below which structure-only propagation stops; keeps
/// low-evidence chains from flooding unrelated regions.
const MIN_STRUCTURAL_CONFIDENCE: f64 = 0.30;

/// The typed outcome of matching one old function onto one new one: the
/// block maps in both directions, per-block confidence, and the PPP4xx
/// findings for everything that did not map.
#[derive(Clone, Debug)]
pub struct MatchReport {
    /// For each old block, the new block it maps to.
    pub old_to_new: Vec<Option<BlockId>>,
    /// For each new block, the old block it maps from.
    pub new_to_old: Vec<Option<BlockId>>,
    /// Per-old-block confidence in `[0, 1]`; `0.0` when unmatched.
    pub confidence: Vec<f64>,
    /// PPP401/402/403 findings (func/name refer to the *new* module).
    pub diagnostics: Vec<Diagnostic>,
    /// `true` when the map is the total identity: equal block counts and
    /// every old block matched to the same index. Identity transfers are
    /// lossless by construction.
    pub identity: bool,
}

impl MatchReport {
    /// Number of matched old blocks.
    pub fn matched_blocks(&self) -> usize {
        self.old_to_new.iter().flatten().count()
    }

    /// Maps an old block onto the new CFG.
    pub fn map_block(&self, b: BlockId) -> Option<BlockId> {
        self.old_to_new.get(b.index()).copied().flatten()
    }

    /// Maps an old edge onto the new CFG. The edge survives only when its
    /// source maps, the mapped source still has a successor at the same
    /// index, and the old target (when matched) agrees with the new
    /// target — otherwise the flow would be rerouted, not transferred.
    pub fn map_edge(&self, old_f: &Function, new_f: &Function, e: EdgeRef) -> Option<EdgeRef> {
        let nb = self.map_block(e.from)?;
        let nt = new_f.block(nb).term.successor(e.succ as usize)?;
        let ot = old_f.block(e.from).term.successor(e.succ as usize)?;
        match self.map_block(ot) {
            Some(mapped) if mapped != nt => None,
            _ => Some(EdgeRef::new(nb, e.succ as usize)),
        }
    }
}

struct MatchCtx<'a> {
    old_f: &'a Function,
    new_f: &'a Function,
    oa: AnchorSet,
    na: AnchorSet,
    old_cfg: Cfg,
    new_cfg: Cfg,
    old_to_new: Vec<Option<BlockId>>,
    new_to_old: Vec<Option<BlockId>>,
    confidence: Vec<f64>,
}

impl MatchCtx<'_> {
    fn bind(&mut self, o: BlockId, n: BlockId, conf: f64) -> bool {
        if self.old_to_new[o.index()].is_some() || self.new_to_old[n.index()].is_some() {
            return false;
        }
        self.old_to_new[o.index()] = Some(n);
        self.new_to_old[n.index()] = Some(o);
        self.confidence[o.index()] = conf;
        true
    }

    /// Evidence-scaled confidence factor for pairing `o` with `n`, or
    /// `None` when the anchors are incompatible. Structure-only pairings
    /// additionally require equal loop depth and consistent idoms.
    fn compat_factor(&self, o: BlockId, n: BlockId) -> Option<f64> {
        let (ao, an) = (&self.oa.anchors[o.index()], &self.na.anchors[n.index()]);
        if ao.strong == an.strong {
            return Some(0.95);
        }
        if ao.weak == an.weak {
            return Some(0.85);
        }
        if ao.calls != BlockAnchor::NO_CALLS && ao.calls == an.calls {
            return Some(0.80);
        }
        if ao.branch == an.branch
            && self.oa.loop_depth[o.index()] == self.na.loop_depth[n.index()]
            && self.idom_consistent(o, n)
        {
            return Some(0.60);
        }
        None
    }

    /// `true` when the idoms of `o` and `n` do not contradict the match
    /// built so far (either idom unknown/unmatched, or mapped onto each
    /// other).
    fn idom_consistent(&self, o: BlockId, n: BlockId) -> bool {
        match (self.oa.idom[o.index()], self.na.idom[n.index()]) {
            (Some(oi), Some(ni)) => match self.old_to_new[oi.index()] {
                Some(mapped) => mapped == ni,
                None => true,
            },
            _ => true,
        }
    }

    fn propagate(&mut self, seeds: Vec<BlockId>) {
        let mut work = seeds;
        while let Some(o) = work.pop() {
            let Some(n) = self.old_to_new[o.index()] else {
                continue;
            };
            let conf = self.confidence[o.index()];
            let ot = &self.old_f.block(o).term;
            let nt = &self.new_f.block(n).term;
            // Positional successors: same terminator shape on both sides
            // means the i-th out-edges correspond.
            if ot.successor_count() == nt.successor_count() {
                for s in 0..ot.successor_count() {
                    let (Some(os), Some(ns)) = (ot.successor(s), nt.successor(s)) else {
                        continue;
                    };
                    self.try_bind(os, ns, conf, &mut work);
                }
            }
            // Unique unmatched predecessor on both sides.
            let op: Vec<BlockId> = self
                .old_cfg
                .pred_blocks(o)
                .filter(|p| self.old_to_new[p.index()].is_none())
                .collect();
            let np: Vec<BlockId> = self
                .new_cfg
                .pred_blocks(n)
                .filter(|p| self.new_to_old[p.index()].is_none())
                .collect();
            if let ([po], [pn]) = (op.as_slice(), np.as_slice()) {
                self.try_bind(*po, *pn, conf * 0.9, &mut work);
            }
        }
    }

    fn try_bind(&mut self, o: BlockId, n: BlockId, base: f64, work: &mut Vec<BlockId>) {
        if self.old_to_new[o.index()].is_some() || self.new_to_old[n.index()].is_some() {
            return;
        }
        if let Some(factor) = self.compat_factor(o, n) {
            let conf = base * factor;
            if factor < 0.7 && conf < MIN_STRUCTURAL_CONFIDENCE {
                return;
            }
            if self.bind(o, n, conf) {
                work.push(o);
            }
        }
    }
}

/// Matches `old_f` onto `new_f`. `new_fid`/`new_name` identify the new
/// function for diagnostics (they refer to the *new* module).
pub fn match_functions(
    old_module: &Module,
    old_f: &Function,
    new_module: &Module,
    new_f: &Function,
    new_fid: FuncId,
    new_name: &str,
) -> MatchReport {
    let oa = anchor_function(old_module, old_f);
    let na = anchor_function(new_module, new_f);
    let mut ctx = MatchCtx {
        old_f,
        new_f,
        old_cfg: Cfg::new(old_f),
        new_cfg: Cfg::new(new_f),
        old_to_new: vec![None; old_f.blocks.len()],
        new_to_old: vec![None; new_f.blocks.len()],
        confidence: vec![0.0; old_f.blocks.len()],
        oa,
        na,
    };

    // Phase 1: seed on globally-unique strong hashes.
    let mut old_by_strong: HashMap<u64, Vec<BlockId>> = HashMap::new();
    let mut new_by_strong: HashMap<u64, Vec<BlockId>> = HashMap::new();
    for b in old_f.block_ids() {
        old_by_strong
            .entry(ctx.oa.anchors[b.index()].strong)
            .or_default()
            .push(b);
    }
    for b in new_f.block_ids() {
        new_by_strong
            .entry(ctx.na.anchors[b.index()].strong)
            .or_default()
            .push(b);
    }
    let mut seeds = Vec::new();
    let mut keys: Vec<u64> = old_by_strong.keys().copied().collect();
    keys.sort_unstable(); // HashMap order is not deterministic; the match must be
    for h in keys {
        if let ([o], Some([n])) = (
            old_by_strong[&h].as_slice(),
            new_by_strong.get(&h).map(|v| v.as_slice()),
        ) {
            if ctx.bind(*o, *n, 1.0) {
                seeds.push(*o);
            }
        }
    }
    // Entry blocks correspond by definition of "same function".
    let (oe, ne) = (old_f.entry, new_f.entry);
    if ctx.old_to_new[oe.index()].is_none() && ctx.new_to_old[ne.index()].is_none() {
        let conf = match ctx.compat_factor(oe, ne) {
            Some(f) if f >= 0.9 => 1.0,
            Some(_) => 0.7,
            None => 0.5, // weakest: structure changed at the entry itself
        };
        if ctx.bind(oe, ne, conf) {
            seeds.push(oe);
        }
    }

    // Phase 2: flood outward.
    ctx.propagate(seeds);

    // Phase 3: non-unique strong hashes that dominator + loop context can
    // single out. One more propagation round per resolved pair.
    let mut keys: Vec<u64> = old_by_strong.keys().copied().collect();
    keys.sort_unstable();
    for h in keys {
        let olds: Vec<BlockId> = old_by_strong[&h]
            .iter()
            .copied()
            .filter(|o| ctx.old_to_new[o.index()].is_none())
            .collect();
        let Some(news) = new_by_strong.get(&h) else {
            continue;
        };
        for o in olds {
            let cands: Vec<BlockId> = news
                .iter()
                .copied()
                .filter(|n| {
                    ctx.new_to_old[n.index()].is_none()
                        && ctx.oa.loop_depth[o.index()] == ctx.na.loop_depth[n.index()]
                        && ctx.idom_consistent(o, *n)
                })
                .collect();
            if let [n] = cands.as_slice() {
                let n = *n;
                if ctx.bind(o, n, 0.75) {
                    ctx.propagate(vec![o]);
                }
            }
        }
    }

    // Diagnostics for the leftovers.
    let mut diagnostics = Vec::new();
    for o in old_f.block_ids() {
        if ctx.old_to_new[o.index()].is_some() {
            continue;
        }
        let strong = ctx.oa.anchors[o.index()].strong;
        let live_candidates = new_by_strong
            .get(&strong)
            .map(|v| {
                v.iter()
                    .filter(|n| ctx.new_to_old[n.index()].is_none())
                    .count()
            })
            .unwrap_or(0);
        let (code, message) = if live_candidates > 0 {
            (
                Code::AmbiguousAnchor,
                format!(
                    "old block b{} matches {} candidate block(s) in the new version \
                     but structure cannot disambiguate; its profile flow is dropped",
                    o.index(),
                    live_candidates
                ),
            )
        } else {
            (
                Code::UnanchoredBlock,
                format!(
                    "old block b{} has no anchor and no propagated match in the new \
                     version; its profile flow is dropped",
                    o.index()
                ),
            )
        };
        diagnostics.push(Diagnostic {
            code,
            func: new_fid,
            func_name: new_name.to_string(),
            block: None, // the block id is an *old* coordinate; keep it in the message
            message,
        });
    }
    for n in new_f.block_ids() {
        if ctx.new_to_old[n.index()].is_some() {
            continue;
        }
        let matched_preds = ctx
            .new_cfg
            .pred_blocks(n)
            .filter(|p| ctx.new_to_old[p.index()].is_some())
            .count();
        let matched_succs = ctx
            .new_cfg
            .succs(n)
            .iter()
            .filter(|s| ctx.new_to_old[s.index()].is_some())
            .count();
        diagnostics.push(Diagnostic {
            code: Code::SplitMergedRegion,
            func: new_fid,
            func_name: new_name.to_string(),
            block: Some(n),
            message: format!(
                "new block has no old counterpart ({matched_preds} matched pred(s), \
                 {matched_succs} matched succ(s)); transferred flow is renormalized \
                 around it"
            ),
        });
    }

    let identity = old_f.blocks.len() == new_f.blocks.len()
        && ctx
            .old_to_new
            .iter()
            .enumerate()
            .all(|(i, m)| *m == Some(BlockId::new(i)));

    MatchReport {
        old_to_new: ctx.old_to_new,
        new_to_old: ctx.new_to_old,
        confidence: ctx.confidence,
        diagnostics,
        identity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::FunctionBuilder;

    fn diamond(name: &str) -> Function {
        let mut b = FunctionBuilder::new(name, 1);
        let c = b.constant(1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to(t);
        let x = b.constant(10);
        b.emit(x);
        b.jump(j);
        b.switch_to(e);
        let y = b.constant(20);
        b.emit(y);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        b.finish()
    }

    #[test]
    fn identity_match_is_total_and_exact() {
        let mut m = Module::new();
        m.add_function(diamond("f"));
        let f = m.function(FuncId(0));
        let r = match_functions(&m, f, &m, f, FuncId(0), "f");
        assert!(r.identity);
        assert_eq!(r.matched_blocks(), f.blocks.len());
        assert!(r.diagnostics.is_empty());
        for b in f.block_ids() {
            assert_eq!(r.map_block(b), Some(b));
        }
    }

    #[test]
    fn duplicate_arms_still_identity_via_propagation() {
        // Two byte-identical `jump j` arms are ambiguous by anchor alone;
        // positional successor propagation from the entry resolves them.
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("g", 1);
        let c = b.constant(1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        m.add_function(b.finish());
        let f = m.function(FuncId(0));
        let r = match_functions(&m, f, &m, f, FuncId(0), "g");
        assert!(r.identity, "map: {:?}", r.old_to_new);
        assert!(r.diagnostics.is_empty());
    }
}
