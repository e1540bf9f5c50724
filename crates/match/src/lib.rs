//! Stale-profile matching: transferring edge profiles across program
//! versions.
//!
//! Production PGO's hardest problem is that profiles are collected on
//! program version *N* and applied to version *N+k*. This crate holds
//! the one rule that pairs functions across versions and the static
//! analysis that lets a profile *survive* edits, in the spirit of
//! Ayupov/Panchenko/Pupyrev's stale profile matching (see `PAPERS.md`):
//!
//! * [`anchor`] — hash-based block anchors: opcode/shape fingerprints,
//!   call-site and branch-structure signatures, and a whole-function
//!   anchor identity, all register- and block-number independent;
//! * [`matcher`] — the CFG-similarity matcher: anchor seeding plus
//!   neighborhood propagation over dominator/loop structure, producing a
//!   typed [`MatchReport`] with per-block confidence and stable PPP4xx
//!   diagnostics (PPP401 unanchored, PPP402 ambiguous, PPP403
//!   split/merged region) through the `ppp-lint` machinery;
//! * [`transfer`] — remaps edge profiles through a [`MatchReport`],
//!   renormalizing at matched-region boundaries so the result always
//!   passes PPP308 flow conservation (functions that cannot be repaired
//!   are zeroed and flagged PPP404). [`transfer_module_edges`] is the one
//!   cross-version transfer of a whole module's profile; its
//!   [`TransferReport`] counts a function as renormalized *or* zeroed,
//!   never both;
//! * [`stale`] — name- then anchor-identity function pairing across two
//!   module versions, and the matched-stale loader
//!   [`read_edge_profile_matched`]: a salvage load, then
//!   [`transfer_module_edges`], with `ppp_stale_*`/`ppp_match_*`
//!   observability metrics.
//!
//! The crate is deterministic end to end: hashing is FNV-1a (no
//! `DefaultHasher`), every iteration over a hash map is sorted, and the
//! same inputs always produce the same match, the same transfer, and the
//! same diagnostics.

#![warn(missing_docs)]

pub mod anchor;
pub mod matcher;
pub mod stale;
pub mod transfer;

pub use anchor::{anchor_function, function_fingerprint, AnchorSet, BlockAnchor};
pub use matcher::{match_functions, MatchReport};
pub use stale::{
    match_modules, read_edge_profile_matched, FuncPair, MatchedStaleReport, ModuleMatch, PairMethod,
};
pub use transfer::{transfer_module_edges, TransferReport};

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::{
        write_edge_profile_v2, BlockId, EdgeRef, FuncId, FunctionBuilder, Inst, Module,
        ModuleEdgeProfile, Reg, Terminator,
    };
    use ppp_lint::Code;

    /// Two-function module: a diamond `main` calling a leaf `work`.
    fn sample() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
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
        m.add_function(b.finish());
        let mut g = FunctionBuilder::new("work", 1);
        let p = g.param(0);
        g.ret(Some(p));
        m.add_function(g.finish());
        m
    }

    fn sample_edges(m: &Module) -> ModuleEdgeProfile {
        let mut p = ModuleEdgeProfile::zeroed(m);
        let f0 = p.func_mut(FuncId(0));
        f0.set_entries(10);
        f0.set_block(BlockId(0), 10);
        f0.set_edge(EdgeRef::new(BlockId(0), 0), 7);
        f0.set_edge(EdgeRef::new(BlockId(0), 1), 3);
        f0.set_block(BlockId(1), 7);
        f0.set_edge(EdgeRef::new(BlockId(1), 0), 7);
        f0.set_block(BlockId(2), 3);
        f0.set_edge(EdgeRef::new(BlockId(2), 0), 3);
        f0.set_block(BlockId(3), 10);
        p
    }

    #[test]
    fn identity_matched_load_is_lossless_and_byte_identical() {
        let m = sample();
        let edges = sample_edges(&m);
        let bytes = write_edge_profile_v2(&m, &edges);
        let (loaded, report) = read_edge_profile_matched(&m, &m, bytes.as_bytes()).unwrap();
        assert!(report.is_lossless(), "report: {report:?}");
        assert!(report.transfer.diagnostics.is_empty());
        // Byte-identical round trip: serialize the transferred profile
        // and compare to the original artifact.
        assert_eq!(write_edge_profile_v2(&m, &loaded), bytes);
    }

    #[test]
    fn renamed_identical_function_is_rescued_by_anchor_identity() {
        // A renamed but otherwise identical function keeps its profile:
        // the pairing falls back from names to anchor identity.
        let old = sample();
        let mut new = sample();
        new.functions[1].name = "work_v2".to_string();
        let edges = {
            let mut p = sample_edges(&old);
            let f1 = p.func_mut(FuncId(1));
            f1.set_entries(5);
            f1.set_block(BlockId(0), 5);
            p
        };
        let bytes = write_edge_profile_v2(&old, &edges);

        let (matched, report) = read_edge_profile_matched(&old, &new, bytes.as_bytes()).unwrap();
        assert_eq!(report.transfer.anchor_paired, 1);
        assert_eq!(matched.func(FuncId(1)).entries(), 5);
        assert_eq!(matched.func(FuncId(1)).block(BlockId(0)), 5);
        assert!(matched.is_flow_conservative(&new));
    }

    #[test]
    fn ppp401_unanchored_block() {
        // Replace one arm with entirely different code and rewire the
        // branch around it: the old arm has no anchor and no position.
        let old = sample();
        let mut new = sample();
        {
            let f = &mut new.functions[0];
            let r = Reg(f.reg_count);
            f.reg_count += 1;
            let blk = f.block_mut(BlockId(1));
            blk.insts.clear();
            blk.insts.push(Inst::Const { dst: r, value: 42 });
            blk.insts.push(Inst::Store { addr: r, src: r });
            blk.insts.push(Inst::Load { dst: r, addr: r });
            blk.insts.push(Inst::Emit { src: r });
            blk.term = Terminator::Return { value: None };
        }
        let mm = match_modules(&old, &new);
        let report = &mm.pairs[0].report;
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::UnanchoredBlock),
            "diags: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn ppp402_ambiguous_anchor() {
        // Old: a branch to one `const 7; emit; ret` block. New: a switch
        // (different successor arity, so positional propagation cannot
        // run) fanning out to three byte-identical copies of that block.
        // The old block's anchor matches all three and neither position
        // nor dominators can single one out.
        let mut old = Module::new();
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.constant(3);
        let dup = b.new_block();
        b.branch(c, dup, dup);
        b.switch_to(dup);
        let v = b.constant(7);
        b.emit(v);
        b.ret(None);
        old.add_function(b.finish());

        let mut new = Module::new();
        let mut b = FunctionBuilder::new("f", 0);
        let c = b.constant(3);
        let (d1, d2, d3) = (b.new_block(), b.new_block(), b.new_block());
        b.switch(c, vec![d1, d2], d3);
        for d in [d1, d2, d3] {
            b.switch_to(d);
            let v = b.constant(7);
            b.emit(v);
            b.ret(None);
        }
        new.add_function(b.finish());

        let mm = match_modules(&old, &new);
        let report = &mm.pairs[0].report;
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::AmbiguousAnchor),
            "diags: {:?}",
            report.diagnostics
        );
    }

    #[test]
    fn ppp403_split_region() {
        // New version splits the then-arm in two: the second half has no
        // old counterpart but sits between matched blocks.
        let old = sample();
        let mut new = sample();
        {
            let f = &mut new.functions[0];
            // Split block 1 (then-arm): keep the const in b1, move the
            // emit to a fresh block b4 that jumps on to the join.
            let join = match f.block(BlockId(1)).term {
                Terminator::Jump { target } => target,
                _ => unreachable!(),
            };
            let blk = f.block_mut(BlockId(1));
            let moved = blk.insts.split_off(1);
            let half = ppp_ir::Block {
                insts: moved,
                term: Terminator::Jump { target: join },
            };
            let new_id = f.add_block(half);
            f.block_mut(BlockId(1)).term = Terminator::Jump { target: new_id };
        }
        let mm = match_modules(&old, &new);
        let report = &mm.pairs[0].report;
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.code == Code::SplitMergedRegion),
            "diags: {:?}",
            report.diagnostics
        );
        // And the transfer around the split must still be conservative.
        let edges = sample_edges(&old);
        let bytes = write_edge_profile_v2(&old, &edges);
        let (loaded, msr) = read_edge_profile_matched(&old, &new, bytes.as_bytes()).unwrap();
        assert!(loaded.is_flow_conservative(&new));
        assert!(msr.transfer.diagnostics.has(Code::SplitMergedRegion));
    }

    #[test]
    fn ppp404_non_conservative_transfer_zeroes_function() {
        // Old: entry -> L -> B, B branches back to L or exits. New: L
        // jumps straight to the exit, leaving B (still byte-identical,
        // so it matches by anchor) unreachable. Its transferred flow is
        // stranded — unrepairable — so the function must be zeroed and
        // flagged PPP404.
        let build = |loops: bool| {
            let mut m = Module::new();
            let mut b = FunctionBuilder::new("f", 0);
            let (l, bb, r) = (b.new_block(), b.new_block(), b.new_block());
            b.jump(l);
            b.switch_to(l);
            let v = b.constant(5);
            b.emit(v);
            if loops {
                b.jump(bb);
            } else {
                b.jump(r);
            }
            b.switch_to(bb);
            let c = b.constant(1);
            b.branch(c, l, r);
            b.switch_to(r);
            b.ret(None);
            m.add_function(b.finish());
            m
        };
        let old = build(true);
        let new = build(false);
        let mut edges = ModuleEdgeProfile::zeroed(&old);
        {
            let f0 = edges.func_mut(FuncId(0));
            f0.set_entries(5);
            f0.set_block(BlockId(0), 5);
            f0.set_edge(EdgeRef::new(BlockId(0), 0), 5);
            f0.set_block(BlockId(1), 50);
            f0.set_edge(EdgeRef::new(BlockId(1), 0), 50);
            f0.set_block(BlockId(2), 50);
            f0.set_edge(EdgeRef::new(BlockId(2), 0), 45);
            f0.set_edge(EdgeRef::new(BlockId(2), 1), 5);
            f0.set_block(BlockId(3), 5);
        }
        let bytes = write_edge_profile_v2(&old, &edges);
        let (loaded, report) = read_edge_profile_matched(&old, &new, bytes.as_bytes()).unwrap();
        assert!(
            report
                .transfer
                .diagnostics
                .has(Code::NonConservativeTransfer),
            "report: {report:?}"
        );
        assert_eq!(report.transfer.zeroed_funcs, vec!["f".to_string()]);
        // A zeroed function is not also counted as renormalized.
        assert!(report.transfer.renormalized_funcs.is_empty());
        assert!(loaded.func(FuncId(0)).is_zero());
        assert!(loaded.is_flow_conservative(&new));
        // Nothing of the zeroed function's flow was carried across.
        assert_eq!(report.transfer.old_flow, 105);
        assert_eq!(report.transfer.dropped_flow, 105);
        assert_eq!(report.transfer.coverage(), 0.0);
    }

    #[test]
    fn transferred_profiles_always_flow_conservative() {
        // Sweep a family of perturbations; every transfer must pass the
        // PPP308 invariant regardless of match quality.
        let old = sample();
        let edges = sample_edges(&old);
        let bytes = write_edge_profile_v2(&old, &edges);
        let mut variants: Vec<Module> = Vec::new();
        // 1: constant tweak in one arm.
        let mut v = sample();
        if let Inst::Const { value, .. } = &mut v.functions[0].block_mut(BlockId(1)).insts[0] {
            *value = 11;
        }
        variants.push(v);
        // 2: extra branch in the join block.
        let mut v = sample();
        {
            let f = &mut v.functions[0];
            let r = Reg(f.reg_count);
            f.reg_count += 1;
            let detour = f.add_block(ppp_ir::Block {
                insts: vec![],
                term: Terminator::Return { value: None },
            });
            let blk = f.block_mut(BlockId(3));
            blk.insts.push(Inst::Const { dst: r, value: 0 });
            blk.term = Terminator::Branch {
                cond: r,
                then_target: detour,
                else_target: detour,
            };
        }
        variants.push(v);
        // 3: renamed + retargeted call-free variant.
        let mut v = sample();
        v.functions[0].name = "main_v2".to_string();
        variants.push(v);
        for (i, new) in variants.iter().enumerate() {
            let (loaded, report) = read_edge_profile_matched(&old, new, bytes.as_bytes()).unwrap();
            assert!(
                loaded.is_flow_conservative(new),
                "variant {i} not conservative: {report:?}"
            );
        }
    }

    #[test]
    fn matched_load_records_obs_metrics() {
        let previous = ppp_obs::global();
        let (ctx, _collect) = ppp_obs::ObsCtx::collecting();
        ppp_obs::install_global(ctx.clone());
        let m = sample();
        let edges = sample_edges(&m);
        let bytes = write_edge_profile_v2(&m, &edges);
        let _ = read_edge_profile_matched(&m, &m, bytes.as_bytes()).unwrap();
        let metrics = ctx.metrics().render_prometheus();
        ppp_obs::install_global(previous);
        assert!(
            metrics.contains("ppp_stale_section_faults_total"),
            "{metrics}"
        );
        assert!(metrics.contains("ppp_match_funcs_total"), "{metrics}");
        assert!(metrics.contains("ppp_match_blocks_total"), "{metrics}");
    }

    #[test]
    fn unmatched_old_function_flow_counts_as_dropped() {
        let old = sample();
        let mut new = sample();
        // Remove `work` entirely (and retarget nothing — main has no
        // calls in this fixture).
        new.functions.truncate(1);
        let mut edges = sample_edges(&old);
        edges.func_mut(FuncId(1)).set_entries(9);
        edges.func_mut(FuncId(1)).set_block(BlockId(0), 9);
        let bytes = write_edge_profile_v2(&old, &edges);
        let (_, report) = read_edge_profile_matched(&old, &new, bytes.as_bytes()).unwrap();
        assert_eq!(report.transfer.unmatched_old, vec!["work".to_string()]);
        assert!(report.transfer.dropped_flow > 0);
        assert!(!report.is_lossless());
    }
}
