//! Plan-conformance checking (`PPP201`–`PPP204`).
//!
//! The instrumenter records every physical insertion it performs as a
//! [`Placement`](ppp_core::Placement): which block received a lowered op
//! list and whether it was prepended or appended. This analysis re-derives
//! the expected `Prof` layout of every block from those records and
//! compares it against the instrumented function:
//!
//! - per block, prepended ops must form the exact leading `Prof` prefix,
//!   appended ops the exact trailing suffix, with no profiling ops in
//!   between (`PPP201`);
//! - function-wide, the multiset of `Prof` ops must equal the multiset of
//!   placement ops — nothing lost, nothing duplicated (`PPP202`);
//! - every op must reference the plan's own counter table (`PPP203`).
//!
//! It also checks, against the module the plan was instrumented from,
//! that instrumentation changed nothing the generic lints see (`PPP204`),
//! so their report on the uninstrumented module holds for every plan made
//! from it: with profiling ops left out and split edges followed through,
//! each original block must be unchanged, and every block the
//! instrumenter added must split one edge, holding only profiling ops and
//! a jump to an original block.
//!
//! The placement checks cover instrumented routines only; stray ops in
//! uninstrumented ones are the soundness checker's `PPP105`.

use crate::diag::{Code, Diagnostic};
use ppp_core::{FuncPlan, PlacePos};
use ppp_ir::{Function, Inst, Module, ProfOp, Terminator};
use std::collections::HashMap;

/// Checks one instrumented routine against its recorded placements.
pub fn check_function(f: &Function, fp: &FuncPlan) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if !fp.instrumented {
        return out;
    }
    let diag = |code: Code, block, message: String| Diagnostic {
        code,
        func: fp.func,
        func_name: f.name.clone(),
        block,
        message,
    };

    // Expected per-block layout. The instrumenter performs at most one
    // prepend (sole-predecessor target) and one append (sole-successor
    // source, split block, or single-block count) per block, but we
    // concatenate defensively in recording order.
    let n = f.blocks.len();
    let mut prepends: Vec<Vec<ProfOp>> = vec![Vec::new(); n];
    let mut appends: Vec<Vec<ProfOp>> = vec![Vec::new(); n];
    for p in &fp.placements {
        match p.pos {
            PlacePos::Prepend => prepends[p.block.index()].extend(p.ops.iter().copied()),
            PlacePos::Append => appends[p.block.index()].extend(p.ops.iter().copied()),
        }
    }

    for (b, block) in f.iter_blocks() {
        let actual: Vec<(usize, ProfOp)> = block
            .insts
            .iter()
            .enumerate()
            .filter_map(|(i, inst)| match inst {
                Inst::Prof(op) => Some((i, *op)),
                _ => None,
            })
            .collect();
        let pre = &prepends[b.index()];
        let app = &appends[b.index()];

        let prefix_ok = actual.len() >= pre.len()
            && actual
                .iter()
                .take(pre.len())
                .enumerate()
                .all(|(i, &(pos, op))| pos == i && op == pre[i]);
        let suffix_ok = actual.len() >= app.len()
            && actual
                .iter()
                .rev()
                .take(app.len())
                .enumerate()
                .all(|(i, &(pos, op))| {
                    pos == block.insts.len() - 1 - i && op == app[app.len() - 1 - i]
                });
        let middle_clean = actual.len() == pre.len() + app.len();
        if !(prefix_ok && suffix_ok && middle_clean) {
            out.push(diag(
                Code::PlacementMismatch,
                Some(b),
                format!(
                    "block carries {} profiling op(s) but the plan placed {} prepended \
                     and {} appended here",
                    actual.len(),
                    pre.len(),
                    app.len()
                ),
            ));
        }
    }

    // Function-wide multiset comparison.
    let mut delta: HashMap<ProfOp, i64> = HashMap::new();
    for block in &f.blocks {
        for inst in &block.insts {
            if let Inst::Prof(op) = inst {
                *delta.entry(*op).or_insert(0) += 1;
            }
        }
    }
    for p in &fp.placements {
        for &op in &p.ops {
            *delta.entry(op).or_insert(0) -= 1;
        }
    }
    let mut mismatched: Vec<(ProfOp, i64)> = delta.into_iter().filter(|&(_, d)| d != 0).collect();
    if !mismatched.is_empty() {
        mismatched.sort_by_key(|&(op, _)| format!("{op}"));
        let (op, d) = mismatched[0];
        out.push(diag(
            Code::OpMultisetMismatch,
            None,
            format!(
                "{} op kind(s) differ from the plan; e.g. `{op}` appears {d:+} time(s) \
                 vs the placements",
                mismatched.len()
            ),
        ));
    }

    // Table binding.
    let table = fp.table.expect("instrumented plans have a table");
    for (b, block) in f.iter_blocks() {
        for inst in &block.insts {
            if let Inst::Prof(op) = inst {
                if let Some(t) = op.table() {
                    if t != table {
                        out.push(diag(
                            Code::TableBinding,
                            Some(b),
                            format!("op `{op}` references {t} but the plan owns {table}"),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// Checks that instrumenting `original` into `f` changed only profiling
/// ops and split edges (`PPP204`): every original block keeps its
/// non-profiling instructions and its terminator, with each successor
/// that is an added block followed through to that block's target, and
/// every added block splits one edge, holding only profiling ops and a
/// jump to an original block.
fn check_routine(original: &Function, f: &Function, fp: &FuncPlan) -> Vec<Diagnostic> {
    let diag = |block, message: String| Diagnostic {
        code: Code::CodeChanged,
        func: fp.func,
        func_name: f.name.clone(),
        block,
        message,
    };
    let n = original.blocks.len();
    if f.blocks.len() < n {
        let message = format!(
            "routine has {} blocks, {n} before instrumentation",
            f.blocks.len()
        );
        return vec![diag(None, message)];
    }
    let mut out = Vec::new();
    if (&f.name, f.param_count, f.reg_count, f.entry)
        != (
            &original.name,
            original.param_count,
            original.reg_count,
            original.entry,
        )
    {
        out.push(diag(
            None,
            "name, signature, register count or entry differ from the routine before \
             instrumentation"
                .to_owned(),
        ));
    }
    let mut preds = vec![0usize; f.blocks.len() - n];
    for block in &f.blocks {
        for i in 0..block.term.successor_count() {
            let s = block.term.successor(i).expect("in-range successor");
            if s.index() >= n {
                preds[s.index() - n] += 1;
            }
        }
    }
    for (b, block) in f.iter_blocks().skip(n) {
        let split = block.insts.iter().all(Inst::is_prof)
            && matches!(block.term, Terminator::Jump { target } if target.index() < n)
            && preds[b.index() - n] == 1;
        if !split {
            out.push(diag(
                Some(b),
                format!(
                    "added block {b} does not split one edge: it must be reached by one \
                     edge and hold only profiling ops and a jump to an original block"
                ),
            ));
        }
    }
    for ((b, block), before) in f.iter_blocks().zip(&original.blocks) {
        let mut term = block.term.clone();
        for i in 0..term.successor_count() {
            let s = term.successor(i).expect("in-range successor");
            if s.index() >= n {
                if let Terminator::Jump { target } = f.block(s).term {
                    term.set_successor(i, target);
                }
            }
        }
        let insts = block.insts.iter().filter(|i| !i.is_prof());
        if term != before.term || !insts.eq(before.insts.iter().filter(|i| !i.is_prof())) {
            out.push(diag(
                Some(b),
                format!("{b}'s non-profiling instructions or successors changed"),
            ));
        }
    }
    out
}

/// Checks every routine of a plan against its recorded placements
/// (`PPP201`–`PPP203`).
pub fn check_plan(plan: &ppp_core::ModulePlan) -> Vec<Diagnostic> {
    plan.funcs
        .iter()
        .flat_map(|fp| check_function(plan.module.function(fp.func), fp))
        .collect()
}

/// Checks every routine of a plan against the same routine in
/// `original`, the module it was instrumented from (`PPP204`).
pub fn check_structure(original: &Module, plan: &ppp_core::ModulePlan) -> Vec<Diagnostic> {
    plan.funcs
        .iter()
        .flat_map(|fp| {
            let f = plan.module.function(fp.func);
            check_routine(original.function(fp.func), f, fp)
        })
        .collect()
}
