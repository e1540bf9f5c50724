//! Differential harness for the soundness proof.
//!
//! [`simulate`] is the path-by-path checker the proof replaced, kept
//! here as its oracle and run uncapped: it decodes every counted path id
//! of a routine and executes the plan's op lists along the path. Because
//! its cost grows with the path count, it stands aside (`None`) for
//! routines above [`MAX_ORACLE_PATHS`].
//!
//! [`lint_plan`] lints a plan the way callers do, but first asserts
//! that the proof reports the same set of codes as the oracle for every
//! routine, so each call site in a test is a differential check.
//! [`mutants`] makes the seeded single-defect variants of a plan that
//! the agreement is also checked on.

// Each test crate that includes this module uses a different part of it.
#![allow(dead_code)]

use ppp_core::dag::{DagEdgeId, DagEdgeKind};
use ppp_core::numbering::decode_path;
use ppp_core::plan::{simulate as run_ops, PlanOp};
use ppp_core::{FuncPlan, ModulePlan};
use ppp_ir::{Inst, Module, ProfOp, TableKind};
use ppp_lint::{soundness, Code, LintReport, ModuleLint};
use ppp_vm::SplitMix64;
use std::collections::BTreeSet;

/// Largest path count the oracle simulates.
pub const MAX_ORACLE_PATHS: u64 = 50_000;

/// Arbitrary distinct stale path-register values used to probe whether an
/// iteration path's count depends on its incoming register state.
const STALE_PROBES: [i64; 2] = [0x5CA1E, -0x7EAF];

/// The codes the path-by-path simulation finds in one routine, or `None`
/// when it has more than [`MAX_ORACLE_PATHS`] paths.
pub fn simulate(module: &Module, fp: &FuncPlan) -> Option<BTreeSet<Code>> {
    let f = module.function(fp.func);
    let mut codes = BTreeSet::new();
    if !fp.instrumented {
        if f.prof_inst_count() > 0 {
            codes.insert(Code::StrayInstrumentation);
        }
        return Some(codes);
    }
    if fp.n_paths > MAX_ORACLE_PATHS {
        return None;
    }
    let table = fp.table.expect("instrumented plans have a table");
    let array_size = match module.table(table).kind {
        TableKind::Array { size } => Some(size),
        TableKind::Hash { .. } => None,
    };
    if let Some(size) = array_size {
        for block in &f.blocks {
            for inst in &block.insts {
                if let Inst::Prof(ProfOp::CountConst { table: t, index }) = *inst {
                    if t == table && (index < 0 || index as u64 >= size) {
                        codes.insert(Code::CounterBounds);
                    }
                }
            }
        }
    }
    if fp.dag.entry == fp.dag.exit {
        let counts: Vec<ProfOp> = f
            .blocks
            .iter()
            .flat_map(|b| b.insts.iter())
            .filter_map(|i| match i {
                Inst::Prof(op) if op.is_count() => Some(*op),
                _ => None,
            })
            .collect();
        if counts != [ProfOp::CountConst { table, index: 0 }] {
            codes.insert(Code::CountMultiplicity);
        }
        return Some(codes);
    }
    let numbering = fp.numbering.as_ref().expect("instrumented plans number");
    for p in 0..fp.n_paths {
        let Some(edges) = decode_path(&fp.dag, numbering, &fp.cold, p) else {
            codes.insert(Code::PathNumbering);
            continue;
        };
        let lists: Vec<&[PlanOp]> = edges
            .iter()
            .map(|&e| fp.edge_ops[e.index()].as_slice())
            .collect();
        let iteration_path = edges
            .first()
            .is_some_and(|&e| matches!(fp.dag.edge(e).kind, DagEdgeKind::EntryDummy { .. }));
        // Activation-entry paths run with the VM's guaranteed r = 0;
        // iteration paths run with whatever the previous path left.
        let r_ins: &[i64] = if iteration_path { &STALE_PROBES } else { &[0] };
        let results: Vec<Vec<i64>> = r_ins.iter().map(|&r| run_ops(&lists, r)).collect();
        if iteration_path && results[0] != results[1] {
            codes.insert(Code::RegisterLeak);
            continue;
        }
        let [idx] = results[0][..] else {
            codes.insert(Code::CountMultiplicity);
            continue;
        };
        if idx != p as i64 {
            codes.insert(Code::PathNumbering);
        }
        if array_size.is_some_and(|size| idx < 0 || idx as u64 >= size) {
            codes.insert(Code::CounterBounds);
        }
    }
    Some(codes)
}

/// What [`assert_agree`] compared.
#[derive(Default, Debug)]
pub struct Agreement {
    /// Routines the oracle simulated.
    pub routines: usize,
    /// Paths it simulated in them.
    pub paths: u64,
    /// Codes found in them.
    pub codes: BTreeSet<Code>,
}

/// Asserts that the proof and the oracle find the same codes in every
/// routine the oracle simulates.
pub fn assert_agree(plan: &ModulePlan, case: &str) -> Agreement {
    let mut seen = Agreement::default();
    for fp in &plan.funcs {
        let Some(expected) = simulate(&plan.module, fp) else {
            continue;
        };
        let found = soundness::check_function(&plan.module, fp);
        let codes: BTreeSet<Code> = found.iter().map(|d| d.code).collect();
        let name = &plan.module.function(fp.func).name;
        assert_eq!(
            codes, expected,
            "{case}: {name}: proof vs simulation; the proof said {found:#?}"
        );
        seen.routines += 1;
        seen.paths += if fp.instrumented { fp.n_paths } else { 0 };
        seen.codes.extend(codes);
    }
    seen
}

/// The full lint of `plan`, instrumented from `original`
/// ([`ModuleLint::plan`]), after checking the proof against the oracle.
pub fn lint_plan(original: &Module, plan: &ModulePlan) -> LintReport {
    assert_agree(plan, "plan");
    ModuleLint::new(original).plan(plan)
}

/// Seeded single-defect variants of `plan`, each named: one `Add` or
/// `Set` constant changed, one count dropped or duplicated, or one `Set`
/// moved to just after a count. Every defect sits on an edge of a
/// counted path of an instrumented routine.
pub fn mutants(plan: &ModulePlan, seed: u64, per_kind: usize) -> Vec<(String, ModulePlan)> {
    let mut rng = SplitMix64::new(seed);
    // (routine, edge, position, op) of every op on a counted path.
    let mut sites: Vec<(usize, DagEdgeId, usize, PlanOp)> = Vec::new();
    for (i, fp) in plan.funcs.iter().enumerate() {
        let Some(numbering) = fp.numbering.as_ref().filter(|_| fp.instrumented) else {
            continue;
        };
        for e in (0..fp.dag.edge_count()).map(|e| DagEdgeId(e as u32)) {
            if numbering.on_counted_path(&fp.dag, e, &fp.cold) {
                for (k, &op) in fp.edge_ops[e.index()].iter().enumerate() {
                    sites.push((i, e, k, op));
                }
            }
        }
    }
    let counts: Vec<_> = sites.iter().filter(|s| s.3.is_count()).copied().collect();
    let mut pick = |of: &[(usize, DagEdgeId, usize, PlanOp)]| {
        (!of.is_empty()).then(|| of[rng.below(of.len() as i64) as usize])
    };
    let adds: Vec<_> = sites
        .iter()
        .filter(|s| matches!(s.3, PlanOp::Add(_)))
        .copied()
        .collect();
    let sets: Vec<_> = sites
        .iter()
        .filter(|s| matches!(s.3, PlanOp::Set(_)))
        .copied()
        .collect();

    let mut out = Vec::new();
    for _ in 0..per_kind {
        for kind in ["add", "set", "drop", "dup", "move"] {
            let of = match kind {
                "add" => &adds,
                "set" => &sets,
                "move" => &sets,
                _ => &counts,
            };
            let Some((i, e, k, op)) = pick(of) else {
                continue;
            };
            let mut m = plan.clone();
            let fp = &mut m.funcs[i];
            match (kind, op) {
                ("add", PlanOp::Add(c)) | ("set", PlanOp::Set(c)) => {
                    let delta = 1 + (k as i64 + c).rem_euclid(3);
                    fp.edge_ops[e.index()][k] = match op {
                        PlanOp::Add(_) => PlanOp::Add(c + delta),
                        _ => PlanOp::Set(c + delta),
                    };
                }
                ("drop", _) => {
                    fp.edge_ops[e.index()].remove(k);
                }
                ("dup", _) => fp.edge_ops[e.index()].insert(k, op),
                ("move", _) => {
                    let Some((_, to, at, _)) = pick(
                        &counts
                            .iter()
                            .filter(|s| s.0 == i)
                            .copied()
                            .collect::<Vec<_>>(),
                    ) else {
                        continue;
                    };
                    fp.edge_ops[e.index()].remove(k);
                    let at = if to == e && at > k { at - 1 } else { at };
                    fp.edge_ops[to.index()].insert(at + 1, op);
                }
                _ => unreachable!("sites are filtered by kind"),
            }
            let name = m.module.function(fp.func).name.clone();
            out.push((format!("{kind} {op:?} at {name}:{} #{k}", e.0), m));
        }
    }
    out
}
