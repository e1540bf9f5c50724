//! Fixture tests: every diagnostic code has a tampering that provably
//! trips it, and the untampered plans lint clean. The generic lints
//! (`PPP001`–`PPP004`) use hand-built functions; the soundness lints
//! (`PPP101`–`PPP105`) tamper a plan's edge-op lists, table, or module;
//! the conformance lints (`PPP201`–`PPP204`) desynchronize the physical
//! `Prof` instructions from the recorded placements or change the code
//! around them. Every plan lint also checks the soundness proof against
//! the path-by-path oracle in `soundness_oracle/`, on the fixtures and on
//! seeded single-defect mutants of them.

mod soundness_oracle;

use ppp_core::dag::{DagEdgeId, DagEdgeKind};
use ppp_core::plan::PlanOp;
use ppp_core::{instrument_module, normalize_module, FuncPlan, ModulePlan, ProfilerConfig};
use ppp_ir::{
    BinOp, Block, Function, FunctionBuilder, Inst, Module, ProfOp, TableId, TableKind, Terminator,
};
use ppp_lint::{lint_module, Code, LintReport};
use ppp_vm::{run, RunOptions};
use soundness_oracle::{assert_agree, lint_plan, mutants};

/// `main` loops eight times over an if-diamond (several activation and
/// iteration paths), plus a routine `idle` that is never called.
fn sample_module() -> Module {
    let mut m = Module::new();
    let mut b = FunctionBuilder::new("main", 0);
    let n = b.constant(8);
    let i = b.copy(n);
    let (hdr, body, t, e, j, exit) = (
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
        b.new_block(),
    );
    b.jump(hdr);
    b.switch_to(hdr);
    b.branch(i, body, exit);
    b.switch_to(body);
    let two = b.constant(2);
    let p = b.binary(BinOp::Rem, i, two);
    b.branch(p, t, e);
    b.switch_to(t);
    b.emit(i);
    b.jump(j);
    b.switch_to(e);
    b.jump(j);
    b.switch_to(j);
    let one = b.constant(1);
    b.binary_to(i, BinOp::Sub, i, one);
    b.jump(hdr);
    b.switch_to(exit);
    b.ret(None);
    m.add_function(b.finish());

    let mut h = FunctionBuilder::new("idle", 1);
    let x = h.param(0);
    h.emit(x);
    h.ret(Some(x));
    m.add_function(h.finish());

    normalize_module(&mut m);
    m
}

fn pp_plan() -> ModulePlan {
    instrument_module(&sample_module(), None, &ProfilerConfig::pp())
}

fn tpp_plan() -> ModulePlan {
    let m = sample_module();
    let truth = run(&m, "main", &RunOptions::default().traced()).unwrap();
    instrument_module(&m, truth.edge_profile.as_ref(), &ProfilerConfig::tpp())
}

fn ppp_plan() -> ModulePlan {
    let m = sample_module();
    let truth = run(&m, "main", &RunOptions::default().traced()).unwrap();
    instrument_module(&m, truth.edge_profile.as_ref(), &ProfilerConfig::ppp())
}

fn main_fp(plan: &mut ModulePlan) -> &mut FuncPlan {
    assert!(plan.funcs[0].instrumented, "main must be instrumented");
    &mut plan.funcs[0]
}

/// First DAG edge of `fp` whose op list contains a counting op.
fn count_edge(fp: &FuncPlan) -> DagEdgeId {
    (0..fp.dag.edge_count())
        .map(|i| DagEdgeId(i as u32))
        .find(|e| fp.edge_ops[e.index()].iter().any(|op| op.is_count()))
        .expect("an instrumented multi-block routine has a counting edge")
}

/// Rewrites a counting op's table operand.
fn retable(op: ProfOp, t: TableId) -> ProfOp {
    match op {
        ProfOp::SetR { .. } | ProfOp::AddR { .. } => op,
        ProfOp::CountR { .. } => ProfOp::CountR { table: t },
        ProfOp::CountRPlus { addend, .. } => ProfOp::CountRPlus { table: t, addend },
        ProfOp::CountConst { index, .. } => ProfOp::CountConst { table: t, index },
        ProfOp::CountRChecked { .. } => ProfOp::CountRChecked { table: t },
        ProfOp::CountRPlusChecked { addend, .. } => ProfOp::CountRPlusChecked { table: t, addend },
    }
}

/// Asserts that no finding of `report` is reported twice.
fn assert_each_once(report: &LintReport) {
    for (i, d) in report.diagnostics.iter().enumerate() {
        assert!(
            !report.diagnostics[..i].contains(d),
            "reported twice: {d:?}\n{report}"
        );
    }
}

#[test]
fn untampered_plans_are_clean() {
    let m = sample_module();
    let pp = lint_plan(&m, &pp_plan());
    assert!(pp.is_clean(), "pp plan not clean:\n{pp}");
    assert!(pp.is_empty(), "pp plan not even info-free:\n{pp}");
    let tpp = lint_plan(&m, &tpp_plan());
    assert!(tpp.is_clean(), "tpp plan not clean:\n{tpp}");
    assert!(tpp.is_empty(), "tpp plan not even info-free:\n{tpp}");
}

#[test]
fn ppp001_unreachable_block() {
    let mut b = FunctionBuilder::new("orphan", 0);
    let dead = b.new_block();
    b.ret(None);
    b.switch_to(dead);
    b.ret(None);
    let mut m = Module::new();
    m.add_function(b.finish());
    assert!(lint_module(&m).has(Code::UnreachableBlock));
}

#[test]
fn ppp002_use_before_init() {
    let mut f = Function::new("ghost", 0);
    let ghost = f.new_reg();
    f.blocks[0] = Block {
        insts: vec![Inst::Emit { src: ghost }],
        term: Terminator::Return { value: None },
    };
    let mut m = Module::new();
    m.add_function(f);
    let report = lint_module(&m);
    assert!(report.has(Code::UseBeforeInit));
    assert!(!report.is_clean(), "PPP002 is a warning");
}

#[test]
fn ppp003_dead_write() {
    let mut b = FunctionBuilder::new("dead", 0);
    let _unused = b.constant(42);
    b.ret(None);
    let mut m = Module::new();
    m.add_function(b.finish());
    assert!(lint_module(&m).has(Code::DeadWrite));
}

#[test]
fn ppp004_maybe_uninit() {
    let mut b = FunctionBuilder::new("maybe", 1);
    let p = b.param(0);
    let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
    b.branch(p, t, e);
    b.switch_to(t);
    let v = b.constant(1);
    b.jump(j);
    b.switch_to(e);
    b.jump(j);
    b.switch_to(j);
    b.emit(v);
    b.ret(None);
    let mut m = Module::new();
    m.add_function(b.finish());
    assert!(lint_module(&m).has(Code::MaybeUninit));
}

#[test]
fn ppp101_shifted_increment_breaks_numbering() {
    let mut plan = pp_plan();
    let fp = main_fp(&mut plan);
    let e = count_edge(fp);
    // Shift every path through this edge by one: some path now counts an
    // index that is not its own id.
    fp.edge_ops[e.index()].insert(0, PlanOp::Add(1));
    assert!(lint_plan(&sample_module(), &plan).has(Code::PathNumbering));
}

#[test]
fn ppp102_shrunken_table_breaks_bounds() {
    let mut plan = pp_plan();
    let table = main_fp(&mut plan).table.unwrap();
    assert!(main_fp(&mut plan).n_paths > 1);
    plan.module.tables[table.index()].kind = TableKind::Array { size: 1 };
    assert!(lint_plan(&sample_module(), &plan).has(Code::CounterBounds));
}

#[test]
fn ppp103_dropped_count_breaks_multiplicity() {
    let mut plan = pp_plan();
    let fp = main_fp(&mut plan);
    let e = count_edge(fp);
    fp.edge_ops[e.index()].retain(|op| !op.is_count());
    assert!(lint_plan(&sample_module(), &plan).has(Code::CountMultiplicity));
}

#[test]
fn ppp104_unset_iteration_path_leaks_register() {
    let mut plan = pp_plan();
    let fp = main_fp(&mut plan);
    // Turn the ENTRY-dummy initialization `r = c` into `r += c`: iteration
    // paths now count an index that depends on the stale register.
    let tampered = (0..fp.dag.edge_count())
        .map(|i| DagEdgeId(i as u32))
        .find(|&e| {
            matches!(fp.dag.edge(e).kind, DagEdgeKind::EntryDummy { .. })
                && fp.edge_ops[e.index()]
                    .iter()
                    .any(|op| matches!(op, PlanOp::Set(_)))
        })
        .expect("a loop header has an initializing ENTRY dummy");
    for op in &mut fp.edge_ops[tampered.index()] {
        if let PlanOp::Set(v) = *op {
            *op = PlanOp::Add(v);
        }
    }
    assert!(lint_plan(&sample_module(), &plan).has(Code::RegisterLeak));
}

#[test]
fn ppp105_prof_in_uninstrumented_routine() {
    let mut plan = tpp_plan();
    let idle = plan
        .funcs
        .iter()
        .find(|fp| !fp.instrumented)
        .expect("idle is never executed, so TPP skips it")
        .func;
    plan.module.function_mut(idle).blocks[0]
        .insts
        .push(Inst::Prof(ProfOp::CountConst {
            table: TableId(0),
            index: 0,
        }));
    assert!(lint_plan(&sample_module(), &plan).has(Code::StrayInstrumentation));
}

#[test]
fn ppp201_displaced_op_breaks_placement() {
    let mut plan = pp_plan();
    let fid = main_fp(&mut plan).func;
    let f = plan.module.function_mut(fid);
    // Move an appended op one slot earlier; the multiset is untouched, so
    // only the placement check can catch this.
    let block = f
        .blocks
        .iter_mut()
        .find(|b| {
            b.insts.len() >= 2
                && matches!(b.insts.last(), Some(Inst::Prof(_)))
                && !matches!(b.insts[b.insts.len() - 2], Inst::Prof(_))
        })
        .expect("some block has body instructions before its appended op");
    let n = block.insts.len();
    block.insts.swap(n - 1, n - 2);
    let report = lint_plan(&sample_module(), &plan);
    assert!(report.has(Code::PlacementMismatch));
    assert!(!report.has(Code::OpMultisetMismatch));
}

#[test]
fn ppp202_unrecorded_op_breaks_multiset() {
    let mut plan = pp_plan();
    let fp = main_fp(&mut plan);
    let placement = fp
        .placements
        .iter_mut()
        .find(|p| !p.ops.is_empty())
        .expect("instrumented main has placements");
    placement.ops.pop();
    assert!(lint_plan(&sample_module(), &plan).has(Code::OpMultisetMismatch));
}

#[test]
fn ppp203_foreign_table_reference() {
    let mut plan = pp_plan();
    let fid = main_fp(&mut plan).func;
    let own = main_fp(&mut plan).table.unwrap();
    let foreign = TableId((own.index() as u32) + 1);
    assert!(
        foreign.index() < plan.module.tables.len(),
        "idle owns a second table"
    );
    let f = plan.module.function_mut(fid);
    let op = f
        .blocks
        .iter_mut()
        .flat_map(|b| b.insts.iter_mut())
        .find_map(|i| match i {
            Inst::Prof(op) if op.is_count() => Some(op),
            _ => None,
        })
        .expect("main contains a counting op");
    *op = retable(*op, foreign);
    assert!(lint_plan(&sample_module(), &plan).has(Code::TableBinding));
}

#[test]
fn ppp204_changed_code_breaks_structure() {
    let mut plan = pp_plan();
    assert!(!lint_plan(&sample_module(), &plan).has(Code::CodeChanged));
    let fid = main_fp(&mut plan).func;
    let f = plan.module.function_mut(fid);
    let (b, i) = f
        .iter_blocks()
        .find_map(|(b, block)| {
            let i = block.insts.iter().position(|i| !i.is_prof())?;
            Some((b, i))
        })
        .expect("main has program code");
    f.block_mut(b).insts.remove(i);
    let report = lint_plan(&sample_module(), &plan);
    let changed: Vec<_> = report
        .diagnostics
        .iter()
        .filter(|d| d.code == Code::CodeChanged)
        .collect();
    assert_eq!(changed.len(), 1, "{report}");
    assert_eq!(changed[0].block, Some(b), "names the changed block");

    // A branch retargeted to another original block.
    let mut plan = pp_plan();
    let f = plan.module.function_mut(fid);
    let (b, _) = f
        .iter_blocks()
        .find(|(_, block)| matches!(block.term, Terminator::Branch { .. }))
        .expect("main branches");
    let term = &mut f.block_mut(b).term;
    let other = term.successor(1).expect("a branch has two successors");
    term.set_successor(0, other);
    let report = lint_plan(&sample_module(), &plan);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::CodeChanged && d.block == Some(b)),
        "{report}"
    );

    // An added block that splits no edge.
    let mut plan = pp_plan();
    let f = plan.module.function_mut(fid);
    f.add_block(Block::new(Terminator::Return { value: None }));
    let report = lint_plan(&sample_module(), &plan);
    assert!(report.has(Code::CodeChanged), "{report}");
    assert!(report
        .diagnostics
        .iter()
        .all(|d| d.code == Code::CodeChanged));
}

#[test]
fn a_defect_is_reported_once_however_many_exit_edges_it_reaches() {
    // A count right out of ENTRY, where the loop's iteration paths still
    // hold a stale register and its activation paths have yet to count:
    // each defect then reaches EXIT by the return and by the back edge.
    for (dummy, code) in [(true, Code::RegisterLeak), (false, Code::CountMultiplicity)] {
        let mut plan = pp_plan();
        let fp = main_fp(&mut plan);
        let e = *fp
            .dag
            .out_edges(fp.dag.entry)
            .iter()
            .find(|&&e| matches!(fp.dag.edge(e).kind, DagEdgeKind::EntryDummy { .. }) == dummy)
            .expect("ENTRY has a real edge and a loop-header dummy");
        let ops = &mut fp.edge_ops[e.index()];
        ops.insert(0, PlanOp::Count);
        ops.insert(0, PlanOp::Count);
        let report = lint_plan(&sample_module(), &plan);
        let found = report.diagnostics.iter().filter(|d| d.code == code);
        assert_eq!(found.count(), 1, "{report}");
        assert_each_once(&report);
    }
}

/// `chain` runs through `k` if-diamonds in a row: `2^k` paths.
fn chain_module(k: usize) -> Module {
    let mut b = FunctionBuilder::new("chain", 1);
    let p = b.param(0);
    for _ in 0..k {
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(p, t, e);
        b.switch_to(t);
        b.emit(p);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
    }
    b.ret(None);
    let mut m = Module::new();
    m.add_function(b.finish());
    normalize_module(&mut m);
    m
}

#[test]
fn a_node_past_the_state_limit_is_reported_and_the_rest_judged() {
    let mut plan = instrument_module(&chain_module(8), None, &ProfilerConfig::pp());
    let fp = main_fp(&mut plan);
    assert_eq!(fp.n_paths, 256);
    // Shift the register by a distinct power of two on one arm of every
    // diamond. The first diamond's arms reset the register and the last
    // one's arms count, but the six shifts between them give the prefixes
    // reaching the last branch 64 different offsets, past the 16 states
    // the proof follows out of one node.
    let mut shift = 1 << 10;
    for &v in fp.dag.topo() {
        let outs = fp.dag.out_edges(v);
        if outs.len() == 2 {
            fp.edge_ops[outs[0].index()].push(PlanOp::Add(shift));
            shift <<= 1;
        }
    }
    assert_eq!(shift, 1 << 18, "eight diamonds");
    let report = ppp_lint::lint_plan(&plan);
    assert!(
        report
            .diagnostics
            .iter()
            .any(|d| d.code == Code::PathNumbering && d.message.contains("not judged")),
        "{report}"
    );
    // The states kept are still judged at EXIT: shifted paths count
    // outside the 256-entry table.
    assert!(report.has(Code::CounterBounds), "{report}");
    assert_each_once(&report);
}

#[test]
fn proof_agrees_with_the_oracle_on_seeded_mutants() {
    let mut mutated = 0;
    let mut codes = std::collections::BTreeSet::new();
    for (i, plan) in [pp_plan(), tpp_plan(), ppp_plan()].iter().enumerate() {
        assert!(assert_agree(plan, "untampered").codes.is_empty());
        for (case, m) in mutants(plan, 17 + i as u64, 12) {
            codes.extend(assert_agree(&m, &case).codes);
            mutated += 1;
        }
    }
    assert!(mutated >= 100, "only {mutated} mutants");
    for code in [
        Code::PathNumbering,
        Code::CounterBounds,
        Code::CountMultiplicity,
        Code::RegisterLeak,
    ] {
        assert!(codes.contains(&code), "no mutant trips {code:?}: {codes:?}");
    }
}
