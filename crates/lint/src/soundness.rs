//! Instrumentation-soundness proof (`PPP101`–`PPP105`).
//!
//! Proves, in one pass over the profiling DAG in topological order, the
//! Ball–Larus contract of an instrumented routine: every counted path
//! executes exactly one counting op, at its own id in `[0, N)`, inside its
//! counter table, without reading the stale path register an iteration
//! path inherits from the previous one.
//!
//! The id of a path is the sum `B` of the numbering's `Val` over its
//! edges, so the proof first checks that the numbering is a bijection:
//! at every node the values of the counted out-edges must tile
//! `[0, NumPaths(node))` (`PPP101`). It then gives each node the state
//! every path reaching it shares, relative to the `B` of its prefix:
//!
//! - *open* — no count yet, with the path register `r = B + φ`, or
//!   `r = stale + B + φ` on iteration paths (those entered by an
//!   `ENTRY → header` dummy) before any `r = c`; activation paths start
//!   at `φ = 0` because the VM zeroes `r` on entry;
//! - *counted* — one count executed, at `index = B + ψ`.
//!
//! A count that reads a stale register fails the class (`PPP104`), as
//! does a second count (`PPP103`); an edge into `EXIT` must arrive
//! counted (`PPP103`), with `ψ = 0` (`PPP101`), at an index inside an
//! array table (`PPP102`). In a sound plan every path reaching a node
//! shares one state: two prefixes reaching it in different states would,
//! followed by any common suffix, break the contract for one of them.
//! The one exception is harmless: a counted iteration path may still hold
//! its stale register, which would matter only to a second count, so a
//! node of a sound plan sees at most two states. A node that receives
//! more keeps them apart (each with the range of ids its paths can end
//! at), so an unsound routine gets the same codes a path-by-path
//! simulation would find, however many paths it has, as long as no node
//! receives more than 16 states. A node past that limit is itself
//! reported (`PPP101`, naming the node) and its extra states are not
//! followed; every other state is still judged. Each finding is reported
//! once, however many `EXIT` edges its paths reach.
//! Routines the plan leaves uninstrumented must contain no profiling
//! instructions at all (`PPP105`).

use crate::diag::{Code, Diagnostic};
use ppp_core::dag::{DagEdgeId, DagEdgeKind};
use ppp_core::numbering::Numbering;
use ppp_core::plan::PlanOp;
use ppp_core::FuncPlan;
use ppp_ir::{BlockId, Inst, Module, ProfOp, TableKind};

/// Diagnostics emitted per code per routine, so one systematic defect
/// cannot flood the report.
const MAX_DIAGS_PER_CODE: usize = 8;

/// Distinct states the proof follows out of one node. A sound plan has
/// at most two; a defect adds a few. Past the limit the node gets a
/// `PPP101` of its own and the extra states are dropped, so the code set
/// matches a path-by-path simulation only while no node exceeds it.
const MAX_STATES_PER_NODE: usize = 16;

/// The path register, relative to the id prefix `B` of the path so far.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Reg {
    /// `r = B + φ`.
    Rel(i64),
    /// `r = stale + B + φ` (an iteration path before its `r = c`).
    Stale(i64),
    /// `r = c` on paths whose prefixes differ in `B`.
    Const(i64),
}

impl Reg {
    fn add(self, c: i64) -> Reg {
        match self {
            Reg::Rel(k) => Reg::Rel(k.wrapping_add(c)),
            Reg::Stale(k) => Reg::Stale(k.wrapping_add(c)),
            Reg::Const(k) => Reg::Const(k.wrapping_add(c)),
        }
    }
}

/// The counted index, relative to the same prefix.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Index {
    /// `index = B + ψ`.
    Rel(i64),
    /// `index = c` on paths whose prefixes differ in `B`.
    Const(i64),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Counts {
    Zero,
    One(Index),
    /// Several counts while the register is still stale: a later count
    /// may yet read it (`PPP104` takes precedence over `PPP103`).
    Many,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum State {
    Open {
        reg: Reg,
        counts: Counts,
    },
    /// Unsound whatever follows, for `code`, first seen on edge `at`.
    Failed {
        code: Code,
        at: DagEdgeId,
    },
}

impl State {
    fn merges_with(self, other: State) -> bool {
        match (self, other) {
            (State::Failed { code: a, .. }, State::Failed { code: b, .. }) => a == b,
            _ => self == other,
        }
    }
}

/// The paths reaching a node in one state, with the range `[lo, hi]` of
/// their id prefixes (both ends are reached by some path).
#[derive(Clone, Copy, Debug)]
struct Class {
    state: State,
    lo: i64,
    hi: i64,
}

impl Class {
    /// The state a path starts in on an edge out of `ENTRY`.
    fn start(kind: DagEdgeKind) -> Self {
        let reg = match kind {
            DagEdgeKind::EntryDummy { .. } => Reg::Stale(0),
            _ => Reg::Rel(0),
        };
        Class {
            state: State::Open {
                reg,
                counts: Counts::Zero,
            },
            lo: 0,
            hi: 0,
        }
    }

    /// The class after crossing edge `e`, with op list `ops` and value
    /// `val`.
    fn cross(mut self, ops: &[PlanOp], e: DagEdgeId, val: i64) -> Self {
        for &op in ops {
            let State::Open { reg, counts } = &mut self.state else {
                break;
            };
            let index = match op {
                PlanOp::Set(c) => {
                    *reg = Reg::Const(c);
                    continue;
                }
                PlanOp::Add(c) => {
                    *reg = reg.add(c);
                    continue;
                }
                PlanOp::CountConst(c) => Index::Const(c),
                PlanOp::Count | PlanOp::CountPlus(_) => {
                    let a = if let PlanOp::CountPlus(a) = op { a } else { 0 };
                    match *reg {
                        Reg::Rel(k) => Index::Rel(k.wrapping_add(a)),
                        Reg::Const(c) => Index::Const(c.wrapping_add(a)),
                        Reg::Stale(_) => {
                            self.state = State::Failed {
                                code: Code::RegisterLeak,
                                at: e,
                            };
                            break;
                        }
                    }
                }
            };
            *counts = match counts {
                Counts::Zero => Counts::One(index),
                _ => Counts::Many,
            };
        }
        self.lo = self.lo.wrapping_add(val);
        self.hi = self.hi.wrapping_add(val);
        if let State::Open { reg, counts } = &mut self.state {
            *reg = match *reg {
                Reg::Const(c) if self.lo == self.hi => Reg::Rel(c.wrapping_sub(self.lo)),
                Reg::Const(c) => Reg::Const(c),
                r => r.add(val.wrapping_neg()),
            };
            if let Counts::One(index) = counts {
                *index = match *index {
                    Index::Rel(k) => Index::Rel(k.wrapping_sub(val)),
                    Index::Const(c) if self.lo == self.hi => Index::Rel(c.wrapping_sub(self.lo)),
                    i => i,
                };
            }
            // Once counted, the register matters only while it is stale
            // (a later count reading it leaks); past that, any later
            // count is a second one.
            if *counts != Counts::Zero {
                *reg = match *reg {
                    Reg::Stale(_) => Reg::Stale(0),
                    _ if *counts == Counts::Many => {
                        self.state = State::Failed {
                            code: Code::CountMultiplicity,
                            at: e,
                        };
                        return self;
                    }
                    _ => Reg::Rel(0),
                };
            }
        }
        self
    }
}

/// One routine's findings, at most [`MAX_DIAGS_PER_CODE`] per code from
/// the proof, each once.
struct Findings<'a> {
    fp: &'a FuncPlan,
    name: &'a str,
    out: Vec<Diagnostic>,
}

impl Findings<'_> {
    fn diag(&self, code: Code, block: Option<BlockId>, message: String) -> Diagnostic {
        Diagnostic {
            code,
            func: self.fp.func,
            func_name: self.name.to_owned(),
            block,
            message,
        }
    }

    /// Reports a finding unless the same one is already reported or its
    /// code has used up its budget.
    fn report(&mut self, code: Code, block: BlockId, message: impl FnOnce() -> String) {
        if self.out.iter().filter(|d| d.code == code).count() < MAX_DIAGS_PER_CODE {
            let d = self.diag(code, Some(block), message());
            if !self.out.contains(&d) {
                self.out.push(d);
            }
        }
    }
}

/// `from→to` of DAG edge `e` of `fp`.
fn edge_name(fp: &FuncPlan, e: DagEdgeId) -> String {
    let edge = fp.dag.edge(e);
    format!("{}→{}", edge.from, edge.to)
}

/// Checks one routine's plan against the instrumentation semantics.
pub fn check_function(module: &Module, fp: &FuncPlan) -> Vec<Diagnostic> {
    let f = module.function(fp.func);
    let mut found = Findings {
        fp,
        name: &f.name,
        out: Vec::new(),
    };

    if !fp.instrumented {
        let profs = f.prof_inst_count();
        if profs > 0 {
            let d = found.diag(
                Code::StrayInstrumentation,
                None,
                format!("routine is planned uninstrumented but contains {profs} profiling op(s)"),
            );
            found.out.push(d);
        }
        return found.out;
    }

    let table = fp.table.expect("instrumented plans have a table");
    let array_size = match module.table(table).kind {
        TableKind::Array { size } => Some(size),
        TableKind::Hash { .. } => None,
    };

    // Static bound check on constant-index counts, wherever they sit
    // (the proof below covers the counts on counted paths).
    if let Some(size) = array_size {
        for (b, block) in f.iter_blocks() {
            for inst in &block.insts {
                if let Inst::Prof(ProfOp::CountConst { table: t, index }) = *inst {
                    if t == table && (index < 0 || index as u64 >= size) {
                        let d = found.diag(
                            Code::CounterBounds,
                            Some(b),
                            format!("constant count index {index} outside table of size {size}"),
                        );
                        found.out.push(d);
                    }
                }
            }
        }
    }

    // Single-block routine: one empty path, counted by a constant op in
    // the body; there are no edges to prove.
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
            let d = found.diag(
                Code::CountMultiplicity,
                None,
                format!(
                    "single-block routine must count its one path exactly once at index 0, \
                     found {counts:?}"
                ),
            );
            found.out.push(d);
        }
        return found.out;
    }

    let numbering = fp
        .numbering
        .as_ref()
        .expect("instrumented plans have a numbering");
    check_numbering(numbering, &mut found);
    prove(numbering, array_size, &mut found);
    found.out
}

/// Checks that the id sums biject onto `[0, N)`: at every node the
/// values of the counted out-edges tile `[0, NumPaths(node))`.
fn check_numbering(num: &Numbering, found: &mut Findings<'_>) {
    let fp = found.fp;
    let (dag, cold) = (&fp.dag, &fp.cold);
    let mut tiles: Vec<(i64, u64)> = Vec::new();
    for &v in dag.topo() {
        if v == dag.exit || num.paths_to[v.index()] == 0 {
            continue;
        }
        tiles.clear();
        tiles.extend(
            dag.out_edges(v)
                .iter()
                .filter(|&&e| num.on_counted_path(dag, e, cold))
                .map(|&e| (num.val[e.index()], num.paths_from[dag.edge(e).to.index()])),
        );
        tiles.sort_unstable();
        let mut next = 0u64;
        let tiled = tiles.iter().all(|&(val, n)| {
            let at = val >= 0 && val as u64 == next;
            next = next.saturating_add(n);
            at
        });
        if !tiled || next != num.paths_from[v.index()] {
            found.report(Code::PathNumbering, v, || {
                format!(
                    "the values of the out-edges of {v} do not tile [0, {})",
                    num.paths_from[v.index()]
                )
            });
        }
    }
    let n = num.paths_from[dag.entry.index()];
    if num.paths_from[dag.exit.index()] != 1 || n != fp.n_paths {
        found.report(Code::PathNumbering, dag.entry, || {
            format!(
                "{n} paths number from ENTRY, the plan counts N = {}",
                fp.n_paths
            )
        });
    }
}

/// Gives every node the states of the paths reaching it, in topological
/// order, and judges each state arriving at `EXIT`.
fn prove(num: &Numbering, array_size: Option<u64>, found: &mut Findings<'_>) {
    let fp = found.fp;
    let dag = &fp.dag;
    let mut states: Vec<Vec<Class>> = vec![Vec::new(); dag.block_count()];
    for &v in dag.topo() {
        let here = std::mem::take(&mut states[v.index()]);
        for &e in dag.out_edges(v) {
            if !num.on_counted_path(dag, e, &fp.cold) {
                continue;
            }
            let edge = dag.edge(e);
            let start = [Class::start(edge.kind)];
            let from = if v == dag.entry { &start[..] } else { &here };
            for &class in from {
                let class = class.cross(&fp.edge_ops[e.index()], e, num.val[e.index()]);
                if edge.to == dag.exit {
                    judge(class, e, array_size, found);
                    continue;
                }
                let set = &mut states[edge.to.index()];
                if let Some(same) = set.iter_mut().find(|c| c.state.merges_with(class.state)) {
                    same.lo = same.lo.min(class.lo);
                    same.hi = same.hi.max(class.hi);
                } else if set.len() < MAX_STATES_PER_NODE {
                    set.push(class);
                } else {
                    found.report(Code::PathNumbering, edge.to, || {
                        format!(
                            "more than {MAX_STATES_PER_NODE} path-register states reach {}, \
                             where a sound plan has at most 2; paths in the states past \
                             the limit are not judged",
                            edge.to
                        )
                    });
                }
            }
        }
    }
}

/// Judges the paths of `class` as they enter `EXIT` by edge `e`.
fn judge(class: Class, e: DagEdgeId, array_size: Option<u64>, found: &mut Findings<'_>) {
    let fp = found.fp;
    let from = fp.dag.edge(e).from;
    let (lo, hi) = (class.lo, class.hi);
    let index = match class.state {
        State::Failed { code, at } => {
            let what = if code == Code::RegisterLeak {
                "reads the stale path register of an iteration path"
            } else {
                "is a second count on the same path"
            };
            found.report(code, fp.dag.edge(at).from, || {
                format!("the count on edge {} {what}", edge_name(fp, at))
            });
            return;
        }
        State::Open {
            counts: Counts::One(index),
            ..
        } => index,
        State::Open { counts, .. } => {
            let n = if counts == Counts::Zero {
                "no"
            } else {
                "several"
            };
            found.report(Code::CountMultiplicity, from, || {
                format!(
                    "paths entering EXIT by edge {} execute {n} counts",
                    edge_name(fp, e)
                )
            });
            return;
        }
    };
    // The indices the class's paths count at, ends included.
    let (first, last) = match index {
        Index::Rel(psi) => {
            if psi != 0 {
                found.report(Code::PathNumbering, from, || {
                    format!(
                        "paths entering EXIT by edge {} count at index − id = {psi}, not 0",
                        edge_name(fp, e)
                    )
                });
            }
            (
                i128::from(lo) + i128::from(psi),
                i128::from(hi) + i128::from(psi),
            )
        }
        Index::Const(c) => {
            if lo != c || hi != c {
                found.report(Code::PathNumbering, from, || {
                    format!(
                        "paths with ids {lo}..={hi} entering EXIT by edge {} all count at {c}",
                        edge_name(fp, e)
                    )
                });
            }
            (i128::from(c), i128::from(c))
        }
    };
    if let Some(size) = array_size {
        if first < 0 || last >= i128::from(size) {
            found.report(Code::CounterBounds, from, || {
                format!(
                    "paths entering EXIT by edge {} count at indices {first}..={last}, \
                     outside table of size {size}",
                    edge_name(fp, e)
                )
            });
        }
    }
}

/// Checks every routine of a plan.
pub fn check_plan(plan: &ppp_core::ModulePlan) -> Vec<Diagnostic> {
    plan.funcs
        .iter()
        .flat_map(|fp| check_function(&plan.module, fp))
        .collect()
}
