//! Execution events and the sinks that consume them.
//!
//! The interpreter reports three events: a function is entered, a CFG
//! edge is taken, and a function returns. A [`Sink`] consumes them. The
//! interpreter loop is generic over its sink, so the untraced run (`()`),
//! the exact [`Tracer`], the [`EdgeCounter`] and [`PlanConsumers`] each
//! get their own monomorphised loop with no
//! dynamic dispatch on the hot path.
//!
//! [`PlanConsumers`] replay instrumentation plans against the walk
//! of the *uninstrumented* module. Instrumentation only adds `Prof` ops
//! at block starts and ends and in split-edge blocks (lint rule PPP204
//! checks that), so the instrumented run takes the same walk; every
//! counter it bumps, and every unit of cost and step it adds, follows
//! from the walk and the plan. One interpretation of a module can thus
//! stand in for the instrumented runs of many plans.

use crate::cost::CostModel;
use crate::machine::RunResult;
use crate::storage::ProfileStore;
use crate::trace::{PathCursor, Tracer};
use ppp_ir::{BlockId, EdgeRef, FuncId, Module, ModuleEdgeProfile, ProfOp, Terminator};

/// A consumer of the interpreter's control-flow events.
pub trait Sink {
    /// Per-activation state, held in the interpreter's frame.
    type Cursor: Copy;

    /// `func` was entered at its entry block `entry`.
    fn enter(&mut self, func: FuncId, entry: BlockId) -> Self::Cursor;

    /// The running activation of `func` took edge `e` to block `target`.
    /// Fires after the source block's instructions (and the calls among
    /// them) have run.
    fn edge(&mut self, func: FuncId, cursor: &mut Self::Cursor, e: EdgeRef, target: BlockId);

    /// The running activation of `func` returned from block `block`.
    fn exit(&mut self, func: FuncId, cursor: Self::Cursor, block: BlockId);
}

/// The untraced run observes nothing.
impl Sink for () {
    type Cursor = ();

    #[inline(always)]
    fn enter(&mut self, _: FuncId, _: BlockId) {}

    #[inline(always)]
    fn edge(&mut self, _: FuncId, _: &mut (), _: EdgeRef, _: BlockId) {}

    #[inline(always)]
    fn exit(&mut self, _: FuncId, _: (), _: BlockId) {}
}

impl Sink for Tracer {
    type Cursor = PathCursor;

    #[inline]
    fn enter(&mut self, func: FuncId, entry: BlockId) -> PathCursor {
        self.enter_function(func, entry)
    }

    #[inline]
    fn edge(&mut self, func: FuncId, cursor: &mut PathCursor, e: EdgeRef, target: BlockId) {
        self.take_edge(func, cursor, e, target);
    }

    #[inline]
    fn exit(&mut self, func: FuncId, cursor: PathCursor, _: BlockId) {
        self.exit_function(func, cursor);
    }
}

/// Counts function entries, blocks and edges. The [`Tracer`] counts its
/// cumulative and delta edge profiles with it; on its own it is the
/// tracer without a path trie, for callers that need edges only.
#[derive(Clone, Debug)]
pub struct EdgeCounter {
    edges: ModuleEdgeProfile,
}

impl EdgeCounter {
    /// Creates a counter shaped for `module`.
    pub fn new(module: &Module) -> Self {
        Self {
            edges: ModuleEdgeProfile::zeroed(module),
        }
    }

    /// The edge profile counted so far; equal to the edge profile a
    /// fault-free [`Tracer`] records over the same run.
    pub fn finish(self) -> ModuleEdgeProfile {
        self.edges
    }

    /// The edge profile counted since the last take; counting restarts
    /// from zero.
    pub(crate) fn take(&mut self) -> ModuleEdgeProfile {
        let edges = self.edges.clone();
        for f in &mut self.edges.funcs {
            f.zero();
        }
        edges
    }
}

impl Sink for EdgeCounter {
    type Cursor = ();

    #[inline]
    fn enter(&mut self, func: FuncId, entry: BlockId) {
        let p = self.edges.func_mut(func);
        p.bump_entry();
        p.bump_block(entry);
    }

    #[inline]
    fn edge(&mut self, func: FuncId, _: &mut (), e: EdgeRef, target: BlockId) {
        let p = self.edges.func_mut(func);
        p.bump_edge(e);
        p.bump_block(target);
    }

    #[inline]
    fn exit(&mut self, _: FuncId, _: (), _: BlockId) {}
}

/// Where a list of profiling ops sits relative to the uninstrumented code.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OpSite {
    /// At the start of a block: runs when the block is entered.
    Enter(BlockId),
    /// At the end of a block, before its terminator: runs when the block
    /// is left, after every call in it has returned.
    Leave(BlockId),
    /// In a block split into an edge: runs when the edge is taken and
    /// adds the split block's `Jump` (one step, its terminator cost).
    Split(EdgeRef),
}

/// One plan's op list at one slot, and what running it costs.
#[derive(Clone, Copy, Debug)]
struct Fire {
    /// Index of the plan in [`PlanConsumers::stores`].
    plan: u32,
    /// The ops: `PlanConsumers::ops[start..end]`.
    start: u32,
    end: u32,
    /// Steps: the ops plus the split block's `Jump`, if any.
    steps: u32,
    cost: u64,
    prof_cost: u64,
    /// Times the list ran.
    hits: u64,
}

/// The counters that each of a set of plans' instrumented runs would
/// produce, computed from the events of one run of the uninstrumented
/// module.
///
/// Every event maps to a *slot*: a function's entry, a block's edge
/// `(b, s)`, or a return from a block. Each plan compiles the lists it
/// runs at a slot into one list, in the order the instrumented code runs
/// them: at an edge, the source block's leave list, then the split
/// edge's list, then the target block's enter list; at entry, the entry
/// block's enter list; at a return, the block's leave list. A slot's
/// lists across all plans sit side by side, so an event costs one slot
/// lookup however many plans are attached, and nothing more where no
/// plan has ops.
///
/// Each plan keeps its own path register per frame, its own
/// [`ProfileStore`], and the cost, profiling cost, steps and profiling
/// steps its ops add to the uninstrumented run. When an instrumented
/// run's total step count `T` is within `max_steps`, that run was never
/// cut short and [`PlanConsumers::into_results`] gives it exactly; past
/// it, run the instrumented module.
#[derive(Clone, Debug)]
pub struct PlanConsumers {
    /// Slot of each block's first edge (or of its return), per function.
    block_slot: Vec<Vec<u32>>,
    /// Slot of each function's entry.
    entry_slot: Vec<u32>,
    /// The fires of slot `s`: `fires[fire_start[s]..fire_start[s + 1]]`.
    fire_start: Vec<u32>,
    fires: Vec<Fire>,
    ops: Vec<ProfOp>,
    /// Each plan's counter tables.
    stores: Vec<ProfileStore>,
    /// Path registers, one per plan for every live frame, callee on top.
    regs: Vec<i64>,
}

impl PlanConsumers {
    /// Compiles each plan's op lists against `original`, the
    /// uninstrumented module whose run drives the consumers. A plan is
    /// its instrumented module, which declares the counter tables its ops
    /// count into, and the op lists it places into `original`. Lists
    /// given twice for one site run in the order given.
    pub fn new<'a>(
        original: &Module,
        cost: &CostModel,
        plans: impl IntoIterator<Item = (&'a Module, Vec<(FuncId, OpSite, Vec<ProfOp>)>)>,
    ) -> Self {
        let mut block_slot = Vec::with_capacity(original.functions.len());
        let mut entry_slot = Vec::with_capacity(original.functions.len());
        let mut slots = 0u32;
        for f in &original.functions {
            entry_slot.push(slots);
            slots += 1;
            let mut bases = Vec::with_capacity(f.blocks.len());
            for (_, block) in f.iter_blocks() {
                bases.push(slots);
                // A return takes the slot of the edge it does not have.
                slots += block.term.successor_count().max(1) as u32;
            }
            block_slot.push(bases);
        }
        let mut out = Self {
            block_slot,
            entry_slot,
            fire_start: Vec::new(),
            fires: Vec::new(),
            ops: Vec::new(),
            stores: Vec::new(),
            regs: Vec::new(),
        };
        let jump = Terminator::Jump {
            target: BlockId::new(0),
        };
        // Every plan's lists as `(slot, fire)`, grouped by slot below.
        let mut fires: Vec<(u32, Fire)> = Vec::new();
        for (plan, (instrumented, sites)) in plans.into_iter().enumerate() {
            let hash: Vec<bool> = instrumented
                .tables
                .iter()
                .map(|t| t.kind.is_hash())
                .collect();
            let mut compile = |slot: u32, parts: &[&Option<Vec<ProfOp>>], split: bool| {
                let start = out.ops.len() as u32;
                for part in parts.iter().filter_map(|p| p.as_ref()) {
                    out.ops.extend_from_slice(part);
                }
                let ops = &out.ops[start as usize..];
                if ops.is_empty() && !split {
                    return;
                }
                let prof_cost: u64 = ops
                    .iter()
                    .map(|op| cost.prof_cost(*op, op.table().is_some_and(|t| hash[t.index()])))
                    .sum();
                let split_cost = if split { cost.term_cost(&jump) } else { 0 };
                let fire = Fire {
                    plan: plan as u32,
                    start,
                    end: out.ops.len() as u32,
                    steps: (ops.len() + usize::from(split)) as u32,
                    cost: prof_cost + split_cost,
                    prof_cost,
                    hits: 0,
                };
                fires.push((slot, fire));
            };
            let mut by_func = vec![Vec::new(); original.functions.len()];
            for (func, site, ops) in sites {
                by_func[func.index()].push((site, ops));
            }
            for (fi, func_sites) in by_func.into_iter().enumerate() {
                if func_sites.is_empty() {
                    continue;
                }
                let f = &original.functions[fi];
                let bases = &out.block_slot[fi];
                let first = out.entry_slot[fi];
                let end = out.entry_slot.get(fi + 1).copied().unwrap_or(slots);
                // Each site's list: enter and leave by block, split by
                // the edge's slot within the function.
                let mut enter = vec![None; f.blocks.len()];
                let mut leave = vec![None; f.blocks.len()];
                let mut split = vec![None; (end - first) as usize];
                for (site, ops) in func_sites {
                    let list: &mut Option<Vec<ProfOp>> = match site {
                        OpSite::Enter(b) => &mut enter[b.index()],
                        OpSite::Leave(b) => &mut leave[b.index()],
                        OpSite::Split(e) => {
                            &mut split[(bases[e.from.index()] - first) as usize + e.succ_index()]
                        }
                    };
                    list.get_or_insert_with(Vec::new).extend(ops);
                }
                compile(first, &[&enter[f.entry.index()]], false);
                for (b, block) in f.iter_blocks() {
                    let base = bases[b.index()];
                    let leave = &leave[b.index()];
                    if let Terminator::Return { .. } = block.term {
                        compile(base, &[leave], false);
                    }
                    for s in 0..block.term.successor_count() {
                        let target = block.term.successor(s).expect("in-range successor");
                        let split = &split[(base - first) as usize + s];
                        let parts = [leave, split, &enter[target.index()]];
                        compile(base + s as u32, &parts, split.is_some());
                    }
                }
            }
            out.stores.push(ProfileStore::for_module(instrumented));
        }
        fires.sort_by_key(|&(slot, _)| slot);
        out.fire_start = vec![0; slots as usize + 1];
        for &(slot, _) in &fires {
            out.fire_start[slot as usize + 1] += 1;
        }
        for s in 1..out.fire_start.len() {
            out.fire_start[s] += out.fire_start[s - 1];
        }
        out.fires = fires.into_iter().map(|(_, fire)| fire).collect();
        out
    }

    /// Runs every plan's list at `slot` against its running frame's path
    /// register.
    #[inline]
    fn fire(&mut self, slot: u32) {
        let (a, b) = (
            self.fire_start[slot as usize] as usize,
            self.fire_start[slot as usize + 1] as usize,
        );
        if a == b {
            return;
        }
        let frame = self.regs.len() - self.stores.len();
        for f in &mut self.fires[a..b] {
            f.hits += 1;
            let store = &mut self.stores[f.plan as usize];
            let r = &mut self.regs[frame + f.plan as usize];
            for &op in &self.ops[f.start as usize..f.end as usize] {
                exec_prof(store, r, op);
            }
        }
    }

    /// Each plan's instrumented run, in the order the plans were given,
    /// from the `driver` run of the uninstrumented module that fed the
    /// consumers: halt reason, checksum and calls from the driver; store,
    /// profiling cost and profiling steps from the plan; cost and steps
    /// from both. A result is exact when its `steps` (the instrumented
    /// run's total `T`) are within the run's `max_steps`.
    pub fn into_results(self, driver: &RunResult) -> Vec<RunResult> {
        // (cost, prof_cost, steps, prof_steps) each plan's lists added.
        let mut added = vec![[0u64; 4]; self.stores.len()];
        for f in &self.fires {
            let a = &mut added[f.plan as usize];
            a[0] += f.hits * f.cost;
            a[1] += f.hits * f.prof_cost;
            a[2] += f.hits * u64::from(f.steps);
            a[3] += f.hits * u64::from(f.end - f.start);
        }
        self.stores
            .into_iter()
            .zip(added)
            .map(|(store, [cost, prof_cost, steps, prof_steps])| RunResult {
                halt: driver.halt,
                checksum: driver.checksum,
                cost: driver.cost + cost,
                prof_cost,
                steps: driver.steps + steps,
                prof_steps,
                calls: driver.calls,
                store,
                edge_profile: None,
                path_profile: None,
                deltas: Vec::new(),
            })
            .collect()
    }
}

impl Sink for PlanConsumers {
    type Cursor = ();

    #[inline]
    fn enter(&mut self, func: FuncId, _: BlockId) {
        self.regs.resize(self.regs.len() + self.stores.len(), 0);
        self.fire(self.entry_slot[func.index()]);
    }

    #[inline]
    fn edge(&mut self, func: FuncId, _: &mut (), e: EdgeRef, _: BlockId) {
        self.fire(self.block_slot[func.index()][e.from.index()] + e.succ_index() as u32);
    }

    #[inline]
    fn exit(&mut self, func: FuncId, _: (), block: BlockId) {
        self.fire(self.block_slot[func.index()][block.index()]);
        self.regs.truncate(self.regs.len() - self.stores.len());
    }
}

/// Executes one profiling op against the running frame's path register.
#[inline]
pub(crate) fn exec_prof(store: &mut ProfileStore, path_r: &mut i64, op: ProfOp) {
    match op {
        ProfOp::SetR { value } => *path_r = value,
        ProfOp::AddR { value } => *path_r = path_r.wrapping_add(value),
        ProfOp::CountR { table } => store.table_mut(table).bump(*path_r),
        ProfOp::CountRPlus { table, addend } => {
            store.table_mut(table).bump(path_r.wrapping_add(addend));
        }
        ProfOp::CountConst { table, index } => store.table_mut(table).bump(index),
        ProfOp::CountRChecked { table } => {
            let t = store.table_mut(table);
            if *path_r < 0 {
                t.bump_cold();
            } else {
                t.bump(*path_r);
            }
        }
        ProfOp::CountRPlusChecked { table, addend } => {
            let t = store.table_mut(table);
            if *path_r < 0 {
                t.bump_cold();
            } else {
                t.bump(path_r.wrapping_add(addend));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run, run_with, RunOptions};
    use ppp_ir::{BinOp, FunctionBuilder, Inst, TableDecl, TableKind};

    /// `main` counts `x` down from 3; each iteration of its loop body
    /// calls `g`. Block ids: main `b0` entry, `b1` header (branch to
    /// `b2` body or `b3` return); g is one block.
    fn looped_calls() -> Module {
        let mut m = Module::new();
        let mut g = FunctionBuilder::new("g", 0);
        g.ret(None);
        let gid = m.add_function(g.finish());
        let mut b = FunctionBuilder::new("main", 0);
        let x = b.constant(3);
        let (hdr, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(hdr);
        b.switch_to(hdr);
        b.branch(x, body, exit);
        b.switch_to(body);
        b.call_void(gid, vec![]);
        let one = b.constant(1);
        b.binary_to(x, BinOp::Sub, x, one);
        b.jump(hdr);
        b.switch_to(exit);
        b.ret(None);
        m.add_function(b.finish());
        m
    }

    #[test]
    fn lists_fire_in_the_order_the_instrumented_code_runs_them() {
        let original = looped_calls();
        let (g, main) = (FuncId::new(0), FuncId::new(1));
        let mut instrumented = original.clone();
        let table = |m: &mut Module, func, kind| {
            m.add_table(TableDecl {
                func,
                kind,
                hot_paths: 4,
            })
        };
        let t = table(&mut instrumented, main, TableKind::Array { size: 128 });
        let tg = table(
            &mut instrumented,
            g,
            TableKind::Hash {
                slots: 7,
                max_probes: 2,
            },
        );
        // Every list reads what the one before it left in the path
        // register, so firing them out of order moves the counts.
        let e = EdgeRef::new(BlockId::new(1), 0);
        let sites = vec![
            (
                main,
                OpSite::Enter(BlockId::new(0)),
                vec![ProfOp::SetR { value: 7 }],
            ),
            (
                main,
                OpSite::Leave(BlockId::new(1)),
                vec![ProfOp::AddR { value: 1 }],
            ),
            (
                main,
                OpSite::Split(e),
                vec![ProfOp::AddR { value: 10 }, ProfOp::CountR { table: t }],
            ),
            (
                main,
                OpSite::Enter(BlockId::new(2)),
                vec![
                    ProfOp::AddR { value: 20 },
                    ProfOp::CountRPlus {
                        table: t,
                        addend: 1,
                    },
                ],
            ),
            // Read after `g` returns: `g`'s own register must not leak.
            (
                main,
                OpSite::Leave(BlockId::new(2)),
                vec![ProfOp::CountRChecked { table: t }],
            ),
            (
                main,
                OpSite::Leave(BlockId::new(3)),
                vec![ProfOp::CountR { table: t }],
            ),
            (
                g,
                OpSite::Leave(BlockId::new(0)),
                vec![
                    ProfOp::SetR { value: -5 },
                    ProfOp::CountRChecked { table: tg },
                    ProfOp::CountConst {
                        table: tg,
                        index: 3,
                    },
                ],
            ),
        ];
        // The same lists, placed as the instrumenter places them.
        let prof = |ops: &[ProfOp]| ops.iter().copied().map(Inst::Prof).collect::<Vec<_>>();
        for (func, site, ops) in &sites {
            let f = instrumented.function_mut(*func);
            match *site {
                OpSite::Enter(b) => {
                    f.block_mut(b).insts.splice(0..0, prof(ops));
                }
                OpSite::Leave(b) => f.block_mut(b).insts.extend(prof(ops)),
                OpSite::Split(e) => {
                    let mid = ppp_ir::transform::split_edge(f, e);
                    f.block_mut(mid).insts.extend(prof(ops));
                }
            }
        }

        let opts = RunOptions::default();
        let want = run(&instrumented, "main", &opts).unwrap();
        let mut consumers = PlanConsumers::new(&original, &opts.cost, [(&instrumented, sites)]);
        let driver = run_with(&original, "main", &opts, &mut consumers).unwrap();
        let got = consumers.into_results(&driver).pop().unwrap();
        assert_eq!(
            (got.halt, got.checksum, got.calls),
            (want.halt, want.checksum, want.calls)
        );
        assert_eq!(
            (got.cost, got.prof_cost, got.steps, got.prof_steps),
            (want.cost, want.prof_cost, want.steps, want.prof_steps)
        );
        for table in [t, tg] {
            let (g, w) = (got.store.table(table), want.store.table(table));
            let counts = |c: &crate::CounterTable| c.iter_counts().collect::<Vec<_>>();
            assert_eq!(counts(g), counts(w), "table {table:?}");
            assert_eq!(
                (g.cold(), g.lost()),
                (w.cold(), w.lost()),
                "table {table:?}"
            );
        }
        // Entry 7, leave +1, split +10: count[18]; enter +20: count[39].
        let counts: Vec<_> = want.store.table(t).iter_counts().collect();
        assert!(
            counts.contains(&(18, 1)) && counts.contains(&(39, 1)),
            "{counts:?}"
        );
        assert_eq!(want.store.table(tg).cold(), 3);
    }
}
