//! The interpreter.
//!
//! A small register-machine interpreter over [`ppp_ir`] modules with an
//! explicit frame stack (no host recursion), a deterministic input stream,
//! a cost model, profile counter storage for instrumented code, and a
//! [`Sink`] type parameter that observes control flow (nothing, the exact
//! tracer, or plan consumers).

use crate::cost::CostModel;
use crate::rng::SplitMix64;
use crate::sink::{exec_prof, Sink};
use crate::storage::ProfileStore;
use crate::trace::Tracer;
use ppp_ir::{
    Block, BlockId, EdgeRef, FuncId, Function, Inst, Module, ModuleEdgeProfile, ModulePathProfile,
    Reg, Terminator,
};
use std::fmt;

/// Why a run stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum HaltReason {
    /// The entry function returned.
    Finished,
    /// The dynamic step budget was exhausted.
    StepLimit,
    /// The call stack exceeded the configured depth.
    CallDepthLimit,
}

/// Errors preventing a run from starting.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum VmError {
    /// The named entry function does not exist.
    NoSuchFunction {
        /// The missing name.
        name: String,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::NoSuchFunction { name } => write!(f, "no function named {name:?}"),
        }
    }
}

impl std::error::Error for VmError {}

/// Run configuration.
#[derive(Clone, Copy, Debug)]
pub struct RunOptions {
    /// Seed for the synthetic input stream ([`ppp_ir::Inst::Rand`]).
    pub seed: u64,
    /// Dynamic step budget (instructions + terminators, including
    /// instrumentation); the run halts with [`HaltReason::StepLimit`] when
    /// exhausted. A run whose total step count `T` is at most the budget
    /// is never cut short, so an instrumented run with `T <= max_steps`
    /// takes exactly the walk of its uninstrumented module; that is when
    /// [`PlanConsumers`](crate::PlanConsumers) fed by the uninstrumented
    /// run stand in for it exactly.
    pub max_steps: u64,
    /// Global memory size in 64-bit words; addresses wrap.
    pub mem_words: usize,
    /// Have [`run`] trace the run with a [`Tracer`] of its own and return
    /// its edge and exact path profiles. [`run_with`] ignores it: there
    /// the caller's sink observes the run.
    pub trace: bool,
    /// Cost model.
    pub cost: CostModel,
    /// Maximum call-stack depth.
    pub max_call_depth: usize,
    /// Have [`run`]'s tracer cut an incremental
    /// [`ProfileDelta`](crate::trace::ProfileDelta) every this many trace
    /// events (0 = keep the whole profile until exit; only meaningful
    /// when `trace` is set). Merging a run's deltas reproduces its
    /// cumulative profiles exactly.
    pub delta_interval: u64,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            seed: 0x5EED,
            max_steps: 200_000_000,
            mem_words: 1 << 16,
            trace: false,
            cost: CostModel::default(),
            max_call_depth: 512,
            delta_interval: 0,
        }
    }
}

impl RunOptions {
    /// Returns options with tracing enabled.
    pub fn traced(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Returns options with the given seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Returns options that cut an incremental profile delta every
    /// `interval` trace events (implies nothing unless tracing is
    /// enabled).
    pub fn with_delta_interval(mut self, interval: u64) -> Self {
        self.delta_interval = interval;
        self
    }
}

/// The outcome of one run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Why the run stopped.
    pub halt: HaltReason,
    /// Order-sensitive checksum of all `emit`ted values; instrumentation
    /// and semantics-preserving optimizations must not change it.
    pub checksum: u64,
    /// Total cost units, including instrumentation.
    pub cost: u64,
    /// Cost units spent on profiling instrumentation only.
    pub prof_cost: u64,
    /// Dynamic step count (instructions + terminators, incl. prof ops).
    pub steps: u64,
    /// Dynamic profiling ops executed.
    pub prof_steps: u64,
    /// Number of calls executed (including the entry invocation).
    pub calls: u64,
    /// Runtime path-counter tables (instrumented runs).
    pub store: ProfileStore,
    /// Exact edge profile ([`run`] with [`RunOptions::trace`] only).
    pub edge_profile: Option<ModuleEdgeProfile>,
    /// Exact path profile ([`run`] with [`RunOptions::trace`] only).
    pub path_profile: Option<ModulePathProfile>,
    /// Incremental profile deltas cut during the run ([`run`] with
    /// [`RunOptions::trace`] and [`RunOptions::delta_interval`] only);
    /// merging them reproduces `edge_profile`/`path_profile` exactly.
    pub deltas: Vec<crate::trace::ProfileDelta>,
}

impl RunResult {
    /// Cost units spent on the program itself (excluding instrumentation).
    pub fn program_cost(&self) -> u64 {
        self.cost - self.prof_cost
    }

    /// Runtime overhead of instrumentation relative to `baseline` cost:
    /// `cost / baseline - 1`, or `None` when `baseline` is zero (a
    /// degenerate benchmark — e.g. an entry function that halts before
    /// retiring any costed instruction). Callers that know their baseline
    /// is live should `expect` the value; pipeline code records a
    /// `ppp_degenerate_baseline_total` metric instead of panicking.
    pub fn overhead_vs(&self, baseline: u64) -> Option<f64> {
        if baseline == 0 {
            return None;
        }
        Some(self.cost as f64 / baseline as f64 - 1.0)
    }

    /// Records this run's VM-level observables into a metrics registry.
    ///
    /// Everything recorded here is read from counters the interpreter
    /// already maintains — the hot loop is untouched, so calling this (or
    /// not) cannot perturb the measured run.
    pub fn record_metrics(&self, reg: &ppp_obs::Registry, labels: &[(&str, &str)]) {
        reg.inc_by("ppp_vm_steps_total", labels, self.steps);
        reg.inc_by("ppp_vm_prof_steps_total", labels, self.prof_steps);
        reg.inc_by("ppp_vm_cost_units_total", labels, self.cost);
        reg.inc_by("ppp_vm_prof_cost_units_total", labels, self.prof_cost);
        reg.inc_by("ppp_vm_calls_total", labels, self.calls);
        reg.inc_by("ppp_vm_paths_lost_total", labels, self.store.total_lost());
        reg.inc_by("ppp_vm_paths_cold_total", labels, self.store.total_cold());
        reg.inc_by(
            "ppp_vm_hash_collisions_total",
            labels,
            self.store.total_collisions(),
        );
        reg.inc_by(
            "ppp_vm_counters_saturated_total",
            labels,
            self.store.total_saturated(),
        );
        for table in self.store.iter() {
            if table.is_hash() {
                reg.observe("ppp_vm_hash_occupancy", labels, table.occupancy());
            }
        }
    }
}

/// One activation. The running frame lives in a local of the
/// interpreter loop; suspended callers wait on [`Interp::stack`].
struct Frame<'m, C> {
    func: FuncId,
    f: &'m Function,
    block: BlockId,
    b: &'m Block,
    /// Next instruction of `b` (`b.insts.len()` = the terminator).
    inst: usize,
    /// This frame's registers are `regs[base..base + f.reg_count]` of the
    /// interpreter's register stack.
    base: usize,
    path_r: i64,
    ret_dst: Option<Reg>,
    /// The sink's state for this activation.
    cursor: C,
}

/// Runs `module` from its function named `entry` with no observer or,
/// when [`RunOptions::trace`] is set, traced by a [`Tracer`] of its own
/// whose edge and path profiles (and, with
/// [`RunOptions::delta_interval`], deltas) come back in the result. To
/// observe a run any other way, pass a sink to [`run_with`].
///
/// # Errors
///
/// Returns [`VmError::NoSuchFunction`] if `entry` does not name a function.
///
/// # Examples
///
/// ```
/// use ppp_ir::{FunctionBuilder, Module};
/// use ppp_vm::{run, RunOptions};
///
/// let mut b = FunctionBuilder::new("main", 0);
/// let c = b.constant(41);
/// b.emit(c);
/// b.ret(Some(c));
/// let mut m = Module::new();
/// m.add_function(b.finish());
///
/// let result = run(&m, "main", &RunOptions::default())?;
/// assert_eq!(result.halt, ppp_vm::HaltReason::Finished);
/// # Ok::<(), ppp_vm::VmError>(())
/// ```
pub fn run(module: &Module, entry: &str, options: &RunOptions) -> Result<RunResult, VmError> {
    if !options.trace {
        return run_with(module, entry, options, &mut ());
    }
    let mut tracer = Tracer::new(module);
    tracer.enable_deltas(module, options.delta_interval);
    let mut r = run_with(module, entry, options, &mut tracer)?;
    r.deltas = tracer.take_deltas(module);
    let (edges, paths) = tracer.finish(module);
    r.edge_profile = Some(edges);
    r.path_profile = Some(paths);
    Ok(r)
}

/// Runs `module` from its function named `entry` (which receives zeroed
/// arguments), reporting every function entry, taken edge and return to
/// `sink`. The sink is the run's observer: the options' tracing fields
/// are ignored, so the result carries no profiles.
///
/// # Errors
///
/// Returns [`VmError::NoSuchFunction`] if `entry` does not name a function.
pub fn run_with<S: Sink + ?Sized>(
    module: &Module,
    entry: &str,
    options: &RunOptions,
    sink: &mut S,
) -> Result<RunResult, VmError> {
    let entry_id = module
        .function_by_name(entry)
        .ok_or_else(|| VmError::NoSuchFunction {
            name: entry.to_owned(),
        })?;
    Ok(Interp::new(module, options, sink).run(entry_id))
}

struct Interp<'m, 's, S: Sink + ?Sized> {
    module: &'m Module,
    opts: &'m RunOptions,
    mem: Vec<i64>,
    rng: SplitMix64,
    checksum: u64,
    cost: u64,
    prof_cost: u64,
    steps: u64,
    prof_steps: u64,
    calls: u64,
    store: ProfileStore,
    sink: &'s mut S,
    /// `hash_tables[t]`: table `t` is hash-backed (resolved once per run
    /// for the cost model).
    hash_tables: Vec<bool>,
    /// The register stack: every live frame's registers, callee above
    /// caller, truncated on return.
    regs: Vec<i64>,
    /// Suspended callers of the running frame.
    stack: Vec<Frame<'m, S::Cursor>>,
}

impl<'m, 's, S: Sink + ?Sized> Interp<'m, 's, S> {
    fn new(module: &'m Module, opts: &'m RunOptions, sink: &'s mut S) -> Self {
        Self {
            module,
            opts,
            mem: vec![0; opts.mem_words.max(1)],
            rng: SplitMix64::new(opts.seed),
            checksum: 0,
            cost: 0,
            prof_cost: 0,
            steps: 0,
            prof_steps: 0,
            calls: 0,
            store: ProfileStore::for_module(module),
            sink,
            hash_tables: module.tables.iter().map(|t| t.kind.is_hash()).collect(),
            regs: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a frame for `func` whose registers start at `base`
    /// (already sized and holding the arguments).
    fn enter(&mut self, func: FuncId, base: usize, ret_dst: Option<Reg>) -> Frame<'m, S::Cursor> {
        let f = self.module.function(func);
        let cursor = self.sink.enter(func, f.entry);
        self.calls += 1;
        Frame {
            func,
            f,
            block: f.entry,
            b: f.block(f.entry),
            inst: 0,
            base,
            path_r: 0,
            ret_dst,
            cursor,
        }
    }

    fn run(mut self, entry: FuncId) -> RunResult {
        let n = self.module.function(entry).reg_count as usize;
        self.regs.resize(n, 0);
        let frame = self.enter(entry, 0, None);
        let halt = self.exec_loop(frame);
        RunResult {
            halt,
            checksum: self.checksum,
            cost: self.cost,
            prof_cost: self.prof_cost,
            steps: self.steps,
            prof_steps: self.prof_steps,
            calls: self.calls,
            store: self.store,
            edge_profile: None,
            path_profile: None,
            deltas: Vec::new(),
        }
    }

    /// Runs `cur` and everything it calls until the entry returns or a
    /// limit is hit.
    ///
    /// The step and cost counters live in locals for the whole loop (the
    /// register and memory stores cannot alias them), and each block's
    /// straight-line instructions run in an inner loop over one register
    /// slice; only calls, returns and taken edges leave it.
    fn exec_loop(&mut self, mut cur: Frame<'m, S::Cursor>) -> HaltReason {
        let cm = self.opts.cost;
        let max_steps = self.opts.max_steps;
        let max_depth = self.opts.max_call_depth;
        let mem_len = self.mem.len() as i64;
        let mut steps = self.steps;
        let mut cost = self.cost;
        let mut prof_steps = self.prof_steps;
        let mut prof_cost = self.prof_cost;
        let mut checksum = self.checksum;
        let halt = 'run: loop {
            let b = cur.b;
            let top = cur.base + cur.f.reg_count as usize;
            let regs = &mut self.regs[cur.base..top];
            while let Some(inst) = b.insts.get(cur.inst) {
                if steps >= max_steps {
                    break 'run HaltReason::StepLimit;
                }
                cur.inst += 1;
                steps += 1;
                // Costs per arm mirror `CostModel::inst_cost`; calling it
                // here measured ~10% slower on long-run.
                match inst {
                    Inst::Const { dst, value } => {
                        cost += cm.basic;
                        regs[dst.index()] = *value;
                    }
                    Inst::Copy { dst, src } => {
                        cost += cm.basic;
                        regs[dst.index()] = regs[src.index()];
                    }
                    Inst::Unary { dst, op, src } => {
                        cost += cm.basic;
                        regs[dst.index()] = op.eval(regs[src.index()]);
                    }
                    Inst::Binary { dst, op, lhs, rhs } => {
                        cost += cm.basic;
                        regs[dst.index()] = op.eval(regs[lhs.index()], regs[rhs.index()]);
                    }
                    Inst::Load { dst, addr } => {
                        cost += cm.memory;
                        let a = regs[addr.index()].rem_euclid(mem_len) as usize;
                        regs[dst.index()] = self.mem[a];
                    }
                    Inst::Store { addr, src } => {
                        cost += cm.memory;
                        let a = regs[addr.index()].rem_euclid(mem_len) as usize;
                        self.mem[a] = regs[src.index()];
                    }
                    Inst::Rand { dst, bound } => {
                        cost += cm.rand;
                        regs[dst.index()] = self.rng.below(regs[bound.index()]);
                    }
                    Inst::Emit { src } => {
                        cost += cm.basic;
                        let v = regs[src.index()] as u64;
                        checksum = checksum
                            .rotate_left(13)
                            .wrapping_add(v ^ 0x9E37_79B9_7F4A_7C15);
                    }
                    Inst::Prof(op) => {
                        prof_steps += 1;
                        let is_hash = op.table().is_some_and(|t| self.hash_tables[t.index()]);
                        let c = cm.prof_cost(*op, is_hash);
                        cost += c;
                        prof_cost += c;
                        exec_prof(&mut self.store, &mut cur.path_r, *op);
                    }
                    Inst::Call { dst, callee, args } => {
                        cost += cm.call;
                        if self.stack.len() + 1 >= max_depth {
                            break 'run HaltReason::CallDepthLimit;
                        }
                        let n = self.module.function(*callee).reg_count as usize;
                        self.regs.resize(top + n, 0);
                        let (caller, callee_regs) = self.regs.split_at_mut(top);
                        let caller = &caller[cur.base..];
                        for (i, a) in args.iter().enumerate() {
                            let v = caller[a.index()];
                            if let Some(slot) = callee_regs.get_mut(i) {
                                *slot = v;
                            }
                        }
                        let frame = self.enter(*callee, top, *dst);
                        self.stack.push(std::mem::replace(&mut cur, frame));
                        continue 'run;
                    }
                }
            }
            if steps >= max_steps {
                break 'run HaltReason::StepLimit;
            }
            steps += 1;
            cost += cm.term_cost(&b.term);
            let (s, target) = match &b.term {
                Terminator::Return { value } => {
                    let v = value.map_or(0, |r| regs[r.index()]);
                    self.sink.exit(cur.func, cur.cursor, cur.block);
                    let Some(parent) = self.stack.pop() else {
                        break 'run HaltReason::Finished;
                    };
                    self.regs.truncate(cur.base);
                    let ret_dst = std::mem::replace(&mut cur, parent).ret_dst;
                    if let Some(dst) = ret_dst {
                        let top = cur.base + cur.f.reg_count as usize;
                        self.regs[cur.base..top][dst.index()] = v;
                    }
                    continue 'run;
                }
                Terminator::Jump { target } => (0, *target),
                Terminator::Branch {
                    cond,
                    then_target,
                    else_target,
                } => {
                    if regs[cond.index()] != 0 {
                        (0, *then_target)
                    } else {
                        (1, *else_target)
                    }
                }
                Terminator::Switch {
                    disc,
                    targets,
                    default,
                } => {
                    let v = regs[disc.index()];
                    match usize::try_from(v).ok().filter(|&i| i < targets.len()) {
                        Some(i) => (i, targets[i]),
                        None => (targets.len(), *default),
                    }
                }
            };
            let edge = EdgeRef::new(cur.block, s);
            cur.block = target;
            cur.b = cur.f.block(target);
            cur.inst = 0;
            self.sink.edge(cur.func, &mut cur.cursor, edge, target);
        };
        self.steps = steps;
        self.cost = cost;
        self.prof_steps = prof_steps;
        self.prof_cost = prof_cost;
        self.checksum = checksum;
        halt
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::{BinOp, FunctionBuilder, ProfOp, TableDecl, TableKind};

    fn module_one(f: ppp_ir::Function) -> Module {
        let mut m = Module::new();
        m.add_function(f);
        m
    }

    #[test]
    fn straight_line_arithmetic() {
        let mut b = FunctionBuilder::new("main", 0);
        let x = b.constant(20);
        let y = b.constant(22);
        let s = b.binary(BinOp::Add, x, y);
        b.emit(s);
        b.ret(Some(s));
        let m = module_one(b.finish());
        let r = run(&m, "main", &RunOptions::default()).unwrap();
        assert_eq!(r.halt, HaltReason::Finished);
        assert_eq!(r.calls, 1);
        // const + const + add + emit = 4 basic, ret = 1 terminator.
        assert_eq!(r.steps, 5);
        assert_eq!(r.cost, 5);
        assert_eq!(r.prof_cost, 0);
    }

    #[test]
    fn missing_entry_errors() {
        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        let m = module_one(b.finish());
        assert!(matches!(
            run(&m, "nope", &RunOptions::default()),
            Err(VmError::NoSuchFunction { .. })
        ));
    }

    #[test]
    fn branch_selects_successor() {
        // if 1 != 0 then emit 7 else emit 9
        let mut b = FunctionBuilder::new("main", 0);
        let c = b.constant(1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(c, t, e);
        b.switch_to(t);
        let v7 = b.constant(7);
        b.emit(v7);
        b.jump(j);
        b.switch_to(e);
        let v9 = b.constant(9);
        b.emit(v9);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        let m = module_one(b.finish());
        let r1 = run(&m, "main", &RunOptions::default()).unwrap();

        // Flip the condition to 0: different checksum (else arm).
        let mut m2 = m.clone();
        m2.function_mut(FuncId(0)).blocks[0].insts[0] = Inst::Const {
            dst: Reg(0),
            value: 0,
        };
        let r2 = run(&m2, "main", &RunOptions::default()).unwrap();
        assert_ne!(r1.checksum, r2.checksum);
    }

    #[test]
    fn switch_in_and_out_of_range() {
        let mut b = FunctionBuilder::new("main", 1);
        let (a, c, d) = (b.new_block(), b.new_block(), b.new_block());
        let disc = b.constant(1);
        b.switch(disc, vec![a, c], d);
        b.switch_to(a);
        b.ret(None);
        b.switch_to(c);
        let v = b.constant(5);
        b.emit(v);
        b.ret(None);
        b.switch_to(d);
        b.ret(None);
        let m = module_one(b.finish());
        let r = run(&m, "main", &RunOptions::default()).unwrap();
        // disc = 1 selects targets[1] = c, which emits.
        assert_ne!(r.checksum, 0);
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut m = Module::new();
        let mut g = FunctionBuilder::new("inc", 1);
        let p = g.param(0);
        let one = g.constant(1);
        let s = g.binary(BinOp::Add, p, one);
        g.ret(Some(s));
        let gid = m.add_function(g.finish());

        let mut b = FunctionBuilder::new("main", 0);
        let x = b.constant(41);
        let y = b.call(gid, vec![x]);
        b.emit(y);
        b.ret(Some(y));
        m.add_function(b.finish());

        let r = run(&m, "main", &RunOptions::default()).unwrap();
        assert_eq!(r.halt, HaltReason::Finished);
        assert_eq!(r.calls, 2);
    }

    #[test]
    fn loops_and_step_limit() {
        // Infinite loop halts at the step budget.
        let mut b = FunctionBuilder::new("main", 0);
        let l = b.new_block();
        b.jump(l);
        b.switch_to(l);
        b.jump(l);
        let m = module_one(b.finish());
        let opts = RunOptions {
            max_steps: 1000,
            ..RunOptions::default()
        };
        let r = run(&m, "main", &opts).unwrap();
        assert_eq!(r.halt, HaltReason::StepLimit);
        assert_eq!(r.steps, 1000);
    }

    #[test]
    fn recursion_depth_limit() {
        let mut m = Module::new();
        // f() calls f() forever.
        let mut b = FunctionBuilder::new("main", 0);
        b.call_void(FuncId(0), vec![]);
        b.ret(None);
        m.add_function(b.finish());
        let opts = RunOptions {
            max_call_depth: 16,
            ..RunOptions::default()
        };
        let r = run(&m, "main", &opts).unwrap();
        assert_eq!(r.halt, HaltReason::CallDepthLimit);
    }

    #[test]
    fn rand_is_deterministic_per_seed() {
        let mut b = FunctionBuilder::new("main", 0);
        let bound = b.constant(1000);
        let v = b.rand(bound);
        b.emit(v);
        b.ret(None);
        let m = module_one(b.finish());
        let r1 = run(&m, "main", &RunOptions::default().with_seed(9)).unwrap();
        let r2 = run(&m, "main", &RunOptions::default().with_seed(9)).unwrap();
        let r3 = run(&m, "main", &RunOptions::default().with_seed(10)).unwrap();
        assert_eq!(r1.checksum, r2.checksum);
        assert_ne!(r1.checksum, r3.checksum);
    }

    #[test]
    fn memory_wraps_addresses() {
        let mut b = FunctionBuilder::new("main", 0);
        let addr = b.constant(-3);
        let v = b.constant(77);
        b.store(addr, v);
        let l = b.load(addr);
        b.emit(l);
        b.ret(None);
        let m = module_one(b.finish());
        let opts = RunOptions {
            mem_words: 8,
            ..RunOptions::default()
        };
        let r = run(&m, "main", &opts).unwrap();
        assert_eq!(r.halt, HaltReason::Finished);
        // Load observes the stored value through the same wrapped address.
        let mut b2 = FunctionBuilder::new("main", 0);
        let v2 = b2.constant(77);
        b2.emit(v2);
        b2.ret(None);
        let m2 = module_one(b2.finish());
        let r2 = run(&m2, "main", &opts).unwrap();
        assert_eq!(r.checksum, r2.checksum);
    }

    #[test]
    fn prof_ops_update_store_and_costs() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let t = m.add_table(TableDecl {
            func: fid,
            kind: TableKind::Array { size: 8 },
            hot_paths: 8,
        });
        let f = m.function_mut(fid);
        f.blocks[0].insts.extend([
            Inst::Prof(ProfOp::SetR { value: 2 }),
            Inst::Prof(ProfOp::AddR { value: 3 }),
            Inst::Prof(ProfOp::CountR { table: t }),
            Inst::Prof(ProfOp::CountRPlus {
                table: t,
                addend: -5,
            }),
            Inst::Prof(ProfOp::CountConst { table: t, index: 7 }),
        ]);
        let r = run(&m, "main", &RunOptions::default()).unwrap();
        let counts: Vec<_> = r.store.table(t).iter_counts().collect();
        assert_eq!(counts, vec![(0, 1), (5, 1), (7, 1)]);
        assert_eq!(r.prof_steps, 5);
        // 2 reg ops + 3 array counts = 2*1 + 3*2 = 8 cost units.
        assert_eq!(r.prof_cost, 8);
        assert_eq!(r.program_cost(), 1); // just the ret
    }

    #[test]
    fn checked_counts_report_cold() {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        let fid = m.add_function(b.finish());
        let t = m.add_table(TableDecl {
            func: fid,
            kind: TableKind::Array { size: 8 },
            hot_paths: 8,
        });
        let f = m.function_mut(fid);
        f.blocks[0].insts.extend([
            Inst::Prof(ProfOp::SetR { value: -1_000_000 }),
            Inst::Prof(ProfOp::CountRChecked { table: t }),
            Inst::Prof(ProfOp::SetR { value: 3 }),
            Inst::Prof(ProfOp::CountRPlusChecked {
                table: t,
                addend: 1,
            }),
        ]);
        let r = run(&m, "main", &RunOptions::default()).unwrap();
        assert_eq!(r.store.table(t).cold(), 1);
        assert_eq!(
            r.store.table(t).iter_counts().collect::<Vec<_>>(),
            vec![(4, 1)]
        );
    }

    #[test]
    fn tracing_produces_profiles_and_costs_match_untraced() {
        let mut b = FunctionBuilder::new("main", 0);
        let ten = b.constant(10);
        let i = b.copy(ten); // countdown register
        let (hdr, body, exit) = (b.new_block(), b.new_block(), b.new_block());
        b.jump(hdr);
        b.switch_to(hdr);
        b.branch(i, body, exit);
        b.switch_to(body);
        let one = b.constant(1);
        b.binary_to(i, BinOp::Sub, i, one);
        b.jump(hdr);
        b.switch_to(exit);
        b.ret(None);
        let m = module_one(b.finish());

        let plain = run(&m, "main", &RunOptions::default()).unwrap();
        let traced = run(&m, "main", &RunOptions::default().traced()).unwrap();
        assert_eq!(plain.cost, traced.cost, "tracing must not perturb cost");
        assert_eq!(plain.checksum, traced.checksum);

        let edges = traced.edge_profile.unwrap();
        let paths = traced.path_profile.unwrap();
        let f0 = FuncId(0);
        assert_eq!(edges.func(f0).entries(), 1);
        // Loop body executes 10 times.
        assert_eq!(edges.func(f0).edge(EdgeRef::new(BlockId(1), 0)), 10);
        // Paths: entry..back (1), header-iteration..back (9), header->exit (1).
        assert_eq!(paths.func(f0).total_unit_flow(), 11);
        assert_eq!(paths.func(f0).distinct_paths(), 3);
    }
}
