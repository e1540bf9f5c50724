//! Differential oracle for the `ppp-vm` interpreter.
//!
//! `reference` below is the interpreter loop as it stood before the VM
//! was rewritten around a register stack and per-block inner loops: one
//! `Vec` of registers per frame, `module.function(..).block(..)` looked
//! up on every step, and table kinds resolved per profiling op. It drives
//! the same public [`Tracer`], [`ProfileStore`], [`CostModel`] and
//! [`SplitMix64`] as the real VM, so every [`RunResult`] field must come
//! out byte-identical: checksum, costs, steps, calls, counter tables,
//! edge and path profiles, deltas, path sequence, dropped-event counts
//! and the halt reason at the exact step.
//!
//! Because both sides share the `Tracer`, the oracle alone cannot catch a
//! bug in the tracer's path trie. `NaiveRecorder` covers that: it builds
//! each activation's [`PathKey`] edge by edge with no trie, ending paths
//! at back edges found by [`EdgeClassifier`], and its path profile must
//! equal the tracer's.
//!
//! The reference lives here, in a crate that already depends on
//! `ppp-vm`, `ppp-core` and `ppp-workloads`, so `ppp-vm` needs no
//! dev-dependency cycle.

use ppp_core::{instrument_module, normalize_module, ProfilerConfig, ProfilerKind};
use ppp_ir::{
    write_edge_profile_v2, write_path_profile_v2, BinOp, BlockId, EdgeRef, FuncId, FunctionBuilder,
    Inst, Module, ModuleEdgeProfile, ModulePathProfile, PathKey, ProfOp, Reg, TableDecl, TableKind,
    Terminator,
};
use ppp_vm::{
    run, EdgeClassifier, EdgeKind, HaltReason, PathCursor, ProfileStore, RunOptions, RunResult,
    SplitMix64, TraceFaults, Tracer,
};
use ppp_workloads::{generate, spec2000_suite};

/// Suite scale: small enough that the debug test profile runs every case
/// in seconds.
const SCALE: f64 = 0.02;
/// VM input seeds every suite case runs under.
const SEEDS: [u64; 2] = [701, 702];

// ---------------------------------------------------------------------
// The reference interpreter (the pre-rewrite loop, kept as it was; the
// only additions are the `naive` observer calls beside the tracer's).
// ---------------------------------------------------------------------

mod reference {
    use super::*;

    struct Frame {
        func: FuncId,
        block: BlockId,
        inst: usize,
        regs: Vec<i64>,
        path_r: i64,
        ret_dst: Option<Reg>,
        cursor: Option<PathCursor>,
    }

    /// Runs `module` from `main` exactly as the pre-rewrite VM did; with
    /// `naive`, also feeds every trace event to a [`NaiveRecorder`].
    pub fn run_reference(
        module: &Module,
        options: &RunOptions,
        naive: Option<&mut NaiveRecorder>,
    ) -> RunResult {
        let entry = module.function_by_name("main").expect("main exists");
        Interp::new(module, options, naive).run(entry)
    }

    struct Interp<'m, 'n> {
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
        tracer: Option<Tracer>,
        naive: Option<&'n mut NaiveRecorder>,
        stack: Vec<Frame>,
    }

    impl<'m, 'n> Interp<'m, 'n> {
        fn new(
            module: &'m Module,
            opts: &'m RunOptions,
            naive: Option<&'n mut NaiveRecorder>,
        ) -> Self {
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
                tracer: opts.trace.then(|| {
                    let mut t = Tracer::new(module);
                    if opts.trace_sequence {
                        t.record_sequence();
                    }
                    if let Some(f) = opts.trace_faults {
                        t.inject_faults(f);
                    }
                    if opts.delta_interval > 0 {
                        t.enable_deltas(module, opts.delta_interval);
                    }
                    t
                }),
                naive,
                stack: Vec::new(),
            }
        }

        fn push_frame(&mut self, func: FuncId, args: &[i64], ret_dst: Option<Reg>) {
            let f = self.module.function(func);
            let mut regs = vec![0i64; f.reg_count as usize];
            let n = args.len().min(regs.len());
            regs[..n].copy_from_slice(&args[..n]);
            let cursor = self
                .tracer
                .as_mut()
                .map(|t| t.enter_function(func, f.entry));
            if let Some(naive) = self.naive.as_mut() {
                naive.enter(f.entry);
            }
            self.calls += 1;
            self.stack.push(Frame {
                func,
                block: f.entry,
                inst: 0,
                regs,
                path_r: 0,
                ret_dst,
                cursor,
            });
        }

        fn run(mut self, entry: FuncId) -> RunResult {
            self.push_frame(entry, &[], None);
            let halt = self.exec_loop();
            let (edge_profile, path_profile, path_sequence, trace_events_dropped, deltas) =
                match self.tracer {
                    Some(t) => {
                        let dropped = t.dropped_events();
                        let (e, p, s, d) = t.finish_full(self.module);
                        (Some(e), Some(p), s, dropped, d)
                    }
                    None => (None, None, Vec::new(), (0, 0), Vec::new()),
                };
            RunResult {
                halt,
                checksum: self.checksum,
                cost: self.cost,
                prof_cost: self.prof_cost,
                steps: self.steps,
                prof_steps: self.prof_steps,
                calls: self.calls,
                store: self.store,
                edge_profile,
                path_profile,
                path_sequence,
                trace_events_dropped,
                deltas,
            }
        }

        fn exec_loop(&mut self) -> HaltReason {
            loop {
                if self.steps >= self.opts.max_steps {
                    return HaltReason::StepLimit;
                }
                let frame = self.stack.last_mut().expect("non-empty stack in loop");
                let func = frame.func;
                let f = self.module.function(func);
                let block = f.block(frame.block);
                if frame.inst < block.insts.len() {
                    let idx = frame.inst;
                    frame.inst += 1;
                    let inst = &block.insts[idx];
                    self.steps += 1;
                    match inst {
                        Inst::Prof(op) => {
                            self.prof_steps += 1;
                            let c = self.opts.cost.prof_cost(*op, self.table_is_hash(*op));
                            self.cost += c;
                            self.prof_cost += c;
                            self.exec_prof(*op);
                        }
                        Inst::Call { dst, callee, args } => {
                            self.cost += self.opts.cost.call;
                            if self.stack.len() >= self.opts.max_call_depth {
                                return HaltReason::CallDepthLimit;
                            }
                            let frame = self.stack.last().expect("frame");
                            let argv: Vec<i64> =
                                args.iter().map(|r| frame.regs[r.index()]).collect();
                            let (dst, callee) = (*dst, *callee);
                            self.push_frame(callee, &argv, dst);
                        }
                        other => {
                            self.cost += self.opts.cost.inst_cost(other);
                            self.exec_simple(other);
                        }
                    }
                } else {
                    self.steps += 1;
                    self.cost += self.opts.cost.term_cost(&block.term);
                    match &block.term {
                        Terminator::Return { value } => {
                            let frame = self.stack.last().expect("frame");
                            let v = value.map_or(0, |r| frame.regs[r.index()]);
                            let frame = self.stack.pop().expect("frame");
                            if let (Some(t), Some(c)) = (self.tracer.as_mut(), frame.cursor) {
                                t.exit_function(frame.func, c);
                            }
                            if let Some(n) = self.naive.as_mut() {
                                n.exit(frame.func);
                            }
                            match self.stack.last_mut() {
                                None => return HaltReason::Finished,
                                Some(parent) => {
                                    if let Some(dst) = frame.ret_dst {
                                        parent.regs[dst.index()] = v;
                                    }
                                }
                            }
                        }
                        term => {
                            let frame = self.stack.last().expect("frame");
                            let s = match term {
                                Terminator::Jump { .. } => 0,
                                Terminator::Branch { cond, .. } => {
                                    usize::from(frame.regs[cond.index()] == 0)
                                }
                                Terminator::Switch { disc, targets, .. } => {
                                    let v = frame.regs[disc.index()];
                                    if v >= 0 && (v as usize) < targets.len() {
                                        v as usize
                                    } else {
                                        targets.len()
                                    }
                                }
                                Terminator::Return { .. } => unreachable!("handled above"),
                            };
                            let target = term.successor(s).expect("selected successor exists");
                            let edge = EdgeRef::new(frame.block, s);
                            let frame = self.stack.last_mut().expect("frame");
                            frame.block = target;
                            frame.inst = 0;
                            if let (Some(t), Some(c)) =
                                (self.tracer.as_mut(), frame.cursor.as_mut())
                            {
                                t.take_edge(func, c, edge, target);
                            }
                            if let Some(n) = self.naive.as_mut() {
                                n.take_edge(func, edge, target);
                            }
                        }
                    }
                }
            }
        }

        fn table_is_hash(&self, op: ProfOp) -> bool {
            op.table()
                .map(|t| self.module.table(t).kind.is_hash())
                .unwrap_or(false)
        }

        fn exec_prof(&mut self, op: ProfOp) {
            let frame = self.stack.last_mut().expect("frame");
            match op {
                ProfOp::SetR { value } => frame.path_r = value,
                ProfOp::AddR { value } => frame.path_r = frame.path_r.wrapping_add(value),
                ProfOp::CountR { table } => {
                    let r = frame.path_r;
                    self.store.table_mut(table).bump(r);
                }
                ProfOp::CountRPlus { table, addend } => {
                    let r = frame.path_r.wrapping_add(addend);
                    self.store.table_mut(table).bump(r);
                }
                ProfOp::CountConst { table, index } => {
                    self.store.table_mut(table).bump(index);
                }
                ProfOp::CountRChecked { table } => {
                    let r = frame.path_r;
                    let t = self.store.table_mut(table);
                    if r < 0 {
                        t.bump_cold();
                    } else {
                        t.bump(r);
                    }
                }
                ProfOp::CountRPlusChecked { table, addend } => {
                    let r = frame.path_r;
                    let t = self.store.table_mut(table);
                    if r < 0 {
                        t.bump_cold();
                    } else {
                        t.bump(r.wrapping_add(addend));
                    }
                }
            }
        }

        fn exec_simple(&mut self, inst: &Inst) {
            let mem_len = self.mem.len() as i64;
            let frame = self.stack.last_mut().expect("frame");
            match inst {
                Inst::Const { dst, value } => frame.regs[dst.index()] = *value,
                Inst::Copy { dst, src } => frame.regs[dst.index()] = frame.regs[src.index()],
                Inst::Unary { dst, op, src } => {
                    frame.regs[dst.index()] = op.eval(frame.regs[src.index()]);
                }
                Inst::Binary { dst, op, lhs, rhs } => {
                    frame.regs[dst.index()] =
                        op.eval(frame.regs[lhs.index()], frame.regs[rhs.index()]);
                }
                Inst::Load { dst, addr } => {
                    let a = frame.regs[addr.index()].rem_euclid(mem_len) as usize;
                    frame.regs[dst.index()] = self.mem[a];
                }
                Inst::Store { addr, src } => {
                    let a = frame.regs[addr.index()].rem_euclid(mem_len) as usize;
                    self.mem[a] = frame.regs[src.index()];
                }
                Inst::Rand { dst, bound } => {
                    let b = frame.regs[bound.index()];
                    frame.regs[dst.index()] = self.rng.below(b);
                }
                Inst::Emit { src } => {
                    let v = frame.regs[src.index()] as u64;
                    self.checksum = self
                        .checksum
                        .rotate_left(13)
                        .wrapping_add(v ^ 0x9E37_79B9_7F4A_7C15);
                }
                Inst::Call { .. } | Inst::Prof(_) => unreachable!("handled by exec_loop"),
            }
        }
    }
}

use reference::run_reference;

// ---------------------------------------------------------------------
// A trie-free path recorder.
// ---------------------------------------------------------------------

/// Builds each activation's current Ball–Larus path as a literal
/// [`PathKey`], appending one edge per taken edge and ending the path at
/// every back edge and at return.
struct NaiveRecorder {
    classifiers: Vec<EdgeClassifier>,
    /// The open path of every live activation, innermost last.
    open: Vec<PathKey>,
    paths: ModulePathProfile,
    module: Module,
}

impl NaiveRecorder {
    fn new(module: &Module) -> Self {
        Self {
            classifiers: module.functions.iter().map(EdgeClassifier::new).collect(),
            open: Vec::new(),
            paths: ModulePathProfile::with_capacity(module.functions.len()),
            module: module.clone(),
        }
    }

    fn enter(&mut self, entry: BlockId) {
        self.open.push(PathKey {
            start: entry,
            edges: Vec::new(),
        });
    }

    fn take_edge(&mut self, func: FuncId, e: EdgeRef, target: BlockId) {
        let path = self.open.last_mut().expect("an open activation");
        path.edges.push(e);
        if self.classifiers[func.index()].kind(e) == EdgeKind::Back {
            let done = std::mem::replace(
                path,
                PathKey {
                    start: target,
                    edges: Vec::new(),
                },
            );
            self.record(func, done);
        }
    }

    fn exit(&mut self, func: FuncId) {
        let done = self.open.pop().expect("an open activation");
        self.record(func, done);
    }

    fn record(&mut self, func: FuncId, key: PathKey) {
        self.paths
            .func_mut(func)
            .record(self.module.function(func), key, 1);
    }
}

// ---------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------

fn edge_bytes(m: &Module, p: &Option<ModuleEdgeProfile>) -> Option<String> {
    p.as_ref().map(|p| write_edge_profile_v2(m, p))
}

fn path_bytes(m: &Module, p: &Option<ModulePathProfile>) -> Option<String> {
    p.as_ref().map(|p| write_path_profile_v2(m, p))
}

/// Asserts every observable of `got` equals `want`.
fn assert_same(m: &Module, what: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(got.halt, want.halt, "{what}: halt");
    assert_eq!(got.checksum, want.checksum, "{what}: checksum");
    assert_eq!(got.cost, want.cost, "{what}: cost");
    assert_eq!(got.prof_cost, want.prof_cost, "{what}: prof_cost");
    assert_eq!(got.steps, want.steps, "{what}: steps");
    assert_eq!(got.prof_steps, want.prof_steps, "{what}: prof_steps");
    assert_eq!(got.calls, want.calls, "{what}: calls");
    assert_eq!(got.store.len(), want.store.len(), "{what}: table count");
    for (i, (g, w)) in got.store.iter().zip(want.store.iter()).enumerate() {
        let counts = |t: &ppp_vm::CounterTable| t.iter_counts().collect::<Vec<_>>();
        assert_eq!(counts(g), counts(w), "{what}: table {i} counts");
        assert_eq!(g.lost(), w.lost(), "{what}: table {i} lost");
        assert_eq!(g.cold(), w.cold(), "{what}: table {i} cold");
        assert_eq!(
            g.collisions(),
            w.collisions(),
            "{what}: table {i} collisions"
        );
    }
    assert_eq!(
        edge_bytes(m, &got.edge_profile),
        edge_bytes(m, &want.edge_profile),
        "{what}: edge profile"
    );
    assert_eq!(
        path_bytes(m, &got.path_profile),
        path_bytes(m, &want.path_profile),
        "{what}: path profile"
    );
    assert_eq!(
        got.path_sequence, want.path_sequence,
        "{what}: path sequence"
    );
    assert_eq!(
        got.trace_events_dropped, want.trace_events_dropped,
        "{what}: dropped events"
    );
    assert_eq!(got.deltas.len(), want.deltas.len(), "{what}: delta count");
    for (i, (g, w)) in got.deltas.iter().zip(&want.deltas).enumerate() {
        assert_eq!(
            write_edge_profile_v2(m, &g.edges),
            write_edge_profile_v2(m, &w.edges),
            "{what}: delta {i} edges"
        );
        assert_eq!(
            write_path_profile_v2(m, &g.paths),
            write_path_profile_v2(m, &w.paths),
            "{what}: delta {i} paths"
        );
    }
}

/// Runs `m` on the VM and on the reference under `opts` and compares.
fn check(m: &Module, what: &str, opts: &RunOptions) -> RunResult {
    let got = run(m, "main", opts).expect("main exists");
    let want = run_reference(m, opts, None);
    assert_same(m, what, &got, &want);
    got
}

/// The suite at [`SCALE`], normalized for instrumentation.
fn suite() -> Vec<(String, Module)> {
    spec2000_suite()
        .into_iter()
        .map(|e| {
            let mut m = generate(&e.spec.clone().scaled(SCALE));
            normalize_module(&mut m);
            (e.spec.name, m)
        })
        .collect()
}

#[test]
fn vm_matches_reference_on_suite() {
    let faults = TraceFaults {
        drop_edge_every: 7,
        drop_path_every: 5,
        seed: 0xFA17,
    };
    for (name, m) in suite() {
        for seed in SEEDS {
            let base = RunOptions::default().with_seed(seed);
            let traced = check(&m, &format!("{name}/{seed} traced"), &base.traced());
            assert_eq!(traced.halt, HaltReason::Finished, "{name}/{seed}");
            let edges = traced.edge_profile.as_ref().expect("traced");
            for config in [
                ProfilerConfig::pp(),
                ProfilerConfig::tpp(),
                ProfilerConfig::ppp(),
            ] {
                let plan = instrument_module(&m, Some(edges), &config);
                let what = format!("{name}/{seed} {}", config.label());
                let r = check(&plan.module, &what, &base);
                // PP instruments every routine; TPP/PPP may skip them all.
                if config.kind == ProfilerKind::Pp {
                    assert!(r.prof_steps > 0, "{what}: instrumentation ran");
                }
            }
            let variants = [
                ("deltas", base.traced().with_delta_interval(97)),
                ("faults", base.traced().with_trace_faults(faults)),
                ("sequence", base.traced_with_sequence()),
                (
                    "all",
                    base.traced_with_sequence()
                        .with_delta_interval(13)
                        .with_trace_faults(faults),
                ),
                (
                    "halfway",
                    RunOptions {
                        max_steps: traced.steps / 2 + seed % 7,
                        ..base.traced_with_sequence().with_delta_interval(31)
                    },
                ),
            ];
            for (label, opts) in variants {
                check(&m, &format!("{name}/{seed} {label}"), &opts);
            }
            // PPP's counters and the tracer in one run.
            let ppp = instrument_module(&m, Some(edges), &ProfilerConfig::ppp());
            check(
                &ppp.module,
                &format!("{name}/{seed} PPP traced"),
                &base.traced_with_sequence().with_delta_interval(211),
            );
        }
    }
}

#[test]
fn trie_paths_match_naive_recorder_on_suite() {
    for (name, m) in suite() {
        for seed in SEEDS {
            let opts = RunOptions::default().with_seed(seed).traced();
            let got = run(&m, "main", &opts).expect("main exists");
            let mut naive = NaiveRecorder::new(&m);
            run_reference(&m, &opts, Some(&mut naive));
            assert!(naive.open.is_empty(), "{name}/{seed}: run finished");
            let paths = got.path_profile.expect("traced");
            assert!(paths.total_unit_flow() > 0, "{name}/{seed}: paths ran");
            assert_eq!(
                write_path_profile_v2(&m, &paths),
                write_path_profile_v2(&m, &naive.paths),
                "{name}/{seed}: tracer paths differ from the naive recorder"
            );
        }
    }
}

/// `main` loops 6 times calling `leaf` (a branch, a switch and counting
/// ops on an array and a hash table) and `rec` (which recurses `depth`
/// deep), emitting each result.
fn calls_module(depth: i64) -> Module {
    let mut m = Module::new();

    // leaf(x): branch on x & 1, switch on x - 3 (negative and too-large
    // values take the default), count into t0 and t1.
    let mut b = FunctionBuilder::new("leaf", 1);
    let x = b.param(0);
    let one = b.constant(1);
    let three = b.constant(3);
    let odd = b.binary(BinOp::And, x, one);
    let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
    b.branch(odd, t, e);
    b.switch_to(t);
    let y = b.binary(BinOp::Add, x, three);
    b.emit(y);
    b.jump(j);
    b.switch_to(e);
    let z = b.binary(BinOp::Mul, x, three);
    b.emit(z);
    b.jump(j);
    b.switch_to(j);
    let disc = b.binary(BinOp::Sub, x, three);
    let (s0, s1, sd, out) = (b.new_block(), b.new_block(), b.new_block(), b.new_block());
    b.switch(disc, vec![s0, s1], sd);
    for s in [s0, s1, sd] {
        b.switch_to(s);
        b.jump(out);
    }
    b.switch_to(out);
    b.ret(Some(disc));
    let leaf = m.add_function(b.finish());

    // rec(k): k > 0 ? rec(k - 1) + 1 : 0
    let mut b = FunctionBuilder::new("rec", 1);
    let k = b.param(0);
    let (deeper, base) = (b.new_block(), b.new_block());
    b.branch(k, deeper, base);
    b.switch_to(deeper);
    let one = b.constant(1);
    let km1 = b.binary(BinOp::Sub, k, one);
    let r = b.call(FuncId::new(1), vec![km1]);
    let r1 = b.binary(BinOp::Add, r, one);
    b.ret(Some(r1));
    b.switch_to(base);
    let zero = b.constant(0);
    b.ret(Some(zero));
    let rec = m.add_function(b.finish());

    // main: for i in (0..6).rev() { emit leaf(rand(9)); emit rec(depth) }
    let mut b = FunctionBuilder::new("main", 0);
    let i = b.constant(6);
    let nine = b.constant(9);
    let d = b.constant(depth);
    let (hdr, body, exit) = (b.new_block(), b.new_block(), b.new_block());
    b.jump(hdr);
    b.switch_to(hdr);
    b.branch(i, body, exit);
    b.switch_to(body);
    let v = b.rand(nine);
    let w = b.call(leaf, vec![v]);
    b.emit(w);
    let u = b.call(rec, vec![d]);
    b.emit(u);
    let one = b.constant(1);
    b.binary_to(i, BinOp::Sub, i, one);
    b.jump(hdr);
    b.switch_to(exit);
    b.ret(None);
    m.add_function(b.finish());

    // Counting ops in leaf's blocks: array t0 and a tiny hash t1 (so
    // probes collide and paths are lost).
    let t0 = m.add_table(TableDecl {
        func: leaf,
        kind: TableKind::Array { size: 4 },
        hot_paths: 4,
    });
    let t1 = m.add_table(TableDecl {
        func: leaf,
        kind: TableKind::Hash {
            slots: 3,
            max_probes: 2,
        },
        hot_paths: 3,
    });
    let f = m.function_mut(leaf);
    f.blocks[0]
        .insts
        .insert(0, Inst::Prof(ProfOp::SetR { value: -1 }));
    f.blocks[t.index()]
        .insts
        .push(Inst::Prof(ProfOp::AddR { value: 3 }));
    f.blocks[j.index()].insts.extend([
        Inst::Prof(ProfOp::CountRChecked { table: t0 }),
        Inst::Prof(ProfOp::CountRPlus {
            table: t1,
            addend: 5,
        }),
        Inst::Prof(ProfOp::CountConst {
            table: t1,
            index: 11,
        }),
        Inst::Prof(ProfOp::CountRPlusChecked {
            table: t0,
            addend: 1,
        }),
        Inst::Prof(ProfOp::CountR { table: t1 }),
    ]);
    f.blocks[out.index()]
        .insts
        .push(Inst::Prof(ProfOp::SetR { value: 0 }));
    m
}

#[test]
fn calls_match_reference_under_every_step_budget() {
    let m = calls_module(3);
    let opts = RunOptions::default()
        .with_seed(2)
        .traced_with_sequence()
        .with_delta_interval(5);
    let full = check(&m, "calls full", &opts);
    assert_eq!(full.halt, HaltReason::Finished);
    assert!(full.calls > 8 && full.prof_steps > 0);
    // Every arm of leaf's switch ran, the default included.
    let leaf = full
        .edge_profile
        .as_ref()
        .expect("traced")
        .func(FuncId::new(0));
    let switch = BlockId::new(3);
    for s in 0..3 {
        assert!(leaf.edge(EdgeRef::new(switch, s)) > 0, "switch arm {s}");
    }
    for max_steps in 0..=full.steps {
        let limited = RunOptions { max_steps, ..opts };
        let r = check(&m, &format!("calls max_steps={max_steps}"), &limited);
        let want = if max_steps < full.steps {
            HaltReason::StepLimit
        } else {
            HaltReason::Finished
        };
        assert_eq!(r.halt, want, "max_steps={max_steps}");
        // Untraced, too: the counters alone.
        let plain = RunOptions {
            max_steps,
            ..RunOptions::default().with_seed(2)
        };
        check(&m, &format!("calls untraced max_steps={max_steps}"), &plain);
    }
}

#[test]
fn call_depth_limit_matches_reference() {
    let m = calls_module(6);
    for max_call_depth in 0..=9 {
        let opts = RunOptions {
            max_call_depth,
            ..RunOptions::default().with_seed(4).traced_with_sequence()
        };
        let r = check(&m, &format!("max_call_depth={max_call_depth}"), &opts);
        // main + rec(6) .. rec(0) is 8 frames deep.
        let want = if max_call_depth < 8 {
            HaltReason::CallDepthLimit
        } else {
            HaltReason::Finished
        };
        assert_eq!(r.halt, want, "max_call_depth={max_call_depth}");
    }
}
