//! Adversarial invariant fuzzing: every profiler configuration (including
//! mutated thresholds that force tiny hash tables, aggressive cold
//! marking, SAC escalation, and eager loop disconnection) must preserve
//! semantics, produce valid IR, keep array tables lossless, and satisfy
//! the per-path counting invariants on generated workloads.

use ppp_core::dag::{Dag, DagEdgeId};
use ppp_core::instrument::{instrument_module, measured_paths, normalize_module};
use ppp_core::plan::{simulate, PlanOp};
use ppp_core::{ProfilerConfig, ProfilerKind, Technique};
use ppp_ir::{verify_module, Module};
use ppp_vm::{run, RunOptions};
use ppp_workloads::{generate, BenchmarkSpec};

fn all_configs() -> Vec<ProfilerConfig> {
    let mut v = vec![
        ProfilerConfig::pp(),
        ProfilerConfig::tpp(),
        ProfilerConfig::ppp(),
        ProfilerConfig::ppp_baseline(),
    ];
    for t in Technique::ALL {
        v.push(ProfilerConfig::ppp_without(t));
        if let Some(c) = ProfilerConfig::one_at_a_time(t) {
            v.push(c);
        }
    }
    // Mutated thresholds: aggressive cold marking, tiny hash threshold
    // (forces SAC escalation + hash tables), eager loop disconnection.
    let n = v.len();
    for i in 0..n {
        let mut c = v[i];
        c.params.cold_local_ratio = 0.35;
        c.params.cold_global_ratio = 0.02;
        c.params.obvious_loop_trip = 2.0;
        c.params.lc_coverage = 0.999;
        c.params.hash_threshold = 12;
        c.params.hash_slots = 7;
        c.params.hash_probes = 2;
        v.push(c);
        let mut c2 = v[i];
        c2.params.cold_local_ratio = 0.6;
        c2.params.cold_global_ratio = 0.2;
        c2.params.sac_multiplier = 1.05;
        c2.params.obvious_loop_trip = 1.0;
        v.push(c2);
    }
    v
}

/// Enumerate all DAG paths (including through cold edges), capped.
fn all_paths(dag: &Dag, cap: usize) -> Option<Vec<Vec<DagEdgeId>>> {
    let mut out = Vec::new();
    let mut stack = vec![(dag.entry, Vec::new())];
    while let Some((v, path)) = stack.pop() {
        if v == dag.exit {
            out.push(path);
            if out.len() > cap {
                return None;
            }
            continue;
        }
        for &e in dag.out_edges(v) {
            let mut p = path.clone();
            p.push(e);
            stack.push((dag.edge(e).to, p));
        }
    }
    Some(out)
}

fn check_module(spec: &BenchmarkSpec) {
    let m: Module = generate(spec);
    check_prepared(&spec.name, &m);
}

fn check_prepared(name: &str, m: &Module) {
    let spec_name = name;
    let m = m.clone();
    let truth = run(&m, "main", &RunOptions::default().traced()).unwrap();
    assert_eq!(
        truth.halt,
        ppp_vm::HaltReason::Finished,
        "{spec_name}: baseline did not finish"
    );
    let edges = truth.edge_profile.as_ref().unwrap();
    let truth_paths = truth.path_profile.as_ref().unwrap();
    // ppp-lint: the generic lints run once, on the module; each plan's
    // lint merges them in and checks that instrumentation changed nothing
    // they see.
    let lint = ppp_lint::ModuleLint::new(&m);

    for config in all_configs() {
        let plan = instrument_module(&m, Some(edges), &config);
        let label = config.label();
        assert_eq!(
            verify_module(&plan.module),
            Ok(()),
            "{} {}: IR invalid",
            spec_name,
            label
        );
        // ppp-lint: a fresh plan must lint clean — no dataflow warnings
        // (info is advisory), no soundness or conformance errors.
        let report = lint.plan(&plan);
        assert!(
            report.is_clean(),
            "{} {}: lint reported problems:\n{}",
            spec_name,
            label,
            report
        );

        let r = run(&plan.module, "main", &RunOptions::default()).unwrap();
        assert_eq!(
            r.halt,
            ppp_vm::HaltReason::Finished,
            "{spec_name} {label}: instrumented run did not finish"
        );
        assert_eq!(
            r.checksum, truth.checksum,
            "{} {}: instrumentation changed semantics",
            spec_name, label
        );

        // No counts may fall off an array table.
        for (ti, decl) in plan.module.tables.iter().enumerate() {
            if !decl.kind.is_hash() {
                let t = r.store.table(ppp_ir::TableId(ti as u32));
                assert_eq!(
                    t.lost(),
                    0,
                    "{} {}: array table {} of func {:?} lost counts",
                    spec_name,
                    label,
                    ti,
                    decl.func
                );
            }
        }

        let push = config.kind == ProfilerKind::Ppp && config.toggles.push_past_cold;

        // Static per-path op-list simulation.
        for fp in &plan.funcs {
            if !fp.instrumented {
                continue;
            }
            let Some(paths) = all_paths(&fp.dag, 4000) else {
                continue;
            };
            let n = fp.n_paths as i64;
            let num = fp.numbering.as_ref().unwrap();
            for path in &paths {
                if path.is_empty() {
                    continue; // single-block routine: counted in block body
                }
                let crosses_cold = path.iter().any(|e| fp.cold[e.index()]);
                let lists: Vec<&[PlanOp]> = path
                    .iter()
                    .map(|&e| fp.edge_ops[e.index()].as_slice())
                    .collect();
                for r_in in [0i64, 987_654_321, -7, i64::MIN / 4 + 3] {
                    let counted = simulate(&lists, r_in);
                    if !crosses_cold {
                        let p: i64 = path.iter().map(|&e| num.val[e.index()]).sum();
                        assert_eq!(
                            counted,
                            vec![p],
                            "{} {} func {:?}: hot path {:?} must count exactly its number {} (r_in={})",
                            spec_name, label, fp.func, path, p, r_in
                        );
                        assert!(
                            (0..n).contains(&p),
                            "{} {} func {:?}: hot number {} out of [0,{})",
                            spec_name,
                            label,
                            fp.func,
                            p,
                            n
                        );
                    } else {
                        for &c in &counted {
                            if (0..n).contains(&c) {
                                assert!(
                                    push,
                                    "{} {} func {:?}: cold path {:?} counted hot index {} without push-past-cold (r_in={})",
                                    spec_name, label, fp.func, path, c, r_in
                                );
                            } else if c < 0 {
                                assert!(
                                    fp.checked,
                                    "{} {} func {:?}: negative index {} in unchecked mode (r_in={})",
                                    spec_name, label, fp.func, c, r_in
                                );
                            }
                        }
                    }
                }
            }
        }

        // Runtime exactness: without push-past-cold, every measured hot
        // path of an array-table function must match ground truth exactly.
        if !push {
            let measured = measured_paths(&plan, &m, &r.store);
            for fp in &plan.funcs {
                if !fp.instrumented || fp.uses_hash {
                    continue;
                }
                // Completeness: every executed cold-free path must have
                // been measured at its exact frequency.
                if let Some(paths) = all_paths(&fp.dag, 4000) {
                    let mf = measured.func(fp.func);
                    let tf = truth_paths.func(fp.func);
                    for path in &paths {
                        if path.is_empty() || path.iter().any(|e| fp.cold[e.index()]) {
                            continue;
                        }
                        let key = fp.dag.path_key(path);
                        let truth_freq = tf.paths.get(&key).map_or(0, |s| s.freq);
                        let meas_freq = mf.paths.get(&key).map_or(0, |s| s.freq);
                        assert_eq!(
                            meas_freq, truth_freq,
                            "{} {} func {:?}: hot path {:?} measured {} != executed {}",
                            spec_name, label, fp.func, key, meas_freq, truth_freq
                        );
                    }
                }
                let mf = measured.func(fp.func);
                let tf = truth_paths.func(fp.func);
                for (key, stats) in &mf.paths {
                    let actual = tf.paths.get(key).unwrap_or_else(|| {
                        panic!(
                            "{} {} func {:?}: measured path {:?} (freq {}) not in ground truth",
                            spec_name, label, fp.func, key, stats.freq
                        )
                    });
                    assert_eq!(
                        stats.freq, actual.freq,
                        "{} {} func {:?}: path {:?} measured {} != actual {}",
                        spec_name, label, fp.func, key, stats.freq, actual.freq
                    );
                }
            }
        }
    }
}

#[test]
fn degenerate_cfgs() {
    use ppp_ir::{BinOp, FuncId, FunctionBuilder};
    let mut m = Module::new();

    // main: loop 300 times, call each weird function with a random arg.
    let n_funcs = 6u32;
    let mut mb = FunctionBuilder::new("main", 0);
    let iters = mb.constant(300);
    let i = mb.copy(iters);
    let (hdr, body, exit) = (mb.new_block(), mb.new_block(), mb.new_block());
    mb.jump(hdr);
    mb.switch_to(hdr);
    mb.branch(i, body, exit);
    mb.switch_to(body);
    let bound = mb.constant(17);
    for f in 1..=n_funcs {
        let a = mb.rand(bound);
        let r = mb.call(FuncId(f), vec![a]);
        mb.emit(r);
    }
    let one = mb.constant(1);
    mb.binary_to(i, BinOp::Sub, i, one);
    mb.jump(hdr);
    mb.switch_to(exit);
    mb.ret(None);
    m.add_function(mb.finish());

    // 1: irreducible: entry -> A | B; A <-> B; both exit when counter dies.
    {
        let mut b = FunctionBuilder::new("irreducible", 1);
        let x = b.param(0);
        let acc = b.copy(x);
        let two = b.constant(2);
        let par = b.binary(BinOp::Rem, x, two);
        let one0 = b.constant(1);
        let c = b.binary(BinOp::Add, x, one0);
        let (aa, bb, xx) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(par, aa, bb);
        b.switch_to(aa);
        let k = b.constant(3);
        b.binary_to(acc, BinOp::Add, acc, k);
        let one = b.constant(1);
        b.binary_to(c, BinOp::Sub, c, one);
        b.branch(c, bb, xx);
        b.switch_to(bb);
        let k2 = b.constant(7);
        b.binary_to(acc, BinOp::Xor, acc, k2);
        let one2 = b.constant(1);
        b.binary_to(c, BinOp::Sub, c, one2);
        b.branch(c, aa, xx);
        b.switch_to(xx);
        b.emit(acc);
        b.ret(Some(acc));
        m.add_function(b.finish());
    }
    // 2: self-loop latch.
    {
        let mut b = FunctionBuilder::new("selfloop", 1);
        let x = b.param(0);
        let one0 = b.constant(1);
        let c = b.binary(BinOp::Add, x, one0);
        let (l, e) = (b.new_block(), b.new_block());
        b.jump(l);
        b.switch_to(l);
        let one = b.constant(1);
        b.binary_to(c, BinOp::Sub, c, one);
        b.branch(c, l, e);
        b.switch_to(e);
        b.emit(c);
        b.ret(Some(c));
        m.add_function(b.finish());
    }
    // 3: parallel edges: branch with both targets equal; switch with
    // duplicate arms and default equal to an arm.
    {
        let mut b = FunctionBuilder::new("parallel", 1);
        let x = b.param(0);
        let (j, k, e) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(x, j, j);
        b.switch_to(j);
        let three = b.constant(3);
        let d = b.binary(BinOp::Rem, x, three);
        b.switch(d, vec![k, k, e], k);
        b.switch_to(k);
        b.emit(x);
        b.jump(e);
        b.switch_to(e);
        b.ret(Some(x));
        m.add_function(b.finish());
    }
    // 4: two parallel back edges from one latch: branch(c, H, H) cannot
    // terminate, so use branch(cond, H, H2) where H2 is the same header via
    // a second block, plus a genuine two-latch loop.
    {
        let mut b = FunctionBuilder::new("multiback", 1);
        let x = b.param(0);
        let c = b.copy(x);
        let (h, body, l1, l2, e) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.jump(h);
        b.switch_to(h);
        b.branch(c, body, e);
        b.switch_to(body);
        let one = b.constant(1);
        b.binary_to(c, BinOp::Sub, c, one);
        let two = b.constant(2);
        let p = b.binary(BinOp::Rem, c, two);
        b.branch(p, l1, l2);
        b.switch_to(l1);
        b.jump(h);
        b.switch_to(l2);
        b.jump(h);
        b.switch_to(e);
        b.emit(c);
        b.ret(Some(c));
        m.add_function(b.finish());
    }
    // 5: unreachable block + branch latch whose both arms are back edges
    // (header and header): terminates via the header test.
    {
        let mut b = FunctionBuilder::new("bothback", 1);
        let x = b.param(0);
        let c = b.copy(x);
        let (h, body, e) = (b.new_block(), b.new_block(), b.new_block());
        let orphan = b.new_block();
        b.jump(h);
        b.switch_to(h);
        b.branch(c, body, e);
        b.switch_to(body);
        let one = b.constant(1);
        b.binary_to(c, BinOp::Sub, c, one);
        let two = b.constant(2);
        let p = b.binary(BinOp::Rem, c, two);
        b.branch(p, h, h); // two parallel back edges
        b.switch_to(orphan);
        b.ret(None);
        b.switch_to(e);
        b.emit(c);
        b.ret(Some(c));
        m.add_function(b.finish());
    }

    // 6: self-recursive with internal branching.
    {
        let mut b = FunctionBuilder::new("recur", 1);
        let x = b.param(0);
        let acc = b.copy(x);
        let (base, step, t, e, j) = (
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
            b.new_block(),
        );
        b.branch(x, step, base);
        b.switch_to(step);
        let two = b.constant(2);
        let p = b.binary(BinOp::Rem, x, two);
        b.branch(p, t, e);
        b.switch_to(t);
        let k = b.constant(5);
        b.binary_to(acc, BinOp::Add, acc, k);
        b.jump(j);
        b.switch_to(e);
        let k = b.constant(9);
        b.binary_to(acc, BinOp::Xor, acc, k);
        b.jump(j);
        b.switch_to(j);
        let one = b.constant(1);
        let xm1 = b.binary(BinOp::Sub, x, one);
        let r = b.call(FuncId(6), vec![xm1]);
        b.binary_to(acc, BinOp::Add, acc, r);
        b.emit(acc);
        b.ret(Some(acc));
        b.switch_to(base);
        let one1 = b.constant(1);
        b.ret(Some(one1));
        m.add_function(b.finish());
    }

    normalize_module(&mut m);
    assert_eq!(verify_module(&m), Ok(()));
    check_prepared("degenerate", &m);
}

#[test]
fn fuzz_many_specs() {
    let mut specs = Vec::new();
    for i in 0..40usize {
        let name = format!("fz{i}");
        let mut s = BenchmarkSpec::named(&name).scaled(0.05);
        s.correlation = [0.0, 0.3, 0.6, 0.9, 1.0][i % 5];
        s.bias = [0.5, 0.8, 0.95, 0.99][i % 4];
        s.avg_trip = [2, 6, 15, 40][(i / 4) % 4];
        s.counted_loop_prob = [0.0, 0.5, 1.0, 0.3][(i / 3) % 4];
        s.max_depth = 2 + (i as u32 % 4);
        s.loop_prob = [0.1, 0.3, 0.45][i % 3];
        s.switch_prob = [0.05, 0.2][i % 2];
        s.scenario_ways = [2, 8, 32][i % 3];
        s.explosive_funcs = i % 3;
        s.explosive_diamonds = 6 + i % 6;
        s.funcs = 3 + i % 5;
        specs.push(s);
    }
    for s in &specs {
        check_module(s);
        eprintln!("spec {} ok", s.name);
    }
}
