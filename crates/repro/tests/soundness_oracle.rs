//! The soundness proof against the path-by-path oracle on real plans:
//! every plan `repro lint` makes (all 13 configurations, ablations
//! included) for every suite entry at scale 0.01, two VM seeds. Every
//! routine with at most `MAX_ORACLE_PATHS` paths is simulated path by
//! path and must get the same codes from the proof. A defect planted
//! where only path ids of 1024 and above run must be found too.

#[path = "../../lint/tests/soundness_oracle/mod.rs"]
mod soundness_oracle;

use ppp_core::dag::DagEdgeId;
use ppp_core::plan::PlanOp;
use ppp_core::{instrument_module, FuncPlan, ProfilerConfig};
use ppp_lint::Code;
use ppp_repro::{pipeline_configs, prepare_benchmark, PipelineOptions};
use ppp_workloads::spec2000_suite;
use soundness_oracle::{assert_agree, MAX_ORACLE_PATHS};

fn options(seed: u64, ablations: bool) -> PipelineOptions {
    PipelineOptions {
        scale: 0.01,
        seed,
        ablations,
        ..PipelineOptions::default()
    }
}

#[test]
fn proof_agrees_with_the_oracle_on_every_suite_plan() {
    let (mut plans, mut routines, mut paths) = (0, 0, 0);
    for seed in [701, 702] {
        let options = options(seed, true);
        let configs = pipeline_configs(&options);
        assert_eq!(configs.len(), 13);
        for entry in spec2000_suite() {
            let prep = prepare_benchmark(&entry, &options).expect("suite entry runs");
            for config in &configs {
                let plan = instrument_module(&prep.module, Some(&prep.edges), config);
                let case = format!("{} seed {seed} {}", prep.name, config.label());
                let seen = assert_agree(&plan, &case);
                assert!(seen.codes.is_empty(), "{case}: {:?}", seen.codes);
                let small = plan
                    .funcs
                    .iter()
                    .filter(|fp| !fp.instrumented || fp.n_paths <= MAX_ORACLE_PATHS);
                assert_eq!(seen.routines, small.count(), "{case}");
                plans += 1;
                routines += seen.routines;
                paths += seen.paths;
            }
        }
    }
    assert_eq!(plans, 2 * 18 * 13);
    assert!(routines > 0 && paths > 0);
}

/// The smallest id of any path through each edge: the least id prefix
/// reaching its source plus its own value.
fn least_ids(fp: &FuncPlan) -> Vec<Option<i64>> {
    let (dag, num) = (&fp.dag, fp.numbering.as_ref().unwrap());
    let mut least_prefix = vec![None; dag.block_count()];
    least_prefix[dag.entry.index()] = Some(0i64);
    let mut least = vec![None; dag.edge_count()];
    for &v in dag.topo() {
        let Some(prefix) = least_prefix[v.index()] else {
            continue;
        };
        for &e in dag.out_edges(v) {
            if !num.on_counted_path(dag, e, &fp.cold) {
                continue;
            }
            let id = prefix + num.val[e.index()];
            least[e.index()] = Some(id);
            let to = &mut least_prefix[dag.edge(e).to.index()];
            *to = Some(to.map_or(id, |t: i64| t.min(id)));
        }
    }
    least
}

#[test]
fn a_defect_past_path_id_1024_is_found() {
    let options = options(701, false);
    // The routine with the most paths in any PP plan of the suite.
    let (mut plan, f) = spec2000_suite()
        .iter()
        .map(|entry| {
            let prep = prepare_benchmark(entry, &options).expect("suite entry runs");
            let plan = instrument_module(&prep.module, Some(&prep.edges), &ProfilerConfig::pp());
            let f = (0..plan.funcs.len())
                .max_by_key(|&f| plan.funcs[f].n_paths)
                .expect("modules have routines");
            (plan, f)
        })
        .max_by_key(|(plan, f)| plan.funcs[*f].n_paths)
        .expect("the suite has entries");
    let fp = &plan.funcs[f];
    assert!(
        fp.n_paths > 1024,
        "largest routine has {} paths",
        fp.n_paths
    );
    // An increment on an edge no path with an id below 1024 crosses.
    let least = least_ids(fp);
    let (e, k) = (0..fp.dag.edge_count())
        .filter(|&e| least[e].is_some_and(|id| id >= 1024))
        .find_map(|e| {
            let k = fp.edge_ops[e]
                .iter()
                .position(|op| matches!(op, PlanOp::Add(_)))?;
            Some((DagEdgeId(e as u32), k))
        })
        .expect("some increment lies only on paths with ids of 1024 and above");
    assert!(ppp_lint::lint_plan(&plan).is_clean());
    let fp = &mut plan.funcs[f];
    if let PlanOp::Add(c) = fp.edge_ops[e.index()][k] {
        fp.edge_ops[e.index()][k] = PlanOp::Add(c + 1);
    }
    let report = ppp_lint::lint_plan(&plan);
    assert!(report.has(Code::PathNumbering), "{report}");
    assert!(assert_agree(&plan, "perturbed")
        .codes
        .contains(&Code::PathNumbering));
}
