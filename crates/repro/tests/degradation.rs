//! End-to-end fixtures for the profile-ingestion degradation ladder:
//! one fixture per rung, a stale-shape remap, matched loads of damaged
//! artifacts, counter saturation, and a fixed-seed chaos smoke over a real prepared benchmark. Every salvaged
//! profile must still pass the `ppp-lint` flow-conservation checks
//! (PPP308) on its surviving functions.

use ppp_ir::{
    salvage_edge_profile, write_edge_profile_v2, EdgeRef, FuncId, ModuleEdgeProfile,
    ProfileLoadError,
};
use ppp_match::read_edge_profile_matched;
use ppp_repro::chaos::stale_shape_module;
use ppp_repro::{
    chaos_prepared, ingest_guidance, prepare_benchmark, run_prepared, ChaosVerdict, FaultPlan,
    FaultSite, LadderRung, PipelineOptions, PreparedBenchmark,
};
use ppp_workloads::spec2000_suite;

fn prep_mcf() -> (PreparedBenchmark, PipelineOptions) {
    let options = PipelineOptions {
        scale: 0.02,
        ..PipelineOptions::default()
    };
    let suite = spec2000_suite();
    let entry = suite.iter().find(|e| e.spec.name == "mcf").unwrap();
    let prep = prepare_benchmark(entry, &options).expect("pipeline completes");
    (prep, options)
}

/// Damages the first branching function's counts so its flow no longer
/// balances; returns the damaged function's index.
fn break_flow(prep: &mut PreparedBenchmark) -> FuncId {
    let (i, f) = prep
        .module
        .functions
        .iter()
        .enumerate()
        .find(|(_, f)| f.block_ids().any(|b| f.block(b).term.successor_count() > 1))
        .expect("a branching function exists");
    let b = f
        .block_ids()
        .find(|&b| f.block(b).term.successor_count() > 1)
        .unwrap();
    let fid = FuncId::new(i);
    prep.edges.func_mut(fid).bump_edge(EdgeRef::new(b, 0));
    fid
}

fn assert_guidance_sound(prep: &PreparedBenchmark, g: &ModuleEdgeProfile) {
    assert!(g.shape_matches(&prep.module));
    assert!(g.is_flow_conservative(&prep.module));
    let lint = ppp_lint::check_profile(&prep.module, g);
    assert!(lint.is_empty(), "salvaged profile fails PPP308:\n{lint}");
}

#[test]
fn rung1_full_profile_on_clean_ingest() {
    let (prep, _) = prep_mcf();
    let (g, r) = ingest_guidance(&prep.module, Some(prep.edges.clone()), Some(&prep.truth));
    assert_eq!(r.rung(), LadderRung::FullProfile);
    assert!(!r.degraded());
    assert_eq!(g.expect("guidance"), prep.edges);
}

#[test]
fn rung2_salvages_consistent_functions_without_paths() {
    let (mut prep, _) = prep_mcf();
    let damaged = break_flow(&mut prep);
    let (g, r) = ingest_guidance(&prep.module, Some(prep.edges.clone()), None);
    assert_eq!(r.rung(), LadderRung::SalvagedFunctions);
    assert_eq!(
        r.quarantined,
        vec![prep.module.function(damaged).name.clone()]
    );
    let g = g.expect("other functions survive");
    assert!(g.func(damaged).is_zero(), "damaged function quarantined");
    assert_guidance_sound(&prep, &g);
}

#[test]
fn rung3_rebuilds_damaged_functions_from_paths() {
    let (mut prep, _) = prep_mcf();
    let pristine = prep.edges.clone();
    let damaged = break_flow(&mut prep);
    let (g, r) = ingest_guidance(&prep.module, Some(prep.edges.clone()), Some(&prep.truth));
    assert_eq!(r.rung(), LadderRung::PathDerivedEdges);
    assert_eq!(r.rebuilt, vec![prep.module.function(damaged).name.clone()]);
    let g = g.expect("guidance");
    // The rebuild recovers the damaged function's exact original counts.
    assert_eq!(g.func(damaged), pristine.func(damaged));
    assert_guidance_sound(&prep, &g);
}

#[test]
fn rung5_static_estimate_when_nothing_survives() {
    let (prep, _) = prep_mcf();
    let (g, r) = ingest_guidance(&prep.module, None, None);
    assert_eq!(r.rung(), LadderRung::StaticEstimate);
    assert!(r.degraded());
    // The bottom rung is no longer empty-handed: ppp-est synthesizes a
    // shape-matching, flow-conservative, non-zero estimate.
    let g = g.expect("ppp-est estimate");
    assert!(g.shape_matches(&prep.module));
    assert!(g.is_flow_conservative(&prep.module));
    assert!(g.funcs.iter().any(|f| !f.is_zero()));
    assert!(r.events.iter().any(|e| e.detail.contains("ppp-est")));
}

#[test]
fn saturated_counters_are_quarantined_and_rebuilt() {
    let (prep, _) = prep_mcf();
    let mut edges = prep.edges.clone();
    let plan = FaultPlan::new(FaultSite::SaturateCounters, 7);
    let hit = plan.saturate_edge_profile(&mut edges).expect("non-empty");
    let (g, r) = ingest_guidance(&prep.module, Some(edges), Some(&prep.truth));
    assert!(r.events.iter().any(|e| e.cause == "saturated"));
    assert!(r.degraded());
    let g = g.expect("guidance survives");
    assert!(!g.func(FuncId::new(hit)).saturated());
    assert_guidance_sound(&prep, &g);
}

#[test]
fn stale_shape_load_remaps_by_name() {
    let (prep, _) = prep_mcf();
    let bytes = write_edge_profile_v2(&prep.module, &prep.edges).into_bytes();
    let mut rotated = prep.module.clone();
    rotated.functions.rotate_left(1);
    let (profile, report) =
        read_edge_profile_matched(&prep.module, &rotated, &bytes).expect("loads");
    assert_eq!(
        report.transfer.anchor_paired, 0,
        "every function pairs by name"
    );
    assert!(report.is_lossless(), "{report:?}");
    // Each function's counts follow it to its new index.
    for (old, f) in prep.module.functions.iter().enumerate() {
        let new = rotated.function_by_name(&f.name).expect("same names");
        assert_ne!(new.index(), old, "rotation renumbers {}", f.name);
        assert_eq!(
            profile.func(new),
            prep.edges.func(FuncId::new(old)),
            "{}",
            f.name
        );
    }
}

#[test]
fn matched_loader_degrades_damaged_artifacts() {
    let (prep, _) = prep_mcf();
    let clean = write_edge_profile_v2(&prep.module, &prep.edges).into_bytes();
    let header_len = clean.iter().position(|&b| b == b'\n').expect("header") + 1;
    let newer = stale_shape_module(&prep.module, 701);
    let (_, report) = read_edge_profile_matched(&prep.module, &newer, &clean).expect("loads");
    assert!(report.quarantined.is_empty() && report.faults.is_empty());
    for site in [FaultSite::CorruptEdgeBytes, FaultSite::TruncateEdgeBytes] {
        for seed in 0..64 {
            let plan = FaultPlan::new(site, seed);
            let mut bytes = clean.clone();
            let header_hit = if site == FaultSite::TruncateEdgeBytes {
                plan.truncate_bytes(&mut bytes) < header_len
            } else {
                let hits = plan.corrupt_bytes(&mut bytes, 4);
                hits.iter().any(|&at| at < header_len)
            };
            let (profile, report) = match read_edge_profile_matched(&prep.module, &newer, &bytes) {
                Ok(loaded) => loaded,
                Err(e) => {
                    let container = matches!(
                        e,
                        ProfileLoadError::BadMagic
                            | ProfileLoadError::UnsupportedVersion { .. }
                            | ProfileLoadError::WrongKind { .. }
                            | ProfileLoadError::MalformedHeader { .. }
                    );
                    assert!(container && header_hit, "{site} seed {seed}: {e}");
                    continue;
                }
            };
            assert!(profile.shape_matches(&newer), "{site} seed {seed}");
            let lint = ppp_lint::check_profile(&newer, &profile);
            assert!(lint.is_empty(), "{site} seed {seed} fails PPP308:\n{lint}");
            if !report.quarantined.is_empty() {
                assert!(!report.is_lossless(), "{site} seed {seed}: {report:?}");
            }
            // Against the module that wrote it, a lossless load is the
            // original profile: damage never passes as intact counts.
            let (same, r) =
                read_edge_profile_matched(&prep.module, &prep.module, &bytes).expect("loads");
            if r.is_lossless() {
                assert_eq!(same, prep.edges, "{site} seed {seed}");
            }
        }
    }
}

#[test]
fn salvage_loader_feeds_the_ladder_end_to_end() {
    let (prep, options) = prep_mcf();
    let mut bytes = write_edge_profile_v2(&prep.module, &prep.edges).into_bytes();
    // Flip bytes mid-artifact until at least one section is quarantined.
    let plan = FaultPlan::new(FaultSite::CorruptEdgeBytes, 3);
    plan.corrupt_bytes(&mut bytes[40..], 6);
    let s = salvage_edge_profile(&prep.module, &bytes).expect("container intact");
    assert!(!s.is_clean(), "damage must quarantine something");
    let mut damaged_prep = prep.clone();
    damaged_prep.edges = s.profile;
    let run = run_prepared(damaged_prep, &options).expect("pipeline completes");
    assert_eq!(run.profilers.len(), 3);
    // A quarantined section either vanished into zeroes (degradation
    // reported) or was rebuilt from paths — but never trusted silently.
    assert!(run.degradation.rung() <= LadderRung::PathDerivedEdges);
}

#[test]
fn chaos_smoke_fixed_seed() {
    let (prep, options) = prep_mcf();
    let outcomes = chaos_prepared(&prep, 701, &options);
    assert_eq!(outcomes.len(), FaultSite::ALL.len());
    for o in &outcomes {
        assert!(
            o.ok(),
            "{}: silent degradation or dirty lint\n{}",
            o.site,
            o.report
        );
        assert_ne!(o.verdict, ChaosVerdict::Silent);
    }
}
