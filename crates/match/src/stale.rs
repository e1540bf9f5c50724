//! Module-level matching and the matched-stale edge profile loader.
//!
//! [`match_modules`] is the one rule that pairs functions across program
//! versions:
//!
//! 1. functions are paired by name first and by **anchor identity**
//!    second — a renamed-but-identical function (equal whole-function
//!    fingerprint, unique on both sides) keeps its profile instead of
//!    being dropped;
//! 2. each paired function's profile is pushed through the CFG matcher
//!    and [transferred](crate::transfer) onto the new CFG, renormalizing
//!    at matched-region boundaries, so edits *inside* a function no
//!    longer void its profile.
//!
//! [`read_edge_profile_matched`] salvage-loads an artifact against the
//! module that wrote it and carries the result across with
//! [`transfer_module_edges`]. Every transferred edge profile satisfies
//! PPP308 flow conservation; an identity transfer (same program) is
//! lossless and byte-identical.
//!
//! Loading emits `ppp_stale_*` / `ppp_match_*` metrics through the
//! ambient [`ppp_obs`] context so silent profile drops are observable.

use crate::anchor::function_fingerprint;
use crate::matcher::{match_functions, MatchReport};
use crate::transfer::{transfer_module_edges, TransferReport};
use ppp_ir::{
    salvage_edge_profile, FuncId, Module, ModuleEdgeProfile, ProfileLoadError, SectionFault,
};
use ppp_lint::Code;
use std::collections::HashMap;

/// How a function pair was discovered.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum PairMethod {
    /// Same name in both modules.
    Name,
    /// Renamed, but unique equal anchor fingerprints on both sides.
    Anchor,
}

/// One old→new function pairing with its block-level match.
#[derive(Clone, Debug)]
pub struct FuncPair {
    /// Function id in the old module.
    pub old: FuncId,
    /// Function id in the new module.
    pub new: FuncId,
    /// How the pair was discovered.
    pub method: PairMethod,
    /// The block-level match between the two versions.
    pub report: MatchReport,
}

/// The full old→new module correspondence.
#[derive(Clone, Debug, Default)]
pub struct ModuleMatch {
    /// Matched function pairs, ordered by old function id.
    pub pairs: Vec<FuncPair>,
    /// Old functions with no counterpart (their profiles are dropped).
    pub unmatched_old: Vec<FuncId>,
    /// New functions with no pre-image (they start unprofiled).
    pub unmatched_new: Vec<FuncId>,
}

impl ModuleMatch {
    /// Number of pairs found by anchor identity rather than name.
    pub fn anchor_paired(&self) -> usize {
        self.pairs
            .iter()
            .filter(|p| p.method == PairMethod::Anchor)
            .count()
    }

    /// `true` when every pair is a block-level identity and nothing went
    /// unmatched on either side.
    pub fn is_identity(&self) -> bool {
        self.unmatched_old.is_empty()
            && self.unmatched_new.is_empty()
            && self.pairs.iter().all(|p| p.report.identity)
    }
}

/// Pairs the functions of two module versions (by name, then by unique
/// anchor identity) and matches each pair's CFGs.
pub fn match_modules(old: &Module, new: &Module) -> ModuleMatch {
    let mut paired_new = vec![false; new.functions.len()];
    let mut pairs: Vec<(FuncId, FuncId, PairMethod)> = Vec::new();
    let mut leftovers: Vec<FuncId> = Vec::new();
    for old_id in old.func_ids() {
        match new.function_by_name(&old.function(old_id).name) {
            Some(new_id) => {
                paired_new[new_id.index()] = true;
                pairs.push((old_id, new_id, PairMethod::Name));
            }
            None => leftovers.push(old_id),
        }
    }
    // Anchor-identity fallback: unique fingerprint on both sides.
    let mut new_by_fp: HashMap<u64, Vec<FuncId>> = HashMap::new();
    for new_id in new.func_ids() {
        if !paired_new[new_id.index()] {
            new_by_fp
                .entry(function_fingerprint(new, new.function(new_id)))
                .or_default()
                .push(new_id);
        }
    }
    let mut old_by_fp: HashMap<u64, Vec<FuncId>> = HashMap::new();
    for &old_id in &leftovers {
        old_by_fp
            .entry(function_fingerprint(old, old.function(old_id)))
            .or_default()
            .push(old_id);
    }
    let mut unmatched_old = Vec::new();
    for old_id in leftovers {
        let fp = function_fingerprint(old, old.function(old_id));
        let unique = old_by_fp[&fp].len() == 1;
        match new_by_fp.get(&fp).map(Vec::as_slice) {
            Some([new_id]) if unique && !paired_new[new_id.index()] => {
                paired_new[new_id.index()] = true;
                pairs.push((old_id, *new_id, PairMethod::Anchor));
            }
            _ => unmatched_old.push(old_id),
        }
    }
    pairs.sort_by_key(|(o, _, _)| *o);
    let pairs = pairs
        .into_iter()
        .map(|(o, n, method)| FuncPair {
            old: o,
            new: n,
            method,
            report: match_functions(
                old,
                old.function(o),
                new,
                new.function(n),
                n,
                &new.function(n).name,
            ),
        })
        .collect();
    let unmatched_new = new.func_ids().filter(|n| !paired_new[n.index()]).collect();
    ModuleMatch {
        pairs,
        unmatched_old,
        unmatched_new,
    }
}

/// The outcome of a matched-stale load: what the salvage load of the
/// artifact quarantined and what the transfer onto the new module did.
#[derive(Clone, Debug)]
pub struct MatchedStaleReport {
    /// Old-module functions whose sections were quarantined (loaded as
    /// zero) by the salvage load.
    pub quarantined: Vec<FuncId>,
    /// The salvage load's section faults.
    pub faults: Vec<SectionFault>,
    /// The cross-version transfer of the loaded profile.
    pub transfer: TransferReport,
}

impl MatchedStaleReport {
    /// `true` when the artifact loaded clean and the transfer was
    /// lossless: the transferred profile is the old profile, bit for bit.
    pub fn is_lossless(&self) -> bool {
        self.quarantined.is_empty() && self.faults.is_empty() && self.transfer.is_lossless()
    }
}

fn record_metrics(r: &MatchedStaleReport) {
    let obs = ppp_obs::global();
    let m = obs.metrics();
    let kind = "edge";
    let k = [("kind", kind)];
    let t = &r.transfer;
    m.inc_by("ppp_stale_section_faults_total", &k, r.faults.len() as u64);
    m.inc_by(
        "ppp_match_funcs_total",
        &[("kind", kind), ("method", "name")],
        (t.paired_funcs - t.anchor_paired) as u64,
    );
    m.inc_by(
        "ppp_match_funcs_total",
        &[("kind", kind), ("method", "anchor")],
        t.anchor_paired as u64,
    );
    m.inc_by(
        "ppp_match_funcs_total",
        &[("kind", kind), ("method", "unmatched")],
        t.unmatched_old.len() as u64,
    );
    m.inc_by(
        "ppp_match_blocks_total",
        &[("kind", kind), ("outcome", "matched")],
        t.matched_blocks as u64,
    );
    m.inc_by(
        "ppp_match_blocks_total",
        &[("kind", kind), ("outcome", "unmatched")],
        (t.total_old_blocks - t.matched_blocks) as u64,
    );
    m.inc_by(
        "ppp_match_transfer_funcs_total",
        &[("kind", kind), ("outcome", "renormalized")],
        t.renormalized_funcs.len() as u64,
    );
    m.inc_by(
        "ppp_match_transfer_funcs_total",
        &[("kind", kind), ("outcome", "zeroed")],
        t.zeroed_funcs.len() as u64,
    );
    m.inc_by("ppp_match_dropped_flow_total", &k, t.dropped_flow);
    for code in [
        Code::UnanchoredBlock,
        Code::AmbiguousAnchor,
        Code::SplitMergedRegion,
        Code::NonConservativeTransfer,
    ] {
        let n = t
            .diagnostics
            .diagnostics
            .iter()
            .filter(|d| d.code == code)
            .count();
        if n > 0 {
            m.inc_by(
                "ppp_match_diagnostics_total",
                &[("kind", kind), ("code", code.as_str())],
                n as u64,
            );
        }
    }
}

/// Loads a v2 edge profile written for an *older version* of the program
/// and transfers it onto `new`: the artifact is first salvage-loaded
/// against `old` (the module it was written for), then carried across
/// by [`transfer_module_edges`].
///
/// The returned profile always satisfies PPP308 flow conservation for
/// every function. When `old` and `new` are the same program and the
/// artifact is intact the load is lossless: the profile round-trips
/// byte-identically.
///
/// # Errors
///
/// Only container-level damage is fatal, as with
/// [`salvage_edge_profile`].
pub fn read_edge_profile_matched(
    old: &Module,
    new: &Module,
    bytes: &[u8],
) -> Result<(ModuleEdgeProfile, MatchedStaleReport), ProfileLoadError> {
    let salvaged = salvage_edge_profile(old, bytes)?;
    let (out, transfer) = transfer_module_edges(old, new, &salvaged.profile);
    let report = MatchedStaleReport {
        quarantined: salvaged.quarantined,
        faults: salvaged.faults,
        transfer,
    };
    record_metrics(&report);
    Ok((out, report))
}
