//! The profile-ingestion degradation ladder.
//!
//! A dynamic optimizer cannot refuse service because a profile is bad
//! (§1: profiles *feed* online optimization), and it must never act on
//! damaged guidance silently. This module implements the middle ground:
//! a ladder of progressively weaker guidance, each rung recorded in a
//! structured [`DegradationReport`]:
//!
//! 1. **Full profile** — the edge profile matches the module's shape, no
//!    counter saturated, and every function satisfies Kirchhoff flow
//!    conservation. Used as-is.
//! 2. **Matched stale** — the profile was collected on an older program
//!    version and transferred through the `ppp-match` CFG matcher
//!    ([`ingest_guidance_at`] with a [`LadderRung::MatchedStale`] floor).
//!    The counts are conservative but approximate.
//! 3. **Salvaged functions** — functions whose counts violate flow
//!    conservation (or saturated) are quarantined (zeroed — an all-zero
//!    profile is trivially conservative); the rest keep their counts.
//! 4. **Path-derived edges** — quarantined (or missing) edge counts are
//!    rebuilt from the surviving path profile via
//!    [`ModuleEdgeProfile::from_paths`]; rebuilt functions that still
//!    don't balance are quarantined for good.
//! 5. **Static estimate** — no usable guidance at all: the `ppp-est`
//!    analyzer synthesizes a profile from Ball–Larus branch heuristics
//!    and loop-nest frequency propagation, so cold-start guidance is
//!    real counts, not a `None` the instrumenter must special-case.
//!
//! The returned guidance is always safe to hand to the instrumenter: a
//! shape-matching, flow-conservative profile on every rung. `None` is
//! reserved for the degenerate empty-module case.

use ppp_ir::{FuncId, Module, ModuleEdgeProfile, ModulePathProfile};
use ppp_obs::json::escape;
use std::fmt;

/// One rung of the degradation ladder, ordered best to worst.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum LadderRung {
    /// The profile is intact; used as-is.
    FullProfile,
    /// The profile was transferred from an older program version through
    /// the CFG matcher; conservative but approximate.
    MatchedStale,
    /// Some functions quarantined, the rest kept.
    SalvagedFunctions,
    /// Some or all edge counts rebuilt from the path profile.
    PathDerivedEdges,
    /// No usable guidance; static estimation only.
    StaticEstimate,
}

impl LadderRung {
    /// Stable machine-readable name.
    pub fn name(self) -> &'static str {
        match self {
            LadderRung::FullProfile => "full-profile",
            LadderRung::MatchedStale => "matched-stale",
            LadderRung::SalvagedFunctions => "salvaged-functions",
            LadderRung::PathDerivedEdges => "path-derived-edges",
            LadderRung::StaticEstimate => "static-estimate",
        }
    }
}

impl fmt::Display for LadderRung {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded degradation step.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct DegradationEvent {
    /// Stable cause slug (e.g. `flow-violation`, `saturated`,
    /// `shape-mismatch`, `load-fault`, `rebuilt-from-paths`).
    pub cause: String,
    /// Human-readable detail.
    pub detail: String,
}

/// Structured record of everything the ladder did to one profile.
#[derive(Clone, Debug, Default)]
pub struct DegradationReport {
    /// Rung the ladder settled on (`None` until the ladder runs; read
    /// through [`DegradationReport::rung`]).
    pub final_rung: Option<LadderRung>,
    /// Everything that was wrong and every action taken, in order.
    pub events: Vec<DegradationEvent>,
    /// Functions whose counts were quarantined for good (zeroed).
    pub quarantined: Vec<String>,
    /// Functions whose edge counts were rebuilt from the path profile.
    pub rebuilt: Vec<String>,
    /// Dynamic flow dropped while rebuilding from paths (incomplete
    /// trailing paths).
    pub dropped_flow: u64,
}

impl DegradationReport {
    /// The rung (defaults to [`LadderRung::FullProfile`] when the ladder
    /// recorded nothing).
    pub fn rung(&self) -> LadderRung {
        self.final_rung.unwrap_or(LadderRung::FullProfile)
    }

    /// `true` when the profile did not load clean — something was
    /// quarantined, rebuilt, or reported.
    pub fn degraded(&self) -> bool {
        self.rung() != LadderRung::FullProfile || !self.events.is_empty()
    }

    /// Appends an event.
    pub fn push(&mut self, cause: &str, detail: impl Into<String>) {
        self.events.push(DegradationEvent {
            cause: cause.to_owned(),
            detail: detail.into(),
        });
    }

    /// Renders the report as a JSON object (stable keys; used by
    /// `repro chaos --format json`).
    pub fn to_json(&self) -> String {
        let events = self
            .events
            .iter()
            .map(|e| {
                format!(
                    "{{\"cause\":\"{}\",\"detail\":\"{}\"}}",
                    escape(&e.cause),
                    escape(&e.detail)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let names = |v: &[String]| {
            v.iter()
                .map(|n| format!("\"{}\"", escape(n)))
                .collect::<Vec<_>>()
                .join(",")
        };
        format!(
            "{{\"rung\":\"{}\",\"degraded\":{},\"quarantined\":[{}],\"rebuilt\":[{}],\
             \"dropped_flow\":{},\"events\":[{events}]}}",
            self.rung(),
            self.degraded(),
            names(&self.quarantined),
            names(&self.rebuilt),
            self.dropped_flow,
        )
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "rung: {}", self.rung())?;
        if !self.quarantined.is_empty() {
            writeln!(f, "quarantined: {}", self.quarantined.join(", "))?;
        }
        if !self.rebuilt.is_empty() {
            writeln!(f, "rebuilt from paths: {}", self.rebuilt.join(", "))?;
        }
        if self.dropped_flow > 0 {
            writeln!(f, "dropped flow: {}", self.dropped_flow)?;
        }
        for e in &self.events {
            writeln!(f, "  [{}] {}", e.cause, e.detail)?;
        }
        Ok(())
    }
}

/// Function indices of `profile` that cannot be trusted: saturated
/// counters or Kirchhoff flow violations. Requires a shape-matching
/// profile.
fn untrusted_funcs(
    module: &Module,
    profile: &ModuleEdgeProfile,
    report: &mut DegradationReport,
) -> Vec<FuncId> {
    let mut bad = Vec::new();
    for (i, f) in module.functions.iter().enumerate() {
        let fid = FuncId::new(i);
        let p = profile.func(fid);
        if p.saturated() {
            report.push(
                "saturated",
                format!("{}: counter pinned at u64::MAX", f.name),
            );
            bad.push(fid);
            continue;
        }
        let violations = p.flow_violations(f);
        if !violations.is_empty() {
            report.push(
                "flow-violation",
                format!(
                    "{}: {} Kirchhoff violation(s), first: {:?}",
                    f.name,
                    violations.len(),
                    violations[0]
                ),
            );
            bad.push(fid);
        }
    }
    bad
}

/// Runs the degradation ladder over an ingested edge profile.
///
/// `edges` is the (possibly damaged, possibly absent) guidance profile;
/// `paths` is the surviving path profile, if any, used to rebuild
/// quarantined functions. Returns the sanitized guidance plus the
/// structured report. When nothing usable survives, rung 5 synthesizes
/// guidance with [`ppp_est::estimate_module`] instead of returning
/// `None`.
///
/// Guarantee: the result always shape-matches `module` and is flow
/// conservative, so downstream consumers need no further checks.
pub fn ingest_guidance(
    module: &Module,
    edges: Option<ModuleEdgeProfile>,
    paths: Option<&ModulePathProfile>,
) -> (Option<ModuleEdgeProfile>, DegradationReport) {
    ingest_guidance_at(module, edges, paths, LadderRung::FullProfile)
}

/// [`ingest_guidance`] with a rung *floor*: the report never lands above
/// `floor` while guidance is in play. Matched-stale loading passes
/// [`LadderRung::MatchedStale`] for non-identity transfers, so a profile
/// that was approximated across program versions is never reported as a
/// pristine full profile — the ladder stays honest about provenance.
///
/// A floor above `FullProfile` also records a `stale-transfer` event, so
/// the report is visibly degraded even when every count survived the
/// transfer checks.
pub fn ingest_guidance_at(
    module: &Module,
    edges: Option<ModuleEdgeProfile>,
    paths: Option<&ModulePathProfile>,
    floor: LadderRung,
) -> (Option<ModuleEdgeProfile>, DegradationReport) {
    let (guidance, mut report) = ingest_guidance_inner(module, edges, paths);
    if floor > LadderRung::FullProfile && guidance.is_some() {
        let rung = report.rung().max(floor);
        if report.rung() < floor {
            report.push(
                "stale-transfer",
                format!(
                    "guidance transferred from an older program version; \
                     floor raised to {rung}"
                ),
            );
        }
        report.final_rung = Some(rung);
    }
    (guidance, report)
}

fn ingest_guidance_inner(
    module: &Module,
    edges: Option<ModuleEdgeProfile>,
    paths: Option<&ModulePathProfile>,
) -> (Option<ModuleEdgeProfile>, DegradationReport) {
    let mut report = DegradationReport::default();

    // Rung 1 entry: do we have a shape-compatible edge profile at all?
    let mut profile = match edges {
        Some(e) if e.shape_matches(module) => Some(e),
        Some(_) => {
            report.push(
                "shape-mismatch",
                "edge profile does not match the module's shape; discarding counts",
            );
            None
        }
        None => {
            report.push("missing-profile", "no edge profile available");
            None
        }
    };

    // Identify quarantine candidates (rung 2), or start from nothing.
    let candidates: Vec<FuncId> = match &profile {
        Some(p) => untrusted_funcs(module, p, &mut report),
        None => (0..module.functions.len()).map(FuncId::new).collect(),
    };

    if profile.is_some() && candidates.is_empty() {
        report.final_rung = Some(LadderRung::FullProfile);
        return (profile, report);
    }

    // Rung 3: rebuild the candidates from the surviving paths.
    let derived = paths.map(|p| ModuleEdgeProfile::from_paths(module, p));
    let mut rung = if profile.is_some() {
        LadderRung::SalvagedFunctions
    } else {
        LadderRung::PathDerivedEdges
    };
    let mut out = profile
        .take()
        .unwrap_or_else(|| ModuleEdgeProfile::zeroed(module));
    for fid in candidates {
        let f = module.function(fid);
        let replacement = derived.as_ref().map(|(d, _)| d.func(fid));
        match replacement {
            Some(d) if !d.is_zero() && !d.saturated() && d.flow_violations(f).is_empty() => {
                *out.func_mut(fid) = d.clone();
                report.rebuilt.push(f.name.clone());
                rung = rung.max(LadderRung::PathDerivedEdges);
            }
            _ => {
                out.func_mut(fid).zero();
                report.quarantined.push(f.name.clone());
            }
        }
    }
    if let Some((_, dropped)) = &derived {
        report.dropped_flow = *dropped;
        if *dropped > 0 {
            report.push(
                "dropped-flow",
                format!("{dropped} dynamic flow lost to incomplete paths"),
            );
        }
    }
    if !report.rebuilt.is_empty() {
        report.push(
            "rebuilt-from-paths",
            format!(
                "{} function(s) rebuilt from the surviving path profile",
                report.rebuilt.len()
            ),
        );
    }

    // Rung 5: nothing usable survived — synthesize guidance statically
    // with ppp-est instead of handing the instrumenter `None`.
    if out.funcs.iter().all(|p| p.is_zero()) {
        let (estimate, est_report) =
            ppp_est::estimate_module(module, &ppp_est::EstOptions::default());
        report.push(
            "no-usable-guidance",
            format!(
                "every function quarantined; guidance synthesized by ppp-est \
                 ({} function(s), {} branch(es) predicted, {} loop(s), \
                 {} diagnostic(s))",
                est_report.stats.funcs,
                est_report.stats.branches,
                est_report.stats.loops,
                est_report.diagnostics.diagnostics.len(),
            ),
        );
        report.final_rung = Some(LadderRung::StaticEstimate);
        debug_assert!(estimate.shape_matches(module) && estimate.is_flow_conservative(module));
        return (Some(estimate), report);
    }

    debug_assert!(out.shape_matches(module) && out.is_flow_conservative(module));
    report.final_rung = Some(rung);
    (Some(out), report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ppp_ir::{BlockId, EdgeRef, FuncId, FunctionBuilder, Reg};

    /// Two functions: a diamond `main` and a straight-line `leaf`.
    fn sample() -> Module {
        let mut m = Module::new();
        let mut b = FunctionBuilder::new("main", 1);
        let (t, e, j) = (b.new_block(), b.new_block(), b.new_block());
        b.branch(Reg(0), t, e);
        b.switch_to(t);
        b.jump(j);
        b.switch_to(e);
        b.jump(j);
        b.switch_to(j);
        b.ret(None);
        m.add_function(b.finish());
        let mut l = FunctionBuilder::new("leaf", 0);
        l.ret(None);
        m.add_function(l.finish());
        m
    }

    fn good_edges(m: &Module) -> ModuleEdgeProfile {
        let mut p = ModuleEdgeProfile::zeroed(m);
        let f0 = p.func_mut(FuncId(0));
        f0.set_entries(6);
        f0.set_block(BlockId(0), 6);
        f0.set_edge(EdgeRef::new(BlockId(0), 0), 4);
        f0.set_edge(EdgeRef::new(BlockId(0), 1), 2);
        f0.set_block(BlockId(1), 4);
        f0.set_edge(EdgeRef::new(BlockId(1), 0), 4);
        f0.set_block(BlockId(2), 2);
        f0.set_edge(EdgeRef::new(BlockId(2), 0), 2);
        f0.set_block(BlockId(3), 6);
        let f1 = p.func_mut(FuncId(1));
        f1.set_entries(3);
        f1.set_block(BlockId(0), 3);
        p
    }

    fn good_paths(m: &Module) -> ModulePathProfile {
        let mut paths = ModulePathProfile::with_capacity(2);
        let f = m.function(FuncId(0));
        paths.func_mut(FuncId(0)).record(
            f,
            ppp_ir::PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 0), EdgeRef::new(BlockId(1), 0)],
            },
            4,
        );
        paths.func_mut(FuncId(0)).record(
            f,
            ppp_ir::PathKey {
                start: BlockId(0),
                edges: vec![EdgeRef::new(BlockId(0), 1), EdgeRef::new(BlockId(2), 0)],
            },
            2,
        );
        paths.func_mut(FuncId(1)).record(
            m.function(FuncId(1)),
            ppp_ir::PathKey {
                start: BlockId(0),
                edges: vec![],
            },
            3,
        );
        paths
    }

    #[test]
    fn clean_profile_stays_on_rung_one() {
        let m = sample();
        let (g, r) = ingest_guidance(&m, Some(good_edges(&m)), None);
        assert_eq!(r.rung(), LadderRung::FullProfile);
        assert!(!r.degraded());
        assert_eq!(g.expect("guidance"), good_edges(&m));
    }

    #[test]
    fn violating_function_is_quarantined_without_paths() {
        let m = sample();
        let mut e = good_edges(&m);
        e.func_mut(FuncId(0)).bump_edge(EdgeRef::new(BlockId(0), 0));
        let (g, r) = ingest_guidance(&m, Some(e), None);
        assert_eq!(r.rung(), LadderRung::SalvagedFunctions);
        assert_eq!(r.quarantined, vec!["main".to_owned()]);
        let g = g.expect("leaf survives");
        assert!(g.func(FuncId(0)).is_zero());
        assert_eq!(g.func(FuncId(1)).entries(), 3);
        assert!(g.is_flow_conservative(&m));
    }

    #[test]
    fn violating_function_is_rebuilt_from_paths() {
        let m = sample();
        let mut e = good_edges(&m);
        e.func_mut(FuncId(0)).bump_edge(EdgeRef::new(BlockId(0), 0));
        let paths = good_paths(&m);
        let (g, r) = ingest_guidance(&m, Some(e), Some(&paths));
        assert_eq!(r.rung(), LadderRung::PathDerivedEdges);
        assert_eq!(r.rebuilt, vec!["main".to_owned()]);
        assert!(r.quarantined.is_empty());
        let g = g.expect("guidance");
        // The rebuild reproduces the true counts exactly.
        assert_eq!(g, good_edges(&m));
    }

    #[test]
    fn saturated_function_is_detected_and_rebuilt() {
        let m = sample();
        let mut e = good_edges(&m);
        e.func_mut(FuncId(1)).set_entries(u64::MAX);
        let paths = good_paths(&m);
        let (g, r) = ingest_guidance(&m, Some(e), Some(&paths));
        assert!(r.events.iter().any(|ev| ev.cause == "saturated"));
        assert_eq!(r.rebuilt, vec!["leaf".to_owned()]);
        assert_eq!(g.expect("guidance").func(FuncId(1)).entries(), 3);
    }

    #[test]
    fn missing_profile_derives_everything_from_paths() {
        let m = sample();
        let paths = good_paths(&m);
        let (g, r) = ingest_guidance(&m, None, Some(&paths));
        assert_eq!(r.rung(), LadderRung::PathDerivedEdges);
        assert_eq!(g.expect("guidance"), good_edges(&m));
    }

    #[test]
    fn nothing_usable_falls_to_static_estimate() {
        let m = sample();
        let (g, r) = ingest_guidance(&m, None, None);
        assert_eq!(r.rung(), LadderRung::StaticEstimate);
        assert!(r.degraded());
        // Rung 5 is real guidance now: conservative, non-zero, and the
        // report names the estimator.
        let g = g.expect("static estimate");
        assert!(g.shape_matches(&m) && g.is_flow_conservative(&m));
        assert!(!g.func(FuncId(0)).is_zero(), "estimate is all-cold");
        assert!(r
            .events
            .iter()
            .any(|ev| ev.cause == "no-usable-guidance" && ev.detail.contains("ppp-est")));
        // Shape-mismatched profile without paths: same outcome.
        let other = ModuleEdgeProfile::zeroed(&sample());
        let mut small = Module::new();
        let mut b = FunctionBuilder::new("main", 0);
        b.ret(None);
        small.add_function(b.finish());
        let (g, r) = ingest_guidance(&small, Some(other), None);
        assert!(r.events.iter().any(|ev| ev.cause == "shape-mismatch"));
        assert_eq!(r.rung(), LadderRung::StaticEstimate);
        assert!(g.expect("static estimate").is_flow_conservative(&small));
    }

    #[test]
    fn floor_raises_clean_profile_to_matched_stale() {
        let m = sample();
        let (g, r) = ingest_guidance_at(&m, Some(good_edges(&m)), None, LadderRung::MatchedStale);
        assert_eq!(r.rung(), LadderRung::MatchedStale);
        assert!(r.degraded(), "a transferred profile is never pristine");
        assert!(r.events.iter().any(|ev| ev.cause == "stale-transfer"));
        assert_eq!(g.expect("guidance"), good_edges(&m));
        // A worse rung is not masked by the floor.
        let mut e = good_edges(&m);
        e.func_mut(FuncId(0)).bump_edge(EdgeRef::new(BlockId(0), 0));
        let (_, r) = ingest_guidance_at(&m, Some(e), None, LadderRung::MatchedStale);
        assert_eq!(r.rung(), LadderRung::SalvagedFunctions);
        // No guidance at all: the floor is moot, rung 5 stands (with a
        // synthesized estimate, not `None`).
        let (g, r) = ingest_guidance_at(&m, None, None, LadderRung::MatchedStale);
        assert!(g.expect("static estimate").is_flow_conservative(&m));
        assert_eq!(r.rung(), LadderRung::StaticEstimate);
    }

    #[test]
    fn report_json_is_well_formed_ish() {
        let m = sample();
        let mut e = good_edges(&m);
        e.func_mut(FuncId(0)).bump_edge(EdgeRef::new(BlockId(0), 0));
        let (_, r) = ingest_guidance(&m, Some(e), None);
        let j = r.to_json();
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"rung\":\"salvaged-functions\""));
        assert!(j.contains("\"degraded\":true"));
    }
}
