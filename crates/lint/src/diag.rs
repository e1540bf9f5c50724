//! The diagnostic model: stable codes, severities, and reports.
//!
//! Every analysis reports through [`Diagnostic`]s carrying a [`Code`] from
//! the fixed registry below. Codes are stable identifiers (they never
//! change meaning once assigned) so downstream tooling can filter on them;
//! the numeric bands group related analyses:
//!
//! | band      | analyses                                     |
//! |-----------|----------------------------------------------|
//! | `PPP0xx`  | generic dataflow lints (init, dead code)     |
//! | `PPP1xx`  | instrumentation soundness (path semantics)   |
//! | `PPP2xx`  | plan conformance (placement bookkeeping)     |
//! | `PPP3xx`  | translation validation & profile consistency |
//! | `PPP4xx`  | stale-profile matching & transfer (`ppp-match`) |
//! | `PPP5xx`  | static branch prediction & frequency estimation (`ppp-est`) |

use ppp_ir::{BlockId, FuncId};
use ppp_obs::json::{self, ToJson};
use std::fmt;

/// Diagnostic severity, ordered `Info < Warning < Error`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Severity {
    /// Advisory: worth knowing, never blocks a pipeline.
    Info,
    /// Suspicious: almost certainly a generator or transform bug, but the
    /// VM's semantics keep the program well-defined.
    Warning,
    /// Broken: the instrumentation (or its bookkeeping) is unsound.
    Error,
}

impl Severity {
    /// Lowercase name, as used in the JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The registry of stable diagnostic codes.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Code {
    /// `PPP001` — block unreachable from the function entry.
    UnreachableBlock,
    /// `PPP002` — register read before any path assigns it (the VM
    /// zero-initializes registers, so this is defined but suspect).
    UseBeforeInit,
    /// `PPP003` — pure write whose value no path ever reads.
    DeadWrite,
    /// `PPP004` — register assigned on some but not all paths to a use.
    MaybeUninit,
    /// `PPP101` — a counted path's increment sum is not its own distinct
    /// id in `[0, num_paths)`.
    PathNumbering,
    /// `PPP102` — a counter access indexes outside its table.
    CounterBounds,
    /// `PPP103` — a counted path executes a number of counting ops other
    /// than exactly one.
    CountMultiplicity,
    /// `PPP104` — an iteration path's count depends on the stale path
    /// register left by the previous path (missing re-initialization).
    RegisterLeak,
    /// `PPP105` — profiling instructions in a routine the plan marks
    /// uninstrumented.
    StrayInstrumentation,
    /// `PPP201` — a block's `Prof` layout differs from the recorded
    /// placements.
    PlacementMismatch,
    /// `PPP202` — the function-wide multiset of `Prof` ops differs from
    /// the plan's placements.
    OpMultisetMismatch,
    /// `PPP203` — a profiling op references a counter table other than
    /// the plan's own.
    TableBinding,
    /// `PPP204` — instrumentation changed more than profiling ops and
    /// split edges: a non-`Prof` instruction or a control-flow edge
    /// differs from the routine before instrumentation, or an added block
    /// is not a split-edge block.
    CodeChanged,
    /// `PPP301` — a transform witness is malformed: not total, not
    /// injective, or shape-inconsistent with the source or optimized
    /// module.
    WitnessShape,
    /// `PPP302` — the CFG simulation relation is broken: the optimized
    /// function has an edge, entry, or return the witness cannot map to a
    /// legal counterpart in the source.
    SimulationBroken,
    /// `PPP303` — a cloned block's instructions differ from the source
    /// block the witness claims it descends from.
    CloneMismatch,
    /// `PPP304` — the abstract side-effect sequence (stores, calls,
    /// emits, rand draws) of a region differs from its source region.
    EffectMismatch,
    /// `PPP305` — counted unrolling's elided tests are not justified by
    /// the `i < factor` guard (symbolic execution of the wide body cannot
    /// prove every elided test true).
    UnrollGuard,
    /// `PPP306` — an inline splice violates the call protocol: bad call
    /// site, wrong glue (zero-inits/argument copies), or a continuation
    /// that does not receive the call block's tail.
    InlineProtocol,
    /// `PPP307` — an edge profile's shape (function count, block count,
    /// or per-block successor counts) does not match the module.
    ProfileShape,
    /// `PPP308` — an edge profile violates Kirchhoff flow conservation
    /// (Σ in-edges = block frequency = Σ out-edges, modulo entry/exit).
    FlowConservation,
    /// `PPP401` — a block of the old program version has no anchor and no
    /// propagated match in the new version: its profile flow cannot be
    /// transferred and is lost.
    UnanchoredBlock,
    /// `PPP402` — a block's anchor hash matches several candidate blocks
    /// and dominator/loop structure cannot disambiguate them; matching it
    /// would be a guess, so it stays unmatched.
    AmbiguousAnchor,
    /// `PPP403` — a region of the new version has no old counterpart but
    /// sits between matched blocks (a split or merged region); its counts
    /// are reconstructed from the surrounding matched flow.
    SplitMergedRegion,
    /// `PPP404` — a transferred profile violates Kirchhoff flow
    /// conservation even after boundary renormalization; the function's
    /// transferred counts are discarded (zeroed) rather than trusted.
    NonConservativeTransfer,
    /// `PPP501` — an irreducible region (retreating edge whose target
    /// does not dominate its source) was found during static frequency
    /// propagation; its retreating edges receive zero trip credit, so
    /// flow through the region is estimated as if it executed once.
    IrreducibleRegionCapped,
    /// `PPP502` — independent branch heuristics gave strongly opposing
    /// predictions for the same branch; the Dempster–Shafer combination
    /// lands near 50/50 and the estimate carries little signal there.
    HeuristicConflict,
    /// `PPP503` — converting real-valued frequencies to integer counts
    /// broke Kirchhoff conservation and a one-pass renormalization
    /// repaired it; the repair preserves ratios to within one count.
    EstimateRepaired,
    /// `PPP504` — a function cannot be estimated (no return block is
    /// reachable from entry, so no finite execution exists); its static
    /// estimate is zeroed rather than fabricated.
    EstimateZeroed,
}

impl Code {
    /// Every registered code, in code order.
    pub const ALL: [Code; 29] = [
        Code::UnreachableBlock,
        Code::UseBeforeInit,
        Code::DeadWrite,
        Code::MaybeUninit,
        Code::PathNumbering,
        Code::CounterBounds,
        Code::CountMultiplicity,
        Code::RegisterLeak,
        Code::StrayInstrumentation,
        Code::PlacementMismatch,
        Code::OpMultisetMismatch,
        Code::TableBinding,
        Code::CodeChanged,
        Code::WitnessShape,
        Code::SimulationBroken,
        Code::CloneMismatch,
        Code::EffectMismatch,
        Code::UnrollGuard,
        Code::InlineProtocol,
        Code::ProfileShape,
        Code::FlowConservation,
        Code::UnanchoredBlock,
        Code::AmbiguousAnchor,
        Code::SplitMergedRegion,
        Code::NonConservativeTransfer,
        Code::IrreducibleRegionCapped,
        Code::HeuristicConflict,
        Code::EstimateRepaired,
        Code::EstimateZeroed,
    ];

    /// The stable code string (`"PPP001"`, ...).
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnreachableBlock => "PPP001",
            Code::UseBeforeInit => "PPP002",
            Code::DeadWrite => "PPP003",
            Code::MaybeUninit => "PPP004",
            Code::PathNumbering => "PPP101",
            Code::CounterBounds => "PPP102",
            Code::CountMultiplicity => "PPP103",
            Code::RegisterLeak => "PPP104",
            Code::StrayInstrumentation => "PPP105",
            Code::PlacementMismatch => "PPP201",
            Code::OpMultisetMismatch => "PPP202",
            Code::TableBinding => "PPP203",
            Code::CodeChanged => "PPP204",
            Code::WitnessShape => "PPP301",
            Code::SimulationBroken => "PPP302",
            Code::CloneMismatch => "PPP303",
            Code::EffectMismatch => "PPP304",
            Code::UnrollGuard => "PPP305",
            Code::InlineProtocol => "PPP306",
            Code::ProfileShape => "PPP307",
            Code::FlowConservation => "PPP308",
            Code::UnanchoredBlock => "PPP401",
            Code::AmbiguousAnchor => "PPP402",
            Code::SplitMergedRegion => "PPP403",
            Code::NonConservativeTransfer => "PPP404",
            Code::IrreducibleRegionCapped => "PPP501",
            Code::HeuristicConflict => "PPP502",
            Code::EstimateRepaired => "PPP503",
            Code::EstimateZeroed => "PPP504",
        }
    }

    /// The severity every diagnostic with this code carries.
    pub fn severity(self) -> Severity {
        match self {
            Code::UnreachableBlock
            | Code::DeadWrite
            | Code::MaybeUninit
            | Code::SplitMergedRegion
            | Code::IrreducibleRegionCapped
            | Code::HeuristicConflict
            | Code::EstimateRepaired => Severity::Info,
            Code::UseBeforeInit
            | Code::UnanchoredBlock
            | Code::AmbiguousAnchor
            | Code::EstimateZeroed => Severity::Warning,
            Code::PathNumbering
            | Code::CounterBounds
            | Code::CountMultiplicity
            | Code::RegisterLeak
            | Code::StrayInstrumentation
            | Code::PlacementMismatch
            | Code::OpMultisetMismatch
            | Code::TableBinding
            | Code::CodeChanged
            | Code::WitnessShape
            | Code::SimulationBroken
            | Code::CloneMismatch
            | Code::EffectMismatch
            | Code::UnrollGuard
            | Code::InlineProtocol
            | Code::ProfileShape
            | Code::FlowConservation
            | Code::NonConservativeTransfer => Severity::Error,
        }
    }

    /// One-line registry description.
    pub fn summary(self) -> &'static str {
        match self {
            Code::UnreachableBlock => "block unreachable from function entry",
            Code::UseBeforeInit => "register read before any assignment",
            Code::DeadWrite => "pure write never read",
            Code::MaybeUninit => "register assigned on only some paths to a use",
            Code::PathNumbering => "path increment sum is not a distinct id in [0, N)",
            Code::CounterBounds => "counter access out of table bounds",
            Code::CountMultiplicity => "counted path does not count exactly once",
            Code::RegisterLeak => "iteration path reads a stale path register",
            Code::StrayInstrumentation => "profiling ops in an uninstrumented routine",
            Code::PlacementMismatch => "block Prof layout differs from recorded placements",
            Code::OpMultisetMismatch => "Prof op multiset differs from the plan",
            Code::TableBinding => "profiling op bound to a foreign counter table",
            Code::CodeChanged => "instrumentation changed non-profiling code",
            Code::WitnessShape => "transform witness malformed or shape-inconsistent",
            Code::SimulationBroken => "optimized CFG has no simulating source path",
            Code::CloneMismatch => "cloned block differs from its witnessed source",
            Code::EffectMismatch => "side-effect sequence differs from the source region",
            Code::UnrollGuard => "elided unroll test not justified by the guard",
            Code::InlineProtocol => "inline splice violates the call protocol",
            Code::ProfileShape => "edge profile shape does not match the module",
            Code::FlowConservation => "edge profile violates flow conservation",
            Code::UnanchoredBlock => "old block has no anchor or propagated match",
            Code::AmbiguousAnchor => "anchor matches several candidates; structure cannot decide",
            Code::SplitMergedRegion => "new region between matched blocks (split/merge)",
            Code::NonConservativeTransfer => "transferred profile not conservative; zeroed",
            Code::IrreducibleRegionCapped => "irreducible region: retreating edges get no trips",
            Code::HeuristicConflict => "branch heuristics strongly disagree; weak estimate",
            Code::EstimateRepaired => "integer rounding repaired to restore conservation",
            Code::EstimateZeroed => "no reachable return; static estimate zeroed",
        }
    }
}

/// One finding.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// Registry code.
    pub code: Code,
    /// Routine the finding is in.
    pub func: FuncId,
    /// Routine name (for human-readable and JSON output).
    pub func_name: String,
    /// Block the finding anchors to, when block-precise.
    pub block: Option<BlockId>,
    /// Human-readable description of this specific instance.
    pub message: String,
}

impl Diagnostic {
    /// The severity implied by the code.
    pub fn severity(&self) -> Severity {
        self.code.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}",
            self.code.as_str(),
            self.severity().as_str(),
            self.func_name
        )?;
        if let Some(b) = self.block {
            write!(f, ":{b}")?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of a lint run: all diagnostics, ordered by routine, code,
/// and block.
#[derive(Clone, Default, Debug)]
pub struct LintReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Creates an empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Appends many diagnostics.
    pub fn extend(&mut self, ds: impl IntoIterator<Item = Diagnostic>) {
        self.diagnostics.extend(ds);
    }

    /// Sorts diagnostics by (function, code, block) for stable output.
    pub fn sort(&mut self) {
        self.diagnostics
            .sort_by_key(|d| (d.func, d.code, d.block.map(|b| b.index())));
    }

    /// Number of findings at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity() == severity)
            .count()
    }

    /// `true` when the report carries no errors and no warnings (info
    /// findings do not make a report dirty).
    pub fn is_clean(&self) -> bool {
        !self
            .diagnostics
            .iter()
            .any(|d| d.severity() >= Severity::Warning)
    }

    /// `true` when there are no findings of any severity.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// `true` when any finding has this code.
    pub fn has(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }
}

/// Machine-readable JSON rendering of the whole report (compact):
/// `clean`, per-severity `counts`, and the `diagnostics` in order.
impl ToJson for LintReport {
    fn write_json(&self, out: &mut String) {
        json::write_object(out, |o| {
            o.field("clean", self.is_clean())
                .obj("counts", |o| {
                    o.field("error", self.count(Severity::Error))
                        .field("warning", self.count(Severity::Warning))
                        .field("info", self.count(Severity::Info));
                })
                .objs("diagnostics", &self.diagnostics, |o, d| {
                    o.field("code", d.code.as_str())
                        .field("severity", d.severity().as_str())
                        .field("func", &d.func_name)
                        .field("block", d.block.map(|b| b.index()))
                        .field("message", &d.message);
                });
        });
    }
}

impl fmt::Display for LintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "lint: clean (no diagnostics)");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        writeln!(
            f,
            "lint: {} error(s), {} warning(s), {} info",
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info)
        )
    }
}

/// Escapes a string for inclusion in a JSON string literal.
#[cfg(test)]
mod tests {
    use super::*;

    fn diag(code: Code) -> Diagnostic {
        Diagnostic {
            code,
            func: FuncId(0),
            func_name: "f".into(),
            block: Some(BlockId(2)),
            message: "msg".into(),
        }
    }

    #[test]
    fn codes_are_unique_and_banded() {
        let mut strs: Vec<&str> = Code::ALL.iter().map(|c| c.as_str()).collect();
        strs.sort_unstable();
        strs.dedup();
        assert_eq!(strs.len(), Code::ALL.len(), "codes must be unique");
        for c in Code::ALL {
            assert!(c.as_str().starts_with("PPP"));
            assert!(!c.summary().is_empty());
        }
    }

    #[test]
    fn severity_banding() {
        assert_eq!(Code::UnreachableBlock.severity(), Severity::Info);
        assert_eq!(Code::UseBeforeInit.severity(), Severity::Warning);
        for c in [Code::PathNumbering, Code::PlacementMismatch] {
            assert_eq!(c.severity(), Severity::Error);
        }
    }

    #[test]
    fn clean_ignores_info() {
        let mut r = LintReport::new();
        assert!(r.is_clean() && r.is_empty());
        r.push(diag(Code::DeadWrite));
        assert!(r.is_clean() && !r.is_empty());
        r.push(diag(Code::PathNumbering));
        assert!(!r.is_clean());
        assert!(r.has(Code::PathNumbering));
        assert!(!r.has(Code::TableBinding));
    }

    #[test]
    fn json_escapes_and_counts() {
        let mut r = LintReport::new();
        r.push(Diagnostic {
            code: Code::UseBeforeInit,
            func: FuncId(1),
            func_name: "we\"ird".into(),
            block: None,
            message: "line\nbreak".into(),
        });
        let j = r.to_json();
        assert_eq!(
            j,
            r#"{"clean":false,"counts":{"error":0,"warning":1,"info":0},"diagnostics":[{"code":"PPP002","severity":"warning","func":"we\"ird","block":null,"message":"line\nbreak"}]}"#
        );
    }

    #[test]
    fn report_sort_orders_by_func_code_block() {
        let mut r = LintReport::new();
        let mut d1 = diag(Code::DeadWrite);
        d1.func = FuncId(1);
        r.push(d1);
        let d0 = diag(Code::UnreachableBlock);
        r.push(d0.clone());
        r.sort();
        assert_eq!(r.diagnostics[0], d0);
    }

    #[test]
    fn display_renders_code_and_location() {
        let d = diag(Code::CounterBounds);
        let s = d.to_string();
        assert!(s.contains("PPP102"));
        assert!(s.contains("[error]"));
        assert!(s.contains("b2"));
    }
}
