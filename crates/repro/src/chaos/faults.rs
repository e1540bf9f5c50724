//! The fault model: deterministic, seeded damage at every site the
//! sweep injects.
//!
//! The paper's premise (§1, §5) is that path profiles feed a *dynamic*
//! optimizer — an environment where truncated runs, saturated counters,
//! lost trace events, and stale profile artifacts are the norm, not the
//! exception. This module produces exactly those damage shapes, on
//! purpose and reproducibly, so the ingestion pipeline's degradation
//! ladder can be exercised and gated in CI.
//!
//! Every mutation is driven by a seeded [`SplitMix64`] stream: a
//! [`FaultPlan`] of the same `(site, seed)` produces byte-identical
//! damage on every run and platform, which is what lets `repro chaos`
//! assert "the pipeline always completes and always *reports* the
//! degradation" as a deterministic test rather than a flaky fuzz run.
//!
//! The sites ([`FaultSite`]) cover the ingestion surface end to end:
//! persisted-artifact damage ([`FaultPlan::truncate_bytes`],
//! [`FaultPlan::corrupt_bytes`]), counter saturation
//! ([`FaultPlan::saturate_edge_profile`]), the 701×3 hash table
//! overflowing (driven by running the profiler with a deliberately
//! undersized table), dropped VM trace events
//! ([`FaultPlan::trace_faults`] → [`TraceFaults`]), a run killed
//! mid-execution (a tiny step budget), a stale profile shape, damaged
//! or cut aggregation streams, a crashed, stalled or overloaded server,
//! and the JIT loop's stale snapshot and mid-run swap.

use ppp_ir::ModuleEdgeProfile;
use ppp_vm::{SplitMix64, TraceFaults};
use std::fmt;

/// One injectable fault site in the profile pipeline.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultSite {
    /// Cut the persisted edge-profile artifact short.
    TruncateEdgeBytes,
    /// Flip bytes inside the persisted edge-profile artifact.
    CorruptEdgeBytes,
    /// Cut the persisted path-profile artifact short.
    TruncatePathBytes,
    /// Flip bytes inside the persisted path-profile artifact.
    CorruptPathBytes,
    /// Pin a function's profile counters at `u64::MAX`.
    SaturateCounters,
    /// Overflow the paper's hash table: run with far fewer than 701
    /// slots so probe exhaustion loses paths.
    HashOverflow,
    /// Drop VM trace events on a deterministic cadence.
    DropTraceEvents,
    /// Kill the profiled run mid-execution (tiny step budget).
    KillMidRun,
    /// Load the profile against a later build whose function order (and
    /// some shapes) changed.
    StaleShape,
    /// Cut a streamed aggregation frame short mid-payload (a worker
    /// dying mid-send).
    TruncateFrame,
    /// Flip bytes inside a streamed aggregation frame (header or
    /// payload) — the per-frame CRC must catch it.
    CorruptFrame,
    /// Kill a worker's aggregation connection after a seed-chosen
    /// number of frames: the stream simply stops, with no `Done`.
    KillConnection,
    /// Crash the whole aggregation server after a seed-chosen number
    /// of frames, then restart it over the same durability directory —
    /// checkpoint + WAL recovery must lose nothing and double-count
    /// nothing.
    CrashRestart,
    /// Stall a connection mid-frame (a slowloris peer): the server's
    /// read deadline must fire with a typed `timed-out` rejection, not
    /// a pinned thread.
    StallConnection,
    /// Overload the server so it sheds frames with `overloaded`
    /// rejections; a retrying client resends and nothing is counted
    /// twice.
    ShedOverload,
    /// The JIT loop re-optimizes off an aggregator snapshot taken while
    /// the serving run was still streaming deltas: the profile is a
    /// truthful prefix, not the full run.
    StaleSnapshotMidReopt,
    /// The host hot-swaps a re-optimized generation while a workload
    /// run is in flight: the run completes on the old code and its
    /// profile arrives against the new module's shape.
    SwapDuringRun,
}

impl FaultSite {
    /// Every fault site, in sweep order.
    pub const ALL: [FaultSite; 17] = [
        FaultSite::TruncateEdgeBytes,
        FaultSite::CorruptEdgeBytes,
        FaultSite::TruncatePathBytes,
        FaultSite::CorruptPathBytes,
        FaultSite::SaturateCounters,
        FaultSite::HashOverflow,
        FaultSite::DropTraceEvents,
        FaultSite::KillMidRun,
        FaultSite::StaleShape,
        FaultSite::TruncateFrame,
        FaultSite::CorruptFrame,
        FaultSite::KillConnection,
        FaultSite::CrashRestart,
        FaultSite::StallConnection,
        FaultSite::ShedOverload,
        FaultSite::StaleSnapshotMidReopt,
        FaultSite::SwapDuringRun,
    ];

    /// Stable machine-readable name (used in chaos reports and CLI args).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::TruncateEdgeBytes => "truncate-edge-bytes",
            FaultSite::CorruptEdgeBytes => "corrupt-edge-bytes",
            FaultSite::TruncatePathBytes => "truncate-path-bytes",
            FaultSite::CorruptPathBytes => "corrupt-path-bytes",
            FaultSite::SaturateCounters => "saturate-counters",
            FaultSite::HashOverflow => "hash-overflow",
            FaultSite::DropTraceEvents => "drop-trace-events",
            FaultSite::KillMidRun => "kill-mid-run",
            FaultSite::StaleShape => "stale-shape",
            FaultSite::TruncateFrame => "truncate-frame",
            FaultSite::CorruptFrame => "corrupt-frame",
            FaultSite::KillConnection => "kill-connection",
            FaultSite::CrashRestart => "crash-restart",
            FaultSite::StallConnection => "stall-connection",
            FaultSite::ShedOverload => "shed-overload",
            FaultSite::StaleSnapshotMidReopt => "stale-snapshot-mid-reopt",
            FaultSite::SwapDuringRun => "swap-during-run",
        }
    }

    /// Parses a site from its [`FaultSite::name`].
    pub fn parse(s: &str) -> Option<FaultSite> {
        FaultSite::ALL.into_iter().find(|f| f.name() == s)
    }

    /// `true` for the sites whose chaos scenario must leave a
    /// flight-recorder dump artifact behind: the serve-tier trio
    /// (crash, stall, shed) and the JIT-loop pair (stale snapshot,
    /// mid-run swap). The operator debugging one of these needs the
    /// last-N-records ring, not just the degradation report.
    pub fn dumps_flight_recorder(self) -> bool {
        matches!(
            self,
            FaultSite::CrashRestart
                | FaultSite::StallConnection
                | FaultSite::ShedOverload
                | FaultSite::StaleSnapshotMidReopt
                | FaultSite::SwapDuringRun
        )
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic, seeded plan for injecting one fault.
///
/// The same plan always produces the same damage; different seeds move
/// the cut points, flipped bytes, and dropped events around.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultPlan {
    /// Where to inject.
    pub site: FaultSite,
    /// Determinism seed for every random choice the injection makes.
    pub seed: u64,
}

impl FaultPlan {
    /// Creates a plan.
    pub fn new(site: FaultSite, seed: u64) -> Self {
        Self { site, seed }
    }

    /// The plan's private random stream (site-keyed, so two sites with
    /// the same seed still damage different offsets).
    fn rng(&self) -> SplitMix64 {
        let site_key = self.site.name().bytes().fold(0u64, |h, b| {
            h.wrapping_mul(0x100_0000_01B3).wrapping_add(u64::from(b))
        });
        SplitMix64::new(self.seed ^ site_key)
    }

    /// Truncates `bytes` at a seed-chosen offset; returns the cut point.
    ///
    /// The offset is uniform in `[0, len)`, so the cut can land inside a
    /// section header, a payload, or the trailer — every loader stage
    /// gets exercised across seeds.
    pub fn truncate_bytes(&self, bytes: &mut Vec<u8>) -> usize {
        let mut rng = self.rng();
        if bytes.is_empty() {
            return 0;
        }
        let cut = (rng.next_u64() % bytes.len() as u64) as usize;
        bytes.truncate(cut);
        cut
    }

    /// Flips `flips` bytes of `bytes` at seed-chosen offsets to
    /// seed-chosen values; returns the damaged offsets.
    pub fn corrupt_bytes(&self, bytes: &mut [u8], flips: usize) -> Vec<usize> {
        let mut rng = self.rng();
        let mut hit = Vec::new();
        if bytes.is_empty() {
            return hit;
        }
        for _ in 0..flips {
            let at = (rng.next_u64() % bytes.len() as u64) as usize;
            let new = (rng.next_u64() & 0xFF) as u8;
            // Force a change even when the draw equals the old byte.
            bytes[at] = if new == bytes[at] { new ^ 0x01 } else { new };
            hit.push(at);
        }
        hit
    }

    /// Pins one seed-chosen function's edge counters at `u64::MAX`;
    /// returns the function index, or `None` for an empty profile.
    pub fn saturate_edge_profile(&self, profile: &mut ModuleEdgeProfile) -> Option<usize> {
        let n = profile.funcs.len();
        if n == 0 {
            return None;
        }
        let mut rng = self.rng();
        let i = (rng.next_u64() % n as u64) as usize;
        let f = &mut profile.funcs[i];
        f.set_entries(u64::MAX);
        Some(i)
    }

    /// The VM-level trace-fault configuration for this plan: drop edge
    /// events and path completions on short, seed-phased cadences.
    pub fn trace_faults(&self) -> TraceFaults {
        TraceFaults {
            drop_edge_every: 5,
            drop_path_every: 7,
            seed: self.seed,
        }
    }

    /// Step budget for a killed run: small enough that every benchmark
    /// halts mid-execution with `HaltReason::StepLimit`, large enough to
    /// accumulate a partial (truncated) profile worth salvaging.
    pub fn kill_step_budget(&self) -> u64 {
        let mut rng = self.rng();
        2_000 + rng.next_u64() % 8_000
    }

    /// For a killed aggregation connection: how many of `total` frames
    /// arrive before the stream stops. Always fewer than `total` (the
    /// `Done` frame never makes it), at least zero.
    pub fn frames_delivered(&self, total: usize) -> usize {
        if total == 0 {
            return 0;
        }
        let mut rng = self.rng();
        (rng.next_u64() % total as u64) as usize
    }

    /// For a shedding server: which of `total` frames are refused with
    /// an `overloaded` rejection (and must therefore be retried by the
    /// client). Roughly one in three, seed-chosen, never the first —
    /// shedding the hello would just be an admission refusal.
    pub fn shed_mask(&self, total: usize) -> Vec<bool> {
        let mut rng = self.rng();
        (0..total)
            .map(|i| i > 0 && rng.next_u64().is_multiple_of(3))
            .collect()
    }

    /// For a stalled (slowloris) peer: how many bytes of its frame
    /// arrive before the stall (at least one so the read starts, never
    /// the full `len`).
    pub fn stall_offset(&self, len: usize) -> usize {
        if len <= 1 {
            return len;
        }
        let mut rng = self.rng();
        1 + (rng.next_u64() % (len as u64 - 1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_names_roundtrip() {
        for s in FaultSite::ALL {
            assert_eq!(FaultSite::parse(s.name()), Some(s));
        }
        assert_eq!(FaultSite::parse("nope"), None);
    }

    #[test]
    fn flight_recorder_sites_are_the_serve_tier_trio_plus_the_jit_pair() {
        let dumping: Vec<_> = FaultSite::ALL
            .into_iter()
            .filter(|s| s.dumps_flight_recorder())
            .collect();
        assert_eq!(
            dumping,
            vec![
                FaultSite::CrashRestart,
                FaultSite::StallConnection,
                FaultSite::ShedOverload,
                FaultSite::StaleSnapshotMidReopt,
                FaultSite::SwapDuringRun,
            ]
        );
    }

    #[test]
    fn same_plan_same_damage() {
        let plan = FaultPlan::new(FaultSite::CorruptEdgeBytes, 701);
        let original: Vec<u8> = (0u8..=255).cycle().take(4096).collect();
        let mut a = original.clone();
        let mut b = original.clone();
        assert_eq!(plan.corrupt_bytes(&mut a, 8), plan.corrupt_bytes(&mut b, 8));
        assert_eq!(a, b);
        assert_ne!(a, original);
    }

    #[test]
    fn different_sites_damage_differently() {
        let base: Vec<u8> = vec![0xAA; 1024];
        let mut a = base.clone();
        let mut b = base.clone();
        FaultPlan::new(FaultSite::CorruptEdgeBytes, 1).corrupt_bytes(&mut a, 4);
        FaultPlan::new(FaultSite::CorruptPathBytes, 1).corrupt_bytes(&mut b, 4);
        assert_ne!(a, b, "site key must decorrelate streams");
    }

    #[test]
    fn truncation_is_deterministic_and_in_range() {
        let plan = FaultPlan::new(FaultSite::TruncateEdgeBytes, 99);
        let mut a = vec![1u8; 500];
        let mut b = vec![1u8; 500];
        let ca = plan.truncate_bytes(&mut a);
        let cb = plan.truncate_bytes(&mut b);
        assert_eq!(ca, cb);
        assert!(ca < 500);
        assert_eq!(a.len(), ca);
        let mut empty = Vec::new();
        assert_eq!(plan.truncate_bytes(&mut empty), 0);
    }

    #[test]
    fn kill_budget_is_small_but_nonzero() {
        let b = FaultPlan::new(FaultSite::KillMidRun, 3).kill_step_budget();
        assert!((2_000..10_000).contains(&b));
    }
}
