//! Canonical names for the cross-crate metric families.
//!
//! Metric names are free-form strings at the registry level; the
//! families that more than one crate reads or writes (the durability
//! and resilience counters of `ppp-agg`, read back by `repro drive` and
//! `repro top`) are declared here once so producers and consumers
//! cannot drift apart on spelling.

/// WAL records appended (label: `bench`).
pub const WAL_APPENDS: &str = "ppp_wal_appends_total";
/// WAL bytes appended (label: `bench`).
pub const WAL_BYTES: &str = "ppp_wal_bytes_total";
/// Checkpoints written (label: `bench`).
pub const WAL_CHECKPOINTS: &str = "ppp_wal_checkpoints_total";
/// Checkpoint bytes written (label: `bench`).
pub const WAL_CHECKPOINT_BYTES: &str = "ppp_wal_checkpoint_bytes_total";
/// Frames replayed from the WAL during recovery (label: `bench`).
pub const WAL_REPLAYED: &str = "ppp_wal_replayed_frames_total";
/// Bytes cut from a torn WAL tail during recovery (label: `bench`).
pub const WAL_TORN_BYTES: &str = "ppp_wal_torn_tail_bytes_total";
/// Recoveries performed (label: `bench`).
pub const WAL_RECOVERIES: &str = "ppp_wal_recoveries_total";
/// Checkpoint or WAL I/O failures (labels: `bench`, `op`).
pub const WAL_ERRORS: &str = "ppp_wal_errors_total";

/// Client reconnect attempts (resilient sink).
pub const RETRY_RECONNECTS: &str = "ppp_retry_reconnects_total";
/// Backoff sleeps taken before a retry.
pub const RETRY_BACKOFFS: &str = "ppp_retry_backoffs_total";
/// Frames resent from the unacked window after a reconnect.
pub const RETRY_RESENT: &str = "ppp_retry_resent_frames_total";
/// Server rejections observed by the client (label: `class`).
pub const RETRY_REJECTS: &str = "ppp_retry_rejects_total";

/// Frames or connections shed by the server (label: `reason`).
pub const SHED_TOTAL: &str = "ppp_shed_total";
/// Duplicate sequenced frames dropped by the watermark (label:
/// `bench`).
pub const AGG_DUPLICATES: &str = "ppp_agg_frames_duplicate_total";

/// Per-frame ingest latency histogram, microseconds (label: `bench`).
pub const INGEST_MICROS: &str = "ppp_agg_ingest_micros";
/// Shard-queue wait latency histogram, microseconds (label: `bench`).
pub const QUEUE_WAIT_MICROS: &str = "ppp_agg_queue_wait_micros";
/// WAL append latency histogram, microseconds (label: `bench`): the
/// `write` of one frame to the OS. Appends are not fsynced.
pub const WAL_APPEND_MICROS: &str = "ppp_wal_append_micros";
/// Flight-recorder dump artifacts written (no labels).
pub const FLIGHT_DUMPS: &str = "ppp_flight_dumps_total";
/// Stats frames served by the TCP tier (no labels).
pub const STATS_SERVED: &str = "ppp_stats_served_total";

#[cfg(test)]
mod tests {
    #[test]
    fn families_are_prefixed_and_distinct() {
        let all = [
            super::WAL_APPENDS,
            super::WAL_BYTES,
            super::WAL_CHECKPOINTS,
            super::WAL_CHECKPOINT_BYTES,
            super::WAL_REPLAYED,
            super::WAL_TORN_BYTES,
            super::WAL_RECOVERIES,
            super::WAL_ERRORS,
            super::RETRY_RECONNECTS,
            super::RETRY_BACKOFFS,
            super::RETRY_RESENT,
            super::RETRY_REJECTS,
            super::SHED_TOTAL,
            super::AGG_DUPLICATES,
            super::INGEST_MICROS,
            super::QUEUE_WAIT_MICROS,
            super::WAL_APPEND_MICROS,
            super::FLIGHT_DUMPS,
            super::STATS_SERVED,
        ];
        for name in all {
            assert!(name.starts_with("ppp_"), "{name}");
        }
        let mut unique = all.to_vec();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), all.len(), "names must be distinct");
    }
}
