//! # ppp-agg: a sharded, concurrent profile-aggregation service
//!
//! The paper's premise is a profile feeding a *dynamic optimizer* — a
//! consumer that ingests profiles continuously while programs run. This
//! crate is that ingestion tier for the reproduction: N concurrent VM
//! workers stream partial profile deltas (cut by the tracer's delta
//! hooks — `Tracer::enable_deltas` in `ppp-vm`) to a K-way sharded
//! aggregator that merges them into a single
//! flow-conservative [`ppp_ir::ModuleEdgeProfile`] / path profile.
//!
//! Layers, bottom up:
//!
//! - [`queue`]: bounded blocking queues — a slow shard throttles the
//!   workers feeding it (backpressure), never grows without bound;
//! - [`shard`]: the [`Aggregator`] — K shard threads, each owning the
//!   functions with `func_id % K == shard`, merging with saturating
//!   (commutative, associative) adds so snapshots are **byte-identical**
//!   to a sequential merge regardless of shard count or arrival order.
//!   Its one public way in is [`Aggregator::ingest_stream`] (encoded
//!   frames), which shares one accounted per-frame step with the TCP
//!   server;
//! - [`service`]: the per-benchmark [`AggService`] registry, the
//!   batching [`AggClient`], and the [`FrameSink`] abstraction over
//!   transports;
//! - [`tcp`]: a localhost `std::net` transport (one thread per
//!   connection, no async runtime) speaking the `PPAG` frame format of
//!   [`ppp_ir::wire`]: the [`Server`], the plain [`TcpSink`], and the
//!   retrying [`ResilientSink`] built on it;
//! - [`pool`]: a scoped worker pool with deterministic result ordering,
//!   reused by `repro chaos --workers` / `repro bench --workers`.
//!
//! Everything is observable through the process-global `ppp-obs`
//! metrics registry (`ppp_agg_*` counters and histograms), and the wire
//! path is fault-tested by `repro chaos` through the
//! `truncate-frame` / `corrupt-frame` / `kill-connection` sites.
//!
//! Zero dependencies outside the workspace: std threads, `Mutex`,
//! `Condvar`, and `TcpListener` only.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod pool;
pub mod queue;
pub mod recover;
pub mod service;
pub mod shard;
pub mod tcp;
pub mod wal;

pub use pool::run_indexed;
pub use queue::BoundedQueue;
pub use recover::RecoveryReport;
pub use service::{AggClient, AggService, FrameSink, Hello, InProcSink, RetryPolicy};
pub use shard::{AggConfig, Aggregator, IngestError, StreamReport};
pub use tcp::{
    fetch_stats, read_frame, ModuleResolver, ReadError, ResilientSink, ServeOptions, Server,
    TcpSink, STATS_SCHEMA,
};
pub use wal::DurOptions;
