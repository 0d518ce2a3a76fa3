//! # hcc-engine — parallel release engine for hierarchical
//! count-of-counts histograms
//!
//! The other `hcc-*` crates reproduce Kuo et al.'s *algorithm*
//! (PVLDB 11(12), 2018); this crate turns it into a *service*. A
//! statistical agency does not run Algorithm 1 once from a batch CLI —
//! it serves release requests continuously, under concurrency, with
//! repeated requests for the same table. The engine provides the
//! missing execution layer:
//!
//! * **[`Engine`]** — a job API: [`Engine::submit`] enqueues a
//!   [`ReleaseRequest`] into a bounded queue drained by one
//!   engine-wide **work-stealing worker pool**. Per-node estimates
//!   are embarrassingly parallel (sibling regions hold disjoint
//!   groups), so each job expands into node-level subtree tasks
//!   ([`hcc_consistency::subtree_tasks`]) interleaved across *all*
//!   in-flight jobs: workers pop their own deque LIFO and steal FIFO
//!   from the others, each permanently owning one estimation
//!   workspace — one level of parallelism, sized once by
//!   [`EngineConfig::workers`], with no per-job thread spawns and no
//!   shared-pool lock on the node-task hot path. Per-node RNG
//!   streams are derived deterministically from the master seed
//!   ([`hcc_consistency::node_seeds`]), so the released bytes are
//!   **identical for every worker count** — parallelism is purely an
//!   execution concern, never a statistical one.
//!   [`Engine::status`] polls, [`Engine::wait`] blocks.
//! * **[`cache`]** — an LRU result cache keyed by a 128-bit
//!   fingerprint of (hierarchy, data, config, seed), with hit/miss
//!   counters. A release is a pure function of its fingerprint, so
//!   serving a repeat from cache is bit-exact and spends no extra
//!   privacy budget.
//! * **[`registry`]** — a prepared-dataset registry: `PREPARE` loads
//!   the hierarchy + group tables once, aggregates the per-node true
//!   views, and stores them under a content-addressed
//!   [`DatasetHandle`]; ε-sweeps and repeated queries then submit by
//!   handle and skip parsing/aggregation entirely, with the cache
//!   key collapsing to a cheap (handle, config, seed) digest.
//!   Entries are ref-counted under an LRU bound (`UNPREPARE` drops a
//!   reference). `DERIVE`/`APPEND` move a prepared dataset forward by
//!   a [`hcc_data::DatasetDelta`] — re-aggregation limited to the
//!   touched root-to-leaf paths, no re-parse, no full bottom-up
//!   pass — with the derived handle chaining content fingerprints so
//!   it is identical to a cold `PREPARE` of the post-delta tables
//!   (see [`Engine::derive`]).
//! * **[`serve_reactor`]/[`Client`]/[`MuxClient`]** — a `std::net`
//!   TCP serving layer wired into the CLI as `hcc serve`, `hcc
//!   submit`, `hcc prepare`, `hcc derive`, and `hcc sweep`. The
//!   server is an **epoll reactor**: one event-loop thread
//!   multiplexing every connection, speaking both the versioned
//!   binary framed protocol ([`protocol::frame`] — length-prefixed
//!   frames, client-chosen request ids, pipelining with out-of-order
//!   responses) and, by first-byte auto-detection, the legacy
//!   line-delimited protocol ([`protocol`]) byte-for-byte. Per-
//!   connection **admission control** ([`ReactorConfig`]) gives each
//!   client an interactive and a bulk lane with separate in-flight
//!   quotas and a bounded park buffer; overload is shed with
//!   structured `BUSY` backpressure frames rather than stalls.
//!   [`Client`] speaks the legacy protocol; [`MuxClient`] the framed
//!   one.
//! * **[`telemetry`]** — always-on-cheap observability: per-worker
//!   relaxed-atomic counters and log-bucketed latency histograms over
//!   the full job lifecycle (queue wait, expansion, per-node
//!   estimation split by level method, compute-gate wait, steals,
//!   idle time), aggregated only when a reader asks
//!   ([`Engine::telemetry`]), rendered as Prometheus text exposition
//!   by the `METRICS` wire verb; plus an opt-in bounded span recorder
//!   ([`EngineConfig::with_trace_capacity`]) whose dumps
//!   ([`Engine::take_trace`], the `TRACE` verb, `hcc trace`) render
//!   as Chrome-trace JSON ([`chrome_trace_json`]).
//! * **[`locks`]** — every engine mutex is a rank-ordered
//!   `RankedMutex` (state < cache < registry < lanes < gate < job <
//!   telemetry < wire); `debug_assertions` builds panic on any
//!   misordered acquisition, and the `hcc-lint` static `lock-order`
//!   rule checks the same order over the extracted acquisition graph.
//!
//! The crate denies `unsafe_code`; the single exception is the
//! reactor's audited epoll FFI module, every call site of which
//! carries an `hcc-lint` hygiene waiver (the lint audits all `unsafe`
//! tokens workspace-wide).

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
mod client;
mod engine;
pub mod fingerprint;
mod job;
pub mod locks;
pub mod protocol;
mod reactor;
pub mod registry;
mod scheduler;
mod server;
pub mod telemetry;

pub use client::{Client, FetchedRelease, MuxClient, RetryPolicy, SweepPoint};
pub use engine::{Engine, EngineConfig, EngineStats};
pub use fingerprint::{dataset_fingerprint, fingerprint, request_fingerprint, Fingerprint};
pub use job::{EngineError, JobId, JobStatus, ReleaseRequest, ReleaseResult};
pub use protocol::level_method;
pub use reactor::{serve_reactor, ReactorConfig};
pub use registry::{DatasetHandle, DatasetRegistry};
pub use server::ServerHandle;
pub use telemetry::{
    chrome_trace_json, HistogramSnapshot, MethodKind, SpanEvent, SpanKind, TelemetrySnapshot,
    WorkerSnapshot,
};
