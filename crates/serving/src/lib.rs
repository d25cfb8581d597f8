//! Online serving for the Zoomer reproduction.
//!
//! §VI/§VII-E: after training, embeddings feed an ANN module that builds the
//! inverted index served by iGraph; online, Zoomer caches each user/query
//! node's k last-visited neighbors (k = 30), keeps only the edge-level
//! attention at inference, and answers thousands of QPS at millisecond
//! latency. (The paper refreshes its caches asynchronously; here a miss is
//! filled inline from the immutable graph snapshot.)
//!
//! Components:
//! - [`backend`] — the [`SearchBackend`] trait and the enum-dispatched
//!   [`Backend`] the server retrieves through: IVF-Flat ([`ann`]), the exact
//!   flat scan ([`ExactSearch`]), or the int8-quantized IVF with exact f32
//!   rerank ([`quantized`]). Selected via `ServingConfig::backend`.
//! - [`ann`] — IVF-Flat approximate nearest neighbor index (k-means coarse
//!   quantizer + inverted lists, inner-product scoring).
//! - [`topk`] — the bounded streaming top-k every backend and the shard
//!   merge rank through, in one total order (score, then id).
//! - [`cache`] — per-node neighbor cache, capacity-bounded, evicting by a
//!   second-chance CLOCK.
//! - [`brownout`] — the counted degradation ladder ([`BrownoutRung`]):
//!   skip-widening → shrunk top-k → capped probe → inverted fallback,
//!   selected per batch from the remaining deadline budget.
//! - [`FrozenModel`] (from `zoomer_model`) — the thread-safe, tape-free
//!   snapshot of a trained model used on the serving path (edge attention
//!   only).
//! - [`server`] / [`shard`] / [`sharded`] — the one server type,
//!   [`OnlineServer`], and its request path, cut at one seam. The *front
//!   half* (`server`: validate → deadline admission → counters →
//!   partitioned neighbor-cache resolve → one stacked embed) is the only
//!   code that touches the graph, the frozen towers and the caches; a
//!   [`RankShard`] (`shard`: backend, posting partition, cache partition
//!   and probe-cost EWMA) is the only code that probes, walks the brownout
//!   ladder, or builds fallback rows. Shard 0 ranks on the calling thread;
//!   shards 1..N rank on their worker threads (`sharded`), or on the
//!   calling thread when no worker has started them yet, and the replies
//!   merge by score ([`router`]). At one shard no worker exists.
//! - [`load`] — the unified open-/closed-loop QPS/latency harness (Fig 9):
//!   one [`run_load`] entry point driven by a [`LoadTestSpec`], reporting
//!   per-stage percentile breakdowns through the metrics registry, with a
//!   bounded admission queue and a [`ShedPolicy`] for overload runs.
//! - [`deadline`] / [`fault`] — overload robustness: per-batch latency
//!   budgets ([`Deadline`]) that degrade recall instead of latency when
//!   spent, and a deterministic seed-driven [`FaultInjector`] for latency
//!   spikes, injected panics, and poisoned-lock drills.
//! - Observability: servers are constructed with [`OnlineServer::builder`]
//!   and optionally attach a `zoomer_obs::MetricsRegistry`; `handle_batch`
//!   times each stage (cache resolve / embed / ANN probe / rank) into it,
//!   and [`NeighborCache::stats`] reports named [`CacheStats`].
//!
//! Panic-freedom: this crate is the hot path. Request-path entry points
//! return [`ServingError`] instead of panicking, enforced by the in-repo
//! `zoomer-lint` gate (rule L001) with `clippy::disallowed_methods` as the
//! second layer — see `DESIGN.md` § "Static analysis & panic-freedom".

#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod ann;
pub mod backend;
pub mod brownout;
pub mod cache;
pub mod deadline;
pub mod error;
pub mod fault;
pub mod inverted;
pub mod load;
pub mod quantized;
pub mod router;
pub mod server;
pub mod shard;
pub mod sharded;
pub mod topk;
pub mod wire;

pub use ann::{IvfIndex, IvfMetrics};
pub use backend::{
    Backend, BackendKind, BackendStats, BoundedSearch, ExactSearch, IvfBackend, SearchBackend,
};
pub use brownout::BrownoutRung;
pub use cache::NeighborCache;
pub use deadline::Deadline;
pub use error::ServingError;
pub use fault::{FaultInjector, FaultPlan, FaultSite};
pub use inverted::InvertedIndex;
pub use load::{
    run_load, Arrival, LatencySummary, LoadReport, LoadTestSpec, ShedPolicy, StageSummary,
};
pub use quantized::{QuantMemory, QuantizedIvf, DEFAULT_RERANK_FACTOR};
pub use router::TenantFairGate;
pub use server::{OnlineServer, ScoredRetrieval, ServerBuilder, ServingConfig, MAX_TOP_K};
pub use shard::RankShard;
pub use sharded::ShardedServer;
pub use wire::{
    FrontDoor, RequestFrame, ResponseFrame, ResponseRow, ResponseStatus, WireClient, WireError,
    DEFAULT_MAX_CONNS, MAX_FRAME_LEN, WIRE_VERSION,
};
pub use zoomer_graph::{queries_from_pairs, Query, Retrieval, ShardingConfig};
pub use zoomer_model::FrozenModel;
pub use zoomer_obs::CacheStats;
