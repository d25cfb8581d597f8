//! The online retrieval server: request → focal → cached neighbors →
//! online embedding → ANN lookup → ranked item ids.
//!
//! One server type, [`OnlineServer`], whose request path is cut at one
//! seam. The **front half** (this file) validates the batch, admits it
//! under its deadline, counts it, resolves every node's neighborhood
//! through the partitioned neighbor cache under one lock round per
//! partition, and runs the frozen towers as one stacked matmul per layer —
//! it is the only code that touches the graph, the towers, or the caches.
//! The **rank half** is one [`RankShard`] per item-pool partition, each
//! probing its partition against those embeddings: shard 0 on the calling
//! thread, shards 1..N on their worker threads unless the caller gets to
//! them first ([`crate::sharded`]), and the replies merge by score. At N = 1 the whole batch runs on the
//! calling thread. A single request is a batch of one through the same
//! path.
//!
//! Under a bounded deadline the batch serves at a [`BrownoutRung`] chosen
//! from the remaining budget — full quality, skip-widening, shrunk top-k,
//! capped probe, or posting-list fallback. Each shard reports the rung it
//! realized; the server counts the worst under `serve.degraded.*`, once.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rayon::prelude::*;
use zoomer_graph::{
    shard_of_node, HeteroGraph, NodeId, NodeType, Query, Retrieval, ShardingConfig,
};
use zoomer_model::{neutral_topk_neighbors, FrozenModel};
use zoomer_obs::{CacheStats, Counter, Histogram, MetricsRegistry, Snapshot, StageTimer};
use zoomer_sampler::{FocalBiasedSampler, FocalContext, NeighborSampler};
use zoomer_tensor::{seeded_rng, Matrix};

use crate::ann::IvfIndex;
use crate::backend::{Backend, BackendKind, ExactSearch, IvfBackend, SearchBackend};
use crate::brownout::BrownoutRung;
use crate::cache::NeighborCache;
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::fault::{self, FaultInjector, FaultSite};
use crate::inverted::InvertedIndex;
use crate::quantized::QuantizedIvf;
use crate::router::merge_query;
use crate::shard::{RankShard, Ranked};
use crate::sharded::ShardSet;

/// A request's resolved (user-neighborhood, query-neighborhood) pair, shared
/// with the cache without copying.
type NeighborPair = (Arc<Vec<NodeId>>, Arc<Vec<NodeId>>);

/// Ranked item postings computed for one chunk of query nodes at build time.
type QueryPostings = Vec<(NodeId, Vec<NodeId>)>;

/// Most results one query may ask for. A request's `top_k` arrives from the
/// wire as a raw `u32`; unbounded, it would turn the Full rung's widening
/// into an exact scan of the whole partition per row and answer with the
/// entire pool.
pub const MAX_TOP_K: u32 = 4096;

/// Serving-stack parameters.
#[derive(Clone, Copy, Debug)]
pub struct ServingConfig {
    /// Cached neighbors per node (paper: 30).
    pub cache_k: usize,
    /// Items returned per request.
    pub top_k: usize,
    /// Which retrieval backend the server probes — see
    /// [`crate::backend::SearchBackend`]. IVF-Flat (the default, the
    /// paper's setup), the exact flat scan, or the int8-quantized IVF.
    pub backend: BackendKind,
    /// IVF lists probed per query (IVF backend only).
    pub nprobe: usize,
    /// Coarse clusters in the ANN index (IVF backend only).
    pub nlist: usize,
    /// Shortlist widening for the quantized backend: the int8 scan keeps
    /// `rerank_factor × top_k` candidates per query, which the exact f32
    /// rerank then narrows back to `top_k`. Larger values recover more of
    /// the recall lost to quantization at proportionally more f32 work on
    /// the shortlist (never on the full probed set). Ignored by the other
    /// backends.
    pub rerank_factor: usize,
    /// Disable the neighbor cache (ablation: sample neighbors per request).
    pub disable_cache: bool,
    /// Per-batch latency budget. `None` (the default) is unbounded and
    /// leaves the request path exactly as it was before deadlines existed.
    /// With a budget: an already-expired batch is rejected at admission
    /// ([`ServingError::DeadlineExceeded`]); past admission the server
    /// degrades instead of erroring — it caps the ANN probe mid-flight and
    /// falls back to posting-list-only retrieval when the budget is spent,
    /// counting `serve.degraded.*`.
    pub deadline: Option<Duration>,
    /// Neighbor-cache entry bound (second-chance eviction beyond it).
    pub cache_capacity: usize,
    /// Shard layout: how many item-pool shards the server splits into, and
    /// how many worker threads drain the queue of each shard after shard 0
    /// (shard 0 ranks on the calling thread). The default 1×1 layout serves
    /// every batch on the calling thread, with no worker at all.
    pub sharding: ShardingConfig,
}

impl Default for ServingConfig {
    fn default() -> Self {
        Self {
            cache_k: 30,
            top_k: 100,
            backend: BackendKind::Ivf,
            nprobe: 4,
            nlist: 32,
            rerank_factor: crate::quantized::DEFAULT_RERANK_FACTOR,
            disable_cache: false,
            deadline: None,
            cache_capacity: NeighborCache::DEFAULT_CAPACITY,
            sharding: ShardingConfig::single(),
        }
    }
}

impl ServingConfig {
    /// The per-query result size: the request's own `top_k` when set, the
    /// server default otherwise (`top_k == 0` is the tuple-era "whatever the
    /// server is configured for").
    #[inline]
    pub(crate) fn effective_top_k(&self, q: &Query) -> usize {
        if q.top_k == 0 {
            self.top_k
        } else {
            q.top_k as usize
        }
    }

    /// Reject degenerate values at build, not at request time.
    fn validate(&self) -> Result<(), ServingError> {
        let invalid = |msg| Err(ServingError::InvalidConfig(msg));
        if self.top_k == 0 {
            return invalid("top_k must be positive");
        }
        if self.nprobe == 0 || self.nlist == 0 {
            return invalid("nprobe and nlist must be positive");
        }
        if self.backend == BackendKind::Quantized && self.rerank_factor == 0 {
            return invalid("rerank_factor must be positive");
        }
        if self.cache_capacity == 0 {
            return invalid("cache_capacity must be positive");
        }
        if self.sharding.num_shards == 0 || self.sharding.replicas_per_shard == 0 {
            return invalid("sharding needs at least one shard and one replica");
        }
        Ok(())
    }
}

/// A scored, per-query retrieval: what a merge across shards needs from
/// each one to be honest — item ids *with* their relevance scores (ids
/// alone cannot be interleaved across shards) plus the degraded flag.
#[derive(Clone, Debug, PartialEq)]
pub struct ScoredRetrieval {
    /// `(item id, score)` pairs, descending score.
    pub items: Vec<(u64, f32)>,
    /// True when this answer came off the degraded ladder.
    pub degraded: bool,
}

impl ScoredRetrieval {
    /// Drop the scores, keeping rank order — the public [`Retrieval`] shape.
    pub fn into_retrieval(self) -> Retrieval {
        Retrieval {
            items: self.items.into_iter().map(|(id, _)| id as NodeId).collect(),
            degraded: self.degraded,
        }
    }
}

/// Pre-registered metric handles for everything the server counts per
/// batch. Built once at server construction (the only time the registry
/// lock is taken); recording is relaxed atomics through these handles, and
/// no-ops down to one relaxed load per stage while the registry is disabled.
struct FrontMetrics {
    registry: Arc<MetricsRegistry>,
    requests: Counter,
    batches: Counter,
    /// Batches rejected at admission with an already-spent budget.
    deadline_exceeded: Counter,
    /// Requests answered from the posting-list fallback (budget spent
    /// after admission).
    degraded_fallback: Counter,
    /// Batches whose retrieval probe was capped below the backend's
    /// configured budget (`nprobe` lists for both IVF backends):
    /// `serve.degraded.budget_capped`.
    degraded_budget: Counter,
    /// Batches served at [`BrownoutRung::SkipWiden`]: the exact-rerank
    /// widening of under-full lists was skipped (`serve.degraded.skip_widen`).
    degraded_skip_widen: Counter,
    /// Batches served at [`BrownoutRung::ShrinkTopK`]: each query's top-k
    /// was halved (`serve.degraded.topk_shrunk`).
    degraded_topk: Counter,
    stage_cache: Histogram,
    stage_embed: Histogram,
    /// Per-shard top-k merge, wall time per batch.
    merge_ns: Histogram,
}

impl FrontMetrics {
    fn new(registry: Arc<MetricsRegistry>) -> Self {
        Self {
            requests: registry.counter("serve.requests"),
            batches: registry.counter("serve.batches"),
            deadline_exceeded: registry.counter("serve.deadline_exceeded"),
            degraded_fallback: registry.counter("serve.degraded.fallback"),
            degraded_budget: registry.counter("serve.degraded.budget_capped"),
            degraded_skip_widen: registry.counter("serve.degraded.skip_widen"),
            degraded_topk: registry.counter("serve.degraded.topk_shrunk"),
            stage_cache: registry.histogram("serve.stage.cache_resolve_ns"),
            stage_embed: registry.histogram("serve.stage.embed_ns"),
            merge_ns: registry.histogram("serve.router.merge_ns"),
            registry,
        }
    }
}

/// Step-by-step construction of an [`OnlineServer`] — the supported way to
/// build one (`OnlineServer::builder()`). Each input has a typed setter;
/// validation happens once, at [`ServerBuilder::build`].
///
/// ```ignore
/// let server = OnlineServer::builder()
///     .graph(graph)
///     .frozen(frozen)
///     .item_pool(&items)
///     .config(ServingConfig { top_k: 20, ..Default::default() })
///     .seed(81)
///     .metrics(registry) // optional: observability registry
///     .build()?;
/// ```
#[derive(Default)]
pub struct ServerBuilder {
    graph: Option<Arc<HeteroGraph>>,
    graph_bytes: Option<bytes::Bytes>,
    frozen: Option<FrozenModel>,
    item_pool: Vec<NodeId>,
    config: ServingConfig,
    seed: u64,
    metrics: Option<Arc<MetricsRegistry>>,
    fault: Option<Arc<FaultInjector>>,
}

impl ServerBuilder {
    /// The graph snapshot to serve against (required).
    pub fn graph(mut self, graph: Arc<HeteroGraph>) -> Self {
        self.graph = Some(graph);
        self
    }

    /// The graph as raw snapshot bytes (v1 or v2), decoded at
    /// [`ServerBuilder::build`] with the wall time recorded into the
    /// `serve.snapshot.load_ns` histogram — the deployment path where the
    /// serving tier receives a compact binary snapshot instead of an
    /// in-process graph. Ignored when [`ServerBuilder::graph`] is also set.
    pub fn graph_snapshot(mut self, bytes: bytes::Bytes) -> Self {
        self.graph_bytes = Some(bytes);
        self
    }

    /// The frozen (tape-free) model towers (required).
    pub fn frozen(mut self, frozen: FrozenModel) -> Self {
        self.frozen = Some(frozen);
        self
    }

    /// The item candidate pool to index (required, non-empty).
    pub fn item_pool(mut self, item_pool: &[NodeId]) -> Self {
        self.item_pool = item_pool.to_vec();
        self
    }

    /// Serving-stack parameters (defaults to [`ServingConfig::default`]).
    pub fn config(mut self, config: ServingConfig) -> Self {
        self.config = config;
        self
    }

    /// Seed for the ANN coarse quantizer's k-means (defaults to 0).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Attach an observability registry: per-stage latency histograms,
    /// request counters, and ANN probe-volume counters all report into it.
    /// Without one the server still runs a private disabled registry, so the
    /// request path is identical either way.
    pub fn metrics(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Arm a deterministic [`FaultInjector`] on the request path (latency
    /// spikes and injected actions at stage boundaries). For tests and
    /// fault-injection harnesses; servers built without one pay a single
    /// `Option` check per stage.
    pub fn fault(mut self, injector: Arc<FaultInjector>) -> Self {
        self.fault = Some(injector);
        self
    }

    /// Validate the inputs and stand the server up (§VI's offline-to-online
    /// hand-off): resolve the graph and the towers, partition the item pool
    /// by [`shard_of_node`] into [`ServingConfig::sharding`]'s shard count,
    /// and build one [`RankShard`] per partition — backend over the
    /// partition's item-tower embeddings, postings ranked against it,
    /// `cache_capacity / num_shards` cache entries — then start
    /// `replicas_per_shard` workers for every shard after shard 0.
    /// Everything that depends on the graph alone (the snapshot decode,
    /// each query's base embedding) happens once, whatever the shard count.
    pub fn build(self) -> Result<OnlineServer, ServingError> {
        let registry = self.metrics.unwrap_or_else(|| Arc::new(MetricsRegistry::new()));
        // An in-process handle wins; otherwise decode the snapshot bytes
        // here, timing the decode (the v2 format makes this a section-table
        // walk plus bulk copies — see `zoomer_graph::snapshot`).
        let graph = match (self.graph, self.graph_bytes) {
            (Some(g), _) => g,
            (None, Some(raw)) => {
                let started = Instant::now();
                let g = zoomer_graph::read_snapshot(raw)?;
                registry
                    .histogram("serve.snapshot.load_ns")
                    .record(started.elapsed().as_nanos() as u64);
                Arc::new(g)
            }
            (None, None) => {
                return Err(ServingError::InvalidConfig("server builder needs a graph"))
            }
        };
        let frozen = self
            .frozen
            .ok_or(ServingError::InvalidConfig("server builder needs a frozen model"))?;
        let config = self.config;
        config.validate()?;
        if self.item_pool.is_empty() {
            return Err(ServingError::InvalidConfig("cannot serve an empty item pool"));
        }
        let num_nodes = graph.num_nodes();
        if let Some(&node) = self.item_pool.iter().find(|&&i| i as usize >= num_nodes) {
            return Err(ServingError::NodeOutOfRange { node, num_nodes });
        }
        // Every shard must own at least one item or its backend would be
        // un-buildable.
        let num_shards = config.sharding.num_shards;
        let mut pools: Vec<Vec<NodeId>> = vec![Vec::new(); num_shards];
        for &item in &self.item_pool {
            pools[shard_of_node(item, num_shards)].push(item);
        }
        if pools.iter().any(Vec::is_empty) {
            return Err(ServingError::InvalidConfig(
                "a shard owns no items; use fewer shards or a larger item pool",
            ));
        }
        let mut backends: Vec<Backend> =
            pools.iter().map(|pool| build_backend(&frozen, pool, &config, self.seed)).collect();

        // Per-query postings ranked by the frozen item tower against the
        // query's own online embedding (with no cached neighborhood that
        // embedding is the query's base vector). Queries are chunked into
        // batched probes and the chunks run in parallel; each chunk is
        // embedded once and ranked against every partition. This ranking is
        // offline, so the backend may afford a wider budget than the
        // serving path (`offline_rank_batch`).
        let queries: Vec<NodeId> = graph.nodes_of_type(NodeType::Query);
        let chunks: Vec<&[NodeId]> = queries.chunks(64).collect();
        let ranked: Vec<Result<Vec<QueryPostings>, ServingError>> = chunks
            .par_iter()
            .map(|chunk| {
                let mut embs = Matrix::zeros(chunk.len(), frozen.embed_dim());
                for (r, &q) in chunk.iter().enumerate() {
                    embs.row_mut(r).copy_from_slice(&frozen.online_embedding(q, &[], &[]));
                }
                backends
                    .iter()
                    .map(|backend| {
                        Ok(backend
                            .offline_rank_batch(&embs, config.top_k)?
                            .into_iter()
                            .zip(chunk.iter())
                            .map(|(ranked, &q)| {
                                (q, ranked.into_iter().map(|(id, _)| id as NodeId).collect())
                            })
                            .collect())
                    })
                    .collect()
            })
            .collect();
        let mut postings: Vec<InvertedIndex> =
            backends.iter().map(|_| InvertedIndex::default()).collect();
        for chunk_postings in ranked {
            for (index, chunk) in postings.iter_mut().zip(chunk_postings?) {
                for (q, ranked) in chunk {
                    if !ranked.is_empty() {
                        index.set_posting(q, ranked);
                    }
                }
            }
        }
        // Attach probe-volume counters only now, after the offline posting
        // ranking, so serve-time metrics are not polluted by build work.
        for backend in &mut backends {
            backend.attach_metrics(&registry);
        }
        let cache_capacity = (config.cache_capacity / num_shards).max(1);
        let shards: Vec<Arc<RankShard>> = backends
            .into_iter()
            .zip(postings)
            .enumerate()
            .map(|(idx, (backend, postings))| {
                Arc::new(RankShard::new(
                    idx,
                    backend,
                    postings,
                    config,
                    cache_capacity,
                    &registry,
                    self.fault.clone(),
                ))
            })
            .collect();
        Ok(OnlineServer {
            shards: ShardSet::start(shards, config.sharding.replicas_per_shard, &registry),
            graph,
            frozen,
            config,
            sampler: FocalBiasedSampler::default(),
            fault: self.fault,
            metrics: FrontMetrics::new(registry),
        })
    }
}

/// Embed one item partition through the frozen item tower (one stacked
/// matmul) and stand the configured retrieval backend up over it.
fn build_backend(
    frozen: &FrozenModel,
    pool: &[NodeId],
    config: &ServingConfig,
    seed: u64,
) -> Backend {
    let item_matrix = frozen.item_embeddings(pool);
    let items: Vec<(u64, Vec<f32>)> =
        pool.iter().enumerate().map(|(r, &i)| (i as u64, item_matrix.row(r).to_vec())).collect();
    // Size the coarse quantizer to the pool (≈√N, capped by config) so small
    // pools keep enough candidates per probe. The quantized index adopts the
    // same IVF partition, so equal configs probe the same lists and recall
    // deltas measure quantization alone.
    let nlist = config.nlist.min(((items.len() as f64).sqrt().ceil()) as usize).max(1);
    match config.backend {
        BackendKind::Ivf => {
            Backend::Ivf(IvfBackend::new(IvfIndex::build(&items, nlist, 8, seed), config.nprobe))
        }
        BackendKind::Quantized => Backend::Quantized(QuantizedIvf::build(
            &items,
            nlist,
            8,
            seed,
            config.nprobe,
            config.rerank_factor,
        )),
        BackendKind::Exact => Backend::Exact(ExactSearch::build(&items)),
    }
}

/// The online retrieval server: the front half plus one rank shard per
/// item-pool partition (see the module docs). Every method takes `&self`,
/// so one server behind an `Arc` serves every connection thread.
pub struct OnlineServer {
    graph: Arc<HeteroGraph>,
    frozen: FrozenModel,
    config: ServingConfig,
    sampler: FocalBiasedSampler,
    /// Deterministic fault injector (tests/harnesses only); `None` in
    /// production.
    fault: Option<Arc<FaultInjector>>,
    metrics: FrontMetrics,
    shards: ShardSet,
}

impl OnlineServer {
    /// Start building a server; see [`ServerBuilder`].
    pub fn builder() -> ServerBuilder {
        ServerBuilder::default()
    }

    pub fn config(&self) -> ServingConfig {
        self.config
    }

    pub fn graph(&self) -> &HeteroGraph {
        &self.graph
    }

    /// The rank shards, in partition order (tests and benches inspect their
    /// backends and caches).
    pub fn shards(&self) -> &[Arc<RankShard>] {
        self.shards.all()
    }

    /// The observability registry this server reports into (the one passed
    /// to [`ServerBuilder::metrics`], or a private disabled one).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        &self.metrics.registry
    }

    /// Point-in-time snapshot of every metric, with the cache partitions'
    /// summed counters ingested first so hits/misses/evictions appear next
    /// to the stage timings.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.metrics.registry.ingest_cache("cache", self.aggregated_cache_stats());
        self.metrics.registry.snapshot()
    }

    /// Neighbor-cache counters summed across every shard's partition.
    pub fn aggregated_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for shard in self.shards() {
            let s = shard.cache().stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
        }
        total
    }

    /// Handle a batch of retrieval requests: one [`Retrieval`] per
    /// [`Query`], element-wise identical to serving each query in its own
    /// batch of one.
    ///
    /// A malformed request (e.g. a node id outside the graph) yields an
    /// `Err` for this batch only; the server state is untouched and it keeps
    /// serving subsequent batches.
    ///
    /// The batch runs under the configured [`ServingConfig::deadline`] (if
    /// any), started at the moment this call admits the batch.
    pub fn handle_batch(&self, queries: &[Query]) -> Result<Vec<Retrieval>, ServingError> {
        self.handle_batch_with_deadline(queries, Deadline::from_config(self.config.deadline))
    }

    /// [`Self::handle_batch`] under an explicit, possibly already-running
    /// [`Deadline`] (e.g. one decoded from a wire-request header, so
    /// queueing delay counts against the budget).
    ///
    /// Deadline semantics: an expired budget at admission is an error
    /// ([`ServingError::DeadlineExceeded`]); once admitted the batch always
    /// produces a response — the server degrades (caps the ANN probe between
    /// rounds, or answers from the postings alone) rather than wasting work
    /// already done. `Deadline::none()` reads no clock and leaves the path
    /// byte-identical to the pre-deadline server.
    pub fn handle_batch_with_deadline(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Result<Vec<Retrieval>, ServingError> {
        let rows = self.handle_batch_scored(queries, deadline)?;
        Ok(rows.into_iter().map(ScoredRetrieval::into_retrieval).collect())
    }

    /// The full request path, keeping scores.
    /// [`Self::handle_batch_with_deadline`] is exactly this with the scores
    /// dropped, so the scored and unscored paths can never diverge.
    pub fn handle_batch_scored(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        self.serve(queries, deadline, None)
    }

    /// Serve a batch at a **prescribed** [`BrownoutRung`], bypassing the
    /// budget-driven selection: the harness entry point behind the
    /// `brownout_ladder` domination proptest and `fig_overload`'s per-rung
    /// sweep. The batch runs the ordinary path under no deadline, on every
    /// shard; only the rung's origin differs (see `RankShard::rank` for what
    /// a forced rung changes in the probe). Rung counters move exactly as an
    /// organic batch at the same rung would move them.
    pub fn handle_batch_scored_forced(
        &self,
        queries: &[Query],
        rung: BrownoutRung,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        self.serve(queries, Deadline::none(), Some(rung))
    }

    /// Front half, then every shard's reply at the `forced` rung or the one
    /// the shards' probe-cost EWMAs select, then the merge: per query,
    /// concatenate the replying shards' scored lists and reduce through the
    /// shared top-k (a total order, so ties across shards break by id, as in
    /// one shard). A lost shard marks the whole batch degraded — its
    /// candidates are missing from the merge.
    fn serve(
        &self,
        queries: &[Query],
        deadline: Deadline,
        forced: Option<BrownoutRung>,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let replies = match self.prepare(queries, &deadline)? {
            Some(uq) => self.shards.rank(uq, queries, deadline, forced)?,
            // Budget spent before the embed: every shard's posting
            // partition answers inline — nothing left worth a hand-off.
            None => self.shards().iter().map(|s| Some(s.fallback(queries))).collect(),
        };

        let t_merge = StageTimer::start(&self.metrics.merge_ns);
        let lost = replies.iter().any(Option::is_none);
        let answered: Vec<Ranked> = replies.into_iter().flatten().collect();
        let worst = answered.iter().map(|r| r.realized).max().unwrap_or(BrownoutRung::Full);
        self.count_degraded(worst, queries.len());
        let mut row_iters: Vec<std::vec::IntoIter<ScoredRetrieval>> =
            answered.into_iter().map(|r| r.rows.into_iter()).collect();
        let out = queries
            .iter()
            .map(|q| {
                let rows = row_iters.iter_mut().filter_map(Iterator::next).collect();
                merge_query(rows, self.config.effective_top_k(q), lost)
            })
            .collect();
        t_merge.stop();
        Ok(out)
    }

    /// Warm the cache partitions for a set of nodes (deployment pre-fill):
    /// each node lands only in its owning partition, through the same sweep
    /// the request path runs on a miss — so pre-warmed and cold-started
    /// servers serve identical results. A set-up call, so its misses are
    /// computed in parallel.
    pub fn warm_cache(&self, nodes: &[NodeId]) -> Result<(), ServingError> {
        if self.config.disable_cache {
            return Ok(());
        }
        self.validate_nodes(nodes.iter().copied())?;
        self.fill_misses(nodes.iter().copied(), |missing| {
            missing.par_iter().map(|&n| (n, self.neighborhood(n))).collect()
        });
        Ok(())
    }

    /// Reject any request node id outside the loaded graph before it can
    /// reach code that indexes adjacency or feature arrays.
    fn validate_nodes(&self, nodes: impl IntoIterator<Item = NodeId>) -> Result<(), ServingError> {
        let num_nodes = self.graph.num_nodes();
        for node in nodes {
            if node as usize >= num_nodes {
                return Err(ServingError::NodeOutOfRange { node, num_nodes });
            }
        }
        Ok(())
    }

    /// Run the front half over a non-empty batch: `Ok(Some(uq))` is the
    /// stacked request embeddings, ready to rank; `Ok(None)` means the batch
    /// was admitted but its budget ran out before the embed, so the shards
    /// answer from their fallback rows.
    ///
    /// A malformed request (a node id outside the graph, a `top_k` past
    /// [`MAX_TOP_K`]) or a budget already spent at admission is an `Err`
    /// for this batch only; nothing has been counted or cached, and the
    /// server keeps serving subsequent batches. Once admitted the batch
    /// always produces a response.
    fn prepare(
        &self,
        queries: &[Query],
        deadline: &Deadline,
    ) -> Result<Option<Matrix>, ServingError> {
        self.validate_nodes(queries.iter().flat_map(|r| [r.user, r.query]))?;
        if let Some(top_k) = queries.iter().map(|q| q.top_k).find(|&k| k > MAX_TOP_K) {
            return Err(ServingError::TopKOutOfRange { top_k, max: MAX_TOP_K });
        }
        let m = &self.metrics;
        if deadline.expired() {
            m.deadline_exceeded.inc();
            return Err(ServingError::DeadlineExceeded { stage: "admission" });
        }
        m.batches.inc();
        m.requests.add(queries.len() as u64);

        fault::fire(&self.fault, FaultSite::CacheResolve);
        let t = StageTimer::start(&m.stage_cache);
        let neighbors = self.resolve_neighbors(queries)?;
        t.stop();
        if deadline.expired() {
            return Ok(None);
        }

        fault::fire(&self.fault, FaultSite::Embed);
        let t = StageTimer::start(&m.stage_embed);
        let neighbor_slices: Vec<(&[NodeId], &[NodeId])> =
            neighbors.iter().map(|(u, q)| (u.as_slice(), q.as_slice())).collect();
        let uq = self.frozen.embed_requests(&self.graph, queries, &neighbor_slices);
        t.stop();
        Ok(Some(uq))
    }

    /// Resolve the user/query neighborhoods for a whole batch.
    ///
    /// Cached path: the miss sweep below, then a per-request lookup.
    /// `disable_cache` (ablation) samples fresh per request under the
    /// request's own focal context, like the paper's no-cache variant, and
    /// touches no shard state.
    fn resolve_neighbors(&self, queries: &[Query]) -> Result<Vec<NeighborPair>, ServingError> {
        if self.config.disable_cache {
            return Ok(queries
                .iter()
                .map(|r| {
                    let (u, q) = r.pair();
                    let ctx = FocalContext::for_request(&self.graph, u, q);
                    let sample = |n: NodeId| {
                        let mut rng = seeded_rng(n as u64);
                        let mut fresh = self.sampler.sample(
                            &self.graph,
                            n,
                            &ctx,
                            self.config.cache_k,
                            &mut rng,
                        );
                        fresh.truncate(self.config.cache_k);
                        Arc::new(fresh)
                    };
                    (sample(u), sample(q))
                })
                .collect());
        }
        let nodes = queries.iter().flat_map(|r| [r.user, r.query]);
        let resolved = self.fill_misses(nodes, |missing| {
            missing.iter().map(|&n| (n, self.neighborhood(n))).collect()
        });
        let get = |n: NodeId| {
            resolved
                .get(&n)
                .map(Arc::clone)
                .ok_or(ServingError::Internal("cache sweep lost a node"))
        };
        queries.iter().map(|r| Ok((get(r.user)?, get(r.query)?))).collect()
    }

    /// A cache entry: the node's neutral-focal top-k
    /// ([`neutral_topk_neighbors`] — the same definition offline eval uses),
    /// so an entry never depends on which request, which shard count, or
    /// which of warm-up and serving happened to materialize it.
    fn neighborhood(&self, n: NodeId) -> Vec<NodeId> {
        neutral_topk_neighbors(&self.graph, n, self.config.cache_k)
    }

    /// The one cache sweep: route each distinct node to the partition that
    /// owns it ([`shard_of_node`]), read every partition under one
    /// `get_many` lock round, compute each partition's misses through
    /// `compute` ([`Self::neighborhood`] per node — serially on the request
    /// path, in parallel only from the set-up caller), install them under one
    /// `insert_many` write. Returns every requested node's entry.
    fn fill_misses(
        &self,
        nodes: impl IntoIterator<Item = NodeId>,
        compute: impl Fn(&[NodeId]) -> Vec<(NodeId, Vec<NodeId>)>,
    ) -> HashMap<NodeId, Arc<Vec<NodeId>>> {
        let shards = self.shards();
        let mut by_shard: Vec<Vec<NodeId>> = vec![Vec::new(); shards.len()];
        let mut seen = HashSet::new();
        for n in nodes {
            if seen.insert(n) {
                by_shard[shard_of_node(n, shards.len())].push(n);
            }
        }
        let mut resolved = HashMap::with_capacity(seen.len());
        for (shard, owned) in shards.iter().zip(&by_shard) {
            if owned.is_empty() {
                continue;
            }
            let found = shard.cache().get_many(owned);
            let missing: Vec<NodeId> =
                owned.iter().zip(&found).filter(|(_, f)| f.is_none()).map(|(&n, _)| n).collect();
            let inserted = shard.cache().insert_many(compute(&missing));
            resolved.extend(missing.into_iter().zip(inserted));
            resolved.extend(owned.iter().zip(found).filter_map(|(&n, hit)| Some((n, hit?))));
        }
        resolved
    }

    /// Count how one served batch degraded: exactly one `serve.degraded.*`
    /// counter, named for the *worst* rung any of its shards realized — one
    /// per batch for the model-path rungs, one per request for the
    /// fallback, nothing for a full-quality batch. Counted here, never by a
    /// shard, so the family partitions degraded batches identically at
    /// every shard count.
    fn count_degraded(&self, realized: BrownoutRung, requests: usize) {
        let m = &self.metrics;
        match realized {
            BrownoutRung::Full => {}
            BrownoutRung::SkipWiden => m.degraded_skip_widen.inc(),
            BrownoutRung::ShrinkTopK => m.degraded_topk.inc(),
            BrownoutRung::CapBudget => m.degraded_budget.inc(),
            BrownoutRung::Fallback => m.degraded_fallback.add(requests as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoomer_data::{TaobaoConfig, TaobaoData};
    use zoomer_graph::NodeType;
    use zoomer_model::{ModelConfig, UnifiedCtrModel};

    fn build_server(disable_cache: bool) -> (TaobaoData, OnlineServer) {
        build_server_cfg(ServingConfig { top_k: 20, disable_cache, ..Default::default() })
    }

    fn build_server_cfg(config: ServingConfig) -> (TaobaoData, OnlineServer) {
        let data = TaobaoData::generate(TaobaoConfig::tiny(81));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let graph = Arc::new(
            zoomer_graph::read_snapshot(zoomer_graph::write_snapshot(&data.graph))
                .expect("snapshot roundtrip"),
        );
        let items = data.item_nodes();
        let server = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(config)
            .seed(81)
            .build()
            .expect("server build");
        (data, server)
    }

    /// The single shard of a default (1×1) server.
    fn only_shard(server: &OnlineServer) -> &RankShard {
        let [shard] = server.shards() else { panic!("expected one shard") };
        shard
    }

    /// Batch-of-one through the typed API — the old `handle` semantics the
    /// bulk of these tests were written against.
    fn one(
        server: &OnlineServer,
        user: NodeId,
        query: NodeId,
    ) -> Result<Vec<NodeId>, ServingError> {
        Ok(server
            .handle_batch(&[Query::new(user, query)])?
            .pop()
            .map(|r| r.items)
            .unwrap_or_default())
    }

    #[test]
    fn handle_returns_topk_items() {
        let (data, server) = build_server(false);
        let log = &data.logs[0];
        let result = one(&server, log.user, log.query).expect("serve");
        assert_eq!(result.len(), 20);
        for &item in &result {
            assert_eq!(data.graph.node_type(item), NodeType::Item);
        }
        // No duplicates.
        let set: std::collections::HashSet<_> = result.iter().collect();
        assert_eq!(set.len(), result.len());
    }

    #[test]
    fn repeated_requests_hit_the_cache() {
        let (data, server) = build_server(false);
        let log = &data.logs[0];
        let first = one(&server, log.user, log.query).expect("serve");
        let misses_after_first = server.aggregated_cache_stats().misses;
        let second = one(&server, log.user, log.query).expect("serve");
        let stats = server.aggregated_cache_stats();
        assert_eq!(first, second, "same request must be deterministic");
        assert_eq!(stats.misses, misses_after_first, "second request should not miss");
        assert!(stats.hits >= 2);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn cache_disabled_still_serves() {
        let (data, server) = build_server(true);
        let log = &data.logs[0];
        let result = one(&server, log.user, log.query).expect("serve");
        assert_eq!(result.len(), 20);
        assert_eq!(only_shard(&server).cache().len(), 0, "cache must stay empty when disabled");
    }

    #[test]
    fn warm_cache_prefills() {
        let (data, server) = build_server(false);
        let users: Vec<NodeId> = (0..10).collect();
        server.warm_cache(&users).expect("warm");
        assert!(only_shard(&server).cache().len() >= 10);
        let _ = data;
    }

    #[test]
    fn handle_batch_matches_sequential_handles() {
        let (data, server) = build_server(false);
        let requests: Vec<Query> = data
            .logs
            .iter()
            .take(8)
            .map(|l| Query::new(l.user, l.query))
            // Duplicate a pair inside the batch to cover same-batch reuse.
            .chain(std::iter::once(Query::new(data.logs[0].user, data.logs[0].query)))
            .collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        assert_eq!(batched.len(), requests.len());
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(
                batched[i].items,
                one(&server, r.user, r.query).expect("serve"),
                "request {i} diverges"
            );
        }
    }

    #[test]
    fn handle_batch_of_empty_is_empty() {
        let (_, server) = build_server(false);
        assert!(server.handle_batch(&[]).expect("serve batch").is_empty());
    }

    #[test]
    fn malformed_request_is_rejected_and_server_keeps_serving() {
        let (data, server) = build_server(false);
        let log = &data.logs[0];
        let before = one(&server, log.user, log.query).expect("serve");
        // A node id past the end of the graph must come back as a typed
        // error for that batch alone...
        let bogus = server.graph().num_nodes() as NodeId + 7;
        let err = server
            .handle_batch(&[Query::new(log.user, log.query), Query::new(bogus, log.query)])
            .expect_err("out-of-range node must be rejected");
        assert_eq!(
            err,
            crate::error::ServingError::NodeOutOfRange {
                node: bogus,
                num_nodes: server.graph().num_nodes()
            }
        );
        assert!(one(&server, log.user, bogus).is_err());
        assert!(server.warm_cache(&[bogus]).is_err());
        // So must a result size past the per-query bound.
        let err = server
            .handle_batch(&[Query::new(log.user, log.query).with_top_k(MAX_TOP_K + 1)])
            .expect_err("out-of-range top_k must be rejected");
        assert_eq!(err, ServingError::TopKOutOfRange { top_k: MAX_TOP_K + 1, max: MAX_TOP_K });
        // ...while subsequent well-formed batches serve identically.
        let after = one(&server, log.user, log.query).expect("server must keep serving");
        assert_eq!(before, after, "rejected request must not perturb server state");
    }

    #[test]
    fn zero_deadline_is_rejected_at_admission_not_a_panic() {
        let (data, server) = build_server_cfg(ServingConfig {
            top_k: 20,
            deadline: Some(Duration::ZERO),
            ..Default::default()
        });
        let log = &data.logs[0];
        let err = server
            .handle_batch(&[Query::new(log.user, log.query)])
            .expect_err("a zero budget must be rejected at admission");
        assert_eq!(err, ServingError::DeadlineExceeded { stage: "admission" });
        // Rejection is typed and counted — never a panic, never a served batch.
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.deadline_exceeded"), Some(1));
        assert_eq!(snap.counter("serve.batches"), Some(0), "rejected batch must not be admitted");
        // An empty batch is still the empty answer, even with a spent budget.
        assert!(server.handle_batch(&[]).expect("empty batch").is_empty());
    }

    #[test]
    fn generous_deadline_serves_identically_to_no_deadline() {
        let (data, unbounded) = build_server(false);
        let (_, bounded) = build_server_cfg(ServingConfig {
            top_k: 20,
            deadline: Some(Duration::from_secs(600)),
            ..Default::default()
        });
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        assert_eq!(
            unbounded.handle_batch(&requests).expect("serve unbounded"),
            bounded.handle_batch(&requests).expect("serve bounded"),
            "an unspent budget must not change any answer"
        );
        let snap = bounded.metrics_snapshot();
        assert_eq!(snap.counter("serve.degraded.fallback"), Some(0));
        assert_eq!(snap.counter("serve.degraded.budget_capped"), Some(0));
    }

    #[test]
    fn zero_cache_capacity_is_a_build_error() {
        let data = TaobaoData::generate(TaobaoConfig::tiny(84));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let items = data.item_nodes();
        assert!(matches!(
            OnlineServer::builder()
                .graph(Arc::new(data.graph))
                .frozen(frozen)
                .item_pool(&items)
                .config(ServingConfig { cache_capacity: 0, ..Default::default() })
                .build(),
            Err(ServingError::InvalidConfig("cache_capacity must be positive"))
        ));
    }

    #[test]
    fn empty_item_pool_is_a_build_error() {
        let data = TaobaoData::generate(TaobaoConfig::tiny(82));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let err = match OnlineServer::builder()
            .graph(Arc::new(data.graph))
            .frozen(frozen)
            .item_pool(&[])
            .seed(82)
            .build()
        {
            Ok(_) => panic!("empty pool must be rejected"),
            Err(e) => e,
        };
        assert!(matches!(err, crate::error::ServingError::InvalidConfig(_)));
    }

    #[test]
    fn builder_rejects_missing_inputs_and_zero_params() {
        let data = TaobaoData::generate(TaobaoConfig::tiny(83));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let items = data.item_nodes();
        let graph = Arc::new(data.graph);
        // No graph.
        assert!(matches!(
            OnlineServer::builder().frozen(frozen).item_pool(&items).build(),
            Err(crate::error::ServingError::InvalidConfig(_))
        ));
        // No frozen model.
        assert!(matches!(
            OnlineServer::builder().graph(Arc::clone(&graph)).item_pool(&items).build(),
            Err(crate::error::ServingError::InvalidConfig(_))
        ));
        // Degenerate config values are rejected at build, not at request time.
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &graph);
        assert!(matches!(
            OnlineServer::builder()
                .graph(graph)
                .frozen(frozen)
                .item_pool(&items)
                .config(ServingConfig { top_k: 0, ..Default::default() })
                .build(),
            Err(crate::error::ServingError::InvalidConfig(_))
        ));
    }

    #[test]
    fn handle_batch_without_cache_matches_handle() {
        let (data, server) = build_server(true);
        let requests: Vec<Query> =
            data.logs.iter().take(5).map(|l| Query::new(l.user, l.query)).collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        for (i, r) in requests.iter().enumerate() {
            assert_eq!(batched[i].items, one(&server, r.user, r.query).expect("serve"));
        }
    }

    #[test]
    fn warm_cache_matches_request_path() {
        // A warm-cache prefill must produce the same entries the request
        // path computes on a cold miss, so results are arrival-order
        // independent.
        let (data, cold_server) = build_server(false);
        let (_, warm_server) = build_server(false);
        let log = &data.logs[0];
        let cold = one(&cold_server, log.user, log.query).expect("serve");
        warm_server.warm_cache(&[log.user, log.query]).expect("warm");
        let warm = one(&warm_server, log.user, log.query).expect("serve");
        assert_eq!(cold, warm, "warm-cache entries must match request-path entries");
    }

    #[test]
    fn concurrent_batches_are_consistent() {
        let (data, server) = build_server(false);
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        let baseline = server.handle_batch(&requests).expect("serve batch");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &server;
                let expected = baseline.clone();
                let reqs = requests.clone();
                scope.spawn(move || {
                    for _ in 0..10 {
                        assert_eq!(s.handle_batch(&reqs).expect("serve batch"), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn concurrent_requests_are_consistent() {
        let (data, server) = build_server(false);
        let log = data.logs[0].clone();
        let baseline = one(&server, log.user, log.query).expect("serve");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let s = &server;
                let expected = baseline.clone();
                let (u, q) = (log.user, log.query);
                scope.spawn(move || {
                    for _ in 0..25 {
                        assert_eq!(one(s, u, q).expect("serve"), expected);
                    }
                });
            }
        });
    }

    #[test]
    fn retrieval_prefers_intent_aligned_items() {
        // Items retrieved for a request should, on average, be closer to the
        // query's content vector than random items (structure sanity; exact
        // quality is measured in the benches after training).
        let (data, server) = build_server(false);
        let log = &data.logs[3];
        let retrieved = one(&server, log.user, log.query).expect("serve");
        let qv = data.graph.dense_feature(log.query);
        let mean_sim = |items: &[NodeId]| {
            items
                .iter()
                .map(|&i| zoomer_tensor::cosine_similarity(qv, data.graph.dense_feature(i)))
                .sum::<f32>()
                / items.len().max(1) as f32
        };
        let all_items = data.item_nodes();
        let retrieved_sim = mean_sim(&retrieved);
        let pool_sim = mean_sim(&all_items);
        // Untrained towers give weak signal; require only non-collapse.
        assert!(retrieved_sim.is_finite() && pool_sim.is_finite());
    }

    /// Fixture pieces for building a second server over the same data.
    fn fixture(seed: u64) -> (TaobaoData, Arc<HeteroGraph>, FrozenModel, Vec<NodeId>) {
        let data = TaobaoData::generate(TaobaoConfig::tiny(seed));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(11, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let graph = Arc::new(
            zoomer_graph::read_snapshot(zoomer_graph::write_snapshot(&data.graph))
                .expect("snapshot roundtrip"),
        );
        let items = data.item_nodes();
        (data, graph, frozen, items)
    }

    #[test]
    fn exact_backend_serves_topk_items() {
        let (data, server) = build_server_cfg(ServingConfig {
            top_k: 20,
            backend: BackendKind::Exact,
            ..Default::default()
        });
        assert_eq!(only_shard(&server).backend().kind(), BackendKind::Exact);
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        for (i, (r, row)) in requests.iter().zip(&batched).enumerate() {
            assert_eq!(row.len(), 20);
            for &item in &row.items {
                assert_eq!(data.graph.node_type(item), NodeType::Item, "request {i}");
            }
            assert_eq!(
                row.items,
                one(&server, r.user, r.query).expect("serve"),
                "request {i} diverges"
            );
        }
    }

    #[test]
    fn quantized_backend_serves_topk_items() {
        let (data, server) = build_server_cfg(ServingConfig {
            top_k: 20,
            backend: BackendKind::Quantized,
            ..Default::default()
        });
        let backend = only_shard(&server).backend();
        assert_eq!(backend.kind(), BackendKind::Quantized);
        let quant = backend.as_quantized().expect("quantized backend");
        assert!(
            quant.memory_footprint().compression_ratio() >= 4.0,
            "int8 code store must be at least 4x smaller than the f32 rerank store"
        );
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        let batched = server.handle_batch(&requests).expect("serve batch");
        for (i, (r, row)) in requests.iter().zip(&batched).enumerate() {
            assert_eq!(row.len(), 20);
            for &item in &row.items {
                assert_eq!(data.graph.node_type(item), NodeType::Item, "request {i}");
            }
            assert_eq!(
                row.items,
                one(&server, r.user, r.query).expect("serve"),
                "request {i} diverges"
            );
        }
    }

    #[test]
    fn quantized_backend_rejects_zero_rerank_factor() {
        let (_, graph, frozen, items) = fixture(81);
        let result = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig {
                backend: BackendKind::Quantized,
                rerank_factor: 0,
                ..Default::default()
            })
            .build();
        match result {
            Err(ServingError::InvalidConfig(msg)) => {
                assert_eq!(msg, "rerank_factor must be positive");
            }
            Err(other) => panic!("wrong error: {other}"),
            Ok(_) => panic!("rerank_factor 0 must be rejected"),
        }
    }

    #[test]
    fn builder_decodes_snapshot_bytes_and_times_the_load() {
        let (data, _, frozen, items) = fixture(81);
        let registry = Arc::new(zoomer_obs::MetricsRegistry::enabled());
        let server = OnlineServer::builder()
            .graph_snapshot(zoomer_graph::write_snapshot(&data.graph))
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 10, ..Default::default() })
            .metrics(Arc::clone(&registry))
            .build()
            .expect("server from snapshot bytes");
        assert_eq!(server.graph().num_nodes(), data.graph.num_nodes());
        let snap = registry.snapshot();
        let load = snap
            .histograms
            .iter()
            .find(|h| h.name == "serve.snapshot.load_ns")
            .expect("load histogram registered");
        assert_eq!(load.count, 1, "exactly one snapshot decode must be timed");
        let log = &data.logs[0];
        assert_eq!(one(&server, log.user, log.query).expect("serve").len(), 10);
    }

    #[test]
    fn exact_backend_matches_a_full_probe_ivf_server() {
        // At recall=1 settings (IVF probing every list) both backends run
        // the same frozen relevance arithmetic, so the served rankings must
        // agree item-for-item.
        let (data, graph, frozen, items) = fixture(87);
        let wide = items.len();
        let ivf = OnlineServer::builder()
            .graph(Arc::clone(&graph))
            .frozen(frozen.clone())
            .item_pool(&items)
            .config(ServingConfig { top_k: 15, nprobe: wide, nlist: wide, ..Default::default() })
            .seed(87)
            .build()
            .expect("ivf build");
        let exact = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 15, backend: BackendKind::Exact, ..Default::default() })
            .seed(87)
            .build()
            .expect("exact build");
        let requests: Vec<Query> =
            data.logs.iter().take(8).map(|l| Query::new(l.user, l.query)).collect();
        assert_eq!(
            ivf.handle_batch(&requests).expect("ivf serve"),
            exact.handle_batch(&requests).expect("exact serve"),
            "full-probe IVF and the exact backend must serve identically"
        );
    }

    #[test]
    fn backend_stats_count_served_probes() {
        let (data, graph, frozen, items) = fixture(89);
        let registry = Arc::new(zoomer_obs::MetricsRegistry::enabled());
        let server = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 10, backend: BackendKind::Exact, ..Default::default() })
            .seed(89)
            .metrics(Arc::clone(&registry))
            .build()
            .expect("build");
        let requests: Vec<Query> =
            data.logs.iter().take(5).map(|l| Query::new(l.user, l.query)).collect();
        server.handle_batch(&requests).expect("serve");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.backend.queries"), Some(5));
        assert_eq!(
            snap.counter("serve.backend.candidates_scored"),
            Some(5 * items.len() as u64),
            "the exact backend scores the whole pool per query"
        );
    }

    #[test]
    fn metrics_record_per_stage_timings() {
        let (data, graph, frozen, items) = fixture(86);
        let registry = Arc::new(zoomer_obs::MetricsRegistry::enabled());
        let server = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 10, ..Default::default() })
            .seed(86)
            .metrics(Arc::clone(&registry))
            .build()
            .expect("build");
        assert!(Arc::ptr_eq(server.metrics_registry(), &registry));
        // Build-time posting ranking must not leak into serve-time counters.
        assert_eq!(registry.snapshot().counter("ann.lists_probed"), Some(0));
        let requests: Vec<Query> =
            data.logs.iter().take(6).map(|l| Query::new(l.user, l.query)).collect();
        server.handle_batch(&requests).expect("serve");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(6));
        assert_eq!(snap.counter("serve.batches"), Some(1));
        for stage in [
            "serve.stage.cache_resolve_ns",
            "serve.stage.embed_ns",
            "serve.stage.ann_probe_ns",
            "serve.stage.rank_ns",
        ] {
            let h = snap.histogram(stage).unwrap_or_else(|| panic!("{stage} missing"));
            assert_eq!(h.count, 1, "{stage} must record once per batch");
            assert!(h.p50() > 0, "{stage} must measure real time");
        }
        assert!(snap.counter("ann.lists_probed").expect("ingested") > 0);
        assert!(snap.counter("cache.misses").expect("ingested") > 0);
    }

    #[test]
    fn disabled_registry_keeps_counters_but_skips_histograms() {
        let (data, server) = build_server(false);
        let log = &data.logs[0];
        one(&server, log.user, log.query).expect("serve");
        let snap = server.metrics_snapshot();
        assert_eq!(snap.counter("serve.requests"), Some(1), "counters are always-on");
        let h = snap.histogram("serve.stage.embed_ns").expect("registered");
        assert_eq!(h.count, 0, "disabled registry must not time stages");
    }
}
