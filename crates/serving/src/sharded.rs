//! Scatter-gather serving across item-pool shards (§VI's deployment
//! topology, in-process).
//!
//! A [`ShardedServer`] partitions the *item pool* — and with it the
//! retrieval backend, the per-query posting index, and the neighbor cache —
//! across `N` [`RankShard`]s using the exact node-id arithmetic of
//! [`zoomer_graph::shard_of_node`], so graph storage and retrieval agree on
//! ownership. Each shard is drained by `replicas_per_shard` worker threads
//! behind a bounded job channel. Those workers are the tier's serving
//! parallelism: a worker ranks the whole batch it received on its own
//! thread, and nothing under `handle_batch` spawns a thread.
//!
//! The router is the same front half an [`OnlineServer`] runs (validate →
//! admit → count → partitioned cache resolve → one stacked embed through
//! the shared frozen towers), followed by a scatter instead of an inline
//! call: every shard ranks the router's embeddings against its partition
//! ([`RankShard`]'s `rank`). Replies carry scores and the rung the shard
//! realized, so the router can merge per-shard top-k lists honestly through
//! the same `topk::top_k_desc` every backend ranks with, and count the
//! batch's degradation once. At `N = 1` the merge input is a single
//! already-sorted list and the whole path is bit-identical to
//! [`OnlineServer::handle_batch`] — pinned by the `sharded_equivalence`
//! proptest suite.
//!
//! Failure model: a shard reply that errors (injected panic, backend
//! fault) or misses the gather window (delay past the deadline grace)
//! is counted in `serve.shard.replies_lost`; the router merges the shards
//! that did answer and marks every affected query degraded. Only a batch
//! with *no* surviving shard replies errors.
//!
//! [`OnlineServer`]: crate::server::OnlineServer
//! [`OnlineServer::handle_batch`]: crate::server::OnlineServer::handle_batch

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Sender};
use zoomer_graph::{HeteroGraph, NodeId, Query, Retrieval};
use zoomer_obs::{CacheStats, Counter, Histogram, MetricsRegistry, Snapshot, StageTimer};
use zoomer_tensor::Matrix;

use crate::brownout::BrownoutRung;
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::fault::FaultSite;
use crate::load::QueryService;
use crate::router::merge_query;
use crate::server::{
    cache_stats, into_retrievals, FrontHalf, ScoredRetrieval, ServerBuilder, ServingConfig,
};
use crate::shard::{RankShard, Ranked};

/// Extra time the router waits past a bounded deadline for stragglers: the
/// shards themselves degrade when the budget expires, so a reply is usually
/// already on the wire — the grace only bounds true loss.
const GATHER_GRACE: Duration = Duration::from_millis(100);

/// Gather bound for unbounded-deadline batches; far beyond any healthy
/// shard's latency, it exists so a wedged worker cannot hang the router.
const DEFAULT_GATHER_TIMEOUT: Duration = Duration::from_secs(10);

/// One shard's answer: its index plus what it ranked (or the error that
/// replaced it).
type ShardReply = (usize, Result<Ranked, ServingError>);

/// A scattered unit of work: shared embeddings + queries, the batch
/// deadline, the router-chosen brownout rung (every shard serves the batch
/// at the same rung, so the merge never mixes qualities), and the per-batch
/// reply channel.
struct ShardJob {
    uq: Arc<Matrix>,
    queries: Arc<Vec<Query>>,
    deadline: Deadline,
    rung: BrownoutRung,
    reply: mpsc::Sender<ShardReply>,
}

/// The scatter-gather serving tier: N item-pool shards behind one router.
///
/// Build with [`ShardedServer::build`] from the same [`ServerBuilder`] a
/// single-shard server uses — the shard count comes from
/// [`ServingConfig::sharding`].
pub struct ShardedServer {
    front: FrontHalf,
    shards: Vec<Arc<RankShard>>,
    job_txs: Vec<Sender<ShardJob>>,
    workers: Vec<JoinHandle<()>>,
    /// Shard replies that errored or missed the gather window.
    replies_lost: Counter,
    /// Scatter + wait for shard replies, wall time per batch.
    gather_ns: Histogram,
    /// Per-shard top-k merge, wall time per batch.
    merge_ns: Histogram,
}

impl ShardedServer {
    /// Stand the sharded tier up: the shared build path
    /// (`ServerBuilder::assemble`) with [`ServingConfig::sharding`]'s shard
    /// count, then `replicas_per_shard` workers per shard.
    pub fn build(builder: ServerBuilder) -> Result<ShardedServer, ServingError> {
        let sharding = builder.config.sharding;
        let (front, shards) = builder.assemble(sharding.num_shards)?;
        let registry = front.metrics_registry();
        // Per-shard worker pools behind bounded job queues: a slow shard
        // back-pressures its router callers instead of buffering unboundedly.
        let mut job_txs = Vec::with_capacity(shards.len());
        let mut workers = Vec::with_capacity(shards.len() * sharding.replicas_per_shard);
        for (idx, shard) in shards.iter().enumerate() {
            let (tx, rx) = channel::bounded::<ShardJob>(sharding.replicas_per_shard * 2);
            job_txs.push(tx);
            let batches = registry.counter(&format!("serve.shard.{idx}.batches"));
            let errors = registry.counter(&format!("serve.shard.{idx}.errors"));
            let rank_ns = registry.histogram(&format!("serve.shard.{idx}.rank_ns"));
            for _ in 0..sharding.replicas_per_shard {
                workers.push(spawn_worker(
                    idx,
                    Arc::clone(shard),
                    rx.clone(),
                    batches.clone(),
                    errors.clone(),
                    rank_ns.clone(),
                ));
            }
        }
        Ok(ShardedServer {
            replies_lost: registry.counter("serve.shard.replies_lost"),
            gather_ns: registry.histogram("serve.router.gather_ns"),
            merge_ns: registry.histogram("serve.router.merge_ns"),
            front,
            shards,
            job_txs,
            workers,
        })
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The rank shards (tests and benches inspect their partitions).
    pub fn shards(&self) -> &[Arc<RankShard>] {
        &self.shards
    }

    pub fn config(&self) -> ServingConfig {
        self.front.config()
    }

    pub fn graph(&self) -> &HeteroGraph {
        self.front.graph()
    }

    /// The shared observability registry (router + every shard).
    pub fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        self.front.metrics_registry()
    }

    /// Snapshot with the shard caches' aggregated counters ingested.
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.front.metrics_snapshot(&self.shards)
    }

    /// Neighbor-cache counters summed across every shard's partition.
    pub fn aggregated_cache_stats(&self) -> CacheStats {
        cache_stats(&self.shards)
    }

    /// Pre-fill every shard's neighbor cache partition for `nodes` (each
    /// node lands only in its owning shard's cache).
    pub fn warm_cache(&self, nodes: &[NodeId]) -> Result<(), ServingError> {
        self.front.warm_cache(&self.shards, nodes)
    }

    /// Scatter-gather batch serve; semantics of
    /// [`OnlineServer::handle_batch`](crate::server::OnlineServer::handle_batch)
    /// over the sharded tier.
    pub fn handle_batch(&self, queries: &[Query]) -> Result<Vec<Retrieval>, ServingError> {
        self.handle_batch_with_deadline(queries, Deadline::from_config(self.config().deadline))
    }

    /// [`Self::handle_batch`] under an explicit, possibly already-running
    /// deadline (e.g. one decoded from a wire-request header).
    pub fn handle_batch_with_deadline(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Result<Vec<Retrieval>, ServingError> {
        self.handle_batch_scored(queries, deadline).map(into_retrievals)
    }

    /// The scored scatter-gather path: front half once at the router, rank
    /// half on every shard, replies merged by score.
    pub fn handle_batch_scored(
        &self,
        queries: &[Query],
        deadline: Deadline,
    ) -> Result<Vec<ScoredRetrieval>, ServingError> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let replies = match self.front.prepare(&self.shards, queries, &deadline)? {
            Some(uq) => self.scatter_gather(uq, queries, deadline)?,
            // Budget spent before the embed: every shard's posting partition
            // answers inline — nothing left worth a channel hop.
            None => self.shards.iter().map(|s| Some(s.fallback(queries))).collect(),
        };

        // Merge: per query, concatenate the replying shards' scored lists
        // and reduce through the shared top-k (a total order, so ties across
        // shards break by id, as in one shard). A lost shard marks the whole
        // batch degraded — its candidates are missing from the merge.
        let t_merge = StageTimer::start(&self.merge_ns);
        let lost = replies.iter().any(Option::is_none);
        let answered: Vec<Ranked> = replies.into_iter().flatten().collect();
        let worst = answered.iter().map(|r| r.realized).max().unwrap_or(BrownoutRung::Full);
        self.front.count_degraded(worst, queries.len());
        let mut row_iters: Vec<std::vec::IntoIter<ScoredRetrieval>> =
            answered.into_iter().map(|r| r.rows.into_iter()).collect();
        let config = self.config();
        let out = queries
            .iter()
            .map(|q| {
                let rows = row_iters.iter_mut().filter_map(Iterator::next).collect();
                merge_query(rows, config.effective_top_k(q), lost)
            })
            .collect();
        t_merge.stop();
        Ok(out)
    }

    /// Scatter the embedded batch to every shard's workers and gather one
    /// reply slot per shard (`None` = lost). Errors only when no shard
    /// answered.
    fn scatter_gather(
        &self,
        uq: Matrix,
        queries: &[Query],
        deadline: Deadline,
    ) -> Result<Vec<Option<Ranked>>, ServingError> {
        // The batch's brownout rung, driven by the *worst* shard's probe
        // cost: a merge of mixed-rung shard answers would let a fast shard's
        // full-quality scores drown out a slow shard's shrunken list, so the
        // router imposes one rung on everyone. Deadline::none() reads every
        // EWMA as irrelevant and selects Full — the pre-ladder path.
        let worst_ewma =
            self.shards.iter().map(|s| s.probe_cost_ewma_ns()).max().unwrap_or_default();
        let rung = BrownoutRung::select(&deadline, worst_ewma);

        let t_gather = StageTimer::start(&self.gather_ns);
        let uq = Arc::new(uq);
        let shared_queries = Arc::new(queries.to_vec());
        let (tx, rx) = mpsc::channel::<ShardReply>();
        let mut dispatched = 0usize;
        for job_tx in &self.job_txs {
            let job = ShardJob {
                uq: Arc::clone(&uq),
                queries: Arc::clone(&shared_queries),
                deadline,
                rung,
                reply: tx.clone(),
            };
            if job_tx.send(job).is_ok() {
                dispatched += 1;
            }
        }
        drop(tx);

        // Gather under the batch's remaining budget plus a straggler grace
        // (shards degrade internally on expiry, so a reply is normally
        // already in flight — the grace bounds true loss, not tail work).
        let budget = match deadline.remaining() {
            Some(left) => left + GATHER_GRACE,
            None => DEFAULT_GATHER_TIMEOUT,
        };
        let gather_start = Instant::now();
        let mut per_shard: Vec<Option<Ranked>> = Vec::new();
        per_shard.resize_with(self.shards.len(), || None);
        let mut last_err = None;
        let mut received = 0usize;
        while received < dispatched {
            let waited = gather_start.elapsed();
            let Some(left) = budget.checked_sub(waited) else { break };
            match rx.recv_timeout(left) {
                Ok((idx, Ok(ranked))) => {
                    if let Some(slot) = per_shard.get_mut(idx) {
                        *slot = Some(ranked);
                    }
                    received += 1;
                }
                Ok((_, Err(e))) => {
                    last_err = Some(e);
                    received += 1;
                }
                Err(_) => break,
            }
        }
        t_gather.stop();
        let answered = per_shard.iter().filter(|s| s.is_some()).count();
        let lost = self.shards.len() - answered;
        if lost > 0 {
            self.replies_lost.add(lost as u64);
        }
        if answered == 0 {
            return Err(last_err.unwrap_or(ServingError::Internal("every shard reply was lost")));
        }
        Ok(per_shard)
    }
}

impl Drop for ShardedServer {
    fn drop(&mut self) {
        // Dropping the job senders disconnects every worker's receiver;
        // workers drain in-flight jobs and exit.
        self.job_txs.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

impl QueryService for ShardedServer {
    fn serve_batch(&self, queries: &[Query]) -> Result<Vec<Retrieval>, ServingError> {
        self.handle_batch(queries)
    }

    fn metrics_registry(&self) -> &Arc<MetricsRegistry> {
        ShardedServer::metrics_registry(self)
    }

    fn metrics_snapshot(&self) -> Snapshot {
        ShardedServer::metrics_snapshot(self)
    }

    fn cache_stats(&self) -> CacheStats {
        self.aggregated_cache_stats()
    }
}

/// One shard worker: drain jobs, run the shard's rank half under
/// `catch_unwind` (an injected panic becomes a `WorkerPanicked` reply, not
/// a dead worker), pass the `ShardReply` fault site, send the reply. A
/// reply the router has stopped waiting for is dropped silently.
fn spawn_worker(
    shard_idx: usize,
    shard: Arc<RankShard>,
    rx: channel::Receiver<ShardJob>,
    batches: Counter,
    errors: Counter,
    rank_ns: Histogram,
) -> JoinHandle<()> {
    std::thread::spawn(move || {
        while let Ok(job) = rx.recv() {
            batches.inc();
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                let ranked = shard.rank(&job.uq, &job.queries, &job.deadline, job.rung, false);
                // Fired inside the unwind guard: an injected panic here is
                // reported as an errored reply, never a lost worker thread.
                shard.fire_fault(FaultSite::ShardReply);
                ranked
            }))
            .unwrap_or(Err(ServingError::WorkerPanicked("shard rank stage panicked")));
            rank_ns.record(started.elapsed().as_nanos() as u64);
            if result.is_err() {
                errors.inc();
            }
            let _ = job.reply.send((shard_idx, result));
        }
    })
}
