//! The rank half of the request path: one item-pool partition and the only
//! code that ranks against it.
//!
//! A [`RankShard`] owns a retrieval [`Backend`] over its slice of the item
//! pool, the matching partition of the per-query postings, the partition of
//! the neighbor cache whose nodes hash to it
//! ([`zoomer_graph::shard_of_node`]), and an EWMA of its own probe cost. The
//! [`OnlineServer`](crate::server::OnlineServer) hands it an already-embedded
//! batch and a [`BrownoutRung`] — shard 0 on the calling thread, the others
//! on their worker threads — and it answers with scored rows plus the rung
//! it *realized*. Nothing else in the crate probes a backend, walks the
//! brownout ladder, or builds fallback rows; nothing here touches the
//! graph, the frozen towers, or a request/degraded counter (those belong to
//! the server, so they move once per batch at any shard count).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use zoomer_graph::Query;
use zoomer_obs::{Counter, Histogram, MetricsRegistry, StageTimer};
use zoomer_tensor::Matrix;

use crate::backend::{Backend, SearchBackend};
use crate::brownout::BrownoutRung;
use crate::cache::NeighborCache;
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::fault::{self, FaultInjector, FaultSite};
use crate::inverted::InvertedIndex;
use crate::server::{ScoredRetrieval, ServingConfig};

/// One shard's answer for a batch: a scored row per query, and the rung the
/// shard actually served at — what the server counts under
/// `serve.degraded.*` (worst rung across shards, once).
pub(crate) struct Ranked {
    pub(crate) rows: Vec<ScoredRetrieval>,
    pub(crate) realized: BrownoutRung,
}

/// One item-pool partition: backend, postings, cache partition, probe-cost
/// EWMA. See the module docs for what it does and does not own.
pub struct RankShard {
    /// The retrieval backend (enum-dispatched: no dynamic call in the hot
    /// probe loop), selected by [`ServingConfig::backend`].
    backend: Backend,
    /// This partition's query → ranked-items postings (§VII-E's iGraph
    /// layer); the fallback rung's only data source.
    inverted: InvertedIndex,
    cache: NeighborCache,
    config: ServingConfig,
    /// EWMA of the probe's cost in ns, measured only when a deadline is
    /// bounded; feeds the next batch's rung selection. Lives outside the
    /// registry so the ladder works with observability disabled.
    ann_ewma_ns: AtomicU64,
    stage_ann: Histogram,
    stage_rank: Histogram,
    /// `serve.shard.{i}.*`: replies, errored replies, and rank wall time.
    batches: Counter,
    errors: Counter,
    rank_ns: Histogram,
    /// Deterministic fault injector (tests/harnesses only); `None` in
    /// production.
    fault: Option<Arc<FaultInjector>>,
}

impl RankShard {
    /// Wrap built partition `idx`. `cache_capacity` is this shard's share of
    /// [`ServingConfig::cache_capacity`]; the backend's own probe-volume
    /// counters are attached by the caller once offline ranking is done.
    pub(crate) fn new(
        idx: usize,
        backend: Backend,
        inverted: InvertedIndex,
        config: ServingConfig,
        cache_capacity: usize,
        registry: &MetricsRegistry,
        fault: Option<Arc<FaultInjector>>,
    ) -> Self {
        Self {
            backend,
            inverted,
            cache: NeighborCache::with_capacity(config.cache_k, cache_capacity),
            config,
            ann_ewma_ns: AtomicU64::new(0),
            stage_ann: registry.histogram("serve.stage.ann_probe_ns"),
            stage_rank: registry.histogram("serve.stage.rank_ns"),
            batches: registry.counter(&format!("serve.shard.{idx}.batches")),
            errors: registry.counter(&format!("serve.shard.{idx}.errors")),
            rank_ns: registry.histogram(&format!("serve.shard.{idx}.rank_ns")),
            fault,
        }
    }

    /// The retrieval backend this shard probes (use [`Backend::as_ivf`] /
    /// [`Backend::as_quantized`] to reach backend-specific knobs).
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// The neighbor-cache partition holding the nodes that hash to this
    /// shard.
    pub fn cache(&self) -> &NeighborCache {
        &self.cache
    }

    /// EWMA of recent probe cost in ns (0 until a bounded-deadline batch
    /// has run). The server selects a batch's rung from the *worst* shard's
    /// value, so a merge never mixes qualities.
    pub fn probe_cost_ewma_ns(&self) -> u64 {
        self.ann_ewma_ns.load(Ordering::Relaxed)
    }

    /// One shard reply: [`Self::rank`], then the `ShardReply` fault site,
    /// both under `catch_unwind` — an injected panic becomes an errored
    /// reply, never a dead worker or a panicking caller — counted under
    /// `serve.shard.{i}.*`. Shard 0 runs it on the calling thread, the
    /// others on their workers; the reply is the same either way.
    pub(crate) fn reply(
        &self,
        uq: &Matrix,
        queries: &[Query],
        deadline: &Deadline,
        rung: BrownoutRung,
        forced: bool,
    ) -> Result<Ranked, ServingError> {
        self.batches.inc();
        let t = StageTimer::start(&self.rank_ns);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let ranked = self.rank(uq, queries, deadline, rung, forced);
            fault::fire(&self.fault, FaultSite::ShardReply);
            ranked
        }))
        .unwrap_or(Err(ServingError::WorkerPanicked("shard rank stage panicked")));
        t.stop();
        if result.is_err() {
            self.errors.inc();
        }
        result
    }

    /// Probe + rank an already-embedded batch at `rung`.
    ///
    /// Organic execution (`forced == false`) stays *adaptive*: a
    /// `CapBudget` batch runs the self-measuring round-major probe and only
    /// degrades if the budget actually runs out, so a prescribed rung never
    /// makes a batch worse than its deadline demands. A `forced` rung (the
    /// `handle_batch_scored_forced` harness) probes the backend's floor
    /// width instead, so the rung means the same thing on every run, and
    /// measures nothing: a bench sweep must not teach the shard that probes
    /// are cheap or dear.
    fn rank(
        &self,
        uq: &Matrix,
        queries: &[Query],
        deadline: &Deadline,
        rung: BrownoutRung,
        forced: bool,
    ) -> Result<Ranked, ServingError> {
        // The fault fires before the expiry check so an injected ANN-stage
        // spike deterministically exercises the fallback path.
        fault::fire(&self.fault, FaultSite::AnnProbe);
        if rung == BrownoutRung::Fallback || deadline.expired() {
            return Ok(self.fallback(queries));
        }
        // The backend probe runs once per batch at the widest k any query in
        // the batch asked for; narrower queries truncate their own row. With
        // every query at the default this is exactly the old single-k probe.
        // Shrinking rungs shrink at truncate time, not probe time: a top-k
        // probe's first k/2 entries are exactly the top-k/2 probe, so the
        // single wide probe serves every rung.
        let batch_k = queries.iter().map(|q| self.config.effective_top_k(q)).max().unwrap_or(0);
        let t = StageTimer::start(&self.stage_ann);
        let (found, capped) = match (rung, forced) {
            (BrownoutRung::CapBudget, false) => {
                // Round-major with a between-rounds expiry check: a capped
                // probe equals a plain probe at the backend's smaller budget
                // (`nprobe` for the IVF backends), trading recall for
                // latency.
                let bounded = self.timed(true, || {
                    self.backend.search_batch_deadline(uq, batch_k, deadline, &mut |_| {
                        fault::fire(&self.fault, FaultSite::AnnRound)
                    })
                })?;
                let capped = bounded.capped();
                (bounded.results, capped)
            }
            (BrownoutRung::CapBudget, true) => {
                let floor = self.backend.search_batch_floor(uq, batch_k)?;
                let capped = floor.capped();
                (floor.results, capped)
            }
            _ => {
                let watched = !forced && deadline.is_bounded();
                (self.timed(watched, || self.backend.search_batch(uq, batch_k))?, false)
            }
        };
        t.stop();

        // The rung this batch *realized*: an adaptive `CapBudget` probe that
        // never hit its budget is a full-width probe — the batch served at
        // `Full` (this is what keeps a generous deadline byte-identical to
        // no deadline).
        let realized = if rung == BrownoutRung::CapBudget && !capped && !forced {
            BrownoutRung::Full
        } else {
            rung
        };

        let t = StageTimer::start(&self.stage_rank);
        let mut rows = Vec::with_capacity(found.len());
        // Only a Full-rung batch widens: the exact scan exists to fill
        // under-full result lists and costs O(pool), exactly the work every
        // degraded rung exists to avoid.
        let widen = realized.widens() && !deadline.expired();
        for (i, (mut f, q)) in found.into_iter().zip(queries).enumerate() {
            let k = realized.shrunk_k(self.config.effective_top_k(q));
            f.truncate(k);
            if widen && f.len() < k && f.len() < self.backend.len() {
                // Under-filled probe set (small pool or skewed clusters):
                // widen to an exact scan rather than return a short list.
                f = self.backend.exact_search(uq.row(i), k)?;
            }
            rows.push(ScoredRetrieval { items: f, degraded: realized != BrownoutRung::Full });
        }
        t.stop();
        Ok(Ranked { rows, realized })
    }

    /// Run one probe, folding its wall time into the cost EWMA
    /// (`new = (3·old + obs)/4`) when `watched` — i.e. when a bounded
    /// deadline will select the next batch's rung from it. An unwatched
    /// probe reads no clock.
    fn timed<T>(
        &self,
        watched: bool,
        probe: impl FnOnce() -> Result<T, ServingError>,
    ) -> Result<T, ServingError> {
        if !watched {
            return probe();
        }
        let ewma = self.ann_ewma_ns.load(Ordering::Relaxed);
        let t0 = Instant::now();
        let found = probe()?;
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.ann_ewma_ns.store(if ewma == 0 { ns } else { (3 * ewma + ns) / 4 }, Ordering::Relaxed);
        Ok(found)
    }

    /// Budget-spent fallback: answer every request from this partition's
    /// postings alone (no embedding or probe work), truncated to the
    /// request's top-k. Requests with no posting get an empty list — a
    /// degraded answer within the deadline beats a complete answer after it.
    ///
    /// Fallback answers carry synthetic descending rank scores (`-rank`):
    /// the posting list is an ordering, not a scoring, and a merge across
    /// shards only needs scores that preserve that order.
    pub(crate) fn fallback(&self, queries: &[Query]) -> Ranked {
        let rows = queries
            .iter()
            .map(|r| {
                let items = self
                    .inverted
                    .posting(r.query)
                    .map(|p| {
                        p.iter()
                            .take(self.config.effective_top_k(r))
                            .enumerate()
                            .map(|(rank, &id)| (id as u64, -(rank as f32)))
                            .collect()
                    })
                    .unwrap_or_default();
                ScoredRetrieval { items, degraded: true }
            })
            .collect();
        Ranked { rows, realized: BrownoutRung::Fallback }
    }
}
