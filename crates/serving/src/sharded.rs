//! The rank half's fan-out across item-pool shards (§VI's deployment
//! topology, in-process).
//!
//! An [`OnlineServer`] partitions the *item pool* — and with it the
//! retrieval backend, the per-query postings, and the neighbor cache —
//! across N [`RankShard`]s using the exact node-id arithmetic of
//! [`zoomer_graph::shard_of_node`], so graph storage and retrieval agree on
//! ownership. Shard 0 ranks on the thread that called `handle_batch`; each
//! of shards 1..N is drained by `replicas_per_shard` worker threads behind
//! a bounded job channel. A job that no worker has started by the time the
//! caller has ranked shard 0 is ranked by the caller too, so under load N
//! calling threads are never throttled by one worker per shard. Those
//! workers and the callers' own threads are the serving parallelism:
//! nothing under `handle_batch` spawns a thread, and at N = 1 there is no
//! worker, no channel and no hand-off at all.
//!
//! Every shard ranks the same embeddings at the same rung and answers
//! through the same [`RankShard::reply`], inline or on a worker. Replies
//! carry scores and the rung the shard realized, so the server can merge
//! per-shard top-k lists honestly (`router::merge_query`) and count the
//! batch's degradation once.
//!
//! Failure model: a shard reply that errors (injected panic, backend
//! fault) or misses the gather window (the batch's remaining budget when
//! the jobs go out, plus a grace) is counted in `serve.shard.replies_lost`
//! — an inline reply is held to the same window. The server merges
//! the shards that did answer and marks every query of the batch degraded.
//! Only a batch with *no* surviving shard reply errors.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel::{self, Sender};
use zoomer_graph::Query;
use zoomer_obs::{Counter, Histogram, MetricsRegistry, StageTimer};
use zoomer_tensor::Matrix;

use crate::brownout::BrownoutRung;
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::server::{OnlineServer, ServerBuilder};
use crate::shard::{RankShard, Ranked};

/// The name the benchmark package links the server by. It exists for
/// `bench/` alone; a benchmark-maintenance change moves `bench/` to
/// [`OnlineServer`] and removes it.
pub type ShardedServer = OnlineServer;

impl OnlineServer {
    /// [`ServerBuilder::build`] under the name the benchmark package calls.
    /// It exists for `bench/` alone; a benchmark-maintenance change moves
    /// `bench/` to `builder.build()` and removes it.
    pub fn build(builder: ServerBuilder) -> Result<OnlineServer, ServingError> {
        builder.build()
    }
}

/// Extra time the server waits past a bounded deadline for stragglers: the
/// shards themselves degrade when the budget expires, so a reply is usually
/// already on the wire — the grace only bounds true loss.
const GATHER_GRACE: Duration = Duration::from_millis(100);

/// Gather bound for unbounded-deadline batches; far beyond any healthy
/// shard's latency, it exists so a wedged worker cannot hang the server.
const DEFAULT_GATHER_TIMEOUT: Duration = Duration::from_secs(10);

/// One shard's answer: its index plus what it ranked (or the error that
/// replaced it).
type ShardReply = (usize, Result<Ranked, ServingError>);

/// A unit of work for a worker: shared embeddings + queries, the batch
/// deadline, the batch's brownout rung (every shard serves the batch at the
/// same rung, so the merge never mixes qualities), and the per-batch reply
/// channel.
struct ShardJob {
    uq: Arc<Matrix>,
    queries: Arc<Vec<Query>>,
    deadline: Deadline,
    rung: BrownoutRung,
    /// The rung was prescribed (`handle_batch_scored_forced`), not selected.
    forced: bool,
    /// Set by whichever of a worker and the batch's caller starts the job
    /// first; the other skips it.
    started: Arc<AtomicBool>,
    reply: mpsc::Sender<ShardReply>,
}

/// One batch's jobs for shards 1..N: the reply channel, and each sent job's
/// shard index and start flag.
type Scatter = (mpsc::Receiver<ShardReply>, Vec<(usize, Arc<AtomicBool>)>);

/// A server's N rank shards, the worker pools of shards 1..N, and the
/// gather accounting. Dropping it closes the job queues and joins every
/// worker.
pub(crate) struct ShardSet {
    shards: Vec<Arc<RankShard>>,
    /// Job queues of shards 1..N, in shard order.
    job_txs: Vec<Sender<ShardJob>>,
    workers: Vec<JoinHandle<()>>,
    /// Shard replies that errored or missed the gather window.
    replies_lost: Counter,
    /// Scatter + shard 0's inline rank + wait for the other replies, wall
    /// time per batch.
    gather_ns: Histogram,
}

impl ShardSet {
    /// Start `replicas` workers for each shard after shard 0, behind
    /// bounded job queues: a slow shard back-pressures its callers instead
    /// of buffering unboundedly.
    pub(crate) fn start(
        shards: Vec<Arc<RankShard>>,
        replicas: usize,
        registry: &MetricsRegistry,
    ) -> Self {
        let mut job_txs = Vec::with_capacity(shards.len().saturating_sub(1));
        let mut workers = Vec::with_capacity(job_txs.capacity() * replicas);
        for (idx, shard) in shards.iter().enumerate().skip(1) {
            let (tx, rx) = channel::bounded::<ShardJob>(replicas * 2);
            job_txs.push(tx);
            for _ in 0..replicas {
                let (shard, rx) = (Arc::clone(shard), rx.clone());
                workers.push(std::thread::spawn(move || {
                    while let Ok(job) = rx.recv() {
                        if job.started.swap(true, Ordering::Relaxed) {
                            continue; // the batch's caller ranked it
                        }
                        let result =
                            shard.reply(&job.uq, &job.queries, &job.deadline, job.rung, job.forced);
                        // A reply the server has stopped waiting for is
                        // dropped silently.
                        let _ = job.reply.send((idx, result));
                    }
                }));
            }
        }
        Self {
            shards,
            job_txs,
            workers,
            replies_lost: registry.counter("serve.shard.replies_lost"),
            gather_ns: registry.histogram("serve.router.gather_ns"),
        }
    }

    pub(crate) fn all(&self) -> &[Arc<RankShard>] {
        &self.shards
    }

    /// Rank the embedded batch on every shard and gather one reply slot per
    /// shard (`None` = lost): jobs out to shards 1..N first, then shard 0 on
    /// this thread while they run, then the other replies. Errors only when
    /// no shard answered.
    pub(crate) fn rank(
        &self,
        uq: Matrix,
        queries: &[Query],
        deadline: Deadline,
        forced: Option<BrownoutRung>,
    ) -> Result<Vec<Option<Ranked>>, ServingError> {
        // The batch's brownout rung, driven by the *worst* shard's probe
        // cost: a merge of mixed-rung shard answers would let a fast shard's
        // full-quality scores drown out a slow shard's shrunken list, so one
        // rung is imposed on everyone. Deadline::none() reads every EWMA as
        // irrelevant and selects Full — the pre-ladder path.
        let rung = forced.unwrap_or_else(|| {
            let worst = self.shards.iter().map(|s| s.probe_cost_ewma_ns()).max();
            BrownoutRung::select(&deadline, worst.unwrap_or_default())
        });
        let forced = forced.is_some();

        let t_gather = StageTimer::start(&self.gather_ns);
        // Every reply, shard 0's included, must land within the batch's
        // remaining budget plus a straggler grace (shards degrade internally
        // on expiry, so the grace bounds true loss, not tail work).
        let budget = match deadline.remaining() {
            Some(left) => left + GATHER_GRACE,
            None => DEFAULT_GATHER_TIMEOUT,
        };
        let gather_start = Instant::now();
        let uq = Arc::new(uq);
        let pending = self.scatter(&uq, queries, deadline, rung, forced);

        // Shard 0 ranks on this thread, and so does every job no worker has
        // started by then: under load the calling threads take over what
        // the workers cannot reach, so one worker per shard never throttles
        // N callers. An inline reply past the gather window is lost like a
        // late worker reply, so where a shard ranked never decides whether
        // its answer counts.
        let rank_here = |idx: usize| {
            let result = self.shards.get(idx)?.reply(&uq, queries, &deadline, rung, forced);
            (gather_start.elapsed() <= budget || result.is_err()).then_some((idx, result))
        };
        let mut replies: Vec<ShardReply> = rank_here(0).into_iter().collect();
        let mut awaited = 0;
        for (idx, started) in pending.iter().flat_map(|(_, sent)| sent) {
            if started.swap(true, Ordering::Relaxed) {
                awaited += 1;
            } else {
                replies.extend(rank_here(*idx));
            }
        }
        if let Some((rx, _)) = pending {
            for _ in 0..awaited {
                // Past the budget, replies already in the channel still
                // count: an inline rank that overran it must not turn the
                // workers' timely replies into losses.
                let reply = match budget.checked_sub(gather_start.elapsed()) {
                    Some(left) => rx.recv_timeout(left).or_else(|_| rx.try_recv()),
                    None => rx.try_recv(),
                };
                let Ok(reply) = reply else { break };
                replies.push(reply);
            }
        }
        t_gather.stop();

        let mut per_shard: Vec<Option<Ranked>> = self.shards.iter().map(|_| None).collect();
        let mut last_err = None;
        for (idx, result) in replies {
            match result {
                Ok(ranked) => per_shard[idx] = Some(ranked),
                Err(e) => last_err = Some(e),
            }
        }
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

    /// Send the batch to the workers of shards 1..N, or nothing at N = 1 —
    /// no channel, no copy of the queries.
    fn scatter(
        &self,
        uq: &Arc<Matrix>,
        queries: &[Query],
        deadline: Deadline,
        rung: BrownoutRung,
        forced: bool,
    ) -> Option<Scatter> {
        if self.job_txs.is_empty() {
            return None;
        }
        let queries = Arc::new(queries.to_vec());
        let (tx, rx) = mpsc::channel::<ShardReply>();
        let mut sent = Vec::with_capacity(self.job_txs.len());
        for (idx, job_tx) in (1..).zip(&self.job_txs) {
            let started = Arc::new(AtomicBool::new(false));
            let job = ShardJob {
                uq: Arc::clone(uq),
                queries: Arc::clone(&queries),
                deadline,
                rung,
                forced,
                started: Arc::clone(&started),
                reply: tx.clone(),
            };
            if job_tx.send(job).is_ok() {
                sent.push((idx, started));
            }
        }
        Some((rx, sent))
    }
}

impl Drop for ShardSet {
    fn drop(&mut self) {
        // Dropping the job senders disconnects every worker's receiver;
        // workers drain in-flight jobs and exit.
        self.job_txs.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}
