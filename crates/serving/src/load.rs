//! Load harness for the serving stack (Fig 9).
//!
//! One entry point, [`run_load`], driven by a [`LoadTestSpec`]:
//!
//! * **Open loop** ([`Arrival::Open`]): requests arrive on a fixed schedule
//!   at `qps`, so queueing delay shows up in the measured response time
//!   exactly as it would for real traffic; a fixed pool of server threads
//!   drains the queue, each coalescing up to `batch_size` queued requests
//!   into one `handle_batch` call (the arrival-coalescing a production
//!   front-end performs under load). Reported latency is end-to-end:
//!   enqueue → batch completion, so coalescing that delays an early arrival
//!   is charged against it. `batch_size == 1` is the classic per-request
//!   open-loop test.
//! * **Closed loop** ([`Arrival::Closed`]): every thread issues its next
//!   batch as soon as the previous one returns, measuring peak sustainable
//!   throughput at a given batch size (the Fig 9 batched series).
//!
//! Every thread drives the one [`OnlineServer`] it is handed by reference,
//! so its shards' worker pools are never multiplied per load thread; shard
//! 0 ranks on whichever harness thread issued the batch.
//!
//! Every run returns a [`LoadReport`]: end-to-end latency percentiles plus
//! the per-stage (cache resolve / embed / ANN probe / rank) percentile
//! breakdown and cache hit accounting, extracted from the server's metrics
//! registry by diffing snapshots around the run — the report covers exactly
//! the work this run performed, even on a shared registry. Stage breakdowns
//! need a registry that is enabled ([`zoomer_obs::MetricsRegistry::enabled`],
//! attached via `ServerBuilder::metrics`); with the default disabled
//! registry `stages` is present but empty of samples.
//!
//! Accounting is strict: [`LoadReport::completed`] and the latency
//! percentiles cover only requests whose batch **succeeded**. Requests in
//! errored or panicked batches land in [`LoadReport::errors`]; requests the
//! admission queue refused land in [`LoadReport::shed`]; always
//! `completed + errors + shed == offered`. Open-loop runs bound the
//! admission queue with [`LoadTestSpec::queue_capacity`] and pick what
//! overload sheds via [`ShedPolicy`] — the default (no bound) reproduces the
//! pre-shedding harness exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, TrySendError};
use zoomer_graph::Query;
use zoomer_obs::CacheStats;

use crate::error::ServingError;
use crate::server::OnlineServer;

/// How requests are offered to the server.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Arrival {
    /// Open loop: a fixed arrival schedule at this rate (requests/sec).
    Open { qps: f64 },
    /// Closed loop: back-to-back batches, no think time.
    Closed,
}

/// What an open-loop run sheds when its admission queue is full.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ShedPolicy {
    /// Refuse the arriving request (classic admission control: newest work
    /// is the cheapest to abandon — nothing has been invested in it yet).
    #[default]
    RejectNew,
    /// Evict the oldest queued request to admit the new one (freshest-first:
    /// the oldest entry is the most likely to miss its deadline anyway).
    DropOldest,
}

/// Configuration for one [`run_load`] run. Construct with
/// [`LoadTestSpec::open`] or [`LoadTestSpec::closed`] and chain the setters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LoadTestSpec {
    pub arrival: Arrival,
    /// Server worker threads draining the load.
    pub num_threads: usize,
    /// Requests coalesced into one `handle_batch` call.
    pub batch_size: usize,
    /// Admission-queue bound for open-loop runs. `None` (the default) sizes
    /// the queue to the whole request set — nothing is ever shed, exactly
    /// the pre-shedding harness. Closed-loop runs have no queue and ignore
    /// this.
    pub queue_capacity: Option<usize>,
    /// What to shed when the bounded queue is full.
    pub shed: ShedPolicy,
}

impl LoadTestSpec {
    /// Open-loop spec at `qps`, one thread, per-request batches.
    pub fn open(qps: f64) -> Self {
        Self {
            arrival: Arrival::Open { qps },
            num_threads: 1,
            batch_size: 1,
            queue_capacity: None,
            shed: ShedPolicy::RejectNew,
        }
    }

    /// Closed-loop spec, one thread, per-request batches.
    pub fn closed() -> Self {
        Self {
            arrival: Arrival::Closed,
            num_threads: 1,
            batch_size: 1,
            queue_capacity: None,
            shed: ShedPolicy::RejectNew,
        }
    }

    pub fn num_threads(mut self, num_threads: usize) -> Self {
        self.num_threads = num_threads;
        self
    }

    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size;
        self
    }

    /// Bound the open-loop admission queue to `cap` in-flight requests.
    pub fn queue_capacity(mut self, cap: usize) -> Self {
        self.queue_capacity = Some(cap);
        self
    }

    pub fn shed(mut self, shed: ShedPolicy) -> Self {
        self.shed = shed;
        self
    }

    fn validate(&self, requests: &[Query]) -> Result<(), ServingError> {
        if let Arrival::Open { qps } = self.arrival {
            if !qps.is_finite() || qps <= 0.0 {
                return Err(ServingError::InvalidConfig("qps must be positive and finite"));
            }
        }
        if self.num_threads == 0 {
            return Err(ServingError::InvalidConfig("need at least one server thread"));
        }
        if self.batch_size == 0 {
            return Err(ServingError::InvalidConfig("need a positive batch size"));
        }
        if self.queue_capacity == Some(0) {
            return Err(ServingError::InvalidConfig("need a positive queue capacity"));
        }
        if requests.is_empty() {
            return Err(ServingError::InvalidConfig("need at least one request"));
        }
        Ok(())
    }
}

/// Latency percentile summary (milliseconds).
#[derive(Clone, Copy, Debug, Default)]
pub struct LatencySummary {
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
    pub max_ms: f64,
}

impl LatencySummary {
    fn from_latencies(mut lat_ms: Vec<f64>) -> Self {
        lat_ms.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let n = lat_ms.len();
        if n == 0 {
            return Self::default();
        }
        let pct = |p: f64| -> f64 { lat_ms[((n as f64 - 1.0) * p).round() as usize] };
        Self {
            mean_ms: lat_ms.iter().sum::<f64>() / n as f64,
            p50_ms: pct(0.50),
            p95_ms: pct(0.95),
            p99_ms: pct(0.99),
            max_ms: lat_ms[n - 1],
        }
    }
}

/// One request-path stage's latency over a run, from the metrics registry.
#[derive(Clone, Debug)]
pub struct StageSummary {
    /// Short stage name: `cache_resolve`, `embed`, `ann_probe`, `rank`.
    pub stage: String,
    /// `handle_batch` calls that recorded this stage during the run.
    pub count: u64,
    pub mean_ms: f64,
    pub p50_ms: f64,
    pub p95_ms: f64,
    pub p99_ms: f64,
}

/// The report every load shape returns: end-to-end latency, throughput, and
/// the per-stage/cache accounting for exactly this run.
///
/// Request accounting is a partition: `completed + errors + shed ==
/// offered`, and only completed requests contribute latency samples.
#[derive(Clone, Debug)]
pub struct LoadReport {
    pub spec: LoadTestSpec,
    /// Requests handed to the harness (`requests.len()`).
    pub offered: usize,
    /// Requests completed (each charged its whole batch's service time).
    pub completed: usize,
    /// Requests whose batch returned a [`ServingError`] or panicked —
    /// excluded from `completed` and from every latency percentile.
    pub errors: usize,
    /// Requests refused by the bounded admission queue under
    /// [`LoadTestSpec::queue_capacity`] / [`ShedPolicy`].
    pub shed: usize,
    /// Worker batches that panicked (their requests are in `errors`); the
    /// worker contains the panic and keeps draining.
    pub panics: usize,
    /// Requests the server answered degraded during the run
    /// (`serve.degraded.*` counter delta).
    pub degraded: u64,
    /// Batches the server rejected at admission with a spent deadline
    /// (`serve.deadline_exceeded` counter delta).
    pub deadline_exceeded: u64,
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// End-to-end latency as measured by the harness.
    pub latency: LatencySummary,
    /// Per-stage breakdown from the server's metrics registry (empty
    /// samples unless the registry is enabled).
    pub stages: Vec<StageSummary>,
    /// Cache activity during the run.
    pub cache: CacheStats,
}

impl LoadReport {
    /// Achieved throughput over the run.
    pub fn achieved_qps(&self) -> f64 {
        if self.elapsed.as_secs_f64() == 0.0 {
            return 0.0;
        }
        self.completed as f64 / self.elapsed.as_secs_f64()
    }

    /// The offered rate, for open-loop runs.
    pub fn offered_qps(&self) -> Option<f64> {
        match self.spec.arrival {
            Arrival::Open { qps } => Some(qps),
            Arrival::Closed => None,
        }
    }

    /// Fraction of offered requests the admission queue refused.
    pub fn shed_rate(&self) -> f64 {
        if self.offered == 0 {
            return 0.0;
        }
        self.shed as f64 / self.offered as f64
    }

    /// The summary for one stage (`cache_resolve`, `embed`, `ann_probe`,
    /// `rank`), if the run recorded it.
    pub fn stage(&self, name: &str) -> Option<&StageSummary> {
        self.stages.iter().find(|s| s.stage == name)
    }
}

/// What a load driver measured: latency samples for completed requests plus
/// the shed/error/panic tallies. `lat_ms.len() + errors + shed` equals the
/// offered request count.
struct DriverOutcome {
    lat_ms: Vec<f64>,
    shed: usize,
    errors: usize,
    panics: usize,
}

/// Run one load test described by `spec` and report end-to-end latency plus
/// the per-stage percentile breakdown for exactly this run.
///
/// One server reference is shared across the harness's threads (no
/// per-thread clone: the server owns the worker pools of its shards 1..N).
pub fn run_load(
    server: &OnlineServer,
    requests: &[Query],
    spec: &LoadTestSpec,
) -> Result<LoadReport, ServingError> {
    spec.validate(requests)?;
    let cache_before = server.aggregated_cache_stats();
    let metrics_before = server.metrics_snapshot();
    let start = Instant::now();
    let outcome = match spec.arrival {
        Arrival::Open { qps } => run_open_loop(server, requests, qps, spec),
        Arrival::Closed => run_closed_loop(server, requests, spec),
    };
    let elapsed = start.elapsed();
    let diff = server.metrics_snapshot().since(&metrics_before);
    let delta = |name: &str| diff.counter(name).unwrap_or(0);
    // Each degraded batch counts exactly one realized brownout rung — once,
    // by the batch's owner, whatever the service's shard count — so the
    // four rung counters sum without overlap.
    let degraded = delta("serve.degraded.fallback")
        + delta("serve.degraded.budget_capped")
        + delta("serve.degraded.topk_shrunk")
        + delta("serve.degraded.skip_widen");
    let deadline_exceeded = delta("serve.deadline_exceeded");
    // Mirror the harness tallies into the server's registry (after the diff,
    // so they never pollute this run's own stage breakdown) — overload runs
    // then surface in the same snapshot stream as the serving counters.
    let registry = server.metrics_registry();
    registry.counter("load.shed").add(outcome.shed as u64);
    registry.counter("load.errors").add(outcome.errors as u64);
    registry.counter("load.panics").add(outcome.panics as u64);
    Ok(LoadReport {
        spec: *spec,
        offered: requests.len(),
        completed: outcome.lat_ms.len(),
        errors: outcome.errors,
        shed: outcome.shed,
        panics: outcome.panics,
        degraded,
        deadline_exceeded,
        elapsed,
        latency: LatencySummary::from_latencies(outcome.lat_ms),
        stages: extract_stages(&diff),
        cache: server.aggregated_cache_stats().since(&cache_before),
    })
}

/// Pull the `serve.stage.*_ns` histograms out of a snapshot diff as
/// millisecond stage summaries, in snapshot (name) order.
fn extract_stages(diff: &zoomer_obs::Snapshot) -> Vec<StageSummary> {
    const PREFIX: &str = "serve.stage.";
    const SUFFIX: &str = "_ns";
    let ms = |ns: f64| ns / 1e6;
    diff.histograms
        .iter()
        .filter_map(|h| {
            let stage = h.name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?;
            Some(StageSummary {
                stage: stage.to_string(),
                count: h.count,
                mean_ms: ms(h.mean()),
                p50_ms: ms(h.p50() as f64),
                p95_ms: ms(h.p95() as f64),
                p99_ms: ms(h.p99() as f64),
            })
        })
        .collect()
}

/// Open-loop driver: a fixed arrival schedule feeds a bounded queue;
/// `num_threads` workers drain it, coalescing up to `batch_size` queued
/// requests into one `handle_batch` call.
///
/// With `queue_capacity: None` the queue holds the whole request set, so
/// admission never refuses anything — the pre-shedding behavior, exactly.
/// With a bound, a full queue sheds per [`ShedPolicy`] instead of blocking
/// the arrival schedule (an open-loop generator that blocks stops being
/// open-loop: queueing delay would silently throttle the offered rate).
fn run_open_loop(
    server: &OnlineServer,
    requests: &[Query],
    qps: f64,
    spec: &LoadTestSpec,
) -> DriverOutcome {
    let interval = Duration::from_secs_f64(1.0 / qps);
    let capacity = spec.queue_capacity.unwrap_or(requests.len()).max(1);
    let (tx, rx) = bounded::<(Query, Instant)>(capacity);
    let latencies: Arc<parking_lot::Mutex<Vec<f64>>> =
        Arc::new(parking_lot::Mutex::new(Vec::with_capacity(requests.len())));
    let errors = AtomicUsize::new(0);
    let panics = AtomicUsize::new(0);
    let mut shed = 0usize;

    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..spec.num_threads {
            let rx = rx.clone();
            let latencies = Arc::clone(&latencies);
            let errors = &errors;
            let panics = &panics;
            scope.spawn(move || {
                let mut batch: Vec<Query> = Vec::with_capacity(spec.batch_size);
                let mut enqueued: Vec<Instant> = Vec::with_capacity(spec.batch_size);
                // Block for the first request, then opportunistically drain
                // whatever else is already queued, up to the batch size.
                while let Ok((query, at)) = rx.recv() {
                    batch.push(query);
                    enqueued.push(at);
                    while batch.len() < spec.batch_size {
                        match rx.try_recv() {
                            Ok((q, at)) => {
                                batch.push(q);
                                enqueued.push(at);
                            }
                            Err(_) => break,
                        }
                    }
                    // A failed batch is its requests' problem, not the
                    // harness's: the worker tallies it (error or contained
                    // panic), records no latency for it, and keeps draining.
                    match catch_unwind(AssertUnwindSafe(|| server.handle_batch(&batch))) {
                        Ok(Ok(_)) => {
                            let done = Instant::now();
                            let mut lat = latencies.lock();
                            for &at in &enqueued {
                                lat.push(done.duration_since(at).as_secs_f64() * 1e3);
                            }
                        }
                        Ok(Err(_)) => {
                            errors.fetch_add(batch.len(), Ordering::Relaxed);
                        }
                        Err(_) => {
                            panics.fetch_add(1, Ordering::Relaxed);
                            errors.fetch_add(batch.len(), Ordering::Relaxed);
                        }
                    }
                    batch.clear();
                    enqueued.clear();
                }
            });
        }
        // Open-loop arrival schedule; sheds instead of blocking on a full
        // bounded queue. The generator keeps its own receiver handle for
        // `DropOldest` eviction.
        for (i, &query) in requests.iter().enumerate() {
            let due = start + interval.mul_f64(i as f64);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            let mut item = (query, Instant::now());
            loop {
                match tx.try_send(item) {
                    Ok(()) => break,
                    Err(TrySendError::Disconnected(_)) => break,
                    Err(TrySendError::Full(back)) => match spec.shed {
                        ShedPolicy::RejectNew => {
                            shed += 1;
                            break;
                        }
                        ShedPolicy::DropOldest => {
                            // Evict one queued request and retry. A worker
                            // may win the race for it — then the queue has a
                            // free slot anyway and the retry succeeds.
                            if rx.try_recv().is_ok() {
                                shed += 1;
                            }
                            item = back;
                        }
                    },
                }
            }
        }
        drop(tx);
        drop(rx);
    });
    // The scope above joined every worker, so this take sees the final
    // vector; taking under the lock avoids an Arc::try_unwrap that would
    // need an `expect`.
    let lat_ms = std::mem::take(&mut *latencies.lock());
    DriverOutcome {
        lat_ms,
        shed,
        errors: errors.load(Ordering::Relaxed),
        panics: panics.load(Ordering::Relaxed),
    }
}

/// Closed-loop driver: `requests` are split across threads, each issuing its
/// share in `batch_size`-sized `handle_batch` calls back-to-back. Each
/// request is charged its whole batch's service time. Failed batches (error
/// or contained panic) are tallied and skipped, not aborted on: a load test
/// that dies at the first bad request cannot measure overload.
fn run_closed_loop(
    server: &OnlineServer,
    requests: &[Query],
    spec: &LoadTestSpec,
) -> DriverOutcome {
    let outcomes: Vec<(Vec<f64>, usize, usize)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..spec.num_threads)
            .map(|t| {
                let share: Vec<Query> =
                    requests.iter().skip(t).step_by(spec.num_threads).copied().collect();
                let share_len = share.len();
                let handle = scope.spawn(move || {
                    let mut lats = Vec::with_capacity(share.len());
                    let mut errors = 0usize;
                    let mut panics = 0usize;
                    for chunk in share.chunks(spec.batch_size) {
                        let t0 = Instant::now();
                        match catch_unwind(AssertUnwindSafe(|| server.handle_batch(chunk))) {
                            Ok(Ok(_)) => {
                                let ms = t0.elapsed().as_secs_f64() * 1e3;
                                lats.extend(std::iter::repeat_n(ms, chunk.len()));
                            }
                            Ok(Err(_)) => errors += chunk.len(),
                            Err(_) => {
                                panics += 1;
                                errors += chunk.len();
                            }
                        }
                    }
                    (lats, errors, panics)
                });
                (handle, share_len)
            })
            .collect();
        handles
            .into_iter()
            .map(|(h, share_len)| {
                // Panics inside `handle_batch` are contained above; a failed
                // join can only mean the worker loop itself died, so charge
                // the whole share as errored rather than lose the run.
                h.join().unwrap_or_else(|_| (Vec::new(), share_len, 1))
            })
            .collect()
    });
    let mut out = DriverOutcome { lat_ms: Vec::new(), shed: 0, errors: 0, panics: 0 };
    for (lats, errors, panics) in outcomes {
        out.lat_ms.extend(lats);
        out.errors += errors;
        out.panics += panics;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultInjector, FaultPlan, FaultSite};
    use crate::server::ServingConfig;
    use zoomer_data::{TaobaoConfig, TaobaoData};
    use zoomer_graph::NodeId;
    use zoomer_model::{FrozenModel, ModelConfig, UnifiedCtrModel};
    use zoomer_obs::MetricsRegistry;

    fn server_and_requests(metrics: bool) -> (OnlineServer, Vec<Query>) {
        server_with_fault(metrics, None)
    }

    fn server_with_fault(
        metrics: bool,
        fault: Option<Arc<FaultInjector>>,
    ) -> (OnlineServer, Vec<Query>) {
        let data = TaobaoData::generate(TaobaoConfig::tiny(91));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(13, dd));
        let frozen = FrozenModel::from_model(&mut model, &data.graph);
        let items = data.item_nodes();
        let graph = Arc::new(
            zoomer_graph::read_snapshot(zoomer_graph::write_snapshot(&data.graph))
                .expect("roundtrip"),
        );
        let mut builder = OnlineServer::builder()
            .graph(graph)
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 10, ..Default::default() })
            .seed(91);
        if metrics {
            builder = builder.metrics(Arc::new(MetricsRegistry::enabled()));
        }
        if let Some(f) = fault {
            builder = builder.fault(f);
        }
        let server = builder.build().expect("server build");
        let requests: Vec<Query> =
            data.logs.iter().take(120).map(|l| Query::new(l.user, l.query)).collect();
        (server, requests)
    }

    #[test]
    fn open_loop_completes_all_requests() {
        let (server, requests) = server_and_requests(false);
        let spec = LoadTestSpec::open(2000.0).num_threads(2);
        let report = run_load(&server, &requests, &spec).expect("load run");
        assert_eq!(report.completed, requests.len());
        assert!(report.latency.mean_ms >= 0.0);
        assert!(report.latency.p50_ms <= report.latency.p95_ms);
        assert!(report.latency.p95_ms <= report.latency.p99_ms);
        assert!(report.latency.p99_ms <= report.latency.max_ms + 1e-9);
        assert!(report.achieved_qps() > 0.0);
        assert_eq!(report.offered_qps(), Some(2000.0));
        assert!(report.cache.total() > 0, "run must account cache lookups");
    }

    #[test]
    fn percentiles_of_known_distribution() {
        let lat: Vec<f64> = (1..=100).map(|x| x as f64).collect();
        let s = LatencySummary::from_latencies(lat);
        assert!((s.p50_ms - 50.0).abs() <= 1.0);
        assert!((s.p99_ms - 99.0).abs() <= 1.0);
        assert_eq!(s.max_ms, 100.0);
        assert!((s.mean_ms - 50.5).abs() < 1e-9);
    }

    #[test]
    fn batched_open_loop_completes_all_requests() {
        let (server, requests) = server_and_requests(false);
        let spec = LoadTestSpec::open(5000.0).num_threads(2).batch_size(8);
        let report = run_load(&server, &requests, &spec).expect("load run");
        assert_eq!(report.completed, requests.len());
        assert!(report.latency.p50_ms <= report.latency.p99_ms);
    }

    #[test]
    fn closed_loop_reports_throughput_and_stages() {
        let (server, requests) = server_and_requests(true);
        let spec = LoadTestSpec::closed().num_threads(2).batch_size(16);
        let report = run_load(&server, &requests, &spec).expect("load run");
        assert_eq!(report.completed, requests.len());
        assert_eq!(report.spec.batch_size, 16);
        assert!(report.achieved_qps() > 0.0);
        assert!(report.latency.mean_ms > 0.0);
        assert_eq!(report.offered_qps(), None);
        // With an enabled registry the per-stage breakdown is populated.
        for stage in ["cache_resolve", "embed", "ann_probe", "rank"] {
            let s = report.stage(stage).unwrap_or_else(|| panic!("missing stage {stage}"));
            assert!(s.count > 0, "stage {stage} recorded no batches");
            assert!(s.p50_ms <= s.p99_ms + 1e-9);
        }
    }

    #[test]
    fn stage_breakdown_covers_only_this_run() {
        let (server, requests) = server_and_requests(true);
        // Warm-up traffic outside the measured run.
        run_load(&server, &requests, &LoadTestSpec::closed().batch_size(8)).expect("warm-up");
        let batches = requests.len().div_ceil(16);
        let report = run_load(&server, &requests, &LoadTestSpec::closed().batch_size(16))
            .expect("measured run");
        for s in &report.stages {
            assert_eq!(
                s.count, batches as u64,
                "stage {} must count only this run's batches",
                s.stage
            );
        }
        assert_eq!(report.cache.misses, 0, "second pass must be all cache hits");
        assert!(report.cache.hits > 0);
    }

    #[test]
    fn disabled_registry_reports_empty_stage_samples() {
        let (server, requests) = server_and_requests(false);
        let report = run_load(&server, &requests[..32], &LoadTestSpec::closed().batch_size(8))
            .expect("load run");
        for s in &report.stages {
            assert_eq!(s.count, 0, "disabled registry must not time stages");
        }
    }

    #[test]
    fn invalid_load_parameters_are_typed_errors() {
        let (server, requests) = server_and_requests(false);
        for bad in [
            run_load(&server, &requests, &LoadTestSpec::open(0.0)),
            run_load(&server, &requests, &LoadTestSpec::open(100.0).num_threads(0)),
            run_load(&server, &[], &LoadTestSpec::open(100.0)),
            run_load(&server, &requests, &LoadTestSpec::open(100.0).batch_size(0)),
            run_load(&server, &requests, &LoadTestSpec::closed().num_threads(0)),
            run_load(&server, &requests, &LoadTestSpec::open(100.0).queue_capacity(0)),
        ] {
            assert!(matches!(bad, Err(ServingError::InvalidConfig(_))), "{bad:?}");
        }
    }

    #[test]
    fn open_loop_counts_malformed_requests_as_errors_not_completions() {
        let (server, mut requests) = server_and_requests(false);
        requests.truncate(30);
        let bogus = server.graph().num_nodes() as NodeId + 3;
        // Three malformed arrivals scattered through the schedule. Batch
        // size 1 keeps each in its own batch, so exactly three batches fail.
        for i in [5, 14, 23] {
            requests[i] = Query::new(bogus, requests[i].query);
        }
        let report = run_load(&server, &requests, &LoadTestSpec::open(5_000.0)).expect("load run");
        assert_eq!(report.offered, 30);
        assert_eq!(report.errors, 3, "each malformed request must be tallied as an error");
        assert_eq!(report.completed, 27, "failed requests must not count as completed");
        assert_eq!(report.shed, 0);
        assert_eq!(report.panics, 0);
        assert_eq!(report.completed + report.errors + report.shed, report.offered);
    }

    #[test]
    fn closed_loop_counts_errors_and_keeps_going() {
        let (server, mut requests) = server_and_requests(false);
        requests.truncate(24);
        let bogus = server.graph().num_nodes() as NodeId + 3;
        requests[7] = Query::new(bogus, requests[7].query);
        let report = run_load(&server, &requests, &LoadTestSpec::closed()).expect("load run");
        assert_eq!(report.errors, 1);
        assert_eq!(report.completed, 23, "the run must outlive one bad request");
        assert_eq!(report.completed + report.errors + report.shed, report.offered);
    }

    #[test]
    fn overload_on_a_bounded_queue_sheds_and_stays_accounted() {
        let (server, requests) = server_and_requests(false);
        // Offered far beyond service capacity (1µs arrivals) into a 2-slot
        // queue: most arrivals must be refused, every request must land in
        // exactly one of completed/errors/shed, and nothing may block.
        let spec = LoadTestSpec::open(1_000_000.0).queue_capacity(2);
        let report = run_load(&server, &requests, &spec).expect("load run");
        assert!(report.shed > 0, "5x+ overload on a 2-slot queue must shed");
        assert!(report.shed_rate() > 0.0);
        assert_eq!(report.completed + report.errors + report.shed, report.offered);
        assert!(report.completed > 0, "admitted requests must still complete");
    }

    #[test]
    fn drop_oldest_sheds_queued_requests_instead_of_new_arrivals() {
        let (server, requests) = server_and_requests(false);
        let spec = LoadTestSpec::open(1_000_000.0).queue_capacity(2).shed(ShedPolicy::DropOldest);
        let report = run_load(&server, &requests, &spec).expect("load run");
        assert!(report.shed > 0, "overload must evict queued requests");
        assert_eq!(report.completed + report.errors + report.shed, report.offered);
    }

    #[test]
    fn unloaded_bounded_queue_sheds_nothing() {
        let (server, requests) = server_and_requests(false);
        // Well under capacity: a gentle trickle into a roomy queue must
        // behave exactly like the unbounded harness.
        let spec = LoadTestSpec::open(500.0).queue_capacity(requests.len()).num_threads(2);
        let report = run_load(&server, &requests[..40], &spec).expect("load run");
        assert_eq!(report.shed, 0, "uncontended queue must never shed");
        assert_eq!(report.errors, 0);
        assert_eq!(report.completed, 40);
    }

    #[test]
    fn overload_grows_latency() {
        // Every batch's ANN probe sleeps 1 ms, so the server's service time
        // is at least that however fast the scan is. A gentle trickle (one
        // request per 5 ms, two threads) never queues; 50 000/s on one
        // thread offers 50× what it can serve, so the queue — and p95 —
        // grows with every arrival.
        let fault = FaultPlan::new(3).delay(FaultSite::AnnProbe, 1, Duration::from_millis(1));
        let (server, requests) = server_with_fault(false, Some(Arc::new(fault.build())));
        let gentle = run_load(&server, &requests[..40], &LoadTestSpec::open(200.0).num_threads(2))
            .expect("load run");
        let slam = run_load(&server, &requests, &LoadTestSpec::open(50_000.0)).expect("load run");
        assert!(
            slam.latency.p95_ms >= gentle.latency.p95_ms,
            "overload p95 {} should be ≥ gentle p95 {}",
            slam.latency.p95_ms,
            gentle.latency.p95_ms
        );
    }
}
