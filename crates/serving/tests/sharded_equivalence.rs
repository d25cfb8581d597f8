//! Sharded-vs-single-shard equivalence suite (wired into `ci.sh`).
//!
//! The scatter-gather contract: with the exact backend, an
//! [`OnlineServer`] at N ∈ {2, 3, 4, 8} shards — shard 0 ranked inline,
//! the rest on worker threads — produces the N = 1 server's global top-k,
//! not "close" but bit-identical, scores included (partition + merge loses
//! nothing an exact scan would find, and breaks score ties across shards
//! exactly as one shard does). Shard-reply faults must degrade the batch
//! instead of erroring it. Two builds of one configuration serve
//! identically (the N = 1 pins below).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, OnceLock};
use std::time::Duration;

use proptest::prelude::*;
use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::{GraphBuilder, HeteroGraph, NodeId};
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_obs::MetricsRegistry;
use zoomer_serving::{
    BackendKind, Deadline, FaultPlan, FaultSite, FrozenModel, NeighborCache, OnlineServer, Query,
    SearchBackend, ServerBuilder, ServingConfig, ServingError, ShardingConfig,
};

struct Fixture {
    graph: Arc<HeteroGraph>,
    frozen: FrozenModel,
    pool: Vec<NodeId>,
    logs: Vec<(NodeId, NodeId)>,
}

fn fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = TaobaoData::generate(TaobaoConfig::tiny(64));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(17, dd));
        let frozen = model.freeze(&data.graph);
        let pool = data.item_nodes();
        let logs: Vec<(NodeId, NodeId)> =
            data.logs.iter().take(100).map(|l| (l.user, l.query)).collect();
        assert!(!logs.is_empty());
        Fixture { graph: Arc::new(data.graph), frozen, pool, logs }
    })
}

/// The same data, rebuilt so that every item copies the fields and dense
/// features of one of eight prototype items: each item-tower embedding is
/// shared, bit for bit, by about ten items spread over the shards, so every
/// query's top-k is decided by exact score ties.
fn tied_fixture() -> &'static Fixture {
    static FIX: OnceLock<Fixture> = OnceLock::new();
    FIX.get_or_init(|| {
        let data = TaobaoData::generate(TaobaoConfig::tiny(64));
        let (g, first_item) = (&data.graph, data.first_item_node());
        let mut b = GraphBuilder::new(g.features().dense_dim());
        for n in 0..g.num_nodes() as NodeId {
            let src = if n >= first_item { first_item + (n - first_item) % 8 } else { n };
            let terms = g.features().terms(src).to_vec();
            b.add_node(g.node_type(src), g.fields(src).to_vec(), terms, g.dense_feature(src));
        }
        for log in &data.logs {
            b.add_search_session(log.user, log.query, &log.clicked);
        }
        b.dedup_edges();
        let graph = b.finish();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(17, g.features().dense_dim()));
        let frozen = model.freeze(&graph);
        let logs = data.logs.iter().take(100).map(|l| (l.user, l.query)).collect();
        Fixture { graph: Arc::new(graph), frozen, pool: data.item_nodes(), logs }
    })
}

fn builder(config: ServingConfig) -> ServerBuilder {
    builder_on(fixture(), config)
}

fn builder_on(fix: &Fixture, config: ServingConfig) -> ServerBuilder {
    OnlineServer::builder()
        .graph(Arc::clone(&fix.graph))
        .frozen(fix.frozen.clone())
        .item_pool(&fix.pool)
        .config(config)
        .seed(64)
}

fn config(backend: BackendKind, num_shards: usize) -> ServingConfig {
    ServingConfig {
        top_k: 12,
        backend,
        sharding: ShardingConfig { num_shards, replicas_per_shard: 2 },
        ..Default::default()
    }
}

/// Score-bit projection of a scored batch result.
fn score_bits(rows: &[zoomer_serving::ScoredRetrieval]) -> Vec<(Vec<(u64, u32)>, bool)> {
    rows.iter()
        .map(|r| (r.items.iter().map(|&(id, s)| (id, s.to_bits())).collect(), r.degraded))
        .collect()
}

fn queries_from(indices: &[usize], top_ks: &[u32]) -> Vec<Query> {
    let logs = &fixture().logs;
    indices
        .iter()
        .zip(top_ks)
        .map(|(&i, &k)| {
            let (user, query) = logs[i % logs.len()];
            Query::new(user, query).with_tenant(i as u32).with_top_k(k)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Build determinism at N = 1: two builds of one configuration serve
    /// bit-identically — same ids, same score bits, same degraded flags,
    /// for any batch mix of default and per-request top-k — with no
    /// deadline, and under a bounded one generous enough that no rung below
    /// `Full` is realized (the ladder is selected and executed, and must
    /// change nothing). Inline and worker shards are compared by
    /// `exact_backend_merge_recovers_the_global_topk` and
    /// `ties_across_shards_merge_to_the_unsharded_ids`.
    #[test]
    fn n1_sharded_is_bit_identical_to_single_shard(
        indices in prop::collection::vec(0usize..100, 1..10),
        top_ks in prop::collection::vec(0u32..13, 10),
    ) {
        static PAIR: OnceLock<(OnlineServer, OnlineServer)> = OnceLock::new();
        let (single, sharded) = PAIR.get_or_init(|| {
            let cfg = config(BackendKind::Ivf, 1);
            let single = builder(cfg).build().expect("single build");
            let sharded = builder(cfg).build().expect("second build");
            (single, sharded)
        });
        let queries = queries_from(&indices, &top_ks);
        let unbounded = single
            .handle_batch_scored(&queries, Deadline::none())
            .expect("single serve");
        for deadline in [Deadline::none(), Deadline::after(Duration::from_secs(600))] {
            let want = single.handle_batch_scored(&queries, deadline).expect("single serve");
            let got = sharded.handle_batch_scored(&queries, deadline).expect("sharded serve");
            prop_assert_eq!(score_bits(&want), score_bits(&got), "N=1 scatter-gather diverged");
            prop_assert_eq!(score_bits(&want), score_bits(&unbounded), "unspent budget changed an answer");
        }
    }
}

/// Build determinism at N = 1 for every backend kind: two builds agree on
/// a fixed batch (ids and scores).
#[test]
fn n1_equivalence_holds_for_every_backend() {
    for backend in [BackendKind::Ivf, BackendKind::Exact, BackendKind::Quantized] {
        let cfg = config(backend, 1);
        let single = builder(cfg).build().expect("single build");
        let sharded = builder(cfg).build().expect("second build");
        let queries = queries_from(&[0, 1, 2, 3, 4, 5, 6, 7], &[0, 0, 5, 0, 9, 0, 0, 2]);
        let want = single.handle_batch_scored(&queries, Deadline::none()).expect("single");
        let got = sharded.handle_batch_scored(&queries, Deadline::none()).expect("sharded");
        assert_eq!(score_bits(&want), score_bits(&got), "backend {backend:?} diverged at N=1");
    }
}

/// With the exact backend, partitioning cannot lose candidates: the merged
/// top-k at N∈{2,3,4,8} — shard 0 inline, the rest on workers — equals the
/// single-shard exact top-k.
#[test]
fn exact_backend_merge_recovers_the_global_topk() {
    let single = builder(config(BackendKind::Exact, 1)).build().expect("single build");
    let queries = queries_from(&[0, 3, 9, 14, 27, 33], &[0, 0, 0, 4, 0, 8]);
    let want = single.handle_batch(&queries).expect("single serve");
    for shards in [2usize, 3, 4, 8] {
        let sharded = builder(config(BackendKind::Exact, shards)).build().expect("build");
        assert_eq!(sharded.shards().len(), shards);
        let got = sharded.handle_batch(&queries).expect("sharded serve");
        assert_eq!(want, got, "exact scatter-gather lost candidates at N={shards}");
    }
}

/// Exact score ties across shards break by id, as in one shard: over the
/// tied pool, the merged exact top-k at N ∈ {2, 4} is the un-sharded one,
/// ids and scores.
#[test]
fn ties_across_shards_merge_to_the_unsharded_ids() {
    let fix = tied_fixture();
    let queries = queries_from(&[0, 3, 9, 14, 27, 33], &[0, 0, 0, 4, 0, 8]);
    let single = builder_on(fix, config(BackendKind::Exact, 1)).build().expect("single build");
    let want = single.handle_batch_scored(&queries, Deadline::none()).expect("single serve");
    assert!(
        want.iter().all(|r| r.items.windows(2).any(|w| w[0].1 == w[1].1)),
        "the tied pool must put score ties inside every row's top-k"
    );
    for shards in [2usize, 4] {
        let sharded =
            builder_on(fix, config(BackendKind::Exact, shards)).build().expect("sharded build");
        let got = sharded.handle_batch_scored(&queries, Deadline::none()).expect("sharded serve");
        assert_eq!(score_bits(&want), score_bits(&got), "tied pool diverged at N={shards}");
    }
}

/// Shard partitions are disjoint, cover the pool, and follow
/// `shard_of_node` — retrieval ownership matches graph-storage ownership.
#[test]
fn item_pool_partition_follows_shard_arithmetic() {
    let fix = fixture();
    let sharded = builder(config(BackendKind::Exact, 4)).build().expect("build");
    let pool = &fix.pool;
    let total: usize = sharded.shards().iter().map(|s| s.backend().len()).sum();
    assert_eq!(total, pool.len(), "shards must cover the pool exactly once");
    for (idx, shard) in sharded.shards().iter().enumerate() {
        let owned: Vec<NodeId> =
            pool.iter().copied().filter(|&n| zoomer_graph::shard_of_node(n, 4) == idx).collect();
        assert_eq!(shard.backend().len(), owned.len(), "shard {idx} owns the wrong items");
    }
}

/// An injected panic in one shard's reply degrades the batch (the other
/// shard's answer still serves) and counts `serve.shard.replies_lost`.
#[test]
fn lost_shard_reply_degrades_instead_of_erroring() {
    let fault = Arc::new(
        FaultPlan::new(5)
            .action(FaultSite::ShardReply, 2, || panic!("injected shard-reply loss"))
            .build(),
    );
    let registry = Arc::new(zoomer_obs::MetricsRegistry::new());
    registry.set_enabled(true);
    let sharded = builder(config(BackendKind::Exact, 2))
        .metrics(Arc::clone(&registry))
        .fault(fault)
        .build()
        .expect("build");
    let queries = queries_from(&[0, 1, 2], &[0, 0, 0]);
    let got = sharded.handle_batch(&queries).expect("one lost shard must not error the batch");
    assert_eq!(got.len(), queries.len());
    for row in &got {
        assert!(row.degraded, "a lossy merge must be marked degraded");
        assert!(!row.items.is_empty(), "the surviving shard still answers");
    }
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.shard.replies_lost"), Some(1));
    assert_eq!(snap.counter("serve.shard.0.batches").unwrap_or(0), 1);
    assert_eq!(snap.counter("serve.shard.1.batches").unwrap_or(0), 1);
}

/// Shard 0 ranks on the calling thread but fails like a worker: at N = 1 a
/// panic injected at its reply is caught and counted under
/// `serve.shard.0.errors`, and — every shard reply being lost — errors that
/// batch alone. The next batch serves normally.
#[test]
fn inline_shard_fails_like_a_worker() {
    let armed = Arc::new(AtomicBool::new(true));
    let fault = {
        let armed = Arc::clone(&armed);
        let plan = FaultPlan::new(1).action(FaultSite::ShardReply, 1, move || {
            if armed.swap(false, Ordering::Relaxed) {
                panic!("injected inline shard-reply loss");
            }
        });
        Arc::new(plan.build())
    };
    let registry = Arc::new(MetricsRegistry::enabled());
    let server = builder(config(BackendKind::Exact, 1))
        .metrics(Arc::clone(&registry))
        .fault(fault)
        .build()
        .expect("build");
    let queries = queries_from(&[0, 1, 2], &[0, 0, 0]);
    let err = server.handle_batch(&queries).expect_err("the only shard reply was lost");
    assert_eq!(err, ServingError::WorkerPanicked("shard rank stage panicked"));
    let snap = registry.snapshot();
    assert_eq!(snap.counter("serve.shard.0.batches"), Some(1));
    assert_eq!(snap.counter("serve.shard.0.errors"), Some(1));
    assert_eq!(snap.counter("serve.shard.replies_lost"), Some(1));
    let rows = server.handle_batch(&queries).expect("the next batch serves");
    assert!(rows.iter().all(|r| !r.degraded && !r.items.is_empty()), "{rows:?}");
    assert_eq!(registry.snapshot().counter("serve.shard.0.errors"), Some(1));
}

/// A job no worker has started is ranked by the batch's own caller: while
/// shard 1's only worker is held inside one batch, a second batch still
/// answers in full on its calling thread, exactly as one shard would.
#[test]
fn a_caller_ranks_the_jobs_no_worker_has_started() {
    const WAIT: Duration = Duration::from_secs(10);
    let (to_caller, worker_in_for_caller) = mpsc::channel::<()>();
    let (to_test, worker_in) = mpsc::channel::<()>();
    let (release, released) = mpsc::channel::<()>();
    let (signal, released) = (Mutex::new((to_caller, to_test)), Mutex::new(released));
    let worker_in_for_caller = Mutex::new(worker_in_for_caller);
    let plan = FaultPlan::new(1).action(FaultSite::AnnProbe, 1, move || {
        // Every caller below runs on a named thread; shard workers are
        // unnamed.
        match std::thread::current().name() {
            // Shard 1's worker: report in, then hold until released.
            None => {
                if let Ok(s) = signal.lock() {
                    let _ = (s.0.send(()), s.1.send(()));
                }
                if let Ok(r) = released.lock() {
                    let _ = r.recv_timeout(WAIT);
                }
            }
            // The first batch's caller ranks shard 0 only once the worker
            // has started shard 1's job, so it has nothing left to take.
            Some("held batch") => {
                if let Ok(r) = worker_in_for_caller.lock() {
                    let _ = r.recv_timeout(WAIT);
                }
            }
            Some(_) => {}
        }
    });
    let cfg = ServingConfig {
        sharding: ShardingConfig { num_shards: 2, replicas_per_shard: 1 },
        ..config(BackendKind::Exact, 2)
    };
    let server = builder(cfg).fault(Arc::new(plan.build())).build().expect("build");
    let single = builder(config(BackendKind::Exact, 1)).build().expect("single build");
    let first = queries_from(&[0, 1], &[0, 0]);
    let second = queries_from(&[2, 3, 4], &[0, 5, 0]);
    std::thread::scope(|scope| {
        let held = std::thread::Builder::new()
            .name("held batch".into())
            .spawn_scoped(scope, || server.handle_batch(&first))
            .expect("spawn");
        worker_in.recv_timeout(WAIT).expect("shard 1's worker never started the first batch");
        let got = std::thread::Builder::new()
            .name("second batch".into())
            .spawn_scoped(scope, || server.handle_batch(&second))
            .expect("spawn")
            .join()
            .expect("second batch thread")
            .expect("serve past the held worker");
        assert_eq!(got, single.handle_batch(&second).expect("single serve"));
        drop(release);
        let held = held.join().expect("held batch thread");
        assert_eq!(held.expect("held serve"), single.handle_batch(&first).expect("single serve"));
    });
}

/// A reply delayed past the deadline's gather grace is lost; when every
/// shard's reply is lost the batch errors instead of hanging.
#[test]
fn reply_delay_past_the_gather_window_is_loss() {
    let fault = Arc::new(
        FaultPlan::new(3).delay(FaultSite::ShardReply, 1, Duration::from_millis(1500)).build(),
    );
    let mut cfg = config(BackendKind::Exact, 2);
    cfg.deadline = Some(Duration::from_millis(400));
    let sharded = builder(cfg).fault(fault).build().expect("build");
    let queries = queries_from(&[0, 1], &[0, 0]);
    let got = sharded.handle_batch(&queries);
    // Either every reply missed the window (typical) or the budget was
    // already spent before the scatter (slow machine) — both are the
    // deadline ladder, never a hang or a panic.
    match got {
        Err(e) => assert!(format!("{e}").contains("shard reply"), "unexpected error shape: {e}"),
        Ok(rows) => assert!(rows.iter().all(|r| r.degraded), "late replies must degrade"),
    }
}

/// Sharding rejects layouts the pool cannot fill, and zero-shard configs.
#[test]
fn degenerate_shard_layouts_are_rejected() {
    let Err(err) = builder(ServingConfig {
        sharding: ShardingConfig { num_shards: 0, replicas_per_shard: 1 },
        ..Default::default()
    })
    .build() else {
        panic!("zero shards must be rejected");
    };
    assert!(format!("{err}").contains("sharding"));
    // 80 items cannot fill 4096 shards: some shard ends up empty.
    let Err(err) = builder(ServingConfig {
        sharding: ShardingConfig { num_shards: 4096, replicas_per_shard: 1 },
        ..Default::default()
    })
    .build() else {
        panic!("empty shards must be rejected");
    };
    assert!(format!("{err}").contains("no items"));
}

/// Warm + repeated serves hit the partitioned caches, and the aggregated
/// stats see it.
#[test]
fn partitioned_cache_serves_repeats_without_re_missing() {
    let sharded = builder(config(BackendKind::Ivf, 2)).build().expect("build");
    let queries = queries_from(&[0, 1, 2, 3], &[0, 0, 0, 0]);
    let first = sharded.handle_batch(&queries).expect("serve");
    let misses_after_first = sharded.aggregated_cache_stats().misses;
    let second = sharded.handle_batch(&queries).expect("serve again");
    let stats = sharded.aggregated_cache_stats();
    assert_eq!(first, second, "same batch must be deterministic");
    assert_eq!(stats.misses, misses_after_first, "second serve must not miss");
    assert!(stats.hits > 0);
}

/// The request/degraded counters a batch moves, in a fixed order.
const BATCH_COUNTERS: [&str; 6] = [
    "serve.requests",
    "serve.batches",
    "serve.degraded.skip_widen",
    "serve.degraded.topk_shrunk",
    "serve.degraded.budget_capped",
    "serve.degraded.fallback",
];

/// Serve one 4-request batch under `deadline` on a fresh tier whose every
/// pass through `site` stalls for `stall`, and return what it moved of
/// [`BATCH_COUNTERS`]. `num_shards == 0` builds one shard, as 1 does.
fn stalled_batch_deltas(
    num_shards: usize,
    deadline: Duration,
    site: FaultSite,
    stall: Duration,
) -> Vec<u64> {
    let registry = Arc::new(MetricsRegistry::enabled());
    let mut cfg = config(BackendKind::Ivf, num_shards.max(1));
    cfg.deadline = Some(deadline);
    let fault = Arc::new(FaultPlan::new(7).delay(site, 1, stall).build());
    let builder = builder(cfg).metrics(Arc::clone(&registry)).fault(fault);
    let queries = queries_from(&[0, 1, 2, 3], &[0, 0, 0, 0]);
    let rows = builder
        .build()
        .expect("build")
        .handle_batch(&queries)
        .expect("an admitted batch always answers");
    assert!(rows.iter().all(|r| r.degraded), "the stalled batch must be served degraded");
    let snap = registry.snapshot();
    BATCH_COUNTERS.iter().map(|name| snap.counter(name).unwrap_or(0)).collect()
}

/// `serve.requests`, `serve.batches` and the `serve.degraded.*` family are
/// counted once per batch by the server — never once per shard. The same
/// stalled batch moves them identically at every shard count.
#[test]
fn batch_counters_do_not_scale_with_shard_count() {
    let ms = Duration::from_millis;
    for (what, deadline, site, stall, want) in [
        // An ANN-stage spike past the deadline: every shard answers from its
        // postings, and the fallback is counted once per *request*.
        ("fallback", ms(5), FaultSite::AnnProbe, ms(20), [4, 1, 0, 0, 0, 4]),
        // A spike inside the first probe round, short of the gather grace:
        // every shard's round-major probe self-caps, and the cap is counted
        // once per *batch*.
        ("budget cap", ms(40), FaultSite::AnnRound, ms(80), [4, 1, 0, 0, 1, 0]),
    ] {
        for num_shards in [0usize, 1, 2, 4] {
            assert_eq!(
                stalled_batch_deltas(num_shards, deadline, site, stall),
                want,
                "{what} batch at N={num_shards} moved {BATCH_COUNTERS:?} wrongly"
            );
        }
    }
}

/// Every node → neighbor-list entry resident in `caches`, checking on the
/// way that each sits in the partition `shard_of_node` assigns it.
fn resident_entries(caches: &[&NeighborCache], num_nodes: usize) -> BTreeMap<NodeId, Vec<NodeId>> {
    let mut entries = BTreeMap::new();
    for node in 0..num_nodes as NodeId {
        for (idx, cache) in caches.iter().enumerate() {
            if let Some(Some(entry)) = cache.get_many(&[node]).pop() {
                assert_eq!(
                    zoomer_graph::shard_of_node(node, caches.len()),
                    idx,
                    "node {node} cached outside its owning partition"
                );
                entries.insert(node, entry.to_vec());
            }
        }
    }
    entries
}

/// The single neighbor resolve is partition-invariant: serving the same
/// batches cold leaves the same node → neighbor-list map behind whether it
/// lives in one cache or is split across 2 or 4, and at each shard count a
/// warmed tier answers exactly as a cold one.
#[test]
fn neighbor_resolve_is_partition_invariant() {
    let fix = fixture();
    let num_nodes = fix.graph.num_nodes();
    let batches = [
        queries_from(&[0, 1, 2, 3, 4], &[0, 0, 0, 0, 0]),
        queries_from(&[3, 4, 5, 6, 3], &[0, 7, 0, 0, 0]),
    ];
    let single = builder(config(BackendKind::Exact, 1)).build().expect("single build");
    for batch in &batches {
        single.handle_batch(batch).expect("single serve");
    }
    let want = resident_entries(&[single.shards()[0].cache()], num_nodes);
    assert!(!want.is_empty());
    for shards in [1usize, 2, 4] {
        let build = || builder(config(BackendKind::Exact, shards)).build();
        let cold = build().expect("cold build");
        let cold_rows: Vec<_> =
            batches.iter().map(|b| cold.handle_batch(b).expect("cold serve")).collect();
        let caches: Vec<&NeighborCache> = cold.shards().iter().map(|s| s.cache()).collect();
        assert_eq!(
            resident_entries(&caches, num_nodes),
            want,
            "N={shards} cached different neighborhoods than the single cache"
        );

        let warm = build().expect("warm build");
        let touched: Vec<NodeId> = want.keys().copied().collect();
        warm.warm_cache(&touched).expect("warm");
        let caches: Vec<&NeighborCache> = warm.shards().iter().map(|s| s.cache()).collect();
        assert_eq!(resident_entries(&caches, num_nodes), want, "N={shards} warm-up entries");
        let misses_after_warm = warm.aggregated_cache_stats().misses;
        let warm_rows: Vec<_> =
            batches.iter().map(|b| warm.handle_batch(b).expect("warm serve")).collect();
        assert_eq!(cold_rows, warm_rows, "N={shards}: a warmed tier must answer as a cold one");
        assert_eq!(
            warm.aggregated_cache_stats().misses,
            misses_after_warm,
            "N={shards}: serving warmed nodes must not miss"
        );
    }
}
