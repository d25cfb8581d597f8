//! Online serving scenario (paper §VII-E): freeze a trained model, build the
//! ANN inverted index, warm the neighbor caches, and drive the server with an
//! open-loop load generator at increasing QPS — printing the latency curve
//! the paper plots in Fig 9.
//!
//! Run with: `cargo run --release --example online_serving`

use std::sync::Arc;
use std::time::Duration;

use zoomer_core::data::TaobaoConfig;
use zoomer_core::graph::ShardingConfig;
use zoomer_core::serving::{
    run_load, BackendKind, FrozenModel, LoadTestSpec, OnlineServer, Query, ServingConfig,
    ShedPolicy,
};
use zoomer_core::train::TrainerConfig;
use zoomer_core::{PipelineConfig, ZoomerPipeline};

fn main() {
    let seed = 33;
    println!("== Online serving (Fig 9 protocol) ==");
    let mut pipeline = ZoomerPipeline::new(PipelineConfig {
        data: TaobaoConfig {
            num_users: 300,
            num_queries: 300,
            num_items: 800,
            num_sessions: 2_500,
            ..TaobaoConfig::default_with_seed(seed)
        },
        trainer: TrainerConfig { epochs: 1, ..Default::default() },
        seed,
        ..Default::default()
    });
    let report = pipeline.train();
    println!("trained to AUC {:.3}", report.final_auc);

    // Freeze and stand the server up by hand to show the pieces.
    let requests: Vec<Query> =
        pipeline.data().logs.iter().take(400).map(|l| Query::new(l.user, l.query)).collect();
    let items = pipeline.data().item_nodes();
    let graph = Arc::new(
        zoomer_core::graph::read_snapshot(zoomer_core::graph::write_snapshot(
            &pipeline.data().graph,
        ))
        .expect("graph snapshot roundtrip"),
    );
    let frozen = FrozenModel::from_model(pipeline.model_mut(), &graph);
    let server = OnlineServer::builder()
        .graph(Arc::clone(&graph))
        .frozen(frozen)
        .item_pool(&items)
        .config(ServingConfig { cache_k: 30, top_k: 100, ..Default::default() })
        .seed(seed)
        .build()
        .expect("serving build");

    // Warm caches for the nodes the requests will touch (the paper's
    // asynchronous cache updating, done up front here).
    let warm: Vec<u32> = requests.iter().flat_map(|q| [q.user, q.query]).collect();
    server.warm_cache(&warm).expect("warm cache");
    let entries: usize = server.shards().iter().map(|s| s.cache().len()).sum();
    println!("warmed {entries} cache entries (k = 30)");

    println!("\n{:>8} {:>10} {:>10} {:>10} {:>10}", "QPS", "mean ms", "p50 ms", "p95 ms", "p99 ms");
    for qps in [100.0, 500.0, 1000.0, 2000.0, 5000.0] {
        let report = run_load(&server, &requests, &LoadTestSpec::open(qps).num_threads(4))
            .expect("load run");
        let lat = &report.latency;
        println!(
            "{:>8.0} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            qps, lat.mean_ms, lat.p50_ms, lat.p95_ms, lat.p99_ms
        );
    }
    println!("\ncache hit rate: {:.1}%", server.aggregated_cache_stats().hit_rate() * 100.0);

    // Overload: the same pool offered far past capacity, but through a
    // bounded admission queue with a per-batch deadline armed. The server
    // sheds the excess and degrades instead of queueing without bound —
    // admitted requests stay near the budget, refusals are counted, and
    // nothing blocks or panics.
    println!("\n== Overload (bounded queue, 10 ms deadline) ==");
    let guarded = OnlineServer::builder()
        .graph(Arc::clone(&graph))
        .frozen(FrozenModel::from_model(pipeline.model_mut(), &graph))
        .item_pool(&items)
        .config(ServingConfig {
            cache_k: 30,
            top_k: 100,
            deadline: Some(Duration::from_millis(10)),
            ..Default::default()
        })
        .seed(seed)
        .build()
        .expect("serving build");
    guarded.warm_cache(&warm).expect("warm cache");
    let flood = LoadTestSpec::open(200_000.0)
        .num_threads(4)
        .batch_size(8)
        .queue_capacity(32)
        .shed(ShedPolicy::RejectNew);
    let report = run_load(&guarded, &requests, &flood).expect("overload run");
    println!(
        "offered {} | completed {} | shed {} ({:.1}%) | errors {} | degraded {}",
        report.offered,
        report.completed,
        report.shed,
        report.shed_rate() * 100.0,
        report.errors,
        report.degraded
    );
    println!(
        "admitted latency: p50 {:.3} ms, p99 {:.3} ms (budget 10 ms)",
        report.latency.p50_ms, report.latency.p99_ms
    );

    // Retrieval is pluggable: only the config line changes. The quantized
    // backend stores the scan-side item embeddings as int8 codes (4x smaller
    // than f32), probes the same IVF lists, and re-ranks a
    // `rerank_factor x top_k` shortlist with exact f32 dots — so recall
    // matches the f32 index at equal nprobe while the store that dominates
    // billion-tier memory shrinks 4x.
    println!("\n== Int8-quantized backend ==");
    let quantized = OnlineServer::builder()
        .graph(Arc::clone(&graph))
        .frozen(FrozenModel::from_model(pipeline.model_mut(), &graph))
        .item_pool(&items)
        .config(ServingConfig {
            cache_k: 30,
            top_k: 100,
            backend: BackendKind::Quantized,
            rerank_factor: 4,
            ..Default::default()
        })
        .seed(seed)
        .build()
        .expect("serving build");
    quantized.warm_cache(&warm).expect("warm cache");
    let backend = quantized.shards()[0].backend();
    if let Some(q) = backend.as_quantized() {
        let mem = q.memory_footprint();
        println!(
            "scan store: {} B codes (+{} B params) vs {} B f32 rerank rows ({:.1}x smaller)",
            mem.code_bytes,
            mem.param_bytes,
            mem.rerank_bytes,
            mem.compression_ratio()
        );
    }
    let report = run_load(&quantized, &requests, &LoadTestSpec::open(1000.0).num_threads(4))
        .expect("load run");
    println!(
        "backend {} | 1000 QPS: p50 {:.3} ms, p99 {:.3} ms",
        backend.kind().name(),
        report.latency.p50_ms,
        report.latency.p99_ms
    );

    // Scatter-gather: the same builder, one more config line, and the item
    // pool splits across shard-local indexes whose replies merge by score.
    // Shard 0 ranks on the calling thread, shards 1..3 on two worker
    // threads each; the server keeps the same `handle_batch` contract, so
    // the load harness drives it unchanged. The TCP front door over it is
    // the `zoomer-serve` binary.
    println!("\n== Sharded scatter-gather (4 shards x 2 replicas) ==");
    let sharded = OnlineServer::builder()
        .graph(Arc::clone(&graph))
        .frozen(FrozenModel::from_model(pipeline.model_mut(), &graph))
        .item_pool(&items)
        .config(ServingConfig {
            cache_k: 30,
            top_k: 100,
            sharding: ShardingConfig { num_shards: 4, replicas_per_shard: 2 },
            ..Default::default()
        })
        .seed(seed)
        .build()
        .expect("sharded build");
    sharded.warm_cache(&warm).expect("warm cache");
    let report = run_load(&sharded, &requests, &LoadTestSpec::open(1000.0).num_threads(4))
        .expect("load run");
    println!(
        "{} shards | 1000 QPS: p50 {:.3} ms, p99 {:.3} ms",
        sharded.shards().len(),
        report.latency.p50_ms,
        report.latency.p99_ms
    );
}
