//! Every thread has a bound: once a sharded server is warm, serving creates
//! no thread. The shard workers are the serving parallelism; nothing under
//! `handle_batch` may spawn (no per-frame fork-join in the search, no
//! parallel miss computation).
//!
//! The check samples the process thread count (`Threads:` in
//! `/proc/self/status`) while 1 000 frames of 32 queries are served, so it
//! lives alone in its own test binary: no sibling test can add threads to
//! the count.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::NodeId;
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_serving::{OnlineServer, Query, ServingConfig, ShardingConfig};

/// This process's current thread count, where `/proc` reports one.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

#[test]
fn serving_creates_no_thread_after_warm_up() {
    if threads().is_none() {
        eprintln!("no /proc/self/status on this platform: thread bound not checked");
        return;
    }
    let data = TaobaoData::generate(TaobaoConfig::tiny(23));
    let mut model =
        UnifiedCtrModel::new(ModelConfig::zoomer(11, data.graph.features().dense_dim()));
    let frozen = model.freeze(&data.graph);
    let items = data.item_nodes();
    let pairs: Vec<(NodeId, NodeId)> = data.logs.iter().map(|l| (l.user, l.query)).collect();
    let config = ServingConfig {
        top_k: 10,
        sharding: ShardingConfig { num_shards: 2, replicas_per_shard: 1 },
        ..Default::default()
    };
    let server = OnlineServer::builder()
        .graph(Arc::new(data.graph))
        .frozen(frozen)
        .item_pool(&items)
        .config(config)
        .seed(23)
        .build()
        .expect("sharded build");
    let frame = |f: usize| -> Vec<Query> {
        (0..32)
            .map(|j| {
                let (user, query) = pairs[(f * 32 + j) % pairs.len()];
                Query::new(user, query)
            })
            .collect()
    };

    // Warm-up: set-up calls may use threads of their own; serving may not.
    let nodes: Vec<NodeId> = pairs.iter().flat_map(|&(u, q)| [u, q]).collect();
    server.warm_cache(&nodes).expect("warm");
    for f in 0..8 {
        server.handle_batch(&frame(f)).expect("warm-up frame");
    }

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut max = 0;
            while !stop.load(Ordering::Relaxed) {
                max = max.max(threads().unwrap_or(0));
            }
            max
        })
    };
    let baseline = threads().expect("thread count");
    for f in 0..1_000 {
        server.handle_batch(&frame(f)).expect("serve frame");
    }
    stop.store(true, Ordering::Relaxed);
    let max = sampler.join().expect("sampler");
    let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    eprintln!("threads after warm-up (sampler included): {baseline}; most seen serving: {max}");
    assert!(
        max <= baseline,
        "serving 1000 frames raised the thread count from {baseline} to {max} on {cores} \
         hardware thread(s); on one hardware thread a per-frame split has nothing to split \
         across, so only a spawn that ignores the core count can show here"
    );
}
