//! Thread accounting: a server with N shards × R replicas starts exactly
//! (N − 1)·R threads — shard 0 ranks on the calling thread, so N = 1 starts
//! none — and dropping it joins them all.
//!
//! The check reads the process thread count (`Threads:` in
//! `/proc/self/status`) around each build, so it lives alone in its own
//! test binary: no sibling test can add threads to the count.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_serving::{OnlineServer, ServingConfig, ShardingConfig};

/// This process's current thread count, where `/proc` reports one.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// Poll until the thread count is back to `want`: a joined thread leaves
/// the count a moment after `join` returns.
fn settles_to(want: usize) -> bool {
    let started = Instant::now();
    while started.elapsed() < Duration::from_secs(2) {
        if threads() == Some(want) {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    false
}

#[test]
fn only_shards_after_the_first_start_worker_threads() {
    if threads().is_none() {
        eprintln!("no /proc/self/status on this platform: thread accounting not checked");
        return;
    }
    let data = TaobaoData::generate(TaobaoConfig::tiny(29));
    let mut model =
        UnifiedCtrModel::new(ModelConfig::zoomer(11, data.graph.features().dense_dim()));
    let frozen = model.freeze(&data.graph);
    let items = data.item_nodes();
    let graph = Arc::new(data.graph);
    let build = |num_shards: usize, replicas_per_shard: usize| {
        OnlineServer::builder()
            .graph(Arc::clone(&graph))
            .frozen(frozen.clone())
            .item_pool(&items)
            .config(ServingConfig {
                top_k: 10,
                sharding: ShardingConfig { num_shards, replicas_per_shard },
                ..Default::default()
            })
            .seed(29)
            .build()
            .expect("build")
    };
    // The first build starts the set-up thread pool that ranks postings in
    // parallel; count from after it.
    drop(build(1, 1));
    for (num_shards, replicas) in [(1, 1), (1, 3), (2, 1), (2, 2), (3, 2), (4, 1)] {
        let before = threads().expect("thread count");
        let server = build(num_shards, replicas);
        let added = threads().expect("thread count") as i64 - before as i64;
        assert_eq!(
            added,
            ((num_shards - 1) * replicas) as i64,
            "{num_shards} shards × {replicas} replicas started {added} threads"
        );
        drop(server);
        assert!(
            settles_to(before),
            "dropping the {num_shards} × {replicas} server left {:?} threads, not {before}",
            threads()
        );
    }
}
