//! A dial over the connection cap that never sends must not hold a thread
//! forever. The front door answers an over-cap connection on a short-lived
//! thread; that thread's socket reads and writes time out, so a storm of
//! silent dials costs at most one timeout of threads.
//!
//! The check compares the process thread count (`Threads:` in
//! `/proc/self/status`) before and after the storm, so it lives alone in its
//! own test binary: no sibling test can add threads to the count.

use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::NodeId;
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_serving::{FrontDoor, OnlineServer, Query, ServingConfig, ShardingConfig, WireClient};

/// This process's current thread count, where `/proc` reports one.
fn threads() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status.lines().find_map(|l| l.strip_prefix("Threads:"))?.trim().parse().ok()
}

/// Silent over-cap dials in the storm.
const DIALS: usize = 16;
/// How long the rejected threads may take to go: the front door's ~1 s
/// socket timeout on a rejected connection, plus slack for a busy host.
const WAIT: Duration = Duration::from_secs(6);

#[test]
fn silent_over_cap_dials_do_not_hold_threads() {
    if threads().is_none() {
        eprintln!("no /proc/self/status on this platform: thread bound not checked");
        return;
    }
    let data = TaobaoData::generate(TaobaoConfig::tiny(29));
    let mut model =
        UnifiedCtrModel::new(ModelConfig::zoomer(13, data.graph.features().dense_dim()));
    let frozen = model.freeze(&data.graph);
    let items = data.item_nodes();
    let (user, query): (NodeId, NodeId) = (data.logs[0].user, data.logs[0].query);
    let server = OnlineServer::builder()
        .graph(Arc::new(data.graph))
        .frozen(frozen)
        .item_pool(&items)
        .config(ServingConfig {
            top_k: 10,
            sharding: ShardingConfig { num_shards: 1, replicas_per_shard: 1 },
            ..Default::default()
        })
        .seed(29)
        .build()
        .expect("sharded build");
    let door = Arc::new(FrontDoor::new(Arc::new(server), 0).with_max_conns(1));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let accept_door = Arc::clone(&door);
    std::thread::spawn(move || accept_door.serve(listener));

    // One live client holds the only slot; its handler thread stays up.
    let mut live = WireClient::connect(&addr).expect("dial");
    live.retrieve(&[Query::new(user, query)], 0).expect("live client is served");
    assert_eq!(door.active_connections(), 1);
    let baseline = threads().expect("thread count");

    let silent: Vec<TcpStream> =
        (0..DIALS).map(|_| TcpStream::connect(&addr).expect("over-cap dial")).collect();
    let rejected = || door.server().metrics_snapshot().counter("serve.frontdoor.conn_rejected");
    let start = Instant::now();
    while rejected() < Some(DIALS as u64) {
        assert!(start.elapsed() < WAIT, "the accept loop did not take the {DIALS} dials");
        std::thread::sleep(Duration::from_millis(5));
    }
    let peak = threads().expect("thread count");
    let mut now = peak;
    while now > baseline && start.elapsed() < WAIT {
        std::thread::sleep(Duration::from_millis(50));
        now = threads().expect("thread count");
    }
    eprintln!("threads: {baseline} before the storm, {peak} after the dials, {now} at the end");
    assert!(
        now <= baseline,
        "{DIALS} silent over-cap dials still hold {} thread(s) after {:?}",
        now - baseline,
        start.elapsed()
    );

    // The live client was never disturbed.
    live.retrieve(&[Query::new(user, query)], 0).expect("live client still served");
    drop(silent);
}
