//! Front-door integration suite: real loopback TCP through the length-
//! prefixed wire protocol into a live sharded [`OnlineServer`] (wired into
//! `ci.sh`).
//!
//! Covers the acceptance criterion end-to-end: a noisy tenant offering 5×
//! its fair share cannot push a well-behaved tenant's shed rate above 5% —
//! measured through the socket, not by poking the gate directly.

use std::net::TcpListener;
use std::sync::{Arc, OnceLock};

use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::{HeteroGraph, NodeId};
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_serving::wire::write_frame;
use zoomer_serving::{
    BackendKind, FrontDoor, FrozenModel, OnlineServer, Query, ResponseStatus, ServingConfig,
    ShardingConfig, WireClient, WireError, MAX_TOP_K,
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
        let data = TaobaoData::generate(TaobaoConfig::tiny(71));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(23, dd));
        let frozen = model.freeze(&data.graph);
        let pool = data.item_nodes();
        let logs: Vec<(NodeId, NodeId)> =
            data.logs.iter().take(60).map(|l| (l.user, l.query)).collect();
        assert!(!logs.is_empty());
        Fixture { graph: Arc::new(data.graph), frozen, pool, logs }
    })
}

/// A sharded server behind a listening front door; returns the door and
/// the address to dial. The accept loop runs on a leaked thread — it ends
/// when the test process does.
fn front_door(tenant_capacity: usize) -> (Arc<FrontDoor>, String) {
    front_door_with(tenant_capacity, 0)
}

/// As [`front_door`], with a concurrent-connection cap (0 = unlimited).
fn front_door_with(tenant_capacity: usize, max_conns: usize) -> (Arc<FrontDoor>, String) {
    let fix = fixture();
    let builder = OnlineServer::builder()
        .graph(Arc::clone(&fix.graph))
        .frozen(fix.frozen.clone())
        .item_pool(&fix.pool)
        .config(ServingConfig {
            top_k: 10,
            backend: BackendKind::Ivf,
            sharding: ShardingConfig { num_shards: 2, replicas_per_shard: 2 },
            ..Default::default()
        })
        .seed(71);
    let server = Arc::new(builder.build().expect("sharded build"));
    let door = Arc::new(FrontDoor::new(server, tenant_capacity).with_max_conns(max_conns));
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("local addr").to_string();
    let accept_door = Arc::clone(&door);
    std::thread::spawn(move || accept_door.serve(listener));
    (door, addr)
}

fn query(i: usize, tenant: u32) -> Query {
    let logs = &fixture().logs;
    let (user, q) = logs[i % logs.len()];
    Query::new(user, q).with_tenant(tenant)
}

/// Loopback smoke: what comes back through the socket is exactly what the
/// sharded server answers in-process.
#[test]
fn tcp_round_trip_matches_in_process_serving() {
    let (door, addr) = front_door(0);
    let mut client = WireClient::connect(&addr).expect("connect");
    let queries: Vec<Query> = (0..6).map(|i| query(i, 1)).collect();
    let rows = client.retrieve(&queries, 0).expect("retrieve");
    let direct = door.server().handle_batch(&queries).expect("direct serve");
    assert_eq!(rows.len(), queries.len());
    for (row, want) in rows.iter().zip(&direct) {
        assert_eq!(row.status, ResponseStatus::Ok);
        assert_eq!(&row.retrieval, want, "socket answer diverged from in-process answer");
    }
}

/// One connection serves many frames; a batch after a batch still answers.
#[test]
fn connection_serves_multiple_frames() {
    let (_door, addr) = front_door(0);
    let mut client = WireClient::connect(&addr).expect("connect");
    for round in 0..5 {
        let queries: Vec<Query> = (0..3).map(|i| query(round * 3 + i, 2)).collect();
        let rows = client.retrieve(&queries, 0).expect("retrieve");
        assert_eq!(rows.len(), 3, "round {round} lost rows");
    }
}

/// A malformed frame costs an error reply, not the connection: the same
/// stream serves a well-formed request immediately after.
#[test]
fn malformed_frame_keeps_the_connection_alive() {
    use std::io::Write as _;
    use std::net::TcpStream;
    let (_door, addr) = front_door(0);
    let mut stream = TcpStream::connect(&addr).expect("connect");
    // A framed payload of garbage: the length prefix parses, the body does
    // not decode as a request.
    write_frame(&mut stream, &[0xDE, 0xAD, 0xBE, 0xEF]).expect("write garbage frame");
    stream.flush().expect("flush");
    let reply =
        zoomer_serving::wire::read_frame(&mut stream).expect("read").expect("an error frame");
    match zoomer_serving::wire::decode_response(&reply) {
        Err(zoomer_serving::WireError::Remote(msg)) => {
            assert!(!msg.is_empty(), "error frame must carry a message");
        }
        other => panic!("expected a remote error frame, got {other:?}"),
    }
    // Connection is still usable: a well-formed request right after.
    let request = zoomer_serving::RequestFrame { deadline_us: 0, queries: vec![query(0, 3)] };
    write_frame(&mut stream, &zoomer_serving::wire::encode_request(&request))
        .expect("write after garbage");
    let reply =
        zoomer_serving::wire::read_frame(&mut stream).expect("read").expect("a response frame");
    let frame = zoomer_serving::wire::decode_response(&reply).expect("decode after garbage");
    assert_eq!(frame.rows.len(), 1);
    assert_eq!(frame.rows[0].status, ResponseStatus::Ok);
}

/// `top_k` is a raw `u32` on the wire. One past [`MAX_TOP_K`] costs its
/// batch a typed error frame — not an exact scan of every partition and a
/// reply carrying the whole pool — and the same connection serves the next
/// frame, the bound itself included.
#[test]
fn oversized_top_k_is_rejected_and_the_connection_keeps_serving() {
    let (door, addr) = front_door(0);
    let mut client = WireClient::connect(&addr).expect("connect");
    let greedy = [query(0, 1), query(1, 1).with_top_k(u32::MAX)];
    match client.retrieve(&greedy, 0) {
        Err(WireError::Remote(msg)) => assert!(msg.contains("top_k"), "untyped rejection: {msg}"),
        other => panic!("an unbounded top_k must be rejected, got {other:?}"),
    }
    let snap = door.server().metrics_snapshot();
    assert_eq!(snap.counter("serve.batches"), Some(0), "a rejected batch is never admitted");

    let rows =
        client.retrieve(&[query(0, 1), query(1, 1).with_top_k(MAX_TOP_K)], 0).expect("next frame");
    assert_eq!(rows.len(), 2);
    for row in &rows {
        assert_eq!(row.status, ResponseStatus::Ok);
        assert!(!row.retrieval.items.is_empty());
    }
    assert!(rows[1].retrieval.items.len() <= fixture().pool.len());
}

/// The acceptance criterion, through the socket: a noisy tenant at 5× its
/// fair share cannot push a well-behaved tenant's shed rate above 5%.
#[test]
fn noisy_tenant_cannot_starve_fair_tenant_over_tcp() {
    const NOISY: u32 = 10;
    const FAIR: u32 = 20;
    let (door, addr) = front_door(40);
    let mut client = WireClient::connect(&addr).expect("connect");
    let mut fair_offered = 0u32;
    let mut fair_shed = 0u32;
    let mut noisy_shed = 0u32;
    for round in 0..200usize {
        // 5 noisy arrivals per fair arrival: 5× share vs 0.5× share.
        let mut batch: Vec<Query> = (0..5).map(|i| query(round * 5 + i, NOISY)).collect();
        if round % 2 == 0 {
            batch.push(query(round, FAIR));
            fair_offered += 1;
        }
        let rows = client.retrieve(&batch, 0).expect("retrieve");
        for (q, row) in batch.iter().zip(&rows) {
            if row.status == ResponseStatus::Shed {
                if q.tenant == FAIR {
                    fair_shed += 1;
                } else {
                    noisy_shed += 1;
                }
                assert!(row.retrieval.degraded, "shed rows are flagged degraded");
                assert!(row.retrieval.items.is_empty(), "shed rows carry no items");
            }
        }
    }
    let fair_rate = f64::from(fair_shed) / f64::from(fair_offered);
    assert!(
        fair_rate < 0.05,
        "well-behaved tenant shed {:.1}% over TCP (shed {fair_shed}/{fair_offered})",
        fair_rate * 100.0
    );
    assert!(noisy_shed > 0, "the noisy tenant must actually be shed");
    let snap = door.server().metrics_snapshot();
    assert_eq!(
        snap.counter("serve.tenant.shed").unwrap_or(0),
        u64::from(fair_shed + noisy_shed),
        "gate counters must match observed shed rows"
    );
}

/// Connections beyond `max_conns` get a typed rejection — every row
/// `ResponseStatus::Rejected`, then the stream closes — counted as
/// `serve.frontdoor.conn_rejected`; the slot frees once an in-cap
/// connection hangs up.
#[test]
fn over_cap_connection_is_rejected_with_typed_status() {
    use std::time::{Duration, Instant};
    let (door, addr) = front_door_with(0, 1);
    // Occupy the single slot and prove it serves.
    let mut first = WireClient::connect(&addr).expect("connect first");
    let rows = first.retrieve(&[query(0, 1)], 0).expect("first retrieve");
    assert_eq!(rows[0].status, ResponseStatus::Ok);

    // The next connection is over the cap: its first request is answered
    // all-Rejected, row for row, and then the connection closes.
    let mut second = WireClient::connect(&addr).expect("connect second");
    let batch: Vec<Query> = (0..3).map(|i| query(i, 2)).collect();
    let rows = second.retrieve(&batch, 0).expect("rejected reply");
    assert_eq!(rows.len(), batch.len());
    for row in &rows {
        assert_eq!(row.status, ResponseStatus::Rejected);
        assert!(row.retrieval.items.is_empty(), "rejected rows carry no items");
        assert!(row.retrieval.degraded, "rejected rows are flagged degraded");
    }
    assert!(second.retrieve(&batch, 0).is_err(), "rejected connection must be closed");
    let snap = door.server().metrics_snapshot();
    assert_eq!(snap.counter("serve.frontdoor.conn_rejected"), Some(1));

    // Hanging up the in-cap connection frees the slot for new dials.
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut retry = WireClient::connect(&addr).expect("reconnect");
        if let Ok(rows) = retry.retrieve(&[query(1, 1)], 0) {
            if rows[0].status == ResponseStatus::Ok {
                break;
            }
        }
        assert!(Instant::now() < deadline, "connection slot never freed after hangup");
        std::thread::sleep(Duration::from_millis(10));
    }
}
