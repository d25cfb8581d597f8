//! The serving workloads: `WireClient` (4 connections) → loopback TCP →
//! `FrontDoor` → `ShardedServer` (2 shards × 1 replica) → per-shard
//! `OnlineServer`.
//!
//! An untraced run is set-up → open phase → closed phase → verify, and
//! prints the end-to-end metrics. A traced run keeps short open and closed
//! phases (for the load-generator and tracing-overhead numbers) and spends
//! the rest on *stage replay*: level A times `WireClient::retrieve`, level B
//! `ShardedServer::handle_batch`, level C the stages one by one, each level
//! on its own frames (frame *i* mod 3) of one generator.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hint::black_box;
use std::net::{TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use zoomer_data::TaobaoData;
use zoomer_graph::{shard_of_node, NodeId, Query, ShardingConfig};
use zoomer_model::{neutral_topk_neighbors, CtrModel, FrozenModel, ModelConfig, UnifiedCtrModel};
use zoomer_obs::{MetricsRegistry, Snapshot};
use zoomer_serving::topk::top_k_desc;
use zoomer_serving::wire::{
    decode_request, decode_response, encode_request, encode_response, RequestFrame, ResponseFrame,
};
use zoomer_serving::{
    BackendKind, FrontDoor, OnlineServer, ResponseRow, SearchBackend, ServingConfig, ShardedServer,
    WireClient,
};

use crate::check::{RowChecker, Tally};
use crate::gen::{FrameGen, Popularity, SessionSet};
use crate::loadgen::{
    closed_loop, closed_rps, open_loop, ClosedResult, OpenResult, OpenSchedule, OpenSummary,
};
use crate::metrics::{Metrics, PER_LAYER};
use crate::probe::{rss_mib, tensor_micro, time_reps};
use crate::scale::{Scale, MODEL_SEED};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::RunOutcome;

/// Load comes from four client threads over four connections. With two (one
/// per core) at most two single-query frames were in flight, the cores went
/// idle between the hand-offs of a frame, and the closed loop of
/// `serve_hot_single` ran in one of two regimes from run to run — 6 500–7 000
/// or 10 500–12 000 frames/s, a ten-run spread of 0.42. With four the cores
/// stay busy: 11 300–12 600 in ten runs out of ten, spread 0.05.
const CONNECTIONS: usize = 4;

/// Set-ups timed per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

pub struct ServeSpec {
    pub name: &'static str,
    backend: BackendKind,
    /// Queries per frame.
    batch: usize,
    /// Uniform over every session with a small cache and no pre-warm,
    /// instead of Zipf over a pre-warmed hot set.
    churn: bool,
    /// Open-loop frame rate, pinned once below half the closed-loop frame
    /// rate of the seed commit (2 significant figures; the ratios to the
    /// committed seed sets are in `results/seed.json`). Never derived at run
    /// time: a faster server must show as lower latency at the same offered
    /// load.
    open_fps: f64,
}

/// A run whose recall@10 is below this fails its output check. On the seed
/// commit recall is 0.6912 on all four workloads (the quantized backend
/// reranks its shortlist exactly); the floor is that minus 0.005.
const RECALL_FLOOR: f64 = 0.6862;

pub const WORKLOADS: [ServeSpec; 4] = [
    ServeSpec {
        name: "serve_hot_batch",
        backend: BackendKind::Ivf,
        batch: 32,
        churn: false,
        // 0.44 × (19 600 rows/s ÷ 32)
        open_fps: 270.0,
    },
    ServeSpec {
        name: "serve_hot_single",
        backend: BackendKind::Ivf,
        batch: 1,
        churn: false,
        // 0.25 × 12 000 frames/s. Lower than the others: a frame is one
        // short request, so in the open loop each pays a timer wake-up the
        // closed loop never does, and a synchronous connection's open-loop
        // capacity is well below its closed-loop rate. At 5 300 the
        // connections sat at the queueing knee, where a host 12 % slower
        // showed as p50 +18 %. At 4 300 (a frame every 233 µs against a
        // 250 µs round trip) a frame slower than the median was still out
        // when the next one was due, and the ten-run spread of p90 was 12 %
        // in two clusters; at 3 000 (every 333 µs) it was 7 %. The 32-query
        // workloads leave the same room between frames.
        open_fps: 3000.0,
    },
    ServeSpec {
        name: "serve_quant_batch",
        backend: BackendKind::Quantized,
        batch: 32,
        churn: false,
        // 0.44 × (13 200 rows/s ÷ 32)
        open_fps: 180.0,
    },
    ServeSpec {
        name: "serve_churn",
        backend: BackendKind::Ivf,
        batch: 32,
        churn: true,
        // 0.45 × (16 400 rows/s ÷ 32)
        open_fps: 230.0,
    },
];

impl ServeSpec {
    /// `ServingConfig::default()` as `zoomer-serve` ships it, with the
    /// values the workloads depend on spelled out so a changed default
    /// cannot silently change the benchmark.
    fn config(&self, scale: &Scale) -> ServingConfig {
        let defaults = ServingConfig::default();
        ServingConfig {
            cache_k: 30,
            top_k: 100,
            backend: self.backend,
            nprobe: 4,
            nlist: 32,
            disable_cache: false,
            deadline: None,
            cache_capacity: if self.churn { scale.churn_capacity } else { defaults.cache_capacity },
            sharding: ShardingConfig { num_shards: 2, replicas_per_shard: 1 },
            ..defaults
        }
    }

    fn popularity(&self, scale: &Scale) -> Popularity {
        if self.churn {
            Popularity::Uniform
        } else {
            Popularity::Zipf { hot: scale.hot_sessions, exponent: 1.1 }
        }
    }
}

/// What a serving node starts from, generated once per run.
struct Fixture {
    frozen: FrozenModel,
    sessions: Vec<(NodeId, NodeId)>,
    items: Vec<NodeId>,
    num_nodes: usize,
    generate_s: f64,
    freeze_s: f64,
}

impl Fixture {
    fn generate(scale: &Scale) -> (Fixture, Bytes) {
        let t = Instant::now();
        let data = TaobaoData::generate(scale.serve_data.clone());
        let generate_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let dense_dim = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(MODEL_SEED, dense_dim));
        let frozen = model.freeze(&data.graph);
        let freeze_s = t.elapsed().as_secs_f64();
        let snapshot = zoomer_graph::write_snapshot(&data.graph);
        let fixture = Fixture {
            frozen,
            sessions: data.logs.iter().map(|l| (l.user, l.query)).collect(),
            items: data.item_nodes(),
            num_nodes: data.graph.num_nodes(),
            generate_s,
            freeze_s,
        };
        // `data` (graph, logs, ground truth) is generator state: dropped
        // here so it is not in the node's resident set.
        (fixture, snapshot)
    }
}

/// A serving node: sharded server, front door, accept thread.
struct Node {
    server: Arc<ShardedServer>,
    door: Arc<FrontDoor>,
    listener: TcpListener,
    accept: JoinHandle<()>,
    addr: String,
    build_s: f64,
}

impl Node {
    fn start(
        snapshot: Bytes,
        frozen: FrozenModel,
        items: &[NodeId],
        config: ServingConfig,
    ) -> Result<Node, String> {
        let t = Instant::now();
        let builder = OnlineServer::builder()
            .graph_snapshot(snapshot)
            .frozen(frozen)
            .item_pool(items)
            .config(config)
            .seed(MODEL_SEED)
            .metrics(Arc::new(MetricsRegistry::enabled()));
        let server =
            Arc::new(ShardedServer::build(builder).map_err(|e| format!("build server: {e}"))?);
        let build_s = t.elapsed().as_secs_f64();
        // Tenant gate off, connection cap at its default — as shipped.
        let door = Arc::new(FrontDoor::new(Arc::clone(&server), 0));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?.to_string();
        let accepting = listener.try_clone().map_err(|e| format!("clone listener: {e}"))?;
        let accept_door = Arc::clone(&door);
        let accept = std::thread::spawn(move || accept_door.serve(accepting));
        Ok(Node { server, door, listener, accept, addr, build_s })
    }

    /// Stop the accept loop and the shard workers and wait for them.
    /// `FrontDoor::serve` has no stop switch: it leaves its loop on the
    /// first accept error, so the shared listening socket is made
    /// non-blocking and one throw-away connection wakes the blocked accept.
    fn shutdown(self) {
        let _ = self.listener.set_nonblocking(true);
        drop(TcpStream::connect(&self.addr));
        let _ = self.accept.join();
        let waited = Instant::now();
        while self.door.active_connections() > 0 && waited.elapsed() < Duration::from_secs(2) {
            std::thread::sleep(Duration::from_millis(1));
        }
        // Dropping the last handle joins the shard workers.
        drop(self.door);
        drop(self.server);
    }
}

/// Cold start of a serving node, timed: snapshot bytes and frozen model in
/// hand → `ShardedServer::build` → front door bound → warm → first correct
/// reply.
fn timed_setup(plan: &Plan, snapshot: Bytes) -> Result<(Node, f64), String> {
    let frozen = plan.fixture.frozen.clone();
    let t = Instant::now();
    let node = Node::start(snapshot, frozen, &plan.fixture.items, plan.config)?;
    node.server.warm_cache(&plan.warm).map_err(|e| format!("warm: {e}"))?;
    let mut client = WireClient::connect(&node.addr).map_err(|e| format!("dial: {e}"))?;
    let reply = client.retrieve(&plan.probe, 0);
    let setup_s = t.elapsed().as_secs_f64();
    let mut tally = Tally::default();
    plan.checker().check(&plan.probe, &reply, &mut tally);
    if tally.failed > 0 {
        return Err(format!("first reply after set-up failed its output check: {reply:?}"));
    }
    Ok((node, setup_s))
}

/// Phase lengths of one run.
struct Phases {
    open: Duration,
    closed: Duration,
    /// A second closed phase with span recording on (traced runs only).
    traced_closed: Duration,
}

struct ConnResult {
    open: OpenResult,
    closed: ClosedResult,
    traced: ClosedResult,
    tracer: Tracer,
}

/// Everything a run derives from `(workload, scale, seed)` before a node
/// exists.
struct Plan<'a> {
    spec: &'a ServeSpec,
    scale: &'a Scale,
    seed: u64,
    origin: Instant,
    fixture: Fixture,
    config: ServingConfig,
    set: Arc<SessionSet>,
    /// Nodes pre-warmed into the cache (none on `serve_churn`).
    warm: Vec<NodeId>,
    /// The frame whose correct reply ends a set-up.
    probe: Vec<Query>,
}

impl<'a> Plan<'a> {
    fn new(spec: &'a ServeSpec, scale: &'a Scale, seed: u64) -> (Self, Bytes) {
        let origin = Instant::now();
        let (fixture, snapshot) = Fixture::generate(scale);
        let set = SessionSet::new(&fixture.sessions, spec.popularity(scale), seed);
        let plan = Plan {
            spec,
            scale,
            seed,
            origin,
            config: spec.config(scale),
            warm: if spec.churn { Vec::new() } else { set.nodes() },
            probe: FrameGen::new(&set, spec.batch, seed, "probe").next_frame(),
            set,
            fixture,
        };
        (plan, snapshot)
    }

    fn frames(&self, stream: &str) -> FrameGen {
        FrameGen::new(&self.set, self.spec.batch, self.seed, stream)
    }

    fn checker(&self) -> RowChecker {
        let items = &self.fixture.items;
        RowChecker::new(items[0], self.fixture.num_nodes, self.config.top_k.min(items.len()))
    }
}

/// Drive every phase over `CONNECTIONS` connections, one thread each.
fn drive(plan: &Plan, node: &Node, phases: &Phases) -> Result<Vec<ConnResult>, String> {
    let Plan { spec, origin, .. } = *plan;
    let barrier = Barrier::new(CONNECTIONS);
    let mut clients = Vec::new();
    for _ in 0..CONNECTIONS {
        clients.push(WireClient::connect(&node.addr).map_err(|e| format!("dial: {e}"))?);
    }
    // Every connection's schedule counts from one shared instant.
    let start = Instant::now() + Duration::from_millis(20);
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .into_iter()
            .enumerate()
            .map(|(conn, mut client)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut checker = plan.checker();
                    let mut gen = plan.frames(&format!("conn-{conn}"));
                    let schedule = OpenSchedule::for_connection(
                        start,
                        spec.open_fps,
                        phases.open,
                        conn,
                        CONNECTIONS,
                    );
                    let open = open_loop(&mut client, &mut gen, &mut checker, &schedule);
                    barrier.wait();
                    let closed =
                        closed_loop(&mut client, &mut gen, &mut checker, phases.closed, None);
                    barrier.wait();
                    let mut tracer = Tracer::new(origin);
                    let traced = if phases.traced_closed.is_zero() {
                        ClosedResult::default()
                    } else {
                        let first_id = (conn as u64 + 1) << 32;
                        closed_loop(
                            &mut client,
                            &mut gen,
                            &mut checker,
                            phases.traced_closed,
                            Some((&mut tracer, first_id)),
                        )
                    };
                    ConnResult { open, closed, traced, tracer }
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join()).collect::<Vec<_>>()
    });
    results.into_iter().map(|r| r.map_err(|_| "a load thread panicked".to_string())).collect()
}

/// recall@10 of the served answer against an exact scan of the full pool
/// with the same request embedding, on the dataset's first sessions (the
/// same queries for every seed).
fn recall_at_10(plan: &Plan, node: &Node) -> Result<f64, String> {
    let Plan { fixture, scale, .. } = plan;
    let server = &node.server;
    let cache_k = server.config().cache_k;
    let queries: Vec<Query> = fixture
        .sessions
        .iter()
        .take(scale.recall_queries)
        .map(|&(u, q)| Query::new(u, q))
        .collect();
    let mut hits = 0usize;
    for chunk in queries.chunks(32) {
        let served = server.handle_batch(chunk).map_err(|e| format!("recall serve: {e}"))?;
        let neighbors: Vec<(Vec<NodeId>, Vec<NodeId>)> = chunk
            .iter()
            .map(|q| {
                (
                    neutral_topk_neighbors(server.graph(), q.user, cache_k),
                    neutral_topk_neighbors(server.graph(), q.query, cache_k),
                )
            })
            .collect();
        let slices: Vec<(&[NodeId], &[NodeId])> =
            neighbors.iter().map(|(u, q)| (u.as_slice(), q.as_slice())).collect();
        let uq = fixture.frozen.embed_requests(server.graph(), chunk, &slices);
        for (i, answer) in served.iter().enumerate() {
            let mut exact = Vec::new();
            for shard in server.shards() {
                exact.extend(
                    shard
                        .backend()
                        .exact_search(uq.row(i), 10)
                        .map_err(|e| format!("exact scan: {e}"))?,
                );
            }
            let exact: HashSet<u64> = top_k_desc(exact, 10).into_iter().map(|(id, _)| id).collect();
            hits +=
                answer.items.iter().take(10).filter(|&&id| exact.contains(&(id as u64))).count();
        }
    }
    Ok(hits as f64 / (10 * queries.len()) as f64)
}

/// The `zoomer-serve --smoke` invariant under load: frames answered over
/// the wire must be row-identical to `ShardedServer::handle_batch`
/// in-process. Returns the rows that differed.
fn wire_equality(plan: &Plan, node: &Node, tally: &mut Tally) -> Result<u64, String> {
    let mut client = WireClient::connect(&node.addr).map_err(|e| format!("dial: {e}"))?;
    let mut checker = plan.checker();
    let mut gen = plan.frames("verify");
    let mut differing = 0u64;
    for _ in 0..plan.scale.equality_frames {
        let frame = gen.next_frame();
        let reply = client.retrieve(&frame, 0);
        checker.check(&frame, &reply, tally);
        let direct = node.server.handle_batch(&frame).map_err(|e| format!("direct serve: {e}"))?;
        match &reply {
            Ok(rows) if rows.len() == direct.len() => {
                differing +=
                    rows.iter().zip(&direct).filter(|(row, want)| &row.retrieval != *want).count()
                        as u64;
            }
            _ => differing += frame.len() as u64,
        }
    }
    Ok(differing)
}

fn split(seconds: f64, share: f64) -> Duration {
    Duration::from_secs_f64(seconds * share)
}

/// The end-to-end run: tracing off.
pub fn run(spec: &ServeSpec, scale: &Scale, seed: u64, seconds: f64) -> Result<RunOutcome, String> {
    let (plan, snapshot) = Plan::new(spec, scale, seed);
    let mut setups = Vec::new();
    let (node, setup_s) = timed_setup(&plan, snapshot)?;
    setups.push(setup_s);

    let phases = Phases {
        open: split(seconds, 2.0 / 3.0),
        closed: split(seconds, 1.0 / 3.0),
        traced_closed: Duration::ZERO,
    };
    let conns = drive(&plan, &node, &phases)?;
    // The load threads, their generators and their clients are gone: what
    // is resident now is the node plus the fixture it was started from.
    let rss_mb = rss_mib();

    let mut tally = Tally::default();
    for c in &conns {
        tally.add(&c.open.tally);
        tally.add(&c.closed.tally);
    }
    let opens: Vec<&OpenResult> = conns.iter().map(|c| &c.open).collect();
    let open = OpenSummary::of(&opens, spec.open_fps, phases.open);
    let throughput_rps = closed_rps(conns.iter().map(|c| &c.closed), phases.closed);
    drop(conns);

    let recall = recall_at_10(&plan, &node)?;
    let differing = wire_equality(&plan, &node, &mut tally)?;
    let replies_lost =
        node.server.metrics_snapshot().counter("serve.shard.replies_lost").unwrap_or(0);

    // The remaining set-ups run last, so the resident set above is that of
    // one node and not of the allocator's leftovers from earlier ones.
    let snapshot = zoomer_graph::write_snapshot(node.server.graph());
    node.shutdown();
    while setups.len() < SETUPS {
        let (node, setup_s) = timed_setup(&plan, snapshot.clone())?;
        setups.push(setup_s);
        node.shutdown();
    }

    let mut m = Metrics::default();
    m.set("p50_ms", open.latency_ms(0.5));
    m.set("p90_ms", open.latency_ms(0.9));
    m.set("throughput_rps", throughput_rps);
    m.set("ok_share", 1.0 - tally.failed as f64 / tally.attempted.max(1) as f64);
    m.set("full_quality_share", 1.0 - tally.degraded as f64 / tally.ok.max(1) as f64);
    m.set("quality", recall);
    m.set("rss_mb", rss_mb);
    m.set("setup_s", median(&setups));

    open.log(spec.name);
    eprintln!(
        "{}: rows attempted {} ok {} failed {} degraded {}; recall@10 {recall:.4}; set-ups {setups:?} s",
        spec.name, tally.attempted, tally.ok, tally.failed, tally.degraded
    );

    let mut problems = Vec::new();
    problems.extend(open.invalid());
    if tally.failed > 0 {
        problems.push(format!("{} of {} rows failed", tally.failed, tally.attempted));
    }
    if differing > 0 {
        problems.push(format!("{differing} wire rows differ from the in-process answer"));
    }
    if replies_lost > 0 {
        problems.push(format!("{replies_lost} shard replies lost"));
    }
    if scale.quality_floors && recall < RECALL_FLOOR {
        problems.push(format!("recall@10 {recall:.4} below the floor {RECALL_FLOOR}"));
    }
    Ok(RunOutcome { metrics: m, attempted: tally.attempted, failed: tally.failed, problems })
}

/// Samples of one replayed quantity, by metric name.
#[derive(Default)]
struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    fn median(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |v| median(v))
    }
}

struct Replay<'a> {
    node: &'a Node,
    frozen: &'a FrozenModel,
    /// The same model and configuration without sharding, for the cost the
    /// scatter-gather tier adds.
    unsharded: &'a OnlineServer,
    client: WireClient,
    checker: RowChecker,
    tracer: Tracer,
    samples: Samples,
    tally: Tally,
    queries: u64,
}

impl Replay<'_> {
    /// Level A: one frame over the wire, then its codec stages on the very
    /// bytes that travelled.
    fn level_a(&mut self, frame: &[Query], id: u64) {
        let span = self.tracer.begin("frontdoor.roundtrip", None, id);
        let reply = self.client.retrieve(frame, 0);
        let us = self.tracer.end(span);
        self.samples.push("frontdoor.roundtrip_us", us);
        self.checker.check(frame, &reply, &mut self.tally);
        let Ok(rows) = reply else { return };
        const REPS: usize = 8;
        let request = RequestFrame { deadline_us: 0, queries: frame.to_vec() };
        let (request_bytes, us) = time_reps(REPS, || encode_request(black_box(&request)));
        self.samples.push("wire.encode_request_us", us);
        let (_, us) = time_reps(REPS, || decode_request(black_box(&request_bytes)));
        self.samples.push("wire.decode_request_us", us);
        let response = ResponseFrame { rows };
        let (response_bytes, us) = time_reps(REPS, || encode_response(black_box(&response)));
        self.samples.push("wire.encode_response_us", us);
        let (_, us) = time_reps(REPS, || decode_response(black_box(&response_bytes)));
        self.samples.push("wire.decode_response_us", us);
        // Payload plus the 4-byte length prefix.
        self.samples.push("wire.request_bytes", (request_bytes.len() + 4) as f64);
        self.samples.push("wire.response_bytes", (response_bytes.len() + 4) as f64);
    }

    /// Level B: the same kind of frame straight into the router, and into
    /// the unsharded server.
    fn level_b(&mut self, frame: &[Query], id: u64) -> Result<(), String> {
        let span = self.tracer.begin("sharded.handle_batch", None, id);
        let rows = self.node.server.handle_batch(frame);
        let us = self.tracer.end(span);
        self.samples.push("sharded.handle_batch_us", us);
        let reply = rows
            .map(|rows| {
                rows.into_iter()
                    .map(|retrieval| ResponseRow {
                        status: zoomer_serving::ResponseStatus::Ok,
                        retrieval,
                    })
                    .collect()
            })
            .map_err(|e| zoomer_serving::WireError::Remote(e.to_string()));
        self.checker.check(frame, &reply, &mut self.tally);
        let span = self.tracer.begin("server.handle_batch", None, id);
        let rows = self.unsharded.handle_batch(frame);
        let us = self.tracer.end(span);
        self.samples.push("server.handle_batch_us", us);
        rows.map(|_| ()).map_err(|e| format!("unsharded serve: {e}"))
    }

    /// Level C: the router's stages one by one, through each layer's public
    /// functions, in the order `ShardedServer::handle_batch_scored` runs
    /// them. Shards are searched one after the other here; the router
    /// searches them in parallel, so its blocking path holds only the
    /// slowest shard.
    fn level_c(&mut self, frame: &[Query], id: u64) -> Result<(), String> {
        let server = &self.node.server;
        let shards = server.shards();
        let config = server.config();
        let parent = self.tracer.begin("stage_replay", None, id);

        let mut owned: Vec<Vec<NodeId>> = vec![Vec::new(); shards.len()];
        let mut seen = HashSet::new();
        for q in frame {
            for n in [q.user, q.query] {
                if seen.insert(n) {
                    owned[shard_of_node(n, shards.len())].push(n);
                }
            }
        }
        let span = self.tracer.begin("cache.get_many", Some(parent), id);
        let found: Vec<_> =
            shards.iter().zip(&owned).map(|(s, nodes)| s.cache().get_many(nodes)).collect();
        let get_us = self.tracer.end(span);

        let span = self.tracer.begin("graph.neutral_topk", Some(parent), id);
        let computed: Vec<Vec<(NodeId, Vec<NodeId>)>> = owned
            .iter()
            .zip(&found)
            .map(|(nodes, hits)| {
                nodes
                    .iter()
                    .zip(hits)
                    .filter(|(_, hit)| hit.is_none())
                    .map(|(&n, _)| (n, neutral_topk_neighbors(server.graph(), n, config.cache_k)))
                    .collect()
            })
            .collect();
        let neutral_us = self.tracer.end(span);

        let mut resolved: HashMap<NodeId, Arc<Vec<NodeId>>> = HashMap::with_capacity(seen.len());
        let span = self.tracer.begin("cache.insert_many", Some(parent), id);
        for (shard, entries) in shards.iter().zip(computed) {
            let missing: Vec<NodeId> = entries.iter().map(|(n, _)| *n).collect();
            resolved.extend(missing.into_iter().zip(shard.cache().insert_many(entries)));
        }
        let insert_us = self.tracer.end(span);
        for (nodes, hits) in owned.iter().zip(found) {
            resolved.extend(nodes.iter().zip(hits).filter_map(|(&n, hit)| Some((n, hit?))));
        }
        let slices: Vec<(&[NodeId], &[NodeId])> = frame
            .iter()
            .map(|q| (resolved[&q.user].as_slice(), resolved[&q.query].as_slice()))
            .collect();

        let span = self.tracer.begin("model.embed_requests", Some(parent), id);
        let uq = self.frozen.embed_requests(server.graph(), frame, &slices);
        let embed_us = self.tracer.end(span);

        let (mut search_total, mut search_slowest) = (0f64, 0f64);
        let mut per_shard = Vec::with_capacity(shards.len());
        for shard in shards {
            let span = self.tracer.begin("backend.search_batch", Some(parent), id);
            let lists = shard
                .backend()
                .search_batch(&uq, config.top_k)
                .map_err(|e| format!("stage replay search: {e}"))?;
            let us = self.tracer.end(span);
            search_total += us;
            search_slowest = search_slowest.max(us);
            per_shard.push(lists);
        }

        let span = self.tracer.begin("topk.top_k_desc", Some(parent), id);
        for qi in 0..frame.len() {
            let mut merged = Vec::with_capacity(shards.len() * config.top_k);
            for lists in &mut per_shard {
                merged.append(&mut lists[qi]);
            }
            black_box(top_k_desc(merged, config.top_k));
        }
        let topk_us = self.tracer.end(span);
        self.tracer.end(parent);

        let batch = frame.len() as f64;
        let s = &mut self.samples;
        s.push("cache.get_many_us", get_us);
        s.push("graph.neutral_topk_us", neutral_us);
        s.push("cache.insert_many_us", insert_us);
        s.push("model.embed_requests_us", embed_us);
        s.push("model.embed_us_per_query", embed_us / batch);
        s.push("backend.search_batch_us", search_total);
        s.push("backend.search_us_per_query", search_total / batch);
        s.push("topk.top_k_desc_us", topk_us / batch);
        let shared = get_us + neutral_us + insert_us + embed_us + topk_us;
        s.push("stage_c.blocking_path_us", shared + search_slowest);
        s.push("stage_c.total_us", shared + search_total);
        Ok(())
    }
}

fn counter(snapshot: &Snapshot, name: &str) -> f64 {
    snapshot.counter(name).unwrap_or(0) as f64
}

/// The traced run: per-layer metrics by stage replay, spans to
/// `<out_dir>/<workload>.trace.json`.
pub fn run_traced(
    spec: &ServeSpec,
    scale: &Scale,
    seed: u64,
    seconds: f64,
    out_dir: &std::path::Path,
) -> Result<RunOutcome, String> {
    let (plan, snapshot) = Plan::new(spec, scale, seed);
    let Plan { fixture, config, .. } = &plan;
    let snapshot_bytes = snapshot.len();

    let unsharded = OnlineServer::builder()
        .graph_snapshot(snapshot.clone())
        .frozen(fixture.frozen.clone())
        .item_pool(&fixture.items)
        .config(ServingConfig { sharding: ShardingConfig::single(), ..*config })
        .seed(MODEL_SEED)
        .build()
        .map_err(|e| format!("build unsharded server: {e}"))?;
    unsharded.warm_cache(&plan.warm).map_err(|e| format!("warm unsharded: {e}"))?;
    let (node, _) = timed_setup(&plan, snapshot)?;
    let after_setup = node.server.metrics_snapshot();
    let cache_before = node.server.aggregated_cache_stats();

    // A third of the time under load: open phase, then the same closed
    // phase with span recording off and on.
    let phases = Phases {
        open: split(seconds, 1.0 / 3.0),
        closed: split(seconds, 1.0 / 6.0),
        traced_closed: split(seconds, 1.0 / 6.0),
    };
    let conns = drive(&plan, &node, &phases)?;
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(plan.origin);
    let opens: Vec<&OpenResult> = conns.iter().map(|c| &c.open).collect();
    let open = OpenSummary::of(&opens, spec.open_fps, phases.open);
    let untraced_rps = closed_rps(conns.iter().map(|c| &c.closed), phases.closed);
    let traced_rps = closed_rps(conns.iter().map(|c| &c.traced), phases.traced_closed);
    for c in conns {
        tally.add(&c.open.tally);
        tally.add(&c.closed.tally);
        tally.add(&c.traced.tally);
        tracer.absorb(c.tracer);
    }

    // Stage replay, single-threaded, for the remaining third.
    let before_replay = node.server.metrics_snapshot();
    let mut replay = Replay {
        node: &node,
        frozen: &fixture.frozen,
        unsharded: &unsharded,
        client: WireClient::connect(&node.addr).map_err(|e| format!("dial: {e}"))?,
        checker: plan.checker(),
        tracer,
        samples: Samples::default(),
        tally: Tally::default(),
        queries: 0,
    };
    let mut gen = plan.frames("replay");
    let replay_for = split(seconds, 1.0 / 3.0);
    let started = Instant::now();
    let mut frame_id = 0u64;
    while started.elapsed() < replay_for || frame_id < 3 {
        let frame = gen.next_frame();
        match frame_id % 3 {
            0 => replay.level_a(&frame, frame_id),
            1 => replay.level_b(&frame, frame_id)?,
            _ => replay.level_c(&frame, frame_id)?,
        }
        replay.queries += frame.len() as u64;
        frame_id += 1;
    }
    let Replay { samples, tracer, tally: replay_tally, queries: replayed, .. } = replay;
    tally.add(&replay_tally);
    let after = node.server.metrics_snapshot();
    let counts = after.since(&before_replay);
    let recall = recall_at_10(&plan, &node)?;

    let mut m = Metrics::default();
    // Every replayed quantity that is a per-layer metric reports its median.
    for def in PER_LAYER.iter().filter(|def| samples.0.contains_key(def.name)) {
        m.set(def.name, samples.median(def.name));
    }
    let level_a = samples.median("frontdoor.roundtrip_us");
    let level_b = samples.median("sharded.handle_batch_us");
    let blocking = samples.median("stage_c.blocking_path_us");
    m.set("frontdoor.self_us", level_a - level_b);
    m.set(
        "frontdoor.queue_wait_us",
        percentile(&open.from_due_us, 0.5) - percentile(&open.from_send_us, 0.5),
    );
    m.set("sharded.self_us", level_b - blocking);
    m.set("sharded.stage_coverage_ratio", samples.median("stage_c.total_us") / level_b);
    m.set("sharded.replies_lost", counter(&after, "serve.shard.replies_lost"));
    m.set("sharded.overhead_ratio", level_b / samples.median("server.handle_batch_us"));

    let cache = node.server.aggregated_cache_stats().since(&cache_before);
    m.set("cache.hit_ratio", cache.hit_rate());
    m.set("cache.evictions", cache.evictions as f64);
    let shards = node.server.shards();
    m.set(
        "cache.admissions_rejected",
        shards.iter().map(|s| s.cache().admissions_rejected()).sum::<u64>() as f64,
    );
    m.set("cache.entries", shards.iter().map(|s| s.cache().len()).sum::<usize>() as f64);

    m.set("graph.snapshot_bytes", snapshot_bytes as f64);
    if let Some(load) = after_setup.histogram("serve.snapshot.load_ns") {
        m.set("graph.snapshot_read_ms", load.sum as f64 / load.count.max(1) as f64 / 1e6);
    }
    m.set("model.freeze_s", fixture.freeze_s);
    m.set("data.generate_s", fixture.generate_s);

    // Every replayed query is probed once per shard at level A, B and C
    // alike, so the counts divide by the queries replayed.
    let per_query = |name: &str| counter(&counts, name) / replayed.max(1) as f64;
    m.set(
        "backend.candidates_scored_per_query",
        per_query("ann.candidates_scored") + per_query("serve.backend.candidates_scored"),
    );
    m.set("backend.lists_probed_per_query", per_query("ann.lists_probed"));
    m.set("backend.quant.scored_i8_per_query", per_query("serve.backend.quant.scored_i8"));
    m.set("backend.quant.reranked_per_query", per_query("serve.backend.quant.reranked"));
    let snapshot_read_s = m.get("graph.snapshot_read_ms") / 1e3;
    m.set("backend.build_s", node.build_s - snapshot_read_s);
    let store_bytes: usize = shards
        .iter()
        .map(|s| match s.backend().as_quantized() {
            Some(q) => {
                let mem = q.memory_footprint();
                mem.code_bytes + mem.param_bytes + mem.rerank_bytes
            }
            None => s.backend().len() * s.backend().dim() * std::mem::size_of::<f32>(),
        })
        .sum();
    m.set("backend.store_bytes", store_bytes as f64);
    tensor_micro(&mut m, fixture.frozen.embed_dim(), spec.batch);
    m.set(
        "brownout.degraded_batches",
        ["skip_widen", "topk_shrunk", "budget_capped", "fallback"]
            .iter()
            .map(|rung| counter(&after, &format!("serve.degraded.{rung}")))
            .sum(),
    );
    m.set("loadgen.lateness_p99_ms", percentile(&open.generator_late_us, 0.99) / 1e3);
    m.set("loadgen.offered_fps", open.offered_fps);
    m.set("loadgen.achieved_fps", open.achieved_fps);
    m.set("failed_share", tally.failed as f64 / tally.attempted.max(1) as f64);
    m.set("degraded_share", tally.degraded as f64 / tally.ok.max(1) as f64);
    m.set("recall_at_10", recall);
    m.set("p99_ms", open.latency_ms(0.99));
    m.set("bench.trace_overhead_ratio", traced_rps / untraced_rps);

    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    let path = out_dir.join(format!("{}.trace.json", spec.name));
    std::fs::write(&path, crate::json::compact(&tracer.to_json()))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "{}: replayed {frame_id} frames; A {level_a:.1} us, B {level_b:.1} us, C blocking path {blocking:.1} us; {} spans in {}",
        spec.name,
        tracer.len(),
        path.display()
    );
    open.log(spec.name);
    node.shutdown();

    let mut problems = Vec::new();
    problems.extend(open.invalid());
    if tally.failed > 0 {
        problems.push(format!("{} of {} rows failed", tally.failed, tally.attempted));
    }
    Ok(RunOutcome { metrics: m, attempted: tally.attempted, failed: tally.failed, problems })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A real node on the tiny graph: an out-of-range node id comes back as
    /// an error frame and fails every row of its frame without leaving the
    /// denominator, the next frame is served, and `shutdown` really stops
    /// the accept loop.
    #[test]
    fn node_serves_counts_failures_and_shuts_down() {
        let scale = Scale::smoke();
        let (plan, snapshot) = Plan::new(&WORKLOADS[0], &scale, 5);
        let (node, setup_s) = timed_setup(&plan, snapshot).expect("set-up");
        assert!(setup_s > 0.0);
        let mut client = WireClient::connect(&node.addr).expect("dial");
        let mut checker = plan.checker();
        let mut tally = Tally::default();

        let mut bad = plan.frames("t").next_frame();
        bad[3].user = plan.fixture.num_nodes as NodeId + 7;
        let reply = client.retrieve(&bad, 0);
        assert!(matches!(reply, Err(zoomer_serving::WireError::Remote(_))), "{reply:?}");
        checker.check(&bad, &reply, &mut tally);
        let good = plan.frames("t").next_frame();
        checker.check(&good, &client.retrieve(&good, 0), &mut tally);
        let rows = WORKLOADS[0].batch as u64;
        assert_eq!(tally, Tally { attempted: 2 * rows, ok: rows, failed: rows, degraded: 0 });

        assert_eq!(recall_at_10(&plan, &node), Ok(1.0), "the tiny pool is scanned exactly");
        assert_eq!(wire_equality(&plan, &node, &mut tally), Ok(0));

        let addr = node.addr.clone();
        drop(client);
        node.shutdown();
        assert!(WireClient::connect(&addr).is_err(), "the listener is closed after shutdown");
    }
}
