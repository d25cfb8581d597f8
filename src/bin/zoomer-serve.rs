//! `zoomer-serve` — the sharded retrieval server behind a real TCP front
//! door.
//!
//! ```text
//! zoomer-serve --addr 127.0.0.1:7470 --shards 4 --replicas 2   # serve forever
//! zoomer-serve --smoke                                          # loopback self-test
//! ```
//!
//! The server regenerates its dataset from `--seed` (deterministic, same
//! as the `zoomer` CLI), partitions the item pool across `--shards`
//! shards — shard 0 ranks on each connection's own thread, every other
//! shard on `--replicas` worker threads — and speaks the length-prefixed binary protocol
//! in `zoomer_serving::wire` (see DESIGN.md § "Sharded serving & wire
//! protocol"). `--tenant-capacity` bounds admissions per fairness window;
//! 0 disables shedding.
//!
//! `--smoke` binds an ephemeral loopback port, round-trips a batch through
//! a real socket, and cross-checks the reply against the in-process answer
//! — the CI gate that the wire path and the serving path cannot drift.

use std::net::TcpListener;
use std::process::ExitCode;
use std::sync::Arc;

use zoomer_core::data::{TaobaoConfig, TaobaoData};
use zoomer_core::graph::ShardingConfig;
use zoomer_core::model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_core::obs::MetricsRegistry;
use zoomer_core::serving::{
    FrontDoor, OnlineServer, Query, ResponseStatus, ServingConfig, WireClient, DEFAULT_MAX_CONNS,
};

fn usage() -> &'static str {
    "usage: zoomer-serve [options]\n\
     options:\n\
       --addr HOST:PORT       listen address (default 127.0.0.1:7470)\n\
       --seed S               dataset/model seed (default 42)\n\
       --users N --items N    dataset size (defaults 500 / 1000)\n\
       --sessions N           behavior logs to generate (default 4000)\n\
       --shards N             item-pool shards (default 4)\n\
       --replicas N           worker threads per shard after shard 0 (default 2)\n\
       --tenant-capacity N    fair-admission window capacity, 0 = off (default 0)\n\
       --max-conns N          concurrent connection cap, 0 = off (default 1024)\n\
       --smoke                loopback self-test: serve, dial, verify, exit"
}

struct Opts {
    addr: String,
    seed: u64,
    users: usize,
    items: usize,
    sessions: usize,
    shards: usize,
    replicas: usize,
    tenant_capacity: usize,
    max_conns: usize,
    smoke: bool,
}

fn parse(argv: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        addr: "127.0.0.1:7470".to_string(),
        seed: 42,
        users: 500,
        items: 1000,
        sessions: 4000,
        shards: 4,
        replicas: 2,
        tenant_capacity: 0,
        max_conns: DEFAULT_MAX_CONNS,
        smoke: false,
    };
    let mut i = 0;
    while i < argv.len() {
        let key = argv[i].as_str();
        if key == "--smoke" {
            opts.smoke = true;
            i += 1;
            continue;
        }
        let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {key}"))?;
        let int = |v: &str| v.parse::<usize>().map_err(|_| format!("{key} expects an integer"));
        match key {
            "--addr" => opts.addr = value.clone(),
            "--seed" => {
                opts.seed = value.parse().map_err(|_| "--seed expects an integer".to_string())?;
            }
            "--users" => opts.users = int(value)?,
            "--items" => opts.items = int(value)?,
            "--sessions" => opts.sessions = int(value)?,
            "--shards" => opts.shards = int(value)?,
            "--replicas" => opts.replicas = int(value)?,
            "--tenant-capacity" => opts.tenant_capacity = int(value)?,
            "--max-conns" => opts.max_conns = int(value)?,
            _ => return Err(format!("unknown option {key}\n{}", usage())),
        }
        i += 2;
    }
    Ok(opts)
}

fn build(opts: &Opts) -> Result<(Arc<OnlineServer>, Vec<Query>), String> {
    let data = TaobaoData::generate(TaobaoConfig {
        num_users: opts.users,
        num_items: opts.items,
        num_sessions: opts.sessions,
        ..TaobaoConfig::default_with_seed(opts.seed)
    });
    let dd = data.graph.features().dense_dim();
    let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(opts.seed, dd));
    let frozen = model.freeze(&data.graph);
    let items = data.item_nodes();
    let sample: Vec<Query> =
        data.logs.iter().take(32).map(|l| Query::new(l.user, l.query)).collect();
    let server = OnlineServer::builder()
        .graph(Arc::new(data.graph))
        .frozen(frozen)
        .item_pool(&items)
        .config(ServingConfig {
            sharding: ShardingConfig { num_shards: opts.shards, replicas_per_shard: opts.replicas },
            ..ServingConfig::default()
        })
        .seed(opts.seed)
        .metrics(Arc::new(MetricsRegistry::enabled()))
        .build()
        .map_err(|e| format!("build server: {e}"))?;
    Ok((Arc::new(server), sample))
}

/// The tier as started: shard 0 ranks on each connection's own thread, so
/// only shards 1..N start `--replicas` worker threads each.
fn tier(opts: &Opts) -> String {
    let workers = opts.shards.saturating_sub(1) * opts.replicas;
    format!("shards: {}, worker threads: {workers}", opts.shards)
}

/// Loopback self-test: serve on an ephemeral port, dial it, and verify the
/// socket answer matches the in-process answer row for row.
fn smoke(opts: &Opts) -> Result<(), String> {
    let (server, sample) = build(opts)?;
    let door = Arc::new(
        FrontDoor::new(Arc::clone(&server), opts.tenant_capacity).with_max_conns(opts.max_conns),
    );
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
    let addr = listener.local_addr().map_err(|e| format!("local addr: {e}"))?;
    let accept_door = Arc::clone(&door);
    std::thread::spawn(move || accept_door.serve(listener));

    let mut client = WireClient::connect(&addr.to_string()).map_err(|e| format!("dial: {e}"))?;
    let rows = client.retrieve(&sample, 0).map_err(|e| format!("retrieve: {e}"))?;
    let direct = server.handle_batch(&sample).map_err(|e| format!("direct serve: {e}"))?;
    if rows.len() != sample.len() {
        return Err(format!("smoke: sent {} queries, got {} rows", sample.len(), rows.len()));
    }
    for (i, (row, want)) in rows.iter().zip(&direct).enumerate() {
        if row.status != ResponseStatus::Ok {
            return Err(format!("smoke: row {i} was shed with the gate disabled"));
        }
        if &row.retrieval != want {
            return Err(format!("smoke: row {i} diverged from the in-process answer"));
        }
    }
    println!("smoke ok: {} rows over {} ({})", rows.len(), addr, tier(opts));
    Ok(())
}

fn serve(opts: &Opts) -> Result<(), String> {
    let (server, _) = build(opts)?;
    let door = FrontDoor::new(server, opts.tenant_capacity).with_max_conns(opts.max_conns);
    let listener = TcpListener::bind(&opts.addr).map_err(|e| format!("bind {}: {e}", opts.addr))?;
    println!(
        "zoomer-serve listening on {} ({}, tenant capacity {})",
        opts.addr,
        tier(opts),
        opts.tenant_capacity
    );
    door.serve(listener);
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&argv) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("{e}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let run = if opts.smoke { smoke(&opts) } else { serve(&opts) };
    match run {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zoomer-serve: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(argv: &[&str]) -> Opts {
        parse(&argv.iter().map(|a| a.to_string()).collect::<Vec<_>>()).expect("valid argv")
    }

    #[test]
    fn tier_counts_worker_threads_for_shards_after_the_first() {
        assert_eq!(tier(&opts(&["--shards", "1"])), "shards: 1, worker threads: 0");
        assert_eq!(
            tier(&opts(&["--shards", "4", "--replicas", "2"])),
            "shards: 4, worker threads: 6"
        );
    }
}
