//! `zoomer` — command-line front end for the Zoomer reproduction.
//!
//! ```text
//! zoomer generate --sessions 5000 --out graph.bin     # behavior logs → graph snapshot
//! zoomer inspect --graph graph.bin                    # graph statistics
//! zoomer train   --preset zoomer --steps 20000 \
//!                --checkpoint model.ckpt              # train + checkpoint
//! zoomer serve   --checkpoint model.ckpt --requests 500 --qps 1000 --batch 16
//! zoomer presets                                      # list model presets
//! ```
//!
//! The CLI regenerates the dataset from `--seed` (deterministic), so the
//! graph snapshot and checkpoint are all the state that needs to move
//! between invocations.

use std::process::ExitCode;
use std::sync::Arc;

use zoomer_core::data::{split_examples, TaobaoConfig, TaobaoData};
use zoomer_core::graph::{read_snapshot, write_snapshot, GraphStats};
use zoomer_core::model::{
    load_checkpoint, save_checkpoint, CtrModel, ModelConfig, UnifiedCtrModel,
};
use zoomer_core::obs::MetricsRegistry;
use zoomer_core::serving::{
    run_load, FrozenModel, LoadTestSpec, OnlineServer, Query, ServingConfig,
};
use zoomer_core::train::{train, TrainerConfig};

const PRESETS: &[&str] = &[
    "zoomer",
    "gcn",
    "zoomer-fe",
    "zoomer-fs",
    "zoomer-es",
    "graphsage",
    "gat",
    "han",
    "pinsage",
    "pinnersage",
    "pixie",
    "stamp",
    "gce-gnn",
    "fgnn",
    "mccf",
    "multisage",
];

fn usage() -> &'static str {
    "usage: zoomer <command> [options]\n\
     commands:\n\
       generate  --sessions N --users N --items N --seed S --out FILE\n\
       inspect   --graph FILE\n\
       train     --preset NAME --steps N --seed S [--checkpoint FILE]\n\
       serve     --seed S [--checkpoint FILE] --requests N --qps Q [--batch B]\n\
       presets\n\
     run `cargo doc --open` for the library API."
}

/// Minimal `--key value` parser (keeps the dependency set lean).
struct Args {
    pairs: Vec<(String, String)>,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < argv.len() {
            let key = &argv[i];
            if !key.starts_with("--") {
                return Err(format!("unexpected argument {key:?}"));
            }
            let value = argv.get(i + 1).ok_or_else(|| format!("missing value for {key}"))?;
            pairs.push((key[2..].to_string(), value.clone()));
            i += 2;
        }
        Ok(Self { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    fn get_usize(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    fn get_u64(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects an integer, got {v:?}")),
        }
    }

    fn get_f64(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key} expects a number, got {v:?}")),
        }
    }
}

fn data_config(args: &Args) -> Result<TaobaoConfig, String> {
    let seed = args.get_u64("seed", 42)?;
    Ok(TaobaoConfig {
        num_users: args.get_usize("users", 500)?,
        num_queries: args.get_usize("queries", 500)?,
        num_items: args.get_usize("items", 1000)?,
        num_sessions: args.get_usize("sessions", 4000)?,
        ..TaobaoConfig::default_with_seed(seed)
    })
}

fn cmd_generate(args: &Args) -> Result<(), String> {
    let out = args.get("out").unwrap_or("graph.bin").to_string();
    let data = TaobaoData::generate(data_config(args)?);
    let stats = GraphStats::compute(&data.graph);
    println!("{}", stats.summary());
    let bytes = write_snapshot(&data.graph);
    std::fs::write(&out, &bytes).map_err(|e| format!("write {out}: {e}"))?;
    println!("snapshot written to {out} ({} KiB)", bytes.len() / 1024);
    Ok(())
}

fn cmd_inspect(args: &Args) -> Result<(), String> {
    let path = args.get("graph").ok_or("--graph FILE required")?;
    let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
    let graph = read_snapshot(bytes.into()).map_err(|e| format!("parse {path}: {e}"))?;
    let stats = GraphStats::compute(&graph);
    println!("{}", stats.summary());
    println!("degree histogram (power-of-two buckets): {:?}", stats.degree_histogram);
    Ok(())
}

fn cmd_train(args: &Args) -> Result<(), String> {
    let preset = args.get("preset").unwrap_or("zoomer");
    if !PRESETS.contains(&preset) {
        return Err(format!("unknown preset {preset:?}; run `zoomer presets`"));
    }
    let seed = args.get_u64("seed", 42)?;
    let steps = args.get_usize("steps", 10_000)?;
    let data = TaobaoData::generate(data_config(args)?);
    let split = split_examples(data.ctr_examples(), 0.9, seed);
    let dd = data.graph.features().dense_dim();
    let config = ModelConfig::preset(preset, seed, dd).expect("validated above");
    let mut model = UnifiedCtrModel::new(config);
    println!(
        "training {} ({} sampler) for {} steps on {} examples…",
        model.name(),
        model.sampler_name(),
        steps,
        split.train.len()
    );
    let report = train(
        &mut model,
        &data.graph,
        &split,
        &TrainerConfig { epochs: 1, max_steps_per_epoch: Some(steps), seed, ..Default::default() },
    );
    println!(
        "done: {} steps in {:.1}s ({:.0} steps/s), test AUC = {:.4}",
        report.steps,
        report.elapsed.as_secs_f64(),
        report.steps_per_sec(),
        report.final_auc
    );
    if let Some(path) = args.get("checkpoint") {
        let bytes = save_checkpoint(&model);
        std::fs::write(path, &bytes).map_err(|e| format!("write {path}: {e}"))?;
        println!("checkpoint written to {path} ({} KiB)", bytes.len() / 1024);
    }
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), String> {
    let seed = args.get_u64("seed", 42)?;
    let requests = args.get_usize("requests", 500)?;
    let qps = args.get_f64("qps", 1000.0)?;
    let batch = args.get_usize("batch", 1)?;
    if batch == 0 {
        return Err("--batch must be at least 1".to_string());
    }
    let data = TaobaoData::generate(data_config(args)?);
    let dd = data.graph.features().dense_dim();
    let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(seed, dd));
    if let Some(path) = args.get("checkpoint") {
        let bytes = std::fs::read(path).map_err(|e| format!("read {path}: {e}"))?;
        load_checkpoint(&mut model, &bytes).map_err(|e| format!("load {path}: {e}"))?;
        println!("restored checkpoint from {path}");
    } else {
        println!("no --checkpoint given: serving an untrained model");
    }
    let items = data.item_nodes();
    let graph =
        Arc::new(read_snapshot(write_snapshot(&data.graph)).map_err(|e| format!("snapshot: {e}"))?);
    let frozen = FrozenModel::from_model(&mut model, &graph);
    let server = OnlineServer::builder()
        .graph(graph)
        .frozen(frozen)
        .item_pool(&items)
        .config(ServingConfig::default())
        .seed(seed)
        .metrics(Arc::new(MetricsRegistry::enabled()))
        .build()
        .map_err(|e| format!("build server: {e}"))?;
    let reqs: Vec<Query> =
        data.logs.iter().cycle().take(requests).map(|l| Query::new(l.user, l.query)).collect();
    let warm: Vec<u32> = reqs.iter().flat_map(|q| [q.user, q.query]).collect();
    server.warm_cache(&warm).map_err(|e| format!("warm cache: {e}"))?;
    let spec = LoadTestSpec::open(qps).num_threads(4).batch_size(batch);
    let report = run_load(&server, &reqs, &spec).map_err(|e| format!("load test: {e}"))?;
    let lat = &report.latency;
    println!(
        "{} requests at {:.0} QPS (batch {}): mean {:.3} ms, p50 {:.3} ms, p95 {:.3} ms, p99 {:.3} ms",
        report.completed,
        report.offered_qps().unwrap_or(qps),
        batch,
        lat.mean_ms,
        lat.p50_ms,
        lat.p95_ms,
        lat.p99_ms
    );
    if !report.stages.is_empty() {
        println!("per-stage latency (ms):");
        for stage in &report.stages {
            println!(
                "  {:<14} p50 {:.4}  p95 {:.4}  p99 {:.4}  ({} samples)",
                stage.stage, stage.p50_ms, stage.p95_ms, stage.p99_ms, stage.count
            );
        }
    }
    println!("cache hit rate: {:.1}%", server.aggregated_cache_stats().hit_rate() * 100.0);
    Ok(())
}

fn run() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = argv.first() else {
        return Err(usage().to_string());
    };
    let args = Args::parse(&argv[1..])?;
    match command.as_str() {
        "generate" => cmd_generate(&args),
        "inspect" => cmd_inspect(&args),
        "train" => cmd_train(&args),
        "serve" => cmd_serve(&args),
        "presets" => {
            for p in PRESETS {
                println!("{p}");
            }
            Ok(())
        }
        "help" | "--help" | "-h" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(format!("unknown command {other:?}\n{}", usage())),
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
