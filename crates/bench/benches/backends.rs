//! Search backends — recall@10 vs query latency vs build cost, per backend.
//!
//! Not a paper figure: the paper serves IVF only. With retrieval behind the
//! `SearchBackend` trait this harness measures what each backend actually
//! trades: the IVF and quantized-IVF probes sweep `nprobe`, and the exact
//! flat scan anchors recall = 1. Ground truth is the `ExactSearch` oracle
//! over the same frozen-tower embeddings.
//!
//! Backends are built directly from the item embeddings — not through
//! `OnlineServer` — because the server widens under-full probe results with
//! an exact scan, which would silently inflate the approximate backends'
//! measured recall.
//!
//! At `small`/`full` scale the results are also written to the repo-root
//! `BENCH_backends.json` baseline (the acceptance record that the quantized
//! IVF stays within 1% of the f32 IVF's recall@10 at equal `nprobe`).

use std::io::Write as _;
use std::path::PathBuf;
use std::time::Instant;

use zoomer_bench::{banner, million_dataset, write_json, BenchScale};
use zoomer_core::data::{ScaleTier, TaobaoData};
use zoomer_core::graph::{read_snapshot, write_snapshot};
use zoomer_core::model::{ModelConfig, UnifiedCtrModel};
use zoomer_core::obs::MetricsRegistry;
use zoomer_core::serving::{
    ExactSearch, FrozenModel, IvfIndex, QuantizedIvf, SearchBackend, DEFAULT_RERANK_FACTOR,
};
use zoomer_core::tensor::Matrix;

/// Recall@k of `got` rows against the oracle rows (id overlap).
fn recall_at_k(got: &[Vec<(u64, f32)>], truth: &[Vec<(u64, f32)>]) -> f64 {
    let mut hits = 0usize;
    let mut total = 0usize;
    for (g, t) in got.iter().zip(truth) {
        let ids: std::collections::HashSet<u64> = g.iter().map(|&(id, _)| id).collect();
        for &(id, _) in t {
            total += 1;
            if ids.contains(&id) {
                hits += 1;
            }
        }
    }
    hits as f64 / total.max(1) as f64
}

/// Mean per-query latency of `search_batch` over `reps` passes, in µs.
fn query_us(backend: &dyn SearchBackend, queries: &Matrix, k: usize, reps: usize) -> f64 {
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(backend.search_batch(queries, k).expect("search"));
    }
    t0.elapsed().as_secs_f64() * 1e6 / (reps * queries.rows()) as f64
}

fn main() {
    let scale = BenchScale::from_env();
    let seed = 913;
    banner(
        "Search backends — recall@10 vs latency vs build cost",
        "acceptance: quantized recall@10 within 1% of f32 IVF at equal nprobe",
        scale,
        seed,
    );
    let (data, _) = million_dataset(scale, seed);
    let dd = data.graph.features().dense_dim();
    let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(seed, dd));
    let frozen = FrozenModel::from_model(&mut model, &data.graph);
    let item_nodes = data.item_nodes();
    let item_matrix = frozen.item_embeddings(&item_nodes);
    let items: Vec<(u64, Vec<f32>)> = item_nodes
        .iter()
        .enumerate()
        .map(|(r, &i)| (i as u64, item_matrix.row(r).to_vec()))
        .collect();

    // The fig9 workload's request vectors: query nodes embedded through the
    // frozen online tower (base vector — no cached neighborhood, the same
    // embedding the offline posting ranking scores).
    let (n_queries, reps) = match scale {
        BenchScale::Smoke => (50usize, 3usize),
        BenchScale::Small => (200, 10),
        BenchScale::Full => (400, 20),
    };
    let query_nodes = data.graph.nodes_of_type(zoomer_core::graph::NodeType::Query);
    let mut queries = Matrix::zeros(query_nodes.len().min(n_queries), frozen.embed_dim());
    for (r, &q) in query_nodes.iter().take(queries.rows()).enumerate() {
        queries.row_mut(r).copy_from_slice(&frozen.online_embedding(q, &[], &[]));
    }
    let k = 10usize;
    println!("\npool: {} items, dim {}, {} queries, k = {k}", items.len(), dd, queries.rows());

    // Ground truth + the exact backend's own row.
    let t0 = Instant::now();
    let oracle = ExactSearch::build(&items);
    let exact_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let truth = oracle.search_batch(&queries, k).expect("oracle");

    println!(
        "\n{:>10} {:>12} {:>10} {:>12} {:>10}",
        "backend", "budget", "recall@10", "query us", "build ms"
    );
    let mut json_rows = Vec::new();
    let mut row =
        |backend: &str, budget_name: &str, budget: usize, recall: f64, us: f64, build_ms: f64| {
            println!(
                "{:>10} {:>9}={:<3} {:>9.3} {:>12.1} {:>10.1}",
                backend, budget_name, budget, recall, us, build_ms
            );
            json_rows.push(serde_json::json!({
                "backend": backend, "budget_name": budget_name, "budget": budget,
                "recall_at_10": recall, "query_us": us, "build_ms": build_ms,
            }));
        };

    // Exact scan: recall 1 by construction, the latency/build anchor.
    let us = query_us(&oracle, &queries, k, reps);
    row("exact", "pool", items.len(), 1.0, us, exact_build_ms);

    // IVF: one build, nprobe sweep.
    let t0 = Instant::now();
    let nlist = 32usize.min(((items.len() as f64).sqrt().ceil()) as usize).max(1);
    let ivf = IvfIndex::build(&items, nlist, 8, seed);
    let ivf_build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut ivf_best_recall = 0.0f64;
    let mut ivf_default_recall = 0.0f64;
    for nprobe in [1usize, 2, 4, 8, 16] {
        let nprobe = nprobe.min(nlist);
        let t0 = Instant::now();
        let mut got = Vec::new();
        for _ in 0..reps {
            got = ivf.search_batch(&queries, k, nprobe).expect("ivf");
        }
        let us = t0.elapsed().as_secs_f64() * 1e6 / (reps * queries.rows()) as f64;
        let recall = recall_at_k(&got, &truth);
        ivf_best_recall = ivf_best_recall.max(recall);
        if nprobe == 4 {
            ivf_default_recall = recall;
        }
        row("ivf", "nprobe", nprobe, recall, us, ivf_build_ms);
    }

    // Quantized IVF: adopt the f32 index's partition (equal nprobe ⇒ the
    // same lists probed, so recall deltas measure quantization alone) and
    // sweep the same budgets. Probe-volume counters turn into bytes/query:
    // the int8 phase streams codes (1 B/elem) + per-vector params (12 B),
    // the rerank touches shortlist f32 rows; the f32 IVF streams 4 B/elem
    // over the same candidate set.
    let registry = MetricsRegistry::enabled();
    let t0 = Instant::now();
    let mut quant = QuantizedIvf::from_ivf(&ivf, 4, DEFAULT_RERANK_FACTOR);
    let quant_build_ms = t0.elapsed().as_secs_f64() * 1e3 + ivf_build_ms;
    quant.attach_metrics(&registry);
    let mem = quant.memory_footprint();
    let counter = |name: &str| -> u64 {
        registry.snapshot().counters.iter().find(|(n, _)| n == name).map(|&(_, v)| v).unwrap_or(0)
    };
    let mut quant_default_recall = 0.0f64;
    let mut quant_default_bytes_per_query = 0.0f64;
    let mut ivf_default_bytes_per_query = 0.0f64;
    for nprobe in [1usize, 2, 4, 8, 16] {
        let nprobe = nprobe.min(nlist);
        quant.set_nprobe(nprobe);
        let (i8_before, rr_before) =
            (counter("serve.backend.quant.scored_i8"), counter("serve.backend.quant.reranked"));
        let us = query_us(&quant, &queries, k, reps);
        let got = quant.search_batch(&queries, k).expect("quantized");
        let recall = recall_at_k(&got, &truth);
        let scanned = counter("serve.backend.quant.scored_i8") - i8_before;
        let reranked = counter("serve.backend.quant.reranked") - rr_before;
        let passes = ((reps + 1) * queries.rows()) as f64;
        let bytes_per_query =
            (scanned as f64 * (dd + 12) as f64 + reranked as f64 * dd as f64 * 4.0) / passes;
        if nprobe == 4 {
            quant_default_recall = recall;
            quant_default_bytes_per_query = bytes_per_query;
            ivf_default_bytes_per_query = scanned as f64 * dd as f64 * 4.0 / passes;
        }
        row("quantized", "nprobe", nprobe, recall, us, quant_build_ms);
    }

    println!(
        "\nIVF best (nprobe<=16): {ivf_best_recall:.3} | IVF default (nprobe=4): {ivf_default_recall:.3}"
    );
    let quant_acceptance = quant_default_recall >= ivf_default_recall - 0.01;
    println!(
        "quantized: {:.1}x smaller embedding store, {:.0} vs {:.0} B/query at nprobe=4, recall {:.3} vs f32 {:.3}",
        mem.compression_ratio(),
        quant_default_bytes_per_query,
        ivf_default_bytes_per_query,
        quant_default_recall,
        ivf_default_recall,
    );
    println!(
        "acceptance (quantized recall@10 within 1% of f32 IVF at equal nprobe): {}",
        if quant_acceptance { "PASS" } else { "FAIL" }
    );

    // The billion tier, actually instantiated: generate the graph the
    // memory-scaling story targets (scaled to the preset; ZOOMER_TIER_SCALE
    // multiplies further — 10× the full preset is the advertised ≈1.2 M
    // nodes), snapshot it through the v2 zero-copy format, and account the
    // quantized item store.
    let tier_factor = match scale {
        BenchScale::Smoke => 0.02,
        BenchScale::Small => 0.25,
        BenchScale::Full => 1.0,
    } * ScaleTier::env_scale();
    let tier_cfg = ScaleTier::Billion.config_scaled(seed, tier_factor);
    let tier_sessions = tier_cfg.num_sessions;
    let t0 = Instant::now();
    let tier = TaobaoData::generate(tier_cfg);
    let tier_gen_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let snap = write_snapshot(&tier.graph);
    let tier_write_ms = t0.elapsed().as_secs_f64() * 1e3;
    let snap_len = snap.len();
    let t0 = Instant::now();
    let reloaded = read_snapshot(snap).expect("billion-tier snapshot");
    let tier_load_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert_eq!(reloaded.num_nodes(), tier.graph.num_nodes());
    let tier_dd = tier.graph.features().dense_dim();
    let mut tier_model = UnifiedCtrModel::new(ModelConfig::zoomer(seed, tier_dd));
    let tier_frozen = FrozenModel::from_model(&mut tier_model, &tier.graph);
    let tier_items_nodes = tier.item_nodes();
    let tier_matrix = tier_frozen.item_embeddings(&tier_items_nodes);
    let tier_items: Vec<(u64, Vec<f32>)> = tier_items_nodes
        .iter()
        .enumerate()
        .map(|(r, &i)| (i as u64, tier_matrix.row(r).to_vec()))
        .collect();
    let tier_nlist = 64usize.min(((tier_items.len() as f64).sqrt().ceil()) as usize).max(1);
    let tier_quant =
        QuantizedIvf::build(&tier_items, tier_nlist, 8, seed, 4, DEFAULT_RERANK_FACTOR);
    let tier_mem = tier_quant.memory_footprint();
    println!(
        "\nbillion tier (factor {tier_factor:.2}): {} nodes, {} sessions, generated in {tier_gen_s:.1}s",
        tier.graph.num_nodes(),
        tier_sessions,
    );
    println!(
        "  snapshot v2: {:.1} MiB, write {tier_write_ms:.0} ms, zero-copy load {tier_load_ms:.0} ms",
        snap_len as f64 / (1024.0 * 1024.0),
    );
    println!(
        "  quantized item store: {:.2} MiB codes (+{:.2} MiB params) vs {:.2} MiB f32 ({:.1}x)",
        tier_mem.code_bytes as f64 / (1024.0 * 1024.0),
        tier_mem.param_bytes as f64 / (1024.0 * 1024.0),
        tier_mem.rerank_bytes as f64 / (1024.0 * 1024.0),
        tier_mem.compression_ratio(),
    );

    let json = serde_json::json!({
        "scale": scale.name(),
        "pool_items": items.len(),
        "queries": queries.rows(),
        "k": k,
        "rows": json_rows,
        "ivf_default_recall_at_10": ivf_default_recall,
        "ivf_best_recall_at_10": ivf_best_recall,
        "quant_default_recall_at_10": quant_default_recall,
        "quant_within_1pct_of_ivf": quant_acceptance,
        "quant_compression_ratio": mem.compression_ratio(),
        "quant_bytes_per_query_nprobe4": quant_default_bytes_per_query,
        "ivf_bytes_per_query_nprobe4": ivf_default_bytes_per_query,
        "billion_tier": {
            "factor": tier_factor,
            "nodes": tier.graph.num_nodes(),
            "sessions": tier_sessions,
            "generate_s": tier_gen_s,
            "snapshot_bytes": snap_len,
            "snapshot_write_ms": tier_write_ms,
            "snapshot_load_ms": tier_load_ms,
            "quant_code_bytes": tier_mem.code_bytes,
            "quant_rerank_bytes": tier_mem.rerank_bytes,
            "quant_compression_ratio": tier_mem.compression_ratio(),
        },
    });
    write_json("backends", &json);
    if scale != BenchScale::Smoke {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_backends.json");
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", serde_json::to_string_pretty(&json).unwrap_or_default());
                println!("(baseline written to {})", path.display());
            }
            Err(e) => println!("(could not write {}: {e})", path.display()),
        }
    }
}
