//! Kernel benchmark baseline — naive vs blocked vs parallel GEMM, scalar vs
//! unrolled dot, IVF batch search, and end-to-end `handle_batch` throughput.
//!
//! This is the tracked perf baseline for the compute kernels: it writes
//! `target/experiments/kernels.json` always, and — at `small`/`full` scale —
//! `BENCH_kernels.json` at the repo root, the file future PRs regress
//! against. `ZOOMER_BENCH_SCALE=smoke` is the CI mode: tiny shapes, short
//! measurement windows, no repo-root write (so CI can never clobber the
//! recorded baseline with noise), but every kernel still executes.
//!
//! GEMM shapes are the ones `FrozenModel::embed_requests` actually runs per
//! batch of `B` requests at embedding width `d`: the combine layer
//! (`2B×2d · 2d×d`), the UQ tower (`B×2d · 2d×d`), and the item tower
//! (`N×d · d×d`, index build).

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Instant;

use zoomer_bench::{banner, write_json, BenchScale};
use zoomer_core::model::{ModelConfig, UnifiedCtrModel};
use zoomer_core::serving::{FrozenModel, IvfIndex, OnlineServer, Query, ServingConfig};
use zoomer_core::tensor::{
    dot, dot_tile, kernel, seeded_rng, similarity::dot_reference, Matrix, TILE_LANES,
};
use zoomer_data::{TaobaoConfig, TaobaoData};

use rand::Rng;

/// Median-of-reps wall time per call, in nanoseconds. Each rep runs `f`
/// enough times to fill a ~2 ms (smoke) / ~20 ms window so timer overhead
/// vanishes; the median over reps shrugs off scheduler noise.
fn time_ns(smoke: bool, mut f: impl FnMut()) -> f64 {
    let (window_ns, reps) = if smoke { (2_000_000.0, 3) } else { (20_000_000.0, 7) };
    // Calibrate the per-call cost.
    let t0 = Instant::now();
    f();
    let once = t0.elapsed().as_nanos().max(1) as f64;
    let iters = ((window_ns / once) as usize).clamp(1, 1_000_000);
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    samples[samples.len() / 2]
}

fn random_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    Matrix::from_vec(rows, cols, (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

fn main() {
    let scale = BenchScale::from_env();
    let smoke = scale == BenchScale::Smoke;
    let seed = 1717;
    banner(
        "Kernel baseline — blocked GEMM, unrolled dot, batch search, handle_batch",
        "ISSUE 3 acceptance: >=2x on B>=64 embed_requests GEMM shapes",
        scale,
        seed,
    );
    let threads = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("hardware threads: {threads}");

    // ---- GEMM: naive (reference, with sparsity skip) vs blocked vs auto ----
    let batches: &[usize] = if smoke { &[16, 64] } else { &[1, 16, 64, 256, 1024] };
    let dims: &[usize] = if smoke { &[16] } else { &[16, 64] };
    let mut gemm_rows = Vec::new();
    println!("\n-- GEMM (combine-layer shape 2B x 2d x d) --");
    println!(
        "{:>6} {:>4} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "B", "d", "naive ns", "blocked ns", "auto ns", "blk spd", "auto spd"
    );
    for &d in dims {
        for &b in batches {
            let (m, k, n) = (2 * b, 2 * d, d);
            let a = random_matrix(m, k, seed ^ (b as u64) << 8 ^ d as u64);
            let w = random_matrix(k, n, seed.wrapping_add(7));
            let bias: Vec<f32> = (0..n).map(|i| i as f32 * 0.01).collect();
            let naive = time_ns(smoke, || {
                std::hint::black_box(a.matmul_bias_reference(&w, &bias));
            });
            let mut out = vec![0.0f32; m * n];
            let blocked = time_ns(smoke, || {
                kernel::gemm_serial(
                    a.as_slice(),
                    w.as_slice(),
                    Some(&bias),
                    m,
                    k,
                    n,
                    std::hint::black_box(&mut out),
                );
            });
            let auto = time_ns(smoke, || {
                std::hint::black_box(a.matmul_bias(&w, &bias));
            });
            let (blk_spd, auto_spd) = (naive / blocked, naive / auto);
            println!(
                "{b:>6} {d:>4} {naive:>14.0} {blocked:>14.0} {auto:>14.0} {blk_spd:>8.2}x {auto_spd:>8.2}x"
            );
            gemm_rows.push(serde_json::json!({
                "shape": format!("{m}x{k}x{n}"), "batch": b, "dim": d,
                "naive_ns": naive, "blocked_ns": blocked, "auto_ns": auto,
                "speedup_blocked": blk_spd, "speedup_auto": auto_spd,
            }));
        }
    }

    // ---- Sparsity-skip cost on dense inputs (the satellite-6 audit) ----
    // A dense matmul through the skip-checking reference vs the blocked
    // kernel: the number that justifies dropping the per-element branch.
    {
        let (m, k, n) = (128, 32, 16);
        let a = random_matrix(m, k, seed + 21);
        let w = random_matrix(k, n, seed + 22);
        let skip = time_ns(smoke, || {
            std::hint::black_box(a.matmul_reference(&w));
        });
        let dense = time_ns(smoke, || {
            std::hint::black_box(a.matmul(&w));
        });
        println!(
            "\nsparsity-skip audit (dense 128x32x16): reference {skip:.0} ns vs blocked {dense:.0} ns ({:.2}x)",
            skip / dense
        );
        gemm_rows.push(serde_json::json!({
            "shape": "128x32x16 dense skip audit",
            "naive_ns": skip, "blocked_ns": dense, "speedup_blocked": skip / dense,
        }));
    }

    // ---- dot: scalar reference vs unrolled lanes vs one IVF tile ----
    let mut dot_rows = Vec::new();
    println!("\n-- dot --");
    println!(
        "{:>6} {:>12} {:>12} {:>14} {:>9}",
        "d", "scalar ns", "lanes ns", "tile ns/ent", "spd"
    );
    for &d in &[16usize, 64, 256] {
        let mut rng = seeded_rng(seed + d as u64);
        let v: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let q: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let tile: Vec<f32> = (0..d * TILE_LANES).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let scalar = time_ns(smoke, || {
            std::hint::black_box(dot_reference(&v, &q));
        });
        let lanes = time_ns(smoke, || {
            std::hint::black_box(dot(&v, &q));
        });
        let per_entry = time_ns(smoke, || {
            std::hint::black_box(dot_tile::<0>(&tile, &q));
        }) / TILE_LANES as f64;
        println!("{d:>6} {scalar:>12.1} {lanes:>12.1} {per_entry:>14.1} {:>8.2}x", scalar / lanes);
        dot_rows.push(serde_json::json!({
            "dim": d, "scalar_ns": scalar, "unrolled_ns": lanes,
            "dot_tile_ns_per_entry": per_entry, "speedup": scalar / lanes,
        }));
    }

    // ---- int8 quantized dot: reference vs blocked vs dot4, plus bytes ----
    // The quantized-retrieval hot loop is `dot_i8` over per-vector codes; the
    // numbers that matter are the speedup over the f32 dot at equal dim and
    // the bytes each scored candidate touches (codes + params vs f32 row).
    let mut qdot_rows = Vec::new();
    println!("\n-- quantized dot (i8 codes, f32 combine) --");
    println!(
        "{:>6} {:>12} {:>12} {:>12} {:>14} {:>9} {:>11} {:>11}",
        "d", "f32 ns", "i8 ref ns", "i8 ns", "dot4_i8 n/q", "spd f32", "B/cand i8", "B/cand f32"
    );
    for &d in &[16usize, 64, 256] {
        let mut rng = seeded_rng(seed + 31 + d as u64);
        let v: Vec<f32> = (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let qs: Vec<Vec<f32>> =
            (0..4).map(|_| (0..d).map(|_| rng.gen_range(-1.0f32..1.0)).collect()).collect();
        let (vc, _vp) = zoomer_core::tensor::quantize(&v);
        let quantized: Vec<(Vec<i8>, zoomer_core::tensor::QuantParams)> =
            qs.iter().map(|q| zoomer_core::tensor::quantize(q)).collect();
        let (qc, _): &(Vec<i8>, _) = &quantized[0];
        let f32_ns = time_ns(smoke, || {
            std::hint::black_box(dot(&v, &qs[0]));
        });
        let ref_ns = time_ns(smoke, || {
            std::hint::black_box(kernel::dot_i8_reference(&vc, qc));
        });
        let i8_ns = time_ns(smoke, || {
            std::hint::black_box(kernel::dot_i8(&vc, qc));
        });
        let four_ns = time_ns(smoke, || {
            std::hint::black_box(kernel::dot4_i8(
                &vc,
                &quantized[0].0,
                &quantized[1].0,
                &quantized[2].0,
                &quantized[3].0,
            ));
        }) / 4.0;
        // Bytes a single candidate costs the scan: i8 codes + (scale,
        // zero_point, code_sum) vs the full f32 row.
        let bytes_i8 = d + 12;
        let bytes_f32 = d * 4;
        println!(
            "{d:>6} {f32_ns:>12.1} {ref_ns:>12.1} {i8_ns:>12.1} {four_ns:>14.1} {:>8.2}x {bytes_i8:>11} {bytes_f32:>11}",
            f32_ns / i8_ns
        );
        qdot_rows.push(serde_json::json!({
            "dim": d, "f32_ns": f32_ns, "i8_reference_ns": ref_ns, "i8_ns": i8_ns,
            "dot4_i8_ns_per_query": four_ns, "speedup_vs_f32": f32_ns / i8_ns,
            "bytes_per_candidate_i8": bytes_i8, "bytes_per_candidate_f32": bytes_f32,
        }));
    }

    // ---- IVF search_batch throughput ----
    let mut rng = seeded_rng(seed + 5);
    let n_items = if smoke { 2_000 } else { 20_000 };
    let dim = 32;
    let items: Vec<(u64, Vec<f32>)> = (0..n_items as u64)
        .map(|id| (id, (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()))
        .collect();
    let index = IvfIndex::build(&items, 64.min(n_items / 8), 4, seed);
    let n_queries = if smoke { 64 } else { 256 };
    let queries = random_matrix(n_queries, dim, seed + 6);
    let batch_ns = time_ns(smoke, || {
        std::hint::black_box(index.search_batch(&queries, 10, 8).expect("search"));
    });
    let qps = n_queries as f64 / (batch_ns * 1e-9);
    println!("\nIVF search_batch: {n_queries} queries over {n_items} items -> {qps:.0} queries/s");

    // ---- End-to-end handle_batch closed-loop throughput ----
    let data = TaobaoData::generate(if smoke {
        TaobaoConfig::tiny(seed)
    } else {
        TaobaoConfig::default_with_seed(seed)
    });
    let dd = data.graph.features().dense_dim();
    let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(seed, dd));
    let graph = Arc::new(
        zoomer_core::graph::read_snapshot(zoomer_core::graph::write_snapshot(&data.graph))
            .expect("snapshot roundtrip"),
    );
    let items_nodes = data.item_nodes();
    let server = OnlineServer::builder()
        .graph(Arc::clone(&graph))
        .frozen(FrozenModel::from_model(&mut model, &graph))
        .item_pool(&items_nodes)
        .config(ServingConfig::default())
        .seed(seed)
        .build()
        .expect("server build");
    let pool: Vec<Query> = data.logs.iter().map(|l| Query::new(l.user, l.query)).collect();
    let warm: Vec<u32> = pool.iter().flat_map(|q| [q.user, q.query]).collect();
    server.warm_cache(&warm).expect("warm cache");
    let mut e2e_rows = Vec::new();
    println!("\n-- handle_batch (single worker, closed loop) --");
    for &bs in &[16usize, 64] {
        let reqs: Vec<Query> = pool.iter().cycle().take(bs).copied().collect();
        let ns = time_ns(smoke, || {
            std::hint::black_box(server.handle_batch(&reqs).expect("handle"));
        });
        let rps = bs as f64 / (ns * 1e-9);
        println!("batch {bs:>4}: {rps:>10.0} req/s ({:.1} us/batch)", ns / 1e3);
        e2e_rows
            .push(serde_json::json!({"batch": bs, "requests_per_sec": rps, "ns_per_batch": ns}));
    }

    let json = serde_json::json!({
        "scale": scale.name(),
        "hardware_threads": threads,
        "gemm": gemm_rows,
        "dot": dot_rows,
        "quantized_dot": qdot_rows,
        "ivf_search_batch": {"queries": n_queries, "items": n_items, "queries_per_sec": qps},
        "handle_batch": e2e_rows,
    });
    write_json("kernels", &json);
    if !smoke {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_kernels.json");
        match std::fs::File::create(&path) {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", serde_json::to_string_pretty(&json).unwrap_or_default());
                println!("(baseline written to {})", path.display());
            }
            Err(e) => println!("(could not write {}: {e})", path.display()),
        }
    }
}
