//! Small measuring helpers shared by the serving and training workloads.

use std::hint::black_box;
use std::time::Instant;

use zoomer_tensor::Matrix;

use crate::loadgen::micros;
use crate::metrics::Metrics;

/// Resident set of this process in MiB (`VmRSS`).
pub fn rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmRSS:")?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Time `reps` calls of `f` and return microseconds per call; for calls too
/// short for one clock reading each.
pub fn time_reps<R>(reps: usize, mut f: impl FnMut() -> R) -> (R, f64) {
    let t = Instant::now();
    let mut last = f();
    for _ in 1..reps {
        last = black_box(f());
    }
    (last, micros(t.elapsed()) / reps as f64)
}

/// Kernel timings shared by serving and training, at the shapes both use.
pub fn tensor_micro(m: &mut Metrics, embed_dim: usize, batch: usize) {
    let d = embed_dim;
    let a: Vec<f32> = (0..d).map(|i| (i as f32 * 0.37).sin()).collect();
    let b: Vec<f32> = (0..d).map(|i| (i as f32 * 0.11).cos()).collect();
    let (_, us) = time_reps(400_000, || zoomer_tensor::dot(black_box(&a), black_box(&b)));
    m.set("tensor.dot_ns", us * 1e3);
    let qa: Vec<i8> = (0..d).map(|i| (i as i32 * 7 - 50) as i8).collect();
    let qb: Vec<i8> = (0..d).map(|i| (90 - i as i32 * 5) as i8).collect();
    let (_, us) =
        time_reps(400_000, || zoomer_tensor::kernel::dot_i8(black_box(&qa), black_box(&qb)));
    m.set("tensor.dot_i8_ns", us * 1e3);
    let w = Matrix::from_vec(2 * d, d, (0..2 * d * d).map(|i| (i as f32 * 0.01).sin()).collect());
    let bias = vec![0.1f32; d];
    let shape = |rows: usize| {
        Matrix::from_vec(rows, 2 * d, (0..rows * 2 * d).map(|i| (i as f32 * 0.02).cos()).collect())
    };
    // The combine layer of `embed_requests` stacks two towers per query.
    let embed_in = shape(2 * batch);
    let (_, us) = time_reps(2_000, || black_box(&embed_in).matmul_bias(&w, &bias));
    m.set("tensor.matmul_bias_embed_us", us);
    // Training runs batch 1: one row through the same layer.
    let train_in = shape(1);
    let (_, us) = time_reps(20_000, || black_box(&train_in).matmul_bias(&w, &bias));
    m.set("tensor.matmul_bias_train_us", us);
}
