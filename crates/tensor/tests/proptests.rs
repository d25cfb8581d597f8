//! Property-based tests for the tensor crate's core invariants.

use proptest::prelude::*;
use zoomer_tensor::{
    auc, cosine_similarity, dot, dot_tile, kernel, stable_softmax, tanimoto_similarity, Matrix,
    TILE_LANES,
};

fn small_f32() -> impl Strategy<Value = f32> {
    (-100.0f32..100.0).prop_map(|x| (x * 100.0).round() / 100.0)
}

/// Values for the kernel equivalence suite: finite, with real zero mass
/// (both signs) so the reference kernel's sparsity skip actually fires.
fn kernel_f32() -> impl Strategy<Value = f32> {
    (-4.0f32..4.0).prop_map(|x| {
        if (0.0..0.8).contains(&x) {
            0.0
        } else if (-0.8..0.0).contains(&x) {
            -0.0
        } else {
            (x * 25.0).round() / 25.0
        }
    })
}

/// Widths the tile-kernel suite covers: empty, below, at and around one
/// lane block, the served width and its neighbours, and wide.
const TILE_WIDTHS: [usize; 10] = [0, 1, 7, 8, 9, 15, 16, 17, 31, 64];

/// Values for the tile-kernel suite: mostly small finite numbers, with
/// ±0.0, subnormals, ±inf and NaN mixed in.
fn tile_f32() -> impl Strategy<Value = f32> {
    const SPECIAL: [f32; 7] =
        [0.0, -0.0, 1e-40, -3e-39, f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    (0usize..48, -4.0f32..4.0).prop_map(|(pick, x)| SPECIAL.get(pick).copied().unwrap_or(x))
}

fn vec_f32(len: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(small_f32(), len)
}

/// Operand pool for the GEMM proptests: dims are drawn in `0..20` (covering
/// `rows = 0`, `cols = 1`, the `NR = 8` tile width, and every
/// non-multiple-of-tile size in between), and matrices are carved out of a
/// shared fixed-size value pool since the vendored proptest has no
/// `prop_flat_map` for length-dependent vectors.
const GEMM_DIM_MAX: usize = 20;
const GEMM_POOL: usize = 2 * GEMM_DIM_MAX * GEMM_DIM_MAX + GEMM_DIM_MAX;

fn gemm_operands(pool: &[f32], m: usize, k: usize, n: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
    let off = GEMM_DIM_MAX * GEMM_DIM_MAX;
    (pool[..m * k].to_vec(), pool[off..off + k * n].to_vec(), pool[2 * off..2 * off + n].to_vec())
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #[test]
    fn softmax_is_distribution(xs in prop::collection::vec(-50.0f32..50.0, 1..32)) {
        let p = stable_softmax(&xs);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn softmax_preserves_order(xs in prop::collection::vec(-50.0f32..50.0, 2..16)) {
        let p = stable_softmax(&xs);
        for i in 0..xs.len() {
            for j in 0..xs.len() {
                if xs[i] > xs[j] {
                    prop_assert!(p[i] >= p[j]);
                }
            }
        }
    }

    #[test]
    fn cosine_bounded(a in vec_f32(8), b in vec_f32(8)) {
        let c = cosine_similarity(&a, &b);
        prop_assert!((-1.0..=1.0).contains(&c));
        // Symmetry.
        prop_assert!((c - cosine_similarity(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn tanimoto_bounded_above_by_one(a in vec_f32(8), b in vec_f32(8)) {
        // Tanimoto over reals is ≤ 1 (equality iff a == b) and ≥ -1/3.
        let t = tanimoto_similarity(&a, &b);
        prop_assert!(t <= 1.0 + 1e-5, "t = {t}");
        prop_assert!(t >= -1.0 / 3.0 - 1e-4, "t = {t}");
        prop_assert!((t - tanimoto_similarity(&b, &a)).abs() < 1e-5);
    }

    #[test]
    fn matmul_distributes_over_add(
        a in vec_f32(12), b in vec_f32(12), c in vec_f32(12)
    ) {
        let a = Matrix::from_vec(3, 4, a);
        let b = Matrix::from_vec(4, 3, b);
        let c = Matrix::from_vec(4, 3, c);
        let lhs = a.matmul(&(&b + &c));
        let rhs = &a.matmul(&b) + &a.matmul(&c);
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-2);
    }

    #[test]
    fn transpose_reverses_matmul(a in vec_f32(6), b in vec_f32(6)) {
        let a = Matrix::from_vec(2, 3, a);
        let b = Matrix::from_vec(3, 2, b);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.max_abs_diff(&rhs) < 1e-3);
    }

    #[test]
    fn auc_invariant_to_monotone_transform(
        pairs in prop::collection::vec((0.0f32..1.0, prop::bool::ANY), 4..64)
    ) {
        let scores: Vec<f32> = pairs.iter().map(|(s, _)| *s).collect();
        let labels: Vec<f32> = pairs.iter().map(|(_, l)| if *l { 1.0 } else { 0.0 }).collect();
        let base = auc(&scores, &labels);
        // Apply a strictly increasing transform that cannot saturate in f32
        // over [0, 1] (tanh-style squashers collapse nearby scores into ties
        // and change the AUC): an affine map.
        let transformed: Vec<f32> = scores.iter().map(|&s| 2.5 * s - 0.75).collect();
        let t = auc(&transformed, &labels);
        prop_assert!((base - t).abs() < 1e-6, "{base} vs {t}");
    }

    /// Satellite (c): the blocked serial kernel is bit-identical to the
    /// naive reference across random shapes, including degenerate ones
    /// (`rows = 0`, `cols = 1`) and sizes that straddle the register tiles,
    /// with and without a fused bias.
    #[test]
    fn blocked_gemm_bitwise_matches_reference(
        m in 0usize..GEMM_DIM_MAX,
        k in 0usize..GEMM_DIM_MAX,
        n in 0usize..GEMM_DIM_MAX,
        pool in prop::collection::vec(kernel_f32(), GEMM_POOL),
    ) {
        let (a, b, bias) = gemm_operands(&pool, m, k, n);
        let am = Matrix::from_vec(m, k, a);
        let bm = Matrix::from_vec(k, n, b);
        prop_assert_eq!(bits(&am.matmul(&bm)), bits(&am.matmul_reference(&bm)));
        prop_assert_eq!(
            bits(&am.matmul_bias(&bm, &bias)),
            bits(&am.matmul_bias_reference(&bm, &bias))
        );
    }

    /// Satellite (c): forcing the parallel row-band split — any band count,
    /// including more bands than rows — never changes a single bit relative
    /// to the naive reference.
    #[test]
    fn banded_gemm_bitwise_matches_reference(
        m in 0usize..GEMM_DIM_MAX,
        k in 0usize..GEMM_DIM_MAX,
        n in 0usize..GEMM_DIM_MAX,
        bands in 2usize..9,
        pool in prop::collection::vec(kernel_f32(), GEMM_POOL),
    ) {
        let (a, b, bias) = gemm_operands(&pool, m, k, n);
        let mut expect = vec![0.0f32; m * n];
        kernel::matmul_reference(&a, &b, m, k, n, &mut expect);
        for (o, &bv) in expect.chunks_exact_mut(n.max(1)).flat_map(|r| r.iter_mut().zip(&bias)) {
            *o += bv;
        }
        let mut got = vec![f32::NAN; m * n];
        kernel::gemm_banded(&a, &b, Some(&bias), m, k, n, &mut got, bands);
        let expect_bits: Vec<u32> = expect.iter().map(|x| x.to_bits()).collect();
        let got_bits: Vec<u32> = got.iter().map(|x| x.to_bits()).collect();
        prop_assert_eq!(expect_bits, got_bits);
    }

    /// The IVF tile scorer applies the exact lane scheme of the single-entry
    /// `dot` to every entry of a tile, at a runtime width and at the
    /// compile-time width the IVF scan specialises, so a tile-scored
    /// candidate is bit-identical to one scored alone — special values
    /// included. `finite` cases keep the sums numeric at the wide widths,
    /// where a NaN or infinity somewhere is otherwise almost certain.
    #[test]
    fn dot_tile_bitwise_matches_dot_per_entry(
        width_pick in 0usize..TILE_WIDTHS.len(),
        finite in prop::bool::ANY,
        pool in prop::collection::vec(tile_f32(), (TILE_LANES + 1) * 64),
    ) {
        let width = TILE_WIDTHS[width_pick];
        let pool: Vec<f32> =
            pool.into_iter().map(|x| if finite && !x.is_finite() { 1.5 } else { x }).collect();
        let q = &pool[..width];
        let entries: Vec<&[f32]> = (1..=TILE_LANES).map(|e| &pool[e * 64..e * 64 + width]).collect();
        let mut tile = vec![f32::NAN; width * TILE_LANES];
        for (e, v) in entries.iter().enumerate() {
            for (i, &x) in v.iter().enumerate() {
                tile[i * TILE_LANES + e] = x;
            }
        }
        let want: Vec<u32> = entries.iter().map(|v| dot(v, q).to_bits()).collect();
        let got = dot_tile::<0>(&tile, q).map(f32::to_bits);
        prop_assert_eq!(got.to_vec(), want.clone(), "width {}", width);
        if width == 16 {
            prop_assert_eq!(dot_tile::<16>(&tile, q).map(f32::to_bits).to_vec(), want);
        }
    }

    /// PR 8 tentpole: quantize→dequantize round-trip error is at most
    /// `scale/2` per element (the nearest-code property), for any finite
    /// input vector including constants and single elements.
    #[test]
    fn quantize_round_trip_error_bounded_by_half_scale(
        v in prop::collection::vec(-100.0f32..100.0, 1..64)
    ) {
        let (codes, p) = zoomer_tensor::quantize(&v);
        prop_assert_eq!(codes.len(), v.len());
        prop_assert!(p.scale > 0.0);
        let back = zoomer_tensor::dequantize(&codes, &p);
        for (&x, &y) in v.iter().zip(&back) {
            let err = (x as f64 - y as f64).abs();
            prop_assert!(
                err <= p.scale as f64 * 0.5 * (1.0 + 1e-6),
                "|{} - {}| = {} > scale/2 = {}", x, y, err, p.scale * 0.5
            );
        }
        prop_assert_eq!(p.code_sum, codes.iter().map(|&c| c as i32).sum::<i32>());
    }

    /// PR 8 tentpole: the blocked i8 kernels are exactly the naive i32
    /// reference — integer accumulation, so equality is `==`, not
    /// bit-tolerance.
    #[test]
    fn dot_i8_matches_i32_reference(
        len in 0usize..70,
        pool in prop::collection::vec(-127i8..=127, 350),
    ) {
        let take = |o: usize| -> Vec<i8> { pool[o..o + len].to_vec() };
        let (v, q0, q1, q2, q3) = (take(0), take(70), take(140), take(210), take(280));
        prop_assert_eq!(kernel::dot_i8(&v, &q0), kernel::dot_i8_reference(&v, &q0));
        let got = kernel::dot4_i8(&v, &q0, &q1, &q2, &q3);
        let want = [
            kernel::dot_i8(&v, &q0),
            kernel::dot_i8(&v, &q1),
            kernel::dot_i8(&v, &q2),
            kernel::dot_i8(&v, &q3),
        ];
        prop_assert_eq!(got, want, "dot4_i8 must equal dot_i8 per query");
    }
}

proptest! {
    #[test]
    fn auc_flipping_scores_complements(
        pairs in prop::collection::vec((0.0f32..1.0, prop::bool::ANY), 4..64)
    ) {
        let scores: Vec<f32> = pairs.iter().map(|(s, _)| *s).collect();
        let labels: Vec<f32> = pairs.iter().map(|(_, l)| if *l { 1.0 } else { 0.0 }).collect();
        let n_pos = labels.iter().filter(|&&l| l > 0.5).count();
        prop_assume!(n_pos > 0 && n_pos < labels.len());
        let base = auc(&scores, &labels);
        let neg: Vec<f32> = scores.iter().map(|&s| -s).collect();
        prop_assert!((base + auc(&neg, &labels) - 1.0).abs() < 1e-6);
    }
}
