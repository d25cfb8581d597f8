//! Similarity kernels, including the paper's focal-relevance kernel (eq. 5).
//!
//! [`dot`] is the one dot-product implementation in the workspace:
//! `cosine_similarity`, `tanimoto_similarity`, the frozen model's edge
//! attention, and the exact scans all route through it. The IVF scorer
//! routes through [`dot_tile`], which applies the identical lane scheme to
//! eight entries stored side by side, so an entry scored inside a tile gets
//! bit-for-bit the value `dot` gives it alone.

/// Accumulator lanes of the unrolled [`dot`]: element `i` feeds lane
/// `i % DOT_LANES`, and the lanes collapse through a fixed pairwise tree.
/// One scalar accumulator chains every `x·y + s` through a single register,
/// serializing the loop on FMA latency; eight independent lanes let the
/// compiler vectorize and keep the pipeline full.
pub const DOT_LANES: usize = 8;

#[inline]
fn reduce_lanes(acc: [f32; DOT_LANES]) -> f32 {
    ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
}

/// Dot product of two equal-length slices, unrolled over [`DOT_LANES`]
/// independent accumulators.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let mut acc = [0.0f32; DOT_LANES];
    let mut ca = a.chunks_exact(DOT_LANES);
    let mut cb = b.chunks_exact(DOT_LANES);
    for (xa, xb) in (&mut ca).zip(&mut cb) {
        for j in 0..DOT_LANES {
            acc[j] += xa[j] * xb[j];
        }
    }
    for (j, (&x, &y)) in ca.remainder().iter().zip(cb.remainder()).enumerate() {
        acc[j] += x * y;
    }
    reduce_lanes(acc)
}

/// Entries per tile of [`dot_tile`].
pub const TILE_LANES: usize = 8;

/// Dot products of one query `q` against the [`TILE_LANES`] entries of one
/// tile: `width` rows of `TILE_LANES` floats, row `i` holding element `i` of
/// every entry side by side (`tile[i * TILE_LANES + e]` is element `i` of
/// entry `e`).
///
/// Each entry's sum is accumulated by exactly the [`dot`] lane scheme —
/// element `i` into lane `i % DOT_LANES` from `+0.0`, the lanes collapsed
/// through the same pairwise tree — only the tree's adds run vertically
/// across the eight entries instead of across one register's lanes, so
/// `dot_tile(t, q)[e].to_bits() == dot(entry_e, q).to_bits()`. No lane ever
/// crosses entries: every add is a plain 8-wide vector add.
///
/// `W` is the width when the caller knows it at compile time, so that every
/// loop unrolls (the IVF scan passes the served models' width); `W = 0`
/// takes the width from `q.len()`. Both run this one body.
#[inline]
pub fn dot_tile<const W: usize>(tile: &[f32], q: &[f32]) -> [f32; TILE_LANES] {
    let width = if W == 0 { q.len() } else { W };
    debug_assert_eq!(tile.len(), width * TILE_LANES, "dot_tile: tile/query width mismatch");
    let (tile, q) = (&tile[..width * TILE_LANES], &q[..width]);
    // Lane `j` of all eight sums: elements j, j + 8, … in order, from
    // `+0.0`. Lanes are built one at a time and folded into the tree as
    // they complete, so only the tree's partial sums are live — not all 64
    // accumulators, which would not fit the vector registers.
    let lane = |j: usize| -> [f32; TILE_LANES] {
        let mut acc = [0.0f32; TILE_LANES];
        let mut i = j;
        while i < width {
            for (a, &v) in acc.iter_mut().zip(&tile[i * TILE_LANES..(i + 1) * TILE_LANES]) {
                *a += v * q[i];
            }
            i += DOT_LANES;
        }
        acc
    };
    let add = |a: [f32; TILE_LANES], b: [f32; TILE_LANES]| -> [f32; TILE_LANES] {
        std::array::from_fn(|e| a[e] + b[e])
    };
    add(
        add(add(lane(0), lane(1)), add(lane(2), lane(3))),
        add(add(lane(4), lane(5)), add(lane(6), lane(7))),
    )
}

/// The seed's scalar sequential dot, kept as the oracle the unrolled
/// [`dot`] is benchmarked against (the *values* may differ in the last ulp:
/// re-associating a float sum is the one place this PR trades bit-equality
/// for speed, and every consumer of `dot` tolerates it).
#[inline]
pub fn dot_reference(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Euclidean norm.
#[inline]
pub fn l2_norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Cosine similarity in `[-1, 1]`; returns 0 if either vector is all-zero.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    let na = l2_norm(a);
    let nb = l2_norm(b);
    if na <= f32::EPSILON || nb <= f32::EPSILON {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// The paper's focal-relevance score (eq. 5), a continuous Tanimoto
/// coefficient:
///
/// ```text
/// e = (Fc · Fj) / (‖Fc‖² + ‖Fj‖² − Fc · Fj)
/// ```
///
/// Larger when `f_j` is more relevant (closer, in both direction and
/// magnitude) to the focal vector `f_c`. For two all-zero vectors the
/// denominator vanishes; we define the score as 0 there (no evidence of
/// relevance).
pub fn tanimoto_similarity(f_c: &[f32], f_j: &[f32]) -> f32 {
    let d = dot(f_c, f_j);
    let denom = dot(f_c, f_c) + dot(f_j, f_j) - d;
    if denom.abs() <= f32::EPSILON {
        0.0
    } else {
        d / denom
    }
}

/// Jaccard similarity of two sets represented as sorted, deduplicated slices.
///
/// Used by the graph builder to weight similarity-based edges from MinHash
/// signatures (the exact version, for testing MinHash's estimate against).
pub fn jaccard_exact(a: &[u64], b: &[u64]) -> f64 {
    debug_assert!(a.windows(2).all(|w| w[0] < w[1]), "jaccard_exact: `a` must be sorted+dedup");
    debug_assert!(b.windows(2).all(|w| w[0] < w[1]), "jaccard_exact: `b` must be sorted+dedup");
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let (mut i, mut j, mut inter) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                inter += 1;
                i += 1;
                j += 1;
            }
        }
    }
    inter as f64 / (a.len() + b.len() - inter) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm_basics() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert!((l2_norm(&[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn dot_matches_reference_closely_across_lengths() {
        // Exact on lengths below one lane block (single-lane order matches
        // the scalar loop), and within re-association tolerance above.
        for d in [0usize, 1, 3, 7, 8, 9, 15, 16, 17, 31, 64, 100] {
            let a: Vec<f32> = (0..d).map(|i| ((i * 37 % 19) as f32 - 9.0) / 7.0).collect();
            let b: Vec<f32> = (0..d).map(|i| ((i * 53 % 23) as f32 - 11.0) / 5.0).collect();
            let got = dot(&a, &b);
            let want = dot_reference(&a, &b);
            assert!((got - want).abs() <= 1e-4 * (1.0 + want.abs()), "d={d}: {got} vs {want}");
        }
    }

    #[test]
    fn cosine_identical_is_one() {
        let v = [0.3, -0.7, 2.0];
        assert!((cosine_similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_opposite_is_minus_one() {
        let v = [1.0, 2.0];
        let w = [-1.0, -2.0];
        assert!((cosine_similarity(&v, &w) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_orthogonal_is_zero() {
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 5.0]).abs() < 1e-7);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 2.0]), 0.0);
    }

    #[test]
    fn tanimoto_identical_is_one() {
        let v = [1.0, 2.0, 3.0];
        assert!((tanimoto_similarity(&v, &v) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn tanimoto_orders_by_relevance() {
        // A vector aligned with the focal should score higher than an
        // orthogonal one, which should score higher than an opposed one.
        let focal = [1.0, 0.0];
        let aligned = [0.9, 0.1];
        let ortho = [0.0, 1.0];
        let opposed = [-1.0, 0.0];
        let s_a = tanimoto_similarity(&focal, &aligned);
        let s_o = tanimoto_similarity(&focal, &ortho);
        let s_n = tanimoto_similarity(&focal, &opposed);
        assert!(s_a > s_o && s_o > s_n, "{s_a} {s_o} {s_n}");
    }

    #[test]
    fn tanimoto_zero_vectors_defined() {
        assert_eq!(tanimoto_similarity(&[0.0, 0.0], &[0.0, 0.0]), 0.0);
    }

    #[test]
    fn tanimoto_penalizes_magnitude_mismatch() {
        // Unlike cosine, Tanimoto is sensitive to magnitude: a scaled copy
        // scores below 1.
        let v = [1.0, 1.0];
        let w = [10.0, 10.0];
        assert!((cosine_similarity(&v, &w) - 1.0).abs() < 1e-6);
        assert!(tanimoto_similarity(&v, &w) < 0.5);
    }

    #[test]
    fn jaccard_exact_basics() {
        assert_eq!(jaccard_exact(&[1, 2, 3], &[1, 2, 3]), 1.0);
        assert_eq!(jaccard_exact(&[1, 2], &[3, 4]), 0.0);
        assert!((jaccard_exact(&[1, 2, 3], &[2, 3, 4]) - 0.5).abs() < 1e-9);
        assert_eq!(jaccard_exact(&[], &[]), 0.0);
    }
}
