//! Dense matrix math, numerics, and ranking metrics for the Zoomer reproduction.
//!
//! This crate is the numeric foundation of the workspace: a row-major [`Matrix`]
//! type with the small set of dense operations the GNN stack needs, numerically
//! stable activations, similarity kernels (including the paper's eq. (5)
//! Tanimoto-style focal-relevance kernel), seeded random initialization, and
//! the evaluation metrics reported in the paper (AUC, MAE, RMSE, HitRate@K).
//!
//! Design notes
//! - Everything is `f32` (matching production recommender practice); metric
//!   accumulation happens in `f64` to avoid drift over large test sets.
//! - No unsafe, no SIMD intrinsics: the matmul is a register-blocked,
//!   optionally row-parallel kernel (see [`kernel`]) whose inner loops are
//!   written for auto-vectorization, pinned bit-for-bit to the seed's naive
//!   ikj reference by a proptest equivalence suite.
//! - All randomness is driven by caller-provided RNGs so experiments are
//!   reproducible from a printed seed.

// Audited: this crate contains no unsafe and the "no unsafe" note above is
// load-bearing for the serving hot path, so make the compiler keep it true.
// `unsafe_op_in_unsafe_fn` is additionally denied workspace-wide (zoomer-lint
// L002 requires a `// SAFETY:` comment should unsafe ever be introduced).
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]

pub mod kernel;
pub mod matrix;
pub mod metrics;
pub mod numerics;
pub mod quant;
pub mod rng;
pub mod similarity;

pub use matrix::Matrix;
pub use metrics::{auc, hit_rate_at_k, mae, mean_reciprocal_rank, ndcg_at_k, rmse};
pub use numerics::{leaky_relu, log_sum_exp, relu, sigmoid, softmax_inplace, stable_softmax};
pub use quant::{dequantize, quantize, quantize_into, quantized_dot, QuantParams};
pub use rng::{seeded_rng, xavier_matrix, xavier_vec};
pub use similarity::{cosine_similarity, dot, dot_tile, l2_norm, tanimoto_similarity, TILE_LANES};
