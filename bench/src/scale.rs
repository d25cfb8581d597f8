//! Sizes that differ between a full run and `smoke`.

use zoomer_data::{ScaleTier, TaobaoConfig};

/// The dataset and the model are the same for every seed: `--seed` draws
/// the inputs (the request stream, the order of training examples), not the
/// system under test, so recall and the program-made counts repeat exactly
/// and timings of different seeds are comparable.
pub const DATASET_SEED: u64 = 1;
pub const MODEL_SEED: u64 = 1;

pub struct Scale {
    /// Graph the serving workloads serve.
    pub serve_data: TaobaoConfig,
    /// Sessions in the hot set of the `serve_hot_*`/`serve_quant_*` streams.
    pub hot_sessions: usize,
    /// `cache_capacity` of `serve_churn`, far below its distinct nodes.
    pub churn_capacity: usize,
    pub recall_queries: usize,
    pub equality_frames: usize,
    /// Graph `train_roi` trains on.
    pub train_data: TaobaoConfig,
    /// Held-out examples the AUC is computed on.
    pub eval_examples: usize,
    /// Whether the pinned recall and AUC floors apply (not on the tiny
    /// graph, where both are noise).
    pub quality_floors: bool,
}

impl Scale {
    pub fn full() -> Self {
        Self {
            serve_data: ScaleTier::Billion.config(DATASET_SEED),
            hot_sessions: 2_000,
            churn_capacity: 4_096,
            recall_queries: 500,
            equality_frames: 256,
            train_data: ScaleTier::Million.config(DATASET_SEED),
            eval_examples: 2_000,
            quality_floors: true,
        }
    }

    pub fn smoke() -> Self {
        Self {
            serve_data: TaobaoConfig::tiny(DATASET_SEED),
            hot_sessions: 50,
            churn_capacity: 16,
            recall_queries: 50,
            equality_frames: 16,
            train_data: TaobaoConfig::tiny(DATASET_SEED),
            eval_examples: 200,
            quality_floors: false,
        }
    }
}
