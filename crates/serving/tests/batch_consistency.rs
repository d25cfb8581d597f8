//! Property-based consistency: `handle_batch` over any request mix must be
//! observationally identical to issuing the same requests one at a time,
//! regardless of batch composition, duplicates, or cache state — and the
//! top-k selection under it must not depend on candidate order.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::NodeId;
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_serving::topk::{top_k_desc, TopK};
use zoomer_serving::{IvfIndex, OnlineServer, Query, ServingConfig};
use zoomer_tensor::{seeded_rng, Matrix};

use rand::seq::SliceRandom;
use rand::Rng;

static SERVER: OnceLock<(OnlineServer, Vec<(NodeId, NodeId)>)> = OnceLock::new();

static INDEX: OnceLock<IvfIndex> = OnceLock::new();

/// A small IVF index shared across the multi-query search property cases.
fn ivf_index() -> &'static IvfIndex {
    INDEX.get_or_init(|| {
        let mut rng = seeded_rng(91);
        let items: Vec<(u64, Vec<f32>)> = (0..600u64)
            .map(|id| (id, (0..16).map(|_| rng.gen_range(-1.0f32..1.0)).collect()))
            .collect();
        IvfIndex::build(&items, 12, 4, 91)
    })
}

/// One shared server (cache state is irrelevant by design — that is the
/// property under test) plus the request universe drawn from the logs.
fn server_and_logs() -> &'static (OnlineServer, Vec<(NodeId, NodeId)>) {
    SERVER.get_or_init(|| {
        let data = TaobaoData::generate(TaobaoConfig::tiny(57));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(13, dd));
        let frozen = model.freeze(&data.graph);
        let items = data.item_nodes();
        let logs: Vec<(NodeId, NodeId)> =
            data.logs.iter().take(120).map(|l| (l.user, l.query)).collect();
        assert!(!logs.is_empty());
        let server = OnlineServer::builder()
            .graph(Arc::new(data.graph))
            .frozen(frozen)
            .item_pool(&items)
            .config(ServingConfig { top_k: 20, ..Default::default() })
            .seed(57)
            .build()
            .expect("server build");
        (server, logs)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn handle_batch_matches_sequential_handles(
        indices in prop::collection::vec(0usize..120, 1..12)
    ) {
        let (server, logs) = server_and_logs();
        let reqs: Vec<Query> = indices
            .iter()
            .map(|&i| {
                let (user, query) = logs[i % logs.len()];
                Query::new(user, query)
            })
            .collect();
        let batched = server.handle_batch(&reqs).expect("serve batch");
        prop_assert_eq!(batched.len(), reqs.len());
        for (i, q) in reqs.iter().enumerate() {
            let single = server.handle_batch(&[*q]).expect("serve");
            prop_assert_eq!(
                &batched[i],
                &single[0],
                "row {} of batch {:?} diverged from a one-request batch",
                i,
                reqs
            );
        }
    }

    #[test]
    fn repeated_batches_are_stable(
        indices in prop::collection::vec(0usize..120, 1..10)
    ) {
        // The second run hits warm cache entries where the first may have
        // missed; results must not depend on that.
        let (server, logs) = server_and_logs();
        let reqs: Vec<Query> = indices
            .iter()
            .map(|&i| {
                let (user, query) = logs[i % logs.len()];
                Query::new(user, query)
            })
            .collect();
        let first = server.handle_batch(&reqs).expect("serve batch");
        let second = server.handle_batch(&reqs).expect("serve batch");
        prop_assert_eq!(first, second);
    }

    /// A multi-query IVF probe returns exactly each row's single-query
    /// result, ids and scores bit-for-bit, at any batch size (including
    /// ragged `dot4` blocks), `k` and `nprobe`.
    #[test]
    fn search_batch_rows_match_single_searches(
        n_queries in 1usize..48,
        qseed in 0u64..1000,
        k in 1usize..12,
        nprobe in 1usize..6,
    ) {
        let index = ivf_index();
        let mut rng = seeded_rng(qseed);
        let queries = Matrix::from_vec(
            n_queries,
            index.dim(),
            (0..n_queries * index.dim()).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
        );
        let batched = index.search_batch(&queries, k, nprobe).expect("batch");
        prop_assert_eq!(batched.len(), n_queries);
        for (row, expect) in batched.iter().enumerate() {
            let single = index.search(queries.row(row), k, nprobe).expect("single");
            let expect_bits: Vec<(u64, u32)> =
                expect.iter().map(|&(id, s)| (id, s.to_bits())).collect();
            let single_bits: Vec<(u64, u32)> =
                single.iter().map(|&(id, s)| (id, s.to_bits())).collect();
            prop_assert_eq!(expect_bits, single_bits, "row {}", row);
        }
    }

    /// The rank order is total: a [`TopK`] fed any permutation of the
    /// candidates, or fed chunk by chunk with the chunk winners re-merged
    /// (what a sharded merge does), returns exactly "sort everything by
    /// (score desc, id asc), keep k". Scores come from four values, so ties
    /// are everywhere.
    #[test]
    fn topk_is_invariant_to_candidate_order_and_chunking(
        score_picks in prop::collection::vec(0usize..4, 0..160),
        k in 0usize..40,
        chunk in 1usize..50,
        perm_seed in 0u64..1000,
    ) {
        const SCORES: [f32; 4] = [-1.5, 0.0, 0.25, 2.0];
        let mut candidates: Vec<(u64, f32)> =
            score_picks.iter().enumerate().map(|(i, &p)| (3 + 7 * i as u64, SCORES[p])).collect();
        let mut want = candidates.clone();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        want.truncate(k);

        candidates.shuffle(&mut seeded_rng(perm_seed));
        let mut streamed = TopK::new(k);
        for &(id, s) in &candidates {
            streamed.push(id, s);
        }
        prop_assert_eq!(&streamed.finish(), &want, "one permuted stream");

        let winners: Vec<(u64, f32)> =
            candidates.chunks(chunk).flat_map(|c| top_k_desc(c.to_vec(), k)).collect();
        prop_assert_eq!(&top_k_desc(winners, k), &want, "chunks of {} re-merged", chunk);
    }
}
