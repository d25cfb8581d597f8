//! Brownout-ladder domination suite (wired into `ci.sh`).
//!
//! The contract behind the counted degradation ladder: at the same seed,
//! each rung's answer is **quality-dominated** by the rung above it —
//! a harsher rung returns no more rows, and row-for-row no better scores,
//! than a milder one. Exercised through
//! `OnlineServer::handle_batch_scored_forced`, which prescribes the rung
//! instead of deriving it from a deadline, so the property is deterministic
//! and holds on every backend that ranks through the model path.

use std::sync::{Arc, OnceLock};

use proptest::prelude::*;
use zoomer_data::{TaobaoConfig, TaobaoData};
use zoomer_graph::{HeteroGraph, NodeId};
use zoomer_model::{CtrModel, ModelConfig, UnifiedCtrModel};
use zoomer_serving::{
    BackendKind, BrownoutRung, Deadline, FrozenModel, OnlineServer, Query, ScoredRetrieval,
    ServingConfig,
};

/// What every server in this suite is built from.
struct Inputs {
    graph: Arc<HeteroGraph>,
    frozen: FrozenModel,
    pool: Vec<NodeId>,
    logs: Vec<(NodeId, NodeId)>,
}

fn inputs() -> &'static Inputs {
    static INPUTS: OnceLock<Inputs> = OnceLock::new();
    INPUTS.get_or_init(|| {
        let data = TaobaoData::generate(TaobaoConfig::tiny(83));
        let dd = data.graph.features().dense_dim();
        let mut model = UnifiedCtrModel::new(ModelConfig::zoomer(31, dd));
        let frozen = model.freeze(&data.graph);
        let pool = data.item_nodes();
        let logs: Vec<(NodeId, NodeId)> =
            data.logs.iter().take(60).map(|l| (l.user, l.query)).collect();
        assert!(!logs.is_empty());
        Inputs { graph: Arc::new(data.graph), frozen, pool, logs }
    })
}

/// A fresh server (own registry, own cost EWMA) over the shared inputs.
fn server(backend: BackendKind) -> OnlineServer {
    let inputs = inputs();
    OnlineServer::builder()
        .graph(Arc::clone(&inputs.graph))
        .frozen(inputs.frozen.clone())
        .item_pool(&inputs.pool)
        .config(ServingConfig { backend, top_k: 10, ..Default::default() })
        .seed(83)
        .build()
        .expect("server build")
}

/// The servers the proptests share (their cases only read results).
fn servers() -> &'static [(BackendKind, OnlineServer)] {
    static SERVERS: OnceLock<Vec<(BackendKind, OnlineServer)>> = OnceLock::new();
    SERVERS.get_or_init(|| {
        [BackendKind::Ivf, BackendKind::Quantized].into_iter().map(|b| (b, server(b))).collect()
    })
}

fn queries(batch: usize, offset: usize, k: u32) -> Vec<Query> {
    let logs = &inputs().logs;
    (0..batch)
        .map(|i| {
            let (user, q) = logs[(offset + i) % logs.len()];
            Query::new(user, q).with_top_k(k)
        })
        .collect()
}

/// Score-bit projection of a scored batch result.
fn bits(rows: &[ScoredRetrieval]) -> Vec<(Vec<(u64, u32)>, bool)> {
    rows.iter()
        .map(|r| (r.items.iter().map(|&(id, s)| (id, s.to_bits())).collect(), r.degraded))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Walking the model-path rungs mildest → harshest: no rung returns
    /// more rows than the rung above it, and on the shared prefix no rung
    /// outscores the rung above it. `ShrinkTopK` is additionally pinned as
    /// an exact truncation of `SkipWiden` (same probe, half the rows).
    #[test]
    fn each_rung_is_quality_dominated_by_the_rung_above(
        batch in 1usize..5,
        offset in 0usize..50,
        k in 1u32..16,
    ) {
        for (kind, server) in servers() {
            let qs = queries(batch, offset, k);
            let ladder: Vec<Vec<ScoredRetrieval>> = BrownoutRung::ALL[..4]
                .iter()
                .map(|&rung| server.handle_batch_scored_forced(&qs, rung).expect("forced rung"))
                .collect();
            for (milder, harsher) in ladder.iter().zip(ladder.iter().skip(1)) {
                for row in 0..qs.len() {
                    let a = &milder[row].items;
                    let b = &harsher[row].items;
                    prop_assert!(
                        b.len() <= a.len(),
                        "{}: harsher rung returned more rows ({} > {}) at row {row}",
                        kind.name(), b.len(), a.len()
                    );
                    for i in 0..b.len() {
                        prop_assert!(
                            b[i].1 <= a[i].1,
                            "{}: harsher rung outscored milder at row {row} rank {i} \
                             ({} > {})",
                            kind.name(), b[i].1, a[i].1
                        );
                    }
                }
            }
            let shrunk_k = BrownoutRung::ShrinkTopK.shrunk_k(k as usize);
            for (row, (skip, shrink)) in ladder[1].iter().zip(ladder[2].iter()).enumerate() {
                let wide = &skip.items;
                let shrunk = &shrink.items;
                prop_assert!(
                    shrunk.len() <= shrunk_k,
                    "{}: ShrinkTopK returned {} rows for k={k}",
                    kind.name(), shrunk.len()
                );
                prop_assert_eq!(
                    shrunk.as_slice(),
                    &wide[..shrunk.len()],
                    "{}: ShrinkTopK must be SkipWiden truncated, row {}",
                    kind.name(), row
                );
            }
            // Fallback (the bottom rung) leaves the model path entirely —
            // its rows cannot be score-compared, but they stay bounded and
            // flagged.
            let fallback =
                server.handle_batch_scored_forced(&qs, BrownoutRung::Fallback).expect("fallback");
            for row in &fallback {
                prop_assert!(row.degraded, "{}: fallback rows must be degraded", kind.name());
                prop_assert!(row.items.len() <= k as usize);
            }
            for (rung_idx, rows) in ladder.iter().enumerate() {
                for row in rows {
                    prop_assert_eq!(
                        row.degraded,
                        rung_idx != 0,
                        "{}: degraded flag must track rung, rung index {}",
                        kind.name(), rung_idx
                    );
                }
            }
        }
    }

    /// The forced entry is a caller of the ordinary request path, not a copy
    /// of it: forcing `Full` is bit-for-bit the organic no-deadline answer.
    #[test]
    fn forced_full_is_the_organic_unbounded_path(
        batch in 1usize..6,
        offset in 0usize..50,
        k in 0u32..16,
    ) {
        for (kind, server) in servers() {
            let qs = queries(batch, offset, k);
            let forced =
                server.handle_batch_scored_forced(&qs, BrownoutRung::Full).expect("forced full");
            let organic = server.handle_batch_scored(&qs, Deadline::none()).expect("organic");
            prop_assert_eq!(bits(&forced), bits(&organic), "{}: forced Full drifted", kind.name());
        }
    }
}

/// Each forced degraded rung moves exactly its own counter: one per batch
/// for the model-path rungs, one per request for the fallback, and nothing
/// at all for a full-quality batch.
#[test]
fn forced_rungs_count_exactly_their_own_counter() {
    // A private server: this test diffs counters, and tests in this binary
    // run on parallel threads, so it must not share a registry with the
    // proptests' forced batches.
    let server = server(BackendKind::Ivf);
    let qs = queries(3, 0, 10);
    let rung_counters = [
        "serve.degraded.skip_widen",
        "serve.degraded.topk_shrunk",
        "serve.degraded.budget_capped",
        "serve.degraded.fallback",
    ];
    for (idx, rung) in BrownoutRung::ALL.into_iter().enumerate() {
        let before = server.metrics_registry().snapshot();
        let rows = server.handle_batch_scored_forced(&qs, rung).expect("forced rung");
        assert_eq!(rows.len(), qs.len());
        let diff = server.metrics_registry().snapshot().since(&before);
        for (c, name) in rung_counters.iter().enumerate() {
            let expect = match (idx.checked_sub(1), rung) {
                (Some(own), BrownoutRung::Fallback) if own == c => qs.len() as u64,
                (Some(own), _) if own == c => 1,
                _ => 0,
            };
            assert_eq!(
                diff.counter(name).unwrap_or(0),
                expect,
                "{name} after forced {}",
                rung.name()
            );
        }
    }
}
