//! Backend parity suite (wired into `ci.sh`).
//!
//! Two guarantees the `SearchBackend` refactor must not bend:
//!
//! 1. **IVF bit-identity** — routing the IVF index through `IvfBackend` /
//!    the enum-dispatched `Backend` is a pure delegation: ids and score
//!    bits match the pre-refactor `IvfIndex` entry points exactly, on the
//!    plain batch path and the deadline path alike (proptest-pinned).
//! 2. **Backend equivalence** — at recall=1 settings (IVF probing every
//!    list) every exact-scoring backend agrees with the `ExactSearch`
//!    oracle item-for-item, score-bit-for-score-bit.

use std::sync::OnceLock;

use proptest::prelude::*;
use zoomer_serving::{
    Backend, BackendKind, Deadline, ExactSearch, IvfBackend, IvfIndex, SearchBackend,
};
use zoomer_tensor::{seeded_rng, Matrix};

use rand::Rng;

const DIM: usize = 8;
const POOL: usize = 120;
const NPROBE: usize = 3;

fn random_items(n: usize, dim: usize, seed: u64) -> Vec<(u64, Vec<f32>)> {
    let mut rng = seeded_rng(seed);
    (0..n as u64)
        .map(|id| (id * 3 + 7, (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()))
        .collect()
}

fn query_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
    let mut rng = seeded_rng(seed);
    Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
}

/// The same item pool indexed three ways: the raw pre-refactor `IvfIndex`,
/// the `IvfBackend` wrapper, and the enum-dispatched `Backend::Ivf`.
fn ivf_trio() -> &'static (IvfIndex, IvfBackend, Backend) {
    static TRIO: OnceLock<(IvfIndex, IvfBackend, Backend)> = OnceLock::new();
    TRIO.get_or_init(|| {
        let items = random_items(POOL, DIM, 901);
        let raw = IvfIndex::build(&items, 10, 4, 901);
        let wrapped = IvfBackend::new(IvfIndex::build(&items, 10, 4, 901), NPROBE);
        let dispatched = Backend::Ivf(IvfBackend::new(IvfIndex::build(&items, 10, 4, 901), NPROBE));
        (raw, wrapped, dispatched)
    })
}

fn bits(rows: &[Vec<(u64, f32)>]) -> Vec<Vec<(u64, u32)>> {
    rows.iter().map(|r| r.iter().map(|&(id, s)| (id, s.to_bits())).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `search_batch` through the wrapper and the enum returns the exact
    /// bits the pre-refactor `IvfIndex::search_batch` returns.
    #[test]
    fn ivf_backend_batch_is_bit_identical_to_the_raw_index(
        n_queries in 1usize..40,
        qseed in 0u64..500,
        k in 1usize..15,
    ) {
        let (raw, wrapped, dispatched) = ivf_trio();
        let queries = query_matrix(n_queries, DIM, qseed);
        let expect = bits(&raw.search_batch(&queries, k, NPROBE).expect("raw"));
        let got_wrapped = bits(&wrapped.search_batch(&queries, k).expect("wrapped"));
        let got_dispatched = bits(&dispatched.search_batch(&queries, k).expect("dispatched"));
        prop_assert_eq!(&expect, &got_wrapped, "IvfBackend diverged from IvfIndex");
        prop_assert_eq!(&expect, &got_dispatched, "Backend::Ivf diverged from IvfIndex");
    }

    /// The deadline path delegates identically: an unbounded probe through
    /// the trait returns the raw index's deadline results bit-for-bit and
    /// reports the full budget.
    #[test]
    fn ivf_backend_deadline_path_is_bit_identical_to_the_raw_index(
        n_queries in 1usize..24,
        qseed in 500u64..900,
        k in 1usize..15,
    ) {
        let (raw, _, dispatched) = ivf_trio();
        let queries = query_matrix(n_queries, DIM, qseed);
        let expect = raw
            .search_batch_deadline(&queries, k, NPROBE, &Deadline::none(), |_| {})
            .expect("raw");
        let got = dispatched
            .search_batch_deadline(&queries, k, &Deadline::none(), &mut |_| {})
            .expect("dispatched");
        prop_assert_eq!(bits(&expect.results), bits(&got.results));
        prop_assert_eq!(expect.effective_budget, got.effective_budget);
        prop_assert_eq!(expect.full_budget, got.full_budget);
        prop_assert!(!got.capped());
    }

    /// An exact-width scan through the trait matches the raw index's
    /// full-probe search.
    #[test]
    fn ivf_backend_exact_search_is_bit_identical(qseed in 900u64..1200) {
        let (raw, _, dispatched) = ivf_trio();
        let q: Vec<f32> = {
            let mut rng = seeded_rng(qseed);
            (0..DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
        };
        let expect = raw.exact_search(&q, 10).expect("raw");
        let got = dispatched.exact_search(&q, 10).expect("dispatched");
        prop_assert_eq!(bits(&[expect]), bits(&[got]));
    }
}

/// Normalize a result row for cross-backend comparison: backends may order
/// equal-scored candidates differently (candidate-stream order is
/// backend-specific), so compare as sets ordered by (score bits desc, id).
fn normalized(rows: &[Vec<(u64, f32)>]) -> Vec<Vec<(u64, u32)>> {
    rows.iter()
        .map(|r| {
            let mut row: Vec<(u64, u32)> = r.iter().map(|&(id, s)| (id, s.to_bits())).collect();
            row.sort_by(|a, b| {
                let sa = f32::from_bits(a.1);
                let sb = f32::from_bits(b.1);
                sb.total_cmp(&sa).then(a.0.cmp(&b.0))
            });
            row
        })
        .collect()
}

#[test]
fn all_backends_agree_with_the_exact_oracle_at_recall_one_settings() {
    let items = random_items(POOL, DIM, 902);
    let oracle = ExactSearch::build(&items);
    // IVF probing every list is exact.
    let backends: Vec<Backend> = vec![
        Backend::Ivf(IvfBackend::new(IvfIndex::build(&items, 10, 4, 902), POOL)),
        Backend::Exact(ExactSearch::build(&items)),
    ];
    let queries = query_matrix(30, DIM, 903);
    for k in [1usize, 10, POOL] {
        let expect = normalized(&oracle.search_batch(&queries, k).expect("oracle"));
        for backend in &backends {
            let got = normalized(&backend.search_batch(&queries, k).expect("backend"));
            assert_eq!(
                expect,
                got,
                "{} backend diverged from the exact oracle at k={k}",
                backend.name()
            );
        }
    }
    // Single-query exact scans agree as well (the server's widening path).
    for r in 0..queries.rows() {
        let expect = normalized(&[oracle.exact_search(queries.row(r), 10).expect("oracle")]);
        for backend in &backends {
            let got = normalized(&[backend.exact_search(queries.row(r), 10).expect("backend")]);
            assert_eq!(expect, got, "{} exact_search diverged, row {r}", backend.name());
        }
    }
}

#[test]
fn backend_kinds_report_their_names() {
    assert_eq!(BackendKind::Ivf.name(), "ivf");
    assert_eq!(BackendKind::Exact.name(), "exact");
    assert_eq!(BackendKind::Quantized.name(), "quantized");
}
