//! Pluggable retrieval backends behind one `SearchBackend` contract.
//!
//! The paper's ROI retrieval (IVF inverted lists over frozen-tower
//! embeddings) is one point in a family of ANN strategies.
//! [`SearchBackend`] captures the full contract every
//! [`crate::RankShard`] of an [`crate::OnlineServer`] probes through — the
//! batched probe, the deadline-bounded probe with budget capping, the exact
//! widening scan, and the obs hook — so the server, degraded-mode ladder,
//! and benches are backend-agnostic.
//!
//! Three implementations:
//! - [`crate::IvfIndex`] via [`IvfBackend`] — the paper's IVF-Flat path,
//!   budget axis = `nprobe` (coarse lists probed per query).
//! - [`ExactSearch`] — the exact flat scan, promoted from recall-baseline
//!   oracle to a first-class backend. Single budget rung; never degraded.
//! - [`QuantizedIvf`] — IVF over int8-quantized codes with exact f32 rerank
//!   of the shortlist (the billion-tier memory-scaling path); budget axis =
//!   `nprobe`, same rounds discipline as IVF.
//!
//! Dispatch is by the [`Backend`] enum — a `match` per call, no `dyn` and no
//! vtable in the hot loop. The only trait object is the `on_round` hook of
//! the deadline path, which fires once per budget round on the
//! already-degraded branch.

use zoomer_obs::{Counter, MetricsRegistry};
use zoomer_tensor::{dot, Matrix};

use crate::ann::IvfIndex;
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::quantized::QuantizedIvf;
use crate::topk::TopK;

/// Which retrieval backend each shard of an [`crate::OnlineServer`] builds
/// and serves from; selected by `ServingConfig::backend`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendKind {
    /// IVF-Flat inverted lists (the paper's ANN module). Budget: `nprobe`.
    #[default]
    Ivf,
    /// Exact flat scan — full recall, O(pool) per query. Budget: none.
    Exact,
    /// IVF over int8-quantized codes with exact f32 rerank of the
    /// `rerank_factor × k` shortlist — the billion-tier memory-scaling
    /// path. Budget: `nprobe`, like IVF.
    Quantized,
}

impl BackendKind {
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Ivf => "ivf",
            BackendKind::Exact => "exact",
            BackendKind::Quantized => "quantized",
        }
    }
}

/// Outcome of a deadline-aware probe ([`SearchBackend::search_batch_deadline`]):
/// per-query ranked results plus how much of the probe budget actually ran.
#[derive(Clone, Debug)]
pub struct BoundedSearch {
    pub results: Vec<Vec<(u64, f32)>>,
    /// Budget actually spent, in the backend's own units — probe rounds
    /// (= lists per query) for IVF and the quantized IVF, 1 for the exact
    /// scan.
    /// Strictly smaller than [`BoundedSearch::full_budget`] means the
    /// deadline capped the probe mid-flight (a degraded answer: every query
    /// was still searched at the effective width).
    pub effective_budget: usize,
    /// The configured full width in the same units; what an unbounded probe
    /// would have spent.
    pub full_budget: usize,
}

impl BoundedSearch {
    /// Whether the deadline capped this probe below its configured width.
    pub fn capped(&self) -> bool {
        self.effective_budget < self.full_budget
    }
}

/// Generic per-backend probe counters, registered as `serve.backend.*`.
/// Every backend tallies locally per scoring pass and publishes with one
/// `fetch_add` per counter, like `ann.*` always has.
#[derive(Clone)]
pub struct BackendStats {
    /// Query rows searched (`serve.backend.queries`).
    pub queries: Counter,
    /// Candidate vectors exactly scored (`serve.backend.candidates_scored`):
    /// list members for IVF, the whole pool per query for the exact scan.
    pub candidates_scored: Counter,
}

impl BackendStats {
    pub fn new(registry: &MetricsRegistry) -> Self {
        Self {
            queries: registry.counter("serve.backend.queries"),
            candidates_scored: registry.counter("serve.backend.candidates_scored"),
        }
    }
}

/// The full retrieval contract the online server consumes. Everything the
/// server does with an index — the plain batched probe, the deadline-bounded
/// probe, the exact widening scan, sizing checks, and metrics attachment —
/// goes through these methods, so a backend swap touches construction only.
pub trait SearchBackend {
    /// Stable short name for reports and bench axes.
    fn name(&self) -> &'static str;

    /// Number of indexed items.
    fn len(&self) -> usize;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Vector width this backend indexes.
    fn dim(&self) -> usize;

    /// Multi-query top-`k` at the backend's configured full width: one query
    /// per row of `queries`, one descending-score result list per query.
    fn search_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError>;

    /// Deadline-aware probe in budget rounds, checking `deadline` between
    /// rounds. Round 0 always completes, so every query gets at least a
    /// minimal-width answer; a capped probe must equal a plain probe at the
    /// smaller width. `on_round(r)` fires at the start of every round (after
    /// the expiry check) — the server's fault-injection point.
    fn search_batch_deadline(
        &self,
        queries: &Matrix,
        k: usize,
        deadline: &Deadline,
        on_round: &mut dyn FnMut(usize),
    ) -> Result<BoundedSearch, ServingError>;

    /// Minimum-width probe: the narrowest answer this backend can produce —
    /// round 0 of the deadline ladder, which always completes (one coarse
    /// list per query for IVF, the whole scan for exact). The brownout ladder's prescriptive
    /// `CapBudget` rung probes exactly this, so a forced rung costs the
    /// floor and nothing more. Implemented via the deadline path with an
    /// already-expired budget; backends with a cheaper direct floor may
    /// override.
    fn search_batch_floor(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<BoundedSearch, ServingError> {
        self.search_batch_deadline(
            queries,
            k,
            &Deadline::after(std::time::Duration::ZERO),
            &mut |_| {},
        )
    }

    /// Exact top-`k` for one query — the recall baseline, and the widening
    /// scan the server runs when a probe under-fills `top_k`.
    fn exact_search(&self, query: &[f32], k: usize) -> Result<Vec<(u64, f32)>, ServingError>;

    /// Batched ranking for the *offline* posting build. Runs once at server
    /// construction, so it may probe wider than the serving path (IVF uses
    /// `nprobe.max(OFFLINE_MIN_NPROBE)`); defaults to the plain serving
    /// probe.
    fn offline_rank_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError> {
        self.search_batch(queries, k)
    }

    /// Report probe volume into `registry` (`serve.backend.*`, plus any
    /// backend-specific counters). Call once at build time, before sharing.
    fn attach_metrics(&mut self, registry: &MetricsRegistry);
}

/// Exact top-`k` of one query over a flat `(ids, row-major vectors)` pool
/// by inner product, streamed through a [`TopK`]. `dot` applies the exact
/// lane scheme `dot_tile` uses per entry, so these scores are bit-identical
/// to the IVF scan's tile scoring of the same pairs.
pub(crate) fn scan_flat(
    ids: &[u64],
    vectors: &[f32],
    dim: usize,
    query: &[f32],
    k: usize,
) -> Vec<(u64, f32)> {
    let mut top = TopK::new(k);
    for (ei, &id) in ids.iter().enumerate() {
        top.push(id, dot(&vectors[ei * dim..ei * dim + dim], query));
    }
    top.finish()
}

/// [`IvfIndex`] as a [`SearchBackend`]: the index plus its serving-path
/// probe widths. The wrapper adds no arithmetic — every search delegates to
/// the exact `IvfIndex` entry points the server called before the trait
/// existed, so results are bit-identical to the pre-refactor paths
/// (pinned by the `backend_parity` proptest suite).
pub struct IvfBackend {
    index: IvfIndex,
    nprobe: usize,
}

/// Fewest IVF lists [`SearchBackend::offline_rank_batch`] probes. The
/// posting ranking runs once at build, so even a deliberately narrow serving
/// `nprobe` still gets postings ranked over a usable candidate set.
const OFFLINE_MIN_NPROBE: usize = 4;

impl IvfBackend {
    pub fn new(index: IvfIndex, nprobe: usize) -> Self {
        Self { index, nprobe }
    }

    pub fn index(&self) -> &IvfIndex {
        &self.index
    }

    pub fn nprobe(&self) -> usize {
        self.nprobe
    }
}

impl SearchBackend for IvfBackend {
    fn name(&self) -> &'static str {
        BackendKind::Ivf.name()
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn dim(&self) -> usize {
        self.index.dim()
    }

    fn search_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError> {
        self.index.search_batch(queries, k, self.nprobe)
    }

    fn search_batch_deadline(
        &self,
        queries: &Matrix,
        k: usize,
        deadline: &Deadline,
        on_round: &mut dyn FnMut(usize),
    ) -> Result<BoundedSearch, ServingError> {
        self.index.search_batch_deadline(queries, k, self.nprobe, deadline, on_round)
    }

    fn exact_search(&self, query: &[f32], k: usize) -> Result<Vec<(u64, f32)>, ServingError> {
        self.index.exact_search(query, k)
    }

    fn offline_rank_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError> {
        self.index.search_batch(queries, k, self.nprobe.max(OFFLINE_MIN_NPROBE))
    }

    fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.index.attach_metrics(registry);
    }
}

/// Exact inner-product top-`k` over a flat pool — the recall oracle promoted
/// to a first-class backend. Every query scores every item, so recall is 1.0
/// by construction and the cost is O(pool · dim) per query, on the calling
/// thread, with an O(`k`) working set. Results are in the crate's total rank
/// order (score descending, then id ascending — [`crate::topk`]), so a
/// partitioned pool merges back to exactly this scan's answer. Deadline
/// semantics: a single budget rung (the scan is all-or-nothing), so the
/// exact backend degrades via the server's inverted-index fallback only,
/// never by capping.
pub struct ExactSearch {
    ids: Vec<u64>,
    vectors: Vec<f32>,
    dim: usize,
    stats: Option<BackendStats>,
}

impl ExactSearch {
    /// Build from `(id, vector)` pairs.
    pub fn build(items: &[(u64, Vec<f32>)]) -> Self {
        assert!(!items.is_empty(), "cannot index an empty collection");
        let dim = items[0].1.len();
        assert!(items.iter().all(|(_, v)| v.len() == dim), "inconsistent vector widths");
        let mut ids = Vec::with_capacity(items.len());
        let mut vectors = Vec::with_capacity(items.len() * dim);
        for (id, v) in items {
            ids.push(*id);
            vectors.extend_from_slice(v);
        }
        Self { ids, vectors, dim, stats: None }
    }

    fn check_width(&self, got: usize) -> Result<(), ServingError> {
        if got != self.dim {
            return Err(ServingError::DimensionMismatch { expected: self.dim, got });
        }
        Ok(())
    }
}

impl SearchBackend for ExactSearch {
    fn name(&self) -> &'static str {
        BackendKind::Exact.name()
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn search_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError> {
        if queries.rows() == 0 {
            return Ok(Vec::new());
        }
        self.check_width(queries.cols())?;
        let rows = queries.rows();
        let results: Vec<Vec<(u64, f32)>> = (0..rows)
            .map(|r| scan_flat(&self.ids, &self.vectors, self.dim, queries.row(r), k))
            .collect();
        if let Some(s) = &self.stats {
            s.queries.add(rows as u64);
            s.candidates_scored.add((rows * self.ids.len()) as u64);
        }
        Ok(results)
    }

    fn search_batch_deadline(
        &self,
        queries: &Matrix,
        k: usize,
        _deadline: &Deadline,
        on_round: &mut dyn FnMut(usize),
    ) -> Result<BoundedSearch, ServingError> {
        // One rung: the flat scan has no narrower width to fall back to, so
        // round 0 (which always completes) is the whole probe. A spent
        // budget is handled above this layer by the inverted-index fallback.
        on_round(0);
        Ok(BoundedSearch {
            results: self.search_batch(queries, k)?,
            effective_budget: 1,
            full_budget: 1,
        })
    }

    fn exact_search(&self, query: &[f32], k: usize) -> Result<Vec<(u64, f32)>, ServingError> {
        self.check_width(query.len())?;
        if let Some(s) = &self.stats {
            s.queries.inc();
            s.candidates_scored.add(self.ids.len() as u64);
        }
        Ok(scan_flat(&self.ids, &self.vectors, self.dim, query, k))
    }

    fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.stats = Some(BackendStats::new(registry));
    }
}

/// The server's enum-dispatched backend: one `match` per call, no `dyn` on
/// the request path. Construction policy (which variant, with which widths)
/// lives in `ServerBuilder::build`.
pub enum Backend {
    Ivf(IvfBackend),
    Exact(ExactSearch),
    Quantized(QuantizedIvf),
}

impl Backend {
    pub fn kind(&self) -> BackendKind {
        match self {
            Backend::Ivf(_) => BackendKind::Ivf,
            Backend::Exact(_) => BackendKind::Exact,
            Backend::Quantized(_) => BackendKind::Quantized,
        }
    }

    /// The wrapped IVF index, when this is the IVF backend (benches and
    /// tests that study IVF-specific knobs).
    pub fn as_ivf(&self) -> Option<&IvfIndex> {
        match self {
            Backend::Ivf(b) => Some(b.index()),
            _ => None,
        }
    }

    /// The wrapped quantized index, when this is the quantized backend
    /// (benches and tests that study quantization-specific knobs).
    pub fn as_quantized(&self) -> Option<&QuantizedIvf> {
        match self {
            Backend::Quantized(b) => Some(b),
            _ => None,
        }
    }
}

macro_rules! dispatch {
    ($self:ident, $b:ident => $body:expr) => {
        match $self {
            Backend::Ivf($b) => $body,
            Backend::Exact($b) => $body,
            Backend::Quantized($b) => $body,
        }
    };
}

impl SearchBackend for Backend {
    fn name(&self) -> &'static str {
        dispatch!(self, b => b.name())
    }

    fn len(&self) -> usize {
        dispatch!(self, b => b.len())
    }

    fn dim(&self) -> usize {
        dispatch!(self, b => b.dim())
    }

    fn search_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError> {
        dispatch!(self, b => b.search_batch(queries, k))
    }

    fn search_batch_deadline(
        &self,
        queries: &Matrix,
        k: usize,
        deadline: &Deadline,
        on_round: &mut dyn FnMut(usize),
    ) -> Result<BoundedSearch, ServingError> {
        dispatch!(self, b => b.search_batch_deadline(queries, k, deadline, on_round))
    }

    fn search_batch_floor(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<BoundedSearch, ServingError> {
        dispatch!(self, b => b.search_batch_floor(queries, k))
    }

    fn exact_search(&self, query: &[f32], k: usize) -> Result<Vec<(u64, f32)>, ServingError> {
        dispatch!(self, b => b.exact_search(query, k))
    }

    fn offline_rank_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError> {
        dispatch!(self, b => b.offline_rank_batch(queries, k))
    }

    fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        dispatch!(self, b => b.attach_metrics(registry))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use zoomer_tensor::seeded_rng;

    fn random_items(n: usize, dim: usize, seed: u64) -> Vec<(u64, Vec<f32>)> {
        let mut rng = seeded_rng(seed);
        (0..n as u64).map(|id| (id, (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())).collect()
    }

    fn query_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = seeded_rng(seed);
        Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    #[test]
    fn exact_backend_finds_true_topk() {
        let items = random_items(200, 8, 21);
        let exact = ExactSearch::build(&items);
        assert_eq!(exact.len(), 200);
        assert_eq!(exact.dim(), 8);
        let q = &items[17].1;
        let got = exact.exact_search(q, 5).expect("scan");
        assert_eq!(got.len(), 5);
        // Brute force over the same dot products.
        let mut brute: Vec<(u64, f32)> =
            items.iter().map(|(id, v)| (*id, zoomer_tensor::dot(v, q))).collect();
        brute.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap());
        for (g, b) in got.iter().zip(&brute) {
            assert_eq!(g.0, b.0);
            assert_eq!(g.1.to_bits(), b.1.to_bits());
        }
    }

    #[test]
    fn exact_backend_batch_matches_single() {
        let items = random_items(150, 8, 22);
        let exact = ExactSearch::build(&items);
        let m = query_matrix(37, 8, 23);
        let batched = exact.search_batch(&m, 7).expect("batch");
        assert_eq!(batched.len(), m.rows());
        for (r, row) in batched.iter().enumerate() {
            let single = exact.exact_search(m.row(r), 7).expect("single");
            assert_eq!(row, &single, "row {r}");
        }
    }

    #[test]
    fn exact_backend_deadline_is_one_uncapped_rung() {
        let items = random_items(60, 4, 24);
        let exact = ExactSearch::build(&items);
        let m = query_matrix(3, 4, 25);
        let mut rounds = Vec::new();
        let bounded = exact
            .search_batch_deadline(&m, 5, &Deadline::after(std::time::Duration::ZERO), &mut |r| {
                rounds.push(r)
            })
            .expect("bounded");
        assert_eq!(rounds, vec![0], "the scan is a single always-completing rung");
        assert!(!bounded.capped(), "the exact scan can never be capped");
        assert_eq!(bounded.results, exact.search_batch(&m, 5).expect("plain"));
    }

    #[test]
    fn ivf_backend_delegates_bitwise_to_the_raw_index() {
        let items = random_items(300, 8, 26);
        let raw = IvfIndex::build(&items, 10, 4, 26);
        let wrapped = IvfBackend::new(IvfIndex::build(&items, 10, 4, 26), 3);
        let m = query_matrix(9, 8, 27);
        assert_eq!(
            wrapped.search_batch(&m, 6).expect("backend"),
            raw.search_batch(&m, 6, 3).expect("raw"),
            "the wrapper must add no arithmetic"
        );
        let bounded =
            wrapped.search_batch_deadline(&m, 6, &Deadline::none(), &mut |_| {}).expect("bounded");
        assert!(!bounded.capped());
        assert_eq!(bounded.full_budget, 3);
        assert_eq!(bounded.results, raw.search_batch(&m, 6, 3).expect("raw"));
        // Offline ranking probes nprobe.max(OFFLINE_MIN_NPROBE).
        assert_eq!(
            wrapped.offline_rank_batch(&m, 6).expect("offline"),
            raw.search_batch(&m, 6, 4).expect("raw wide"),
        );
    }

    #[test]
    fn floor_probe_is_the_minimum_width_probe() {
        let items = random_items(300, 8, 33);
        let wrapped = IvfBackend::new(IvfIndex::build(&items, 10, 4, 33), 3);
        let raw = IvfIndex::build(&items, 10, 4, 33);
        let m = query_matrix(5, 8, 34);
        let floor = wrapped.search_batch_floor(&m, 6).expect("floor");
        assert_eq!(floor.effective_budget, 1, "the floor is one probe round");
        assert!(floor.capped(), "a floor probe below full width reports capped");
        assert_eq!(
            floor.results,
            raw.search_batch(&m, 6, 1).expect("nprobe=1"),
            "the floor probe equals a plain probe at the minimum width"
        );
        // The exact scan has no narrower width: its floor is the full scan.
        let exact = ExactSearch::build(&items);
        let floor = exact.search_batch_floor(&m, 6).expect("floor");
        assert!(!floor.capped());
        assert_eq!(floor.results, exact.search_batch(&m, 6).expect("plain"));
    }

    #[test]
    fn enum_dispatch_matches_the_wrapped_backend() {
        let items = random_items(120, 8, 28);
        let exact = Backend::Exact(ExactSearch::build(&items));
        let direct = ExactSearch::build(&items);
        let m = query_matrix(4, 8, 29);
        assert_eq!(exact.name(), "exact");
        assert_eq!(exact.kind(), BackendKind::Exact);
        assert!(exact.as_ivf().is_none());
        assert_eq!(exact.len(), direct.len());
        assert_eq!(
            exact.search_batch(&m, 5).expect("enum"),
            direct.search_batch(&m, 5).expect("direct")
        );
        let ivf = Backend::Ivf(IvfBackend::new(IvfIndex::build(&items, 6, 3, 28), 2));
        assert_eq!(ivf.kind(), BackendKind::Ivf);
        assert!(ivf.as_ivf().is_some());
    }

    #[test]
    fn wrong_query_width_is_a_typed_error() {
        let items = random_items(20, 4, 30);
        let exact = ExactSearch::build(&items);
        let err = exact.exact_search(&[0.0; 3], 1).expect_err("width mismatch");
        assert_eq!(err, ServingError::DimensionMismatch { expected: 4, got: 3 });
        let err = exact.search_batch(&Matrix::zeros(2, 5), 1).expect_err("width mismatch");
        assert_eq!(err, ServingError::DimensionMismatch { expected: 4, got: 5 });
        assert!(exact.search_batch(&Matrix::zeros(0, 9), 1).expect("empty").is_empty());
    }

    #[test]
    fn backend_stats_count_queries_and_candidates() {
        let registry = MetricsRegistry::enabled();
        let items = random_items(50, 4, 31);
        let mut exact = ExactSearch::build(&items);
        exact.attach_metrics(&registry);
        let m = query_matrix(3, 4, 32);
        exact.search_batch(&m, 5).expect("batch");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.backend.queries"), Some(3));
        assert_eq!(snap.counter("serve.backend.candidates_scored"), Some(150));
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn empty_build_panics() {
        let _ = ExactSearch::build(&[]);
    }
}
