//! Int8-quantized IVF retrieval with exact f32 rerank.
//!
//! The billion-tier memory-scaling backend: inverted lists store one i8
//! *code* per element plus 12 bytes of per-vector parameters
//! ([`QuantParams`]) instead of 4 bytes per f32 element — a 4× smaller
//! embedding payload (see [`QuantizedIvf::memory_footprint`]). Candidate
//! scoring streams codes through the integer kernels
//! (`zoomer_tensor::kernel::{dot_i8, dot4_i8}`, i32 accumulation) and
//! combines with the per-vector scale/zero-point via
//! `zoomer_tensor::quant::combine_quantized` — one implementation of the
//! factored inner product, so blocked and single-query scores are
//! bit-identical.
//!
//! Quantization costs recall, so the probe is two-phase:
//!
//! 1. **int8 scan** of the `nprobe` probed lists scores every candidate
//!    approximately, straight into a bounded per-query `TopK` of width
//!    `rerank_factor × k`: the shortlist;
//! 2. the shortlist is **exactly rescored in f32** against the rerank store
//!    and the final top-`k` is taken from those exact scores, in the
//!    crate's total rank order (score descending, then id ascending — see
//!    [`crate::topk`]). Both phases run on the calling thread.
//!
//! At the default `rerank_factor` this recovers recall@10 to within 1% of
//! the f32 IVF backend at equal `nprobe` (pinned by test and recorded in
//! `BENCH_backends.json`). The f32 rerank store is touched only for the
//! shortlist — `rerank_factor × k` rows per query, independent of pool
//! size — which is what lets a tiered deployment keep it cold (snapshot v2
//! stores codes and scales as zero-copy sections; see
//! `zoomer_graph::snapshot`).
//!
//! The coarse quantizer is adopted from an [`IvfIndex`] built with the same
//! parameters, so at equal `nprobe` the quantized and f32 paths probe the
//! *same lists* and see the same candidate sets — recall deltas measure
//! quantization alone, not clustering drift.

use zoomer_obs::{Counter, MetricsRegistry};
use zoomer_tensor::kernel::{dot4_i8, dot_i8};
use zoomer_tensor::quant::{combine_quantized, quantize_into, QuantParams};
use zoomer_tensor::{dot, Matrix};

use crate::ann::{fill_probers, probe_orders, IvfIndex};
use crate::backend::{BackendKind, BackendStats, BoundedSearch, SearchBackend};
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::topk::TopK;

/// Default shortlist widening: the int8 phase hands `rerank_factor × k`
/// candidates to the exact f32 rerank. 4 is the smallest power of two at
/// which the recall@10 parity bound (≤ 1% vs f32 IVF) holds with margin on
/// the workspace's 16-wide embeddings.
pub const DEFAULT_RERANK_FACTOR: usize = 4;

/// One quantized inverted list. `codes` is row-major
/// (`ids.len() × dim` i8), `params` one entry per vector, and `vectors` is
/// the f32 rerank store in the same entry order — only ever indexed by
/// shortlist hits, never streamed by the probe.
struct QuantList {
    ids: Vec<u64>,
    codes: Vec<i8>,
    params: Vec<QuantParams>,
    vectors: Vec<f32>,
}

/// Byte accounting of a [`QuantizedIvf`], split by role so the 4× claim is
/// checkable: the probe streams `code_bytes + param_bytes`; `rerank_bytes`
/// is the f32 store the shortlist rerank indexes into (4 bytes per element
/// — exactly `4 × code_bytes`).
#[derive(Clone, Copy, Debug)]
pub struct QuantMemory {
    /// i8 code payload: one byte per stored element.
    pub code_bytes: usize,
    /// Per-vector `QuantParams` (scale + zero-point + code sum).
    pub param_bytes: usize,
    /// The f32 rerank store: what the same embeddings cost un-quantized.
    pub rerank_bytes: usize,
}

impl QuantMemory {
    /// f32 embedding bytes per quantized code byte — 4.0 by construction.
    pub fn compression_ratio(&self) -> f64 {
        self.rerank_bytes as f64 / self.code_bytes.max(1) as f64
    }
}

/// Probe-volume counters for the quantized path, beyond the generic
/// [`BackendStats`]: `scored_i8` counts candidates streamed through the
/// int8 kernel (the cheap phase), `reranked` counts shortlist entries
/// exactly rescored in f32 (the expensive phase — also mirrored into the
/// generic `serve.backend.candidates_scored`, whose contract is *exactly*
/// scored candidates). Tallied locally per pass, published with one
/// `fetch_add` each.
struct QuantStats {
    backend: BackendStats,
    scored_i8: Counter,
    reranked: Counter,
}

/// IVF retrieval over int8 codes with exact f32 rerank of the shortlist —
/// the fourth [`crate::Backend`] variant (`BackendKind::Quantized`).
/// Searches run on the calling thread; results are in the crate's total
/// rank order (exact score descending, then id ascending — [`crate::topk`]).
pub struct QuantizedIvf {
    dim: usize,
    centroids: Vec<Vec<f32>>,
    lists: Vec<QuantList>,
    nprobe: usize,
    rerank_factor: usize,
    stats: Option<QuantStats>,
}

/// A batch's query rows quantized once: row-major codes plus one
/// parameter set per row.
struct QuantQueries {
    codes: Vec<i8>,
    params: Vec<QuantParams>,
}

/// Candidates are tracked through the int8 phase as a packed
/// `(list, entry)` handle so the rerank can reach both the f32 row and the
/// public id without a hash lookup. The shortlist breaks approximate-score
/// ties by handle; the final top-`k` is selected over public ids, in the
/// crate's total rank order.
#[inline]
fn pack(list: usize, entry: usize) -> u64 {
    ((list as u64) << 32) | entry as u64
}

#[inline]
fn unpack(handle: u64) -> (usize, usize) {
    ((handle >> 32) as usize, (handle & u32::MAX as u64) as usize)
}

impl QuantizedIvf {
    /// Quantize an existing [`IvfIndex`]: adopt its centroids and list
    /// assignment verbatim, encode every stored vector to i8, and keep the
    /// f32 rows, read back out of the index's tiles, as the rerank store.
    pub fn from_ivf(index: &IvfIndex, nprobe: usize, rerank_factor: usize) -> Self {
        let dim = index.dim();
        let centroids = index.centroid_rows().to_vec();
        let lists = (0..index.nlist())
            .map(|l| {
                let (ids, vectors) = index.list_entries(l);
                let mut codes = Vec::with_capacity(ids.len() * dim);
                let mut params = Vec::with_capacity(ids.len());
                for e in 0..ids.len() {
                    params.push(quantize_into(&vectors[e * dim..(e + 1) * dim], &mut codes));
                }
                QuantList { ids: ids.to_vec(), codes, params, vectors }
            })
            .collect();
        Self {
            dim,
            centroids,
            lists,
            nprobe: nprobe.max(1),
            rerank_factor: rerank_factor.max(1),
            stats: None,
        }
    }

    /// Build from `(id, vector)` pairs: k-means exactly like
    /// [`IvfIndex::build`] (same seed ⇒ same clustering as the f32 index),
    /// then quantize.
    pub fn build(
        items: &[(u64, Vec<f32>)],
        nlist: usize,
        kmeans_iters: usize,
        seed: u64,
        nprobe: usize,
        rerank_factor: usize,
    ) -> Self {
        Self::from_ivf(&IvfIndex::build(items, nlist, kmeans_iters, seed), nprobe, rerank_factor)
    }

    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    pub fn nprobe(&self) -> usize {
        self.nprobe
    }

    /// Re-aim the probe budget without rebuilding (floored at 1). The sweep
    /// knob for recall/latency studies.
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.nprobe = nprobe.max(1);
    }

    pub fn rerank_factor(&self) -> usize {
        self.rerank_factor
    }

    /// Re-aim the shortlist widening without rebuilding (floored at 1).
    pub fn set_rerank_factor(&mut self, rerank_factor: usize) {
        self.rerank_factor = rerank_factor.max(1);
    }

    /// Byte accounting for the 4× storage claim; see [`QuantMemory`].
    pub fn memory_footprint(&self) -> QuantMemory {
        let mut m = QuantMemory { code_bytes: 0, param_bytes: 0, rerank_bytes: 0 };
        for l in &self.lists {
            m.code_bytes += l.codes.len();
            m.param_bytes += l.params.len() * std::mem::size_of::<QuantParams>();
            m.rerank_bytes += l.vectors.len() * std::mem::size_of::<f32>();
        }
        m
    }

    fn check_width(&self, got: usize) -> Result<(), ServingError> {
        if got != self.dim {
            return Err(ServingError::DimensionMismatch { expected: self.dim, got });
        }
        Ok(())
    }

    /// Quantize every query row once, into one contiguous code buffer (the
    /// int8 phase rescans query codes `nprobe` times; encoding is per
    /// search).
    fn quantize_queries(&self, queries: &Matrix) -> QuantQueries {
        let rows = queries.rows();
        let mut codes = Vec::with_capacity(rows * self.dim);
        let mut params = Vec::with_capacity(rows);
        for r in 0..rows {
            params.push(quantize_into(queries.row(r), &mut codes));
        }
        QuantQueries { codes, params }
    }

    /// Int8-score every query in `qis` (batch row indices) against one
    /// quantized list, pushing `(handle, approx_score)` into the query's
    /// shortlist. Queries are blocked four at a time through `dot4_i8`; the
    /// combination arithmetic is `combine_quantized` in both the block and
    /// remainder paths, so a score never depends on grouping.
    fn score_one_list(&self, list: usize, qis: &[u32], q: &QuantQueries, tops: &mut [TopK]) {
        let il = &self.lists[list];
        let d = self.dim;
        let row = |qi: u32| &q.codes[qi as usize * d..qi as usize * d + d];
        let mut blocks = qis.chunks_exact(4);
        for b in &mut blocks {
            let (c0, c1, c2, c3) = (row(b[0]), row(b[1]), row(b[2]), row(b[3]));
            let p = [b[0], b[1], b[2], b[3]].map(|qi| &q.params[qi as usize]);
            for (ei, pv) in il.params.iter().enumerate() {
                let s = dot4_i8(&il.codes[ei * d..ei * d + d], c0, c1, c2, c3);
                let h = pack(list, ei);
                for j in 0..4 {
                    tops[b[j] as usize].push(h, combine_quantized(s[j], pv, p[j], d));
                }
            }
        }
        for &qi in blocks.remainder() {
            let (cq, pq) = (row(qi), &q.params[qi as usize]);
            let top = &mut tops[qi as usize];
            for (ei, pv) in il.params.iter().enumerate() {
                let v = &il.codes[ei * d..ei * d + d];
                top.push(pack(list, ei), combine_quantized(dot_i8(v, cq), pv, pq, d));
            }
        }
    }

    /// Int8-score every `(list, probing queries)` pair of `probers` into the
    /// queries' shortlists; returns the number of candidates scored.
    fn scan_lists(&self, probers: &[Vec<u32>], q: &QuantQueries, tops: &mut [TopK]) -> u64 {
        let mut scored = 0u64;
        for (list, qis) in probers.iter().enumerate() {
            self.score_one_list(list, qis, q, tops);
            scored += (qis.len() * self.lists[list].ids.len()) as u64;
        }
        scored
    }

    /// One `rerank_factor × k` shortlist accumulator per query row.
    fn shortlists(&self, rows: usize, k: usize) -> Vec<TopK> {
        (0..rows).map(|_| TopK::new(k.saturating_mul(self.rerank_factor))).collect()
    }

    /// Phase two, per query: rescore its shortlist exactly in f32 against
    /// the rerank store and keep the final top-`k` as public
    /// `(id, exact_score)` pairs; then publish the pass's counters.
    fn rerank(
        &self,
        queries: &Matrix,
        shortlists: Vec<TopK>,
        k: usize,
        i8_scored: u64,
    ) -> Vec<Vec<(u64, f32)>> {
        let mut reranked = 0u64;
        let results = shortlists
            .into_iter()
            .enumerate()
            .map(|(qi, shortlist)| {
                let mut top = TopK::new(k);
                for (handle, _) in shortlist.finish_unordered() {
                    let (list, ei) = unpack(handle);
                    let il = &self.lists[list];
                    let v = &il.vectors[ei * self.dim..(ei + 1) * self.dim];
                    top.push(il.ids[ei], dot(v, queries.row(qi)));
                    reranked += 1;
                }
                top.finish()
            })
            .collect();
        if let Some(st) = &self.stats {
            st.backend.queries.add(queries.rows() as u64);
            st.backend.candidates_scored.add(reranked);
            st.scored_i8.add(i8_scored);
            st.reranked.add(reranked);
        }
        results
    }
}

impl SearchBackend for QuantizedIvf {
    fn name(&self) -> &'static str {
        BackendKind::Quantized.name()
    }

    fn len(&self) -> usize {
        self.lists.iter().map(|l| l.ids.len()).sum()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// The list-major int8 pass over every query's `nprobe` nearest lists
    /// (inverted into list → probing queries, like the f32 IVF scan), then
    /// the per-query rerank — on the calling thread.
    fn search_batch(
        &self,
        queries: &Matrix,
        k: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError> {
        if queries.rows() == 0 {
            return Ok(Vec::new());
        }
        self.check_width(queries.cols())?;
        let nprobe = self.nprobe.min(self.centroids.len());
        let q = self.quantize_queries(queries);
        let orders = probe_orders(&self.centroids, queries, nprobe);
        let mut probers = vec![Vec::new(); self.centroids.len()];
        fill_probers(&orders, 0..nprobe, &mut probers);
        let mut shortlists = self.shortlists(queries.rows(), k);
        let i8_scored = self.scan_lists(&probers, &q, &mut shortlists);
        Ok(self.rerank(queries, shortlists, k, i8_scored))
    }

    /// Deadline-aware probe in nearest-first rounds, exactly the f32 IVF
    /// discipline: round `r` int8-scores every query's `(r+1)`-th nearest
    /// list, the deadline is checked between rounds, round 0 always
    /// completes. The rerank runs once, after the rounds stop — on exactly
    /// the candidates a plain probe at the effective `nprobe` would have
    /// shortlisted, so a capped probe equals the narrower plain probe.
    fn search_batch_deadline(
        &self,
        queries: &Matrix,
        k: usize,
        deadline: &Deadline,
        on_round: &mut dyn FnMut(usize),
    ) -> Result<BoundedSearch, ServingError> {
        let nprobe = self.nprobe.min(self.centroids.len());
        if queries.rows() == 0 {
            return Ok(BoundedSearch {
                results: Vec::new(),
                effective_budget: nprobe,
                full_budget: nprobe,
            });
        }
        self.check_width(queries.cols())?;
        let q = self.quantize_queries(queries);
        let orders = probe_orders(&self.centroids, queries, nprobe);
        let mut shortlists = self.shortlists(queries.rows(), k);
        let mut probers = vec![Vec::new(); self.centroids.len()];
        let mut i8_scored = 0u64;
        let mut effective = nprobe;
        for r in 0..nprobe {
            if r > 0 && deadline.expired() {
                effective = r;
                break;
            }
            on_round(r);
            fill_probers(&orders, r..r + 1, &mut probers);
            i8_scored += self.scan_lists(&probers, &q, &mut shortlists);
        }
        let results = self.rerank(queries, shortlists, k, i8_scored);
        Ok(BoundedSearch { results, effective_budget: effective, full_budget: nprobe })
    }

    /// Exact top-`k` over the f32 rerank store (every list, list-major
    /// order) — the recall baseline and the server's widening scan; no
    /// quantization involved.
    fn exact_search(&self, query: &[f32], k: usize) -> Result<Vec<(u64, f32)>, ServingError> {
        self.check_width(query.len())?;
        let mut top = TopK::new(k);
        for il in &self.lists {
            for (ei, &id) in il.ids.iter().enumerate() {
                top.push(id, dot(&il.vectors[ei * self.dim..(ei + 1) * self.dim], query));
            }
        }
        if let Some(st) = &self.stats {
            st.backend.queries.inc();
            st.backend.candidates_scored.add(self.len() as u64);
        }
        Ok(top.finish())
    }

    fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.stats = Some(QuantStats {
            backend: BackendStats::new(registry),
            scored_i8: registry.counter("serve.backend.quant.scored_i8"),
            reranked: registry.counter("serve.backend.quant.reranked"),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ExactSearch, IvfBackend};
    use rand::Rng;
    use std::collections::HashSet;
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
    fn indexes_every_item_and_stores_codes_4x_smaller() {
        let items = random_items(300, 16, 1);
        let q = QuantizedIvf::build(&items, 10, 5, 1, 3, 4);
        assert_eq!(q.len(), 300);
        assert_eq!(q.dim(), 16);
        assert_eq!(q.nlist(), 10);
        let m = q.memory_footprint();
        assert_eq!(m.code_bytes, 300 * 16);
        assert_eq!(m.rerank_bytes, 300 * 16 * 4);
        assert!(
            m.compression_ratio() >= 4.0,
            "embedding payload must shrink ≥4×, got {}",
            m.compression_ratio()
        );
        assert_eq!(m.param_bytes, 300 * std::mem::size_of::<QuantParams>());
    }

    #[test]
    fn quantized_probes_the_same_lists_as_the_f32_index() {
        // Adopting the IvfIndex clustering must reproduce its centroids, so
        // equal-nprobe candidate sets match by construction.
        let items = random_items(400, 8, 2);
        let ivf = IvfIndex::build(&items, 12, 5, 2);
        let q = QuantizedIvf::from_ivf(&ivf, 4, 4);
        assert_eq!(q.nlist(), ivf.nlist());
        for (c_q, c_f) in q.centroids.iter().zip(ivf.centroid_rows()) {
            assert_eq!(c_q, c_f);
        }
    }

    #[test]
    fn batch_matches_rows_served_one_at_a_time() {
        let items = random_items(500, 16, 3);
        let q = QuantizedIvf::build(&items, 16, 5, 3, 4, 4);
        let m = query_matrix(37, 16, 4);
        let batched = q.search_batch(&m, 10).expect("batch");
        for (r, row) in batched.iter().enumerate() {
            let single = q.search_batch(&Matrix::row_vector(m.row(r)), 10).expect("single");
            assert_eq!(row, &single[0], "row {r} depends on batch composition");
        }
    }

    #[test]
    fn recall_parity_with_f32_ivf_after_rerank() {
        // The acceptance bound: at equal nprobe and the default
        // rerank_factor, quantized recall@10 within 1% of the f32 IVF
        // backend (ground truth = exact scan).
        let items = random_items(1500, 16, 5);
        let (k, nprobe, nlist) = (10usize, 4usize, 32usize);
        let ivf = IvfBackend::new(IvfIndex::build(&items, nlist, 8, 5), nprobe);
        let quant = QuantizedIvf::build(&items, nlist, 8, 5, nprobe, DEFAULT_RERANK_FACTOR);
        let oracle = ExactSearch::build(&items);
        let queries = query_matrix(150, 16, 6);
        let f32_results = ivf.search_batch(&queries, k).expect("ivf");
        let quant_results = quant.search_batch(&queries, k).expect("quant");
        let (mut ivf_hits, mut quant_hits, mut total) = (0usize, 0usize, 0usize);
        for r in 0..queries.rows() {
            let truth: HashSet<u64> = oracle
                .exact_search(queries.row(r), k)
                .expect("oracle")
                .into_iter()
                .map(|(id, _)| id)
                .collect();
            total += truth.len();
            ivf_hits += f32_results[r].iter().filter(|(id, _)| truth.contains(id)).count();
            quant_hits += quant_results[r].iter().filter(|(id, _)| truth.contains(id)).count();
        }
        let ivf_recall = ivf_hits as f64 / total as f64;
        let quant_recall = quant_hits as f64 / total as f64;
        assert!(
            quant_recall >= ivf_recall - 0.01,
            "quantized recall@{k} {quant_recall:.4} more than 1% below f32 {ivf_recall:.4}"
        );
    }

    #[test]
    fn rerank_scores_are_exact_f32_dots() {
        let items = random_items(200, 8, 7);
        let q = QuantizedIvf::build(&items, 8, 5, 7, 8, 4);
        let m = query_matrix(5, 8, 8);
        for (r, row) in q.search_batch(&m, 5).expect("batch").iter().enumerate() {
            for &(id, score) in row {
                let v = &items[id as usize].1;
                assert_eq!(
                    score.to_bits(),
                    dot(v, m.row(r)).to_bits(),
                    "returned score must be the exact f32 dot, not the int8 approximation"
                );
            }
        }
    }

    #[test]
    fn full_probe_with_wide_rerank_equals_exact_search() {
        // nprobe = nlist and a shortlist wider than the pool: the rerank
        // rescores every candidate, so results must match the exact scan.
        let items = random_items(120, 8, 9);
        let q = QuantizedIvf::build(&items, 6, 4, 9, 6, 1000);
        let m = query_matrix(7, 8, 10);
        let got = q.search_batch(&m, 10).expect("batch");
        for (r, row) in got.iter().enumerate() {
            let exact = q.exact_search(m.row(r), 10).expect("exact");
            let mut a: Vec<(u64, u32)> = row.iter().map(|&(id, s)| (id, s.to_bits())).collect();
            let mut b: Vec<(u64, u32)> = exact.iter().map(|&(id, s)| (id, s.to_bits())).collect();
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "row {r}");
        }
    }

    #[test]
    fn deadline_unbounded_matches_plain_batch() {
        let items = random_items(350, 8, 11);
        let q = QuantizedIvf::build(&items, 10, 4, 11, 4, 4);
        let m = query_matrix(21, 8, 12);
        let mut rounds = Vec::new();
        let bounded = q
            .search_batch_deadline(&m, 10, &Deadline::none(), &mut |r| rounds.push(r))
            .expect("bounded");
        assert_eq!(rounds, vec![0, 1, 2, 3]);
        assert!(!bounded.capped());
        assert_eq!(bounded.results, q.search_batch(&m, 10).expect("plain"));
    }

    #[test]
    fn expired_deadline_caps_to_one_round_and_matches_narrow_probe() {
        let items = random_items(350, 8, 13);
        let q = QuantizedIvf::build(&items, 10, 4, 13, 4, 4);
        let narrow = QuantizedIvf::build(&items, 10, 4, 13, 1, 4);
        let m = query_matrix(13, 8, 14);
        let bounded = q
            .search_batch_deadline(&m, 10, &Deadline::after(std::time::Duration::ZERO), &mut |_| {})
            .expect("bounded");
        assert_eq!(bounded.effective_budget, 1, "round 0 always completes, nothing more");
        assert!(bounded.capped());
        assert_eq!(
            bounded.results,
            narrow.search_batch(&m, 10).expect("narrow"),
            "capped probe must equal the plain probe at the smaller nprobe"
        );
    }

    #[test]
    fn quant_metrics_count_both_phases() {
        let registry = MetricsRegistry::enabled();
        let items = random_items(200, 8, 15);
        let mut q = QuantizedIvf::build(&items, 8, 4, 15, 2, 4);
        q.attach_metrics(&registry);
        let m = query_matrix(3, 8, 16);
        q.search_batch(&m, 5).expect("batch");
        let snap = registry.snapshot();
        assert_eq!(snap.counter("serve.backend.queries"), Some(3));
        let i8_scored = snap.counter("serve.backend.quant.scored_i8").unwrap_or(0);
        let reranked = snap.counter("serve.backend.quant.reranked").unwrap_or(0);
        assert!(i8_scored > 0, "int8 phase must be counted");
        assert!(reranked > 0 && reranked <= 3 * 5 * 4, "rerank capped at factor×k per query");
        assert!(i8_scored >= reranked, "shortlist cannot exceed the scanned candidates");
        assert_eq!(snap.counter("serve.backend.candidates_scored"), Some(reranked));
    }

    #[test]
    fn empty_batch_and_width_mismatch() {
        let items = random_items(50, 4, 17);
        let q = QuantizedIvf::build(&items, 4, 3, 17, 2, 4);
        assert!(q.search_batch(&Matrix::zeros(0, 4), 5).expect("empty").is_empty());
        let err = q.search_batch(&Matrix::zeros(2, 5), 5).expect_err("width");
        assert_eq!(err, ServingError::DimensionMismatch { expected: 4, got: 5 });
        let err = q.exact_search(&[0.0; 3], 1).expect_err("width");
        assert_eq!(err, ServingError::DimensionMismatch { expected: 4, got: 3 });
    }
}
