//! Relevance proximity graph: navigable-graph retrieval under the frozen
//! relevance score.
//!
//! Relevance Proximity Graphs (PAPERS.md) observe that for relevance
//! retrieval it pays to search a navigable neighbor graph with the *model's
//! own* relevance function rather than cosine-against-centroids. Our frozen
//! tower already defines that function: relevance between a request and an
//! item is the inner product of their tower embeddings — exactly what the
//! IVF backend scores, reused here as the beam-search objective.
//!
//! Construction is incremental small-world insertion: items are inserted in
//! pool order, each new item beam-searches the partial graph for its
//! nearest existing items (Euclidean over the same embeddings — a symmetric
//! proximity for navigable edges), links to the best `degree`, and links
//! back reciprocally with the neighbor lists pruned to the `degree` closest.
//! Every step is deterministic, so the same item pool always builds the
//! same graph.
//!
//! Search is standard best-first beam search from a fixed medoid entry
//! point: expand the best unexpanded node, score its unvisited neighbors by
//! the frozen relevance (inner product with the request embedding), keep
//! the best `beam_width` seen, stop when the best frontier candidate cannot
//! improve the pool. The deadline rung caps **beam width** instead of
//! `nprobe`: an at-risk probe climbs an ascending ladder of beam widths and
//! keeps the last fully-completed rung, so a capped probe equals a plain
//! probe at the smaller beam.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use zoomer_obs::MetricsRegistry;
use zoomer_tensor::{dot, Matrix};

use crate::backend::{scan_flat, BackendKind, BackendStats, BoundedSearch, SearchBackend};
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::topk::TopK;

/// A beam-search candidate with a total order: score first (IEEE total
/// order, so NaN cannot panic the heap), node index as the deterministic
/// tie-break.
#[derive(Clone, Copy, PartialEq)]
struct Cand {
    score: f32,
    node: u32,
}

impl Eq for Cand {}

impl PartialOrd for Cand {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Cand {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.score.total_cmp(&other.score).then(self.node.cmp(&other.node))
    }
}

/// Navigable neighbor graph over frozen-tower item embeddings, searched by
/// beam search under the frozen relevance score (inner product).
pub struct ProximityGraph {
    ids: Vec<u64>,
    /// Item embeddings, row-major (`vectors.len() == ids.len() * dim`).
    vectors: Vec<f32>,
    dim: usize,
    /// CSR adjacency: node `n`'s out-neighbors are
    /// `neighbors[offsets[n]..offsets[n + 1]]`.
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
    degree: usize,
    beam_width: usize,
    /// Search entry point: the pool medoid (closest item to the pool mean),
    /// a deterministic, query-independent start.
    entry: u32,
    stats: Option<BackendStats>,
}

impl ProximityGraph {
    /// Build from `(id, vector)` pairs with out-degree `degree` and serving
    /// beam width `beam_width` (both clamped to sane minima).
    pub fn build(items: &[(u64, Vec<f32>)], degree: usize, beam_width: usize) -> Self {
        assert!(!items.is_empty(), "cannot index an empty collection");
        let dim = items[0].1.len();
        assert!(items.iter().all(|(_, v)| v.len() == dim), "inconsistent vector widths");
        let n = items.len();
        let degree = degree.max(1).min(n.saturating_sub(1).max(1));
        let beam_width = beam_width.max(1);

        let mut ids = Vec::with_capacity(n);
        let mut vectors = Vec::with_capacity(n * dim);
        for (id, v) in items {
            ids.push(*id);
            vectors.extend_from_slice(v);
        }
        let row = |i: u32| -> &[f32] {
            let i = i as usize;
            &vectors[i * dim..i * dim + dim]
        };

        // Incremental insertion: each new node beam-searches the partial
        // graph for its nearest existing nodes (Euclidean — symmetric, so
        // reciprocal edges stay meaningful) and links both ways. The build
        // beam is wider than the out-degree so the candidate set is not
        // starved on skewed pools. `parent[i]` remembers each node's nearest
        // neighbor at insertion time; those edges are exempt from pruning
        // and materialized in both directions below, embedding a spanning
        // tree in the adjacency so every node stays reachable no matter how
        // the reciprocal edges get pruned.
        let build_beam = (2 * degree).max(16).min(n);
        let mut adj: Vec<Vec<u32>> = vec![Vec::with_capacity(degree + 1); n];
        let mut parent = vec![0u32; n];
        for i in 1..n as u32 {
            let v = row(i);
            let (found, _) = beam_search(
                0,
                build_beam,
                n,
                |node| adj[node as usize].as_slice(),
                |node| -euclidean2(row(node), v),
            );
            let picked: Vec<u32> = found.into_iter().take(degree).map(|(node, _)| node).collect();
            parent[i as usize] = picked[0];
            for &j in &picked {
                adj[j as usize].push(i);
                if adj[j as usize].len() > degree {
                    // Prune back to the `degree` closest by the same metric.
                    let vj = row(j);
                    let mut ranked: Vec<(f32, u32)> =
                        adj[j as usize].iter().map(|&x| (euclidean2(row(x), vj), x)).collect();
                    ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    ranked.truncate(degree);
                    adj[j as usize] = ranked.into_iter().map(|(_, x)| x).collect();
                }
            }
            adj[i as usize] = picked;
        }
        // Splice the spanning-tree backbone back in, both directions.
        for i in 1..n {
            let p = parent[i] as usize;
            if !adj[i].contains(&(p as u32)) {
                adj[i].push(p as u32);
            }
            if !adj[p].contains(&(i as u32)) {
                adj[p].push(i as u32);
            }
        }

        // Flatten to CSR and pick the medoid entry point.
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        offsets.push(0u32);
        for a in &adj {
            neighbors.extend_from_slice(a);
            offsets.push(neighbors.len() as u32);
        }
        let mut mean = vec![0.0f32; dim];
        for i in 0..n {
            for (m, &x) in mean.iter_mut().zip(&vectors[i * dim..i * dim + dim]) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n as f32;
        }
        let mut entry = 0u32;
        let mut best = f32::INFINITY;
        for i in 0..n as u32 {
            let d = euclidean2(row(i), &mean);
            if d < best {
                best = d;
                entry = i;
            }
        }
        Self { ids, vectors, dim, offsets, neighbors, degree, beam_width, entry, stats: None }
    }

    pub fn degree(&self) -> usize {
        self.degree
    }

    pub fn beam_width(&self) -> usize {
        self.beam_width
    }

    /// Re-aim the serving beam width without rebuilding the graph (the graph
    /// structure does not depend on it) — bench sweeps use this to trace the
    /// recall/latency tradeoff on one build.
    pub fn set_beam_width(&mut self, beam_width: usize) {
        self.beam_width = beam_width.max(1);
    }

    fn neighbors_of(&self, node: u32) -> &[u32] {
        let n = node as usize;
        &self.neighbors[self.offsets[n] as usize..self.offsets[n + 1] as usize]
    }

    fn vector_of(&self, node: u32) -> &[f32] {
        let i = node as usize;
        &self.vectors[i * self.dim..i * self.dim + self.dim]
    }

    fn check_width(&self, got: usize) -> Result<(), ServingError> {
        if got != self.dim {
            return Err(ServingError::DimensionMismatch { expected: self.dim, got });
        }
        Ok(())
    }

    /// Beam-search one query at an explicit beam width; returns its top-`k`
    /// of the final pool as `(id, score)` in the crate's total rank order,
    /// and the number of candidates scored.
    fn search_one(&self, query: &[f32], k: usize, beam: usize) -> (Vec<(u64, f32)>, u64) {
        let (found, scored) = beam_search(
            self.entry,
            beam.max(1),
            self.ids.len(),
            |node| self.neighbors_of(node),
            |node| dot(self.vector_of(node), query),
        );
        let mut top = TopK::new(k);
        for (node, s) in found {
            top.push(self.ids[node as usize], s);
        }
        (top.finish(), scored)
    }

    /// Beam-search every query row at one beam width, on the calling thread.
    fn search_rows(&self, queries: &Matrix, k: usize, beam: usize) -> (Vec<Vec<(u64, f32)>>, u64) {
        let mut scored = 0u64;
        let results = (0..queries.rows())
            .map(|r| {
                let (res, s) = self.search_one(queries.row(r), k, beam);
                scored += s;
                res
            })
            .collect();
        (results, scored)
    }

    /// The ascending beam-width ladder the deadline probe climbs:
    /// `beam/8 → beam/4 → beam/2 → beam` (deduplicated, minimum 1). Rung 0
    /// always completes, so every query gets at least a narrow-beam answer.
    fn budget_ladder(&self) -> Vec<usize> {
        let mut widths: Vec<usize> =
            [8usize, 4, 2, 1].iter().map(|&d| (self.beam_width / d).max(1)).collect();
        widths.dedup();
        widths
    }

    /// Recall@k of a narrow beam against this graph's own exact scan.
    pub fn recall_at_k(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        beam: usize,
    ) -> Result<f64, ServingError> {
        if queries.is_empty() {
            return Ok(1.0);
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in queries {
            self.check_width(q.len())?;
            let (approx, _) = self.search_one(q, k, beam);
            let approx: std::collections::HashSet<u64> =
                approx.into_iter().map(|(id, _)| id).collect();
            for (id, _) in self.exact_search(q, k)? {
                total += 1;
                if approx.contains(&id) {
                    hits += 1;
                }
            }
        }
        Ok(hits as f64 / total.max(1) as f64)
    }
}

impl SearchBackend for ProximityGraph {
    fn name(&self) -> &'static str {
        BackendKind::Proximity.name()
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
        let (results, scored) = self.search_rows(queries, k, self.beam_width);
        if let Some(s) = &self.stats {
            s.queries.add(queries.rows() as u64);
            s.candidates_scored.add(scored);
        }
        Ok(results)
    }

    /// Deadline-aware probe over the beam-width ladder: rung `r` re-searches
    /// every query at `budget_ladder()[r]`, the expiry check runs between
    /// rungs, and the last completed rung's results stand.
    fn search_batch_deadline(
        &self,
        queries: &Matrix,
        k: usize,
        deadline: &Deadline,
        on_round: &mut dyn FnMut(usize),
    ) -> Result<BoundedSearch, ServingError> {
        let full = self.beam_width;
        if queries.rows() == 0 {
            return Ok(BoundedSearch {
                results: Vec::new(),
                effective_budget: full,
                full_budget: full,
            });
        }
        self.check_width(queries.cols())?;
        let ladder = self.budget_ladder();
        let mut results = Vec::new();
        let mut effective = 0usize;
        let mut scored = 0u64;
        for (r, &width) in ladder.iter().enumerate() {
            if r > 0 && deadline.expired() {
                break;
            }
            on_round(r);
            let (res, s) = self.search_rows(queries, k, width);
            results = res;
            scored += s;
            effective = width;
        }
        if let Some(s) = &self.stats {
            s.queries.add(queries.rows() as u64);
            s.candidates_scored.add(scored);
        }
        Ok(BoundedSearch { results, effective_budget: effective, full_budget: full })
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

/// Best-first beam search over an adjacency closure: expand the best
/// unexpanded node, keep the `beam` best seen, stop when the best frontier
/// entry cannot beat the worst pooled one. Returns the pool best-first plus
/// the number of nodes scored. Deterministic: the heap order is total
/// (score, then node index).
fn beam_search<'a>(
    entry: u32,
    beam: usize,
    n: usize,
    neighbors_of: impl Fn(u32) -> &'a [u32],
    score: impl Fn(u32) -> f32,
) -> (Vec<(u32, f32)>, u64) {
    let mut visited = vec![false; n];
    let mut frontier: BinaryHeap<Cand> = BinaryHeap::new();
    let mut pool: BinaryHeap<Reverse<Cand>> = BinaryHeap::new();
    let first = Cand { score: score(entry), node: entry };
    let mut scored = 1u64;
    visited[entry as usize] = true;
    frontier.push(first);
    pool.push(Reverse(first));
    while let Some(c) = frontier.pop() {
        if pool.len() >= beam {
            if let Some(Reverse(worst)) = pool.peek() {
                if c < *worst {
                    break;
                }
            }
        }
        for &nb in neighbors_of(c.node) {
            if !visited[nb as usize] {
                visited[nb as usize] = true;
                let cand = Cand { score: score(nb), node: nb };
                scored += 1;
                if pool.len() < beam {
                    pool.push(Reverse(cand));
                    frontier.push(cand);
                } else if let Some(Reverse(worst)) = pool.peek() {
                    if cand > *worst {
                        pool.pop();
                        pool.push(Reverse(cand));
                        frontier.push(cand);
                    }
                }
            }
        }
    }
    let ranked: Vec<(u32, f32)> =
        pool.into_sorted_vec().into_iter().map(|Reverse(c)| (c.node, c.score)).collect();
    (ranked, scored)
}

fn euclidean2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;
    use zoomer_tensor::seeded_rng;

    fn random_items(n: usize, dim: usize, seed: u64) -> Vec<(u64, Vec<f32>)> {
        let mut rng = seeded_rng(seed);
        (0..n as u64)
            .map(|id| (id + 1000, (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect()
    }

    fn query_matrix(n: usize, dim: usize, seed: u64) -> Matrix {
        let mut rng = seeded_rng(seed);
        Matrix::from_vec(n, dim, (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
    }

    #[test]
    fn indexes_every_item_within_degree_bounds() {
        let items = random_items(200, 8, 41);
        let g = ProximityGraph::build(&items, 8, 32);
        assert_eq!(g.len(), 200);
        assert_eq!(g.dim(), 8);
        assert_eq!(g.degree(), 8);
        assert_eq!(g.beam_width(), 32);
        // Per-node fan-out is `degree` pruned edges plus the never-pruned
        // spanning-tree backbone, so the total stays linear in the pool.
        assert!(g.neighbors.len() <= 200 * (8 + 2), "adjacency too dense");
        for node in 0..200u32 {
            assert!(!g.neighbors_of(node).is_empty(), "node {node} isolated");
        }
        // Every non-entry node is reachable: a full-beam search visits all.
        let q = vec![0.0f32; 8];
        let (found, _) = g.search_one(&q, 200, 200);
        assert_eq!(found.len(), 200, "graph must be connected by construction");
    }

    #[test]
    fn full_beam_search_matches_the_exact_scan() {
        let items = random_items(150, 8, 42);
        let g = ProximityGraph::build(&items, 6, 150);
        let m = query_matrix(8, 8, 43);
        let results = g.search_batch(&m, 10).expect("batch");
        for (r, got) in results.iter().enumerate() {
            let exact = g.exact_search(m.row(r), 10).expect("exact");
            let got_ids: Vec<u64> = got.iter().map(|&(id, _)| id).collect();
            let exact_ids: Vec<u64> = exact.iter().map(|&(id, _)| id).collect();
            assert_eq!(got_ids, exact_ids, "row {r}: full beam must reach exact recall");
            for (a, b) in got.iter().zip(&exact) {
                assert_eq!(a.1.to_bits(), b.1.to_bits(), "row {r}: same relevance arithmetic");
            }
        }
    }

    #[test]
    fn batch_matches_single_rows() {
        let items = random_items(120, 8, 44);
        let g = ProximityGraph::build(&items, 6, 24);
        let m = query_matrix(35, 8, 45);
        let batched = g.search_batch(&m, 9).expect("batch");
        for (r, row) in batched.iter().enumerate() {
            let (single, _) = g.search_one(m.row(r), 9, 24);
            assert_eq!(row, &single, "row {r} depends on batch composition");
        }
    }

    #[test]
    fn recall_improves_with_beam_width_and_saturates() {
        let items = random_items(400, 16, 46);
        let g = ProximityGraph::build(&items, 10, 64);
        let queries: Vec<Vec<f32>> = random_items(25, 16, 47).into_iter().map(|(_, v)| v).collect();
        let narrow = g.recall_at_k(&queries, 10, 2).expect("recall");
        let mid = g.recall_at_k(&queries, 10, 16).expect("recall");
        let full = g.recall_at_k(&queries, 10, 400).expect("recall");
        assert!(narrow <= mid + 1e-9 && mid <= full + 1e-9, "{narrow} {mid} {full}");
        assert!((full - 1.0).abs() < 1e-9, "a pool-wide beam must be exact");
        assert!(mid > 0.5, "beam=16 recall too low: {mid}");
    }

    #[test]
    fn unbounded_deadline_climbs_the_whole_ladder() {
        let items = random_items(200, 8, 48);
        let g = ProximityGraph::build(&items, 6, 32);
        let m = query_matrix(5, 8, 49);
        let mut rounds = Vec::new();
        let bounded = g
            .search_batch_deadline(&m, 10, &Deadline::none(), &mut |r| rounds.push(r))
            .expect("bounded");
        assert_eq!(rounds, vec![0, 1, 2, 3], "ladder 4/8/16/32 = four rungs");
        assert!(!bounded.capped());
        assert_eq!(bounded.effective_budget, 32);
        assert_eq!(bounded.full_budget, 32);
        // The final rung runs at the full beam, so results match the plain probe.
        assert_eq!(bounded.results, g.search_batch(&m, 10).expect("plain"));
    }

    #[test]
    fn expired_deadline_caps_to_the_first_rung() {
        let items = random_items(200, 8, 50);
        let g = ProximityGraph::build(&items, 6, 32);
        let m = query_matrix(4, 8, 51);
        let bounded = g
            .search_batch_deadline(&m, 10, &Deadline::after(std::time::Duration::ZERO), &mut |_| {})
            .expect("bounded");
        assert!(bounded.capped());
        assert_eq!(bounded.effective_budget, 4, "rung 0 = beam/8 always completes");
        // A capped probe equals a plain probe at the smaller beam.
        let (narrow, _) = g.search_rows(&m, 10, 4);
        assert_eq!(bounded.results, narrow);
    }

    #[test]
    fn deadline_expiring_mid_ladder_keeps_the_last_completed_rung() {
        let items = random_items(200, 8, 52);
        let g = ProximityGraph::build(&items, 6, 32);
        let m = query_matrix(4, 8, 53);
        let deadline = Deadline::after(std::time::Duration::from_millis(5));
        let bounded = g
            .search_batch_deadline(&m, 10, &deadline, &mut |r| {
                if r == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            })
            .expect("bounded");
        assert_eq!(bounded.effective_budget, 8, "rungs 0 and 1 completed");
        let (narrow, _) = g.search_rows(&m, 10, 8);
        assert_eq!(bounded.results, narrow);
    }

    #[test]
    fn single_item_and_tiny_pools_serve() {
        let g = ProximityGraph::build(&[(7u64, vec![1.0, 0.0])], 4, 8);
        let got = g.exact_search(&[1.0, 0.0], 3).expect("scan");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 7);
        let (res, _) = g.search_one(&[1.0, 0.0], 3, 8);
        assert_eq!(res[0].0, 7);
    }

    #[test]
    fn wrong_query_width_is_a_typed_error() {
        let items = random_items(20, 4, 54);
        let g = ProximityGraph::build(&items, 4, 8);
        let err = g.exact_search(&[0.0; 3], 1).expect_err("width mismatch");
        assert_eq!(err, ServingError::DimensionMismatch { expected: 4, got: 3 });
        assert!(g.search_batch(&Matrix::zeros(0, 9), 1).expect("empty").is_empty());
    }

    #[test]
    fn same_pool_builds_the_same_graph() {
        let items = random_items(100, 8, 55);
        let a = ProximityGraph::build(&items, 6, 16);
        let b = ProximityGraph::build(&items, 6, 16);
        assert_eq!(a.neighbors, b.neighbors);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.entry, b.entry);
    }
}
