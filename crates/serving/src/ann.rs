//! IVF-Flat approximate nearest neighbor index.
//!
//! The paper feeds trained representations to "an efficient
//! Approximate-Nearest-Neighbors search module (ANN) to generate the inverted
//! index for online serving" (§VI). This is the classic IVF-Flat design: a
//! k-means coarse quantizer partitions vectors into `nlist` inverted lists;
//! a query probes the `nprobe` nearest lists and scores their members
//! exactly by inner product.
//!
//! Each inverted list is stored as tiles of [`TILE_LANES`] entries laid side
//! by side, and a probe scores one tile at a time: [`dot_tile`] gives the
//! eight scores without a horizontal reduction, and [`TopK::push_tile`]
//! pushes only the lanes that can still make the query's top `k`.

use std::ops::Range;

use zoomer_obs::{Counter, MetricsRegistry};
use zoomer_tensor::{dot_tile, seeded_rng, Matrix, TILE_LANES};

use rand::seq::SliceRandom;

use crate::backend::BoundedSearch;
use crate::deadline::Deadline;
use crate::error::ServingError;
use crate::topk::TopK;

/// The width of every served model's embeddings: the IVF scan runs a copy
/// of its tile loop specialised to it, and any other width runs the same
/// loop at a runtime width.
const SERVED_DIM: usize = 16;

/// One inverted list: entry ids plus their vectors as tiles. A tile is
/// `dim` rows of [`TILE_LANES`] floats; entry `e` sits in tile
/// `e / TILE_LANES`, lane `e % TILE_LANES`, so element `i` of entry `e` is
/// `tiles[(e / TILE_LANES) * dim * TILE_LANES + i * TILE_LANES + e % TILE_LANES]`.
/// The last tile is zero-padded; its padded lanes are scored but never
/// pushed. This is the index's only copy of its vectors.
#[derive(Clone, Debug, Default)]
struct InvList {
    ids: Vec<u64>,
    tiles: Vec<f32>,
}

impl InvList {
    /// Append one entry, opening a zeroed tile when the last one is full.
    fn push(&mut self, dim: usize, id: u64, v: &[f32]) {
        let lane = self.ids.len() % TILE_LANES;
        if lane == 0 {
            self.tiles.resize(self.tiles.len() + dim * TILE_LANES, 0.0);
        }
        let tile = &mut self.tiles[self.ids.len() / TILE_LANES * dim * TILE_LANES..];
        for (row, &x) in tile.chunks_exact_mut(TILE_LANES).zip(v) {
            row[lane] = x;
        }
        self.ids.push(id);
    }

    /// Every entry's vector read back out of the tiles, row-major.
    fn rows(&self, dim: usize) -> Vec<f32> {
        let mut rows = Vec::with_capacity(self.ids.len() * dim);
        for e in 0..self.ids.len() {
            let tile = &self.tiles[e / TILE_LANES * dim * TILE_LANES..];
            rows.extend((0..dim).map(|i| tile[i * TILE_LANES + e % TILE_LANES]));
        }
        rows
    }
}

/// Probe-volume counters reported by the index: how many (query, list)
/// probes ran and how many candidate vectors were exactly scored. Tallied
/// locally per scoring pass and published with one `fetch_add` each, so the
/// accounting cost is independent of batch and list sizes.
#[derive(Clone)]
pub struct IvfMetrics {
    pub lists_probed: Counter,
    pub candidates_scored: Counter,
}

/// IVF-Flat index over inner-product similarity.
pub struct IvfIndex {
    dim: usize,
    centroids: Vec<Vec<f32>>,
    lists: Vec<InvList>,
    metrics: Option<IvfMetrics>,
}

impl IvfIndex {
    /// Build from `(id, vector)` pairs with `nlist` coarse clusters.
    pub fn build(items: &[(u64, Vec<f32>)], nlist: usize, kmeans_iters: usize, seed: u64) -> Self {
        assert!(!items.is_empty(), "cannot index an empty collection");
        let dim = items[0].1.len();
        assert!(items.iter().all(|(_, v)| v.len() == dim), "inconsistent vector widths");
        let nlist = nlist.max(1).min(items.len());

        // k-means on (a sample of) the vectors, Euclidean.
        let mut rng = seeded_rng(seed);
        let mut centroid_seed: Vec<usize> = (0..items.len()).collect();
        centroid_seed.shuffle(&mut rng);
        let mut centroids: Vec<Vec<f32>> =
            centroid_seed[..nlist].iter().map(|&i| items[i].1.clone()).collect();
        let mut assignment = vec![0usize; items.len()];
        for _ in 0..kmeans_iters {
            for (i, (_, v)) in items.iter().enumerate() {
                assignment[i] = nearest(&centroids, v);
            }
            let mut sums = vec![vec![0.0f32; dim]; nlist];
            let mut counts = vec![0usize; nlist];
            for (i, (_, v)) in items.iter().enumerate() {
                counts[assignment[i]] += 1;
                for (s, &x) in sums[assignment[i]].iter_mut().zip(v) {
                    *s += x;
                }
            }
            for c in 0..nlist {
                if counts[c] > 0 {
                    for s in &mut sums[c] {
                        *s /= counts[c] as f32;
                    }
                    centroids[c] = sums[c].clone();
                }
            }
        }
        let mut lists: Vec<InvList> = vec![InvList::default(); nlist];
        for (i, (id, v)) in items.iter().enumerate() {
            lists[assignment[i]].push(dim, *id, v);
        }
        Self { dim, centroids, lists, metrics: None }
    }

    /// Report probe volume into `registry` as the `ann.lists_probed` /
    /// `ann.candidates_scored` counters. Call once at build time (before the
    /// index is shared); counters are always-on but amortized per pass.
    pub fn attach_metrics(&mut self, registry: &MetricsRegistry) {
        self.metrics = Some(IvfMetrics {
            lists_probed: registry.counter("ann.lists_probed"),
            candidates_scored: registry.counter("ann.candidates_scored"),
        });
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The coarse-quantizer centroids, one row per list. `pub(crate)` so the
    /// quantized backend can adopt this index's exact clustering (same
    /// centroids + same assignment ⇒ the same candidate set at equal
    /// `nprobe`, which is what makes quantized-vs-f32 recall comparable).
    pub(crate) fn centroid_rows(&self) -> &[Vec<f32>] {
        &self.centroids
    }

    /// One inverted list's `(ids, row-major f32 vectors)`, the vectors read
    /// back out of the tiles. `pub(crate)` for the quantized backend's build
    /// path.
    pub(crate) fn list_entries(&self, list: usize) -> (&[u64], Vec<f32>) {
        let il = &self.lists[list];
        (&il.ids, il.rows(self.dim))
    }

    pub fn nlist(&self) -> usize {
        self.centroids.len()
    }

    pub fn len(&self) -> usize {
        self.lists.iter().map(|l| l.ids.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate top-`k` by inner product, probing `nprobe` lists: a
    /// batch of one through [`Self::search_batch`].
    pub fn search(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<(u64, f32)>, ServingError> {
        self.search_batch(&Matrix::row_vector(query), k, nprobe)?
            .pop()
            .ok_or(ServingError::Internal("one-row batch returned no result rows"))
    }

    /// Multi-query approximate top-`k`: one query per row of `queries`.
    ///
    /// Runs on the calling thread: [`Self::search_batch_deadline`] with no
    /// deadline. Lists are visited in probe-rank rounds — round `r` scans
    /// every query's `(r+1)`-th nearest list, each list once for all the
    /// queries probing it in that round — so every query meets its nearest
    /// list first and its [`TopK`] floor rises early, which leaves fewer
    /// candidates to push from the lists after it. Each query keeps one
    /// bounded `TopK` across its lists, so its working set is O(`k`), not
    /// O(candidates). Results are in the crate's total rank order — score
    /// descending, then id ascending ([`crate::topk`]) — so a row never
    /// depends on batch composition or on the order lists are visited.
    pub fn search_batch(
        &self,
        queries: &Matrix,
        k: usize,
        nprobe: usize,
    ) -> Result<Vec<Vec<(u64, f32)>>, ServingError> {
        Ok(self.search_batch_deadline(queries, k, nprobe, &Deadline::none(), |_| {})?.results)
    }

    fn check_width(&self, got: usize) -> Result<(), ServingError> {
        if got != self.dim {
            return Err(ServingError::DimensionMismatch { expected: self.dim, got });
        }
        Ok(())
    }

    /// Score every `(list, probing queries)` pair of `probers` into the
    /// queries' accumulators; returns the `(probes, candidates)` tallies.
    fn scan_lists(&self, probers: &[Vec<u32>], queries: &Matrix, tops: &mut [TopK]) -> (u64, u64) {
        let (mut probes, mut candidates) = (0u64, 0u64);
        for (list, qis) in probers.iter().enumerate() {
            self.score_one_list(list, qis, queries, tops);
            probes += qis.len() as u64;
            candidates += (qis.len() * self.lists[list].ids.len()) as u64;
        }
        (probes, candidates)
    }

    fn publish(&self, probes: u64, candidates: u64) {
        if let Some(m) = &self.metrics {
            m.lists_probed.add(probes);
            m.candidates_scored.add(candidates);
        }
    }

    /// Score every query in `qis` (batch row indices) against one inverted
    /// list, pushing `(id, score)` into `tops[qi]`: for each query, for each
    /// tile, [`dot_tile`] then [`TopK::push_tile`]. `dot_tile` applies
    /// `dot`'s exact lane scheme per entry, so a score never depends on the
    /// tile its entry sits in or on which queries share the pass.
    fn score_one_list(&self, list: usize, qis: &[u32], queries: &Matrix, tops: &mut [TopK]) {
        match self.dim {
            SERVED_DIM => self.score_tiles::<SERVED_DIM>(list, qis, queries, tops),
            _ => self.score_tiles::<0>(list, qis, queries, tops),
        }
    }

    /// [`Self::score_one_list`] at the width `W` (`0`: the runtime width).
    fn score_tiles<const W: usize>(
        &self,
        list: usize,
        qis: &[u32],
        queries: &Matrix,
        tops: &mut [TopK],
    ) {
        let il = &self.lists[list];
        let tile_len = self.dim * TILE_LANES;
        for &qi in qis {
            let q = queries.row(qi as usize);
            let top = &mut tops[qi as usize];
            for (t, ids) in il.ids.chunks(TILE_LANES).enumerate() {
                let tile = &il.tiles[t * tile_len..(t + 1) * tile_len];
                top.push_tile(ids, &dot_tile::<W>(tile, q));
            }
        }
    }

    /// Deadline-aware multi-query probe: visit each query's `nprobe` nearest
    /// lists **nearest-first in probe-rank rounds**, checking the deadline
    /// between rounds and stopping early once it expires. Round 0 always
    /// completes, so every query is scored against at least its single
    /// nearest list; stopping after round `r` leaves each query with exactly
    /// its `r+1` nearest lists scored — the same candidates, and so (by the
    /// total rank order) the same results, a plain `nprobe = r+1` search
    /// would have produced.
    ///
    /// `on_round(r)` fires at the start of every round (after the expiry
    /// check); the server uses it as a fault-injection point.
    pub fn search_batch_deadline(
        &self,
        queries: &Matrix,
        k: usize,
        nprobe: usize,
        deadline: &Deadline,
        mut on_round: impl FnMut(usize),
    ) -> Result<BoundedSearch, ServingError> {
        let nprobe = nprobe.max(1).min(self.centroids.len());
        if queries.rows() == 0 {
            return Ok(BoundedSearch {
                results: Vec::new(),
                effective_budget: nprobe,
                full_budget: nprobe,
            });
        }
        self.check_width(queries.cols())?;
        // Round r probes every query's (r+1)-th nearest list.
        let orders = probe_orders(&self.centroids, queries, nprobe);
        let mut tops: Vec<TopK> = (0..queries.rows()).map(|_| TopK::new(k)).collect();
        let mut probers = vec![Vec::new(); self.centroids.len()];
        let (mut probes, mut candidates) = (0u64, 0u64);
        let mut effective = nprobe;
        for r in 0..nprobe {
            if r > 0 && deadline.expired() {
                effective = r;
                break;
            }
            on_round(r);
            fill_probers(&orders, r..r + 1, &mut probers);
            let (p, c) = self.scan_lists(&probers, queries, &mut tops);
            probes += p;
            candidates += c;
        }
        self.publish(probes, candidates);
        Ok(BoundedSearch {
            results: tops.into_iter().map(TopK::finish).collect(),
            effective_budget: effective,
            full_budget: nprobe,
        })
    }

    /// Exact top-`k` (probes every list) — the recall baseline.
    pub fn exact_search(&self, query: &[f32], k: usize) -> Result<Vec<(u64, f32)>, ServingError> {
        self.search(query, k, self.centroids.len())
    }

    /// Recall@k of approximate vs exact search for a set of queries.
    pub fn recall_at_k(
        &self,
        queries: &[Vec<f32>],
        k: usize,
        nprobe: usize,
    ) -> Result<f64, ServingError> {
        if queries.is_empty() {
            return Ok(1.0);
        }
        let mut hits = 0usize;
        let mut total = 0usize;
        for q in queries {
            let approx: std::collections::HashSet<u64> =
                self.search(q, k, nprobe)?.into_iter().map(|(id, _)| id).collect();
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

fn nearest(centroids: &[Vec<f32>], v: &[f32]) -> usize {
    let mut best = 0usize;
    let mut best_d = f32::INFINITY;
    for (i, c) in centroids.iter().enumerate() {
        let d = euclidean2(c, v);
        if d < best_d {
            best_d = d;
            best = i;
        }
    }
    best
}

/// Each query row's probe schedule: its `nprobe` nearest lists, ascending
/// by centroid distance. Shared by the f32 and quantized IVF scans.
pub(crate) fn probe_orders(
    centroids: &[Vec<f32>],
    queries: &Matrix,
    nprobe: usize,
) -> Vec<Vec<usize>> {
    let by_dist = |a: &(usize, f32), b: &(usize, f32)| {
        a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal)
    };
    (0..queries.rows())
        .map(|qi| {
            let q = queries.row(qi);
            let mut order: Vec<(usize, f32)> =
                centroids.iter().enumerate().map(|(i, c)| (i, euclidean2(c, q))).collect();
            let pivot = (nprobe - 1).min(order.len() - 1);
            order.select_nth_unstable_by(pivot, by_dist);
            order.truncate(nprobe);
            order.sort_by(by_dist);
            order.into_iter().map(|(list, _)| list).collect()
        })
        .collect()
}

/// Invert the schedule positions `ranks` of every query's probe order into
/// "list → probing queries" (`probers` is cleared first), so each list is
/// scanned once for all of its probers.
pub(crate) fn fill_probers(orders: &[Vec<usize>], ranks: Range<usize>, probers: &mut [Vec<u32>]) {
    for p in probers.iter_mut() {
        p.clear();
    }
    for (qi, order) in orders.iter().enumerate() {
        for &list in order.iter().take(ranks.end).skip(ranks.start) {
            probers[list].push(qi as u32);
        }
    }
}

pub(crate) fn euclidean2(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(&x, &y)| (x - y) * (x - y)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    fn random_items(n: usize, dim: usize, seed: u64) -> Vec<(u64, Vec<f32>)> {
        let mut rng = seeded_rng(seed);
        (0..n as u64).map(|id| (id, (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect())).collect()
    }

    #[test]
    fn indexes_every_item() {
        let items = random_items(200, 8, 1);
        let idx = IvfIndex::build(&items, 8, 5, 1);
        assert_eq!(idx.len(), 200);
        assert_eq!(idx.nlist(), 8);
        assert_eq!(idx.dim(), 8);
    }

    #[test]
    fn exact_search_finds_true_top1() {
        let items = random_items(300, 8, 2);
        let idx = IvfIndex::build(&items, 10, 5, 2);
        // The best match for an item's own vector is itself (self inner
        // product maximal among normalized-ish random vectors... not strictly
        // guaranteed, so verify against brute force instead).
        let q = &items[42].1;
        let got = idx.exact_search(q, 1).expect("search")[0].0;
        let brute = items
            .iter()
            .max_by(|a, b| {
                let sa: f32 = a.1.iter().zip(q).map(|(&x, &y)| x * y).sum();
                let sb: f32 = b.1.iter().zip(q).map(|(&x, &y)| x * y).sum();
                sa.partial_cmp(&sb).unwrap()
            })
            .unwrap()
            .0;
        assert_eq!(got, brute);
    }

    #[test]
    fn recall_improves_with_nprobe() {
        let items = random_items(500, 16, 3);
        let idx = IvfIndex::build(&items, 16, 6, 3);
        let queries: Vec<Vec<f32>> = random_items(30, 16, 4).into_iter().map(|(_, v)| v).collect();
        let r1 = idx.recall_at_k(&queries, 10, 1).expect("recall");
        let r4 = idx.recall_at_k(&queries, 10, 4).expect("recall");
        let r16 = idx.recall_at_k(&queries, 10, 16).expect("recall");
        assert!(r1 <= r4 + 1e-9 && r4 <= r16 + 1e-9, "{r1} {r4} {r16}");
        assert!((r16 - 1.0).abs() < 1e-9, "full probe must be exact");
        assert!(r4 > 0.3, "nprobe=4 recall too low: {r4}");
    }

    #[test]
    fn search_returns_sorted_topk() {
        let items = random_items(100, 4, 5);
        let idx = IvfIndex::build(&items, 4, 4, 5);
        let res = idx.search(&items[0].1, 7, 2).expect("search");
        assert!(res.len() <= 7);
        for w in res.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted: {res:?}");
        }
    }

    #[test]
    fn batch_search_matches_single_queries() {
        let items = random_items(400, 8, 9);
        let idx = IvfIndex::build(&items, 12, 5, 9);
        let queries: Vec<Vec<f32>> = random_items(17, 8, 10).into_iter().map(|(_, v)| v).collect();
        let rows: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let batched = idx.search_batch(&Matrix::from_rows(&rows), 10, 3).expect("batch");
        assert_eq!(batched.len(), queries.len());
        for (q, got) in queries.iter().zip(&batched) {
            assert_eq!(
                got,
                &idx.search(q, 10, 3).expect("search"),
                "batch result diverges from single"
            );
        }
    }

    #[test]
    fn deadline_search_with_unbounded_budget_matches_search_batch() {
        let items = random_items(350, 8, 14);
        let idx = IvfIndex::build(&items, 10, 4, 14);
        let queries: Vec<Vec<f32>> = random_items(21, 8, 15).into_iter().map(|(_, v)| v).collect();
        let rows: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let m = Matrix::from_rows(&rows);
        let mut rounds = Vec::new();
        let bounded = idx
            .search_batch_deadline(&m, 10, 4, &Deadline::none(), |r| rounds.push(r))
            .expect("bounded");
        assert_eq!(bounded.effective_budget, 4);
        assert_eq!(bounded.full_budget, 4);
        assert!(!bounded.capped());
        assert_eq!(rounds, vec![0, 1, 2, 3], "one hook call per probe round");
        let full = idx.search_batch(&m, 10, 4).expect("full");
        assert_eq!(bounded.results, full, "unbounded deadline must match the plain batch probe");
    }

    #[test]
    fn expired_deadline_caps_probe_to_one_round() {
        let items = random_items(350, 8, 16);
        let idx = IvfIndex::build(&items, 10, 4, 16);
        let queries: Vec<Vec<f32>> = random_items(13, 8, 17).into_iter().map(|(_, v)| v).collect();
        let rows: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let m = Matrix::from_rows(&rows);
        let bounded = idx
            .search_batch_deadline(&m, 10, 4, &Deadline::after(std::time::Duration::ZERO), |_| {})
            .expect("bounded");
        assert_eq!(bounded.effective_budget, 1, "round 0 always completes, nothing more");
        assert!(bounded.capped());
        // One completed round == the candidates of a plain nprobe=1 search.
        let narrow = idx.search_batch(&m, 10, 1).expect("narrow");
        assert_eq!(bounded.results, narrow, "capped probe must equal the equivalent nprobe");
    }

    #[test]
    fn deadline_expiring_mid_probe_stops_between_rounds() {
        let items = random_items(350, 8, 18);
        let idx = IvfIndex::build(&items, 10, 4, 18);
        let queries: Vec<Vec<f32>> = random_items(9, 8, 19).into_iter().map(|(_, v)| v).collect();
        let rows: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let m = Matrix::from_rows(&rows);
        // Burn the whole budget inside round 1's hook: rounds 0 and 1 score,
        // the round-2 expiry check then stops the probe.
        let deadline = Deadline::after(std::time::Duration::from_millis(5));
        let bounded = idx
            .search_batch_deadline(&m, 10, 4, &deadline, |r| {
                if r == 1 {
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
            })
            .expect("bounded");
        assert_eq!(bounded.effective_budget, 2);
        assert_eq!(bounded.results, idx.search_batch(&m, 10, 2).expect("two-list probe"));
    }

    #[test]
    fn empty_batch_is_empty() {
        let items = random_items(20, 4, 11);
        let idx = IvfIndex::build(&items, 4, 3, 11);
        assert!(idx.search_batch(&Matrix::zeros(0, 4), 5, 2).expect("batch").is_empty());
    }

    #[test]
    fn single_item_collection() {
        let items = vec![(9u64, vec![1.0, 0.0])];
        let idx = IvfIndex::build(&items, 4, 3, 6);
        let res = idx.search(&[1.0, 0.0], 5, 1).expect("search");
        assert_eq!(res.len(), 1);
        assert_eq!(res[0].0, 9);
    }

    #[test]
    #[should_panic(expected = "empty collection")]
    fn empty_build_panics() {
        let _ = IvfIndex::build(&[], 4, 3, 7);
    }

    #[test]
    fn wrong_query_width_is_a_typed_error() {
        let items = random_items(10, 4, 8);
        let idx = IvfIndex::build(&items, 2, 2, 8);
        let err = idx.search(&[0.0; 3], 1, 1).expect_err("mismatched width must be rejected");
        assert_eq!(err, crate::error::ServingError::DimensionMismatch { expected: 4, got: 3 });
    }

    /// An index built by hand so that its lists hold 0, 1, 7, 8 and 9
    /// entries — empty, one padded tile, one short of a tile, exactly one,
    /// one past — at a width that is not a multiple of 8 and at the served
    /// width: the tiles give the vectors back, and every probe returns what
    /// an exact flat scan over the same items returns, bit for bit.
    #[test]
    fn ragged_tiles_match_an_exact_flat_scan() {
        let bits = |v: &[(u64, f32)]| -> Vec<(u64, u32)> {
            v.iter().map(|&(id, s)| (id, s.to_bits())).collect()
        };
        let sizes = [0usize, 1, 7, 8, 9];
        for dim in [11, SERVED_DIM] {
            let items = random_items(sizes.iter().sum(), dim, 20);
            let mut lists = vec![InvList::default(); sizes.len()];
            let mut members = items.iter();
            for (list, &n) in lists.iter_mut().zip(&sizes) {
                for (id, v) in members.by_ref().take(n) {
                    list.push(dim, *id, v);
                }
            }
            let centroids =
                random_items(sizes.len(), dim, 21).into_iter().map(|(_, v)| v).collect();
            let idx = IvfIndex { dim, centroids, lists, metrics: None };
            let ids: Vec<u64> = items.iter().map(|(id, _)| *id).collect();
            let flat: Vec<f32> = items.iter().flat_map(|(_, v)| v.iter().copied()).collect();
            let rows: Vec<f32> = (0..sizes.len()).flat_map(|l| idx.list_entries(l).1).collect();
            assert_eq!(rows, flat, "dim {dim}: the tiles must give the vectors back");

            let queries: Vec<Vec<f32>> =
                random_items(9, dim, 22).into_iter().map(|(_, v)| v).collect();
            let rows: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
            let m = Matrix::from_rows(&rows);
            for k in [1, 5, 25, 40] {
                let batched = idx.search_batch(&m, k, sizes.len()).expect("batch");
                for (q, got) in queries.iter().zip(&batched) {
                    let want = bits(&crate::backend::scan_flat(&ids, &flat, dim, q, k));
                    assert_eq!(bits(got), want, "dim {dim} k {k}: batched row");
                    let exact = idx.exact_search(q, k).expect("exact");
                    assert_eq!(bits(&exact), want, "dim {dim} k {k}: exact_search");
                }
            }
        }
    }
}
