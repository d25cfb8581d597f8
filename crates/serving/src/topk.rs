//! Shared top-k selection for every search backend.
//!
//! Every ranking in the crate — the IVF list scan, the quantized shortlist
//! and rerank, the exact flat scan, and the router's cross-shard merge —
//! selects through [`TopK`], so a backend swap or a shard count can never
//! change how a candidate set turns into a result list.
//!
//! **The rank order is total:** score descending, then id ascending, and a
//! NaN score ranks below every number. A candidate set therefore has exactly
//! one top-`k`, whatever order its candidates arrive in: streaming
//! selection, selection over chunks re-merged (per list, per shard), and a
//! sort of everything all give the same list.
//!
//! The IVF scan pushes a tile of eight scores at once through
//! [`TopK::push_tile`], which compares the eight with the floor in one pass
//! and pushes only the lanes at or above it — exactly the set that pushing
//! all eight one by one would keep.

use std::cmp::Ordering;

use zoomer_tensor::TILE_LANES;

/// A score's rank key: an integer ordered like the score, with every NaN
/// below every number and `-0.0 == 0.0`.
#[inline]
fn rank_key(score: f32) -> u32 {
    // `+ 0.0` turns -0.0 into 0.0; setting the sign bit of a positive float
    // and flipping every bit of a negative one maps float order onto
    // unsigned order. No number maps to 0, which is left for NaN.
    let bits = (score + 0.0).to_bits();
    let key = if bits >> 31 == 0 { bits | 1 << 31 } else { !bits };
    if score.is_nan() {
        0
    } else {
        key
    }
}

/// A buffered candidate with its rank key computed once, so the selections
/// compare integers (and the entry still packs into 16 bytes).
#[derive(Clone, Copy)]
struct Slot {
    id: u64,
    score: f32,
    key: u32,
}

/// The crate's rank order: `Less` when `a` ranks before `b` — higher score
/// first, NaN below every number, ties broken by the lower id.
#[inline]
fn rank_order(a: &Slot, b: &Slot) -> Ordering {
    b.key.cmp(&a.key).then(a.id.cmp(&b.id))
}

/// Bounded streaming top-`k` in the rank order. Candidates are pushed one
/// at a time into a buffer of at most `2k` entries; when it fills, it is
/// compacted to its `k` best with a linear-time selection, and from then on
/// any score below the current `k`-th best is rejected by one comparison.
/// A query's working set is O(k) however many candidates it scores.
pub struct TopK {
    k: usize,
    /// `slots[..len]` are the kept candidates; the slots past them let
    /// `push` write a candidate before deciding whether to keep it.
    slots: Vec<Slot>,
    len: usize,
    /// Rank key of the `k`-th best candidate at the last compaction:
    /// nothing ranking strictly below it can still make the top `k`.
    floor: u32,
    /// That candidate's score; meaningful only while `floor != 0`, when it
    /// is a number.
    floor_score: f32,
}

impl TopK {
    pub fn new(k: usize) -> Self {
        Self { k, slots: Vec::new(), len: 0, floor: 0, floor_score: 0.0 }
    }

    /// Buffer length that triggers a compaction: `2k`, and at least one
    /// slot so that `k = 0` has somewhere to write.
    #[inline]
    fn cap(&self) -> usize {
        self.k.saturating_mul(2).max(1)
    }

    #[inline]
    pub fn push(&mut self, id: u64, score: f32) {
        if self.len == self.slots.len() {
            self.grow();
        }
        // Write, then keep it only if it can still make the top `k`: no
        // branch on the score, whose outcome the CPU cannot predict.
        let key = rank_key(score);
        self.slots[self.len] = Slot { id, score, key };
        self.len += usize::from(key >= self.floor);
        if self.len == self.cap() {
            self.compact();
        }
    }

    /// Push one tile of candidates: `ids[e]` scored `scores[e]`, lanes past
    /// `ids.len()` are padding and never pushed. Keeps exactly what pushing
    /// the lanes one by one in order would keep: a lane ranking below the
    /// floor is one `push` would reject (the floor only rises), so only the
    /// lanes at or above it are pushed. While the floor is the initial key
    /// (or the `k`-th best is a NaN), every lane is at or above it; once it
    /// is a number, `score >= floor_score` is exactly `key >= floor` —
    /// `-0.0 == 0.0`, and a NaN compares false.
    #[inline]
    pub fn push_tile(&mut self, ids: &[u64], scores: &[f32; TILE_LANES]) {
        debug_assert!(ids.len() <= TILE_LANES, "push_tile: more ids than lanes");
        let valid = (1u32 << ids.len()) - 1;
        let mut live = if self.floor == 0 {
            valid
        } else {
            let mut above = 0u32;
            for (e, &s) in scores.iter().enumerate() {
                above |= u32::from(s >= self.floor_score) << e;
            }
            above & valid
        };
        while live != 0 {
            let e = live.trailing_zeros() as usize;
            live &= live - 1;
            self.push(ids[e], scores[e]);
        }
    }

    /// Double the slots (256 at first), never past the compaction point.
    #[cold]
    fn grow(&mut self) {
        let slots = (self.slots.len() * 2).max(256).min(self.cap());
        self.slots.resize(slots, Slot { id: 0, score: 0.0, key: 0 });
    }

    /// Keep the `k` best buffered candidates and raise the floor to the
    /// `k`-th one's key.
    #[inline(never)]
    fn compact(&mut self) {
        if self.len <= self.k {
            return;
        }
        if let Some(kth) = self.k.checked_sub(1) {
            self.slots[..self.len].select_nth_unstable_by(kth, rank_order);
            self.floor = self.slots[kth].key;
            self.floor_score = self.slots[kth].score;
        }
        self.len = self.k;
    }

    /// The top `k` pushed so far, sorted in the rank order.
    pub fn finish(mut self) -> Vec<(u64, f32)> {
        self.compact();
        let top = &mut self.slots[..self.len];
        top.sort_unstable_by(rank_order);
        top.iter().map(|s| (s.id, s.score)).collect()
    }

    /// The top `k` pushed so far in no particular order, for a caller that
    /// re-ranks them anyway (the quantized rerank).
    pub(crate) fn finish_unordered(mut self) -> impl Iterator<Item = (u64, f32)> {
        self.compact();
        self.slots.truncate(self.len);
        self.slots.into_iter().map(|s| (s.id, s.score))
    }
}

/// Top-`k` of a candidate list in the rank order: push everything, finish.
pub fn top_k_desc(scored: Vec<(u64, f32)>, k: usize) -> Vec<(u64, f32)> {
    let mut top = TopK::new(k);
    for (id, score) in scored {
        top.push(id, score);
    }
    top.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ids(v: &[(u64, f32)]) -> Vec<u64> {
        v.iter().map(|&(id, _)| id).collect()
    }

    #[test]
    fn selects_the_k_best_sorted_descending() {
        let scored = vec![(1, 0.5), (2, 2.0), (3, -1.0), (4, 1.5), (5, 0.0)];
        let got = top_k_desc(scored, 3);
        assert_eq!(ids(&got), vec![2, 4, 1]);
        for w in got.windows(2) {
            assert!(w[0].1 >= w[1].1, "not sorted: {got:?}");
        }
    }

    #[test]
    fn k_zero_and_empty_inputs() {
        assert!(top_k_desc(vec![(1, 1.0)], 0).is_empty());
        assert!(top_k_desc(Vec::new(), 5).is_empty());
    }

    #[test]
    fn k_at_least_len_returns_everything_sorted() {
        let scored = vec![(7, 0.1), (8, 0.9), (9, 0.5)];
        for k in [3usize, 4, 100] {
            let got = top_k_desc(scored.clone(), k);
            assert_eq!(ids(&got), vec![8, 9, 7], "k={k}");
        }
    }

    #[test]
    fn ties_break_by_id_whatever_the_candidate_order() {
        let scored = vec![(1, 1.0), (2, 1.0), (3, 1.0)];
        let reversed: Vec<(u64, f32)> = scored.iter().rev().copied().collect();
        assert_eq!(top_k_desc(scored.clone(), 1), vec![(1, 1.0)]);
        assert_eq!(top_k_desc(reversed, 1), vec![(1, 1.0)]);
        assert_eq!(ids(&top_k_desc(vec![(9, 1.0), (4, 2.0), (3, 1.0), (5, 1.0)], 3)), [4, 3, 5]);
    }

    #[test]
    fn nan_ranks_last() {
        let scored = vec![(1, f32::NAN), (2, f32::NEG_INFINITY), (3, 0.5)];
        assert_eq!(ids(&top_k_desc(scored.clone(), 3)), vec![3, 2, 1]);
        assert_eq!(ids(&top_k_desc(scored, 2)), vec![3, 2]);
    }

    #[test]
    fn streaming_past_many_compactions_matches_a_full_sort() {
        let scored: Vec<(u64, f32)> = (0..1000u64).map(|i| (i, ((i * 7919) % 61) as f32)).collect();
        let mut want = scored.clone();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        want.truncate(10);
        let mut top = TopK::new(10);
        for &(id, s) in &scored {
            top.push(id, s);
        }
        assert!(top.slots.len() <= 20, "the buffer must stay within 2k");
        assert_eq!(top.finish(), want);
    }

    fn bits(v: &[(u64, f32)]) -> Vec<(u64, u32)> {
        v.iter().map(|&(id, s)| (id, s.to_bits())).collect()
    }

    proptest! {
        /// `push_tile` over any tiling keeps exactly what pushing each
        /// candidate keeps. Scores come from a small set (ties everywhere)
        /// with NaN and both zeros; tiles carry 0 to 8 valid lanes, and the
        /// padding lanes carry +inf, which would win if it were pushed.
        #[test]
        fn push_tile_over_any_tiling_equals_pushing_each_candidate(
            picks in prop::collection::vec(0usize..6, 0..400),
            widths in prop::collection::vec(0usize..=TILE_LANES, 1..200),
            k in 0usize..40,
        ) {
            const SCORES: [f32; 6] = [-1.5, -0.0, 0.0, 0.25, 2.0, f32::NAN];
            let candidates: Vec<(u64, f32)> =
                picks.iter().enumerate().map(|(i, &p)| ((i as u64 * 7919) % 1009, SCORES[p])).collect();
            let mut each = TopK::new(k);
            for &(id, s) in &candidates {
                each.push(id, s);
            }
            let mut tiled = TopK::new(k);
            let mut widths = widths.into_iter().chain(std::iter::repeat(TILE_LANES));
            let mut rest = &candidates[..];
            while !rest.is_empty() {
                let n = widths.next().unwrap_or(TILE_LANES).min(rest.len());
                let (tile, tail) = rest.split_at(n);
                let mut scores = [f32::INFINITY; TILE_LANES];
                for (lane, &(_, s)) in scores.iter_mut().zip(tile) {
                    *lane = s;
                }
                let ids: Vec<u64> = tile.iter().map(|&(id, _)| id).collect();
                tiled.push_tile(&ids, &scores);
                rest = tail;
            }
            prop_assert_eq!(bits(&tiled.finish()), bits(&each.finish()));
        }
    }
}
