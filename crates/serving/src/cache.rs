//! Per-node neighbor caches.
//!
//! §VII-E: "we deploy caches for dynamically storing k last visited
//! neighbors for each user and query nodes, thus avoiding the overhead for
//! the aggregation operation. In our production deployment, k is set to 30."
//! The paper also updates its caches asynchronously. Here the request path
//! reads the cache and fills a miss inline, in the same batch
//! (`get_many`, then `insert_many`): the neighbors come from an immutable
//! graph snapshot, so there is nothing to refresh in the background.
//!
//! Eviction is a **frequency-aware CLOCK**. Every entry carries a
//! degree-of-interest score
//!
//! ```text
//! DOI = 0.30·Recency + 0.20·Frequency
//! ```
//!
//! and the second-chance hand evicts the first unreferenced entry scoring
//! below [`DOI_EVICT_BELOW`] within two laps, else the entry under the
//! hand. A one-shot scan therefore churns through its own fresh, unhit
//! entries while a working set that keeps being requested stays resident.
//! Hit counters decay on a logical-tick schedule so yesterday's hot node
//! does not stay warm forever. Every newcomer is admitted, and the cache is
//! **capacity-bounded**: each install past capacity evicts exactly one
//! entry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use zoomer_graph::NodeId;
use zoomer_obs::CacheStats;

/// DOI weight on the recency term (`1 / (1 + ticks_since_last_touch)`).
pub const DOI_RECENCY_WEIGHT: f32 = 0.30;
/// DOI weight on the decayed hit-frequency term
/// (`ln(1 + hits) / ln(1 + max_hits)`).
pub const DOI_FREQUENCY_WEIGHT: f32 = 0.20;
/// An unreferenced entry scoring below this is evictable on the sweep's
/// first two laps.
pub const DOI_EVICT_BELOW: f32 = 0.30;

/// Hit counters (and the cache-wide max they normalize against) halve every
/// this many installs, so frequency reflects the recent request mix rather
/// than all-time totals.
const DOI_DECAY_PERIOD: u64 = 1024;

/// The degree-of-interest score of one cache entry, finite and in
/// `[0, 0.5]`.
///
/// This runs under the cache's locks on every eviction sweep, so it is
/// written panic-free by construction: saturating age arithmetic and a
/// guarded log normalizer (zoomer-lint L001 pins this — see
/// `crates/lint/tests/fixtures.rs`).
pub fn doi_score(now_tick: u64, last_touch_tick: u64, hits: u64, max_hits: u64) -> f32 {
    let age = now_tick.saturating_sub(last_touch_tick) as f32;
    let recency = 1.0 / (1.0 + age);
    let denom = (1.0 + max_hits.max(1) as f32).ln();
    let frequency = if denom > 0.0 { (1.0 + hits as f32).ln() / denom } else { 0.0 };
    DOI_RECENCY_WEIGHT * recency + DOI_FREQUENCY_WEIGHT * frequency.clamp(0.0, 1.0)
}

/// One cached entry: the neighbor list, the second-chance reference bit,
/// and the DOI inputs. Everything mutated on the read path (hits, touch
/// tick, the bit) is atomic precisely so readers can update it under the
/// read lock.
struct Slot {
    neighbors: Arc<Vec<NodeId>>,
    referenced: AtomicBool,
    /// Decayed hit counter (halved every [`DOI_DECAY_PERIOD`] installs).
    hits: AtomicU64,
    /// Logical install tick of the last touch (hit, install, or replace).
    last_touch: AtomicU64,
}

impl Slot {
    fn new(neighbors: Arc<Vec<NodeId>>, tick: u64) -> Self {
        Self {
            neighbors,
            referenced: AtomicBool::new(false),
            hits: AtomicU64::new(0),
            last_touch: AtomicU64::new(tick),
        }
    }

    fn score(&self, now_tick: u64, max_hits: u64) -> f32 {
        doi_score(
            now_tick,
            self.last_touch.load(Ordering::Relaxed),
            self.hits.load(Ordering::Relaxed),
            max_hits,
        )
    }
}

/// The locked interior: the entry map plus the clock ring the second-chance
/// hand walks. Invariant: `ring` holds exactly the keys of `map`, each once.
struct ClockState {
    map: HashMap<NodeId, Slot>,
    ring: Vec<NodeId>,
    hand: usize,
}

/// Thread-safe neighbor cache: node → up-to-`k` cached neighbor ids, at most
/// `capacity` entries (frequency-aware second-chance eviction beyond that).
pub struct NeighborCache {
    k: usize,
    capacity: usize,
    state: RwLock<ClockState>,
    /// Logical clock: advances once per fresh install; recency ages against
    /// it instead of wall time so behavior is deterministic under test.
    tick: AtomicU64,
    /// Cache-wide max decayed hit count — the frequency normalizer.
    max_hits: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    refreshes: AtomicU64,
    evictions: AtomicU64,
}

impl NeighborCache {
    /// Default entry bound: generous (a production cache holds millions of
    /// user/query entries) but finite, so an unconfigured cache still cannot
    /// grow without limit.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// `k` = neighbors cached per node (paper: 30), with the default
    /// capacity bound.
    pub fn new(k: usize) -> Self {
        Self::with_capacity(k, Self::DEFAULT_CAPACITY)
    }

    /// `k` neighbors per node, at most `capacity` entries (minimum 1).
    pub fn with_capacity(k: usize, capacity: usize) -> Self {
        Self {
            k,
            capacity: capacity.max(1),
            state: RwLock::new(ClockState { map: HashMap::new(), ring: Vec::new(), hand: 0 }),
            tick: AtomicU64::new(0),
            max_hits: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    pub fn k(&self) -> usize {
        self.k
    }

    /// The entry bound; `len() <= capacity()` always holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Acquire the state read lock, recovering from poisoning: a reader that
    /// panicked mid-`get` cannot have left the map partially mutated, so the
    /// data is intact and later callers must keep being served rather than
    /// propagate the panic (zoomer-lint rule L003).
    fn read_state(&self) -> RwLockReadGuard<'_, ClockState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the state write lock, recovering from poisoning. Every write
    /// below goes through [`Self::install_locked`], whose map/ring updates
    /// are completed per entry before anything can observe them — a
    /// panicking holder between entries leaves a structurally sound state.
    fn write_state(&self) -> RwLockWriteGuard<'_, ClockState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Record a touch on a resident slot (read path: under the read lock).
    fn touch(&self, slot: &Slot) {
        slot.referenced.store(true, Ordering::Relaxed);
        slot.last_touch.store(self.tick.load(Ordering::Relaxed), Ordering::Relaxed);
        let h = slot.hits.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_hits.fetch_max(h, Ordering::Relaxed);
    }

    /// Halve every decayed hit counter (and the normalizer) once per
    /// [`DOI_DECAY_PERIOD`] installs, so frequency tracks the recent mix.
    fn maybe_decay(&self, state: &mut ClockState, tick: u64) {
        if tick == 0 || !tick.is_multiple_of(DOI_DECAY_PERIOD) {
            return;
        }
        for slot in state.map.values() {
            let h = slot.hits.load(Ordering::Relaxed);
            slot.hits.store(h / 2, Ordering::Relaxed);
        }
        let m = self.max_hits.load(Ordering::Relaxed);
        self.max_hits.store(m / 2, Ordering::Relaxed);
    }

    /// Install `node → neighbors` under the held write lock, evicting one
    /// entry via the second-chance clock if the cache is full.
    fn install_locked(&self, state: &mut ClockState, node: NodeId, neighbors: Arc<Vec<NodeId>>) {
        if let Some(slot) = state.map.get_mut(&node) {
            // Replace in place; the entry is demonstrably live, so it keeps
            // its second chance and its hit history.
            slot.neighbors = neighbors;
            slot.referenced.store(true, Ordering::Relaxed);
            slot.last_touch.store(self.tick.load(Ordering::Relaxed), Ordering::Relaxed);
            return;
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        self.maybe_decay(state, tick);
        if state.ring.len() < self.capacity {
            state.ring.push(node);
            state.map.insert(node, Slot::new(neighbors, tick));
            return;
        }
        // Second-chance sweep. Up to two laps seek an unreferenced entry
        // scoring below `DOI_EVICT_BELOW` (after one lap every reference bit
        // is clear, so the second lap finds any such entry that exists).
        // When every resident scores at or above it, the entry under the
        // hand goes.
        let len = state.ring.len();
        let max_hits = self.max_hits.load(Ordering::Relaxed);
        let mut victim = None;
        for _ in 0..2 * len {
            let idx = state.hand % len;
            state.hand = (idx + 1) % len;
            let Some(slot) = state.map.get(&state.ring[idx]) else {
                // Invariant break (ring key missing from map): reuse the
                // slot rather than walk forever.
                victim = Some(idx);
                break;
            };
            let referenced = slot.referenced.swap(false, Ordering::Relaxed);
            if !referenced && slot.score(tick, max_hits) < DOI_EVICT_BELOW {
                victim = Some(idx);
                break;
            }
        }
        let idx = victim.unwrap_or_else(|| {
            let idx = state.hand % len;
            state.hand = (idx + 1) % len;
            idx
        });
        let evicted = state.ring[idx];
        state.map.remove(&evicted);
        state.ring[idx] = node;
        state.map.insert(node, Slot::new(neighbors, tick));
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Cached neighbors, or `None` on a miss. A hit sets the entry's
    /// reference bit and advances its DOI recency/frequency terms,
    /// shielding it from the next eviction sweep.
    pub fn get(&self, node: NodeId) -> Option<Arc<Vec<NodeId>>> {
        let state = self.read_state();
        let found = state.map.get(&node).map(|slot| {
            self.touch(slot);
            Arc::clone(&slot.neighbors)
        });
        drop(state);
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Read through: return cached neighbors or compute-and-insert inline.
    pub fn get_or_compute(
        &self,
        node: NodeId,
        compute: impl FnOnce() -> Vec<NodeId>,
    ) -> Arc<Vec<NodeId>> {
        if let Some(hit) = self.get(node) {
            return hit;
        }
        let mut fresh = compute();
        fresh.truncate(self.k);
        let arc = Arc::new(fresh);
        self.install_locked(&mut self.write_state(), node, Arc::clone(&arc));
        arc
    }

    /// Batched lookup under a single read lock: one `Option` per requested
    /// node, in order. Hit/miss counters advance once per node, matching a
    /// sequence of [`Self::get`] calls.
    pub fn get_many(&self, nodes: &[NodeId]) -> Vec<Option<Arc<Vec<NodeId>>>> {
        let state = self.read_state();
        let found: Vec<Option<Arc<Vec<NodeId>>>> = nodes
            .iter()
            .map(|n| {
                state.map.get(n).map(|slot| {
                    self.touch(slot);
                    Arc::clone(&slot.neighbors)
                })
            })
            .collect();
        drop(state);
        let hits = found.iter().filter(|f| f.is_some()).count() as u64;
        self.hits.fetch_add(hits, Ordering::Relaxed);
        self.misses.fetch_add(nodes.len() as u64 - hits, Ordering::Relaxed);
        found
    }

    /// Batched insert under a single write lock (fills after a `get_many`
    /// miss sweep). Entries are truncated to `k` like every other insert.
    pub fn insert_many(&self, entries: Vec<(NodeId, Vec<NodeId>)>) -> Vec<Arc<Vec<NodeId>>> {
        let arcs: Vec<(NodeId, Arc<Vec<NodeId>>)> = entries
            .into_iter()
            .map(|(n, mut v)| {
                v.truncate(self.k);
                (n, Arc::new(v))
            })
            .collect();
        let mut state = self.write_state();
        arcs.into_iter()
            .map(|(n, a)| {
                self.install_locked(&mut state, n, Arc::clone(&a));
                a
            })
            .collect()
    }

    /// Install or replace a node's cached neighbors (counts toward
    /// [`CacheStats::refreshes`]).
    pub fn put(&self, node: NodeId, mut neighbors: Vec<NodeId>) {
        neighbors.truncate(self.k);
        self.install_locked(&mut self.write_state(), node, Arc::new(neighbors));
        self.refreshes.fetch_add(1, Ordering::Relaxed);
    }

    /// Installs refused at admission: always 0, because every newcomer is
    /// admitted. The benchmark still reads it as
    /// `cache.admissions_rejected`; it goes with that metric in a
    /// benchmark-maintenance change.
    pub fn admissions_rejected(&self) -> u64 {
        0
    }

    pub fn len(&self) -> usize {
        self.read_state().map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time counters as a named [`CacheStats`] — the type the
    /// metrics registry ingests (`MetricsRegistry::ingest_cache`). Hit rate
    /// is derived there: `stats().hit_rate()`.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Test-only surface. `with_write_lock` runs caller-supplied code while
/// holding the cache's write lock — exactly the shape L007 bans from the
/// request path — and exists solely so the poisoned-lock scenario can
/// panic inside the critical section. Keeping it under `#[cfg(test)]`
/// makes it impossible for production code to reach.
#[cfg(test)]
impl NeighborCache {
    pub fn with_write_lock<R>(&self, f: impl FnOnce() -> R) -> R {
        let _guard = self.write_state();
        f()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let cache = NeighborCache::new(30);
        assert!(cache.get(5).is_none());
        let v = cache.get_or_compute(5, || vec![1, 2, 3]);
        assert_eq!(*v, vec![1, 2, 3]);
        assert_eq!(*cache.get(5).expect("now cached"), vec![1, 2, 3]);
        let s = cache.stats();
        // get miss + get_or_compute miss + get hit
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn truncates_to_k() {
        let cache = NeighborCache::new(3);
        cache.put(1, (0..10).collect());
        assert_eq!(cache.get(1).expect("cached").len(), 3);
        let v = cache.get_or_compute(2, || (0..10).collect());
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn get_many_counts_like_sequential_gets() {
        let cache = NeighborCache::new(4);
        cache.put(1, vec![10]);
        cache.put(3, vec![30]);
        let found = cache.get_many(&[1, 2, 3, 2]);
        assert_eq!(found.len(), 4);
        assert_eq!(**found[0].as_ref().expect("hit"), vec![10]);
        assert!(found[1].is_none());
        assert_eq!(**found[2].as_ref().expect("hit"), vec![30]);
        assert!(found[3].is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
    }

    #[test]
    fn insert_many_truncates_and_installs() {
        let cache = NeighborCache::new(2);
        let arcs = cache.insert_many(vec![(1, vec![1, 2, 3, 4]), (2, vec![5])]);
        assert_eq!(*arcs[0], vec![1, 2]);
        assert_eq!(*arcs[1], vec![5]);
        assert_eq!(*cache.get(1).expect("cached"), vec![1, 2]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hit_rate_tracks_queries() {
        let cache = NeighborCache::new(2);
        cache.put(1, vec![9]);
        for _ in 0..8 {
            let _ = cache.get(1);
        }
        let _ = cache.get(2); // miss
        assert!((cache.stats().hit_rate() - 8.0 / 9.0).abs() < 1e-9);
        assert_eq!(cache.stats().refreshes, 1, "put() is the refresh path");
    }

    #[test]
    fn capacity_bounds_len_under_churn() {
        let capacity = 16;
        let cache = NeighborCache::with_capacity(4, capacity);
        assert_eq!(cache.capacity(), capacity);
        for n in 0..500u32 {
            cache.put(n, vec![n]);
            assert!(
                cache.len() <= capacity,
                "len {} exceeds capacity after insert {n}",
                cache.len()
            );
        }
        assert_eq!(cache.len(), capacity);
        let s = cache.stats();
        assert_eq!(s.evictions, 500 - capacity as u64, "every insert past capacity evicts once");
        // The same accounting arrives through every insert path.
        cache.insert_many(vec![(1000, vec![1]), (1001, vec![2])]);
        let _ = cache.get_or_compute(1002, || vec![3]);
        assert_eq!(cache.len(), capacity);
        assert_eq!(cache.stats().evictions, 503 - capacity as u64);
    }

    #[test]
    fn hot_entries_survive_churn() {
        let cache = NeighborCache::with_capacity(4, 8);
        cache.put(999, vec![1, 2]);
        assert!(cache.get(999).is_some());
        for n in 0..200u32 {
            cache.put(n, vec![n]);
            // The hot node keeps getting hit between insertions, re-arming
            // its second chance every time the clock hand clears it.
            assert!(cache.get(999).is_some(), "hot entry evicted after {} cold inserts", n + 1);
        }
        assert!(cache.len() <= 8);
        // A node never touched again did not survive the churn.
        assert!(cache.get(0).is_none());
    }

    #[test]
    fn replacing_an_existing_entry_never_evicts() {
        let cache = NeighborCache::with_capacity(4, 2);
        cache.put(1, vec![1]);
        cache.put(2, vec![2]);
        for _ in 0..10 {
            cache.put(1, vec![7]);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0, "in-place replacement is not an eviction");
        assert_eq!(*cache.get(1).expect("replaced"), vec![7]);
        assert_eq!(*cache.get(2).expect("untouched"), vec![2]);
    }

    #[test]
    fn doi_score_orders_entries_sanely() {
        // A just-touched entry with the most hits scores the maximum, 0.5;
        // recency alone (no hits) reaches the eviction threshold only at
        // age zero.
        assert_eq!(doi_score(100, 100, 50, 50), 0.5);
        assert_eq!(doi_score(100, 100, 0, 50), DOI_EVICT_BELOW);
        // One tick of silence puts a hit-free entry below the threshold; a
        // well-hit one stays above it.
        assert!(doi_score(101, 100, 0, 50) < DOI_EVICT_BELOW);
        assert!(doi_score(101, 100, 50, 50) >= DOI_EVICT_BELOW);
        // Age strictly hurts; hits strictly help.
        assert!(doi_score(20, 10, 3, 9) < doi_score(11, 10, 3, 9));
        assert!(doi_score(11, 10, 4, 9) > doi_score(11, 10, 3, 9));
        // Degenerate inputs stay finite and in range (the scorer must be
        // panic-free and NaN-free under the cache locks).
        for score in [
            doi_score(0, u64::MAX, u64::MAX, 0),
            doi_score(u64::MAX, 0, 0, u64::MAX),
            doi_score(u64::MAX, u64::MAX, u64::MAX, u64::MAX),
        ] {
            assert!(score.is_finite() && (0.0..=0.5).contains(&score), "{score}");
        }
    }

    #[test]
    fn poisoned_lock_does_not_wedge_subsequent_callers() {
        // A thread that panics while holding the state lock poisons a std
        // RwLock. The cache must recover (the map itself is never left
        // mid-mutation) instead of cascading that one panic into every
        // later request thread.
        let cache = Arc::new(NeighborCache::new(4));
        cache.put(1, vec![9]);
        let poisoner = Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            poisoner.with_write_lock(|| {
                panic!("simulated request-thread panic while holding the cache lock")
            })
        })
        .join();
        assert!(panicked.is_err(), "poisoner thread must have panicked");
        // Reads, batched reads, writes and batched writes all still work.
        let found = cache.get_many(&[1, 2]);
        assert_eq!(**found[0].as_ref().expect("pre-poison entry survives"), vec![9]);
        assert!(found[1].is_none());
        cache.insert_many(vec![(2, vec![5, 6])]);
        assert_eq!(*cache.get(2).expect("insert after poison"), vec![5, 6]);
        cache.put(3, vec![7]);
        assert_eq!(*cache.get_or_compute(4, || vec![8]), vec![8]);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let cache = Arc::new(NeighborCache::with_capacity(4, 32));
        std::thread::scope(|scope| {
            let c = Arc::clone(&cache);
            scope.spawn(move || {
                for n in 0..500u32 {
                    c.put(n % 50, vec![n]);
                }
            });
            for _ in 0..4 {
                let c = Arc::clone(&cache);
                scope.spawn(move || {
                    for n in 0..500u32 {
                        let _ = c.get(n % 50);
                    }
                });
            }
        });
        assert!(cache.len() <= 32, "capacity bound must hold under concurrency");
    }

    #[test]
    fn adversarial_miss_stream_does_not_evict_the_hot_set() {
        // A one-shot scan (every request a distinct never-again node) must
        // not flush a working set that keeps being requested. Nothing is
        // pinned: hits and reference bits alone keep 8 hot entries, touched
        // every 16 installs, resident through a 10 000-node scan of a
        // 32-entry cache, while the scan churns itself.
        let capacity = 32;
        let cache = NeighborCache::with_capacity(4, capacity);
        let hot: Vec<NodeId> = (1_000_000..1_000_008).collect();
        for &h in &hot {
            cache.put(h, vec![h]);
        }
        for n in 0..10_000u32 {
            let _ = cache.get_or_compute(n, || vec![n]);
            if n % 16 == 0 {
                for &h in &hot {
                    assert!(cache.get(h).is_some(), "hot entry {h} evicted by the scan at {n}");
                }
            }
        }
        for &h in &hot {
            assert!(cache.get(h).is_some(), "hot entry {h} lost after the scan");
        }
        assert_eq!(cache.len(), capacity);
        assert_eq!(cache.stats().evictions, 8 + 10_000 - capacity as u64);
    }

    #[test]
    fn golden_trace_pins_hits_misses_and_evictions() {
        // A fixed splitmix64 stream of 50 000 `get_many` / `insert_many`
        // calls against a 64-entry cache, shaped like the serving path: a
        // frame is looked up, then its misses are installed. Churn phases
        // (frames of 1-8 keys, most of them cold, plus bare cold installs)
        // alternate with quiet phases (frames of 16 keys from the 64-key hot
        // set). Bursts look up the whole hot set and install one cold key;
        // in a quiet phase that finds every resident at or above the 0.30
        // threshold, so the sweep takes the entry under the hand. The
        // installs cross 52 of the 1024-install decays. The triple was
        // recorded at the parent of the change that collapsed the DOI tiers
        // to one threshold, where this test passes as written.
        let cache = NeighborCache::with_capacity(4, 64);
        let mut state = 0x2545_F491_4F6C_DD1D_u64;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let cold = |x: u64| 1_000 + (x % 100_000) as NodeId;
        let mut calls = 0u32;
        let mut step = 0u32;
        while calls < 50_000 {
            let r = next();
            let quiet = (step / 2_500).is_multiple_of(2);
            step += 1;
            let (frame, extra): (Vec<NodeId>, u64) = if r % if quiet { 512 } else { 64 } == 0 {
                ((0..64).collect(), 1)
            } else if !quiet && r % 16 == 0 {
                (Vec::new(), 1 + (r >> 16) % 3)
            } else {
                let (len, cold_in_64) = if quiet { (16, 0) } else { (1 + (r >> 8) % 8, 40) };
                let frame = (0..len)
                    .map(|_| {
                        let x = next();
                        if x % 64 < cold_in_64 {
                            cold(x >> 8)
                        } else {
                            ((x >> 8) % 64) as NodeId
                        }
                    })
                    .collect();
                (frame, 0)
            };
            let mut installs: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
            if !frame.is_empty() {
                let found = cache.get_many(&frame);
                calls += 1;
                installs.extend(
                    frame
                        .iter()
                        .zip(&found)
                        .filter(|(_, f)| f.is_none())
                        .map(|(&k, _)| (k, vec![k])),
                );
            }
            installs.extend((0..extra).map(|_| {
                let k = cold(next());
                (k, vec![k])
            }));
            cache.insert_many(installs);
            calls += 1;
        }
        let s = cache.stats();
        assert_eq!(cache.len(), 64);
        assert_eq!((s.hits, s.misses, s.evictions), (219_148, 52_313, 53_416));
    }
}
