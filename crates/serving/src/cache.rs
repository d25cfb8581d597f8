//! Per-node neighbor caches.
//!
//! §VII-E: "we deploy caches for dynamically storing k last visited
//! neighbors for each user and query nodes, thus avoiding the overhead for
//! the aggregation operation. In our production deployment, k is set to 30."
//! The paper also updates its caches asynchronously. Here the request path
//! reads the cache and fills a miss inline, in the same batch: one
//! [`NeighborCache::get_many`] under the read lock, then one
//! [`NeighborCache::insert_many`] of the misses under the write lock. The
//! neighbors come from an immutable graph snapshot, so there is nothing to
//! refresh in the background, and which entries are resident never changes
//! an answer: a miss recomputes the same list.
//!
//! Eviction is a **second-chance CLOCK**. Each entry carries one reference
//! bit, set by a hit or an in-place replace and clear on a fresh install.
//! When an install finds the cache full, the hand clears set bits until it
//! reaches the first clear one and evicts that entry. After one lap every
//! bit is clear, so the hand stops within `len + 1` steps. A one-shot scan
//! therefore churns through its own fresh, unhit entries while a working
//! set that keeps being requested stays resident. Every newcomer is
//! admitted, and the cache is **capacity-bounded**: each install past
//! capacity evicts exactly one entry.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use zoomer_graph::NodeId;
use zoomer_obs::CacheStats;

/// One cached entry in the clock ring. The reference bit is atomic so a
/// hit can set it under the read lock.
struct Slot {
    node: NodeId,
    neighbors: Arc<Vec<NodeId>>,
    referenced: AtomicBool,
}

/// The locked interior: the clock ring the hand walks, and the map from
/// node to its ring index. Invariant: `map[ring[i].node] == i` for every
/// `i`, and the map holds no other key.
struct ClockState {
    map: HashMap<NodeId, usize>,
    ring: Vec<Slot>,
    hand: usize,
}

/// Thread-safe neighbor cache: node → up-to-`k` cached neighbor ids, at most
/// `capacity` entries (second-chance eviction beyond that).
pub struct NeighborCache {
    k: usize,
    capacity: usize,
    state: RwLock<ClockState>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl NeighborCache {
    /// Default entry bound: generous (a production cache holds millions of
    /// user/query entries) but finite, so an unconfigured cache still cannot
    /// grow without limit.
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// `k` neighbors per node (paper: 30), at most `capacity` entries
    /// (minimum 1).
    pub fn with_capacity(k: usize, capacity: usize) -> Self {
        Self {
            k,
            capacity: capacity.max(1),
            state: RwLock::new(ClockState { map: HashMap::new(), ring: Vec::new(), hand: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
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

    /// Acquire the state read lock, recovering from poisoning: a reader
    /// mutates nothing but reference bits, so the data is intact and later
    /// callers must keep being served rather than propagate the panic
    /// (zoomer-lint rule L003).
    fn read_state(&self) -> RwLockReadGuard<'_, ClockState> {
        self.state.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquire the state write lock, recovering from poisoning. Every write
    /// goes through [`Self::install_locked`], which completes its map/ring
    /// updates per entry, so a panicking holder between entries leaves a
    /// structurally sound state.
    fn write_state(&self) -> RwLockWriteGuard<'_, ClockState> {
        self.state.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Install `node → neighbors` under the held write lock, evicting one
    /// entry via the second-chance clock if the cache is full.
    fn install_locked(&self, state: &mut ClockState, node: NodeId, neighbors: Arc<Vec<NodeId>>) {
        let ClockState { map, ring, hand } = state;
        if let Some(&idx) = map.get(&node) {
            // Replace in place; the entry is demonstrably live, so it keeps
            // its second chance.
            ring[idx].neighbors = neighbors;
            ring[idx].referenced.store(true, Ordering::Relaxed);
            return;
        }
        let slot = Slot { node, neighbors, referenced: AtomicBool::new(false) };
        if ring.len() < self.capacity {
            map.insert(node, ring.len());
            ring.push(slot);
            return;
        }
        let idx = loop {
            let idx = *hand;
            *hand = (idx + 1) % ring.len();
            if !ring[idx].referenced.swap(false, Ordering::Relaxed) {
                break idx;
            }
        };
        map.remove(&ring[idx].node);
        map.insert(node, idx);
        ring[idx] = slot;
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Batched lookup under a single read lock: one `Option` per requested
    /// node, in order, and one hit or miss counted per node. A hit sets the
    /// entry's reference bit, shielding it from the next eviction sweep.
    pub fn get_many(&self, nodes: &[NodeId]) -> Vec<Option<Arc<Vec<NodeId>>>> {
        let state = self.read_state();
        let found: Vec<Option<Arc<Vec<NodeId>>>> = nodes
            .iter()
            .map(|n| {
                state.map.get(n).map(|&idx| {
                    let slot = &state.ring[idx];
                    slot.referenced.store(true, Ordering::Relaxed);
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

    /// Batched install under a single write lock (fills after a `get_many`
    /// miss sweep): each list truncated to `k`, returned in order. A node
    /// already resident is replaced in place.
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

    /// Installs refused at admission: always 0, because every newcomer is
    /// admitted. The benchmark still reads it as
    /// `cache.admissions_rejected`; it goes with that metric in a
    /// benchmark-maintenance change.
    pub fn admissions_rejected(&self) -> u64 {
        0
    }

    pub fn len(&self) -> usize {
        self.read_state().ring.len()
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

    /// One node through the batched read.
    fn lookup(cache: &NeighborCache, node: NodeId) -> Option<Arc<Vec<NodeId>>> {
        cache.get_many(&[node]).pop().flatten()
    }

    /// The request path's shape for one node: read, and on a miss install
    /// the computed list.
    fn read_through(
        cache: &NeighborCache,
        node: NodeId,
        compute: impl FnOnce() -> Vec<NodeId>,
    ) -> Arc<Vec<NodeId>> {
        match lookup(cache, node) {
            Some(hit) => hit,
            None => cache.insert_many(vec![(node, compute())]).pop().expect("one install"),
        }
    }

    fn default_sized(k: usize) -> NeighborCache {
        NeighborCache::with_capacity(k, NeighborCache::DEFAULT_CAPACITY)
    }

    #[test]
    fn miss_then_hit() {
        let cache = default_sized(30);
        assert!(lookup(&cache, 5).is_none());
        let v = read_through(&cache, 5, || vec![1, 2, 3]);
        assert_eq!(*v, vec![1, 2, 3]);
        assert_eq!(*lookup(&cache, 5).expect("now cached"), vec![1, 2, 3]);
        let s = cache.stats();
        // lookup miss + read-through miss + lookup hit
        assert_eq!((s.hits, s.misses), (1, 2));
    }

    #[test]
    fn truncates_to_k() {
        let cache = default_sized(3);
        cache.insert_many(vec![(1, (0..10).collect())]);
        assert_eq!(lookup(&cache, 1).expect("cached").len(), 3);
        let v = read_through(&cache, 2, || (0..10).collect());
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn get_many_counts_once_per_node() {
        let cache = default_sized(4);
        cache.insert_many(vec![(1, vec![10]), (3, vec![30])]);
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
        let cache = default_sized(2);
        let arcs = cache.insert_many(vec![(1, vec![1, 2, 3, 4]), (2, vec![5])]);
        assert_eq!(*arcs[0], vec![1, 2]);
        assert_eq!(*arcs[1], vec![5]);
        assert_eq!(*lookup(&cache, 1).expect("cached"), vec![1, 2]);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn hit_rate_tracks_queries() {
        let cache = default_sized(2);
        cache.insert_many(vec![(1, vec![9])]);
        for _ in 0..8 {
            let _ = lookup(&cache, 1);
        }
        let _ = lookup(&cache, 2); // miss
        assert!((cache.stats().hit_rate() - 8.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_bounds_len_under_churn() {
        let capacity = 16;
        let cache = NeighborCache::with_capacity(4, capacity);
        assert_eq!(cache.capacity(), capacity);
        for n in 0..500u32 {
            cache.insert_many(vec![(n, vec![n])]);
            assert!(
                cache.len() <= capacity,
                "len {} exceeds capacity after insert {n}",
                cache.len()
            );
        }
        assert_eq!(cache.len(), capacity);
        let s = cache.stats();
        assert_eq!(s.evictions, 500 - capacity as u64, "every insert past capacity evicts once");
        // The same accounting holds for a multi-entry install and a
        // read-through.
        cache.insert_many(vec![(1000, vec![1]), (1001, vec![2])]);
        let _ = read_through(&cache, 1002, || vec![3]);
        assert_eq!(cache.len(), capacity);
        assert_eq!(cache.stats().evictions, 503 - capacity as u64);
    }

    #[test]
    fn hot_entries_survive_churn() {
        let cache = NeighborCache::with_capacity(4, 8);
        cache.insert_many(vec![(999, vec![1, 2])]);
        assert!(lookup(&cache, 999).is_some());
        for n in 0..200u32 {
            cache.insert_many(vec![(n, vec![n])]);
            // The hot node keeps getting hit between insertions, re-arming
            // its second chance every time the clock hand clears it.
            assert!(
                lookup(&cache, 999).is_some(),
                "hot entry evicted after {} cold inserts",
                n + 1
            );
        }
        assert!(cache.len() <= 8);
        // A node never touched again did not survive the churn.
        assert!(lookup(&cache, 0).is_none());
    }

    #[test]
    fn replacing_an_existing_entry_never_evicts() {
        let cache = NeighborCache::with_capacity(4, 2);
        cache.insert_many(vec![(1, vec![1]), (2, vec![2])]);
        for _ in 0..10 {
            cache.insert_many(vec![(1, vec![7])]);
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 0, "in-place replacement is not an eviction");
        assert_eq!(*lookup(&cache, 1).expect("replaced"), vec![7]);
        assert_eq!(*lookup(&cache, 2).expect("untouched"), vec![2]);
    }

    #[test]
    fn hand_evicts_the_first_unreferenced_entry() {
        // Capacity 3 holding a b c with the hand on a. A hit on a sets its
        // bit, so installing d clears a and evicts b; the hand then rests
        // on c, unreferenced, so installing e evicts c.
        let (a, b, c, d, e) = (1, 2, 3, 4, 5);
        let cache = NeighborCache::with_capacity(4, 3);
        cache.insert_many(vec![(a, vec![a]), (b, vec![b]), (c, vec![c])]);
        assert!(lookup(&cache, a).is_some());
        cache.insert_many(vec![(d, vec![d])]);
        assert!(lookup(&cache, b).is_none(), "b is the first unreferenced entry");
        cache.insert_many(vec![(e, vec![e])]);
        assert!(lookup(&cache, c).is_none(), "c is under the hand, unreferenced");
        assert!(cache.get_many(&[a, d, e]).iter().all(Option::is_some));
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn poisoned_lock_does_not_wedge_subsequent_callers() {
        // A thread that panics while holding the state lock poisons a std
        // RwLock. The cache must recover (the map itself is never left
        // mid-mutation) instead of cascading that one panic into every
        // later request thread.
        let cache = Arc::new(default_sized(4));
        cache.insert_many(vec![(1, vec![9])]);
        let poisoner = Arc::clone(&cache);
        let panicked = std::thread::spawn(move || {
            poisoner.with_write_lock(|| {
                panic!("simulated request-thread panic while holding the cache lock")
            })
        })
        .join();
        assert!(panicked.is_err(), "poisoner thread must have panicked");
        // Batched reads and batched writes all still work.
        let found = cache.get_many(&[1, 2]);
        assert_eq!(**found[0].as_ref().expect("pre-poison entry survives"), vec![9]);
        assert!(found[1].is_none());
        cache.insert_many(vec![(2, vec![5, 6])]);
        assert_eq!(*lookup(&cache, 2).expect("insert after poison"), vec![5, 6]);
        cache.insert_many(vec![(3, vec![7])]);
        assert_eq!(*read_through(&cache, 4, || vec![8]), vec![8]);
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let cache = Arc::new(NeighborCache::with_capacity(4, 32));
        std::thread::scope(|scope| {
            let c = Arc::clone(&cache);
            scope.spawn(move || {
                for n in 0..500u32 {
                    c.insert_many(vec![(n % 50, vec![n])]);
                }
            });
            for _ in 0..4 {
                let c = Arc::clone(&cache);
                scope.spawn(move || {
                    for n in 0..500u32 {
                        let _ = c.get_many(&[n % 50]);
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
        // pinned: reference bits alone keep 8 hot entries, touched every 16
        // installs, resident through a 10 000-node scan of a 32-entry
        // cache, while the scan churns itself.
        let capacity = 32;
        let cache = NeighborCache::with_capacity(4, capacity);
        let hot: Vec<NodeId> = (1_000_000..1_000_008).collect();
        cache.insert_many(hot.iter().map(|&h| (h, vec![h])).collect());
        for n in 0..10_000u32 {
            let _ = read_through(&cache, n, || vec![n]);
            if n % 16 == 0 {
                for &h in &hot {
                    assert!(
                        lookup(&cache, h).is_some(),
                        "hot entry {h} evicted by the scan at {n}"
                    );
                }
            }
        }
        for &h in &hot {
            assert!(lookup(&cache, h).is_some(), "hot entry {h} lost after the scan");
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
        // set). Bursts look up the whole hot set and install one cold key,
        // which in a quiet phase sends the hand a full lap clearing bits.
        // The triple is the plain second-chance CLOCK's; two separately
        // written CLOCKs produced it.
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
        assert_eq!((s.hits, s.misses, s.evictions), (219_158, 52_303, 53_406));
    }
}
