//! Sharded, replicated graph store — the distributed-deployment simulation.
//!
//! §VI: "a graph is partitioned into multiple shards for higher storage
//! capacity, and each shard is replicated onto multiple servers for higher
//! aggregate throughput." Here a shard is a node-id partition of one shared
//! immutable [`HeteroGraph`] behind an `Arc`; replicas are logical servers
//! that track per-replica request counts so load-balancing behaviour can be
//! observed in tests and benches. Sampling requests are routed by node id to
//! a shard, then to its least-loaded replica.
//!
//! Concurrency contract (enforced by zoomer-lint's cross-file pass): the
//! routing path is lock-free. Shard lookup is pure arithmetic over an
//! immutable `Arc<HeteroGraph>`, and replica selection is a relaxed scan
//! of per-replica `AtomicU64` counters — no `Mutex`/`RwLock` anywhere in
//! this module, so L006 (lock ordering) and L007 (blocking under a guard)
//! have nothing to latch onto. Keep it that way: the serving crate's
//! `OnlineServer` multiplies this surface across N shards, so any lock
//! added here becomes N-way scatter-gather lock traffic on the request
//! path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::types::{EdgeType, HeteroGraph, NodeId};

/// Sharding parameters.
#[derive(Clone, Copy, Debug)]
pub struct ShardingConfig {
    /// Node-id partitions: graph shards here, item-pool shards in serving.
    pub num_shards: usize,
    /// Logical replicas of every shard in a [`ShardedGraph`]. In the
    /// serving crate's `OnlineServer`: worker threads for each shard after
    /// shard 0, which ranks on the calling thread instead.
    pub replicas_per_shard: usize,
}

impl Default for ShardingConfig {
    fn default() -> Self {
        Self { num_shards: 4, replicas_per_shard: 2 }
    }
}

impl ShardingConfig {
    /// Degenerate single-shard, single-replica layout — what a process that
    /// has not opted into sharding runs with.
    pub fn single() -> Self {
        Self { num_shards: 1, replicas_per_shard: 1 }
    }
}

/// Shard owning node `n` under an `num_shards`-way hash partition.
///
/// Fibonacci hashing spreads consecutive ids across shards. This is the one
/// routing function the whole system shares: [`ShardedGraph::shard_of`]
/// delegates here, and the serving-side `OnlineServer` partitions its item
/// pool with the same arithmetic so graph storage and retrieval agree on
/// ownership.
#[inline]
pub fn shard_of_node(n: NodeId, num_shards: usize) -> usize {
    ((n as u64).wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % num_shards
}

struct Replica {
    served: AtomicU64,
}

struct Shard {
    replicas: Vec<Replica>,
}

/// A sharded view over an immutable heterogeneous graph.
///
/// Cloning is cheap (`Arc`); all methods are `&self` and thread-safe, which
/// is what lets the trainer's worker pool and the serving router hit the
/// "cluster" concurrently.
pub struct ShardedGraph {
    graph: Arc<HeteroGraph>,
    shards: Arc<Vec<Shard>>,
    config: ShardingConfig,
}

impl Clone for ShardedGraph {
    fn clone(&self) -> Self {
        Self {
            graph: Arc::clone(&self.graph),
            shards: Arc::clone(&self.shards),
            config: self.config,
        }
    }
}

impl ShardedGraph {
    pub fn new(graph: HeteroGraph, config: ShardingConfig) -> Self {
        assert!(config.num_shards > 0, "need at least one shard");
        assert!(config.replicas_per_shard > 0, "need at least one replica");
        let shards = (0..config.num_shards)
            .map(|_| Shard {
                replicas: (0..config.replicas_per_shard)
                    .map(|_| Replica { served: AtomicU64::new(0) })
                    .collect(),
            })
            .collect();
        Self { graph: Arc::new(graph), shards: Arc::new(shards), config }
    }

    /// The underlying graph (single-machine escape hatch; samplers use it
    /// directly when distribution is irrelevant to the experiment).
    pub fn graph(&self) -> &HeteroGraph {
        &self.graph
    }

    pub fn config(&self) -> ShardingConfig {
        self.config
    }

    /// Shard owning node `n` (hash routing, as a real deployment would).
    pub fn shard_of(&self, n: NodeId) -> usize {
        shard_of_node(n, self.config.num_shards)
    }

    fn pick_replica(&self, shard: usize) -> usize {
        // Least-loaded replica; ties broken by index.
        let replicas = &self.shards[shard].replicas;
        let mut best = 0usize;
        let mut best_load = u64::MAX;
        for (i, r) in replicas.iter().enumerate() {
            let load = r.served.load(Ordering::Relaxed);
            if load < best_load {
                best_load = load;
                best = i;
            }
        }
        best
    }

    /// Routed neighbor fetch: accounts the request to a replica of the
    /// owning shard and returns the neighbor view.
    pub fn neighbors(&self, n: NodeId, et: EdgeType) -> (&[NodeId], &[f32]) {
        let shard = self.shard_of(n);
        let replica = self.pick_replica(shard);
        self.shards[shard].replicas[replica].served.fetch_add(1, Ordering::Relaxed);
        self.graph.neighbors(n, et)
    }

    /// Routed O(1) weighted neighbor sample.
    pub fn sample_neighbor(
        &self,
        n: NodeId,
        et: EdgeType,
        rng: &mut impl rand::Rng,
    ) -> Option<NodeId> {
        let shard = self.shard_of(n);
        let replica = self.pick_replica(shard);
        self.shards[shard].replicas[replica].served.fetch_add(1, Ordering::Relaxed);
        self.graph.sample_neighbor(n, et, rng)
    }

    /// Requests served per replica, indexed `[shard][replica]`.
    pub fn load_report(&self) -> Vec<Vec<u64>> {
        self.shards
            .iter()
            .map(|s| s.replicas.iter().map(|r| r.served.load(Ordering::Relaxed)).collect())
            .collect()
    }

    /// Total requests served across the cluster.
    pub fn total_served(&self) -> u64 {
        self.load_report().iter().flatten().sum()
    }

    /// Number of nodes owned by each shard (storage balance check).
    pub fn shard_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.config.num_shards];
        for n in 0..self.graph.num_nodes() {
            sizes[self.shard_of(n as NodeId)] += 1;
        }
        sizes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;
    use crate::types::NodeType;

    fn chain_graph(n: usize) -> HeteroGraph {
        let mut b = GraphBuilder::new(2);
        for _ in 0..n {
            b.add_node(NodeType::Item, vec![], vec![], &[0.0, 0.0]);
        }
        for i in 0..n.saturating_sub(1) {
            b.add_undirected_edge(i as NodeId, (i + 1) as NodeId, EdgeType::Session, 1.0);
        }
        b.finish()
    }

    #[test]
    fn routing_is_stable() {
        let sg = ShardedGraph::new(chain_graph(100), ShardingConfig::default());
        for n in 0..100 {
            assert_eq!(sg.shard_of(n), sg.shard_of(n));
            assert!(sg.shard_of(n) < 4);
        }
    }

    #[test]
    fn shards_are_roughly_balanced() {
        let sg = ShardedGraph::new(
            chain_graph(10_000),
            ShardingConfig { num_shards: 8, replicas_per_shard: 1 },
        );
        let sizes = sg.shard_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 10_000);
        for &s in &sizes {
            // Each shard should hold 1250 ± 30%.
            assert!((875..=1625).contains(&s), "unbalanced shards: {sizes:?}");
        }
    }

    #[test]
    fn replicas_share_load() {
        let sg = ShardedGraph::new(
            chain_graph(64),
            ShardingConfig { num_shards: 1, replicas_per_shard: 3 },
        );
        for _ in 0..999 {
            let _ = sg.neighbors(5, EdgeType::Session);
        }
        let loads = &sg.load_report()[0];
        assert_eq!(loads.iter().sum::<u64>(), 999);
        for &l in loads {
            assert!((300..=340).contains(&l), "replica loads {loads:?}");
        }
    }

    #[test]
    fn routed_results_match_direct_access() {
        let sg = ShardedGraph::new(chain_graph(10), ShardingConfig::default());
        let (routed, _) = sg.neighbors(4, EdgeType::Session);
        let (direct, _) = sg.graph().neighbors(4, EdgeType::Session);
        assert_eq!(routed, direct);
    }

    #[test]
    fn free_function_matches_method_routing() {
        let sg = ShardedGraph::new(chain_graph(64), ShardingConfig::default());
        for n in 0..64 {
            assert_eq!(sg.shard_of(n), shard_of_node(n, sg.config().num_shards));
        }
        // num_shards = 1 degenerates to shard 0 for every node.
        for n in [0u32, 1, 17, u32::MAX] {
            assert_eq!(shard_of_node(n, 1), 0);
        }
    }

    /// Pins least-loaded replica selection under *concurrent* relaxed
    /// counter updates. Relaxed loads may observe stale counts, so two
    /// threads can momentarily pick the same replica — that is the accepted
    /// slack of the lock-free design, not an error. What must hold even
    /// under that slack: every request lands on some replica (none lost),
    /// and no replica is starved or hot-spotted beyond the bound a
    /// stale-by-one-scan selector can produce. A mutex-guarded selector
    /// would make the split exact; this test documents (and bounds) the
    /// imprecision we trade for keeping the routing path lock-free.
    #[test]
    fn concurrent_least_loaded_routing_stays_balanced() {
        let sg = ShardedGraph::new(
            chain_graph(64),
            ShardingConfig { num_shards: 1, replicas_per_shard: 4 },
        );
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 2_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let sg = sg.clone();
                scope.spawn(move || {
                    for n in 0..PER_THREAD {
                        let _ = sg.neighbors((n % 64) as NodeId, EdgeType::Session);
                    }
                });
            }
        });
        let loads = sg.load_report()[0].clone();
        let total: u64 = loads.iter().sum();
        assert_eq!(total, THREADS * PER_THREAD, "requests lost under concurrency: {loads:?}");
        // Least-loaded selection with stale relaxed reads still converges:
        // each replica sees fair share ± the worst-case staleness window
        // (every thread mid-scan on the same stale minimum). Fair share is
        // 4000; allow ±25%.
        let fair = total / loads.len() as u64;
        for &l in &loads {
            assert!(
                l >= fair * 3 / 4 && l <= fair * 5 / 4,
                "replica starved or hot-spotted beyond lock-free slack: {loads:?}"
            );
        }
    }

    #[test]
    fn concurrent_access_counts_every_request() {
        let sg = ShardedGraph::new(chain_graph(100), ShardingConfig::default());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let sg = sg.clone();
                scope.spawn(move || {
                    for n in 0..100u32 {
                        let _ = sg.neighbors(n, EdgeType::Session);
                    }
                });
            }
        });
        assert_eq!(sg.total_served(), 400);
    }
}
