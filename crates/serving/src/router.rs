//! Router-side policy for the scatter-gather tier: merging per-shard
//! top-k lists and weighted-fair tenant admission at the front door.
//!
//! The merge is deliberately tiny — concatenate each query's per-shard
//! scored lists and reduce through the same [`crate::topk::top_k_desc`]
//! every backend ranks with. Its order is total (score descending, then id
//! ascending), so the merged top-k is the un-sharded top-k even when
//! candidates tie across shards, and at N=1 the merge of one sorted ≤k list
//! is the identity: bit-identical results, pinned by the
//! `sharded_equivalence` suite.
//!
//! Tenant fairness extends PR 5's shed queue with *per-tenant* accounting:
//! capacity is split evenly across the tenants active in the current
//! accounting window, so one noisy tenant exhausts only its own share and
//! is shed (`serve.tenant.shed`) while well-behaved tenants keep their
//! full allocation.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use parking_lot::Mutex;
use zoomer_obs::{Counter, MetricsRegistry};

use crate::server::ScoredRetrieval;
use crate::topk::top_k_desc;

/// Merge one query's per-shard scored lists into the global top-`k`.
///
/// `per_shard` holds each *replying* shard's answer for this query (lost
/// shards are simply absent); `degraded_merge` forces the degraded flag on
/// (the router sets it when any shard reply was lost, because the merged
/// list may be missing that shard's candidates).
pub(crate) fn merge_query(
    per_shard: Vec<ScoredRetrieval>,
    k: usize,
    degraded_merge: bool,
) -> ScoredRetrieval {
    let mut degraded = degraded_merge;
    let mut merged: Vec<(u64, f32)> = Vec::new();
    for shard in per_shard {
        degraded |= shard.degraded;
        merged.extend(shard.items);
    }
    ScoredRetrieval { items: top_k_desc(merged, k), degraded }
}

/// Weighted-fair per-tenant admission for the TCP front door.
///
/// Accounting runs in windows of `window` arrivals. Within a window each
/// tenant may have at most `capacity / active_tenants` requests admitted
/// (at least 1), where `active_tenants` counts the distinct tenants seen
/// *this window* — so shares re-expand automatically when a tenant goes
/// quiet. A request over its tenant's share is shed at the door
/// (`serve.tenant.shed`) before any embedding or probe work is spent on
/// it; admissions count `serve.tenant.admitted`.
///
/// The state is one small map behind a mutex taken for a few arithmetic
/// ops per request — nothing blocks under the guard (rule L007) and no
/// second lock is ever taken (rule L006).
pub struct TenantFairGate {
    capacity: u64,
    window: u64,
    state: Mutex<GateWindow>,
    admitted: Counter,
    shed: Counter,
}

struct GateWindow {
    arrivals: u64,
    admitted: BTreeMap<u32, u64>,
    seen: BTreeSet<u32>,
}

impl TenantFairGate {
    /// A gate admitting at most `capacity` requests per accounting window
    /// of `capacity` arrivals, split evenly across active tenants.
    /// `capacity == 0` disables shedding (every request admitted) — the
    /// single-tenant dev-loop default.
    pub fn new(capacity: usize, registry: &Arc<MetricsRegistry>) -> Self {
        Self {
            capacity: capacity as u64,
            window: (capacity as u64).max(1),
            state: Mutex::new(GateWindow {
                arrivals: 0,
                admitted: BTreeMap::new(),
                seen: BTreeSet::new(),
            }),
            admitted: registry.counter("serve.tenant.admitted"),
            shed: registry.counter("serve.tenant.shed"),
        }
    }

    /// Admit or shed one request from `tenant`. Never blocks beyond the
    /// gate's own mutex.
    pub fn admit(&self, tenant: u32) -> bool {
        if self.capacity == 0 {
            self.admitted.inc();
            return true;
        }
        let ok = {
            let mut w = self.state.lock();
            if w.arrivals >= self.window {
                w.arrivals = 0;
                w.admitted.clear();
                w.seen.clear();
            }
            w.arrivals += 1;
            w.seen.insert(tenant);
            let share = (self.capacity / w.seen.len() as u64).max(1);
            let used = w.admitted.entry(tenant).or_insert(0);
            if *used < share {
                *used += 1;
                true
            } else {
                false
            }
        };
        if ok {
            self.admitted.inc();
        } else {
            self.shed.inc();
        }
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gate(capacity: usize) -> (TenantFairGate, Arc<MetricsRegistry>) {
        let registry = Arc::new(MetricsRegistry::new());
        registry.set_enabled(true);
        (TenantFairGate::new(capacity, &registry), registry)
    }

    #[test]
    fn merge_of_one_sorted_list_is_identity() {
        let shard = ScoredRetrieval { items: vec![(9, 3.0), (4, 2.0), (7, 1.0)], degraded: false };
        let merged = merge_query(vec![shard.clone()], 3, false);
        assert_eq!(merged, shard);
    }

    #[test]
    fn merge_interleaves_shards_by_score() {
        let a = ScoredRetrieval { items: vec![(1, 5.0), (2, 1.0)], degraded: false };
        let b = ScoredRetrieval { items: vec![(3, 4.0), (4, 2.0)], degraded: false };
        let merged = merge_query(vec![a, b], 3, false);
        assert_eq!(merged.items, vec![(1, 5.0), (3, 4.0), (4, 2.0)]);
        assert!(!merged.degraded);
    }

    #[test]
    fn merge_propagates_and_forces_degraded() {
        let a = ScoredRetrieval { items: vec![(1, 1.0)], degraded: true };
        assert!(merge_query(vec![a.clone()], 1, false).degraded);
        let b = ScoredRetrieval { items: vec![(2, 2.0)], degraded: false };
        assert!(merge_query(vec![b], 1, true).degraded, "lost shard must mark degraded");
    }

    #[test]
    fn zero_capacity_gate_admits_everything() {
        let (g, _r) = gate(0);
        for t in 0..50 {
            assert!(g.admit(t % 3));
        }
    }

    #[test]
    fn single_tenant_gets_the_whole_window() {
        let (g, _r) = gate(10);
        let admitted = (0..10).filter(|_| g.admit(7)).count();
        assert_eq!(admitted, 10, "alone, a tenant owns the full capacity");
    }

    #[test]
    fn noisy_tenant_cannot_starve_a_fair_one() {
        let (g, _r) = gate(100);
        // Interleave: tenant 1 offers 5× its fair share, tenant 2 stays
        // within its share (50 of 100). Across windows tenant 2 must keep
        // essentially all of its admissions.
        let mut fair_admitted = 0u32;
        let mut fair_offered = 0u32;
        for round in 0..1_000u32 {
            // 5 noisy arrivals per fair arrival ≈ 5× share vs 0.5× share.
            for _ in 0..5 {
                let _ = g.admit(1);
            }
            if round % 2 == 0 {
                fair_offered += 1;
                if g.admit(2) {
                    fair_admitted += 1;
                }
            }
        }
        let shed_rate = 1.0 - f64::from(fair_admitted) / f64::from(fair_offered);
        assert!(
            shed_rate < 0.05,
            "well-behaved tenant shed {:.1}% (admitted {fair_admitted}/{fair_offered})",
            shed_rate * 100.0
        );
    }

    #[test]
    fn gate_counts_into_the_registry() {
        let (g, r) = gate(4);
        // With two active tenants the share is 4 / 2 = 2: tenant 1's third
        // request in each 4-arrival window must shed, every window.
        for _ in 0..3 {
            assert!(g.admit(2));
            assert!(g.admit(1));
            assert!(g.admit(1));
            assert!(!g.admit(1), "over-share request must shed");
        }
        let snap = r.snapshot();
        let count = |name: &str| snap.counter(name).unwrap_or(0);
        assert_eq!(count("serve.tenant.admitted"), 9);
        assert_eq!(count("serve.tenant.shed"), 3);
    }
}
