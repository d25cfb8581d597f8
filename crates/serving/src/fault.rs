//! Deterministic fault injection for the serving stack.
//!
//! Overload behavior — shedding, degraded modes, lost shard replies — must
//! be tested on purpose, not discovered by accident in production. A
//! [`FaultInjector`] fires at fixed sites on the request path (stage
//! boundaries in `handle_batch`, ANN probe rounds, shard replies) on a
//! **seed-derived arithmetic schedule**: rule `every = p` with seed `s`
//! fires on calls where `(n + phase(s)) % p == 0`, `n` counting that site's
//! calls. Same seed ⇒ same phases ⇒ the same injected schedule and the same
//! counters, every run.
//!
//! Two fault kinds:
//! - **Delay**: sleep for a fixed duration at the site (latency spike).
//! - **Action**: run an arbitrary caller-supplied closure. Tests use this
//!   for compute panics and poisoned-lock scenarios — the panic lives in
//!   test code, keeping this crate's non-test code panic-free (rule L001).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Where on the serving path a fault can fire.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Before the batch's cache resolve stage.
    CacheResolve,
    /// Before the batch's embedding stage.
    Embed,
    /// Before the batch's ANN probe stage.
    AnnProbe,
    /// At the start of each round of a deadline-bounded backend probe.
    AnnRound,
    /// In a scatter-gather shard worker, after the shard has ranked its
    /// partition but before the reply is sent back to the router. A
    /// `Delay` here holds the reply past the router's gather timeout
    /// (simulating shard-reply loss); an injected panic turns the reply
    /// into a `WorkerPanicked` error the router must merge around.
    ShardReply,
}

impl FaultSite {
    const COUNT: usize = 5;

    fn index(self) -> usize {
        match self {
            FaultSite::CacheResolve => 0,
            FaultSite::Embed => 1,
            FaultSite::AnnProbe => 2,
            FaultSite::AnnRound => 3,
            FaultSite::ShardReply => 4,
        }
    }
}

/// What happens when a rule fires.
#[derive(Clone)]
enum FaultKind {
    Delay(Duration),
    Action(Arc<dyn Fn() + Send + Sync>),
}

#[derive(Clone)]
struct FaultRule {
    site: FaultSite,
    /// Fire every `period`-th call at the site…
    period: u64,
    /// …offset by this seed-derived phase.
    phase: u64,
    kind: FaultKind,
}

/// Builder for a [`FaultInjector`]: a seed plus a list of rules. The seed
/// fixes each rule's phase, so two plans built from the same seed and rules
/// inject identical schedules.
pub struct FaultPlan {
    seed: u64,
    rules: Vec<(FaultSite, u64, FaultKind)>,
}

impl FaultPlan {
    pub fn new(seed: u64) -> Self {
        Self { seed, rules: Vec::new() }
    }

    /// Inject a latency spike of `delay` every `every`-th call at `site`.
    pub fn delay(mut self, site: FaultSite, every: u64, delay: Duration) -> Self {
        self.rules.push((site, every.max(1), FaultKind::Delay(delay)));
        self
    }

    /// Run `action` every `every`-th call at `site`. The closure may panic —
    /// that is the point: panics are injected from the caller's (test) code,
    /// never manufactured here.
    pub fn action(
        mut self,
        site: FaultSite,
        every: u64,
        action: impl Fn() + Send + Sync + 'static,
    ) -> Self {
        self.rules.push((site, every.max(1), FaultKind::Action(Arc::new(action))));
        self
    }

    pub fn build(self) -> FaultInjector {
        let seed = self.seed;
        let rules = self
            .rules
            .into_iter()
            .enumerate()
            .map(|(i, (site, period, kind))| FaultRule {
                site,
                period,
                phase: splitmix64(seed ^ (i as u64).wrapping_mul(0x9e3779b97f4a7c15)) % period,
                kind,
            })
            .collect();
        FaultInjector {
            rules,
            calls: std::array::from_fn(|_| AtomicU64::new(0)),
            injected: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// The armed injector. Shared by the server (`Arc`); every
/// [`FaultInjector::fire`] advances that site's call counter and runs the
/// rules whose schedule matches.
pub struct FaultInjector {
    rules: Vec<FaultRule>,
    calls: [AtomicU64; FaultSite::COUNT],
    injected: [AtomicU64; FaultSite::COUNT],
}

/// Pass through `site` on a stage's optional injector. Servers built without
/// one (production) pay a single `Option` check per stage.
#[inline]
pub(crate) fn fire(fault: &Option<Arc<FaultInjector>>, site: FaultSite) {
    if let Some(f) = fault {
        f.fire(site);
    }
}

impl FaultInjector {
    /// Record one pass through `site` and run any scheduled faults. Called
    /// by the server at stage boundaries; a site with no matching rules
    /// costs one relaxed `fetch_add`.
    pub fn fire(&self, site: FaultSite) {
        let n = self.calls[site.index()].fetch_add(1, Ordering::Relaxed);
        for rule in self.rules.iter().filter(|r| r.site == site) {
            if (n + rule.phase).is_multiple_of(rule.period) {
                self.injected[site.index()].fetch_add(1, Ordering::Relaxed);
                match &rule.kind {
                    FaultKind::Delay(d) => std::thread::sleep(*d),
                    FaultKind::Action(f) => f(),
                }
            }
        }
    }

    /// How many times `site` has been passed through.
    pub fn calls(&self, site: FaultSite) -> u64 {
        self.calls[site.index()].load(Ordering::Relaxed)
    }

    /// How many faults have fired at `site`.
    pub fn injected(&self, site: FaultSite) -> u64 {
        self.injected[site.index()].load(Ordering::Relaxed)
    }

    /// Total faults fired across every site.
    pub fn injected_total(&self) -> u64 {
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }
}

/// SplitMix64: a tiny, well-mixed integer hash (public-domain constants) —
/// turns (seed, rule index) into a schedule phase.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fired_schedule(seed: u64, calls: u64) -> Vec<u64> {
        let fired = Arc::new(AtomicU64::new(0));
        let injector = {
            let fired = Arc::clone(&fired);
            FaultPlan::new(seed)
                .action(FaultSite::AnnProbe, 3, move || {
                    fired.fetch_add(1, Ordering::Relaxed);
                })
                .build()
        };
        let mut out = Vec::new();
        for n in 0..calls {
            let before = fired.load(Ordering::Relaxed);
            injector.fire(FaultSite::AnnProbe);
            if fired.load(Ordering::Relaxed) > before {
                out.push(n);
            }
        }
        assert_eq!(injector.calls(FaultSite::AnnProbe), calls);
        assert_eq!(injector.injected(FaultSite::AnnProbe), out.len() as u64);
        out
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = fired_schedule(7, 30);
        let b = fired_schedule(7, 30);
        assert_eq!(a, b, "same seed must inject the same schedule");
        assert_eq!(a.len(), 10, "period 3 fires on exactly a third of 30 calls");
        // Consecutive firings are exactly one period apart.
        for w in a.windows(2) {
            assert_eq!(w[1] - w[0], 3);
        }
    }

    #[test]
    fn different_seeds_explore_different_phases() {
        // Phases land in [0, period); across seeds 0..12 at period 3 every
        // phase must appear (any fixed phase would defeat the seeding).
        let first: std::collections::HashSet<u64> =
            (0..12).map(|s| fired_schedule(s, 30)[0]).collect();
        assert!(first.len() > 1, "seed must influence the phase");
    }

    #[test]
    fn every_one_fires_every_call() {
        let injector = FaultPlan::new(3).delay(FaultSite::Embed, 1, Duration::ZERO).build();
        for _ in 0..5 {
            injector.fire(FaultSite::Embed);
        }
        assert_eq!(injector.injected(FaultSite::Embed), 5);
        assert_eq!(injector.injected_total(), 5);
        assert_eq!(injector.injected(FaultSite::CacheResolve), 0);
    }

    #[test]
    fn unmatched_sites_only_count_calls() {
        let injector = FaultPlan::new(0).delay(FaultSite::AnnProbe, 2, Duration::ZERO).build();
        injector.fire(FaultSite::CacheResolve);
        assert_eq!(injector.calls(FaultSite::CacheResolve), 1);
        assert_eq!(injector.injected_total(), 0);
    }
}
