//! Seeded request generator: frames of `(user, query)` pairs drawn from the
//! dataset's sessions, either Zipf-skewed over a small hot set (cache hits)
//! or uniform over every session (cache churn).
//!
//! Everything is a pure function of `(seed, stream)`: the same seed gives
//! the same frames, and each connection draws from its own stream.

use std::sync::Arc;

use rand::seq::SliceRandom;
use rand::Rng;
use rand_chacha::ChaCha8Rng;
use zoomer_graph::{NodeId, Query};
use zoomer_tensor::rng::derive_rng;

/// Zipf distribution over ranks `0..n` with exponent `s`: mass of rank `r`
/// is proportional to `1 / (r + 1)^s`. Sampled by inverting the CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n.max(1)).map(|r| (r as f64).powf(-s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Self { cdf }
    }

    /// Probability of a rank below `ranks` (the theoretical head mass).
    #[cfg(test)]
    pub fn head_mass(&self, ranks: usize) -> f64 {
        match ranks {
            0 => 0.0,
            r => self.cdf[r.min(self.cdf.len()) - 1],
        }
    }

    pub fn sample(&self, rng: &mut ChaCha8Rng) -> usize {
        let u: f64 = rng.gen();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// How a workload picks sessions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Popularity {
    /// Zipf(`exponent`) over a hot set of `hot` sessions chosen by the seed.
    Zipf { hot: usize, exponent: f64 },
    /// Uniform over every session.
    Uniform,
}

/// The sessions a run draws from, in popularity-rank order, shared by every
/// stream of the run.
pub struct SessionSet {
    pairs: Vec<(NodeId, NodeId)>,
    zipf: Option<Zipf>,
}

impl SessionSet {
    pub fn new(sessions: &[(NodeId, NodeId)], popularity: Popularity, seed: u64) -> Arc<Self> {
        Arc::new(match popularity {
            Popularity::Uniform => Self { pairs: sessions.to_vec(), zipf: None },
            Popularity::Zipf { hot, exponent } => {
                let mut picked = sessions.to_vec();
                picked.shuffle(&mut derive_rng(seed, "hot-set"));
                picked.truncate(hot.clamp(1, sessions.len().max(1)));
                let zipf = Zipf::new(picked.len(), exponent);
                Self { pairs: picked, zipf: Some(zipf) }
            }
        })
    }

    /// Every distinct node the set can request (what pre-warming fills).
    pub fn nodes(&self) -> Vec<NodeId> {
        let mut nodes: Vec<NodeId> = self.pairs.iter().flat_map(|&(u, q)| [u, q]).collect();
        nodes.sort_unstable();
        nodes.dedup();
        nodes
    }
}

/// One stream of frames.
pub struct FrameGen {
    set: Arc<SessionSet>,
    rng: ChaCha8Rng,
    batch: usize,
}

impl FrameGen {
    pub fn new(set: &Arc<SessionSet>, batch: usize, seed: u64, stream: &str) -> Self {
        Self { set: Arc::clone(set), rng: derive_rng(seed, stream), batch }
    }

    pub fn next_frame(&mut self) -> Vec<Query> {
        (0..self.batch)
            .map(|_| {
                let idx = match &self.set.zipf {
                    Some(zipf) => zipf.sample(&mut self.rng),
                    None => self.rng.gen_range(0..self.set.pairs.len()),
                };
                let (user, query) = self.set.pairs[idx];
                Query::new(user, query)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zoomer_serving::wire::{encode_request, RequestFrame};

    fn sessions(n: u32) -> Vec<(NodeId, NodeId)> {
        (0..n).map(|i| (i, 10_000 + i)).collect()
    }

    fn stream_bytes(seed: u64, popularity: Popularity) -> Vec<u8> {
        let set = SessionSet::new(&sessions(500), popularity, seed);
        let mut gen = FrameGen::new(&set, 8, seed, "conn-0");
        (0..50)
            .flat_map(|_| {
                encode_request(&RequestFrame { deadline_us: 0, queries: gen.next_frame() })
            })
            .collect()
    }

    #[test]
    fn same_seed_is_byte_identical_and_seeds_differ() {
        for popularity in [Popularity::Uniform, Popularity::Zipf { hot: 100, exponent: 1.1 }] {
            assert_eq!(stream_bytes(7, popularity), stream_bytes(7, popularity));
            assert_ne!(stream_bytes(7, popularity), stream_bytes(8, popularity));
        }
    }

    #[test]
    fn streams_of_one_seed_differ() {
        let set = SessionSet::new(&sessions(500), Popularity::Uniform, 3);
        let a = FrameGen::new(&set, 8, 3, "conn-0").next_frame();
        let b = FrameGen::new(&set, 8, 3, "conn-1").next_frame();
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_head_mass_matches_theory() {
        let zipf = Zipf::new(2000, 1.1);
        let theory = zipf.head_mass(20);
        let mut rng = derive_rng(11, "zipf-test");
        let draws = 200_000;
        let head = (0..draws).filter(|_| zipf.sample(&mut rng) < 20).count();
        let measured = head as f64 / draws as f64;
        assert!(
            (measured - theory).abs() <= 0.02 * theory,
            "top-20 mass {measured:.4} vs theory {theory:.4}"
        );
        assert!((zipf.head_mass(2000) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn hot_set_is_bounded_and_seeded() {
        let all = sessions(500);
        let a = SessionSet::new(&all, Popularity::Zipf { hot: 40, exponent: 1.1 }, 1);
        let b = SessionSet::new(&all, Popularity::Zipf { hot: 40, exponent: 1.1 }, 2);
        assert_eq!(a.pairs.len(), 40);
        assert_ne!(a.pairs, b.pairs);
        assert_eq!(a.nodes().len(), 80);
    }
}
