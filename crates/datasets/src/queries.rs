//! Query-set generation, exact ground truth and recall measurement.

use hsu_geometry::point::{Metric, PointSet};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Draws `n` queries from the same distribution as `data` by perturbing
/// random dataset points with small Gaussian noise (the ANN-Benchmarks query
/// sets are held-out samples of the same source distribution).
///
/// # Panics
///
/// Panics if `data` is empty or `n` is zero.
pub fn query_set(data: &PointSet, n: usize, seed: u64) -> PointSet {
    assert!(!data.is_empty(), "cannot sample queries from an empty set");
    assert!(n > 0, "query set must be non-empty");
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    // Perturbation sigma proportional to the average coordinate spread.
    let dim = data.dim();
    let sample = data.len().min(256);
    let mut spread = 0.0f64;
    for i in 0..sample {
        for &v in data.point(i) {
            spread += (v as f64).abs();
        }
    }
    let sigma = (spread / (sample * dim) as f64 * 0.1) as f32;

    let mut out = PointSet::empty(dim);
    let mut q = vec![0.0f32; dim];
    for _ in 0..n {
        let src = data.point(rng.gen_range(0..data.len()));
        for (dst, &s) in q.iter_mut().zip(src) {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            *dst = s + g * sigma;
        }
        out.push(&q);
    }
    out
}

/// SplitMix64-style mix of a stream seed and an element index — the
/// per-element seed every random-access stream generator below derives
/// its RNG from. Pure, order-free, and collision-resistant enough that
/// no two stream positions share an RNG stream.
fn stream_mix(seed: u64, i: u64) -> u64 {
    let mut z = seed ^ i.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A deterministic random-access query stream over a dataset: query `i`
/// is a pure function of `(seed, i)` (a perturbed dataset point, same
/// distribution as [`query_set`]), so **any** partition of the stream —
/// across shards, batches, worker threads, or replay runs — reproduces
/// byte-identical queries. This is what makes the serving engine
/// golden-testable under open-loop load.
#[derive(Debug, Clone, Copy)]
pub struct QueryStream {
    seed: u64,
    dim: usize,
    n_points: usize,
    sigma: f32,
}

impl QueryStream {
    /// Captures the stream parameters (dimension, point count and the
    /// perturbation sigma [`query_set`] would use) from `data`.
    ///
    /// # Panics
    ///
    /// Panics if `data` is empty.
    pub fn new(data: &PointSet, seed: u64) -> Self {
        assert!(!data.is_empty(), "cannot stream queries from an empty set");
        let dim = data.dim();
        let sample = data.len().min(256);
        let mut spread = 0.0f64;
        for i in 0..sample {
            for &v in data.point(i) {
                spread += (v as f64).abs();
            }
        }
        let sigma = (spread / (sample * dim) as f64 * 0.1) as f32;
        Self {
            seed,
            dim,
            n_points: data.len(),
            sigma,
        }
    }

    /// Query dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The `i`-th query (exactly `dim` floats). `data` must be the point
    /// set the stream was created from.
    pub fn nth(&self, data: &PointSet, i: u64) -> Vec<f32> {
        let mut rng = ChaCha8Rng::seed_from_u64(stream_mix(self.seed, i));
        let src = data.point(rng.gen_range(0..self.n_points));
        let mut out = Vec::with_capacity(self.dim);
        for &s in src {
            let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
            let u2: f32 = rng.gen_range(0.0..1.0);
            let g = (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos();
            out.push(s + g * self.sigma);
        }
        out
    }
}

/// The `i`-th key of a deterministic random-access lookup-key stream over
/// `[0, key_space)` — the B+tree analogue of [`QueryStream`]. Pure in
/// `(seed, i)`, so any partition of the stream replays identically.
///
/// # Panics
///
/// Panics if `key_space` is zero.
pub fn key_stream_nth(seed: u64, i: u64, key_space: u32) -> u32 {
    assert!(key_space > 0, "key space must be non-empty");
    (stream_mix(seed, i) % u64::from(key_space)) as u32
}

/// Exact k-nearest-neighbour ground truth for every query (brute force).
pub fn ground_truth_knn(
    data: &PointSet,
    queries: &PointSet,
    k: usize,
    metric: Metric,
) -> Vec<Vec<usize>> {
    queries
        .iter()
        .map(|q| {
            data.k_nearest_brute_force(q, k, metric)
                .into_iter()
                .map(|(i, _)| i)
                .collect()
        })
        .collect()
}

/// Mean recall@k of `found` (per-query candidate ids) against the ground
/// truth.
///
/// # Panics
///
/// Panics if the two slices differ in length or `k` is zero.
pub fn recall_at_k(found: &[Vec<u32>], truth: &[Vec<usize>], k: usize) -> f64 {
    assert_eq!(found.len(), truth.len(), "query count mismatch");
    assert!(k > 0, "k must be positive");
    if found.is_empty() {
        return 1.0;
    }
    let mut hits = 0usize;
    let mut total = 0usize;
    for (f, t) in found.iter().zip(truth) {
        let want: std::collections::HashSet<usize> = t.iter().take(k).copied().collect();
        total += want.len();
        hits += f
            .iter()
            .take(k)
            .filter(|&&i| want.contains(&(i as usize)))
            .count();
    }
    hits as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dataset, DatasetId};

    #[test]
    fn queries_share_the_data_distribution() {
        let ds = Dataset::generate_scaled(DatasetId::Sift10k, 1, Some(500));
        let data = ds.points().unwrap();
        let queries = query_set(data, 50, 2);
        assert_eq!(queries.len(), 50);
        assert_eq!(queries.dim(), data.dim());
        // Every query's nearest dataset point must be close (it is a
        // perturbed dataset point).
        for q in queries.iter() {
            let (_, d) = data.nearest_brute_force(q, Metric::Euclidean).unwrap();
            assert!(d.is_finite());
        }
    }

    #[test]
    fn query_generation_is_deterministic() {
        let ds = Dataset::generate_scaled(DatasetId::Glove, 3, Some(200));
        let data = ds.points().unwrap();
        let a = query_set(data, 10, 9);
        let b = query_set(data, 10, 9);
        assert_eq!(a.as_flat(), b.as_flat());
    }

    #[test]
    fn ground_truth_is_sorted_and_exact() {
        let ds = Dataset::generate_scaled(DatasetId::Random10k, 4, Some(300));
        let data = ds.points().unwrap();
        let queries = query_set(data, 5, 5);
        let truth = ground_truth_knn(data, &queries, 3, Metric::Euclidean);
        assert_eq!(truth.len(), 5);
        for (q, t) in queries.iter().zip(&truth) {
            assert_eq!(t.len(), 3);
            let d: Vec<f32> = t
                .iter()
                .map(|&i| hsu_geometry::point::euclidean_squared(q, data.point(i)))
                .collect();
            assert!(d.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn query_stream_is_pure_in_seed_and_index() {
        let ds = Dataset::generate_scaled(DatasetId::Glove, 3, Some(200));
        let data = ds.points().unwrap();
        let stream = QueryStream::new(data, 17);
        // Random access in any order matches sequential access, bit for bit.
        let forward: Vec<Vec<f32>> = (0..20).map(|i| stream.nth(data, i)).collect();
        for i in (0..20).rev() {
            let q = stream.nth(data, i);
            assert_eq!(q.len(), data.dim());
            let same: Vec<u32> = q.iter().map(|v| v.to_bits()).collect();
            let expect: Vec<u32> = forward[i as usize].iter().map(|v| v.to_bits()).collect();
            assert_eq!(same, expect, "query {i}");
        }
        // Different seeds give different streams.
        let other = QueryStream::new(data, 18);
        assert_ne!(stream.nth(data, 0), other.nth(data, 0));
        // Queries stay finite and near the data distribution.
        for q in &forward {
            assert!(q.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn key_stream_is_pure_and_in_range() {
        for i in 0..500u64 {
            let k = key_stream_nth(7, i, 1000);
            assert!(k < 1000);
            assert_eq!(k, key_stream_nth(7, i, 1000));
        }
        // Streams with different seeds differ somewhere early.
        assert!((0..16).any(|i| key_stream_nth(1, i, 1 << 20) != key_stream_nth(2, i, 1 << 20)));
    }

    #[test]
    fn recall_math() {
        let truth = vec![vec![1usize, 2, 3], vec![4, 5, 6]];
        let perfect = vec![vec![1u32, 2, 3], vec![6, 5, 4]];
        assert_eq!(recall_at_k(&perfect, &truth, 3), 1.0);
        let half = vec![vec![1u32, 9, 8], vec![4, 5, 7]];
        assert!((recall_at_k(&half, &truth, 3) - 0.5).abs() < 1e-9);
        let none = vec![vec![7u32], vec![8]];
        assert_eq!(recall_at_k(&none, &truth, 1), 0.0);
    }
}
