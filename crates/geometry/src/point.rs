//! N-dimensional points and the distance kernels the HSU accelerates.
//!
//! The scalar kernels here are the golden references for the HSU's
//! `POINT_EUCLID` and `POINT_ANGULAR` instructions. How a distance splits
//! into datapath beats depends on the configured lane width, so the beat
//! model lives with the configuration (`hsu_core::HsuConfig::beats_for`)
//! and the accumulator that sums the beats (`hsu_core::exec`).

use std::fmt;

/// Distance metric attached to a dataset (paper Table II, "Dist" column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Metric {
    /// Squared Euclidean distance, eq. (1).
    Euclidean,
    /// Angular (cosine) distance, eq. (2).
    Angular,
}

impl fmt::Display for Metric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Metric::Euclidean => f.write_str("euclidean"),
            Metric::Angular => f.write_str("angular"),
        }
    }
}

impl Metric {
    /// Computes the metric's comparable distance value between two points.
    ///
    /// For [`Metric::Euclidean`] this is the squared distance; for
    /// [`Metric::Angular`] it is `1 - cos(q, c)` so that smaller is closer
    /// under both metrics.
    ///
    /// # Panics
    ///
    /// Panics if `q` and `c` have different lengths.
    #[inline]
    pub fn distance(self, q: &[f32], c: &[f32]) -> f32 {
        match self {
            Metric::Euclidean => euclidean_squared(q, c),
            Metric::Angular => angular_distance(q, c),
        }
    }
}

/// Squared Euclidean distance `Σ (q_i - c_i)^2` (paper eq. 1).
///
/// # Panics
///
/// Panics if the slices have different lengths.
///
/// # Examples
///
/// ```
/// let d = hsu_geometry::point::euclidean_squared(&[0.0, 0.0], &[3.0, 4.0]);
/// assert_eq!(d, 25.0);
/// ```
#[inline]
pub fn euclidean_squared(q: &[f32], c: &[f32]) -> f32 {
    assert_eq!(q.len(), c.len(), "point dimensions must match");
    q.iter().zip(c).map(|(a, b)| (a - b) * (a - b)).sum()
}

/// Dot product `Σ c_i * q_i` (paper eq. 3).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn dot(q: &[f32], c: &[f32]) -> f32 {
    assert_eq!(q.len(), c.len(), "point dimensions must match");
    q.iter().zip(c).map(|(a, b)| a * b).sum()
}

/// Squared norm `Σ c_i * c_i` (paper eq. 4).
#[inline]
pub fn norm_squared(c: &[f32]) -> f32 {
    c.iter().map(|x| x * x).sum()
}

/// Cosine similarity (paper eq. 2). Zero-norm inputs yield similarity 0.
#[inline]
fn cosine_similarity(q: &[f32], c: &[f32]) -> f32 {
    let denom = (norm_squared(q) * norm_squared(c)).sqrt();
    if denom == 0.0 {
        0.0
    } else {
        dot(q, c) / denom
    }
}

/// Angular distance `1 - cos(q, c)`, so smaller means closer.
#[inline]
pub fn angular_distance(q: &[f32], c: &[f32]) -> f32 {
    1.0 - cosine_similarity(q, c)
}

/// A dense row-major matrix of N-dimensional points — the in-memory layout
/// all search structures and workloads share.
///
/// # Examples
///
/// ```
/// use hsu_geometry::point::PointSet;
/// let set = PointSet::from_rows(2, vec![0.0, 0.0, 3.0, 4.0]);
/// assert_eq!(set.len(), 2);
/// assert_eq!(set.point(1), &[3.0, 4.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PointSet {
    dim: usize,
    data: Vec<f32>,
}

impl PointSet {
    /// Creates a point set from row-major data.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`, or if `dim` is zero.
    pub fn from_rows(dim: usize, data: Vec<f32>) -> Self {
        assert!(dim > 0, "dimension must be positive");
        assert!(
            data.len().is_multiple_of(dim),
            "data length {} is not a multiple of dim {}",
            data.len(),
            dim
        );
        PointSet { dim, data }
    }

    /// An empty set of `dim`-dimensional points.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn empty(dim: usize) -> Self {
        Self::from_rows(dim, Vec::new())
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len() / self.dim
    }

    /// Returns `true` if the set holds no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Dimensionality of every point.
    #[inline]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Borrow of point `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    #[inline]
    pub fn point(&self, i: usize) -> &[f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Appends a point.
    ///
    /// # Panics
    ///
    /// Panics if `p.len() != dim()`.
    pub fn push(&mut self, p: &[f32]) {
        assert_eq!(p.len(), self.dim, "point dimension mismatch");
        self.data.extend_from_slice(p);
    }

    /// Iterator over all points.
    pub fn iter(&self) -> impl Iterator<Item = &[f32]> + '_ {
        self.data.chunks_exact(self.dim)
    }

    /// The raw row-major buffer.
    #[inline]
    pub fn as_flat(&self) -> &[f32] {
        &self.data
    }

    /// Distances from `q` to every point in index order, computed through
    /// the candidate-parallel kernels in [`crate::batch`]. Bit-identical to
    /// `metric.distance(q, c)` per point: the batch kernels keep each
    /// candidate's scalar accumulation order, and the angular epilogue below
    /// repeats [`cosine_similarity`]'s exact operation sequence.
    fn distances_to_all(&self, q: &[f32], metric: Metric) -> Vec<f32> {
        match metric {
            Metric::Euclidean => {
                let mut out = Vec::new();
                crate::batch::euclid_to_rows(q, &self.data, &mut out);
                out
            }
            Metric::Angular => {
                let mut pairs = Vec::new();
                crate::batch::dot_norm_to_rows(q, &self.data, &mut pairs);
                let nq = norm_squared(q);
                pairs
                    .into_iter()
                    .map(|(d, n)| {
                        let denom = (nq * n).sqrt();
                        if denom == 0.0 {
                            1.0
                        } else {
                            1.0 - d / denom
                        }
                    })
                    .collect()
            }
        }
    }

    /// Index of the exact nearest point to `q` by brute force, with its
    /// distance. Returns `None` for an empty set.
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != dim()`.
    pub fn nearest_brute_force(&self, q: &[f32], metric: Metric) -> Option<(usize, f32)> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        self.distances_to_all(q, metric)
            .into_iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(&b.1))
    }

    /// Like [`PointSet::nearest_brute_force`] but skipping index `exclude`
    /// (self-match suppression for in-set queries).
    ///
    /// # Panics
    ///
    /// Panics if `q.len() != dim()` or the set has no other point.
    pub fn nearest_brute_force_excluding(
        &self,
        q: &[f32],
        exclude: usize,
        metric: Metric,
    ) -> (usize, f32) {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        self.distances_to_all(q, metric)
            .into_iter()
            .enumerate()
            .filter(|&(i, _)| i != exclude)
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("point set needs a second point")
    }

    /// Indices of the exact `k` nearest points to `q` by brute force, closest
    /// first. Returns fewer than `k` if the set is smaller.
    pub fn k_nearest_brute_force(&self, q: &[f32], k: usize, metric: Metric) -> Vec<(usize, f32)> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        let mut all: Vec<(usize, f32)> = self
            .distances_to_all(q, metric)
            .into_iter()
            .enumerate()
            .collect();
        all.sort_by(|a, b| a.1.total_cmp(&b.1));
        all.truncate(k);
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn euclidean_matches_hand_computation() {
        assert_eq!(euclidean_squared(&[1.0, 2.0], &[4.0, 6.0]), 25.0);
        assert_eq!(euclidean_squared(&[], &[]), 0.0);
    }

    #[test]
    #[should_panic(expected = "dimensions must match")]
    fn euclidean_rejects_mismatched_dims() {
        euclidean_squared(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm_squared(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn cosine_of_parallel_and_orthogonal() {
        assert!((cosine_similarity(&[1.0, 0.0], &[2.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1.0, 0.0], &[0.0, 1.0]).abs() < 1e-6);
        assert!((angular_distance(&[1.0, 0.0], &[-1.0, 0.0]) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_norm_is_defined() {
        assert_eq!(cosine_similarity(&[0.0, 0.0], &[1.0, 1.0]), 0.0);
        assert_eq!(angular_distance(&[0.0; 4], &[0.0; 4]), 1.0);
    }

    #[test]
    fn point_set_roundtrip() {
        let mut set = PointSet::empty(3);
        assert!(set.is_empty());
        set.push(&[1.0, 2.0, 3.0]);
        set.push(&[4.0, 5.0, 6.0]);
        assert_eq!(set.len(), 2);
        assert_eq!(set.point(0), &[1.0, 2.0, 3.0]);
        assert_eq!(set.iter().count(), 2);
        assert_eq!(set.as_flat().len(), 6);
    }

    #[test]
    fn brute_force_nearest() {
        let set = PointSet::from_rows(2, vec![0.0, 0.0, 10.0, 0.0, 3.0, 4.0]);
        let (idx, d) = set
            .nearest_brute_force(&[9.0, 1.0], Metric::Euclidean)
            .unwrap();
        assert_eq!(idx, 1);
        assert_eq!(d, 2.0);
        let knn = set.k_nearest_brute_force(&[0.0, 0.0], 2, Metric::Euclidean);
        assert_eq!(knn[0].0, 0);
        assert_eq!(knn[1].0, 2);
    }

    #[test]
    fn brute_force_empty_set() {
        let set = PointSet::empty(2);
        assert!(set
            .nearest_brute_force(&[0.0, 0.0], Metric::Euclidean)
            .is_none());
        assert!(set
            .k_nearest_brute_force(&[0.0, 0.0], 3, Metric::Euclidean)
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn from_rows_validates_length() {
        PointSet::from_rows(3, vec![1.0, 2.0]);
    }

    #[test]
    fn metric_display() {
        assert_eq!(Metric::Euclidean.to_string(), "euclidean");
        assert_eq!(Metric::Angular.to_string(), "angular");
    }
}
