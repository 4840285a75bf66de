//! The dataset catalog mirroring the paper's Table II.

use hsu_geometry::point::Metric;
use std::fmt;

/// The sixteen evaluation datasets of Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum DatasetId {
    Deep1b,
    FashionMnist,
    Mnist,
    Gist,
    Glove,
    LastFm,
    Nytimes,
    Sift1m,
    Sift10k,
    Random10k,
    Bunny,
    Dragon,
    Buddha,
    Cosmos,
    BTree1m,
    BTree10k,
}

impl DatasetId {
    /// All datasets in Table II order.
    pub const ALL: [DatasetId; 16] = [
        DatasetId::Deep1b,
        DatasetId::FashionMnist,
        DatasetId::Mnist,
        DatasetId::Gist,
        DatasetId::Glove,
        DatasetId::LastFm,
        DatasetId::Nytimes,
        DatasetId::Sift1m,
        DatasetId::Sift10k,
        DatasetId::Random10k,
        DatasetId::Bunny,
        DatasetId::Dragon,
        DatasetId::Buddha,
        DatasetId::Cosmos,
        DatasetId::BTree1m,
        DatasetId::BTree10k,
    ];

    /// The high-dimensional ANN-Benchmarks sets used by GGNN (§VI-D).
    pub const HIGH_DIM: [DatasetId; 9] = [
        DatasetId::Deep1b,
        DatasetId::FashionMnist,
        DatasetId::Mnist,
        DatasetId::Gist,
        DatasetId::Glove,
        DatasetId::LastFm,
        DatasetId::Nytimes,
        DatasetId::Sift1m,
        DatasetId::Sift10k,
    ];

    /// The 3-D point-cloud sets used by FLANN and BVH-NN.
    pub const THREE_D: [DatasetId; 5] = [
        DatasetId::Random10k,
        DatasetId::Bunny,
        DatasetId::Dragon,
        DatasetId::Buddha,
        DatasetId::Cosmos,
    ];
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(spec(*self).abbr)
    }
}

/// How the synthetic generator models the dataset's structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataFamily {
    /// Gaussian-mixture clusters (learned feature embeddings).
    Embedding,
    /// Points sampled on a noisy parametric surface (3-D scans).
    Surface,
    /// Plummer-sphere halos (cosmological simulation).
    Cosmology,
    /// Continuous uniform cube.
    Uniform,
    /// Uniform random keys for the B+-tree.
    Keys,
}

/// One row of Table II plus this reproduction's scaling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetSpec {
    /// Which dataset.
    pub id: DatasetId,
    /// Table II abbreviation.
    pub abbr: &'static str,
    /// Dimensionality (exactly as in the paper).
    pub dims: usize,
    /// Cardinality reported in the paper.
    pub paper_points: usize,
    /// Cardinality generated here (simulator-friendly scale).
    pub scaled_points: usize,
    /// Distance metric, `None` for the key datasets.
    pub metric: Option<Metric>,
    /// Generator family.
    pub family: DataFamily,
}

/// The full catalog (Table II order).
pub fn catalog() -> Vec<DatasetSpec> {
    DatasetId::ALL.iter().map(|&id| spec(id)).collect()
}

/// The spec of one dataset.
pub fn spec(id: DatasetId) -> DatasetSpec {
    use DataFamily::*;
    use DatasetId::*;
    let (abbr, dims, paper_points, scaled_points, metric, family) = match id {
        Deep1b => (
            "D1B",
            96,
            9_900_000,
            20_000,
            Some(Metric::Angular),
            Embedding,
        ),
        FashionMnist => (
            "FMNT",
            784,
            60_000,
            4_000,
            Some(Metric::Euclidean),
            Embedding,
        ),
        Mnist => (
            "MNT",
            784,
            60_000,
            4_000,
            Some(Metric::Euclidean),
            Embedding,
        ),
        Gist => (
            "GST",
            960,
            1_000_000,
            3_000,
            Some(Metric::Euclidean),
            Embedding,
        ),
        Glove => (
            "GLV",
            200,
            1_180_000,
            10_000,
            Some(Metric::Angular),
            Embedding,
        ),
        LastFm => ("LFM", 65, 292_000, 10_000, Some(Metric::Angular), Embedding),
        Nytimes => ("NYT", 256, 290_000, 8_000, Some(Metric::Angular), Embedding),
        Sift1m => (
            "S1M",
            128,
            1_000_000,
            12_000,
            Some(Metric::Euclidean),
            Embedding,
        ),
        Sift10k => (
            "S10K",
            128,
            10_000,
            5_000,
            Some(Metric::Euclidean),
            Embedding,
        ),
        Random10k => ("R10K", 3, 10_000, 10_000, Some(Metric::Euclidean), Uniform),
        Bunny => ("BUN", 3, 35_900, 20_000, Some(Metric::Euclidean), Surface),
        Dragon => ("DRG", 3, 437_000, 30_000, Some(Metric::Euclidean), Surface),
        Buddha => ("BUD", 3, 543_000, 30_000, Some(Metric::Euclidean), Surface),
        Cosmos => (
            "COS",
            3,
            100_000,
            25_000,
            Some(Metric::Euclidean),
            Cosmology,
        ),
        BTree1m => ("B+1M", 1, 1_000_000, 200_000, None, Keys),
        BTree10k => ("B+10K", 1, 10_000, 10_000, None, Keys),
    };
    DatasetSpec {
        id,
        abbr,
        dims,
        paper_points,
        scaled_points,
        metric,
        family,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_table_ii_shape() {
        let cat = catalog();
        assert_eq!(cat.len(), 16);
        // Dimensions are exact per Table II.
        assert_eq!(spec(DatasetId::Deep1b).dims, 96);
        assert_eq!(spec(DatasetId::Mnist).dims, 784);
        assert_eq!(spec(DatasetId::Gist).dims, 960);
        assert_eq!(spec(DatasetId::Glove).dims, 200);
        assert_eq!(spec(DatasetId::LastFm).dims, 65);
        assert_eq!(spec(DatasetId::Nytimes).dims, 256);
        assert_eq!(spec(DatasetId::Sift1m).dims, 128);
        assert_eq!(spec(DatasetId::Bunny).dims, 3);
        assert_eq!(spec(DatasetId::BTree1m).dims, 1);
    }

    #[test]
    fn metrics_match_table_ii() {
        for (id, metric) in [
            (DatasetId::Deep1b, Some(Metric::Angular)),
            (DatasetId::Glove, Some(Metric::Angular)),
            (DatasetId::LastFm, Some(Metric::Angular)),
            (DatasetId::Nytimes, Some(Metric::Angular)),
            (DatasetId::Mnist, Some(Metric::Euclidean)),
            (DatasetId::Sift1m, Some(Metric::Euclidean)),
            (DatasetId::BTree10k, None),
        ] {
            assert_eq!(spec(id).metric, metric, "{id:?}");
        }
    }

    #[test]
    fn scaled_sizes_never_exceed_paper_sizes() {
        for s in catalog() {
            assert!(s.scaled_points <= s.paper_points, "{:?}", s.id);
        }
    }

    #[test]
    fn groupings_are_disjoint_and_typed() {
        for id in DatasetId::HIGH_DIM {
            assert!(spec(id).dims > 3);
            assert!(spec(id).metric.is_some());
        }
        for id in DatasetId::THREE_D {
            assert_eq!(spec(id).dims, 3);
        }
    }

    #[test]
    fn display_uses_abbreviations() {
        assert_eq!(DatasetId::Deep1b.to_string(), "D1B");
        assert_eq!(DatasetId::BTree1m.to_string(), "B+1M");
    }
}
