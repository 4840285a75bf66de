//! Configuration of the HSU datapath and its front-end structures.

use hsu_geometry::point::Metric;

/// Datapath pipeline depth in stages (paper §IV-B: "The pipeline has a depth
/// of 9 stages").
pub const PIPELINE_DEPTH: usize = 9;

/// Configuration of one HSU instance.
///
/// The defaults reproduce the paper's chosen design point: a 16-wide Euclidean
/// / 8-wide angular datapath (§IV-C) and an 8-entry warp buffer (§VI-I). The
/// width and warp-buffer knobs drive the Fig. 10 and Fig. 11 sensitivity
/// sweeps.
///
/// # Examples
///
/// ```
/// use hsu_core::HsuConfig;
/// use hsu_geometry::point::Metric;
/// let cfg = HsuConfig::default();
/// assert_eq!(cfg.euclid_width, 16);
/// assert_eq!(cfg.width_for(Metric::Angular), 8);
/// assert_eq!(cfg.warp_buffer_entries, 8);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HsuConfig {
    /// Lane width of the Euclidean distance operating mode. The angular mode
    /// is always half of this to share the same multipliers (paper §VI-H).
    pub euclid_width: usize,
    /// Number of warp-buffer entries buffering in-flight warp instructions.
    pub warp_buffer_entries: usize,
    /// Maximum separator values compared per `KEY_COMPARE` (36 in the paper).
    pub key_compare_width: usize,
    /// Whether the HSU extensions are present at all. When `false` the unit
    /// is the baseline RT unit: distance and key-compare instructions are
    /// rejected.
    pub hsu_extensions: bool,
}

impl Default for HsuConfig {
    fn default() -> Self {
        HsuConfig {
            euclid_width: 16,
            warp_buffer_entries: 8,
            key_compare_width: 36,
            hsu_extensions: true,
        }
    }
}

impl HsuConfig {
    /// The paper's baseline RT unit: identical front end, no HSU instructions.
    pub fn baseline_rt() -> Self {
        HsuConfig {
            hsu_extensions: false,
            ..HsuConfig::default()
        }
    }

    /// Returns a copy with a different Euclidean datapath width (Fig. 10).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not a positive multiple of 2.
    pub fn with_euclid_width(mut self, width: usize) -> Self {
        assert!(
            width >= 2 && width.is_multiple_of(2),
            "euclid width must be an even positive number"
        );
        self.euclid_width = width;
        self
    }

    /// Returns a copy with a different warp-buffer size (Fig. 11).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero.
    pub fn with_warp_buffer(mut self, entries: usize) -> Self {
        assert!(entries > 0, "warp buffer needs at least one entry");
        self.warp_buffer_entries = entries;
        self
    }

    /// Lane width of the given metric's operating mode. The angular mode is
    /// half as wide as the Euclidean one (§IV-C).
    #[inline]
    pub fn width_for(&self, metric: Metric) -> usize {
        match metric {
            Metric::Euclidean => self.euclid_width,
            Metric::Angular => self.euclid_width / 2,
        }
    }

    /// Number of beats (chained instructions) for a `dim`-dimensional
    /// distance under this configuration's width.
    #[inline]
    pub fn beats_for(&self, metric: Metric, dim: usize) -> usize {
        dim.div_ceil(self.width_for(metric)).max(1)
    }

    /// Number of `KEY_COMPARE` instructions needed for `n` separator values.
    #[inline]
    pub fn key_compare_instructions(&self, n: usize) -> usize {
        n.div_ceil(self.key_compare_width).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_design_point() {
        let cfg = HsuConfig::default();
        assert_eq!(cfg.euclid_width, 16);
        assert_eq!(cfg.width_for(Metric::Angular), 8);
        assert_eq!(cfg.warp_buffer_entries, 8);
        assert_eq!(cfg.key_compare_width, 36);
        assert!(cfg.hsu_extensions);
    }

    #[test]
    fn baseline_disables_extensions() {
        assert!(!HsuConfig::baseline_rt().hsu_extensions);
    }

    #[test]
    fn width_sweep() {
        for w in [4usize, 8, 16, 32] {
            let cfg = HsuConfig::default().with_euclid_width(w);
            assert_eq!(cfg.width_for(Metric::Euclidean), w);
            assert_eq!(cfg.width_for(Metric::Angular), w / 2);
        }
    }

    #[test]
    fn beats_match_paper_example() {
        let cfg = HsuConfig::default();
        assert_eq!(cfg.beats_for(Metric::Angular, 65), 9);
        assert_eq!(cfg.beats_for(Metric::Euclidean, 96), 6);
        assert_eq!(cfg.beats_for(Metric::Euclidean, 3), 1);
        // Width sensitivity: 32-wide euclid halves the beats of dim 96.
        let wide = cfg.clone().with_euclid_width(32);
        assert_eq!(wide.beats_for(Metric::Euclidean, 96), 3);
    }

    #[test]
    fn key_compare_chunks() {
        let cfg = HsuConfig::default();
        assert_eq!(cfg.key_compare_instructions(36), 1);
        assert_eq!(cfg.key_compare_instructions(37), 2);
        assert_eq!(cfg.key_compare_instructions(255), 8);
        assert_eq!(cfg.key_compare_instructions(0), 1);
    }

    #[test]
    #[should_panic(expected = "even positive")]
    fn odd_width_rejected() {
        let _ = HsuConfig::default().with_euclid_width(3);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_warp_buffer_rejected() {
        let _ = HsuConfig::default().with_warp_buffer(0);
    }
}
