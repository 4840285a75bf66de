//! Per-stage functional-unit inventories and the Fig. 15 area comparison.

use crate::fu::FuKind;
use hsu_core::config::PIPELINE_DEPTH;
use hsu_core::pipeline::OperatingMode;

/// Which datapath is being priced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatapathKind {
    /// Ray-box + ray-triangle only.
    BaselineRt,
    /// Baseline plus the HSU extensions (the paper's evaluated prototype:
    /// fixed-latency pipeline, per-mode stage registers, per-stage rounding).
    Hsu,
    /// The HSU with the optimizations §VI-K lists as future work applied:
    /// pipeline stage registers multiplexed across operating modes and
    /// leaner mode control. Arithmetic is unchanged.
    HsuOptimized,
}

/// Functional units present in one pipeline stage.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StageInventory {
    /// FP adders/subtractors.
    pub adders: u32,
    /// FP multipliers.
    pub multipliers: u32,
    /// FP comparators.
    pub comparators: u32,
    /// Pipeline register bits.
    pub register_bits: u32,
    /// Control/mux logic in NAND2 equivalents.
    pub control_gates: u32,
}

/// Pipeline-register bits each operating mode keeps per stage — the paper's
/// unoptimized prototype gives every mode its own stage registers (§VI-K,
/// optimization note 2).
pub fn mode_register_bits(mode: OperatingMode) -> u32 {
    match mode {
        // Four boxes × 6 bounds × 32 b plus ray state and sort keys.
        OperatingMode::RayBox => 1000,
        // Nine vertex floats, shear products, edge functions.
        OperatingMode::RayTriangle => 500,
        // 16 lane partials + query registers + accumulator.
        OperatingMode::Euclid => 750,
        // 8 lanes × (dot, norm) partials + accumulators.
        OperatingMode::Angular => 480,
        // 36 separators + key + result mask.
        OperatingMode::KeyCompare => 685,
    }
}

/// The baseline RT datapath's per-stage inventory (stages 1..=9).
///
/// Arithmetic counts are the element-wise maximum of the ray-box (four
/// parallel slab tests + hit sort) and ray-triangle (watertight Woop)
/// requirements, mirroring the unified-datapath reuse of Fig. 6.
fn baseline_stages() -> [StageInventory; PIPELINE_DEPTH] {
    let regs =
        mode_register_bits(OperatingMode::RayBox) + mode_register_bits(OperatingMode::RayTriangle);
    let control = 600;
    let mk = |adders, multipliers, comparators| StageInventory {
        adders,
        multipliers,
        comparators,
        register_bits: regs,
        control_gates: control,
    };
    [
        mk(24, 0, 0), // s1: translate to ray origin (24-wide subtract)
        mk(6, 24, 0), // s2: interval scale / shear multiply
        mk(6, 6, 36), // s3: tmin-tmax comparators / barycentric products
        mk(4, 0, 16), // s4: interval reduction / determinant sums
        mk(2, 3, 8),  // s5: hit test / z-scale
        mk(1, 3, 4),  // s6: sort network / t_num products
        mk(0, 3, 4),  // s7: sort network
        mk(2, 0, 2),  // s8: sort network / distance sum
        mk(1, 0, 4),  // s9: result select / sign tests
    ]
}

/// The HSU datapath's inventory: the baseline plus exactly the additions of
/// §IV-C — two adders in stage 3, one each in stages 5, 8 and 9 — along with
/// the three new modes' stage registers and the wider mode-control muxes.
fn hsu_stages() -> [StageInventory; PIPELINE_DEPTH] {
    let mut stages = baseline_stages();
    let extra_regs = mode_register_bits(OperatingMode::Euclid)
        + mode_register_bits(OperatingMode::Angular)
        + mode_register_bits(OperatingMode::KeyCompare);
    for (i, stage) in stages.iter_mut().enumerate() {
        stage.register_bits += extra_regs;
        stage.control_gates += 900; // five-way mode decode and result muxing
        match i + 1 {
            3 => stage.adders += 2,
            5 | 8 | 9 => stage.adders += 1,
            _ => {}
        }
    }
    stages
}

/// The §VI-K-optimized HSU: same arithmetic, but stage registers are
/// multiplexed across modes (sized by the widest mode plus a margin instead
/// of summed) and the mode decode is folded into the existing control.
fn hsu_optimized_stages() -> [StageInventory; PIPELINE_DEPTH] {
    let mut stages = hsu_stages();
    // Widest single mode (ray-box) plus 20% for mux staging.
    let widest = OperatingMode::ALL
        .iter()
        .map(|&m| mode_register_bits(m))
        .max()
        .expect("modes exist");
    let shared = widest + widest / 5;
    for stage in stages.iter_mut() {
        stage.register_bits = shared;
        stage.control_gates = 900; // mux select folds into the mode decode
    }
    stages
}

/// The inventory for a datapath kind.
pub fn stages(kind: DatapathKind) -> [StageInventory; PIPELINE_DEPTH] {
    match kind {
        DatapathKind::BaselineRt => baseline_stages(),
        DatapathKind::Hsu => hsu_stages(),
        DatapathKind::HsuOptimized => hsu_optimized_stages(),
    }
}

/// Area by resource class, in µm².
#[derive(Debug, Clone, PartialEq)]
pub struct AreaBreakdown {
    /// `(class, area)` pairs in [`FuKind::ALL`] order.
    pub classes: Vec<(FuKind, f64)>,
}

impl AreaBreakdown {
    /// Prices a datapath's inventory.
    pub fn of(kind: DatapathKind) -> Self {
        let mut totals = [0.0f64; 5];
        for stage in stages(kind) {
            totals[0] += stage.adders as f64 * FuKind::FpAdd.area_um2();
            totals[1] += stage.multipliers as f64 * FuKind::FpMul.area_um2();
            totals[2] += stage.comparators as f64 * FuKind::Comparator.area_um2();
            totals[3] += stage.register_bits as f64 * FuKind::RegisterBit.area_um2();
            totals[4] += stage.control_gates as f64 * FuKind::ControlGate.area_um2();
        }
        AreaBreakdown {
            classes: FuKind::ALL.iter().copied().zip(totals).collect(),
        }
    }

    /// Total area.
    pub fn total(&self) -> f64 {
        self.classes.iter().map(|&(_, a)| a).sum()
    }

    /// Area of one class.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is missing (cannot happen for [`AreaBreakdown::of`]).
    pub fn class(&self, kind: FuKind) -> f64 {
        self.classes
            .iter()
            .find(|&&(k, _)| k == kind)
            .map(|&(_, a)| a)
            .expect("class present")
    }

    /// Per-class ratio of `self` over `baseline` — the bars of Fig. 15.
    pub fn normalized_to(&self, baseline: &AreaBreakdown) -> Vec<(FuKind, f64)> {
        self.classes
            .iter()
            .map(|&(k, a)| (k, a / baseline.class(k).max(f64::MIN_POSITIVE)))
            .collect()
    }
}

/// Renders the paper's Fig. 6: the per-stage functional-unit requirements of
/// each operating mode, with the provisioned (max) counts per stage.
pub fn fig6_table() -> String {
    use crate::power::mode_activity;
    use std::fmt::Write as _;
    let mut out = String::from(
        "Fig.6  unified-datapath FU usage per stage (adders/multipliers/comparators)\n",
    );
    let _ = write!(out, "{:<7}", "stage");
    for mode in OperatingMode::ALL {
        let _ = write!(out, " {:>12}", mode.label());
    }
    let _ = writeln!(out, " {:>12} {:>12}", "baseline", "hsu");
    let base = baseline_stages();
    let hsu = hsu_stages();
    for stage in 0..PIPELINE_DEPTH {
        let _ = write!(out, "s{:<6}", stage + 1);
        for mode in OperatingMode::ALL {
            let (a, m, c) = mode_activity(mode)[stage];
            let _ = write!(out, " {:>12}", format!("{a}/{m}/{c}"));
        }
        let b = &base[stage];
        let h = &hsu[stage];
        let _ = writeln!(
            out,
            " {:>12} {:>12}",
            format!("{}/{}/{}", b.adders, b.multipliers, b.comparators),
            format!("{}/{}/{}", h.adders, h.multipliers, h.comparators),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hsu_adds_exactly_five_adders() {
        let base = baseline_stages();
        let hsu = hsu_stages();
        let deltas: Vec<i64> = base
            .iter()
            .zip(&hsu)
            .map(|(b, h)| h.adders as i64 - b.adders as i64)
            .collect();
        assert_eq!(
            deltas,
            vec![0, 0, 2, 0, 1, 0, 0, 1, 1],
            "§IV-C adder additions"
        );
        // Multipliers and comparators are fully reused.
        for (b, h) in base.iter().zip(&hsu) {
            assert_eq!(b.multipliers, h.multipliers);
            assert_eq!(b.comparators, h.comparators);
        }
    }

    #[test]
    fn key_compare_fits_existing_comparators() {
        // 36 comparators in stage 3 — "the key-compare mode is implemented
        // using the ray-box comparators in stage 3".
        assert!(baseline_stages()[2].comparators >= 36);
    }

    #[test]
    fn total_area_increase_matches_paper() {
        let base = AreaBreakdown::of(DatapathKind::BaselineRt);
        let hsu = AreaBreakdown::of(DatapathKind::Hsu);
        let ratio = hsu.total() / base.total();
        assert!(
            (1.30..=1.45).contains(&ratio),
            "total HSU/baseline area ratio {ratio:.3}, paper reports 1.37"
        );
    }

    #[test]
    fn registers_dominate_the_increase() {
        let base = AreaBreakdown::of(DatapathKind::BaselineRt);
        let hsu = AreaBreakdown::of(DatapathKind::Hsu);
        let norm = hsu.normalized_to(&base);
        let reg_ratio = norm
            .iter()
            .find(|(k, _)| *k == FuKind::RegisterBit)
            .unwrap()
            .1;
        let mul_ratio = norm.iter().find(|(k, _)| *k == FuKind::FpMul).unwrap().1;
        assert!(reg_ratio > 1.8, "register ratio {reg_ratio:.2}");
        assert!((mul_ratio - 1.0).abs() < 1e-9, "multipliers fully reused");
    }

    #[test]
    fn fig6_inventory_covers_every_mode() {
        // The provisioned HSU inventory must satisfy every mode's per-stage
        // usage — the reuse claim of Fig. 6.
        use crate::power::mode_activity;
        let hsu = hsu_stages();
        for mode in OperatingMode::ALL {
            for (stage, &(a, m, c)) in mode_activity(mode).iter().enumerate() {
                assert!(
                    a <= hsu[stage].adders,
                    "{mode} stage {} needs {a} adders, only {}",
                    stage + 1,
                    hsu[stage].adders
                );
                assert!(
                    m <= hsu[stage].multipliers,
                    "{mode} stage {} multipliers",
                    stage + 1
                );
                assert!(
                    c <= hsu[stage].comparators,
                    "{mode} stage {} comparators",
                    stage + 1
                );
            }
        }
        // The baseline inventory covers the two RT modes alone.
        let base = baseline_stages();
        for mode in [OperatingMode::RayBox, OperatingMode::RayTriangle] {
            for (stage, &(a, m, c)) in mode_activity(mode).iter().enumerate() {
                assert!(a <= base[stage].adders, "{mode} stage {}", stage + 1);
                assert!(m <= base[stage].multipliers, "{mode} stage {}", stage + 1);
                assert!(c <= base[stage].comparators, "{mode} stage {}", stage + 1);
            }
        }
        assert!(fig6_table().contains("s9"));
    }

    #[test]
    fn optimized_variant_shrinks_the_overhead() {
        // §VI-K: "future optimizations could reduce the area overhead".
        let base = AreaBreakdown::of(DatapathKind::BaselineRt).total();
        let proto = AreaBreakdown::of(DatapathKind::Hsu).total();
        let opt = AreaBreakdown::of(DatapathKind::HsuOptimized).total();
        let proto_ratio = proto / base;
        let opt_ratio = opt / base;
        assert!(
            opt_ratio < proto_ratio,
            "{opt_ratio:.2} !< {proto_ratio:.2}"
        );
        assert!(
            (0.95..=1.15).contains(&opt_ratio),
            "register multiplexing should bring the HSU near baseline area, got {opt_ratio:.2}"
        );
        // Arithmetic unchanged.
        let a = AreaBreakdown::of(DatapathKind::Hsu);
        let b = AreaBreakdown::of(DatapathKind::HsuOptimized);
        assert_eq!(
            a.class(crate::fu::FuKind::FpAdd),
            b.class(crate::fu::FuKind::FpAdd)
        );
        assert_eq!(
            a.class(crate::fu::FuKind::FpMul),
            b.class(crate::fu::FuKind::FpMul)
        );
    }

    #[test]
    fn nine_stages() {
        assert_eq!(baseline_stages().len(), 9);
        assert_eq!(stages(DatapathKind::Hsu).len(), 9);
    }
}
