//! Per-operating-mode dynamic power (paper Fig. 16).
//!
//! The paper drives each operating mode with random stimulus and reports the
//! datapath's dynamic power at 1 GHz. Here, power is functional-unit
//! activation energy (per the mode's stage-by-stage usage, Fig. 6) plus the
//! clocking of the mode's pipeline registers, plus — on the HSU datapath —
//! the residual overhead of the extra mode registers and wider control that
//! are not perfectly clock-gated (this is the +10/+8 mW the paper measures
//! on the ray-box/ray-triangle modes, §VI-K).

use crate::area::{mode_register_bits, DatapathKind};
use crate::fu::FuKind;
use hsu_core::config::PIPELINE_DEPTH;
use hsu_core::pipeline::OperatingMode;

/// Clock frequency the paper synthesizes at.
pub const CLOCK_GHZ: f64 = 1.0;

/// Fraction of a mode's own register fan-out that toggles extra on the HSU
/// datapath (the wider result muxes load every stage register's output).
const HSU_FANOUT_FRACTION: f64 = 0.25;

/// Fixed HSU control-plane overhead per cycle, in pJ (five-way mode decode
/// clocking regardless of mode).
const HSU_CONTROL_PJ: f64 = 6.0;

/// Per-value operand routing/broadcast energy in pJ (wide modes pay to fan
/// the query operand across lanes).
const ROUTING_PJ_PER_VALUE: f64 = 0.55;

/// Functional-unit activations of one operation of `mode`, per stage:
/// `(adders, multipliers, comparators)`.
pub fn mode_activity(mode: OperatingMode) -> [(u32, u32, u32); PIPELINE_DEPTH] {
    match mode {
        OperatingMode::RayBox => [
            (24, 0, 0),
            (0, 24, 0),
            (0, 0, 36),
            (0, 0, 16),
            (2, 0, 8),
            (0, 0, 4),
            (0, 0, 4),
            (0, 0, 2),
            (0, 0, 1),
        ],
        OperatingMode::RayTriangle => [
            (9, 0, 0),
            (6, 6, 0),
            (6, 6, 0),
            (4, 0, 0),
            (2, 3, 0),
            (1, 3, 0),
            (0, 3, 0),
            (2, 0, 0),
            (1, 0, 4),
        ],
        OperatingMode::Euclid => [
            (16, 0, 0),
            (0, 16, 0),
            (8, 0, 0),
            (4, 0, 0),
            (2, 0, 0),
            (1, 0, 0),
            (0, 0, 0),
            (1, 0, 0),
            (1, 0, 0),
        ],
        OperatingMode::Angular => [
            (0, 0, 0),
            (0, 16, 0),
            (8, 0, 0),
            (4, 0, 0),
            (2, 0, 0),
            (0, 0, 0),
            (0, 0, 0),
            (2, 0, 0),
            (2, 0, 0),
        ],
        OperatingMode::KeyCompare => [
            (0, 0, 0),
            (0, 0, 0),
            (0, 0, 36),
            (0, 0, 0),
            (0, 0, 0),
            (0, 0, 0),
            (0, 0, 0),
            (0, 0, 0),
            (1, 0, 0),
        ],
    }
}

/// Values fanned across the datapath per operation (routing energy).
fn routed_values(mode: OperatingMode) -> u32 {
    match mode {
        OperatingMode::RayBox => 8,      // ray constants broadcast to 4 boxes
        OperatingMode::RayTriangle => 6, // shear constants to 3 vertices
        OperatingMode::Euclid => 32,     // 16 candidate + 16 query values
        OperatingMode::Angular => 24,    // 8 lanes x (cand, query, norm path)
        OperatingMode::KeyCompare => 36, // key broadcast to 36 comparators
    }
}

/// Energy of one operation of `mode` in pJ, excluding register clocking.
fn op_energy_pj(mode: OperatingMode) -> f64 {
    let mut pj = 0.0;
    for (adds, muls, cmps) in mode_activity(mode) {
        pj += adds as f64 * FuKind::FpAdd.energy_pj();
        pj += muls as f64 * FuKind::FpMul.energy_pj();
        pj += cmps as f64 * FuKind::Comparator.energy_pj();
    }
    pj + routed_values(mode) as f64 * ROUTING_PJ_PER_VALUE
}

/// Register-clocking energy per cycle for `mode` on `datapath`, in pJ.
fn register_energy_pj(mode: OperatingMode, datapath: DatapathKind) -> f64 {
    let own =
        mode_register_bits(mode) as f64 * PIPELINE_DEPTH as f64 * FuKind::RegisterBit.energy_pj();
    let overhead = match datapath {
        DatapathKind::BaselineRt => 0.0,
        DatapathKind::Hsu => own * HSU_FANOUT_FRACTION + HSU_CONTROL_PJ,
        // Multiplexed stage registers clock fewer redundant bits; only the
        // control-plane overhead remains.
        DatapathKind::HsuOptimized => HSU_CONTROL_PJ,
    };
    own + overhead
}

/// Dynamic power of `mode` running back-to-back on `datapath`, in mW at
/// 1 GHz — the bars of Fig. 16.
///
/// # Panics
///
/// Panics if an HSU-only mode is priced on the baseline datapath.
pub fn mode_power_mw(mode: OperatingMode, datapath: DatapathKind) -> f64 {
    if datapath == DatapathKind::BaselineRt {
        assert!(
            !mode.is_extension(),
            "{mode} does not exist on the baseline RT datapath"
        );
    }
    (op_energy_pj(mode) + register_energy_pj(mode, datapath)) * CLOCK_GHZ
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_core::pipeline::DatapathPipeline;

    /// Integrates power over a cycle-accurate pipeline run — the "random series
    /// of input stimulus" methodology of §VI-K — to check the static
    /// [`mode_power_mw`] estimate against. Returns mean dynamic power in mW
    /// given the per-cycle stage occupancy of a [`DatapathPipeline`].
    #[derive(Debug, Default)]
    struct PowerMeter {
        cycles: u64,
        energy_pj: f64,
    }

    impl PowerMeter {
        /// Creates an idle meter.
        fn new() -> Self {
            Self::default()
        }

        /// Samples one cycle of a pipeline on `datapath`. Each occupied stage
        /// contributes its mode's per-stage activity; register clocking is
        /// charged for the whole datapath width once per cycle when any stage is
        /// occupied.
        fn sample(&mut self, pipe: &DatapathPipeline, datapath: DatapathKind) {
            self.cycles += 1;
            let stage_modes = pipe.stage_modes();
            let mut any = false;
            for (stage, slot) in stage_modes.iter().enumerate() {
                let Some(mode) = slot else { continue };
                any = true;
                let (adds, muls, cmps) = mode_activity(*mode)[stage];
                self.energy_pj += adds as f64 * FuKind::FpAdd.energy_pj()
                    + muls as f64 * FuKind::FpMul.energy_pj()
                    + cmps as f64 * FuKind::Comparator.energy_pj();
                self.energy_pj +=
                    routed_values(*mode) as f64 * ROUTING_PJ_PER_VALUE / PIPELINE_DEPTH as f64;
            }
            if any {
                // One representative mode's registers clock each cycle; charge
                // the mix-weighted mean of occupied stages.
                let occupied: Vec<OperatingMode> = stage_modes.iter().flatten().copied().collect();
                let mean: f64 = occupied
                    .iter()
                    .map(|&m| register_energy_pj(m, datapath))
                    .sum::<f64>()
                    / occupied.len() as f64;
                self.energy_pj += mean;
            }
        }

        /// Mean power over the sampled cycles, in mW at 1 GHz.
        fn mean_power_mw(&self) -> f64 {
            if self.cycles == 0 {
                0.0
            } else {
                self.energy_pj / self.cycles as f64 * CLOCK_GHZ
            }
        }
    }

    #[test]
    fn figure_16_shape() {
        let base_box = mode_power_mw(OperatingMode::RayBox, DatapathKind::BaselineRt);
        let base_tri = mode_power_mw(OperatingMode::RayTriangle, DatapathKind::BaselineRt);
        let hsu_box = mode_power_mw(OperatingMode::RayBox, DatapathKind::Hsu);
        let hsu_tri = mode_power_mw(OperatingMode::RayTriangle, DatapathKind::Hsu);
        let euclid = mode_power_mw(OperatingMode::Euclid, DatapathKind::Hsu);
        let angular = mode_power_mw(OperatingMode::Angular, DatapathKind::Hsu);
        let key = mode_power_mw(OperatingMode::KeyCompare, DatapathKind::Hsu);

        // Paper values: baseline box ≈ 74 mW; HSU adds ~10 (box) / ~8 (tri);
        // euclid 79 ≈ baseline box + 5; angular 67.
        assert!(
            (base_box - 74.0).abs() < 8.0,
            "baseline ray-box {base_box:.1} mW"
        );
        let d_box = hsu_box - base_box;
        let d_tri = hsu_tri - base_tri;
        assert!((6.0..14.0).contains(&d_box), "box delta {d_box:.1}");
        assert!((5.0..13.0).contains(&d_tri), "tri delta {d_tri:.1}");
        let d_euclid = euclid - base_box;
        assert!(
            (1.0..10.0).contains(&d_euclid),
            "euclid - baseline box = {d_euclid:.1}"
        );
        assert!(
            angular < euclid,
            "angular {angular:.1} !< euclid {euclid:.1}"
        );
        assert!(
            (angular / euclid - 67.0 / 79.0).abs() < 0.15,
            "angular/euclid ratio"
        );
        assert!(key < angular, "key compare must be the cheapest mode");
        assert!(base_tri < base_box, "triangle mode is narrower than box");
    }

    #[test]
    #[should_panic(expected = "does not exist on the baseline")]
    fn baseline_rejects_extension_modes() {
        mode_power_mw(OperatingMode::Euclid, DatapathKind::BaselineRt);
    }

    #[test]
    fn meter_matches_static_estimate_for_steady_state() {
        let mut pipe = DatapathPipeline::new();
        let mut meter = PowerMeter::new();
        for _ in 0..500 {
            pipe.issue(OperatingMode::Euclid, 0);
            pipe.tick();
            meter.sample(&pipe, DatapathKind::Hsu);
        }
        let measured = meter.mean_power_mw();
        let expected = mode_power_mw(OperatingMode::Euclid, DatapathKind::Hsu);
        assert!(
            (measured - expected).abs() / expected < 0.15,
            "meter {measured:.1} vs static {expected:.1}"
        );
    }

    #[test]
    fn meter_handles_mixed_modes() {
        let mut pipe = DatapathPipeline::new();
        let mut meter = PowerMeter::new();
        for i in 0..600u64 {
            let mode = OperatingMode::ALL[(i % 5) as usize];
            pipe.issue(mode, i);
            pipe.tick();
            meter.sample(&pipe, DatapathKind::Hsu);
        }
        let mixed = meter.mean_power_mw();
        let min = mode_power_mw(OperatingMode::KeyCompare, DatapathKind::Hsu);
        let max = mode_power_mw(OperatingMode::RayBox, DatapathKind::Hsu);
        assert!(
            mixed > min && mixed < max + 10.0,
            "mixed {mixed:.1} outside [{min:.1}, {max:.1}]"
        );
    }

    #[test]
    fn idle_meter_reports_zero() {
        assert_eq!(PowerMeter::new().mean_power_mw(), 0.0);
    }
}
