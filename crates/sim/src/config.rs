//! Simulator configuration (paper Table III).

use crate::error::SimError;
use hsu_core::HsuConfig;

/// How the RT/HSU unit's CISC fetches reach memory (paper §VI-I discusses
/// both alternatives as fixes for L1/MSHR contention).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RtCachePolicy {
    /// Time-share the SM's L1 data cache with the load-store unit (the
    /// paper's evaluated design).
    SharedWithLsu,
    /// Give the RT unit its own private cache of the given size.
    Private {
        /// Private cache capacity in bytes.
        bytes: usize,
    },
    /// Bypass the L1 entirely: RT fetches go straight to the L2.
    Bypass,
}

/// How [`crate::Gpu::run`] advances simulated time.
///
/// Both modes produce identical reports for every kernel — the equivalence
/// is locked by `tests/sim_equivalence.rs` — but [`SimMode::Event`] skips
/// cycles in which no component can change state (long DRAM stalls), which
/// makes memory-bound workloads simulate several times faster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// Tick every SM and the memory hierarchy on every cycle. The legacy
    /// loop, kept as the oracle for differential testing.
    Stepped,
    /// Fast-forward to the earliest cycle any component reports it can
    /// change state (`next_event`), accounting skipped cycles in bulk.
    #[default]
    Event,
}

impl SimMode {
    /// CLI / display name (`stepped` or `event`).
    pub fn name(self) -> &'static str {
        match self {
            SimMode::Stepped => "stepped",
            SimMode::Event => "event",
        }
    }

    /// All modes, in oracle-first order (handy for differential sweeps).
    pub const ALL: [SimMode; 2] = [SimMode::Stepped, SimMode::Event];
}

impl std::str::FromStr for SimMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "stepped" => Ok(SimMode::Stepped),
            "event" => Ok(SimMode::Event),
            other => Err(format!("unknown sim mode '{other}' (stepped|event)")),
        }
    }
}

/// Full machine configuration.
///
/// [`GpuConfig::volta_v100`] reproduces Table III; [`GpuConfig::small`] is a
/// scaled machine (fewer SMs) used by tests and the figure harnesses, which
/// report relative quantities only.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: usize,
    /// Sub-cores (warp schedulers) per SM.
    pub sub_cores: usize,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: usize,
    /// RT/HSU unit configuration (one unit per SM).
    pub hsu: HsuConfig,
    /// How RT-unit fetches interact with the L1 (§VI-I ablation).
    pub rt_cache: RtCachePolicy,
    /// ALU latency in cycles (dependent issue-to-ready).
    pub alu_latency: u64,
    /// Shared-memory access latency in cycles.
    pub shared_latency: u64,
    /// L1 data cache size in bytes.
    pub l1_bytes: usize,
    /// L1 associativity.
    pub l1_ways: usize,
    /// L1 hit latency in cycles.
    pub l1_latency: u64,
    /// MSHR entries per L1.
    pub l1_mshrs: usize,
    /// Cache line size in bytes (applies to all levels).
    pub line_bytes: usize,
    /// L2 size in bytes.
    pub l2_bytes: usize,
    /// L2 associativity (24-way in Table III).
    pub l2_ways: usize,
    /// L2 banks (each accepts one lookup per cycle).
    pub l2_banks: usize,
    /// Additional round-trip latency SM ↔ L2 (interconnect + lookup).
    pub l2_latency: u64,
    /// HBM channels.
    pub dram_channels: usize,
    /// Banks per channel.
    pub dram_banks: usize,
    /// DRAM row size in bytes.
    pub dram_row_bytes: usize,
    /// Service time of a row-buffer hit, in cycles.
    pub dram_row_hit_cycles: u64,
    /// Service time including precharge + activate on a row miss.
    pub dram_row_miss_cycles: u64,
    /// Data-transfer occupancy per line, in cycles (bandwidth bound).
    pub dram_transfer_cycles: u64,
    /// Safety valve: abort if a kernel exceeds this many cycles.
    pub max_cycles: u64,
    /// How the run loop advances time (identical results either way).
    pub sim_mode: SimMode,
}

impl GpuConfig {
    /// The paper's Table III configuration (Volta V100-class).
    pub fn volta_v100() -> Self {
        GpuConfig {
            num_sms: 80,
            sub_cores: 4,
            max_warps_per_sm: 64,
            hsu: HsuConfig::default(),
            rt_cache: RtCachePolicy::SharedWithLsu,
            alu_latency: 4,
            shared_latency: 24,
            l1_bytes: 128 * 1024,
            l1_ways: 8,
            l1_latency: 28,
            l1_mshrs: 48,
            line_bytes: 128,
            l2_bytes: 6 * 1024 * 1024,
            l2_ways: 24,
            l2_banks: 16,
            l2_latency: 180,
            dram_channels: 8,
            dram_banks: 16,
            dram_row_bytes: 2048,
            dram_row_hit_cycles: 20,
            dram_row_miss_cycles: 48,
            dram_transfer_cycles: 4,
            max_cycles: 2_000_000_000,
            sim_mode: SimMode::default(),
        }
    }

    /// A scaled machine for laptop-sized experiments: 16 SMs, same per-SM
    /// structure, proportionally scaled L2 and DRAM channels.
    pub fn small() -> Self {
        GpuConfig {
            num_sms: 16,
            l2_bytes: 2 * 1024 * 1024,
            l2_banks: 8,
            dram_channels: 4,
            ..Self::volta_v100()
        }
    }

    /// A single-SM machine for unit tests.
    pub fn tiny() -> Self {
        GpuConfig {
            num_sms: 1,
            max_warps_per_sm: 16,
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            l2_banks: 2,
            dram_channels: 1,
            ..Self::volta_v100()
        }
    }

    /// Replaces the HSU configuration (width / warp-buffer sweeps).
    pub fn with_hsu(mut self, hsu: HsuConfig) -> Self {
        self.hsu = hsu;
        self
    }

    /// Replaces the simulation mode (stepped oracle vs event-driven).
    pub fn with_sim_mode(mut self, mode: SimMode) -> Self {
        self.sim_mode = mode;
        self
    }

    /// Number of L1 sets.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide evenly.
    pub fn l1_sets(&self) -> usize {
        let sets = self.l1_bytes / (self.l1_ways * self.line_bytes);
        assert!(sets > 0, "L1 geometry yields zero sets");
        sets
    }

    /// Number of L2 sets.
    pub fn l2_sets(&self) -> usize {
        let sets = self.l2_bytes / (self.l2_ways * self.line_bytes);
        assert!(sets > 0, "L2 geometry yields zero sets");
        sets
    }

    /// Lines per DRAM row.
    pub fn lines_per_row(&self) -> u64 {
        (self.dram_row_bytes / self.line_bytes) as u64
    }

    /// Rejects configurations the simulator cannot meaningfully run,
    /// returning [`SimError::InvalidConfig`] naming the offending field.
    ///
    /// Called by [`crate::Gpu::run`] before simulating (and by `repro`
    /// before building a suite), so nonsense configs surface as typed
    /// errors instead of divide-by-zero panics or silent empty reports.
    ///
    /// Notably, `max_cycles == 0` is rejected rather than interpreted as
    /// "run zero cycles": a guard that can never be satisfied is a config
    /// bug, not a degenerate run.
    pub fn validate(&self) -> Result<(), SimError> {
        fn bad(field: &'static str, value: impl ToString, reason: &'static str) -> SimError {
            SimError::InvalidConfig {
                field,
                value: value.to_string(),
                reason,
            }
        }
        if self.num_sms == 0 {
            return Err(bad("num_sms", self.num_sms, "need at least one SM"));
        }
        if self.sub_cores == 0 {
            return Err(bad(
                "sub_cores",
                self.sub_cores,
                "need at least one sub-core",
            ));
        }
        if self.max_warps_per_sm == 0 {
            return Err(bad(
                "max_warps_per_sm",
                self.max_warps_per_sm,
                "need at least one resident warp slot",
            ));
        }
        if self.hsu.warp_buffer_entries == 0 {
            return Err(bad(
                "hsu.warp_buffer_entries",
                self.hsu.warp_buffer_entries,
                "the RT unit needs at least one warp-buffer entry",
            ));
        }
        // The angular mode is half as wide as the Euclidean one, so an odd
        // or sub-2 width leaves it zero (or fractional) lanes wide.
        if self.hsu.euclid_width < 2 || !self.hsu.euclid_width.is_multiple_of(2) {
            return Err(bad(
                "hsu.euclid_width",
                self.hsu.euclid_width,
                "the Euclidean datapath width must be an even number >= 2",
            ));
        }
        if self.hsu.key_compare_width == 0 {
            return Err(bad(
                "hsu.key_compare_width",
                self.hsu.key_compare_width,
                "KEY_COMPARE needs at least one comparator",
            ));
        }
        if self.line_bytes == 0 {
            return Err(bad(
                "line_bytes",
                self.line_bytes,
                "line size must be nonzero",
            ));
        }
        if self.l1_ways == 0 {
            return Err(bad(
                "l1_ways",
                self.l1_ways,
                "associativity must be nonzero",
            ));
        }
        if self.l1_mshrs == 0 {
            return Err(bad(
                "l1_mshrs",
                self.l1_mshrs,
                "an L1 without MSHRs can never service a miss",
            ));
        }
        if self.l1_bytes < self.l1_ways * self.line_bytes {
            return Err(bad(
                "l1_bytes",
                self.l1_bytes,
                "L1 geometry yields zero sets (l1_bytes < l1_ways * line_bytes)",
            ));
        }
        if self.l2_ways == 0 {
            return Err(bad(
                "l2_ways",
                self.l2_ways,
                "associativity must be nonzero",
            ));
        }
        if self.l2_banks == 0 {
            return Err(bad("l2_banks", self.l2_banks, "need at least one L2 bank"));
        }
        if self.l2_bytes < self.l2_ways * self.line_bytes {
            return Err(bad(
                "l2_bytes",
                self.l2_bytes,
                "L2 geometry yields zero sets (l2_bytes < l2_ways * line_bytes)",
            ));
        }
        if self.dram_channels == 0 {
            return Err(bad(
                "dram_channels",
                self.dram_channels,
                "need at least one DRAM channel",
            ));
        }
        if self.dram_banks == 0 {
            return Err(bad(
                "dram_banks",
                self.dram_banks,
                "need at least one bank per channel",
            ));
        }
        if self.dram_row_bytes < self.line_bytes {
            return Err(bad(
                "dram_row_bytes",
                self.dram_row_bytes,
                "a DRAM row must hold at least one line",
            ));
        }
        if self.dram_transfer_cycles == 0 {
            return Err(bad(
                "dram_transfer_cycles",
                self.dram_transfer_cycles,
                "transfer occupancy must be nonzero",
            ));
        }
        if self.max_cycles == 0 {
            return Err(bad(
                "max_cycles",
                self.max_cycles,
                "a zero-cycle guard can never be satisfied",
            ));
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::small()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_iii_values() {
        let cfg = GpuConfig::volta_v100();
        assert_eq!(cfg.num_sms, 80);
        assert_eq!(cfg.sub_cores, 4);
        assert_eq!(cfg.max_warps_per_sm, 64);
        assert_eq!(cfg.hsu.warp_buffer_entries, 8);
        assert_eq!(cfg.l1_bytes, 128 * 1024);
        assert_eq!(cfg.l2_bytes, 6 * 1024 * 1024);
        assert_eq!(cfg.l2_ways, 24);
        assert_eq!(cfg.line_bytes, 128);
    }

    #[test]
    fn geometry_is_consistent() {
        for cfg in [
            GpuConfig::volta_v100(),
            GpuConfig::small(),
            GpuConfig::tiny(),
        ] {
            assert!(cfg.l1_sets().is_power_of_two());
            assert!(cfg.l2_sets() > 0);
            assert_eq!(cfg.lines_per_row(), 16);
        }
    }

    #[test]
    fn sim_mode_round_trips_and_defaults_to_event() {
        assert_eq!(GpuConfig::volta_v100().sim_mode, SimMode::Event);
        assert_eq!("stepped".parse::<SimMode>().unwrap(), SimMode::Stepped);
        assert_eq!("event".parse::<SimMode>().unwrap(), SimMode::Event);
        assert!("cycle".parse::<SimMode>().is_err());
        assert!("parallel".parse::<SimMode>().is_err());
        assert!("parallel-epoch".parse::<SimMode>().is_err());
        for mode in SimMode::ALL {
            assert_eq!(mode.name().parse::<SimMode>().unwrap(), mode);
        }
        let cfg = GpuConfig::tiny().with_sim_mode(SimMode::Stepped);
        assert_eq!(cfg.sim_mode, SimMode::Stepped);
    }

    #[test]
    fn validate_accepts_every_preset() {
        for cfg in [
            GpuConfig::volta_v100(),
            GpuConfig::small(),
            GpuConfig::tiny(),
        ] {
            cfg.validate().expect("preset must validate");
        }
    }

    #[test]
    fn validate_names_the_offending_field() {
        let cases: Vec<(&'static str, GpuConfig)> = vec![
            (
                "num_sms",
                GpuConfig {
                    num_sms: 0,
                    ..GpuConfig::tiny()
                },
            ),
            (
                "l1_mshrs",
                GpuConfig {
                    l1_mshrs: 0,
                    ..GpuConfig::tiny()
                },
            ),
            (
                "max_cycles",
                GpuConfig {
                    max_cycles: 0,
                    ..GpuConfig::tiny()
                },
            ),
            (
                "l1_bytes",
                GpuConfig {
                    l1_bytes: 64,
                    ..GpuConfig::tiny()
                },
            ),
            (
                "dram_row_bytes",
                GpuConfig {
                    dram_row_bytes: 8,
                    ..GpuConfig::tiny()
                },
            ),
        ];
        for (want, cfg) in cases {
            match cfg.validate() {
                Err(SimError::InvalidConfig { field, .. }) => {
                    assert_eq!(field, want, "wrong field blamed")
                }
                other => panic!("{want}: expected InvalidConfig, got {other:?}"),
            }
        }
    }

    #[test]
    fn small_preserves_per_sm_structure() {
        let small = GpuConfig::small();
        let big = GpuConfig::volta_v100();
        assert_eq!(small.max_warps_per_sm, big.max_warps_per_sm);
        assert_eq!(small.l1_bytes, big.l1_bytes);
        assert_eq!(small.hsu, big.hsu);
    }
}
