//! One formatter per paper table/figure.
//!
//! Each function renders the rows/series the corresponding figure plots; the
//! `repro` binary prints them, and EXPERIMENTS.md records paper-vs-measured.

use std::fmt::Write as _;

use crate::suite::{geomean, App, Suite};
use hsu_core::pipeline::OperatingMode;
use hsu_core::HsuConfig;
use hsu_datasets::{catalog, DatasetId};
use hsu_kernels::rtindex::{RtIndexParams, RtIndexWorkload};
use hsu_kernels::Variant;
use hsu_rtl::area::{AreaBreakdown, DatapathKind};
use hsu_rtl::power::mode_power_mw;
use hsu_sim::config::{GpuConfig, SimMode};
use hsu_sim::{Gpu, SimError};

/// Table II: the dataset inventory.
pub fn table2() -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:>6} {:>5} {:>12} {:>12} {:>6}",
        "Dataset", "Abbr", "Dim", "PaperPts", "ScaledPts", "Dist"
    );
    for s in catalog() {
        let dist = match s.metric {
            Some(hsu_geometry::point::Metric::Angular) => "A",
            Some(hsu_geometry::point::Metric::Euclidean) => "E",
            None => "N/A",
        };
        let _ = writeln!(
            out,
            "{:<14} {:>6} {:>5} {:>12} {:>12} {:>6}",
            format!("{:?}", s.id),
            s.abbr,
            s.dims,
            s.paper_points,
            s.scaled_points,
            dist
        );
    }
    out
}

/// Table III: the simulator configuration actually used.
pub fn table3(sms: usize) -> String {
    let cfg = GpuConfig {
        num_sms: sms,
        ..GpuConfig::small()
    };
    let mut out = String::new();
    let paper = GpuConfig::volta_v100();
    let _ = writeln!(
        out,
        "{:<28} {:>12} {:>12}",
        "Parameter", "Paper", "This run"
    );
    let mut row = |name: &str, paper: String, ours: String| {
        let _ = writeln!(out, "{name:<28} {paper:>12} {ours:>12}");
    };
    row("# SMs", paper.num_sms.to_string(), cfg.num_sms.to_string());
    row(
        "Sub-cores / SM",
        paper.sub_cores.to_string(),
        cfg.sub_cores.to_string(),
    );
    row("Warp scheduler", "GTO".into(), "GTO".into());
    row(
        "Max warps / SM",
        paper.max_warps_per_sm.to_string(),
        cfg.max_warps_per_sm.to_string(),
    );
    row("RT units / SM", "1".into(), "1".into());
    row(
        "Warp buffer size",
        paper.hsu.warp_buffer_entries.to_string(),
        cfg.hsu.warp_buffer_entries.to_string(),
    );
    row(
        "L1/shared per SM",
        format!("{} KB", paper.l1_bytes / 1024),
        format!("{} KB", cfg.l1_bytes / 1024),
    );
    row(
        "L2 cache",
        format!("{}-way {} MB", paper.l2_ways, paper.l2_bytes >> 20),
        format!("{}-way {} MB", cfg.l2_ways, cfg.l2_bytes >> 20),
    );
    row(
        "Line size",
        format!("{} B", paper.line_bytes),
        format!("{} B", cfg.line_bytes),
    );
    row(
        "HBM channels",
        paper.dram_channels.to_string(),
        cfg.dram_channels.to_string(),
    );
    out
}

/// Fig. 7: proportion of baseline cycles spent on HSU-able operations.
pub fn fig7(suite: &Suite) -> String {
    let mut out = String::from("Fig.7  offloadable share of non-RT baseline cycles\n");
    let _ = writeln!(out, "{:<10} {:>10}", "workload", "share");
    for r in &suite.runs {
        let _ = writeln!(out, "{:<10} {:>9.1}%", r.label, r.offloadable() * 100.0);
    }
    for app in [App::Ggnn, App::Flann, App::Bvhnn, App::Btree] {
        let vals: Vec<f64> = suite.runs_for(app).map(|r| r.offloadable()).collect();
        let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
        let _ = writeln!(out, "{:<10} {:>9.1}%  (mean)", app.name(), mean * 100.0);
    }
    out
}

/// Fig. 8: roofline — HSU ops/cycle vs ops per L2 line, per workload.
pub fn fig8(suite: &Suite) -> String {
    let mut out = String::from("Fig.8  roofline of the HSU (compute bound = 1 op/cycle/unit)\n");
    let _ = writeln!(
        out,
        "{:<10} {:>14} {:>12}",
        "workload", "ops/L2-line", "ops/cycle"
    );
    for r in &suite.runs {
        let _ = writeln!(
            out,
            "{:<10} {:>14.3} {:>12.4}",
            r.label,
            r.hsu.operational_intensity(),
            r.hsu.hsu_ops_per_cycle()
        );
    }
    out
}

/// Fig. 9: the headline HSU speedups over the non-RT baseline.
pub fn fig9(suite: &Suite) -> String {
    let mut out = String::from("Fig.9  speedup with HSU over non-RT baseline\n");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>12}",
        "workload", "speedup", "hsu cycles", "base cycles"
    );
    for r in &suite.runs {
        let _ = writeln!(
            out,
            "{:<10} {:>9.1}% {:>12} {:>12}",
            r.label,
            (r.speedup() - 1.0) * 100.0,
            r.hsu.cycles,
            r.base.cycles
        );
    }
    let _ = writeln!(
        out,
        "-- per-app mean (paper: GGNN +24.8%, FLANN +16.4%, BVH-NN +33.9%, B+ +13.5%)"
    );
    for app in [App::Ggnn, App::Flann, App::Bvhnn, App::Btree] {
        let _ = writeln!(
            out,
            "{:<10} {:>9.1}%",
            app.name(),
            (suite.mean_speedup(app) - 1.0) * 100.0
        );
    }
    out
}

/// Fig. 10: datapath-width sensitivity on GGNN (Euclid width 4/8/16/32;
/// angular is half).
///
/// The 9 × 4 (dataset × width) sweep grid runs on the job pool
/// ([`crate::runner`], `suite.config.jobs` workers); the table is formatted
/// from results merged in grid order, so output is identical for any worker
/// count.
///
/// # Errors
///
/// Propagates the first [`SimError`] any sweep cell hits.
pub fn fig10(suite: &Suite) -> Result<String, SimError> {
    let widths = [4usize, 8, 16, 32];
    let ggnn: Vec<&crate::suite::AppTraces> = suite.traces_for(App::Ggnn).collect();
    let mut jobs = Vec::new();
    for at in &ggnn {
        for w in widths {
            jobs.push((*at, w));
        }
    }
    let cycles = crate::runner::run_jobs(suite.config.jobs, jobs, |_, (at, w)| {
        let cfg = GpuConfig {
            hsu: HsuConfig::default().with_euclid_width(w),
            ..suite.config.gpu_config()
        };
        Gpu::new(cfg).run(&at.hsu).map(|r| r.cycles)
    });
    let cycles: Vec<u64> = cycles.into_iter().collect::<Result<_, _>>()?;

    let mut out = String::from("Fig.10 GGNN speedup vs datapath width (over non-RT baseline)\n");
    let _ = write!(out, "{:<10}", "dataset");
    for w in widths {
        let _ = write!(out, " {:>8}", format!("w={w}"));
    }
    let _ = writeln!(out);
    let mut cycles = cycles.into_iter();
    for at in &ggnn {
        let id = at.dataset;
        let Some(base) = suite.runs_for(App::Ggnn).find(|r| r.dataset == id) else {
            panic!("GGNN run for {id:?} missing from the suite");
        };
        let _ = write!(out, "{:<10}", base.label);
        for _ in widths {
            let Some(hsu_cycles) = cycles.next() else {
                unreachable!("one sweep cell per dataset × width");
            };
            let speedup = base.base.cycles as f64 / hsu_cycles as f64;
            let _ = write!(out, " {:>7.1}%", (speedup - 1.0) * 100.0);
        }
        let _ = writeln!(out);
    }
    Ok(out)
}

/// Fig. 11: warp-buffer-size sensitivity for GGNN (a), BVH-NN (b), FLANN (c).
///
/// The (9 + 5 + 5) × 5 (dataset × buffer-size) grid runs on the job
/// pool, merged in grid order for determinism.
///
/// # Errors
///
/// Propagates the first [`SimError`] any sweep cell hits.
pub fn fig11(suite: &Suite) -> Result<String, SimError> {
    let sizes = [1usize, 2, 4, 8, 16];
    let panels: [(&str, App); 3] = [
        ("(a) GGNN", App::Ggnn),
        ("(b) BVH-NN", App::Bvhnn),
        ("(c) FLANN", App::Flann),
    ];

    let hsu_trace = |app: App, dataset| {
        let Some(at) = suite.traces_for(app).find(|t| t.dataset == dataset) else {
            panic!("{app:?} traces for {dataset:?} not retained");
        };
        &at.hsu
    };
    let mut jobs = Vec::new();
    for (_, app) in panels {
        for base in suite.runs_for(app) {
            for s in sizes {
                jobs.push((app, base.dataset, s));
            }
        }
    }
    let cycles = crate::runner::run_jobs(suite.config.jobs, jobs, |_, (app, dataset, s)| {
        let cfg = GpuConfig {
            hsu: HsuConfig::default().with_warp_buffer(s),
            ..suite.config.gpu_config()
        };
        Gpu::new(cfg).run(hsu_trace(app, dataset)).map(|r| r.cycles)
    });
    let cycles: Vec<u64> = cycles.into_iter().collect::<Result<_, _>>()?;

    let mut out = String::from("Fig.11 speedup vs warp buffer size (over non-RT baseline)\n");
    let mut cycles = cycles.into_iter();
    for (title, app) in panels {
        let _ = writeln!(out, "{title}");
        let _ = write!(out, "{:<10}", "dataset");
        for s in sizes {
            let _ = write!(out, " {:>8}", format!("wb={s}"));
        }
        let _ = writeln!(out);
        for base in suite.runs_for(app) {
            let _ = write!(out, "{:<10}", base.label);
            for _ in sizes {
                let Some(hsu_cycles) = cycles.next() else {
                    unreachable!("one sweep cell per dataset × size");
                };
                let speedup = base.base.cycles as f64 / hsu_cycles as f64;
                let _ = write!(out, " {:>7.1}%", (speedup - 1.0) * 100.0);
            }
            let _ = writeln!(out);
        }
    }
    Ok(out)
}

/// Fig. 12: HSU L1D accesses normalized to the non-RT baseline.
pub fn fig12(suite: &Suite) -> String {
    let mut out = String::from("Fig.12 L1D accesses, HSU / baseline\n");
    let _ = writeln!(
        out,
        "{:<10} {:>10} {:>12} {:>12}",
        "workload", "ratio", "hsu", "base"
    );
    for r in &suite.runs {
        let ratio = r.hsu.l1_accesses() as f64 / r.base.l1_accesses().max(1) as f64;
        let _ = writeln!(
            out,
            "{:<10} {:>10.3} {:>12} {:>12}",
            r.label,
            ratio,
            r.hsu.l1_accesses(),
            r.base.l1_accesses()
        );
    }
    out
}

/// Fig. 13: L1 data-cache miss rates (MSHR merges count as hits).
pub fn fig13(suite: &Suite) -> String {
    let mut out = String::from("Fig.13 L1D miss rate\n");
    let _ = writeln!(out, "{:<10} {:>10} {:>10}", "workload", "hsu", "base");
    for r in &suite.runs {
        let _ = writeln!(
            out,
            "{:<10} {:>9.1}% {:>9.1}%",
            r.label,
            r.hsu.l1_miss_rate() * 100.0,
            r.base.l1_miss_rate() * 100.0
        );
    }
    out
}

/// Fig. 14: mean DRAM row-access locality under FR-FCFS.
pub fn fig14(suite: &Suite) -> String {
    let mut out = String::from("Fig.14 mean DRAM row locality (accesses per activation)\n");
    let _ = writeln!(out, "{:<10} {:>10} {:>10}", "workload", "hsu", "base");
    for r in &suite.runs {
        let _ = writeln!(
            out,
            "{:<10} {:>10.2} {:>10.2}",
            r.label,
            r.hsu.row_locality(),
            r.base.row_locality()
        );
    }
    out
}

/// Fig. 15: datapath area by resource class, HSU normalized to baseline.
pub fn fig15() -> String {
    let base = AreaBreakdown::of(DatapathKind::BaselineRt);
    let hsu = AreaBreakdown::of(DatapathKind::Hsu);
    let mut out = String::from("Fig.15 HSU datapath area normalized to baseline RT datapath\n");
    let _ = writeln!(
        out,
        "{:<12} {:>12} {:>12} {:>8}",
        "class", "base um^2", "hsu um^2", "ratio"
    );
    let ratios = hsu.normalized_to(&base);
    for (((kind, b), (_, h)), (_, ratio)) in base.classes.iter().zip(&hsu.classes).zip(ratios) {
        let _ = writeln!(
            out,
            "{:<12} {:>12.0} {:>12.0} {:>8.2}",
            kind.label(),
            b,
            h,
            ratio
        );
    }
    let _ = writeln!(
        out,
        "{:<12} {:>12.0} {:>12.0} {:>8.2}  (paper: 1.37)",
        "TOTAL",
        base.total(),
        hsu.total(),
        hsu.total() / base.total()
    );
    out
}

/// Fig. 16: per-operating-mode dynamic power.
pub fn fig16() -> String {
    let mut out = String::from("Fig.16 dynamic power per operating mode (mW @ 1 GHz)\n");
    let _ = writeln!(out, "{:<10} {:>10} {:>10}", "mode", "baseline", "hsu");
    for mode in OperatingMode::ALL {
        let base = if mode.is_extension() {
            "-".to_string()
        } else {
            format!("{:.1}", mode_power_mw(mode, DatapathKind::BaselineRt))
        };
        let _ = writeln!(
            out,
            "{:<10} {:>10} {:>10.1}",
            mode.label(),
            base,
            mode_power_mw(mode, DatapathKind::Hsu)
        );
    }
    let _ = writeln!(
        out,
        "(paper: euclid 79, angular 67; HSU adds ~10/8 mW to box/tri)"
    );
    out
}

/// §VI-G: the RTIndeX case study — native point keys vs triangle-encoded
/// keys, both with RT hardware (paper: +36.6 % and 9:1 key-store memory).
///
/// # Errors
///
/// Propagates any [`SimError`] from the two key-lookup simulations.
pub fn rtindex(sms: usize, scale_divisor: usize, sim_mode: SimMode) -> Result<String, SimError> {
    let params = RtIndexParams {
        keys: (16_384 / scale_divisor).max(512),
        lookups: (8_192 / scale_divisor).max(256),
        seed: 11,
    };
    let wl = RtIndexWorkload::build(&params);
    let gpu = Gpu::new(GpuConfig {
        num_sms: sms,
        sim_mode,
        ..GpuConfig::small()
    });
    let point = gpu.run(&wl.trace(Variant::Hsu))?;
    let triangle = gpu.run(&wl.trace(Variant::Baseline))?;
    let speedup = triangle.cycles as f64 / point.cycles as f64;
    let mut out =
        String::from("RTIndeX (sec.VI-G): key lookups, HSU point keys vs RT triangle keys\n");
    let _ = writeln!(
        out,
        "keys {}  lookups {}  hit-rate {:.3}",
        params.keys, params.lookups, wl.hit_rate
    );
    let _ = writeln!(out, "triangle-key cycles {:>10}", triangle.cycles);
    let _ = writeln!(out, "point-key cycles    {:>10}", point.cycles);
    let _ = writeln!(
        out,
        "speedup             {:>9.1}%  (paper: +36.6%)",
        (speedup - 1.0) * 100.0
    );
    let _ = writeln!(
        out,
        "key store           {:>10} B vs {} B ({}x, paper: 9:1 unpadded)",
        wl.key_store_bytes(params.keys, Variant::Baseline),
        wl.key_store_bytes(params.keys, Variant::Hsu),
        wl.key_store_bytes(params.keys, Variant::Baseline)
            / wl.key_store_bytes(params.keys, Variant::Hsu)
    );
    Ok(out)
}

/// Design-space ablations the paper calls out but does not evaluate:
/// BVH4 and SAH hierarchies for BVH-NN (§VI-E) and private/bypass RT-unit
/// caches (§VI-I). Both ablation grids run on the job pool with `jobs`
/// workers; rows are merged in grid order.
///
/// # Errors
///
/// Propagates the first [`SimError`] any grid cell hits.
pub fn ablation(
    sms: usize,
    scale_divisor: usize,
    jobs: usize,
    sim_mode: SimMode,
) -> Result<String, SimError> {
    use hsu_datasets::Dataset;
    use hsu_kernels::bvhnn::{BvhFlavor, BvhnnParams, BvhnnWorkload};
    use hsu_kernels::ggnn::{GgnnParams, GgnnWorkload};
    use hsu_sim::config::RtCachePolicy;

    let mut out = String::from("Ablations (paper design-space notes)\n");
    let gpu_cfg = GpuConfig {
        num_sms: sms,
        sim_mode,
        ..GpuConfig::small()
    };

    // (a) BVH flavor for BVH-NN on the dragon scan. One job per flavor
    // (each builds its own hierarchy over the shared point cloud); the
    // BVH2 job also simulates the non-RT baseline all rows compare against.
    let dragon = Dataset::generate_scaled(
        DatasetId::Dragon,
        7,
        Some((15_000 / scale_divisor).max(1_000)),
    );
    let Some(data) = dragon.points().cloned() else {
        panic!("Dragon is not a point dataset");
    };
    let queries = (4096 / scale_divisor).max(512);
    let _ = writeln!(out, "(a) BVH-NN hierarchy flavor (sec.VI-E), dataset DRG");
    let _ = writeln!(
        out,
        "{:<8} {:>12} {:>10}",
        "flavor", "hsu cycles", "speedup"
    );
    let flavor_jobs = vec![
        ("BVH2", BvhFlavor::Lbvh2, true),
        ("BVH4", BvhFlavor::Lbvh4, false),
        ("SAH2", BvhFlavor::Sah2, false),
    ];
    let flavor_rows = crate::runner::run_jobs(jobs, flavor_jobs, |_, (name, flavor, with_base)| {
        let wl = BvhnnWorkload::build_from_points(
            &BvhnnParams {
                points: data.len(),
                queries,
                radius_scale: 1.5,
                flavor,
                seed: 7,
            },
            &data,
        );
        let gpu = Gpu::new(gpu_cfg.clone());
        let hsu_cycles = gpu.run(&wl.trace(Variant::Hsu))?.cycles;
        let base_cycles = if with_base {
            Some(gpu.run(&wl.trace(Variant::Baseline))?.cycles)
        } else {
            None
        };
        Ok((name, hsu_cycles, base_cycles))
    });
    let flavor_rows: Vec<(&str, u64, Option<u64>)> =
        flavor_rows.into_iter().collect::<Result<_, SimError>>()?;
    let Some(base_cycles) = flavor_rows[0].2 else {
        unreachable!("BVH2 job carries the baseline");
    };
    for (name, hsu_cycles, _) in &flavor_rows {
        let _ = writeln!(
            out,
            "{:<8} {:>12} {:>9.1}%",
            name,
            hsu_cycles,
            (base_cycles as f64 / *hsu_cycles as f64 - 1.0) * 100.0
        );
    }

    // (b) RT-unit cache policy on GGNN mnist (the L1/MSHR-contention case).
    let spec = hsu_datasets::spec(DatasetId::Mnist);
    let mnist =
        Dataset::generate_scaled(DatasetId::Mnist, 7, Some((2_000 / scale_divisor).max(400)));
    let Some(data) = mnist.points().cloned() else {
        panic!("MNIST is not a point dataset");
    };
    let Some(metric) = spec.metric else {
        panic!("MNIST has no metric");
    };
    let wl = GgnnWorkload::build_from_points(
        &GgnnParams {
            points: data.len(),
            dim: spec.dims,
            queries: (128 / scale_divisor).max(32),
            metric,
            k: 10,
            ef: 64,
            m: 16,
            seed: 7,
        },
        &data,
    );
    let _ = writeln!(out, "(b) RT-unit cache policy (sec.VI-I), GGNN on MNT");
    let _ = writeln!(
        out,
        "{:<16} {:>12} {:>12}",
        "policy", "hsu cycles", "L1 miss"
    );
    let policy_jobs = vec![
        ("shared-L1", RtCachePolicy::SharedWithLsu),
        ("private-32KB", RtCachePolicy::Private { bytes: 32 * 1024 }),
        ("bypass-L1", RtCachePolicy::Bypass),
    ];
    let policy_rows = crate::runner::run_jobs(jobs, policy_jobs, |_, (name, policy)| {
        let gpu = Gpu::new(GpuConfig {
            rt_cache: policy,
            ..gpu_cfg.clone()
        });
        let r = gpu.run(&wl.trace(Variant::Hsu))?;
        Ok((name, r.cycles, r.l1_miss_rate()))
    });
    let policy_rows: Vec<(&str, u64, f64)> =
        policy_rows.into_iter().collect::<Result<_, SimError>>()?;
    for (name, cycles, miss) in policy_rows {
        let _ = writeln!(out, "{:<16} {:>12} {:>11.1}%", name, cycles, miss * 100.0);
    }
    Ok(out)
}

/// Per-app summary line used by `repro all`.
pub fn summary(suite: &Suite) -> String {
    let mut out = String::from("== summary: per-app HSU speedups ==\n");
    for app in [App::Ggnn, App::Flann, App::Bvhnn, App::Btree] {
        let speedups: Vec<f64> = suite.runs_for(app).map(|r| r.speedup()).collect();
        let _ = writeln!(
            out,
            "{:<8} geomean {:>6.1}%   min {:>6.1}%   max {:>6.1}%",
            app.name(),
            (geomean(&speedups) - 1.0) * 100.0,
            (speedups.iter().cloned().fold(f64::INFINITY, f64::min) - 1.0) * 100.0,
            (speedups.iter().cloned().fold(0.0, f64::max) - 1.0) * 100.0,
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_figures_render() {
        let t2 = table2();
        assert!(t2.contains("D1B") && t2.contains("B+10K"));
        let t3 = table3(8);
        assert!(t3.contains("GTO") && t3.contains("128 B"));
        let f15 = fig15();
        assert!(f15.contains("TOTAL"));
        let f16 = fig16();
        assert!(f16.contains("euclid"));
    }

    #[test]
    fn rtindex_speedup_positive() {
        let out = rtindex(2, 16, SimMode::default()).unwrap();
        assert!(out.contains("speedup"));
        // Extract the speedup percentage and check the sign.
        let line = out.lines().find(|l| l.contains("speedup")).unwrap();
        let pct: f64 = line
            .split_whitespace()
            .find(|t| t.ends_with('%'))
            .and_then(|t| t.trim_end_matches('%').parse().ok())
            .expect("speedup value");
        assert!(pct > 0.0, "point keys must win: {pct}%");
    }
}
