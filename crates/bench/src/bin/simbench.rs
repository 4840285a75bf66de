//! `simbench` — measure the event-driven run loop against the stepped
//! oracle on the full workload suite and append a machine-readable
//! trajectory entry.
//!
//! ```text
//! simbench [--quick] [--sms N] [--seed S] [--jobs N] [--pr LABEL] [--out PATH]
//! ```
//!
//! Builds the suite twice — once per [`hsu_sim::config::SimMode`] — then:
//!
//! 1. asserts every (app × dataset × variant) report is identical across
//!    both modes (exits non-zero on any divergence),
//! 2. **appends** an entry to the trajectory JSON (`BENCH_sim.json` by
//!    default): `{pr, config, runs, build_phase, modes, tick_reduction,
//!    speedup, memory, equivalent}` with wall time, simulated cycles, and
//!    SM ticks executed per mode, and the memory block: `traces_mb`, the
//!    heap of all three lowerings of every app × dataset as loaded from the
//!    warm cache ([`hsu_bench::AppLowerings::heap_bytes`] summed inside
//!    each build job, before it drops them), and
//!    `peak_rss_mb`, the process's peak resident set (`VmHWM`; `null` off
//!    Linux). The file is an append-only array so successive PRs record
//!    their own measurements next to history instead of erasing it; a file
//!    that holds anything but an array is refused, never overwritten.
//!
//! Before the mode runs, the workload build phase is probed through the
//! `.hsar` archive cache: once against an empty cache directory (cold —
//! generators and index builders run, archives are written) and once again
//! (warm — everything loads from the archives). Both wall-times land in the
//! entry's `build_phase` block, and the mode runs then reuse the warm
//! cache, which also exercises cold-vs-warm equivalence: any divergence the
//! cache introduced would trip the cross-mode report check. The probe
//! always uses a fresh directory under the system temp dir, removed at
//! exit, so the cold pass is never a warm one.
//!
//! `--jobs` sets the suite workers; each simulation runs on one thread.

use std::time::Instant;

use hsu_bench::trajectory::{append_entry, peak_rss_mb, Json};
use hsu_bench::{obj, runner, Suite, SuiteConfig};
use hsu_sim::config::SimMode;

/// One suite build's totals under one simulation mode.
struct ModeRun {
    runs: usize,
    build_wall_s: f64,
    sim_wall_s: f64,
    cycles: u64,
    ticks_executed: u64,
}

fn run_mode(config: &SuiteConfig, mode: SimMode) -> (Suite, ModeRun) {
    let start = Instant::now();
    let suite = Suite::build(config.clone().with_sim_mode(mode));
    let run = ModeRun {
        runs: suite.runs.len(),
        build_wall_s: start.elapsed().as_secs_f64(),
        sim_wall_s: suite.records.iter().map(|r| r.wall.as_secs_f64()).sum(),
        cycles: suite.records.iter().map(|r| r.cycles).sum(),
        ticks_executed: suite.records.iter().map(|r| r.ticks_executed).sum(),
    };
    (suite, run)
}

fn main() {
    // The scheduler bench simulates a 32-SM machine (closer to the paper's
    // 80 than the 8-SM default the EXPERIMENTS.md figures use): run-loop
    // skipping is a per-SM property, so machine size is part of the result
    // and is recorded in the JSON config block.
    let mut config = SuiteConfig {
        sms: 32,
        ..SuiteConfig::default()
    };
    let mut out_path = std::path::PathBuf::from("BENCH_sim.json");
    let mut pr_label = String::from("dev");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => {
                config.scale_divisor = 4;
            }
            "--sms" => {
                config.sms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--sms needs a number"));
            }
            "--seed" => {
                config.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--jobs" => {
                let n: usize = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--jobs needs a number (0 = all cores)"));
                config.jobs = if n == 0 { runner::default_jobs() } else { n };
            }
            "--pr" => {
                pr_label = args.next().unwrap_or_else(|| usage("--pr needs a label"));
            }
            "--out" => {
                out_path = args
                    .next()
                    .unwrap_or_else(|| usage("--out needs a path"))
                    .into();
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if let Err(e) = config.gpu_config().validate() {
        usage(&e.to_string());
    }
    // The host core count goes into the entry's config block next to the
    // job count, so wall times are only compared between like hosts.
    let host_cores = runner::default_jobs();
    eprintln!(
        "simbench: suite sms={} scale=1/{} seed={} jobs={}",
        config.sms, config.scale_divisor, config.seed, config.jobs
    );

    // Cold/warm build-phase probe: time phase A against an empty archive
    // cache (populating it), then again against the populated one.
    let probe_dir = std::env::temp_dir().join(format!("hsu-simbench-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&probe_dir);
    let (cold_s, _) = time_build_phase(&config, &probe_dir);
    let (warm_s, warm_heap) = time_build_phase(&config, &probe_dir);
    eprintln!(
        "build phase: {cold_s:.2}s cold -> {warm_s:.2}s warm ({:.1}x) via {}",
        cold_s / warm_s.max(1e-9),
        probe_dir.display()
    );
    // The mode runs reuse the warm cache: phase A collapses to archive
    // reads, and the cross-mode report check doubles as a cold-vs-warm
    // equivalence check (the cold stepped history established the goldens).
    config.archive_dir = Some(probe_dir.clone());

    let (stepped_suite, stepped) = run_mode(&config, SimMode::Stepped);
    eprintln!(
        "stepped:  {:.2}s build, {:.2}s simulating, {} ticks",
        stepped.build_wall_s, stepped.sim_wall_s, stepped.ticks_executed
    );
    let (event_suite, event) = run_mode(&config, SimMode::Event);
    eprintln!(
        "event:    {:.2}s build, {:.2}s simulating, {} ticks",
        event.build_wall_s, event.sim_wall_s, event.ticks_executed
    );

    // The differential check: every report in the matrix must agree on every
    // architectural counter across both modes (sched counters differ by
    // design).
    let mut divergences = 0usize;
    for (a, b) in stepped_suite.runs.iter().zip(&event_suite.runs) {
        for (variant, ra, rb) in [
            ("hsu", &a.hsu, &b.hsu),
            ("base", &a.base, &b.base),
            ("stripped", &a.stripped, &b.stripped),
        ] {
            if ra.normalized() != rb.normalized() {
                eprintln!("DIVERGENCE at {}/{variant} (event)", a.label);
                divergences += 1;
            }
        }
    }
    let equivalent = divergences == 0;

    let (tick_reduction, event_speedup) = gains(&stepped, &event);

    let traces_mb = warm_heap as f64 / (1024.0 * 1024.0);
    let peak_rss = peak_rss_mb();
    let entry = entry(
        &pr_label,
        &config,
        host_cores,
        (cold_s, warm_s),
        [&stepped, &event],
        (traces_mb, peak_rss),
        equivalent,
    );
    append_entry(&out_path, &entry)
        .unwrap_or_else(|e| panic!("append {}: {e}", out_path.display()));
    let _ = std::fs::remove_dir_all(&probe_dir);

    println!(
        "simbench: {} runs, build {cold_s:.2}s cold / {warm_s:.2}s warm, \
         ticks {} -> {} ({tick_reduction:.2}x fewer), \
         sim wall {:.2}s -> event {:.2}s ({event_speedup:.2}x), \
         traces {traces_mb:.1} MB, peak RSS {} MB, reports {}",
        stepped.runs,
        stepped.ticks_executed,
        event.ticks_executed,
        stepped.sim_wall_s,
        event.sim_wall_s,
        peak_rss.map_or_else(|| "null".to_string(), |mb| format!("{mb:.1}")),
        if equivalent { "identical" } else { "DIVERGED" },
    );
    println!("appended entry '{}' to {}", pr_label, out_path.display());
    if !equivalent {
        eprintln!("error: {divergences} report(s) diverged between modes");
        std::process::exit(1);
    }
}

/// Times one pass of the suite's build jobs (no simulation) through the
/// archive cache at `dir`, and sums the heap of every lowering each job
/// holds before it drops them. First call against an empty directory is
/// the cold measurement and populates the cache; the second is the warm
/// one, loading the traces a suite build simulates.
fn time_build_phase(config: &SuiteConfig, dir: &std::path::Path) -> (f64, usize) {
    let cache = hsu_bench::ArchiveCache::new(Some(dir.to_path_buf()));
    let start = Instant::now();
    let heaps = Suite::map_lowerings(config, &cache, |l| l.heap_bytes());
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "  build-phase pass: {:.2}s, {} trace bundles, cache {} hits / {} misses",
        elapsed,
        heaps.len(),
        cache.hits(),
        cache.misses()
    );
    (elapsed, heaps.iter().sum())
}

/// Event mode's gains over the stepped oracle: times fewer ticks, and
/// times less simulation wall (not finite when it simulated nothing).
fn gains(stepped: &ModeRun, event: &ModeRun) -> (f64, f64) {
    let ticks = stepped.ticks_executed as f64 / event.ticks_executed.max(1) as f64;
    (ticks, stepped.sim_wall_s / event.sim_wall_s)
}

/// The trajectory entry of one run: its cold and warm build phase, both
/// modes' totals, and the traces' heap and the process's peak RSS in MB.
fn entry(
    pr: &str,
    config: &SuiteConfig,
    host_cores: usize,
    (cold_s, warm_s): (f64, f64),
    [stepped, event]: [&ModeRun; 2],
    (traces_mb, peak_rss_mb): (f64, Option<f64>),
    equivalent: bool,
) -> Json {
    let (tick_reduction, speedup) = gains(stepped, event);
    let mode = |m: &ModeRun| {
        obj! {
            "build_wall_s" => Json::fixed(m.build_wall_s, 6),
            "sim_wall_s" => Json::fixed(m.sim_wall_s, 6),
            "cycles" => m.cycles, "ticks_executed" => m.ticks_executed,
        }
    };
    obj! {
        "pr" => pr,
        "config" => obj! {
            "sms" => config.sms, "scale_divisor" => config.scale_divisor, "seed" => config.seed,
            "host_cores" => host_cores, "jobs" => config.jobs,
        },
        "runs" => stepped.runs,
        "build_phase" => obj! {
            "cold_s" => Json::fixed(cold_s, 6), "warm_s" => Json::fixed(warm_s, 6),
        },
        "modes" => obj! { "stepped" => mode(stepped), "event" => mode(event) },
        "tick_reduction" => Json::fixed(tick_reduction, 3),
        "speedup" => obj! { "event" => Json::fixed(speedup, 3) },
        "memory" => obj! {
            "traces_mb" => Json::fixed(traces_mb, 1),
            "peak_rss_mb" => peak_rss_mb.map(|mb| Json::fixed(mb, 1)),
        },
        "equivalent" => equivalent,
    }
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: simbench [--quick] [--sms N] [--seed S] [--jobs N] [--pr LABEL] [--out PATH]\n\
         runs the workload suite under both simulation modes, checks the\n\
         reports are identical, and appends a JSON timing/ticks trajectory\n\
         entry (32-SM machine by default; --quick = quarter-scale datasets;\n\
         --jobs N runs N simulations at once). The build phase\n\
         is timed cold and warm through a throwaway .hsar archive cache first\n\
         and both timings are recorded in the entry's build_phase block"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn squeeze(s: &str) -> String {
        s.split_whitespace().collect()
    }

    /// The entry's text, whitespace aside, is what the hand-written
    /// `format!` template this writer replaced produced for these inputs.
    #[test]
    fn entry_keeps_the_trajectory_format() {
        let config = SuiteConfig {
            sms: 32,
            scale_divisor: 4,
            jobs: 2,
            ..SuiteConfig::default()
        };
        let stepped = ModeRun {
            runs: 21,
            build_wall_s: 41.25,
            sim_wall_s: 38.123456789,
            cycles: 1_234_567_890,
            ticks_executed: 39_506_172_480,
        };
        let event = ModeRun {
            build_wall_s: 24.2,
            sim_wall_s: 21.9,
            ticks_executed: 5_123_456_789,
            ..stepped
        };
        let entry = |peak, equivalent| {
            let e = entry(
                "fix \"q\" \\ b",
                &config,
                2,
                (17.4123456789, 2.0512345),
                [&stepped, &event],
                (312.3456, peak),
                equivalent,
            );
            squeeze(&e.to_string())
        };
        let expected = r#"  {
    "pr": "fix \"q\" \\ b",
    "config": { "sms": 32, "scale_divisor": 4, "seed": 7, "host_cores": 2, "jobs": 2 },
    "runs": 21,
    "build_phase": { "cold_s": 17.412346, "warm_s": 2.051235 },
    "modes": {
      "stepped": { "build_wall_s": 41.250000, "sim_wall_s": 38.123457, "cycles": 1234567890, "ticks_executed": 39506172480 },
      "event": { "build_wall_s": 24.200000, "sim_wall_s": 21.900000, "cycles": 1234567890, "ticks_executed": 5123456789 }
    },
    "tick_reduction": 7.711,
    "speedup": { "event": 1.741 },
    "memory": { "traces_mb": 312.3, "peak_rss_mb": 1021.4 },
    "equivalent": true
  }"#;
        assert_eq!(entry(Some(1021.37), true), squeeze(expected));
        let expected = r#"  {
    "pr": "fix \"q\" \\ b",
    "config": { "sms": 32, "scale_divisor": 4, "seed": 7, "host_cores": 2, "jobs": 2 },
    "runs": 21,
    "build_phase": { "cold_s": 17.412346, "warm_s": 2.051235 },
    "modes": {
      "stepped": { "build_wall_s": 41.250000, "sim_wall_s": 38.123457, "cycles": 1234567890, "ticks_executed": 39506172480 },
      "event": { "build_wall_s": 24.200000, "sim_wall_s": 21.900000, "cycles": 1234567890, "ticks_executed": 5123456789 }
    },
    "tick_reduction": 7.711,
    "speedup": { "event": 1.741 },
    "memory": { "traces_mb": 312.3, "peak_rss_mb": null },
    "equivalent": false
  }"#;
        assert_eq!(entry(None, false), squeeze(expected));
    }
}
