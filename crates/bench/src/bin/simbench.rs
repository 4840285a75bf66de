//! `simbench` — measure the event-driven run loop against the stepped
//! oracle on the full workload suite and append a machine-readable
//! trajectory entry.
//!
//! ```text
//! simbench [--quick] [--sms N] [--seed S] [--jobs N]
//!          [--archive-dir DIR] [--pr LABEL] [--out PATH]
//! ```
//!
//! Builds the suite twice — once per [`hsu_sim::config::SimMode`] — then:
//!
//! 1. asserts every (app × dataset × variant) report is identical across
//!    both modes (exits non-zero on any divergence),
//! 2. **appends** an entry to the trajectory JSON (`BENCH_sim.json` by
//!    default): `{pr, config, runs, build_phase, modes, tick_reduction,
//!    speedup, memory, equivalent}` with wall time, simulated cycles, and
//!    SM ticks executed per mode, and the memory block: `traces_mb`, the heap one suite's packed traces hold
//!    ([`hsu_sim::trace::KernelTrace::heap_bytes`] summed), and
//!    `peak_rss_mb`, the process's peak resident set (`VmHWM`; `null` off
//!    Linux). The file is an
//!    append-only array so successive PRs record their own measurements
//!    next to history instead of erasing it; a legacy single-object
//!    snapshot is wrapped into the array on first append.
//!
//! Before the mode runs, the workload build phase is probed through the
//! `.hsar` archive cache: once against an empty cache directory (cold —
//! generators and index builders run, archives are written) and once again
//! (warm — everything loads from the archives). Both wall-times land in the
//! entry's `build_phase` block, and the mode runs then reuse the warm
//! cache, which also exercises cold-vs-warm equivalence: any divergence the
//! cache introduced would trip the cross-mode report check. The probe uses
//! a throwaway directory under the system temp dir unless `--archive-dir`
//! pins it somewhere persistent.
//!
//! `--jobs` sets the suite workers; each simulation runs on one thread.
//! The JSON is hand-rolled: the workspace deliberately has no serde.

use std::time::Instant;

use hsu_bench::trajectory::{append_entry, json_escape, peak_rss_mb};
use hsu_bench::{runner, Suite, SuiteConfig};
use hsu_sim::config::SimMode;

struct ModeRun {
    suite: Suite,
    build_wall_s: f64,
    sim_wall_s: f64,
    cycles: u64,
    ticks_executed: u64,
}

fn run_mode(config: &SuiteConfig, mode: SimMode) -> ModeRun {
    let start = Instant::now();
    let suite = Suite::build(config.clone().with_sim_mode(mode));
    let build_wall_s = start.elapsed().as_secs_f64();
    let sim_wall_s: f64 = suite.records.iter().map(|r| r.wall.as_secs_f64()).sum();
    let cycles: u64 = suite.records.iter().map(|r| r.cycles).sum();
    let ticks_executed: u64 = suite.records.iter().map(|r| r.ticks_executed).sum();
    ModeRun {
        suite,
        build_wall_s,
        sim_wall_s,
        cycles,
        ticks_executed,
    }
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
    let mut archive_dir: Option<std::path::PathBuf> = None;
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
            "--archive-dir" => {
                archive_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--archive-dir needs a directory"))
                        .into(),
                );
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
    // cache (populating it), then again against the populated one. The
    // probe directory is throwaway unless --archive-dir pinned it.
    let (probe_dir, cleanup_probe) = match archive_dir {
        Some(d) => (d, false),
        None => (
            std::env::temp_dir().join(format!("hsu-simbench-cache-{}", std::process::id())),
            true,
        ),
    };
    let cold_s = time_build_phase(&config, &probe_dir);
    let warm_s = time_build_phase(&config, &probe_dir);
    eprintln!(
        "build phase: {cold_s:.2}s cold -> {warm_s:.2}s warm ({:.1}x) via {}",
        cold_s / warm_s.max(1e-9),
        probe_dir.display()
    );
    // The mode runs reuse the warm cache: phase A collapses to archive
    // reads, and the cross-mode report check doubles as a cold-vs-warm
    // equivalence check (the cold stepped history established the goldens).
    config.archive_dir = Some(probe_dir.clone());

    let stepped = run_mode(&config, SimMode::Stepped);
    eprintln!(
        "stepped:  {:.2}s build, {:.2}s simulating, {} ticks",
        stepped.build_wall_s, stepped.sim_wall_s, stepped.ticks_executed
    );
    let event = run_mode(&config, SimMode::Event);
    eprintln!(
        "event:    {:.2}s build, {:.2}s simulating, {} ticks",
        event.build_wall_s, event.sim_wall_s, event.ticks_executed
    );

    // The differential check: every report in the matrix must agree on every
    // architectural counter across both modes (sched counters differ by
    // design).
    let mut divergences = 0usize;
    for (a, b) in stepped.suite.runs.iter().zip(&event.suite.runs) {
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

    let tick_reduction = stepped.ticks_executed as f64 / event.ticks_executed.max(1) as f64;
    let event_speedup = if event.sim_wall_s > 0.0 {
        stepped.sim_wall_s / event.sim_wall_s
    } else {
        0.0
    };

    let traces_mb = event
        .suite
        .traces
        .iter()
        .flat_map(|t| [&t.hsu, &t.base, &t.stripped])
        .map(|k| k.heap_bytes())
        .sum::<usize>() as f64
        / (1024.0 * 1024.0);
    let peak_rss = peak_rss_mb().map_or_else(|| "null".to_string(), |mb| format!("{mb:.1}"));

    let entry = format!(
        "  {{\n    \"pr\": \"{}\",\n    \
           \"config\": {{ \"sms\": {}, \"scale_divisor\": {}, \"seed\": {}, \"host_cores\": {}, \"jobs\": {} }},\n    \
           \"runs\": {},\n    \
           \"build_phase\": {{ \"cold_s\": {:.6}, \"warm_s\": {:.6} }},\n    \
           \"modes\": {{\n      \
             \"stepped\": {},\n      \
             \"event\": {}\n    }},\n    \
           \"tick_reduction\": {:.3},\n    \
           \"speedup\": {{ \"event\": {:.3} }},\n    \
           \"memory\": {{ \"traces_mb\": {:.1}, \"peak_rss_mb\": {} }},\n    \
           \"equivalent\": {}\n  }}",
        json_escape(&pr_label),
        config.sms,
        config.scale_divisor,
        config.seed,
        host_cores,
        config.jobs,
        stepped.suite.runs.len(),
        cold_s,
        warm_s,
        mode_json(&stepped),
        mode_json(&event),
        tick_reduction,
        event_speedup,
        traces_mb,
        peak_rss,
        equivalent,
    );
    append_entry(&out_path, &entry)
        .unwrap_or_else(|e| panic!("append {}: {e}", out_path.display()));
    if cleanup_probe {
        let _ = std::fs::remove_dir_all(&probe_dir);
    }

    println!(
        "simbench: {} runs, build {cold_s:.2}s cold / {warm_s:.2}s warm, \
         ticks {} -> {} ({tick_reduction:.2}x fewer), \
         sim wall {:.2}s -> event {:.2}s ({event_speedup:.2}x), \
         traces {traces_mb:.1} MB, peak RSS {peak_rss} MB, reports {}",
        stepped.suite.runs.len(),
        stepped.ticks_executed,
        event.ticks_executed,
        stepped.sim_wall_s,
        event.sim_wall_s,
        if equivalent { "identical" } else { "DIVERGED" },
    );
    println!("appended entry '{}' to {}", pr_label, out_path.display());
    if !equivalent {
        eprintln!("error: {divergences} report(s) diverged between modes");
        std::process::exit(1);
    }
}

/// Times one pass of the suite's build phase (phase A only — no
/// simulation) through the archive cache at `dir`. First call against an
/// empty directory is the cold measurement and populates the cache; the
/// second is the warm one.
fn time_build_phase(config: &SuiteConfig, dir: &std::path::Path) -> f64 {
    let cache = hsu_bench::ArchiveCache::new(Some(dir.to_path_buf()));
    let start = Instant::now();
    let traces = Suite::prepare_traces(config, &cache);
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "  build-phase pass: {:.2}s, {} trace bundles, cache {} hits / {} misses",
        elapsed,
        traces.len(),
        cache.hits(),
        cache.misses()
    );
    elapsed
}

fn mode_json(m: &ModeRun) -> String {
    format!(
        "{{ \"build_wall_s\": {:.6}, \"sim_wall_s\": {:.6}, \"cycles\": {}, \"ticks_executed\": {} }}",
        m.build_wall_s, m.sim_wall_s, m.cycles, m.ticks_executed
    )
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: simbench [--quick] [--sms N] [--seed S] [--jobs N]\n\
         \x20               [--archive-dir DIR] [--pr LABEL] [--out PATH]\n\
         runs the workload suite under both simulation modes, checks the\n\
         reports are identical, and appends a JSON timing/ticks trajectory\n\
         entry (32-SM machine by default; --quick = quarter-scale datasets;\n\
         --jobs N runs N simulations at once). The build phase\n\
         is timed cold and warm through the .hsar archive cache first\n\
         (--archive-dir pins the cache; default is a throwaway temp dir) and\n\
         both timings are recorded in the entry's build_phase block"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
