//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! repro [--sms N] [--quick] [--seed S] [--jobs N] [--sim-mode M]
//!       [--keep-going] [--job-timeout SECS]
//!       [--archive-dir DIR] [--no-cache] <item>...
//!   items: table2 table3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14
//!          fig15 fig16 rtindex ablation all
//!          traces (--trace FILE ...) gen-fault-traces (--out DIR)
//! ```
//!
//! `--jobs N` fans the run matrix over N worker threads (0 = all cores);
//! each simulation runs on one thread. `--sim-mode stepped|event` selects
//! the run-loop strategy (default: event); reports are identical in both
//! modes, so stdout does not change. Figure output on stdout is
//! byte-identical for every worker count and simulation mode; the per-run
//! observability table goes to stderr. Unknown flags, the removed
//! `--sim-threads` and `--sim-mode parallel`, and a machine the simulator
//! rejects (e.g. `--sms 0`) exit 2 with a usage message before any item
//! runs.
//!
//! Failure semantics: the default is fail-fast — the first failing
//! simulation cancels the not-yet-started jobs and `repro` exits nonzero
//! with a per-job status table. `--keep-going` runs everything anyway and
//! reports a partial result set (statuses `ok`, `failed`, `timeout`,
//! `skipped`); `--job-timeout SECS` bounds each simulation's wall-clock,
//! enforced cooperatively inside the run loop. Jobs are not retried: a
//! simulation is a pure function of its trace, so it would fail again.
//! The `traces` item replays `.hsut` trace files through the same
//! fault-tolerant pool, and `gen-fault-traces` emits one healthy and four
//! deliberately corrupted trace files for exercising that path (CI does
//! exactly this).
//!
//! `--archive-dir DIR` attaches the content-keyed `.hsar` build cache
//! ([`hsu_bench::ArchiveCache`]): generated datasets, built indexes, and
//! lowered traces are stored on the first run and loaded on re-runs, so the
//! expensive build phase collapses to file reads. Figure output stays
//! byte-identical warm or cold — the cache key pins every parameter the
//! artifact bytes depend on. `--no-cache` is the escape hatch that forces a
//! cold build even when `--archive-dir` is given.

#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

use std::time::Duration;

use hsu_bench::runner::FaultPolicy;
use hsu_bench::{figures, runner, Suite, SuiteConfig};
use hsu_sim::faults::{corrupt_trace_bytes, TraceFault};
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
use hsu_sim::trace_io::{load_trace, save_trace, write_trace};
use hsu_sim::{Gpu, SimError};

fn main() {
    let mut config = SuiteConfig::default();
    let mut policy = FaultPolicy::default();
    let mut items: Vec<String> = Vec::new();
    let mut trace_files: Vec<std::path::PathBuf> = Vec::new();
    let mut out_dir: Option<std::path::PathBuf> = None;
    let mut no_cache = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                out_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--out needs a directory"))
                        .into(),
                );
            }
            "--trace" => {
                trace_files.push(
                    args.next()
                        .unwrap_or_else(|| usage("--trace needs a file"))
                        .into(),
                );
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
            "--quick" => {
                config.scale_divisor = 4;
                config.sms = config.sms.min(4);
            }
            "--sim-mode" => {
                config.sim_mode = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--sim-mode needs 'stepped' or 'event'"));
            }
            "--archive-dir" => {
                config.archive_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--archive-dir needs a directory"))
                        .into(),
                );
            }
            "--no-cache" => no_cache = true,
            "--keep-going" => policy.keep_going = true,
            "--job-timeout" => {
                let secs: u64 = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--job-timeout needs a number of seconds"));
                policy.job_timeout = Some(Duration::from_secs(secs));
            }
            "--help" | "-h" => usage(""),
            flag if flag.starts_with('-') => usage(&format!("unknown flag '{flag}'")),
            item => items.push(item.to_string()),
        }
    }
    if items.is_empty() {
        usage("no items requested");
    }
    // `--no-cache` wins over `--archive-dir`: the escape hatch forces a
    // cold build without touching (or trusting) the cache directory.
    if no_cache {
        config.archive_dir = None;
    }
    // A machine the simulator would reject fails here, before any item
    // prints or builds anything.
    if let Err(e) = config.gpu_config().validate() {
        usage(&e.to_string());
    }
    if items.iter().any(|i| i == "all") {
        items = [
            "table2", "table3", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13",
            "fig14", "fig15", "fig16", "rtindex", "ablation",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
    }

    let mut had_failures = false;

    let needs_suite = items.iter().any(|i| {
        matches!(
            i.as_str(),
            "fig7" | "fig8" | "fig9" | "fig10" | "fig11" | "fig12" | "fig13" | "fig14"
        )
    });
    let suite = if needs_suite {
        eprintln!(
            "building workload suite (sms={}, scale 1/{}, seed {}, jobs {}, sim-mode {})...",
            config.sms,
            config.scale_divisor,
            config.seed,
            config.jobs,
            config.sim_mode.name()
        );
        let build = Suite::build_with_policy(config.clone(), &policy).unwrap_or_else(|e| die(&e));
        if !build.all_ok() {
            eprintln!("{}", runner::outcomes_table(&build.outcomes));
            if !policy.keep_going {
                eprintln!(
                    "error: suite simulation failed (rerun with --keep-going for a partial report)"
                );
                std::process::exit(1);
            }
            had_failures = true;
        }
        let suite = build.suite;
        eprintln!("suite ready: {} app-dataset runs", suite.runs.len());
        eprintln!("{}", runner::records_table(&suite.records));
        Some(suite)
    } else {
        None
    };
    fn suite_ref(s: &Option<Suite>) -> &Suite {
        s.as_ref().unwrap_or_else(|| usage("item needs the suite"))
    }

    for item in &items {
        let text = match item.as_str() {
            "table2" => figures::table2(),
            "table3" => figures::table3(config.sms),
            "fig7" => figures::fig7(suite_ref(&suite)),
            "fig8" => figures::fig8(suite_ref(&suite)),
            "fig9" => figures::fig9(suite_ref(&suite)),
            "fig10" => figures::fig10(suite_ref(&suite)).unwrap_or_else(|e| die(&e)),
            "fig11" => figures::fig11(suite_ref(&suite)).unwrap_or_else(|e| die(&e)),
            "fig12" => figures::fig12(suite_ref(&suite)),
            "fig13" => figures::fig13(suite_ref(&suite)),
            "fig14" => figures::fig14(suite_ref(&suite)),
            "fig6" => hsu_rtl::area::fig6_table(),
            "fig15" => figures::fig15(),
            "fig16" => figures::fig16(),
            "rtindex" => figures::rtindex(config.sms, config.scale_divisor, config.sim_mode)
                .unwrap_or_else(|e| die(&e)),
            "ablation" => figures::ablation(
                config.sms,
                config.scale_divisor,
                config.jobs,
                config.sim_mode,
            )
            .unwrap_or_else(|e| die(&e)),
            "traces" => {
                let (text, ok) = run_trace_files(&config, &policy, &trace_files);
                if !ok {
                    had_failures = true;
                }
                text
            }
            "gen-fault-traces" => {
                let Some(dir) = &out_dir else {
                    usage("gen-fault-traces needs --out DIR");
                };
                gen_fault_traces(dir).unwrap_or_else(|e| die(&e))
            }
            other => usage(&format!("unknown item '{other}'")),
        };
        println!("{text}");
        if let Some(dir) = &out_dir {
            if let Err(e) = std::fs::create_dir_all(dir) {
                die(&SimError::from_io(format!("creating {}", dir.display()), e));
            }
            let path = dir.join(format!("{item}.txt"));
            if let Err(e) = std::fs::write(&path, &text) {
                die(&SimError::from_io(format!("writing {}", path.display()), e));
            }
        }
    }
    if let Some(suite) = &suite {
        println!("{}", figures::summary(suite));
    }
    if had_failures {
        std::process::exit(1);
    }
}

/// Replays `.hsut` trace files through the fault-tolerant pool and formats
/// the per-job status table (the partial report). Returns the table and
/// whether every job succeeded.
fn run_trace_files(
    config: &SuiteConfig,
    policy: &FaultPolicy,
    files: &[std::path::PathBuf],
) -> (String, bool) {
    if files.is_empty() {
        usage("the 'traces' item needs at least one --trace FILE");
    }
    let gpu_cfg = config.gpu_config();
    let jobs: Vec<(String, std::path::PathBuf)> = files
        .iter()
        .map(|p| (p.display().to_string(), p.clone()))
        .collect();
    let outcomes = runner::run_jobs_ft(config.jobs, policy, jobs, |_, path, limits| {
        let trace = load_trace(path)?;
        let report = Gpu::new(gpu_cfg.clone()).run_guarded(&trace, limits)?;
        Ok((trace.name().to_string(), report.cycles))
    });
    let mut text = runner::outcomes_table(&outcomes);
    for o in &outcomes {
        if let Ok((kernel, cycles)) = &o.result {
            text.push_str(&format!(
                "{}: kernel '{kernel}' ran {cycles} cycles\n",
                o.key
            ));
        }
    }
    let ok = outcomes.iter().all(|o| o.is_ok());
    (text, ok)
}

/// Writes one healthy and four corrupted trace files into `dir`, for
/// exercising the fault-tolerant replay path (`traces`) end to end.
fn gen_fault_traces(dir: &std::path::Path) -> Result<String, SimError> {
    let mut kernel = KernelTrace::builder("fault-smoke");
    for t in 0..64u64 {
        let mut thread = ThreadTrace::new();
        thread.push(ThreadOp::Alu { count: 2 });
        thread.push(ThreadOp::Load {
            addr: t * 128,
            bytes: 8,
        });
        kernel.push_thread(thread);
    }
    let kernel = kernel.finish();
    std::fs::create_dir_all(dir)
        .map_err(|e| SimError::from_io(format!("creating {}", dir.display()), e))?;
    save_trace(&kernel, dir.join("healthy.hsut"))?;
    let mut bytes = Vec::new();
    write_trace(&kernel, &mut bytes)
        .map_err(|e| SimError::from_io("encoding fault-smoke trace", e))?;
    let corrupted = [
        ("truncated.hsut", TraceFault::Truncate),
        ("bitflip.hsut", TraceFault::BitFlip),
        ("bogus.hsut", TraceFault::BogusOpcode),
        ("overflow.hsut", TraceFault::AddressOverflow),
    ];
    let mut out = String::from("wrote fault-injection traces:\n");
    out.push_str(&format!("  {}\n", dir.join("healthy.hsut").display()));
    for (name, fault) in corrupted {
        let path = dir.join(name);
        std::fs::write(&path, corrupt_trace_bytes(&bytes, fault, 7))
            .map_err(|e| SimError::from_io(format!("writing {}", path.display()), e))?;
        out.push_str(&format!("  {}\n", path.display()));
    }
    Ok(out)
}

fn die(err: &SimError) -> ! {
    eprintln!("error [{}]: {err}", err.kind());
    std::process::exit(1);
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: repro [--sms N] [--quick] [--seed S] [--jobs N] [--sim-mode M] [--out DIR]\n\
         \x20            [--keep-going] [--job-timeout SECS]\n\
         \x20            [--archive-dir DIR] [--no-cache] [--trace FILE]... <item>...\n\
         items: table2 table3 fig6 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig14 fig15 fig16\n\
         \x20      rtindex ablation all traces gen-fault-traces\n\
         --jobs N runs the simulation matrix on N worker threads (0 = all cores);\n\
         --sim-mode stepped|event picks the run loop (default: event);\n\
         --archive-dir DIR caches datasets/indexes/traces as content-keyed .hsar\n\
         \x20  archives so re-runs skip the build phase (stdout is byte-identical\n\
         \x20  warm or cold); --no-cache forces a cold build, ignoring --archive-dir;\n\
         stdout is byte-identical for any N and every mode;\n\
         --keep-going reports partial results instead of failing fast;\n\
         --job-timeout SECS bounds each simulation's wall-clock (watchdog);\n\
         'traces' replays --trace files; 'gen-fault-traces' writes test traces to --out"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}
