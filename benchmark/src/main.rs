//! `hsu-benchmark` — runs the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed S] [--seconds N] [--trace 0|1] [--smoke]
//! ```
//!
//! With `--workload`, runs that workload in this process, prints every
//! metric as `workload metric value unit`, writes the same data (and the
//! spans of a traced run) to `benchmark/out/<workload>.json`, and prints
//! one JSON result object as the last line. Without it, runs every
//! workload in a child process of its own, so each reports its own peak
//! memory. Exits non-zero when a correctness check fails.

use std::path::PathBuf;
use std::process::{Command, ExitCode};

use hsu_benchmark::{conform, run_workload, RunOptions, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage: hsu-benchmark [--workload NAME] [--seed S] [--seconds N] \
                     [--trace 0|1] [--smoke]\n\
                     workloads: fig9, fig11-quick, serve-graph, serve-btree (default: all, \
                     each in its own process)";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: 7,
        seconds: 10.0,
        traced: false,
        smoke: false,
    };
    while let Some(arg) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let w = value("a workload name")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload '{w}'"));
                }
                out.workload = Some(w);
            }
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a number".to_string())?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds needs a positive number")?;
            }
            "--trace" => {
                out.traced = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--smoke" => out.smoke = true,
            _ => return Err(format!("unknown argument '{arg}'")),
        }
    }
    if out.smoke {
        out.seconds = 1.0;
    }
    Ok(out)
}

/// `benchmark/out` of the checkout being run: `cargo run` names the
/// package directory at run time, the build names it otherwise.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
        .join("out")
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match &args.workload {
        Some(w) => run_one(w, &args),
        None => run_all(&args),
    }
}

/// Runs every workload in a child process of its own.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for w in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", w, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.traced { "1" } else { "0" }]);
        if args.smoke {
            cmd.arg("--smoke");
        }
        match cmd.status() {
            Ok(s) if s.success() => {}
            Ok(s) => failed.push(format!("{w} ({s})")),
            Err(e) => failed.push(format!("{w} (could not start: {e})")),
        }
    }
    if failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: failed workloads: {}", failed.join(", "));
        ExitCode::FAILURE
    }
}

/// Runs one workload in this process and reports it.
fn run_one(workload: &str, args: &Args) -> ExitCode {
    let dir = out_dir();
    let opts = RunOptions {
        seed: args.seed,
        seconds: args.seconds,
        traced: args.traced,
        smoke: args.smoke,
        work_dir: dir.join(format!("{workload}-work")),
    };
    let Some(mut outcome) = run_workload(workload, &opts) else {
        unreachable!("workload names are checked while parsing");
    };
    let _ = std::fs::remove_dir_all(&opts.work_dir);
    conform(
        &mut outcome,
        if args.traced { PER_LAYER } else { END_TO_END },
    );
    print!("{}", outcome.lines(workload));
    let file = dir.join(format!(
        "{workload}{}.json",
        if args.traced { "-trace" } else { "" }
    ));
    if let Err(e) = std::fs::write(&file, outcome.file_json(workload, args.seed, args.traced)) {
        eprintln!("warning: cannot write {}: {e}", file.display());
    }
    println!("{}", outcome.summary_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
