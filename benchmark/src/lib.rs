//! The repository benchmark: four workloads, each measured end to end
//! with tracing off, and layer by layer in a separate traced run.
//!
//! | workload | what it runs |
//! |---|---|
//! | `fig9` | `repro fig9` warm: the suite build (63 simulations on the 8-SM machine, standard sizes), then the figure |
//! | `fig11-quick` | the `--quick` machine (4 SMs, 1/4 sizes): the suite's traces, then one row of each Fig. 11 warp-buffer panel |
//! | `serve-graph` | queries against an HNSW index behind the serving engine; latency from a sequential client |
//! | `serve-btree` | key lookups against a B+tree behind the serving engine; latency from an open loop |
//!
//! See `README.md` next to this crate for the metrics and why each
//! workload was chosen.

pub mod report;
pub mod serve;
pub mod sim;
pub mod spans;

use std::path::{Path, PathBuf};

use report::Outcome;

/// The workloads, in the order a full run executes them.
pub const WORKLOADS: [&str; 4] = ["fig9", "fig11-quick", "serve-graph", "serve-btree"];

/// End-to-end metrics, reported by every untraced run: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("latency_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run: `(name, unit)`. A
/// layer a workload does not run reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datasets.gen_s", "s"),
    ("graph.build_s", "s"),
    ("kdtree.build_s", "s"),
    ("bvh.build_s", "s"),
    ("btree.build_s", "s"),
    ("kernels.record_s", "s"),
    ("kernels.lower_s", "s"),
    ("archive.store_s", "s"),
    ("archive.store_mb", "MB"),
    ("setup.self_s", "s"),
    ("archive.load_s", "s"),
    ("archive.load_mb", "MB"),
    ("sim.busy_s", "s"),
    ("sim.busy_s.ggnn", "s"),
    ("sim.busy_s.flann", "s"),
    ("sim.busy_s.bvhnn", "s"),
    ("sim.busy_s.btree", "s"),
    ("sim.jobs", "count"),
    ("sim.ticks", "count"),
    ("sim.skip_frac", "ratio"),
    ("sim.ns_per_tick", "ns"),
    ("runner.idle_frac", "ratio"),
    ("figures.render_s", "s"),
    ("model.speedup.ggnn", "x"),
    ("model.speedup.flann", "x"),
    ("model.speedup.bvhnn", "x"),
    ("model.speedup.btree", "x"),
    ("model.paper_gap_pp", "pp"),
    ("model.hsu_cycles", "count"),
    ("model.base_cycles", "count"),
    ("model.rt.occupancy_mean", "count"),
    ("model.rt.dispatch_stalls", "count"),
    ("model.l1.miss_rate", "ratio"),
    ("model.l1.mshr_stalls", "count"),
    ("model.l2.miss_rate", "ratio"),
    ("model.dram.row_locality", "count"),
    ("serve.lag_us.mean", "us"),
    ("serve.lag_us.p50", "us"),
    ("serve.admit_us.mean", "us"),
    ("serve.admit_us.p50", "us"),
    ("serve.queue_us.mean", "us"),
    ("serve.queue_us.p50", "us"),
    ("serve.index_us.mean", "us"),
    ("serve.index_us.p50", "us"),
    ("serve.fulfil_us.mean", "us"),
    ("serve.fulfil_us.p50", "us"),
    ("serve.latency_us.mean", "us"),
    ("serve.latency_us.p50", "us"),
    ("serve.batch_mean", "count"),
    ("serve.index_busy_frac", "ratio"),
    ("trace.overhead_pct", "%"),
];

/// Puts `outcome`'s metrics in the order and units of `list`, reading 0
/// for any the workload did not produce. A produced metric missing from
/// the list is a bug in this crate.
pub fn conform(outcome: &mut Outcome, list: &[(&str, &'static str)]) {
    for m in &outcome.metrics {
        assert!(
            list.iter().any(|(n, u)| *n == m.name && *u == m.unit),
            "metric {} [{}] is not declared",
            m.name,
            m.unit
        );
    }
    outcome.metrics = list
        .iter()
        .map(|&(name, unit)| {
            let value = outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map_or(0.0, |m| m.value);
            report::metric(name, value, unit)
        })
        .collect();
}

/// The quantile of repeated timings a run reports: low enough to land in
/// the host's fast state (see [`report::quantile`]) and to miss the
/// stretches, tens of milliseconds each, in which other tenants of the
/// calibration host stall its cores. Of the quantiles tried on serving
/// rounds, it moved least between identical runs; the median moved up
/// to three times as much.
pub const LOW_QUANTILE: f64 = 0.1;

/// Settings shared by every workload run.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// Record spans and report per-layer metrics instead of end-to-end ones.
    pub traced: bool,
    /// Toy sizes, for a fast check that every workload runs.
    pub smoke: bool,
    /// Scratch directory for archives; emptied and removed by the run.
    pub work_dir: PathBuf,
}

impl RunOptions {
    /// Whether to run another untraced set-up after those that took
    /// `walls` seconds. `setup_s` is their median, of up to nine while
    /// they sum to under 2 s, so that a cheap set-up is measured over more
    /// than a few hundred milliseconds. A set-up of seconds runs once: it
    /// already spans several changes of the host's speed, and repeating
    /// it would add up to a minute to every run. A traced or smoke run
    /// sets up once.
    pub fn another_setup(&self, walls: &[f64]) -> bool {
        let n = walls.len();
        if self.traced || self.smoke {
            return n == 0;
        }
        n == 0 || (n < 9 && walls.iter().sum::<f64>() < 2.0)
    }
}

/// Runs one workload by name; `None` for an unknown name.
pub fn run_workload(name: &str, opts: &RunOptions) -> Option<Outcome> {
    match name {
        "fig9" => Some(sim::run(&sim::FIG9, opts)),
        "fig11-quick" => Some(sim::run(&sim::FIG11_QUICK, opts)),
        "serve-graph" => Some(serve::run(&serve::GRAPH, opts)),
        "serve-btree" => Some(serve::run(&serve::BTREE, opts)),
        _ => None,
    }
}

/// Empties `dir`, creating it if needed.
pub fn fresh_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    std::fs::create_dir_all(dir)
}

/// The regular files in `dir` whose names start with `prefix`, sorted.
fn files(dir: &Path, prefix: &str) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(prefix))
        })
        .collect();
    out.sort();
    out
}

/// Total size in MB of the files in `dir` whose names start with `prefix`.
pub fn dir_mb(dir: &Path, prefix: &str) -> f64 {
    files(dir, prefix)
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len() as f64 / (1024.0 * 1024.0))
        .sum()
}

/// Checks two archive directories hold the same file names with the same
/// bytes.
pub fn same_archives(a: &Path, b: &Path) -> Result<(), String> {
    let (fa, fb) = (files(a, ""), files(b, ""));
    let names = |f: &[PathBuf]| -> Vec<String> {
        f.iter()
            .filter_map(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
            .collect()
    };
    if names(&fa) != names(&fb) {
        return Err(format!(
            "archive sets differ: {:?} vs {:?}",
            names(&fa),
            names(&fb)
        ));
    }
    for (pa, pb) in fa.iter().zip(&fb) {
        let (ba, bb) = (std::fs::read(pa), std::fs::read(pb));
        match (ba, bb) {
            (Ok(x), Ok(y)) if x == y => {}
            _ => return Err(format!("archive {} differs", pa.display())),
        }
    }
    Ok(())
}
