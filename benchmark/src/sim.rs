//! The simulation workloads, `fig9` and `fig11-quick`.
//!
//! Set-up builds the suite's phase A (datasets, indexes, recorded
//! searches, lowered traces) cold into an empty archive directory with
//! `Suite::prepare_traces`, as a first `repro` run does. The measured part
//! is warm and makes the calls `repro` makes (see [`iterate`]), timing each
//! one; a traced run also records a span around each.
//!
//! The traced set-up ([`setup_traced`]) is a copy of the suite's build
//! plan, one span per call: it mirrors `build_one` in
//! `crates/bench/src/suite.rs` (dataset sizes, workload parameters and
//! `hsar-*` archive keys) and must change with it. A traced run sets up
//! only through the copy, then checks that `Suite::prepare_traces` finds
//! every archive it needs there, so a plan or key change that is not
//! mirrored fails every traced run with "traced set-up diverged". (A
//! byte-for-byte comparison with an untraced set-up would add a full-scale
//! `fig9` set-up, half a minute, to every traced run.) Untraced runs call
//! only the suite's own functions.

use std::path::Path;
use std::time::Instant;

use hsu_bench::figures;
use hsu_bench::runner::{self, FaultPolicy};
use hsu_bench::suite::{geomean, App, AppRun, AppTraces, Suite, SuiteConfig};
use hsu_bench::ArchiveCache;
use hsu_core::HsuConfig;
use hsu_datasets::{Dataset, DatasetId};
use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_kernels::bvhnn::{BvhnnParams, BvhnnWorkload};
use hsu_kernels::flann::{FlannParams, FlannWorkload};
use hsu_kernels::ggnn::{GgnnParams, GgnnWorkload};
use hsu_kernels::Variant;
use hsu_serve::replay::combine_hashes;
use hsu_sim::config::{GpuConfig, SimMode};
use hsu_sim::trace::KernelTrace;
use hsu_sim::{Gpu, SimReport};

use crate::report::{
    median, median_metrics, metric, peak_rss_mb, quantile, reset_peak_rss, Metric, Outcome,
};
use crate::spans::{child_s, self_ns, Span, Tracer};
use crate::LOW_QUANTILE;
use crate::{dir_mb, fresh_dir, RunOptions};

/// One simulation workload.
#[derive(Debug)]
pub struct SimSpec {
    /// SMs of the simulated machine.
    pub sms: usize,
    /// Dataset and query down-scale relative to the suite's standard sizes.
    pub scale_divisor: usize,
    /// The Fig. 11 grid rows to run; empty for the Fig. 9 suite.
    pub grid: &'static [(App, DatasetId)],
}

/// What `repro fig9` runs by default: the 8-SM machine at the suite's
/// standard sizes. Smaller scales change the modelled machine's
/// behaviour, not just its run time: at 1/4 and 1/16 no RT unit stalls on
/// dispatch and the L2 misses a quarter to a fifth as often.
pub const FIG9: SimSpec = SimSpec {
    sms: 8,
    scale_divisor: 1,
    grid: &[],
};

/// The `repro --quick` machine (4 SMs, 1/4 of the standard sizes) running
/// one row of each Fig. 11 panel.
pub const FIG11_QUICK: SimSpec = SimSpec {
    sms: 4,
    scale_divisor: 4,
    grid: &[
        (App::Ggnn, DatasetId::Sift10k),
        (App::Bvhnn, DatasetId::Bunny),
        (App::Flann, DatasetId::Bunny),
    ],
};

/// Fig. 11's warp-buffer sizes.
const WARP_BUFFER_SIZES: [usize; 5] = [1, 2, 4, 8, 16];

/// The four applications, in reporting order, with their metric suffix
/// and the paper's Fig. 9 mean speedup in percent.
const APPS: [(App, &str, f64); 4] = [
    (App::Ggnn, "ggnn", 24.8),
    (App::Flann, "flann", 16.4),
    (App::Bvhnn, "bvhnn", 33.9),
    (App::Btree, "btree", 13.5),
];

/// Runs one simulation workload.
pub fn run(spec: &SimSpec, opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let config = suite_config(spec, opts);
    let archives = opts.work_dir.join("archives");
    let tracer = Tracer::new(opts.traced);

    // Set-up: cold phase A into an empty archive directory; traced, the
    // suite must then find every archive it needs.
    let mut setup_walls = Vec::new();
    let mut setup_peaks = Vec::new();
    let mut setup_metrics = Vec::new();
    if opts.traced {
        setup_traced(&config, &archives, &tracer, 0);
        let cache = ArchiveCache::new(Some(archives.clone()));
        drop(Suite::prepare_traces(&config, &cache));
        out.check(cache.misses() == 0, || {
            format!(
                "traced set-up diverged: Suite::prepare_traces missed {} of its archives \
                 (setup_traced mirrors the suite's build plan)",
                cache.misses()
            )
        });
        setup_metrics = setup_layers(&tracer.spans(), &archives);
    } else {
        while opts.another_setup(&setup_walls) {
            reset_peak_rss();
            setup_walls.push(setup_plain(&config, &archives));
            setup_peaks.push(peak_rss_mb());
        }
    }

    // Measured part: warm iterations until the time budget is spent. A
    // traced run alternates untraced and traced iterations. Every
    // iteration must reproduce the first one's reports and figure.
    let warm = config.clone().with_archive_dir(&archives);
    let load_mb = dir_mb(&archives, "traces-");
    let started = Instant::now();
    let mut plain = Vec::new();
    let mut plain_peaks = Vec::new();
    let mut traced = Vec::new();
    let mut traced_layers = Vec::new();
    let mut reference: Option<(u64, String)> = None;
    let mut model = Vec::new();
    let mut cycles = 0;
    for request in 1.. {
        let traced_turn = opts.traced && request % 2 == 0;
        let iteration_tracer = if traced_turn {
            &tracer
        } else {
            &Tracer::new(false)
        };
        reset_peak_rss();
        let it = iterate(spec, &warm, iteration_tracer, request);
        out.attempted += it.jobs;
        out.failed += it.failed;
        if traced_turn {
            traced_layers.push(iteration_layers(&it, load_mb));
        } else {
            plain_peaks.push(peak_rss_mb());
        }
        match &reference {
            None => {
                check_first(&config, &it, &mut out);
                model = model_metrics(&it);
                cycles = it.cycles;
                reference = Some((it.digest, it.figure.clone()));
            }
            Some((digest, figure)) => {
                out.check(it.digest == *digest && it.figure == *figure, || {
                    format!("iteration {request} changed the reports or the figure")
                });
            }
        }
        if traced_turn {
            traced.push(it.timings);
        } else {
            plain.push(it.timings);
        }
        let done = if opts.traced {
            plain.len().min(traced.len())
        } else {
            plain.len()
        };
        if started.elapsed().as_secs_f64() >= opts.seconds && done >= 1 {
            break;
        }
    }

    if let Some((digest, _)) = reference {
        out.info("reports_digest", format!("{digest:#018x}"));
    }
    // A traced run reports these as metrics.
    if spec.grid.is_empty() && !opts.traced {
        for m in model
            .iter()
            .filter(|m| m.name.starts_with("model.speedup.") || m.name == "model.paper_gap_pp")
        {
            out.info(&m.name, format!("{:.4}", m.value));
        }
    }
    out.info(
        "iterations_ms",
        plain
            .iter()
            .map(|t| format!("{:.1}", t.wall_s * 1e3))
            .collect::<Vec<_>>()
            .join(","),
    );
    if !opts.traced {
        out.info(
            "setups_s",
            setup_walls
                .iter()
                .map(|s| format!("{s:.3}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.info(
            "peaks_mb",
            format!("setup {setup_peaks:.0?} iterations {plain_peaks:.0?}"),
        );
    }
    let latency_s = wall_s(&plain);
    let busy_s = busy_s(&plain);
    out.info("sim_busy_s", format!("{busy_s:.4}"));
    if opts.traced {
        out.metrics = setup_metrics;
        out.metrics.extend(median_metrics(&traced_layers));
        out.metrics.extend(model);
        out.metrics.push(metric(
            "trace.overhead_pct",
            (wall_s(&traced) / latency_s - 1.0) * 100.0,
            "%",
        ));
        out.spans = tracer.spans();
    } else {
        let peak = quantile(&setup_peaks, LOW_QUANTILE).max(quantile(&plain_peaks, LOW_QUANTILE));
        out.metrics = vec![
            metric("latency_ms", latency_s * 1e3, "ms"),
            metric("throughput_per_s", cycles as f64 / busy_s, "1/s"),
            metric("peak_rss_mb", peak, "MB"),
            metric("setup_s", median(&setup_walls), "s"),
        ];
    }
    out
}

/// The wall time of one iteration: the low quantile (see [`quantile`]) of
/// the iterations' measured walls.
pub fn wall_s(timings: &[Timings]) -> f64 {
    quantile(
        &timings.iter().map(|t| t.wall_s).collect::<Vec<_>>(),
        LOW_QUANTILE,
    )
}

/// The simulation time of one iteration: each simulation counts with the
/// low quantile of its repetitions. A whole iteration spans several
/// changes of the host's speed, a single simulation rarely does.
pub fn busy_s(timings: &[Timings]) -> f64 {
    let jobs = timings.first().map_or(0, |t| t.job_s.len());
    (0..jobs)
        .map(|j| {
            let reps: Vec<f64> = timings
                .iter()
                .filter_map(|t| t.job_s.get(j).map(|&(_, s)| s))
                .collect();
            quantile(&reps, LOW_QUANTILE)
        })
        .sum()
}

/// The suite configuration of a workload run.
pub fn suite_config(spec: &SimSpec, opts: &RunOptions) -> SuiteConfig {
    let (sms, scale_divisor) = if opts.smoke {
        (2, 32)
    } else {
        (spec.sms, spec.scale_divisor)
    };
    SuiteConfig {
        sms,
        scale_divisor,
        seed: opts.seed,
        jobs: runner::default_jobs(),
        sim_mode: SimMode::Event,
        ..SuiteConfig::default()
    }
}

/// One untraced cold phase A, as `repro` runs it against an empty archive
/// directory; returns its wall time in seconds.
pub fn setup_plain(config: &SuiteConfig, dir: &Path) -> f64 {
    if let Err(e) = fresh_dir(dir) {
        panic!("cannot prepare {}: {e}", dir.display());
    }
    let cache = ArchiveCache::new(Some(dir.to_path_buf()));
    let start = Instant::now();
    let traces = Suite::prepare_traces(config, &cache);
    let wall = start.elapsed().as_secs_f64();
    drop(traces);
    wall
}

/// How long one iteration and its parts took, in seconds.
#[derive(Debug, Clone, Default)]
pub struct Timings {
    /// The timed part: `Suite::build_with_policy` and `figures::fig9` for
    /// `fig9`; the archive load and the grid for `fig11-quick`.
    pub wall_s: f64,
    /// Loading the traces from the archives. For `fig9` this is a separate
    /// call made by traced iterations only, outside the timed part.
    pub load_s: f64,
    /// The call the simulations ran in: for `fig9` the suite build (which
    /// loads the archives before it simulates), for `fig11-quick` the grid.
    pub sim_s: f64,
    /// Each simulation's application and time, in submission order.
    pub job_s: Vec<(App, f64)>,
    /// Rendering the figure.
    pub render_s: f64,
}

/// One measured iteration.
pub struct Iteration {
    /// How long it and its parts took.
    pub timings: Timings,
    /// The lowered traces it loaded.
    pub traces: Vec<AppTraces>,
    /// Fig. 9's runs (empty for `fig11-quick`).
    pub runs: Vec<AppRun>,
    /// Fig. 11 grid reports, in grid order (empty for `fig9`).
    pub grid: Vec<SimReport>,
    /// The rendered Fig. 9 (empty for `fig11-quick`).
    pub figure: String,
    /// Hash of every report, in run order.
    pub digest: u64,
    /// Simulated cycles over every report.
    pub cycles: u64,
    /// Simulations attempted.
    pub jobs: u64,
    /// Simulations that failed.
    pub failed: u64,
}

impl Iteration {
    fn new(
        timings: Timings,
        traces: Vec<AppTraces>,
        runs: Vec<AppRun>,
        grid: Vec<SimReport>,
        figure: String,
        (jobs, failed): (u64, u64),
    ) -> Iteration {
        let mut it = Iteration {
            timings,
            traces,
            runs,
            grid,
            figure,
            digest: 0,
            cycles: 0,
            jobs,
            failed,
        };
        it.digest = combine_hashes(
            it.reports()
                .map(|r| hsu_archive::key_hash(&format!("{r:?}"))),
        );
        it.cycles = it.reports().map(|r| r.cycles).sum();
        it
    }

    fn reports(&self) -> impl Iterator<Item = &SimReport> {
        self.runs
            .iter()
            .flat_map(|r| [&r.hsu, &r.base, &r.stripped])
            .chain(&self.grid)
    }
}

/// One warm iteration of `spec`, a span around each call when `tracer` is
/// enabled.
///
/// For `fig9` these are the calls `repro fig9` makes:
/// `Suite::build_with_policy` (archive load and the 63 simulations), then
/// `figures::fig9`. For `fig11-quick` they are `Suite::prepare_traces`,
/// then the calls `figures::fig11` makes for the grid rows:
/// `runner::run_jobs` over each HSU trace × buffer size with `Gpu::run`.
pub fn iterate(spec: &SimSpec, config: &SuiteConfig, tracer: &Tracer, req: u64) -> Iteration {
    tracer.span(None, req, "iteration", |root| {
        if spec.grid.is_empty() {
            fig9(config, tracer, root, req)
        } else {
            fig11_rows(spec, config, tracer, root, req)
        }
    })
}

/// `repro fig9` warm. A traced iteration first loads the archives on their
/// own, outside the timed part, so that the load has a span of its own.
fn fig9(config: &SuiteConfig, tracer: &Tracer, root: u64, req: u64) -> Iteration {
    let mut timings = Timings::default();
    if tracer.enabled() {
        let cache = ArchiveCache::new(config.archive_dir.clone());
        let start = Instant::now();
        tracer.span(Some(root), req, "archive.load", |_| {
            drop(Suite::prepare_traces(config, &cache));
        });
        timings.load_s = start.elapsed().as_secs_f64();
    }
    let start = Instant::now();
    let built = tracer.span(Some(root), req, "suite.build", |_| {
        Suite::build_with_policy(config.clone(), &FaultPolicy::default())
    });
    timings.sim_s = start.elapsed().as_secs_f64();
    let build = built.unwrap_or_else(|e| panic!("the suite's machine is invalid: {e}"));
    let render = Instant::now();
    let figure = tracer.span(Some(root), req, "figures.render", |_| {
        figures::fig9(&build.suite)
    });
    timings.render_s = render.elapsed().as_secs_f64();
    timings.wall_s = start.elapsed().as_secs_f64();
    // Three records per run, in run order (hsu, base, stripped).
    let suite = build.suite;
    timings.job_s = suite
        .runs
        .iter()
        .zip(suite.records.chunks(3))
        .flat_map(|(run, records)| records.iter().map(|r| (run.app, r.wall.as_secs_f64())))
        .collect();
    let jobs = build.outcomes.len() as u64;
    let failed = build.outcomes.iter().filter(|o| !o.is_ok()).count() as u64;
    Iteration::new(
        timings,
        suite.traces,
        suite.runs,
        Vec::new(),
        figure,
        (jobs, failed),
    )
}

/// The Fig. 11 grid rows of `spec`, through the calls `figures::fig11`
/// makes: `runner::run_jobs` over each row's HSU trace × buffer size.
fn fig11_rows(
    spec: &SimSpec,
    config: &SuiteConfig,
    tracer: &Tracer,
    root: u64,
    req: u64,
) -> Iteration {
    let start = Instant::now();
    let cache = ArchiveCache::new(config.archive_dir.clone());
    let traces = tracer.span(Some(root), req, "archive.load", |_| {
        Suite::prepare_traces(config, &cache)
    });
    let load_s = start.elapsed().as_secs_f64();
    let mut cells = Vec::new();
    for &(app, dataset) in spec.grid {
        let Some(at) = traces.iter().find(|t| t.app == app && t.dataset == dataset) else {
            panic!("{app:?} traces for {dataset:?} were not loaded");
        };
        for size in WARP_BUFFER_SIZES {
            cells.push((at, size));
        }
    }
    let grid = Instant::now();
    let results = tracer.span(Some(root), req, "sim.grid", |_| {
        runner::run_jobs(config.jobs, cells, |_, (at, size)| {
            let cfg = GpuConfig {
                hsu: HsuConfig::default().with_warp_buffer(size),
                ..config.gpu_config()
            };
            let start = Instant::now();
            let report = Gpu::new(cfg).run(&at.hsu);
            (at.app, report, start.elapsed().as_secs_f64())
        })
    });
    let timings = Timings {
        wall_s: start.elapsed().as_secs_f64(),
        load_s,
        sim_s: grid.elapsed().as_secs_f64(),
        job_s: results.iter().map(|(app, _, s)| (*app, *s)).collect(),
        render_s: 0.0,
    };
    let jobs = results.len() as u64;
    let failed = results.iter().filter(|(_, r, _)| r.is_err()).count() as u64;
    let reports = results.into_iter().filter_map(|(_, r, _)| r.ok()).collect();
    Iteration::new(
        timings,
        traces,
        Vec::new(),
        reports,
        String::new(),
        (jobs, failed),
    )
}

/// Checks made on the first iteration: every job succeeded, and the
/// stepped oracle reproduces the event-mode B+10K HSU report.
fn check_first(config: &SuiteConfig, first: &Iteration, out: &mut Outcome) {
    out.check(first.failed == 0, || {
        format!("{} of {} simulation jobs failed", first.failed, first.jobs)
    });
    let probe = first
        .traces
        .iter()
        .find(|t| t.app == App::Btree && t.dataset == DatasetId::BTree10k);
    let Some(at) = probe else {
        out.errors
            .push("no B+10K trace to check against the stepped oracle".into());
        return;
    };
    let run = |mode| Gpu::new(config.gpu_config().with_sim_mode(mode)).run(&at.hsu);
    match (run(SimMode::Event), run(SimMode::Stepped)) {
        (Ok(event), Ok(stepped)) => out.check(stepped.normalized() == event.normalized(), || {
            "B+10K HSU report differs between stepped and event mode".into()
        }),
        (Err(e), _) | (_, Err(e)) => out.errors.push(format!("B+10K oracle run failed: {e}")),
    }
}

/// The simulated machine's statistics over an iteration's reports; they
/// are deterministic for a seed. Speedups and the gap to the paper's
/// Fig. 9 averages need the Fig. 9 runs.
pub fn model_metrics(it: &Iteration) -> Vec<Metric> {
    let mut m = Vec::new();
    if !it.runs.is_empty() {
        let mut gap = 0.0;
        for (app, key, paper_pct) in APPS {
            let speedups: Vec<f64> = it
                .runs
                .iter()
                .filter(|r| r.app == app)
                .map(AppRun::speedup)
                .collect();
            let speedup = geomean(&speedups);
            gap += ((speedup - 1.0) * 100.0 - paper_pct).abs() / APPS.len() as f64;
            m.push(metric(format!("model.speedup.{key}"), speedup, "x"));
        }
        m.push(metric("model.paper_gap_pp", gap, "pp"));
    }
    // HSU runs: Fig. 9's HSU lowering, or every Fig. 11 cell.
    let hsu: Vec<&SimReport> = if it.runs.is_empty() {
        it.grid.iter().collect()
    } else {
        it.runs.iter().map(|r| &r.hsu).collect()
    };
    let sum =
        |rs: &[&SimReport], f: &dyn Fn(&SimReport) -> u64| -> u64 { rs.iter().map(|r| f(r)).sum() };
    let all: Vec<&SimReport> = it.reports().collect();
    let ratio = |a: u64, b: u64| a as f64 / b.max(1) as f64;
    m.extend([
        metric("model.hsu_cycles", sum(&hsu, &|r| r.cycles) as f64, "count"),
        metric(
            "model.base_cycles",
            it.runs.iter().map(|r| r.base.cycles).sum::<u64>() as f64,
            "count",
        ),
        metric(
            "model.rt.occupancy_mean",
            ratio(
                sum(&hsu, &|r| r.rt.occupancy_sum),
                sum(&hsu, &|r| r.rt.cycles),
            ),
            "count",
        ),
        metric(
            "model.rt.dispatch_stalls",
            sum(&hsu, &|r| r.rt.dispatch_stalls) as f64,
            "count",
        ),
        metric(
            "model.l1.miss_rate",
            ratio(
                sum(&all, &|r| r.memory.l1.misses),
                sum(&all, &|r| r.memory.l1.accesses()),
            ),
            "ratio",
        ),
        metric(
            "model.l1.mshr_stalls",
            sum(&all, &|r| r.memory.l1.mshr_stalls) as f64,
            "count",
        ),
        metric(
            "model.l2.miss_rate",
            ratio(
                sum(&all, &|r| r.memory.l2.misses),
                sum(&all, &|r| r.memory.l2.accesses()),
            ),
            "ratio",
        ),
        metric(
            "model.dram.row_locality",
            ratio(
                sum(&all, &|r| r.memory.dram.accesses),
                sum(&all, &|r| r.memory.dram.activations),
            ),
            "count",
        ),
    ]);
    m
}

/// Per-layer metrics of one traced iteration.
pub fn iteration_layers(it: &Iteration, load_mb: f64) -> Vec<Metric> {
    let t = &it.timings;
    let per_app: Vec<(&str, f64)> = APPS
        .iter()
        .map(|&(app, key, _)| {
            // A fold from +0, not `sum`, which reads -0 for no jobs.
            let s = t
                .job_s
                .iter()
                .filter(|(a, _)| *a == app)
                .fold(0.0, |acc, (_, s)| acc + s);
            (key, s)
        })
        .collect();
    let busy: f64 = per_app.iter().map(|(_, s)| s).sum();
    let ticks: u64 = it.reports().map(|r| r.sched.ticks_executed).sum();
    let skipped: u64 = it.reports().map(|r| r.sched.cycles_skipped).sum();
    let workers = runner::default_jobs() as f64;
    let mut m = vec![
        metric("archive.load_s", t.load_s, "s"),
        metric("archive.load_mb", load_mb, "MB"),
        metric("sim.busy_s", busy, "s"),
    ];
    for (key, s) in per_app {
        m.push(metric(format!("sim.busy_s.{key}"), s, "s"));
    }
    m.extend([
        metric("sim.jobs", it.jobs as f64, "count"),
        metric("sim.ticks", ticks as f64, "count"),
        metric(
            "sim.skip_frac",
            skipped as f64 / (ticks + skipped).max(1) as f64,
            "ratio",
        ),
        metric("sim.ns_per_tick", busy * 1e9 / ticks.max(1) as f64, "ns"),
        metric(
            "runner.idle_frac",
            1.0 - busy / (workers * t.sim_s).max(f64::MIN_POSITIVE),
            "ratio",
        ),
        metric("figures.render_s", t.render_s, "s"),
    ]);
    m
}

/// Layers the traced set-up attributes time to, in reporting order.
pub const SETUP_LAYERS: [&str; 8] = [
    "datasets.gen",
    "graph.build",
    "kdtree.build",
    "bvh.build",
    "btree.build",
    "kernels.record",
    "kernels.lower",
    "archive.store",
];

/// Per-layer metrics of a traced set-up: seconds per layer, the archive
/// bytes written, and the set-up's own time outside every layer.
pub fn setup_layers(spans: &[Span], dir: &Path) -> Vec<Metric> {
    let Some(root) = spans.iter().find(|s| s.name == "setup") else {
        unreachable!("the traced set-up records its root span");
    };
    let mut m: Vec<Metric> = SETUP_LAYERS
        .iter()
        .map(|name| metric(format!("{name}_s"), child_s(spans, root.id, name), "s"))
        .collect();
    m.push(metric("archive.store_mb", dir_mb(dir, ""), "MB"));
    m.push(metric(
        "setup.self_s",
        self_ns(root, spans) as f64 / 1e9,
        "s",
    ));
    m
}

/// The suite's `(points, queries)` per GGNN dataset, as in `hsu_bench::suite`.
fn ggnn_size(id: DatasetId) -> (usize, usize) {
    match id {
        DatasetId::Deep1b => (8000, 192),
        DatasetId::FashionMnist | DatasetId::Mnist => (2000, 128),
        DatasetId::Gist => (1500, 128),
        DatasetId::Glove => (5000, 192),
        DatasetId::LastFm => (6000, 192),
        DatasetId::Nytimes => (4000, 192),
        DatasetId::Sift1m => (6000, 192),
        DatasetId::Sift10k => (3000, 192),
        _ => unreachable!("not a GGNN dataset"),
    }
}

/// Runs calls inside spans under one set-up root.
struct Layers<'a> {
    tracer: &'a Tracer,
    root: u64,
    req: u64,
}

impl Layers<'_> {
    fn call<T>(&self, name: &str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(Some(self.root), self.req, name, |_| f())
    }

    /// Generates one dataset and stores it, as the suite's cache-miss path
    /// does.
    fn dataset(
        &self,
        cache: &ArchiveCache,
        id: DatasetId,
        seed: u64,
        n: usize,
    ) -> hsu_geometry::point::PointSet {
        let ds = self.call("datasets.gen", || {
            Dataset::generate_scaled(id, seed, Some(n))
        });
        let dkey = format!("hsar-dataset-v1|{id:?}|seed={seed}|n={n}");
        self.call("archive.store", || {
            cache.store_dataset(&format!("dataset-{id:?}"), &dkey, &ds);
        });
        match ds.points() {
            Some(p) => p.clone(),
            None => panic!("dataset {id:?} is not a point dataset"),
        }
    }

    /// Lowers one workload three ways and stores the traces under `names`.
    fn lower_and_store(
        &self,
        cache: &ArchiveCache,
        stem: &str,
        key: &str,
        names: &[&str],
        lowerings: &[&dyn Fn(Variant) -> KernelTrace],
    ) {
        let traces: Vec<KernelTrace> = lowerings
            .iter()
            .flat_map(|lower| {
                [Variant::Hsu, Variant::Baseline, Variant::BaselineStripped]
                    .map(|v| self.call("kernels.lower", || lower(v)))
            })
            .collect();
        let named: Vec<(&str, &KernelTrace)> = names.iter().copied().zip(&traces).collect();
        self.call("archive.store", || cache.store_traces(stem, key, &named));
    }
}

/// Traced cold phase A: the suite's build plan and archive keys, one job
/// after another so that the spans under `setup` never overlap and, with
/// its self time, sum to its wall time. A copy of `build_one` in
/// `crates/bench/src/suite.rs` that must change with it (see the module
/// docs).
pub fn setup_traced(config: &SuiteConfig, dir: &Path, tracer: &Tracer, req: u64) {
    if let Err(e) = fresh_dir(dir) {
        panic!("cannot prepare {}: {e}", dir.display());
    }
    let cache = ArchiveCache::new(Some(dir.to_path_buf()));
    let scaled = |n: usize| (n / config.scale_divisor).max(64);
    let seed = config.seed;
    tracer.span(None, req, "setup", |root| {
        let l = Layers { tracer, root, req };
        for id in DatasetId::HIGH_DIM {
            let spec = hsu_datasets::spec(id);
            let (points, queries) = ggnn_size(id);
            let n = scaled(points);
            let Some(metric) = spec.metric else {
                panic!("ANN dataset {id:?} has no metric");
            };
            let params = GgnnParams {
                points: n,
                dim: spec.dims,
                queries: scaled(queries).max(48).min(queries.max(48)),
                metric,
                k: 10,
                ef: 64,
                m: 16,
                seed,
            };
            let data = l.dataset(&cache, id, seed, n);
            let gcfg = GgnnWorkload::graph_config(&params);
            let gkey = format!("hsar-graph-v1|{id:?}|seed={seed}|n={n}|metric={metric:?}|{gcfg:?}");
            let graph = l.call("graph.build", || {
                hsu_graph::HnswGraph::build(&data, metric, gcfg, seed)
            });
            l.call("archive.store", || {
                cache.store_graph(&format!("graph-{id:?}"), &gkey, &graph);
            });
            let wl = l.call("kernels.record", || {
                GgnnWorkload::build_with_graph(&params, &data, &graph)
            });
            l.lower_and_store(
                &cache,
                &format!("traces-ggnn-{id:?}"),
                &format!("hsar-traces-v1|ggnn|{id:?}|{params:?}"),
                &["hsu", "base", "stripped"],
                &[&|v| wl.trace(v)],
            );
        }
        for id in DatasetId::THREE_D {
            let spec = hsu_datasets::spec(id);
            let n = scaled(spec.scaled_points.min(15_000));
            let queries = scaled(4096).max(2048);
            let fparams = FlannParams {
                points: n,
                queries,
                k: 5,
                checks: 16,
                seed,
            };
            let bparams = BvhnnParams {
                points: n,
                queries,
                radius_scale: 1.5,
                flavor: Default::default(),
                seed,
            };
            let data = l.dataset(&cache, id, seed, n);
            let tree = l.call("kdtree.build", || FlannWorkload::build_tree(&data));
            let kkey = format!("hsar-kdtree-v1|{id:?}|seed={seed}|n={n}|leaf=4|metric=euclid");
            l.call("archive.store", || {
                cache.store_kdtree(&format!("kdtree-{id:?}"), &kkey, &tree);
            });
            let fw = l.call("kernels.record", || {
                FlannWorkload::build_with_tree(&fparams, &data, &tree)
            });
            let (bvh2, radius) = l.call("bvh.build", || BvhnnWorkload::plan(&bparams, &data));
            let bkey = format!(
                "hsar-bvh-v1|{id:?}|seed={seed}|n={n}|flavor={:?}|rs={}",
                bparams.flavor, bparams.radius_scale
            );
            l.call("archive.store", || {
                cache.store_bvh(&format!("bvh-{id:?}"), &bkey, &bvh2, radius);
            });
            let bw = l.call("kernels.record", || {
                BvhnnWorkload::build_with_bvh(&bparams, &data, &bvh2, radius)
            });
            l.lower_and_store(
                &cache,
                &format!("traces-3d-{id:?}"),
                &format!("hsar-traces-v1|3d|{id:?}|{fparams:?}|{bparams:?}"),
                &[
                    "flann-hsu",
                    "flann-base",
                    "flann-stripped",
                    "bvhnn-hsu",
                    "bvhnn-base",
                    "bvhnn-stripped",
                ],
                &[&|v| fw.trace(v), &|v| bw.trace(v)],
            );
        }
        for id in [DatasetId::BTree1m, DatasetId::BTree10k] {
            let spec = hsu_datasets::spec(id);
            let params = BtreeParams {
                keys: scaled(spec.scaled_points),
                queries: scaled(8192).max(2048),
                branch: 256,
                seed,
            };
            let (pairs, lookups) =
                l.call("datasets.gen", || BtreeWorkload::generate_inputs(&params));
            let tree = l.call("btree.build", || {
                hsu_btree::BPlusTree::bulk_build(pairs.clone(), params.branch)
            });
            let ikey = format!("hsar-btree-v1|{id:?}|{params:?}");
            l.call("archive.store", || {
                cache.store_btree(&format!("btree-{id:?}"), &ikey, &tree);
            });
            let wl = l.call("kernels.record", || {
                BtreeWorkload::build_with_tree(&pairs, &lookups, tree)
            });
            l.lower_and_store(
                &cache,
                &format!("traces-btree-{id:?}"),
                &format!("hsar-traces-v1|btree|{id:?}|{params:?}"),
                &["hsu", "base", "stripped"],
                &[&|v| wl.trace(v)],
            );
        }
    });
}
