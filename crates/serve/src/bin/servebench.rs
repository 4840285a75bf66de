//! `servebench` — open-loop load driver for the serving engine.
//!
//! ```text
//! servebench [--smoke] [--family graph|kd|bvh|btree|all]
//!            [--queries N] [--workers N] [--batch N]
//!            [--queue-capacity N] [--window N] [--seed S]
//!            [--priority-mix PCT] [--deadline-us N] [--slo-us N] [--chaos]
//!            [--archive-dir DIR] [--pr LABEL] [--out PATH]
//! ```
//!
//! For each index family the driver:
//!
//! 1. opens the pre-built index through the `.hsar` archive cache (cold
//!    open builds and stores, warm open is an archive read),
//! 2. **determinism cross-check** — replays a seeded query-stream prefix
//!    under every `--batch {1,64} × --workers {1,2,4}` combination and
//!    asserts the submission-order replay hash is byte-identical across
//!    all six configurations (exits non-zero on any mismatch),
//! 3. drives `--queries` queries through the engine at the requested
//!    topology, measuring sustained QPS and p50/p99/p999 latency (latency
//!    = admission request to worker fulfillment, taken from the ticket's
//!    completion timestamp so redeeming tickets in submission order adds
//!    no head-of-line skew).
//!
//! The default discipline is **open-loop**: up to `--window` (default
//! 4096) tickets ride in flight, so at saturation the reported latency is
//! dominated by time-in-queue, not service time — the classic open-loop
//! caveat. `--window 1` is the closed loop: one outstanding query at a
//! time (submit, redeem, repeat), so the queue is empty at every
//! admission and the percentiles are pure *service* latency; the entry
//! records it as mode `closed-loop`. The two disciplines change only
//! timing — the answer stream (and therefore the replay hash) is
//! identical, which a unit test in this file pins.
//!
//! **Resilience drivers** exercise the engine's overload and failure
//! handling:
//!
//! - `--priority-mix PCT` submits PCT% of the stream as `Interactive`
//!   and the rest as `Batch` via non-blocking admission; per-class
//!   latency percentiles and shed counts are reported separately.
//! - `--slo-us N` sets a uniform per-family p99 target: an engine over
//!   target sheds `Batch` (typed `Overloaded`) while `Interactive`
//!   keeps admitting.
//! - `--deadline-us N` attaches a deadline to every query; expired work
//!   resolves `DeadlineExceeded`, never a silent late answer.
//! - `--chaos` wraps the index in the `hsu_serve::chaos` harness (one
//!   injected worker panic + a stall on every batch) and asserts the engine
//!   kept serving: the run fails unless the panic was counted, every
//!   query was served or failed `worker-crashed`, and the crashed
//!   queries fit in one batch. Shed or expired queries would fail that
//!   gate by construction, so `--chaos` with `--priority-mix`, `--slo-us`
//!   or `--deadline-us` is a usage error.
//!
//! Per-query failures are **counted by typed class, never panicked on**:
//! the exit code is non-zero only for unexpected classes (`bad-query`,
//! `bad-index`) or a chaos run that lost more than the panicked batch.
//!
//! Unless `--smoke` is set, one entry is appended to the trajectory JSON
//! (`BENCH_sim.json` by default) with the per-family numbers, failure
//! counters, engine stats, replay hashes, and the host core count.
//! `--smoke` shrinks the counts for CI and skips the append; the
//! determinism cross-check still runs.

use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hsu_bench::trajectory::{append_entry, Json};
use hsu_bench::{obj, runner, ArchiveCache};
use hsu_datasets::{key_stream_nth, DatasetId, QueryStream};
use hsu_serve::chaos::{install_quiet_panic_hook, ChaosIndex, ChaosPlan};
use hsu_serve::prelude::*;

/// One family ready to serve: the index plus its seeded query stream.
struct Served {
    family: IndexFamily,
    index: Arc<dyn SearchIndex>,
    gen: Arc<dyn Fn(u64) -> Query + Send + Sync>,
}

/// Per-priority-class latency slice of a measured run.
struct ClassLat {
    name: &'static str,
    served: u64,
    shed: u64,
    p50_us: f64,
    p99_us: f64,
}

/// One measured open-loop run.
struct LoadResult {
    queries: u64,
    completed: u64,
    wall_s: f64,
    qps: f64,
    p50_us: f64,
    p99_us: f64,
    p999_us: f64,
    replay_hash: u64,
    // Typed per-query failure classes, counted rather than panicked on.
    shed: u64,
    deadline_exceeded: u64,
    worker_crashed: u64,
    unexpected: u64,
    classes: Vec<ClassLat>,
    stats: EngineStats,
}

/// How the measured run drives the resilience layer. The zero value
/// (`LoadPlan::plain()`) is blocking admission, no deadlines, no
/// faults — any per-query failure is then *unexpected*.
#[derive(Clone, Default)]
struct LoadPlan {
    /// Percent of the stream submitted as `Interactive` (rest `Batch`).
    /// Implies non-blocking admission so overload sheds instead of
    /// stalling the driver.
    mix_interactive_pct: Option<u32>,
    /// Per-query latency budget.
    deadline: Option<Duration>,
    /// Non-blocking admission even without a mix (set when an SLO can
    /// shed submissions).
    shed_on_overload: bool,
    /// Wrap the index in the chaos harness: one worker panic mid-run,
    /// a stall on every batch.
    chaos: bool,
}

impl LoadPlan {
    fn plain() -> Self {
        LoadPlan::default()
    }

    fn nonblocking(&self) -> bool {
        self.mix_interactive_pct.is_some() || self.shed_on_overload
    }
}

struct Options {
    families: Vec<IndexFamily>,
    queries: u64,
    workers: usize,
    batch: usize,
    queue_capacity: usize,
    window: usize,
    seed: u64,
    smoke: bool,
    priority_mix: Option<u32>,
    deadline_us: Option<u64>,
    slo_us: Option<u64>,
    chaos: bool,
    archive_dir: Option<std::path::PathBuf>,
    pr_label: String,
    out_path: std::path::PathBuf,
}

/// Default outstanding-ticket window of the open-loop discipline. A
/// window of 1 is the closed loop: the queue is empty at every admission,
/// so measured latency is service time alone.
const OPEN_WINDOW: usize = 4096;

fn main() {
    let opts = parse_args();
    if opts.chaos {
        install_quiet_panic_hook();
    }
    let host_cores = runner::default_jobs();
    eprintln!(
        "servebench: host_cores={host_cores} workers={} batch={} capacity={} seed={} \
         queries/family={}",
        opts.workers, opts.batch, opts.queue_capacity, opts.seed, opts.queries
    );
    if opts.priority_mix.is_some() || opts.slo_us.is_some() || opts.deadline_us.is_some() {
        eprintln!(
            "resilience: priority-mix={:?} slo-us={:?} deadline-us={:?} chaos={}",
            opts.priority_mix, opts.slo_us, opts.deadline_us, opts.chaos
        );
    }

    let (cache_dir, cleanup_cache) = match opts.archive_dir.clone() {
        Some(d) => (d, false),
        None => (
            std::env::temp_dir().join(format!("hsu-servebench-cache-{}", std::process::id())),
            true,
        ),
    };
    let cache = ArchiveCache::new(Some(cache_dir.clone()));

    let t0 = Instant::now();
    let served = open_families(&cache, opts.seed, &opts.families);
    eprintln!(
        "opened {} index families in {:.2}s ({} cache hits / {} misses) via {}",
        served.len(),
        t0.elapsed().as_secs_f64(),
        cache.hits(),
        cache.misses(),
        cache_dir.display()
    );

    // Determinism cross-check: the same seeded prefix must hash
    // identically under every topology. Always unfaulted and blocking —
    // resilience flags apply only to the measured run.
    let dcheck_n = if opts.smoke { 400 } else { 10_000 };
    let mut mismatches = 0usize;
    for s in &served {
        let mut hashes: Vec<(String, u64)> = Vec::new();
        for batch in [1usize, 64] {
            for workers in [1usize, 2, 4] {
                let cfg = EngineConfig {
                    workers,
                    batch,
                    queue_capacity: opts.queue_capacity,
                    ..Default::default()
                };
                let r = run_load(s, cfg, dcheck_n, OPEN_WINDOW, &LoadPlan::plain());
                hashes.push((format!("b{batch}w{workers}"), r.replay_hash));
            }
        }
        let first = hashes[0].1;
        if hashes.iter().all(|&(_, h)| h == first) {
            eprintln!(
                "determinism[{}]: {} queries x {} configs -> {first:#018x} identical",
                s.family,
                dcheck_n,
                hashes.len()
            );
        } else {
            mismatches += 1;
            eprintln!("determinism[{}]: HASH MISMATCH across configs:", s.family);
            for (label, h) in &hashes {
                eprintln!("  {label}: {h:#018x}");
            }
        }
    }
    if mismatches > 0 {
        eprintln!("error: {mismatches} famil(ies) diverged across batch/worker configs");
        std::process::exit(1);
    }

    // The measured runs at the requested topology and load discipline.
    let cfg = EngineConfig {
        workers: opts.workers,
        batch: opts.batch,
        queue_capacity: opts.queue_capacity,
        slo: match opts.slo_us {
            Some(us) => SloPolicy::uniform(us),
            None => SloPolicy::none(),
        },
    };
    let plan = LoadPlan {
        mix_interactive_pct: opts.priority_mix,
        deadline: opts.deadline_us.map(Duration::from_micros),
        shed_on_overload: opts.slo_us.is_some(),
        chaos: opts.chaos,
    };
    let mode = if opts.window == 1 { "closed" } else { "open" };
    let mut results: Vec<(IndexFamily, LoadResult)> = Vec::new();
    let mut failed = false;
    for s in &served {
        let r = run_load(s, cfg.clone(), opts.queries, opts.window, &plan);
        println!(
            "{:<6} [{mode}-loop] {:>9} queries in {:>7.2}s | {:>10.0} qps | p50 {:>8.1}us \
             p99 {:>8.1}us p999 {:>8.1}us | hash {:#018x}",
            s.family.to_string(),
            r.completed,
            r.wall_s,
            r.qps,
            r.p50_us,
            r.p99_us,
            r.p999_us,
            r.replay_hash
        );
        for c in &r.classes {
            println!(
                "       class {:<11} served {:>9} shed {:>7} | p50 {:>8.1}us p99 {:>8.1}us",
                c.name, c.served, c.shed, c.p50_us, c.p99_us
            );
        }
        if r.shed + r.deadline_exceeded + r.worker_crashed + r.unexpected > 0 || plan.chaos {
            println!(
                "       failures: shed {} | deadline-exceeded {} | worker-crashed {} \
                 | unexpected {}",
                r.shed, r.deadline_exceeded, r.worker_crashed, r.unexpected
            );
            println!(
                "       engine: admitted {} completed {} queue-sheds {} slo-sheds {} \
                 deadline-drops {} panics {}",
                r.stats.admitted,
                r.stats.completed,
                r.stats.queue_full_sheds,
                r.stats.slo_sheds,
                r.stats.deadline_drops,
                r.stats.worker_panics
            );
        }
        if r.unexpected > 0 {
            eprintln!(
                "error[{}]: {} queries failed with unexpected error classes",
                s.family, r.unexpected
            );
            failed = true;
        }
        if plan.chaos {
            if let Err(why) = chaos_kept_serving(&r, cfg.batch) {
                eprintln!("error[{}]: {why}", s.family);
                failed = true;
            }
        }
        results.push((s.family, r));
    }

    if !opts.smoke {
        let entry = json_entry(&opts, host_cores, dcheck_n, &results);
        append_entry(&opts.out_path, &entry)
            .unwrap_or_else(|e| panic!("append {}: {e}", opts.out_path.display()));
        println!(
            "appended entry '{}' to {}",
            opts.pr_label,
            opts.out_path.display()
        );
    }
    if cleanup_cache {
        let _ = std::fs::remove_dir_all(&cache_dir);
    }
    if failed {
        std::process::exit(1);
    }
}

/// Opens every requested family through the cache, in parallel on the
/// bench runner's job pool (1-core hosts run inline).
fn open_families(cache: &ArchiveCache, seed: u64, families: &[IndexFamily]) -> Vec<Served> {
    runner::run_jobs(
        families.len().min(runner::default_jobs()),
        families.to_vec(),
        |_, family| open_one(cache, seed, family),
    )
}

fn open_one(cache: &ArchiveCache, seed: u64, family: IndexFamily) -> Served {
    match family {
        IndexFamily::Graph => {
            let index = GraphIndex::open(cache, DatasetId::Sift10k, 2000, seed, 10, 32)
                .unwrap_or_else(|e| panic!("open graph index: {e}"));
            let stream = QueryStream::new(index.data(), seed ^ 0x5e7e);
            let data = index.data().clone();
            Served {
                family,
                index: Arc::new(index),
                gen: Arc::new(move |i| Query::Vector(stream.nth(&data, i))),
            }
        }
        IndexFamily::Kd => {
            let index = KdIndex::open(cache, DatasetId::Bunny, 5000, seed, 5, 16)
                .unwrap_or_else(|e| panic!("open kd index: {e}"));
            let stream = QueryStream::new(index.data(), seed ^ 0x5e7e);
            let data = index.data().clone();
            Served {
                family,
                index: Arc::new(index),
                gen: Arc::new(move |i| Query::Vector(stream.nth(&data, i))),
            }
        }
        IndexFamily::Bvh => {
            let index = BvhIndex::open(cache, DatasetId::Bunny, 5000, seed, 5)
                .unwrap_or_else(|e| panic!("open bvh index: {e}"));
            let stream = QueryStream::new(index.data(), seed ^ 0x5e7e);
            let data = index.data().clone();
            Served {
                family,
                index: Arc::new(index),
                gen: Arc::new(move |i| Query::Vector(stream.nth(&data, i))),
            }
        }
        IndexFamily::Btree => {
            let index = BtreeIndex::open(cache, 100_000, seed);
            let space = index.key_space();
            let kseed = seed ^ 0xb7ee;
            Served {
                family,
                index: Arc::new(index),
                gen: Arc::new(move |i| Query::Key(key_stream_nth(kseed, i, space))),
            }
        }
    }
}

/// Deterministic priority assignment for `--priority-mix`: query `i` is
/// `Interactive` with probability `pct`%, `Batch` otherwise.
fn pick_priority(i: u64, pct: u32) -> Priority {
    let h = i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33;
    if h % 100 < u64::from(pct) {
        Priority::Interactive
    } else {
        Priority::Batch
    }
}

/// Drives `n` queries through a fresh engine at `cfg`, bounding
/// outstanding tickets with a sliding `window` redeemed in submission
/// order (which is also the replay-hash fold order). `OPEN_WINDOW` is the
/// open-loop discipline; `1` is closed-loop (pure service latency).
///
/// Per-query failures are counted by typed class, never panicked on;
/// the replay hash folds the successfully served subset in submission
/// order (in an unfaulted, unshed run that is every query).
fn run_load(s: &Served, cfg: EngineConfig, n: u64, window: usize, plan: &LoadPlan) -> LoadResult {
    let index: Arc<dyn SearchIndex> = if plan.chaos {
        // One worker panic mid-run plus a stall on every batch — the ci
        // smoke fault pair.
        let chaos_plan = ChaosPlan {
            panic_on: vec![(n / 2).max(1)],
            slow_delay: Some(Duration::from_micros(500)),
        };
        Arc::new(ChaosIndex::new(Arc::clone(&s.index), chaos_plan))
    } else {
        Arc::clone(&s.index)
    };
    let engine = Engine::new(index, cfg);
    let mut outstanding: VecDeque<(Ticket, Instant, Priority)> = VecDeque::with_capacity(window);
    let mut lat_ns: Vec<u64> = Vec::with_capacity(n as usize);
    // Per-class latency slices, indexed by `Priority::band()`.
    let mut class_lat_ns: [Vec<u64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    let mut class_shed: [u64; 3] = [0; 3];
    let mut hashes: Vec<u64> = Vec::with_capacity(n as usize);
    let mut shed = 0u64;
    let mut counts = RedeemCounts::default();
    let t0 = Instant::now();
    let mut last_done = t0;
    for i in 0..n {
        let query = (s.gen)(i);
        let priority = match plan.mix_interactive_pct {
            Some(pct) => pick_priority(i, pct),
            None => Priority::Normal,
        };
        let qopts = SubmitOptions {
            priority,
            deadline: plan.deadline.map(|d| Instant::now() + d),
        };
        let submitted = Instant::now();
        let admitted = if plan.nonblocking() {
            engine.try_submit_with(query, qopts)
        } else {
            engine.submit_with(query, qopts)
        };
        match admitted {
            Ok(ticket) => outstanding.push_back((ticket, submitted, priority)),
            Err(ServeError::Overloaded { .. }) if plan.nonblocking() => {
                shed += 1;
                class_shed[priority.band()] += 1;
            }
            Err(e) => {
                eprintln!(
                    "{} submit failed unexpectedly: {e} [{}]",
                    s.family,
                    e.kind()
                );
                counts.unexpected += 1;
            }
        }
        if outstanding.len() >= window {
            if let Some(front) = outstanding.pop_front() {
                redeem(
                    s.family,
                    front,
                    &mut lat_ns,
                    &mut class_lat_ns,
                    &mut hashes,
                    &mut last_done,
                    &mut counts,
                );
            }
        }
    }
    for front in outstanding.drain(..) {
        redeem(
            s.family,
            front,
            &mut lat_ns,
            &mut class_lat_ns,
            &mut hashes,
            &mut last_done,
            &mut counts,
        );
    }
    // Every counter is bumped before its ticket is fulfilled, so with all
    // tickets redeemed the snapshot is exact.
    let stats = engine.stats();
    drop(engine);
    let wall_s = last_done.saturating_duration_since(t0).as_secs_f64();
    let replay_hash = combine_hashes(hashes);
    let completed = lat_ns.len() as u64;
    lat_ns.sort_unstable();
    let classes = match plan.mix_interactive_pct {
        Some(_) => [Priority::Interactive, Priority::Batch]
            .iter()
            .map(|p| {
                let slice = &mut class_lat_ns[p.band()];
                slice.sort_unstable();
                ClassLat {
                    name: p.name(),
                    served: slice.len() as u64,
                    shed: class_shed[p.band()],
                    p50_us: percentile_us(slice, 0.50),
                    p99_us: percentile_us(slice, 0.99),
                }
            })
            .collect(),
        None => Vec::new(),
    };
    LoadResult {
        queries: n,
        completed,
        wall_s,
        qps: completed as f64 / wall_s.max(1e-9),
        p50_us: percentile_us(&lat_ns, 0.50),
        p99_us: percentile_us(&lat_ns, 0.99),
        p999_us: percentile_us(&lat_ns, 0.999),
        replay_hash,
        shed,
        deadline_exceeded: counts.deadline_exceeded,
        worker_crashed: counts.worker_crashed,
        unexpected: counts.unexpected,
        classes,
        stats,
    }
}

/// The `--chaos` gate: the one injected panic was counted, every query
/// was either served or failed `worker-crashed`, and the casualties fit
/// in one batch — the panic ended its batch and the engine served the
/// rest.
fn chaos_kept_serving(r: &LoadResult, batch: usize) -> Result<(), String> {
    if r.stats.worker_panics == 0 {
        return Err("chaos injected a worker panic but the engine never counted it".into());
    }
    if r.completed + r.worker_crashed != r.queries {
        return Err(format!(
            "{} of {} queries were neither served nor failed worker-crashed",
            r.queries - r.completed - r.worker_crashed,
            r.queries
        ));
    }
    if r.worker_crashed > batch as u64 {
        return Err(format!(
            "the panic cost {} queries, more than one {batch}-query batch",
            r.worker_crashed
        ));
    }
    Ok(())
}

/// Typed per-query failure tallies of one measured run.
#[derive(Default)]
struct RedeemCounts {
    deadline_exceeded: u64,
    worker_crashed: u64,
    unexpected: u64,
}

/// Redeems one outstanding ticket: successes feed the latency and
/// replay-hash folds, typed failures are tallied, unexpected classes are
/// tallied *and* logged (they flip the exit code in `main`).
#[allow(clippy::too_many_arguments)]
fn redeem(
    family: IndexFamily,
    (ticket, submitted, priority): (Ticket, Instant, Priority),
    lat_ns: &mut Vec<u64>,
    class_lat_ns: &mut [Vec<u64>; 3],
    hashes: &mut Vec<u64>,
    last_done: &mut Instant,
    counts: &mut RedeemCounts,
) {
    let (result, done_at) = ticket.wait_timed();
    match result {
        Ok(out) => {
            hashes.push(hash_output(&out));
            let ns = done_at.saturating_duration_since(submitted).as_nanos() as u64;
            lat_ns.push(ns);
            class_lat_ns[priority.band()].push(ns);
            if done_at > *last_done {
                *last_done = done_at;
            }
        }
        Err(ServeError::DeadlineExceeded) => counts.deadline_exceeded += 1,
        Err(ServeError::WorkerCrashed) => counts.worker_crashed += 1,
        Err(e) => {
            eprintln!("{family} query failed unexpectedly: {e} [{}]", e.kind());
            counts.unexpected += 1;
        }
    }
}

/// Nearest-rank percentile of sorted nanosecond latencies, in microseconds.
fn percentile_us(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((p * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len()) - 1;
    sorted_ns[rank] as f64 / 1_000.0
}

fn json_entry(
    opts: &Options,
    host_cores: usize,
    dcheck_n: u64,
    results: &[(IndexFamily, LoadResult)],
) -> Json {
    let fixed = Json::fixed;
    let families = results.iter().map(|(family, r)| {
        let classes = r.classes.iter().map(|c| {
            let class = obj! {
                "served" => c.served, "shed" => c.shed,
                "p50_us" => fixed(c.p50_us, 3), "p99_us" => fixed(c.p99_us, 3),
            };
            (c.name.to_string(), class)
        });
        let row = obj! {
            "queries" => r.queries, "completed" => r.completed, "wall_s" => fixed(r.wall_s, 6),
            "qps" => fixed(r.qps, 1), "p50_us" => fixed(r.p50_us, 3),
            "p99_us" => fixed(r.p99_us, 3), "p999_us" => fixed(r.p999_us, 3),
            "shed" => r.shed, "deadline_exceeded" => r.deadline_exceeded,
            "worker_crashed" => r.worker_crashed, "slo_sheds" => r.stats.slo_sheds,
            "deadline_drops" => r.stats.deadline_drops, "worker_panics" => r.stats.worker_panics,
            "classes" => Json::object(classes.collect()),
            "replay_hash" => format!("{:#018x}", r.replay_hash).as_str(),
        };
        (family.to_string(), row)
    });
    obj! {
        "pr" => opts.pr_label.as_str(),
        "bench" => "servebench",
        "config" => obj! {
            "host_cores" => host_cores, "workers" => opts.workers, "batch" => opts.batch,
            "queue_capacity" => opts.queue_capacity, "window" => opts.window,
            "seed" => opts.seed, "queries_per_family" => opts.queries,
            "mode" => if opts.window == 1 { "closed-loop" } else { "open-loop" },
            "priority_mix_pct" => opts.priority_mix, "slo_us" => opts.slo_us,
            "deadline_us" => opts.deadline_us, "chaos" => opts.chaos,
        },
        "determinism" => obj! { "queries" => dcheck_n, "configs" => 6u64, "identical" => true },
        "families" => Json::object(families.collect()),
    }
}

fn parse_args() -> Options {
    let mut opts = Options {
        families: IndexFamily::ALL.to_vec(),
        queries: 250_000,
        workers: 2,
        batch: 64,
        queue_capacity: 2048,
        window: OPEN_WINDOW,
        seed: 1,
        smoke: false,
        priority_mix: None,
        deadline_us: None,
        slo_us: None,
        chaos: false,
        archive_dir: None,
        pr_label: String::from("dev"),
        out_path: std::path::PathBuf::from("BENCH_sim.json"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => {
                opts.smoke = true;
                opts.queries = 2_000;
            }
            "--chaos" => {
                opts.chaos = true;
            }
            "--family" => {
                let v = args
                    .next()
                    .unwrap_or_else(|| usage("--family needs a name"));
                opts.families = match v.as_str() {
                    "all" => IndexFamily::ALL.to_vec(),
                    "graph" => vec![IndexFamily::Graph],
                    "kd" => vec![IndexFamily::Kd],
                    "bvh" => vec![IndexFamily::Bvh],
                    "btree" => vec![IndexFamily::Btree],
                    other => usage(&format!("unknown family '{other}'")),
                };
            }
            "--queries" => opts.queries = count_arg(&mut args, "--queries"),
            "--workers" => opts.workers = count_arg(&mut args, "--workers"),
            "--batch" => opts.batch = count_arg(&mut args, "--batch"),
            "--queue-capacity" => opts.queue_capacity = count_arg(&mut args, "--queue-capacity"),
            "--window" => opts.window = count_arg(&mut args, "--window"),
            "--priority-mix" => {
                opts.priority_mix = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .filter(|&p: &u32| p <= 100)
                        .unwrap_or_else(|| usage("--priority-mix needs a percentage 0-100")),
                );
            }
            "--deadline-us" => {
                opts.deadline_us = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--deadline-us needs a number")),
                );
            }
            "--slo-us" => {
                opts.slo_us = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--slo-us needs a number")),
                );
            }
            "--seed" => {
                opts.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seed needs a number"));
            }
            "--archive-dir" => {
                opts.archive_dir = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--archive-dir needs a directory"))
                        .into(),
                );
            }
            "--pr" => {
                opts.pr_label = args.next().unwrap_or_else(|| usage("--pr needs a label"));
            }
            "--out" => {
                opts.out_path = args
                    .next()
                    .unwrap_or_else(|| usage("--out needs a path"))
                    .into();
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument '{other}'")),
        }
    }
    if let Some(flag) = chaos_conflict(&opts) {
        usage(&format!(
            "--chaos cannot be combined with {flag}: its gate requires every query \
             to be served or to fail worker-crashed"
        ));
    }
    opts
}

/// The resilience flag that makes a `--chaos` run unreadable, if any: a
/// query shed by priority or SLO, or expired by its deadline, is neither
/// served nor crashed, so [`chaos_kept_serving`] would fail it.
fn chaos_conflict(opts: &Options) -> Option<&'static str> {
    if !opts.chaos {
        None
    } else if opts.priority_mix.is_some() {
        Some("--priority-mix")
    } else if opts.slo_us.is_some() {
        Some("--slo-us")
    } else if opts.deadline_us.is_some() {
        Some("--deadline-us")
    } else {
        None
    }
}

/// The next argument as a nonzero count, or a usage error naming `flag`:
/// a zero worker, batch or queue size would be silently run as 1,
/// and zero queries would report an empty measurement.
fn count_arg<T: std::str::FromStr + Default + PartialEq>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
) -> T {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(|n| *n != T::default())
        .unwrap_or_else(|| usage(&format!("{flag} needs a number >= 1")))
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: servebench [--smoke] [--family graph|kd|bvh|btree|all]\n\
         \x20                 [--queries N] [--workers N] [--batch N]\n\
         \x20                 [--queue-capacity N] [--window N] [--seed S]\n\
         \x20                 [--priority-mix PCT] [--deadline-us N] [--slo-us N] [--chaos]\n\
         \x20                 [--archive-dir DIR] [--pr LABEL] [--out PATH]\n\
         drives seeded query load through the serving engine for each index family:\n\
         first a determinism cross-check (replay hashes must be identical across\n\
         batch {{1,64}} x workers {{1,2,4}}), then a measured run at the requested\n\
         topology reporting sustained QPS and p50/p99/p999 latency. The default\n\
         discipline is open-loop (--window tickets in flight, default 4096: latency\n\
         at saturation is queue time); --window 1 is the closed loop, one query\n\
         outstanding, so the percentiles are pure service latency.\n\
         --priority-mix PCT submits PCT% of queries as Interactive and the rest as\n\
         Batch through non-blocking admission (per-class percentiles and shed counts\n\
         are reported); --slo-us sets the adaptive-shedding p99 target; --deadline-us\n\
         attaches a latency budget to every query; --chaos injects one worker panic\n\
         and a stall on every batch and requires that the panic cost at most one\n\
         batch (it cannot be combined with the three flags before it).\n\
         Per-query failures are counted by typed class; the exit code is non-zero\n\
         only for unexpected classes. Appends a JSON entry to the trajectory file\n\
         unless --smoke (small counts, no append) is set. --queries is per family."
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_bench::ArchiveCache;

    fn btree_served(n: usize, seed: u64) -> Served {
        let cache = ArchiveCache::disabled();
        let index = BtreeIndex::open(&cache, n, seed);
        let space = index.key_space();
        Served {
            family: IndexFamily::Btree,
            index: Arc::new(index),
            gen: Arc::new(move |i| Query::Key(key_stream_nth(0xb7ee, i, space))),
        }
    }

    fn squeeze(s: &str) -> String {
        s.split_whitespace().collect()
    }

    fn fixture_result(classes: Vec<ClassLat>, stats: EngineStats) -> LoadResult {
        LoadResult {
            queries: 2000,
            completed: 1990,
            wall_s: 0.123456789,
            qps: 16119.44,
            p50_us: 10.5,
            p99_us: 4400.1234,
            p999_us: 7600.0,
            replay_hash: 0x0123_4567_89ab_cdef,
            shed: 7,
            deadline_exceeded: 3,
            worker_crashed: 0,
            unexpected: 0,
            classes,
            stats,
        }
    }

    /// The entry's text, whitespace aside, is what the hand-written
    /// `format!` template this writer replaced produced for these inputs
    /// (that template's `--closed-loop` run is a `--window 1` run here).
    #[test]
    fn json_entry_keeps_the_trajectory_format() {
        let class = |name, served, shed, p50_us, p99_us| ClassLat {
            name,
            served,
            shed,
            p50_us,
            p99_us,
        };
        let btree = fixture_result(
            vec![
                class("interactive", 600, 0, 1.5, 12.25),
                class("batch", 1390, 7, 2.0625, 99.9999),
            ],
            EngineStats {
                deadline_drops: 3,
                ..EngineStats::default()
            },
        );
        let graph = LoadResult {
            completed: 2000,
            wall_s: 1.5,
            qps: 1333.3333,
            p50_us: 220.0,
            p99_us: 7600.5,
            p999_us: 9000.25,
            replay_hash: 0xfeed,
            shed: 0,
            deadline_exceeded: 0,
            ..fixture_result(Vec::new(), EngineStats::default())
        };
        let results = [(IndexFamily::Btree, btree), (IndexFamily::Graph, graph)];
        let open = Options {
            families: IndexFamily::ALL.to_vec(),
            queries: 2000,
            workers: 2,
            batch: 64,
            queue_capacity: 2048,
            window: OPEN_WINDOW,
            seed: 1,
            smoke: false,
            priority_mix: Some(30),
            deadline_us: Some(500),
            slo_us: None,
            chaos: false,
            archive_dir: None,
            pr_label: "fixture".into(),
            out_path: "unused.json".into(),
        };
        let expected = r#"  {
    "pr": "fixture",
    "bench": "servebench",
    "config": { "host_cores": 2, "workers": 2, "batch": 64, "queue_capacity": 2048, "window": 4096, "seed": 1, "queries_per_family": 2000, "mode": "open-loop", "priority_mix_pct": 30, "slo_us": null, "deadline_us": 500, "chaos": false },
    "determinism": { "queries": 10000, "configs": 6, "identical": true },
    "families": {
      "btree": { "queries": 2000, "completed": 1990, "wall_s": 0.123457, "qps": 16119.4, "p50_us": 10.500, "p99_us": 4400.123, "p999_us": 7600.000, "shed": 7, "deadline_exceeded": 3, "worker_crashed": 0, "slo_sheds": 0, "deadline_drops": 3, "worker_panics": 0, "classes": { "interactive": { "served": 600, "shed": 0, "p50_us": 1.500, "p99_us": 12.250 }, "batch": { "served": 1390, "shed": 7, "p50_us": 2.062, "p99_us": 100.000 } }, "replay_hash": "0x0123456789abcdef" },
      "graph": { "queries": 2000, "completed": 2000, "wall_s": 1.500000, "qps": 1333.3, "p50_us": 220.000, "p99_us": 7600.500, "p999_us": 9000.250, "shed": 0, "deadline_exceeded": 0, "worker_crashed": 0, "slo_sheds": 0, "deadline_drops": 0, "worker_panics": 0, "classes": {  }, "replay_hash": "0x000000000000feed" }
    }
  }"#;
        let got = json_entry(&open, 2, 10_000, &results).to_string();
        assert_eq!(squeeze(&got), squeeze(expected));

        let closed = Options {
            window: 1,
            priority_mix: None,
            deadline_us: None,
            slo_us: Some(800),
            chaos: true,
            ..open
        };
        let expected = r#"  {
    "pr": "fixture",
    "bench": "servebench",
    "config": { "host_cores": 4, "workers": 2, "batch": 64, "queue_capacity": 2048, "window": 1, "seed": 1, "queries_per_family": 2000, "mode": "closed-loop", "priority_mix_pct": null, "slo_us": 800, "deadline_us": null, "chaos": true },
    "determinism": { "queries": 400, "configs": 6, "identical": true },
    "families": {
      "graph": { "queries": 2000, "completed": 2000, "wall_s": 1.500000, "qps": 1333.3, "p50_us": 220.000, "p99_us": 7600.500, "p999_us": 9000.250, "shed": 0, "deadline_exceeded": 0, "worker_crashed": 0, "slo_sheds": 0, "deadline_drops": 0, "worker_panics": 0, "classes": {  }, "replay_hash": "0x000000000000feed" }
    }
  }"#;
        let got = json_entry(&closed, 4, 400, &results[1..]).to_string();
        assert_eq!(squeeze(&got), squeeze(expected));
    }

    /// The load discipline is a *measurement* choice, not a semantic one:
    /// open-loop (windowed) and closed-loop (one outstanding) runs over
    /// the same seeded stream must fold to the same replay hash. This is
    /// the pin that makes the `--window 1` percentiles comparable with
    /// the open-loop history in BENCH_sim.json.
    #[test]
    fn open_and_closed_loop_replay_hashes_are_identical() {
        let s = btree_served(2_000, 3);
        let cfg = EngineConfig {
            workers: 4,
            batch: 8,
            queue_capacity: 256,
            ..Default::default()
        };
        let open = run_load(&s, cfg.clone(), 500, OPEN_WINDOW, &LoadPlan::plain());
        let closed = run_load(&s, cfg, 500, 1, &LoadPlan::plain());
        assert_eq!(open.queries, closed.queries);
        assert_eq!(open.completed, 500);
        assert_eq!(closed.completed, 500);
        assert_eq!(
            open.replay_hash, closed.replay_hash,
            "the load discipline changed the answer stream"
        );
    }

    /// A chaos run counts its casualties typed instead of panicking the
    /// driver, and the panic costs one batch, not the engine.
    #[test]
    fn chaos_load_counts_typed_failures_and_keeps_serving() {
        install_quiet_panic_hook();
        let s = btree_served(2_000, 7);
        let cfg = EngineConfig {
            workers: 2,
            batch: 8,
            queue_capacity: 256,
            ..Default::default()
        };
        let plan = LoadPlan {
            chaos: true,
            ..Default::default()
        };
        let r = run_load(&s, cfg, 400, OPEN_WINDOW, &plan);
        assert_eq!(r.unexpected, 0, "chaos faults must all be typed");
        assert!(r.worker_crashed > 0, "the injected panic killed nobody");
        assert_eq!(
            r.completed + r.worker_crashed,
            400,
            "every query resolved served-or-crashed"
        );
        assert_eq!(r.stats.worker_panics, 1);
        assert_eq!(chaos_kept_serving(&r, 8), Ok(()));
    }

    /// The deterministic mix splitter roughly honors the requested
    /// percentage and is stable across calls.
    #[test]
    fn priority_mix_is_deterministic_and_roughly_proportional() {
        let interactive = (0..10_000u64)
            .filter(|&i| pick_priority(i, 30) == Priority::Interactive)
            .count();
        assert!(
            (2_000..4_000).contains(&interactive),
            "30% mix produced {interactive}/10000 interactive"
        );
        assert_eq!(pick_priority(1234, 30), pick_priority(1234, 30));
    }
}
