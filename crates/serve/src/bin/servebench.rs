//! `servebench` — open-loop load driver for the sharded serving engine.
//!
//! ```text
//! servebench [--smoke] [--closed-loop] [--family graph|kd|bvh|btree|all]
//!            [--queries N] [--shards N] [--workers N] [--batch N]
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
//!    under every `--shards {1,4} × --batch {1,64} × workers {1,2}`
//!    combination and asserts the submission-order replay hash is
//!    byte-identical across all eight configurations (exits non-zero on
//!    any mismatch),
//! 3. drives `--queries` queries through the engine at the requested
//!    topology, measuring sustained QPS and p50/p99/p999 latency (latency
//!    = admission request to worker fulfillment, taken from the ticket's
//!    completion timestamp so redeeming tickets in submission order adds
//!    no head-of-line skew).
//!
//! The default discipline is **open-loop**: up to `--window` (default
//! 4096) tickets ride in flight, so at saturation the reported latency is
//! dominated by time-in-queue, not service time — the classic open-loop
//! caveat. `--closed-loop` switches the measured run to one outstanding
//! query at a time (submit, redeem, repeat): the queue is empty at every
//! admission, so the percentiles are pure *service* latency. The two
//! disciplines change only timing — the answer stream (and therefore the
//! replay hash) is identical, which a unit test in this file pins.
//!
//! **Resilience drivers** exercise the engine's overload and failure
//! handling:
//!
//! - `--priority-mix PCT` submits PCT% of the stream as `Interactive`
//!   and the rest as `Batch` via non-blocking admission; per-class
//!   latency percentiles and shed counts are reported separately.
//! - `--slo-us N` sets a uniform per-family p99 target: shards over
//!   target shed `Batch` (typed `Overloaded`) while `Interactive`
//!   keeps admitting.
//! - `--deadline-us N` attaches a deadline to every query; expired work
//!   resolves `DeadlineExceeded`, never a silent late answer.
//! - `--chaos` wraps the index in the `hsu_serve::chaos` harness (one
//!   injected worker panic + one slow shard) and asserts the engine
//!   kept serving: the run fails unless the panic was counted, every
//!   query was served or failed `worker-crashed`, and the crashed
//!   queries fit in one batch.
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

use hsu_bench::trajectory::{append_entry, json_escape};
use hsu_bench::{runner, ArchiveCache};
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
    /// one slow shard.
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
    shards: usize,
    workers: usize,
    batch: usize,
    queue_capacity: usize,
    window: Option<usize>,
    seed: u64,
    smoke: bool,
    closed_loop: bool,
    priority_mix: Option<u32>,
    deadline_us: Option<u64>,
    slo_us: Option<u64>,
    chaos: bool,
    archive_dir: Option<std::path::PathBuf>,
    pr_label: String,
    out_path: std::path::PathBuf,
}

/// Default outstanding-ticket window of the open-loop discipline.
/// Closed-loop runs use a window of 1: the queue is empty at every
/// admission, so measured latency is service time alone.
const OPEN_WINDOW: usize = 4096;

fn main() {
    let opts = parse_args();
    if opts.chaos {
        install_quiet_panic_hook();
    }
    let host_cores = runner::default_jobs();
    // Serving owns the whole machine here (no co-resident suite), so its
    // share is the request capped at the host.
    let serve_share = runner::serve_share(host_cores, opts.shards * opts.workers);
    eprintln!(
        "servebench: host_cores={host_cores} shards={} workers={} (serve share {serve_share}) \
         batch={} capacity={} seed={} queries/family={}",
        opts.shards, opts.workers, opts.batch, opts.queue_capacity, opts.seed, opts.queries
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
        for shards in [1usize, 4] {
            for batch in [1usize, 64] {
                for workers in [1usize, 2] {
                    let cfg = EngineConfig {
                        shards,
                        workers_per_shard: workers,
                        batch,
                        queue_capacity: opts.queue_capacity,
                        ..Default::default()
                    };
                    let r = run_load(s, cfg, dcheck_n, OPEN_WINDOW, &LoadPlan::plain());
                    hashes.push((format!("s{shards}b{batch}w{workers}"), r.replay_hash));
                }
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
        eprintln!("error: {mismatches} famil(ies) diverged across shard/batch/worker configs");
        std::process::exit(1);
    }

    // The measured runs at the requested topology and load discipline.
    let cfg = EngineConfig {
        shards: opts.shards,
        workers_per_shard: opts.workers,
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
    let window = if opts.closed_loop {
        1
    } else {
        opts.window.unwrap_or(OPEN_WINDOW)
    };
    let mode = if opts.closed_loop { "closed" } else { "open" };
    let mut results: Vec<(IndexFamily, LoadResult)> = Vec::new();
    let mut failed = false;
    for s in &served {
        let r = run_load(s, cfg.clone(), opts.queries, window, &plan);
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
/// bench runner's work-stealing pool (1-core hosts run inline).
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
    let shards = cfg.shards;
    let index: Arc<dyn SearchIndex> = if plan.chaos {
        // One worker panic mid-run plus one persistently slow shard —
        // the ci smoke fault pair.
        let chaos_plan = ChaosPlan {
            panic_on: vec![(n / 2).max(1)],
            slow_shard: Some(shards - 1),
            slow_delay: Duration::from_micros(500),
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
/// in one batch — the panic ended its batch and the shard served the
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
        Err(ServeError::WorkerCrashed { .. }) => counts.worker_crashed += 1,
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
) -> String {
    let families = results
        .iter()
        .map(|(f, r)| {
            let classes = r
                .classes
                .iter()
                .map(|c| {
                    format!(
                        "\"{}\": {{ \"served\": {}, \"shed\": {}, \"p50_us\": {:.3}, \
                         \"p99_us\": {:.3} }}",
                        c.name, c.served, c.shed, c.p50_us, c.p99_us
                    )
                })
                .collect::<Vec<_>>()
                .join(", ");
            format!(
                "      \"{}\": {{ \"queries\": {}, \"completed\": {}, \"wall_s\": {:.6}, \
                 \"qps\": {:.1}, \
                 \"p50_us\": {:.3}, \"p99_us\": {:.3}, \"p999_us\": {:.3}, \
                 \"shed\": {}, \"deadline_exceeded\": {}, \"worker_crashed\": {}, \
                 \"slo_sheds\": {}, \"deadline_drops\": {}, \"worker_panics\": {}, \
                 \"classes\": {{ {} }}, \
                 \"replay_hash\": \"{:#018x}\" }}",
                f,
                r.queries,
                r.completed,
                r.wall_s,
                r.qps,
                r.p50_us,
                r.p99_us,
                r.p999_us,
                r.shed,
                r.deadline_exceeded,
                r.worker_crashed,
                r.stats.slo_sheds,
                r.stats.deadline_drops,
                r.stats.worker_panics,
                classes,
                r.replay_hash
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    format!(
        "  {{\n    \"pr\": \"{}\",\n    \"bench\": \"servebench\",\n    \
         \"config\": {{ \"host_cores\": {}, \"shards\": {}, \"workers_per_shard\": {}, \
         \"batch\": {}, \"queue_capacity\": {}, \"window\": {}, \"seed\": {}, \
         \"queries_per_family\": {}, \"mode\": \"{}\", \
         \"priority_mix_pct\": {}, \"slo_us\": {}, \"deadline_us\": {}, \"chaos\": {} }},\n    \
         \"determinism\": {{ \"queries\": {}, \"configs\": 8, \"identical\": true }},\n    \
         \"families\": {{\n{}\n    }}\n  }}",
        json_escape(&opts.pr_label),
        host_cores,
        opts.shards,
        opts.workers,
        opts.batch,
        opts.queue_capacity,
        if opts.closed_loop {
            1
        } else {
            opts.window.unwrap_or(OPEN_WINDOW)
        },
        opts.seed,
        opts.queries,
        if opts.closed_loop {
            "closed-loop"
        } else {
            "open-loop"
        },
        opts.priority_mix
            .map_or_else(|| "null".into(), |v| v.to_string()),
        opts.slo_us.map_or_else(|| "null".into(), |v| v.to_string()),
        opts.deadline_us
            .map_or_else(|| "null".into(), |v| v.to_string()),
        opts.chaos,
        dcheck_n,
        families
    )
}

fn parse_args() -> Options {
    let mut opts = Options {
        families: IndexFamily::ALL.to_vec(),
        queries: 250_000,
        shards: 2,
        workers: 1,
        batch: 64,
        queue_capacity: 1024,
        window: None,
        seed: 1,
        smoke: false,
        closed_loop: false,
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
            "--closed-loop" => {
                opts.closed_loop = true;
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
            "--shards" => opts.shards = count_arg(&mut args, "--shards"),
            "--workers" => opts.workers = count_arg(&mut args, "--workers"),
            "--batch" => opts.batch = count_arg(&mut args, "--batch"),
            "--queue-capacity" => opts.queue_capacity = count_arg(&mut args, "--queue-capacity"),
            "--window" => opts.window = Some(count_arg(&mut args, "--window")),
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
    opts
}

/// The next argument as a nonzero count, or a usage error naming `flag`:
/// a zero shard, worker, batch or queue size would be silently run as 1,
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
        "usage: servebench [--smoke] [--closed-loop] [--family graph|kd|bvh|btree|all]\n\
         \x20                 [--queries N] [--shards N] [--workers N] [--batch N]\n\
         \x20                 [--queue-capacity N] [--window N] [--seed S]\n\
         \x20                 [--priority-mix PCT] [--deadline-us N] [--slo-us N] [--chaos]\n\
         \x20                 [--archive-dir DIR] [--pr LABEL] [--out PATH]\n\
         drives seeded query load through the sharded serving engine for each index\n\
         family: first a determinism cross-check (replay hashes must be identical\n\
         across shards {{1,4}} x batch {{1,64}} x workers {{1,2}}), then a measured\n\
         run at the requested topology reporting sustained QPS and p50/p99/p999\n\
         latency. The default discipline is open-loop (--window tickets in flight,\n\
         default 4096: latency at saturation is queue time); --closed-loop keeps one\n\
         query outstanding so the percentiles are pure service latency.\n\
         --priority-mix PCT submits PCT% of queries as Interactive and the rest as\n\
         Batch through non-blocking admission (per-class percentiles and shed counts\n\
         are reported); --slo-us sets the adaptive-shedding p99 target; --deadline-us\n\
         attaches a latency budget to every query; --chaos injects one worker panic\n\
         and one slow shard and requires that the panic cost at most one batch.\n\
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

    /// The load discipline is a *measurement* choice, not a semantic one:
    /// open-loop (windowed) and closed-loop (one outstanding) runs over
    /// the same seeded stream must fold to the same replay hash. This is
    /// the pin that makes the `--closed-loop` percentiles comparable with
    /// the open-loop history in BENCH_sim.json.
    #[test]
    fn open_and_closed_loop_replay_hashes_are_identical() {
        let s = btree_served(2_000, 3);
        let cfg = EngineConfig {
            shards: 2,
            workers_per_shard: 2,
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
    /// driver, and the panic costs one batch, not the shard.
    #[test]
    fn chaos_load_counts_typed_failures_and_keeps_serving() {
        install_quiet_panic_hook();
        let s = btree_served(2_000, 7);
        let cfg = EngineConfig {
            shards: 2,
            workers_per_shard: 1,
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
