//! The serving workloads, `serve-graph` and `serve-btree`.
//!
//! Set-up opens the index the way a fresh service does: cold (generate
//! the dataset, build the index, store both as archives), then warm from
//! those archives. The measured part drives the default engine (one
//! shard, one worker) from one process:
//!
//! - an open loop with Poisson arrivals at a fixed rate from one generator
//!   thread, after a warm-up. Latency runs from when each query was due to
//!   when the worker fulfilled it, so a stalled generator or engine is
//!   charged to the queries it delayed. A collector thread that sleeps
//!   between drains redeems tickets in submission order;
//! - a sequential client: a closed loop with one query in flight, whose
//!   latency runs from submit to fulfilment;
//! - a closed loop that keeps [`SATURATION_WINDOW`] queries in flight, whose
//!   completion rate is the engine's capacity.
//!
//! Each workload gates the p50 latency of one of the two clients (see
//! [`Client`]). A sample of answers, hashed in submission order, must
//! equal the index's own `query_batch` answers computed outside the timed
//! part.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::mpsc::{channel, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use hsu_bench::ArchiveCache;
use hsu_datasets::{key_stream_nth, Dataset, DatasetId, QueryStream};
use hsu_graph::{GraphConfig, HnswGraph};
use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_serve::prelude::*;
use hsu_serve::QueryBatch;

use crate::report::{
    median, metric, peak_rss_mb, percentile, quantile, reset_peak_rss, Metric, Outcome,
};
use crate::sim::setup_layers;
use crate::spans::{child_s, Tracer};
use crate::LOW_QUANTILE;
use crate::{dir_mb, fresh_dir, same_archives, RunOptions};

/// One serving workload.
#[derive(Debug)]
pub struct ServeSpec {
    /// Served index family (graph or B+tree).
    pub family: IndexFamily,
    /// Index size: points for the graph, keys for the B+tree.
    pub size: usize,
    /// Offered rate of the open loop, in queries per second.
    pub rate_qps: f64,
    /// Every `verify_stride`-th query's answer is checked.
    pub verify_stride: u64,
    /// The client whose p50 latency is the workload's `latency_ms`.
    pub gated: Client,
}

/// A client of the serving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Client {
    /// Poisson arrivals at the workload's rate, timed from when each
    /// query was due.
    Open,
    /// One query in flight, timed from submit.
    Sequential,
}

/// HNSW over SIFT10K (128-D, k = 10, ef = 32). The open loop runs at under
/// a fifth of capacity even on a slowed host; at 15k and 5k q/s, a host
/// slowed by other tenants pushed the engine near saturation and the p50
/// into milliseconds. Even at 2k q/s the worker idles between queries and
/// each search starts cold, so the open-loop p50 tracked the host's other
/// tenants: ten identical runs spread by 0.28–0.35 of their median. The
/// sequential client keeps the index warm, so index work is most of its
/// latency, and its p50 spread by about 0.05: it is the gated latency.
pub const GRAPH: ServeSpec = ServeSpec {
    family: IndexFamily::Graph,
    size: 10_000,
    rate_qps: 2_000.0,
    verify_stride: 8,
    gated: Client::Sequential,
};

/// A B+tree over 1M keys at about 10 % of its capacity: a lookup takes well
/// under a microsecond, so the engine's admission, hand-off, batching and
/// fulfilment dominate. At 300k q/s, rounds on a slowed host queued into
/// the hundreds of microseconds. The open-loop p50 is gated: the
/// sequential client's p50 read about 2 µs in some runs and 7 µs in
/// others, by where the host ran the client and the worker.
pub const BTREE: ServeSpec = ServeSpec {
    family: IndexFamily::Btree,
    size: 1_000_000,
    rate_qps: 100_000.0,
    verify_stride: 32,
    gated: Client::Open,
};

/// Queries kept in flight by the capacity loop; below the default queue
/// bound, so blocking admission never waits on a full queue.
pub const SATURATION_WINDOW: usize = 256;

/// Graph search parameters of [`GRAPH`].
const GRAPH_K: usize = 10;
const GRAPH_EF: usize = 32;

/// Seed of the corpus every serving run indexes, whatever `--seed` is.
/// The seed varies the traffic (queries and arrival times) over a fixed
/// dataset, as a deployed service sees it.
pub const CORPUS_SEED: u64 = 7;

/// Length of each measured round's open loop, sequential client and
/// closed loop, in seconds. A traced round runs the open loop twice,
/// untraced then traced. Rounds are short so that most run at one host
/// speed (see `report::quantile`).
const ROUND_OPEN_S: f64 = 0.1;
const ROUND_SEQUENTIAL_S: f64 = 0.05;
const ROUND_CLOSED_S: f64 = 0.05;

/// Open-loop warm-up before the first round, in seconds.
const WARMUP_S: f64 = 1.0;

/// An opened index and the seeded query stream it serves.
pub struct Served {
    /// The index.
    pub index: Arc<dyn SearchIndex>,
    /// Query `i` of the stream; a pure function of `i`.
    pub query: Box<dyn Fn(u64) -> Query + Send + Sync>,
}

/// Opens the workload's index over the fixed corpus through `cache`
/// (cold into an empty directory, warm when its archives are present),
/// with the query stream of `traffic_seed`.
pub fn open(spec: &ServeSpec, cache: &ArchiveCache, size: usize, traffic_seed: u64) -> Served {
    match spec.family {
        IndexFamily::Btree => {
            let index = BtreeIndex::open(cache, size, CORPUS_SEED);
            let space = index.key_space();
            let kseed = traffic_seed ^ 0xb7ee;
            Served {
                index: Arc::new(index),
                query: Box::new(move |i| Query::Key(key_stream_nth(kseed, i, space))),
            }
        }
        _ => {
            let index = GraphIndex::open(
                cache,
                DatasetId::Sift10k,
                size,
                CORPUS_SEED,
                GRAPH_K,
                GRAPH_EF,
            )
            .unwrap_or_else(|e| panic!("open graph index: {e}"));
            let index = Arc::new(index);
            let stream = QueryStream::new(index.data(), traffic_seed ^ 0x5e7e);
            let data = Arc::clone(&index);
            Served {
                index,
                query: Box::new(move |i| Query::Vector(stream.nth(data.data(), i))),
            }
        }
    }
}

/// One untraced set-up: a cold open into an empty directory, then a warm
/// open from its archives. Returns the wall time and the warm index.
pub fn setup_plain(spec: &ServeSpec, dir: &Path, size: usize, traffic_seed: u64) -> (f64, Served) {
    if let Err(e) = fresh_dir(dir) {
        panic!("cannot prepare {}: {e}", dir.display());
    }
    let cache = ArchiveCache::new(Some(dir.to_path_buf()));
    let start = Instant::now();
    drop(open(spec, &cache, size, traffic_seed));
    let served = open(spec, &cache, size, traffic_seed);
    (start.elapsed().as_secs_f64(), served)
}

/// The same set-up as [`setup_plain`], one span per call: the cold open's
/// steps with the index crates' own archive keys, then the warm open.
///
/// This is a copy of `GraphIndex::open` and `BtreeIndex::open` in
/// `crates/serve/src/index.rs` (build parameters and `hsar-*` archive
/// keys) and must change with them. A traced run checks that it writes
/// byte-identical archives to [`setup_plain`], so a change that is not
/// mirrored fails every traced run with "traced set-up diverged".
pub fn setup_traced(
    spec: &ServeSpec,
    dir: &Path,
    size: usize,
    traffic_seed: u64,
    tracer: &Tracer,
) -> Served {
    if let Err(e) = fresh_dir(dir) {
        panic!("cannot prepare {}: {e}", dir.display());
    }
    let cache = ArchiveCache::new(Some(dir.to_path_buf()));
    let seed = CORPUS_SEED;
    tracer.span(None, 0, "setup", |root| {
        match spec.family {
            IndexFamily::Btree => {
                let params = BtreeParams {
                    keys: size,
                    queries: 0,
                    branch: 256,
                    seed,
                };
                let (pairs, _) = tracer.span(Some(root), 0, "datasets.gen", |_| {
                    BtreeWorkload::generate_inputs(&params)
                });
                let tree = tracer.span(Some(root), 0, "btree.build", |_| {
                    hsu_btree::BPlusTree::bulk_build(pairs, params.branch)
                });
                let key = format!("hsar-btree-v1|serve|keys={size}|branch=256|seed={seed}");
                tracer.span(Some(root), 0, "archive.store", |_| {
                    cache.store_btree("btree-serve", &key, &tree);
                });
            }
            _ => {
                let id = DatasetId::Sift10k;
                let ds = tracer.span(Some(root), 0, "datasets.gen", |_| {
                    Dataset::generate_scaled(id, seed, Some(size))
                });
                let dkey = format!("hsar-dataset-v1|{id:?}|seed={seed}|n={size}");
                tracer.span(Some(root), 0, "archive.store", |_| {
                    cache.store_dataset(&format!("dataset-{id:?}"), &dkey, &ds);
                });
                let (Some(data), Some(metric)) = (ds.points(), hsu_datasets::spec(id).metric)
                else {
                    panic!("{id:?} is not an ANN point dataset");
                };
                let gcfg = GraphConfig {
                    m: 16,
                    ef_construction: GRAPH_EF.max(32),
                    ..Default::default()
                };
                let gkey =
                    format!("hsar-graph-v1|{id:?}|seed={seed}|n={size}|metric={metric:?}|{gcfg:?}");
                let graph = tracer.span(Some(root), 0, "graph.build", |_| {
                    HnswGraph::build(data, metric, gcfg, seed)
                });
                tracer.span(Some(root), 0, "archive.store", |_| {
                    cache.store_graph(&format!("graph-{id:?}"), &gkey, &graph);
                });
            }
        }
        tracer.span(Some(root), 0, "archive.load", |_| {
            open(spec, &cache, size, traffic_seed)
        })
    })
}

/// A `SearchIndex` that logs when each batch ran, on a shared clock.
pub struct TimingIndex {
    inner: Arc<dyn SearchIndex>,
    origin: Instant,
    log: Mutex<Vec<BatchRecord>>,
}

/// One executed batch.
#[derive(Debug, Clone, Copy)]
pub struct BatchRecord {
    /// `query_batch` entry, ns since the trial origin.
    pub start_ns: u64,
    /// `query_batch` return, ns since the trial origin.
    pub end_ns: u64,
    /// Queries in the batch.
    pub len: usize,
}

impl TimingIndex {
    /// Wraps `inner`; times are measured from `origin`.
    pub fn new(inner: Arc<dyn SearchIndex>, origin: Instant) -> Self {
        TimingIndex {
            inner,
            origin,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The batches executed so far, in execution order.
    pub fn batches(&self) -> Vec<BatchRecord> {
        self.log.lock().expect("a batch logger panicked").clone()
    }
}

impl SearchIndex for TimingIndex {
    fn family(&self) -> IndexFamily {
        self.inner.family()
    }

    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn validate(&self, query: &Query) -> Result<(), ServeError> {
        self.inner.validate(query)
    }

    fn query_batch(&self, batch: &QueryBatch) -> Vec<QueryOutput> {
        let start_ns = ns_since(self.origin, Instant::now());
        let out = self.inner.query_batch(batch);
        let end_ns = ns_since(self.origin, Instant::now());
        self.log
            .lock()
            .expect("a batch logger panicked")
            .push(BatchRecord {
                start_ns,
                end_ns,
                len: batch.len(),
            });
        out
    }
}

fn ns_since(origin: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(origin).as_nanos()).unwrap_or(u64::MAX)
}

/// SplitMix64: the arrival process's generator.
struct SplitMix(u64);

impl SplitMix {
    fn next_f64(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        // Uniform in (0, 1].
        ((z >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// One query's timestamps, in ns since the trial origin.
#[derive(Debug, Clone, Copy)]
pub struct QueryStamps {
    /// When the query was due.
    pub due: u64,
    /// When the generator called `submit`.
    pub submit: u64,
    /// When `submit` returned.
    pub admitted: u64,
    /// When the worker fulfilled the ticket.
    pub done: u64,
}

/// What one open- or closed-loop trial observed.
#[derive(Debug, Default)]
pub struct Trial {
    /// Queries submitted.
    pub attempted: u64,
    /// Queries shed or failed.
    pub failed: u64,
    /// Error kinds that must never appear at nominal load.
    pub unexpected: Vec<String>,
    /// Due → completion latency of every answered query, ns, in
    /// submission order.
    pub latency_ns: Vec<u64>,
    /// Timestamps of every answered query (traced trials only).
    pub stamps: Vec<QueryStamps>,
    /// Executed batches (traced trials only).
    pub batches: Vec<BatchRecord>,
    /// `(stream index, answer hash)` of every sampled answered query.
    pub sampled: Vec<(u64, u64)>,
    /// Summed generator lateness (due → submit), ns.
    pub late_sum_ns: u64,
    /// Largest generator lateness, ns.
    pub late_max_ns: u64,
    /// Seconds from the trial origin to the last completion.
    pub wall_s: f64,
}

/// An open loop at `rate` queries per second for `secs` seconds over
/// queries `first, first + 1, …`.
pub fn open_loop(
    served: &Served,
    rate: f64,
    secs: f64,
    first: u64,
    seed: u64,
    stride: u64,
    traced: bool,
) -> Trial {
    let origin = Instant::now();
    let timing = traced.then(|| Arc::new(TimingIndex::new(Arc::clone(&served.index), origin)));
    let index: Arc<dyn SearchIndex> = match &timing {
        Some(t) => Arc::clone(t) as Arc<dyn SearchIndex>,
        None => Arc::clone(&served.index),
    };
    let engine = Engine::new(index, EngineConfig::default());
    let (tx, rx) = channel::<(u64, QueryStamps, Result<Ticket, ServeError>)>();
    let mut trial = std::thread::scope(|scope| {
        let collector = scope.spawn(move || {
            let mut trial = Trial::default();
            loop {
                std::thread::sleep(Duration::from_millis(1));
                loop {
                    match rx.try_recv() {
                        Ok((i, mut stamps, submitted)) => {
                            let result = submitted.and_then(|ticket| {
                                let (result, done) = ticket.wait_timed();
                                stamps.done = ns_since(origin, done);
                                result
                            });
                            record(&mut trial, first + i, stamps, result, stride, traced);
                        }
                        Err(TryRecvError::Empty) => break,
                        Err(TryRecvError::Disconnected) => return trial,
                    }
                }
            }
        });
        let mut arrivals = SplitMix(seed ^ first ^ 0xa881_7a15);
        let mut due_s = 0.0;
        for i in 0.. {
            due_s += -arrivals.next_f64().ln() / rate;
            if due_s > secs {
                break;
            }
            let query = (served.query)(first + i);
            let due = origin + Duration::from_secs_f64(due_s);
            let mut now = Instant::now();
            if due > now + Duration::from_micros(200) {
                std::thread::sleep(due - now - Duration::from_micros(100));
            }
            while now < due {
                std::hint::spin_loop();
                now = Instant::now();
            }
            // Blocking admission: a full queue delays the generator, and
            // the delay is charged to every query due meanwhile.
            let submitted = engine.submit(query);
            let admitted = Instant::now();
            let stamps = QueryStamps {
                due: ns_since(origin, due),
                submit: ns_since(origin, now),
                admitted: ns_since(origin, admitted),
                done: 0,
            };
            if tx.send((i, stamps, submitted)).is_err() {
                break;
            }
        }
        drop(tx);
        collector.join().expect("the collector thread panicked")
    });
    drop(engine);
    if let Some(t) = timing {
        trial.batches = t.batches();
    }
    trial
}

/// Tallies one redeemed query.
fn record(
    trial: &mut Trial,
    id: u64,
    stamps: QueryStamps,
    result: Result<QueryOutput, ServeError>,
    stride: u64,
    traced: bool,
) {
    trial.attempted += 1;
    let late = stamps.submit.saturating_sub(stamps.due);
    trial.late_sum_ns += late;
    trial.late_max_ns = trial.late_max_ns.max(late);
    match result {
        Ok(out) => {
            trial
                .latency_ns
                .push(stamps.done.saturating_sub(stamps.due));
            trial.wall_s = trial.wall_s.max(stamps.done as f64 / 1e9);
            if traced {
                trial.stamps.push(stamps);
            }
            if id.is_multiple_of(stride) {
                trial.sampled.push((id, hash_output(&out)));
            }
        }
        Err(e) => {
            trial.failed += 1;
            if !matches!(e, ServeError::Overloaded { .. }) {
                trial.unexpected.push(e.kind().to_string());
            }
        }
    }
}

/// A closed loop keeping `window` queries in flight for `secs` seconds
/// over queries `first, first + 1, …`. Latency runs from submit.
pub fn closed_loop(served: &Served, secs: f64, first: u64, stride: u64, window: usize) -> Trial {
    let engine = Engine::new(Arc::clone(&served.index), EngineConfig::default());
    let origin = Instant::now();
    let mut trial = Trial::default();
    let mut in_flight: VecDeque<(u64, QueryStamps, Ticket)> = VecDeque::new();
    let redeem = |trial: &mut Trial, (id, mut stamps, ticket): (u64, QueryStamps, Ticket)| {
        let (result, done) = ticket.wait_timed();
        stamps.done = ns_since(origin, done);
        record(trial, id, stamps, result, stride, false);
    };
    let mut i = 0;
    while origin.elapsed().as_secs_f64() < secs {
        let query = (served.query)(first + i);
        let submit = ns_since(origin, Instant::now());
        let stamps = QueryStamps {
            due: submit,
            submit,
            admitted: submit,
            done: 0,
        };
        match engine.submit(query) {
            Ok(ticket) => in_flight.push_back((first + i, stamps, ticket)),
            Err(e) => record(&mut trial, first + i, stamps, Err(e), stride, false),
        }
        if in_flight.len() >= window {
            if let Some(front) = in_flight.pop_front() {
                redeem(&mut trial, front);
            }
        }
        i += 1;
    }
    for front in in_flight.drain(..) {
        redeem(&mut trial, front);
    }
    trial
}

/// Checks the sampled served answers against `query_batch` called
/// directly, folding both in submission order.
pub fn verify(served: &Served, trial: &Trial) -> Result<(), String> {
    let mut direct = Vec::with_capacity(trial.sampled.len());
    for chunk in trial.sampled.chunks(32) {
        let mut batch = QueryBatch::new();
        for &(id, _) in chunk {
            batch.push(&(served.query)(id));
        }
        direct.extend(served.index.query_batch(&batch).iter().map(hash_output));
    }
    let served_hash = combine_hashes(trial.sampled.iter().map(|&(_, h)| h));
    let direct_hash = combine_hashes(direct);
    if served_hash == direct_hash {
        Ok(())
    } else {
        Err(format!(
            "served answers hash to {served_hash:#018x}, direct answers to {direct_hash:#018x}"
        ))
    }
}

/// Per-query stage durations of a traced trial, in ns: generator lag,
/// admission, queueing, index work and fulfilment. They sum exactly to
/// each query's due → completion latency.
pub fn stages(trial: &Trial) -> Result<Vec<[i64; 5]>, String> {
    let mut out = Vec::with_capacity(trial.stamps.len());
    let mut batches = trial.batches.iter();
    let mut current: Option<(BatchRecord, usize)> = None;
    for s in &trial.stamps {
        // One worker serves the queue in admission order, so each batch
        // holds the next `len` admitted queries.
        let b = match current {
            Some((b, left)) if left > 0 => {
                current = Some((b, left - 1));
                b
            }
            _ => {
                let Some(&b) = batches.next() else {
                    return Err("more answered queries than batched ones".into());
                };
                current = Some((b, b.len - 1));
                b
            }
        };
        let ns = |x: u64| i64::try_from(x).unwrap_or(i64::MAX);
        let handed = s.admitted.min(b.start_ns);
        out.push([
            ns(s.submit) - ns(s.due),
            ns(handed) - ns(s.submit),
            ns(b.start_ns) - ns(handed),
            ns(b.end_ns) - ns(b.start_ns),
            ns(s.done) - ns(b.end_ns),
        ]);
    }
    Ok(out)
}

/// Stage names, in the order [`stages`] returns them.
pub const STAGES: [&str; 5] = ["lag", "admit", "queue", "index", "fulfil"];

/// Runs one serving workload.
pub fn run(spec: &ServeSpec, opts: &RunOptions) -> Outcome {
    let mut out = Outcome::default();
    let size = if opts.smoke {
        spec.size / 10
    } else {
        spec.size
    };
    let dir = opts.work_dir.join("archives");
    let tracer = Tracer::new(opts.traced);

    let mut setup_walls = Vec::new();
    let mut setup_peaks = Vec::new();
    let mut served = None;
    while opts.another_setup(&setup_walls) {
        drop(served.take());
        reset_peak_rss();
        let (wall, s) = setup_plain(spec, &dir, size, opts.seed);
        setup_walls.push(wall);
        setup_peaks.push(peak_rss_mb());
        served = Some(s);
    }
    let Some(mut served) = served else {
        unreachable!("set-up runs at least once");
    };
    let mut metrics = Vec::new();
    if opts.traced {
        let reference = opts.work_dir.join("reference");
        if let Err(e) = fresh_dir(&reference).and_then(|()| std::fs::rename(&dir, &reference)) {
            panic!("cannot keep the reference archives: {e}");
        }
        drop(served);
        served = setup_traced(spec, &dir, size, opts.seed, &tracer);
        if let Err(e) = same_archives(&reference, &dir) {
            out.errors.push(format!(
                "traced set-up diverged from the index opens \
                 (setup_traced mirrors them): {e}"
            ));
        }
        let spans = tracer.spans();
        metrics = setup_layers(&spans, &dir);
        let root = spans.iter().find(|s| s.name == "setup").map_or(0, |s| s.id);
        metrics.extend([
            metric("archive.load_s", child_s(&spans, root, "archive.load"), "s"),
            metric("archive.load_mb", dir_mb(&dir, ""), "MB"),
        ]);
        out.spans = spans;
    }

    // Stream ranges: queries 0.. warm up, round r uses (r + 1) << 40..
    // for its open loop, and a half and three quarters of a range further
    // for its other trials.
    let (rounds, warm_s) = if opts.smoke {
        (2, 0.2)
    } else {
        let rest_s = if opts.traced {
            ROUND_OPEN_S
        } else {
            ROUND_SEQUENTIAL_S + ROUND_CLOSED_S
        };
        let rounds = ((opts.seconds - WARMUP_S) / (ROUND_OPEN_S + rest_s)).floor();
        (rounds.max(3.0) as usize, WARMUP_S)
    };
    let stride = spec.verify_stride;
    let check = |name: String, trial: &Trial, out: &mut Outcome| {
        out.check(trial.unexpected.is_empty(), || {
            format!("{name}: unexpected errors {:?}", trial.unexpected)
        });
        let accounted = trial.latency_ns.len() as u64 + trial.failed == trial.attempted;
        out.check(trial.attempted > 0 && accounted, || {
            format!("{name}: {} queries unaccounted for", trial.attempted)
        });
        if let Err(e) = verify(&served, trial) {
            out.errors.push(format!("{name}: {e}"));
        }
    };
    let tally = |name: String, trial: &Trial, out: &mut Outcome| {
        check(name, trial, out);
        out.attempted += trial.attempted;
        out.failed += trial.failed;
    };
    let warmup = open_loop(&served, spec.rate_qps, warm_s, 0, opts.seed, stride, false);
    check("warm-up".into(), &warmup, &mut out);
    drop(warmup);

    let mut p50_ns = Vec::new();
    let mut second_p50_ns = Vec::new();
    let mut sequential_p50_ns = Vec::new();
    let mut capacity = Vec::new();
    let mut round_peaks = Vec::new();
    let mut totals = StageTotals::default();
    // Every fourth open-loop latency of each round, for the pooled tails.
    let mut pooled = Vec::new();
    let mut hashes = Vec::new();
    let (mut late_sum, mut late_max, mut offered, mut answered) = (0, 0, 0, 0);
    for r in 0..rounds {
        let first = (r as u64 + 1) << 40;
        reset_peak_rss();
        let open = open_loop(
            &served,
            spec.rate_qps,
            ROUND_OPEN_S,
            first,
            opts.seed,
            stride,
            false,
        );
        if opts.traced {
            let traced = open_loop(
                &served,
                spec.rate_qps,
                ROUND_OPEN_S,
                first + (1 << 39),
                opts.seed,
                stride,
                true,
            );
            tally(format!("round {r} traced open loop"), &traced, &mut out);
            second_p50_ns.push(p50(&traced));
            totals.add(&traced, &mut out);
        } else {
            let sequential = closed_loop(&served, ROUND_SEQUENTIAL_S, first + (1 << 39), stride, 1);
            let saturated = closed_loop(
                &served,
                ROUND_CLOSED_S,
                first + (3 << 38),
                stride,
                SATURATION_WINDOW,
            );
            tally(format!("round {r} sequential"), &sequential, &mut out);
            tally(format!("round {r} closed loop"), &saturated, &mut out);
            sequential_p50_ns.push(p50(&sequential));
            capacity
                .push(saturated.latency_ns.len() as f64 / saturated.wall_s.max(f64::MIN_POSITIVE));
        }
        round_peaks.push(peak_rss_mb());
        tally(format!("round {r} open loop"), &open, &mut out);
        offered += open.attempted;
        answered += open.latency_ns.len();
        late_sum += open.late_sum_ns;
        late_max = late_max.max(open.late_max_ns);
        hashes.extend(open.sampled.iter().map(|s| s.1));
        p50_ns.push(p50(&open));
        let mut lat = open.latency_ns;
        lat.sort_unstable();
        pooled.extend(lat.iter().step_by(4));
    }

    pooled.sort_unstable();
    out.info("offered_qps", spec.rate_qps);
    out.info(
        "achieved_qps",
        format!("{:.1}", answered as f64 / (ROUND_OPEN_S * rounds as f64)),
    );
    for (q, name) in [
        (0.5, "p50_us"),
        (0.9, "p90_us"),
        (0.99, "p99_us"),
        (0.999, "p999_us"),
    ] {
        let value = percentile(&pooled, q) as f64 / 1e3;
        let beyond = pooled.len() - (q * pooled.len() as f64).ceil() as usize;
        // A tail percentile needs ten samples beyond it to mean anything.
        if q > 0.5 && beyond < 10 {
            continue;
        }
        out.info(
            name,
            format!("{value:.3} ({beyond} of {} samples beyond)", pooled.len()),
        );
    }
    out.info(
        "lateness_us",
        format!(
            "mean {:.3} max {:.3}",
            late_sum as f64 / offered.max(1) as f64 / 1e3,
            late_max as f64 / 1e3
        ),
    );
    out.info("replay_hash", format!("{:#018x}", combine_hashes(hashes)));
    out.info("round_p50_us", us_list(&p50_ns));
    if opts.traced {
        metrics.extend(totals.metrics());
        metrics.push(metric(
            "trace.overhead_pct",
            (quantile(&second_p50_ns, LOW_QUANTILE) / quantile(&p50_ns, LOW_QUANTILE).max(1.0)
                - 1.0)
                * 100.0,
            "%",
        ));
        out.metrics = metrics;
    } else {
        out.info("sequential_round_p50_us", us_list(&sequential_p50_ns));
        out.info(
            "round_capacity_qps",
            capacity
                .iter()
                .map(|q| format!("{q:.0}"))
                .collect::<Vec<_>>()
                .join(","),
        );
        let (gated, other, other_name) = match spec.gated {
            Client::Open => (&p50_ns, &sequential_p50_ns, "sequential_p50_us"),
            Client::Sequential => (&sequential_p50_ns, &p50_ns, "open_p50_us"),
        };
        out.info(
            other_name,
            format!("{:.3}", quantile(other, LOW_QUANTILE) / 1e3),
        );
        let peak = quantile(&setup_peaks, LOW_QUANTILE).max(quantile(&round_peaks, LOW_QUANTILE));
        out.metrics = vec![
            metric("latency_ms", quantile(gated, LOW_QUANTILE) / 1e6, "ms"),
            metric(
                "throughput_per_s",
                quantile(&capacity, 1.0 - LOW_QUANTILE),
                "1/s",
            ),
            metric("peak_rss_mb", peak, "MB"),
            metric("setup_s", median(&setup_walls), "s"),
        ];
    }
    out
}

/// The p50 latency of a trial's answered queries, in ns.
fn p50(trial: &Trial) -> f64 {
    let mut lat = trial.latency_ns.clone();
    lat.sort_unstable();
    percentile(&lat, 0.5) as f64
}

/// Nanosecond values as a comma-separated list of microseconds.
fn us_list(ns: &[f64]) -> String {
    ns.iter()
        .map(|ns| format!("{:.3}", ns / 1e3))
        .collect::<Vec<_>>()
        .join(",")
}

/// Per-query serving stages pooled over every traced round, so that the
/// stage means sum to the mean latency.
#[derive(Debug, Default)]
pub struct StageTotals {
    per_query: Vec<[i64; 5]>,
    latency_ns: Vec<u64>,
    batches: usize,
    busy_ns: u64,
    wall_s: f64,
}

impl StageTotals {
    /// Adds a traced trial's queries. Records a failed check when its
    /// queries cannot be mapped to batches or their stages do not sum to
    /// their latencies.
    pub fn add(&mut self, trial: &Trial, out: &mut Outcome) {
        let per_query = match stages(trial) {
            Ok(s) => s,
            Err(e) => {
                out.errors.push(e);
                return;
            }
        };
        let exact = per_query
            .iter()
            .zip(&trial.latency_ns)
            .all(|(s, &lat)| s.iter().sum::<i64>() == i64::try_from(lat).unwrap_or(-1));
        out.check(exact, || "serving stages do not sum to latency".into());
        self.per_query.extend(per_query);
        self.latency_ns.extend(&trial.latency_ns);
        self.batches += trial.batches.len();
        self.busy_ns += trial
            .batches
            .iter()
            .map(|b| b.end_ns - b.start_ns)
            .sum::<u64>();
        self.wall_s += trial.wall_s;
    }

    /// Each stage's mean and p50, the latency's, the mean batch size and
    /// the share of the trials' time the index was busy.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.per_query.len().max(1) as f64;
        let mut m = Vec::new();
        for (k, name) in STAGES.iter().enumerate() {
            let mut v: Vec<i64> = self.per_query.iter().map(|s| s[k]).collect();
            let mean = v.iter().sum::<i64>() as f64 / n / 1e3;
            v.sort_unstable();
            let p50 = v.get(v.len().saturating_sub(1) / 2).copied().unwrap_or(0) as f64 / 1e3;
            m.push(metric(format!("serve.{name}_us.mean"), mean, "us"));
            m.push(metric(format!("serve.{name}_us.p50"), p50, "us"));
        }
        let mut lat = self.latency_ns.clone();
        lat.sort_unstable();
        m.extend([
            metric(
                "serve.latency_us.mean",
                lat.iter().sum::<u64>() as f64 / n / 1e3,
                "us",
            ),
            metric(
                "serve.latency_us.p50",
                percentile(&lat, 0.5) as f64 / 1e3,
                "us",
            ),
            metric(
                "serve.batch_mean",
                self.per_query.len() as f64 / self.batches.max(1) as f64,
                "count",
            ),
            metric(
                "serve.index_busy_frac",
                self.busy_ns as f64 / 1e9 / self.wall_s.max(f64::MIN_POSITIVE),
                "ratio",
            ),
        ]);
        m
    }
}
