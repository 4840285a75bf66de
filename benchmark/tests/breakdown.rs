//! Every breakdown the benchmark reports sums to the total it decomposes.

use std::path::PathBuf;

use hsu_bench::ArchiveCache;
use hsu_benchmark::report::Outcome;
use hsu_benchmark::serve::{self, stages, StageTotals};
use hsu_benchmark::sim::{self, iteration_layers, setup_layers};
use hsu_benchmark::spans::{self_ns, Tracer};
use hsu_benchmark::{RunOptions, PER_LAYER};

fn scratch(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn smoke_options(dir: &str) -> RunOptions {
    RunOptions {
        seed: 7,
        seconds: 1.0,
        traced: true,
        smoke: true,
        work_dir: scratch(dir),
    }
}

#[test]
fn serving_stages_sum_exactly_to_latency() {
    let served = serve::open(&serve::BTREE, &ArchiveCache::disabled(), 50_000, 3);
    let trial = serve::open_loop(&served, 50_000.0, 0.3, 0, 3, 8, true);
    assert!(trial.unexpected.is_empty(), "{:?}", trial.unexpected);
    assert!(trial.latency_ns.len() > 1_000);
    let per_query = stages(&trial).expect("every answered query maps to a batch");
    assert_eq!(per_query.len(), trial.latency_ns.len());
    let mut stage_total = 0i64;
    let mut latency_total = 0i64;
    for (s, &lat) in per_query.iter().zip(&trial.latency_ns) {
        let lat = i64::try_from(lat).expect("latency fits i64");
        assert_eq!(s.iter().sum::<i64>(), lat, "stages {s:?} vs latency {lat}");
        assert!(s.iter().all(|&x| x >= 0), "negative stage in {s:?}");
        stage_total += s.iter().sum::<i64>();
        latency_total += lat;
    }
    assert_eq!(stage_total, latency_total);
    // The reported stage means therefore sum to the reported mean latency,
    // also when pooled over several trials.
    let mut totals = StageTotals::default();
    let mut out = Outcome::default();
    totals.add(&trial, &mut out);
    let again = serve::open_loop(&served, 50_000.0, 0.1, 1 << 40, 3, 8, true);
    totals.add(&again, &mut out);
    assert!(out.correct(), "{:?}", out.errors);
    let metrics = totals.metrics();
    let get = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} reported"))
            .value
    };
    let means: f64 = serve::STAGES
        .iter()
        .map(|s| get(&format!("serve.{s}_us.mean")))
        .sum();
    let latency = get("serve.latency_us.mean");
    assert!(
        (means - latency).abs() < 1e-9 * latency,
        "{means} vs {latency}"
    );
}

#[test]
fn simulation_setup_layers_sum_to_the_setup_wall() {
    let opts = smoke_options("setup-sum");
    let config = sim::suite_config(&sim::FIG9, &opts);
    let dir = opts.work_dir.join("archives");
    let tracer = Tracer::new(true);
    sim::setup_traced(&config, &dir, &tracer, 0);
    let spans = tracer.spans();
    let root = spans.iter().find(|s| s.name == "setup").expect("root span");
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == Some(root.id))
        .map(|s| s.len_ns())
        .sum();
    assert_eq!(children + self_ns(root, &spans), root.len_ns());
    // The reported layers cover every child span.
    let layers = setup_layers(&spans, &dir);
    let reported: f64 = layers
        .iter()
        .filter(|m| m.unit == "s")
        .map(|m| m.value)
        .sum();
    let wall = root.len_ns() as f64 / 1e9;
    assert!((reported - wall).abs() < 1e-6, "{reported} s vs {wall} s");
    let _ = std::fs::remove_dir_all(&opts.work_dir);
}

#[test]
fn simulation_busy_time_fits_in_the_workers_wall_time() {
    let opts = smoke_options("busy-bound");
    let config = sim::suite_config(&sim::FIG9, &opts);
    let dir = opts.work_dir.join("archives");
    sim::setup_plain(&config, &dir);
    let warm = config.clone().with_archive_dir(&dir);
    let tracer = Tracer::new(true);
    let it = sim::iterate(&sim::FIG9, &warm, &tracer, 1);
    assert_eq!(it.failed, 0);
    let layers = iteration_layers(&it, 0.0);
    let get = |name: &str| {
        layers
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} reported"))
            .value
    };
    let busy = get("sim.busy_s");
    assert!(busy > 0.0);
    assert!(
        busy <= config.jobs as f64 * it.timings.wall_s,
        "{busy} s busy on {} workers in {} s",
        config.jobs,
        it.timings.wall_s
    );
    let per_app: f64 = ["ggnn", "flann", "bvhnn", "btree"]
        .iter()
        .map(|a| get(&format!("sim.busy_s.{a}")))
        .sum();
    assert!((per_app - busy).abs() < 1e-9);
    assert!((0.0..=1.0).contains(&get("runner.idle_frac")));
    assert_eq!(get("sim.jobs"), 63.0);
    // The iteration's spans: the load on its own, the suite build, the
    // figure.
    let names: Vec<String> = tracer.spans().into_iter().map(|s| s.name).collect();
    for name in ["iteration", "archive.load", "suite.build", "figures.render"] {
        assert!(names.iter().any(|n| n == name), "{name} in {names:?}");
    }
    let _ = std::fs::remove_dir_all(&opts.work_dir);
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let names_in = |section: &str| -> Vec<String> {
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    };
    let e2e: Vec<String> = hsu_benchmark::END_TO_END
        .iter()
        .map(|(n, _)| n.to_string())
        .collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(|(n, _)| n.to_string()).collect();
    assert_eq!(names_in("end_to_end"), e2e);
    assert_eq!(names_in("per_layer"), per_layer);
    for w in hsu_benchmark::WORKLOADS {
        assert!(text.contains(&format!("\"name\": \"{w}\"")), "{w} declared");
    }
}
