//! Trace serialization round-trips at the full-workload level.
//!
//! The trace-driven methodology (§V-C) only works if a serialized trace
//! replays *identically*: for each application we lower a real workload,
//! write the trace through `trace_io`, read it back, and require the
//! re-simulated `SimReport` to be equal in every counter — not just cycles.
//! A second check pins the recorded trace bytes themselves, so a change to
//! how the searches are recorded cannot move a trace unnoticed.

use hsu_archive::fnv1a64;
use std::sync::OnceLock;

use hsu_bench::{AppTraces, ArchiveCache, Suite, SuiteConfig};
use hsu_kernels::btree::{BtreeParams, BtreeWorkload};
use hsu_kernels::bvhnn::{BvhFlavor, BvhnnParams, BvhnnWorkload};
use hsu_kernels::flann::{FlannParams, FlannWorkload};
use hsu_kernels::ggnn::{GgnnParams, GgnnWorkload};
use hsu_kernels::render::{RenderParams, RenderWorkload};
use hsu_kernels::rtindex::{RtIndexParams, RtIndexWorkload};
use hsu_kernels::Variant;
use hsu_sim::config::GpuConfig;
use hsu_sim::trace::KernelTrace;
use hsu_sim::{trace_io, Gpu};

fn assert_replay_identical(trace: &KernelTrace) {
    let mut buf = Vec::new();
    trace_io::write_trace(trace, &mut buf).expect("serialize");
    let restored = trace_io::read_trace(buf.as_slice()).expect("deserialize");
    let gpu = Gpu::new(GpuConfig::tiny());
    let original = gpu.run(trace).unwrap();
    let replayed = gpu.run(&restored).unwrap();
    assert_eq!(
        original,
        replayed,
        "replayed trace '{}' diverged from the original simulation",
        trace.name()
    );
}

#[test]
fn ggnn_trace_replays_identically() {
    let wl = GgnnWorkload::build(&GgnnParams {
        points: 400,
        dim: 24,
        queries: 12,
        k: 5,
        ef: 16,
        m: 8,
        seed: 7,
        ..Default::default()
    });
    for v in [Variant::Hsu, Variant::Baseline] {
        assert_replay_identical(&wl.trace(v));
    }
}

#[test]
fn flann_trace_replays_identically() {
    let wl = FlannWorkload::build(&FlannParams {
        points: 500,
        queries: 24,
        k: 5,
        checks: 16,
        seed: 7,
    });
    for v in [Variant::Hsu, Variant::Baseline] {
        assert_replay_identical(&wl.trace(v));
    }
}

#[test]
fn bvhnn_trace_replays_identically() {
    let wl = BvhnnWorkload::build(&BvhnnParams {
        points: 500,
        queries: 24,
        seed: 7,
        ..Default::default()
    });
    for v in [Variant::Hsu, Variant::Baseline] {
        assert_replay_identical(&wl.trace(v));
    }
}

#[test]
fn btree_trace_replays_identically() {
    let wl = BtreeWorkload::build(&BtreeParams {
        keys: 1500,
        queries: 96,
        branch: 64,
        seed: 7,
    });
    for v in [Variant::Hsu, Variant::Baseline, Variant::BaselineStripped] {
        assert_replay_identical(&wl.trace(v));
    }
}

/// FNV-1a 64 of a trace's serialized `trace_io` bytes.
fn trace_digest(trace: &KernelTrace) -> u64 {
    let mut buf = Vec::new();
    trace_io::write_trace(trace, &mut buf).expect("serialize");
    fnv1a64(&buf)
}

/// Every trace of the suite at 1/64 scale (seed 7), recorded once for all
/// the tests here.
fn suite_traces() -> &'static [AppTraces] {
    static TRACES: OnceLock<Vec<AppTraces>> = OnceLock::new();
    TRACES.get_or_init(|| {
        let config = SuiteConfig {
            sms: 2,
            scale_divisor: 64,
            seed: 7,
            ..SuiteConfig::default()
        };
        Suite::prepare_traces(&config, &ArchiveCache::disabled())
    })
}

/// One digest per workload × dataset × lowering: every trace of the suite
/// at 1/64 scale, the RTIndeX and render case studies, and the two BVH-NN
/// hierarchy flavors the suite does not run (4-wide and SAH).
fn recorded_trace_digests() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for t in suite_traces() {
        for v in Variant::ALL {
            out.push((
                format!("{:?}/{:?}/{v:?}", t.app, t.dataset),
                trace_digest(t.trace(v)),
            ));
        }
    }
    let rtindex = RtIndexWorkload::build(&RtIndexParams {
        keys: 2048,
        lookups: 512,
        seed: 3,
    });
    let render = RenderWorkload::build(&RenderParams {
        width: 32,
        height: 16,
        ..Default::default()
    });
    let bvhnn = |flavor| {
        BvhnnWorkload::build(&BvhnnParams {
            points: 500,
            queries: 24,
            flavor,
            seed: 7,
            ..Default::default()
        })
    };
    let (lbvh4, sah2) = (bvhnn(BvhFlavor::Lbvh4), bvhnn(BvhFlavor::Sah2));
    let lowerings: [(&str, &dyn Fn(Variant) -> KernelTrace); 4] = [
        ("RtIndex", &|v| rtindex.trace(v)),
        ("Render", &|v| render.trace(v)),
        ("Bvhnn/Lbvh4", &|v| lbvh4.trace(v)),
        ("Bvhnn/Sah2", &|v| sah2.trace(v)),
    ];
    for (name, trace) in lowerings {
        for v in Variant::ALL {
            out.push((format!("{name}/{v:?}"), trace_digest(&trace(v))));
        }
    }
    out
}

/// Digests recorded from the searches at seed 7 (1/64 suite scale).
const TRACE_DIGESTS: &[(&str, u64)] = &[
    ("Ggnn/Deep1b/Hsu", 0xa2f1fed10e8da8fe),
    ("Ggnn/Deep1b/Baseline", 0x433e653f5237e2ac),
    ("Ggnn/Deep1b/BaselineStripped", 0x4959e8657cea50d5),
    ("Ggnn/FashionMnist/Hsu", 0x47689de2d10c0c30),
    ("Ggnn/FashionMnist/Baseline", 0x01f8d0955b8d7347),
    ("Ggnn/FashionMnist/BaselineStripped", 0xb7e723e5de9bfd4b),
    ("Ggnn/Mnist/Hsu", 0xa106e53ee22636a4),
    ("Ggnn/Mnist/Baseline", 0x1a6549b3585ea827),
    ("Ggnn/Mnist/BaselineStripped", 0xb814abf1db8f6483),
    ("Ggnn/Gist/Hsu", 0xf90a47fae46d9049),
    ("Ggnn/Gist/Baseline", 0xf6f1d72535b01c71),
    ("Ggnn/Gist/BaselineStripped", 0x4f8d9ede59781e94),
    ("Ggnn/Glove/Hsu", 0x6c2fd633f0bf9739),
    ("Ggnn/Glove/Baseline", 0xe24fdd724a5db431),
    ("Ggnn/Glove/BaselineStripped", 0x99fdd57cc8e6d21d),
    ("Ggnn/LastFm/Hsu", 0x5783c1701e76e163),
    ("Ggnn/LastFm/Baseline", 0x0bc35de886b9bccc),
    ("Ggnn/LastFm/BaselineStripped", 0xeb0b8e6203c043e5),
    ("Ggnn/Nytimes/Hsu", 0x8a9dbecd42cab261),
    ("Ggnn/Nytimes/Baseline", 0xa5afdc3dc6568659),
    ("Ggnn/Nytimes/BaselineStripped", 0x3ad90a2ee3a13441),
    ("Ggnn/Sift1m/Hsu", 0x6aa4678949e5b189),
    ("Ggnn/Sift1m/Baseline", 0xe1ff3117e2e48a16),
    ("Ggnn/Sift1m/BaselineStripped", 0x99a72601fc655852),
    ("Ggnn/Sift10k/Hsu", 0xd2ba15812b884025),
    ("Ggnn/Sift10k/Baseline", 0xe24b53fd081f9a30),
    ("Ggnn/Sift10k/BaselineStripped", 0x5a09e925baef312a),
    ("Flann/Random10k/Hsu", 0x2d7237c47493b469),
    ("Flann/Random10k/Baseline", 0xc14156a38075ff75),
    ("Flann/Random10k/BaselineStripped", 0xda432b35390ec0ae),
    ("Bvhnn/Random10k/Hsu", 0xcb4f4ec08661fb0a),
    ("Bvhnn/Random10k/Baseline", 0xeebfd3ff8196e389),
    ("Bvhnn/Random10k/BaselineStripped", 0xe54112f53981eddc),
    ("Flann/Bunny/Hsu", 0x5914b831dc0d10e3),
    ("Flann/Bunny/Baseline", 0x79d9350726faca89),
    ("Flann/Bunny/BaselineStripped", 0xd0666cd8cb01fe56),
    ("Bvhnn/Bunny/Hsu", 0x1f0f523857a5192b),
    ("Bvhnn/Bunny/Baseline", 0x18ef95b1eb3c0f81),
    ("Bvhnn/Bunny/BaselineStripped", 0xaa3bcf84fcdf2c5f),
    ("Flann/Dragon/Hsu", 0x21743ac602bb8315),
    ("Flann/Dragon/Baseline", 0x33f8e9d5c1a70fe1),
    ("Flann/Dragon/BaselineStripped", 0x26e9ee0375206be7),
    ("Bvhnn/Dragon/Hsu", 0x122c45b1b215636c),
    ("Bvhnn/Dragon/Baseline", 0x55afe7c617e0ff1b),
    ("Bvhnn/Dragon/BaselineStripped", 0x522baf8f79e0c89f),
    ("Flann/Buddha/Hsu", 0x996c90bcacec8e72),
    ("Flann/Buddha/Baseline", 0x0737a11ae692eb89),
    ("Flann/Buddha/BaselineStripped", 0x115223bb9f26a560),
    ("Bvhnn/Buddha/Hsu", 0xa7f25095f3e96001),
    ("Bvhnn/Buddha/Baseline", 0x85845d7d095c4ce4),
    ("Bvhnn/Buddha/BaselineStripped", 0xee19d854463b44b6),
    ("Flann/Cosmos/Hsu", 0x87a5cf511ab9942c),
    ("Flann/Cosmos/Baseline", 0x4774f1e031fef0e5),
    ("Flann/Cosmos/BaselineStripped", 0x0340242fcb9e052e),
    ("Bvhnn/Cosmos/Hsu", 0x440822e5449197ab),
    ("Bvhnn/Cosmos/Baseline", 0x4fe90aa2d3a7506d),
    ("Bvhnn/Cosmos/BaselineStripped", 0x088840a71cfd3c11),
    ("Btree/BTree1m/Hsu", 0x733dfc039bc92249),
    ("Btree/BTree1m/Baseline", 0xdd6e76e0a8e6742f),
    ("Btree/BTree1m/BaselineStripped", 0x41deccefc33af4fd),
    ("Btree/BTree10k/Hsu", 0xb8c2680c9ac4fbc5),
    ("Btree/BTree10k/Baseline", 0x4137769eb6cb8597),
    ("Btree/BTree10k/BaselineStripped", 0x6b0ccfee9a716a20),
    ("RtIndex/Hsu", 0x390c8eb3d9ef75e5),
    ("RtIndex/Baseline", 0x3a6902a812f5be0a),
    ("RtIndex/BaselineStripped", 0x5ec73bd62eb54f8b),
    ("Render/Hsu", 0xa58e98033a27605e),
    ("Render/Baseline", 0x9a7ffb956ab5009c),
    ("Render/BaselineStripped", 0x1207c72483af6475),
    ("Bvhnn/Lbvh4/Hsu", 0x34c0baea17fe488f),
    ("Bvhnn/Lbvh4/Baseline", 0xfbcf16087499b427),
    ("Bvhnn/Lbvh4/BaselineStripped", 0x94bfff307e129995),
    ("Bvhnn/Sah2/Hsu", 0x9633d949c49feba0),
    ("Bvhnn/Sah2/Baseline", 0x03cb037545abf2f9),
    ("Bvhnn/Sah2/BaselineStripped", 0x71abe7846b523c3b),
];

#[test]
fn recorded_trace_bytes_are_pinned() {
    let got = recorded_trace_digests();
    let listing: String = got
        .iter()
        .map(|(name, d)| format!("    (\"{name}\", {d:#018x}),\n"))
        .collect();
    let moved: Vec<&str> = TRACE_DIGESTS
        .iter()
        .filter(|&&(name, d)| !got.iter().any(|(n, g)| n == name && *g == d))
        .map(|&(name, _)| name)
        .collect();
    assert!(
        moved.is_empty() && got.len() == TRACE_DIGESTS.len(),
        "recorded traces moved: {moved:?}; current digests:\n{listing}"
    );
}

/// Heap bytes of every suite trace at 1/64 scale, summed over the three
/// lowerings. A Load/Store instruction keeps its merged byte ranges; the
/// per-lane form held 173 483 499 bytes here.
const SUITE_TRACE_HEAP_BYTES: usize = 91_140_971;

#[test]
fn suite_trace_heap_is_pinned() {
    let total: usize = suite_traces()
        .iter()
        .flat_map(|t| Variant::ALL.map(|v| t.trace(v).heap_bytes()))
        .sum();
    assert_eq!(total, SUITE_TRACE_HEAP_BYTES);
}
