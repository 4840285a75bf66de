//! Trace serialization round-trips at the full-workload level.
//!
//! The trace-driven methodology (§V-C) only works if a serialized trace
//! replays *identically*: for each application we lower a real workload,
//! write the trace through `trace_io`, read it back, and require the
//! re-simulated `SimReport` to be equal in every counter — not just cycles.
//! A second check pins the recorded trace bytes themselves, so a change to
//! how the searches are recorded cannot move a trace unnoticed.

use hsu_archive::fnv1a64;
use hsu_bench::{ArchiveCache, Suite, SuiteConfig};
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

/// One digest per workload × dataset × lowering: every trace of the suite
/// at 1/64 scale, the RTIndeX and render case studies, and the two BVH-NN
/// hierarchy flavors the suite does not run (4-wide and SAH).
fn recorded_trace_digests() -> Vec<(String, u64)> {
    let config = SuiteConfig {
        sms: 2,
        scale_divisor: 64,
        seed: 7,
        ..SuiteConfig::default()
    };
    let mut out = Vec::new();
    for t in Suite::prepare_traces(&config, &ArchiveCache::disabled()) {
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
    ("Ggnn/Deep1b/Hsu", 0x73533d11605c6267),
    ("Ggnn/Deep1b/Baseline", 0xc629936fba0223b6),
    ("Ggnn/Deep1b/BaselineStripped", 0xaa9688ab47e7b727),
    ("Ggnn/FashionMnist/Hsu", 0x53c04f93801c1353),
    ("Ggnn/FashionMnist/Baseline", 0x84cf8015190d7a31),
    ("Ggnn/FashionMnist/BaselineStripped", 0x4c2a289fab91e0d6),
    ("Ggnn/Mnist/Hsu", 0xe72c1c9a738b86d0),
    ("Ggnn/Mnist/Baseline", 0x00b5f8f7b606cd99),
    ("Ggnn/Mnist/BaselineStripped", 0x53f436ad24e271fc),
    ("Ggnn/Gist/Hsu", 0xac6e2d24f0cf4188),
    ("Ggnn/Gist/Baseline", 0xd98050adb7dc1a37),
    ("Ggnn/Gist/BaselineStripped", 0xe8344ab146555e8d),
    ("Ggnn/Glove/Hsu", 0x0f2a94bee39baa3a),
    ("Ggnn/Glove/Baseline", 0xdae8946ac9817a10),
    ("Ggnn/Glove/BaselineStripped", 0xd9d5a83e024295d5),
    ("Ggnn/LastFm/Hsu", 0xe298f942cd2a671d),
    ("Ggnn/LastFm/Baseline", 0x5541f70f1b9bc6de),
    ("Ggnn/LastFm/BaselineStripped", 0x844bd57c19491725),
    ("Ggnn/Nytimes/Hsu", 0x3c17bbba0d16845c),
    ("Ggnn/Nytimes/Baseline", 0x1eb1cac7c20c6591),
    ("Ggnn/Nytimes/BaselineStripped", 0xa93d2318eac5114d),
    ("Ggnn/Sift1m/Hsu", 0x4397c1cedb1449b5),
    ("Ggnn/Sift1m/Baseline", 0x71bf622d54bae49f),
    ("Ggnn/Sift1m/BaselineStripped", 0x9789a4588267ca8e),
    ("Ggnn/Sift10k/Hsu", 0x88a4eef4aedf63e7),
    ("Ggnn/Sift10k/Baseline", 0xf9389f0da86cc1ed),
    ("Ggnn/Sift10k/BaselineStripped", 0x551ba7bd3378d45d),
    ("Flann/Random10k/Hsu", 0xb9404aa0d556a567),
    ("Flann/Random10k/Baseline", 0x1c4314e595c458dd),
    ("Flann/Random10k/BaselineStripped", 0x52f8a32b6a679a71),
    ("Bvhnn/Random10k/Hsu", 0x6ea77db22c4f42ef),
    ("Bvhnn/Random10k/Baseline", 0x04f4e2c5f2a92f8c),
    ("Bvhnn/Random10k/BaselineStripped", 0x2205faa20975dd39),
    ("Flann/Bunny/Hsu", 0xbde3e35e6b2002fb),
    ("Flann/Bunny/Baseline", 0x5a97d198e48de19f),
    ("Flann/Bunny/BaselineStripped", 0xfff6210c1455b3cc),
    ("Bvhnn/Bunny/Hsu", 0x97dcf563edaef238),
    ("Bvhnn/Bunny/Baseline", 0x86397a687ae645f8),
    ("Bvhnn/Bunny/BaselineStripped", 0x5b1078de7a298c39),
    ("Flann/Dragon/Hsu", 0x669b0d66fbce3989),
    ("Flann/Dragon/Baseline", 0x548fe2c75ecc4b55),
    ("Flann/Dragon/BaselineStripped", 0x3c22d5800e6e1bd7),
    ("Bvhnn/Dragon/Hsu", 0xfa5b628b75d63b61),
    ("Bvhnn/Dragon/Baseline", 0xaa6bb8cbd6686ab1),
    ("Bvhnn/Dragon/BaselineStripped", 0x7cd10737d521e949),
    ("Flann/Buddha/Hsu", 0x1f671ffc1c9c4c1c),
    ("Flann/Buddha/Baseline", 0xd40a5b1367caecda),
    ("Flann/Buddha/BaselineStripped", 0x1b34894a7056f4f3),
    ("Bvhnn/Buddha/Hsu", 0x3f396217e435f601),
    ("Bvhnn/Buddha/Baseline", 0x36d4a145aa0724c9),
    ("Bvhnn/Buddha/BaselineStripped", 0x03ca7674ad8016a0),
    ("Flann/Cosmos/Hsu", 0xc39c8ac3a50dee45),
    ("Flann/Cosmos/Baseline", 0x318f22ef2d41a33a),
    ("Flann/Cosmos/BaselineStripped", 0xdd76c700056fbe55),
    ("Bvhnn/Cosmos/Hsu", 0x1f4ae041e5eb7f25),
    ("Bvhnn/Cosmos/Baseline", 0x14d44391e497dd50),
    ("Bvhnn/Cosmos/BaselineStripped", 0xbde429d5030c6243),
    ("Btree/BTree1m/Hsu", 0x9e5bd5ec79ef5927),
    ("Btree/BTree1m/Baseline", 0x59bd54895756f9b3),
    ("Btree/BTree1m/BaselineStripped", 0x0f09fdb564b8127c),
    ("Btree/BTree10k/Hsu", 0x4c9739f203328104),
    ("Btree/BTree10k/Baseline", 0xc0f2ce3bc58a6ca2),
    ("Btree/BTree10k/BaselineStripped", 0x918849476613f4b7),
    ("RtIndex/Hsu", 0x7e50ce07bf08cab2),
    ("RtIndex/Baseline", 0x3337a49fe723d8e6),
    ("RtIndex/BaselineStripped", 0x863571c44253d12d),
    ("Render/Hsu", 0xda1dafd07cd6de80),
    ("Render/Baseline", 0x73bccbd41f7de740),
    ("Render/BaselineStripped", 0x52c94ee9f1cc1a04),
    ("Bvhnn/Lbvh4/Hsu", 0xe997d8f75476c8ca),
    ("Bvhnn/Lbvh4/Baseline", 0xb3ab0a661ab8325e),
    ("Bvhnn/Lbvh4/BaselineStripped", 0xc35dd0364e12549a),
    ("Bvhnn/Sah2/Hsu", 0xc5d23d16b85208e5),
    ("Bvhnn/Sah2/Baseline", 0xe7d7ba912d08f7fe),
    ("Bvhnn/Sah2/BaselineStripped", 0xa67cf52e11e0a954),
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
