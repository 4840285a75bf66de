//! Property-based tests of the cycle-level simulator: random kernels must
//! complete, conserve instructions, and behave deterministically.

use hsu::prelude::*;
use hsu::sim::trace::{KernelTrace, OpClass, ThreadOp, ThreadTrace};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = ThreadOp> {
    prop_oneof![
        (1u32..16).prop_map(|count| ThreadOp::Alu { count }),
        (0u64..1 << 16, 1u32..128).prop_map(|(a, b)| ThreadOp::Load {
            addr: a * 8,
            bytes: b
        }),
        (0u64..1 << 16, 1u32..64).prop_map(|(a, b)| ThreadOp::Store {
            addr: a * 8,
            bytes: b
        }),
        (1u32..8).prop_map(|count| ThreadOp::Shared { count }),
        (0u64..1 << 12).prop_map(|n| ThreadOp::HsuRayIntersect {
            node_addr: n * 64,
            bytes: 64,
            triangle: n % 3 == 0,
        }),
        (0u64..1 << 12, 1u32..256).prop_map(|(a, d)| ThreadOp::HsuDistance {
            metric: if d % 2 == 0 {
                Metric::Euclidean
            } else {
                Metric::Angular
            },
            dim: d,
            candidate_addr: a * 4,
        }),
        (0u64..1 << 10, 1u32..256).prop_map(|(a, s)| ThreadOp::HsuKeyCompare {
            node_addr: a * 4,
            separators: s,
        }),
    ]
}

fn arb_kernel() -> impl Strategy<Value = KernelTrace> {
    prop::collection::vec(prop::collection::vec(arb_op(), 0..12), 1..96).prop_map(|threads| {
        let mut k = KernelTrace::builder("prop");
        for ops in threads {
            let mut t = ThreadTrace::new();
            for op in ops {
                t.push(op);
            }
            k.push_thread(t);
        }
        k.finish()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_kernels_complete_and_conserve_instructions(kernel in arb_kernel()) {
        let gpu = Gpu::new(GpuConfig::tiny());
        let report = gpu.run(&kernel).unwrap();

        // Every warp retires, including instruction-less ones.
        let expected_warps = kernel.thread_count().div_ceil(32) as u64;
        prop_assert_eq!(report.warps_retired, expected_warps);

        // Issued warp instructions match the packed trace exactly.
        let total_instr: u64 =
            kernel.warps().map(|w| w.len() as u64).sum();
        let issued: u64 = report.issued.iter().sum();
        prop_assert_eq!(issued, total_instr);

        // HSU ISA instructions equal the per-lane beat expansion.
        let cfg = HsuConfig::default();
        let mut expected_isa = 0u64;
        for w in kernel.warps() {
            for pc in 0..w.len() {
                for op in w.ops(pc) {
                    expected_isa += match op {
                        ThreadOp::HsuRayIntersect { .. } => 1,
                        ThreadOp::HsuDistance { metric, dim, .. } =>
                            cfg.beats_for(*metric, *dim as usize) as u64,
                        ThreadOp::HsuKeyCompare { separators, .. } =>
                            cfg.key_compare_instructions(*separators as usize) as u64,
                        _ => 0,
                    };
                }
            }
        }
        prop_assert_eq!(report.rt.isa_instructions, expected_isa);
        prop_assert_eq!(report.rt.pipeline.total_completed(), expected_isa);
    }

    #[test]
    fn simulation_is_a_pure_function_of_the_trace(kernel in arb_kernel()) {
        let gpu = Gpu::new(GpuConfig::tiny());
        let a = gpu.run(&kernel).unwrap();
        let b = gpu.run(&kernel).unwrap();
        prop_assert_eq!(a.cycles, b.cycles);
        prop_assert_eq!(a.l1_accesses(), b.l1_accesses());
        prop_assert_eq!(a.memory.l2.accesses(), b.memory.l2.accesses());
        prop_assert_eq!(a.memory.dram.accesses, b.memory.dram.accesses);
    }

    #[test]
    fn more_sms_never_slow_a_parallel_kernel(threads in 64usize..256) {
        let mut k = KernelTrace::builder("scale");
        for i in 0..threads as u64 {
            let mut t = ThreadTrace::new();
            t.push(ThreadOp::Alu { count: 16 });
            t.push(ThreadOp::Load { addr: i * 256, bytes: 16 });
            k.push_thread(t);
        }
        let k = k.finish();
        let one = Gpu::new(GpuConfig { num_sms: 1, ..GpuConfig::tiny() }).run(&k).unwrap();
        let two = Gpu::new(GpuConfig { num_sms: 2, ..GpuConfig::tiny() }).run(&k).unwrap();
        // Allow small constant noise for drain effects.
        prop_assert!(two.cycles <= one.cycles + 100,
            "2 SMs {} vs 1 SM {}", two.cycles, one.cycles);
    }

    #[test]
    fn miss_rates_are_probabilities(kernel in arb_kernel()) {
        let report = Gpu::new(GpuConfig::tiny()).run(&kernel).unwrap();
        let m = report.l1_miss_rate();
        prop_assert!((0.0..=1.0).contains(&m));
        let l2 = report.memory.l2.miss_rate();
        prop_assert!((0.0..=1.0).contains(&l2));
        if report.memory.dram.accesses > 0 {
            prop_assert!(report.row_locality() >= 1.0);
        }
    }
}

/// A fixed pool of small deterministic kernels for the parallel-runner
/// property below. Shapes vary by index (and by [`hsu_bench::runner::job_seed`],
/// which doubles as a check that per-job seeds are stable) so different
/// matrix subsets exercise different mixes of op classes.
fn kernel_pool() -> Vec<KernelTrace> {
    (0..6u64)
        .map(|i| {
            let seed = hsu_bench::runner::job_seed(7, &format!("pool/{i}"));
            let mut k = KernelTrace::builder(format!("pool-{i}"));
            for t in 0..(16 + (seed % 48)) {
                let mut tt = ThreadTrace::new();
                tt.push(ThreadOp::Alu {
                    count: (seed % 7 + 1) as u32,
                });
                tt.push(ThreadOp::Load {
                    addr: (seed ^ t).wrapping_mul(64) % (1 << 20),
                    bytes: 16,
                });
                match i % 3 {
                    0 => tt.push(ThreadOp::HsuRayIntersect {
                        node_addr: t * 64,
                        bytes: 64,
                        triangle: t % 2 == 0,
                    }),
                    1 => tt.push(ThreadOp::HsuDistance {
                        metric: Metric::Euclidean,
                        dim: (seed % 64 + 1) as u32,
                        candidate_addr: t * 4,
                    }),
                    _ => tt.push(ThreadOp::HsuKeyCompare {
                        node_addr: t * 4,
                        separators: (seed % 100 + 1) as u32,
                    }),
                }
                k.push_thread(tt);
            }
            k.finish()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    // Determinism under parallelism: for ANY worker count and ANY subset of
    // the run matrix, the shared-queue runner returns exactly the reports
    // the sequential path returns, in exactly the same order.
    #[test]
    fn parallel_runner_matches_sequential_for_any_matrix_subset(
        workers in 2usize..9,
        subset in prop::collection::vec(0usize..6, 1..12),
    ) {
        let pool = kernel_pool();
        let gpu = Gpu::new(GpuConfig::tiny());
        let jobs: Vec<&KernelTrace> = subset.iter().map(|i| &pool[*i]).collect();
        let sequential = hsu_bench::run_jobs(1, jobs.clone(), |_, k| gpu.run(k));
        let parallel = hsu_bench::run_jobs(workers, jobs, |_, k| gpu.run(k));
        prop_assert_eq!(sequential.len(), parallel.len());
        for (i, (a, b)) in sequential.iter().zip(&parallel).enumerate() {
            prop_assert_eq!(a, b, "job {} diverged with {} workers", i, workers);
        }
    }
}

#[test]
fn op_class_totals_partition_issued_instructions() {
    let mut k = KernelTrace::builder("classes");
    for i in 0..64u64 {
        let mut t = ThreadTrace::new();
        t.push(ThreadOp::Alu { count: 3 });
        t.push(ThreadOp::Load {
            addr: i * 128,
            bytes: 4,
        });
        t.push(ThreadOp::HsuKeyCompare {
            node_addr: 0,
            separators: 10,
        });
        k.push_thread(t);
    }
    let k = k.finish();
    let r = Gpu::new(GpuConfig::tiny()).run(&k).unwrap();
    assert_eq!(r.issued[OpClass::Alu.index()], 2);
    assert_eq!(r.issued[OpClass::Load.index()], 2);
    assert_eq!(r.issued[OpClass::HsuKeyCompare.index()], 2);
    assert_eq!(r.issued.iter().sum::<u64>(), 6);
}
