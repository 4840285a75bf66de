//! Allocation guards: simulated cycles must not allocate, and a packed
//! trace must hold no more heap than its pools.
//!
//! A counting global allocator measures `Gpu::run` on an L1-resident
//! ALU/HSU kernel, then on the same kernel with every thread's op log
//! doubled. The longer run simulates roughly twice the cycles, yet may not
//! allocate once more: the run borrows the packed trace instead of copying
//! it, so anything that allocates per cycle, per issued instruction, per RT
//! dispatch or per trace op fails the guard. The same allocator tracks
//! live heap bytes, which bounds what a recorded kernel keeps.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hsu_sim::config::GpuConfig;
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
use hsu_sim::Gpu;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

fn count(grown: i64) {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
    let _ = LIVE.try_with(|c| c.set(c.get() + grown));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counters are const-initialised thread-locals that never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = LIVE.try_with(|c| c.set(c.get() - layout.size() as i64));
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const WARPS: u64 = 16;

/// `WARPS` full warps; each thread repeats an ALU run, a ray-box test on
/// one of four nodes, and a load of one of four lines `iterations` times,
/// so after the first few misses every access hits in the L1.
fn kernel(iterations: u32) -> KernelTrace {
    let mut k = KernelTrace::builder("l1-resident");
    for t in 0..WARPS * 32 {
        let mut th = ThreadTrace::new();
        for i in 0..u64::from(iterations) {
            th.push(ThreadOp::Alu { count: 3 });
            th.push(ThreadOp::HsuRayIntersect {
                node_addr: 0x1000 + ((t + i) % 4) * 128,
                bytes: 64,
                triangle: false,
            });
            th.push(ThreadOp::Load {
                addr: 0x8000 + ((t / 32 + i) % 4) * 128,
                bytes: 4,
            });
        }
        k.push_thread(th);
    }
    k.finish()
}

/// Allocations made on this thread by one `Gpu::run`, and its cycles.
fn measure(k: &KernelTrace) -> (u64, u64) {
    let gpu = Gpu::new(GpuConfig::tiny());
    let before = ALLOCATIONS.with(Cell::get);
    let report = gpu.run(k).expect("kernel runs");
    let after = ALLOCATIONS.with(Cell::get);
    (after - before, report.cycles)
}

/// Measured: the doubled kernel makes exactly as many allocations as the
/// short one (283 each).
#[test]
fn doubling_the_simulated_work_adds_no_allocation() {
    let (short, long) = (kernel(96), kernel(192));
    // One warm-up run so lazily initialised runtime state is not counted.
    measure(&short);
    let (base, base_cycles) = measure(&short);
    let (doubled, doubled_cycles) = measure(&long);
    assert!(
        doubled_cycles > base_cycles * 3 / 2,
        "the doubled kernel must simulate more cycles ({base_cycles} -> {doubled_cycles})"
    );
    assert!(
        doubled <= base,
        "{base} allocations for {base_cycles} cycles grew to {doubled} for \
         {doubled_cycles} cycles"
    );
}

/// An ALU/shared-heavy kernel keeps only its headers and its memory ops:
/// after recording, the live heap is the header pool (24 B per warp
/// instruction), the op pool (16 B per merged Load/Store range or HSU lane
/// op), one warp start per warp and the name, plus a little slack — not the
/// 16 B per recorded thread op the per-thread logs held.
#[test]
fn a_recorded_kernel_holds_only_its_pools() {
    const THREADS: u64 = 40 * 32 + 7;
    let live_before = LIVE.with(Cell::get);
    let mut k = KernelTrace::builder("alu-heavy");
    let mut thread_ops = 0usize;
    for t in 0..THREADS {
        let mut th = ThreadTrace::new();
        for i in 0..24u64 {
            th.push(ThreadOp::Alu {
                count: 1 + (t + i) as u32 % 5,
            });
            th.push(ThreadOp::Shared { count: 2 });
            if i % 8 == t % 8 {
                th.push(ThreadOp::Load {
                    addr: 0x8000 + t * 4,
                    bytes: 4,
                });
            }
        }
        thread_ops += th.ops().len();
        k.push_thread(th);
    }
    let k = k.finish();
    let live = (LIVE.with(Cell::get) - live_before) as usize;

    let warps = k.warp_count();
    let headers: usize = k.warps().map(|w| w.len()).sum();
    let pooled: usize = k
        .warps()
        .flat_map(|w| w.instructions().iter().map(|i| i.op_count()))
        .sum();
    // The lanes sharing a Load read words 32 B apart, so no ranges merge.
    assert_eq!(pooled, THREADS as usize * 3, "three Loads per thread");
    let pools = headers * 24 + pooled * 16 + warps * 4 + k.name().len();
    assert_eq!(k.heap_bytes(), pools, "pools are sized exactly");
    assert!(
        live <= pools + 256,
        "recorded kernel holds {live} heap bytes, its pools {pools}"
    );
    assert!(
        live * 4 < thread_ops * 16,
        "{live} heap bytes is not far below the {} bytes of per-thread logs",
        thread_ops * 16
    );
}
