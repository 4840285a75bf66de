//! Allocation guard: simulated cycles must not allocate.
//!
//! A counting global allocator measures `Gpu::run` on an L1-resident
//! ALU/HSU kernel, then on the same kernel with every thread's op log
//! doubled. The longer run simulates roughly twice the cycles; the only
//! extra allocations it may make are the packed traces' own growth (at
//! most two per warp: the instruction headers and the op pool). Anything
//! that allocates per cycle, per issued instruction or per RT dispatch
//! blows through that budget.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hsu_sim::config::GpuConfig;
use hsu_sim::trace::{KernelTrace, ThreadOp, ThreadTrace};
use hsu_sim::Gpu;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards to the system allocator unchanged; the
// counter is a const-initialised thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
    let mut k = KernelTrace::new("l1-resident");
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
    k
}

/// Allocations made on this thread by one `Gpu::run`, and its cycles.
fn measure(k: &KernelTrace) -> (u64, u64) {
    let gpu = Gpu::new(GpuConfig::tiny());
    let before = ALLOCATIONS.with(Cell::get);
    let report = gpu.run(k).expect("kernel runs");
    let after = ALLOCATIONS.with(Cell::get);
    (after - before, report.cycles)
}

#[test]
fn doubling_the_simulated_work_adds_at_most_two_allocations_per_warp() {
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
        doubled <= base + 2 * WARPS,
        "{base} allocations for {base_cycles} cycles grew to {doubled} for \
         {doubled_cycles} cycles: more than two per warp"
    );
}
