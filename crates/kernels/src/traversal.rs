//! The per-thread event stream of a BVH stack traversal, shared by the
//! BVH-NN, RTIndeX and render workloads.
//!
//! The events are recorded from the `hsu-bvh` traversals themselves through
//! [`TraversalObserver`], so a kernel trace replays exactly the walk the
//! index performs.

use hsu_bvh::TraversalObserver;
use hsu_sim::trace::{ThreadOp, ThreadTrace};

use crate::layout::bvh2_node_addr;
use crate::lowering::{emit_bvh2_node_test, Variant};

/// One step of a thread's stack traversal.
#[derive(Debug, Clone, Copy)]
pub(crate) enum StackEvent {
    /// Pop + loop control.
    Pop,
    /// Internal-node box test; `pushes` children were pushed.
    NodeTest { node: u32, pushes: u32 },
    /// Leaf primitive test: `slot` in the primitive permutation, whose
    /// primitive has dataset id `id`.
    Primitive { slot: u32, id: u32 },
}

/// Records one traversal as its [`StackEvent`] stream.
#[derive(Debug, Default)]
pub(crate) struct StackRecorder {
    pub(crate) events: Vec<StackEvent>,
    /// Primitive tests recorded.
    pub(crate) tests: u64,
}

impl TraversalObserver for StackRecorder {
    fn pop(&mut self, _: usize) {
        self.events.push(StackEvent::Pop);
    }

    fn node(&mut self, node: u32, pushed: u32) {
        self.events.push(StackEvent::NodeTest {
            node,
            pushes: pushed,
        });
    }

    fn primitive(&mut self, slot: u32, id: u32) {
        self.events.push(StackEvent::Primitive { slot, id });
        self.tests += 1;
    }
}

/// Lowers a pop: the shared-memory stack read plus loop control.
pub(crate) fn emit_pop(t: &mut ThreadTrace) {
    t.push(ThreadOp::Shared { count: 1 });
    t.push(ThreadOp::Alu { count: 2 });
}

/// Lowers a binary node test as `variant`: the box test itself, then the
/// result processing and child pushes that stay on the SM.
pub(crate) fn emit_node_test(t: &mut ThreadTrace, variant: Variant, node: u32, pushes: u32) {
    emit_bvh2_node_test(t, variant, bvh2_node_addr(node as usize));
    t.push(ThreadOp::Alu { count: 3 });
    if pushes > 0 {
        t.push(ThreadOp::Shared { count: pushes });
    }
}
