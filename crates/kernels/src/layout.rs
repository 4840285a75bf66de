//! The virtual address map shared by all workload traces.
//!
//! The simulator only sees addresses; these bases keep the different data
//! structures in disjoint regions so cache behaviour is realistic (vectors
//! stream, nodes are hot, adjacency lists are mid-sized). Node strides and
//! fetch sizes come from the HSU node formats in [`hsu_core::node`].

use hsu_core::node::BoxNode;

/// Base of the dataset's flat vector buffer.
pub const VECTORS_BASE: u64 = 0x1000_0000;
/// Base of graph adjacency storage.
pub const ADJACENCY_BASE: u64 = 0x2000_0000;
/// Base of BVH node storage.
pub const BVH_NODES_BASE: u64 = 0x3000_0000;
/// Base of k-d tree node storage.
pub const KD_NODES_BASE: u64 = 0x4000_0000;
/// Base of B+-tree node storage.
pub const BTREE_NODES_BASE: u64 = 0x5000_0000;
/// Base of leaf primitive-index storage.
pub const PRIM_INDEX_BASE: u64 = 0x6000_0000;
/// Base of per-query result storage.
pub const RESULTS_BASE: u64 = 0x7000_0000;

/// The L1 line the baseline lowerings stripe a warp's cooperative loads
/// across, so one coalesced warp load touches every line of the array (the
/// V100's 128 B line, which every `GpuConfig` preset uses).
pub const LINE_BYTES: u64 = 128;

/// Address of vector `i` in a `dim`-dimensional set.
#[inline]
pub fn vector_addr(i: usize, dim: usize) -> u64 {
    VECTORS_BASE + (i * dim * 4) as u64
}

/// Bytes of a BVH2 node, and of its internal-node test's fetch: two box
/// slots (child AABBs + pointers), 64 B.
pub const BVH2_NODE_BYTES: u64 = 2 * BoxNode::SLOT_BYTES;

/// Address of a BVH2 node.
#[inline]
pub fn bvh2_node_addr(i: usize) -> u64 {
    BVH_NODES_BASE + i as u64 * BVH2_NODE_BYTES
}

/// Address of a k-d tree node (16 B: axis, split, children).
#[inline]
pub fn kd_node_addr(i: usize) -> u64 {
    KD_NODES_BASE + (i * 16) as u64
}

/// Address of a B+-tree node; nodes are padded to `branch * 8` bytes.
#[inline]
pub fn btree_node_addr(i: usize, branch: usize) -> u64 {
    BTREE_NODES_BASE + (i * branch * 8) as u64
}

/// Address of an adjacency list (graph `layer`, node `i`, degree `m`);
/// layers are spaced far apart.
#[inline]
pub fn adjacency_addr(layer: usize, i: usize, m: usize) -> u64 {
    ADJACENCY_BASE + ((layer as u64) << 24) + (i * m * 4) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regions_are_disjoint() {
        let bases = [
            VECTORS_BASE,
            ADJACENCY_BASE,
            BVH_NODES_BASE,
            KD_NODES_BASE,
            BTREE_NODES_BASE,
            PRIM_INDEX_BASE,
            RESULTS_BASE,
        ];
        for w in bases.windows(2) {
            assert!(w[0] < w[1]);
            assert!(w[1] - w[0] >= 0x1000_0000);
        }
    }

    #[test]
    fn vector_addresses_stride_by_row() {
        assert_eq!(vector_addr(0, 96), VECTORS_BASE);
        assert_eq!(vector_addr(1, 96) - vector_addr(0, 96), 384);
    }

    #[test]
    fn adjacency_layers_do_not_collide() {
        let a = adjacency_addr(0, 1000, 16);
        let b = adjacency_addr(1, 0, 16);
        assert!(b > a);
    }
}
