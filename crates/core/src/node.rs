//! Packed node formats fetched from memory by HSU CISC instructions.
//!
//! The type of test a `RAY_INTERSECT` performs is determined by the *node
//! fetched from memory* (paper §IV-D), so the node encodings are part of the
//! ISA. The HSU adds key nodes for the new instructions and reads candidate
//! points straight from the dataset's vector buffer; point primitives are
//! first-class, which is where the 9:1 memory advantage over
//! triangle-encoded keys (§VI-G) comes from.

use hsu_geometry::{Aabb, Triangle};

/// Discriminates what a node pointer refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// Internal BVH node holding up to four child AABBs.
    Box,
    /// Leaf holding one triangle primitive.
    Triangle,
    /// Leaf referencing one N-dimensional point (HSU extension).
    Point,
    /// B-tree internal node holding separator keys (HSU extension).
    Key,
}

/// A child slot of a [`BoxNode`]: bounding box, pointer and pointee kind.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoxChild {
    /// Bounds of the child subtree.
    pub aabb: Aabb,
    /// Node pointer (byte address in the simulated address space).
    pub ptr: u64,
    /// What `ptr` points to.
    pub kind: NodeKind,
}

/// An internal BVH node with up to four children (BVH4), the operand of a
/// ray-box `RAY_INTERSECT`.
///
/// # Examples
///
/// ```
/// use hsu_core::node::{BoxChild, BoxNode, NodeKind};
/// use hsu_geometry::{Aabb, Vec3};
///
/// let node = BoxNode::new(vec![BoxChild {
///     aabb: Aabb::new(Vec3::ZERO, Vec3::splat(1.0)),
///     ptr: 0x100,
///     kind: NodeKind::Triangle,
/// }]);
/// assert_eq!(node.children().len(), 1);
/// assert_eq!(BoxNode::BYTE_SIZE, 128);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BoxNode {
    children: Vec<BoxChild>,
}

impl BoxNode {
    /// Maximum number of children (BVH4).
    pub const MAX_CHILDREN: usize = 4;

    /// Bytes of one child slot: 6 × f32 bounds + an 8-byte pointer/kind
    /// word. A binary (BVH2) node is two slots, 64 B.
    pub const SLOT_BYTES: u64 = 32;

    /// Bytes fetched per box node: four slots = 128 B — exactly one V100
    /// cache sector pair and the figure used for the roofline's
    /// operand-traffic accounting.
    pub const BYTE_SIZE: u64 = Self::MAX_CHILDREN as u64 * Self::SLOT_BYTES;

    /// Creates a box node.
    ///
    /// # Panics
    ///
    /// Panics if `children` is empty or holds more than four entries.
    pub fn new(children: Vec<BoxChild>) -> Self {
        assert!(
            !children.is_empty() && children.len() <= Self::MAX_CHILDREN,
            "box node must have 1..=4 children, got {}",
            children.len()
        );
        BoxNode { children }
    }

    /// The child slots.
    #[inline]
    pub fn children(&self) -> &[BoxChild] {
        &self.children
    }
}

/// A triangle leaf node, the operand of a ray-triangle `RAY_INTERSECT`.
#[derive(Debug, Clone, PartialEq)]
pub struct TriangleNode {
    /// The triangle primitive (9 × f32).
    pub triangle: Triangle,
    /// Identifier returned with the hit result.
    pub triangle_id: u32,
}

impl TriangleNode {
    /// Bytes fetched per triangle node: 9 floats plus the id, padded to 48 B.
    /// This is the 288-bit primitive the RTIndeX comparison (§VI-G) charges
    /// for each triangle-encoded key.
    pub const BYTE_SIZE: u64 = 48;
}

/// A B-tree internal node of separator keys, the operand of `KEY_COMPARE`.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyNode {
    separators: Vec<f32>,
}

impl KeyNode {
    /// Creates a key node from separator values.
    ///
    /// # Panics
    ///
    /// Panics if `separators` is empty or not sorted in non-decreasing order
    /// (the B-tree invariant `KEY_COMPARE` relies on).
    pub fn new(separators: Vec<f32>) -> Self {
        assert!(
            !separators.is_empty(),
            "key node needs at least one separator"
        );
        assert!(
            separators.windows(2).all(|w| w[0] <= w[1]),
            "separators must be sorted non-decreasing"
        );
        KeyNode { separators }
    }

    /// The separator values.
    #[inline]
    pub fn separators(&self) -> &[f32] {
        &self.separators
    }

    /// Bytes fetched by one `KEY_COMPARE` of up to `width` separators.
    #[inline]
    pub fn fetch_bytes(&self, width: usize) -> u64 {
        (self.separators.len().min(width) * std::mem::size_of::<f32>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_geometry::Vec3;

    fn child(ptr: u64) -> BoxChild {
        BoxChild {
            aabb: Aabb::new(Vec3::ZERO, Vec3::splat(1.0)),
            ptr,
            kind: NodeKind::Box,
        }
    }

    #[test]
    fn box_node_accepts_one_to_four_children() {
        for n in 1..=4 {
            let node = BoxNode::new((0..n).map(|i| child(i as u64)).collect());
            assert_eq!(node.children().len(), n);
        }
    }

    #[test]
    #[should_panic(expected = "1..=4 children")]
    fn box_node_rejects_five_children() {
        let _ = BoxNode::new((0..5).map(|i| child(i as u64)).collect());
    }

    #[test]
    #[should_panic(expected = "1..=4 children")]
    fn box_node_rejects_empty() {
        let _ = BoxNode::new(vec![]);
    }

    #[test]
    fn key_node_requires_sorted_separators() {
        let node = KeyNode::new(vec![1.0, 2.0, 2.0, 5.0]);
        assert_eq!(node.separators().len(), 4);
        assert_eq!(node.fetch_bytes(36), 16);
        assert_eq!(node.fetch_bytes(2), 8);
    }

    #[test]
    #[should_panic(expected = "sorted")]
    fn key_node_rejects_unsorted() {
        let _ = KeyNode::new(vec![2.0, 1.0]);
    }

    #[test]
    fn memory_footprints_match_paper_accounting() {
        assert_eq!(BoxNode::BYTE_SIZE, 128);
        assert_eq!(2 * BoxNode::SLOT_BYTES, 64);
        // Triangle primitive is 288 bits = 36 B, padded to 48; the 9:1
        // key-store advantage (288-bit triangle vs 32-bit key) follows.
        const { assert!(TriangleNode::BYTE_SIZE >= 36) };
    }
}
