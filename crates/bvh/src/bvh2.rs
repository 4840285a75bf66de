//! The binary BVH structure and its invariant checks.

use crate::primitive::Primitive;
use hsu_geometry::{Aabb, Vec3};

/// What a [`Bvh2Node`] holds: two children or a primitive range.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeContent {
    /// Internal node: indices of the two children in the node array.
    Internal {
        /// Left child node index.
        left: u32,
        /// Right child node index.
        right: u32,
    },
    /// Leaf node: a range `[start, start + count)` into the primitive-index
    /// permutation.
    Leaf {
        /// First slot in the primitive-index array.
        start: u32,
        /// Number of primitives in the leaf.
        count: u32,
    },
}

/// One node of a [`Bvh2`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bvh2Node {
    /// Bounds of everything below this node.
    pub aabb: Aabb,
    /// Children or primitives.
    pub content: NodeContent,
}

/// A binary bounding volume hierarchy.
///
/// Nodes are stored in a flat array with the root at index 0; leaves address
/// a permutation of the primitive indices, so the primitive storage itself is
/// never reordered. Construct via [`crate::LbvhBuilder`] or
/// [`crate::SahBuilder`].
#[derive(Debug, Clone, PartialEq)]
pub struct Bvh2 {
    pub(crate) nodes: Vec<Bvh2Node>,
    pub(crate) prim_indices: Vec<u32>,
}

impl Bvh2 {
    /// The node array (root at index 0).
    #[inline]
    pub fn nodes(&self) -> &[Bvh2Node] {
        &self.nodes
    }

    /// The leaf-order permutation of primitive indices.
    #[inline]
    pub fn prim_indices(&self) -> &[u32] {
        &self.prim_indices
    }

    /// The root node.
    ///
    /// # Panics
    ///
    /// Panics if the BVH is empty.
    #[inline]
    pub fn root(&self) -> &Bvh2Node {
        &self.nodes[0]
    }

    /// Number of primitives the hierarchy indexes.
    #[inline]
    pub fn primitive_count(&self) -> usize {
        self.prim_indices.len()
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum leaf depth (root = 0); bounds the traversal stack.
    pub fn depth(&self) -> usize {
        fn walk(nodes: &[Bvh2Node], i: u32, d: usize) -> usize {
            match nodes[i as usize].content {
                NodeContent::Leaf { .. } => d,
                NodeContent::Internal { left, right } => {
                    walk(nodes, left, d + 1).max(walk(nodes, right, d + 1))
                }
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            walk(&self.nodes, 0, 0)
        }
    }

    /// Validates the structural invariants against the source primitives:
    ///
    /// * every parent box contains its children's boxes,
    /// * every leaf box contains its primitives' boxes,
    /// * the primitive-index array is a permutation of `0..n`,
    /// * every node is reachable exactly once.
    ///
    /// Returns an error description on the first violation. Used by tests and
    /// the property suite; release builds never call this on the hot path.
    pub fn validate<P: Primitive>(&self, prims: &[P]) -> Result<(), String> {
        if prims.is_empty() {
            return if self.nodes.is_empty() {
                Ok(())
            } else {
                Err("nodes present for empty primitive set".into())
            };
        }
        if self.prim_indices.len() != prims.len() {
            return Err(format!(
                "index count {} != primitive count {}",
                self.prim_indices.len(),
                prims.len()
            ));
        }
        let mut seen = vec![false; prims.len()];
        for &i in &self.prim_indices {
            let i = i as usize;
            if i >= prims.len() {
                return Err(format!("primitive index {i} out of range"));
            }
            if seen[i] {
                return Err(format!("primitive index {i} duplicated"));
            }
            seen[i] = true;
        }
        if !seen.iter().all(|&s| s) {
            return Err("primitive indices are not a permutation".into());
        }

        let mut visited = vec![false; self.nodes.len()];
        let mut stack = vec![0u32];
        let mut leaf_prims = 0usize;
        while let Some(i) = stack.pop() {
            let idx = i as usize;
            if idx >= self.nodes.len() {
                return Err(format!("node index {idx} out of range"));
            }
            if visited[idx] {
                return Err(format!("node {idx} reachable twice (cycle or DAG)"));
            }
            visited[idx] = true;
            let node = &self.nodes[idx];
            match node.content {
                NodeContent::Internal { left, right } => {
                    for child in [left, right] {
                        let cb = &self.nodes[child as usize].aabb;
                        if !node.aabb.contains_box(cb) {
                            return Err(format!("node {idx} does not contain child {child}"));
                        }
                    }
                    stack.push(left);
                    stack.push(right);
                }
                NodeContent::Leaf { start, count } => {
                    if count == 0 {
                        return Err(format!("leaf {idx} is empty"));
                    }
                    leaf_prims += count as usize;
                    for s in start..start + count {
                        let prim = &prims[self.prim_indices[s as usize] as usize];
                        if !node.aabb.contains_box(&prim.bounds()) {
                            return Err(format!("leaf {idx} does not contain primitive"));
                        }
                    }
                }
            }
        }
        if leaf_prims != prims.len() {
            return Err(format!(
                "leaves cover {leaf_prims} primitives, expected {}",
                prims.len()
            ));
        }
        if !visited.iter().all(|&v| v) {
            return Err("unreachable nodes present".into());
        }
        Ok(())
    }

    /// The leaf visit set of a radius query — the `start` slots of every
    /// leaf whose dilated box intersects the ball, sorted. This is the
    /// layout-independent projection of "which leaves did traversal
    /// examine": a leaf's own box test decides (its ancestors' boxes
    /// contain it, so they can never cull a passing leaf), which makes the
    /// set well-defined across the binary and 4-wide ([`crate::Bvh4`])
    /// arrangements of the same tree.
    pub fn radius_visited_leaves(&self, query: Vec3, radius: f32) -> Vec<u32> {
        let r2 = radius * radius;
        let mut out = Vec::new();
        let mut stack: Vec<u32> = if self.nodes.is_empty() {
            vec![]
        } else {
            vec![0]
        };
        while let Some(i) = stack.pop() {
            let node = &self.nodes[i as usize];
            match node.content {
                NodeContent::Internal { left, right } => {
                    stack.push(left);
                    stack.push(right);
                }
                NodeContent::Leaf { start, .. } => {
                    if node.aabb.distance_squared_to(query) <= r2 {
                        out.push(start);
                    }
                }
            }
        }
        out.sort_unstable();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::LbvhBuilder;
    use crate::primitive::PointPrimitive;
    use hsu_geometry::Vec3;

    fn grid_prims(n: usize) -> Vec<PointPrimitive> {
        (0..n)
            .map(|i| {
                let x = (i % 10) as f32;
                let y = ((i / 10) % 10) as f32;
                let z = (i / 100) as f32;
                PointPrimitive::new(i as u32, Vec3::new(x, y, z), 0.3)
            })
            .collect()
    }

    #[test]
    fn built_tree_validates() {
        let prims = grid_prims(137);
        let bvh = LbvhBuilder::default().build(&prims);
        bvh.validate(&prims).unwrap();
        assert_eq!(bvh.primitive_count(), 137);
        assert!(bvh.node_count() >= 137 / 4);
        assert!(bvh.depth() > 0);
    }

    #[test]
    fn root_bounds_everything() {
        let prims = grid_prims(64);
        let bvh = LbvhBuilder::default().build(&prims);
        for p in &prims {
            assert!(bvh.root().aabb.contains_box(&p.bounds()));
        }
    }

    #[test]
    fn single_primitive_tree() {
        let prims = vec![PointPrimitive::new(0, Vec3::ZERO, 1.0)];
        let bvh = LbvhBuilder::default().build(&prims);
        bvh.validate(&prims).unwrap();
        assert_eq!(bvh.node_count(), 1);
        assert!(matches!(
            bvh.root().content,
            NodeContent::Leaf { count: 1, .. }
        ));
        assert_eq!(bvh.depth(), 0);
    }
}
