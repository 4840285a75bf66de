//! A B+-tree key-value store modelled on the Rodinia `b+tree` benchmark.
//!
//! The paper's fourth workload (§V-A) traverses a B-tree whose internal nodes
//! hold up to 255 separator values (branch factor 256). Descending one node
//! means comparing the query key against the separators — the operation the
//! HSU's `KEY_COMPARE` instruction performs 36 separators at a time.
//!
//! The tree here is bulk-built (the GPU benchmark also builds once and then
//! serves batched lookups), with flat arena storage so the trace generators
//! can address nodes directly. A lookup reports each node it descends
//! through to a [`BtObserver`], which is how the B+-tree kernel records its
//! trace.
//!
//! # Examples
//!
//! ```
//! use hsu_btree::BPlusTree;
//!
//! let pairs: Vec<(u32, u64)> = (0..1000).map(|k| (k * 2, u64::from(k) + 100)).collect();
//! let tree = BPlusTree::bulk_build(pairs, 256);
//! assert_eq!(tree.get(500), Some(350));
//! assert_eq!(tree.get(501), None);
//! ```

#![warn(missing_docs)]

pub mod archive_io;

/// Maximum branch factor of the Rodinia configuration (255 separators).
pub const RODINIA_BRANCH: usize = 256;

/// Lookup-effort counters, gathered as the [`BtObserver`] of a lookup.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BtStats {
    /// Internal nodes visited.
    pub internal_visits: u64,
    /// Separator values compared (before early exit in scalar code; the HSU
    /// compares them 36 at a time regardless).
    pub separators_scanned: u64,
    /// Leaf nodes visited.
    pub leaf_visits: u64,
}

/// Hooks through which [`BPlusTree::get_observed`] reports each node of
/// its descent, root first. Both methods default to no-ops and are
/// statically dispatched; [`BtStats`] counts the work and the B+-tree
/// trace generator records the same steps as thread events.
#[allow(unused_variables)]
pub trait BtObserver {
    /// Internal `node` routes the key by comparing it with its
    /// `separators` separator keys.
    fn internal(&mut self, node: u32, separators: usize) {}

    /// The lookup ends at leaf `node`, which holds `keys` keys.
    fn leaf(&mut self, node: u32, keys: usize) {}
}

impl BtObserver for BtStats {
    fn internal(&mut self, _: u32, separators: usize) {
        self.internal_visits += 1;
        self.separators_scanned += separators as u64;
    }

    fn leaf(&mut self, _: u32, _: usize) {
        self.leaf_visits += 1;
    }
}

/// One node of the flat-arena B+-tree.
#[derive(Debug, Clone, PartialEq)]
pub enum BtNode {
    /// Internal routing node: `children.len() == separators.len() + 1`.
    Internal {
        /// Sorted separator keys.
        separators: Vec<u32>,
        /// Child node indices.
        children: Vec<u32>,
    },
    /// Leaf holding sorted `(key, value)` pairs and a link to the next leaf.
    Leaf {
        /// Sorted keys.
        keys: Vec<u32>,
        /// Values parallel to `keys`.
        values: Vec<u64>,
        /// Next leaf in key order, if any.
        next: Option<u32>,
    },
}

/// Result of a recursive insertion step.
enum InsertOutcome {
    /// Key existed; value swapped.
    Replaced(u64),
    /// Inserted without overflow.
    Inserted,
    /// The child split: `sep` routes to the new `right` sibling.
    Split {
        /// Separator to add to the parent.
        sep: u32,
        /// Index of the new right node.
        right: u32,
    },
}

/// A bulk-built B+-tree with u32 keys and u64 values.
#[derive(Debug, Clone, PartialEq)]
pub struct BPlusTree {
    nodes: Vec<BtNode>,
    root: u32,
    branch: usize,
    len: usize,
}

impl BPlusTree {
    /// Builds a tree from key-value pairs with the given branch factor
    /// (maximum children per internal node; separators = branch − 1).
    ///
    /// Duplicate keys keep the *last* occurrence, matching `BTreeMap::insert`
    /// semantics for repeated inserts.
    ///
    /// # Panics
    ///
    /// Panics if `branch < 3`.
    pub fn bulk_build(mut pairs: Vec<(u32, u64)>, branch: usize) -> Self {
        assert!(branch >= 3, "branch factor must be at least 3");
        pairs.sort_by_key(|&(k, _)| k);
        // Keep the last occurrence of each duplicate key.
        pairs.reverse();
        pairs.dedup_by_key(|&mut (k, _)| k);
        pairs.reverse();
        let len = pairs.len();

        let mut nodes = Vec::new();
        if pairs.is_empty() {
            nodes.push(BtNode::Leaf {
                keys: Vec::new(),
                values: Vec::new(),
                next: None,
            });
            return BPlusTree {
                nodes,
                root: 0,
                branch,
                len,
            };
        }

        // Fill leaves at ~2/3 occupancy like a bulk loader would, but cap at
        // branch-1 keys per leaf.
        let leaf_cap = (branch - 1).max(1);
        let per_leaf = ((leaf_cap * 2) / 3).max(1);
        let mut level: Vec<(u32, u32)> = Vec::new(); // (min key, node idx)
        for chunk in pairs.chunks(per_leaf) {
            let idx = nodes.len() as u32;
            nodes.push(BtNode::Leaf {
                keys: chunk.iter().map(|&(k, _)| k).collect(),
                values: chunk.iter().map(|&(_, v)| v).collect(),
                next: None,
            });
            level.push((chunk[0].0, idx));
        }
        // Link the leaves.
        for w in level.windows(2) {
            let (_, a) = w[0];
            let (_, b) = w[1];
            if let BtNode::Leaf { next, .. } = &mut nodes[a as usize] {
                *next = Some(b);
            }
        }

        // Build internal levels until one root remains.
        while level.len() > 1 {
            let mut next_level = Vec::new();
            for chunk in level.chunks(branch) {
                let idx = nodes.len() as u32;
                let separators: Vec<u32> = chunk[1..].iter().map(|&(k, _)| k).collect();
                let children: Vec<u32> = chunk.iter().map(|&(_, i)| i).collect();
                nodes.push(BtNode::Internal {
                    separators,
                    children,
                });
                next_level.push((chunk[0].0, idx));
            }
            level = next_level;
        }

        BPlusTree {
            nodes,
            root: level[0].1,
            branch,
            len,
        }
    }

    /// Number of stored pairs.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if the tree stores nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured branch factor.
    #[inline]
    pub fn branch(&self) -> usize {
        self.branch
    }

    /// Root node index.
    #[inline]
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The node arena; exposed for the trace generators.
    #[inline]
    pub fn nodes(&self) -> &[BtNode] {
        &self.nodes
    }

    /// Tree height (leaf level = 1).
    pub fn height(&self) -> usize {
        let mut h = 1;
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                BtNode::Leaf { .. } => return h,
                BtNode::Internal { children, .. } => {
                    node = children[0];
                    h += 1;
                }
            }
        }
    }

    /// Point lookup.
    pub fn get(&self, key: u32) -> Option<u64> {
        self.get_counted(key).0
    }

    /// Point lookup with effort counters.
    pub fn get_counted(&self, key: u32) -> (Option<u64>, BtStats) {
        let mut stats = BtStats::default();
        let value = self.get_observed(key, &mut stats);
        (value, stats)
    }

    /// Point lookup, reporting each node of the descent to `observer` (see
    /// [`BtObserver`]).
    pub fn get_observed<O: BtObserver>(&self, key: u32, observer: &mut O) -> Option<u64> {
        let mut node = self.root;
        loop {
            match &self.nodes[node as usize] {
                BtNode::Internal {
                    separators,
                    children,
                } => {
                    observer.internal(node, separators.len());
                    // Child index = number of separators <= key, the
                    // KEY_COMPARE popcount semantics.
                    let idx = separators.partition_point(|&s| s <= key);
                    node = children[idx];
                }
                BtNode::Leaf { keys, values, .. } => {
                    observer.leaf(node, keys.len());
                    return keys.binary_search(&key).ok().map(|i| values[i]);
                }
            }
        }
    }

    /// Point lookups for a batch of keys, one result per key in input
    /// order. Each lookup is exactly a [`BPlusTree::get_counted`] call,
    /// so batch results are bit-identical to per-key results in any
    /// order or partition of the key stream.
    pub fn get_many_counted(&self, keys: &[u32]) -> Vec<(Option<u64>, BtStats)> {
        keys.iter().map(|&k| self.get_counted(k)).collect()
    }

    /// All `(key, value)` pairs with `lo <= key < hi`, in key order, walking
    /// the leaf chain.
    pub fn range(&self, lo: u32, hi: u32) -> Vec<(u32, u64)> {
        let mut out = Vec::new();
        if lo >= hi || self.is_empty() {
            return out;
        }
        // Descend to the leaf that could contain `lo`.
        let mut node = self.root;
        while let BtNode::Internal {
            separators,
            children,
        } = &self.nodes[node as usize]
        {
            let idx = separators.partition_point(|&s| s <= lo);
            node = children[idx];
        }
        let mut current = Some(node);
        while let Some(n) = current {
            let BtNode::Leaf { keys, values, next } = &self.nodes[n as usize] else {
                unreachable!("leaf chain links to internal node");
            };
            for (k, v) in keys.iter().zip(values) {
                if *k >= hi {
                    return out;
                }
                if *k >= lo {
                    out.push((*k, *v));
                }
            }
            current = *next;
        }
        out
    }

    /// Inserts a key-value pair, splitting nodes on overflow (the classic
    /// B+-tree insertion; the GPU b-tree of Awad et al. supports the same
    /// operation batch-wise). Returns the previous value if the key existed.
    ///
    /// # Examples
    ///
    /// ```
    /// use hsu_btree::BPlusTree;
    /// let mut t = BPlusTree::bulk_build(vec![(1, 10), (3, 30)], 4);
    /// assert_eq!(t.insert(2, 20), None);
    /// assert_eq!(t.insert(3, 31), Some(30));
    /// assert_eq!(t.get(2), Some(20));
    /// t.validate().unwrap();
    /// ```
    pub fn insert(&mut self, key: u32, value: u64) -> Option<u64> {
        let root = self.root;
        match self.insert_into(root, key, value) {
            InsertOutcome::Replaced(old) => Some(old),
            InsertOutcome::Inserted => {
                self.len += 1;
                None
            }
            InsertOutcome::Split { sep, right } => {
                // Grow a new root.
                let new_root = self.nodes.len() as u32;
                self.nodes.push(BtNode::Internal {
                    separators: vec![sep],
                    children: vec![root, right],
                });
                self.root = new_root;
                self.len += 1;
                None
            }
        }
    }

    fn insert_into(&mut self, node: u32, key: u32, value: u64) -> InsertOutcome {
        match &mut self.nodes[node as usize] {
            BtNode::Leaf { keys, values, next } => {
                match keys.binary_search(&key) {
                    Ok(i) => {
                        let old = values[i];
                        values[i] = value;
                        InsertOutcome::Replaced(old)
                    }
                    Err(i) => {
                        keys.insert(i, key);
                        values.insert(i, value);
                        if keys.len() < self.branch {
                            return InsertOutcome::Inserted;
                        }
                        // Split the leaf in half; the right half's first key
                        // becomes the separator (it stays in the leaf level).
                        let mid = keys.len() / 2;
                        let right_keys = keys.split_off(mid);
                        let right_values = values.split_off(mid);
                        let sep = right_keys[0];
                        let old_next = *next;
                        let right = self.nodes.len() as u32;
                        if let BtNode::Leaf { next, .. } = &mut self.nodes[node as usize] {
                            *next = Some(right);
                        }
                        self.nodes.push(BtNode::Leaf {
                            keys: right_keys,
                            values: right_values,
                            next: old_next,
                        });
                        InsertOutcome::Split { sep, right }
                    }
                }
            }
            BtNode::Internal {
                separators,
                children,
            } => {
                let idx = separators.partition_point(|&s| s <= key);
                let child = children[idx];
                match self.insert_into(child, key, value) {
                    InsertOutcome::Split { sep, right } => {
                        let BtNode::Internal {
                            separators,
                            children,
                        } = &mut self.nodes[node as usize]
                        else {
                            unreachable!("node kind changed during insert");
                        };
                        separators.insert(idx, sep);
                        children.insert(idx + 1, right);
                        if children.len() <= self.branch {
                            return InsertOutcome::Inserted;
                        }
                        // Split the internal node; the middle separator
                        // moves up.
                        let mid = separators.len() / 2;
                        let up = separators[mid];
                        let right_seps = separators.split_off(mid + 1);
                        separators.pop(); // remove `up`
                        let right_children = children.split_off(mid + 1);
                        let right = self.nodes.len() as u32;
                        self.nodes.push(BtNode::Internal {
                            separators: right_seps,
                            children: right_children,
                        });
                        InsertOutcome::Split { sep: up, right }
                    }
                    other => other,
                }
            }
        }
    }

    /// Checks the structural invariants: sorted separators and keys,
    /// `children = separators + 1`, uniform leaf depth, correct routing
    /// (every key in child `i` is within the separator bounds), and the leaf
    /// chain enumerating all keys in order.
    pub fn validate(&self) -> Result<(), String> {
        fn walk(
            tree: &BPlusTree,
            node: u32,
            lo: Option<u32>,
            hi: Option<u32>,
            depth: usize,
            leaf_depth: &mut Option<usize>,
        ) -> Result<(), String> {
            match &tree.nodes[node as usize] {
                BtNode::Internal {
                    separators,
                    children,
                } => {
                    if children.len() != separators.len() + 1 {
                        return Err(format!("node {node}: fanout mismatch"));
                    }
                    if children.len() > tree.branch {
                        return Err(format!("node {node}: overfull"));
                    }
                    if !separators.windows(2).all(|w| w[0] < w[1]) {
                        return Err(format!("node {node}: separators not strictly sorted"));
                    }
                    for (i, &child) in children.iter().enumerate() {
                        let clo = if i == 0 { lo } else { Some(separators[i - 1]) };
                        let chi = if i == separators.len() {
                            hi
                        } else {
                            Some(separators[i])
                        };
                        walk(tree, child, clo, chi, depth + 1, leaf_depth)?;
                    }
                    Ok(())
                }
                BtNode::Leaf { keys, values, .. } => {
                    if keys.len() != values.len() {
                        return Err(format!("leaf {node}: key/value length mismatch"));
                    }
                    if !keys.windows(2).all(|w| w[0] < w[1]) {
                        return Err(format!("leaf {node}: keys not strictly sorted"));
                    }
                    for &k in keys {
                        if let Some(lo) = lo {
                            if k < lo {
                                return Err(format!("leaf {node}: key {k} below bound {lo}"));
                            }
                        }
                        if let Some(hi) = hi {
                            if k >= hi {
                                return Err(format!("leaf {node}: key {k} above bound {hi}"));
                            }
                        }
                    }
                    match leaf_depth {
                        None => *leaf_depth = Some(depth),
                        Some(d) if *d != depth => {
                            return Err(format!("leaf {node}: depth {depth} != {d}"))
                        }
                        _ => {}
                    }
                    Ok(())
                }
            }
        }
        let mut leaf_depth = None;
        walk(self, self.root, None, None, 0, &mut leaf_depth)?;

        // Leaf chain covers exactly `len` keys in strict order.
        let mut count = 0usize;
        let mut last: Option<u32> = None;
        // Find the leftmost leaf.
        let mut node = self.root;
        while let BtNode::Internal { children, .. } = &self.nodes[node as usize] {
            node = children[0];
        }
        let mut current = Some(node);
        while let Some(n) = current {
            let BtNode::Leaf { keys, next, .. } = &self.nodes[n as usize] else {
                return Err("leaf chain reaches internal node".into());
            };
            for &k in keys {
                if let Some(prev) = last {
                    if k <= prev {
                        return Err(format!("leaf chain out of order at key {k}"));
                    }
                }
                last = Some(k);
                count += 1;
            }
            current = *next;
        }
        if count != self.len {
            return Err(format!(
                "leaf chain has {count} keys, expected {}",
                self.len
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    fn random_pairs(n: usize, seed: u64) -> Vec<(u32, u64)> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| (rng.gen_range(0..1_000_000), rng.gen()))
            .collect()
    }

    #[test]
    fn matches_std_btreemap() {
        let pairs = random_pairs(5000, 1);
        let mut reference = BTreeMap::new();
        for &(k, v) in &pairs {
            reference.insert(k, v);
        }
        let tree = BPlusTree::bulk_build(pairs, RODINIA_BRANCH);
        tree.validate().unwrap();
        assert_eq!(tree.len(), reference.len());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(2);
        for _ in 0..2000 {
            let k = rng.gen_range(0..1_000_100);
            assert_eq!(tree.get(k), reference.get(&k).copied(), "key {k}");
        }
    }

    #[test]
    fn get_many_matches_per_key_lookups() {
        let pairs = random_pairs(4000, 5);
        let tree = BPlusTree::bulk_build(pairs, RODINIA_BRANCH);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(6);
        let keys: Vec<u32> = (0..300).map(|_| rng.gen_range(0..1_000_100)).collect();
        let batched = tree.get_many_counted(&keys);
        assert_eq!(batched.len(), keys.len());
        for (&k, (v, stats)) in keys.iter().zip(&batched) {
            let (solo_v, solo_stats) = tree.get_counted(k);
            assert_eq!(solo_v, *v, "key {k}");
            assert_eq!(solo_stats, *stats, "key {k}");
        }
    }

    #[test]
    fn range_matches_std() {
        let pairs = random_pairs(3000, 3);
        let mut reference = BTreeMap::new();
        for &(k, v) in &pairs {
            reference.insert(k, v);
        }
        let tree = BPlusTree::bulk_build(pairs, 64);
        tree.validate().unwrap();
        for (lo, hi) in [
            (0u32, 1000),
            (500_000, 600_000),
            (999_000, 2_000_000),
            (7, 7),
        ] {
            let got = tree.range(lo, hi);
            let expect: Vec<(u32, u64)> = reference.range(lo..hi).map(|(&k, &v)| (k, v)).collect();
            assert_eq!(got, expect, "range {lo}..{hi}");
        }
    }

    #[test]
    fn rodinia_branch_factor_height() {
        // 1M keys at branch 256 must fit in 3 levels (paper's B+1M dataset).
        let pairs: Vec<(u32, u64)> = (0..1_000_000u32).map(|k| (k, k as u64)).collect();
        let tree = BPlusTree::bulk_build(pairs, RODINIA_BRANCH);
        assert!(tree.height() <= 4, "height {}", tree.height());
        assert_eq!(tree.get(123_456), Some(123_456));
        let (_, stats) = tree.get_counted(999_999);
        assert_eq!(stats.internal_visits as usize + 1, tree.height());
    }

    #[test]
    fn separator_width_drives_key_compare_count() {
        let pairs: Vec<(u32, u64)> = (0..100_000u32).map(|k| (k, 0)).collect();
        let tree = BPlusTree::bulk_build(pairs, RODINIA_BRANCH);
        // Any internal node's separators fit in ceil(255/36) = 8 KEY_COMPAREs.
        for node in tree.nodes() {
            if let BtNode::Internal { separators, .. } = node {
                assert!(separators.len() <= 255);
                assert!(separators.len().div_ceil(36) <= 8);
            }
        }
    }

    #[test]
    fn empty_and_singleton() {
        let tree = BPlusTree::bulk_build(Vec::new(), 16);
        tree.validate().unwrap();
        assert!(tree.is_empty());
        assert_eq!(tree.get(0), None);
        assert!(tree.range(0, 100).is_empty());

        let tree = BPlusTree::bulk_build(vec![(5, 50)], 16);
        tree.validate().unwrap();
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.get(5), Some(50));
        assert_eq!(tree.get(4), None);
    }

    #[test]
    fn duplicates_keep_last() {
        let tree = BPlusTree::bulk_build(vec![(1, 10), (1, 20), (2, 30), (1, 40)], 8);
        tree.validate().unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(tree.get(1), Some(40));
    }

    #[test]
    fn small_branch_factors() {
        let pairs = random_pairs(500, 9);
        for branch in [3usize, 4, 8, 32] {
            let tree = BPlusTree::bulk_build(pairs.clone(), branch);
            tree.validate().unwrap();
            for &(k, _) in &pairs {
                assert!(tree.get(k).is_some(), "branch {branch}, key {k}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_branch_rejected() {
        let _ = BPlusTree::bulk_build(vec![(1, 1)], 2);
    }

    #[test]
    fn insert_matches_btreemap_random() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(21);
        let mut tree = BPlusTree::bulk_build(Vec::new(), 6);
        let mut reference = BTreeMap::new();
        for _ in 0..3000 {
            let k = rng.gen_range(0..2000u32);
            let v: u64 = rng.gen();
            assert_eq!(tree.insert(k, v), reference.insert(k, v), "insert {k}");
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), reference.len());
        for k in 0..2100u32 {
            assert_eq!(tree.get(k), reference.get(&k).copied(), "get {k}");
        }
        // Ranges across the new splits remain ordered.
        let got = tree.range(100, 900);
        let expect: Vec<(u32, u64)> = reference.range(100..900).map(|(&k, &v)| (k, v)).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn insert_into_bulk_built_tree() {
        let pairs: Vec<(u32, u64)> = (0..10_000u32).map(|k| (k * 2, k as u64)).collect();
        let mut tree = BPlusTree::bulk_build(pairs, RODINIA_BRANCH);
        let before = tree.height();
        for k in 0..5_000u32 {
            assert_eq!(tree.insert(k * 2 + 1, 999), None);
        }
        tree.validate().unwrap();
        assert_eq!(tree.len(), 15_000);
        assert_eq!(tree.get(4_001), Some(999));
        assert!(
            tree.height() <= before + 1,
            "inserts must not unbalance the tree"
        );
    }

    #[test]
    fn sequential_inserts_grow_root_splits() {
        let mut tree = BPlusTree::bulk_build(Vec::new(), 4);
        for k in 0..500u32 {
            tree.insert(k, u64::from(k));
            tree.validate()
                .unwrap_or_else(|e| panic!("after insert {k}: {e}"));
        }
        assert_eq!(tree.len(), 500);
        assert!(tree.height() >= 4, "branch-4 tree of 500 keys must be deep");
        assert_eq!(tree.range(0, 500).len(), 500);
    }

    #[test]
    fn stats_count_work() {
        let pairs: Vec<(u32, u64)> = (0..10_000u32).map(|k| (k, k as u64)).collect();
        let tree = BPlusTree::bulk_build(pairs, RODINIA_BRANCH);
        let (v, stats) = tree.get_counted(5_000);
        assert_eq!(v, Some(5_000));
        assert!(stats.internal_visits >= 1);
        assert!(stats.separators_scanned >= 1);
        assert_eq!(stats.leaf_visits, 1);
    }
}
