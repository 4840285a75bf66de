//! SoA query batches — the unit of work an engine worker executes.
//!
//! The engine coalesces individually-submitted queries into one
//! [`QueryBatch`]: vector queries land in a dense row-major coordinate
//! block (the layout `hsu_geometry::batch`'s SIMD kernels vectorize
//! over), key queries in a flat key list. Answers come back in push
//! order, so the engine can match them to tickets positionally.

use crate::index::Query;

/// A structure-of-arrays batch of queries of one family.
#[derive(Debug, Default, Clone)]
pub struct QueryBatch {
    /// Vector dimensionality (0 until the first vector query is pushed).
    dim: usize,
    /// Row-major coordinates of the vector queries, `dim` floats each.
    coords: Vec<f32>,
    /// Lookup keys of the key queries.
    keys: Vec<u32>,
    /// Total queries pushed.
    len: usize,
}

impl QueryBatch {
    /// An empty batch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Queries in the batch.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no query has been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Vector dimensionality (0 for a key-only batch).
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The dense row-major coordinate block of the vector queries.
    pub fn coords(&self) -> &[f32] {
        &self.coords
    }

    /// The flat key list of the key queries.
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Appends one query. The engine validates at admission that every
    /// query in a batch is the same variant and dimension, so a batch is
    /// homogeneous by construction.
    ///
    /// # Panics
    ///
    /// Panics if a vector query's dimension differs from the batch's.
    pub fn push(&mut self, query: &Query) {
        match query {
            Query::Vector(v) => {
                if self.dim == 0 {
                    self.dim = v.len();
                }
                assert_eq!(v.len(), self.dim, "mixed dimensions in one batch");
                self.coords.extend_from_slice(v);
            }
            Query::Key(k) => self.keys.push(*k),
        }
        self.len += 1;
    }

    /// Empties the batch, keeping its allocations for reuse.
    pub fn clear(&mut self) {
        self.dim = 0;
        self.coords.clear();
        self.keys.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_accumulates_soa() {
        let mut b = QueryBatch::new();
        b.push(&Query::Vector(vec![1.0, 2.0]));
        b.push(&Query::Vector(vec![3.0, 4.0]));
        assert_eq!(b.len(), 2);
        assert_eq!(b.dim(), 2);
        assert_eq!(b.coords(), &[1.0, 2.0, 3.0, 4.0]);
        b.clear();
        assert!(b.is_empty());
        b.push(&Query::Key(7));
        assert_eq!(b.keys(), &[7]);
        assert_eq!(b.len(), 1);
    }
}
