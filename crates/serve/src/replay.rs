//! Deterministic replay hashing.
//!
//! The service's golden-test story: a seeded query stream's per-query
//! results are pure, so hashing each [`QueryOutput`] and folding the
//! hashes **in submission-id order** yields one `u64` that must be
//! byte-identical across batch sizes and worker counts.
//! The hash is FNV-1a-64 over a canonical little-endian byte encoding —
//! the same hash family the `.hsar` archive checksums use.

use crate::index::QueryOutput;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x1000_0000_01b3;

fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    let mut h = h;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a-64 over a canonical encoding of one query's output.
///
/// Encoding: a variant tag byte, then for neighbours each `(id,
/// distance-bits)` pair little-endian, for values a presence byte and
/// the value little-endian. Distances hash by bit pattern, so any
/// floating-point drift (reassociation, FMA contraction) changes the
/// hash — that is the point.
pub fn hash_output(out: &QueryOutput) -> u64 {
    match out {
        QueryOutput::Neighbors(hits) => {
            let mut h = fnv1a(FNV_OFFSET, &[0u8]);
            for &(id, d) in hits {
                h = fnv1a(h, &id.to_le_bytes());
                h = fnv1a(h, &d.to_bits().to_le_bytes());
            }
            h
        }
        QueryOutput::Value(v) => {
            let h = fnv1a(FNV_OFFSET, &[1u8]);
            match v {
                Some(x) => fnv1a(fnv1a(h, &[1u8]), &x.to_le_bytes()),
                None => fnv1a(h, &[0u8]),
            }
        }
    }
}

/// Folds per-query hashes (supplied in submission order) into the
/// replay digest.
pub fn combine_hashes<I: IntoIterator<Item = u64>>(hashes: I) -> u64 {
    let mut h = FNV_OFFSET;
    for x in hashes {
        h = fnv1a(h, &x.to_le_bytes());
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_distinguishes_outputs() {
        let a = QueryOutput::Neighbors(vec![(1, 0.5), (2, 0.75)]);
        let b = QueryOutput::Neighbors(vec![(2, 0.75), (1, 0.5)]);
        assert_ne!(hash_output(&a), hash_output(&b), "order matters");
        assert_eq!(hash_output(&a), hash_output(&a.clone()));
        assert_ne!(
            hash_output(&QueryOutput::Value(Some(0))),
            hash_output(&QueryOutput::Value(None))
        );
        assert_ne!(
            hash_output(&QueryOutput::Neighbors(vec![])),
            hash_output(&QueryOutput::Value(None)),
            "variant tag is hashed"
        );
    }

    #[test]
    fn combine_is_order_sensitive() {
        assert_ne!(combine_hashes([1, 2]), combine_hashes([2, 1]));
        assert_eq!(combine_hashes([1, 2, 3]), combine_hashes([1, 2, 3]));
    }
}
