//! `.hsar` payload codec for [`HnswGraph`] ([`hsu_archive::kind::GRAPH`]).
//!
//! Layout (little-endian):
//!
//! ```text
//! metric u8 | m u64 | ef_construction u64 | level_base f64
//! entry_point u32 | node_count u64 | node_levels: node_count × u8
//! layer_count u32
//! per layer, per node: degree u32 | degree × neighbour u32
//! ```
//!
//! The encoding is canonical (derived field-by-field from the struct), so
//! decode → re-encode is byte-identical — the parity discipline.

use hsu_archive::payload::{put_f64, put_u32, put_u64, put_u8, Cursor};
use hsu_archive::ArchiveError;
use hsu_geometry::point::Metric;

use crate::{GraphConfig, HnswGraph, Layer};

fn metric_to_u8(metric: Metric) -> u8 {
    match metric {
        Metric::Euclidean => 0,
        Metric::Angular => 1,
    }
}

fn metric_from_u8(v: u8, chunk: &str) -> Result<Metric, ArchiveError> {
    match v {
        0 => Ok(Metric::Euclidean),
        1 => Ok(Metric::Angular),
        other => Err(ArchiveError::Payload {
            chunk: chunk.into(),
            detail: format!("unknown metric tag {other}"),
        }),
    }
}

/// Encodes a graph as a `GRAPH` chunk payload.
pub fn graph_to_chunk(graph: &HnswGraph) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u8(&mut buf, metric_to_u8(graph.metric));
    put_u64(&mut buf, graph.config.m as u64);
    put_u64(&mut buf, graph.config.ef_construction as u64);
    put_f64(&mut buf, graph.config.level_base);
    put_u32(&mut buf, graph.entry_point);
    put_u64(&mut buf, graph.node_levels.len() as u64);
    buf.extend_from_slice(&graph.node_levels);
    put_u32(&mut buf, graph.layers.len() as u32);
    for layer in &graph.layers {
        for v in 0..graph.node_levels.len() as u32 {
            let adj = layer.list(v);
            put_u32(&mut buf, adj.len() as u32);
            for &n in adj {
                put_u32(&mut buf, n);
            }
        }
    }
    buf
}

/// Decodes a `GRAPH` chunk payload; `chunk` labels errors.
pub fn graph_from_chunk(bytes: &[u8], chunk: &str) -> Result<HnswGraph, ArchiveError> {
    let fail = |detail: String| ArchiveError::Payload {
        chunk: chunk.into(),
        detail,
    };
    let mut c = Cursor::new(bytes, chunk);
    let metric = metric_from_u8(c.u8()?, chunk)?;
    let m = c.u64()? as usize;
    let ef_construction = c.u64()? as usize;
    let level_base = c.f64()?;
    if m == 0 {
        return Err(fail("graph degree m must be positive".into()));
    }
    let entry_point = c.u32()?;
    let node_count = c.u64()?;
    let node_count = c.count(node_count, 1, "node")?;
    if node_count == 0 {
        return Err(fail("graph must have at least one node".into()));
    }
    if entry_point as usize >= node_count {
        return Err(fail(format!(
            "entry point {entry_point} outside the {node_count} nodes"
        )));
    }
    let node_levels = c.take(node_count)?.to_vec();
    let layer_count = c.u32()? as usize;
    if layer_count == 0 || layer_count > 256 {
        return Err(fail(format!("layer count {layer_count} outside 1..=256")));
    }
    let mut layers = Vec::with_capacity(layer_count);
    for _ in 0..layer_count {
        let mut offsets = Vec::with_capacity(node_count + 1);
        offsets.push(0);
        // The rest of the payload bounds this layer's edges; the unused
        // part of the reservation is released below.
        let mut targets = Vec::with_capacity(c.remaining() / 4);
        for _ in 0..node_count {
            let degree = c.u32()?;
            let degree = c.count(u64::from(degree), 4, "neighbour")?;
            for _ in 0..degree {
                let n = c.u32()?;
                if n as usize >= node_count {
                    return Err(fail(format!(
                        "neighbour {n} outside the {node_count} nodes"
                    )));
                }
                targets.push(n);
            }
            offsets.push(
                u32::try_from(targets.len())
                    .map_err(|_| fail(format!("more than {} edges in one layer", u32::MAX)))?,
            );
        }
        targets.shrink_to_fit();
        layers.push(Layer { offsets, targets });
    }
    c.finish()?;
    Ok(HnswGraph {
        layers,
        node_levels,
        entry_point,
        metric,
        config: GraphConfig {
            m,
            ef_construction,
            level_base,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsu_geometry::point::PointSet;

    #[test]
    fn graph_chunk_round_trips_with_byte_parity() {
        let data = PointSet::from_rows(2, (0..160).map(|i| (i as f32 * 0.37).sin()).collect());
        let graph = HnswGraph::build(&data, Metric::Angular, GraphConfig::default(), 11);
        let bytes = graph_to_chunk(&graph);
        let back = graph_from_chunk(&bytes, "t").expect("decode");
        assert_eq!(graph_to_chunk(&back), bytes, "re-encode parity");
        assert_eq!(back.entry_point(), graph.entry_point());
        assert_eq!(back.layer_count(), graph.layer_count());
        // The restored graph must search identically.
        let (a, sa) = graph.search(&data, data.point(5), 3, 16);
        let (b, sb) = back.search(&data, data.point(5), 3, 16);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn out_of_range_neighbours_are_rejected() {
        let data = PointSet::from_rows(2, (0..40).map(|i| i as f32).collect());
        let graph = HnswGraph::build(&data, Metric::Euclidean, GraphConfig::default(), 3);
        let mut bytes = graph_to_chunk(&graph);
        // Find the first adjacency entry and point it past the node count:
        // flip the entry_point field instead, which is easier to locate.
        let entry_offset = 1 + 8 + 8 + 8;
        bytes[entry_offset..entry_offset + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = graph_from_chunk(&bytes, "t").unwrap_err();
        assert_eq!(err.kind(), "payload");
    }
}
