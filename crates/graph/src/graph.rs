//! Compact simple-graph representation with stable node indices and
//! per-node network identifiers.
//!
//! Nodes are dense indices `0..n` ([`NodeId`]); every node additionally
//! carries a network identifier (`u64`), unique in the graph, matching the
//! paper's model where identifiers are drawn from a range polynomial in
//! `n` and hence fit in `O(log n)` bits. Edges are undirected, stored once
//! with a stable [`EdgeId`], plus symmetric adjacency lists in compressed
//! sparse row (CSR) form.

use std::collections::HashMap;
use std::fmt;

/// Dense node index, `0..n`.
pub type NodeId = u32;
/// Dense undirected-edge index, `0..m`.
pub type EdgeId = u32;

/// An undirected edge `{u, v}` with `u != v`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Edge {
    /// One endpoint.
    pub u: NodeId,
    /// The other endpoint.
    pub v: NodeId,
}

impl Edge {
    /// Creates an edge; endpoints are stored in the given order.
    pub fn new(u: NodeId, v: NodeId) -> Self {
        Edge { u, v }
    }

    /// The endpoint different from `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not an endpoint.
    pub fn other(&self, x: NodeId) -> NodeId {
        if x == self.u {
            self.v
        } else {
            assert_eq!(x, self.v, "node {x} is not an endpoint of {self:?}");
            self.u
        }
    }

    /// Canonical form with the smaller endpoint first.
    pub fn canonical(&self) -> (NodeId, NodeId) {
        if self.u <= self.v {
            (self.u, self.v)
        } else {
            (self.v, self.u)
        }
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}, {}}}", self.u, self.v)
    }
}

/// Errors produced when constructing graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A self-loop `{v, v}` was added; the model uses simple graphs.
    SelfLoop(NodeId),
    /// The same undirected edge was added twice.
    DuplicateEdge(NodeId, NodeId),
    /// An endpoint is out of range.
    NodeOutOfRange(NodeId),
    /// Two nodes were assigned the same network identifier.
    DuplicateId(u64),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::SelfLoop(v) => write!(f, "self-loop at node {v}"),
            GraphError::DuplicateEdge(u, v) => write!(f, "duplicate edge {{{u}, {v}}}"),
            GraphError::NodeOutOfRange(v) => write!(f, "node {v} out of range"),
            GraphError::DuplicateId(id) => write!(f, "duplicate network identifier {id}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// The default network identifier of node `v`: `1000 + 7 * v` —
/// distinct, non-consecutive, polynomial in `n`. The single source of
/// truth for every layer that materializes or recognizes default ids
/// (builder defaults, unions, the service wire codec).
pub fn default_id(v: u64) -> u64 {
    1000 + 7 * v
}

/// Incremental builder for [`Graph`].
///
/// ```
/// use dpc_graph::GraphBuilder;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_edge(0, 1).unwrap();
/// b.add_edge(1, 2).unwrap();
/// let g = b.build();
/// assert_eq!(g.edge_count(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GraphBuilder {
    n: u32,
    edges: Vec<Edge>,
    seen: HashMap<(NodeId, NodeId), ()>,
    ids: Option<Vec<u64>>,
}

impl GraphBuilder {
    /// Builder for a graph on `n` nodes with no edges yet.
    pub fn new(n: u32) -> Self {
        GraphBuilder {
            n,
            edges: Vec::new(),
            seen: HashMap::new(),
            ids: None,
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> u32 {
        self.n
    }

    /// Adds a fresh node and returns its index.
    pub fn add_node(&mut self) -> NodeId {
        self.n += 1;
        self.n - 1
    }

    /// Adds the undirected edge `{u, v}`.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeId, GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        if u >= self.n {
            return Err(GraphError::NodeOutOfRange(u));
        }
        if v >= self.n {
            return Err(GraphError::NodeOutOfRange(v));
        }
        let key = if u < v { (u, v) } else { (v, u) };
        if self.seen.insert(key, ()).is_some() {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        self.edges.push(Edge::new(u, v));
        Ok((self.edges.len() - 1) as EdgeId)
    }

    /// Adds `{u, v}` unless it already exists; reports whether it was added.
    pub fn add_edge_if_absent(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        match self.add_edge(u, v) {
            Ok(_) => Ok(true),
            Err(GraphError::DuplicateEdge(..)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// True if `{u, v}` has been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u < v { (u, v) } else { (v, u) };
        self.seen.contains_key(&key)
    }

    /// Sets explicit network identifiers (must be unique, one per node).
    pub fn with_ids(&mut self, ids: Vec<u64>) -> &mut Self {
        self.ids = Some(ids);
        self
    }

    /// Finalizes the graph. Default identifiers come from
    /// [`default_id`].
    pub fn build(self) -> Graph {
        let ids = self
            .ids
            .unwrap_or_else(|| (0..self.n as u64).map(default_id).collect());
        assert_eq!(ids.len(), self.n as usize, "one identifier per node");
        Graph::from_parts(self.n, self.edges, ids)
    }
}

/// A finite simple undirected graph with per-node network identifiers.
///
/// The representation is immutable after construction and flat: the edge
/// list, the identifiers, and every adjacency list in one array (each
/// entry carries the neighbor and the undirected edge id), so a graph
/// costs a constant number of allocations whatever its size. Each list is
/// sorted by neighbor index for deterministic iteration.
#[derive(Clone)]
pub struct Graph {
    n: u32,
    edges: Vec<Edge>,
    /// `adj[offsets[v]..offsets[v + 1]]` is `v`'s adjacency list;
    /// `usize`, since `2m` can pass `u32::MAX`.
    offsets: Vec<usize>,
    /// Every node's sorted `(neighbor, edge id)` list, back to back.
    adj: Vec<(NodeId, EdgeId)>,
    ids: Vec<u64>,
}

impl Graph {
    /// Builds a graph from parts. Prefer [`GraphBuilder`].
    ///
    /// # Panics
    ///
    /// Panics on self-loops, out-of-range endpoints, duplicate edges, or
    /// duplicate identifiers.
    pub fn from_parts(n: u32, edges: Vec<Edge>, ids: Vec<u64>) -> Self {
        assert_eq!(ids.len(), n as usize);
        assert!(
            edges.len() <= EdgeId::MAX as usize,
            "more edges than edge ids"
        );
        // degrees, then their exclusive prefix sums: where each list starts
        let mut offsets = vec![0usize; n as usize + 1];
        for e in &edges {
            assert!(e.u != e.v, "self-loop at {}", e.u);
            assert!(e.u < n && e.v < n, "endpoint out of range in {e}");
            offsets[e.u as usize] += 1;
            offsets[e.v as usize] += 1;
        }
        let mut total = 0;
        for o in &mut offsets {
            (*o, total) = (total, total + *o);
        }
        // fill in edge order, which moves each start to where its list
        // ends; shifting by one node restores the starts
        let mut adj = vec![(0, 0); total];
        for (i, e) in edges.iter().enumerate() {
            for (a, b) in [(e.u, e.v), (e.v, e.u)] {
                adj[offsets[a as usize]] = (b, i as EdgeId);
                offsets[a as usize] += 1;
            }
        }
        offsets.copy_within(..n as usize, 1);
        offsets[0] = 0;
        // a canonical edge list (sorted, smaller endpoint first) fills
        // every list in order already, and the sort only checks that
        for v in 0..n as usize {
            let l = &mut adj[offsets[v]..offsets[v + 1]];
            l.sort_unstable();
            for w in l.windows(2) {
                assert_ne!(w[0].0, w[1].0, "duplicate edge to {}", w[0].0);
            }
        }
        // increasing identifiers (the defaults among them) are distinct
        // at a glance; others are checked on a sorted copy
        if !ids.windows(2).all(|w| w[0] < w[1]) {
            let mut sorted = ids.clone();
            sorted.sort_unstable();
            if let Some(w) = sorted.windows(2).find(|w| w[0] == w[1]) {
                panic!("duplicate identifier {}", w[0]);
            }
        }
        Graph {
            n,
            edges,
            offsets,
            adj,
            ids,
        }
    }

    /// Convenience constructor from an edge list on `n` nodes.
    pub fn from_edges(n: u32, list: &[(NodeId, NodeId)]) -> Self {
        let mut b = GraphBuilder::new(n);
        for &(u, v) in list {
            b.add_edge(u, v).expect("valid edge list");
        }
        b.build()
    }

    /// Number of nodes `n`.
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Number of undirected edges `m`.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Iterator over node indices `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        0..self.n
    }

    /// The undirected edges, indexed by [`EdgeId`].
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// The edge with the given id.
    pub fn edge(&self, e: EdgeId) -> Edge {
        self.edges[e as usize]
    }

    /// Sorted adjacency of `v`: `(neighbor, edge id)` pairs.
    pub fn adjacency(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[self.offsets[v as usize]..self.offsets[v as usize + 1]]
    }

    /// Iterator over the neighbors of `v`.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.adjacency(v).iter().map(|&(w, _)| w)
    }

    /// Degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> usize {
        self.offsets
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }

    /// True if `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.find_edge(u, v).is_some()
    }

    /// The id of edge `{u, v}` if present (binary search on adjacency).
    pub fn find_edge(&self, u: NodeId, v: NodeId) -> Option<EdgeId> {
        let l = self.adjacency(u);
        l.binary_search_by_key(&v, |&(w, _)| w).ok().map(|i| l[i].1)
    }

    /// Network identifier of `v`.
    pub fn id_of(&self, v: NodeId) -> u64 {
        self.ids[v as usize]
    }

    /// All identifiers, indexed by node.
    pub fn ids(&self) -> &[u64] {
        &self.ids
    }

    /// Node with the given network identifier (a linear scan).
    pub fn node_of_id(&self, id: u64) -> Option<NodeId> {
        self.ids.iter().position(|&x| x == id).map(|v| v as NodeId)
    }

    /// True if every node carries its [`default_id`] — such graphs can
    /// be transmitted without an identifier list.
    pub fn has_default_ids(&self) -> bool {
        self.ids
            .iter()
            .copied()
            .eq((0..self.n as u64).map(default_id))
    }

    /// Returns a copy with fresh identifiers.
    ///
    /// # Panics
    ///
    /// Panics if `ids` has the wrong length or duplicates.
    pub fn with_ids(&self, ids: Vec<u64>) -> Graph {
        Graph::from_parts(self.n, self.edges.clone(), ids)
    }

    /// True if the graph is connected (the model assumes connectivity).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        crate::traversal::bfs_order(self, 0).len() == self.n as usize
    }

    /// The connected components, each as a sorted list of node
    /// indices, ordered by smallest member. The output is fully
    /// determined by the graph, so every machine that splits the same
    /// graph agrees on the same partition — the property
    /// fleet-distributed proving relies on.
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        let mut seen = vec![false; self.n as usize];
        let mut out = Vec::new();
        let mut stack = Vec::new();
        for start in 0..self.n {
            if seen[start as usize] {
                continue;
            }
            seen[start as usize] = true;
            stack.push(start);
            let mut comp = Vec::new();
            while let Some(v) = stack.pop() {
                comp.push(v);
                for &(w, _) in self.adjacency(v) {
                    if !seen[w as usize] {
                        seen[w as usize] = true;
                        stack.push(w);
                    }
                }
            }
            comp.sort_unstable();
            out.push(comp);
        }
        out
    }

    /// The subgraph induced by `nodes` (sorted, duplicate-free),
    /// re-indexed densely in that order but keeping each node's
    /// original network identifier. Edges with an endpoint outside
    /// `nodes` are dropped. Verdict `i` of an outcome measured on the
    /// result belongs to original node `nodes[i]`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is unsorted, has duplicates, or contains an
    /// out-of-range index.
    pub fn induced_subgraph(&self, nodes: &[NodeId]) -> Graph {
        assert!(
            nodes.windows(2).all(|w| w[0] < w[1]),
            "induced node list must be sorted and duplicate-free"
        );
        let local =
            |v: NodeId| -> Option<NodeId> { nodes.binary_search(&v).ok().map(|i| i as NodeId) };
        let mut edges = Vec::new();
        for (lu, &u) in nodes.iter().enumerate() {
            for &(w, _) in self.adjacency(u) {
                if u < w {
                    if let Some(lw) = local(w) {
                        edges.push(Edge::new(lu as NodeId, lw));
                    }
                }
            }
        }
        let ids = nodes.iter().map(|&v| self.ids[v as usize]).collect();
        Graph::from_parts(nodes.len() as u32, edges, ids)
    }

    /// Returns the subgraph induced by keeping exactly the edges for which
    /// `keep` returns true (same node set).
    pub fn edge_subgraph(&self, mut keep: impl FnMut(EdgeId, Edge) -> bool) -> Graph {
        let edges: Vec<Edge> = self
            .edges
            .iter()
            .enumerate()
            .filter(|&(i, &e)| keep(i as EdgeId, e))
            .map(|(_, &e)| e)
            .collect();
        Graph::from_parts(self.n, edges, self.ids.clone())
    }

    /// Disjoint union; the nodes of `other` are shifted by `self.n` and
    /// identifiers are re-assigned to keep them unique.
    pub fn disjoint_union(&self, other: &Graph) -> Graph {
        let n = self.n + other.n;
        let mut edges = self.edges.clone();
        edges.extend(
            other
                .edges
                .iter()
                .map(|e| Edge::new(e.u + self.n, e.v + self.n)),
        );
        let ids = (0..n as u64).map(default_id).collect();
        Graph::from_parts(n, edges, ids)
    }
}

impl fmt::Debug for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Graph")
            .field("n", &self.n)
            .field("m", &self.edges.len())
            .finish()
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "graph on {} nodes, {} edges", self.n, self.edges.len())?;
        for e in &self.edges {
            writeln!(f, "  {e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(1, 1), Err(GraphError::SelfLoop(1)));
    }

    #[test]
    fn builder_rejects_duplicate() {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1).unwrap();
        assert_eq!(b.add_edge(1, 0), Err(GraphError::DuplicateEdge(1, 0)));
        assert!(!b.add_edge_if_absent(0, 1).unwrap());
        assert!(b.add_edge_if_absent(1, 2).unwrap());
    }

    #[test]
    fn builder_rejects_out_of_range() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(b.add_edge(0, 5), Err(GraphError::NodeOutOfRange(5)));
    }

    #[test]
    fn adjacency_is_sorted_and_symmetric() {
        let g = Graph::from_edges(4, &[(2, 0), (0, 1), (3, 0)]);
        assert_eq!(
            g.neighbors(0).collect::<Vec<_>>(),
            vec![1, 2, 3],
            "sorted neighbors"
        );
        assert_eq!(g.degree(0), 3);
        assert!(g.has_edge(3, 0));
        assert!(!g.has_edge(1, 2));
        let e = g.find_edge(0, 2).unwrap();
        assert_eq!(g.edge(e).canonical(), (0, 2));
    }

    #[test]
    fn identifiers_are_unique_and_resolvable() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let ids: Vec<u64> = (0..3).map(|v| g.id_of(v)).collect();
        assert_eq!(ids.len(), 3);
        for v in 0..3u32 {
            assert_eq!(g.node_of_id(g.id_of(v)), Some(v));
        }
        let g2 = g.with_ids(vec![10, 20, 30]);
        assert_eq!(g2.node_of_id(20), Some(1));
    }

    #[test]
    #[should_panic(expected = "duplicate identifier")]
    fn duplicate_ids_panic() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        let _ = g.with_ids(vec![5, 5, 6]);
    }

    #[test]
    fn edge_other_endpoint() {
        let e = Edge::new(3, 7);
        assert_eq!(e.other(3), 7);
        assert_eq!(e.other(7), 3);
    }

    #[test]
    fn connectivity() {
        let p = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert!(p.is_connected());
        let d = Graph::from_edges(4, &[(0, 1), (2, 3)]);
        assert!(!d.is_connected());
    }

    #[test]
    fn components_partition_and_induce() {
        let g = Graph::from_edges(7, &[(0, 2), (2, 4), (1, 3), (5, 6)]);
        let comps = g.components();
        assert_eq!(comps, vec![vec![0, 2, 4], vec![1, 3], vec![5, 6]]);

        let sub = g.induced_subgraph(&comps[0]);
        assert_eq!(sub.node_count(), 3);
        assert_eq!(sub.edge_count(), 2);
        assert!(sub.is_connected());
        // original identifiers survive the re-indexing
        assert_eq!(sub.id_of(0), g.id_of(0));
        assert_eq!(sub.id_of(1), g.id_of(2));
        assert_eq!(sub.id_of(2), g.id_of(4));

        // a connected graph is one component: itself
        let p = Graph::from_edges(3, &[(0, 1), (1, 2)]);
        assert_eq!(p.components(), vec![vec![0, 1, 2]]);
        // the empty graph has none
        assert!(Graph::from_edges(0, &[]).components().is_empty());
    }

    #[test]
    fn edge_subgraph_and_union() {
        let g = Graph::from_edges(3, &[(0, 1), (1, 2), (0, 2)]);
        let h = g.edge_subgraph(|_, e| e.canonical() != (0, 2));
        assert_eq!(h.edge_count(), 2);
        assert_eq!(h.node_count(), 3);
        let u = g.disjoint_union(&h);
        assert_eq!(u.node_count(), 6);
        assert_eq!(u.edge_count(), 5);
        assert!(!u.is_connected());
    }
}
