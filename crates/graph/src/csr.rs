//! Compressed-sparse-row graph representation.

use std::fmt;

/// Identifier of a graph node.
///
/// The paper represents node indices as INT-32 scalars; we mirror that
/// with a `u32` newtype so node ids cannot be confused with page or
/// section indices elsewhere in the workspace.
///
/// # Examples
///
/// ```
/// use beacon_graph::NodeId;
/// let v = NodeId::new(7);
/// assert_eq!(v.index(), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from its integer index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Returns the raw integer index.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// An immutable directed graph in compressed-sparse-row form.
///
/// Neighbor lists are the unit of GNN sampling (§II-A): `neighbors(v)`
/// returns `N(v)` in index order. Undirected graphs are stored with both
/// edge directions.
///
/// # Examples
///
/// ```
/// use beacon_graph::{CsrGraphBuilder, NodeId};
///
/// let mut b = CsrGraphBuilder::new(3);
/// b.add_edge(NodeId::new(0), NodeId::new(1));
/// b.add_edge(NodeId::new(0), NodeId::new(2));
/// let g = b.build();
/// assert_eq!(g.degree(NodeId::new(0)), 2);
/// assert_eq!(g.neighbors(NodeId::new(0)), &[NodeId::new(1), NodeId::new(2)]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<u64>,
    adjacency: Vec<NodeId>,
}

impl CsrGraph {
    /// Assembles a graph directly from CSR arrays, validating the
    /// invariants [`CsrGraphBuilder::build`] guarantees. This is the
    /// fast path for generators that compute offsets up front and fill
    /// adjacency ranges independently (possibly in parallel) instead of
    /// growing per-node vectors.
    ///
    /// # Panics
    ///
    /// Panics with the [`CsrError`] that
    /// [`try_from_raw_parts`](Self::try_from_raw_parts) returns.
    pub fn from_raw_parts(offsets: Vec<u64>, adjacency: Vec<NodeId>) -> Self {
        Self::try_from_raw_parts(offsets, adjacency).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Like [`from_raw_parts`](Self::from_raw_parts), but returns an
    /// error instead of panicking: the form for arrays read from disk.
    ///
    /// # Errors
    ///
    /// Returns the first broken invariant: `offsets` is empty, does not
    /// start at 0, is not monotone, or does not end at
    /// `adjacency.len()`, or an adjacency entry is out of node range.
    pub fn try_from_raw_parts(offsets: Vec<u64>, adjacency: Vec<NodeId>) -> Result<Self, CsrError> {
        let (&first, &last) = offsets
            .first()
            .zip(offsets.last())
            .ok_or(CsrError::NoOffsets)?;
        if first != 0 {
            return Err(CsrError::NonZeroStart);
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(CsrError::NotMonotone);
        }
        if last != adjacency.len() as u64 {
            return Err(CsrError::EndMismatch);
        }
        let n = offsets.len() - 1;
        if adjacency.iter().any(|v| v.index() >= n) {
            return Err(CsrError::TargetOutOfRange);
        }
        Ok(CsrGraph { offsets, adjacency })
    }

    /// The CSR offset array (`num_nodes + 1` entries).
    #[inline]
    pub fn offsets(&self) -> &[u64] {
        &self.offsets
    }

    /// The flat adjacency array, concatenated in node order.
    #[inline]
    pub fn adjacency(&self) -> &[NodeId] {
        &self.adjacency
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of directed edges (adjacency entries).
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.adjacency.len()
    }

    /// Out-degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        let i = v.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The neighbor list `N(v)`, in insertion order.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[NodeId] {
        let i = v.index();
        &self.adjacency[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The `k`-th neighbor of `v`, or `None` when out of range.
    #[inline]
    pub fn neighbor(&self, v: NodeId, k: usize) -> Option<NodeId> {
        self.neighbors(v).get(k).copied()
    }

    /// Mean out-degree over all nodes.
    pub fn avg_degree(&self) -> f64 {
        if self.num_nodes() == 0 {
            return 0.0;
        }
        self.num_edges() as f64 / self.num_nodes() as f64
    }

    /// Maximum out-degree over all nodes (0 for an empty graph).
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|i| self.degree(NodeId::new(i as u32)))
            .max()
            .unwrap_or(0)
    }

    /// Iterates over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId::new)
    }

    /// Returns `true` if `v` is a valid node id of this graph.
    #[inline]
    pub fn contains(&self, v: NodeId) -> bool {
        v.index() < self.num_nodes()
    }

    /// Returns `true` if edge `(u, v)` exists (linear scan of `N(u)`).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.neighbors(u).contains(&v)
    }
}

/// A CSR invariant that raw arrays break (see
/// [`CsrGraph::try_from_raw_parts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CsrError {
    /// The offset array is empty.
    NoOffsets,
    /// The first offset is not 0.
    NonZeroStart,
    /// An offset is smaller than the one before it.
    NotMonotone,
    /// The last offset is not the adjacency length.
    EndMismatch,
    /// An adjacency entry names a node past the last one.
    TargetOutOfRange,
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CsrError::NoOffsets => "offsets must have at least one entry",
            CsrError::NonZeroStart => "offsets must start at 0",
            CsrError::NotMonotone => "offsets must be monotone",
            CsrError::EndMismatch => "offsets must end at adjacency length",
            CsrError::TargetOutOfRange => "adjacency entry out of node range",
        })
    }
}

impl std::error::Error for CsrError {}

/// Incremental builder for [`CsrGraph`].
#[derive(Debug, Clone, Default)]
pub struct CsrGraphBuilder {
    adj: Vec<Vec<NodeId>>,
}

impl CsrGraphBuilder {
    /// Creates a builder for a graph with `num_nodes` nodes and no edges.
    pub fn new(num_nodes: usize) -> Self {
        CsrGraphBuilder {
            adj: vec![Vec::new(); num_nodes],
        }
    }

    /// Adds the directed edge `(from, to)`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) -> &mut Self {
        assert!(to.index() < self.adj.len(), "edge target out of range");
        self.adj[from.index()].push(to);
        self
    }

    /// Adds both directions of an undirected edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range.
    pub fn add_undirected_edge(&mut self, a: NodeId, b: NodeId) -> &mut Self {
        self.add_edge(a, b);
        self.add_edge(b, a);
        self
    }

    /// Number of nodes the builder was created with.
    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Finalizes into an immutable CSR graph.
    pub fn build(&self) -> CsrGraph {
        let mut offsets = Vec::with_capacity(self.adj.len() + 1);
        let mut adjacency = Vec::with_capacity(self.adj.iter().map(Vec::len).sum());
        offsets.push(0u64);
        for list in &self.adj {
            adjacency.extend_from_slice(list);
            offsets.push(adjacency.len() as u64);
        }
        CsrGraph { offsets, adjacency }
    }
}

impl FromIterator<(NodeId, NodeId)> for CsrGraphBuilder {
    /// Builds a builder sized to the largest endpoint seen.
    fn from_iter<I: IntoIterator<Item = (NodeId, NodeId)>>(iter: I) -> Self {
        let edges: Vec<(NodeId, NodeId)> = iter.into_iter().collect();
        let n = edges
            .iter()
            .map(|&(a, b)| a.index().max(b.index()) + 1)
            .max()
            .unwrap_or(0);
        let mut b = CsrGraphBuilder::new(n);
        for (u, v) in edges {
            b.add_edge(u, v);
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> CsrGraph {
        // 0 -> {1,2}, 1 -> {3}, 2 -> {3}, 3 -> {}
        let mut b = CsrGraphBuilder::new(4);
        b.add_edge(NodeId::new(0), NodeId::new(1))
            .add_edge(NodeId::new(0), NodeId::new(2))
            .add_edge(NodeId::new(1), NodeId::new(3))
            .add_edge(NodeId::new(2), NodeId::new(3));
        b.build()
    }

    #[test]
    fn builds_expected_csr() {
        let g = diamond();
        assert_eq!(g.num_nodes(), 4);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(NodeId::new(0)), 2);
        assert_eq!(g.degree(NodeId::new(3)), 0);
        assert_eq!(g.neighbors(NodeId::new(1)), &[NodeId::new(3)]);
        assert_eq!(g.neighbor(NodeId::new(0), 1), Some(NodeId::new(2)));
        assert_eq!(g.neighbor(NodeId::new(0), 2), None);
    }

    #[test]
    fn degree_statistics() {
        let g = diamond();
        assert!((g.avg_degree() - 1.0).abs() < 1e-12);
        assert_eq!(g.max_degree(), 2);
    }

    #[test]
    fn membership_and_edges() {
        let g = diamond();
        assert!(g.contains(NodeId::new(3)));
        assert!(!g.contains(NodeId::new(4)));
        assert!(g.has_edge(NodeId::new(0), NodeId::new(2)));
        assert!(!g.has_edge(NodeId::new(2), NodeId::new(0)));
    }

    #[test]
    fn undirected_adds_both_directions() {
        let mut b = CsrGraphBuilder::new(2);
        b.add_undirected_edge(NodeId::new(0), NodeId::new(1));
        let g = b.build();
        assert!(g.has_edge(NodeId::new(0), NodeId::new(1)));
        assert!(g.has_edge(NodeId::new(1), NodeId::new(0)));
    }

    #[test]
    fn from_iterator_sizes_to_max_endpoint() {
        let b: CsrGraphBuilder = [(NodeId::new(0), NodeId::new(5))].into_iter().collect();
        let g = b.build();
        assert_eq!(g.num_nodes(), 6);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraphBuilder::new(0).build();
        assert_eq!(g.num_nodes(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.nodes().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        CsrGraphBuilder::new(1).add_edge(NodeId::new(0), NodeId::new(9));
    }

    #[test]
    fn raw_parts_roundtrip_matches_builder() {
        let g = diamond();
        let rebuilt = CsrGraph::from_raw_parts(g.offsets().to_vec(), g.adjacency().to_vec());
        assert_eq!(rebuilt, g);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn raw_parts_rejects_decreasing_offsets() {
        CsrGraph::from_raw_parts(vec![0, 2, 1], vec![NodeId::new(0)]);
    }

    #[test]
    #[should_panic(expected = "adjacency entry out of node range")]
    fn raw_parts_rejects_out_of_range_target() {
        CsrGraph::from_raw_parts(vec![0, 1], vec![NodeId::new(5)]);
    }

    #[test]
    fn try_raw_parts_names_the_broken_invariant() {
        let v = NodeId::new;
        for (offsets, adjacency, want) in [
            (vec![], vec![], CsrError::NoOffsets),
            (vec![1, 1], vec![v(0)], CsrError::NonZeroStart),
            (vec![0, 2, 1], vec![v(0)], CsrError::NotMonotone),
            (vec![0, 1], vec![v(0), v(0)], CsrError::EndMismatch),
            (vec![0, 1], vec![v(1)], CsrError::TargetOutOfRange),
        ] {
            assert_eq!(CsrGraph::try_from_raw_parts(offsets, adjacency), Err(want));
        }
        let g = diamond();
        assert_eq!(
            CsrGraph::try_from_raw_parts(g.offsets().to_vec(), g.adjacency().to_vec()),
            Ok(g)
        );
    }
}
