//! The adjacency-list directed graph used throughout the workspace.

use std::fmt;

/// A node handle in a [`DiGraph`].
///
/// `NodeId` is a plain index newtype: it is only meaningful relative to the
/// graph that produced it. All graphs in this workspace are append-only, so
/// ids are never invalidated.
///
/// # Examples
///
/// ```
/// use jumpslice_graph::NodeId;
/// let n = NodeId::new(3);
/// assert_eq!(n.index(), 3);
/// assert_eq!(NodeId::from(3usize), n);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    pub fn new(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }

    /// Returns the raw index of this node.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<usize> for NodeId {
    fn from(index: usize) -> Self {
        NodeId::new(index)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A directed graph stored as forward and backward adjacency lists.
///
/// Nodes are dense indices (`0..len`); edges are unlabeled and duplicate
/// edges are coalesced by [`DiGraph::add_edge`]. Both successor and
/// predecessor lists are maintained so reverse traversals (needed for
/// postdominators) are O(degree).
///
/// # Examples
///
/// ```
/// use jumpslice_graph::DiGraph;
/// let mut g = DiGraph::new();
/// let a = g.add_node();
/// let b = g.add_node();
/// g.add_edge(a, b);
/// assert_eq!(g.succs(a), &[b]);
/// assert_eq!(g.preds(b), &[a]);
/// ```
#[derive(Clone, Default, PartialEq, Eq)]
pub struct DiGraph {
    succs: Vec<Vec<NodeId>>,
    preds: Vec<Vec<NodeId>>,
    num_edges: usize,
}

impl DiGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a graph with `n` nodes and no edges.
    ///
    /// ```
    /// # use jumpslice_graph::DiGraph;
    /// let g = DiGraph::with_nodes(5);
    /// assert_eq!(g.len(), 5);
    /// ```
    pub fn with_nodes(n: usize) -> Self {
        DiGraph {
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Builds a graph directly from complete successor lists, deriving the
    /// predecessor lists in one counting pass, each in source-node order.
    /// Equivalent to `with_nodes` followed by `add_edge` for every entry
    /// (up to predecessor order), but without the per-edge duplicate scan
    /// and incremental pushes — builders that produce the full adjacency
    /// first, such as the flowgraph's, want the bulk path.
    ///
    /// Returns `None` if any target is out of bounds or a successor list
    /// contains duplicates (the edge-coalescing invariant `add_edge`
    /// maintains).
    ///
    /// ```
    /// use jumpslice_graph::{DiGraph, NodeId};
    /// let g = DiGraph::from_succs(vec![vec![NodeId::new(1)], vec![]]).unwrap();
    /// assert_eq!(g.preds(NodeId::new(1)), &[NodeId::new(0)]);
    /// assert_eq!(g.num_edges(), 1);
    /// ```
    pub fn from_succs(succs: Vec<Vec<NodeId>>) -> Option<Self> {
        let n = succs.len();
        let mut counts = vec![0usize; n];
        // The last source seen pointing at each target: a repeat within one
        // list finds its own source there, in O(1) however long the list.
        let mut last_source = vec![usize::MAX; n];
        let mut num_edges = 0;
        for (u, list) in succs.iter().enumerate() {
            for &t in list {
                if t.index() >= n || std::mem::replace(&mut last_source[t.index()], u) == u {
                    return None;
                }
                counts[t.index()] += 1;
            }
            num_edges += list.len();
        }
        let mut preds: Vec<Vec<NodeId>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (u, list) in succs.iter().enumerate() {
            for &t in list {
                preds[t.index()].push(NodeId::new(u));
            }
        }
        Some(DiGraph {
            succs,
            preds,
            num_edges,
        })
    }

    /// Appends a fresh node and returns its id.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::new(self.succs.len());
        self.succs.push(Vec::new());
        self.preds.push(Vec::new());
        id
    }

    /// Adds the edge `from -> to`. Duplicate edges are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of bounds.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(from.index() < self.len(), "edge source out of bounds");
        assert!(to.index() < self.len(), "edge target out of bounds");
        if self.succs[from.index()].contains(&to) {
            return;
        }
        self.succs[from.index()].push(to);
        self.preds[to.index()].push(from);
        self.num_edges += 1;
    }

    /// Returns `true` if the edge `from -> to` is present.
    pub fn has_edge(&self, from: NodeId, to: NodeId) -> bool {
        self.succs[from.index()].contains(&to)
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.succs.len()
    }

    /// Returns `true` if the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.succs.is_empty()
    }

    /// Number of (distinct) edges.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    /// Successors of `n`, in insertion order.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n.index()]
    }

    /// Predecessors of `n`, in insertion order.
    pub fn preds(&self, n: NodeId) -> &[NodeId] {
        &self.preds[n.index()]
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len()).map(NodeId::new)
    }

    /// Iterator over all edges as `(from, to)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |n| self.succs(n).iter().map(move |&m| (n, m)))
    }

    /// Returns the graph with every edge reversed.
    ///
    /// The postdominator tree of a flowgraph is the dominator tree of its
    /// reversal rooted at the exit node.
    ///
    /// ```
    /// # use jumpslice_graph::DiGraph;
    /// let mut g = DiGraph::with_nodes(2);
    /// g.add_edge(0.into(), 1.into());
    /// let r = g.reversed();
    /// assert!(r.has_edge(1.into(), 0.into()));
    /// assert!(!r.has_edge(0.into(), 1.into()));
    /// ```
    pub fn reversed(&self) -> DiGraph {
        DiGraph {
            succs: self.preds.clone(),
            preds: self.succs.clone(),
            num_edges: self.num_edges,
        }
    }
}

impl fmt::Debug for DiGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "DiGraph({} nodes, {} edges)", self.len(), self.num_edges)?;
        for n in self.nodes() {
            if !self.succs(n).is_empty() {
                writeln!(f, "  {:?} -> {:?}", n, self.succs(n))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let n = NodeId::new(42);
        assert_eq!(n.index(), 42);
        assert_eq!(format!("{n:?}"), "n42");
        assert_eq!(format!("{n}"), "42");
    }

    #[test]
    fn empty_graph() {
        let g = DiGraph::new();
        assert!(g.is_empty());
        assert_eq!(g.len(), 0);
        assert_eq!(g.num_edges(), 0);
    }

    #[test]
    fn add_nodes_and_edges() {
        let mut g = DiGraph::new();
        let a = g.add_node();
        let b = g.add_node();
        let c = g.add_node();
        g.add_edge(a, b);
        g.add_edge(a, c);
        g.add_edge(b, c);
        assert_eq!(g.len(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.succs(a), &[b, c]);
        assert_eq!(g.preds(c), &[a, b]);
    }

    #[test]
    fn duplicate_edges_coalesce() {
        let mut g = DiGraph::with_nodes(2);
        g.add_edge(0.into(), 1.into());
        g.add_edge(0.into(), 1.into());
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.succs(0.into()).len(), 1);
        assert_eq!(g.preds(1.into()).len(), 1);
    }

    #[test]
    fn from_succs_matches_add_edge_and_rejects_repeats() {
        let n = NodeId::new;
        let lists = vec![vec![n(1), n(2)], vec![n(2), n(0)], vec![n(2)]];
        let g = DiGraph::from_succs(lists.clone()).expect("distinct in-bounds lists");
        let mut h = DiGraph::with_nodes(3);
        for (u, list) in lists.iter().enumerate() {
            for &t in list {
                h.add_edge(n(u), t);
            }
        }
        assert_eq!(g, h);
        // A repeat anywhere in one list, or a target out of bounds.
        assert!(DiGraph::from_succs(vec![vec![n(1), n(0), n(1)], vec![]]).is_none());
        assert!(DiGraph::from_succs(vec![vec![n(2)], vec![]]).is_none());
    }

    #[test]
    fn self_loop_allowed() {
        let mut g = DiGraph::with_nodes(1);
        g.add_edge(0.into(), 0.into());
        assert!(g.has_edge(0.into(), 0.into()));
        assert_eq!(g.preds(0.into()), &[NodeId::new(0)]);
    }

    #[test]
    fn reversed_swaps_adjacency() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        let r = g.reversed();
        assert_eq!(r.succs(2.into()), &[NodeId::new(1)]);
        assert_eq!(r.succs(1.into()), &[NodeId::new(0)]);
        assert_eq!(r.num_edges(), 2);
        // Reversing twice is the identity.
        assert_eq!(r.reversed(), g);
    }

    #[test]
    fn edges_iterator_enumerates_all() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(1.into(), 2.into());
        g.add_edge(0.into(), 2.into());
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        assert!(edges.contains(&(NodeId::new(0), NodeId::new(2))));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn edge_bounds_checked() {
        let mut g = DiGraph::with_nodes(1);
        g.add_edge(0.into(), 5.into());
    }
}
