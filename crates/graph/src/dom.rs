//! Dominator trees.
//!
//! A node `d` *dominates* `n` (w.r.t. a root `r`) if every path from `r` to
//! `n` passes through `d`. Running the same computation on the reversed graph
//! rooted at the exit node yields the *postdominator* tree used by the
//! slicing algorithms: `d` postdominates `n` iff `d` is an ancestor of `n` in
//! that tree (paper, §3).

use crate::{reverse_postorder, DiGraph, NodeId};

const UNREACHED: u32 = u32::MAX;

/// An immediate-dominator tree over a [`DiGraph`].
///
/// Supports O(1) `dominates` queries via preorder/postorder interval
/// numbering, parent navigation, and ancestor iteration — the exact
/// operations Agrawal's Figure 7 needs ("nearest postdominator in Slice",
/// preorder traversal of the postdominator tree).
///
/// Nodes unreachable from the root have no immediate dominator and are
/// excluded from traversals.
///
/// # Examples
///
/// ```
/// use jumpslice_graph::{DiGraph, DomTree};
/// let mut g = DiGraph::with_nodes(4);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(0.into(), 2.into());
/// g.add_edge(1.into(), 3.into());
/// g.add_edge(2.into(), 3.into());
/// let dom = DomTree::iterative(&g, 0.into());
/// assert_eq!(dom.idom(3.into()), Some(0.into()));
/// let pre: Vec<_> = dom.preorder().collect();
/// assert_eq!(pre[0], 0.into());
/// ```
#[derive(Clone, Debug)]
pub struct DomTree {
    root: NodeId,
    idom: Vec<Option<NodeId>>,
    pre: Vec<u32>,
    post: Vec<u32>,
    depth: Vec<u32>,
    preorder: Vec<NodeId>,
}

impl DomTree {
    /// Builds the dominator tree with the iterative Cooper–Harvey–Kennedy
    /// algorithm ("A Simple, Fast Dominance Algorithm").
    ///
    /// This is the one construction the workspace uses; the tests hold it
    /// to [`dominators_brute_force`](crate::dominators_brute_force).
    pub fn iterative(g: &DiGraph, root: NodeId) -> DomTree {
        let rpo = reverse_postorder(g, root);
        let mut rpo_num = vec![UNREACHED; g.len()];
        for (i, &n) in rpo.iter().enumerate() {
            rpo_num[n.index()] = i as u32;
        }

        // Each node's predecessors reachable from the root, latest in
        // reverse postorder first. The running intersection then climbs
        // once per node, not once per predecessor, when the predecessors
        // lie on one dominator chain: the exit of an `if` nest `n` deep has
        // `n` of them, and taking them shallowest first walks `n²/2` steps.
        let mut pred_start = Vec::with_capacity(rpo.len() + 1);
        let mut preds: Vec<NodeId> = Vec::new();
        pred_start.push(0);
        for &n in &rpo {
            let first = preds.len();
            preds.extend(
                g.preds(n)
                    .iter()
                    .filter(|p| rpo_num[p.index()] != UNREACHED),
            );
            if preds.len() - first > 1 {
                preds[first..].sort_unstable_by_key(|p| std::cmp::Reverse(rpo_num[p.index()]));
            }
            pred_start.push(preds.len());
        }

        let mut idom: Vec<Option<NodeId>> = vec![None; g.len()];
        idom[root.index()] = Some(root); // temporary self-loop, cleared below

        let intersect = |idom: &[Option<NodeId>], rpo_num: &[u32], a: NodeId, b: NodeId| {
            let (mut a, mut b) = (a, b);
            while a != b {
                while rpo_num[a.index()] > rpo_num[b.index()] {
                    a = idom[a.index()].expect("processed node has idom");
                }
                while rpo_num[b.index()] > rpo_num[a.index()] {
                    b = idom[b.index()].expect("processed node has idom");
                }
            }
            a
        };

        let mut changed = true;
        let mut passes = 0u64;
        while changed {
            changed = false;
            passes += 1;
            for (i, &n) in rpo.iter().enumerate().skip(1) {
                let mut new_idom: Option<NodeId> = None;
                for &p in &preds[pred_start[i]..pred_start[i + 1]] {
                    if idom[p.index()].is_none() {
                        continue;
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, &rpo_num, p, cur),
                    });
                }
                if new_idom.is_some() && idom[n.index()] != new_idom {
                    idom[n.index()] = new_idom;
                    changed = true;
                }
            }
        }

        idom[root.index()] = None;
        jumpslice_obs::record(|| jumpslice_obs::Event::Count {
            name: "domtree.fixpoint_passes",
            value: passes,
        });
        Self::from_idoms(g.len(), root, idom)
    }

    /// Assembles the derived structures (preorder, interval numbering,
    /// depths) from an immediate-dominator array. The child lists the
    /// numbering walks are local, one flat table: no query reads them.
    pub(crate) fn from_idoms(n: usize, root: NodeId, idom: Vec<Option<NodeId>>) -> DomTree {
        // Filled in ascending node order, so each list is sorted by index.
        let mut child_start = vec![0usize; n + 1];
        for d in idom.iter().flatten() {
            child_start[d.index() + 1] += 1;
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut next = child_start.clone();
        let mut flat = vec![root; child_start[n]];
        for (i, d) in idom.iter().enumerate() {
            if let Some(d) = d {
                flat[next[d.index()]] = NodeId::new(i);
                next[d.index()] += 1;
            }
        }
        drop(next);
        let children = |v: NodeId| &flat[child_start[v.index()]..child_start[v.index() + 1]];

        let mut pre = vec![UNREACHED; n];
        let mut post = vec![UNREACHED; n];
        let mut depth = vec![0u32; n];
        let mut preorder = Vec::new();
        let mut clock = 0u32;
        // Iterative DFS over the tree for interval numbering.
        let mut stack: Vec<(NodeId, usize)> = vec![(root, 0)];
        pre[root.index()] = clock;
        clock += 1;
        preorder.push(root);
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            if let Some(&c) = children(v).get(*i) {
                *i += 1;
                pre[c.index()] = clock;
                clock += 1;
                depth[c.index()] = depth[v.index()] + 1;
                preorder.push(c);
                stack.push((c, 0));
            } else {
                post[v.index()] = clock;
                clock += 1;
                stack.pop();
            }
        }

        DomTree {
            root,
            idom,
            pre,
            post,
            depth,
            preorder,
        }
    }

    /// The root of the tree (entry node for dominators, exit for
    /// postdominators).
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// The number of nodes of the underlying graph (reachable or not) —
    /// the `n` the tree was built over.
    pub fn num_nodes(&self) -> usize {
        self.idom.len()
    }

    /// The immediate dominator of `n`, or `None` for the root and for nodes
    /// unreachable from the root.
    pub fn idom(&self, n: NodeId) -> Option<NodeId> {
        self.idom[n.index()]
    }

    /// Whether `n` is reachable from the root (and hence in the tree).
    pub fn is_reachable(&self, n: NodeId) -> bool {
        n == self.root || self.idom[n.index()].is_some()
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: NodeId, b: NodeId) -> bool {
        if !self.is_reachable(a) || !self.is_reachable(b) {
            return false;
        }
        self.pre[a.index()] <= self.pre[b.index()] && self.post[b.index()] <= self.post[a.index()]
    }

    /// Whether `a` dominates `b` and `a != b`.
    pub fn strictly_dominates(&self, a: NodeId, b: NodeId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// Depth of `n` below the root (root has depth 0).
    pub fn depth(&self, n: NodeId) -> u32 {
        self.depth[n.index()]
    }

    /// Preorder traversal of the tree (parents before children) — the visit
    /// order required by the paper's Figure 7 algorithm. Reversed, it
    /// visits every node after all of its descendants.
    pub fn preorder(&self) -> impl DoubleEndedIterator<Item = NodeId> + '_ {
        self.preorder.iter().copied()
    }

    /// Iterator over the proper ancestors of `n`, nearest first
    /// (`idom(n)`, `idom(idom(n))`, …, root).
    ///
    /// Walking this chain until a node satisfies a predicate implements the
    /// paper's "nearest postdominator of `n` in `Slice`".
    pub fn ancestors(&self, n: NodeId) -> Ancestors<'_> {
        Ancestors {
            tree: self,
            cur: self.idom(n),
        }
    }
}

/// The dominance frontier of every node of a graph, in one flat table:
/// `DF(d)` holds the nodes `n` such that `d` dominates a predecessor of `n`
/// but does not strictly dominate `n` (Cytron et al., TOPLAS 1991).
/// Built by [`DomTree::frontiers`].
#[derive(Clone, Debug)]
pub struct Frontiers {
    /// `DF(d)` is `nodes[start[d]..start[d + 1]]`.
    start: Vec<u32>,
    nodes: Vec<NodeId>,
}

impl Frontiers {
    /// The dominance frontier of `d`, in no particular order and each node
    /// once. Empty for a node unreachable from the root.
    pub fn of(&self, d: NodeId) -> &[NodeId] {
        &self.nodes[self.start[d.index()] as usize..self.start[d.index() + 1] as usize]
    }
}

impl DomTree {
    /// The dominance frontiers of `g`, which must be the graph this tree
    /// was built over, by the Cooper–Harvey–Kennedy walk: every ancestor
    /// of a predecessor of `n`, up to but excluding `idom(n)`, has `n` in
    /// its frontier. A per-node stamp records which `n` last claimed a
    /// node, so a walk stops where an earlier walk for the same `n`
    /// passed, and no frontier is searched for duplicates. Nodes
    /// unreachable from the root take no part.
    pub fn frontiers(&self, g: &DiGraph) -> Frontiers {
        let mut claimed = vec![UNREACHED; g.len()];
        let mut pairs: Vec<(u32, NodeId)> = Vec::new();
        for n in g.nodes().filter(|&n| self.is_reachable(n)) {
            let stop = self.idom(n);
            for &p in g.preds(n) {
                let mut runner = Some(p).filter(|&p| self.is_reachable(p));
                while let Some(r) = runner {
                    if Some(r) == stop || claimed[r.index()] == n.index() as u32 {
                        break;
                    }
                    claimed[r.index()] = n.index() as u32;
                    pairs.push((r.index() as u32, n));
                    runner = self.idom(r);
                }
            }
        }
        let mut start = vec![0u32; g.len() + 1];
        for &(d, _) in &pairs {
            start[d as usize + 1] += 1;
        }
        for i in 0..g.len() {
            start[i + 1] += start[i];
        }
        let mut next = start.clone();
        let mut nodes = vec![NodeId::new(0); pairs.len()];
        for (d, n) in pairs {
            nodes[next[d as usize] as usize] = n;
            next[d as usize] += 1;
        }
        Frontiers { start, nodes }
    }
}

/// Iterator over proper ancestors in a [`DomTree`], produced by
/// [`DomTree::ancestors`].
#[derive(Clone, Debug)]
pub struct Ancestors<'a> {
    tree: &'a DomTree,
    cur: Option<NodeId>,
}

impl Iterator for Ancestors<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let n = self.cur?;
        self.cur = self.tree.idom(n);
        Some(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The running CFG from the Cooper–Harvey–Kennedy paper.
    fn chk_graph() -> DiGraph {
        // Nodes: 0=entry(6 in paper),1..5
        let mut g = DiGraph::with_nodes(6);
        for (a, b) in [
            (0, 4),
            (0, 3),
            (4, 1),
            (3, 2),
            (1, 2),
            (2, 1),
            (2, 5),
            (1, 5),
        ] {
            g.add_edge(a.into(), b.into());
        }
        g
    }

    #[test]
    fn chk_paper_example() {
        let g = chk_graph();
        let dom = DomTree::iterative(&g, 0.into());
        for n in [1usize, 2, 3, 4, 5] {
            assert_eq!(dom.idom(n.into()), Some(0.into()), "idom of {n}");
        }
        assert_eq!(dom.idom(0.into()), None);
    }

    #[test]
    fn diamond_interval_queries() {
        let mut g = DiGraph::with_nodes(4);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(a.into(), b.into());
        }
        let dom = DomTree::iterative(&g, 0.into());
        assert!(dom.dominates(0.into(), 3.into()));
        assert!(dom.dominates(3.into(), 3.into()));
        assert!(!dom.strictly_dominates(3.into(), 3.into()));
        assert!(!dom.dominates(1.into(), 3.into()));
        assert!(!dom.dominates(2.into(), 1.into()));
    }

    #[test]
    fn chain_depths_and_ancestors() {
        let mut g = DiGraph::with_nodes(4);
        for i in 0..3 {
            g.add_edge(i.into(), (i + 1).into());
        }
        let dom = DomTree::iterative(&g, 0.into());
        assert_eq!(dom.depth(3.into()), 3);
        let anc: Vec<usize> = dom.ancestors(3.into()).map(|n| n.index()).collect();
        assert_eq!(anc, vec![2, 1, 0]);
    }

    #[test]
    fn unreachable_nodes_are_excluded() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        let dom = DomTree::iterative(&g, 0.into());
        assert!(!dom.is_reachable(2.into()));
        assert_eq!(dom.idom(2.into()), None);
        assert!(!dom.dominates(0.into(), 2.into()));
        assert_eq!(dom.preorder().count(), 2);
    }

    #[test]
    fn loop_postdominators_via_reversal() {
        // 0 -> 1 -> 2 -> 1, 1 -> 3 (exit): postdominators computed on the
        // reverse graph rooted at 3.
        let mut g = DiGraph::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (2, 1), (1, 3)] {
            g.add_edge(a.into(), b.into());
        }
        let pdom = DomTree::iterative(&g.reversed(), 3.into());
        assert_eq!(pdom.idom(0.into()), Some(1.into()));
        assert_eq!(pdom.idom(2.into()), Some(1.into()));
        assert_eq!(pdom.idom(1.into()), Some(3.into()));
        assert!(pdom.dominates(3.into(), 0.into()));
    }

    #[test]
    fn preorder_parents_first() {
        let g = chk_graph();
        let dom = DomTree::iterative(&g, 0.into());
        let order: Vec<_> = dom.preorder().collect();
        assert_eq!(order[0], NodeId::new(0));
        for &n in &order {
            if let Some(d) = dom.idom(n) {
                let pi = order.iter().position(|&x| x == d).unwrap();
                let ni = order.iter().position(|&x| x == n).unwrap();
                assert!(pi < ni, "parent {d:?} must precede child {n:?}");
            }
        }
    }

    /// The frontiers against their definition on hand-made shapes: a
    /// diamond, a loop whose header is in its own frontier, a back edge
    /// into the root, and an unreachable predecessor.
    #[test]
    fn frontiers_match_their_definition() {
        let shapes = [
            graph_of(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]),
            graph_of(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]),
            graph_of(3, &[(0, 1), (1, 2), (2, 0)]),
            graph_of(3, &[(0, 1), (2, 1)]),
            chk_graph(),
        ];
        for g in &shapes {
            let dom = DomTree::iterative(g, 0.into());
            let df = dom.frontiers(g);
            for d in g.nodes() {
                let mut got = df.of(d).to_vec();
                got.sort();
                let want: Vec<NodeId> = g
                    .nodes()
                    .filter(|&n| dom.is_reachable(n) && dom.is_reachable(d))
                    .filter(|&n| {
                        g.preds(n).iter().any(|&p| dom.dominates(d, p))
                            && !dom.strictly_dominates(d, n)
                    })
                    .collect();
                assert_eq!(got, want, "DF({d:?})");
            }
        }
    }

    /// A node with a hundred thousand predecessors on one dominator chain
    /// (the exit of a deep `if` nest) takes one climb, not one per
    /// predecessor.
    #[test]
    fn a_deep_chain_of_joins_builds_in_linear_time() {
        const DEPTH: usize = 100_000;
        let exit = DEPTH + 1;
        let mut g = DiGraph::with_nodes(DEPTH + 2);
        for i in 0..DEPTH {
            g.add_edge(i.into(), (i + 1).into());
            g.add_edge(i.into(), exit.into());
        }
        g.add_edge(DEPTH.into(), exit.into());
        let started = std::time::Instant::now();
        let dom = DomTree::iterative(&g, 0.into());
        let df = dom.frontiers(&g);
        assert!(started.elapsed() < std::time::Duration::from_secs(1));
        assert_eq!(dom.idom(exit.into()), Some(0.into()));
        assert_eq!(dom.depth(DEPTH.into()), DEPTH as u32);
        assert_eq!(df.of((DEPTH / 2).into()), &[NodeId::new(exit)]);
    }

    fn graph_of(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        let mut g = DiGraph::with_nodes(n);
        for &(a, b) in edges {
            g.add_edge(a.into(), b.into());
        }
        g
    }

    /// The iterative construction against the definition, on hand-picked
    /// shapes: two loop nests, the 13-node example of Lengauer and Tarjan's
    /// paper, a cross edge that defeats semidominator shortcuts, and a
    /// predecessor unreachable from the root.
    #[test]
    fn iterative_matches_brute_force_on_fixtures() {
        let names = "RABCDEFGHIJKL";
        let lt_paper: Vec<(usize, usize)> = [
            "RA", "RB", "RC", "AD", "BA", "BD", "BE", "CF", "CG", "DL", "EH", "FI", "GI", "GJ",
            "HE", "HK", "IK", "JI", "KI", "KR", "LH",
        ]
        .iter()
        .map(|e| {
            let mut c = e.chars().map(|c| names.find(c).unwrap());
            (c.next().unwrap(), c.next().unwrap())
        })
        .collect();
        let fixtures = [
            chk_graph(),
            graph_of(
                8,
                &[
                    (0, 1),
                    (1, 2),
                    (1, 3),
                    (2, 7),
                    (3, 4),
                    (4, 5),
                    (4, 6),
                    (5, 7),
                    (6, 4),
                    (7, 1),
                ],
            ),
            graph_of(13, &lt_paper),
            graph_of(5, &[(0, 1), (0, 3), (1, 2), (2, 3), (2, 4), (3, 4), (4, 2)]),
            graph_of(4, &[(0, 1), (3, 1), (1, 2)]),
        ];
        for g in &fixtures {
            let dom = DomTree::iterative(g, 0.into());
            let brute = crate::dominators_brute_force(g, 0.into());
            for n in g.nodes() {
                assert_eq!(dom.idom(n), brute[n.index()], "idom mismatch at {n:?}");
            }
        }
        // Published answers for the paper's example: idom(K) = idom(I) =
        // idom(H) = R. The unreachable node has no immediate dominator.
        let dom = DomTree::iterative(&fixtures[2], 0.into());
        for c in ['K', 'I', 'H'] {
            assert_eq!(dom.idom(names.find(c).unwrap().into()), Some(0.into()));
        }
        let dom = DomTree::iterative(&fixtures[4], 0.into());
        assert_eq!(dom.idom(3.into()), None);
        assert_eq!(dom.idom(2.into()), Some(1.into()));
    }
}
