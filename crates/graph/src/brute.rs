//! Brute-force dominators, straight from the definition.
//!
//! Quadratic-to-cubic; exists purely as a reference oracle for the property
//! tests. `d` dominates `n` iff `n` is unreachable
//! from the root once `d` is removed from the graph.

use crate::{reachable_from, DiGraph, NodeId};

/// Computes immediate dominators by the textbook definition.
///
/// Returns `idom[n]`: `None` for the root and for nodes unreachable from
/// `root`, otherwise the unique closest strict dominator.
///
/// # Examples
///
/// ```
/// use jumpslice_graph::{DiGraph, dominators_brute_force};
/// let mut g = DiGraph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 2.into());
/// let idoms = dominators_brute_force(&g, 0.into());
/// assert_eq!(idoms[2], Some(1.into()));
/// ```
pub fn dominators_brute_force(g: &DiGraph, root: NodeId) -> Vec<Option<NodeId>> {
    let n = g.len();
    let reach = reachable_from(g, root);

    // dom_sets[v] = set of nodes dominating v (as bool masks).
    let mut dom_sets: Vec<Vec<bool>> = Vec::with_capacity(n);
    for v in 0..n {
        if !reach[v] {
            dom_sets.push(vec![false; n]);
            continue;
        }
        // Nodes reachable from root with v deleted.
        let reach_without_v = reachable_avoiding(g, root, NodeId::new(v));
        let mut doms = vec![false; n];
        for (d, item) in doms.iter_mut().enumerate() {
            // d dominates v iff v can't be reached when d is removed.
            // (v dominates itself trivially.)
            *item = d == v || (reach[d] && !reachable_avoiding(g, root, NodeId::new(d))[v]);
        }
        let _ = reach_without_v;
        dom_sets.push(doms);
    }

    let mut idom = vec![None; n];
    for v in 0..n {
        if !reach[v] || v == root.index() {
            continue;
        }
        // The immediate dominator is the strict dominator dominated by every
        // other strict dominator.
        let strict: Vec<usize> = (0..n).filter(|&d| d != v && dom_sets[v][d]).collect();
        let best = strict
            .iter()
            .copied()
            .find(|&d| strict.iter().all(|&e| dom_sets[d][e] || e == d));
        idom[v] = best.map(NodeId::new);
    }
    idom
}

/// Reachability from `root` in the graph with node `avoid` deleted.
fn reachable_avoiding(g: &DiGraph, root: NodeId, avoid: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.len()];
    if root == avoid {
        return seen;
    }
    let mut stack = vec![root];
    seen[root.index()] = true;
    while let Some(x) = stack.pop() {
        for &m in g.succs(x) {
            if m != avoid && !seen[m.index()] {
                seen[m.index()] = true;
                stack.push(m);
            }
        }
    }
    seen
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DomTree;
    use jumpslice_testkit::Rng;

    #[test]
    fn diamond() {
        let mut g = DiGraph::with_nodes(4);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(a.into(), b.into());
        }
        let idoms = dominators_brute_force(&g, 0.into());
        assert_eq!(
            idoms,
            vec![None, Some(0.into()), Some(0.into()), Some(0.into())]
        );
    }

    #[test]
    fn unreachable_has_no_idom() {
        let g = DiGraph::with_nodes(2);
        let idoms = dominators_brute_force(&g, 0.into());
        assert_eq!(idoms, vec![None, None]);
    }

    /// Random graph with `2..max_n` nodes: node 0 is the root, a spine
    /// `0 -> 1 -> ...` keeps most nodes reachable (so the tests are not
    /// vacuous), and every node gets 0..=3 extra random successors.
    fn arb_graph(rng: &mut Rng, max_n: usize) -> DiGraph {
        let n = rng.gen_range(2..max_n);
        let mut g = DiGraph::with_nodes(n);
        for i in 0..n - 1 {
            g.add_edge(i.into(), (i + 1).into());
        }
        for i in 0..n {
            for _ in 0..rng.gen_range(0..4usize) {
                g.add_edge(i.into(), rng.gen_range(0..n).into());
            }
        }
        g
    }

    #[test]
    fn iterative_matches_brute_force() {
        jumpslice_testkit::check(64, |rng| {
            let g = arb_graph(rng, 16);
            let fast = DomTree::iterative(&g, 0.into());
            let brute = dominators_brute_force(&g, 0.into());
            for v in g.nodes() {
                assert_eq!(fast.idom(v), brute[v.index()]);
            }
        });
    }

    #[test]
    fn postdominators_match_brute_force_on_reversal() {
        jumpslice_testkit::check(64, |rng| {
            let g = arb_graph(rng, 12);
            // Postdominators = dominators of the reversal rooted at the last
            // node (the spine guarantees it's reachable from everything...
            // in the reversal: everything reaches it in the forward graph).
            let r = g.reversed();
            let root = NodeId::new(g.len() - 1);
            let fast = DomTree::iterative(&r, root);
            let brute = dominators_brute_force(&r, root);
            for v in g.nodes() {
                assert_eq!(fast.idom(v), brute[v.index()]);
            }
        });
    }
}
