//! Tarjan strongly-connected components.
//!
//! Used by the PDG's condensation, which every backward dependence closure
//! walks.

use crate::NodeId;

/// Computes strongly-connected components with Tarjan's algorithm over the
/// nodes `0..n`, reading each node's successors from `succs`. A successor
/// listed twice is harmless.
///
/// Returns the components in reverse topological order (callees/loop bodies
/// first), each component listing its member nodes in ascending order, all
/// in one flat [`Sccs`]. Singleton components without a self-loop are
/// trivial.
///
/// # Examples
///
/// ```
/// use jumpslice_graph::{DiGraph, tarjan_scc};
/// let mut g = DiGraph::with_nodes(3);
/// g.add_edge(0.into(), 1.into());
/// g.add_edge(1.into(), 0.into());
/// g.add_edge(1.into(), 2.into());
/// let sccs = tarjan_scc(g.len(), |v| g.succs(v).iter().copied());
/// assert_eq!(sccs.iter().count(), 2);
/// assert!(sccs.iter().any(|c| c.len() == 2));
/// ```
pub fn tarjan_scc<I>(n: usize, succs: impl Fn(NodeId) -> I) -> Sccs
where
    I: Iterator<Item = NodeId>,
{
    // A node's `index` is UNVISITED, its DFS number while it is on the
    // stack, then DONE once its component is emitted. DONE exceeds every
    // DFS number, so an edge into a finished component never lowers a
    // lowlink and needs no on-stack test.
    const UNVISITED: u32 = u32::MAX;
    const DONE: u32 = u32::MAX - 1;
    let mut index = vec![UNVISITED; n];
    let mut lowlink = vec![0u32; n];
    let mut stack: Vec<NodeId> = Vec::new();
    let mut members = Vec::with_capacity(n);
    let mut start = vec![0];
    let mut counter = 0u32;

    // Iterative Tarjan: frames carry (node, its remaining successors).
    let mut call: Vec<(NodeId, I)> = Vec::new();
    for root in (0..n).map(NodeId::new) {
        if index[root.index()] != UNVISITED {
            continue;
        }
        let mut open = Some(root);
        loop {
            if let Some(v) = open.take() {
                index[v.index()] = counter;
                lowlink[v.index()] = counter;
                counter += 1;
                stack.push(v);
                call.push((v, succs(v)));
            }
            let Some((v, rest)) = call.last_mut() else {
                break;
            };
            let v = *v;
            // Scan successors until one is unvisited; visited ones only
            // lower the node's lowlink.
            let mut low = lowlink[v.index()];
            for w in rest.by_ref() {
                if index[w.index()] == UNVISITED {
                    open = Some(w);
                    break;
                }
                low = low.min(index[w.index()]);
            }
            lowlink[v.index()] = low;
            if open.is_some() {
                continue;
            }
            if low == index[v.index()] {
                let first = members.len();
                loop {
                    let w = stack.pop().expect("tarjan stack invariant");
                    index[w.index()] = DONE;
                    members.push(w);
                    if w == v {
                        break;
                    }
                }
                members[first..].sort_unstable();
                start.push(members.len());
            }
            call.pop();
            if let Some(&(p, _)) = call.last() {
                lowlink[p.index()] = lowlink[p.index()].min(low);
            }
        }
    }
    Sccs { members, start }
}

/// Strongly connected components, as [`tarjan_scc`] emits them: in
/// reverse topological order, each listing its members in ascending order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Sccs {
    /// Every node, component by component.
    pub members: Vec<NodeId>,
    /// Component `c` is `members[start[c]..start[c + 1]]`.
    pub start: Vec<usize>,
}

impl Sccs {
    /// The components in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &[NodeId]> {
        self.start.windows(2).map(|w| &self.members[w[0]..w[1]])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DiGraph;

    fn sccs_of(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<NodeId>> {
        let mut g = DiGraph::with_nodes(n);
        for &(a, b) in edges {
            g.add_edge(a.into(), b.into());
        }
        let sccs = tarjan_scc(g.len(), |v| g.succs(v).iter().copied());
        sccs.iter().map(<[NodeId]>::to_vec).collect()
    }

    #[test]
    fn dag_gives_singletons() {
        let sccs = sccs_of(4, &[(0, 1), (1, 2), (0, 3), (3, 2)]);
        assert_eq!(sccs.len(), 4);
        assert!(sccs.iter().all(|c| c.len() == 1));
    }

    #[test]
    fn single_cycle_is_one_component() {
        let sccs = sccs_of(3, &[(0, 1), (1, 2), (2, 0)]);
        assert_eq!(sccs.len(), 1);
        assert_eq!(sccs[0].len(), 3);
    }

    #[test]
    fn reverse_topological_order() {
        // 0 -> 1 <-> 2, 1 -> 3: components {0}, {1,2}, {3}; {3} must come
        // before {1,2}, which must come before {0}.
        let sccs = sccs_of(4, &[(0, 1), (1, 2), (2, 1), (1, 3)]);
        let pos = |v: usize| {
            sccs.iter()
                .position(|c| c.contains(&NodeId::new(v)))
                .unwrap()
        };
        assert!(pos(3) < pos(1));
        assert!(pos(1) < pos(0));
        assert_eq!(pos(1), pos(2));
    }

    #[test]
    fn repeated_successors_and_self_loops_are_harmless() {
        // Node 0 lists 1 twice (as a PDG node can list a statement as both
        // a data and a control dependence); 2 loops on itself.
        let succ: [&[usize]; 3] = [&[1, 1], &[0], &[2, 0]];
        let sccs = tarjan_scc(3, |v| succ[v.index()].iter().map(|&w| NodeId::new(w)));
        assert_eq!(
            sccs.iter().map(<[NodeId]>::to_vec).collect::<Vec<_>>(),
            vec![vec![NodeId::new(0), NodeId::new(1)], vec![NodeId::new(2)]]
        );
    }

    #[test]
    fn cross_edges_into_finished_components_do_not_merge_them() {
        // DFS from 0 finishes {1} first; the later cross edge 2 -> 1 must
        // leave it alone while 2 -> 0 closes the cycle {0, 2}.
        let sccs = sccs_of(3, &[(0, 1), (0, 2), (2, 1), (2, 0)]);
        assert_eq!(
            sccs,
            vec![vec![NodeId::new(1)], vec![NodeId::new(0), NodeId::new(2)]]
        );
    }

    #[test]
    fn disconnected_graph_covered() {
        let sccs = sccs_of(3, &[]);
        assert_eq!(sccs.len(), 3);
    }
}
