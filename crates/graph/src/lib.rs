//! Generic directed-graph toolkit for the `jumpslice` project.
//!
//! This crate provides the graph substrate that every analysis in the
//! workspace is built on: a compact adjacency-list [`DiGraph`], depth-first
//! traversal orders, reachability, Tarjan strongly-connected components, and
//! the iterative Cooper–Harvey–Kennedy dominator-tree construction, held to
//! a brute-force reference by the tests. Postdominator trees — the
//! structure at the heart of Agrawal's PLDI'94 slicing algorithm — are
//! obtained by running it on the [reverse graph](DiGraph::reversed).
//!
//! # Examples
//!
//! ```
//! use jumpslice_graph::{DiGraph, DomTree};
//!
//! // A diamond: 0 -> {1, 2} -> 3
//! let mut g = DiGraph::with_nodes(4);
//! g.add_edge(0.into(), 1.into());
//! g.add_edge(0.into(), 2.into());
//! g.add_edge(1.into(), 3.into());
//! g.add_edge(2.into(), 3.into());
//!
//! let dom = DomTree::iterative(&g, 0.into());
//! assert_eq!(dom.idom(3.into()), Some(0.into()));
//! assert!(dom.dominates(0.into(), 3.into()));
//! assert!(!dom.dominates(1.into(), 3.into()));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod brute;
mod digraph;
mod dom;
mod scc;
mod traversal;

pub use brute::dominators_brute_force;
pub use digraph::{DiGraph, NodeId};
pub use dom::{DomTree, Frontiers};
pub use scc::{tarjan_scc, Sccs};
pub use traversal::{dfs_postorder, dfs_preorder, reachable_from, reverse_postorder};
