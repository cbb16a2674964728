//! Statement-level control-flow graphs for mini-C programs.
//!
//! Every statement of a [`Program`] becomes one flowgraph node (compound
//! statements are represented by their predicate, exactly as in the paper's
//! Figure 2-a / Figure 4-a), plus distinguished `Entry` and `Exit` nodes. An
//! `Entry -> Exit` edge is always present, which makes every top-level
//! statement control dependent on `Entry` — the paper's "dummy predicate
//! node, viz., node 0".
//!
//! The builder records, for every jump statement, the node that would execute
//! next *if the jump were deleted* (its fall-through). That is exactly the
//! augmentation edge Ball–Horwitz and Choi–Ferrante add, so
//! [`Cfg::augmented_graph`] is a one-liner over this data, and it is also the
//! "immediate lexical successor" seed the LST construction cross-checks.
//!
//! # Examples
//!
//! ```
//! use jumpslice_lang::parse;
//! use jumpslice_cfg::Cfg;
//!
//! let p = parse("read(x); while (x > 0) { x = x - 1; } write(x);")?;
//! let cfg = Cfg::build(&p);
//! let w = cfg.node(p.at_line(2));
//! // The while-predicate has two successors: the body and the write.
//! assert_eq!(cfg.graph().succs(w).len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dot;

pub use dot::cfg_dot;

use jumpslice_graph::{reachable_from, DiGraph, DomTree, NodeId};
use jumpslice_lang::{Program, StmtId, StmtKind};

/// What a flowgraph node stands for.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CfgNode {
    /// The unique entry node.
    Entry,
    /// The unique exit node.
    Exit,
    /// A program statement (compound statements are their predicates).
    Stmt(StmtId),
}

/// A control-flow graph over the statements of one [`Program`].
#[derive(Clone, Debug)]
pub struct Cfg {
    graph: DiGraph,
    entry: NodeId,
    exit: NodeId,
    /// Fall-through node per jump node (`None` for non-jumps).
    fallthrough: Vec<Option<NodeId>>,
    num_stmts: usize,
    /// Per node: reachable from `Entry`. Derived when the graph is made;
    /// never persisted, like the verdict below.
    reachable: Vec<bool>,
    /// Whether every node reachable from `Entry` reaches `Exit`.
    all_reach_exit: bool,
}

impl Cfg {
    /// Builds the flowgraph of `prog`.
    ///
    /// Node layout: node 0 is `Entry`, node 1 is `Exit`, and statement `s`
    /// maps to node `s.index() + 2`.
    pub fn build(prog: &Program) -> Cfg {
        Builder::new(prog).build()
    }

    /// Reassembles a flowgraph from persisted parts, for codecs restoring
    /// an analysis without re-running [`Cfg::build`]. The node layout is
    /// fixed (entry 0, exit 1, statement `s` at `s.index() + 2`), so a
    /// graph over `num_stmts + 2` nodes plus the per-node fall-through
    /// array is the whole state. Returns `None` when the shapes disagree —
    /// wrong node count, fall-through array of a different graph, or a
    /// fall-through target out of bounds. Edge-level fidelity to any
    /// particular program is the caller's integrity check, not this one.
    pub fn from_parts(
        num_stmts: usize,
        graph: DiGraph,
        fallthrough: Vec<Option<NodeId>>,
    ) -> Option<Cfg> {
        if num_stmts.checked_add(2)? != graph.len() || fallthrough.len() != graph.len() {
            return None;
        }
        if fallthrough
            .iter()
            .flatten()
            .any(|t| t.index() >= graph.len())
        {
            return None;
        }
        Some(Cfg::new(graph, fallthrough, num_stmts))
    }

    /// Assembles a flowgraph over the fixed node layout and records its
    /// reachability facts: one forward pass from `Entry` over successor
    /// lists, and one backward pass from `Exit` over predecessor lists.
    fn new(graph: DiGraph, fallthrough: Vec<Option<NodeId>>, num_stmts: usize) -> Cfg {
        let (entry, exit) = (NodeId::new(0), NodeId::new(1));
        let reachable = reachable_from(&graph, entry);
        let mut reaches_exit = vec![false; graph.len()];
        reaches_exit[exit.index()] = true;
        let mut stack = vec![exit];
        while let Some(n) = stack.pop() {
            for &p in graph.preds(n) {
                if !std::mem::replace(&mut reaches_exit[p.index()], true) {
                    stack.push(p);
                }
            }
        }
        let all_reach_exit = reachable.iter().zip(&reaches_exit).all(|(&r, &e)| !r || e);
        Cfg {
            graph,
            entry,
            exit,
            fallthrough,
            num_stmts,
            reachable,
            all_reach_exit,
        }
    }

    /// The underlying directed graph.
    pub fn graph(&self) -> &DiGraph {
        &self.graph
    }

    /// The entry node.
    pub fn entry(&self) -> NodeId {
        self.entry
    }

    /// The exit node.
    pub fn exit(&self) -> NodeId {
        self.exit
    }

    /// Number of statements covered by this graph.
    pub fn num_stmts(&self) -> usize {
        self.num_stmts
    }

    /// The flowgraph node of a statement.
    pub fn node(&self, s: StmtId) -> NodeId {
        NodeId::new(s.index() + 2)
    }

    /// What a node stands for.
    pub fn node_kind(&self, n: NodeId) -> CfgNode {
        match n.index() {
            0 => CfgNode::Entry,
            1 => CfgNode::Exit,
            i => CfgNode::Stmt(StmtId::from_index(i - 2)),
        }
    }

    /// The statement behind a node, if it is a statement node.
    pub fn stmt(&self, n: NodeId) -> Option<StmtId> {
        match self.node_kind(n) {
            CfgNode::Stmt(s) => Some(s),
            _ => None,
        }
    }

    /// The fall-through node of a jump node: where control would go if the
    /// jump were deleted. `None` for non-jump nodes.
    ///
    /// For a fused conditional goto this coincides with its false-edge
    /// successor.
    pub fn fallthrough(&self, n: NodeId) -> Option<NodeId> {
        self.fallthrough[n.index()]
    }

    /// The (true, false) successors of a two-way predicate node (`if`,
    /// `while`, `do-while`, fused conditional goto), relying on the
    /// builder's edge-insertion order: the taken/true edge is always added
    /// first. Returns `None` for non-predicates and for `switch`. When both
    /// arms reach the same node (the edge was deduplicated), both elements
    /// are that node.
    pub fn branch_succs(&self, prog: &Program, n: NodeId) -> Option<(NodeId, NodeId)> {
        let s = self.stmt(n)?;
        match &prog.stmt(s).kind {
            StmtKind::If { .. }
            | StmtKind::While { .. }
            | StmtKind::DoWhile { .. }
            | StmtKind::CondGoto { .. } => match self.graph.succs(n) {
                [only] => Some((*only, *only)),
                [t, f] => Some((*t, *f)),
                _ => None,
            },
            _ => None,
        }
    }

    /// The postdominator tree: the dominator tree of the reversed graph
    /// rooted at `Exit` (paper, §3).
    pub fn postdominators(&self) -> DomTree {
        DomTree::iterative(&self.graph.reversed(), self.exit)
    }

    /// The Ball–Horwitz / Choi–Ferrante *augmented* flowgraph: every
    /// unconditional jump gets an additional (never-executed) edge to its
    /// fall-through node, turning it into a pseudo-predicate.
    ///
    /// The baseline slicer computes control dependence from this graph while
    /// keeping data dependence on the unaugmented one.
    pub fn augmented_graph(&self) -> DiGraph {
        let mut g = self.graph.clone();
        for n in self.graph.nodes() {
            if let (Some(ft), Some(s)) = (self.fallthrough[n.index()], self.stmt(n)) {
                let _ = s;
                g.add_edge(n, ft);
            }
        }
        g
    }

    /// Whether every node reachable from `Entry` can reach `Exit` (no
    /// genuinely infinite loops). The slicing algorithms require this; the
    /// program generator guarantees it. Recorded when the graph is made.
    pub fn all_reach_exit(&self) -> bool {
        self.all_reach_exit
    }

    /// Per node, by index: whether it is reachable from `Entry`. Recorded
    /// when the graph is made.
    pub fn reachable(&self) -> &[bool] {
        &self.reachable
    }
}

struct Builder<'p> {
    prog: &'p Program,
    graph: DiGraph,
    entry: NodeId,
    exit: NodeId,
    fallthrough: Vec<Option<NodeId>>,
}

#[derive(Clone, Copy)]
struct JumpCtx {
    break_to: Option<NodeId>,
    continue_to: Option<NodeId>,
}

impl<'p> Builder<'p> {
    fn new(prog: &'p Program) -> Self {
        let n = prog.len() + 2;
        let graph = DiGraph::with_nodes(n);
        Builder {
            prog,
            graph,
            entry: NodeId::new(0),
            exit: NodeId::new(1),
            fallthrough: vec![None; n],
        }
    }

    fn node(&self, s: StmtId) -> NodeId {
        NodeId::new(s.index() + 2)
    }

    /// The node where execution of `s` begins: the statement's own node,
    /// except for `do-while`, whose body runs before its predicate.
    fn first_node(&self, s: StmtId) -> NodeId {
        match &self.prog.stmt(s).kind {
            StmtKind::DoWhile { body, .. } => match body.first() {
                Some(&f) => self.first_node(f),
                None => self.node(s),
            },
            _ => self.node(s),
        }
    }

    fn label_entry(&self, l: jumpslice_lang::Label) -> NodeId {
        let target = self
            .prog
            .label_target(l)
            .expect("validated programs have resolved labels");
        self.first_node(target)
    }

    fn build(mut self) -> Cfg {
        // The dummy-predicate edge: every top-level statement becomes
        // control dependent on Entry.
        self.graph.add_edge(self.entry, self.exit);
        let ctx = JumpCtx {
            break_to: None,
            continue_to: None,
        };
        let body = self.prog.body().to_vec();
        let first = self.wire_block(&body, self.exit, ctx);
        self.graph.add_edge(self.entry, first);
        Cfg::new(self.graph, self.fallthrough, self.prog.len())
    }

    /// Wires a statement list whose normal continuation is `follow`; returns
    /// the block's entry node.
    fn wire_block(&mut self, block: &[StmtId], follow: NodeId, ctx: JumpCtx) -> NodeId {
        let mut next = follow;
        for &s in block.iter().rev() {
            self.wire_stmt(s, next, ctx);
            next = self.first_node(s);
        }
        next
    }

    fn wire_stmt(&mut self, s: StmtId, follow: NodeId, ctx: JumpCtx) {
        let n = self.node(s);
        match &self.prog.stmt(s).kind.clone() {
            StmtKind::Assign { .. }
            | StmtKind::Read { .. }
            | StmtKind::Write { .. }
            | StmtKind::Skip => {
                self.graph.add_edge(n, follow);
            }
            StmtKind::Goto { target } => {
                self.graph.add_edge(n, self.label_entry(*target));
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::CondGoto { target, .. } => {
                self.graph.add_edge(n, self.label_entry(*target));
                self.graph.add_edge(n, follow);
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::Break => {
                let to = ctx.break_to.expect("validated: break inside breakable");
                self.graph.add_edge(n, to);
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::Continue => {
                let to = ctx.continue_to.expect("validated: continue inside loop");
                self.graph.add_edge(n, to);
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::Return { .. } => {
                self.graph.add_edge(n, self.exit);
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let t = self.wire_block(then_branch, follow, ctx);
                let e = self.wire_block(else_branch, follow, ctx);
                self.graph.add_edge(n, t);
                self.graph.add_edge(n, e);
            }
            StmtKind::While { body, .. } => {
                let inner = JumpCtx {
                    break_to: Some(follow),
                    continue_to: Some(n),
                };
                let b = self.wire_block(body, n, inner);
                self.graph.add_edge(n, b);
                self.graph.add_edge(n, follow);
            }
            StmtKind::DoWhile { body, .. } => {
                let inner = JumpCtx {
                    break_to: Some(follow),
                    continue_to: Some(n),
                };
                let b = self.wire_block(body, n, inner);
                // Predicate true -> loop back to the body entry; false ->
                // fall out.
                self.graph.add_edge(n, b);
                self.graph.add_edge(n, follow);
            }
            StmtKind::Switch { arms, .. } => {
                let inner = JumpCtx {
                    break_to: Some(follow),
                    continue_to: ctx.continue_to,
                };
                // Wire arms back-to-front so each arm knows its fall-through
                // continuation (C semantics: run into the next arm's body).
                let mut entries = vec![follow; arms.len() + 1];
                for (i, arm) in arms.iter().enumerate().rev() {
                    entries[i] = self.wire_block(&arm.body, entries[i + 1], inner);
                }
                let mut has_default = false;
                for (i, arm) in arms.iter().enumerate() {
                    self.graph.add_edge(n, entries[i]);
                    if arm.guards.contains(&jumpslice_lang::CaseGuard::Default) {
                        has_default = true;
                    }
                }
                if !has_default {
                    self.graph.add_edge(n, follow);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    fn n(cfg: &Cfg, p: &Program, line: usize) -> NodeId {
        cfg.node(p.at_line(line))
    }

    #[test]
    fn from_parts_round_trips_a_built_graph() {
        let p = parse("L: read(x); while (x) { if (x > 1) break; goto L; } write(x);").unwrap();
        let built = Cfg::build(&p);
        let fallthrough: Vec<_> = (0..built.graph().len())
            .map(|i| built.fallthrough(NodeId::new(i)))
            .collect();
        let back = Cfg::from_parts(p.len(), built.graph().clone(), fallthrough.clone())
            .expect("a built graph's own parts are valid");
        assert_eq!(back.entry(), built.entry());
        assert_eq!(back.exit(), built.exit());
        assert_eq!(back.num_stmts(), built.num_stmts());
        assert_eq!(back.reachable(), built.reachable());
        assert_eq!(back.all_reach_exit(), built.all_reach_exit());
        for node in built.graph().nodes() {
            assert_eq!(back.graph().succs(node), built.graph().succs(node));
            assert_eq!(back.fallthrough(node), built.fallthrough(node));
        }

        // Shape lies are rejected: wrong statement count, short or
        // out-of-bounds fall-through.
        assert!(Cfg::from_parts(p.len() + 1, built.graph().clone(), fallthrough.clone()).is_none());
        assert!(
            Cfg::from_parts(p.len(), built.graph().clone(), fallthrough[1..].to_vec()).is_none()
        );
        let mut bad = fallthrough;
        bad[0] = Some(NodeId::new(built.graph().len()));
        assert!(Cfg::from_parts(p.len(), built.graph().clone(), bad).is_none());
    }

    #[test]
    fn straight_line_chain() {
        let p = parse("a = 1; b = 2; write(b);").unwrap();
        let cfg = Cfg::build(&p);
        assert!(cfg.graph().has_edge(cfg.entry(), n(&cfg, &p, 1)));
        assert!(cfg.graph().has_edge(n(&cfg, &p, 1), n(&cfg, &p, 2)));
        assert!(cfg.graph().has_edge(n(&cfg, &p, 3), cfg.exit()));
        assert!(cfg.graph().has_edge(cfg.entry(), cfg.exit()));
        assert!(cfg.all_reach_exit());
    }

    #[test]
    fn if_else_diamond() {
        let p = parse("if (c) { a = 1; } else { a = 2; } write(a);").unwrap();
        let cfg = Cfg::build(&p);
        let ifn = n(&cfg, &p, 1);
        assert_eq!(cfg.graph().succs(ifn).len(), 2);
        assert!(cfg.graph().has_edge(n(&cfg, &p, 2), n(&cfg, &p, 4)));
        assert!(cfg.graph().has_edge(n(&cfg, &p, 3), n(&cfg, &p, 4)));
    }

    #[test]
    fn if_without_else_falls_through() {
        let p = parse("if (c) { a = 1; } write(a);").unwrap();
        let cfg = Cfg::build(&p);
        let ifn = n(&cfg, &p, 1);
        assert!(cfg.graph().has_edge(ifn, n(&cfg, &p, 2)));
        assert!(cfg.graph().has_edge(ifn, n(&cfg, &p, 3)));
    }

    #[test]
    fn while_loop_shape() {
        let p = parse("while (c) { a = 1; } write(a);").unwrap();
        let cfg = Cfg::build(&p);
        let w = n(&cfg, &p, 1);
        let body = n(&cfg, &p, 2);
        assert!(cfg.graph().has_edge(w, body));
        assert!(cfg.graph().has_edge(w, n(&cfg, &p, 3)));
        assert!(
            cfg.graph().has_edge(body, w),
            "body loops back to predicate"
        );
    }

    #[test]
    fn do_while_enters_body_first() {
        let p = parse("do { a = 1; } while (c); write(a);").unwrap();
        let cfg = Cfg::build(&p);
        let dw = n(&cfg, &p, 1);
        let body = n(&cfg, &p, 2);
        assert!(
            cfg.graph().has_edge(cfg.entry(), body),
            "entry goes to body"
        );
        assert!(cfg.graph().has_edge(body, dw));
        assert!(cfg.graph().has_edge(dw, body));
        assert!(cfg.graph().has_edge(dw, n(&cfg, &p, 3)));
    }

    #[test]
    fn break_and_continue_edges() {
        let p = parse("while (c) { if (a) break; if (b) continue; x = 1; } write(x);").unwrap();
        let cfg = Cfg::build(&p);
        let w = n(&cfg, &p, 1);
        let brk = n(&cfg, &p, 3);
        let cont = n(&cfg, &p, 5);
        let after = n(&cfg, &p, 7);
        assert!(cfg.graph().has_edge(brk, after));
        assert!(cfg.graph().has_edge(cont, w));
        // Fall-throughs: break's is the statement after the if; continue's
        // is x = 1.
        assert_eq!(cfg.fallthrough(brk), Some(n(&cfg, &p, 4)));
        assert_eq!(cfg.fallthrough(cont), Some(n(&cfg, &p, 6)));
    }

    #[test]
    fn goto_and_cond_goto_edges() {
        let p = parse("L3: if (eof()) goto L14; x = 1; goto L3; L14: write(x);").unwrap();
        let cfg = Cfg::build(&p);
        let cj = n(&cfg, &p, 1);
        let asn = n(&cfg, &p, 2);
        let gt = n(&cfg, &p, 3);
        let wr = n(&cfg, &p, 4);
        assert!(cfg.graph().has_edge(cj, wr), "true edge to L14");
        assert!(cfg.graph().has_edge(cj, asn), "false edge falls through");
        assert!(cfg.graph().has_edge(gt, cj), "goto back to L3");
        assert_eq!(cfg.fallthrough(gt), Some(wr));
        assert_eq!(cfg.fallthrough(cj), Some(asn));
    }

    #[test]
    fn return_goes_to_exit() {
        let p = parse("if (c) return; write(x);").unwrap();
        let cfg = Cfg::build(&p);
        let ret = n(&cfg, &p, 2);
        assert!(cfg.graph().has_edge(ret, cfg.exit()));
        assert_eq!(cfg.fallthrough(ret), Some(n(&cfg, &p, 3)));
    }

    #[test]
    fn switch_fallthrough_and_default() {
        let p =
            parse("switch (c) { case 1: a = 1; case 2: b = 2; break; default: d = 3; } write(a);")
                .unwrap();
        let cfg = Cfg::build(&p);
        let sw = n(&cfg, &p, 1);
        let a1 = n(&cfg, &p, 2);
        let b2 = n(&cfg, &p, 3);
        let brk = n(&cfg, &p, 4);
        let d3 = n(&cfg, &p, 5);
        let wr = n(&cfg, &p, 6);
        assert!(cfg.graph().has_edge(sw, a1));
        assert!(cfg.graph().has_edge(sw, b2));
        assert!(cfg.graph().has_edge(sw, d3));
        // default exists: no direct switch -> follow edge
        assert!(!cfg.graph().has_edge(sw, wr));
        assert!(
            cfg.graph().has_edge(a1, b2),
            "case 1 falls through to case 2"
        );
        assert!(cfg.graph().has_edge(brk, wr));
        assert!(cfg.graph().has_edge(d3, wr));
    }

    #[test]
    fn switch_without_default_can_skip() {
        let p = parse("switch (c) { case 1: a = 1; } write(a);").unwrap();
        let cfg = Cfg::build(&p);
        assert!(cfg.graph().has_edge(n(&cfg, &p, 1), n(&cfg, &p, 3)));
    }

    #[test]
    fn postdominators_of_diamond() {
        let p = parse("if (c) { a = 1; } else { a = 2; } write(a);").unwrap();
        let cfg = Cfg::build(&p);
        let pdom = cfg.postdominators();
        let wr = n(&cfg, &p, 4);
        assert_eq!(pdom.idom(n(&cfg, &p, 1)), Some(wr));
        assert_eq!(pdom.idom(wr), Some(cfg.exit()));
    }

    #[test]
    fn augmented_graph_adds_jump_fallthrough_edges() {
        let p = parse("L: x = 1; goto L; write(x);").unwrap();
        let cfg = Cfg::build(&p);
        let gt = n(&cfg, &p, 2);
        let wr = n(&cfg, &p, 3);
        assert!(!cfg.graph().has_edge(gt, wr));
        let aug = cfg.augmented_graph();
        assert!(aug.has_edge(gt, wr));
        // Original stays intact (the point of the paper's algorithm).
        assert!(!cfg.graph().has_edge(gt, wr));
    }

    #[test]
    fn infinite_loop_detected() {
        let p = parse("while (1) { x = 1; } write(x);").unwrap();
        let cfg = Cfg::build(&p);
        // The CFG still has a false edge for while(1) — constant conditions
        // are not folded — so everything reaches exit structurally.
        assert!(cfg.all_reach_exit());
        // But a self-looping goto genuinely cannot reach exit.
        let p2 = parse("L: goto L; write(x);").unwrap();
        let cfg2 = Cfg::build(&p2);
        assert!(!cfg2.all_reach_exit());
    }

    #[test]
    fn unreachable_code_after_return() {
        let p = parse("return; x = 1;").unwrap();
        let cfg = Cfg::build(&p);
        let reach = cfg.reachable();
        assert!(!reach[cfg.node(p.at_line(2)).index()]);
    }

    #[test]
    fn node_kind_roundtrip() {
        let p = parse("x = 1;").unwrap();
        let cfg = Cfg::build(&p);
        assert_eq!(cfg.node_kind(cfg.entry()), CfgNode::Entry);
        assert_eq!(cfg.node_kind(cfg.exit()), CfgNode::Exit);
        let s = p.at_line(1);
        assert_eq!(cfg.node_kind(cfg.node(s)), CfgNode::Stmt(s));
        assert_eq!(cfg.stmt(cfg.node(s)), Some(s));
        assert_eq!(cfg.stmt(cfg.entry()), None);
    }
}

#[cfg(test)]
mod branch_tests {
    use super::*;
    use jumpslice_lang::parse;

    #[test]
    fn branch_succs_polarity() {
        let p = parse(
            "if (a) { x = 1; } else { x = 2; }
             while (b) { y = 1; }
             L: if (c) goto L;
             write(x);",
        )
        .unwrap();
        let cfg = Cfg::build(&p);
        let n = |l: usize| cfg.node(p.at_line(l));
        // if: true -> then (x=1), false -> else (x=2).
        assert_eq!(cfg.branch_succs(&p, n(1)), Some((n(2), n(3))));
        // while: true -> body, false -> following statement.
        assert_eq!(cfg.branch_succs(&p, n(4)), Some((n(5), n(6))));
        // condgoto: true -> label target (itself), false -> fall-through.
        assert_eq!(cfg.branch_succs(&p, n(6)), Some((n(6), n(7))));
        // Non-predicates have no branch successors.
        assert_eq!(cfg.branch_succs(&p, n(2)), None);
    }

    #[test]
    fn branch_succs_deduped_edges() {
        // Both arms empty: the if has one successor serving both branches.
        let p = parse("if (a) { } write(x);").unwrap();
        let cfg = Cfg::build(&p);
        let n1 = cfg.node(p.at_line(1));
        let n2 = cfg.node(p.at_line(2));
        assert_eq!(cfg.branch_succs(&p, n1), Some((n2, n2)));
    }
}
