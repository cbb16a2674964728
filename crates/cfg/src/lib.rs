//! Statement-level control-flow graphs for mini-C programs.
//!
//! Every statement of a [`Program`] becomes one flowgraph node (compound
//! statements are represented by their predicate, exactly as in the paper's
//! Figure 2-a / Figure 4-a), plus distinguished `Entry` and `Exit` nodes. An
//! `Entry -> Exit` edge is always present, which makes every top-level
//! statement control dependent on `Entry` — the paper's "dummy predicate
//! node, viz., node 0".
//!
//! The graph is wired from the program's immediate lexical successors
//! ([`Structure::lexical_successors`](jumpslice_lang::Structure::lexical_successors)):
//! a statement's normal continuation is the node its lexical successor
//! hands control to. For a jump that node is its fall-through, where
//! control would go if the jump were deleted, which is exactly the edge
//! Ball–Horwitz and Choi–Ferrante add ([`Cfg::augmented_graph`]).
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
use jumpslice_lang::{CaseGuard, LexSucc, Program, StmtId, StmtKind};

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

/// A control-flow graph over the statements of one [`Program`]. Never
/// persisted: it is derived from the program wherever it is needed.
#[derive(Clone, Debug)]
pub struct Cfg {
    graph: DiGraph,
    entry: NodeId,
    exit: NodeId,
    num_stmts: usize,
    /// Per node: reachable from `Entry`. Derived when the graph is made,
    /// like the verdict below.
    reachable: Vec<bool>,
    /// Whether every node reachable from `Entry` reaches `Exit`.
    all_reach_exit: bool,
}

impl Cfg {
    /// Builds the flowgraph of `prog`: one loop over the statements in
    /// lexical order, each given its out-edges by its kind, then the graph
    /// assembled at once from the successor lists. The taken/true edge of
    /// a two-way predicate comes first, as [`Cfg::branch_succs`] relies on.
    ///
    /// Node layout: node 0 is `Entry`, node 1 is `Exit`, and statement `s`
    /// maps to node `s.index() + 2`.
    pub fn build(prog: &Program) -> Cfg {
        let Wiring { enter, cont } = Wiring::of(prog);
        let st = prog.structure();
        let exit = NodeId::new(1);
        // Where a block begins; an empty block falls to what follows it.
        let block_entry =
            |block: &[StmtId], follow: NodeId| block.first().map_or(follow, |f| enter[f.index()]);
        let mut succs = vec![Vec::new(); prog.len() + 2];
        // The dummy-predicate edge first: every top-level statement becomes
        // control dependent on Entry.
        push_new(&mut succs[0], exit);
        push_new(&mut succs[0], block_entry(prog.body(), exit));
        // The (break, continue) targets in effect at each statement, filled
        // parents first; validation put every break and continue inside
        // its construct, so the top level's placeholder is never read.
        let mut jump_to = vec![(exit, exit); prog.len()];
        for &s in prog.lexical_order() {
            let i = s.index();
            if let Some(p) = st.parent(s) {
                let j = p.index();
                jump_to[i] = match &prog.stmt(p).kind {
                    StmtKind::While { .. } | StmtKind::DoWhile { .. } => (cont[j], stmt_node(p)),
                    StmtKind::Switch { .. } => (cont[j], jump_to[j].1),
                    _ => jump_to[j],
                };
            }
            let label_entry = |l| {
                let target = prog
                    .label_target(l)
                    .expect("validated programs have resolved labels");
                enter[target.index()]
            };
            let out = &mut succs[i + 2];
            match &prog.stmt(s).kind {
                StmtKind::Assign { .. }
                | StmtKind::Read { .. }
                | StmtKind::Write { .. }
                | StmtKind::Skip => push_new(out, cont[i]),
                StmtKind::Goto { target } => push_new(out, label_entry(*target)),
                StmtKind::CondGoto { target, .. } => {
                    push_new(out, label_entry(*target));
                    push_new(out, cont[i]);
                }
                StmtKind::Break => push_new(out, jump_to[i].0),
                StmtKind::Continue => push_new(out, jump_to[i].1),
                StmtKind::Return { .. } => push_new(out, exit),
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    push_new(out, block_entry(then_branch, cont[i]));
                    push_new(out, block_entry(else_branch, cont[i]));
                }
                // Predicate true -> the body (a do-while loops back to its
                // body's entry); false -> fall out.
                StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                    push_new(out, block_entry(body, stmt_node(s)));
                    push_new(out, cont[i]);
                }
                StmtKind::Switch { arms, .. } => {
                    // An empty arm runs into the next one (C semantics), the
                    // last into what follows the switch.
                    let mut entries = vec![cont[i]; arms.len() + 1];
                    for (k, arm) in arms.iter().enumerate().rev() {
                        entries[k] = block_entry(&arm.body, entries[k + 1]);
                    }
                    for &e in &entries[..arms.len()] {
                        push_new(out, e);
                    }
                    if !arms.iter().any(|a| a.guards.contains(&CaseGuard::Default)) {
                        push_new(out, cont[i]);
                    }
                }
            }
        }
        let graph = DiGraph::from_succs(succs).expect("distinct in-bounds successors");
        Cfg::new(graph, prog.len())
    }

    /// Records a flowgraph's reachability facts over the fixed node layout:
    /// one forward pass from `Entry` over successor lists, and one backward
    /// pass from `Exit` over predecessor lists.
    fn new(graph: DiGraph, num_stmts: usize) -> Cfg {
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
        stmt_node(s)
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

    /// The Ball–Horwitz / Choi–Ferrante *augmented* flowgraph of `prog`
    /// (whose flowgraph this is): every jump gets an additional
    /// (never-executed) edge to its fall-through node, the continuation it
    /// would reach if deleted, turning it into a pseudo-predicate.
    ///
    /// The baseline slicer computes control dependence from this graph while
    /// keeping data dependence on the unaugmented one.
    pub fn augmented_graph(&self, prog: &Program) -> DiGraph {
        let cont = Wiring::of(prog).cont;
        let mut g = self.graph.clone();
        for s in prog.stmt_ids() {
            if prog.stmt(s).kind.is_jump() {
                g.add_edge(stmt_node(s), cont[s.index()]);
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

/// The flowgraph node of a statement in the fixed layout.
fn stmt_node(s: StmtId) -> NodeId {
    NodeId::new(s.index() + 2)
}

/// Appends `t` to a successor list unless it was just appended. A list's
/// repeats are always adjacent: the two arms of a branch, or a run of empty
/// switch arms falling into the same statement (and, past the last arm,
/// into the switch's continuation), so one comparison keeps a switch of
/// any width linear.
fn push_new(out: &mut Vec<NodeId>, t: NodeId) {
    if out.last() != Some(&t) {
        out.push(t);
    }
}

/// Where control goes around each statement, by arena index.
struct Wiring {
    /// The node where executing the statement begins: its own, except for
    /// a `do-while`, whose body runs before its predicate.
    enter: Vec<NodeId>,
    /// The node the statement's lexical successor hands control to: that
    /// successor's entry node, the predicate of the loop it returns to, or
    /// `Exit`. For a jump this is its fall-through.
    cont: Vec<NodeId>,
}

impl Wiring {
    fn of(prog: &Program) -> Wiring {
        let mut enter: Vec<NodeId> = prog.stmt_ids().map(stmt_node).collect();
        // Children first, so a do-while reads its body's settled entry.
        for &s in prog.lexical_order().iter().rev() {
            if let StmtKind::DoWhile { body, .. } = &prog.stmt(s).kind {
                if let Some(first) = body.first() {
                    enter[s.index()] = enter[first.index()];
                }
            }
        }
        let cont = prog
            .structure()
            .lexical_successors()
            .into_iter()
            .map(|succ| match succ {
                LexSucc::Enter(t) => enter[t.index()],
                LexSucc::Loop(l) => stmt_node(l),
                LexSucc::Exit => NodeId::new(1),
            })
            .collect();
        Wiring { enter, cont }
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
        let aug = cfg.augmented_graph(&p);
        assert_eq!(aug.succs(brk), &[after, n(&cfg, &p, 4)]);
        assert_eq!(aug.succs(cont), &[w, n(&cfg, &p, 6)]);
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
        // A conditional goto's fall-through is its false edge already.
        let aug = cfg.augmented_graph(&p);
        assert_eq!(aug.succs(gt), &[cj, wr]);
        assert_eq!(aug.succs(cj), cfg.graph().succs(cj));
    }

    #[test]
    fn return_goes_to_exit() {
        let p = parse("if (c) return; write(x);").unwrap();
        let cfg = Cfg::build(&p);
        let ret = n(&cfg, &p, 2);
        assert!(cfg.graph().has_edge(ret, cfg.exit()));
        let aug = cfg.augmented_graph(&p);
        assert_eq!(aug.succs(ret), &[cfg.exit(), n(&cfg, &p, 3)]);
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
        let aug = cfg.augmented_graph(&p);
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
