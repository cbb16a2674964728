//! One lexical-successor rule behind two structures. `Cfg::build` wires
//! every statement to its continuation in one flat loop, and
//! `LexSuccTree::build` reads the same per-statement successors; a
//! restore builds both from the decoded program. These tests
//! hold them to independent references — a recursive flowgraph builder
//! that threads each block's continuation down the block tree, and a
//! lexical-successor walk up the parent links — on the paper's figures,
//! both generator families, every kind of edit, a snapshot round trip and
//! hand-written edge cases. A builder-made nest far deeper than any parse
//! must build in linear time on a default test-thread stack, and print on
//! a small one. The factored data dependences of programs whose dominator
//! tree is 100,000 deep, or whose join has 50,000 predecessors, must build
//! and answer `vars_at` seeds the same way.

use jumpslice::cfg::Cfg;
use jumpslice::core::{decode_snapshot, encode_snapshot, AnalysisSeed, LexSuccTree};
use jumpslice::dataflow::DataDeps;
use jumpslice::graph::{DiGraph, NodeId};
use jumpslice::incr::random_edit;
use jumpslice::lang::{
    BinOp, CaseGuard, Expr, Label, Name, ProgramBuilder, Stmt, StmtKind, Structure,
};
use jumpslice::prelude::*;
use jumpslice_testkit::{check, Rng};
use std::time::{Duration, Instant};

/// The reference flowgraph: successor lists built edge by edge by a
/// recursive walk that passes each block its continuation (`follow`) and
/// the current `break`/`continue` targets, plus every jump's fall-through.
struct Reference {
    graph: DiGraph,
    fallthrough: Vec<Option<NodeId>>,
}

#[derive(Clone, Copy)]
struct JumpTargets {
    break_to: Option<NodeId>,
    continue_to: Option<NodeId>,
}

const ENTRY: usize = 0;
const EXIT: usize = 1;

fn node(s: StmtId) -> NodeId {
    NodeId::new(s.index() + 2)
}

impl Reference {
    fn of(p: &Program) -> Reference {
        let mut r = Reference {
            graph: DiGraph::with_nodes(p.len() + 2),
            fallthrough: vec![None; p.len() + 2],
        };
        let (entry, exit) = (NodeId::new(ENTRY), NodeId::new(EXIT));
        r.graph.add_edge(entry, exit);
        let top = JumpTargets {
            break_to: None,
            continue_to: None,
        };
        let first = r.block(p, p.body(), exit, top);
        r.graph.add_edge(entry, first);
        r
    }

    /// Where executing `s` begins: a do-while runs its body first.
    fn first_node(p: &Program, s: StmtId) -> NodeId {
        match &p.stmt(s).kind {
            StmtKind::DoWhile { body, .. } => match body.first() {
                Some(&f) => Self::first_node(p, f),
                None => node(s),
            },
            _ => node(s),
        }
    }

    fn label_entry(p: &Program, l: Label) -> NodeId {
        Self::first_node(p, p.label_target(l).expect("resolved label"))
    }

    /// Wires `block` to continue at `follow`; returns the block's entry.
    fn block(&mut self, p: &Program, block: &[StmtId], follow: NodeId, ctx: JumpTargets) -> NodeId {
        let mut next = follow;
        for &s in block.iter().rev() {
            self.stmt(p, s, next, ctx);
            next = Self::first_node(p, s);
        }
        next
    }

    fn stmt(&mut self, p: &Program, s: StmtId, follow: NodeId, ctx: JumpTargets) {
        let n = node(s);
        let exit = NodeId::new(EXIT);
        match &p.stmt(s).kind {
            StmtKind::Assign { .. }
            | StmtKind::Read { .. }
            | StmtKind::Write { .. }
            | StmtKind::Skip => self.graph.add_edge(n, follow),
            StmtKind::Goto { target } => {
                self.graph.add_edge(n, Self::label_entry(p, *target));
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::CondGoto { target, .. } => {
                self.graph.add_edge(n, Self::label_entry(p, *target));
                self.graph.add_edge(n, follow);
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::Break => {
                self.graph.add_edge(n, ctx.break_to.expect("break inside"));
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::Continue => {
                self.graph
                    .add_edge(n, ctx.continue_to.expect("continue inside"));
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::Return { .. } => {
                self.graph.add_edge(n, exit);
                self.fallthrough[n.index()] = Some(follow);
            }
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                let t = self.block(p, then_branch, follow, ctx);
                let e = self.block(p, else_branch, follow, ctx);
                self.graph.add_edge(n, t);
                self.graph.add_edge(n, e);
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                let inner = JumpTargets {
                    break_to: Some(follow),
                    continue_to: Some(n),
                };
                let b = self.block(p, body, n, inner);
                self.graph.add_edge(n, b);
                self.graph.add_edge(n, follow);
            }
            StmtKind::Switch { arms, .. } => {
                let inner = JumpTargets {
                    break_to: Some(follow),
                    continue_to: ctx.continue_to,
                };
                let mut entries = vec![follow; arms.len() + 1];
                for (i, arm) in arms.iter().enumerate().rev() {
                    entries[i] = self.block(p, &arm.body, entries[i + 1], inner);
                }
                for &e in &entries[..arms.len()] {
                    self.graph.add_edge(n, e);
                }
                if !arms.iter().any(|a| a.guards.contains(&CaseGuard::Default)) {
                    self.graph.add_edge(n, follow);
                }
            }
        }
    }

    fn augmented(&self) -> DiGraph {
        let mut g = self.graph.clone();
        for n in self.graph.nodes() {
            if let Some(ft) = self.fallthrough[n.index()] {
                g.add_edge(n, ft);
            }
        }
        g
    }
}

/// The reference immediate lexical successor: the next statement of the
/// block, else climb the parent links until a loop (control returns to
/// it), a later non-empty switch arm, or a next statement takes over.
fn reference_successor(p: &Program, st: Structure<'_>, s: StmtId) -> Option<StmtId> {
    if let Some(next) = st.next_in_block(s) {
        return Some(next);
    }
    let mut cur = s;
    loop {
        let par = st.parent(cur)?;
        match &p.stmt(par).kind {
            StmtKind::While { .. } | StmtKind::DoWhile { .. } => return Some(par),
            StmtKind::Switch { arms, .. } => {
                let arm = arms
                    .iter()
                    .position(|a| a.body.contains(&cur))
                    .expect("statement is in one arm");
                if let Some(&first) = arms[arm + 1..].iter().find_map(|a| a.body.first()) {
                    return Some(first);
                }
            }
            _ => {}
        }
        if let Some(next) = st.next_in_block(par) {
            return Some(next);
        }
        cur = par;
    }
}

/// Depth-first search from `root` over successor lists.
fn dfs(g: &DiGraph, root: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.len()];
    let mut stack = vec![root];
    while let Some(n) = stack.pop() {
        if !std::mem::replace(&mut seen[n.index()], true) {
            stack.extend(g.succs(n));
        }
    }
    seen
}

/// Same successor lists in the same order, and the same predecessor sets.
fn assert_same_graph(got: &DiGraph, want: &DiGraph, what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: node count");
    assert_eq!(got.num_edges(), want.num_edges(), "{what}: edge count");
    for n in want.nodes() {
        assert_eq!(got.succs(n), want.succs(n), "{what}: successors of {n:?}");
        let mut a = got.preds(n).to_vec();
        let mut b = want.preds(n).to_vec();
        a.sort();
        b.sort();
        assert_eq!(a, b, "{what}: predecessors of {n:?}");
    }
}

/// The flowgraph, its augmented graph, its reachability facts and the
/// lexical successor tree all agree with the references.
fn assert_matches(p: &Program, cfg: &Cfg, lst: &LexSuccTree) {
    let r = Reference::of(p);
    assert_same_graph(cfg.graph(), &r.graph, "flowgraph");
    assert_same_graph(&cfg.augmented_graph(p), &r.augmented(), "augmented graph");
    let fwd = dfs(&r.graph, NodeId::new(ENTRY));
    let back = dfs(&r.graph.reversed(), NodeId::new(EXIT));
    assert_eq!(cfg.reachable(), &fwd[..], "reachable");
    let all = fwd.iter().zip(&back).all(|(&f, &b)| !f || b);
    assert_eq!(cfg.all_reach_exit(), all, "all reach exit");
    let st = p.structure();
    for s in p.stmt_ids() {
        assert_eq!(
            lst.immediate(s),
            reference_successor(p, st, s),
            "lexical successor of line {}",
            p.line_of(s)
        );
    }
}

fn assert_builds_match(p: &Program) {
    assert_matches(p, &Cfg::build(p), &LexSuccTree::build(p));
}

/// Programs for the edge cases of the rule: empty blocks, a do-while as a
/// label target and as its own body's first statement, loops that end
/// together, jumps in a switch in a do-while, and switch arms that are
/// empty or fall through.
fn edge_cases() -> Vec<Program> {
    let mut progs: Vec<Program> = [
        "",
        "if (c) { } else { } write(x);",
        "while (c) { } do { } while (d); write(x);",
        "if (c) { x = 1; } write(x);",
        "read(x); if (x) goto L; L: do { x = x - 1; } while (x > 0); write(x);",
        "read(x); do { do { x = x + 1; } while (x < 3); } while (x < 9); write(x);",
        "do { do { x = 1; } while (a); y = 2; } while (b); goto M; M: write(y);",
        "do { switch (c) { case 1: break; case 2: continue; default: x = 1; } y = 2; } \
         while (c); write(y);",
        "switch (c) { case 1: x = 1; case 2: y = 2; } write(x);",
        "switch (c) { case 1: x = 1; case 2: } write(x);",
        "L: if (c) goto L; write(x);",
        "while (c) { if (d) { return; } } write(x);",
        "do { while (a) { if (b) continue; x = 1; } } while (c);",
    ]
    .iter()
    .map(|src| parse(src).unwrap_or_else(|e| panic!("{src}: {e}")))
    .collect();
    // An empty arm between two others, which the parser merges into the
    // next arm's guards but a builder keeps.
    let mut b = ProgramBuilder::new();
    let c = b.var("c");
    b.switch(c, |arms| {
        arms.case(1, |b| {
            b.assign("x", Expr::Num(1));
        });
        arms.case(2, |_| {});
        arms.case(3, |b| {
            b.assign("y", Expr::Num(2));
        });
        arms.case(4, |_| {});
    });
    b.write(Expr::Num(0));
    progs.push(b.build().unwrap());
    progs
}

fn generated(rng: &mut Rng) -> Program {
    let cfg = GenConfig::sized(rng.next_u64(), rng.gen_range(5..80usize));
    if rng.gen_bool(0.5) {
        gen_structured(&cfg)
    } else {
        gen_unstructured(&cfg.with_jump_density(0.25))
    }
}

/// Which of the four edit kinds `e` is.
fn edit_kind(e: &Edit) -> usize {
    match e {
        Edit::ReplaceExpr { .. } => 0,
        Edit::InsertStmt { .. } => 1,
        Edit::DeleteStmt { .. } => 2,
        Edit::ToggleJump { .. } => 3,
    }
}

#[test]
fn flowgraph_and_lst_match_references_on_figures_generators_and_edge_cases() {
    let cases = edge_cases();
    assert_eq!(cases.len(), 14);
    for p in cases {
        assert_builds_match(&p);
    }
    for (_, p, _) in corpus::all() {
        assert_builds_match(&p);
    }
    check(64, |rng| {
        let cfg = GenConfig::sized(rng.next_u64(), rng.gen_range(1..200usize));
        assert_builds_match(&gen_structured(&cfg));
        assert_builds_match(&gen_unstructured(&cfg.with_jump_density(0.3)));
    });
}

#[test]
fn flowgraph_and_lst_match_references_after_every_edit_kind() {
    check(16, |rng| {
        let mut p = generated(rng);
        let mut applied = [0usize; 4];
        while applied.iter().any(|&k| k < 2) {
            // Rejected edits leave the program as it was; draw another.
            let e = random_edit(rng, &p);
            if let Ok(next) = apply_edit(&p, &e) {
                p = next.prog;
                applied[edit_kind(&e)] += 1;
                assert_builds_match(&p);
            }
        }
    });
}

#[test]
fn decoded_snapshots_derive_the_reference_flowgraph_and_lst() {
    let mut progs: Vec<Program> = corpus::all().into_iter().map(|(_, p, _)| p).collect();
    progs.extend(edge_cases());
    let mut rng = Rng::seed_from_u64(29);
    progs.extend((0..8).map(|_| generated(&mut rng)));
    for p in progs {
        let seed = if Cfg::build(&p).all_reach_exit() {
            let a = Analysis::new(&p);
            a.warm();
            a.into_seed()
        } else {
            AnalysisSeed::default()
        };
        let back = decode_snapshot(&encode_snapshot(&print_program(&p), &p, &seed))
            .expect("a fresh snapshot decodes");
        let cfg = back.seed.cfg.expect("the decoder derives the flowgraph");
        assert!(back.seed.lst.is_none(), "the analysis builds the LST");
        assert_matches(&back.prog, &cfg, &LexSuccTree::build(&back.prog));
    }
}

/// `if (1) { if (1) { ... { ; } ... } }`, `depth` levels deep, made through
/// `Program::from_parts` since the parser stops at `MAX_DEPTH`.
fn if_nest(depth: usize) -> Program {
    let stmts: Vec<Stmt> = (0..depth)
        .map(|i| Stmt {
            kind: StmtKind::If {
                cond: Expr::Num(1),
                then_branch: Box::new([StmtId::from_index(i + 1)]),
                else_branch: Box::default(),
            },
            line: i as u32 + 1,
        })
        .chain(std::iter::once(Stmt {
            kind: StmtKind::Skip,
            line: depth as u32 + 1,
        }))
        .collect();
    Program::from_parts(stmts, vec![StmtId::from_index(0)], &[], &[], vec![], vec![])
        .expect("a well-formed nest")
}

#[test]
fn a_hundred_thousand_deep_nest_builds_in_linear_time() {
    const DEPTH: usize = 100_000;
    let p = if_nest(DEPTH);
    let started = Instant::now();
    let cfg = Cfg::build(&p);
    let lst = LexSuccTree::build(&p);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "took {took:?}");
    // Every `if` is the last statement of its block, so its lexical
    // successor is the exit, and its false edge leaves the program.
    let exit = cfg.exit();
    for i in [0, DEPTH / 2, DEPTH - 1] {
        let s = StmtId::from_index(i);
        assert_eq!(lst.immediate(s), None);
        assert_eq!(
            cfg.graph().succs(cfg.node(s)),
            &[cfg.node(StmtId::from_index(i + 1)), exit]
        );
    }
    assert!(cfg.all_reach_exit());
    assert!(cfg.reachable().iter().all(|&r| r));
}

/// The printer walks with an explicit stack: a nest eight times deeper
/// than any parse prints on a thread with a 128 KiB stack, which a
/// printer recursing once per level overflows at about a thousand levels.
#[test]
fn a_two_thousand_deep_nest_prints_on_a_small_stack() {
    const DEPTH: usize = 2_000;
    let p = if_nest(DEPTH);
    let text = std::thread::Builder::new()
        .stack_size(128 << 10)
        .spawn(move || print_program(&p))
        .expect("thread starts")
        .join()
        .expect("printing does not overflow the stack");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 2 * DEPTH + 1);
    assert_eq!(lines[0], "if (1) {");
    assert_eq!(lines[DEPTH], format!("{};", "  ".repeat(DEPTH)));
    assert_eq!(lines[2 * DEPTH], "}");
    assert!(text.len() > 4_000_000, "{} bytes", text.len());
}

/// `switch (0) { case 0: ; case 1: case 2: ; ... }` with `arms` arms, every
/// odd one empty, so each empty arm falls into the next.
fn wide_switch(arms: usize) -> Program {
    let skip = |line: usize| Stmt {
        kind: StmtKind::Skip,
        line: line as u32,
    };
    let mut stmts: Vec<Stmt> = (0..arms.div_ceil(2)).map(|k| skip(k + 2)).collect();
    let arms = (0..arms)
        .map(|i| jumpslice::lang::SwitchArm {
            guards: Box::new([CaseGuard::Case(i as i64)]),
            body: if i % 2 == 0 {
                Box::new([StmtId::from_index(i / 2)])
            } else {
                Box::default()
            },
        })
        .collect();
    stmts.push(Stmt {
        kind: StmtKind::Switch {
            scrutinee: Expr::Num(0),
            arms,
        },
        line: 1,
    });
    let switch = StmtId::from_index(stmts.len() - 1);
    Program::from_parts(stmts, vec![switch], &[], &[], vec![], vec![])
        .expect("a well-formed switch")
}

#[test]
fn a_hundred_thousand_arm_switch_builds_in_linear_time() {
    const ARMS: usize = 100_000;
    let p = wide_switch(ARMS);
    let started = Instant::now();
    let cfg = Cfg::build(&p);
    let lst = LexSuccTree::build(&p);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "took {took:?}");
    // One edge per non-empty arm; the trailing empty arm and the missing
    // default both leave the switch, which is one more.
    let switch = cfg.node(p.body()[0]);
    assert_eq!(cfg.graph().succs(switch).len(), ARMS / 2 + 1);
    assert_eq!(*cfg.graph().succs(switch).last().unwrap(), cfg.exit());
    // Each arm's statement falls through the empty arm after it into the
    // next non-empty one.
    assert_eq!(
        lst.immediate(StmtId::from_index(0)),
        Some(StmtId::from_index(1))
    );
    assert_eq!(lst.immediate(StmtId::from_index(ARMS / 2 - 1)), None);
    assert!(cfg.all_reach_exit());
}

/// A statement of the one-variable programs below: `x` is name 0.
fn stmt(kind: StmtKind, line: usize) -> Stmt {
    Stmt {
        kind,
        line: line as u32,
    }
}

/// The programs' one variable.
fn x() -> Name {
    Name::from_index(0)
}

/// `x = rhs;`
fn assign_x(rhs: Expr, line: usize) -> Stmt {
    stmt(StmtKind::Assign { lhs: x(), rhs }, line)
}

/// Builds the factored data dependences of `p` over its flowgraph and
/// answers the `vars_at(last, [x])` seeds, the nearest definition or φ up
/// the dominator tree expanded through the φs, within a second on the
/// test thread's own stack (the flowgraph's own build is bounded above).
/// Renaming or searching with one stack frame per dominator-tree level
/// overflows it.
fn seeds_at_the_last_statement(p: &Program) -> (DataDeps, Vec<StmtId>) {
    let cfg = Cfg::build(p);
    let started = Instant::now();
    let data = DataDeps::compute(p, &cfg);
    let last = StmtId::from_index(p.len() - 1);
    let seeds = data.reaching(p, &cfg, last, &[x()]);
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "took {took:?}");
    (data, seeds)
}

/// `x = x + 1;` 100,000 times: the dominator tree is a path as deep as the
/// program, and each statement reads the one before it.
#[test]
fn a_hundred_thousand_statement_straight_line_renames_in_linear_time() {
    const LEN: usize = 100_000;
    let incr = || Expr::Binary(BinOp::Add, Box::new(Expr::Var(x())), Box::new(Expr::Num(1)));
    let stmts: Vec<Stmt> = (0..LEN).map(|i| assign_x(incr(), i + 1)).collect();
    let body = (0..LEN).map(StmtId::from_index).collect();
    let p = Program::from_parts(stmts, body, &["x"], &[], vec![], vec![])
        .expect("a well-formed straight line");
    let (data, seeds) = seeds_at_the_last_statement(&p);
    assert_eq!(seeds, [StmtId::from_index(LEN - 2)]);
    assert_eq!(data.num_phis(), 0);
    assert_eq!(data.deps(StmtId::from_index(0)), []);
    assert_eq!(
        data.deps(StmtId::from_index(LEN / 2)),
        [StmtId::from_index(LEN / 2 - 1)]
    );
}

/// `if (1) { x = 0; if (1) { x = 1; ... write(x); } }`, 100,000 levels
/// deep: every level's `if` and assignment deepen the dominator tree.
#[test]
fn a_hundred_thousand_deep_assigning_nest_renames_in_linear_time() {
    const DEPTH: usize = 100_000;
    let mut stmts = Vec::with_capacity(2 * DEPTH + 1);
    for i in 0..DEPTH {
        let then_branch = Box::new([StmtId::from_index(2 * i + 1), StmtId::from_index(2 * i + 2)]);
        stmts.push(stmt(
            StmtKind::If {
                cond: Expr::Num(1),
                then_branch,
                else_branch: Box::default(),
            },
            2 * i + 1,
        ));
        stmts.push(assign_x(Expr::Num(i as i64), 2 * i + 2));
    }
    stmts.push(stmt(
        StmtKind::Write {
            arg: Expr::Var(x()),
        },
        2 * DEPTH + 1,
    ));
    let p = Program::from_parts(
        stmts,
        vec![StmtId::from_index(0)],
        &["x"],
        &[],
        vec![],
        vec![],
    )
    .expect("a well-formed nest");
    let (data, seeds) = seeds_at_the_last_statement(&p);
    assert_eq!(seeds, [StmtId::from_index(2 * DEPTH - 1)]);
    // Every level's assignment reaches only the exit past the nest, which
    // reads nothing: no φ anywhere.
    assert_eq!(data.num_phis(), 0);
}

/// `switch (0) { case 0: x = 0; break; ... } write(x);` with 50,000 arms:
/// the write's one φ has an operand per `break`.
#[test]
fn a_fifty_thousand_arm_switch_joins_in_one_phi() {
    const ARMS: usize = 50_000;
    let mut stmts = Vec::with_capacity(2 * ARMS + 2);
    for i in 0..ARMS {
        stmts.push(assign_x(Expr::Num(i as i64), 2 * i + 2));
        stmts.push(stmt(StmtKind::Break, 2 * i + 3));
    }
    let arms = (0..ARMS)
        .map(|i| jumpslice::lang::SwitchArm {
            guards: Box::new([CaseGuard::Case(i as i64)]),
            body: Box::new([StmtId::from_index(2 * i), StmtId::from_index(2 * i + 1)]),
        })
        .collect();
    stmts.push(stmt(
        StmtKind::Switch {
            scrutinee: Expr::Num(0),
            arms,
        },
        1,
    ));
    stmts.push(stmt(
        StmtKind::Write {
            arg: Expr::Var(x()),
        },
        2 * ARMS + 2,
    ));
    let body = vec![
        StmtId::from_index(2 * ARMS),
        StmtId::from_index(2 * ARMS + 1),
    ];
    let p = Program::from_parts(stmts, body, &["x"], &[], vec![], vec![])
        .expect("a well-formed switch");
    let (data, seeds) = seeds_at_the_last_statement(&p);
    let assignments: Vec<StmtId> = (0..ARMS).map(|i| StmtId::from_index(2 * i)).collect();
    assert_eq!(seeds, assignments);
    assert_eq!(data.num_phis(), 1);
    assert_eq!(data.node_deps(p.len()).len(), ARMS, "one operand per break");
}
