//! Facts stored when a program or a flowgraph is made. One walk per
//! program fills its line table and links every statement to its parent
//! and to the next statement of its block; `Program::structure` answers
//! from those links. Every flowgraph records, when it is built or decoded,
//! which nodes the entry reaches and whether they all reach the exit.
//! These tests hold both to independent references — a recursive block
//! walk, and depth-first searches over the flowgraph and its reversal — on
//! the paper's figures, both generator families, every kind of edit, a
//! snapshot round trip, an unanalyzable program and programs with dead
//! code.

use jumpslice::cfg::Cfg;
use jumpslice::core::{decode_snapshot, encode_snapshot};
use jumpslice::graph::{DiGraph, NodeId};
use jumpslice::incr::random_edit;
use jumpslice::lang::StmtKind;
use jumpslice::prelude::*;
use jumpslice_testkit::{check, Rng};

/// The reference structure, computed without the program's links: a
/// recursive walk over `body()` and each compound statement's blocks.
struct Reference {
    /// Statements in preorder: the order of the line table.
    order: Vec<StmtId>,
    parent: Vec<Option<StmtId>>,
    next_in_block: Vec<Option<StmtId>>,
    enclosing_loop: Vec<Option<StmtId>>,
    enclosing_breakable: Vec<Option<StmtId>>,
}

/// Where a block sits: its compound parent, and the nearest loop and
/// breakable construct around it.
#[derive(Clone, Copy)]
struct Ctx {
    parent: Option<StmtId>,
    lp: Option<StmtId>,
    brk: Option<StmtId>,
}

impl Reference {
    fn of(p: &Program) -> Reference {
        let n = p.len();
        let mut r = Reference {
            order: Vec::new(),
            parent: vec![None; n],
            next_in_block: vec![None; n],
            enclosing_loop: vec![None; n],
            enclosing_breakable: vec![None; n],
        };
        let top = Ctx {
            parent: None,
            lp: None,
            brk: None,
        };
        r.walk(p, p.body(), top);
        r
    }

    fn walk(&mut self, p: &Program, block: &[StmtId], ctx: Ctx) {
        for (i, &s) in block.iter().enumerate() {
            self.order.push(s);
            self.parent[s.index()] = ctx.parent;
            self.next_in_block[s.index()] = block.get(i + 1).copied();
            self.enclosing_loop[s.index()] = ctx.lp;
            self.enclosing_breakable[s.index()] = ctx.brk;
            let inside = Ctx {
                parent: Some(s),
                ..ctx
            };
            match &p.stmt(s).kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.walk(p, then_branch, inside);
                    self.walk(p, else_branch, inside);
                }
                StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                    let looped = Ctx {
                        lp: Some(s),
                        brk: Some(s),
                        ..inside
                    };
                    self.walk(p, body, looped);
                }
                StmtKind::Switch { arms, .. } => {
                    for arm in arms {
                        let switched = Ctx {
                            brk: Some(s),
                            ..inside
                        };
                        self.walk(p, &arm.body, switched);
                    }
                }
                _ => {}
            }
        }
    }
}

/// The line table and every structure query agree with the reference walk.
fn assert_structure_matches(p: &Program) {
    let r = Reference::of(p);
    assert_eq!(p.lexical_order(), &r.order[..], "line table order");
    let st = p.structure();
    for s in p.stmt_ids() {
        let i = s.index();
        assert_eq!(st.parent(s), r.parent[i], "parent of {s:?}");
        assert_eq!(st.next_in_block(s), r.next_in_block[i], "next of {s:?}");
        assert_eq!(st.enclosing_loop(s), r.enclosing_loop[i], "loop of {s:?}");
        assert_eq!(
            st.enclosing_breakable(s),
            r.enclosing_breakable[i],
            "breakable of {s:?}"
        );
        let mut up = r.parent[i];
        while let Some(a) = up {
            assert!(st.contains(a, s), "{a:?} contains {s:?}");
            assert!(!st.contains(s, a), "{s:?} does not contain {a:?}");
            up = r.parent[a.index()];
        }
        assert!(!st.contains(s, s));
    }
    let do_while = p
        .stmt_ids()
        .any(|s| matches!(p.stmt(s).kind, StmtKind::DoWhile { .. }));
    assert_eq!(st.has_do_while(), do_while);
}

/// Depth-first search from `root` over successor lists.
fn dfs(g: &DiGraph, root: NodeId) -> Vec<bool> {
    let mut seen = vec![false; g.len()];
    fn visit(g: &DiGraph, n: NodeId, seen: &mut [bool]) {
        if std::mem::replace(&mut seen[n.index()], true) {
            return;
        }
        for &m in g.succs(n) {
            visit(g, m, seen);
        }
    }
    visit(g, root, &mut seen);
    seen
}

/// The flowgraph's recorded reachability agrees with a forward search from
/// the entry and a backward one from the exit (a forward search of the
/// reversed graph).
fn assert_reachability_matches(cfg: &Cfg) {
    let fwd = dfs(cfg.graph(), cfg.entry());
    let back = dfs(&cfg.graph().reversed(), cfg.exit());
    assert_eq!(cfg.reachable(), &fwd[..]);
    let all = fwd.iter().zip(&back).all(|(&f, &b)| !f || b);
    assert_eq!(cfg.all_reach_exit(), all);
}

fn assert_facts_match(p: &Program) {
    assert_structure_matches(p);
    assert_reachability_matches(&Cfg::build(p));
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
fn stored_facts_match_references_on_figures_and_generators() {
    for (_, p, _) in corpus::all() {
        assert_facts_match(&p);
    }
    check(48, |rng| {
        let cfg = GenConfig::sized(rng.next_u64(), rng.gen_range(1..120usize));
        assert_facts_match(&gen_structured(&cfg));
        assert_facts_match(&gen_unstructured(&cfg.with_jump_density(0.3)));
    });
}

#[test]
fn stored_facts_match_references_after_every_edit_kind() {
    check(16, |rng| {
        let mut p = generated(rng);
        let mut applied = [0usize; 4];
        while applied.iter().any(|&k| k < 2) {
            // Rejected edits leave the program as it was; draw another.
            let e = random_edit(rng, &p);
            if let Ok(next) = apply_edit(&p, &e) {
                p = next.prog;
                applied[edit_kind(&e)] += 1;
                assert_facts_match(&p);
            }
        }
    });
}

#[test]
fn stored_facts_match_references_after_a_snapshot_round_trip() {
    let mut progs: Vec<Program> = corpus::all().into_iter().map(|(_, p, _)| p).collect();
    let mut rng = Rng::seed_from_u64(23);
    progs.extend((0..8).map(|_| generated(&mut rng)));
    for p in progs {
        let a = Analysis::new(&p);
        a.warm();
        let bytes = encode_snapshot(&print_program(&p), &p, &a.into_seed());
        let back = decode_snapshot(&bytes).expect("a fresh snapshot decodes");
        assert_structure_matches(&back.prog);
        let cfg = back.seed.cfg.expect("snapshots carry the flowgraph");
        assert_reachability_matches(&cfg);
    }
}

#[test]
fn stored_facts_match_references_on_unanalyzable_and_dead_code() {
    let unanalyzable = parse("L: x = x + 1; goto L; write(x);").unwrap();
    assert_facts_match(&unanalyzable);
    assert!(!Cfg::build(&unanalyzable).all_reach_exit());
    for src in [
        "return; x = 1; write(x);",
        "goto END; goto END; END: write(x);",
        "read(c); while (c) { break; c = c - 1; } write(c);",
        "read(c); switch (c) { case 1: break; x = 1; default: return; } write(x);",
        "read(c); do { continue; c = 0; } while (c); write(c);",
    ] {
        let p = parse(src).unwrap();
        assert_facts_match(&p);
        let cfg = Cfg::build(&p);
        assert!(cfg.all_reach_exit(), "{src}");
        assert!(cfg.reachable().iter().any(|&r| !r), "{src} has dead code");
    }
}
