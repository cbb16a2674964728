//! The incremental edit-and-reslice session, driven through the facade:
//! the session's answers must be indistinguishable from a from-scratch
//! analysis after every edit, the expression patch must actually reuse
//! its artifacts, and every other edit must reset the session rather
//! than serve stale postdominators or a stale lexical successor tree.

use jumpslice::prelude::*;
use jumpslice_lang::{BlockSel, StmtPath};

/// Every-slicer, every-criterion identity between the session's warm
/// analysis and a cold one.
fn assert_matches_scratch(session: &mut EditSession) {
    let prog = session.prog().clone();
    let scratch = Analysis::new(&prog);
    session.with_analysis(|a| {
        for s in prog.stmt_ids() {
            let c = Criterion::at_stmt(s);
            for (name, f) in [
                ("conventional", conventional_slice as SliceFn),
                ("agrawal", agrawal_slice),
                ("conservative", conservative_slice),
                ("ball-horwitz", ball_horwitz_slice),
            ] {
                let warm = f(a, &c);
                let cold = f(&scratch, &c);
                assert_eq!(warm.stmts, cold.stmts, "{name} at {s:?}");
                assert_eq!(
                    warm.moved_labels, cold.moved_labels,
                    "{name} labels at {s:?}"
                );
            }
        }
    });
}

#[test]
fn edit_script_matches_scratch_through_the_facade() {
    let p = parse(
        "read(n);
         i = 0;
         sum = 0;
         while (i < n) {
           sum = sum + i;
           i = i + 1;
         }
         write(sum);
         write(i);",
    )
    .unwrap();
    let mut s = EditSession::new(p);
    s.with_analysis(|a| a.warm());

    // Replace, insert, delete, toggle — one edit per path family.
    let script: Vec<Edit> = vec![
        Edit::ReplaceExpr {
            at: StmtPath::root(1),
            with: EditExpr::Num(3),
        },
        Edit::InsertStmt {
            at: StmtPath::root(3).child(BlockSel::Body, 0),
            stmt: NewStmt::Assign {
                var: "sum".into(),
                rhs: EditExpr::Num(0),
            },
        },
        Edit::DeleteStmt {
            at: StmtPath::root(2),
        },
        Edit::ToggleJump {
            at: StmtPath::root(2).child(BlockSel::Body, 1),
            jump: JumpKind::Break,
        },
    ];
    for e in &script {
        s.apply(e).expect("scripted edits are valid");
        assert_matches_scratch(&mut s);
    }
    let stats = s.stats();
    assert_eq!(stats.edits, 4);
    assert_eq!(stats.expr_patches, 1);
    assert_eq!(stats.seeded_resolves, 2);
    assert_eq!(stats.full_rebuilds, 1, "the jump toggle must fall back");
}

#[test]
fn fast_paths_reuse_warm_artifacts() {
    let p = parse("read(a); b = a + 1; c = b * 2; write(c); write(b);").unwrap();
    let mut s = EditSession::new(p);
    s.with_analysis(|a| a.warm());

    // An expression patch keeps all three lazy artifacts: the next warm()
    // must recompute nothing, reaching definitions included.
    s.apply(&Edit::ReplaceExpr {
        at: StmtPath::root(2),
        with: EditExpr::Num(9),
    })
    .unwrap();
    let st = s.with_analysis(|a| {
        a.warm();
        a.stats()
    });
    assert_eq!(st.reaching_defs, 0);
    assert_eq!(st.pdg_builds, 0);
    assert_eq!(st.pdom_builds, 0);
    assert_eq!(st.lst_builds, 0);

    // An insert resets the session (the wire still labels it
    // `seeded_resolve`): the next warm() builds each artifact once, as a
    // cold load's first warm does.
    let out = s
        .apply(&Edit::InsertStmt {
            at: StmtPath::root(4),
            stmt: NewStmt::Write {
                arg: EditExpr::Var("b".into()),
            },
        })
        .unwrap();
    assert_eq!(out.path, ApplyPath::SeededResolve);
    assert_eq!(out.reused_phases, 0);
    let st = s.with_analysis(|a| {
        a.warm();
        a.stats()
    });
    let cold = Analysis::new(s.prog());
    cold.warm();
    assert_eq!(
        st,
        cold.stats(),
        "the reset rebuilt what a cold warm builds"
    );
    assert_matches_scratch(&mut s);
}

/// Satellite invariant: a structure-changing edit may not leave stale
/// postdominators or a stale LST behind. The toggle below changes which
/// statements the jump-repair must pull in — if either artifact survived
/// the edit, the session's Figure-7 slice would differ from scratch.
#[test]
fn structure_changing_edits_force_rebuild_not_stale_artifacts() {
    let p = parse(
        "read(n);
         x = 0;
         while (x < n) {
           x = x + 1;
           ;
         }
         write(x);",
    )
    .unwrap();
    let mut s = EditSession::new(p);
    // Warm everything so there *are* stale artifacts to serve by mistake.
    s.with_analysis(|a| a.warm());
    let before = s.with_analysis(|a| {
        agrawal_slice(a, &Criterion::at_stmt(a.prog().at_line(6))).lines(a.prog())
    });
    assert_eq!(before, vec![1, 2, 3, 4, 6], "pinned pre-edit slice");

    // Turn the skip into a break: the loop's postdominator structure and
    // lexical successor relations both change.
    let out = s
        .apply(&Edit::ToggleJump {
            at: StmtPath::root(2).child(BlockSel::Body, 1),
            jump: JumpKind::Break,
        })
        .unwrap();
    assert_eq!(out.path, ApplyPath::FullRebuild);
    assert_eq!(
        out.reused_phases, 0,
        "nothing may survive a structural edit"
    );
    assert_eq!(s.stats().full_rebuilds, 1);

    let after = s.with_analysis(|a| {
        agrawal_slice(a, &Criterion::at_stmt(a.prog().at_line(6))).lines(a.prog())
    });
    assert_eq!(
        after,
        vec![1, 2, 3, 4, 5, 6],
        "pinned post-edit slice: the repair must now carry the break"
    );
    assert_ne!(
        before, after,
        "stale postdominators/LST would reproduce `before`"
    );
    assert_matches_scratch(&mut s);

    // Deleting a jump statement is also structural and must also rebuild.
    let out = s
        .apply(&Edit::DeleteStmt {
            at: StmtPath::root(2).child(BlockSel::Body, 1),
        })
        .unwrap();
    assert_eq!(out.path, ApplyPath::FullRebuild);
    assert_eq!(s.stats().full_rebuilds, 2);
    assert_matches_scratch(&mut s);
}
