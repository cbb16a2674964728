//! Reproduction findings: where this workspace's *language extensions*
//! weaken the paper's precision-equivalence theorem (§3: Figure 7 slices ≡
//! Ball–Horwitz slices) without ever compromising soundness.
//!
//! The paper's figure language is if/while + goto/break/continue/return.
//! Two constructs we additionally support create "interior postdominators":
//! statements that postdominate an entire construct while not being lexical
//! successors of statements before/inside it. There the paper's
//! npd-≠-nls test is sufficient for soundness but no longer necessary, so
//! Figure 7 conservatively keeps jumps Ball–Horwitz proves removable.
//!
//! Both cases below were found by the property tests in
//! `tests/equivalence.rs` (which therefore restrict their corpus to the
//! paper's core fragment) and are pinned here as regressions.

use jumpslice::prelude::*;

fn slices(src: &str, crit_line: usize) -> (Program, Slice, Slice) {
    let p = parse(src).unwrap();
    let a = Analysis::new(&p);
    let crit = Criterion::at_stmt(p.at_line(crit_line));
    let fig7 = agrawal_slice(&a, &crit);
    let bh = ball_horwitz_slice(&a, &crit);
    (p, fig7, bh)
}

/// `do-while`: the loop predicate executes *after* its body, so the
/// postdominator chain of a statement before the loop threads through the
/// body before reaching the predicate, while the lexical successor chain
/// points at the construct directly. npd and nls then disagree on an
/// irrelevant `continue`.
#[test]
fn do_while_breaks_precision_equivalence() {
    let src = "read(v1);
               do { continue; } while (!eof());
               do { v0 = f3(v2); write(v1); } while (!eof());";
    // Lines: 1 read, 2 do-while, 3 continue, 4 do-while, 5 assign, 6 write.
    let (p, fig7, bh) = slices(src, 6);
    assert_eq!(bh.lines(&p), vec![1, 4, 6], "BH drops the no-op loop");
    assert_eq!(
        fig7.lines(&p),
        vec![1, 2, 3, 4, 6],
        "Figure 7 conservatively keeps the continue and its loop"
    );
    assert!(bh.subset_of(&fig7));
    // Both remain sound.
    let inputs = Input::family(8);
    check_projection(&p, &fig7.stmts, &fig7.moved_labels, &inputs).unwrap();
    check_projection(&p, &bh.stmts, &bh.moved_labels, &inputs).unwrap();
}

/// `switch` fall-through: the shared tail arm (here the `default`)
/// postdominates the whole switch, so it appears on postdominator chains of
/// earlier statements while never being their lexical successor. An
/// irrelevant `break` before the switch then trips npd ≠ nls.
#[test]
fn switch_fallthrough_breaks_precision_equivalence() {
    let src = "read(v1);
               while (!eof()) { v2 = 4; break; }
               switch (f1(v0)) {
                 case 0: write(f3(v1));
                 default: v3 = v1;
               }
               write(v3);";
    // Lines: 1 read, 2 while, 3 assign, 4 break, 5 switch, 6 write,
    // 7 assign(v3), 8 write(v3).
    let (p, fig7, bh) = slices(src, 8);
    assert_eq!(bh.lines(&p), vec![1, 7, 8]);
    assert_eq!(
        fig7.lines(&p),
        vec![1, 2, 4, 7, 8],
        "Figure 7 keeps the while/break pair"
    );
    assert!(bh.subset_of(&fig7));
    let inputs = Input::family(8);
    check_projection(&p, &fig7.stmts, &fig7.moved_labels, &inputs).unwrap();
    check_projection(&p, &bh.stmts, &bh.moved_labels, &inputs).unwrap();
}

/// On the paper's own fragment the equivalence is exact — spot-checked here
/// on the corpus, exhaustively checked by `tests/equivalence.rs`.
#[test]
fn equivalence_exact_on_paper_fragment() {
    use jumpslice_core::corpus;
    for (name, p, _) in corpus::all() {
        let a = Analysis::new(&p);
        for line in 1..=p.lexical_order().len() {
            let crit = Criterion::at_stmt(p.at_line(line));
            assert_eq!(
                agrawal_slice(&a, &crit).stmts,
                ball_horwitz_slice(&a, &crit).stmts,
                "{name} line {line}"
            );
        }
    }
}

/// The soundness side of the do-while gap: a body that always `break`s
/// leaves the loop condition dead, so the paper's npd-vs-nls test sees no
/// reason to keep the break — but deleting it *resurrects* the loop. The
/// do-while extension guard, which all three paper algorithms read from the
/// chain index (`jumpslice_difftest::oracle::dowhile_hazard` is its tree
/// walk), repairs them; Ball–Horwitz needs no repair (its pseudo edge makes
/// the condition control dependent on the break). Found by property
/// testing.
#[test]
fn dowhile_dead_condition_break_is_kept() {
    let src = "read(v1);
               do { v2 = -2 * v1; v2 = -2; break; } while (!eof());
               write(v2);";
    // Lines: 1 read, 2 do-while, 3 assign, 4 assign, 5 break, 6 write.
    let p = parse(src).unwrap();
    let a = Analysis::new(&p);
    let crit = Criterion::at_stmt(p.at_line(6));
    let inputs = Input::family(8);
    for (name, s) in [
        ("fig7", agrawal_slice(&a, &crit)),
        ("fig12", structured_slice(&a, &crit)),
        ("fig13", conservative_slice(&a, &crit)),
        ("ball-horwitz", ball_horwitz_slice(&a, &crit)),
    ] {
        assert!(
            s.lines(&p).contains(&5),
            "{name} must keep the break: {:?}",
            s.lines(&p)
        );
        check_projection(&p, &s.stmts, &s.moved_labels, &inputs)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

/// Reproduction finding on the paper's *own* language (if + goto, no
/// extensions): §3 claims the Figure 7 slices coincide exactly with
/// Ball–Horwitz slices, but the algorithm's npd-vs-nls judgements are made
/// against the *evolving* slice and additions are permanent. In the
/// generated program below (gen_unstructured, seed 120, 16 slots, jump
/// density 0.45), the conventional slice for write(-2) on line 13 is
/// {4, 13, 21}; the traversal examines the no-op `goto L1` (line 6) while
/// the predicate on line 7 is still outside the slice — npd (21) and nls
/// (13) differ, so lines 5 and 6 are added — and the very next addition
/// (`goto L8`'s closure, which brings in line 7) would have equalized the
/// test. Figure 7 therefore computes a *sound superset* of the
/// Ball–Horwitz slice rather than an equal slice. Exact equality does
/// hold on every figure of the paper (`equivalence_exact_on_paper_fragment`).
#[test]
fn goto_history_dependence_breaks_exact_equivalence() {
    let src = "read(v0);
               read(v1);
               read(v2);
               read(v3);
               L0: if (-3 < 1) {
                 goto L1;
               }
               L1: if (v2 <= 2) {
                 goto L8;
               }
               L2: goto L7;
               L3: if (v1 > -2) {
                 L4: v2 = v3;
               }
               L5: v0 = v0;
               L6: write(-2);
               L7: if (f3(v3) == 1) {
                 L8: read(v2);
                 L9: v2 = v2;
               }
               L10: if (!eof()) {
                 L11: v1 = v2 * -2;
               }
               L12: v1 = v3 - v1;
               L13: write(-3 + v1 % v3);
               L14: if (v3 == 1) goto L3;
               L15: write(-3);
               LEND: write(v0);
               write(v1);
               write(v2);
               write(v3);";
    let p = parse(src).unwrap();
    let a = Analysis::new(&p);
    let crit = Criterion::at_stmt(p.at_line(13));
    let f7 = agrawal_slice(&a, &crit);
    let bh = ball_horwitz_slice(&a, &crit);
    assert_eq!(bh.lines(&p), vec![3, 4, 7, 8, 9, 13, 21]);
    assert_eq!(
        f7.lines(&p),
        vec![3, 4, 5, 6, 7, 8, 9, 13, 21],
        "Figure 7 additionally keeps the no-op goto (6) and its if (5)"
    );
    assert!(bh.stmts.is_subset(&f7.stmts));
    // Both slices execute correctly.
    let inputs = Input::family(8);
    check_projection(&p, &f7.stmts, &f7.moved_labels, &inputs).unwrap();
    check_projection(&p, &bh.stmts, &bh.moved_labels, &inputs).unwrap();
}
