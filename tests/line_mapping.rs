//! Paper-style line mapping. Every program carries one line table, filled
//! when the program is made; `lexical_order`, `line_of`, `at_line`,
//! `try_at_line`, `Slice::lines` and the provenance report all read it.
//! These tests hold the table to an independent recursive preorder walk —
//! on the paper's figures, on generated structured and unstructured
//! programs, after every kind of edit, and on a program decoded from a
//! snapshot, none of which keep statement ids in lexical order.

use jumpslice::core::{decode_snapshot, encode_snapshot, SlicePoint};
use jumpslice::incr::random_edit;
use jumpslice::lang::StmtKind;
use jumpslice::prelude::*;
use jumpslice_testkit::{check, Rng};
use std::fmt::Write as _;

/// The reference numbering, computed without the program's line table: a
/// recursive preorder over `body()` and each compound statement's blocks.
struct Numbering {
    /// The statement on each line, by line number - 1.
    order: Vec<StmtId>,
    /// The line of each statement, by arena index (0: not reached).
    line: Vec<usize>,
}

impl Numbering {
    fn of(p: &Program) -> Numbering {
        fn walk(p: &Program, block: &[StmtId], order: &mut Vec<StmtId>) {
            for &s in block {
                order.push(s);
                match &p.stmt(s).kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(p, then_branch, order);
                        walk(p, else_branch, order);
                    }
                    StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                        walk(p, body, order);
                    }
                    StmtKind::Switch { arms, .. } => {
                        for arm in arms {
                            walk(p, &arm.body, order);
                        }
                    }
                    _ => {}
                }
            }
        }
        let mut order = Vec::new();
        walk(p, p.body(), &mut order);
        let mut line = vec![0; p.len()];
        for (i, s) in order.iter().enumerate() {
            line[s.index()] = i + 1;
        }
        Numbering { order, line }
    }

    fn line_of(&self, s: StmtId) -> usize {
        let n = self.line[s.index()];
        assert!(n > 0, "{s:?} is not reached from the body");
        n
    }
}

/// The program's line table agrees with the reference walk in both
/// directions, and rejects the lines just outside the program.
fn assert_table_matches(p: &Program) {
    let n = Numbering::of(p);
    assert_eq!(n.order.len(), p.len(), "every statement is on one line");
    assert_eq!(p.lexical_order(), &n.order[..]);
    for (i, &s) in n.order.iter().enumerate() {
        assert_eq!(p.line_of(s), i + 1);
        assert_eq!(p.at_line(i + 1), s);
        assert_eq!(p.try_at_line(i + 1), Some(s));
    }
    assert_eq!(p.try_at_line(0), None);
    assert_eq!(p.try_at_line(p.len() + 1), None);
}

/// The reference mapping: each statement's line in the reference walk,
/// then sorted.
fn lines_by_line_of(slice: &Slice, n: &Numbering) -> Vec<usize> {
    let mut lines: Vec<usize> = slice.stmts.iter().map(|s| n.line_of(s)).collect();
    lines.sort_unstable();
    lines
}

/// A random subset of the program's statements.
fn random_subset(rng: &mut Rng, p: &Program) -> Slice {
    let keep = rng.gen_f64();
    Slice::from_stmts(p.stmt_ids().filter(|_| rng.gen_bool(keep)).collect())
}

/// `Slice::lines` against the reference on random subsets and on the
/// Figure-7 slice of every `write`.
fn assert_lines_match(p: &Program, rng: &mut Rng) {
    let n = Numbering::of(p);
    for _ in 0..4 {
        let s = random_subset(rng, p);
        assert_eq!(s.lines(p), lines_by_line_of(&s, &n));
    }
    let a = Analysis::new(p);
    for &s in &n.order {
        if let StmtKind::Write { .. } = p.stmt(s).kind {
            let slice = agrawal_slice(&a, &Criterion::at_stmt(s));
            assert_eq!(slice.lines(p), lines_by_line_of(&slice, &n));
        }
    }
}

fn generated(rng: &mut Rng) -> Program {
    let cfg = GenConfig::sized(rng.next_u64(), rng.gen_range(5..80usize));
    if rng.gen_bool(0.5) {
        gen_structured(&cfg)
    } else {
        gen_unstructured(&cfg.with_jump_density(0.25))
    }
}

/// One random edit that inserts or deletes a statement.
fn insert_or_delete(rng: &mut Rng, p: &Program) -> Edit {
    loop {
        let e = random_edit(rng, p);
        if matches!(e, Edit::InsertStmt { .. } | Edit::DeleteStmt { .. }) {
            return e;
        }
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
fn line_table_matches_an_independent_walk_on_figures_and_generators() {
    for (_, p, _) in corpus::all() {
        assert_table_matches(&p);
    }
    check(48, |rng| {
        let cfg = GenConfig::sized(rng.next_u64(), rng.gen_range(1..120usize));
        assert_table_matches(&gen_structured(&cfg));
        assert_table_matches(&gen_unstructured(&cfg.with_jump_density(0.3)));
    });
}

#[test]
fn line_table_matches_an_independent_walk_after_every_edit_kind() {
    check(16, |rng| {
        let mut p = generated(rng);
        let mut applied = [0usize; 4];
        while applied.iter().any(|&k| k < 2) {
            // Rejected edits leave the program as it was; draw another.
            let e = random_edit(rng, &p);
            if let Ok(next) = apply_edit(&p, &e) {
                p = next.prog;
                applied[edit_kind(&e)] += 1;
                assert_table_matches(&p);
            }
        }
    });
}

#[test]
fn line_table_matches_an_independent_walk_after_a_snapshot_round_trip() {
    let mut progs: Vec<Program> = corpus::all().into_iter().map(|(_, p, _)| p).collect();
    let mut rng = Rng::seed_from_u64(17);
    progs.extend((0..8).map(|_| generated(&mut rng)));
    for p in progs {
        let a = Analysis::new(&p);
        a.warm();
        let bytes = encode_snapshot(&print_program(&p), &p, &a.into_seed());
        let back = decode_snapshot(&bytes)
            .expect("a fresh snapshot decodes")
            .prog;
        assert_table_matches(&back);
        assert_eq!(back.lexical_order(), p.lexical_order());
    }
}

#[test]
fn slice_lines_match_line_of_on_generated_programs() {
    check(48, |rng| {
        let p = generated(rng);
        assert_lines_match(&p, rng);
    });
}

#[test]
fn slice_lines_match_line_of_after_insert_and_delete_edits() {
    check(32, |rng| {
        let mut p = generated(rng);
        let mut applied = 0;
        while applied < 6 {
            // Rejected edits (an orphaned label, an emptied program) leave
            // the program as it was; draw another.
            if let Ok(next) = apply_edit(&p, &insert_or_delete(rng, &p)) {
                p = next.prog;
                applied += 1;
                assert_lines_match(&p, rng);
            }
        }
    });
}

/// [`Why::describe`] with lines from the reference walk.
fn describe(why: &Why, n: &Numbering) -> String {
    let pt = |p: &SlicePoint| match p {
        Some(s) => format!("line {}", n.line_of(*s)),
        None => "exit".to_owned(),
    };
    match why {
        Why::Criterion => "criterion statement".to_owned(),
        Why::SeedDef => "reaching definition of a criterion variable".to_owned(),
        Why::Data { to } => format!("data dependence of line {}", n.line_of(*to)),
        Why::Control { to } => format!("control dependence of line {}", n.line_of(*to)),
        Why::Jump {
            round,
            npd,
            nls,
            via_hazard,
        } => {
            if *via_hazard {
                format!(
                    "jump admitted in round {round}: do-while hazard on the lexical-successor path"
                )
            } else {
                format!(
                    "jump admitted in round {round}: nearest postdominator in slice is {} \
                     but nearest lexical successor in slice is {}",
                    pt(npd),
                    pt(nls)
                )
            }
        }
    }
}

/// The provenance report rendered hop by hop from the reference walk, with
/// one whole-program print per statement text.
fn report_reference(prov: &Provenance, p: &Program, slice: &Slice) -> String {
    let n = Numbering::of(p);
    let stmt_text = |s: StmtId| {
        let text = print_slice(p, &|t| t == s, &[]);
        let want = format!("{}: ", n.line_of(s));
        text.lines()
            .map(str::trim_start)
            .find_map(|l| l.strip_prefix(&want))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    };
    let mut out = String::new();
    for s in n.order.iter().copied().filter(|&s| slice.contains(s)) {
        let _ = writeln!(out, "line {:>3}: {}", n.line_of(s), stmt_text(s));
        match prov.chain(s) {
            Some(chain) => {
                for (i, (stmt, why)) in chain.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "{}line {:>3} `{}`: {}",
                        "  ".repeat(i + 1),
                        n.line_of(*stmt),
                        stmt_text(*stmt),
                        describe(why, &n)
                    );
                }
            }
            None => out.push_str("  (no recorded provenance)\n"),
        }
    }
    out
}

fn assert_report_matches(p: &Program, line: usize) {
    let a = Analysis::new(p);
    let (slice, prov) = agrawal_slice_traced(&a, &Criterion::at_stmt(p.at_line(line)));
    assert_eq!(
        prov.report(p, &slice),
        report_reference(&prov, p, &slice),
        "report for line {line} of\n{}",
        print_program(p)
    );
}

#[test]
fn provenance_report_is_byte_identical_on_paper_figures() {
    for (_, p, _) in corpus::all() {
        for line in 1..=p.len() {
            assert_report_matches(&p, line);
        }
    }
}

#[test]
fn provenance_report_is_byte_identical_on_generated_programs() {
    check(24, |rng| {
        let p = generated(rng);
        let n = p.len();
        for _ in 0..3 {
            assert_report_matches(&p, rng.gen_range(1..n + 1));
        }
    });
}

#[test]
fn provenance_report_falls_back_for_statements_without_a_chain() {
    // A hand-built slice that reaches past the traced one renders the
    // extra statements with the no-provenance marker, as before.
    let p = corpus::fig3();
    let a = Analysis::new(&p);
    let (_, prov) = agrawal_slice_traced(&a, &Criterion::at_stmt(p.at_line(15)));
    let all = Slice::from_stmts(p.stmt_ids().collect());
    let report = prov.report(&p, &all);
    assert!(report.contains("(no recorded provenance)"), "{report}");
    assert_eq!(report, report_reference(&prov, &p, &all));
}
