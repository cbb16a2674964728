//! Paper-style line mapping. `Slice::lines` and the provenance report walk
//! the lexical order once per call; they must agree with the per-statement
//! `Program::line_of` definition of "line n" — on the paper's figures, on
//! generated structured and unstructured programs, and after insert/delete
//! edits, none of which keep statement ids in lexical order.

use jumpslice::incr::random_edit;
use jumpslice::lang::StmtKind;
use jumpslice::prelude::*;
use jumpslice_testkit::{check, Rng};
use std::fmt::Write as _;

/// The reference mapping: each statement's own `line_of`, then sorted.
fn lines_by_line_of(slice: &Slice, p: &Program) -> Vec<usize> {
    let mut lines: Vec<usize> = slice.stmts.iter().map(|s| p.line_of(s)).collect();
    lines.sort_unstable();
    lines
}

/// A random subset of the program's statements.
fn random_subset(rng: &mut Rng, p: &Program) -> Slice {
    let keep = rng.gen_f64();
    Slice::from_stmts(
        p.lexical_order()
            .into_iter()
            .filter(|_| rng.gen_bool(keep))
            .collect(),
    )
}

/// `Slice::lines` against the reference on random subsets and on the
/// Figure-7 slice of every `write`.
fn assert_lines_match(p: &Program, rng: &mut Rng) {
    for _ in 0..4 {
        let s = random_subset(rng, p);
        assert_eq!(s.lines(p), lines_by_line_of(&s, p));
    }
    let a = Analysis::new(p);
    for s in p.lexical_order() {
        if let StmtKind::Write { .. } = p.stmt(s).kind {
            let slice = agrawal_slice(&a, &Criterion::at_stmt(s));
            assert_eq!(slice.lines(p), lines_by_line_of(&slice, p));
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

/// The provenance report as it was rendered before the line table: one
/// `line_of` walk per hop and one whole-program print per statement text.
fn report_reference(prov: &Provenance, p: &Program, slice: &Slice) -> String {
    let stmt_text = |s: StmtId| {
        let text = print_slice(p, &|t| t == s, &[]);
        let want = format!("{}: ", p.line_of(s));
        text.lines()
            .map(str::trim_start)
            .find_map(|l| l.strip_prefix(&want))
            .map(|l| l.trim().to_owned())
            .unwrap_or_default()
    };
    let mut out = String::new();
    let mut stmts: Vec<StmtId> = slice.stmts.iter().collect();
    stmts.sort_by_key(|&s| p.line_of(s));
    for s in stmts {
        let _ = writeln!(out, "line {:>3}: {}", p.line_of(s), stmt_text(s));
        match prov.chain(s) {
            Some(chain) => {
                for (i, (stmt, why)) in chain.iter().enumerate() {
                    let _ = writeln!(
                        out,
                        "{}line {:>3} `{}`: {}",
                        "  ".repeat(i + 1),
                        p.line_of(*stmt),
                        stmt_text(*stmt),
                        why.describe(p)
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
        for line in 1..=p.lexical_order().len() {
            assert_report_matches(&p, line);
        }
    }
}

#[test]
fn provenance_report_is_byte_identical_on_generated_programs() {
    check(24, |rng| {
        let p = generated(rng);
        let n = p.lexical_order().len();
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
    let all = Slice::from_stmts(p.lexical_order().into_iter().collect());
    let report = prov.report(&p, &all);
    assert!(report.contains("(no recorded provenance)"), "{report}");
    assert_eq!(report, report_reference(&prov, &p, &all));
}
