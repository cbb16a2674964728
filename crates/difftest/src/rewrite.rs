//! Rebuilding a program with one expression replaced — the shrinker's
//! second phase (predicate simplification).
//!
//! Statement *deletion* goes through the pretty-printer's filter and a
//! reparse (`shrink.rs`), but replacing an expression has no printed form
//! to filter, so this module reconstructs the whole program through
//! [`ProgramBuilder`]. Names and labels are interner indices private to
//! their owning [`Program`], so every identifier crosses the boundary as a
//! string and every expression is re-interned node by node.

use jumpslice_lang::{Expr, Program, ProgramBuilder, StmtId, StmtKind};

/// Re-interns `e` (which belongs to `p`) into the program under
/// construction in `b`.
pub fn import_expr(p: &Program, b: &mut ProgramBuilder, e: &Expr) -> Expr {
    match e {
        Expr::Num(n) => Expr::Num(*n),
        Expr::Var(v) => b.var(p.name_str(*v)),
        Expr::Unary(op, inner) => Expr::Unary(*op, Box::new(import_expr(p, b, inner))),
        Expr::Binary(op, l, r) => Expr::Binary(
            *op,
            Box::new(import_expr(p, b, l)),
            Box::new(import_expr(p, b, r)),
        ),
        Expr::Call(f, args) => {
            let imported: Vec<Expr> = args.iter().map(|a| import_expr(p, b, a)).collect();
            b.call(p.name_str(*f), imported)
        }
    }
}

/// Number of nodes in an expression — the shrinker's notion of "simpler".
pub fn expr_size(e: &Expr) -> usize {
    match e {
        Expr::Num(_) | Expr::Var(_) => 1,
        Expr::Unary(_, inner) => 1 + expr_size(inner),
        Expr::Binary(_, l, r) => 1 + expr_size(l) + expr_size(r),
        Expr::Call(_, args) => 1 + args.iter().map(expr_size).sum::<usize>(),
    }
}

/// The primary expression of a statement, if it has one: the branch
/// condition, assignment right-hand side, written argument, switch
/// scrutinee, or returned value.
pub fn stmt_expr(p: &Program, s: StmtId) -> Option<&Expr> {
    match &p.stmt(s).kind {
        StmtKind::Assign { rhs, .. } => Some(rhs),
        StmtKind::Write { arg } => Some(arg),
        StmtKind::If { cond, .. }
        | StmtKind::While { cond, .. }
        | StmtKind::DoWhile { cond, .. }
        | StmtKind::CondGoto { cond, .. } => Some(cond),
        StmtKind::Switch { scrutinee, .. } => Some(scrutinee),
        StmtKind::Return { value } => value.as_ref(),
        _ => None,
    }
}

/// Rebuilds `p` with the primary expression of `target` replaced by
/// `replacement` (expressed in `p`'s interner; it is re-interned during the
/// rebuild). Returns `None` if the rebuilt program fails validation, which
/// can only happen through label plumbing and is treated as "candidate
/// rejected" by the shrinker.
pub fn replace_expr(p: &Program, target: StmtId, replacement: &Expr) -> Option<Program> {
    let mut b = ProgramBuilder::new();
    emit_block(p, &mut b, p.body(), target, replacement);
    b.build().ok()
}

fn emit_block(
    p: &Program,
    b: &mut ProgramBuilder,
    block: &[StmtId],
    target: StmtId,
    replacement: &Expr,
) {
    for &s in block {
        emit_stmt(p, b, s, target, replacement);
    }
}

fn emit_stmt(p: &Program, b: &mut ProgramBuilder, s: StmtId, target: StmtId, replacement: &Expr) {
    for &l in p.labels_of(s) {
        b.label(p.label_str(l));
    }
    // The expression this statement should carry in the rebuilt program.
    let pick = |b: &mut ProgramBuilder, e: &Expr| {
        if s == target {
            import_expr(p, b, replacement)
        } else {
            import_expr(p, b, e)
        }
    };
    match &p.stmt(s).kind {
        StmtKind::Assign { lhs, rhs } => {
            let e = pick(b, rhs);
            b.assign(p.name_str(*lhs), e);
        }
        StmtKind::Read { var } => {
            b.read(p.name_str(*var));
        }
        StmtKind::Write { arg } => {
            let e = pick(b, arg);
            b.write(e);
        }
        StmtKind::Skip => {
            b.skip();
        }
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = pick(b, cond);
            b.if_else_with(
                c,
                &mut (),
                |_, b2| emit_block(p, b2, then_branch, target, replacement),
                |_, b2| emit_block(p, b2, else_branch, target, replacement),
            );
        }
        StmtKind::While { cond, body } => {
            let c = pick(b, cond);
            // while_/do_while take plain closures; the recursive emit only
            // borrows immutably from `p`, so a move closure suffices.
            b.while_(c, |b2| emit_block(p, b2, body, target, replacement));
        }
        StmtKind::DoWhile { body, cond } => {
            let c = pick(b, cond);
            b.do_while(|b2| emit_block(p, b2, body, target, replacement), c);
        }
        StmtKind::Switch { scrutinee, arms } => {
            let e = pick(b, scrutinee);
            b.switch(e, |sw| {
                for arm in arms {
                    sw.arm(&arm.guards, |b2| {
                        emit_block(p, b2, &arm.body, target, replacement)
                    });
                }
            });
        }
        StmtKind::Goto { target: l } => {
            b.goto(p.label_str(*l));
        }
        StmtKind::CondGoto { cond, target: l } => {
            let label = p.label_str(*l).to_owned();
            let c = pick(b, cond);
            b.cond_goto(c, &label);
        }
        StmtKind::Break => {
            b.break_();
        }
        StmtKind::Continue => {
            b.continue_();
        }
        StmtKind::Return { value } => {
            let v = value.as_ref().map(|e| pick(b, e));
            b.ret(v);
        }
    }
}

/// Candidate replacement expressions strictly simpler than `e`: the
/// constants `0` and `1`, plus every immediate operand.
pub fn simpler_candidates(e: &Expr) -> Vec<Expr> {
    let mut out = vec![Expr::Num(0), Expr::Num(1)];
    match e {
        Expr::Unary(_, inner) => out.push((**inner).clone()),
        Expr::Binary(_, l, r) => {
            out.push((**l).clone());
            out.push((**r).clone());
        }
        Expr::Call(_, args) => out.extend(args.iter().cloned()),
        _ => {}
    }
    let bound = expr_size(e);
    out.retain(|c| expr_size(c) < bound);
    out.dedup();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::{parse, print_program};

    #[test]
    fn identity_rebuild_roundtrips() {
        let src = "read(x);
             L0: if (x > 0) { y = f1(x); } else { y = 0; }
             while (!eof()) { x = x - 1; if (x == 2) break; }
             do { y = y + 1; } while (y < 3);
             switch (x) { case 0: y = 9; break; default: y = 8; }
             if (y > 0) goto L0;
             write(y);";
        let p = parse(src).unwrap();
        // Replacing a statement's expression with itself must round-trip.
        let s = p.at_line(1); // read — has no expr, so nothing is replaced
        let q = replace_expr(&p, s, &Expr::Num(0)).unwrap();
        assert_eq!(print_program(&p), print_program(&q));
    }

    #[test]
    fn replaces_a_predicate() {
        let p = parse("read(x); if (x > 0) { y = 1; } write(y);").unwrap();
        let cond_stmt = p.at_line(2);
        let q = replace_expr(&p, cond_stmt, &Expr::Num(0)).unwrap();
        let text = print_program(&q);
        assert!(text.contains("if (0)"), "{text}");
        assert!(!text.contains("x > 0"), "{text}");
    }

    #[test]
    fn candidates_shrink_strictly() {
        let p = parse("x = y + (z * 2);").unwrap();
        let e = stmt_expr(&p, p.at_line(1)).unwrap();
        for c in simpler_candidates(e) {
            assert!(expr_size(&c) < expr_size(e));
        }
    }
}
