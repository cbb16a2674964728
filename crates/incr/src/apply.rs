//! Applying one [`Edit`] to a [`Program`].
//!
//! The language's programs are immutable value types, so an edit is applied
//! by rebuilding through [`ProgramBuilder`], walking the old program and
//! diverging only at the edit site.
//!
//! Two invariants make artifact reuse possible:
//!
//! * **Name stability** — every old name is re-interned first, in interning
//!   order, so a surviving statement's [`jumpslice_lang::Name`]s mean the
//!   same thing in the new program (new names from the edit append after).
//! * **Emit-order ids** — the builder assigns arena ids in push order, and
//!   the walk re-emits in the old build order, so an edit that deletes or
//!   inserts nothing (an expression replacement) reproduces every old id
//!   exactly; the walk records whether it did ([`Applied::same_ids`]).

use crate::edit::{Edit, EditError, EditExpr, JumpKind, NewStmt};
use jumpslice_lang::{BlockSel, Expr, Program, ProgramBuilder, StmtId, StmtKind};

/// The result of [`apply_edit`]: the edited program, whether it kept every
/// statement id, and the new id of the statement the edit produced or
/// modified (`None` for a deletion).
#[derive(Clone, Debug)]
pub struct Applied {
    /// The edited program.
    pub prog: Program,
    /// Whether every old statement kept its exact id and no statement was
    /// added — the precondition for reusing id-addressed artifacts as-is.
    pub same_ids: bool,
    /// New id of the inserted / replaced / toggled statement.
    pub touched: Option<StmtId>,
}

/// Does this statement carry a primary expression [`Edit::ReplaceExpr`]
/// can target?
pub(crate) fn has_primary_expr(kind: &StmtKind) -> bool {
    matches!(
        kind,
        StmtKind::Assign { .. }
            | StmtKind::Write { .. }
            | StmtKind::If { .. }
            | StmtKind::While { .. }
            | StmtKind::DoWhile { .. }
            | StmtKind::Switch { .. }
            | StmtKind::CondGoto { .. }
            | StmtKind::Return { value: Some(_) }
    )
}

/// Applies `edit` to `p`, returning the rebuilt program.
///
/// # Errors
///
/// Rejects the edit — without producing a program — when the path does not
/// resolve, the target cannot carry the edit, or the rebuilt program fails
/// semantic validation. The input program is never modified.
pub fn apply_edit(p: &Program, edit: &Edit) -> Result<Applied, EditError> {
    let mut target = None;
    let mut slot = None;
    match edit {
        Edit::ReplaceExpr { at, .. } => {
            let t = at.resolve(p).ok_or(EditError::PathNotFound)?;
            if !has_primary_expr(&p.stmt(t).kind) {
                return Err(EditError::NoExpression);
            }
            target = Some(t);
        }
        Edit::InsertStmt { at, .. } => {
            slot = Some(at.resolve_slot(p).ok_or(EditError::PathNotFound)?);
        }
        Edit::DeleteStmt { at } => {
            target = Some(at.resolve(p).ok_or(EditError::PathNotFound)?);
        }
        Edit::ToggleJump { at, .. } => {
            let t = at.resolve(p).ok_or(EditError::PathNotFound)?;
            if p.stmt(t).kind.is_compound() {
                return Err(EditError::NotToggleable);
            }
            target = Some(t);
        }
    }

    let mut b = ProgramBuilder::new();
    // Name stability: re-intern every old name first, in order.
    for n in p.all_names() {
        let _ = b.var(p.name_str(n));
    }
    let mut st = WalkState {
        p,
        edit,
        target,
        slot,
        kept: 0,
        touched: None,
    };
    emit_block(&mut st, &mut b, None, BlockSel::Body, p.body());
    let WalkState { kept, touched, .. } = st;
    let prog = b.build().map_err(|e| EditError::Invalid(e.to_string()))?;
    Ok(Applied {
        same_ids: kept == p.len() && prog.len() == p.len(),
        prog,
        touched,
    })
}

struct WalkState<'a> {
    p: &'a Program,
    edit: &'a Edit,
    /// Resolved target of a replace / delete / toggle, in the old arena.
    target: Option<StmtId>,
    /// Resolved insertion slot: (owning old statement, block, index).
    slot: Option<(Option<StmtId>, BlockSel, usize)>,
    /// Old statements re-emitted under their own id.
    kept: usize,
    touched: Option<StmtId>,
}

/// Re-interns an [`EditExpr`] into the program under construction.
fn emit_edit_expr(b: &mut ProgramBuilder, e: &EditExpr) -> Expr {
    match e {
        EditExpr::Num(n) => Expr::Num(*n),
        EditExpr::Var(v) => b.var(v),
        EditExpr::Unary(op, inner) => Expr::un(*op, emit_edit_expr(b, inner)),
        EditExpr::Binary(op, l, r) => {
            let l = emit_edit_expr(b, l);
            let r = emit_edit_expr(b, r);
            Expr::bin(*op, l, r)
        }
        EditExpr::Call(f, args) => {
            let args: Vec<Expr> = args.iter().map(|a| emit_edit_expr(b, a)).collect();
            b.call(f, args)
        }
    }
}

fn emit_new_stmt(b: &mut ProgramBuilder, s: &NewStmt) -> StmtId {
    match s {
        NewStmt::Assign { var, rhs } => {
            let rhs = emit_edit_expr(b, rhs);
            b.assign(var, rhs)
        }
        NewStmt::Read { var } => b.read(var),
        NewStmt::Write { arg } => {
            let arg = emit_edit_expr(b, arg);
            b.write(arg)
        }
        NewStmt::Skip => b.skip(),
    }
}

fn emit_block(
    st: &mut WalkState<'_>,
    b: &mut ProgramBuilder,
    owner: Option<StmtId>,
    sel: BlockSel,
    block: &[StmtId],
) {
    let insert_at = match st.slot {
        Some((o, s, idx)) if o == owner && s == sel => Some(idx),
        _ => None,
    };
    for (i, &s) in block.iter().enumerate() {
        if insert_at == Some(i) {
            if let Edit::InsertStmt { stmt, .. } = st.edit {
                st.touched = Some(emit_new_stmt(b, stmt));
            }
        }
        if matches!(st.edit, Edit::DeleteStmt { .. }) && st.target == Some(s) {
            continue; // the whole subtree is dropped
        }
        emit_stmt(st, b, s);
    }
    if insert_at == Some(block.len()) {
        if let Edit::InsertStmt { stmt, .. } = st.edit {
            st.touched = Some(emit_new_stmt(b, stmt));
        }
    }
}

fn emit_stmt(st: &mut WalkState<'_>, b: &mut ProgramBuilder, s: StmtId) {
    let p = st.p;
    let edit = st.edit;
    for &l in p.labels_of(s) {
        b.label(p.label_str(l));
    }

    // Toggled statement: swap the kind, keep the labels.
    if st.target == Some(s) {
        if let Edit::ToggleJump { jump, .. } = st.edit {
            let id = if p.stmt(s).kind.is_jump() {
                b.skip()
            } else {
                match jump {
                    JumpKind::Break => b.break_(),
                    JumpKind::Continue => b.continue_(),
                    JumpKind::Return => b.ret(None),
                    JumpKind::Goto(label) => b.goto(label),
                }
            };
            st.kept += usize::from(id == s);
            st.touched = Some(id);
            return;
        }
    }

    let replacing = match edit {
        Edit::ReplaceExpr { with, .. } if st.target == Some(s) => Some(with),
        _ => None,
    };
    // The primary expression the rebuilt statement carries.
    let pick = |b: &mut ProgramBuilder, e: &Expr| match replacing {
        Some(with) => emit_edit_expr(b, with),
        None => import_expr(p, b, e),
    };

    let id = match &p.stmt(s).kind {
        StmtKind::Assign { lhs, rhs } => {
            let e = pick(b, rhs);
            b.assign(p.name_str(*lhs), e)
        }
        StmtKind::Read { var } => b.read(p.name_str(*var)),
        StmtKind::Write { arg } => {
            let e = pick(b, arg);
            b.write(e)
        }
        StmtKind::Skip => b.skip(),
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            let c = pick(b, cond);
            b.if_else_with(
                c,
                st,
                |st, b2| emit_block(st, b2, Some(s), BlockSel::Then, then_branch),
                |st, b2| emit_block(st, b2, Some(s), BlockSel::Else, else_branch),
            )
        }
        StmtKind::While { cond, body } => {
            let c = pick(b, cond);
            b.while_(c, |b2| emit_block(st, b2, Some(s), BlockSel::Body, body))
        }
        StmtKind::DoWhile { body, cond } => {
            let c = pick(b, cond);
            b.do_while(|b2| emit_block(st, b2, Some(s), BlockSel::Body, body), c)
        }
        StmtKind::Switch { scrutinee, arms } => {
            let e = pick(b, scrutinee);
            b.switch(e, |sw| {
                for (k, arm) in arms.iter().enumerate() {
                    sw.arm(&arm.guards, |b2| {
                        emit_block(st, b2, Some(s), BlockSel::Arm(k), &arm.body)
                    });
                }
            })
        }
        StmtKind::Goto { target } => b.goto(p.label_str(*target)),
        StmtKind::CondGoto { cond, target } => {
            let label = p.label_str(*target).to_owned();
            let c = pick(b, cond);
            b.cond_goto(c, &label)
        }
        StmtKind::Break => b.break_(),
        StmtKind::Continue => b.continue_(),
        StmtKind::Return { value } => {
            let v = value.as_ref().map(|e| pick(b, e));
            b.ret(v)
        }
    };
    st.kept += usize::from(id == s);
    if st.target == Some(s) {
        st.touched = Some(id);
    }
}

/// Re-interns an expression of `p` into the builder (names are stable by
/// pre-interning, but re-interning keeps this correct even for detached
/// expressions).
fn import_expr(p: &Program, b: &mut ProgramBuilder, e: &Expr) -> Expr {
    match e {
        Expr::Num(n) => Expr::Num(*n),
        Expr::Var(v) => b.var(p.name_str(*v)),
        Expr::Unary(op, inner) => Expr::un(*op, import_expr(p, b, inner)),
        Expr::Binary(op, l, r) => {
            let l = import_expr(p, b, l);
            let r = import_expr(p, b, r);
            Expr::bin(*op, l, r)
        }
        Expr::Call(f, args) => {
            let args: Vec<Expr> = args.iter().map(|a| import_expr(p, b, a)).collect();
            b.call(p.name_str(*f), args)
        }
    }
}
