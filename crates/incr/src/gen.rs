//! Random edit generation for the differential harness.
//!
//! Given a program and a deterministic RNG, [`random_edit`] produces one
//! edit whose path resolves in that program. The edit may still be
//! *rejected* by the session (a toggle can orphan a label or strand a
//! loop); the harness counts rejections and moves on — a rejected edit
//! must leave the session state byte-identical, which is itself part of
//! what the fuzzing checks.

use crate::apply::has_primary_expr;
use crate::edit::{Edit, EditExpr, JumpKind, NewStmt};
use jumpslice_lang::{path_of, BinOp, Program, StmtId, StmtPath};
use jumpslice_testkit::Rng;

fn var_pool(p: &Program) -> Vec<String> {
    let mut vars: Vec<String> = p
        .defined_vars()
        .iter()
        .map(|&n| p.name_str(n).to_owned())
        .collect();
    if vars.is_empty() {
        vars.push("v0".to_owned());
    }
    vars
}

fn random_expr(rng: &mut Rng, vars: &[String], depth: usize) -> EditExpr {
    if depth == 0 || rng.gen_bool(0.45) {
        if rng.gen_bool(0.7) {
            EditExpr::Var(vars[rng.gen_range(0..vars.len())].clone())
        } else {
            EditExpr::Num(rng.gen_range(0..10usize) as i64)
        }
    } else {
        const OPS: [BinOp; 6] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Lt,
            BinOp::Gt,
            BinOp::Eq,
        ];
        let op = OPS[rng.gen_range(0..OPS.len())];
        let l = random_expr(rng, vars, depth - 1);
        let r = random_expr(rng, vars, depth - 1);
        EditExpr::bin(op, l, r)
    }
}

fn random_new_stmt(rng: &mut Rng, vars: &[String]) -> NewStmt {
    // Occasionally define a brand-new variable: edits must be able to grow
    // the interner.
    let var = if rng.gen_bool(0.15) {
        format!("n{}", rng.gen_range(0..3usize))
    } else {
        vars[rng.gen_range(0..vars.len())].clone()
    };
    match rng.gen_range(0..10usize) {
        0..=4 => NewStmt::Assign {
            var,
            rhs: random_expr(rng, vars, 2),
        },
        5..=6 => NewStmt::Read { var },
        7..=8 => NewStmt::Write {
            arg: random_expr(rng, vars, 2),
        },
        _ => NewStmt::Skip,
    }
}

fn path_to(p: &Program, s: StmtId) -> StmtPath {
    path_of(p, s).expect("lexical statements are reachable from the body")
}

fn random_insert(rng: &mut Rng, p: &Program, order: &[StmtId], vars: &[String]) -> Edit {
    // Insert before a random statement, or append at the top level.
    let k = rng.gen_range(0..order.len() + 1);
    let at = if k < order.len() {
        path_to(p, order[k])
    } else {
        StmtPath::root(p.body().len())
    };
    Edit::InsertStmt {
        at,
        stmt: random_new_stmt(rng, vars),
    }
}

/// Generates one random edit whose path resolves in `p`.
pub fn random_edit(rng: &mut Rng, p: &Program) -> Edit {
    let order = p.lexical_order();
    let vars = var_pool(p);
    if order.is_empty() {
        return Edit::InsertStmt {
            at: StmtPath::root(0),
            stmt: random_new_stmt(rng, &vars),
        };
    }

    let roll = rng.gen_range(0..100usize);
    if roll < 40 {
        // Replace the primary expression of a random eligible statement.
        let eligible: Vec<StmtId> = order
            .iter()
            .copied()
            .filter(|&s| has_primary_expr(&p.stmt(s).kind))
            .collect();
        if let Some(&t) = eligible.get(rng.gen_range(0..eligible.len().max(1))) {
            return Edit::ReplaceExpr {
                at: path_to(p, t),
                with: random_expr(rng, &vars, 2),
            };
        }
        random_insert(rng, p, order, &vars)
    } else if roll < 65 {
        random_insert(rng, p, order, &vars)
    } else if roll < 85 {
        let t = order[rng.gen_range(0..order.len())];
        Edit::DeleteStmt { at: path_to(p, t) }
    } else {
        let simple: Vec<StmtId> = order
            .iter()
            .copied()
            .filter(|&s| !p.stmt(s).kind.is_compound())
            .collect();
        let Some(&t) = simple.get(rng.gen_range(0..simple.len().max(1))) else {
            return random_insert(rng, p, order, &vars);
        };
        let labels: Vec<String> = p.all_labels().map(|l| p.label_str(l).to_owned()).collect();
        let jump = match rng.gen_range(0..4usize) {
            0 => JumpKind::Break,
            1 => JumpKind::Continue,
            2 => JumpKind::Return,
            _ if !labels.is_empty() => {
                JumpKind::Goto(labels[rng.gen_range(0..labels.len())].clone())
            }
            _ => JumpKind::Break,
        };
        Edit::ToggleJump {
            at: path_to(p, t),
            jump,
        }
    }
}
