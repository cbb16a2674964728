//! The edit language.
//!
//! Edits are expressed against [`StmtPath`]s — structural positions — and
//! carry their payloads in a *program-independent* form: variable and
//! function names are strings, not [`jumpslice_lang::Name`] indices, so an
//! edit can be constructed without access to the target program's interner
//! and can introduce names the program has never seen.

use jumpslice_lang::{BinOp, Expr, Program, StmtPath, UnOp};
use std::fmt;

/// A program-independent expression. Mirrors [`Expr`] with interned names
/// replaced by strings.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditExpr {
    /// Integer literal.
    Num(i64),
    /// Variable reference, by name.
    Var(String),
    /// Unary operation.
    Unary(UnOp, Box<EditExpr>),
    /// Binary operation.
    Binary(BinOp, Box<EditExpr>, Box<EditExpr>),
    /// Call to an uninterpreted pure function.
    Call(String, Vec<EditExpr>),
}

impl EditExpr {
    /// Variable reference.
    pub fn var(name: &str) -> EditExpr {
        EditExpr::Var(name.to_owned())
    }

    /// Binary operation.
    pub fn bin(op: BinOp, l: EditExpr, r: EditExpr) -> EditExpr {
        EditExpr::Binary(op, Box::new(l), Box::new(r))
    }

    /// Detaches an expression of `p` into the program-independent form.
    pub fn from_expr(p: &Program, e: &Expr) -> EditExpr {
        match e {
            Expr::Num(n) => EditExpr::Num(*n),
            Expr::Var(v) => EditExpr::Var(p.name_str(*v).to_owned()),
            Expr::Unary(op, inner) => EditExpr::Unary(*op, Box::new(EditExpr::from_expr(p, inner))),
            Expr::Binary(op, l, r) => EditExpr::Binary(
                *op,
                Box::new(EditExpr::from_expr(p, l)),
                Box::new(EditExpr::from_expr(p, r)),
            ),
            Expr::Call(f, args) => EditExpr::Call(
                p.name_str(*f).to_owned(),
                args.iter().map(|a| EditExpr::from_expr(p, a)).collect(),
            ),
        }
    }
}

/// A simple statement an [`Edit::InsertStmt`] can introduce. Compound
/// statements and jumps are deliberately absent: insertions stay on the
/// analysis fast path, and jumps arrive through [`Edit::ToggleJump`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NewStmt {
    /// `var = rhs;`
    Assign {
        /// Variable assigned (interned on insertion, possibly fresh).
        var: String,
        /// Right-hand side.
        rhs: EditExpr,
    },
    /// `read(var);`
    Read {
        /// Variable defined.
        var: String,
    },
    /// `write(arg);`
    Write {
        /// Expression written.
        arg: EditExpr,
    },
    /// `;`
    Skip,
}

/// The jump statement a [`Edit::ToggleJump`] turns its target into.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JumpKind {
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return;`
    Return,
    /// `goto <label>;` — the label must already exist in the program.
    Goto(String),
}

/// One edit against the session's current program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Edit {
    /// Replace the primary expression (assignment right-hand side, branch
    /// condition, written argument, switch scrutinee, or returned value) of
    /// the statement at `at`.
    ReplaceExpr {
        /// The statement whose expression is replaced.
        at: StmtPath,
        /// The replacement expression.
        with: EditExpr,
    },
    /// Insert a simple statement at a slot: `at` resolves as an insertion
    /// position, so its final index may equal the block length (append).
    InsertStmt {
        /// The insertion slot.
        at: StmtPath,
        /// The statement to insert.
        stmt: NewStmt,
    },
    /// Delete the statement at `at` (for a compound statement, the whole
    /// subtree).
    DeleteStmt {
        /// The statement to delete.
        at: StmtPath,
    },
    /// Flip the jump-ness of the statement at `at`: a jump statement
    /// becomes `;` (keeping its labels), while a simple non-jump statement
    /// becomes the given jump. Compound statements cannot be toggled.
    ToggleJump {
        /// The statement to toggle.
        at: StmtPath,
        /// The jump to install when the target is not already a jump.
        jump: JumpKind,
    },
}

impl Edit {
    /// The path the edit operates on.
    pub fn path(&self) -> &StmtPath {
        match self {
            Edit::ReplaceExpr { at, .. }
            | Edit::InsertStmt { at, .. }
            | Edit::DeleteStmt { at }
            | Edit::ToggleJump { at, .. } => at,
        }
    }
}

/// Why an edit was rejected. A rejected edit leaves the session exactly as
/// it was — no partial state is ever kept.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EditError {
    /// The path does not resolve in the current program.
    PathNotFound,
    /// `ReplaceExpr` targeted a statement with no primary expression
    /// (`read`, `;`, `goto`, `break`, `continue`, or a bare `return`).
    NoExpression,
    /// `ToggleJump` targeted a compound statement.
    NotToggleable,
    /// The edited program failed semantic validation (undefined label,
    /// `break`/`continue` outside a loop, …).
    Invalid(String),
    /// The program — edited, loaded or restored — has statements that
    /// cannot reach the exit, so postdominators — and every slicer — are
    /// undefined for it.
    Unanalyzable,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::PathNotFound => write!(f, "edit path does not resolve"),
            EditError::NoExpression => write!(f, "target statement has no primary expression"),
            EditError::NotToggleable => write!(f, "cannot toggle a compound statement"),
            EditError::Invalid(msg) => write!(f, "edited program is invalid: {msg}"),
            EditError::Unanalyzable => {
                write!(f, "program has statements that cannot reach the exit")
            }
        }
    }
}

impl std::error::Error for EditError {}
