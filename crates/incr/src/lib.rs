//! Incremental edit-and-reslice sessions.
//!
//! Serving slices interactively means the expensive analyses — the PDG
//! with its factored data half, postdominators, the LST — should survive
//! small program edits where they stay valid. This crate adds that layer
//! on top of the per-program caching of [`jumpslice_core::Analysis`]: an
//! [`EditSession`] owns a program and its warm artifacts and accepts edits
//! from a small edit language expressed against
//! [`jumpslice_lang::StmtPath`]s. An expression replacement patches the
//! PDG's data half in place; every other edit resets the session to the
//! edited program's flowgraph, and the next analysis rebuilds the rest —
//! explicitly, and counted, so tests can assert exactly when the patch
//! engaged.
//!
//! The correctness contract is blunt: **slicing through a session after
//! any sequence of edits is identical to slicing a freshly analyzed copy
//! of the edited program** — every slicer, every criterion. The
//! differential harness's `incr` mode drives random edit scripts against
//! exactly this invariant and shrinks any failing script.
//!
//! # Examples
//!
//! ```
//! use jumpslice_core::{conventional_slice, Criterion};
//! use jumpslice_incr::{ApplyPath, Edit, EditExpr, EditSession};
//! use jumpslice_lang::{parse, StmtPath};
//!
//! let p = parse("x = 1; y = x + 1; write(y);")?;
//! let mut session = EditSession::new(p);
//!
//! // Slice once: the analysis warms up.
//! let n = session.with_analysis(|a| {
//!     conventional_slice(a, &Criterion::at_stmt(a.prog().at_line(3))).len()
//! });
//! assert_eq!(n, 3);
//!
//! // Cut the dependence on x: `y = x + 1` becomes `y = 7`.
//! let out = session.apply(&Edit::ReplaceExpr {
//!     at: StmtPath::root(1),
//!     with: EditExpr::Num(7),
//! })?;
//! assert_eq!(out.path, ApplyPath::ExprPatch); // everything reused
//!
//! let n = session.with_analysis(|a| {
//!     conventional_slice(a, &Criterion::at_stmt(a.prog().at_line(3))).len()
//! });
//! assert_eq!(n, 2); // x = 1 fell out of the slice
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod apply;
mod edit;
mod gen;
mod session;

pub use apply::{apply_edit, Applied};
pub use edit::{Edit, EditError, EditExpr, JumpKind, NewStmt};
pub use gen::random_edit;
pub use session::{ApplyPath, EditOutcome, EditSession, IncrStats};
