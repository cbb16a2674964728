//! The mini-C language the slicer operates on.
//!
//! Agrawal's PLDI'94 paper works over an informal C-like pseudocode. This
//! crate gives that language a concrete definition: a lexer, a
//! recursive-descent parser, an arena-based AST with stable statement ids, a
//! programmatic builder, label/semantic validation, lexical-structure
//! queries, and a pretty-printer able to render residual slices.
//!
//! The language covers exactly the constructs the paper exercises —
//! assignments, `read`/`write`, `if`/`else`, `while` (plus `do`/`while` as a
//! documented extension), `switch`/`case`/`default` with C fall-through,
//! `goto`/labels, `break`, `continue`, `return`, and calls to uninterpreted
//! pure functions such as `f1(x)` and `eof()`.
//!
//! Following the paper's Figure 4 (where `L3: if (eof()) goto L14` is a
//! single flowgraph node), the parser fuses the exact pattern
//! `if (c) goto L;` into one [`StmtKind::CondGoto`] statement.
//!
//! # Examples
//!
//! ```
//! use jumpslice_lang::parse;
//!
//! let program = parse(
//!     "sum = 0;
//!      while (!eof()) { read(x); sum = sum + x; }
//!      write(sum);",
//! )?;
//! assert_eq!(program.len(), 5);
//! assert_eq!(program.line_of(program.at_line(4)), 4);
//! # Ok::<(), jumpslice_lang::Error>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod builder;
mod error;
mod intern;
mod lexer;
mod parser;
mod path;
mod print;
mod structure;
mod validate;

pub use ast::{
    BinOp, CaseGuard, Expr, Label, Name, Program, Stmt, StmtId, StmtKind, SwitchArm, UnOp,
};
pub use builder::{ProgramBuilder, SwitchArms};
pub use error::{Error, ErrorKind};
pub use lexer::{Lexer, Span, Token, TokenKind};
pub use parser::{parse, MAX_DEPTH};
pub use path::{path_of, BlockSel, PathStep, StmtPath};
pub use print::{print_program, print_slice, print_with_options, PrintOptions};
pub use structure::Structure;
