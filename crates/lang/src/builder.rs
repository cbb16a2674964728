//! Programmatic construction of [`Program`]s.
//!
//! The builder is the random program generator's backbone and a convenient
//! way to embed fixtures in tests without parsing strings.
//!
//! # Examples
//!
//! ```
//! use jumpslice_lang::{Expr, ProgramBuilder};
//!
//! let mut b = ProgramBuilder::new();
//! let x = b.var("x");
//! b.read("x");
//! b.while_(Expr::gt(x.clone(), Expr::num(0)), |b| {
//!     let x = b.var("x");
//!     b.assign("x", Expr::sub(x, Expr::num(1)));
//! });
//! b.write(x);
//! let program = b.build()?;
//! assert_eq!(program.len(), 4);
//! # Ok::<(), jumpslice_lang::Error>(())
//! ```

use crate::ast::*;
use crate::error::Error;
use crate::validate::Draft;

// Constructor names mirror the surface syntax (`add`, `not`, …); they are
// static constructors, not operator-trait impls, and `Expr: !Copy` makes
// real operator overloading more awkward than these calls.
#[allow(clippy::should_implement_trait)]
impl Expr {
    /// Integer literal.
    pub fn num(n: i64) -> Expr {
        Expr::Num(n)
    }

    /// Unary operation.
    pub fn un(op: UnOp, e: Expr) -> Expr {
        Expr::Unary(op, Box::new(e))
    }

    /// Binary operation.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Binary(op, Box::new(l), Box::new(r))
    }

    /// `l + r`
    pub fn add(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Add, l, r)
    }

    /// `l - r`
    pub fn sub(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Sub, l, r)
    }

    /// `l * r`
    pub fn mul(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Mul, l, r)
    }

    /// `l % r`
    pub fn rem(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Mod, l, r)
    }

    /// `l == r`
    pub fn eq(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Eq, l, r)
    }

    /// `l != r`
    pub fn ne(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Ne, l, r)
    }

    /// `l < r`
    pub fn lt(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Lt, l, r)
    }

    /// `l <= r`
    pub fn le(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Le, l, r)
    }

    /// `l > r`
    pub fn gt(l: Expr, r: Expr) -> Expr {
        Expr::bin(BinOp::Gt, l, r)
    }

    /// `!e`
    pub fn not(e: Expr) -> Expr {
        Expr::un(UnOp::Not, e)
    }
}

/// Incrementally builds a [`Program`]; the `builder` module example
/// shows the typical flow.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    draft: Draft,
    /// Statements of the open blocks, innermost last.
    open: Vec<StmtId>,
    /// Where each nested open block starts in `open`.
    starts: Vec<usize>,
    pending_labels: Vec<Label>,
    next_line: u32,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        ProgramBuilder::default()
    }

    /// Interns a variable name and returns it as an expression.
    pub fn var(&mut self, name: &str) -> Expr {
        Expr::Var(self.draft.name(name))
    }

    /// Interns a function name and builds a call expression.
    pub fn call(&mut self, func: &str, args: Vec<Expr>) -> Expr {
        Expr::Call(self.draft.name(func), args.into_boxed_slice())
    }

    /// `eof()` — the input-exhaustion test used by the paper's examples.
    pub fn eof(&mut self) -> Expr {
        self.call("eof", Vec::new())
    }

    fn reserve_line(&mut self) -> u32 {
        self.next_line += 1;
        self.next_line
    }

    fn push(&mut self, kind: StmtKind, line: u32, labels: Vec<Label>) -> StmtId {
        let id = self.draft.push(kind, line, labels);
        self.open.push(id);
        id
    }

    fn simple(&mut self, kind: StmtKind) -> StmtId {
        let line = self.reserve_line();
        let labels = std::mem::take(&mut self.pending_labels);
        self.push(kind, line, labels)
    }

    /// Attaches `name` as a label to the *next* statement built.
    pub fn label(&mut self, name: &str) -> &mut Self {
        let l = self.draft.label(name);
        self.pending_labels.push(l);
        self
    }

    /// `var = rhs;`
    pub fn assign(&mut self, var: &str, rhs: Expr) -> StmtId {
        let lhs = self.draft.name(var);
        self.simple(StmtKind::Assign { lhs, rhs })
    }

    /// `read(var);`
    pub fn read(&mut self, var: &str) -> StmtId {
        let var = self.draft.name(var);
        self.simple(StmtKind::Read { var })
    }

    /// `write(arg);`
    pub fn write(&mut self, arg: Expr) -> StmtId {
        self.simple(StmtKind::Write { arg })
    }

    /// `;`
    pub fn skip(&mut self) -> StmtId {
        self.simple(StmtKind::Skip)
    }

    /// `goto label;`
    pub fn goto(&mut self, label: &str) -> StmtId {
        let target = self.draft.label(label);
        self.simple(StmtKind::Goto { target })
    }

    /// `if (cond) goto label;` as a single fused conditional jump.
    pub fn cond_goto(&mut self, cond: Expr, label: &str) -> StmtId {
        let target = self.draft.label(label);
        self.simple(StmtKind::CondGoto { cond, target })
    }

    /// `break;`
    pub fn break_(&mut self) -> StmtId {
        self.simple(StmtKind::Break)
    }

    /// `continue;`
    pub fn continue_(&mut self) -> StmtId {
        self.simple(StmtKind::Continue)
    }

    /// `return;` / `return value;`
    pub fn ret(&mut self, value: Option<Expr>) -> StmtId {
        self.simple(StmtKind::Return { value })
    }

    fn open_block(&mut self) {
        self.starts.push(self.open.len());
    }

    /// The statements pushed since the matching [`Self::open_block`], as
    /// one list allocated to fit.
    fn close_block(&mut self) -> Box<[StmtId]> {
        let start = self.starts.pop().expect("a block is open");
        let block = self.open[start..].into();
        self.open.truncate(start);
        block
    }

    fn nested(&mut self, f: impl FnOnce(&mut Self)) -> Box<[StmtId]> {
        self.open_block();
        f(self);
        self.close_block()
    }

    /// `if (cond) { then_f } else { else_f }`
    pub fn if_else(
        &mut self,
        cond: Expr,
        then_f: impl FnOnce(&mut Self),
        else_f: impl FnOnce(&mut Self),
    ) -> StmtId {
        let line = self.reserve_line();
        let labels = std::mem::take(&mut self.pending_labels);
        let then_branch = self.nested(then_f);
        let else_branch = self.nested(else_f);
        self.push(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            line,
            labels,
        )
    }

    /// `if (cond) { then_f }`
    pub fn if_then(&mut self, cond: Expr, then_f: impl FnOnce(&mut Self)) -> StmtId {
        self.if_else(cond, then_f, |_| {})
    }

    /// [`ProgramBuilder::if_else`] threading an external mutable context
    /// through both branch closures.
    ///
    /// Recursive generators cannot capture themselves mutably in two
    /// closures at once; passing the generator as `ctx` sidesteps the
    /// double borrow:
    ///
    /// ```
    /// use jumpslice_lang::{Expr, ProgramBuilder};
    /// let mut b = ProgramBuilder::new();
    /// let mut count = 0u32;
    /// let c = b.var("c");
    /// b.if_else_with(
    ///     c,
    ///     &mut count,
    ///     |n, b| { *n += 1; b.assign("x", Expr::num(1)); },
    ///     |n, b| { *n += 1; b.assign("x", Expr::num(2)); },
    /// );
    /// assert_eq!(count, 2);
    /// # b.build().unwrap();
    /// ```
    pub fn if_else_with<C>(
        &mut self,
        cond: Expr,
        ctx: &mut C,
        then_f: impl FnOnce(&mut C, &mut Self),
        else_f: impl FnOnce(&mut C, &mut Self),
    ) -> StmtId {
        let line = self.reserve_line();
        let labels = std::mem::take(&mut self.pending_labels);
        self.open_block();
        then_f(ctx, self);
        let then_branch = self.close_block();
        self.open_block();
        else_f(ctx, self);
        let else_branch = self.close_block();
        self.push(
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            },
            line,
            labels,
        )
    }

    /// `while (cond) { body_f }`
    pub fn while_(&mut self, cond: Expr, body_f: impl FnOnce(&mut Self)) -> StmtId {
        let line = self.reserve_line();
        let labels = std::mem::take(&mut self.pending_labels);
        let body = self.nested(body_f);
        self.push(StmtKind::While { cond, body }, line, labels)
    }

    /// `do { body_f } while (cond);`
    pub fn do_while(&mut self, body_f: impl FnOnce(&mut Self), cond: Expr) -> StmtId {
        let line = self.reserve_line();
        let labels = std::mem::take(&mut self.pending_labels);
        let body = self.nested(body_f);
        self.push(StmtKind::DoWhile { body, cond }, line, labels)
    }

    /// `switch (scrutinee) { arms }`; arms are added through the
    /// [`SwitchArms`] handle.
    pub fn switch(&mut self, scrutinee: Expr, arms_f: impl FnOnce(&mut SwitchArms<'_>)) -> StmtId {
        let line = self.reserve_line();
        let labels = std::mem::take(&mut self.pending_labels);
        let mut handle = SwitchArms {
            builder: self,
            arms: Vec::new(),
        };
        arms_f(&mut handle);
        let arms = handle.arms.into_boxed_slice();
        self.push(StmtKind::Switch { scrutinee, arms }, line, labels)
    }

    /// Finishes the program, running full semantic validation.
    ///
    /// # Errors
    ///
    /// Returns the same class of errors as [`crate::parse`]: undefined or
    /// duplicate labels, `break`/`continue` outside their contexts, and
    /// duplicate `case` guards.
    pub fn build(self) -> Result<Program, Error> {
        assert!(self.starts.is_empty(), "unclosed nested block in builder");
        self.draft.finish(self.open.into_boxed_slice())
    }
}

/// Handle for adding arms to a `switch` under construction.
#[derive(Debug)]
pub struct SwitchArms<'b> {
    builder: &'b mut ProgramBuilder,
    arms: Vec<SwitchArm>,
}

impl SwitchArms<'_> {
    /// Adds an arm with the given guards and body.
    pub fn arm(&mut self, guards: &[CaseGuard], body_f: impl FnOnce(&mut ProgramBuilder)) {
        let body = self.builder.nested(body_f);
        self.arms.push(SwitchArm {
            guards: guards.into(),
            body,
        });
    }

    /// Convenience: a single `case value:` arm.
    pub fn case(&mut self, value: i64, body_f: impl FnOnce(&mut ProgramBuilder)) {
        self.arm(&[CaseGuard::Case(value)], body_f);
    }

    /// Convenience: the `default:` arm.
    pub fn default(&mut self, body_f: impl FnOnce(&mut ProgramBuilder)) {
        self.arm(&[CaseGuard::Default], body_f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse, print_program};

    #[test]
    fn builder_matches_parsed_equivalent() {
        let mut b = ProgramBuilder::new();
        let x = b.var("x");
        b.read("x");
        b.if_else(
            Expr::le(x.clone(), Expr::num(0)),
            |b| {
                let x = b.var("x");
                b.assign("y", Expr::add(x, Expr::num(1)));
            },
            |b| {
                b.assign("y", Expr::num(0));
            },
        );
        let y = b.var("y");
        b.write(y);
        let built = b.build().unwrap();
        let parsed =
            parse("read(x); if (x <= 0) { y = x + 1; } else { y = 0; } write(y);").unwrap();
        assert_eq!(print_program(&built), print_program(&parsed));
    }

    #[test]
    fn builder_lines_are_lexical() {
        let mut b = ProgramBuilder::new();
        b.assign("a", Expr::num(1));
        b.while_(Expr::num(1), |b| {
            b.assign("b", Expr::num(2));
            b.break_();
        });
        b.assign("c", Expr::num(3));
        let p = b.build().unwrap();
        for (i, &s) in p.lexical_order().iter().enumerate() {
            assert_eq!(p.stmt(s).line as usize, i + 1);
        }
    }

    #[test]
    fn labels_and_gotos() {
        let mut b = ProgramBuilder::new();
        b.label("top");
        b.assign("x", Expr::num(0));
        let x = b.var("x");
        b.cond_goto(x, "top");
        let p = b.build().unwrap();
        assert_eq!(p.label_target(p.label("top").unwrap()), Some(p.at_line(1)));
    }

    #[test]
    fn undefined_label_fails_build() {
        let mut b = ProgramBuilder::new();
        b.goto("nowhere");
        assert!(b.build().is_err());
    }

    #[test]
    fn switch_builder() {
        let mut b = ProgramBuilder::new();
        let c = b.var("c");
        b.switch(c, |s| {
            s.case(1, |b| {
                b.assign("x", Expr::num(1));
                b.break_();
            });
            s.default(|b| {
                b.assign("x", Expr::num(0));
            });
        });
        let p = b.build().unwrap();
        assert_eq!(p.len(), 4);
        let text = print_program(&p);
        assert!(text.contains("case 1:"));
        assert!(text.contains("default:"));
    }

    #[test]
    fn misplaced_break_fails_build() {
        let mut b = ProgramBuilder::new();
        b.break_();
        assert!(b.build().is_err());
    }
}
