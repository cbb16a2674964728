//! Arena-based abstract syntax tree.
//!
//! Every statement lives in a flat arena inside [`Program`] and is referred
//! to by a stable [`StmtId`]. Slices, dependence graphs, and flowgraph nodes
//! all key off these ids, so a slice is simply a set of `StmtId`s.

use crate::intern::Interner;
use crate::structure::Layout;
use std::fmt;

/// A stable handle to a statement in a [`Program`]'s arena.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StmtId(pub(crate) u32);

impl StmtId {
    /// Raw arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a statement id from a dense arena index.
    ///
    /// Statement ids are dense `0..program.len()` indices; analyses that
    /// store per-statement tables use this to map back. Passing an index
    /// outside the owning program yields an id that panics on use.
    pub fn from_index(i: usize) -> StmtId {
        StmtId(u32::try_from(i).expect("statement index overflows u32"))
    }
}

impl fmt::Debug for StmtId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// An interned variable or function name.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Name(pub(crate) u32);

impl Name {
    /// Raw intern-table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a name from its dense intern index, the inverse of
    /// [`Name::index`]. An index outside the owning program's name table
    /// yields a name that panics on resolution.
    pub fn from_index(i: usize) -> Name {
        Name(u32::try_from(i).expect("name index overflows u32"))
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "name{}", self.0)
    }
}

/// An interned statement label (a `goto` target).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Label(pub(crate) u32);

impl Label {
    /// Raw intern-table index.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstructs a label from its dense intern index, the inverse of
    /// [`Label::index`]. An index outside the owning program's label table
    /// yields a label that panics on resolution.
    pub fn from_index(i: usize) -> Label {
        Label(u32::try_from(i).expect("label index overflows u32"))
    }
}

impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "label{}", self.0)
    }
}

/// Unary operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Arithmetic negation, `-e`.
    Neg,
    /// Logical not, `!e`.
    Not,
}

/// Binary operators, C-style semantics over `i64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero evaluates to 0 in the interpreter)
    Div,
    /// `%` (modulo by zero evaluates to 0 in the interpreter)
    Mod,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `&&` (non-short-circuit in this language: both sides are pure)
    And,
    /// `||`
    Or,
}

impl BinOp {
    /// The C surface syntax of the operator.
    pub fn symbol(self) -> &'static str {
        match self {
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
            BinOp::Eq => "==",
            BinOp::Ne => "!=",
            BinOp::Lt => "<",
            BinOp::Le => "<=",
            BinOp::Gt => ">",
            BinOp::Ge => ">=",
            BinOp::And => "&&",
            BinOp::Or => "||",
        }
    }
}

/// An expression. Expressions are pure: they read variables and call
/// uninterpreted pure functions, but never write state.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// Variable reference.
    Var(Name),
    /// Unary operation.
    Unary(UnOp, Box<Expr>),
    /// Binary operation.
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// Call to an uninterpreted pure function, e.g. `f1(x)` or `eof()`.
    Call(Name, Box<[Expr]>),
}

impl Expr {
    /// Collects every variable read by this expression into `out`.
    pub fn collect_vars(&self, out: &mut Vec<Name>) {
        match self {
            Expr::Num(_) => {}
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Unary(_, e) => e.collect_vars(out),
            Expr::Binary(_, l, r) => {
                l.collect_vars(out);
                r.collect_vars(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// Returns `true` if the expression calls any function (e.g. `eof()`).
    pub fn has_call(&self) -> bool {
        match self {
            Expr::Num(_) | Expr::Var(_) => false,
            Expr::Unary(_, e) => e.has_call(),
            Expr::Binary(_, l, r) => l.has_call() || r.has_call(),
            Expr::Call(..) => true,
        }
    }
}

/// One `case`/`default` guard of a [`SwitchArm`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CaseGuard {
    /// `case n:`
    Case(i64),
    /// `default:`
    Default,
}

/// One arm of a `switch`: one or more guards followed by a statement list.
/// Control falls through to the next arm unless a jump intervenes (C
/// semantics).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SwitchArm {
    /// The guards that select this arm.
    pub guards: Box<[CaseGuard]>,
    /// The arm body, in lexical order.
    pub body: Box<[StmtId]>,
}

/// The statement forms of the language.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StmtKind {
    /// `x = e;`
    Assign {
        /// Variable assigned.
        lhs: Name,
        /// Right-hand side.
        rhs: Expr,
    },
    /// `read(x);` — defines `x` from the input.
    Read {
        /// Variable defined.
        var: Name,
    },
    /// `write(e);` — the observable output used as a slicing criterion.
    Write {
        /// Expression written.
        arg: Expr,
    },
    /// `;` — empty statement, mostly a label carrier.
    Skip,
    /// `if (cond) { .. } else { .. }`
    If {
        /// Branch condition.
        cond: Expr,
        /// Then-branch statements.
        then_branch: Box<[StmtId]>,
        /// Else-branch statements (empty when absent).
        else_branch: Box<[StmtId]>,
    },
    /// `while (cond) { .. }`
    While {
        /// Loop condition.
        cond: Expr,
        /// Loop body.
        body: Box<[StmtId]>,
    },
    /// `do { .. } while (cond);` — extension beyond the paper's figures.
    DoWhile {
        /// Loop body.
        body: Box<[StmtId]>,
        /// Loop condition, tested after the body.
        cond: Expr,
    },
    /// `switch (scrutinee) { case ..: .. }` with C fall-through.
    Switch {
        /// The switched-on expression.
        scrutinee: Expr,
        /// The arms, in lexical order.
        arms: Box<[SwitchArm]>,
    },
    /// `goto L;`
    Goto {
        /// Target label.
        target: Label,
    },
    /// `if (cond) goto L;` fused into a single conditional-jump node,
    /// matching the paper's Figure 4 where such statements are single
    /// flowgraph nodes.
    CondGoto {
        /// Branch condition.
        cond: Expr,
        /// Target label taken when the condition is true.
        target: Label,
    },
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `return;` or `return e;` — jumps to the program exit.
    Return {
        /// Optional returned value (written to the output trace).
        value: Option<Expr>,
    },
}

impl StmtKind {
    /// Whether this statement is a jump statement in the paper's sense
    /// (`goto` or one of its structured derivatives, including the fused
    /// conditional goto).
    pub fn is_jump(&self) -> bool {
        matches!(
            self,
            StmtKind::Goto { .. }
                | StmtKind::CondGoto { .. }
                | StmtKind::Break
                | StmtKind::Continue
                | StmtKind::Return { .. }
        )
    }

    /// Whether this statement is an *unconditional* jump.
    pub fn is_unconditional_jump(&self) -> bool {
        matches!(
            self,
            StmtKind::Goto { .. } | StmtKind::Break | StmtKind::Continue | StmtKind::Return { .. }
        )
    }

    /// Whether this statement contains a branch condition (so other
    /// statements can be control dependent on it).
    pub fn is_predicate(&self) -> bool {
        matches!(
            self,
            StmtKind::If { .. }
                | StmtKind::While { .. }
                | StmtKind::DoWhile { .. }
                | StmtKind::Switch { .. }
                | StmtKind::CondGoto { .. }
        )
    }

    /// Whether this statement is compound (owns nested statement lists).
    pub fn is_compound(&self) -> bool {
        matches!(
            self,
            StmtKind::If { .. }
                | StmtKind::While { .. }
                | StmtKind::DoWhile { .. }
                | StmtKind::Switch { .. }
        )
    }
}

/// A statement: its form and its source line. The labels attached to it
/// are kept by its program ([`Program::labels_of`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stmt {
    /// The statement form.
    pub kind: StmtKind,
    /// 1-based source line (or builder sequence number).
    pub line: u32,
}

/// A complete (single-procedure) program.
///
/// Holds the statement arena, the top-level statement list, the interned
/// name/label tables, the label-to-statement resolution, and what one walk
/// of the block tree derives when the program is made: the line table that
/// numbers the statements as the paper does, and the links behind
/// [`Program::structure`]. Every list is allocated to fit, and every name
/// and label is kept once.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Program {
    pub(crate) stmts: Box<[Stmt]>,
    pub(crate) body: Box<[StmtId]>,
    pub(crate) names: Interner,
    pub(crate) labels: Interner,
    /// Per-label resolved target statement.
    pub(crate) label_targets: Box<[Option<StmtId>]>,
    /// Every attached label, ordered by its statement; one statement's
    /// labels in source order.
    pub(crate) labeled: Box<[Label]>,
    /// Derived from `stmts` and `body` whenever a program is made (end of
    /// validation, [`Program::from_parts`]); never persisted. Its line
    /// table gives paper-style line numbers: "line n" is the `n`-th
    /// statement of the lexical (preorder) walk, where a compound
    /// statement precedes the statements of its branches/body.
    pub(crate) layout: Layout,
}

impl Program {
    /// The statement behind an id.
    pub fn stmt(&self, id: StmtId) -> &Stmt {
        &self.stmts[id.index()]
    }

    /// Number of statements in the arena.
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the program has no statements.
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }

    /// The top-level statement list, in lexical order.
    pub fn body(&self) -> &[StmtId] {
        &self.body
    }

    /// Iterator over every statement id in the arena (arbitrary order).
    pub fn stmt_ids(&self) -> impl Iterator<Item = StmtId> + '_ {
        (0..self.stmts.len() as u32).map(StmtId)
    }

    /// The human-readable name of an interned [`Name`].
    pub fn name_str(&self, n: Name) -> &str {
        self.names.resolve(n.0)
    }

    /// The human-readable name of an interned [`Label`].
    pub fn label_str(&self, l: Label) -> &str {
        self.labels.resolve(l.0)
    }

    /// Looks up a variable/function [`Name`] by its string.
    pub fn name(&self, s: &str) -> Option<Name> {
        self.names.lookup(s).map(Name)
    }

    /// Looks up a [`Label`] by its string.
    pub fn label(&self, s: &str) -> Option<Label> {
        self.labels.lookup(s).map(Label)
    }

    /// The statement a label is attached to.
    pub fn label_target(&self, l: Label) -> Option<StmtId> {
        self.label_targets.get(l.0 as usize).copied().flatten()
    }

    /// The labels attached to a statement, in source order.
    pub fn labels_of(&self, id: StmtId) -> &[Label] {
        let target = |l: &Label| self.label_targets[l.index()];
        let start = self.labeled.partition_point(|l| target(l) < Some(id));
        let len = self.labeled[start..].partition_point(|l| target(l) == Some(id));
        &self.labeled[start..start + len]
    }

    /// Number of distinct interned names (variables and functions).
    pub fn num_names(&self) -> usize {
        self.names.len()
    }

    /// Iterator over all interned names, in interning order. Rebuilders
    /// that must keep [`Name`] values stable re-intern these first, in
    /// order, before emitting any statement.
    pub fn all_names(&self) -> impl Iterator<Item = Name> + '_ {
        (0..self.names.len() as u32).map(Name)
    }

    /// Number of distinct labels.
    pub fn num_labels(&self) -> usize {
        self.labels.len()
    }

    /// Iterator over all labels.
    pub fn all_labels(&self) -> impl Iterator<Item = Label> + '_ {
        (0..self.labels.len() as u32).map(Label)
    }

    /// Statements in lexical (preorder) order: a compound statement precedes
    /// the statements of its branches/body.
    ///
    /// This order matches the line-numbering convention of the paper's
    /// figures, so the `n`-th element (1-based) is the statement the paper
    /// calls "line n".
    pub fn lexical_order(&self) -> &[StmtId] {
        &self.layout.order
    }

    /// The statement at a paper-style line number (1-based lexical index).
    ///
    /// # Panics
    ///
    /// Panics if `line` is 0 or past the end of the program. Callers
    /// handling untrusted line numbers (request decoding in the serve
    /// daemon) should use [`try_at_line`](Program::try_at_line).
    pub fn at_line(&self, line: usize) -> StmtId {
        self.try_at_line(line)
            .unwrap_or_else(|| panic!("line {line} out of range"))
    }

    /// The statement at a paper-style line number, or `None` when `line`
    /// is 0 or past the end of the program — the bounds-checked form of
    /// [`at_line`](Program::at_line).
    pub fn try_at_line(&self, line: usize) -> Option<StmtId> {
        self.layout.order.get(line.checked_sub(1)?).copied()
    }

    /// Paper-style line number (1-based lexical position) of a statement.
    ///
    /// # Panics
    ///
    /// Panics with "statement not in program body" if `id` is not a
    /// statement of this program's body.
    pub fn line_of(&self, id: StmtId) -> usize {
        match self.layout.line.get(id.index()) {
            Some(&n) if n > 0 => n as usize,
            _ => panic!("statement not in program body"),
        }
    }

    /// All variables defined anywhere in the program.
    pub fn defined_vars(&self) -> Vec<Name> {
        let mut vars = Vec::new();
        for s in &self.stmts {
            match &s.kind {
                StmtKind::Assign { lhs, .. } if !vars.contains(lhs) => {
                    vars.push(*lhs);
                }
                StmtKind::Read { var } if !vars.contains(var) => {
                    vars.push(*var);
                }
                _ => {}
            }
        }
        vars
    }

    /// Variables defined by a statement (at most one in this language).
    pub fn defs(&self, id: StmtId) -> Option<Name> {
        match &self.stmt(id).kind {
            StmtKind::Assign { lhs, .. } => Some(*lhs),
            StmtKind::Read { var } => Some(*var),
            _ => None,
        }
    }

    /// Reassembles a program from its constituent parts — the inverse of
    /// reading them back through the public accessors (`stmt`, `body`,
    /// `name_str`, `label_str`, `label_target`, `labels_of`). This is the
    /// trust boundary for *persisted* programs: a snapshot codec hands in
    /// parts decoded from disk, and every invariant the parser would have
    /// established is re-checked here. Any violation returns `None`.
    ///
    /// `attached` lists each statement's labels as `(statement, label)`
    /// pairs; one statement's pairs keep their order, which is the order
    /// its labels print in.
    ///
    /// Checked invariants:
    ///
    /// * `names` and `labels` are duplicate-free, non-empty strings
    ///   (intern-table well-formedness);
    /// * `label_targets` has exactly one entry per label;
    /// * the block tree rooted at `body` visits every arena statement
    ///   exactly once — ids in bounds, no sharing, no orphans, no cycles;
    /// * every [`Name`] and [`Label`] a statement or expression mentions
    ///   is in bounds, and every `goto` target resolves to a statement;
    /// * a label is attached to a statement iff `label_targets` maps it
    ///   there, and to no statement twice;
    /// * `break` sits inside a loop or switch, `continue` inside a loop,
    ///   and no switch guards a `case` value or `default` twice.
    ///
    /// What this deliberately does *not* check is fidelity to any source
    /// text — callers persisting a program next to its source rely on
    /// their own integrity check (e.g. a whole-record checksum) for that.
    pub fn from_parts(
        stmts: Vec<Stmt>,
        body: Vec<StmtId>,
        names: &[&str],
        labels: &[&str],
        label_targets: Vec<Option<StmtId>>,
        mut attached: Vec<(StmtId, Label)>,
    ) -> Option<Program> {
        let names = Interner::from_entries(names)?;
        let labels = Interner::from_entries(labels)?;
        if label_targets.len() != labels.len() {
            return None;
        }
        let n = stmts.len();
        u32::try_from(n).ok()?;
        let resolves =
            |l: Label| l.index() < label_targets.len() && label_targets[l.index()].is_some();
        let mut claimed = vec![false; labels.len()];
        for &(id, l) in &attached {
            if id.index() >= n
                || !resolves(l)
                || label_targets[l.index()] != Some(id)
                || std::mem::replace(&mut claimed[l.index()], true)
            {
                return None;
            }
        }
        // The reverse direction of label consistency: a mapped label whose
        // statement never claimed it (or a dangling arena id) is a lie.
        if claimed
            .iter()
            .zip(&label_targets)
            .any(|(&c, t)| c != t.is_some())
        {
            return None;
        }
        // Iterative preorder over the block tree: hostile nesting depth
        // must exhaust the worklist, not the call stack.
        let mut visited = vec![false; n];
        let mut seen = 0usize;
        let mut work: Vec<StmtId> = body.clone();
        while let Some(id) = work.pop() {
            if id.index() >= n || std::mem::replace(&mut visited[id.index()], true) {
                return None;
            }
            seen += 1;
            let ok = match &stmts[id.index()].kind {
                StmtKind::Assign { lhs, rhs } => {
                    lhs.index() < names.len() && expr_ok(rhs, names.len())
                }
                StmtKind::Read { var } => var.index() < names.len(),
                StmtKind::Write { arg } => expr_ok(arg, names.len()),
                StmtKind::Skip | StmtKind::Break | StmtKind::Continue => true,
                StmtKind::If {
                    cond,
                    then_branch,
                    else_branch,
                } => {
                    work.extend_from_slice(then_branch);
                    work.extend_from_slice(else_branch);
                    expr_ok(cond, names.len())
                }
                StmtKind::While { cond, body } | StmtKind::DoWhile { body, cond } => {
                    work.extend_from_slice(body);
                    expr_ok(cond, names.len())
                }
                StmtKind::Switch { scrutinee, arms } => {
                    for arm in arms {
                        work.extend_from_slice(&arm.body);
                    }
                    expr_ok(scrutinee, names.len())
                }
                StmtKind::Goto { target } => resolves(*target),
                StmtKind::CondGoto { cond, target } => {
                    resolves(*target) && expr_ok(cond, names.len())
                }
                StmtKind::Return { value } => match value {
                    Some(e) => expr_ok(e, names.len()),
                    None => true,
                },
            };
            if !ok {
                return None;
            }
        }
        if seen != n {
            return None;
        }
        let stmts = stmts.into_boxed_slice();
        let layout = Layout::of(&stmts, &body).ok()?;
        attached.sort_by_key(|&(id, _)| id);
        Some(Program {
            stmts,
            body: body.into_boxed_slice(),
            names,
            labels,
            label_targets: label_targets.into_boxed_slice(),
            labeled: attached.into_iter().map(|(_, l)| l).collect(),
            layout,
        })
    }

    /// Variables used (read) by a statement — the right-hand side, branch
    /// condition, written expression, or return value.
    pub fn uses(&self, id: StmtId) -> Vec<Name> {
        let mut out = Vec::new();
        self.uses_into(id, &mut out);
        out
    }

    /// [`Program::uses`] into `out`, which is cleared first: a pass over
    /// every statement reuses one buffer.
    pub fn uses_into(&self, id: StmtId, out: &mut Vec<Name>) {
        out.clear();
        match &self.stmt(id).kind {
            StmtKind::Assign { rhs, .. } => rhs.collect_vars(out),
            StmtKind::Write { arg } => arg.collect_vars(out),
            StmtKind::If { cond, .. }
            | StmtKind::While { cond, .. }
            | StmtKind::DoWhile { cond, .. }
            | StmtKind::CondGoto { cond, .. } => cond.collect_vars(out),
            StmtKind::Switch { scrutinee, .. } => scrutinee.collect_vars(out),
            StmtKind::Return { value: Some(e) } => e.collect_vars(out),
            StmtKind::Read { .. }
            | StmtKind::Skip
            | StmtKind::Goto { .. }
            | StmtKind::Break
            | StmtKind::Continue
            | StmtKind::Return { value: None } => {}
        }
    }
}

/// Bounds-checks every name an expression mentions. Iterative on purpose:
/// decoded expressions can nest arbitrarily deep, and a recursive walk
/// would turn hostile bytes into a stack overflow.
fn expr_ok(e: &Expr, num_names: usize) -> bool {
    let mut stack = vec![e];
    while let Some(e) = stack.pop() {
        match e {
            Expr::Num(_) => {}
            Expr::Var(v) => {
                if v.index() >= num_names {
                    return false;
                }
            }
            Expr::Unary(_, a) => stack.push(a),
            Expr::Binary(_, l, r) => {
                stack.push(l);
                stack.push(r);
            }
            Expr::Call(f, args) => {
                if f.index() >= num_names {
                    return false;
                }
                stack.extend(args.iter());
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn lexical_order_matches_paper_numbering() {
        // Figure 1-a of the paper.
        let p = parse(
            "sum = 0;
             positives = 0;
             while (!eof()) {
               read(x);
               if (x <= 0)
                 sum = sum + f1(x);
               else {
                 positives = positives + 1;
                 if (x % 2 == 0)
                   sum = sum + f2(x);
                 else
                   sum = sum + f3(x);
               }
             }
             write(sum);
             write(positives);",
        )
        .unwrap();
        let order = p.lexical_order();
        assert_eq!(order.len(), 12);
        // Line 3 is the while, line 5 the inner if, line 12 write(positives).
        assert!(matches!(p.stmt(p.at_line(3)).kind, StmtKind::While { .. }));
        assert!(matches!(p.stmt(p.at_line(5)).kind, StmtKind::If { .. }));
        assert!(matches!(p.stmt(p.at_line(12)).kind, StmtKind::Write { .. }));
        assert_eq!(p.line_of(p.at_line(7)), 7);
    }

    #[test]
    fn defs_and_uses() {
        let p = parse("x = y + f1(z); write(x); read(w);").unwrap();
        let assign = p.at_line(1);
        assert_eq!(p.defs(assign), p.name("x"));
        let uses = p.uses(assign);
        assert!(uses.contains(&p.name("y").unwrap()));
        assert!(uses.contains(&p.name("z").unwrap()));
        assert_eq!(uses.len(), 2);
        let read = p.at_line(3);
        assert_eq!(p.defs(read), p.name("w"));
        assert!(p.uses(read).is_empty());
    }

    #[test]
    fn jump_classification() {
        let p = parse(
            "while (eof()) { break; continue; }
             L: x = 0;
             goto L;
             if (x) goto L;
             return;",
        )
        .unwrap();
        let kinds: Vec<bool> = p
            .lexical_order()
            .iter()
            .map(|&s| p.stmt(s).kind.is_jump())
            .collect();
        // while, break, continue, x=0, goto, condgoto, return
        assert_eq!(kinds, vec![false, true, true, false, true, true, true]);
        assert!(p.stmt(p.at_line(6)).kind.is_predicate());
        assert!(!p.stmt(p.at_line(6)).kind.is_unconditional_jump());
        assert!(p.stmt(p.at_line(5)).kind.is_unconditional_jump());
    }

    #[test]
    fn expr_var_collection_dedups() {
        let p = parse("x = y + y * y;").unwrap();
        assert_eq!(p.uses(p.at_line(1)).len(), 1);
    }

    #[test]
    fn has_call_detection() {
        let p = parse("x = f1(1) + 2; y = x + 1;").unwrap();
        let rhs_of = |line: usize| match &p.stmt(p.at_line(line)).kind {
            StmtKind::Assign { rhs, .. } => rhs.clone(),
            _ => unreachable!(),
        };
        assert!(rhs_of(1).has_call());
        assert!(!rhs_of(2).has_call());
    }

    type Parts<'p> = (
        Vec<Stmt>,
        Vec<StmtId>,
        Vec<&'p str>,
        Vec<&'p str>,
        Vec<Option<StmtId>>,
        Vec<(StmtId, Label)>,
    );

    /// Explodes a program into exactly what `from_parts` consumes, read
    /// back through the public accessors a persisting codec would use.
    fn parts(p: &Program) -> Parts<'_> {
        (
            p.stmts.to_vec(),
            p.body.to_vec(),
            p.all_names().map(|n| p.name_str(n)).collect(),
            p.all_labels().map(|l| p.label_str(l)).collect(),
            p.all_labels().map(|l| p.label_target(l)).collect(),
            p.stmt_ids()
                .flat_map(|s| p.labels_of(s).iter().map(move |&l| (s, l)))
                .collect(),
        )
    }

    fn rebuild(parts: Parts<'_>) -> Option<Program> {
        let (stmts, body, names, labels, targets, attached) = parts;
        Program::from_parts(stmts, body, &names, &labels, targets, attached)
    }

    #[test]
    fn from_parts_round_trips_parsed_programs() {
        for src in [
            "x = 1; write(x);",
            "L: read(x); if (x > 0) goto L; while (x) { x = x - 1; break; } write(f1(x));",
            "switch (x) { case 1: y = 2; default: return; } do { continue; } while (1);",
            "goto M; L: M: N: x = 1; O: if (x) goto L; goto N; goto O;",
        ] {
            let p = parse(src).unwrap();
            let back = rebuild(parts(&p)).expect("a parsed program's own parts are valid");
            assert_eq!(back, p, "{src:?}");
        }
    }

    #[test]
    fn from_parts_rejects_structural_lies() {
        let p = parse("L: read(x); if (x) goto L;").unwrap();
        let ok = parts(&p);

        // Duplicate interner entry.
        let mut bad = ok.clone();
        bad.2.push(bad.2[0]);
        assert!(rebuild(bad).is_none());

        // An arena statement the block tree never reaches (orphan).
        let mut bad = ok.clone();
        bad.0.push(Stmt {
            kind: StmtKind::Skip,
            line: 99,
        });
        assert!(rebuild(bad).is_none());

        // The same statement listed twice (sharing).
        let mut bad = ok.clone();
        let first = bad.1[0];
        bad.1.push(first);
        assert!(rebuild(bad).is_none());

        // A body id past the arena.
        let mut bad = ok.clone();
        bad.1.push(StmtId::from_index(100));
        assert!(rebuild(bad).is_none());

        // An out-of-bounds name inside an expression.
        let mut bad = ok.clone();
        let cg = bad
            .0
            .iter()
            .position(|s| matches!(s.kind, StmtKind::CondGoto { .. }))
            .expect("fixture has a fused conditional goto");
        if let StmtKind::CondGoto { cond, .. } = &mut bad.0[cg].kind {
            *cond = Expr::Var(Name::from_index(50));
        }
        assert!(rebuild(bad).is_none());

        // A goto whose label has no target statement.
        let mut bad = ok.clone();
        bad.4[0] = None;
        assert!(rebuild(bad).is_none());

        // A label map pointing at a statement that never claimed it.
        let mut bad = ok.clone();
        bad.4[0] = Some(StmtId::from_index(1));
        assert!(rebuild(bad).is_none());

        // A label claimed twice, by no statement, or by a statement past
        // the arena that the label map agrees with.
        let mut bad = ok.clone();
        bad.5.push(bad.5[0]);
        assert!(rebuild(bad).is_none());
        let mut bad = ok.clone();
        bad.5.clear();
        assert!(rebuild(bad).is_none());
        let mut bad = ok.clone();
        bad.4[0] = Some(StmtId::from_index(100));
        bad.5[0].0 = StmtId::from_index(100);
        assert!(rebuild(bad).is_none());

        // The untampered parts still pass (the fixture itself is valid).
        assert!(rebuild(ok).is_some());
    }

    #[test]
    fn from_parts_rejects_what_validation_rejects() {
        let stmt = |kind| Stmt { kind, line: 1 };
        let c = || Expr::Var(Name::from_index(0));
        let arm = |guard, at: usize| SwitchArm {
            guards: Box::new([guard]),
            body: Box::new([StmtId::from_index(at)]),
        };
        let switch = |g1, g2| {
            vec![
                stmt(StmtKind::Switch {
                    scrutinee: c(),
                    arms: Box::new([arm(g1, 1), arm(g2, 2)]),
                }),
                stmt(StmtKind::Skip),
                stmt(StmtKind::Skip),
            ]
        };
        let accepts = |stmts: Vec<Stmt>| {
            let body = vec![StmtId::from_index(0)];
            Program::from_parts(stmts, body, &["c"], &[], vec![], vec![]).is_some()
        };

        // `break; write(1);` — a top-level break.
        let stmts = vec![
            stmt(StmtKind::Break),
            stmt(StmtKind::Write { arg: Expr::Num(1) }),
        ];
        let body = vec![StmtId::from_index(0), StmtId::from_index(1)];
        assert!(Program::from_parts(stmts, body, &[], &[], vec![], vec![]).is_none());

        // `switch (c) { case 1: continue; }` — a continue in a switch but
        // outside any loop.
        let stmts = vec![
            stmt(StmtKind::Switch {
                scrutinee: c(),
                arms: Box::new([arm(CaseGuard::Case(1), 1)]),
            }),
            stmt(StmtKind::Continue),
        ];
        assert!(!accepts(stmts));

        // A duplicate `case` value, a duplicate `default`; distinct guards
        // pass.
        assert!(!accepts(switch(CaseGuard::Case(1), CaseGuard::Case(1))));
        assert!(!accepts(switch(CaseGuard::Default, CaseGuard::Default)));
        assert!(accepts(switch(CaseGuard::Case(1), CaseGuard::Default)));
    }
}
