//! Pretty-printing of programs and residual slices.
//!
//! The printer can render a whole program or a *slice view*: only the
//! statements in a given set, with re-associated labels (the paper's final
//! step: "for each `goto L` in the slice whose target is not, associate `L`
//! with the target's nearest postdominator in the slice").

use crate::ast::*;
use std::fmt::Write as _;

/// Options controlling [`print_with_options`].
#[derive(Default)]
pub struct PrintOptions<'a> {
    /// When present, only statements accepted by the filter (or with an
    /// accepted descendant) are printed.
    pub filter: Option<&'a dyn Fn(StmtId) -> bool>,
    /// Labels to print at statements other than their original target,
    /// `None` meaning "at the very end of the program" (the label's new
    /// target is the exit). Labels listed here suppress nothing — their
    /// original carrier is expected to be filtered out.
    pub moved_labels: &'a [(Label, Option<StmtId>)],
    /// Prefix every statement with its original paper-style lexical line
    /// number (`7: goto L13;`).
    pub line_numbers: bool,
}

/// Prints the whole program in canonical form.
///
/// The output parses back to a structurally identical program (see the
/// round-trip tests).
///
/// # Examples
///
/// ```
/// use jumpslice_lang::{parse, print_program};
/// let p = parse("x=1;while(x<3){x=x+1;}")?;
/// let text = print_program(&p);
/// assert!(text.contains("while (x < 3) {"));
/// # Ok::<(), jumpslice_lang::Error>(())
/// ```
pub fn print_program(prog: &Program) -> String {
    print_with_options(prog, &PrintOptions::default())
}

/// Prints the residual program induced by `included`, re-placing the given
/// moved labels, with paper-style line numbers.
pub fn print_slice(
    prog: &Program,
    included: &dyn Fn(StmtId) -> bool,
    moved_labels: &[(Label, Option<StmtId>)],
) -> String {
    print_with_options(
        prog,
        &PrintOptions {
            filter: Some(included),
            moved_labels,
            line_numbers: true,
        },
    )
}

/// Prints with full control over filtering, label placement, and numbering.
///
/// The walk keeps its open blocks on an explicit stack, so any nesting
/// depth costs heap, not call stack.
pub fn print_with_options(prog: &Program, opts: &PrintOptions<'_>) -> String {
    let mut p = Printer {
        prog,
        opts,
        visible: opts.filter.map(|f| visibility(prog, f)),
        out: String::new(),
    };
    p.program();
    // Labels re-targeted past the last statement (their new target is the
    // program exit) print as trailing label-only lines.
    for &(l, dest) in opts.moved_labels {
        if dest.is_none() {
            let _ = writeln!(p.out, "{}:", prog.label_str(l));
        }
    }
    p.out
}

/// Per statement: whether the filter accepts it or one of its descendants.
/// One pass over the lexical order backwards, so children come before
/// their parents.
fn visibility(prog: &Program, filter: &dyn Fn(StmtId) -> bool) -> Vec<bool> {
    let st = prog.structure();
    let mut visible = vec![false; prog.len()];
    for &s in prog.lexical_order().iter().rev() {
        if visible[s.index()] || filter(s) {
            visible[s.index()] = true;
            if let Some(p) = st.parent(s) {
                visible[p.index()] = true;
            }
        }
    }
    visible
}

struct Printer<'a> {
    prog: &'a Program,
    opts: &'a PrintOptions<'a>,
    /// Per statement, when filtering: whether it is printed.
    visible: Option<Vec<bool>>,
    out: String,
}

/// What is left to print of an open construct, innermost on top of the
/// walk's stack.
enum Open<'a> {
    /// The rest of a block, at an indentation depth.
    Block(std::slice::Iter<'a, StmtId>, usize),
    /// An `if`'s else branch, printed only if some statement in it is.
    Else(&'a [StmtId], usize),
    /// The rest of a switch's arms.
    Arms(std::slice::Iter<'a, SwitchArm>, usize),
    /// A do-while's closing line.
    DoWhileEnd(&'a Expr, usize),
    /// A closing brace.
    Close(usize),
}

impl<'a> Printer<'a> {
    fn visible(&self, id: StmtId) -> bool {
        self.visible.as_ref().is_none_or(|v| v[id.index()])
    }

    fn program(&mut self) {
        let mut stack = vec![Open::Block(self.prog.body().iter(), 0)];
        while let Some(open) = stack.pop() {
            match open {
                Open::Block(mut rest, depth) => {
                    if let Some(&id) = rest.next() {
                        stack.push(Open::Block(rest, depth));
                        if self.visible(id) {
                            self.stmt(id, depth, &mut stack);
                        }
                    }
                }
                Open::Else(branch, depth) => {
                    if branch.iter().any(|&s| self.visible(s)) {
                        self.indent(depth);
                        if self.opts.line_numbers {
                            self.out.push_str("     ");
                        }
                        self.out.push_str("} else {\n");
                        stack.push(Open::Block(branch.iter(), depth + 1));
                    }
                }
                Open::Arms(mut rest, depth) => {
                    if let Some(arm) = rest.next() {
                        stack.push(Open::Arms(rest, depth));
                        for g in &arm.guards {
                            self.indent(depth + 1);
                            if self.opts.line_numbers {
                                self.out.push_str("     ");
                            }
                            match g {
                                CaseGuard::Case(v) => {
                                    let _ = writeln!(self.out, "case {v}:");
                                }
                                CaseGuard::Default => {
                                    let _ = writeln!(self.out, "default:");
                                }
                            }
                        }
                        stack.push(Open::Block(arm.body.iter(), depth + 2));
                    }
                }
                Open::DoWhileEnd(cond, depth) => {
                    self.indent(depth);
                    if self.opts.line_numbers {
                        self.out.push_str("     ");
                    }
                    let _ = writeln!(self.out, "}} while ({});", self.expr_str(cond));
                }
                Open::Close(depth) => self.close_brace(depth),
            }
        }
    }

    fn indent(&mut self, depth: usize) {
        for _ in 0..depth {
            self.out.push_str("  ");
        }
    }

    fn stmt_prefix(&mut self, id: StmtId, depth: usize) {
        self.indent(depth);
        if self.opts.line_numbers {
            let _ = write!(self.out, "{:>3}: ", self.prog.line_of(id));
        }
        // Labels re-associated to this statement come first (matching the
        // paper's Figure 16-c rendering), then the statement's own labels.
        for &(l, dest) in self.opts.moved_labels {
            if dest == Some(id) {
                let _ = write!(self.out, "{}: ", self.prog.label_str(l));
            }
        }
        for &l in self.prog.labels_of(id) {
            let _ = write!(self.out, "{}: ", self.prog.label_str(l));
        }
    }

    /// Prints statement `id`'s own line; a compound statement pushes what
    /// follows its header onto `stack`, last part first.
    fn stmt(&mut self, id: StmtId, depth: usize, stack: &mut Vec<Open<'a>>) {
        self.stmt_prefix(id, depth);
        match &self.prog.stmt(id).kind {
            StmtKind::Assign { lhs, rhs } => {
                let _ = writeln!(
                    self.out,
                    "{} = {};",
                    self.prog.name_str(*lhs),
                    self.expr_str(rhs)
                );
            }
            StmtKind::Read { var } => {
                let _ = writeln!(self.out, "read({});", self.prog.name_str(*var));
            }
            StmtKind::Write { arg } => {
                let _ = writeln!(self.out, "write({});", self.expr_str(arg));
            }
            StmtKind::Skip => {
                let _ = writeln!(self.out, ";");
            }
            StmtKind::If {
                cond,
                then_branch,
                else_branch,
            } => {
                let _ = writeln!(self.out, "if ({}) {{", self.expr_str(cond));
                stack.push(Open::Close(depth));
                stack.push(Open::Else(else_branch, depth));
                stack.push(Open::Block(then_branch.iter(), depth + 1));
            }
            StmtKind::While { cond, body } => {
                let _ = writeln!(self.out, "while ({}) {{", self.expr_str(cond));
                stack.push(Open::Close(depth));
                stack.push(Open::Block(body.iter(), depth + 1));
            }
            StmtKind::DoWhile { body, cond } => {
                self.out.push_str("do {\n");
                stack.push(Open::DoWhileEnd(cond, depth));
                stack.push(Open::Block(body.iter(), depth + 1));
            }
            StmtKind::Switch { scrutinee, arms } => {
                let _ = writeln!(self.out, "switch ({}) {{", self.expr_str(scrutinee));
                stack.push(Open::Close(depth));
                stack.push(Open::Arms(arms.iter(), depth));
            }
            StmtKind::Goto { target } => {
                let _ = writeln!(self.out, "goto {};", self.prog.label_str(*target));
            }
            StmtKind::CondGoto { cond, target } => {
                let _ = writeln!(
                    self.out,
                    "if ({}) goto {};",
                    self.expr_str(cond),
                    self.prog.label_str(*target)
                );
            }
            StmtKind::Break => {
                self.out.push_str("break;\n");
            }
            StmtKind::Continue => {
                self.out.push_str("continue;\n");
            }
            StmtKind::Return { value } => match value {
                Some(e) => {
                    let _ = writeln!(self.out, "return {};", self.expr_str(e));
                }
                None => self.out.push_str("return;\n"),
            },
        }
    }

    fn close_brace(&mut self, depth: usize) {
        self.indent(depth);
        if self.opts.line_numbers {
            self.out.push_str("     ");
        }
        self.out.push_str("}\n");
    }

    fn expr_str(&self, e: &Expr) -> String {
        let mut s = String::new();
        self.expr(e, 0, &mut s);
        s
    }

    /// Precedence-aware expression printing with minimal parentheses.
    fn expr(&self, e: &Expr, parent_prec: u8, out: &mut String) {
        match e {
            Expr::Num(n) => {
                let _ = write!(out, "{n}");
            }
            Expr::Var(v) => out.push_str(self.prog.name_str(*v)),
            Expr::Unary(op, inner) => {
                out.push(match op {
                    UnOp::Neg => '-',
                    UnOp::Not => '!',
                });
                self.expr(inner, 7, out);
            }
            Expr::Binary(op, l, r) => {
                let prec = bin_prec(*op);
                let need = prec < parent_prec;
                if need {
                    out.push('(');
                }
                self.expr(l, prec, out);
                let _ = write!(out, " {} ", op.symbol());
                // Right operand binds one tighter: keeps left-association on
                // reparse for non-associative cases like `a - (b - c)`.
                self.expr(r, prec + 1, out);
                if need {
                    out.push(')');
                }
            }
            Expr::Call(f, args) => {
                out.push_str(self.prog.name_str(*f));
                out.push('(');
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    self.expr(a, 0, out);
                }
                out.push(')');
            }
        }
    }
}

fn bin_prec(op: BinOp) -> u8 {
    match op {
        BinOp::Or => 1,
        BinOp::And => 2,
        BinOp::Eq | BinOp::Ne => 3,
        BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 4,
        BinOp::Add | BinOp::Sub => 5,
        BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    fn roundtrip(src: &str) {
        let p1 = parse(src).unwrap();
        let text = print_program(&p1);
        let p2 = parse(&text).unwrap_or_else(|e| panic!("reparse failed: {e}\n{text}"));
        let k1: Vec<_> = p1
            .lexical_order()
            .iter()
            .map(|&s| format!("{:?}", kind_shape(&p1, s)))
            .collect();
        let k2: Vec<_> = p2
            .lexical_order()
            .iter()
            .map(|&s| format!("{:?}", kind_shape(&p2, s)))
            .collect();
        assert_eq!(k1, k2, "round-trip changed structure:\n{text}");
    }

    fn kind_shape(p: &Program, s: crate::StmtId) -> &'static str {
        match &p.stmt(s).kind {
            StmtKind::Assign { .. } => "assign",
            StmtKind::Read { .. } => "read",
            StmtKind::Write { .. } => "write",
            StmtKind::Skip => "skip",
            StmtKind::If { .. } => "if",
            StmtKind::While { .. } => "while",
            StmtKind::DoWhile { .. } => "dowhile",
            StmtKind::Switch { .. } => "switch",
            StmtKind::Goto { .. } => "goto",
            StmtKind::CondGoto { .. } => "condgoto",
            StmtKind::Break => "break",
            StmtKind::Continue => "continue",
            StmtKind::Return { .. } => "return",
        }
    }

    #[test]
    fn roundtrip_structured() {
        roundtrip(
            "sum = 0; while (!eof()) { read(x); if (x <= 0) { sum = sum + f1(x); continue; } \
             sum = sum + 1; } write(sum);",
        );
    }

    #[test]
    fn roundtrip_goto() {
        roundtrip("L3: if (eof()) goto L14; x = 1; goto L3; L14: write(x);");
    }

    #[test]
    fn roundtrip_switch() {
        roundtrip("switch (c) { case 1: x = 1; break; case 2: default: x = 2; } write(x);");
    }

    #[test]
    fn roundtrip_do_while() {
        roundtrip("do { x = x - 1; } while (x > 0);");
    }

    #[test]
    fn minimal_parentheses() {
        let p = parse("x = (a + b) * c - d / (e - f);").unwrap();
        let text = print_program(&p);
        assert!(text.contains("x = (a + b) * c - d / (e - f);"), "{text}");
    }

    #[test]
    fn left_assoc_subtraction_preserved() {
        let p = parse("x = a - (b - c);").unwrap();
        let text = print_program(&p);
        assert!(text.contains("a - (b - c)"), "{text}");
        roundtrip("x = a - (b - c); y = (a - b) - c;");
    }

    #[test]
    fn filtered_print_keeps_containers() {
        let p = parse("a = 1; if (a) { b = 2; c = 3; } d = 4;").unwrap();
        let keep: Vec<crate::StmtId> = vec![p.at_line(2), p.at_line(3)];
        let text = print_slice(&p, &|s| keep.contains(&s), &[]);
        assert!(text.contains("if (a) {"));
        assert!(text.contains("b = 2;"));
        assert!(!text.contains("c = 3;"));
        assert!(!text.contains("d = 4;"));
    }

    #[test]
    fn moved_labels_print_at_new_target() {
        let p = parse("x = 1; goto L; y = 2; L: z = 3; write(z);").unwrap();
        let l = p.label("L").unwrap();
        let write = p.at_line(5);
        // Pretend the slice dropped `z = 3` and re-targeted L to the write.
        let keep = [p.at_line(1), p.at_line(2), write];
        let text = print_slice(&p, &|s| keep.contains(&s), &[(l, Some(write))]);
        assert!(text.contains("L: write(z);"), "{text}");
        assert!(!text.contains("z = 3"));
    }

    #[test]
    fn label_moved_to_exit_prints_trailing() {
        let p = parse("goto L; L: x = 1;").unwrap();
        let l = p.label("L").unwrap();
        let keep = [p.at_line(1)];
        let text = print_slice(&p, &|s| keep.contains(&s), &[(l, None)]);
        assert!(text.trim_end().ends_with("L:"), "{text}");
    }

    #[test]
    fn line_numbers_use_lexical_positions() {
        let p = parse("a = 1; while (a) { b = 2; } c = 3;").unwrap();
        let text = print_slice(&p, &|_| true, &[]);
        assert!(text.contains("  1: a = 1;"));
        assert!(text.contains("  3: b = 2;"));
        assert!(text.contains("  4: c = 3;"));
    }
}
