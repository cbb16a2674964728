//! Recursive-descent parser producing a validated [`Program`].

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use crate::lexer::{Lexer, Span, Token, TokenKind};
use crate::validate::Draft;

/// How many levels deep a program may nest. Every compound statement body
/// (`if`, `while`, `do`, `switch`), every parenthesised group or call
/// argument list, and every expression-tree level is one level, so a
/// top-level `x = e;` allows `e` to be `MAX_DEPTH` levels tall.
///
/// The parser, every walker over the tree it returns, and the snapshot
/// decoder recurse once per level, so this bound is what keeps hostile
/// source from overflowing a thread's stack. [`parse`] rejects deeper
/// input with [`ErrorKind::NestingTooDeep`] before it builds the
/// over-deep part of the tree.
pub const MAX_DEPTH: usize = 256;

/// Parses mini-C source text into a validated [`Program`].
///
/// # Errors
///
/// Returns the first lexical, syntactic, or semantic error (undefined or
/// duplicate labels, `break`/`continue` outside their contexts, duplicate
/// `case` values), or [`ErrorKind::NestingTooDeep`] for a program nested
/// more than [`MAX_DEPTH`] levels deep.
///
/// # Examples
///
/// ```
/// use jumpslice_lang::parse;
/// let p = parse("read(x); if (x > 0) write(x);")?;
/// assert_eq!(p.len(), 3);
/// # Ok::<(), jumpslice_lang::Error>(())
/// ```
pub fn parse(src: &str) -> Result<Program, Error> {
    let mut p = Parser::new(src);
    let body = p.stmts_until(|k| k == TokenKind::Eof);
    // A lexical error anywhere outranks a syntax error: the parser stops
    // at the first error, so the rest of the input is lexed for one.
    if let Some(e) = p.lex_error {
        return Err(e);
    }
    let body = body.map_err(|e| p.lexer.first_error().unwrap_or(e))?;
    p.draft.finish(body)
}

struct Parser<'src> {
    /// Positioned after `next`.
    lexer: Lexer<'src>,
    /// The current token.
    tok: Token<'src>,
    /// The token after it.
    next: Token<'src>,
    /// The first lexical error; every token after it reads as the end of
    /// input.
    lex_error: Option<Error>,
    draft: Draft,
    /// Labels of the statements being parsed, innermost last.
    open_labels: Vec<Label>,
    /// Statements of the blocks being parsed, innermost last.
    open_stmts: Vec<StmtId>,
    /// Arguments of the calls being parsed, innermost last.
    open_args: Vec<Expr>,
    /// Levels open around the current token: enclosing compound statement
    /// bodies, parenthesised groups, call argument lists and unary
    /// operators.
    depth: usize,
}

impl<'src> Parser<'src> {
    fn new(src: &'src str) -> Self {
        let eof = Token {
            kind: TokenKind::Eof,
            span: Span { line: 1, col: 1 },
        };
        let mut p = Parser {
            lexer: Lexer::new(src),
            tok: eof,
            next: eof,
            lex_error: None,
            draft: Draft::default(),
            open_labels: Vec::new(),
            open_stmts: Vec::new(),
            open_args: Vec::new(),
            depth: 0,
        };
        p.bump();
        p.bump();
        p
    }

    fn at(&self, kind: TokenKind<'_>) -> bool {
        self.tok.kind == kind
    }

    fn bump(&mut self) {
        self.tok = self.next;
        let span = self.tok.span;
        self.next = match self.lex_error {
            Some(_) => Token {
                kind: TokenKind::Eof,
                span,
            },
            None => self.lexer.next_token().unwrap_or_else(|e| {
                self.lex_error = Some(e);
                Token {
                    kind: TokenKind::Eof,
                    span,
                }
            }),
        };
    }

    fn expect(&mut self, kind: TokenKind<'_>) -> Result<(), Error> {
        if self.at(kind) {
            self.bump();
            Ok(())
        } else {
            Err(self.err_expected(&format!("{kind}")))
        }
    }

    fn err_expected(&self, expected: &str) -> Error {
        let t = self.tok;
        Error::new(
            ErrorKind::UnexpectedToken {
                expected: expected.to_owned(),
                found: t.kind.to_string(),
            },
            t.span.line,
            t.span.col,
        )
    }

    fn too_deep(&self) -> Error {
        let t = self.tok;
        Error::new(ErrorKind::NestingTooDeep, t.span.line, t.span.col)
    }

    /// Opens one nesting level; pair with `self.depth -= 1`.
    fn enter(&mut self) -> Result<(), Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.too_deep());
        }
        self.depth += 1;
        Ok(())
    }

    /// Checks that an expression node `height` levels tall fits below the
    /// levels already open, and returns the height.
    fn fits(&self, height: usize) -> Result<usize, Error> {
        if self.depth + height > MAX_DEPTH {
            return Err(self.too_deep());
        }
        Ok(height)
    }

    /// `IDENT ':'` label prefixes of a statement, onto `open_labels`.
    fn parse_labels(&mut self) {
        while let TokenKind::Ident(name) = self.tok.kind {
            if self.next.kind != TokenKind::Colon {
                break;
            }
            self.bump();
            self.bump();
            let l = self.draft.label(name);
            self.open_labels.push(l);
        }
    }

    /// Statements up to a token `stop` accepts, as one list allocated to
    /// fit.
    fn stmts_until(&mut self, stop: fn(TokenKind<'_>) -> bool) -> Result<Box<[StmtId]>, Error> {
        let open = self.open_stmts.len();
        while !stop(self.tok.kind) {
            let id = self.parse_stmt()?;
            self.open_stmts.push(id);
        }
        let list = self.open_stmts[open..].into();
        self.open_stmts.truncate(open);
        Ok(list)
    }

    /// A brace-enclosed block or a single statement: the body of a
    /// compound statement, one nesting level deeper.
    fn parse_block_or_stmt(&mut self) -> Result<Box<[StmtId]>, Error> {
        self.enter()?;
        let stmts = if self.at(TokenKind::LBrace) {
            self.bump();
            let stmts = self.stmts_until(|k| matches!(k, TokenKind::RBrace | TokenKind::Eof))?;
            self.expect(TokenKind::RBrace)?;
            stmts
        } else {
            Box::new([self.parse_stmt()?])
        };
        self.depth -= 1;
        Ok(stmts)
    }

    fn parse_stmt(&mut self) -> Result<StmtId, Error> {
        let open = self.open_labels.len();
        self.parse_labels();
        let line = self.tok.span.line;
        let kind = self.parse_stmt_kind()?;
        Ok(self.draft.push(kind, line, self.open_labels.drain(open..)))
    }

    /// Dispatches on the statement keyword. Compound statements get
    /// functions of their own, so the frames a nesting level puts on the
    /// stack hold only what that statement needs.
    fn parse_stmt_kind(&mut self) -> Result<StmtKind, Error> {
        match self.tok.kind {
            TokenKind::KwIf => self.parse_if(),
            TokenKind::KwWhile => self.parse_while(),
            TokenKind::KwDo => self.parse_do_while(),
            TokenKind::KwSwitch => self.parse_switch(),
            _ => self.parse_simple_stmt(),
        }
    }

    fn parse_simple_stmt(&mut self) -> Result<StmtKind, Error> {
        match self.tok.kind {
            TokenKind::Semi => {
                self.bump();
                Ok(StmtKind::Skip)
            }
            TokenKind::Ident(name) => {
                self.bump();
                self.expect(TokenKind::Assign)?;
                let rhs = self.parse_expr()?;
                self.expect(TokenKind::Semi)?;
                let lhs = self.draft.name(name);
                Ok(StmtKind::Assign { lhs, rhs })
            }
            TokenKind::KwRead => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let TokenKind::Ident(v) = self.tok.kind else {
                    return Err(self.err_expected("variable name"));
                };
                self.bump();
                let var = self.draft.name(v);
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Read { var })
            }
            TokenKind::KwWrite => {
                self.bump();
                self.expect(TokenKind::LParen)?;
                let arg = self.parse_expr()?;
                self.expect(TokenKind::RParen)?;
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Write { arg })
            }
            TokenKind::KwGoto => {
                self.bump();
                let TokenKind::Ident(l) = self.tok.kind else {
                    return Err(self.err_expected("label name"));
                };
                self.bump();
                let target = self.draft.label(l);
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Goto { target })
            }
            TokenKind::KwBreak => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Break)
            }
            TokenKind::KwContinue => {
                self.bump();
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Continue)
            }
            TokenKind::KwReturn => {
                self.bump();
                let value = if self.at(TokenKind::Semi) {
                    None
                } else {
                    Some(self.parse_expr()?)
                };
                self.expect(TokenKind::Semi)?;
                Ok(StmtKind::Return { value })
            }
            _ => Err(self.err_expected("a statement")),
        }
    }

    /// `if (c) S [else S]`, or the fused conditional jump `if (c) goto L;`.
    fn parse_if(&mut self) -> Result<StmtKind, Error> {
        self.bump();
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        // Fuse the exact unbraced `if (c) goto L;` pattern into a
        // single conditional-jump statement (paper, Figure 4). The probe
        // reads two tokens past the lookahead, then returns to a copy of
        // the lexer if the pattern does not hold.
        if let (TokenKind::KwGoto, TokenKind::Ident(l)) = (self.tok.kind, self.next.kind) {
            let save = (self.lexer.clone(), self.tok, self.next);
            self.bump();
            self.bump();
            if self.at(TokenKind::Semi) && self.next.kind != TokenKind::KwElse {
                self.bump();
                let target = self.draft.label(l);
                return Ok(StmtKind::CondGoto { cond, target });
            }
            (self.lexer, self.tok, self.next) = save;
        }
        let then_branch = self.parse_block_or_stmt()?;
        let else_branch = if self.at(TokenKind::KwElse) {
            self.bump();
            self.parse_block_or_stmt()?
        } else {
            Box::default()
        };
        Ok(StmtKind::If {
            cond,
            then_branch,
            else_branch,
        })
    }

    fn parse_while(&mut self) -> Result<StmtKind, Error> {
        self.bump();
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        let body = self.parse_block_or_stmt()?;
        Ok(StmtKind::While { cond, body })
    }

    fn parse_do_while(&mut self) -> Result<StmtKind, Error> {
        self.bump();
        let body = self.parse_block_or_stmt()?;
        self.expect(TokenKind::KwWhile)?;
        self.expect(TokenKind::LParen)?;
        let cond = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::Semi)?;
        Ok(StmtKind::DoWhile { body, cond })
    }

    fn parse_switch(&mut self) -> Result<StmtKind, Error> {
        self.bump();
        self.expect(TokenKind::LParen)?;
        let scrutinee = self.parse_expr()?;
        self.expect(TokenKind::RParen)?;
        self.expect(TokenKind::LBrace)?;
        self.enter()?;
        let arms = self.parse_switch_arms()?;
        self.depth -= 1;
        self.expect(TokenKind::RBrace)?;
        Ok(StmtKind::Switch { scrutinee, arms })
    }

    fn parse_switch_arms(&mut self) -> Result<Box<[SwitchArm]>, Error> {
        let mut arms = Vec::new();
        while !self.at(TokenKind::RBrace) {
            if self.at(TokenKind::Eof) {
                return Err(self.err_expected("`}`"));
            }
            let mut guards = Vec::new();
            loop {
                match self.tok.kind {
                    TokenKind::KwCase => {
                        self.bump();
                        let neg = self.at(TokenKind::Minus);
                        if neg {
                            self.bump();
                        }
                        let TokenKind::Int(v) = self.tok.kind else {
                            return Err(self.err_expected("case value"));
                        };
                        self.bump();
                        self.expect(TokenKind::Colon)?;
                        guards.push(CaseGuard::Case(if neg { -v } else { v }));
                    }
                    TokenKind::KwDefault => {
                        self.bump();
                        self.expect(TokenKind::Colon)?;
                        guards.push(CaseGuard::Default);
                    }
                    _ => break,
                }
            }
            if guards.is_empty() {
                return Err(self.err_expected("`case` or `default`"));
            }
            let body = self.stmts_until(|k| {
                matches!(
                    k,
                    TokenKind::KwCase | TokenKind::KwDefault | TokenKind::RBrace | TokenKind::Eof
                )
            })?;
            arms.push(SwitchArm {
                guards: guards.into(),
                body,
            });
        }
        Ok(arms.into())
    }

    // ---- Expressions (precedence climbing) ----
    //
    // Each function returns the expression with its tree height (a leaf
    // is 1), so a left-leaning chain like `y + y + ... + y`, which the
    // binary loop builds without recursing, is bounded too.

    fn parse_expr(&mut self) -> Result<Expr, Error> {
        Ok(self.parse_binary(0)?.0)
    }

    /// Binary operators binding at least as tightly as `min_prec`, all
    /// left-associative.
    fn parse_binary(&mut self, min_prec: u8) -> Result<(Expr, usize), Error> {
        let (mut lhs, mut height) = self.parse_unary()?;
        while let Some((op, prec)) = binary_op(self.tok.kind) {
            if prec < min_prec {
                break;
            }
            self.bump();
            let (rhs, rhs_height) = self.parse_binary(prec + 1)?;
            height = self.fits(1 + height.max(rhs_height))?;
            lhs = Expr::Binary(op, Box::new(lhs), Box::new(rhs));
        }
        Ok((lhs, height))
    }

    /// A primary expression under any prefix operators. The operators are
    /// collected in a loop, so a long chain of them costs no recursion.
    fn parse_unary(&mut self) -> Result<(Expr, usize), Error> {
        let open = self.depth;
        let mut ops = Vec::new();
        while let Some(op) = unary_op(self.tok.kind) {
            self.bump();
            self.enter()?;
            ops.push(op);
        }
        let (mut e, height) = if self.at(TokenKind::LParen) {
            self.parse_group()?
        } else {
            self.parse_leaf_or_call()?
        };
        self.depth = open;
        for &op in ops.iter().rev() {
            e = Expr::Unary(op, Box::new(e));
        }
        Ok((e, height + ops.len()))
    }

    /// `( e )`, one level deeper than its context.
    fn parse_group(&mut self) -> Result<(Expr, usize), Error> {
        self.bump();
        self.enter()?;
        let e = self.parse_binary(0)?;
        self.depth -= 1;
        self.expect(TokenKind::RParen)?;
        Ok(e)
    }

    fn parse_leaf_or_call(&mut self) -> Result<(Expr, usize), Error> {
        let name = match self.tok.kind {
            TokenKind::Int(n) => {
                self.bump();
                return Ok((Expr::Num(n), self.fits(1)?));
            }
            TokenKind::Ident(name) => name,
            _ => return Err(self.err_expected("an expression")),
        };
        self.bump();
        if !self.at(TokenKind::LParen) {
            let v = self.draft.name(name);
            return Ok((Expr::Var(v), self.fits(1)?));
        }
        let (args, height) = self.parse_args()?;
        let f = self.draft.name(name);
        Ok((Expr::Call(f, args), self.fits(height + 1)?))
    }

    /// A call's `(e, ...)`, one level deeper than its context, with the
    /// tallest argument's height.
    fn parse_args(&mut self) -> Result<(Box<[Expr]>, usize), Error> {
        self.bump();
        self.enter()?;
        let open = self.open_args.len();
        let mut height = 0;
        if !self.at(TokenKind::RParen) {
            loop {
                let (arg, h) = self.parse_binary(0)?;
                self.open_args.push(arg);
                height = height.max(h);
                if !self.at(TokenKind::Comma) {
                    break;
                }
                self.bump();
            }
        }
        self.depth -= 1;
        self.expect(TokenKind::RParen)?;
        Ok((self.open_args.drain(open..).collect(), height))
    }
}

/// The prefix operator a token spells.
fn unary_op(kind: TokenKind<'_>) -> Option<UnOp> {
    match kind {
        TokenKind::Minus => Some(UnOp::Neg),
        TokenKind::Bang => Some(UnOp::Not),
        _ => None,
    }
}

/// The binary operator a token spells, with its precedence (higher binds
/// tighter).
fn binary_op(kind: TokenKind<'_>) -> Option<(BinOp, u8)> {
    Some(match kind {
        TokenKind::OrOr => (BinOp::Or, 0),
        TokenKind::AndAnd => (BinOp::And, 1),
        TokenKind::EqEq => (BinOp::Eq, 2),
        TokenKind::NotEq => (BinOp::Ne, 2),
        TokenKind::Lt => (BinOp::Lt, 3),
        TokenKind::Le => (BinOp::Le, 3),
        TokenKind::Gt => (BinOp::Gt, 3),
        TokenKind::Ge => (BinOp::Ge, 3),
        TokenKind::Plus => (BinOp::Add, 4),
        TokenKind::Minus => (BinOp::Sub, 4),
        TokenKind::Star => (BinOp::Mul, 5),
        TokenKind::Slash => (BinOp::Div, 5),
        TokenKind::Percent => (BinOp::Mod, 5),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_program() {
        let p = parse("x = 1; write(x);").unwrap();
        assert_eq!(p.len(), 2);
        assert!(matches!(p.stmt(p.body()[0]).kind, StmtKind::Assign { .. }));
    }

    #[test]
    fn precedence() {
        let p = parse("x = 1 + 2 * 3 == 7 && 1 < 2;").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        // (((1 + (2*3)) == 7) && (1 < 2))
        let Expr::Binary(BinOp::And, l, r) = rhs else {
            panic!("top is And: {rhs:?}")
        };
        assert!(matches!(**l, Expr::Binary(BinOp::Eq, ..)));
        assert!(matches!(**r, Expr::Binary(BinOp::Lt, ..)));
    }

    #[test]
    fn unary_chains() {
        let p = parse("x = !-y;").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        let Expr::Unary(UnOp::Not, inner) = rhs else {
            panic!()
        };
        assert!(matches!(**inner, Expr::Unary(UnOp::Neg, _)));
    }

    #[test]
    fn cond_goto_fusion() {
        let p = parse("L: x = 0; if (x > 0) goto L;").unwrap();
        assert_eq!(p.len(), 2);
        assert!(matches!(
            p.stmt(p.body()[1]).kind,
            StmtKind::CondGoto { .. }
        ));
    }

    #[test]
    fn cond_goto_not_fused_with_else() {
        let p = parse("L: x = 0; if (x > 0) goto L; else x = 1;").unwrap();
        // if + goto + assigns: the else-form must stay a plain If.
        assert!(matches!(p.stmt(p.body()[1]).kind, StmtKind::If { .. }));
        assert_eq!(p.len(), 4);
    }

    #[test]
    fn braced_goto_not_fused() {
        let p = parse("L: x = 0; if (x > 0) { goto L; }").unwrap();
        assert!(matches!(p.stmt(p.body()[1]).kind, StmtKind::If { .. }));
    }

    #[test]
    fn labels_attach_to_statements() {
        let p = parse("L1: L2: x = 0; goto L1; goto L2;").unwrap();
        let s = p.body()[0];
        assert_eq!(p.labels_of(s).len(), 2);
        assert_eq!(p.label_target(p.label("L1").unwrap()), Some(s));
        assert_eq!(p.label_target(p.label("L2").unwrap()), Some(s));
    }

    #[test]
    fn switch_with_fallthrough_and_default() {
        let p = parse(
            "switch (c) {
               case 1: case 2: x = 1;
               case 3: x = 2; break;
               default: x = 3;
             }",
        )
        .unwrap();
        let StmtKind::Switch { arms, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        assert_eq!(arms.len(), 3);
        assert_eq!(arms[0].guards.len(), 2);
        assert_eq!(arms[1].body.len(), 2);
        assert_eq!(*arms[2].guards, [CaseGuard::Default]);
    }

    #[test]
    fn negative_case_values() {
        let p = parse("switch (c) { case -5: x = 1; }").unwrap();
        let StmtKind::Switch { arms, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        assert_eq!(*arms[0].guards, [CaseGuard::Case(-5)]);
    }

    #[test]
    fn do_while_parses() {
        let p = parse("do { x = x + 1; } while (x < 10);").unwrap();
        assert!(matches!(p.stmt(p.body()[0]).kind, StmtKind::DoWhile { .. }));
    }

    #[test]
    fn dangling_else_binds_tight() {
        let p = parse("if (a) if (b) x = 1; else x = 2;").unwrap();
        let StmtKind::If {
            then_branch,
            else_branch,
            ..
        } = &p.stmt(p.body()[0]).kind
        else {
            panic!()
        };
        assert!(else_branch.is_empty());
        let StmtKind::If { else_branch, .. } = &p.stmt(then_branch[0]).kind else {
            panic!()
        };
        assert_eq!(else_branch.len(), 1);
    }

    /// Lexical errors outrank syntax errors wherever they sit: after a
    /// syntax error, inside the fused-goto probe, or in a comment that
    /// never closes.
    #[test]
    fn lexical_error_after_syntax_error_wins() {
        for (src, kind, line, col) in [
            ("x = ;\ny = 1 @ 2;", ErrorKind::UnexpectedChar('@'), 2, 7),
            ("x = 1 +;\n/* open", ErrorKind::UnterminatedComment, 2, 1),
            (
                "L: if (x) goto L # ;",
                ErrorKind::UnexpectedChar('#'),
                1,
                18,
            ),
            (
                "x = (1;\ny = 99999999999999999999;",
                ErrorKind::IntOverflow("99999999999999999999".into()),
                2,
                5,
            ),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!((err.kind, err.line, err.col), (kind, line, col), "{src:?}");
        }
        let err = parse("x = ;").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnexpectedToken { .. }));
        assert_eq!((err.line, err.col), (1, 5));
    }

    #[test]
    fn error_missing_semi() {
        let err = parse("x = 1").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn error_unclosed_block() {
        let err = parse("while (1) { x = 1;").unwrap_err();
        assert!(matches!(err.kind, ErrorKind::UnexpectedToken { .. }));
    }

    #[test]
    fn error_undefined_label() {
        let err = parse("goto nowhere;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UndefinedLabel("nowhere".into()));
    }

    #[test]
    fn error_break_outside() {
        let err = parse("break;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::BreakOutsideLoop);
    }

    #[test]
    fn error_continue_in_switch_only() {
        let err = parse("switch (c) { case 1: continue; }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::ContinueOutsideLoop);
    }

    #[test]
    fn continue_ok_in_loop_inside_switch() {
        let p = parse("while (1) { switch (c) { case 1: continue; } }");
        assert!(p.is_ok());
    }

    #[test]
    fn break_ok_in_switch() {
        assert!(parse("switch (c) { case 1: break; }").is_ok());
    }

    #[test]
    fn call_with_multiple_args() {
        let p = parse("x = g(a, b + 1, f());").unwrap();
        let StmtKind::Assign { rhs, .. } = &p.stmt(p.body()[0]).kind else {
            panic!()
        };
        let Expr::Call(_, args) = rhs else { panic!() };
        assert_eq!(args.len(), 3);
    }

    #[test]
    fn empty_program_is_ok() {
        let p = parse("").unwrap();
        assert!(p.is_empty());
    }

    fn sum(terms: usize) -> String {
        format!("x = {};", vec!["y"; terms].join(" + "))
    }

    fn negations(n: usize) -> String {
        format!("x = {}y;", "-".repeat(n))
    }

    fn parens(n: usize) -> String {
        format!("x = {}1{};", "(".repeat(n), ")".repeat(n))
    }

    fn nested_ifs(n: usize) -> String {
        format!("{}x = 1;{}", "if (x) {".repeat(n), "}".repeat(n))
    }

    fn assert_too_deep(src: &str) {
        let err = parse(src).expect_err("over-deep input must not parse");
        assert_eq!(err.kind, ErrorKind::NestingTooDeep, "{err}");
    }

    /// Inputs that used to overflow the parser's stack, or build a tree
    /// deep enough to overflow whatever walked or dropped it next.
    #[test]
    fn hostile_nesting_is_a_parse_error() {
        assert_too_deep(&parens(100_000));
        assert_too_deep(&"if (x) {".repeat(20_000));
        assert_too_deep(&sum(100_000));
        // Just past the bound: these used to parse, and the daemon then
        // wrote snapshot records its own decoder rejected.
        assert_too_deep(&negations(600));
        assert_too_deep(&sum(601));
    }

    /// Every kind of nesting is accepted up to [`MAX_DEPTH`] levels and
    /// rejected one level past it.
    #[test]
    fn nesting_is_bounded_at_exactly_max_depth() {
        // `y + ... + y` of n terms is a left-leaning tree n levels tall.
        let p = parse(&sum(MAX_DEPTH)).unwrap();
        assert_eq!(p.len(), 1);
        assert_too_deep(&sum(MAX_DEPTH + 1));
        // n unary operators over a leaf: n + 1 levels.
        parse(&negations(MAX_DEPTH - 1)).unwrap();
        assert_too_deep(&negations(MAX_DEPTH));
        // Each parenthesised group is a level above its leaf.
        parse(&parens(MAX_DEPTH - 1)).unwrap();
        assert_too_deep(&parens(MAX_DEPTH));
        // A statement inside n bodies, plus its one-level expression.
        let p = parse(&nested_ifs(MAX_DEPTH - 1)).unwrap();
        assert_eq!(p.len(), MAX_DEPTH);
        assert_too_deep(&nested_ifs(MAX_DEPTH));
        // Statement and expression levels add up.
        let half = MAX_DEPTH / 2;
        let mixed = |terms: usize| format!("{}{}", "while (x) ".repeat(half), sum(terms));
        parse(&mixed(MAX_DEPTH - half)).unwrap();
        assert_too_deep(&mixed(MAX_DEPTH - half + 1));
        let err = parse(&sum(MAX_DEPTH + 1)).unwrap_err().to_string();
        assert!(
            err.ends_with(&format!("nesting deeper than {MAX_DEPTH} levels")),
            "{err}"
        );
    }

    #[test]
    fn skip_statement() {
        let p = parse("L: ; goto L;").unwrap();
        assert!(matches!(p.stmt(p.body()[0]).kind, StmtKind::Skip));
    }
}
