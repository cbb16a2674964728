//! Lexical structure of a [`Program`].
//!
//! One preorder walk, run whenever a program is made, numbers its lines,
//! links every statement to its parent and to the next statement of its
//! block, notes whether any `do-while` occurs and how deep statements
//! nest, and rejects `break`/`continue` outside their constructs and
//! duplicate switch guards.
//! [`Structure`] answers queries from those links: the targets of `break`
//! and `continue` and do-while bodies read them. It also gives every
//! statement its immediate lexical successor ([`LexSucc`]), the one rule
//! both the flowgraph and the lexical successor tree are built from.

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use std::collections::HashSet;

/// What the walk derives from a program's block tree; never persisted.
/// Links hold a statement's arena index + 1, with 0 for "none", like the
/// line table's "not in the body".
#[derive(Clone, Debug, Default, PartialEq)]
pub(crate) struct Layout {
    /// The statement on each line, by line number - 1.
    pub(crate) order: Vec<StmtId>,
    /// The line of each statement, by arena index (0: not in the body).
    pub(crate) line: Vec<u32>,
    /// The compound statement containing each statement (0: top level).
    parent: Vec<u32>,
    /// The statement after each one in its own block (0: last).
    next_in_block: Vec<u32>,
    /// Whether any statement is a `do-while`.
    has_do_while: bool,
    /// The most compound statements any statement is nested in.
    depth: u32,
}

fn link(id: Option<&StmtId>) -> u32 {
    id.map_or(0, |s| s.0 + 1)
}

fn unlink(l: u32) -> Option<StmtId> {
    l.checked_sub(1).map(StmtId)
}

/// An open block of the walk: its statements not yet visited, its parent's
/// link, how many compound statements enclose it, and whether it sits
/// inside a loop, and inside a loop or a switch.
struct Open<'a> {
    rest: std::slice::Iter<'a, StmtId>,
    parent: u32,
    depth: u32,
    in_loop: bool,
    in_breakable: bool,
}

impl Layout {
    /// The walk: a preorder over an explicit stack of open blocks, so
    /// nesting depth costs heap, not call stack. The first semantic
    /// violation in lexical order is the error, at its statement's line.
    /// `stmts` and `body` must form a block tree (each arena statement
    /// reached once), as the parser and builder make it and
    /// [`Program::from_parts`] checks it.
    pub(crate) fn of<'a>(stmts: &'a [Stmt], body: &'a [StmtId]) -> Result<Layout, Error> {
        let n = stmts.len();
        let mut order = Vec::with_capacity(n);
        let mut parent = vec![0; n];
        let mut next_in_block = vec![0; n];
        let mut has_do_while = false;
        let mut depth = 0;
        let mut open = vec![Open {
            rest: body.iter(),
            parent: 0,
            depth: 0,
            in_loop: false,
            in_breakable: false,
        }];
        while let Some(block) = open.last_mut() {
            let Some(&id) = block.rest.next() else {
                open.pop();
                continue;
            };
            order.push(id);
            parent[id.index()] = block.parent;
            next_in_block[id.index()] = link(block.rest.as_slice().first());
            depth = depth.max(block.depth);
            let (in_loop, in_breakable) = (block.in_loop, block.in_breakable);
            let inner_depth = block.depth + 1;
            let inner = |block: &'a [StmtId], in_loop, in_breakable| Open {
                rest: block.iter(),
                parent: id.0 + 1,
                depth: inner_depth,
                in_loop,
                in_breakable,
            };
            let stmt = &stmts[id.index()];
            // Nested blocks are pushed last-first, so the first one is
            // walked next.
            match &stmt.kind {
                StmtKind::Break if !in_breakable => {
                    return Err(Error::new(ErrorKind::BreakOutsideLoop, stmt.line, 0));
                }
                StmtKind::Continue if !in_loop => {
                    return Err(Error::new(ErrorKind::ContinueOutsideLoop, stmt.line, 0));
                }
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    open.push(inner(else_branch, in_loop, in_breakable));
                    open.push(inner(then_branch, in_loop, in_breakable));
                }
                StmtKind::While { body, .. } => open.push(inner(body, true, true)),
                StmtKind::DoWhile { body, .. } => {
                    has_do_while = true;
                    open.push(inner(body, true, true));
                }
                StmtKind::Switch { arms, .. } => {
                    check_guards(arms, stmt.line)?;
                    open.extend(arms.iter().rev().map(|arm| inner(&arm.body, in_loop, true)));
                }
                _ => {}
            }
        }
        let mut line = vec![0; n];
        for (i, id) in order.iter().enumerate() {
            line[id.index()] = i as u32 + 1;
        }
        Ok(Layout {
            order,
            line,
            parent,
            next_in_block,
            has_do_while,
            depth,
        })
    }
}

/// Rejects a `case` value or a `default` that a switch guards twice.
fn check_guards(arms: &[SwitchArm], line: u32) -> Result<(), Error> {
    let mut seen = HashSet::new();
    for &g in arms.iter().flat_map(|arm| &arm.guards) {
        if !seen.insert(g) {
            let kind = match g {
                CaseGuard::Case(v) => ErrorKind::DuplicateCase(v),
                CaseGuard::Default => ErrorKind::DuplicateDefault,
            };
            return Err(Error::new(kind, line, 0));
        }
    }
    Ok(())
}

/// A statement's immediate lexical successor: where control passes from
/// the statement's location when the statement is deleted. See
/// [`Structure::lexical_successors`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum LexSucc {
    /// Control enters this statement: a `do-while` at its body's first
    /// statement, anything else at its own node.
    Enter(StmtId),
    /// Control returns to this enclosing loop's predicate.
    Loop(StmtId),
    /// Control leaves the program.
    Exit,
}

impl LexSucc {
    /// The successor statement, `None` for the exit.
    pub fn stmt(self) -> Option<StmtId> {
        match self {
            LexSucc::Enter(s) | LexSucc::Loop(s) => Some(s),
            LexSucc::Exit => None,
        }
    }
}

impl Program {
    /// Lexical-structure queries, answered from the links recorded when
    /// the program was made.
    pub fn structure(&self) -> Structure<'_> {
        Structure { prog: self }
    }
}

/// Structural facts about every statement of a [`Program`]: parent links,
/// next-statement-in-block links, and the enclosing loop and breakable
/// constructs.
///
/// # Examples
///
/// ```
/// use jumpslice_lang::parse;
/// let p = parse("while (c) { x = 1; break; }")?;
/// let brk = p.at_line(3);
/// assert_eq!(p.structure().enclosing_breakable(brk), Some(p.at_line(1)));
/// # Ok::<(), jumpslice_lang::Error>(())
/// ```
#[derive(Clone, Copy, Debug)]
pub struct Structure<'p> {
    prog: &'p Program,
}

impl Structure<'_> {
    /// The compound statement lexically containing `id`, if any.
    pub fn parent(&self, id: StmtId) -> Option<StmtId> {
        unlink(self.prog.layout.parent[id.index()])
    }

    /// The statement immediately following `id` in its own block, if any.
    pub fn next_in_block(&self, id: StmtId) -> Option<StmtId> {
        unlink(self.prog.layout.next_in_block[id.index()])
    }

    /// The nearest enclosing `while`/`do-while` of `id` (what `continue`
    /// targets), excluding `id` itself.
    pub fn enclosing_loop(&self, id: StmtId) -> Option<StmtId> {
        self.nearest_enclosing(id, |p| {
            matches!(
                self.prog.stmt(p).kind,
                StmtKind::While { .. } | StmtKind::DoWhile { .. }
            )
        })
    }

    /// The nearest enclosing `while`/`do-while`/`switch` of `id` (what
    /// `break` exits), excluding `id` itself.
    pub fn enclosing_breakable(&self, id: StmtId) -> Option<StmtId> {
        self.nearest_enclosing(id, |p| {
            matches!(
                self.prog.stmt(p).kind,
                StmtKind::While { .. } | StmtKind::DoWhile { .. } | StmtKind::Switch { .. }
            )
        })
    }

    /// Whether `anc` lexically contains `id` (strictly).
    pub fn contains(&self, anc: StmtId, id: StmtId) -> bool {
        self.nearest_enclosing(id, |p| p == anc).is_some()
    }

    /// Whether the program contains any `do-while`.
    pub fn has_do_while(&self) -> bool {
        self.prog.layout.has_do_while
    }

    /// The most compound statements (`if`, `while`, `do-while`, `switch`)
    /// that any one statement is nested in: 0 for a flat program. The
    /// parser accepts up to [`MAX_DEPTH`](crate::MAX_DEPTH).
    pub fn depth(&self) -> usize {
        self.prog.layout.depth as usize
    }

    /// Every statement's immediate lexical successor (paper, §3), by arena
    /// index: where control passes from the statement's location when the
    /// statement is deleted, which is also a jump's fall-through.
    ///
    /// One pass over the lexical order, parents first: a statement's answer
    /// is its next sibling, or for the last statement of a block it is read
    /// from the block's owner. A loop body's last statement returns to the
    /// loop, a switch arm's falls into the next non-empty arm (C
    /// semantics), and an `if` branch's continues with the `if`'s own
    /// answer. No recursion and no walk up the parents, so any nesting
    /// depth costs O(statements).
    ///
    /// # Examples
    ///
    /// ```
    /// use jumpslice_lang::{parse, LexSucc};
    /// let p = parse("while (c) { x = 1; } write(x);")?;
    /// let succ = p.structure().lexical_successors();
    /// assert_eq!(succ[p.at_line(1).index()], LexSucc::Enter(p.at_line(3)));
    /// assert_eq!(succ[p.at_line(2).index()], LexSucc::Loop(p.at_line(1)));
    /// assert_eq!(succ[p.at_line(3).index()], LexSucc::Exit);
    /// # Ok::<(), jumpslice_lang::Error>(())
    /// ```
    pub fn lexical_successors(&self) -> Vec<LexSucc> {
        let prog = self.prog;
        let mut succ = vec![LexSucc::Exit; prog.len()];
        fn chain(succ: &mut [LexSucc], block: &[StmtId], follow: LexSucc) {
            for pair in block.windows(2) {
                succ[pair[0].index()] = LexSucc::Enter(pair[1]);
            }
            if let Some(&last) = block.last() {
                succ[last.index()] = follow;
            }
        }
        chain(&mut succ, prog.body(), LexSucc::Exit);
        for &s in prog.lexical_order() {
            let own = succ[s.index()];
            match &prog.stmt(s).kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    chain(&mut succ, then_branch, own);
                    chain(&mut succ, else_branch, own);
                }
                StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                    chain(&mut succ, body, LexSucc::Loop(s));
                }
                StmtKind::Switch { arms, .. } => {
                    let mut follow = own;
                    for arm in arms.iter().rev() {
                        chain(&mut succ, &arm.body, follow);
                        if let Some(&first) = arm.body.first() {
                            follow = LexSucc::Enter(first);
                        }
                    }
                }
                _ => {}
            }
        }
        succ
    }

    /// The nearest proper ancestor of `id` that satisfies `pick`.
    fn nearest_enclosing(&self, id: StmtId, pick: impl Fn(StmtId) -> bool) -> Option<StmtId> {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if pick(p) {
                return Some(p);
            }
            cur = self.parent(p);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use crate::parse;

    #[test]
    fn parents_and_next_links() {
        let p = parse(
            "x = 0;
             if (x) { y = 1; z = 2; }
             w = 3;",
        )
        .unwrap();
        let s = p.structure();
        let ifs = p.at_line(2);
        let y = p.at_line(3);
        let z = p.at_line(4);
        let w = p.at_line(5);
        assert_eq!(s.parent(y), Some(ifs));
        assert_eq!(s.parent(ifs), None);
        assert_eq!(s.next_in_block(y), Some(z));
        assert_eq!(s.next_in_block(z), None);
        assert_eq!(s.next_in_block(ifs), Some(w));
    }

    #[test]
    fn enclosing_loop_and_breakable() {
        let p = parse(
            "while (c) {
               switch (x) {
                 case 1: break;
               }
               continue;
             }",
        )
        .unwrap();
        let s = p.structure();
        let whl = p.at_line(1);
        let sw = p.at_line(2);
        let brk = p.at_line(3);
        let cont = p.at_line(4);
        assert_eq!(s.enclosing_breakable(brk), Some(sw));
        assert_eq!(s.enclosing_loop(brk), Some(whl));
        assert_eq!(s.enclosing_breakable(cont), Some(whl));
        assert_eq!(s.enclosing_loop(cont), Some(whl));
        assert_eq!(s.enclosing_loop(whl), None);
    }

    #[test]
    fn nested_loops() {
        let p = parse("while (a) { while (b) { break; } break; }").unwrap();
        let s = p.structure();
        let outer = p.at_line(1);
        let inner = p.at_line(2);
        assert_eq!(s.enclosing_breakable(p.at_line(3)), Some(inner));
        assert_eq!(s.enclosing_breakable(p.at_line(4)), Some(outer));
    }

    #[test]
    fn contains_is_strict_ancestry() {
        let p = parse("if (a) { while (b) { x = 1; } }").unwrap();
        let s = p.structure();
        let x = p.at_line(3);
        assert!(s.contains(p.at_line(1), x));
        assert!(s.contains(p.at_line(2), x));
        assert!(!s.contains(x, p.at_line(1)));
        assert!(!s.contains(x, x));
    }

    #[test]
    fn do_while_flag() {
        assert!(!parse("while (a) { x = 1; }")
            .unwrap()
            .structure()
            .has_do_while());
        assert!(parse("if (a) { do { x = 1; } while (b); }")
            .unwrap()
            .structure()
            .has_do_while());
    }
}
