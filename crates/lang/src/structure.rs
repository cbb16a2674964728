//! Lexical structure of a [`Program`].
//!
//! One preorder walk, run whenever a program is made, numbers its lines,
//! links every statement to its parent and to the next statement of its
//! block, notes whether any `do-while` occurs, and rejects `break`/
//! `continue` outside their constructs and duplicate switch guards.
//! [`Structure`] answers queries from those links: the lexical successor
//! tree, the targets of `break` and `continue`, and do-while bodies read
//! them.

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
}

fn link(id: Option<&StmtId>) -> u32 {
    id.map_or(0, |s| s.0 + 1)
}

fn unlink(l: u32) -> Option<StmtId> {
    l.checked_sub(1).map(StmtId)
}

/// An open block of the walk: its statements not yet visited, its parent's
/// link, and whether it sits inside a loop, and inside a loop or a switch.
struct Open<'a> {
    rest: std::slice::Iter<'a, StmtId>,
    parent: u32,
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
        let mut open = vec![Open {
            rest: body.iter(),
            parent: 0,
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
            let (in_loop, in_breakable) = (block.in_loop, block.in_breakable);
            let inner = |block: &'a [StmtId], in_loop, in_breakable| Open {
                rest: block.iter(),
                parent: id.0 + 1,
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
