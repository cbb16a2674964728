//! Lexical-structure queries over a [`Program`].
//!
//! Computed once and shared by the CFG builder, the lexical-successor-tree
//! construction, and the baseline slicers: parent links, next-statement-in-
//! block links, and enclosing loop/breakable constructs.

use crate::ast::*;

/// Precomputed structural facts about every statement of a [`Program`].
///
/// # Examples
///
/// ```
/// use jumpslice_lang::{parse, Structure};
/// let p = parse("while (c) { x = 1; break; }")?;
/// let s = Structure::of(&p);
/// let brk = p.at_line(3);
/// assert_eq!(s.enclosing_breakable(brk), Some(p.at_line(1)));
/// # Ok::<(), jumpslice_lang::Error>(())
/// ```
#[derive(Clone, Debug)]
pub struct Structure {
    parent: Vec<Option<StmtId>>,
    next_in_block: Vec<Option<StmtId>>,
    enclosing_loop: Vec<Option<StmtId>>,
    enclosing_breakable: Vec<Option<StmtId>>,
}

impl Structure {
    /// Computes the structure of `prog`.
    pub fn of(prog: &Program) -> Structure {
        let n = prog.len();
        let mut s = Structure {
            parent: vec![None; n],
            next_in_block: vec![None; n],
            enclosing_loop: vec![None; n],
            enclosing_breakable: vec![None; n],
        };
        s.walk_block(prog, prog.body(), None, None, None);
        s
    }

    fn walk_block(
        &mut self,
        prog: &Program,
        block: &[StmtId],
        parent: Option<StmtId>,
        enclosing_loop: Option<StmtId>,
        enclosing_breakable: Option<StmtId>,
    ) {
        for (i, &id) in block.iter().enumerate() {
            self.parent[id.index()] = parent;
            self.next_in_block[id.index()] = block.get(i + 1).copied();
            self.enclosing_loop[id.index()] = enclosing_loop;
            self.enclosing_breakable[id.index()] = enclosing_breakable;
            match &prog.stmt(id).kind {
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.walk_block(
                        prog,
                        then_branch,
                        Some(id),
                        enclosing_loop,
                        enclosing_breakable,
                    );
                    self.walk_block(
                        prog,
                        else_branch,
                        Some(id),
                        enclosing_loop,
                        enclosing_breakable,
                    );
                }
                StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                    self.walk_block(prog, body, Some(id), Some(id), Some(id));
                }
                StmtKind::Switch { arms, .. } => {
                    for arm in arms {
                        self.walk_block(prog, &arm.body, Some(id), enclosing_loop, Some(id));
                    }
                }
                _ => {}
            }
        }
    }

    /// The compound statement lexically containing `id`, if any.
    pub fn parent(&self, id: StmtId) -> Option<StmtId> {
        self.parent[id.index()]
    }

    /// The statement immediately following `id` in its own block, if any.
    pub fn next_in_block(&self, id: StmtId) -> Option<StmtId> {
        self.next_in_block[id.index()]
    }

    /// The nearest enclosing `while`/`do-while` of `id` (what `continue`
    /// targets), excluding `id` itself.
    pub fn enclosing_loop(&self, id: StmtId) -> Option<StmtId> {
        self.enclosing_loop[id.index()]
    }

    /// The nearest enclosing `while`/`do-while`/`switch` of `id` (what
    /// `break` exits), excluding `id` itself.
    pub fn enclosing_breakable(&self, id: StmtId) -> Option<StmtId> {
        self.enclosing_breakable[id.index()]
    }

    /// The chain of ancestors of `id` (parent, grandparent, …), nearest
    /// first.
    pub fn ancestors(&self, id: StmtId) -> Vec<StmtId> {
        let mut out = Vec::new();
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            out.push(p);
            cur = self.parent(p);
        }
        out
    }

    /// Whether `anc` lexically contains `id` (strictly).
    pub fn contains(&self, anc: StmtId, id: StmtId) -> bool {
        let mut cur = self.parent(id);
        while let Some(p) = cur {
            if p == anc {
                return true;
            }
            cur = self.parent(p);
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn parents_and_next_links() {
        let p = parse(
            "x = 0;
             if (x) { y = 1; z = 2; }
             w = 3;",
        )
        .unwrap();
        let s = Structure::of(&p);
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
        let s = Structure::of(&p);
        let whl = p.at_line(1);
        let sw = p.at_line(2);
        let brk = p.at_line(3);
        let cont = p.at_line(4);
        assert_eq!(s.enclosing_breakable(brk), Some(sw));
        assert_eq!(s.enclosing_loop(brk), Some(whl));
        assert_eq!(s.enclosing_breakable(cont), Some(whl));
        assert_eq!(s.enclosing_loop(cont), Some(whl));
    }

    #[test]
    fn nested_loops() {
        let p = parse("while (a) { while (b) { break; } break; }").unwrap();
        let s = Structure::of(&p);
        let outer = p.at_line(1);
        let inner = p.at_line(2);
        assert_eq!(s.enclosing_breakable(p.at_line(3)), Some(inner));
        assert_eq!(s.enclosing_breakable(p.at_line(4)), Some(outer));
    }

    #[test]
    fn ancestors_and_contains() {
        let p = parse("if (a) { while (b) { x = 1; } }").unwrap();
        let s = Structure::of(&p);
        let x = p.at_line(3);
        assert_eq!(s.ancestors(x), vec![p.at_line(2), p.at_line(1)]);
        assert!(s.contains(p.at_line(1), x));
        assert!(!s.contains(x, p.at_line(1)));
    }
}
