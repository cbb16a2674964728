//! The lexical successor tree (paper, §3).
//!
//! A statement `S'` is the *immediate lexical successor* of `S` if deleting
//! `S` from the program makes control pass to `S'` whenever it reaches the
//! corresponding location. The relation is a tree rooted at the program
//! exit; it is built purely syntax-directedly — the whole point of the
//! paper's algorithm is that this small side structure replaces the
//! flowgraph/PDG modifications Ball–Horwitz and Choi–Ferrante require.

use crate::SlicePoint;
use jumpslice_lang::{LexSucc, Program, StmtId};

/// The lexical successor tree of a program.
///
/// # Examples
///
/// ```
/// use jumpslice_core::LexSuccTree;
/// use jumpslice_lang::parse;
///
/// let p = parse("while (c) { x = 1; y = 2; } write(x);")?;
/// let lst = LexSuccTree::build(&p);
/// // Deleting the last body statement sends control back to the predicate.
/// assert_eq!(lst.immediate(p.at_line(3)), Some(p.at_line(1)));
/// // Deleting the loop itself sends control to the write.
/// assert_eq!(lst.immediate(p.at_line(1)), Some(p.at_line(4)));
/// // The last top-level statement's successor is the exit.
/// assert_eq!(lst.immediate(p.at_line(4)), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct LexSuccTree {
    /// Immediate lexical successor per statement; `None` = exit.
    parent: Vec<SlicePoint>,
}

impl LexSuccTree {
    /// Builds the tree for `prog` (syntax-directed, no flowgraph needed)
    /// from the program's one lexical-successor pass,
    /// [`Structure::lexical_successors`](jumpslice_lang::Structure::lexical_successors).
    pub fn build(prog: &Program) -> LexSuccTree {
        let parent = prog
            .structure()
            .lexical_successors()
            .into_iter()
            .map(LexSucc::stmt)
            .collect();
        LexSuccTree { parent }
    }

    /// The immediate lexical successor of `s` (`None` = exit).
    pub fn immediate(&self, s: StmtId) -> SlicePoint {
        self.parent[s.index()]
    }

    /// Iterator over the proper lexical successors of `s`, nearest first.
    /// The final implicit element is the exit, which the iterator does not
    /// yield — callers treat exhaustion as "reached exit".
    pub fn successors(&self, s: StmtId) -> Successors<'_> {
        Successors {
            tree: self,
            cur: self.immediate(s),
        }
    }

    /// Whether `anc` is a lexical successor of `s` (strictly).
    pub fn is_successor(&self, anc: StmtId, s: StmtId) -> bool {
        self.successors(s).any(|x| x == anc)
    }

    /// Statements in preorder over the tree (roots are statements whose
    /// immediate successor is the exit, i.e. the tree hangs off the exit).
    ///
    /// The paper notes the Figure 7 traversal may equally be driven by this
    /// order instead of the postdominator tree's; the ablation bench
    /// compares the two.
    pub fn preorder(&self) -> Vec<StmtId> {
        let n = self.parent.len();
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut roots = Vec::new();
        for (i, p) in self.parent.iter().enumerate() {
            match p {
                Some(q) => children[q.index()].push(i),
                None => roots.push(i),
            }
        }
        let mut out = Vec::with_capacity(n);
        let mut stack: Vec<usize> = roots.into_iter().rev().collect();
        while let Some(i) = stack.pop() {
            out.push(StmtId::from_index(i));
            for &c in children[i].iter().rev() {
                stack.push(c);
            }
        }
        out
    }
}

/// Iterator over proper lexical successors, produced by
/// [`LexSuccTree::successors`].
#[derive(Clone, Debug)]
pub struct Successors<'a> {
    tree: &'a LexSuccTree,
    cur: SlicePoint,
}

impl Iterator for Successors<'_> {
    type Item = StmtId;

    fn next(&mut self) -> Option<StmtId> {
        let s = self.cur?;
        self.cur = self.tree.immediate(s);
        Some(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    fn lst_of(src: &str) -> (Program, LexSuccTree) {
        let p = parse(src).unwrap();
        let t = LexSuccTree::build(&p);
        (p, t)
    }

    fn ils(p: &Program, t: &LexSuccTree, line: usize) -> Option<usize> {
        t.immediate(p.at_line(line)).map(|s| p.line_of(s))
    }

    #[test]
    fn flat_program_is_a_chain() {
        // In a jump-free flat program the LST equals the postdominator
        // chain (paper: the two trees coincide without jumps).
        let (p, t) = lst_of("a = 1; b = 2; c = 3;");
        assert_eq!(ils(&p, &t, 1), Some(2));
        assert_eq!(ils(&p, &t, 2), Some(3));
        assert_eq!(ils(&p, &t, 3), None);
    }

    #[test]
    fn flat_goto_program_chain() {
        // Figure 4-d: the LST of the flat goto program is the lexical chain
        // 1 -> 2 -> ... -> 15 -> exit.
        let src = "sum = 0;
                   positives = 0;
                   L3: if (eof()) goto L14;
                   read(x);
                   if (x > 0) goto L8;
                   sum = sum + f1(x);
                   goto L13;
                   L8: positives = positives + 1;
                   if (x % 2 != 0) goto L12;
                   sum = sum + f2(x);
                   goto L13;
                   L12: sum = sum + f3(x);
                   L13: goto L3;
                   L14: write(sum);
                   write(positives);";
        let (p, t) = lst_of(src);
        for line in 1..15 {
            assert_eq!(ils(&p, &t, line), Some(line + 1), "ils of line {line}");
        }
        assert_eq!(ils(&p, &t, 15), None);
    }

    #[test]
    fn figure6d_continue_version() {
        // Figure 5-a / 6-d.
        let src = "sum = 0;
                   positives = 0;
                   while (!eof()) {
                     read(x);
                     if (x <= 0) {
                       sum = sum + f1(x);
                       continue;
                     }
                     positives = positives + 1;
                     if (x % 2 == 0) {
                       sum = sum + f2(x);
                       continue;
                     }
                     sum = sum + f3(x);
                   }
                   write(sum);
                   write(positives);";
        let (p, t) = lst_of(src);
        // Note this source has 15 statements (extra "sum = 0" first), so the
        // paper's line k is our k+1... no: the paper's Figure 5-a also has
        // sum=0 on line 1. Lines: 1 sum, 2 positives, 3 while, 4 read,
        // 5 if, 6 sum, 7 continue, 8 positives, 9 if, 10 sum, 11 continue,
        // 12 sum, 13 write(sum), 14 write(positives).
        assert_eq!(ils(&p, &t, 7), Some(8), "continue falls into positives+=1");
        assert_eq!(ils(&p, &t, 11), Some(12));
        assert_eq!(ils(&p, &t, 12), Some(3), "last body statement -> loop");
        assert_eq!(ils(&p, &t, 3), Some(13), "loop -> write(sum)");
        assert_eq!(ils(&p, &t, 14), None);
    }

    #[test]
    fn switch_arm_fallthrough() {
        let src = "switch (c) {
                     case 1: x = 1; break;
                     case 2: y = 2; break;
                     case 3: z = 3; break;
                   }
                   write(x); write(y); write(z);";
        let (p, t) = lst_of(src);
        // Lines: 1 switch, 2 x=1, 3 break, 4 y=2, 5 break, 6 z=3, 7 break,
        // 8 write(x), 9 write(y), 10 write(z).
        assert_eq!(ils(&p, &t, 3), Some(4), "break falls into next arm");
        assert_eq!(ils(&p, &t, 5), Some(6));
        assert_eq!(ils(&p, &t, 7), Some(8), "last arm exits the switch");
        assert_eq!(ils(&p, &t, 1), Some(8));
    }

    #[test]
    fn successor_iteration_and_queries() {
        let (p, t) = lst_of("while (c) { if (a) { x = 1; } y = 2; } write(y);");
        // Lines: 1 while, 2 if, 3 x=1, 4 y=2, 5 write.
        let x = p.at_line(3);
        let chain: Vec<usize> = t.successors(x).map(|s| p.line_of(s)).collect();
        assert_eq!(chain, vec![4, 1, 5]);
        assert!(t.is_successor(p.at_line(1), x));
        assert!(
            !t.is_successor(p.at_line(2), x),
            "the if is not a successor"
        );
    }

    #[test]
    fn preorder_is_parents_first_and_complete() {
        let (p, t) = lst_of("a = 1; while (c) { b = 2; } d = 3;");
        let order = t.preorder();
        assert_eq!(order.len(), p.len());
        let pos = |s: StmtId| order.iter().position(|&x| x == s).unwrap();
        for s in p.stmt_ids() {
            if let Some(par) = t.immediate(s) {
                assert!(pos(par) < pos(s), "parent before child");
            }
        }
    }

    #[test]
    fn empty_switch_arm_skipped_in_fallthrough() {
        let src = "switch (c) { case 1: x = 1; case 2: case 3: y = 2; } write(y);";
        let (p, t) = lst_of(src);
        // case 2 / case 3 guard one arm {y=2}; x=1 falls through into it.
        assert_eq!(ils(&p, &t, 2), Some(3));
    }

    #[test]
    fn do_while_body_end_returns_to_predicate() {
        let (p, t) = lst_of("do { x = 1; y = 2; } while (c); write(y);");
        // Lines: 1 do-while, 2 x, 3 y, 4 write.
        assert_eq!(ils(&p, &t, 3), Some(1));
        assert_eq!(ils(&p, &t, 1), Some(4));
    }
}
