//! Structural statement paths.
//!
//! A [`StmtPath`] names a statement by its position in the nesting
//! structure — "top-level statement 2, then-branch statement 0" — rather
//! than by its [`StmtId`]. Paths survive rebuilds: the same path resolved
//! against an edited copy of a program finds the statement occupying the
//! same structural slot, even though arena ids may have shifted. The
//! incremental editing layer expresses all edits against paths for exactly
//! this reason.

use crate::ast::{Program, StmtId, StmtKind};

/// Selects one nested block of a compound statement (or the program body).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BlockSel {
    /// The top-level program body, or the body of a `while`/`do-while`.
    Body,
    /// The then-branch of an `if`.
    Then,
    /// The else-branch of an `if`.
    Else,
    /// The body of the `i`-th arm of a `switch`.
    Arm(usize),
}

/// One step of a [`StmtPath`]: which block to enter, and the 0-based
/// position within it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PathStep {
    /// The block entered by this step. The first step of a path must use
    /// [`BlockSel::Body`] (the program's top-level body).
    pub block: BlockSel,
    /// 0-based index within that block.
    pub index: usize,
}

/// A structural path from the program root to a statement.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct StmtPath {
    /// The steps, outermost first. Never empty for a valid path.
    pub steps: Vec<PathStep>,
}

impl StmtPath {
    /// A path to the `index`-th top-level statement.
    pub fn root(index: usize) -> StmtPath {
        StmtPath {
            steps: vec![PathStep {
                block: BlockSel::Body,
                index,
            }],
        }
    }

    /// Extends the path one level deeper: into `block` of the statement the
    /// path currently names, at position `index`.
    pub fn child(mut self, block: BlockSel, index: usize) -> StmtPath {
        self.steps.push(PathStep { block, index });
        self
    }

    /// Nesting depth (number of steps).
    pub fn depth(&self) -> usize {
        self.steps.len()
    }

    /// Resolves the path to the statement it names in `p`, or `None` if any
    /// step selects a block the enclosing statement does not have or an
    /// index past the end of that block.
    pub fn resolve(&self, p: &Program) -> Option<StmtId> {
        let mut cur: Option<StmtId> = None;
        for step in &self.steps {
            let block = block_of(p, cur, step.block)?;
            cur = Some(*block.get(step.index)?);
        }
        cur
    }

    /// Resolves the path as an *insertion slot*: every step but the last
    /// must name an existing statement, while the final index may equal the
    /// block length (append position). Returns the statement owning the
    /// final block (`None` for the top-level body) plus the slot index.
    pub fn resolve_slot(&self, p: &Program) -> Option<(Option<StmtId>, BlockSel, usize)> {
        let (last, prefix) = self.steps.split_last()?;
        let mut cur: Option<StmtId> = None;
        for step in prefix {
            let block = block_of(p, cur, step.block)?;
            cur = Some(*block.get(step.index)?);
        }
        let block = block_of(p, cur, last.block)?;
        if last.index > block.len() {
            return None;
        }
        Some((cur, last.block, last.index))
    }
}

/// The statement list selected by `sel` inside `owner` (`None` = program
/// root), or `None` when the owner has no such block.
fn block_of(p: &Program, owner: Option<StmtId>, sel: BlockSel) -> Option<&[StmtId]> {
    match owner {
        None => match sel {
            BlockSel::Body => Some(p.body()),
            _ => None,
        },
        Some(id) => match (&p.stmt(id).kind, sel) {
            (StmtKind::If { then_branch, .. }, BlockSel::Then) => Some(then_branch),
            (StmtKind::If { else_branch, .. }, BlockSel::Else) => Some(else_branch),
            (StmtKind::While { body, .. }, BlockSel::Body)
            | (StmtKind::DoWhile { body, .. }, BlockSel::Body) => Some(body),
            (StmtKind::Switch { arms, .. }, BlockSel::Arm(i)) => arms.get(i).map(|a| &*a.body),
            _ => None,
        },
    }
}

/// Computes the structural path of `target` in `p`, or `None` when the
/// statement is not reachable from the program body (a detached arena id).
pub fn path_of(p: &Program, target: StmtId) -> Option<StmtPath> {
    let mut steps = Vec::new();
    if find_in_block(p, p.body(), BlockSel::Body, target, &mut steps) {
        Some(StmtPath { steps })
    } else {
        None
    }
}

fn find_in_block(
    p: &Program,
    block: &[StmtId],
    sel: BlockSel,
    target: StmtId,
    steps: &mut Vec<PathStep>,
) -> bool {
    for (i, &id) in block.iter().enumerate() {
        steps.push(PathStep {
            block: sel,
            index: i,
        });
        if id == target {
            return true;
        }
        let found = match &p.stmt(id).kind {
            StmtKind::If {
                then_branch,
                else_branch,
                ..
            } => {
                find_in_block(p, then_branch, BlockSel::Then, target, steps)
                    || find_in_block(p, else_branch, BlockSel::Else, target, steps)
            }
            StmtKind::While { body, .. } | StmtKind::DoWhile { body, .. } => {
                find_in_block(p, body, BlockSel::Body, target, steps)
            }
            StmtKind::Switch { arms, .. } => arms
                .iter()
                .enumerate()
                .any(|(k, arm)| find_in_block(p, &arm.body, BlockSel::Arm(k), target, steps)),
            _ => false,
        };
        if found {
            return true;
        }
        steps.pop();
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;

    #[test]
    fn roundtrip_every_statement() {
        let p = parse(
            "read(c);
             if (c > 0) { x = 1; while (x < 5) { x = x + 1; } } else { x = 2; }
             switch (c) { case 0: y = 1; default: y = 2; }
             do { c = c - 1; } while (c > 0);
             write(x);",
        )
        .unwrap();
        for id in p.stmt_ids() {
            let path = path_of(&p, id).expect("every arena stmt is reachable");
            assert_eq!(path.resolve(&p), Some(id), "roundtrip for {id:?}");
        }
    }

    #[test]
    fn resolve_rejects_bad_steps() {
        let p = parse("x = 1; while (x < 3) { x = x + 1; }").unwrap();
        // Index past the end of the top-level body.
        assert_eq!(StmtPath::root(5).resolve(&p), None);
        // An assignment has no nested body.
        assert_eq!(StmtPath::root(0).child(BlockSel::Body, 0).resolve(&p), None);
        // A while has a Body but no Then.
        assert_eq!(StmtPath::root(1).child(BlockSel::Then, 0).resolve(&p), None);
        // Valid descent.
        let inner = StmtPath::root(1).child(BlockSel::Body, 0).resolve(&p);
        assert_eq!(inner, Some(p.at_line(3)));
    }

    #[test]
    fn slot_resolution_allows_append() {
        let p = parse("x = 1; while (x < 3) { x = x + 1; }").unwrap();
        // Append at the end of the loop body (index == len).
        let slot = StmtPath::root(1)
            .child(BlockSel::Body, 1)
            .resolve_slot(&p)
            .unwrap();
        assert_eq!(slot, (Some(p.at_line(2)), BlockSel::Body, 1));
        // One past that is invalid.
        assert!(StmtPath::root(1)
            .child(BlockSel::Body, 2)
            .resolve_slot(&p)
            .is_none());
        // Top-level append.
        let slot = StmtPath::root(2).resolve_slot(&p).unwrap();
        assert_eq!(slot, (None, BlockSel::Body, 2));
    }

    #[test]
    fn paths_survive_reprint() {
        let src = "read(c); if (c > 0) { x = 1; } else { x = 2; } write(x);";
        let p = parse(src).unwrap();
        let q = parse(&crate::print_program(&p)).unwrap();
        let then_stmt = StmtPath::root(1).child(BlockSel::Then, 0);
        assert_eq!(
            p.line_of(then_stmt.resolve(&p).unwrap()),
            q.line_of(then_stmt.resolve(&q).unwrap()),
        );
    }
}
