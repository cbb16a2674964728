//! Making a [`Program`]: the draft the parser and the builder fill, and
//! the semantic validation that turns it into a program — label
//! resolution, then the structure walk's jump-context and switch-guard
//! checks.

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use crate::intern::{Index, Interner};
use crate::structure::Layout;

/// A program under construction: its statements in arena order, its
/// string tables with their build-time indexes, and the labels attached
/// so far.
#[derive(Debug, Default)]
pub(crate) struct Draft {
    stmts: Vec<Stmt>,
    names: Interner,
    name_index: Index,
    labels: Interner,
    label_index: Index,
    /// `(statement, label)` per attached label, in arena order; one
    /// statement's labels in source order.
    attached: Vec<(StmtId, Label)>,
}

impl Draft {
    pub(crate) fn name(&mut self, s: &str) -> Name {
        Name(self.name_index.intern(&mut self.names, s))
    }

    pub(crate) fn label(&mut self, s: &str) -> Label {
        Label(self.label_index.intern(&mut self.labels, s))
    }

    /// Appends a statement to the arena, with the labels attached to it.
    pub(crate) fn push(
        &mut self,
        kind: StmtKind,
        line: u32,
        labels: impl IntoIterator<Item = Label>,
    ) -> StmtId {
        let id = StmtId(u32::try_from(self.stmts.len()).expect("statement arena overflow"));
        self.stmts.push(Stmt { kind, line });
        self.attached.extend(labels.into_iter().map(|l| (id, l)));
        id
    }

    /// Resolves labels, then walks the block tree once: the walk checks
    /// the jump contexts and switch guards and derives the line table and
    /// the structure links. The string tables' indexes are dropped here.
    pub(crate) fn finish(self, body: Box<[StmtId]>) -> Result<Program, Error> {
        let Draft {
            stmts,
            mut names,
            mut labels,
            attached,
            ..
        } = self;
        let stmts = stmts.into_boxed_slice();
        let label_targets = resolve_labels(&stmts, &labels, &attached)?;
        let layout = Layout::of(&stmts, &body)?;
        names.freeze();
        labels.freeze();
        Ok(Program {
            stmts,
            body,
            names,
            labels,
            label_targets,
            labeled: attached.into_iter().map(|(_, l)| l).collect(),
            layout,
        })
    }
}

fn resolve_labels(
    stmts: &[Stmt],
    labels: &Interner,
    attached: &[(StmtId, Label)],
) -> Result<Box<[Option<StmtId>]>, Error> {
    let mut targets = vec![None; labels.len()];
    for &(id, l) in attached {
        if targets[l.index()].replace(id).is_some() {
            return Err(Error::new(
                ErrorKind::DuplicateLabel(labels.resolve(l.0).to_owned()),
                stmts[id.index()].line,
                0,
            ));
        }
    }
    // Every goto / fused conditional goto must name a defined label.
    for stmt in stmts {
        if let StmtKind::Goto { target } | StmtKind::CondGoto { target, .. } = stmt.kind {
            if targets[target.index()].is_none() {
                return Err(Error::new(
                    ErrorKind::UndefinedLabel(labels.resolve(target.0).to_owned()),
                    stmt.line,
                    0,
                ));
            }
        }
    }
    Ok(targets.into_boxed_slice())
}

#[cfg(test)]
mod tests {
    use crate::error::ErrorKind;
    use crate::parse;

    #[test]
    fn duplicate_label_rejected() {
        let err = parse("L: x = 0; L: y = 0; goto L;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateLabel("L".into()));
    }

    #[test]
    fn duplicate_case_rejected() {
        let err = parse("switch (c) { case 1: x = 0; case 1: y = 0; }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateCase(1));
    }

    #[test]
    fn duplicate_default_rejected() {
        let err = parse("switch (c) { default: x = 0; default: y = 0; }").unwrap_err();
        assert_eq!(err.kind, ErrorKind::DuplicateDefault);
    }

    #[test]
    fn label_on_nested_statement_resolves() {
        let p = parse("while (1) { L: x = 0; goto L; }").unwrap();
        assert!(p.label_target(p.label("L").unwrap()).is_some());
    }

    #[test]
    fn cond_goto_target_checked() {
        let err = parse("if (x) goto MISSING;").unwrap_err();
        assert_eq!(err.kind, ErrorKind::UndefinedLabel("MISSING".into()));
    }

    /// Labels resolve first; then the first violation in lexical order is
    /// the error, a switch's guards before its arms.
    #[test]
    fn first_violation_in_lexical_order_wins() {
        for (src, kind, line) in [
            (
                "if (x) {\n continue;\n} else {\n break;\n}",
                ErrorKind::ContinueOutsideLoop,
                2,
            ),
            (
                "switch (c) {\n case 1: continue;\n case 1: x = 1;\n}",
                ErrorKind::DuplicateCase(1),
                1,
            ),
            ("break;\ngoto M;", ErrorKind::UndefinedLabel("M".into()), 2),
        ] {
            let err = parse(src).unwrap_err();
            assert_eq!((err.kind, err.line), (kind, line), "{src:?}");
        }
    }

    #[test]
    fn break_in_nested_if_inside_loop_ok() {
        assert!(parse("while (1) { if (x) { break; } }").is_ok());
    }
}
