//! Post-parse semantic validation: label resolution, then the structure
//! walk's jump-context and switch-guard checks.

use crate::ast::*;
use crate::error::{Error, ErrorKind};
use crate::structure::Layout;

/// Resolves labels, then walks the block tree once: the walk checks the
/// jump contexts and switch guards and derives the line table and the
/// structure links. Called by both the parser and the builder before a
/// [`Program`] is released to users.
pub(crate) fn validate(prog: &mut Program) -> Result<(), Error> {
    resolve_labels(prog)?;
    prog.layout = Layout::of(&prog.stmts, &prog.body)?;
    Ok(())
}

fn resolve_labels(prog: &mut Program) -> Result<(), Error> {
    prog.label_targets = vec![None; prog.labels.len()];
    for id in 0..prog.stmts.len() {
        let stmt = &prog.stmts[id];
        let line = stmt.line;
        for &l in stmt.labels.clone().iter() {
            if prog.label_targets[l.0 as usize].is_some() {
                return Err(Error::new(
                    ErrorKind::DuplicateLabel(prog.label_str(l).to_owned()),
                    line,
                    0,
                ));
            }
            prog.label_targets[l.0 as usize] = Some(StmtId(id as u32));
        }
    }
    // Every goto / fused conditional goto must name a defined label.
    for id in 0..prog.stmts.len() {
        let stmt = &prog.stmts[id];
        let target = match stmt.kind {
            StmtKind::Goto { target } | StmtKind::CondGoto { target, .. } => Some(target),
            _ => None,
        };
        if let Some(t) = target {
            if prog.label_targets[t.0 as usize].is_none() {
                return Err(Error::new(
                    ErrorKind::UndefinedLabel(prog.label_str(t).to_owned()),
                    stmt.line,
                    0,
                ));
            }
        }
    }
    Ok(())
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
