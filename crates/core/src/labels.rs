//! Label re-association (the final step of Figures 7, 12, and 13).

use crate::{Analysis, SlicePoint};
use jumpslice_dataflow::StmtSet;
use jumpslice_lang::{Label, StmtKind};

/// For each `goto L` (plain or fused conditional) in the slice whose target
/// statement is *not* in the slice, associates `L` with the target's nearest
/// postdominator in the slice (`None` = exit).
///
/// Quoting Figure 7: *"For each goto statement, Goto L, in Slice, if the
/// statement labeled L is not in Slice then associate the label L with its
/// nearest postdominator in Slice."*
///
/// The postdominator tree is fetched at most once per call, and only when
/// a label moves.
pub fn reassociate_labels(a: &Analysis<'_>, slice: &StmtSet) -> Vec<(Label, SlicePoint)> {
    let mut moved: Vec<(Label, SlicePoint)> = Vec::new();
    let mut pdom = None;
    for s in slice.iter() {
        let label = match a.prog().stmt(s).kind {
            StmtKind::Goto { target } | StmtKind::CondGoto { target, .. } => target,
            _ => continue,
        };
        if moved.iter().any(|&(l, _)| l == label) {
            continue;
        }
        let target_stmt = a
            .prog()
            .label_target(label)
            .expect("validated programs have resolved labels");
        if slice.contains(target_stmt) {
            continue;
        }
        let pdom = *pdom.get_or_insert_with(|| a.pdom());
        let dest = a.nearest_in_pdom(pdom, target_stmt, slice);
        moved.push((label, dest));
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Analysis;
    use jumpslice_dataflow::StmtSet;
    use jumpslice_lang::parse;

    #[test]
    fn dangling_label_moves_to_nearest_postdominator() {
        let p = parse("x = 1; goto L; y = 2; L: z = 3; write(x);").unwrap();
        let a = Analysis::new(&p);
        // Slice keeps the goto but not the labeled statement.
        let slice: StmtSet = [p.at_line(1), p.at_line(2), p.at_line(5)]
            .into_iter()
            .collect();
        let moved = reassociate_labels(&a, &slice);
        let l = p.label("L").unwrap();
        assert_eq!(moved, vec![(l, Some(p.at_line(5)))]);
    }

    #[test]
    fn label_in_slice_does_not_move() {
        let p = parse("goto L; L: write(x);").unwrap();
        let a = Analysis::new(&p);
        let slice: StmtSet = [p.at_line(1), p.at_line(2)].into_iter().collect();
        assert!(reassociate_labels(&a, &slice).is_empty());
    }

    #[test]
    fn label_moves_to_exit_when_nothing_follows() {
        let p = parse("goto L; L: x = 1;").unwrap();
        let a = Analysis::new(&p);
        let slice: StmtSet = [p.at_line(1)].into_iter().collect();
        let moved = reassociate_labels(&a, &slice);
        assert_eq!(moved, vec![(p.label("L").unwrap(), None)]);
    }

    #[test]
    fn two_gotos_one_label_deduplicated() {
        let p = parse("goto L; goto L; L: x = 1; write(y);").unwrap();
        let a = Analysis::new(&p);
        let slice: StmtSet = [p.at_line(1), p.at_line(2), p.at_line(4)]
            .into_iter()
            .collect();
        let moved = reassociate_labels(&a, &slice);
        assert_eq!(moved.len(), 1);
    }
}
