//! Label re-association (the final step of Figures 7, 12, and 13).

use crate::sparse::Nearest;
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
/// Labels come out in slice order, each once. The chain index's pdom
/// parents answer the walk, through this thread's nearest-in-slice memo;
/// both are fetched at most once per call, and only when a label moves.
pub fn reassociate_labels(a: &Analysis<'_>, slice: &StmtSet) -> Vec<(Label, SlicePoint)> {
    let prog = a.prog();
    let mut moved: Vec<(Label, SlicePoint)> = Vec::new();
    let mut seen = vec![false; prog.num_labels()];
    let mut probe = None;
    for s in slice.iter() {
        let label = match prog.stmt(s).kind {
            StmtKind::Goto { target } | StmtKind::CondGoto { target, .. } => target,
            _ => continue,
        };
        if std::mem::replace(&mut seen[label.index()], true) {
            continue;
        }
        let target_stmt = prog
            .label_target(label)
            .expect("validated programs have resolved labels");
        if slice.contains(target_stmt) {
            continue;
        }
        let (ci, nearest) =
            probe.get_or_insert_with(|| (a.chain_index(), Nearest::take(prog.len())));
        moved.push((label, nearest.pdom(ci, target_stmt, slice)));
    }
    if let Some((_, nearest)) = probe {
        nearest.put_back();
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        agrawal_slice, conservative_slice, conventional_slice, structured_slice, Analysis,
        Criterion,
    };
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

        // A fused conditional goto is the only jump, so the chain index
        // indexes none; its label still moves, under every slicer.
        let p = parse("read(c); L: x = 1; if (c) goto L; write(c);").unwrap();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(3));
        let l = p.label("L").unwrap();
        for slicer in [
            conventional_slice,
            agrawal_slice,
            structured_slice,
            conservative_slice,
        ] {
            let s = slicer(&a, &crit);
            assert_eq!(s.lines(&p), vec![1, 3]);
            assert_eq!(s.moved_labels, vec![(l, Some(p.at_line(3)))]);
        }
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
