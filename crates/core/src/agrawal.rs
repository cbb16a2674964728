//! The paper's general algorithm (Figure 7).

use crate::{Analysis, Criterion, Slice};

/// Agrawal's Figure 7: the slicing algorithm for programs with arbitrary
/// jump statements.
///
/// Starting from the conventional slice (which, via the fused
/// conditional-goto adaptation, already handles conditional jumps), it
/// repeatedly traverses the postdominator tree in preorder; an
/// *unconditional* jump statement `J` not yet in the slice is added —
/// together with the transitive closure of its dependences — when its
/// *nearest postdominator in the slice* differs from its *nearest lexical
/// successor in the slice* (or when the do-while extension guard fires;
/// the chain index answers it, and the difftest oracle states it as a
/// tree walk). When a full traversal adds nothing, it re-associates the
/// labels of in-slice `goto`s whose targets fell outside the slice.
///
/// `Slice::traversals` reports the number of productive traversals; the
/// paper's Figure 10 program is the canonical example needing two.
///
/// The traversals run in the change-driven kernel of the `sparse` module,
/// which re-tests only the jumps the latest admissions can affect, in the
/// same postdominator-preorder rank, so its admissions, rounds and slice
/// are the paper's round-based loop's. That loop itself is the
/// differential oracle in `jumpslice_difftest::oracle`, which also checks
/// the paper's remark that the lexical successor tree's preorder works
/// equally well.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{corpus, Analysis, Criterion, agrawal_slice};
/// let p = corpus::fig3();
/// let a = Analysis::new(&p);
/// let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15)));
/// // Figure 3-c: the gotos on lines 7 and 13 join; the one on line 11 does not.
/// assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 13, 15]);
/// ```
pub fn agrawal_slice(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    crate::sparse::figure7(a, crit, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{conventional_slice, corpus};

    #[test]
    fn figure_3_slice_and_labels() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15)));
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 13, 15]);
        assert_eq!(s.traversals, 1, "paper: a single traversal suffices");
        // goto L14's target (line 14) is not in the slice: L14 moves to its
        // nearest postdominator in the slice, write(positives) on line 15.
        let l14 = p.label("L14").unwrap();
        assert_eq!(s.moved_labels, vec![(l14, Some(p.at_line(15)))]);
    }

    #[test]
    fn figure_5_slice() {
        let p = corpus::fig5();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(14)));
        // Figure 5-c: includes continue on 7, omits continue on 11.
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 14]);
        assert_eq!(s.traversals, 1);
        assert!(
            s.moved_labels.is_empty(),
            "structured jumps carry no labels"
        );
    }

    #[test]
    fn figure_8_slice_pulls_predicate_9() {
        let p = corpus::fig8();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15)));
        // Figure 8-c: jumps 7, 11, 13 and predicate 9 join the slice.
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 9, 11, 13, 15]);
        assert_eq!(s.traversals, 1);
    }

    #[test]
    fn figure_10_needs_two_traversals() {
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(9)));
        // Figure 10-b.
        assert_eq!(s.lines(&p), vec![1, 2, 3, 4, 7, 9]);
        assert_eq!(s.traversals, 2, "node 4 only joins in the second pass");
        // Both goto targets (6 and 8) fell out: L6 re-targets the goto on
        // line 7, L8 re-targets write(y) on line 9.
        let mut moved = s.moved_labels.clone();
        moved.sort_by_key(|&(l, _)| p.label_str(l).to_owned());
        assert_eq!(
            moved,
            vec![
                (p.label("L6").unwrap(), Some(p.at_line(7))),
                (p.label("L8").unwrap(), Some(p.at_line(9))),
            ]
        );
    }

    #[test]
    fn figure_16_correct_slice() {
        let p = corpus::fig16();
        let a = Analysis::new(&p);
        let s = agrawal_slice(&a, &Criterion::at_stmt(p.at_line(10)));
        // Figure 16-c: the goto on line 4 is included; L6 re-associates.
        assert_eq!(s.lines(&p), vec![1, 2, 3, 4, 5, 10]);
        let l6 = p.label("L6").unwrap();
        assert_eq!(s.moved_labels, vec![(l6, Some(p.at_line(10)))]);
    }

    #[test]
    fn slice_on_jump_free_program_equals_conventional() {
        let p = corpus::fig1();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(12));
        let conv = conventional_slice(&a, &crit);
        let full = agrawal_slice(&a, &crit);
        assert_eq!(conv.stmts, full.stmts);
        assert_eq!(full.traversals, 0);
    }
}
