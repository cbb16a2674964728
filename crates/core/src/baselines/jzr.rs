//! The Jiang–Zhou–Robson rule set (paper, §5; [18]).

use crate::{reassociate_labels, Analysis, Criterion, Slice};

/// The Jiang–Zhou–Robson rules, reconstructed from the paper's critique:
/// keep every jump that is directly control dependent on a predicate of the
/// conventional slice — i.e. the Figure 13 heuristic applied to *arbitrary*
/// programs, without the structuredness precondition that makes it sound.
///
/// On structured programs this coincides with
/// [`crate::conservative_slice`]; on unstructured programs it misses jumps
/// whose controlling predicate is not in the conventional slice — exactly
/// the paper's Figure 8 counterexample, where the `goto`s on lines 11 and
/// 13 are control dependent on the predicate on line 9, which the
/// conventional slice does not contain.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{corpus, Analysis, Criterion};
/// use jumpslice_core::baselines::jzr_slice;
/// let p = corpus::fig8();
/// let a = Analysis::new(&p);
/// let s = jzr_slice(&a, &Criterion::at_stmt(p.at_line(15)));
/// assert!(!s.lines(&p).contains(&11) && !s.lines(&p).contains(&13));
/// ```
pub fn jzr_slice(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    let base = crate::conventional_slice(a, crit).stmts;
    let mut stmts = base.clone();
    // One-shot: every unconditional jump is judged against the
    // *conventional* slice only. This is the incompleteness the paper calls
    // out — on Figure 8 the gotos on lines 11 and 13 are control dependent
    // on the predicate on line 9, which the conventional slice never
    // contains, so they are silently dropped.
    for j in a
        .prog()
        .stmt_ids()
        .filter(|&s| a.prog().stmt(s).kind.is_unconditional_jump() && a.is_live(s))
    {
        if stmts.contains(j) {
            continue;
        }
        if a.pdg().control().deps(j).iter().any(|&p| base.contains(p)) {
            stmts.insert(j);
        }
    }
    let moved_labels = reassociate_labels(a, &stmts);
    Slice {
        stmts,
        moved_labels,
        traversals: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{agrawal_slice, conservative_slice, corpus};

    #[test]
    fn unsound_on_figure_8() {
        // §5: "they will fail to include both jump statements on lines 11
        // and 13 in the slice in Figure 8."
        let p = corpus::fig8();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(15));
        let s = jzr_slice(&a, &crit);
        // Line 7 is admitted (control dependent on the in-slice predicate
        // on line 5); lines 11 and 13 are not.
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 15]);
        let correct = agrawal_slice(&a, &crit);
        assert!(correct.lines(&p).contains(&11));
        assert!(correct.lines(&p).contains(&13));
    }

    #[test]
    fn coincides_with_conservative_on_structured_programs() {
        for p in [
            corpus::fig1(),
            corpus::fig5(),
            corpus::fig14(),
            corpus::fig16(),
        ] {
            let a = Analysis::new(&p);
            for line in 1..=p.len() {
                let crit = Criterion::at_stmt(p.at_line(line));
                assert_eq!(
                    jzr_slice(&a, &crit).stmts,
                    conservative_slice(&a, &crit).stmts
                );
            }
        }
    }
}
