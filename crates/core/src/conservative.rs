//! The conservative on-the-fly approximation (paper, §4, Figure 13).

use crate::{conventional_slice, reassociate_labels, Analysis, Criterion, Slice};
use jumpslice_obs as obs;

/// The paper's Figure 13: include *every* jump statement directly control
/// dependent on a predicate in the conventional slice.
///
/// Needs no postdominator-tree traversal and no lexical successor tree at
/// all, so the test can run on the fly while the conventional closure is
/// computed — "extremely efficient and should suffice for use with most
/// programs written in modern procedural languages" (§1). The price is
/// precision: on Figure 14 it keeps the `break`s on lines 5 and 7 that
/// Figure 12 proves removable. For structured programs the result is always
/// a correct (super-)slice; for unstructured programs it can miss jumps —
/// Figure 8's `goto`s on lines 11 and 13 are control dependent on a
/// predicate *outside* the conventional slice (see
/// [`crate::baselines::jzr_slice`], which is this rule applied beyond its
/// domain).
///
/// # Examples
///
/// ```
/// use jumpslice_core::{corpus, Analysis, Criterion, conservative_slice};
/// let p = corpus::fig14();
/// let a = Analysis::new(&p);
/// let s = conservative_slice(&a, &Criterion::at_stmt(p.at_line(9)));
/// assert_eq!(s.lines(&p), vec![1, 3, 4, 5, 7, 9]); // Figure 14-c
/// ```
pub fn conservative_slice(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    let mut stmts = conventional_slice(a, crit).stmts;
    // Only live *unconditional* jumps are candidates (conditional jumps are
    // covered by the conventional algorithm's adaptation). A single pass
    // suffices: the added jumps are not predicates, so they can never
    // enable one another.
    let jumps: Vec<_> = a
        .prog()
        .stmt_ids()
        .filter(|&s| a.prog().stmt(s).kind.is_unconditional_jump() && a.is_live(s))
        .collect();
    for j in jumps {
        if stmts.contains(j) {
            continue;
        }
        // The second disjunct is the do-while extension guard shared with
        // Figures 7/12 (see Analysis::dowhile_hazard); it never fires on
        // the paper's own constructs — and costs nothing on programs
        // without do-while, so this algorithm forces neither the pdom tree
        // nor the LST on the paper's language (label re-association aside).
        let on_predicate = a
            .pdg()
            .control()
            .deps(j)
            .iter()
            .find(|&&p| stmts.contains(p))
            .copied();
        if on_predicate.is_some() || a.dowhile_hazard(j, &stmts) {
            obs::record(|| obs::Event::JumpAdmitted {
                algo: "fig13",
                line: a.prog().line_of(j) as u32,
                round: 1,
                reason: match on_predicate {
                    Some(p) => obs::AdmitReason::OnIncludedPredicate {
                        predicate_line: a.prog().line_of(p) as u32,
                    },
                    None => obs::AdmitReason::DoWhileHazard,
                },
            });
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
    use crate::{corpus, structured_slice};

    #[test]
    fn figure_5_same_as_structured() {
        // Paper: "For the example shown in Figure 5-a, this algorithm will
        // give the same slice as that given by the algorithm in Figure 12."
        let p = corpus::fig5();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(14));
        assert_eq!(
            conservative_slice(&a, &crit).stmts,
            structured_slice(&a, &crit).stmts
        );
    }

    #[test]
    fn figure_14_is_strictly_bigger() {
        let p = corpus::fig14();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(9));
        let precise = structured_slice(&a, &crit);
        let cons = conservative_slice(&a, &crit);
        assert!(precise.subset_of(&cons));
        assert_eq!(cons.lines(&p), vec![1, 3, 4, 5, 7, 9]);
        assert_eq!(precise.lines(&p), vec![1, 3, 4, 9]);
    }

    #[test]
    fn superset_of_structured_on_structured_corpus() {
        for p in [
            corpus::fig1(),
            corpus::fig5(),
            corpus::fig14(),
            corpus::fig16(),
        ] {
            let a = Analysis::new(&p);
            for line in 1..=p.len() {
                let crit = Criterion::at_stmt(p.at_line(line));
                let precise = structured_slice(&a, &crit);
                let cons = conservative_slice(&a, &crit);
                assert!(
                    precise.subset_of(&cons),
                    "line {line}: Figure 12 slice must be within Figure 13's"
                );
            }
        }
    }
}
