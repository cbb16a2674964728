//! The conservative on-the-fly approximation (paper, §4, Figure 13).

use crate::conventional::conventional_closure;
use crate::{reassociate_labels, Analysis, Criterion, Slice};
use jumpslice_obs as obs;

/// The paper's Figure 13: include *every* jump statement directly control
/// dependent on a predicate in the conventional slice.
///
/// The paper's test needs no postdominator-tree traversal and no lexical
/// successor tree, so it can run on the fly while the conventional closure
/// is computed — "extremely efficient and should suffice for use with
/// most programs written in modern procedural languages" (§1). Two steps
/// read the chain index, which is built from both trees: the do-while
/// extension guard, shared with Figures 7 and 12, on a program with a
/// `do-while`; and label re-association, when a label moves. The price is
/// precision: on Figure 14 it keeps the `break`s on lines 5 and 7 that
/// Figure 12 proves removable. For structured programs the result is
/// always a correct (super-)slice; for unstructured programs it can miss
/// jumps — Figure 8's `goto`s on lines 11 and 13 are control dependent on
/// a predicate *outside* the conventional slice (see
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
    let mut stmts = conventional_closure(a, crit);
    let prog = a.prog();
    let control = a.pdg().control();
    // The do-while guard reads the chain index; without a do-while it is
    // fetched only if a label moves.
    let index = prog.structure().has_do_while().then(|| a.chain_index());
    // Only live *unconditional* jumps are candidates (conditional jumps are
    // covered by the conventional algorithm's adaptation). A single pass
    // in statement order suffices: the added jumps are not predicates, so
    // they can never enable one another.
    let jumps = prog
        .stmt_ids()
        .filter(|&s| prog.stmt(s).kind.is_unconditional_jump() && a.is_live(s));
    for j in jumps {
        if stmts.contains(j) {
            continue;
        }
        // The second disjunct is the do-while extension guard; it never
        // fires on the paper's own constructs.
        let on_predicate = control
            .deps(j)
            .iter()
            .find(|&&p| stmts.contains(p))
            .copied();
        if on_predicate.is_some() || index.is_some_and(|ci| ci.hazard(j, &stmts)) {
            obs::record(|| obs::Event::JumpAdmitted {
                algo: "fig13",
                line: prog.line_of(j) as u32,
                round: 1,
                reason: match on_predicate {
                    Some(p) => obs::AdmitReason::OnIncludedPredicate {
                        predicate_line: prog.line_of(p) as u32,
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
    use jumpslice_lang::parse;

    /// Without a do-while, and with every label staying put, Figure 13
    /// builds neither the lexical successor tree nor the chain index.
    #[test]
    fn dowhile_free_programs_skip_the_lst_and_the_chain_index() {
        let p = parse("read(x); if (x) goto L; x = 1; goto M; L: x = 2; M: write(x);").unwrap();
        let a = Analysis::new(&p);
        let s = conservative_slice(&a, &Criterion::at_stmt(p.at_line(6)));
        // The goto on line 4 joins on the fused predicate of line 2.
        assert_eq!(s.lines(&p), vec![1, 2, 3, 4, 5, 6]);
        assert!(s.moved_labels.is_empty());
        let stats = a.stats();
        assert_eq!(stats.lst_builds, 0);
        assert_eq!(stats.chain_index_builds, 0);
    }

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
