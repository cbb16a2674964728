//! The simplified algorithm for structured programs (paper, §4, Figure 12).

use crate::conventional::conventional_closure;
use crate::sparse::Nearest;
use crate::{reassociate_labels, Analysis, Criterion, Slice};
use jumpslice_obs as obs;

/// The paper's Figure 12: slicing for programs whose jumps are all
/// structured.
///
/// A *single* preorder traversal of the postdominator tree suffices, and a
/// jump is added exactly when (i) it is directly control dependent on a
/// predicate already in the slice and (ii) its nearest postdominator in the
/// slice differs from its nearest lexical successor in the slice. No
/// dependence closure is needed when adding (Property 2, §4: the
/// dependences are already in the slice). The traversal and both nearest
/// queries read the chain index that Figure 7's kernel reads, the queries
/// through the same memo, which forgets its answers after each admission.
///
/// For programs that are **not** structured (see [`crate::is_structured`])
/// this simplification is not guaranteed to produce a correct slice; use
/// [`crate::agrawal_slice`] there.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{corpus, Analysis, Criterion, structured_slice};
/// let p = corpus::fig14();
/// let a = Analysis::new(&p);
/// let s = structured_slice(&a, &Criterion::at_stmt(p.at_line(9)));
/// assert_eq!(s.lines(&p), vec![1, 3, 4, 9]); // Figure 14-b
/// ```
pub fn structured_slice(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    let mut stmts = conventional_closure(a, crit);
    let ci = a.chain_index();
    let control = a.pdg().control();
    let mut nearest = Nearest::take(a.prog().len());
    let mut added_any = false;
    for &j in ci.jumps() {
        if stmts.contains(j) {
            continue;
        }
        // The do-while hazard guard bypasses both of the paper's
        // conditions: a `break` ending every body path leaves the loop
        // condition dead, so the jump has no controlling predicate at all,
        // yet deleting it resurrects the loop (extension; the guard is the
        // one Figure 7 applies).
        let reason = if ci.hazard(j, &stmts) {
            obs::AdmitReason::DoWhileHazard
        } else if control.deps(j).iter().any(|&p| stmts.contains(p)) {
            let npd = nearest.pdom(ci, j, &stmts);
            let nls = nearest.lexsucc(ci, j, &stmts);
            if npd == nls {
                continue;
            }
            obs::AdmitReason::PdomLexsuccDisagree {
                npd_line: npd.map(|s| a.prog().line_of(s) as u32),
                nls_line: nls.map(|s| a.prog().line_of(s) as u32),
            }
        } else {
            continue;
        };
        obs::record(|| obs::Event::JumpAdmitted {
            algo: "fig12",
            line: a.prog().line_of(j) as u32,
            round: 1,
            reason,
        });
        stmts.insert(j);
        nearest.grow();
        added_any = true;
    }
    nearest.put_back();
    let moved_labels = reassociate_labels(a, &stmts);
    Slice {
        stmts,
        moved_labels,
        traversals: usize::from(added_any),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{agrawal_slice, corpus};

    #[test]
    fn figure_5_structured_equals_general() {
        let p = corpus::fig5();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(14));
        let simple = structured_slice(&a, &crit);
        let general = agrawal_slice(&a, &crit);
        assert_eq!(simple.stmts, general.stmts);
        assert_eq!(simple.lines(&p), vec![2, 3, 4, 5, 7, 8, 14]);
    }

    #[test]
    fn figure_14_structured_slice() {
        let p = corpus::fig14();
        let a = Analysis::new(&p);
        let s = structured_slice(&a, &Criterion::at_stmt(p.at_line(9)));
        // Figure 14-b: break on 3 kept, breaks on 5 and 7 omitted.
        assert_eq!(s.lines(&p), vec![1, 3, 4, 9]);
    }

    #[test]
    fn structured_equals_general_on_figure_16() {
        // Fig. 16 is structured (forward gotos), so Figure 12 must agree
        // with Figure 7 on it.
        let p = corpus::fig16();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(10));
        assert_eq!(
            structured_slice(&a, &crit).stmts,
            agrawal_slice(&a, &crit).stmts
        );
    }
}
