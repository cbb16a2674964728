//! The Ball–Horwitz / Choi–Ferrante baseline (paper, §5; [5], [8]).

use crate::{reassociate_labels, Analysis, Criterion, Slice};
use jumpslice_pdg::Pdg;

/// Slices by running the conventional closure over the **augmented** PDG:
/// control dependence computed from the flowgraph with an extra
/// (never-executed) edge from every unconditional jump to its fall-through,
/// data dependence from the unaugmented flowgraph.
///
/// In the augmented graph a jump is a pseudo-predicate, so the statements it
/// "guards" become control dependent on it and the plain backward closure
/// picks the right jumps up. The cost — and the paper's motivation for its
/// own algorithm — is that the flowgraph and PDG must be rebuilt in modified
/// form; here that rebuild happens privately per call.
///
/// The paper proves its Figure 7 algorithm computes exactly these slices;
/// `tests/equivalence.rs` and the proptest suite check that statement sets
/// agree on the whole corpus and on random programs.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{corpus, Analysis, Criterion};
/// use jumpslice_core::baselines::ball_horwitz_slice;
/// let p = corpus::fig3();
/// let a = Analysis::new(&p);
/// let s = ball_horwitz_slice(&a, &Criterion::at_stmt(p.at_line(15)));
/// assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 13, 15]);
/// ```
pub fn ball_horwitz_slice(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    let aug = Pdg::build_augmented(a.prog(), a.cfg());
    let mut stmts = aug.backward_closure(crit.seeds(a));
    // The augmentation adds a pseudo edge from *every* unconditional jump,
    // including unreachable ones (a dead `break` after a `break`), so the
    // closure can drag dead jumps in through spurious control dependences.
    // A statement that never executes contributes nothing to the
    // trajectory — and keeping it is actively wrong: excluding some other
    // jump may make it reachable in the residual program, where it would
    // then execute without a counterpart in the original run. The paper's
    // algorithms apply the same refinement via their live-jump orders.
    let dead: Vec<_> = stmts.iter().filter(|&s| !a.is_live(s)).collect();
    for s in dead {
        stmts.remove(s);
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
    use crate::{agrawal_slice, corpus};

    #[test]
    fn equivalent_to_figure_7_on_the_paper_corpus() {
        for (name, p, line) in corpus::all() {
            let a = Analysis::new(&p);
            let crit = Criterion::at_stmt(p.at_line(line));
            let bh = ball_horwitz_slice(&a, &crit);
            let ag = agrawal_slice(&a, &crit);
            assert_eq!(bh.stmts, ag.stmts, "{name}: Ball–Horwitz != Figure 7");
        }
    }

    /// Found by the difftest fuzzer (structured family, seed 1): the dead
    /// second `break` used to enter the slice through its augmentation
    /// pseudo edge, breaking the pinned `ball_horwitz ⊆ fig7` containment.
    #[test]
    fn dead_jumps_stay_out_of_the_augmented_closure() {
        use jumpslice_lang::parse;
        let p = parse(
            "read(v2);
             switch (v2) {
               case 0:
                 break;
                 break;
               case 1:
                 v2 = 0;
             }
             write(v2);",
        )
        .unwrap();
        // Statement lines: 1 read, 2 switch, 3 break, 4 dead break,
        // 5 assign, 6 write.
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(6));
        let bh = ball_horwitz_slice(&a, &crit);
        assert!(!bh.contains(p.at_line(4)), "{:?}", bh.lines(&p));
        let ag = agrawal_slice(&a, &crit);
        assert!(bh.stmts.is_subset(&ag.stmts));
    }

    #[test]
    fn equivalent_on_every_criterion_of_every_figure() {
        for (name, p, _) in corpus::all() {
            let a = Analysis::new(&p);
            for line in 1..=p.len() {
                let crit = Criterion::at_stmt(p.at_line(line));
                assert_eq!(
                    ball_horwitz_slice(&a, &crit).stmts,
                    agrawal_slice(&a, &crit).stmts,
                    "{name} line {line}"
                );
            }
        }
    }
}
