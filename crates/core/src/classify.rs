//! The structuredness classifier (paper, §4) and the Property-1 pair
//! detector (§3), which tell where Figure 12 applies and why Figure 7 may
//! need more than one traversal.

use crate::Analysis;

/// Whether every jump in the program is a *structured* jump: one whose
/// target statement is also one of its lexical successors (paper, §4).
///
/// `break`, `continue`, and `return` always qualify; a `goto` qualifies only
/// when it jumps forward to a statement on its own lexical-successor chain.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{is_structured, Analysis};
/// use jumpslice_lang::parse;
/// let structured = parse("while (c) { if (a) break; x = 1; }")?;
/// assert!(is_structured(&Analysis::new(&structured)));
/// let unstructured = parse("L: x = 1; if (c) goto L;")?;
/// assert!(!is_structured(&Analysis::new(&unstructured)));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn is_structured(a: &Analysis<'_>) -> bool {
    a.prog().stmt_ids().filter(|&s| a.is_jump(s)).all(|j| {
        match a.jump_target(j) {
            // `return` (and a `break` out of the last construct) target the
            // exit, the root of the lexical successor tree.
            None => true,
            Some(t) => a.lst().is_successor(t, j),
        }
    })
}

/// Whether the program contains a pair `(N1, N2)` of unconditional jump
/// statements with `N1` a postdominator of `N2` and `N2` a lexical
/// successor of `N1` — the situation that can force Figure 7 to run more
/// than one traversal (paper, §3: nodes 4 and 7 of Figure 10). Structured
/// programs never contain such a pair (Property 1, §4).
///
/// Interpretation note: the paper states Figures 3 and 8 contain "no such
/// pairs"; read over arbitrary nodes that is false (in Figure 3, node 3
/// postdominates node 13, which lexically succeeds it), so — matching the
/// paper's own example, where both nodes are plain `goto`s — the pair is
/// taken over unconditional jumps. Those are exactly the nodes whose late
/// *addition* during a traversal can invalidate an earlier jump's
/// nearest-lexical-successor test.
pub fn has_pdom_lexsucc_pair(a: &Analysis<'_>) -> bool {
    let pdom = a.pdom();
    let is_ujump = |s| a.prog().stmt(s).kind.is_unconditional_jump();
    for n1 in a.prog().stmt_ids().filter(|&s| is_ujump(s)) {
        let node1 = a.cfg().node(n1);
        if !pdom.is_reachable(node1) {
            continue;
        }
        // Walk N1's lexical-successor chain: each element N2 lexically
        // succeeds N1; check whether N1 postdominates it.
        for n2 in a.lst().successors(n1).filter(|&s| is_ujump(s)) {
            let node2 = a.cfg().node(n2);
            if pdom.is_reachable(node2) && pdom.strictly_dominates(node1, node2) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;

    #[test]
    fn paper_programs_classified() {
        // Figures 5 and 14 are structured; 3, 8, 10, 16 are not.
        assert!(is_structured(&Analysis::new(&corpus::fig1())));
        assert!(is_structured(&Analysis::new(&corpus::fig5())));
        assert!(is_structured(&Analysis::new(&corpus::fig14())));
        assert!(!is_structured(&Analysis::new(&corpus::fig3())));
        assert!(!is_structured(&Analysis::new(&corpus::fig8())));
        assert!(!is_structured(&Analysis::new(&corpus::fig10())));
        // Figure 16's gotos are forward jumps to lexical successors — it is
        // structured by the paper's definition even though it uses goto.
        assert!(is_structured(&Analysis::new(&corpus::fig16())));
    }

    #[test]
    fn property_1_pairs() {
        // Structured programs have no (pdom, lexsucc) pair (§4, property 1).
        assert!(!has_pdom_lexsucc_pair(&Analysis::new(&corpus::fig5())));
        assert!(!has_pdom_lexsucc_pair(&Analysis::new(&corpus::fig14())));
        // Figure 10 contains the pair (4, 7): 4 postdominates 7, 7 lexically
        // succeeds 4 — the reason two traversals are needed.
        assert!(has_pdom_lexsucc_pair(&Analysis::new(&corpus::fig10())));
        // Figures 3 and 8 contain no such pair (paper: single traversal).
        assert!(!has_pdom_lexsucc_pair(&Analysis::new(&corpus::fig3())));
        assert!(!has_pdom_lexsucc_pair(&Analysis::new(&corpus::fig8())));
    }
}
