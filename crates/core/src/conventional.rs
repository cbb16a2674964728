//! The conventional slicing algorithm (paper, §2).

use crate::{Analysis, Slice};
use jumpslice_dataflow::StmtSet;
use jumpslice_lang::{Name, StmtId};

/// A slicing criterion: a program location plus, optionally, a specific set
/// of variables observed there.
///
/// The paper's examples all slice "with respect to *var* on line *n*" where
/// line *n* is a statement using *var* (typically `write(var)`), which is
/// [`Criterion::at_stmt`]. [`Criterion::vars_at`] is the general Weiser-style
/// pair: the values of the given variables just before the location
/// executes.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Criterion {
    /// The criterion location.
    pub stmt: StmtId,
    /// The observed variables; `None` observes the statement itself (its
    /// uses and its execution).
    pub vars: Option<Vec<Name>>,
}

impl Criterion {
    /// Slice with respect to a statement: everything that may affect its
    /// execution or the values it uses.
    pub fn at_stmt(stmt: StmtId) -> Criterion {
        Criterion { stmt, vars: None }
    }

    /// Slice with respect to the values of `vars` at `stmt`.
    pub fn vars_at(stmt: StmtId, vars: Vec<Name>) -> Criterion {
        Criterion {
            stmt,
            vars: Some(vars),
        }
    }

    /// The closure seeds this criterion induces: the statement itself, or
    /// the reaching definitions of the named variables at the statement,
    /// sorted and deduplicated.
    pub fn seeds(&self, a: &Analysis<'_>) -> Vec<StmtId> {
        match &self.vars {
            None => vec![self.stmt],
            // Each variable's nearest definition or φ up the dominator
            // tree, expanded through the φs.
            Some(vars) => a.pdg().data().reaching(a.prog(), a.cfg(), self.stmt, vars),
        }
    }
}

/// The conventional slicing algorithm: the transitive closure of data and
/// control dependence in the (unmodified) program dependence graph.
///
/// Conditional jumps are handled by the paper's adaptation — `if (c) goto L`
/// is a single fused node, so including the predicate includes the jump.
/// Unconditional jumps are *never* included: nothing is data or control
/// dependent on them. On programs with jumps the result may therefore be
/// incorrect (Figures 3-b, 5-b); that incorrectness is exactly what
/// [`crate::agrawal_slice`] repairs.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{Analysis, Criterion, conventional_slice};
/// use jumpslice_lang::parse;
/// let p = parse("x = 1; y = 2; write(x);")?;
/// let a = Analysis::new(&p);
/// let s = conventional_slice(&a, &Criterion::at_stmt(p.at_line(3)));
/// assert_eq!(s.lines(&p), vec![1, 3]); // y = 2 is irrelevant
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn conventional_slice(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    let stmts = conventional_closure(a, crit);
    // The paper's Figure 3-b renders the conventional slice with L14
    // re-associated; doing the same here keeps every slice executable.
    let moved_labels = crate::reassociate_labels(a, &stmts);
    Slice {
        stmts,
        moved_labels,
        traversals: 0,
    }
}

/// The conventional slice's statements: the dependence closure of the
/// criterion's seeds, which Figures 12 and 13 then extend with jumps.
pub(crate) fn conventional_closure(a: &Analysis<'_>, crit: &Criterion) -> StmtSet {
    let _t = jumpslice_obs::phase(jumpslice_obs::Phase::ConventionalClosure);
    let seeds = crit.seeds(a);
    a.pdg().backward_closure(seeds)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    #[test]
    fn figure_1_slice() {
        // Figure 1: slice on positives at line 12 = lines {2,3,4,5,7,12}.
        let p = parse(crate::corpus::FIG1_SRC).unwrap();
        let a = Analysis::new(&p);
        let s = conventional_slice(&a, &Criterion::at_stmt(p.at_line(12)));
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 12]);
    }

    #[test]
    fn conventional_never_includes_unconditional_jumps() {
        let p = parse(crate::corpus::FIG3_SRC).unwrap();
        let a = Analysis::new(&p);
        let s = conventional_slice(&a, &Criterion::at_stmt(p.at_line(15)));
        assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 8, 15], "Figure 3-b");
        for st in s.stmts.iter() {
            assert!(
                !p.stmt(st).kind.is_unconditional_jump(),
                "line {} is an unconditional jump",
                p.line_of(st)
            );
        }
    }

    #[test]
    fn vars_at_criterion_uses_reaching_defs() {
        let p = parse("x = 1; y = 2; write(0);").unwrap();
        let a = Analysis::new(&p);
        let x = p.name("x").unwrap();
        let crit = Criterion::vars_at(p.at_line(3), vec![x]);
        let s = conventional_slice(&a, &crit);
        // Only x = 1 affects the value of x at the write; the write itself
        // is not part of a variables-at criterion.
        assert_eq!(s.lines(&p), vec![1]);
    }

    #[test]
    fn vars_at_pulls_controlling_predicates() {
        let p = parse("read(c); if (c) { x = 1; } else { x = 2; } write(0);").unwrap();
        let a = Analysis::new(&p);
        let x = p.name("x").unwrap();
        let s = conventional_slice(&a, &Criterion::vars_at(p.at_line(5), vec![x]));
        assert_eq!(s.lines(&p), vec![1, 2, 3, 4]);
    }

    #[test]
    fn empty_criterion_variables_give_empty_slice() {
        let p = parse("x = 1; write(x);").unwrap();
        let a = Analysis::new(&p);
        let s = conventional_slice(&a, &Criterion::vars_at(p.at_line(2), vec![]));
        assert!(s.is_empty());
    }
}
