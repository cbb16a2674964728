//! Slice provenance: why is each statement in the slice?
//!
//! [`agrawal_slice_traced`] runs the same Figure-7 implementation as
//! [`crate::agrawal_slice`] (literally the same function — see
//! `sparse::figure7`), additionally recording, for every statement, the
//! first edge that pulled it into the slice. Following those edges yields a
//! *witness chain* from any sliced statement back to a root: the criterion,
//! a reaching definition seeded by a `vars_at` criterion, or a jump admitted
//! by the Figure-7 test (annotated with the nearest postdominator and
//! nearest lexical successor whose disagreement admitted it).
//!
//! # Examples
//!
//! ```
//! use jumpslice_core::{agrawal_slice_traced, Analysis, Criterion, Why};
//! use jumpslice_core::corpus;
//! let p = corpus::fig3();
//! let a = Analysis::new(&p);
//! let (slice, prov) = agrawal_slice_traced(&a, &Criterion::at_stmt(p.at_line(15)));
//! // The goto on line 7 was admitted by the Figure-7 test, in round 1.
//! let chain = prov.chain(p.at_line(7)).unwrap();
//! assert!(matches!(chain[0].1, Why::Jump { round: 1, .. }));
//! // Every sliced statement has a chain ending at a root.
//! for s in slice.stmts.iter() {
//!     assert!(prov.chain(s).is_some());
//! }
//! ```

use crate::{Analysis, Criterion, Slice, SlicePoint};
use jumpslice_dataflow::StmtSet;
use jumpslice_lang::{Program, StmtId};
use std::fmt::Write as _;

/// The first reason a statement entered the slice.
///
/// `Data`/`Control` point one step *toward the criterion*: the already-sliced
/// statement whose dependence pulled this one in. The other variants are
/// chain roots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Why {
    /// The criterion statement itself (an `at_stmt` criterion).
    Criterion,
    /// A reaching definition of a criterion variable (a `vars_at`
    /// criterion's seed).
    SeedDef,
    /// This statement's definition is data-depended-on by `to`.
    Data {
        /// The in-slice statement that data-depends on this one.
        to: StmtId,
    },
    /// This statement controls whether `to` executes.
    Control {
        /// The in-slice statement control dependent on this one.
        to: StmtId,
    },
    /// A jump admitted by the Figure-7 traversal test.
    Jump {
        /// 1-based fixpoint round in which the jump was admitted.
        round: u32,
        /// Its nearest postdominator in the slice at admission time
        /// (`None` = exit).
        npd: SlicePoint,
        /// Its nearest lexical successor in the slice at admission time
        /// (`None` = exit).
        nls: SlicePoint,
        /// `true` when only the do-while extension guard fired (npd and nls
        /// agreed).
        via_hazard: bool,
    },
}

impl Why {
    /// One-line human-readable description (paper-style line numbers).
    pub fn describe(&self, prog: &Program) -> String {
        let pt = |p: &SlicePoint| match p {
            Some(s) => format!("line {}", prog.line_of(*s)),
            None => "exit".to_owned(),
        };
        match self {
            Why::Criterion => "criterion statement".to_owned(),
            Why::SeedDef => "reaching definition of a criterion variable".to_owned(),
            Why::Data { to } => format!("data dependence of line {}", prog.line_of(*to)),
            Why::Control { to } => format!("control dependence of line {}", prog.line_of(*to)),
            Why::Jump {
                round,
                npd,
                nls,
                via_hazard,
            } => {
                if *via_hazard {
                    format!("jump admitted in round {round}: do-while hazard on the lexical-successor path")
                } else {
                    format!(
                        "jump admitted in round {round}: nearest postdominator in slice is {} \
                         but nearest lexical successor in slice is {}",
                        pt(npd),
                        pt(nls)
                    )
                }
            }
        }
    }
}

/// Why each statement of a slice is there; produced by
/// [`agrawal_slice_traced`].
#[derive(Clone, Debug)]
pub struct Provenance {
    criterion: Criterion,
    why: Vec<Option<Why>>,
}

impl Provenance {
    /// The criterion the traced slice was taken with respect to.
    pub fn criterion(&self) -> &Criterion {
        &self.criterion
    }

    /// Why `s` entered the slice (`None` if it is not in the slice).
    pub fn why(&self, s: StmtId) -> Option<Why> {
        self.why[s.index()]
    }

    /// The witness chain from `s` back to a root, following `Data`/`Control`
    /// edges toward the criterion. The first element is `s` itself; the last
    /// element's `Why` is a root ([`Why::Criterion`], [`Why::SeedDef`], or
    /// [`Why::Jump`]).
    pub fn chain(&self, s: StmtId) -> Option<Vec<(StmtId, Why)>> {
        let mut out = Vec::new();
        let mut cur = s;
        loop {
            let why = self.why[cur.index()]?;
            out.push((cur, why));
            match why {
                Why::Data { to } | Why::Control { to } => cur = to,
                _ => return Some(out),
            }
        }
    }

    /// Renders the chain for `s` as indented text, one hop per line.
    pub fn explain(&self, prog: &Program, s: StmtId) -> Option<String> {
        let mut out = String::new();
        self.explain_into(prog, &Listing::new(prog), s, &mut out)
            .then_some(out)
    }

    /// Appends the chain for `s` to `out`; `false` when `s` has none.
    fn explain_into(&self, prog: &Program, listing: &Listing, s: StmtId, out: &mut String) -> bool {
        let Some(chain) = self.chain(s) else {
            return false;
        };
        for (i, (stmt, why)) in chain.iter().enumerate() {
            let indent = "  ".repeat(i + 1);
            let line = prog.line_of(*stmt);
            let _ = writeln!(
                out,
                "{indent}line {line:>3} `{}`: {}",
                listing.text(line),
                why.describe(prog)
            );
        }
        true
    }

    /// Full report: one chain per sliced statement, in lexical order.
    pub fn report(&self, prog: &Program, slice: &Slice) -> String {
        let listing = Listing::new(prog);
        let mut out = String::new();
        for line in slice.lines(prog) {
            let _ = writeln!(out, "line {line:>3}: {}", listing.text(line));
            if !self.explain_into(prog, &listing, prog.at_line(line), &mut out) {
                out.push_str("  (no recorded provenance)\n");
            }
        }
        out
    }
}

/// The one-line source text of every statement, built once per rendering:
/// one print of the whole program, however many chain hops are rendered.
struct Listing {
    /// Source text of each line (labels included), by line number - 1.
    text: Vec<String>,
}

impl Listing {
    fn new(prog: &Program) -> Listing {
        // Every numbered line of the printed program is `n: <text>`; the
        // unnumbered ones (closing braces, `else`, case guards) carry no
        // statement.
        let mut text = vec![String::new(); prog.len()];
        let printed = jumpslice_lang::print_slice(prog, &|_| true, &[]);
        for l in printed.lines() {
            if let Some((n, rest)) = l.trim_start().split_once(": ") {
                if let Ok(n) = n.parse::<usize>() {
                    text[n - 1] = rest.trim().to_owned();
                }
            }
        }
        Listing { text }
    }

    /// The source text on a paper-style line.
    fn text(&self, line: usize) -> &str {
        &self.text[line - 1]
    }
}

/// Internal recorder threaded through `sparse::figure7`: runs the same
/// worklist closure as `Pdg::backward_closure_into`, remembering the first
/// edge that inserted each statement.
pub(crate) struct Recorder {
    why: Vec<Option<Why>>,
}

impl Recorder {
    pub(crate) fn new(num_stmts: usize) -> Recorder {
        Recorder {
            why: vec![None; num_stmts],
        }
    }

    /// The conventional closure from the criterion's seeds.
    pub(crate) fn seed_closure(&mut self, a: &Analysis<'_>, crit: &Criterion) -> StmtSet {
        let root = match crit.vars {
            None => Why::Criterion,
            Some(_) => Why::SeedDef,
        };
        let mut slice = StmtSet::with_capacity(a.prog().len());
        let seeds: Vec<(StmtId, Why)> = crit.seeds(a).into_iter().map(|s| (s, root)).collect();
        self.closure_into(a, seeds, &mut slice, None);
        slice
    }

    /// The dependence closure of one admitted jump; every newly inserted
    /// statement is appended to `delta` — the traced twin of
    /// `Pdg::backward_closure_delta`, feeding the kernel's dirty-jump index.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn jump_closure_delta(
        &mut self,
        a: &Analysis<'_>,
        j: StmtId,
        round: u32,
        npd: SlicePoint,
        nls: SlicePoint,
        via_hazard: bool,
        slice: &mut StmtSet,
        delta: &mut Vec<StmtId>,
    ) {
        let why = Why::Jump {
            round,
            npd,
            nls,
            via_hazard,
        };
        self.closure_into(a, vec![(j, why)], slice, Some(delta));
    }

    /// Mirror of `Pdg::backward_closure_into` carrying a `Why` per worklist
    /// entry. Statements already in `slice` keep their original reason.
    /// `delta`, when present, receives every newly inserted statement.
    fn closure_into(
        &mut self,
        a: &Analysis<'_>,
        seeds: Vec<(StmtId, Why)>,
        slice: &mut StmtSet,
        mut delta: Option<&mut Vec<StmtId>>,
    ) {
        let pdg = a.pdg();
        let mut work = seeds;
        while let Some((s, why)) = work.pop() {
            if !slice.insert(s) {
                continue;
            }
            self.why[s.index()] = Some(why);
            if let Some(d) = delta.as_deref_mut() {
                d.push(s);
            }
            work.extend(pdg.data().deps(s).iter().map(|&d| (d, Why::Data { to: s })));
            work.extend(
                pdg.control()
                    .deps(s)
                    .iter()
                    .map(|&c| (c, Why::Control { to: s })),
            );
        }
    }

    pub(crate) fn finish(self, crit: &Criterion) -> Provenance {
        Provenance {
            criterion: crit.clone(),
            why: self.why,
        }
    }
}

/// [`crate::agrawal_slice`] with provenance: returns the slice together with
/// a witness chain for each sliced statement. The two share one
/// implementation, so the slice is always exactly what `agrawal_slice`
/// returns.
pub fn agrawal_slice_traced(a: &Analysis<'_>, crit: &Criterion) -> (Slice, Provenance) {
    let mut rec = Recorder::new(a.prog().len());
    let slice = crate::sparse::figure7(a, crit, Some(&mut rec));
    let prov = rec.finish(crit);
    (slice, prov)
}

impl Slice {
    /// Provenance for this slice, re-derived by the traced Figure-7 slicer.
    ///
    /// Returns `None` when the traced slicer's result differs from this
    /// slice — i.e. the slice did not come from [`crate::agrawal_slice`]
    /// under `a` and `crit` (a baseline, a different criterion, a hand-built
    /// set), so no Figure-7 witness chain would be faithful to it.
    pub fn provenance(&self, a: &Analysis<'_>, crit: &Criterion) -> Option<Provenance> {
        let (traced, prov) = agrawal_slice_traced(a, crit);
        (traced.stmts == self.stmts).then_some(prov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{agrawal_slice, corpus, Analysis, Criterion};

    fn traced_matches(p: &Program, line: usize) {
        let a = Analysis::new(p);
        let crit = Criterion::at_stmt(p.at_line(line));
        let plain = agrawal_slice(&a, &crit);
        let (traced, prov) = agrawal_slice_traced(&a, &crit);
        assert_eq!(plain.stmts, traced.stmts, "traced slice must not diverge");
        assert_eq!(plain.traversals, traced.traversals);
        for s in traced.stmts.iter() {
            let chain = prov.chain(s).expect("every sliced stmt has a chain");
            let (_, root) = chain.last().unwrap();
            assert!(
                matches!(root, Why::Criterion | Why::SeedDef | Why::Jump { .. }),
                "chain must end at a root, got {root:?}"
            );
        }
        for s in p.stmt_ids() {
            if !traced.stmts.contains(s) {
                assert_eq!(prov.why(s), None, "unsliced stmt has no provenance");
            }
        }
    }

    #[test]
    fn traced_equals_plain_on_corpus() {
        for (p, line) in [
            (corpus::fig1(), 12),
            (corpus::fig3(), 15),
            (corpus::fig5(), 14),
            (corpus::fig8(), 15),
            (corpus::fig10(), 9),
            (corpus::fig16(), 10),
        ] {
            traced_matches(&p, line);
        }
    }

    #[test]
    fn traced_slices_bypass_the_condensation_and_stay_valid() {
        // The provenance contract: the recorder walks raw PDG edges itself,
        // so forcing the SCC-condensed closure index must change nothing —
        // not the slice, not any per-statement reason — and every witness
        // chain must still follow real dependence edges to a root.
        for (p, line) in [
            (corpus::fig1(), 12),
            (corpus::fig3(), 15),
            (corpus::fig10(), 9),
        ] {
            let a = Analysis::new(&p);
            a.closure_index(); // every routed closure now answers condensed
            let crit = Criterion::at_stmt(p.at_line(line));
            let plain = agrawal_slice(&a, &crit);
            let (traced, prov) = agrawal_slice_traced(&a, &crit);
            assert_eq!(plain.stmts, traced.stmts);
            assert_eq!(plain.traversals, traced.traversals);
            assert_eq!(plain.moved_labels, traced.moved_labels);

            // Bit-identical to a condensation-free analysis.
            let b = Analysis::new(&p);
            let (ref_traced, ref_prov) = agrawal_slice_traced(&b, &crit);
            assert_eq!(traced.stmts, ref_traced.stmts);
            for s in p.stmt_ids() {
                assert_eq!(prov.why(s), ref_prov.why(s), "reason for {s:?}");
            }

            // Chains are well-formed: every Data/Control hop is a real PDG
            // edge, and every chain ends at a root.
            let pdg = a.pdg();
            for s in traced.stmts.iter() {
                let chain = prov.chain(s).expect("every sliced stmt has a chain");
                for (cur, why) in &chain {
                    match why {
                        Why::Data { to } => assert!(
                            pdg.data().deps(*to).contains(cur),
                            "line {}: no data edge {to:?} -> {cur:?}",
                            p.line_of(*cur)
                        ),
                        Why::Control { to } => assert!(
                            pdg.control().deps(*to).contains(cur),
                            "line {}: no control edge {to:?} -> {cur:?}",
                            p.line_of(*cur)
                        ),
                        Why::Criterion | Why::SeedDef | Why::Jump { .. } => {}
                    }
                }
                let (_, root) = chain.last().unwrap();
                assert!(
                    matches!(root, Why::Criterion | Why::SeedDef | Why::Jump { .. }),
                    "chain must end at a root, got {root:?}"
                );
            }
        }
    }

    #[test]
    fn figure_3_jump_reasons() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let (slice, prov) = agrawal_slice_traced(&a, &Criterion::at_stmt(p.at_line(15)));
        assert!(slice.contains(p.at_line(7)));
        match prov.why(p.at_line(7)).unwrap() {
            Why::Jump {
                round,
                via_hazard,
                npd,
                nls,
            } => {
                assert_eq!(round, 1);
                assert!(!via_hazard);
                assert_ne!(npd, nls);
            }
            other => panic!("goto on line 7 should be a Jump root, got {other:?}"),
        }
        // The criterion is its own root.
        assert_eq!(prov.why(p.at_line(15)), Some(Why::Criterion));
        // Chains render.
        let text = prov.report(&p, &slice);
        assert!(text.contains("criterion statement"), "{text}");
        assert!(text.contains("jump admitted in round 1"), "{text}");
    }

    #[test]
    fn vars_at_roots_are_seed_defs() {
        let p = jumpslice_lang::parse("x = 1; y = 2; write(0);").unwrap();
        let a = Analysis::new(&p);
        let x = p.name("x").unwrap();
        let crit = Criterion::vars_at(p.at_line(3), vec![x]);
        let (slice, prov) = agrawal_slice_traced(&a, &crit);
        assert_eq!(slice.lines(&p), vec![1]);
        assert_eq!(prov.why(p.at_line(1)), Some(Why::SeedDef));
    }

    #[test]
    fn provenance_on_foreign_slice_is_none() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(15));
        let s = agrawal_slice(&a, &crit);
        assert!(s.provenance(&a, &crit).is_some());
        let hand = Slice::from_stmts([p.at_line(1)].into_iter().collect());
        assert!(hand.provenance(&a, &crit).is_none());
    }

    #[test]
    fn listing_extracts_single_lines() {
        let p = corpus::fig3();
        let listing = Listing::new(&p);
        assert_eq!(listing.text(7), "goto L13;");
        // Labels ride along.
        assert!(listing.text(8).starts_with("L8:"));
        assert!(listing.text.iter().all(|t| !t.is_empty()));
    }
}
