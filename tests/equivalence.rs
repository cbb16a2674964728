//! Algorithm-relation properties on randomly generated programs (DESIGN.md
//! §6, experiment EQ):
//!
//! * Figure 7 slices ≡ Ball–Horwitz slices on structured programs of the
//!   paper's fragment; on adversarial unstructured programs the equivalence
//!   weakens to Ball–Horwitz ⊆ Figure 7 (a reproduction finding — see
//!   `tests/extension_gaps.rs::goto_history_dependence`);
//! * Figure 12 ≡ Figure 7 and Figure 12 ⊆ Figure 13 on structured programs;
//! * the conventional slice is contained in every repaired slice;
//! * the traversal drivers (postdominator tree vs LST preorder) both
//!   over-approximate Ball–Horwitz and coincide on structured programs;
//! * the dense-bitset slice engine agrees with `BTreeSet` semantics for
//!   every algorithm, and the parallel batch engine with the sequential
//!   loop.

use jumpslice::prelude::*;
use jumpslice_core::{BatchSlicer, SliceFn};
use jumpslice_dataflow::StmtSet;
use jumpslice_difftest::oracle;
use jumpslice_testkit::Rng;
use std::collections::BTreeSet;

/// Every slicing algorithm in the workspace, paper order then baselines —
/// the same table the bench harness sweeps.
const ALL_ALGOS: &[(&str, SliceFn)] = &[
    ("conventional", conventional_slice),
    ("fig7-agrawal", agrawal_slice),
    ("fig12-structured", structured_slice),
    ("fig13-conservative", conservative_slice),
    ("ball-horwitz", ball_horwitz_slice),
    ("lyle", lyle_slice),
    ("gallagher", gallagher_slice),
    ("jzr", jzr_slice),
];

/// Criterion statements worth slicing on: every *reachable* write, plus the
/// last statement (criteria must be live code; slicing on dead statements is
/// degenerate and outside the paper's assumptions).
fn criteria(p: &Program) -> Vec<StmtId> {
    let a = Analysis::new(p);
    let mut out: Vec<StmtId> = p
        .stmt_ids()
        .filter(|&s| {
            matches!(p.stmt(s).kind, jumpslice::lang::StmtKind::Write { .. }) && a.is_live(s)
        })
        .collect();
    if let Some(&last) = p.lexical_order().last() {
        if !out.contains(&last) && a.is_live(last) {
            out.push(last);
        }
    }
    out
}

/// The equivalence corpus sticks to the paper's core language: no
/// `do-while`, no `switch` (see `tests/extension_gaps.rs` for why those
/// weaken precision-equivalence without affecting soundness).
fn arb_structured(rng: &mut Rng) -> Program {
    let seed = rng.gen_range(0u64..500);
    let size = rng.gen_range(15usize..60);
    let depth = rng.gen_range(1usize..4);
    gen_structured(&GenConfig {
        seed,
        target_stmts: size,
        max_depth: depth,
        do_while: false,
        switches: false,
        ..GenConfig::default()
    })
}

fn arb_unstructured(rng: &mut Rng) -> Program {
    let seed = rng.gen_range(0u64..500);
    let size = rng.gen_range(10usize..40);
    let dens = rng.gen_range(1usize..10);
    gen_unstructured(&GenConfig {
        seed,
        target_stmts: size,
        jump_density: dens as f64 / 20.0,
        do_while: false,
        switches: false,
        ..GenConfig::default()
    })
}

#[test]
fn fig7_equals_ball_horwitz_structured() {
    jumpslice_testkit::check(48, |rng| {
        let p = arb_structured(rng);
        let a = Analysis::new(&p);
        for c in criteria(&p) {
            let crit = Criterion::at_stmt(c);
            assert_eq!(
                agrawal_slice(&a, &crit).stmts,
                ball_horwitz_slice(&a, &crit).stmts
            );
        }
    });
}

#[test]
fn ball_horwitz_within_fig7_unstructured() {
    // Exact equality fails on adversarial goto programs (the npd/nls
    // judgements are history dependent; see extension_gaps.rs). The
    // robust relation is containment: Figure 7 conservatively includes
    // at least everything Ball–Horwitz does.
    jumpslice_testkit::check(48, |rng| {
        let p = arb_unstructured(rng);
        let a = Analysis::new(&p);
        for c in criteria(&p) {
            let crit = Criterion::at_stmt(c);
            let f7 = agrawal_slice(&a, &crit);
            let bh = ball_horwitz_slice(&a, &crit);
            assert!(bh.stmts.is_subset(&f7.stmts));
        }
    });
}

#[test]
fn fig12_equals_fig7_on_structured() {
    jumpslice_testkit::check(48, |rng| {
        let p = arb_structured(rng);
        let a = Analysis::new(&p);
        assert!(is_structured(&a));
        for c in criteria(&p) {
            let crit = Criterion::at_stmt(c);
            assert_eq!(
                structured_slice(&a, &crit).stmts,
                agrawal_slice(&a, &crit).stmts
            );
        }
    });
}

#[test]
fn fig12_within_fig13_on_structured() {
    jumpslice_testkit::check(48, |rng| {
        let p = arb_structured(rng);
        let a = Analysis::new(&p);
        for c in criteria(&p) {
            let crit = Criterion::at_stmt(c);
            let s12 = structured_slice(&a, &crit);
            let s13 = conservative_slice(&a, &crit);
            assert!(s12.subset_of(&s13));
        }
    });
}

#[test]
fn conventional_within_all() {
    jumpslice_testkit::check(48, |rng| {
        let p = arb_unstructured(rng);
        let a = Analysis::new(&p);
        for c in criteria(&p) {
            let crit = Criterion::at_stmt(c);
            let conv = conventional_slice(&a, &crit);
            for s in [
                agrawal_slice(&a, &crit),
                ball_horwitz_slice(&a, &crit),
                lyle_slice(&a, &crit),
                gallagher_slice(&a, &crit),
                jzr_slice(&a, &crit),
            ] {
                assert!(conv.subset_of(&s));
                assert!(s.contains(c), "criterion statement stays in slice");
            }
        }
    });
}

#[test]
fn traversal_drivers_both_cover_ball_horwitz() {
    // §3 claims either tree's preorder yields the same slice; like the
    // Ball–Horwitz equivalence this is exact on the figures (checked in
    // tests/paper_figures.rs and core's unit tests) but only holds as
    // mutual over-approximation of Ball–Horwitz on adversarial
    // programs.
    jumpslice_testkit::check(48, |rng| {
        let p = arb_unstructured(rng);
        let a = Analysis::new(&p);
        let pdom_order = oracle::jumps_in_pdom_preorder(&a);
        let lst_order = oracle::jumps_in_lst_preorder(&a);
        let deps = oracle::DenseDeps::of(&p, a.cfg());
        for c in criteria(&p) {
            let crit = Criterion::at_stmt(c);
            let by_pdom = oracle::figure7(&a, &deps, &crit, &pdom_order, None);
            let by_lst = oracle::figure7(&a, &deps, &crit, &lst_order, None);
            let bh = ball_horwitz_slice(&a, &crit);
            assert!(bh.stmts.is_subset(&by_pdom.stmts));
            assert!(bh.stmts.is_subset(&by_lst.stmts));
        }
    });
}

#[test]
fn no_property1_pairs_in_structured_programs() {
    jumpslice_testkit::check(48, |rng| {
        let p = arb_structured(rng);
        let a = Analysis::new(&p);
        assert!(!jumpslice_core::has_pdom_lexsucc_pair(&a));
        // And indeed a single traversal always suffices.
        for c in criteria(&p) {
            let s = agrawal_slice(&a, &Criterion::at_stmt(c));
            assert!(s.traversals <= 1, "structured => one traversal");
        }
    });
}

#[test]
fn slices_are_monotone_in_criterion_closure() {
    // Slicing on a statement already inside a slice never escapes it:
    // slice(c2) ⊆ slice(c1) for c2 ∈ slice(c1) is NOT generally true for
    // jump-repaired slices, but it is for the conventional closure.
    jumpslice_testkit::check(48, |rng| {
        let p = arb_structured(rng);
        let a = Analysis::new(&p);
        for c in criteria(&p).into_iter().take(2) {
            let s1 = conventional_slice(&a, &Criterion::at_stmt(c));
            for c2 in s1.stmts.iter().take(5) {
                let s2 = conventional_slice(&a, &Criterion::at_stmt(c2));
                assert!(s2.subset_of(&s1));
            }
        }
    });
}

/// The reference `BTreeSet` worklist closure the engine used before the
/// bitset migration — kept here as the semantic oracle for
/// [`bitset_engine_matches_btreeset_semantics`].
fn btreeset_backward_closure(a: &Analysis<'_>, seeds: Vec<StmtId>) -> BTreeSet<StmtId> {
    let mut out: BTreeSet<StmtId> = BTreeSet::new();
    let mut work = seeds;
    while let Some(s) = work.pop() {
        if !out.insert(s) {
            continue;
        }
        work.extend(a.pdg().deps(s));
    }
    out
}

/// Tentpole regression: the dense-bitset slice sets behave exactly like the
/// `BTreeSet`s they replaced, for every one of the eight algorithms —
/// sorted duplicate-free iteration, membership, subset, equality — and the
/// PDG's bitset closure matches an independent `BTreeSet` worklist closure.
#[test]
fn bitset_engine_matches_btreeset_semantics() {
    jumpslice_testkit::check(32, |rng| {
        let p = if rng.gen_bool(0.5) {
            arb_structured(rng)
        } else {
            arb_unstructured(rng)
        };
        let a = Analysis::new(&p);
        for c in criteria(&p).into_iter().take(3) {
            let crit = Criterion::at_stmt(c);

            // The closure the conventional slicer is built on, against the
            // old representation computed independently.
            let seeds: Vec<StmtId> = crit.seeds(&a);
            let reference = btreeset_backward_closure(&a, seeds.clone());
            let bitset = a.pdg().backward_closure(seeds);
            assert_eq!(
                bitset.iter().collect::<Vec<_>>(),
                reference.iter().copied().collect::<Vec<_>>(),
                "bitset closure == BTreeSet closure, in order"
            );

            for (name, algo) in ALL_ALGOS {
                let s = algo(&a, &crit);
                let tree: BTreeSet<StmtId> = s.stmts.iter().collect();
                // Iteration is sorted and duplicate-free (== BTreeSet order).
                assert_eq!(
                    s.stmts.iter().collect::<Vec<_>>(),
                    tree.iter().copied().collect::<Vec<_>>(),
                    "{name}: iteration order"
                );
                assert_eq!(s.stmts.len(), tree.len(), "{name}: len");
                // Membership agrees statement-by-statement.
                for x in p.stmt_ids() {
                    assert_eq!(s.stmts.contains(x), tree.contains(&x), "{name}: contains");
                }
                // Round-trip through the tree is the identity.
                let back: StmtSet = tree.iter().copied().collect();
                assert_eq!(back, s.stmts, "{name}: round-trip equality");
            }
        }
    });
}

/// Sparse kernel, paper corpora: the change-driven Figure-7 engine behind
/// `agrawal_slice` is bit-identical — statements, `traversals`,
/// `moved_labels` — to the paper's dense round-based loop
/// (`oracle::agrawal_slice_dense`) on every figure program, at every
/// reasonable criterion. Figure 14 brings a `switch`, Figure 10 the
/// two-round fixpoint.
#[test]
fn sparse_equals_dense_on_paper_corpus() {
    use jumpslice_core::corpus;
    for p in [
        corpus::fig3(),
        corpus::fig5(),
        corpus::fig8(),
        corpus::fig10(),
        corpus::fig14(),
        corpus::fig16(),
    ] {
        let a = Analysis::new(&p);
        let deps = oracle::DenseDeps::of(&p, a.cfg());
        for c in criteria(&p) {
            let crit = Criterion::at_stmt(c);
            let sparse = agrawal_slice(&a, &crit);
            let dense = oracle::agrawal_slice_dense(&a, &deps, &crit);
            assert_eq!(sparse, dense, "criterion line {}", p.line_of(c));
        }
    }
}

/// Sparse kernel, generated programs: both progen families at
/// jump densities 0, 0.1, and 0.3, checking full `Slice` equality plus
/// statement-by-statement provenance agreement between the traced sparse
/// and traced dense slicers.
#[test]
fn sparse_equals_dense_on_progen_families() {
    jumpslice_testkit::check(24, |rng| {
        let seed = rng.gen_range(0u64..500);
        let size = rng.gen_range(15usize..50);
        for density in [0.0, 0.1, 0.3] {
            let cfg = GenConfig {
                seed,
                target_stmts: size,
                jump_density: density,
                ..GenConfig::default()
            };
            for p in [gen_structured(&cfg), gen_unstructured(&cfg)] {
                let a = Analysis::new(&p);
                let deps = oracle::DenseDeps::of(&p, a.cfg());
                for c in criteria(&p).into_iter().take(4) {
                    let crit = Criterion::at_stmt(c);
                    assert_eq!(
                        agrawal_slice(&a, &crit),
                        oracle::agrawal_slice_dense(&a, &deps, &crit),
                        "density {density}, criterion line {}",
                        p.line_of(c)
                    );
                    let (ts, tp) = agrawal_slice_traced(&a, &crit);
                    let (rs, rp) = oracle::agrawal_slice_dense_traced(&a, &deps, &crit);
                    assert_eq!(ts, rs, "traced slices agree");
                    for s in p.stmt_ids() {
                        assert_eq!(
                            tp.why(s),
                            rp[s.index()],
                            "provenance for line {} agrees",
                            p.line_of(s)
                        );
                    }
                }
            }
        }
    });
}

/// The parallel batch engine returns bit-for-bit the sequential results,
/// for every algorithm, in criterion order.
#[test]
fn batch_engine_matches_sequential() {
    jumpslice_testkit::check(12, |rng| {
        let p = arb_unstructured(rng);
        let a = Analysis::new(&p);
        let crits: Vec<Criterion> = criteria(&p).into_iter().map(Criterion::at_stmt).collect();
        let batch = BatchSlicer::new(&a).with_threads(4);
        for (name, algo) in ALL_ALGOS {
            let sequential: Vec<Slice> = crits.iter().map(|c| algo(&a, c)).collect();
            let fanned = batch.slice_all(*algo, &crits);
            assert_eq!(fanned, sequential, "{name}: batch == sequential");
        }
    });
}
