//! Ablations for the design choices DESIGN.md §5 calls out:
//!
//! * `traversal_tree`: Figure 7 driven by the postdominator tree's preorder
//!   vs the lexical successor tree's (§3: either is admissible), both
//!   through the paper's round-based loop in `jumpslice_difftest::oracle`
//!   so the ablation compares drivers, not kernels;
//! * `closure`: the conventional slicer's closure (a bitset filled by a
//!   walk over the PDG's SCC condensation) vs the `BTreeSet` recursion
//!   over explicit edges it replaced (the data half's rows expanded
//!   through its φs once, untimed);
//! * `control_dependence`: the Ferrante–Ottenstein–Warren edge walk vs the
//!   postdominance-frontier construction in `jumpslice_difftest::oracle`
//!   (results are identical; the oracle's tests cross-check them).

use jumpslice_bench::harness::Runner;
use jumpslice_bench::{live_writes, sized_structured, sized_unstructured};
use jumpslice_core::{Analysis, Criterion};
use jumpslice_difftest::oracle;
use jumpslice_lang::StmtId;
use std::collections::BTreeSet;
use std::hint::black_box;

fn traversal_tree(r: &mut Runner) {
    for size in [200usize, 800] {
        let p = sized_unstructured(size);
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(*live_writes(&p, &a).last().unwrap());
        let pdom_order = oracle::jumps_in_pdom_preorder(&a);
        let lst_order = oracle::jumps_in_lst_preorder(&a);
        let deps = oracle::DenseDeps::of(&p, a.cfg());
        r.bench(
            &format!("ablation/traversal_tree/pdom-preorder/{}", p.len()),
            || black_box(oracle::figure7(&a, &deps, &crit, &pdom_order, None)),
        );
        r.bench(
            &format!("ablation/traversal_tree/lst-preorder/{}", p.len()),
            || black_box(oracle::figure7(&a, &deps, &crit, &lst_order, None)),
        );
    }
}

/// The pre-bitset closure: recursion over a `BTreeSet`, kept only as this
/// ablation's baseline. `data` holds each statement's explicit data row.
fn recursive_closure(
    a: &Analysis<'_>,
    data: &[Vec<StmtId>],
    seed: StmtId,
    out: &mut BTreeSet<StmtId>,
) {
    if !out.insert(seed) {
        return;
    }
    for &d in &data[seed.index()] {
        recursive_closure(a, data, d, out);
    }
    for &d in a.pdg().control().deps(seed) {
        recursive_closure(a, data, d, out);
    }
}

fn closure(r: &mut Runner) {
    for size in [200usize, 800, 3200] {
        let p = sized_structured(size);
        let a = Analysis::new(&p);
        let crit = *live_writes(&p, &a).last().unwrap();
        let data: Vec<Vec<StmtId>> = p.stmt_ids().map(|s| a.pdg().data().deps(s)).collect();
        r.bench(
            &format!("ablation/closure/condensed-bitset/{}", p.len()),
            || black_box(a.pdg().backward_closure([crit])),
        );
        r.bench(
            &format!("ablation/closure/btreeset-recursive/{}", p.len()),
            || {
                let mut out = BTreeSet::new();
                recursive_closure(&a, &data, crit, &mut out);
                black_box(out)
            },
        );
    }
}

fn control_dependence(r: &mut Runner) {
    for size in [200usize, 800, 3200] {
        let p = sized_unstructured(size);
        let cfg = jumpslice_cfg::Cfg::build(&p);
        r.bench(
            &format!("ablation/control_dependence/fow-walk/{}", p.len()),
            || black_box(jumpslice_pdg::ControlDeps::compute(black_box(&p), &cfg)),
        );
        r.bench(
            &format!("ablation/control_dependence/pdom-frontiers/{}", p.len()),
            || black_box(oracle::control_deps_via_frontiers(black_box(&p), &cfg)),
        );
    }
}

fn main() {
    let mut r = Runner::from_args();
    traversal_tree(&mut r);
    closure(&mut r);
    control_dependence(&mut r);
    r.finish();
}
