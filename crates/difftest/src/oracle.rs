//! The paper's round-based Figure-7 loop: the oracle for the change-driven
//! kernel behind [`jumpslice_core::agrawal_slice`].
//!
//! [`figure7`] is Figure 7 as the paper states it. Each round it re-tests
//! every out-of-slice jump of a visit order with
//! [`Analysis::nearest_pdom_in`], [`Analysis::nearest_lexsucc_in`] and
//! [`Analysis::dowhile_hazard`], and it closes over raw PDG edges with
//! [`backward_closure_into`], not over the PDG's condensation. It is
//! written against core's public API only, so it shares nothing with the
//! kernel it checks beyond the analysis artifacts themselves. It emits no
//! obs events; `tests/observability.rs` pins the kernel's.
//!
//! [`backward_closure`] and [`backward_closure_into`] are also the oracle
//! for the product's closures, which walk the condensation
//! (`difftest --mode closure`).
//!
//! The paper notes that the preorder of the lexical successor tree works
//! "equally well" as the postdominator tree's (§3). That is a property to
//! check, so the order is a parameter here: [`jumps_in_lst_preorder`]
//! supplies the alternative, and the ablation bench compares the two
//! drivers through this loop. On the paper's figures the drivers agree
//! exactly; on adversarial goto programs both remain sound supersets of
//! the Ball–Horwitz slice but can differ
//! (`tests/equivalence.rs::traversal_drivers_both_cover_ball_horwitz`).
//!
//! # Examples
//!
//! ```
//! use jumpslice_core::{agrawal_slice, corpus, Analysis, Criterion};
//! use jumpslice_difftest::oracle;
//! let p = corpus::fig10();
//! let a = Analysis::new(&p);
//! let crit = Criterion::at_stmt(p.at_line(9));
//! assert_eq!(oracle::agrawal_slice_dense(&a, &crit), agrawal_slice(&a, &crit));
//! ```
//!
//! [`reaching_dense`] and [`data_deps_dense`] are the oracle for the
//! reaching-definitions solver and the data-dependence edges in
//! `jumpslice-dataflow`: the textbook per-node gen and kill sets, a
//! round-robin fixpoint over stored IN and OUT sets, and edges found by
//! filtering every reaching definition through the use's variables.
//! `tests/reaching_oracle.rs` holds the solver to them bit for bit.

use jumpslice_cfg::Cfg;
use jumpslice_core::{reassociate_labels, Analysis, Criterion, Slice, Why};
use jumpslice_dataflow::{BitSet, StmtSet};
use jumpslice_graph::NodeId;
use jumpslice_lang::{Name, Program, StmtId};
use jumpslice_pdg::Pdg;
use std::collections::HashMap;

/// The backward closure of `seeds` by a direct worklist walk over raw PDG
/// edges: the oracle for [`Pdg::backward_closure`].
pub fn backward_closure(pdg: &Pdg, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
    let mut slice = StmtSet::with_capacity(pdg.control().num_stmts());
    backward_closure_into(pdg, seeds, &mut slice);
    slice
}

/// Adds the backward closure of `seeds` to `slice` by the direct walk.
/// Statements already in `slice` act as visited marks, so unlike
/// [`Pdg::backward_closure_into`] any target is allowed; on an empty or
/// dependence-closed target the two agree.
pub fn backward_closure_into(
    pdg: &Pdg,
    seeds: impl IntoIterator<Item = StmtId>,
    slice: &mut StmtSet,
) {
    let mut work: Vec<StmtId> = seeds.into_iter().collect();
    while let Some(s) = work.pop() {
        if slice.insert(s) {
            work.extend(pdg.data().deps(s));
            work.extend(pdg.control().deps(s));
        }
    }
}

/// Figure 7 driven by the jump visit `order`: starting from the
/// conventional closure, every round tests each out-of-slice jump in
/// `order` and admits it, with the closure of its dependences, when its
/// nearest postdominator in the slice differs from its nearest lexical
/// successor in the slice (or the do-while guard fires). A round that
/// admits nothing ends the loop, and the labels of in-slice `goto`s whose
/// targets fell out are re-associated.
///
/// `why`, when present, must hold one entry per statement; it receives the
/// first reason each statement entered the slice, recorded in the same
/// depth-first order as [`jumpslice_core::agrawal_slice_traced`].
pub fn figure7(
    a: &Analysis<'_>,
    crit: &Criterion,
    order: &[StmtId],
    mut why: Option<&mut [Option<Why>]>,
) -> Slice {
    let pdg = a.pdg();
    let mut stmts = StmtSet::with_capacity(a.prog().len());
    let seeds = crit.seeds(a);
    match why.as_deref_mut() {
        Some(w) => {
            let root = match crit.vars {
                None => Why::Criterion,
                Some(_) => Why::SeedDef,
            };
            let seeds = seeds.into_iter().map(|s| (s, root)).collect();
            close_recording(a, seeds, &mut stmts, w);
        }
        None => backward_closure_into(pdg, seeds, &mut stmts),
    }

    let mut traversals = 0usize;
    let mut round: u32 = 0;
    loop {
        round += 1;
        let mut admitted = false;
        for &j in order {
            if stmts.contains(j) {
                continue;
            }
            let npd = a.nearest_pdom_in(j, &stmts);
            let nls = a.nearest_lexsucc_in(j, &stmts);
            let disagree = npd != nls;
            if disagree || a.dowhile_hazard(j, &stmts) {
                match why.as_deref_mut() {
                    Some(w) => {
                        let reason = Why::Jump {
                            round,
                            npd,
                            nls,
                            via_hazard: !disagree,
                        };
                        close_recording(a, vec![(j, reason)], &mut stmts, w);
                    }
                    None => backward_closure_into(pdg, [j], &mut stmts),
                }
                admitted = true;
            }
        }
        if !admitted {
            break;
        }
        traversals += 1;
    }
    let moved_labels = reassociate_labels(a, &stmts);
    Slice {
        stmts,
        moved_labels,
        traversals,
    }
}

/// The dependence closure of `seeds` over raw PDG edges, recording why each
/// newly inserted statement entered. Data dependences are pushed before
/// control dependences and the worklist pops last-in first-out, as core's
/// recorder does, so both assign every statement the same first reason.
fn close_recording(
    a: &Analysis<'_>,
    seeds: Vec<(StmtId, Why)>,
    slice: &mut StmtSet,
    why: &mut [Option<Why>],
) {
    let pdg = a.pdg();
    let mut work = seeds;
    while let Some((s, reason)) = work.pop() {
        if !slice.insert(s) {
            continue;
        }
        why[s.index()] = Some(reason);
        work.extend(pdg.data().deps(s).iter().map(|&d| (d, Why::Data { to: s })));
        work.extend(
            pdg.control()
                .deps(s)
                .iter()
                .map(|&c| (c, Why::Control { to: s })),
        );
    }
}

/// [`figure7`] in postdominator preorder: the dense counterpart of
/// [`jumpslice_core::agrawal_slice`].
pub fn agrawal_slice_dense(a: &Analysis<'_>, crit: &Criterion) -> Slice {
    figure7(a, crit, &a.jumps_in_pdom_preorder(), None)
}

/// [`agrawal_slice_dense`] with the reason each statement entered the
/// slice, indexed by statement (`None` outside the slice): the dense
/// counterpart of [`jumpslice_core::agrawal_slice_traced`].
pub fn agrawal_slice_dense_traced(a: &Analysis<'_>, crit: &Criterion) -> (Slice, Vec<Option<Why>>) {
    let mut why = vec![None; a.prog().len()];
    let slice = figure7(
        a,
        crit,
        &a.jumps_in_pdom_preorder(),
        Some(why.as_mut_slice()),
    );
    (slice, why)
}

/// Unconditional jump statements in preorder of the lexical successor
/// tree, the alternative visit order §3 mentions. Dead jumps are skipped,
/// as in [`Analysis::jumps_in_pdom_preorder`].
pub fn jumps_in_lst_preorder(a: &Analysis<'_>) -> Vec<StmtId> {
    a.lst()
        .preorder()
        .into_iter()
        .filter(|&s| a.prog().stmt(s).kind.is_unconditional_jump() && a.is_live(s))
        .collect()
}

/// A reaching-definitions solution in the solver's layout: bit `i` of
/// every IN set is `def_sites[i]`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseReaching {
    /// The definition statements, in statement order.
    pub def_sites: Vec<StmtId>,
    /// The IN set of every flowgraph node, indexed by node.
    pub in_sets: Vec<BitSet>,
}

/// Reaching definitions from per-node gen and kill sets: a defining node
/// generates its own site and kills every other site of its variable.
/// Round-robin passes over the nodes reachable from entry recompute each
/// IN as the union of its predecessors' stored OUT sets until nothing
/// changes. Unreachable nodes keep empty sets, so dead definitions reach
/// nothing.
pub fn reaching_dense(prog: &Program, cfg: &Cfg) -> DenseReaching {
    let mut def_sites = Vec::new();
    let mut sites_of_var: HashMap<Name, Vec<usize>> = HashMap::new();
    for s in prog.stmt_ids() {
        if let Some(v) = prog.defs(s) {
            sites_of_var.entry(v).or_default().push(def_sites.len());
            def_sites.push(s);
        }
    }
    let n = cfg.graph().len();
    let nsites = def_sites.len();
    let live = cfg.reachable();
    let mut gen = vec![BitSet::new(nsites); n];
    let mut kill = vec![BitSet::new(nsites); n];
    for (idx, &s) in def_sites.iter().enumerate() {
        let node = cfg.node(s).index();
        gen[node].insert(idx);
        for &other in &sites_of_var[&prog.defs(s).expect("def site")] {
            if other != idx {
                kill[node].insert(other);
            }
        }
    }
    let mut in_sets = vec![BitSet::new(nsites); n];
    let mut out_sets: Vec<BitSet> = (0..n)
        .map(|i| {
            if live[i] {
                gen[i].clone()
            } else {
                BitSet::new(nsites)
            }
        })
        .collect();
    let mut changed = true;
    while changed {
        changed = false;
        for i in (0..n).filter(|&i| live[i]) {
            let mut new_in = BitSet::new(nsites);
            for &p in cfg.graph().preds(NodeId::new(i)) {
                new_in.union_with(&out_sets[p.index()]);
            }
            let mut new_out = new_in.clone();
            new_out.subtract(&kill[i]);
            new_out.union_with(&gen[i]);
            if new_in != in_sets[i] || new_out != out_sets[i] {
                in_sets[i] = new_in;
                out_sets[i] = new_out;
                changed = true;
            }
        }
    }
    DenseReaching { def_sites, in_sets }
}

/// Data-dependence edges in both directions, indexed by statement:
/// `deps[u]` holds the definitions `u` depends on, `dependents[d]` the
/// statements depending on `d`, each sorted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseDeps {
    /// Incoming edges per statement.
    pub deps: Vec<Vec<StmtId>>,
    /// Outgoing edges per statement.
    pub dependents: Vec<Vec<StmtId>>,
}

/// The edges of `rd`: every definition reaching a statement whose
/// variable the statement uses, found by testing each reaching bit, then
/// sorted and deduplicated in both directions.
pub fn data_deps_dense(prog: &Program, cfg: &Cfg, rd: &DenseReaching) -> DenseDeps {
    let n = prog.len();
    let mut deps = vec![Vec::new(); n];
    let mut dependents = vec![Vec::new(); n];
    for u in prog.stmt_ids() {
        let used = prog.uses(u);
        for bit in rd.in_sets[cfg.node(u).index()].iter() {
            let d = rd.def_sites[bit];
            if used.contains(&prog.defs(d).expect("def site")) {
                deps[u.index()].push(d);
                dependents[d.index()].push(u);
            }
        }
    }
    for v in deps.iter_mut().chain(dependents.iter_mut()) {
        v.sort();
        v.dedup();
    }
    DenseDeps { deps, dependents }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_core::{agrawal_slice, corpus};
    use jumpslice_lang::parse;

    /// §3: driving the traversal by the lexical successor tree's preorder
    /// gives the same slice on the paper's figures.
    #[test]
    fn lst_driven_traversal_gives_same_slice() {
        for p in [
            corpus::fig3(),
            corpus::fig5(),
            corpus::fig8(),
            corpus::fig10(),
            corpus::fig16(),
        ] {
            let a = Analysis::new(&p);
            let last = p.len();
            let crit = Criterion::at_stmt(p.at_line(last));
            let by_pdom = agrawal_slice(&a, &crit);
            let by_lst = figure7(&a, &crit, &jumps_in_lst_preorder(&a), None);
            assert_eq!(by_pdom.stmts, by_lst.stmts);
        }
    }

    #[test]
    fn lst_order_covers_unconditional_jumps_only() {
        let p = parse("L3: if (eof()) goto L14; goto L3; L14: write(x);").unwrap();
        let a = Analysis::new(&p);
        // The fused conditional goto on line 1 is handled by the
        // conventional adaptation, not the traversal.
        assert_eq!(jumps_in_lst_preorder(&a), vec![p.at_line(2)]);
        let dead = parse("goto END; goto END; END: write(x);").unwrap();
        let a = Analysis::new(&dead);
        assert_eq!(jumps_in_lst_preorder(&a), vec![dead.at_line(1)]);
    }
}
