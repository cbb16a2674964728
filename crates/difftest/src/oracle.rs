//! The paper's round-based Figure-7 loop: the oracle for the change-driven
//! kernel behind [`jumpslice_core::agrawal_slice`], and the tree walks
//! that answer Figure 7's tests in it.
//!
//! [`figure7`] is Figure 7 as the paper states it. Each round it re-tests
//! every out-of-slice jump of a visit order with [`nearest_pdom_in`],
//! [`nearest_lexsucc_in`] and [`dowhile_hazard`], walks over the
//! postdominator tree and the lexical successor tree themselves, and it
//! closes over explicit dependence edges with [`backward_closure_into`],
//! not over the PDG. The edges are a [`DenseDeps`]: data edges filtered
//! from the dense reaching definitions, control edges read off
//! postdominance frontiers, neither taken from the product's PDG, whose
//! data half is factored through φs. It is written against core's public
//! API only, so it shares nothing with the kernel it checks beyond the
//! flowgraph, the postdominator tree and the LST. It emits no obs events;
//! `tests/observability.rs` pins the kernel's.
//!
//! The product answers the same tests, for Figures 7, 12 and 13 and for
//! label re-association, from its chain index.
//! [`structured_slice_dense`], [`conservative_slice_dense`] and
//! [`reassociate_labels_dense`] restate Figures 12 and 13 and the label
//! step on the walks, and `difftest --mode sparse` holds the product's
//! [`jumpslice_core::structured_slice`],
//! [`jumpslice_core::conservative_slice`] and moved labels to them.
//!
//! [`backward_closure`], [`backward_closure_into`] and
//! [`forward_closure`] are also the oracle for the product's closures,
//! which walk the condensation (`difftest --mode closure`).
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
//! let deps = oracle::DenseDeps::of(&p, a.cfg());
//! let crit = Criterion::at_stmt(p.at_line(9));
//! assert_eq!(oracle::agrawal_slice_dense(&a, &deps, &crit), agrawal_slice(&a, &crit));
//! ```
//!
//! [`reaching_dense`] and [`data_deps_dense`] are the oracle for the
//! reaching-definitions solver and the data dependences in
//! `jumpslice-dataflow`: the textbook per-node gen and kill sets, a
//! round-robin fixpoint over stored IN and OUT sets, and edges found by
//! filtering every reaching definition through the use's variables.
//! `tests/reaching_oracle.rs` holds the solver to them bit for bit, and
//! the factored data half's expanded rows and `vars_at` seeds to them.
//!
//! [`control_deps_via_frontiers`] is the oracle for the control half of
//! the PDG: control dependence read off postdominance frontiers
//! ([`dominance_frontiers`] over the reverse flowgraph), a construction
//! independent of the product's edge walk
//! ([`jumpslice_pdg::ControlDeps::compute`]).

use jumpslice_cfg::Cfg;
use jumpslice_core::{Analysis, Criterion, Slice, SlicePoint, Why};
use jumpslice_dataflow::{BitSet, StmtSet};
use jumpslice_graph::{DiGraph, DomTree, NodeId};
use jumpslice_lang::{Label, Name, Program, StmtId, StmtKind};
use std::collections::HashMap;

#[cfg(doc)]
use jumpslice_pdg::Pdg;

/// A program's explicit dependence edges, built independently of the
/// product's PDG: the data edges of [`data_deps_dense`] over
/// [`reaching_dense`] and the control edges of
/// [`control_deps_via_frontiers`]. Every walk in this module reads them.
#[derive(Clone, Debug)]
pub struct DenseDeps {
    /// Per statement, the definitions it is data dependent on, sorted.
    pub data: Vec<Vec<StmtId>>,
    /// Per statement, the predicates it is control dependent on, sorted.
    pub control: Vec<Vec<StmtId>>,
    /// The reaching definitions the data edges were filtered from.
    pub reaching: DenseReaching,
}

impl DenseDeps {
    /// The explicit edges of `prog` over its flowgraph `cfg`.
    pub fn of(prog: &Program, cfg: &Cfg) -> DenseDeps {
        let reaching = reaching_dense(prog, cfg);
        DenseDeps {
            data: data_deps_dense(prog, cfg, &reaching),
            control: control_deps_via_frontiers(prog, cfg).deps,
            reaching,
        }
    }

    /// The closure seeds of `crit`: its statement, or the definitions of
    /// its variables in the dense IN set of its statement, in statement
    /// order.
    pub fn seeds(&self, a: &Analysis<'_>, crit: &Criterion) -> Vec<StmtId> {
        let Some(vars) = &crit.vars else {
            return vec![crit.stmt];
        };
        let prog = a.prog();
        self.reaching.in_sets[a.cfg().node(crit.stmt).index()]
            .iter()
            .map(|bit| self.reaching.def_sites[bit])
            .filter(|&d| vars.contains(&prog.defs(d).expect("def site")))
            .collect()
    }
}

/// The backward closure of `seeds` by a direct worklist walk over explicit
/// edges: the oracle for [`Pdg::backward_closure`].
pub fn backward_closure(deps: &DenseDeps, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
    let mut slice = StmtSet::with_capacity(deps.data.len());
    backward_closure_into(deps, seeds, &mut slice);
    slice
}

/// Adds the backward closure of `seeds` to `slice` by the direct walk.
/// Statements already in `slice` act as visited marks, so unlike
/// [`Pdg::backward_closure_into`] any target is allowed; on an empty or
/// dependence-closed target the two agree.
pub fn backward_closure_into(
    deps: &DenseDeps,
    seeds: impl IntoIterator<Item = StmtId>,
    slice: &mut StmtSet,
) {
    let mut work: Vec<StmtId> = seeds.into_iter().collect();
    while let Some(s) = work.pop() {
        if slice.insert(s) {
            work.extend(&deps.data[s.index()]);
            work.extend(&deps.control[s.index()]);
        }
    }
}

/// The explicit data and control edges turned around: per statement, the
/// statements directly dependent on it, ascending.
pub fn dependents(deps: &DenseDeps) -> Vec<Vec<StmtId>> {
    let mut out = vec![Vec::new(); deps.data.len()];
    for u in (0..out.len()).map(StmtId::from_index) {
        for &d in deps.data[u.index()].iter().chain(&deps.control[u.index()]) {
            out[d.index()].push(u);
        }
    }
    for v in &mut out {
        v.dedup();
    }
    out
}

/// The forward closure of `seeds` by a direct worklist walk over raw edges
/// turned around by [`dependents`]: the oracle for
/// [`Pdg::forward_closure`], which walks the condensation.
pub fn forward_closure(
    dependents: &[Vec<StmtId>],
    seeds: impl IntoIterator<Item = StmtId>,
) -> StmtSet {
    let mut slice = StmtSet::with_capacity(dependents.len());
    let mut work: Vec<StmtId> = seeds.into_iter().collect();
    while let Some(s) = work.pop() {
        if slice.insert(s) {
            work.extend(&dependents[s.index()]);
        }
    }
    slice
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
    deps: &DenseDeps,
    crit: &Criterion,
    order: &[StmtId],
    mut why: Option<&mut [Option<Why>]>,
) -> Slice {
    let mut stmts = StmtSet::with_capacity(a.prog().len());
    let seeds = deps.seeds(a, crit);
    match why.as_deref_mut() {
        Some(w) => {
            let root = match crit.vars {
                None => Why::Criterion,
                Some(_) => Why::SeedDef,
            };
            let seeds = seeds.into_iter().map(|s| (s, root)).collect();
            close_recording(deps, seeds, &mut stmts, w);
        }
        None => backward_closure_into(deps, seeds, &mut stmts),
    }

    let bodies = dowhile_bodies(a.prog());
    let mut traversals = 0usize;
    let mut round: u32 = 0;
    loop {
        round += 1;
        let mut admitted = false;
        for &j in order {
            if stmts.contains(j) {
                continue;
            }
            let npd = nearest_pdom_in(a, j, &stmts);
            let nls = nearest_lexsucc_in(a, j, &stmts);
            let disagree = npd != nls;
            if disagree || dowhile_hazard(a, &bodies, j, &stmts) {
                match why.as_deref_mut() {
                    Some(w) => {
                        let reason = Why::Jump {
                            round,
                            npd,
                            nls,
                            via_hazard: !disagree,
                        };
                        close_recording(deps, vec![(j, reason)], &mut stmts, w);
                    }
                    None => backward_closure_into(deps, [j], &mut stmts),
                }
                admitted = true;
            }
        }
        if !admitted {
            break;
        }
        traversals += 1;
    }
    let moved_labels = reassociate_labels_dense(a, &stmts);
    Slice {
        stmts,
        moved_labels,
        traversals,
    }
}

/// The dependence closure of `seeds` over explicit edges, recording why
/// each newly inserted statement entered. Data dependences are pushed
/// before control dependences and the worklist pops last-in first-out, as
/// core's recorder does, so both assign every statement the same first
/// reason.
fn close_recording(
    deps: &DenseDeps,
    seeds: Vec<(StmtId, Why)>,
    slice: &mut StmtSet,
    why: &mut [Option<Why>],
) {
    let mut work = seeds;
    while let Some((s, reason)) = work.pop() {
        if !slice.insert(s) {
            continue;
        }
        why[s.index()] = Some(reason);
        work.extend(
            deps.data[s.index()]
                .iter()
                .map(|&d| (d, Why::Data { to: s })),
        );
        work.extend(
            deps.control[s.index()]
                .iter()
                .map(|&c| (c, Why::Control { to: s })),
        );
    }
}

/// [`figure7`] in postdominator preorder: the dense counterpart of
/// [`jumpslice_core::agrawal_slice`].
pub fn agrawal_slice_dense(a: &Analysis<'_>, deps: &DenseDeps, crit: &Criterion) -> Slice {
    figure7(a, deps, crit, &jumps_in_pdom_preorder(a), None)
}

/// [`agrawal_slice_dense`] with the reason each statement entered the
/// slice, indexed by statement (`None` outside the slice): the dense
/// counterpart of [`jumpslice_core::agrawal_slice_traced`].
pub fn agrawal_slice_dense_traced(
    a: &Analysis<'_>,
    deps: &DenseDeps,
    crit: &Criterion,
) -> (Slice, Vec<Option<Why>>) {
    let mut why = vec![None; a.prog().len()];
    let slice = figure7(
        a,
        deps,
        crit,
        &jumps_in_pdom_preorder(a),
        Some(why.as_mut_slice()),
    );
    (slice, why)
}

/// Figure 12 on the tree walks: the dense counterpart of
/// [`jumpslice_core::structured_slice`]. One pass over the jumps in
/// postdominator preorder admits a jump, with no closure, when the do-while
/// guard fires, or when it is control dependent on an in-slice predicate
/// and its nearest postdominator in the slice differs from its nearest
/// lexical successor in the slice.
pub fn structured_slice_dense(a: &Analysis<'_>, deps: &DenseDeps, crit: &Criterion) -> Slice {
    let mut stmts = backward_closure(deps, deps.seeds(a, crit));
    let bodies = dowhile_bodies(a.prog());
    let mut added_any = false;
    for j in jumps_in_pdom_preorder(a) {
        if stmts.contains(j) {
            continue;
        }
        let admit = dowhile_hazard(a, &bodies, j, &stmts)
            || (on_included_predicate(deps, j, &stmts)
                && nearest_pdom_in(a, j, &stmts) != nearest_lexsucc_in(a, j, &stmts));
        if admit {
            stmts.insert(j);
            added_any = true;
        }
    }
    let moved_labels = reassociate_labels_dense(a, &stmts);
    Slice {
        stmts,
        moved_labels,
        traversals: usize::from(added_any),
    }
}

/// Figure 13 on the tree walks: the dense counterpart of
/// [`jumpslice_core::conservative_slice`]. One pass over the live
/// unconditional jumps in statement order admits every jump control
/// dependent on an in-slice predicate, and every jump the do-while guard
/// fires on.
pub fn conservative_slice_dense(a: &Analysis<'_>, deps: &DenseDeps, crit: &Criterion) -> Slice {
    let mut stmts = backward_closure(deps, deps.seeds(a, crit));
    let bodies = dowhile_bodies(a.prog());
    for j in a.prog().stmt_ids() {
        if !is_candidate(a, j) || stmts.contains(j) {
            continue;
        }
        if on_included_predicate(deps, j, &stmts) || dowhile_hazard(a, &bodies, j, &stmts) {
            stmts.insert(j);
        }
    }
    let moved_labels = reassociate_labels_dense(a, &stmts);
    Slice {
        stmts,
        moved_labels,
        traversals: 0,
    }
}

/// Whether `j` is directly control dependent on a predicate in `slice`.
fn on_included_predicate(deps: &DenseDeps, j: StmtId, slice: &StmtSet) -> bool {
    deps.control[j.index()].iter().any(|&p| slice.contains(p))
}

/// Figure 7's final step on the postdominator walk: each label of an
/// in-slice `goto` (plain or fused conditional) whose target is out of
/// `slice` moves to the target's nearest postdominator in `slice`. Labels
/// come out in slice order, each once: the dense counterpart of
/// [`jumpslice_core::reassociate_labels`].
pub fn reassociate_labels_dense(a: &Analysis<'_>, slice: &StmtSet) -> Vec<(Label, SlicePoint)> {
    let mut moved: Vec<(Label, SlicePoint)> = Vec::new();
    for s in slice.iter() {
        let label = match a.prog().stmt(s).kind {
            StmtKind::Goto { target } | StmtKind::CondGoto { target, .. } => target,
            _ => continue,
        };
        if moved.iter().any(|&(l, _)| l == label) {
            continue;
        }
        let target = a
            .prog()
            .label_target(label)
            .expect("validated programs have resolved labels");
        if !slice.contains(target) {
            moved.push((label, nearest_pdom_in(a, target, slice)));
        }
    }
    moved
}

/// Whether `s` is a traversal candidate: a live *unconditional* jump.
///
/// Conditional jumps are deliberately absent: §3 handles them through the
/// conventional algorithm's adaptation (the fused conditional goto is
/// included exactly when its predicate is), and the traversal question is
/// posed only for unconditional jumps. Examining fused conditional gotos
/// would make the iteration order-dependent and strictly coarser than
/// Ball–Horwitz (an early npd ≠ nls judgement can be invalidated by later
/// closure additions). Dead jumps are skipped.
fn is_candidate(a: &Analysis<'_>, s: StmtId) -> bool {
    a.prog().stmt(s).kind.is_unconditional_jump() && a.is_live(s)
}

/// The traversal candidates in preorder of the postdominator tree: the
/// visit order of the paper's Figure 7.
pub fn jumps_in_pdom_preorder(a: &Analysis<'_>) -> Vec<StmtId> {
    a.pdom()
        .preorder()
        .filter_map(|n| a.cfg().stmt(n))
        .filter(|&s| is_candidate(a, s))
        .collect()
}

/// The traversal candidates in preorder of the lexical successor tree,
/// the alternative visit order §3 mentions.
pub fn jumps_in_lst_preorder(a: &Analysis<'_>) -> Vec<StmtId> {
    a.lst()
        .preorder()
        .into_iter()
        .filter(|&s| is_candidate(a, s))
        .collect()
}

/// The nearest proper postdominator of `s` in `slice` (`None` = the exit,
/// which is implicitly in every slice), by a walk up the postdominator
/// tree.
pub fn nearest_pdom_in(a: &Analysis<'_>, s: StmtId, slice: &StmtSet) -> SlicePoint {
    let cfg = a.cfg();
    for n in a.pdom().ancestors(cfg.node(s)) {
        if n == cfg.exit() {
            return None;
        }
        if let Some(t) = cfg.stmt(n) {
            if slice.contains(t) {
                return Some(t);
            }
        }
    }
    None
}

/// The nearest proper lexical successor of `s` in `slice` (`None` = the
/// exit), by a walk up the lexical successor tree.
pub fn nearest_lexsucc_in(a: &Analysis<'_>, s: StmtId, slice: &StmtSet) -> SlicePoint {
    a.lst().successors(s).find(|&t| slice.contains(t))
}

/// Every statement's do-while body set: entry `d` holds the statements
/// lexically inside the do-while `d`, and is empty for any other
/// statement. One ancestor walk per statement; empty when the program has
/// no do-while. Built once per oracle call and read by [`dowhile_hazard`].
pub fn dowhile_bodies(prog: &Program) -> Vec<StmtSet> {
    let st = prog.structure();
    if !st.has_do_while() {
        return Vec::new();
    }
    let mut out = vec![StmtSet::with_capacity(0); prog.len()];
    for s in prog.stmt_ids() {
        let mut cur = st.parent(s);
        while let Some(t) = cur {
            if matches!(prog.stmt(t).kind, StmtKind::DoWhile { .. }) {
                out[t.index()].insert(s);
            }
            cur = st.parent(t);
        }
    }
    out
}

/// The do-while extension guard, a construct outside the paper's
/// language: walking the lexical-successor chain from jump `j` toward its
/// nearest in-slice successor, returns `true` if the walk enters a
/// `do-while` that is *not* in the slice from inside its body, and that
/// body contains slice statements. `bodies` is [`dowhile_bodies`] of the
/// analyzed program.
///
/// Deleting such a jump makes control fall into the do-while's
/// *condition*, which may loop back and re-execute the in-slice body —
/// even when the condition was dead code in the original program (a body
/// ending in `break`). The paper's npd-vs-nls test cannot see this because
/// a do-while's entry (its body) differs from its flowgraph node (its
/// condition); for the paper's own constructs the guard never fires, and
/// for programs without any `do-while` it returns at once, without forcing
/// the lexical successor tree.
pub fn dowhile_hazard(a: &Analysis<'_>, bodies: &[StmtSet], j: StmtId, slice: &StmtSet) -> bool {
    let prog = a.prog();
    let st = prog.structure();
    if !st.has_do_while() {
        return false;
    }
    let mut prev = j;
    for t in a.lst().successors(j) {
        if slice.contains(t) {
            return false;
        }
        // Only an arrival *from inside the body* lands on the loop
        // condition (the last-body-statement rule); reaching a do-while
        // from outside enters its body, which is harmless.
        if matches!(prog.stmt(t).kind, StmtKind::DoWhile { .. })
            && st.contains(t, prev)
            && bodies[t.index()].intersects(slice)
        {
            return true;
        }
        prev = t;
    }
    false
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

/// The edges of `rd`, indexed by statement: `deps[u]` holds the
/// definitions reaching `u` whose variable `u` uses, found by testing
/// each reaching bit, then sorted and deduplicated.
pub fn data_deps_dense(prog: &Program, cfg: &Cfg, rd: &DenseReaching) -> Vec<Vec<StmtId>> {
    let mut deps = vec![Vec::new(); prog.len()];
    for u in prog.stmt_ids() {
        let used = prog.uses(u);
        for bit in rd.in_sets[cfg.node(u).index()].iter() {
            let d = rd.def_sites[bit];
            if used.contains(&prog.defs(d).expect("def site")) {
                deps[u.index()].push(d);
            }
        }
    }
    for v in &mut deps {
        v.sort();
        v.dedup();
    }
    deps
}

/// The dominance frontier of every node, given the graph and its
/// dominator tree (the two must match): `DF(d)` holds the nodes `n` such
/// that `d` dominates a predecessor of `n` but does not strictly dominate
/// `n`. For each node, every dominator-tree ancestor of each of its
/// predecessors, up to but excluding its own immediate dominator, has it
/// in its frontier (Cytron et al.). Each list is sorted.
pub fn dominance_frontiers(g: &DiGraph, dom: &DomTree) -> Vec<Vec<NodeId>> {
    let mut df: Vec<Vec<NodeId>> = vec![Vec::new(); g.len()];
    for n in g.nodes() {
        if !dom.is_reachable(n) {
            continue;
        }
        // The walk from a predecessor stops at once when it is idom(n);
        // back edges into the root (idom = None) walk to the root.
        let idom_n = dom.idom(n);
        for &p in g.preds(n) {
            let mut runner = Some(p).filter(|&p| dom.is_reachable(p));
            while let Some(r) = runner {
                if Some(r) == idom_n {
                    break;
                }
                if !df[r.index()].contains(&n) {
                    df[r.index()].push(n);
                }
                runner = dom.idom(r);
            }
        }
    }
    for v in &mut df {
        v.sort();
    }
    df
}

/// Control dependences as plain per-statement lists, each sorted and
/// deduplicated: the layout of [`jumpslice_pdg::ControlDeps`]' accessors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrontierControl {
    /// The predicates each statement is directly control dependent on.
    pub deps: Vec<Vec<StmtId>>,
    /// The statements control dependent on the entry.
    pub entry_controlled: Vec<StmtId>,
}

/// Control dependence through postdominance frontiers: `b` is control
/// dependent on a live node `a` exactly when `a` lies in `b`'s dominance
/// frontier over the reverse flowgraph.
pub fn control_deps_via_frontiers(prog: &Program, cfg: &Cfg) -> FrontierControl {
    let graph = cfg.graph();
    let rev = graph.reversed();
    let pdom = DomTree::iterative(&rev, cfg.exit());
    let frontiers = dominance_frontiers(&rev, &pdom);
    let live = cfg.reachable();
    let mut deps = vec![Vec::new(); prog.len()];
    let mut entry_controlled = Vec::new();
    for b in graph.nodes() {
        let Some(target) = cfg.stmt(b) else { continue };
        for &a in frontiers[b.index()].iter().filter(|a| live[a.index()]) {
            match cfg.stmt(a) {
                Some(src) => deps[target.index()].push(src),
                None if a == cfg.entry() => entry_controlled.push(target),
                None => {}
            }
        }
    }
    for v in deps
        .iter_mut()
        .chain(std::iter::once(&mut entry_controlled))
    {
        v.sort();
        v.dedup();
    }
    FrontierControl {
        deps,
        entry_controlled,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_core::{agrawal_slice, corpus};
    use jumpslice_lang::parse;
    use jumpslice_pdg::ControlDeps;
    use jumpslice_testkit::Rng;

    /// Frontier membership straight from the definition.
    fn df_brute(g: &DiGraph, dom: &DomTree, d: NodeId) -> Vec<NodeId> {
        g.nodes()
            .filter(|&n| dom.is_reachable(n))
            .filter(|&n| {
                let dominates_a_pred = g
                    .preds(n)
                    .iter()
                    .any(|&p| dom.is_reachable(p) && dom.dominates(d, p));
                dominates_a_pred && !dom.strictly_dominates(d, n)
            })
            .collect()
    }

    #[test]
    fn frontiers_match_their_definition() {
        // 0 -> {1, 2} -> 3: 1 dominates a predecessor of 3, not 3.
        let mut g = DiGraph::with_nodes(4);
        for (a, b) in [(0, 1), (0, 2), (1, 3), (2, 3)] {
            g.add_edge(a.into(), b.into());
        }
        let df = dominance_frontiers(&g, &DomTree::iterative(&g, 0.into()));
        assert_eq!(df[1], vec![NodeId::new(3)]);
        assert!(df[3].is_empty());
        // 0 -> 1 -> 2 -> 1, 1 -> 3: a loop header is in its own frontier.
        let mut g = DiGraph::with_nodes(4);
        for (a, b) in [(0, 1), (1, 2), (2, 1), (1, 3)] {
            g.add_edge(a.into(), b.into());
        }
        let df = dominance_frontiers(&g, &DomTree::iterative(&g, 0.into()));
        assert_eq!(df[2], vec![NodeId::new(1)]);
        assert_eq!(df[1], vec![NodeId::new(1)]);
        // An unreachable node has an empty frontier.
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0.into(), 1.into());
        g.add_edge(2.into(), 1.into());
        let df = dominance_frontiers(&g, &DomTree::iterative(&g, 0.into()));
        assert!(df[2].is_empty());
        jumpslice_testkit::check(64, |rng: &mut Rng| {
            let mut g = DiGraph::with_nodes(12);
            for i in 0..11 {
                g.add_edge(i.into(), (i + 1).into());
            }
            for i in 0..12 {
                for _ in 0..rng.gen_range(0..4usize) {
                    g.add_edge(i.into(), rng.gen_range(0..12usize).into());
                }
            }
            let dom = DomTree::iterative(&g, 0.into());
            let df = dominance_frontiers(&g, &dom);
            for d in g.nodes().filter(|&d| dom.is_reachable(d)) {
                assert_eq!(df[d.index()], df_brute(&g, &dom, d), "node {d:?}");
            }
        });
    }

    #[test]
    fn frontier_construction_agrees_with_the_edge_walk() {
        for src in [
            "read(c); if (c) { x = 1; } else { x = 2; } write(x);",
            "read(c); while (c) { read(c); if (c) break; } write(c);",
            "L3: if (eof()) goto L14; read(x); if (x > 0) goto L8; x = 1; goto L3;
             L8: x = 2; goto L3; L14: write(x);",
            "switch (c) { case 1: x = 1; case 2: y = 2; break; default: z = 3; } write(y);",
            "do { read(x); if (x) continue; x = 1; } while (!eof()); write(x);",
        ] {
            let p = parse(src).unwrap();
            let cfg = Cfg::build(&p);
            let walk = ControlDeps::compute(&p, &cfg);
            let df = control_deps_via_frontiers(&p, &cfg);
            for s in p.stmt_ids() {
                assert_eq!(
                    walk.deps(s),
                    df.deps[s.index()],
                    "deps of line {}",
                    p.line_of(s)
                );
            }
            assert_eq!(walk.entry_controlled(), df.entry_controlled);
        }
    }

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
            let deps = DenseDeps::of(&p, a.cfg());
            let by_lst = figure7(&a, &deps, &crit, &jumps_in_lst_preorder(&a), None);
            assert_eq!(by_pdom.stmts, by_lst.stmts);
        }
    }

    #[test]
    fn nearest_queries() {
        let p = parse("a = 1; b = 2; c = 3; d = 4;").unwrap();
        let a = Analysis::new(&p);
        let slice: StmtSet = [p.at_line(3)].into_iter().collect();
        assert_eq!(
            nearest_pdom_in(&a, p.at_line(1), &slice),
            Some(p.at_line(3))
        );
        assert_eq!(
            nearest_lexsucc_in(&a, p.at_line(1), &slice),
            Some(p.at_line(3))
        );
        assert_eq!(
            nearest_pdom_in(&a, p.at_line(3), &slice),
            None,
            "proper ancestors only"
        );
        assert_eq!(
            nearest_pdom_in(&a, p.at_line(4), &slice),
            None,
            "falls to exit"
        );
    }

    #[test]
    fn nearest_lexsucc_walks_out_of_loops() {
        let p = parse("while (c) { if (a) { x = 1; } y = 2; } write(y);").unwrap();
        let a = Analysis::new(&p);
        // Lines: 1 while, 2 if, 3 x=1, 4 y=2, 5 write; x's chain is 4, 1, 5.
        let x = p.at_line(3);
        let slice: StmtSet = [p.at_line(1), p.at_line(5)].into_iter().collect();
        assert_eq!(nearest_lexsucc_in(&a, x, &slice), Some(p.at_line(1)));
        assert_eq!(nearest_lexsucc_in(&a, x, &StmtSet::with_capacity(0)), None);
    }

    #[test]
    fn pdom_order_covers_unconditional_jumps_only() {
        let p = parse("L3: if (eof()) goto L14; goto L3; L14: write(x);").unwrap();
        let a = Analysis::new(&p);
        // The fused conditional goto on line 1 is handled by the
        // conventional adaptation, not the traversal; only `goto L3` is a
        // traversal candidate.
        assert_eq!(jumps_in_pdom_preorder(&a), vec![p.at_line(2)]);
        let dead = parse("goto END; goto END; END: write(x);").unwrap();
        let a = Analysis::new(&dead);
        assert!(!a.is_live(dead.at_line(2)), "second goto is dead");
        assert_eq!(jumps_in_pdom_preorder(&a), vec![dead.at_line(1)]);
    }

    #[test]
    fn dowhile_body_sets_match_structure_contains() {
        let p = parse(
            "read(x);
             do { x = x + 1; do { y = 2; } while (y); } while (x < 3);
             write(x);",
        )
        .unwrap();
        let bodies = dowhile_bodies(&p);
        for t in p.stmt_ids() {
            for s in p.stmt_ids() {
                assert_eq!(
                    bodies[t.index()].contains(s),
                    matches!(p.stmt(t).kind, StmtKind::DoWhile { .. })
                        && p.structure().contains(t, s),
                    "body set of line {} at line {}",
                    p.line_of(t),
                    p.line_of(s)
                );
            }
        }
        let flat = parse("read(x); while (x) { x = x - 1; } write(x);").unwrap();
        assert!(dowhile_bodies(&flat).is_empty());
    }

    /// The hazard guard answers through the body sets exactly as a scan of
    /// the slice does, on every slice state of a program where it fires
    /// (break inside a do-while, body statements sliced, loop head not).
    #[test]
    fn dowhile_hazard_matches_linear_scan() {
        let p = parse("read(x); do { x = x + 1; if (c) break; y = 2; } while (x < 10); write(y);")
            .unwrap();
        let a = Analysis::new(&p);
        let bodies = dowhile_bodies(&p);
        let brk = p.at_line(5);
        let scan = |j: StmtId, slice: &StmtSet| -> bool {
            let mut prev = j;
            for t in a.lst().successors(j) {
                if slice.contains(t) {
                    return false;
                }
                if matches!(p.stmt(t).kind, StmtKind::DoWhile { .. })
                    && p.structure().contains(t, prev)
                    && slice.iter().any(|s| p.structure().contains(t, s))
                {
                    return true;
                }
                prev = t;
            }
            false
        };
        let mut fired = false;
        for mask in 0u32..(1 << p.len()) {
            let slice: StmtSet = p
                .stmt_ids()
                .filter(|s| mask & (1 << s.index()) != 0)
                .collect();
            let got = dowhile_hazard(&a, &bodies, brk, &slice);
            assert_eq!(got, scan(brk, &slice), "slice mask {mask:#b}");
            fired |= got;
        }
        assert!(fired, "the hazard case is actually exercised");
    }

    /// Without a do-while the guard answers at once, without the LST.
    #[test]
    fn dowhile_hazard_short_circuits_without_dowhile() {
        let p = parse("x = 1; goto L; y = 2; L: write(x);").unwrap();
        let a = Analysis::new(&p);
        let slice: StmtSet = [p.at_line(4)].into_iter().collect();
        assert!(!dowhile_hazard(
            &a,
            &dowhile_bodies(&p),
            p.at_line(2),
            &slice
        ));
        assert_eq!(a.stats().lst_builds, 0);
    }

    /// The dense Figures 12 and 13 and the dense label step reproduce the
    /// paper's Figure 14 and Figure 3 answers.
    #[test]
    fn dense_figures_12_and_13_and_labels_on_the_paper() {
        let p = corpus::fig14();
        let a = Analysis::new(&p);
        let deps = DenseDeps::of(&p, a.cfg());
        let crit = Criterion::at_stmt(p.at_line(9));
        assert_eq!(
            structured_slice_dense(&a, &deps, &crit).lines(&p),
            vec![1, 3, 4, 9]
        );
        assert_eq!(
            conservative_slice_dense(&a, &deps, &crit).lines(&p),
            vec![1, 3, 4, 5, 7, 9]
        );
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let deps = DenseDeps::of(&p, a.cfg());
        let s = agrawal_slice_dense(&a, &deps, &Criterion::at_stmt(p.at_line(15)));
        assert_eq!(
            reassociate_labels_dense(&a, &s.stmts),
            vec![(p.label("L14").unwrap(), Some(p.at_line(15)))]
        );
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
