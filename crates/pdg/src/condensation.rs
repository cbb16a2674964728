//! The PDG's SCC condensation: the graph every closure walks.
//!
//! A backward slice is reachability over the dependence edges, a forward
//! slice the same run the other way, and all statements of one strongly
//! connected component reach exactly the same statements. So
//! [`Pdg::from_parts`](crate::Pdg::from_parts) collapses each component to
//! one node with [`tarjan_scc`], and a closure walks components, inserting
//! each one's members wholesale, instead of re-traversing every edge
//! inside a component.
//!
//! The dependence nodes are the statements and the data half's φs
//! ([`DataDeps`]). A φ belongs to no statement set: a component's members
//! are its statements, and a component made of φs alone has none. Such a
//! component stays only where it factors edges, read by two or more
//! components and reaching two or more. One read by at most one component,
//! or reaching at most one, is dropped and its dependents read through it
//! ([`contract`]), which changes no statement's reachability and adds no
//! edge.
//!
//! # The closed-target contract
//!
//! A closure into a non-empty target skips a component whose first member
//! is already there, without looking at the rest of it. That is exact when
//! the target is empty or **closed under dependence**: such a target holds
//! either all of a component and everything it depends on, or none of it.
//! Every product call site layers backward closures onto a union of
//! closures, which is closed; a forward closure starts empty. A component
//! without members cannot be tested against the target, so a walk marks
//! the ones it entered and enters each once. Closures layered onto one
//! target can share those marks ([`Pdg::backward_closure_delta`]): a
//! marked component's closure is in the target already, so across all the
//! layers each is entered once. The direct walks over explicit edges,
//! which treat every statement already in the target as visited, are the
//! oracles in `jumpslice_difftest::oracle`.
//!
//! [`Pdg::backward_closure_delta`]: crate::Pdg::backward_closure_delta
//!
//! A closure's delta lists the newly inserted statements component by
//! component, in no particular order; the sparse Figure-7 kernel reads
//! deltas only through set unions and counts.

use jumpslice_dataflow::{BitSet, DataDeps, StmtSet};
use jumpslice_graph::{tarjan_scc, NodeId};
use jumpslice_lang::StmtId;
use std::cell::Cell;

use crate::ControlDeps;

/// The strongly connected components of a PDG's dependence nodes and the
/// deduplicated edges between them. Built with the PDG and immutable, so a
/// PDG shared across threads shares its condensation too.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Statement → component, in Tarjan emission order: a component's
    /// dependences all have smaller ids.
    comp_of: Vec<u32>,
    /// Statements of component `c`, ascending (none for a component of
    /// φs): `members[member_start[c]..member_start[c + 1]]`.
    member_start: Vec<u32>,
    members: Vec<StmtId>,
    /// Components `c` directly depends on, each once and never `c` itself:
    /// `deps[dep_start[c]..dep_start[c + 1]]`.
    dep_start: Vec<u32>,
    deps: Vec<u32>,
    /// The same edges reversed, each list ascending: the components
    /// directly depending on `c` are `rdeps[rdep_start[c]..rdep_start[c + 1]]`.
    rdep_start: Vec<u32>,
    rdeps: Vec<u32>,
}

thread_local! {
    /// The component worklist of [`Condensation::walk`], kept per thread
    /// so the closures of a hot loop allocate nothing.
    static WORK: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
    /// Per component, the walk that last entered it, and the number of
    /// the current walk: the marks of member-less components for a walk
    /// that shares them with no other.
    static ENTERED: Cell<(Vec<u32>, u32)> = const { Cell::new((Vec::new(), 0)) };
}

/// Drops the member-less components that factor nothing, given the member
/// and dependency tables of all components in emission order (every
/// dependency before its dependents). One read by at most one component is
/// inlined: its dependent reads its dependencies instead. One that, read
/// through what was dropped, reaches at most one kept component forwards
/// its dependents to that one. Neither changes which statements a
/// statement reaches. Each inlined component has at most one dependent, so
/// the walks that read through them visit each once in all, and every
/// drop removes at least the edges it adds. Returns the kept components'
/// tables, renumbered in order, and each old component's new id (`u32::MAX`
/// for a dropped one).
fn contract(
    member_start: &[u32],
    dep_start: &[u32],
    deps: &[u32],
) -> (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>) {
    /// What became of a component: kept under a new id, inlined into its
    /// one dependent, or forwarding to at most one kept component.
    #[derive(Clone, Copy)]
    enum Fate {
        Kept(u32),
        Inlined,
        Forward(Option<u32>),
    }
    let k = dep_start.len() - 1;
    let deps_of = |c: usize| &deps[dep_start[c] as usize..dep_start[c + 1] as usize];
    let mut dependents = vec![0u32; k];
    for &d in deps {
        dependents[d as usize] += 1;
    }
    let mut fate = vec![Fate::Inlined; k];
    let mut renum = vec![u32::MAX; k];
    let (mut new_member_start, mut new_dep_start) = (vec![0u32], vec![0u32]);
    let mut new_deps = Vec::with_capacity(deps.len());
    // `seen[t] == c` once component `c` has listed the kept component `t`.
    let mut seen = vec![u32::MAX; k];
    let (mut buf, mut stack) = (Vec::new(), Vec::new());
    for c in 0..k {
        let memberless = member_start[c] == member_start[c + 1];
        if memberless && dependents[c] <= 1 {
            continue;
        }
        buf.clear();
        stack.extend_from_slice(deps_of(c));
        while let Some(d) = stack.pop() {
            let t = match fate[d as usize] {
                Fate::Kept(t) | Fate::Forward(Some(t)) => t,
                Fate::Forward(None) => continue,
                Fate::Inlined => {
                    stack.extend_from_slice(deps_of(d as usize));
                    continue;
                }
            };
            if seen[t as usize] != c as u32 {
                seen[t as usize] = c as u32;
                buf.push(t);
            }
        }
        if memberless && buf.len() <= 1 {
            fate[c] = Fate::Forward(buf.first().copied());
        } else {
            let t = new_dep_start.len() as u32 - 1;
            fate[c] = Fate::Kept(t);
            renum[c] = t;
            new_deps.extend_from_slice(&buf);
            new_dep_start.push(new_deps.len() as u32);
            new_member_start.push(member_start[c + 1]);
        }
    }
    for v in [&mut new_member_start, &mut new_dep_start, &mut new_deps] {
        v.shrink_to_fit();
    }
    (new_member_start, new_dep_start, new_deps, renum)
}

impl Condensation {
    /// Condenses the dependence edges `data ∪ control` (dependence node →
    /// the nodes it directly depends on).
    pub(crate) fn build(data: &DataDeps, control: &ControlDeps) -> Condensation {
        let n = control.num_stmts();
        let nodes = data.num_nodes();
        let deps_of = |v: usize| {
            let control: &[StmtId] = if v < n {
                control.deps(StmtId::from_index(v))
            } else {
                &[]
            };
            data.node_deps(v)
                .iter()
                .map(|&d| d as usize)
                .chain(control.iter().map(|c| c.index()))
        };
        let sccs = tarjan_scc(nodes, |v| deps_of(v.index()).map(NodeId::new));

        let k = sccs.start.len() - 1;
        let mut comp_of = vec![0u32; nodes];
        let mut member_start = Vec::with_capacity(k + 1);
        let mut members: Vec<StmtId> = Vec::with_capacity(n);
        member_start.push(0);
        for (c, comp) in sccs.iter().enumerate() {
            for &v in comp {
                comp_of[v.index()] = c as u32;
                if v.index() < n {
                    members.push(StmtId::from_index(v.index()));
                }
            }
            member_start.push(members.len() as u32);
        }

        // `seen[d] == c` once component `c` has recorded its edge to `d`;
        // seeding `seen[c] = c` drops the edges inside `c`.
        let mut seen = vec![u32::MAX; k];
        let mut dep_start = Vec::with_capacity(k + 1);
        let mut deps = Vec::new();
        dep_start.push(0);
        for (c, comp) in sccs.iter().enumerate() {
            let cu = c as u32;
            seen[c] = cu;
            for &v in comp {
                for d in deps_of(v.index()) {
                    let dc = comp_of[d];
                    if seen[dc as usize] != cu {
                        seen[dc as usize] = cu;
                        deps.push(dc);
                    }
                }
            }
            dep_start.push(deps.len() as u32);
        }
        drop((sccs, seen));
        let (member_start, dep_start, deps, renum) = contract(&member_start, &dep_start, &deps);
        let k = dep_start.len() - 1;
        comp_of.truncate(n);
        comp_of.shrink_to_fit();
        for c in &mut comp_of {
            *c = renum[*c as usize];
        }

        // One counting pass reverses them, filling in ascending `c`.
        let mut rdep_start = vec![0u32; k + 1];
        for &d in &deps {
            rdep_start[d as usize + 1] += 1;
        }
        for c in 0..k {
            rdep_start[c + 1] += rdep_start[c];
        }
        let mut next = rdep_start.clone();
        let mut rdeps = vec![0u32; deps.len()];
        for c in 0..k {
            for &d in &deps[dep_start[c] as usize..dep_start[c + 1] as usize] {
                rdeps[next[d as usize] as usize] = c as u32;
                next[d as usize] += 1;
            }
        }
        Condensation {
            comp_of,
            member_start,
            members,
            dep_start,
            deps,
            rdep_start,
            rdeps,
        }
    }

    /// Number of components, those of φs alone included.
    pub fn num_components(&self) -> usize {
        self.dep_start.len() - 1
    }

    /// Number of edges between components, each counted once.
    pub fn num_edges(&self) -> usize {
        self.deps.len()
    }

    fn members_of(&self, c: u32) -> &[StmtId] {
        let c = c as usize;
        &self.members[self.member_start[c] as usize..self.member_start[c + 1] as usize]
    }

    /// Inserts the backward closure of `seeds` into `slice`, which must be
    /// empty or closed under dependence (module docs), and calls `new` on
    /// every statement it inserts.
    pub(crate) fn close(
        &self,
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
        new: impl FnMut(StmtId),
    ) {
        self.walk_once(&self.dep_start, &self.deps, seeds, slice, new);
    }

    /// [`Condensation::close`] that skips, and adds to, the member-less
    /// components in `entered`, which earlier closures into `slice` entered.
    pub(crate) fn close_layered(
        &self,
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
        entered: &mut BitSet,
        new: impl FnMut(StmtId),
    ) {
        let first_entry = |c: u32| entered.insert(c as usize);
        self.walk(&self.dep_start, &self.deps, seeds, slice, first_entry, new);
    }

    /// The forward closure of `seeds`.
    pub(crate) fn forward_closure(&self, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
        let mut slice = StmtSet::with_capacity(self.comp_of.len());
        self.walk_once(&self.rdep_start, &self.rdeps, seeds, &mut slice, |_| {});
        slice
    }

    /// One walk that marks the member-less components it enters on its
    /// own, in the thread's array of walk numbers.
    fn walk_once(
        &self,
        start: &[u32],
        edges: &[u32],
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
        new: impl FnMut(StmtId),
    ) {
        let (mut entered, mut walk) = ENTERED.take();
        walk = walk.wrapping_add(1);
        if walk == 0 {
            entered.fill(0);
            walk = 1;
        }
        if entered.len() < self.num_components() {
            entered.resize(self.num_components(), 0);
        }
        let first_entry = |c: u32| std::mem::replace(&mut entered[c as usize], walk) != walk;
        self.walk(start, edges, seeds, slice, first_entry, new);
        ENTERED.set((entered, walk));
    }

    /// The component walk along the edges `edges[start[c]..start[c + 1]]`.
    /// `first_entry(c)` marks the member-less component `c` and says
    /// whether it was unmarked.
    fn walk(
        &self,
        start: &[u32],
        edges: &[u32],
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
        mut first_entry: impl FnMut(u32) -> bool,
        mut new: impl FnMut(StmtId),
    ) {
        let mut work = WORK.take();
        work.clear();
        work.extend(seeds.into_iter().map(|s| self.comp_of[s.index()]));
        while let Some(c) = work.pop() {
            let members = self.members_of(c);
            match members.first() {
                Some(&m) if slice.contains(m) => continue,
                Some(_) => {
                    for &m in members {
                        slice.insert(m);
                        new(m);
                    }
                }
                None if !first_entry(c) => continue,
                None => {}
            }
            let c = c as usize;
            work.extend_from_slice(&edges[start[c] as usize..start[c + 1] as usize]);
        }
        WORK.set(work);
    }
}

#[cfg(test)]
mod tests {
    use crate::Pdg;
    use jumpslice_cfg::Cfg;
    use jumpslice_dataflow::{BitSet, StmtSet};
    use jumpslice_lang::{parse, Program, StmtId};

    fn pdg_of(src: &str) -> (Program, Pdg) {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let pdg = Pdg::build(&p, &cfg);
        (p, pdg)
    }

    /// The direct walk over raw edges, treating every statement already in
    /// `slice` as visited.
    fn direct(pdg: &Pdg, seeds: &[StmtId], slice: &mut StmtSet) {
        let mut work = seeds.to_vec();
        while let Some(s) = work.pop() {
            if slice.insert(s) {
                work.extend(pdg.data().deps(s));
                work.extend(pdg.control().deps(s));
            }
        }
    }

    /// The direct walk the other way: every statement with a raw
    /// dependence path from `seed`, by a fixpoint over the forward edges.
    fn direct_forward(p: &Program, pdg: &Pdg, seed: StmtId) -> StmtSet {
        let mut reached: StmtSet = [seed].into_iter().collect();
        let mut grew = true;
        while grew {
            grew = false;
            for s in p.stmt_ids() {
                if !reached.contains(s) && pdg.deps(s).iter().any(|&d| reached.contains(d)) {
                    reached.insert(s);
                    grew = true;
                }
            }
        }
        reached
    }

    const SRCS: [&str; 4] = [
        "read(c); if (c) { x = 1; } else { x = 2; } write(x);",
        "read(c); while (c) { read(c); if (c) break; y = c; } write(y);",
        "sum = 0; L3: if (eof()) goto L14; read(x); sum = sum + x; goto L3; L14: write(sum);",
        "do { read(x); if (x) continue; x = 1; } while (!eof()); write(x);",
    ];

    #[test]
    fn component_walk_matches_the_direct_walk_on_every_seed() {
        for src in SRCS {
            let (p, pdg) = pdg_of(src);
            for s in p.stmt_ids() {
                let mut want = StmtSet::new();
                direct(&pdg, &[s], &mut want);
                assert_eq!(
                    pdg.backward_closure([s]),
                    want,
                    "line {} of {src:?}",
                    p.line_of(s)
                );
            }
        }
    }

    #[test]
    fn forward_component_walk_matches_the_direct_walk_on_every_seed() {
        for src in SRCS {
            let (p, pdg) = pdg_of(src);
            for s in p.stmt_ids() {
                assert_eq!(
                    pdg.forward_closure([s]),
                    direct_forward(&p, &pdg, s),
                    "line {} of {src:?}",
                    p.line_of(s)
                );
            }
        }
    }

    #[test]
    fn layered_closures_onto_a_closed_target_match_and_report_their_delta() {
        for src in SRCS {
            let (p, pdg) = pdg_of(src);
            let k = pdg.condensation().num_components();
            for base in p.stmt_ids() {
                let mut closed = StmtSet::new();
                let mut base_entered = BitSet::new(k);
                pdg.backward_closure_delta([base], &mut closed, &mut base_entered, &mut Vec::new());
                assert_eq!(closed, pdg.backward_closure([base]), "{src:?}");
                for s in p.stmt_ids() {
                    let mut want = closed.clone();
                    direct(&pdg, &[s], &mut want);
                    let fresh: StmtSet = want.iter().filter(|&t| !closed.contains(t)).collect();
                    // With the base's marks and with none.
                    for mut entered in [base_entered.clone(), BitSet::new(k)] {
                        let mut got = closed.clone();
                        let mut delta = Vec::new();
                        pdg.backward_closure_delta([s], &mut got, &mut entered, &mut delta);
                        assert_eq!(got, want, "{src:?}");
                        assert_eq!(delta.len(), fresh.len(), "delta lists each insert once");
                        assert_eq!(delta.into_iter().collect::<StmtSet>(), fresh);
                    }
                }
            }
        }
    }

    /// Closures layered onto one slice share their marks: a layer that
    /// reaches only φs an earlier layer entered enters nothing.
    #[test]
    fn layered_closures_enter_each_phi_component_once() {
        let (p, pdg) = pdg_of("read(c); if (c) { x = 1; } else { x = 2; } write(x); write(x);");
        let mut entered = BitSet::new(pdg.condensation().num_components());
        let mut slice = StmtSet::new();
        let mut delta = Vec::new();
        pdg.backward_closure_delta([p.at_line(5)], &mut slice, &mut entered, &mut delta);
        assert_eq!(entered.len(), 1, "the join's φ");
        delta.clear();
        let before = entered.clone();
        pdg.backward_closure_delta([p.at_line(6)], &mut slice, &mut entered, &mut delta);
        assert_eq!(delta, [p.at_line(6)]);
        assert_eq!(entered, before);
    }

    /// A join's φ read by one statement only passes its definitions
    /// through and leaves no component; read by two, it factors the edges
    /// and stays, a component without members.
    #[test]
    fn only_phis_that_factor_edges_keep_a_component() {
        let memberless = |src: &str| {
            let (_, pdg) = pdg_of(src);
            let cond = pdg.condensation();
            (0..cond.num_components() as u32)
                .filter(|&c| cond.members_of(c).is_empty())
                .count()
        };
        let join = "read(c); if (c) { x = 1; } else { x = 2; }";
        assert_eq!(memberless(&format!("{join} write(x);")), 0);
        assert_eq!(memberless(&format!("{join} write(x); write(x);")), 1);
    }

    /// A run of joins each read only by the next (`if (c) { x = i; }`
    /// repeated) is read through to its definitions, the explicit row.
    #[test]
    fn a_chain_of_joins_is_read_through() {
        let ifs: String = (0..20).map(|i| format!("if (c) {{ x = {i}; }} ")).collect();
        let (p, pdg) = pdg_of(&format!("read(c); {ifs}write(x);"));
        let cond = pdg.condensation();
        assert_eq!(cond.num_components(), p.len(), "one per statement");
        let write = cond.comp_of[p.stmt_ids().last().unwrap().index()] as usize;
        let deps = &cond.deps[cond.dep_start[write] as usize..cond.dep_start[write + 1] as usize];
        assert_eq!(deps.len(), 20, "the 20 definitions");
        let mut want = StmtSet::new();
        direct(&pdg, &[p.stmt_ids().last().unwrap()], &mut want);
        assert_eq!(pdg.backward_closure(p.stmt_ids().last()), want);
    }

    #[test]
    fn a_loop_collapses_to_one_component() {
        // The while predicate is control dependent on itself, and the
        // loop-carried `i = i + 1` feeds it: one component.
        let (p, pdg) = pdg_of("read(n); i = 0; while (i < n) { i = i + 1; } write(i);");
        let cond = pdg.condensation();
        let component = |line: usize| cond.members_of(cond.comp_of[p.at_line(line).index()]);
        let mut body = [p.at_line(3), p.at_line(4)];
        body.sort();
        assert_eq!(component(4), &body, "members ascending");
        assert_eq!(component(1), &[p.at_line(1)]);
        assert_eq!(cond.num_components(), p.len() - 1, "components");
        // Each component edge is kept both ways.
        let comp = |line: usize| cond.comp_of[p.at_line(line).index()] as usize;
        let (c4, c5) = (comp(4), comp(5));
        let deps =
            |c: usize| &cond.deps[cond.dep_start[c] as usize..cond.dep_start[c + 1] as usize];
        let rdeps =
            |c: usize| &cond.rdeps[cond.rdep_start[c] as usize..cond.rdep_start[c + 1] as usize];
        assert!(deps(c5).contains(&(c4 as u32)));
        assert_eq!(rdeps(c4), &[c5 as u32]);
    }
}
