//! The PDG's SCC condensation: the graph every closure walks.
//!
//! A backward slice is reachability over the dependence edges, a forward
//! slice the same run the other way, and all statements of one strongly
//! connected component reach exactly the same statements. So
//! [`Pdg::from_parts`](crate::Pdg::from_parts) collapses each component to
//! one node with [`tarjan_scc`], and a closure walks components, inserting
//! each one's members wholesale, instead of re-traversing every raw edge
//! inside a component. On goto-dense programs most statements sit in a few
//! large loops: unstructured-5482 has 395,803 raw dependence edges but
//! 2,484 edges between its 2,042 components, kept both ways.
//!
//! # The closed-target contract
//!
//! A closure into a non-empty target skips a component whose first member
//! is already there, without looking at the rest of it. That is exact when
//! the target is empty or **closed under dependence**: such a target holds
//! either all of a component and everything it depends on, or none of it.
//! Every product call site layers backward closures onto a union of
//! closures, which is closed; a forward closure starts empty. The direct
//! walks over raw edges, which treat every statement already in the target
//! as visited, are the oracles in `jumpslice_difftest::oracle`.
//!
//! A closure's delta lists the newly inserted statements component by
//! component, in no particular order; the sparse Figure-7 kernel reads
//! deltas only through set unions and counts.

use jumpslice_dataflow::{DataDeps, StmtSet};
use jumpslice_graph::{tarjan_scc, NodeId};
use jumpslice_lang::StmtId;
use std::cell::Cell;

use crate::ControlDeps;

/// The strongly connected components of a PDG's dependence edges and the
/// deduplicated edges between them. Built with the PDG and immutable, so a
/// PDG shared across threads shares its condensation too.
#[derive(Clone, Debug)]
pub struct Condensation {
    /// Statement → component, in Tarjan emission order: a component's
    /// dependences all have smaller ids.
    comp_of: Vec<u32>,
    /// Members of component `c`, ascending:
    /// `members[member_start[c]..member_start[c + 1]]`.
    member_start: Vec<usize>,
    members: Vec<StmtId>,
    /// Components `c` directly depends on, each once and never `c` itself:
    /// `deps[dep_start[c]..dep_start[c + 1]]`.
    dep_start: Vec<usize>,
    deps: Vec<u32>,
    /// The same edges reversed, each list ascending: the components
    /// directly depending on `c` are `rdeps[rdep_start[c]..rdep_start[c + 1]]`.
    rdep_start: Vec<usize>,
    rdeps: Vec<u32>,
}

thread_local! {
    /// The component worklist of [`Condensation::walk`], kept per thread
    /// so the closures of a hot loop allocate nothing.
    static WORK: Cell<Vec<u32>> = const { Cell::new(Vec::new()) };
}

impl Condensation {
    /// Condenses the dependence edges `data ∪ control` (statement → the
    /// statements it directly depends on).
    pub(crate) fn build(data: &DataDeps, control: &ControlDeps) -> Condensation {
        let n = control.num_stmts();
        let deps_of = |s: StmtId| data.deps(s).iter().chain(control.deps(s)).copied();
        let sccs = tarjan_scc(n, |v| {
            deps_of(StmtId::from_index(v.index())).map(|d| NodeId::new(d.index()))
        });

        let mut comp_of = vec![0u32; n];
        for (c, comp) in sccs.iter().enumerate() {
            for &v in comp {
                comp_of[v.index()] = c as u32;
            }
        }
        let member_start = sccs.start;
        let members: Vec<StmtId> = sccs
            .members
            .into_iter()
            .map(|v| StmtId::from_index(v.index()))
            .collect();
        let k = member_start.len() - 1;

        // `seen[d] == c` once component `c` has recorded its edge to `d`;
        // seeding `seen[c] = c` drops the edges inside `c`.
        let mut seen = vec![u32::MAX; k];
        let mut dep_start = Vec::with_capacity(k + 1);
        let mut deps = Vec::new();
        dep_start.push(0);
        for c in 0..k {
            let cu = c as u32;
            seen[c] = cu;
            for &m in &members[member_start[c]..member_start[c + 1]] {
                for d in deps_of(m) {
                    let dc = comp_of[d.index()];
                    if seen[dc as usize] != cu {
                        seen[dc as usize] = cu;
                        deps.push(dc);
                    }
                }
            }
            dep_start.push(deps.len());
        }

        // One counting pass reverses them, filling in ascending `c`.
        let mut rdep_start = vec![0usize; k + 1];
        for &d in &deps {
            rdep_start[d as usize + 1] += 1;
        }
        for c in 0..k {
            rdep_start[c + 1] += rdep_start[c];
        }
        let mut next = rdep_start.clone();
        let mut rdeps = vec![0u32; deps.len()];
        for c in 0..k {
            for &d in &deps[dep_start[c]..dep_start[c + 1]] {
                rdeps[next[d as usize]] = c as u32;
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

    fn members_of(&self, c: u32) -> &[StmtId] {
        let c = c as usize;
        &self.members[self.member_start[c]..self.member_start[c + 1]]
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
        self.walk(&self.dep_start, &self.deps, seeds, slice, new);
    }

    /// The forward closure of `seeds`.
    pub(crate) fn forward_closure(&self, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
        let mut slice = StmtSet::with_capacity(self.comp_of.len());
        self.walk(&self.rdep_start, &self.rdeps, seeds, &mut slice, |_| {});
        slice
    }

    /// The component walk along the edges `edges[start[c]..start[c + 1]]`.
    fn walk(
        &self,
        start: &[usize],
        edges: &[u32],
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
        mut new: impl FnMut(StmtId),
    ) {
        let mut work = WORK.take();
        work.clear();
        work.extend(seeds.into_iter().map(|s| self.comp_of[s.index()]));
        while let Some(c) = work.pop() {
            let members = self.members_of(c);
            if slice.contains(members[0]) {
                continue;
            }
            for &m in members {
                slice.insert(m);
                new(m);
            }
            let c = c as usize;
            work.extend_from_slice(&edges[start[c]..start[c + 1]]);
        }
        WORK.set(work);
    }
}

#[cfg(test)]
mod tests {
    use crate::Pdg;
    use jumpslice_cfg::Cfg;
    use jumpslice_dataflow::StmtSet;
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
            for base in p.stmt_ids() {
                for s in p.stmt_ids() {
                    let closed = pdg.backward_closure([base]);
                    let mut want = closed.clone();
                    direct(&pdg, &[s], &mut want);
                    let mut got = closed.clone();
                    let mut delta = Vec::new();
                    pdg.backward_closure_delta([s], &mut got, &mut delta);
                    assert_eq!(got, want, "{src:?}");
                    let fresh: StmtSet = want.iter().filter(|&t| !closed.contains(t)).collect();
                    assert_eq!(delta.len(), fresh.len(), "delta lists each insert once");
                    assert_eq!(delta.into_iter().collect::<StmtSet>(), fresh);
                }
            }
        }
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
        assert_eq!(cond.dep_start.len() - 1, p.len() - 1, "components");
        // Each component edge is kept both ways.
        let comp = |line: usize| cond.comp_of[p.at_line(line).index()] as usize;
        let (c4, c5) = (comp(4), comp(5));
        assert!(cond.deps[cond.dep_start[c5]..cond.dep_start[c5 + 1]].contains(&(c4 as u32)));
        assert_eq!(
            &cond.rdeps[cond.rdep_start[c4]..cond.rdep_start[c4 + 1]],
            &[c5 as u32]
        );
    }
}
