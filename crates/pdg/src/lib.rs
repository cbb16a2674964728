//! Control dependence and program dependence graphs.
//!
//! Control dependence is computed with the Ferrante–Ottenstein–Warren
//! construction the paper cites (\[10\]): for every flowgraph edge `A -> B`
//! where `B` does not postdominate `A`, every node on the postdominator-tree
//! path from `B` up to (but excluding) `ipdom(A)` is control dependent on
//! `A`. Thanks to the always-present `Entry -> Exit` edge, top-level
//! statements come out control dependent on `Entry` — the paper's dummy
//! predicate "node 0".
//!
//! The same construction run over the [augmented
//! flowgraph](jumpslice_cfg::Cfg::augmented_graph) yields the control
//! dependences Ball–Horwitz and Choi–Ferrante use; [`Pdg::build_augmented`]
//! packages that baseline (data dependence stays on the unaugmented graph,
//! exactly as both papers require).
//!
//! # Examples
//!
//! ```
//! use jumpslice_lang::parse;
//! use jumpslice_cfg::Cfg;
//! use jumpslice_pdg::Pdg;
//!
//! let p = parse("read(c); if (c) { x = 1; } write(x);")?;
//! let cfg = Cfg::build(&p);
//! let pdg = Pdg::build(&p, &cfg);
//! // x = 1 is control dependent on the if.
//! assert_eq!(pdg.control().deps(p.at_line(3)), &[p.at_line(2)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use jumpslice_cfg::Cfg;
use jumpslice_dataflow::{DataDeps, ReachingDefs, StmtSet};
use jumpslice_graph::{DiGraph, DomTree};
use jumpslice_lang::{Program, StmtId};

mod condensation;

pub use condensation::Condensation;

/// Control-dependence edges between statements.
#[derive(Clone, Debug)]
pub struct ControlDeps {
    /// Per statement: the predicates it is directly control dependent on.
    deps: Vec<Vec<StmtId>>,
    /// Per statement: the statements directly control dependent on it.
    dependents: Vec<Vec<StmtId>>,
    /// Statements control dependent on `Entry` (the paper's node 0): the
    /// top-level statements.
    entry_controlled: Vec<StmtId>,
}

impl ControlDeps {
    /// Computes control dependence from the standard flowgraph.
    pub fn compute(prog: &Program, cfg: &Cfg) -> ControlDeps {
        Self::compute_with_pdom(prog, cfg, &cfg.postdominators())
    }

    /// Computes control dependence from an alternative flowgraph sharing the
    /// node layout of `cfg` — in practice the Ball–Horwitz augmented graph.
    ///
    /// Edges whose source is unreachable from the entry (dead code) are
    /// ignored: a statement cannot be controlled by a predicate that never
    /// executes. Reachability is judged in the *given* graph, so under the
    /// augmented graph statements reachable only through pseudo fall-through
    /// edges still participate, as Ball–Horwitz require.
    pub fn compute_from_graph(prog: &Program, cfg: &Cfg, graph: &DiGraph) -> ControlDeps {
        let pdom = DomTree::iterative(&graph.reversed(), cfg.exit());
        let live = jumpslice_graph::reachable_from(graph, cfg.entry());
        Self::from_graph_and_pdom(prog, cfg, graph, &pdom, &live)
    }

    /// Computes control dependence over the standard flowgraph reusing an
    /// already-built postdominator tree (which must be
    /// [`Cfg::postdominators`] of `cfg`). The incremental session uses this
    /// to build the tree once and share it between control dependence and
    /// the analysis cache. Entry reachability is the flowgraph's recorded
    /// one.
    pub fn compute_with_pdom(prog: &Program, cfg: &Cfg, pdom: &DomTree) -> ControlDeps {
        Self::from_graph_and_pdom(prog, cfg, cfg.graph(), pdom, cfg.reachable())
    }

    /// The edge walk over `graph`, whose nodes reachable from the entry are
    /// `live`.
    fn from_graph_and_pdom(
        prog: &Program,
        cfg: &Cfg,
        graph: &DiGraph,
        pdom: &DomTree,
        live: &[bool],
    ) -> ControlDeps {
        let mut deps = vec![Vec::new(); prog.len()];
        let mut dependents = vec![Vec::new(); prog.len()];
        let mut entry_controlled = Vec::new();

        // Per-source stamps over flowgraph nodes: `visited[r] == stamp(a)`
        // means the pdom-tree path from `r` upward has already been claimed
        // for source `a`. This replaces the old `Vec::contains` scans
        // (quadratic on high-fanout predicates) with O(1) dedup *and* lets
        // each walk stop as soon as it rejoins an earlier walk from the
        // same source, since the remainder of the path is identical.
        let mut visited = vec![usize::MAX; graph.len()];
        for a in graph.nodes() {
            if !live[a.index()] || !pdom.is_reachable(a) {
                continue;
            }
            let stop = pdom.idom(a);
            let stamp = a.index();
            for &b in graph.succs(a) {
                if !pdom.is_reachable(b) {
                    continue;
                }
                // Walk the postdominator tree from b up to (excluding)
                // ipdom(a), or until rejoining a stamped path.
                let mut runner = Some(b);
                while let Some(r) = runner {
                    if Some(r) == stop || visited[r.index()] == stamp {
                        break;
                    }
                    visited[r.index()] = stamp;
                    if let Some(target) = cfg.stmt(r) {
                        match cfg.stmt(a) {
                            Some(src) => {
                                deps[target.index()].push(src);
                                dependents[src.index()].push(target);
                            }
                            None if a == cfg.entry() => entry_controlled.push(target),
                            None => {}
                        }
                    }
                    runner = pdom.idom(r);
                }
            }
        }

        for v in deps.iter_mut().chain(dependents.iter_mut()) {
            v.sort();
            v.dedup();
        }
        entry_controlled.sort();
        ControlDeps {
            deps,
            dependents,
            entry_controlled,
        }
    }

    /// Computes control dependence through *postdominance frontiers*
    /// instead of the edge walk: `b` is control dependent on `a` exactly
    /// when `a` lies in `b`'s dominance frontier over the reverse graph.
    ///
    /// An independent construction kept for cross-checking
    /// [`ControlDeps::compute_from_graph`] (the property tests assert the
    /// two agree on random programs) and for the ablation bench.
    pub fn compute_via_frontiers(prog: &Program, cfg: &Cfg) -> ControlDeps {
        let graph = cfg.graph();
        let rev = graph.reversed();
        let pdom = DomTree::iterative(&rev, cfg.exit());
        let frontiers = jumpslice_graph::dominance_frontiers(&rev, &pdom);
        let live = jumpslice_graph::reachable_from(graph, cfg.entry());

        let mut deps = vec![Vec::new(); prog.len()];
        let mut dependents = vec![Vec::new(); prog.len()];
        let mut entry_controlled = Vec::new();
        for b in graph.nodes() {
            let Some(target) = cfg.stmt(b) else { continue };
            for &a in &frontiers[b.index()] {
                if !live[a.index()] {
                    continue;
                }
                match cfg.stmt(a) {
                    Some(src) => {
                        deps[target.index()].push(src);
                        dependents[src.index()].push(target);
                    }
                    None if a == cfg.entry() => entry_controlled.push(target),
                    None => {}
                }
            }
        }
        for v in deps.iter_mut().chain(dependents.iter_mut()) {
            v.sort();
            v.dedup();
        }
        entry_controlled.sort();
        entry_controlled.dedup();
        ControlDeps {
            deps,
            dependents,
            entry_controlled,
        }
    }

    /// Rebuilds the edge set from the forward direction plus the entry
    /// list, deriving the inverse index — the snapshot-restore constructor.
    /// `deps[i]` lists the predicates statement `i` is directly control
    /// dependent on; lists are sorted and deduplicated here, so wire forms
    /// need not be trusted.
    pub fn from_parts(
        mut deps: Vec<Vec<StmtId>>,
        mut entry_controlled: Vec<StmtId>,
    ) -> ControlDeps {
        let n = deps.len();
        let mut counts = vec![0usize; n];
        for v in deps.iter_mut() {
            // Our own wire forms arrive strictly sorted; one ordering scan
            // keeps the sort off the restore path for all but hostile bytes.
            if !v.windows(2).all(|w| w[0] < w[1]) {
                v.sort();
                v.dedup();
            }
            for p in v.iter() {
                counts[p.index()] += 1;
            }
        }
        // Filling in ascending `t` over deduplicated forward lists leaves
        // every reverse list strictly sorted — no post-pass needed.
        let mut dependents: Vec<Vec<StmtId>> =
            counts.iter().map(|&c| Vec::with_capacity(c)).collect();
        for (t, ps) in deps.iter().enumerate() {
            for &p in ps {
                dependents[p.index()].push(StmtId::from_index(t));
            }
        }
        if !entry_controlled.windows(2).all(|w| w[0] < w[1]) {
            entry_controlled.sort();
            entry_controlled.dedup();
        }
        ControlDeps {
            deps,
            dependents,
            entry_controlled,
        }
    }

    /// The predicates `s` is directly control dependent on (sorted;
    /// excluding `Entry`).
    pub fn deps(&self, s: StmtId) -> &[StmtId] {
        &self.deps[s.index()]
    }

    /// The statements directly control dependent on `s` (sorted).
    pub fn dependents(&self, s: StmtId) -> &[StmtId] {
        &self.dependents[s.index()]
    }

    /// Statements control dependent on `Entry` (paper's node 0).
    pub fn entry_controlled(&self) -> &[StmtId] {
        &self.entry_controlled
    }

    /// All edges as `(predicate, dependent)` pairs, excluding `Entry` edges.
    pub fn edges(&self) -> impl Iterator<Item = (StmtId, StmtId)> + '_ {
        self.deps
            .iter()
            .enumerate()
            .flat_map(|(t, ps)| ps.iter().map(move |&p| (p, StmtId::from_index(t))))
    }

    /// Number of statements in the underlying program (the dense id bound).
    pub fn num_stmts(&self) -> usize {
        self.deps.len()
    }
}

/// A program dependence graph: data plus control dependence, and the SCC
/// condensation of their union that backward closures walk.
#[derive(Clone, Debug)]
pub struct Pdg {
    data: DataDeps,
    control: ControlDeps,
    cond: Condensation,
}

impl Pdg {
    /// Builds the standard PDG: control and data dependence both from the
    /// unaugmented flowgraph (paper, §2).
    pub fn build(prog: &Program, cfg: &Cfg) -> Pdg {
        Pdg::from_parts(
            DataDeps::compute(prog, cfg),
            ControlDeps::compute(prog, cfg),
        )
    }

    /// Builds the *augmented* PDG used by the Ball–Horwitz / Choi–Ferrante
    /// baseline: control dependence from the augmented flowgraph, data
    /// dependence from the standard one (paper, §5).
    pub fn build_augmented(prog: &Program, cfg: &Cfg) -> Pdg {
        let aug = cfg.augmented_graph();
        Pdg::from_parts(
            DataDeps::compute(prog, cfg),
            ControlDeps::compute_from_graph(prog, cfg, &aug),
        )
    }

    /// Assembles a PDG from already-computed halves and condenses it.
    ///
    /// The batch engine caches `ReachingDefs` per program and derives data
    /// dependence once via [`DataDeps::from_reaching`]; this constructor
    /// lets it share that work instead of recomputing it per build.
    pub fn from_parts(data: DataDeps, control: ControlDeps) -> Pdg {
        jumpslice_obs::record(|| jumpslice_obs::Event::Count {
            name: "pdg.data_edges",
            value: data.num_edges() as u64,
        });
        jumpslice_obs::record(|| jumpslice_obs::Event::Count {
            name: "pdg.control_edges",
            value: control.edges().count() as u64,
        });
        let cond = Condensation::build(&data, &control);
        Pdg {
            data,
            control,
            cond,
        }
    }

    /// The data-dependence half.
    pub fn data(&self) -> &DataDeps {
        &self.data
    }

    /// Patches the data half in place after an edit that changed only the
    /// *uses* of statement `u` (an expression replacement under an
    /// unchanged flowgraph shape): recomputes `u`'s incoming data edges
    /// from `rd` and leaves every control edge and every other statement's
    /// data edges untouched, then re-condenses. Returns the number of data
    /// edges now entering `u`.
    pub fn repoint_data_uses(
        &mut self,
        prog: &Program,
        cfg: &Cfg,
        rd: &ReachingDefs,
        u: StmtId,
    ) -> usize {
        let n = self.data.repoint_uses(prog, cfg, rd, u);
        self.cond = Condensation::build(&self.data, &self.control);
        jumpslice_obs::record(|| jumpslice_obs::Event::Count {
            name: "pdg.patched_data_edges",
            value: n as u64,
        });
        n
    }

    /// The control-dependence half.
    pub fn control(&self) -> &ControlDeps {
        &self.control
    }

    /// Direct dependences of `s`: data then control, deduplicated.
    pub fn deps(&self, s: StmtId) -> Vec<StmtId> {
        let mut out: Vec<StmtId> = self.data.deps(s).to_vec();
        for &c in self.control.deps(s) {
            if !out.contains(&c) {
                out.push(c);
            }
        }
        out
    }

    /// The condensation every backward closure walks.
    pub fn condensation(&self) -> &Condensation {
        &self.cond
    }

    /// The transitive closure of data and control dependence from `seeds` —
    /// the conventional slicing kernel (paper, §2). The dense [`StmtSet`]
    /// iterates in ascending id order, so downstream consumers see the same
    /// sorted view the old `BTreeSet` gave them.
    pub fn backward_closure(&self, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
        let mut slice = StmtSet::with_capacity(self.control.num_stmts());
        self.backward_closure_into(seeds, &mut slice);
        slice
    }

    /// Adds the backward closure of `seeds` to `slice`, walking the
    /// condensation. `slice` must be empty or closed under dependence, as
    /// a union of closures is: a component whose first member is already
    /// in `slice` is skipped whole.
    pub fn backward_closure_into(
        &self,
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
    ) {
        self.cond.close(seeds, slice, |_| {});
    }

    /// [`Pdg::backward_closure_into`] that also appends every *newly
    /// inserted* statement to `delta` (which is **not** cleared), in no
    /// particular order. The sparse Figure-7 kernel feeds the delta to its
    /// dirty-jump index so only tests whose inputs changed are re-run.
    pub fn backward_closure_delta(
        &self,
        seeds: impl IntoIterator<Item = StmtId>,
        slice: &mut StmtSet,
        delta: &mut Vec<StmtId>,
    ) {
        self.cond.close(seeds, slice, |s| delta.push(s));
    }

    /// Forward closure: everything affected by `seeds`, by a direct walk
    /// over the dependents (forward slices and chops).
    pub fn forward_closure(&self, seeds: impl IntoIterator<Item = StmtId>) -> StmtSet {
        let mut slice = StmtSet::with_capacity(self.control.num_stmts());
        let mut work: Vec<StmtId> = seeds.into_iter().collect();
        while let Some(s) = work.pop() {
            if !slice.insert(s) {
                continue;
            }
            work.extend(self.data.dependents(s).iter().copied());
            work.extend(self.control.dependents(s).iter().copied());
        }
        slice
    }
}

/// Renders a PDG in Graphviz `dot` syntax; solid edges are control, dashed
/// are data, matching the usual PDG figure conventions.
pub fn pdg_dot(pdg: &Pdg, prog: &Program) -> String {
    use std::fmt::Write as _;
    let mut out = String::from("digraph pdg {\n  entry [label=\"0\"];\n");
    for s in prog.stmt_ids() {
        let _ = writeln!(out, "  s{} [label=\"{}\"];", s.index(), prog.line_of(s));
    }
    for &t in pdg.control().entry_controlled() {
        let _ = writeln!(out, "  entry -> s{};", t.index());
    }
    for (p, t) in pdg.control().edges() {
        let _ = writeln!(out, "  s{} -> s{};", p.index(), t.index());
    }
    for (d, u) in pdg.data().edges() {
        let _ = writeln!(out, "  s{} -> s{} [style=dashed];", d.index(), u.index());
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    fn cd_of(src: &str, line: usize) -> Vec<usize> {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let cd = ControlDeps::compute(&p, &cfg);
        cd.deps(p.at_line(line))
            .iter()
            .map(|&s| p.line_of(s))
            .collect()
    }

    #[test]
    fn if_branches_depend_on_predicate() {
        let src = "read(c); if (c) { x = 1; } else { x = 2; } write(x);";
        assert_eq!(cd_of(src, 3), vec![2]);
        assert_eq!(cd_of(src, 4), vec![2]);
        assert_eq!(cd_of(src, 2), Vec::<usize>::new());
        assert_eq!(cd_of(src, 5), Vec::<usize>::new());
    }

    #[test]
    fn while_body_and_self_dependence() {
        let src = "read(c); while (c) { x = 1; } write(x);";
        assert_eq!(cd_of(src, 3), vec![2]);
        // FOW: a loop predicate is control dependent on itself.
        assert_eq!(cd_of(src, 2), vec![2]);
    }

    #[test]
    fn entry_controls_top_level() {
        let p = parse("a = 1; if (a) { b = 2; } c = 3;").unwrap();
        let cfg = Cfg::build(&p);
        let cd = ControlDeps::compute(&p, &cfg);
        let top: Vec<usize> = cd
            .entry_controlled()
            .iter()
            .map(|&s| p.line_of(s))
            .collect();
        assert_eq!(top, vec![1, 2, 4]);
    }

    #[test]
    fn nested_control_dependence_is_direct_only() {
        let src = "read(a); read(b); if (a) { if (b) { x = 1; } } write(x);";
        assert_eq!(cd_of(src, 4), vec![3], "inner if depends on outer if");
        assert_eq!(cd_of(src, 5), vec![4], "x = 1 depends only on inner if");
        assert_eq!(cd_of(src, 3), Vec::<usize>::new(), "outer if is top-level");
    }

    #[test]
    fn paper_figure_2c_control_dependence() {
        // Figure 1-a / 2-c.
        let src = "sum = 0;
                   positives = 0;
                   while (!eof()) {
                     read(x);
                     if (x <= 0)
                       sum = sum + f1(x);
                     else {
                       positives = positives + 1;
                       if (x % 2 == 0)
                         sum = sum + f2(x);
                       else
                         sum = sum + f3(x);
                     }
                   }
                   write(sum);
                   write(positives);";
        // 4 and 5 are control dependent on the while (3); 6 and 7 on the if
        // (5); 9 and 10 on the if (8).
        assert_eq!(cd_of(src, 4), vec![3]);
        assert_eq!(cd_of(src, 5), vec![3]);
        assert_eq!(cd_of(src, 6), vec![5]);
        assert_eq!(cd_of(src, 7), vec![5]);
        assert_eq!(cd_of(src, 8), vec![5]);
        assert_eq!(cd_of(src, 9), vec![8]);
        assert_eq!(cd_of(src, 10), vec![8]);
        // Top level: 1, 2, 3, 11, 12.
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let cd = ControlDeps::compute(&p, &cfg);
        let top: Vec<usize> = cd
            .entry_controlled()
            .iter()
            .map(|&s| p.line_of(s))
            .collect();
        assert_eq!(top, vec![1, 2, 3, 11, 12]);
    }

    #[test]
    fn goto_program_control_dependence() {
        // Figure 3-a shape: statements guarded by conditional gotos.
        let src = "sum = 0;
                   positives = 0;
                   L3: if (eof()) goto L14;
                   read(x);
                   if (x > 0) goto L8;
                   sum = sum + f1(x);
                   goto L13;
                   L8: positives = positives + 1;
                   if (x % 2 != 0) goto L12;
                   sum = sum + f2(x);
                   goto L13;
                   L12: sum = sum + f3(x);
                   L13: goto L3;
                   L14: write(sum);
                   write(positives);";
        // read(x) is control dependent on the conditional goto at 3.
        assert_eq!(cd_of(src, 4), vec![3]);
        // positives += 1 at 8 is control dependent on line 5.
        assert_eq!(cd_of(src, 8), vec![5]);
        // Lines 10 (sum=f2) is control dependent on 9.
        assert_eq!(cd_of(src, 10), vec![9]);
    }

    #[test]
    fn augmented_pdg_includes_jumps_as_predicates() {
        // In the augmented graph, an unconditional goto gains a second
        // (pseudo) edge, so statements can be control dependent on it.
        let src = "read(x);
                   if (x > 0) goto L8;
                   sum = 1;
                   goto L13;
                   L8: positives = 1;
                   L13: write(positives);";
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let aug = Pdg::build_augmented(&p, &cfg);
        let std = Pdg::build(&p, &cfg);
        let goto = p.at_line(4);
        // Standard PDG: nothing is control dependent on the goto.
        assert!(std.control().dependents(goto).is_empty());
        // Augmented PDG: the skipped statement (line 5) is.
        let aug_deps: Vec<usize> = aug
            .control()
            .dependents(goto)
            .iter()
            .map(|&s| p.line_of(s))
            .collect();
        assert_eq!(aug_deps, vec![5]);
    }

    #[test]
    fn backward_closure_is_conventional_slice() {
        // Figure 1/2: slice on write(positives) = {2, 3, 4, 5, 7, 12}.
        let src = "sum = 0;
                   positives = 0;
                   while (!eof()) {
                     read(x);
                     if (x <= 0)
                       sum = sum + f1(x);
                     else {
                       positives = positives + 1;
                       if (x % 2 == 0)
                         sum = sum + f2(x);
                       else
                         sum = sum + f3(x);
                     }
                   }
                   write(sum);
                   write(positives);";
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let pdg = Pdg::build(&p, &cfg);
        let slice = pdg.backward_closure([p.at_line(12)]);
        let mut lines: Vec<usize> = slice.iter().map(|s| p.line_of(s)).collect();
        lines.sort_unstable();
        assert_eq!(lines, vec![2, 3, 4, 5, 7, 12]);
    }

    #[test]
    fn delta_closure_matches_the_plain_one() {
        let p = parse("read(c); while (c) { read(x); y = x; } write(y);").unwrap();
        let cfg = Cfg::build(&p);
        let pdg = Pdg::build(&p, &cfg);
        let plain = pdg.backward_closure([p.at_line(5)]);

        // The delta form reports exactly the newly inserted statements,
        // layered on top of a closed slice (line 1 is its own closure and
        // in the closure of line 5; pre-seeding keeps it out of the delta).
        let mut layered: StmtSet = [p.at_line(1)].into_iter().collect();
        let mut delta = Vec::new();
        pdg.backward_closure_delta([p.at_line(5)], &mut layered, &mut delta);
        assert_eq!(layered, plain);
        let mut delta_set: StmtSet = delta.iter().copied().collect();
        delta_set.insert(p.at_line(1));
        assert_eq!(delta_set, plain, "delta == inserted statements");
        assert_eq!(delta.len(), plain.len() - 1, "each listed once");
        assert!(
            !delta.contains(&p.at_line(1)),
            "pre-seeded stmt not re-reported"
        );
    }

    #[test]
    fn control_deps_from_parts_round_trips() {
        let src = "read(c); while (c) { read(x); if (x) break; y = x; } write(y);";
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let cd = ControlDeps::compute(&p, &cfg);
        let fwd: Vec<Vec<StmtId>> = p.stmt_ids().map(|s| cd.deps(s).to_vec()).collect();
        let back = ControlDeps::from_parts(fwd, cd.entry_controlled().to_vec());
        for s in p.stmt_ids() {
            assert_eq!(cd.deps(s), back.deps(s), "deps of {s:?}");
            assert_eq!(cd.dependents(s), back.dependents(s), "dependents of {s:?}");
        }
        assert_eq!(cd.entry_controlled(), back.entry_controlled());
        assert_eq!(cd.num_stmts(), back.num_stmts());
    }

    #[test]
    fn forward_closure_finds_affected() {
        let p = parse("read(x); y = x + 1; z = 5; write(y); write(z);").unwrap();
        let cfg = Cfg::build(&p);
        let pdg = Pdg::build(&p, &cfg);
        let fwd = pdg.forward_closure([p.at_line(1)]);
        let lines: Vec<usize> = fwd.iter().map(|s| p.line_of(s)).collect();
        assert_eq!(lines, vec![1, 2, 4]);
    }

    #[test]
    fn pdg_dot_mentions_all_statements() {
        let p = parse("read(c); if (c) { x = 1; } write(x);").unwrap();
        let cfg = Cfg::build(&p);
        let pdg = Pdg::build(&p, &cfg);
        let dot = pdg_dot(&pdg, &p);
        for line in 1..=4 {
            assert!(dot.contains(&format!("label=\"{line}\"")));
        }
        assert!(dot.contains("style=dashed"));
    }
}

#[cfg(test)]
mod frontier_crosscheck {
    use super::*;
    use jumpslice_lang::parse;

    fn agree(src: &str) {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let walk = ControlDeps::compute(&p, &cfg);
        let df = ControlDeps::compute_via_frontiers(&p, &cfg);
        for s in p.stmt_ids() {
            assert_eq!(walk.deps(s), df.deps(s), "deps of line {}", p.line_of(s));
            assert_eq!(walk.dependents(s), df.dependents(s));
        }
        assert_eq!(walk.entry_controlled(), df.entry_controlled());
    }

    #[test]
    fn frontier_construction_agrees_on_fixtures() {
        agree("read(c); if (c) { x = 1; } else { x = 2; } write(x);");
        agree("read(c); while (c) { read(c); if (c) break; } write(c);");
        agree(
            "L3: if (eof()) goto L14; read(x); if (x > 0) goto L8; x = 1; goto L3;
             L8: x = 2; goto L3; L14: write(x);",
        );
        agree("switch (c) { case 1: x = 1; case 2: y = 2; break; default: z = 3; } write(y);");
        agree("do { read(x); if (x) continue; x = 1; } while (!eof()); write(x);");
    }
}
