//! Data dependence in factored (SSA) form.
//!
//! Statement `u` is data dependent on `d` when a definition at `d` reaches
//! a use of the same variable at `u`. Stored explicitly, that relation has
//! one edge per reaching definition and use: quadratic on goto-dense
//! programs, where most definitions reach most uses. Here every use
//! instead names one definition or φ, and every φ names one operand per
//! flowgraph predecessor, as in static single assignment form (Cytron et
//! al., TOPLAS 1991): the forward dominator tree, φs on the iterated
//! dominance frontiers of each variable's definitions, and one renaming
//! walk of the tree. The definitions reachable from a use through φs are
//! exactly its reaching definitions, so closures over this graph equal
//! closures over the explicit edges, and [`DataDeps::deps`] expands a
//! statement's φs back into its explicit list.
//!
//! Dependence nodes `0..stmts` are the statements (by index); the φs
//! follow, grouped by the flowgraph node they sit at. Nodes unreachable
//! from the entry get no operands and supply none, as their empty
//! reaching-definition sets did.

use crate::BitSet;
use jumpslice_cfg::Cfg;
use jumpslice_graph::{tarjan_scc, DomTree, NodeId};
use jumpslice_lang::{Name, Program, StmtId};
use std::collections::HashSet;

const NONE: u32 = u32::MAX;

/// The PDG's data half in factored form (module docs).
#[derive(Clone, Debug)]
pub struct DataDeps {
    /// Number of statements: dependence nodes at or past it are φs.
    stmts: usize,
    /// Direct dependences of dependence node `i`, ascending and each once:
    /// `deps[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    deps: Vec<u32>,
    /// The φs at flowgraph node `x` are the dependence nodes
    /// `stmts + phi_start[x]..stmts + phi_start[x + 1]`, by variable.
    phi_start: Vec<u32>,
    /// The variable of each φ.
    phi_var: Vec<Name>,
    /// Each flowgraph node's immediate forward dominator (`NONE` at the
    /// entry and at nodes unreachable from it): the parent links the
    /// nearest-definition search climbs.
    idom: Vec<u32>,
}

impl DataDeps {
    /// Builds the factored data dependences of `prog` over its
    /// (unaugmented) flowgraph — the paper is explicit that data
    /// dependence always comes from the standard flowgraph.
    ///
    /// Nothing recurses: the frontiers are one walk per join, placement a
    /// worklist per variable, and renaming one pass over the dominator
    /// tree's preorder with an explicit stack of open nodes and an undo
    /// log of the definitions they pushed.
    pub fn compute(prog: &Program, cfg: &Cfg) -> DataDeps {
        let g = cfg.graph();
        let dom = DomTree::iterative(g, cfg.entry());
        let (phi_start, phi_var) = place_phis(prog, cfg, &dom);
        let stmts = prog.len();
        let phi_at = |x: NodeId| {
            let (a, b) = (phi_start[x.index()], phi_start[x.index() + 1]);
            (a..b).map(|i| (stmts as u32 + i, phi_var[i as usize]))
        };

        // Renaming. `cur[v]` is the dependence node holding `v`'s value at
        // the point of the walk; `undo` restores it as nodes close.
        let mut cur = vec![NONE; prog.num_names()];
        let mut undo: Vec<(Name, u32)> = Vec::new();
        let mut open: Vec<(NodeId, usize)> = Vec::new();
        let mut edges: Vec<(u32, u32)> = Vec::with_capacity(stmts + 2 * phi_var.len());
        let mut used = Vec::new();
        let define = |v: Name, node: u32, cur: &mut [u32], undo: &mut Vec<(Name, u32)>| {
            undo.push((v, cur[v.index()]));
            cur[v.index()] = node;
        };
        for x in dom.preorder() {
            while let Some(&(top, mark)) = open.last() {
                if Some(top) == dom.idom(x) {
                    break;
                }
                for (v, was) in undo.drain(mark..).rev() {
                    cur[v.index()] = was;
                }
                open.pop();
            }
            let mark = undo.len();
            for (phi, v) in phi_at(x) {
                define(v, phi, &mut cur, &mut undo);
            }
            if let Some(s) = cfg.stmt(x) {
                let u = s.index() as u32;
                prog.uses_into(s, &mut used);
                for &v in &used {
                    if cur[v.index()] != NONE {
                        edges.push((u, cur[v.index()]));
                    }
                }
                if let Some(v) = prog.defs(s) {
                    define(v, u, &mut cur, &mut undo);
                }
            }
            for &y in g.succs(x) {
                for (phi, v) in phi_at(y) {
                    if cur[v.index()] != NONE {
                        edges.push((phi, cur[v.index()]));
                    }
                }
            }
            open.push((x, mark));
        }

        let idom = (0..g.len())
            .map(|i| dom.idom(NodeId::new(i)).map_or(NONE, |d| d.index() as u32))
            .collect();
        let (start, deps) = rows(stmts + phi_var.len(), &edges);
        DataDeps {
            stmts,
            start,
            deps,
            phi_start,
            phi_var,
            idom,
        }
    }

    /// Number of φs: the dependence nodes past the statements.
    pub fn num_phis(&self) -> usize {
        self.phi_var.len()
    }

    /// Number of dependence nodes: statements, then φs.
    pub fn num_nodes(&self) -> usize {
        self.start.len() - 1
    }

    /// Number of factored edges: each statement's distinct definitions
    /// and φs read, plus each φ's distinct operands.
    pub fn num_operands(&self) -> usize {
        self.deps.len()
    }

    /// The dependence nodes that node `i` (a statement's index or a φ)
    /// directly reads, ascending and each once.
    pub fn node_deps(&self, i: usize) -> &[u32] {
        &self.deps[self.start[i] as usize..self.start[i + 1] as usize]
    }

    /// The definitions statement `s` depends on, sorted: its reaching
    /// definitions of the variables it uses, the row an explicit
    /// def–use relation holds, expanded here through the φs.
    pub fn deps(&self, s: StmtId) -> Vec<StmtId> {
        self.expand(self.node_deps(s.index()).iter().copied())
    }

    /// Every φ's definitions, for readers that expand many rows: see
    /// [`Expansion`]. `prog` must be the program this was built for.
    pub fn expansion(&self, prog: &Program) -> Expansion {
        let (n, k) = (self.stmts, self.num_phis());
        let mut by_var: Vec<Vec<StmtId>> = vec![Vec::new(); prog.num_names()];
        let mut rank = vec![0usize; n];
        for s in prog.stmt_ids() {
            if let Some(v) = prog.defs(s) {
                rank[s.index()] = by_var[v.index()].len();
                by_var[v.index()].push(s);
            }
        }
        let sccs = tarjan_scc(k, |v| {
            self.node_deps(n + v.index())
                .iter()
                .filter(move |&&d| d as usize >= n)
                .map(move |&d| NodeId::new(d as usize - n))
        });
        let mut comp_of = vec![0u32; k];
        let mut var_of = Vec::with_capacity(sccs.start.len() - 1);
        let mut defs: Vec<BitSet> = Vec::with_capacity(sccs.start.len() - 1);
        // Tarjan emits a component after every component it reaches, so
        // each operand φ of another component has its set already. The φs
        // of one component share their variable.
        for (c, comp) in sccs.iter().enumerate() {
            let v = self.phi_var[comp[0].index()].index();
            for &phi in comp {
                comp_of[phi.index()] = c as u32;
            }
            let mut set = BitSet::new(by_var[v].len());
            for &phi in comp {
                for &d in self.node_deps(n + phi.index()) {
                    match (d as usize).checked_sub(n) {
                        None => {
                            set.insert(rank[d as usize]);
                        }
                        Some(q) if comp_of[q] as usize != c => {
                            set.union_with(&defs[comp_of[q] as usize]);
                        }
                        Some(_) => {}
                    }
                }
            }
            var_of.push(v as u32);
            defs.push(set);
        }
        Expansion {
            comp_of,
            var_of,
            defs,
            by_var,
        }
    }

    /// The statements reachable from `roots` through φs alone, sorted:
    /// a root or a φ operand below `stmts` is a definition, one at or
    /// past it a φ whose operands are read in turn.
    fn expand(&self, roots: impl IntoIterator<Item = u32>) -> Vec<StmtId> {
        let mut out = Vec::new();
        let mut seen: HashSet<u32> = HashSet::new();
        let mut work: Vec<u32> = roots.into_iter().collect();
        while let Some(d) = work.pop() {
            if (d as usize) < self.stmts {
                out.push(StmtId::from_index(d as usize));
            } else if seen.insert(d) {
                work.extend_from_slice(self.node_deps(d as usize));
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The definitions of `vars` reaching the entry of statement `s`,
    /// sorted and deduplicated: for each variable the nearest definition
    /// or φ up the dominator tree (`s`'s own φ first, then each strict
    /// dominator's definition, then its φ), expanded through the φs. A
    /// statement unreachable from the entry has none.
    pub fn reaching(&self, prog: &Program, cfg: &Cfg, s: StmtId, vars: &[Name]) -> Vec<StmtId> {
        let x = cfg.node(s);
        self.expand(vars.iter().filter_map(|&v| self.nearest(prog, cfg, x, v)))
    }

    /// The value of `v` at the entry of flowgraph node `x`: `x`'s φ of
    /// `v`, or the nearest strict dominator's definition or φ of `v`,
    /// found by climbing parent links.
    fn nearest(&self, prog: &Program, cfg: &Cfg, x: NodeId, v: Name) -> Option<u32> {
        if self.idom[x.index()] == NONE && x != cfg.entry() {
            return None;
        }
        if let Some(phi) = self.phi_of(x, v) {
            return Some(phi);
        }
        let mut a = self.idom[x.index()];
        while a != NONE {
            let node = NodeId::new(a as usize);
            if let Some(d) = cfg.stmt(node).filter(|&d| prog.defs(d) == Some(v)) {
                return Some(d.index() as u32);
            }
            if let Some(phi) = self.phi_of(node, v) {
                return Some(phi);
            }
            a = self.idom[a as usize];
        }
        None
    }

    /// The φ of `v` at flowgraph node `x`, if it has one.
    fn phi_of(&self, x: NodeId, v: Name) -> Option<u32> {
        let (a, b) = (self.phi_start[x.index()], self.phi_start[x.index() + 1]);
        (a..b)
            .find(|&i| self.phi_var[i as usize] == v)
            .map(|i| self.stmts as u32 + i)
    }

    /// Re-reads the uses of statement `u` after an edit that changed only
    /// its uses (an expression replacement under an unchanged flowgraph
    /// and unchanged definitions, so φ placement and every other row
    /// stand): each used variable reads its nearest definition or φ.
    /// Returns the number of definitions and φs `u` now reads.
    pub fn repoint_uses(&mut self, prog: &Program, cfg: &Cfg, u: StmtId) -> usize {
        let x = cfg.node(u);
        let mut row: Vec<u32> = prog
            .uses(u)
            .into_iter()
            .filter_map(|v| self.nearest(prog, cfg, x, v))
            .collect();
        row.sort_unstable();
        row.dedup();
        let (a, b) = (self.start[u.index()], self.start[u.index() + 1]);
        let len = row.len() as u32;
        self.deps.splice(a as usize..b as usize, row);
        // Every later row moves by the change in this one's length.
        for s in &mut self.start[u.index() + 1..] {
            *s = *s - (b - a) + len;
        }
        len as usize
    }
}

/// The definitions reachable from each φ through φs alone, built once by
/// [`DataDeps::expansion`] for a reader that expands many statements'
/// rows, such as the provenance witness search: each row is then read
/// off ready sets instead of walking its φs. The φs of one cycle (a loop's
/// joins) reach the same definitions and share one set, a bitset over
/// their variable's definitions. The sets hold the explicit relation's φ
/// part, quadratic on goto-dense programs, so an expansion lives only as
/// long as its reader.
#[derive(Clone, Debug)]
pub struct Expansion {
    /// Each φ's strongly connected component among the φs.
    comp_of: Vec<u32>,
    /// Each component's variable, by name index.
    var_of: Vec<u32>,
    /// Each component's definitions, as ranks in its variable's list.
    defs: Vec<BitSet>,
    /// Each variable's definitions, in statement order.
    by_var: Vec<Vec<StmtId>>,
}

impl Expansion {
    /// [`DataDeps::deps`] of `s`, read off the ready sets; `data` must be
    /// the data half this expansion was built from.
    pub fn deps(&self, data: &DataDeps, s: StmtId) -> Vec<StmtId> {
        let direct = data.node_deps(s.index());
        let mut out = Vec::new();
        for &d in direct {
            match (d as usize).checked_sub(data.stmts) {
                None => out.push(StmtId::from_index(d as usize)),
                Some(phi) => {
                    let c = self.comp_of[phi] as usize;
                    let list = &self.by_var[self.var_of[c] as usize];
                    out.extend(self.defs[c].iter().map(|r| list[r]));
                }
            }
        }
        // One set comes out in statement order already.
        if direct.len() > 1 {
            out.sort_unstable();
            out.dedup();
        }
        out
    }
}

/// Places the φs: for each variable, on the iterated dominance frontier
/// of its definitions, found with a worklist and per-node stamps. The
/// exit gets none, since nothing reads a value there. Returns the φs
/// grouped by flowgraph node (`phi_start`, one entry per node and one
/// more) and, within a node, by variable.
fn place_phis(prog: &Program, cfg: &Cfg, dom: &DomTree) -> (Vec<u32>, Vec<Name>) {
    let g = cfg.graph();
    let df = dom.frontiers(g);
    // Definition nodes of each variable.
    let mut def_nodes: Vec<Vec<NodeId>> = vec![Vec::new(); prog.num_names()];
    for s in prog.stmt_ids() {
        if let Some(v) = prog.defs(s) {
            def_nodes[v.index()].push(cfg.node(s));
        }
    }
    let mut has_phi = vec![NONE; g.len()];
    let mut queued = vec![NONE; g.len()];
    let mut placed: Vec<(u32, Name)> = Vec::new();
    let mut work: Vec<NodeId> = Vec::new();
    for (vi, defs) in def_nodes.iter().enumerate() {
        let (v, stamp) = (Name::from_index(vi), vi as u32);
        for &d in defs {
            if queued[d.index()] != stamp {
                queued[d.index()] = stamp;
                work.push(d);
            }
        }
        while let Some(x) = work.pop() {
            for &y in df.of(x) {
                if y == cfg.exit() || has_phi[y.index()] == stamp {
                    continue;
                }
                has_phi[y.index()] = stamp;
                placed.push((y.index() as u32, v));
                if queued[y.index()] != stamp {
                    queued[y.index()] = stamp;
                    work.push(y);
                }
            }
        }
    }
    // Grouped by node, each node's in variable order.
    group(g.len(), &placed, Name::from_index(0))
}

/// Groups `pairs` by key into one flat table over the keys `0..n`, each
/// key's values in their order in `pairs`: key `k`'s are
/// `values[start[k]..start[k + 1]]`. `fill` only sizes the table.
fn group<T: Copy>(n: usize, pairs: &[(u32, T)], fill: T) -> (Vec<u32>, Vec<T>) {
    let mut start = vec![0u32; n + 1];
    for &(k, _) in pairs {
        start[k as usize + 1] += 1;
    }
    for i in 0..n {
        start[i + 1] += start[i];
    }
    let mut next = start.clone();
    let mut values = vec![fill; pairs.len()];
    for &(k, v) in pairs {
        values[next[k as usize] as usize] = v;
        next[k as usize] += 1;
    }
    (start, values)
}

/// Groups `(from, to)` edges into per-node rows over `nodes` dependence
/// nodes, each row ascending and deduplicated.
fn rows(nodes: usize, edges: &[(u32, u32)]) -> (Vec<u32>, Vec<u32>) {
    let (mut start, mut grouped) = group(nodes, edges, 0);
    let mut deps = Vec::with_capacity(grouped.len());
    for i in 0..nodes {
        let (a, b) = (start[i] as usize, start[i + 1] as usize);
        if b - a > 1 {
            grouped[a..b].sort_unstable();
        }
        start[i] = deps.len() as u32;
        for j in a..b {
            if j == a || grouped[j] != grouped[j - 1] {
                deps.push(grouped[j]);
            }
        }
    }
    start[nodes] = deps.len() as u32;
    (start, deps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    fn deps_of(src: &str, line: usize) -> Vec<usize> {
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let dd = DataDeps::compute(&p, &cfg);
        dd.deps(p.at_line(line))
            .iter()
            .map(|&s| p.line_of(s))
            .collect()
    }

    #[test]
    fn straight_line_chain() {
        assert_eq!(deps_of("x = 1; y = x; write(y);", 3), vec![2]);
        assert_eq!(deps_of("x = 1; y = x; write(y);", 2), vec![1]);
    }

    #[test]
    fn redefinition_kills() {
        // write(x) sees only the second definition.
        assert_eq!(deps_of("x = 1; x = 2; write(x);", 3), vec![2]);
    }

    #[test]
    fn both_branches_reach() {
        let src = "read(c); if (c) { x = 1; } else { x = 2; } write(x);";
        assert_eq!(deps_of(src, 5), vec![3, 4]);
        // One φ, at the join, with an operand per branch.
        let p = parse(src).unwrap();
        let dd = DataDeps::compute(&p, &Cfg::build(&p));
        assert_eq!(dd.num_phis(), 1);
        assert_eq!(dd.node_deps(p.len()).len(), 2);
    }

    #[test]
    fn loop_carried_dependence() {
        let src = "x = 0; while (x < 3) { x = x + 1; } write(x);";
        // The loop body's use of x sees the initial def and itself.
        assert_eq!(deps_of(src, 3), vec![1, 3]);
        assert_eq!(deps_of(src, 4), vec![1, 3]);
    }

    #[test]
    fn a_use_reads_the_value_reaching_its_own_entry() {
        // `x = x + 1` on a loop head reads its φ, not its own definition.
        let src = "L: x = x + 1; if (x < 9) goto L; write(x);";
        assert_eq!(deps_of(src, 1), vec![1]);
        assert_eq!(deps_of("x = 1; x = x + 1; write(x);", 2), vec![1]);
    }

    #[test]
    fn read_redefines() {
        let src = "x = 1; read(x); write(x);";
        assert_eq!(deps_of(src, 3), vec![2]);
    }

    #[test]
    fn a_use_before_any_definition_reads_nothing() {
        assert_eq!(deps_of("write(x); x = 1;", 1), Vec::<usize>::new());
        let src = "read(c); if (c) { x = 1; } write(x);";
        assert_eq!(deps_of(src, 4), vec![3], "the undefined path adds nothing");
    }

    #[test]
    fn predicate_uses_count() {
        let src = "read(x); if (x > 0) { y = 1; } write(y);";
        assert_eq!(deps_of(src, 2), vec![1]);
    }

    #[test]
    fn paper_figure_2b_data_dependence() {
        // Figure 1-a / 2-b: write(positives) on line 12 is data dependent on
        // lines 2 and 7.
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
        assert_eq!(deps_of(src, 12), vec![2, 7]);
        // And positives = positives + 1 (line 7) sees lines 2 and 7.
        assert_eq!(deps_of(src, 7), vec![2, 7]);
        // write(sum) sees every sum definition.
        assert_eq!(deps_of(src, 11), vec![1, 6, 9, 10]);
    }

    #[test]
    fn goto_paths_carry_defs() {
        let src = "x = 1; goto L; x = 2; L: write(x);";
        // x = 2 is unreachable: only the first def reaches the write, and
        // the dead definition reads nothing.
        assert_eq!(deps_of(src, 4), vec![1]);
        assert_eq!(
            deps_of("x = 1; goto L; x = x + 2; L: write(x);", 3),
            Vec::<usize>::new()
        );
    }

    #[test]
    fn switch_fallthrough_reaches() {
        let src = "read(c); switch (c) { case 1: x = 1; case 2: y = x; break; } write(y);";
        // y = x (line 4) must see x = 1 via fall-through.
        assert_eq!(deps_of(src, 4), vec![3]);
    }

    #[test]
    fn reaching_searches_up_the_dominator_tree() {
        let p = parse("read(c); x = 1; if (c) { x = 2; } y = x; write(y);").unwrap();
        let cfg = Cfg::build(&p);
        let dd = DataDeps::compute(&p, &cfg);
        let (x, y, c) = (
            p.name("x").unwrap(),
            p.name("y").unwrap(),
            p.name("c").unwrap(),
        );
        let at = |line: usize, vars: &[Name]| -> Vec<usize> {
            let got = dd.reaching(&p, &cfg, p.at_line(line), vars);
            got.iter().map(|&s| p.line_of(s)).collect()
        };
        assert_eq!(at(5, &[x]), vec![2, 4], "the join's φ");
        assert_eq!(at(4, &[x]), vec![2], "the dominating definition");
        assert_eq!(at(6, &[x, y, c]), vec![1, 2, 4, 5]);
        assert_eq!(at(1, &[x]), Vec::<usize>::new());
    }

    #[test]
    fn the_expansion_answers_every_row_as_the_walk_does() {
        for src in [
            "read(c); if (c) { x = 1; } else { x = 2; } write(x);",
            "x = 0; L: if (x < 9) { x = x + 1; goto L; } y = x; while (y) { y = y - x; } write(y);",
            "read(c); switch (c) { case 1: x = 1; case 2: y = x; break; } write(y); write(x);",
        ] {
            let p = parse(src).unwrap();
            let dd = DataDeps::compute(&p, &Cfg::build(&p));
            let ex = dd.expansion(&p);
            for s in p.stmt_ids() {
                assert_eq!(ex.deps(&dd, s), dd.deps(s), "{src}: line {}", p.line_of(s));
            }
        }
    }

    #[test]
    fn repoint_uses_replaces_the_edited_row() {
        // Rewriting `write(y)` to read x instead of y.
        let before = parse("x = 1; y = 2; if (y) { x = 3; } write(y);").unwrap();
        let after = parse("x = 1; y = 2; if (y) { x = 3; } write(x);").unwrap();
        let cfg = Cfg::build(&after);
        // Start from the stale form of the *old* expression.
        let mut dd = DataDeps::compute(&before, &Cfg::build(&before));
        let n = dd.repoint_uses(&after, &cfg, after.at_line(5));
        assert_eq!(n, 1, "one φ");
        let fresh = DataDeps::compute(&after, &cfg);
        for s in after.stmt_ids() {
            assert_eq!(dd.deps(s), fresh.deps(s), "deps of {s:?}");
        }
        assert_eq!(
            dd.deps(after.at_line(5)),
            vec![after.at_line(1), after.at_line(4)]
        );
    }
}
