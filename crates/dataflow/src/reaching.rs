//! Reaching definitions and the data-dependence edges derived from them.

use crate::bitset::word_bits;
use crate::BitSet;
use jumpslice_cfg::Cfg;
use jumpslice_graph::NodeId;
use jumpslice_lang::{Name, Program, StmtId};

/// Dense numbering of the variables a program defines or uses.
#[derive(Clone, Debug, Default)]
pub struct VarTable {
    vars: Vec<Name>,
    /// Dense index of each interned name, by [`Name::index`].
    index: Vec<Option<usize>>,
}

impl VarTable {
    /// Collects every variable defined or used anywhere in `prog`.
    pub fn of(prog: &Program) -> VarTable {
        Self::with(
            prog,
            prog.stmt_ids()
                .flat_map(|s| prog.defs(s).into_iter().chain(prog.uses(s))),
        )
    }

    /// Numbers `names`, in order, without scanning `prog`.
    fn with(prog: &Program, names: impl IntoIterator<Item = Name>) -> VarTable {
        let mut t = VarTable {
            vars: Vec::new(),
            index: vec![None; prog.num_names()],
        };
        for n in names {
            t.add(n);
        }
        t
    }

    fn add(&mut self, n: Name) {
        if n.index() >= self.index.len() {
            self.index.resize(n.index() + 1, None);
        }
        if self.index[n.index()].is_none() {
            self.index[n.index()] = Some(self.vars.len());
            self.vars.push(n);
        }
    }

    /// Number of distinct variables.
    pub fn len(&self) -> usize {
        self.vars.len()
    }

    /// Whether the program mentions no variables at all.
    pub fn is_empty(&self) -> bool {
        self.vars.is_empty()
    }

    /// Dense index of a variable.
    pub fn index_of(&self, n: Name) -> Option<usize> {
        self.index.get(n.index()).copied().flatten()
    }

    /// Variable at a dense index.
    pub fn var(&self, i: usize) -> Name {
        self.vars[i]
    }
}

/// The classic forward may-analysis: which definition sites reach each node.
///
/// Definition sites are the statements with a def (`x = e;`, `read(x);`),
/// numbered densely in statement order. Next to the IN sets the solution
/// keeps, per variable, the words its sites occupy in an IN set, so a
/// consumer reads one variable's reaching definitions without scanning the
/// others' ([`ReachingDefs::reaching_var`]).
///
/// The IN sets hold one bit per flowgraph node and definition site, so a
/// solution is quadratic in the program. It is the input of the PDG's
/// data half and is dropped with the analysis that solved it; a single
/// node's reaching definitions come from [`reaching_defs_at`] instead.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    /// Definition sites, in discovery order.
    def_sites: Vec<StmtId>,
    /// IN set per CFG node, over def-site indices.
    in_sets: Vec<BitSet>,
    vars: VarTable,
    /// `var_words[v]`: the `(word, mask)` pairs variable `v`'s definition
    /// sites occupy in an IN set, ascending by word.
    var_words: Vec<Vec<(usize, u64)>>,
}

/// The static part of the reaching-definitions problem: the def-site
/// numbering and each variable's site words. A defining node generates its
/// own site and kills its variable's words, so no per-node set is stored.
struct GenKill {
    vars: VarTable,
    def_sites: Vec<StmtId>,
    site_of_stmt: Vec<Option<usize>>,
    /// Dense variable index of each def site.
    site_var: Vec<usize>,
    var_words: Vec<Vec<(usize, u64)>>,
}

impl GenKill {
    /// Numbers the definition sites of `prog`, or only those of the
    /// variables in `only`.
    fn of(prog: &Program, only: Option<&[Name]>) -> GenKill {
        let vars = match only {
            None => VarTable::of(prog),
            Some(o) => VarTable::with(prog, o.iter().copied()),
        };
        let mut def_sites = Vec::new();
        let mut site_of_stmt: Vec<Option<usize>> = vec![None; prog.len()];
        let mut site_var = Vec::new();
        let mut var_words: Vec<Vec<(usize, u64)>> = vec![Vec::new(); vars.len()];
        for s in prog.stmt_ids() {
            let Some(v) = prog.defs(s) else { continue };
            if only.is_some_and(|o| !o.contains(&v)) {
                continue;
            }
            let idx = def_sites.len();
            let vi = vars.index_of(v).expect("collected");
            def_sites.push(s);
            site_of_stmt[s.index()] = Some(idx);
            site_var.push(vi);
            let (w, bit) = (idx / 64, 1u64 << (idx % 64));
            match var_words[vi].last_mut() {
                Some((last, mask)) if *last == w => *mask |= bit,
                _ => var_words[vi].push((w, bit)),
            }
        }
        GenKill {
            vars,
            def_sites,
            site_of_stmt,
            site_var,
            var_words,
        }
    }
}

impl ReachingDefs {
    /// Runs the fixpoint on `prog`'s flowgraph.
    pub fn compute(prog: &Program, cfg: &Cfg) -> ReachingDefs {
        Self::solve(cfg, GenKill::of(prog, None))
    }

    /// Runs the fixpoint for the variables in `vars` alone: the definition
    /// sites are only theirs, so each IN set is only as wide as they are.
    /// Every other variable reads as having no reaching definition. At
    /// each node the answer for a variable in `vars` equals
    /// [`ReachingDefs::compute`]'s, since no other variable's definition
    /// generates or kills its sites.
    pub fn compute_for(prog: &Program, cfg: &Cfg, vars: &[Name]) -> ReachingDefs {
        Self::solve(cfg, GenKill::of(prog, Some(vars)))
    }

    /// Worklist iteration to the least fixpoint from empty IN sets.
    ///
    /// No OUT set is stored: a node's OUT is its IN, except that a defining
    /// node clears its variable's words and sets its own site, and that
    /// transfer is applied while its successors union it in. Sweeps run in
    /// reverse postorder from entry and visit only nodes marked pending:
    /// all of them at first, later those with a predecessor whose IN
    /// changed. Sweeping every node each time evaluates the same sequence
    /// of IN sets, since a node none of whose predecessors changed would
    /// recompute the IN it already has.
    fn solve(cfg: &Cfg, gk: GenKill) -> ReachingDefs {
        let GenKill {
            vars,
            def_sites,
            site_of_stmt,
            site_var,
            var_words,
        } = gk;
        let n = cfg.graph().len();
        let mut in_sets = vec![BitSet::new(def_sites.len()); n];
        // Nodes unreachable from entry are excluded and keep empty sets:
        // applying their transfer would let dead definitions leak into
        // reachable fall-through successors.
        let order = jumpslice_graph::reverse_postorder(cfg.graph(), cfg.entry());
        let mut pos = vec![usize::MAX; n];
        for (j, &node) in order.iter().enumerate() {
            pos[node.index()] = j;
        }
        let site_of_node = |p: NodeId| cfg.stmt(p).and_then(|s| site_of_stmt[s.index()]);

        let mut scratch = BitSet::new(def_sites.len());
        let mut pending = vec![true; order.len()];
        let mut again = true;
        let mut passes = 0u64;
        while again {
            again = false;
            passes += 1;
            for (j, &node) in order.iter().enumerate() {
                if !std::mem::take(&mut pending[j]) {
                    continue;
                }
                scratch.clear();
                for &p in cfg.graph().preds(node) {
                    if pos[p.index()] == usize::MAX {
                        continue;
                    }
                    let from = &in_sets[p.index()];
                    match site_of_node(p) {
                        None => {
                            scratch.union_with(from);
                        }
                        Some(site) => {
                            scratch.union_except(from, &var_words[site_var[site]]);
                            scratch.insert(site);
                        }
                    }
                }
                let i = node.index();
                if scratch != in_sets[i] {
                    std::mem::swap(&mut in_sets[i], &mut scratch);
                    for &s in cfg.graph().succs(node) {
                        let k = pos[s.index()];
                        if k != usize::MAX {
                            pending[k] = true;
                            again |= k <= j;
                        }
                    }
                }
            }
        }

        jumpslice_obs::record(|| jumpslice_obs::Event::Count {
            name: "reaching.fixpoint_passes",
            value: passes,
        });
        ReachingDefs {
            def_sites,
            in_sets,
            vars,
            var_words,
        }
    }

    /// The definition sites, in discovery order — bit `i` of every IN set
    /// refers to `def_sites()[i]`.
    pub fn def_sites(&self) -> &[StmtId] {
        &self.def_sites
    }

    /// The IN set of every flowgraph node, indexed by node.
    pub fn in_sets(&self) -> &[BitSet] {
        &self.in_sets
    }

    /// The definitions of `v` reaching the entry of `node`, in statement
    /// order. Reads only the IN-set words holding `v`'s definition sites.
    pub fn reaching_var(&self, node: NodeId, v: Name) -> impl Iterator<Item = StmtId> + '_ {
        let words = self.in_sets[node.index()].words();
        self.words_of(v)
            .iter()
            .flat_map(move |&(w, mask)| self.sites_in(w, words[w] & mask))
    }

    /// The `(word, mask)` pairs variable `v`'s definition sites occupy in
    /// an IN set (none for a variable the program never mentions).
    fn words_of(&self, v: Name) -> &[(usize, u64)] {
        match self.vars.index_of(v) {
            Some(i) => &self.var_words[i],
            None => &[],
        }
    }

    /// The definition statements of the set bits of IN-set word `w`.
    fn sites_in(&self, w: usize, bits: u64) -> impl Iterator<Item = StmtId> + '_ {
        word_bits(bits).map(move |b| self.def_sites[w * 64 + b])
    }

    /// The definitions of the distinct variables `used` reaching the entry
    /// of `node`, in statement order. One variable's pairs are already in
    /// word order; several variables' masks are first merged word by word
    /// into `mask` (all zero on entry and on return, grown to IN-set width
    /// here), so no list needs sorting.
    fn reaching_uses(&self, node: NodeId, used: &[Name], mask: &mut Vec<u64>) -> Vec<StmtId> {
        match used {
            [] => Vec::new(),
            [v] => self.reaching_var(node, *v).collect(),
            _ => {
                let words = self.in_sets[node.index()].words();
                mask.resize(words.len(), 0);
                for &(w, m) in used.iter().flat_map(|&v| self.words_of(v)) {
                    mask[w] |= m;
                }
                let mut out = Vec::new();
                for (w, m) in mask.iter_mut().enumerate() {
                    out.extend(self.sites_in(w, words[w] & std::mem::take(m)));
                }
                out
            }
        }
    }
}

/// The definitions of `vars` reaching the entry of `node`, sorted and
/// deduplicated: the same answer as [`ReachingDefs::compute`] at that node,
/// found without a whole-program solve. For each variable a backward
/// search walks predecessors from `node` and stops at each definition of
/// that variable, which reaches `node` along the def-clear path walked.
/// Nodes unreachable from entry are skipped, and an unreachable `node`
/// has no reaching definitions, because the solver gives those nodes
/// empty IN sets. The search visits each node at most once per variable
/// and resets its marks through the list of nodes it touched.
pub fn reaching_defs_at(prog: &Program, cfg: &Cfg, node: NodeId, vars: &[Name]) -> Vec<StmtId> {
    let live = cfg.reachable();
    let mut out = Vec::new();
    if !live[node.index()] {
        return out;
    }
    let mut seen = vec![false; cfg.graph().len()];
    // The nodes marked for the current variable, in visiting order: the
    // search's queue, and the list its marks are reset from.
    let mut touched: Vec<NodeId> = Vec::new();
    let mark_preds = |n: NodeId, seen: &mut [bool], touched: &mut Vec<NodeId>| {
        for &p in cfg.graph().preds(n) {
            if live[p.index()] && !std::mem::replace(&mut seen[p.index()], true) {
                touched.push(p);
            }
        }
    };
    for &v in vars {
        mark_preds(node, &mut seen, &mut touched);
        let mut next = 0;
        while let Some(&p) = touched.get(next) {
            next += 1;
            match cfg.stmt(p) {
                Some(s) if prog.defs(s) == Some(v) => out.push(s),
                _ => mark_preds(p, &mut seen, &mut touched),
            }
        }
        for p in touched.drain(..) {
            seen[p.index()] = false;
        }
    }
    out.sort_unstable();
    out.dedup();
    out
}

/// Data-dependence edges: `u` depends on `d` when a definition at `d`
/// reaches a use of the same variable at `u`. Each is stored once, at `u`.
#[derive(Clone, Debug)]
pub struct DataDeps {
    /// For each statement, the definition statements it depends on (sorted).
    deps: Vec<Vec<StmtId>>,
}

impl DataDeps {
    /// Computes data dependence from reaching definitions over the
    /// (unaugmented) flowgraph — the paper is explicit that data dependence
    /// always comes from the standard flowgraph.
    pub fn compute(prog: &Program, cfg: &Cfg) -> DataDeps {
        let rd = ReachingDefs::compute(prog, cfg);
        Self::from_reaching(prog, cfg, &rd)
    }

    /// Derives the edges from a precomputed [`ReachingDefs`], reading each
    /// used variable's reaching definitions directly.
    pub fn from_reaching(prog: &Program, cfg: &Cfg, rd: &ReachingDefs) -> DataDeps {
        let mut mask = Vec::new();
        let deps = prog
            .stmt_ids()
            .map(|u| rd.reaching_uses(cfg.node(u), &prog.uses(u), &mut mask))
            .collect();
        DataDeps { deps }
    }

    /// Rebuilds the edge set from per-statement lists — the
    /// snapshot-restore constructor. `deps[i]` lists the definitions
    /// statement `i` depends on; lists are sorted and deduplicated here,
    /// so wire forms need not be trusted. Our own wire forms always arrive
    /// strictly sorted, so the sort is guarded by a single ordering scan —
    /// restore pays for it only on hostile bytes.
    pub fn from_deps(mut deps: Vec<Vec<StmtId>>) -> DataDeps {
        for v in deps.iter_mut() {
            if !v.windows(2).all(|w| w[0] < w[1]) {
                v.sort();
                v.dedup();
            }
        }
        DataDeps { deps }
    }

    /// The definitions statement `s` depends on.
    pub fn deps(&self, s: StmtId) -> &[StmtId] {
        &self.deps[s.index()]
    }

    /// All edges as `(def, use)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (StmtId, StmtId)> + '_ {
        self.deps
            .iter()
            .enumerate()
            .flat_map(|(u, ds)| ds.iter().map(move |&d| (d, StmtId::from_index(u))))
    }

    /// Total number of edges.
    pub fn num_edges(&self) -> usize {
        self.deps.iter().map(Vec::len).sum()
    }

    /// Carries these edges, computed for the program before an insertion
    /// or deletion of one simple statement, over to the edited `prog`, and
    /// re-derives only the rows the edit can change. Returns the new edges
    /// and the number of re-derived rows.
    ///
    /// `fwd` maps each old statement index to its id in `prog` (`None` for
    /// the deleted statement). `vars` must hold the variable the inserted
    /// or deleted statement defines, if any, and every variable an
    /// inserted statement uses, and `rd` must be
    /// [`ReachingDefs::compute_for`] of `prog` over `vars`. `from` is the
    /// first node of `cfg` whose reaching definitions the splice changes:
    /// the inserted statement's, or the deleted statement's successor's.
    ///
    /// Every surviving row is translated through `fwd`; a dependence with
    /// no image is on the deleted definition, whose variable is in `vars`.
    /// A row at a node reachable from `from` whose statement uses a
    /// variable in `vars`, and so the inserted statement's row, drops that
    /// variable's dependences and re-reads them from `rd`.
    ///
    /// Why only those variables: the edit splices one node into or out of
    /// flowgraph paths and changes no other node's reachability. Each path
    /// of one flowgraph maps to a path of the other that only adds or
    /// skips that node, and a node that does not define a variable cannot
    /// end a def-clear path of it. So every variable the statement does
    /// not define keeps exactly its def-clear paths, and its dependences
    /// translate verbatim. Why only those rows: a def-clear path that the
    /// splice adds, cuts or ends runs through the spliced position and so
    /// on through `from`. An insertion after a `goto` is dead code: `rd`
    /// gives it an empty IN set, as the whole-program solve does.
    pub fn rederive(
        &self,
        prog: &Program,
        cfg: &Cfg,
        fwd: &[Option<StmtId>],
        vars: &[Name],
        rd: &ReachingDefs,
        from: NodeId,
    ) -> (DataDeps, usize) {
        let mut deps: Vec<Vec<StmtId>> = vec![Vec::new(); prog.len()];
        for (old, &new) in fwd.iter().enumerate() {
            if let Some(u) = new {
                let row = &mut deps[u.index()];
                row.reserve_exact(self.deps[old].len());
                row.extend(self.deps[old].iter().filter_map(|d| fwd[d.index()]));
            }
        }
        // The definitions of `vars`, whose dependents re-read them.
        let of_vars: Vec<bool> = prog
            .stmt_ids()
            .map(|s| prog.defs(s).is_some_and(|v| vars.contains(&v)))
            .collect();
        let region = jumpslice_graph::reachable_from(cfg.graph(), from);
        let mut rederived = 0;
        let mut mask = Vec::new();
        for u in prog.stmt_ids() {
            if !region[cfg.node(u).index()] {
                continue;
            }
            let mut used = prog.uses(u);
            used.retain(|v| vars.contains(v));
            if used.is_empty() {
                continue;
            }
            let mut kept = std::mem::take(&mut deps[u.index()]);
            kept.retain(|d| !of_vars[d.index()]);
            let fresh = rd.reaching_uses(cfg.node(u), &used, &mut mask);
            deps[u.index()] = merge_sorted(kept, fresh);
            rederived += 1;
        }
        (DataDeps::from_deps(deps), rederived)
    }

    /// Recomputes the *incoming* edges of `u` with [`reaching_defs_at`]
    /// and replaces the stored ones. This is the data-dependence patch for
    /// an edit that changes only the uses of one statement (an expression
    /// replacement): every other statement's edges are untouched. Returns
    /// the number of edges now pointing into `u`.
    pub fn repoint_uses(&mut self, prog: &Program, cfg: &Cfg, u: StmtId) -> usize {
        self.deps[u.index()] = reaching_defs_at(prog, cfg, cfg.node(u), &prog.uses(u));
        self.deps[u.index()].len()
    }
}

/// Merges two sorted lists with no element in common into one sorted list.
fn merge_sorted(a: Vec<StmtId>, b: Vec<StmtId>) -> Vec<StmtId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let mut b = b.into_iter().peekable();
    for x in a {
        while let Some(y) = b.next_if(|&y| y < x) {
            out.push(y);
        }
        out.push(x);
    }
    out.extend(b);
    out
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
    }

    #[test]
    fn loop_carried_dependence() {
        let src = "x = 0; while (x < 3) { x = x + 1; } write(x);";
        // The loop body's use of x sees the initial def and itself.
        assert_eq!(deps_of(src, 3), vec![1, 3]);
        assert_eq!(deps_of(src, 4), vec![1, 3]);
    }

    #[test]
    fn read_redefines() {
        let src = "x = 1; read(x); write(x);";
        assert_eq!(deps_of(src, 3), vec![2]);
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
        // x = 2 is unreachable: only the first def reaches the write.
        assert_eq!(deps_of(src, 4), vec![1]);
    }

    #[test]
    fn var_table_counts() {
        let p = parse("x = 1; y = x + z;").unwrap();
        let vt = VarTable::of(&p);
        assert_eq!(vt.len(), 3); // x, y, z
        assert!(!vt.is_empty());
        let x = p.name("x").unwrap();
        assert_eq!(vt.var(vt.index_of(x).unwrap()), x);
    }

    /// Every variable's reaching definitions at every node, from the
    /// search and from the fixpoint, on loops, a `goto` over dead code and
    /// a dead loop.
    #[test]
    fn reaching_defs_at_matches_the_solve() {
        for src in [
            "x = 0; i = 0; while (i < 9) { if (i % 2 == 0) { x = x + i; } else { read(x); } i = i + 1; } write(x); write(i);",
            "x = 1; goto L; x = 2; while (x) { x = x - 1; } L: write(x);",
            "read(c); do { x = c; if (x) break; c = c - 1; } while (c); write(x);",
        ] {
            let p = parse(src).unwrap();
            let cfg = Cfg::build(&p);
            let rd = ReachingDefs::compute(&p, &cfg);
            let vars: Vec<Name> = p.all_names().collect();
            for node in cfg.graph().nodes() {
                for &v in &vars {
                    let want: Vec<StmtId> = rd.reaching_var(node, v).collect();
                    assert_eq!(reaching_defs_at(&p, &cfg, node, &[v]), want, "{src}: {node:?}");
                }
                let mut want: Vec<StmtId> = rd.reaching_uses(node, &vars, &mut Vec::new());
                want.sort_unstable();
                assert_eq!(reaching_defs_at(&p, &cfg, node, &vars), want, "{src}: {node:?}");
            }
        }
    }

    /// Re-derives `before`'s edges for `after`, one statement inserted or
    /// deleted, and holds them to a whole-program solve. `line` maps each
    /// line of `before` to its line in `after` (`None` for the deleted
    /// one); `vars` names the edit's variables. Returns the number of
    /// re-derived rows.
    fn rederive_matches_compute(
        before: &str,
        after: &str,
        line: impl Fn(usize) -> Option<usize>,
        vars: &[&str],
    ) -> usize {
        let old = parse(before).unwrap();
        let new = parse(after).unwrap();
        let fwd: Vec<Option<StmtId>> = old
            .stmt_ids()
            .map(|s| line(old.line_of(s)).map(|l| new.at_line(l)))
            .collect();
        let vars: Vec<Name> = vars.iter().map(|v| new.name(v).unwrap()).collect();
        let (old_cfg, cfg) = (Cfg::build(&old), Cfg::build(&new));
        // The inserted statement, or the deleted one's successor.
        let from = match new.stmt_ids().find(|s| !fwd.contains(&Some(*s))) {
            Some(s) => cfg.node(s),
            None => {
                let gone = old.stmt_ids().find(|s| fwd[s.index()].is_none()).unwrap();
                let next = old_cfg.graph().succs(old_cfg.node(gone))[0];
                old_cfg
                    .stmt(next)
                    .map_or(cfg.exit(), |s| cfg.node(fwd[s.index()].unwrap()))
            }
        };
        let rd = ReachingDefs::compute_for(&new, &cfg, &vars);
        let (got, rederived) =
            DataDeps::compute(&old, &old_cfg).rederive(&new, &cfg, &fwd, &vars, &rd, from);
        let want = DataDeps::compute(&new, &cfg);
        for s in new.stmt_ids() {
            assert_eq!(
                got.deps(s),
                want.deps(s),
                "line {} of {after}",
                new.line_of(s)
            );
        }
        rederived
    }

    /// Lines at and after `at` move down one.
    fn inserted_at(at: usize) -> impl Fn(usize) -> Option<usize> {
        move |l| Some(if l >= at { l + 1 } else { l })
    }

    /// Line `at` is gone and later lines move up one.
    fn deleted_at(at: usize) -> impl Fn(usize) -> Option<usize> {
        move |l| (l != at).then(|| if l > at { l - 1 } else { l })
    }

    #[test]
    fn rederive_after_inserting_a_definition_before_a_loop() {
        let n = rederive_matches_compute(
            "x = 0; y = 1; while (x < 9) { x = x + y; } write(x); write(y);",
            "x = 0; x = 5; y = 1; while (x < 9) { x = x + y; } write(x); write(y);",
            inserted_at(2),
            &["x"],
        );
        assert_eq!(n, 3, "the loop test, its body and write(x); y's rows carry");
    }

    #[test]
    fn rederive_after_inserting_a_write() {
        // A write defines nothing: only its own uses are re-solved.
        let n = rederive_matches_compute(
            "read(y); x = y; while (x < 3) { x = x + y; } write(x);",
            "read(y); x = y; write(x + y); while (x < 3) { x = x + y; } write(x);",
            inserted_at(3),
            &["x", "y"],
        );
        assert_eq!(n, 4, "x = y comes before the insertion and carries");
    }

    #[test]
    fn rederive_after_inserting_dead_code_after_a_goto() {
        rederive_matches_compute(
            "x = 1; goto L; x = 2; L: write(x);",
            "x = 1; goto L; x = x + 3; x = 2; L: write(x);",
            inserted_at(3),
            &["x"],
        );
    }

    #[test]
    fn rederive_after_deleting_a_definition_inside_a_loop() {
        rederive_matches_compute(
            "x = 0; i = 0; while (i < 9) { x = x + i; i = i + 1; x = x * 2; } write(x); write(i);",
            "x = 0; i = 0; while (i < 9) { x = x + i; i = i + 1; } write(x); write(i);",
            deleted_at(6),
            &["x"],
        );
    }

    #[test]
    fn rederive_after_deleting_a_variables_only_definition() {
        rederive_matches_compute(
            "read(y); x = y; write(x); write(y);",
            "x = y; write(x); write(y);",
            deleted_at(1),
            &["y"],
        );
    }

    #[test]
    fn repoint_uses_replaces_the_edited_row() {
        // Rewriting `write(y)` to read x instead of y.
        let before = parse("x = 1; y = 2; write(y);").unwrap();
        let after = parse("x = 1; y = 2; write(x);").unwrap();
        let cfg = Cfg::build(&after);
        // Start from the stale edges of the *old* expression.
        let mut dd = DataDeps::compute(&before, &Cfg::build(&before));
        let n = dd.repoint_uses(&after, &cfg, after.at_line(3));
        assert_eq!(n, 1);
        let fresh = DataDeps::compute(&after, &cfg);
        for s in after.stmt_ids() {
            assert_eq!(dd.deps(s), fresh.deps(s), "deps of {s:?}");
        }
    }

    #[test]
    fn raw_part_constructors_round_trip() {
        let p = parse("x = 1; y = x; while (y < 9) { y = y + x; } write(y);").unwrap();
        let cfg = Cfg::build(&p);
        let rd = ReachingDefs::compute(&p, &cfg);
        let dd = DataDeps::from_reaching(&p, &cfg, &rd);
        let fwd_only: Vec<Vec<StmtId>> = p.stmt_ids().map(|s| dd.deps(s).to_vec()).collect();
        let back = DataDeps::from_deps(fwd_only);
        for s in p.stmt_ids() {
            assert_eq!(dd.deps(s), back.deps(s), "deps of {s:?}");
        }
    }

    #[test]
    fn switch_fallthrough_reaches() {
        let src = "read(c); switch (c) { case 1: x = 1; case 2: y = x; break; } write(y);";
        // y = x (line 4) must see x = 1 via fall-through.
        assert_eq!(deps_of(src, 4), vec![3]);
    }
}
