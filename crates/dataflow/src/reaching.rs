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
        let mut t = VarTable {
            vars: Vec::new(),
            index: vec![None; prog.num_names()],
        };
        for s in prog.stmt_ids() {
            if let Some(d) = prog.defs(s) {
                t.add(d);
            }
            for u in prog.uses(s) {
                t.add(u);
            }
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

/// The static part of the reaching-definitions problem, shared by the cold
/// solve and the seeded re-solve: the def-site numbering and each
/// variable's site words. A defining node generates its own site and kills
/// its variable's words, so no per-node set is stored.
struct GenKill {
    vars: VarTable,
    def_sites: Vec<StmtId>,
    site_of_stmt: Vec<Option<usize>>,
    /// Dense variable index of each def site.
    site_var: Vec<usize>,
    var_words: Vec<Vec<(usize, u64)>>,
}

impl GenKill {
    fn of(prog: &Program) -> GenKill {
        let vars = VarTable::of(prog);
        let mut def_sites = Vec::new();
        let mut site_of_stmt: Vec<Option<usize>> = vec![None; prog.len()];
        let mut site_var = Vec::new();
        let mut var_words: Vec<Vec<(usize, u64)>> = vec![Vec::new(); vars.len()];
        for s in prog.stmt_ids() {
            if let Some(v) = prog.defs(s) {
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
        let gk = GenKill::of(prog);
        let in_sets = vec![BitSet::new(gk.def_sites.len()); cfg.graph().len()];
        Self::solve(cfg, gk, in_sets, "reaching.fixpoint_passes")
    }

    /// Re-solves the fixpoint for an edited program, warm-started from the
    /// previous solution. See [`ReachingDefs::compute_seeded_tracked`] for
    /// the parameters; this variant discards the change tracking.
    pub fn compute_seeded(
        prog: &Program,
        cfg: &Cfg,
        old_cfg: &Cfg,
        old: &ReachingDefs,
        fwd: &[Option<StmtId>],
        dirty_vars: &[Name],
        dirty_from: Option<NodeId>,
    ) -> ReachingDefs {
        Self::compute_seeded_tracked(prog, cfg, old_cfg, old, fwd, dirty_vars, dirty_from).0
    }

    /// Re-solves the fixpoint for an edited program, warm-started from the
    /// previous solution, and reports which nodes' IN sets ended up
    /// different from the translated seed.
    ///
    /// `fwd` maps each old-arena statement index to its surviving id in
    /// `prog` (`None` for deleted statements). `dirty_vars` are the
    /// variables (in `prog`'s interner) that gained a definition in the
    /// edit; `dirty_from` is the flowgraph node of that new definition
    /// (`None` drops dirty bits everywhere).
    ///
    /// Soundness: the seed must sit at or below the new least fixpoint so
    /// monotone iteration converges to it exactly. Translating the old
    /// solution is below the new one for every bit whose definition variable
    /// is *clean*: the edit only splices nodes into or out of paths and
    /// removes no kills of clean variables. A *deleted* definition needs no
    /// dirty variable at all — removing a definition removes kills, so every
    /// surviving definition's reach can only grow and the translated bits
    /// stay below the fixpoint (the deleted site itself has no forward
    /// image and drops out of the translation). An *inserted* definition
    /// kills other definitions of its variable, but only along paths that
    /// pass through it — so bits owned by dirty variables are cleared only
    /// at nodes reachable from `dirty_from`, and the first iteration
    /// regenerates whatever genuinely still reaches. Statements with no old
    /// counterpart start at bottom, which is trivially safe.
    ///
    /// The returned flags are indexed by `cfg` node: `true` means the
    /// node's fixpoint IN set differs from its seed, or the node had no old
    /// counterpart to seed from. Callers patching per-statement facts (see
    /// [`DataDeps::patch_seeded`]) may keep facts at unflagged nodes.
    pub fn compute_seeded_tracked(
        prog: &Program,
        cfg: &Cfg,
        old_cfg: &Cfg,
        old: &ReachingDefs,
        fwd: &[Option<StmtId>],
        dirty_vars: &[Name],
        dirty_from: Option<NodeId>,
    ) -> (ReachingDefs, Vec<bool>) {
        let gk = GenKill::of(prog);
        let nsites = gk.def_sites.len();
        let n = cfg.graph().len();
        let mut in_sets = vec![BitSet::new(nsites); n];

        // Translate old site indices to new ones across the statement map;
        // sites of deleted statements drop out here.
        let mut site_map: Vec<Option<usize>> = vec![None; old.def_sites.len()];
        let mut dirty_old_site = vec![false; old.def_sites.len()];
        for (old_idx, &old_stmt) in old.def_sites.iter().enumerate() {
            let Some(new_stmt) = fwd.get(old_stmt.index()).copied().flatten() else {
                continue;
            };
            let Some(new_idx) = gk.site_of_stmt[new_stmt.index()] else {
                continue;
            };
            site_map[old_idx] = Some(new_idx);
            let v = prog.defs(new_stmt).expect("def site maps to def site");
            dirty_old_site[old_idx] = dirty_vars.contains(&v);
        }
        let affected: Option<Vec<bool>> =
            dirty_from.map(|v| jumpslice_graph::reachable_from(cfg.graph(), v));
        let in_region = |node: NodeId| affected.as_ref().is_none_or(|a| a[node.index()]);

        let mut seeded_bits = 0u64;
        let masked_identity = site_map
            .iter()
            .enumerate()
            .all(|(i, m)| m.is_none() || *m == Some(i));
        if masked_identity {
            // Every surviving site keeps its index (edits at the end of the
            // program), so the translation is a word-parallel masked union
            // instead of a per-bit loop.
            let old_nsites = old.def_sites.len();
            let mut clean = BitSet::new(old_nsites);
            let mut safe = BitSet::new(old_nsites);
            for (i, m) in site_map.iter().enumerate() {
                if m.is_some() {
                    clean.insert(i);
                    if !dirty_old_site[i] {
                        safe.insert(i);
                    }
                }
            }
            for (old_stmt_idx, &new_stmt) in fwd.iter().enumerate() {
                let Some(new_stmt) = new_stmt else { continue };
                let old_node = old_cfg.node(StmtId::from_index(old_stmt_idx));
                let new_node = cfg.node(new_stmt);
                let mask = if in_region(new_node) { &safe } else { &clean };
                in_sets[new_node.index()].union_masked(&old.in_sets[old_node.index()], mask);
            }
            seeded_bits = in_sets.iter().map(|s| s.len() as u64).sum();
        } else {
            for (old_stmt_idx, &new_stmt) in fwd.iter().enumerate() {
                let Some(new_stmt) = new_stmt else { continue };
                let old_node = old_cfg.node(StmtId::from_index(old_stmt_idx));
                let new_node = cfg.node(new_stmt);
                let dirty_here = in_region(new_node);
                let target = &mut in_sets[new_node.index()];
                for old_bit in old.in_sets[old_node.index()].iter() {
                    if dirty_here && dirty_old_site[old_bit] {
                        continue;
                    }
                    if let Some(new_bit) = site_map[old_bit] {
                        target.insert(new_bit);
                        seeded_bits += 1;
                    }
                }
            }
        }

        jumpslice_obs::record(|| jumpslice_obs::Event::Count {
            name: "reaching.seeded_bits",
            value: seeded_bits,
        });
        let (rd, mut in_changed) = Self::solve_tracked(cfg, gk, in_sets, "reaching.seeded_passes");
        let mut has_old = vec![false; n];
        for &new_stmt in fwd.iter().flatten() {
            has_old[cfg.node(new_stmt).index()] = true;
        }
        for (i, flag) in in_changed.iter_mut().enumerate() {
            *flag |= !has_old[i];
        }
        (rd, in_changed)
    }

    /// Worklist iteration to the least fixpoint from `in_sets` (which must
    /// be at or below it).
    fn solve(cfg: &Cfg, gk: GenKill, in_sets: Vec<BitSet>, counter: &'static str) -> ReachingDefs {
        Self::solve_tracked(cfg, gk, in_sets, counter).0
    }

    /// [`ReachingDefs::solve`], additionally reporting per node whether its
    /// IN set at the fixpoint differs from the seed it started from.
    ///
    /// No OUT set is stored: a node's OUT is its IN, except that a defining
    /// node clears its variable's words and sets its own site, and that
    /// transfer is applied while its successors union it in. Sweeps run in
    /// reverse postorder from entry and visit only nodes marked pending:
    /// all of them at first, later those with a predecessor whose IN
    /// changed. Sweeping every node each time evaluates the same sequence
    /// of IN sets, since a node none of whose predecessors changed would
    /// recompute the IN it already has.
    fn solve_tracked(
        cfg: &Cfg,
        gk: GenKill,
        mut in_sets: Vec<BitSet>,
        counter: &'static str,
    ) -> (ReachingDefs, Vec<bool>) {
        let GenKill {
            vars,
            def_sites,
            site_of_stmt,
            site_var,
            var_words,
        } = gk;
        // Nodes unreachable from entry are excluded and keep empty sets:
        // applying their transfer would let dead definitions leak into
        // reachable fall-through successors.
        let order = jumpslice_graph::reverse_postorder(cfg.graph(), cfg.entry());
        let n = cfg.graph().len();
        let mut pos = vec![usize::MAX; n];
        for (j, &node) in order.iter().enumerate() {
            pos[node.index()] = j;
        }
        let mut in_changed = vec![false; n];
        for (i, set) in in_sets.iter_mut().enumerate() {
            if pos[i] == usize::MAX && !set.is_empty() {
                in_changed[i] = true;
                set.clear();
            }
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
                    in_changed[i] = true;
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
            name: counter,
            value: passes,
        });
        (
            ReachingDefs {
                def_sites,
                in_sets,
                vars,
                var_words,
            },
            in_changed,
        )
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

    /// Rebuilds the edge set for an edited program from these (old) edges
    /// plus a warm reaching solution, recomputing incoming edges only for
    /// statements whose reaching facts could have changed. Returns the new
    /// edges and the number of statements actually repointed.
    ///
    /// `fwd`, `in_changed`, `dirty_vars`, and `dirty_from` must be the
    /// statement map, the flags reported by
    /// [`ReachingDefs::compute_seeded_tracked`], and the same dirty
    /// variables and region origin that call was given.
    ///
    /// A surviving statement keeps its translated old edges when its node
    /// is unflagged, it uses no dirty variable (checked only at nodes
    /// reachable from `dirty_from` — elsewhere the seed kept every dirty
    /// bit), and none of its old deps was deleted. Those three conditions
    /// cover every way an edge can appear or vanish: a new reaching
    /// definition flips the node's IN set (flagged), a definition of a
    /// dirty variable may have been silently dropped from the seed (dirty
    /// use in region), and a deleted definition leaves its dependents' IN
    /// sets untouched when nothing replaces it (deleted dep).
    #[allow(clippy::too_many_arguments)]
    pub fn patch_seeded(
        &self,
        prog: &Program,
        cfg: &Cfg,
        rd: &ReachingDefs,
        fwd: &[Option<StmtId>],
        in_changed: &[bool],
        dirty_vars: &[Name],
        dirty_from: Option<NodeId>,
    ) -> (DataDeps, usize) {
        let n = prog.len();
        let affected: Option<Vec<bool>> =
            dirty_from.map(|v| jumpslice_graph::reachable_from(cfg.graph(), v));
        let mut deps: Vec<Vec<StmtId>> = vec![Vec::new(); n];
        let mut carried = vec![false; n];
        'old: for (old_idx, &new_id) in fwd.iter().enumerate() {
            let Some(u) = new_id else { continue };
            let node = cfg.node(u);
            let dirty_here = affected.as_ref().is_none_or(|a| a[node.index()]);
            if in_changed[node.index()]
                || (dirty_here && prog.uses(u).iter().any(|v| dirty_vars.contains(v)))
            {
                continue;
            }
            let old_deps = &self.deps[StmtId::from_index(old_idx).index()];
            let mut translated = Vec::with_capacity(old_deps.len());
            for &d in old_deps {
                match fwd.get(d.index()).copied().flatten() {
                    Some(nd) => translated.push(nd),
                    None => continue 'old, // a dep was deleted: repoint
                }
            }
            translated.sort();
            translated.dedup();
            deps[u.index()] = translated;
            carried[u.index()] = true;
        }

        let mut repointed = 0;
        let mut mask = Vec::new();
        for u in prog.stmt_ids() {
            if carried[u.index()] {
                continue;
            }
            let used = prog.uses(u);
            if used.is_empty() {
                continue;
            }
            repointed += 1;
            deps[u.index()] = rd.reaching_uses(cfg.node(u), &used, &mut mask);
        }
        (DataDeps { deps }, repointed)
    }

    /// Recomputes the *incoming* edges of `u` from `rd` and replaces the
    /// stored ones. This is the data-dependence patch for an edit that
    /// changes only the uses of one statement (an expression replacement):
    /// every other statement's edges are untouched. Returns the number of
    /// edges now pointing into `u`.
    pub fn repoint_uses(
        &mut self,
        prog: &Program,
        cfg: &Cfg,
        rd: &ReachingDefs,
        u: StmtId,
    ) -> usize {
        self.deps[u.index()] = rd.reaching_uses(cfg.node(u), &prog.uses(u), &mut Vec::new());
        self.deps[u.index()].len()
    }
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

    #[test]
    fn seeded_identity_map_matches_cold_solve() {
        let src = "x = 0; i = 0;
                   while (i < 9) {
                     if (i % 2 == 0) { x = x + i; } else { read(x); }
                     i = i + 1;
                   }
                   write(x); write(i);";
        let p = parse(src).unwrap();
        let cfg = Cfg::build(&p);
        let cold = ReachingDefs::compute(&p, &cfg);
        let fwd: Vec<Option<StmtId>> = p.stmt_ids().map(Some).collect();
        let (warm, in_changed) =
            ReachingDefs::compute_seeded_tracked(&p, &cfg, &cfg, &cold, &fwd, &[], None);
        // An identity edit seeds the exact fixpoint: no statement node may
        // be reported as changed.
        for s in p.stmt_ids() {
            assert!(!in_changed[cfg.node(s).index()], "{s:?} spuriously dirty");
        }
        assert_eq!(cold.in_sets(), warm.in_sets());
    }

    #[test]
    fn seeded_solve_after_simulated_delete() {
        // Delete the killing redefinition `x = 2`; the surviving def must
        // reach the write even though the old solution said it was killed.
        let old = parse("x = 1; x = 2; write(x);").unwrap();
        let new = parse("x = 1; write(x);").unwrap();
        let old_cfg = Cfg::build(&old);
        let new_cfg = Cfg::build(&new);
        let old_rd = ReachingDefs::compute(&old, &old_cfg);
        // A deletion needs no dirty variables: the deleted site drops out of
        // the translation, and surviving reaches only grow.
        let fwd = vec![Some(new.at_line(1)), None, Some(new.at_line(2))];
        let warm = ReachingDefs::compute_seeded(&new, &new_cfg, &old_cfg, &old_rd, &fwd, &[], None);
        let dd = DataDeps::from_reaching(&new, &new_cfg, &warm);
        let lines: Vec<usize> = dd
            .deps(new.at_line(2))
            .iter()
            .map(|&s| new.line_of(s))
            .collect();
        assert_eq!(lines, vec![1]);
    }

    /// Simulates the session's seeded path end to end — tracked re-solve
    /// plus data-dependence patch — and checks the patch against a cold
    /// rebuild, for both a deletion and an insertion.
    #[test]
    fn patch_seeded_matches_cold_rebuild() {
        // Delete the killing redefinition `x = 2` (line 2 of `old`).
        let old = parse("x = 1; x = 2; y = 3; write(x); write(y);").unwrap();
        let new = parse("x = 1; y = 3; write(x); write(y);").unwrap();
        let old_cfg = Cfg::build(&old);
        let new_cfg = Cfg::build(&new);
        let old_rd = ReachingDefs::compute(&old, &old_cfg);
        let old_dd = DataDeps::from_reaching(&old, &old_cfg, &old_rd);
        let fwd = vec![
            Some(new.at_line(1)),
            None,
            Some(new.at_line(2)),
            Some(new.at_line(3)),
            Some(new.at_line(4)),
        ];
        let (rd, in_changed) = ReachingDefs::compute_seeded_tracked(
            &new,
            &new_cfg,
            &old_cfg,
            &old_rd,
            &fwd,
            &[],
            None,
        );
        let (patched, repointed) =
            old_dd.patch_seeded(&new, &new_cfg, &rd, &fwd, &in_changed, &[], None);
        let fresh = DataDeps::from_reaching(&new, &new_cfg, &rd);
        for s in new.stmt_ids() {
            assert_eq!(patched.deps(s), fresh.deps(s), "deps of {s:?}");
        }
        // write(x) lost its dep on the deleted def and must repoint;
        // write(y) is untouched and must be carried.
        assert!(repointed >= 1, "the deleted def's dependent repoints");
        assert!(repointed < 4, "clean statements are carried, not repointed");

        // Insert `x = 9` between the two writes: kills reach only forward.
        let before = parse("x = 1; write(x); write(x);").unwrap();
        let after = parse("x = 1; write(x); x = 9; write(x);").unwrap();
        let bcfg = Cfg::build(&before);
        let acfg = Cfg::build(&after);
        let brd = ReachingDefs::compute(&before, &bcfg);
        let bdd = DataDeps::from_reaching(&before, &bcfg, &brd);
        let fwd = vec![
            Some(after.at_line(1)),
            Some(after.at_line(2)),
            Some(after.at_line(4)),
        ];
        let dirty = vec![after.name("x").unwrap()];
        let from = Some(acfg.node(after.at_line(3)));
        let (rd, in_changed) =
            ReachingDefs::compute_seeded_tracked(&after, &acfg, &bcfg, &brd, &fwd, &dirty, from);
        let (patched, repointed) =
            bdd.patch_seeded(&after, &acfg, &rd, &fwd, &in_changed, &dirty, from);
        let fresh = DataDeps::from_reaching(&after, &acfg, &rd);
        for s in after.stmt_ids() {
            assert_eq!(patched.deps(s), fresh.deps(s), "deps of {s:?}");
        }
        // The first write(x) sits before the insertion point — outside the
        // dirty region — so despite using the dirty variable it is carried;
        // only the second write (whose IN set the new def flipped) repoints.
        assert_eq!(repointed, 1, "exactly the downstream use repoints");
        assert_eq!(
            fresh.deps(after.at_line(2)),
            &[after.at_line(1)],
            "sanity: first write still sees the original def"
        );
        assert_eq!(
            fresh.deps(after.at_line(4)),
            &[after.at_line(3)],
            "sanity: second write sees only the inserted def"
        );
    }

    #[test]
    fn repoint_uses_replaces_the_edited_row() {
        // Rewriting `write(y)` to read x instead of y.
        let before = parse("x = 1; y = 2; write(y);").unwrap();
        let after = parse("x = 1; y = 2; write(x);").unwrap();
        let cfg = Cfg::build(&after);
        let rd = ReachingDefs::compute(&after, &cfg);
        // Start from the stale edges of the *old* expression.
        let mut dd = DataDeps::compute(&before, &Cfg::build(&before));
        let w = after.at_line(3);
        let n = dd.repoint_uses(&after, &cfg, &rd, w);
        assert_eq!(n, 1);
        let fresh = DataDeps::from_reaching(&after, &cfg, &rd);
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
