//! Reaching definitions as IN sets: the bitset fixpoint.

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
        for n in prog
            .stmt_ids()
            .flat_map(|s| prog.defs(s).into_iter().chain(prog.uses(s)))
        {
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
/// numbered densely in statement order.
///
/// The IN sets hold one bit per flowgraph node and definition site, so a
/// solution is quadratic in the program. No product path solves them: the
/// PDG's data half is the factored form of [`crate::DataDeps`], whose
/// build places φs instead. The solver stays for the
/// `Analysis::reaching()` accessor, which a phase-by-phase mirror of the
/// analysis calls, and `tests/reaching_oracle.rs` holds it to the dense
/// oracle.
#[derive(Clone, Debug)]
pub struct ReachingDefs {
    /// Definition sites, in discovery order.
    def_sites: Vec<StmtId>,
    /// IN set per CFG node, over def-site indices.
    in_sets: Vec<BitSet>,
}

/// The static part of the reaching-definitions problem: the def-site
/// numbering and each variable's site words. A defining node generates its
/// own site and kills its variable's words, so no per-node set is stored.
struct GenKill {
    def_sites: Vec<StmtId>,
    site_of_stmt: Vec<Option<usize>>,
    /// Dense variable index of each def site.
    site_var: Vec<usize>,
    /// `var_words[v]`: the `(word, mask)` pairs variable `v`'s definition
    /// sites occupy in an IN set, ascending by word.
    var_words: Vec<Vec<(usize, u64)>>,
}

impl GenKill {
    /// Numbers the definition sites of `prog`.
    fn of(prog: &Program) -> GenKill {
        let vars = VarTable::of(prog);
        let mut def_sites = Vec::new();
        let mut site_of_stmt: Vec<Option<usize>> = vec![None; prog.len()];
        let mut site_var = Vec::new();
        let mut var_words: Vec<Vec<(usize, u64)>> = vec![Vec::new(); vars.len()];
        for s in prog.stmt_ids() {
            let Some(v) = prog.defs(s) else { continue };
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
            def_sites,
            site_of_stmt,
            site_var,
            var_words,
        }
    }
}

impl ReachingDefs {
    /// Runs the fixpoint on `prog`'s flowgraph.
    ///
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
    pub fn compute(prog: &Program, cfg: &Cfg) -> ReachingDefs {
        let GenKill {
            def_sites,
            site_of_stmt,
            site_var,
            var_words,
        } = GenKill::of(prog);
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
        ReachingDefs { def_sites, in_sets }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

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
    fn loop_carried_definitions_reach_the_head() {
        let p = parse("x = 0; while (x < 3) { x = x + 1; } write(x);").unwrap();
        let cfg = Cfg::build(&p);
        let rd = ReachingDefs::compute(&p, &cfg);
        let at = |line: usize| -> Vec<usize> {
            rd.in_sets()[cfg.node(p.at_line(line)).index()]
                .iter()
                .map(|b| p.line_of(rd.def_sites()[b]))
                .collect()
        };
        assert_eq!(at(2), vec![1, 3]);
        assert_eq!(at(3), vec![1, 3]);
    }
}
