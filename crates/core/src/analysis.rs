//! One-stop bundle of the structures the slicing algorithms consume.

use crate::sparse::ChainIndex;
use crate::{LexSuccTree, SlicePoint};
use jumpslice_cfg::Cfg;
use jumpslice_dataflow::{DataDeps, ReachingDefs, StmtSet};
use jumpslice_graph::DomTree;
use jumpslice_lang::{Program, StmtId, StmtKind};
use jumpslice_obs as obs;
use jumpslice_pdg::{Condensation, ControlDeps, Pdg};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Build counters exposed through [`Analysis::stats`].
///
/// Each counter records how many times the corresponding artifact was
/// *computed* (not how often it was used). The caching contract — one
/// program, one computation — is asserted by the test suite through this
/// probe: repeated `vars_at` slices must leave `reaching_defs` at 1.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Times the reaching-definitions fixpoint ran.
    pub reaching_defs: usize,
    /// Times the program dependence graph was assembled.
    pub pdg_builds: usize,
    /// Times the postdominator tree was computed.
    pub pdom_builds: usize,
    /// Times the lexical successor tree was built.
    pub lst_builds: usize,
    /// Times the sparse kernel's jump-chain index was built.
    pub chain_index_builds: usize,
}

/// Owned analysis artifacts detached from any program borrow.
///
/// A seed is harvested from a finished [`Analysis`] with
/// [`Analysis::into_seed`] and injected into a fresh one with
/// [`Analysis::with_seed`]. The incremental edit session uses this pair to
/// carry surviving artifacts across a program edit: whatever the edit left
/// valid is moved into the next `Analysis` instead of being recomputed.
///
/// Every field is optional; a missing artifact is simply computed lazily as
/// usual. **Contract:** artifacts injected via `with_seed` must be correct
/// for the program being analyzed — the seed is trusted, and a stale
/// artifact produces wrong slices, not a panic. The differential harness's
/// `incr` mode exists to enforce exactly this.
#[derive(Clone, Debug, Default)]
pub struct AnalysisSeed {
    /// The flowgraph (reused as-is when present).
    pub cfg: Option<Cfg>,
    /// The postdominator tree.
    pub pdom: Option<DomTree>,
    /// The program dependence graph.
    pub pdg: Option<Pdg>,
    /// The lexical successor tree.
    pub lst: Option<LexSuccTree>,
    /// The reaching-definitions solution.
    pub reaching: Option<ReachingDefs>,
    /// The sparse kernel's chain index (opaque; valid only while the jump
    /// structure, postdominators, and lexical successor tree are unchanged).
    pub chain_index: Option<ChainIndex>,
}

impl AnalysisSeed {
    /// How many of the four lazy artifacts are present (the flowgraph is
    /// not counted — it is always built eagerly anyway; the chain index is
    /// not counted either, being derived entirely from the others).
    pub fn reused_phases(&self) -> usize {
        usize::from(self.pdom.is_some())
            + usize::from(self.pdg.is_some())
            + usize::from(self.lst.is_some())
            + usize::from(self.reaching.is_some())
    }
}

/// Everything the algorithms in this crate need, computed per program:
/// the flowgraph eagerly, and the postdominator tree, the (unmodified)
/// program dependence graph, the lexical successor tree, and reaching
/// definitions *lazily, once, on first use*.
///
/// Laziness matters for the cheap algorithms: `conservative_slice`
/// (Figure 13) is advertised by the paper as needing neither the
/// postdominator tree nor the lexical successor tree, and with this struct
/// it no longer pays for the LST (the pdom tree is only forced if a label
/// actually needs re-associating). `Criterion::vars_at` slices share one
/// reaching-definitions fixpoint instead of re-running it per criterion,
/// and the PDG's data half is derived from that same cached fixpoint.
///
/// All lazy state lives in [`OnceLock`]s, so a fully materialized
/// `Analysis` is `Sync` and can be shared by reference across the batch
/// slicer's worker threads.
///
/// Note what is *not* here: no augmented flowgraph and no augmented PDG —
/// the paper's algorithm leaves both graphs intact and only adds the lexical
/// successor tree. The Ball–Horwitz baseline builds its augmented PDG
/// privately in [`crate::baselines`].
#[derive(Debug)]
pub struct Analysis<'p> {
    prog: &'p Program,
    cfg: Cfg,
    pdom: OnceLock<DomTree>,
    pdg: OnceLock<Pdg>,
    lst: OnceLock<LexSuccTree>,
    reaching: OnceLock<ReachingDefs>,
    chain_index: OnceLock<ChainIndex>,
    /// Per-do-while body sets (`dowhile_bodies[d]` = statements lexically
    /// inside the do-while `d`), built on first hazard probe.
    dowhile_bodies: OnceLock<Vec<StmtSet>>,
    n_reaching: AtomicUsize,
    n_pdg: AtomicUsize,
    n_pdom: AtomicUsize,
    n_lst: AtomicUsize,
    n_chain: AtomicUsize,
}

impl<'p> Analysis<'p> {
    /// Analyzes `prog`.
    ///
    /// Only the flowgraph is built here (its reachability facts with it);
    /// the lexical structure was derived when the program was made, and
    /// the heavier artifacts (PDG, postdominators, LST, reaching
    /// definitions) are built on first use and cached.
    ///
    /// # Panics
    ///
    /// Panics if some reachable statement cannot reach the exit (a genuinely
    /// infinite loop): postdominators — and with them every algorithm in the
    /// paper — are undefined there. Use [`Cfg::all_reach_exit`] to check
    /// first when handling untrusted input.
    pub fn new(prog: &'p Program) -> Analysis<'p> {
        Self::with_seed(prog, AnalysisSeed::default())
    }

    /// Analyzes `prog`, pre-filling the lazy caches with the artifacts in
    /// `seed` (see [`AnalysisSeed`] for the correctness contract). Seeded
    /// artifacts do **not** count as builds in [`Analysis::stats`], so tests
    /// can assert reuse by checking the counters stay at zero. With a
    /// seeded flowgraph this walks nothing: the analyzability check reads
    /// the verdict the flowgraph recorded when it was made.
    ///
    /// # Panics
    ///
    /// Panics under the same condition as [`Analysis::new`].
    pub fn with_seed(prog: &'p Program, seed: AnalysisSeed) -> Analysis<'p> {
        let cfg = seed.cfg.unwrap_or_else(|| Cfg::build(prog));
        assert!(
            cfg.all_reach_exit(),
            "program has statements that cannot reach the exit; postdominators are undefined"
        );
        let a = Analysis {
            prog,
            cfg,
            pdom: OnceLock::new(),
            pdg: OnceLock::new(),
            lst: OnceLock::new(),
            reaching: OnceLock::new(),
            chain_index: OnceLock::new(),
            dowhile_bodies: OnceLock::new(),
            n_reaching: AtomicUsize::new(0),
            n_pdg: AtomicUsize::new(0),
            n_pdom: AtomicUsize::new(0),
            n_lst: AtomicUsize::new(0),
            n_chain: AtomicUsize::new(0),
        };
        if let Some(x) = seed.pdom {
            let _ = a.pdom.set(x);
        }
        if let Some(x) = seed.pdg {
            let _ = a.pdg.set(x);
        }
        if let Some(x) = seed.lst {
            let _ = a.lst.set(x);
        }
        if let Some(x) = seed.reaching {
            let _ = a.reaching.set(x);
        }
        if let Some(x) = seed.chain_index {
            let _ = a.chain_index.set(x);
        }
        a
    }

    /// Consumes the analysis, harvesting every materialized artifact (plus
    /// the flowgraph) into an owned [`AnalysisSeed`]. Artifacts never forced
    /// come back `None`.
    pub fn into_seed(self) -> AnalysisSeed {
        AnalysisSeed {
            cfg: Some(self.cfg),
            pdom: self.pdom.into_inner(),
            pdg: self.pdg.into_inner(),
            lst: self.lst.into_inner(),
            reaching: self.reaching.into_inner(),
            chain_index: self.chain_index.into_inner(),
        }
    }

    /// The analyzed program.
    pub fn prog(&self) -> &'p Program {
        self.prog
    }

    /// The flowgraph.
    pub fn cfg(&self) -> &Cfg {
        &self.cfg
    }

    /// The postdominator tree of the flowgraph (computed on first use).
    pub fn pdom(&self) -> &DomTree {
        self.cache_probe(obs::Artifact::Pdom, self.pdom.get().is_some());
        self.pdom.get_or_init(|| {
            self.n_pdom.fetch_add(1, Ordering::Relaxed);
            let _t = obs::phase(obs::Phase::Postdominators);
            self.cfg.postdominators()
        })
    }

    /// The (unaugmented) program dependence graph (computed on first use;
    /// its data half reuses the cached reaching-definitions fixpoint, its
    /// control half the cached postdominator tree).
    pub fn pdg(&self) -> &Pdg {
        self.cache_probe(obs::Artifact::Pdg, self.pdg.get().is_some());
        self.pdg.get_or_init(|| {
            self.n_pdg.fetch_add(1, Ordering::Relaxed);
            let reaching = self.reaching();
            let pdom = self.pdom();
            let _t = obs::phase(obs::Phase::PdgBuild);
            let data = DataDeps::from_reaching(self.prog, &self.cfg, reaching);
            let control = ControlDeps::compute_with_pdom(self.prog, &self.cfg, pdom);
            Pdg::from_parts(data, control)
        })
    }

    /// The lexical successor tree (computed on first use).
    pub fn lst(&self) -> &LexSuccTree {
        self.cache_probe(obs::Artifact::Lst, self.lst.get().is_some());
        self.lst.get_or_init(|| {
            self.n_lst.fetch_add(1, Ordering::Relaxed);
            let _t = obs::phase(obs::Phase::LstBuild);
            LexSuccTree::build(self.prog)
        })
    }

    /// The reaching-definitions fixpoint (computed on first use). Shared by
    /// every `vars_at` criterion and by the PDG's data-dependence half.
    pub fn reaching(&self) -> &ReachingDefs {
        self.cache_probe(obs::Artifact::ReachingDefs, self.reaching.get().is_some());
        self.reaching.get_or_init(|| {
            self.n_reaching.fetch_add(1, Ordering::Relaxed);
            let _t = obs::phase(obs::Phase::ReachingDefs);
            ReachingDefs::compute(self.prog, &self.cfg)
        })
    }

    /// The sparse Figure-7 kernel's flattened jump-chain index (computed on
    /// first use; forces the postdominator tree, and — when the program has
    /// any live unconditional jump — the lexical successor tree).
    pub(crate) fn chain_index(&self) -> &ChainIndex {
        self.cache_probe(obs::Artifact::ChainIndex, self.chain_index.get().is_some());
        self.chain_index.get_or_init(|| {
            self.n_chain.fetch_add(1, Ordering::Relaxed);
            ChainIndex::build(self)
        })
    }

    /// The PDG's SCC condensation, which every backward closure walks
    /// (forces the PDG).
    pub fn closure_index(&self) -> &Condensation {
        self.pdg().condensation()
    }

    /// The set of statements lexically inside do-while `d` (empty for any
    /// other statement). Built once for all do-whiles on first use.
    pub(crate) fn dowhile_body(&self, d: StmtId) -> &StmtSet {
        let bodies = self.dowhile_bodies.get_or_init(|| {
            let n = self.prog.len();
            let st = self.prog.structure();
            let mut out = vec![StmtSet::with_capacity(0); n];
            // One ancestor walk per statement instead of one full program
            // scan per do-while.
            for s in self.prog.stmt_ids() {
                let mut cur = st.parent(s);
                while let Some(t) = cur {
                    if matches!(self.prog.stmt(t).kind, StmtKind::DoWhile { .. }) {
                        out[t.index()].insert(s);
                    }
                    cur = st.parent(t);
                }
            }
            out
        });
        &bodies[d.index()]
    }

    /// Emits one cache hit/miss event for an artifact accessor. `hit` is
    /// sampled *before* `get_or_init` runs, so the request that triggers the
    /// computation reports a miss.
    fn cache_probe(&self, artifact: obs::Artifact, hit: bool) {
        obs::record(|| obs::Event::Cache { artifact, hit });
    }

    /// How many times each lazy artifact has been computed so far. The
    /// caching contract is "at most once per program"; tests hold this
    /// probe against workloads that used to recompute per criterion.
    pub fn stats(&self) -> AnalysisStats {
        AnalysisStats {
            reaching_defs: self.n_reaching.load(Ordering::Relaxed),
            pdg_builds: self.n_pdg.load(Ordering::Relaxed),
            pdom_builds: self.n_pdom.load(Ordering::Relaxed),
            lst_builds: self.n_lst.load(Ordering::Relaxed),
            chain_index_builds: self.n_chain.load(Ordering::Relaxed),
        }
    }

    /// Forces every paper artifact (the PDG with its condensation) and the
    /// chain index now, on the calling thread.
    pub fn warm(&self) {
        let _ = (self.reaching(), self.pdg(), self.pdom(), self.lst());
        let _ = self.chain_index();
    }

    /// True when every artifact [`Analysis::warm`] computes is already
    /// cached.
    pub fn is_warm(&self) -> bool {
        self.reaching.get().is_some()
            && self.pdg.get().is_some()
            && self.pdom.get().is_some()
            && self.lst.get().is_some()
            && self.chain_index.get().is_some()
    }

    /// The same as [`Analysis::warm`]: an analysis warms on one thread, so
    /// `_threads` is ignored.
    pub fn warm_parallel(&self, _threads: usize) {
        self.warm();
    }

    /// Whether `s` is a jump statement (including the fused conditional
    /// goto).
    pub fn is_jump(&self, s: StmtId) -> bool {
        self.prog.stmt(s).kind.is_jump()
    }

    /// The statement a jump transfers control to (`None` = exit). For
    /// `break` that is the statement following the enclosing breakable
    /// construct; for `continue`, the enclosing loop's predicate.
    ///
    /// Returns `None` for non-jumps as well as for `return`; pair with
    /// [`Analysis::is_jump`] when the distinction matters.
    pub fn jump_target(&self, s: StmtId) -> SlicePoint {
        match &self.prog.stmt(s).kind {
            StmtKind::Goto { target } | StmtKind::CondGoto { target, .. } => {
                self.prog.label_target(*target)
            }
            StmtKind::Break => {
                let b = self
                    .prog
                    .structure()
                    .enclosing_breakable(s)
                    .expect("validated: break inside breakable");
                self.lst().immediate(b)
            }
            StmtKind::Continue => self.prog.structure().enclosing_loop(s),
            StmtKind::Return { .. } => None,
            _ => None,
        }
    }

    /// The nearest postdominator of `s` that is in `slice` (`None` = exit,
    /// which is implicitly in every slice).
    pub fn nearest_pdom_in(&self, s: StmtId, slice: &StmtSet) -> SlicePoint {
        self.nearest_in_pdom(self.pdom(), s, slice)
    }

    /// [`Analysis::nearest_pdom_in`] over a postdominator tree the caller
    /// already holds, so a loop of queries probes the cache once.
    pub(crate) fn nearest_in_pdom(&self, pdom: &DomTree, s: StmtId, slice: &StmtSet) -> SlicePoint {
        let node = self.cfg.node(s);
        for a in pdom.ancestors(node) {
            if a == self.cfg.exit() {
                return None;
            }
            if let Some(t) = self.cfg.stmt(a) {
                if slice.contains(t) {
                    return Some(t);
                }
            }
        }
        None
    }

    /// The nearest lexical successor of `s` that is in `slice` (`None` =
    /// exit).
    pub fn nearest_lexsucc_in(&self, s: StmtId, slice: &StmtSet) -> SlicePoint {
        self.lst().nearest_where(s, |t| slice.contains(t))
    }

    /// Extension guard for `do-while`, a construct outside the paper's
    /// language: walking the lexical-successor chain from jump `j` toward
    /// its nearest in-slice successor, returns `true` if the walk passes
    /// through a `do-while` that is *not* in the slice but whose body
    /// contains slice statements.
    ///
    /// Deleting such a jump makes control fall into the do-while's
    /// *condition*, which may loop back and re-execute the in-slice body —
    /// even when the condition was dead code in the original program (a
    /// body ending in `break`). The paper's npd-vs-nls test cannot see
    /// this because a do-while's entry (its body) differs from its
    /// flowgraph node (its condition); for the paper's own constructs the
    /// guard never fires — and for programs without any `do-while` it
    /// returns immediately, without forcing the lexical successor tree.
    pub fn dowhile_hazard(&self, j: StmtId, slice: &StmtSet) -> bool {
        let st = self.prog.structure();
        if !st.has_do_while() {
            return false;
        }
        let mut prev = j;
        for t in self.lst().successors(j) {
            if slice.contains(t) {
                return false;
            }
            // Only an arrival *from inside the body* lands on the loop
            // condition (the last-body-statement rule); reaching a do-while
            // from outside enters its body, which is harmless.
            if matches!(self.prog.stmt(t).kind, StmtKind::DoWhile { .. })
                && st.contains(t, prev)
                && self.dowhile_body(t).intersects(slice)
            {
                return true;
            }
            prev = t;
        }
        false
    }

    /// Whether `s` is reachable from the program entry. Dead statements are
    /// never considered for slice inclusion: they cannot execute, and
    /// including one without its (removed) guards would change the residual
    /// program's flow.
    pub fn is_live(&self, s: StmtId) -> bool {
        self.cfg.reachable()[self.cfg.node(s).index()]
    }

    /// *Unconditional* jump statements in preorder of the postdominator
    /// tree — the visit order and candidate set of the paper's Figure 7.
    ///
    /// Conditional jumps are deliberately absent: §3 handles them through
    /// the conventional algorithm's adaptation (the fused conditional goto
    /// is included exactly when its predicate is), and the traversal
    /// question is posed only for unconditional jumps. Examining fused
    /// conditional gotos here would make the iteration order-dependent and
    /// strictly coarser than Ball–Horwitz (an early npd ≠ nls judgement can
    /// be invalidated by later closure additions). Dead jumps are skipped.
    pub fn jumps_in_pdom_preorder(&self) -> Vec<StmtId> {
        self.pdom()
            .preorder()
            .filter_map(|n| self.cfg.stmt(n))
            .filter(|&s| self.prog.stmt(s).kind.is_unconditional_jump() && self.is_live(s))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    #[test]
    fn jump_targets() {
        let p = parse(
            "while (c) {
               if (a) break;
               if (b) continue;
               goto OUT;
             }
             OUT: write(x);
             return;",
        )
        .unwrap();
        let a = Analysis::new(&p);
        // Lines: 1 while, 2 if, 3 break, 4 if, 5 continue, 6 goto, 7 write,
        // 8 return.
        assert_eq!(a.jump_target(p.at_line(3)), Some(p.at_line(7)));
        assert_eq!(a.jump_target(p.at_line(5)), Some(p.at_line(1)));
        assert_eq!(a.jump_target(p.at_line(6)), Some(p.at_line(7)));
        assert_eq!(a.jump_target(p.at_line(8)), None);
        assert_eq!(a.jump_target(p.at_line(7)), None, "non-jump");
    }

    #[test]
    fn break_at_end_of_program_targets_exit() {
        let p = parse("while (c) { break; }").unwrap();
        let a = Analysis::new(&p);
        assert_eq!(a.jump_target(p.at_line(2)), None);
    }

    #[test]
    fn nearest_queries() {
        let p = parse("a = 1; b = 2; c = 3; d = 4;").unwrap();
        let a = Analysis::new(&p);
        let slice: StmtSet = [p.at_line(3)].into_iter().collect();
        assert_eq!(a.nearest_pdom_in(p.at_line(1), &slice), Some(p.at_line(3)));
        assert_eq!(
            a.nearest_lexsucc_in(p.at_line(1), &slice),
            Some(p.at_line(3))
        );
        assert_eq!(
            a.nearest_pdom_in(p.at_line(3), &slice),
            None,
            "proper ancestors only"
        );
        assert_eq!(
            a.nearest_pdom_in(p.at_line(4), &slice),
            None,
            "falls to exit"
        );
    }

    #[test]
    #[should_panic(expected = "cannot reach the exit")]
    fn infinite_loop_rejected() {
        let p = parse("L: goto L;").unwrap();
        let _ = Analysis::new(&p);
    }

    #[test]
    fn jump_orders_cover_unconditional_jumps_only() {
        let p = parse("L3: if (eof()) goto L14; goto L3; L14: write(x);").unwrap();
        let a = Analysis::new(&p);
        // The fused conditional goto on line 1 is handled by the
        // conventional adaptation, not the traversal; only `goto L3` is a
        // traversal candidate.
        assert_eq!(a.jumps_in_pdom_preorder(), vec![p.at_line(2)]);
    }

    #[test]
    fn dead_jumps_excluded_from_orders() {
        let p = parse("goto END; goto END; END: write(x);").unwrap();
        let a = Analysis::new(&p);
        assert!(!a.is_live(p.at_line(2)), "second goto is dead");
        assert_eq!(a.jumps_in_pdom_preorder(), vec![p.at_line(1)]);
    }

    #[test]
    fn lazy_artifacts_compute_once() {
        let p = parse("read(c); while (c) { read(c); } write(c);").unwrap();
        let a = Analysis::new(&p);
        assert_eq!(a.stats(), AnalysisStats::default(), "nothing forced yet");
        for _ in 0..5 {
            let _ = a.pdg();
            let _ = a.pdom();
            let _ = a.lst();
            let _ = a.reaching();
        }
        let s = a.stats();
        assert_eq!(
            s,
            AnalysisStats {
                reaching_defs: 1,
                pdg_builds: 1,
                pdom_builds: 1,
                lst_builds: 1,
                chain_index_builds: 0,
            },
            "each artifact computed exactly once"
        );
        for _ in 0..5 {
            let _ = a.chain_index();
        }
        assert_eq!(a.stats().chain_index_builds, 1);
    }

    #[test]
    fn dowhile_body_sets_match_structure_contains() {
        let p = parse(
            "read(x);
             do { x = x + 1; do { y = 2; } while (y); } while (x < 3);
             write(x);",
        )
        .unwrap();
        let a = Analysis::new(&p);
        for t in p.stmt_ids() {
            let body = a.dowhile_body(t);
            for s in p.stmt_ids() {
                assert_eq!(
                    body.contains(s),
                    matches!(p.stmt(t).kind, StmtKind::DoWhile { .. })
                        && p.structure().contains(t, s),
                    "body set of line {} at line {}",
                    p.line_of(t),
                    p.line_of(s)
                );
            }
        }
    }

    /// The satellite fix pinned: the hazard guard answers through the
    /// precomputed body bitset exactly as the old O(|slice|) scan did, on
    /// every slice state of a program where the hazard genuinely fires
    /// (break inside a do-while, body statements sliced, loop head not).
    #[test]
    fn dowhile_hazard_matches_linear_scan() {
        let p = parse("read(x); do { x = x + 1; if (c) break; y = 2; } while (x < 10); write(y);")
            .unwrap();
        let a = Analysis::new(&p);
        let brk = p.at_line(5);
        let old_scan = |j: StmtId, slice: &StmtSet| -> bool {
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
        let n = p.len();
        let mut fired = false;
        for mask in 0u32..(1 << n) {
            let slice: StmtSet = p
                .stmt_ids()
                .filter(|s| mask & (1 << s.index()) != 0)
                .collect();
            let got = a.dowhile_hazard(brk, &slice);
            assert_eq!(got, old_scan(brk, &slice), "slice mask {mask:#b}");
            fired |= got;
        }
        assert!(fired, "the hazard case is actually exercised");
    }

    #[test]
    fn dowhile_hazard_short_circuits_without_dowhile() {
        let p = parse("x = 1; goto L; y = 2; L: write(x);").unwrap();
        let a = Analysis::new(&p);
        let slice: StmtSet = [p.at_line(4)].into_iter().collect();
        assert!(!a.dowhile_hazard(p.at_line(2), &slice));
        assert_eq!(a.stats().lst_builds, 0, "no LST forced by the fast path");
    }
}
