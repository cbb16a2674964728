//! One-stop bundle of the structures the slicing algorithms consume.

use crate::sparse::ChainIndex;
use crate::{LexSuccTree, SlicePoint};
use jumpslice_cfg::Cfg;
use jumpslice_dataflow::{DataDeps, ReachingDefs};
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
/// probe. `reaching_defs` counts the builds of the PDG's data half — the
/// factored reaching-definitions solution, φ placement and renaming — that
/// a cold PDG build runs (plus explicit [`Analysis::reaching`] solves); a
/// `vars_at` criterion reads the data half and solves nothing of its own.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AnalysisStats {
    /// Times the data half's reaching definitions were built: φ placement
    /// and renaming for a cold PDG, or an [`Analysis::reaching`] solve.
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
/// A decoded snapshot ([`crate::decode_snapshot`]) is a seed too, holding
/// the flowgraph only, as a cold session's seed does. No seed holds
/// reaching definitions as IN sets: the PDG's factored data half is their
/// solution.
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
    /// A bitset reaching-definitions solution to pre-fill
    /// [`Analysis::reaching`] with. No product path reads one:
    /// [`Analysis::into_seed`], the edit session and the snapshot decoder
    /// always leave it `None`. The field stays for callers that mirror the
    /// analysis phase by phase.
    pub reaching: Option<ReachingDefs>,
    /// The sparse kernel's chain index (opaque; valid only while the jump
    /// structure, postdominators, and lexical successor tree are unchanged).
    pub chain_index: Option<ChainIndex>,
}

impl AnalysisSeed {
    /// How many of the three lazy artifacts a seed can carry are present:
    /// the postdominator tree, the PDG and the LST. The flowgraph is not
    /// counted (it is always built eagerly anyway), nor the chain index
    /// (derived entirely from the others), nor reaching definitions (no
    /// seed keeps them).
    pub fn reused_phases(&self) -> usize {
        usize::from(self.pdom.is_some())
            + usize::from(self.pdg.is_some())
            + usize::from(self.lst.is_some())
    }
}

/// Everything the algorithms in this crate need, computed per program:
/// the flowgraph eagerly, and the postdominator tree, the (unmodified)
/// program dependence graph and the lexical successor tree *lazily, once,
/// on first use*.
///
/// Laziness matters for the cheap algorithms: `conservative_slice`
/// (Figure 13) is advertised by the paper as needing neither the
/// postdominator tree nor the lexical successor tree, and with this struct
/// it builds neither the LST nor the chain index unless the program has a
/// `do-while` or a label actually needs re-associating (the PDG's control
/// half still needs the postdominator tree).
/// Reaching definitions are the PDG's data half itself, in factored form
/// ([`jumpslice_dataflow::DataDeps`]): a cold PDG build places φs and
/// renames once per analysis, and a `Criterion::vars_at` criterion reads
/// its statement's nearest definitions or φs from it.
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
    /// the heavier artifacts (PDG, postdominators, LST) are built on first
    /// use and cached.
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
    /// come back `None`, and so does an [`Analysis::reaching`] solution,
    /// which is freed here: the PDG's data half is the same relation.
    pub fn into_seed(self) -> AnalysisSeed {
        AnalysisSeed {
            cfg: Some(self.cfg),
            pdom: self.pdom.into_inner(),
            pdg: self.pdg.into_inner(),
            lst: self.lst.into_inner(),
            reaching: None,
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
    /// its control half reuses the cached postdominator tree). A seeded
    /// PDG needs neither.
    ///
    /// The data half, φ placement and renaming over the forward dominator
    /// tree, is the reaching-definitions solution in factored form: it is
    /// timed as the `reaching_defs` phase, probed as that artifact and
    /// counted in [`AnalysisStats::reaching_defs`].
    pub fn pdg(&self) -> &Pdg {
        self.cache_probe(obs::Artifact::Pdg, self.pdg.get().is_some());
        self.pdg.get_or_init(|| {
            self.n_pdg.fetch_add(1, Ordering::Relaxed);
            let data = {
                self.cache_probe(obs::Artifact::ReachingDefs, false);
                self.n_reaching.fetch_add(1, Ordering::Relaxed);
                let _t = obs::phase(obs::Phase::ReachingDefs);
                DataDeps::compute(self.prog, &self.cfg)
            };
            let pdom = self.pdom();
            let _t = obs::phase(obs::Phase::PdgBuild);
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

    /// The bitset reaching-definitions fixpoint (computed on first use).
    /// No product path calls it: the PDG's data half is built without it.
    /// It stays for callers that mirror the analysis phase by phase, and
    /// [`Analysis::into_seed`] drops it.
    pub fn reaching(&self) -> &ReachingDefs {
        self.cache_probe(obs::Artifact::ReachingDefs, self.reaching.get().is_some());
        self.reaching.get_or_init(|| {
            self.n_reaching.fetch_add(1, Ordering::Relaxed);
            let _t = obs::phase(obs::Phase::ReachingDefs);
            ReachingDefs::compute(self.prog, &self.cfg)
        })
    }

    /// The flattened jump-chain index behind Figures 7, 12 and 13 and
    /// label re-association (computed on first use; forces the
    /// postdominator tree, and — when the program has any live
    /// unconditional jump — the lexical successor tree).
    pub(crate) fn chain_index(&self) -> &ChainIndex {
        self.cache_probe(obs::Artifact::ChainIndex, self.chain_index.get().is_some());
        self.chain_index.get_or_init(|| {
            self.n_chain.fetch_add(1, Ordering::Relaxed);
            ChainIndex::build(self.prog, &self.cfg, self.pdom(), || self.lst())
        })
    }

    /// The PDG's SCC condensation, which every backward closure walks
    /// (forces the PDG).
    pub fn closure_index(&self) -> &Condensation {
        self.pdg().condensation()
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

    /// Forces what Figures 7, 12 and 13 read (the PDG with its
    /// condensation, the postdominator tree, the LST) and the chain index
    /// now, on the calling thread.
    pub fn warm(&self) {
        let _ = (self.pdg(), self.pdom(), self.lst());
        let _ = self.chain_index();
    }

    /// True when every artifact [`Analysis::warm`] computes is already
    /// cached.
    pub fn is_warm(&self) -> bool {
        self.pdg.get().is_some()
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

    /// Whether `s` is reachable from the program entry. Dead statements are
    /// never considered for slice inclusion: they cannot execute, and
    /// including one without its (removed) guards would change the residual
    /// program's flow.
    pub fn is_live(&self, s: StmtId) -> bool {
        self.cfg.reachable()[self.cfg.node(s).index()]
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
    #[should_panic(expected = "cannot reach the exit")]
    fn infinite_loop_rejected() {
        let p = parse("L: goto L;").unwrap();
        let _ = Analysis::new(&p);
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
}
