//! The edit-and-reslice session.
//!
//! An [`EditSession`] owns a program together with the analysis artifacts
//! computed for it so far, applies edits from the edit language, and keeps
//! whatever the edit left valid instead of recomputing it. Two paths:
//!
//! * **Expression patch** — a [`Edit::ReplaceExpr`] changes the *uses* of
//!   one statement and nothing else: ids, flowgraph shape, definitions,
//!   postdominators, control dependence, the φs and the LST all survive.
//!   Only the edited statement's uses are re-read, in place: each its
//!   nearest definition or φ up the dominator tree.
//! * **Reset** — every other edit shifts ids or changes jump structure, so
//!   the session keeps only the edited program's flowgraph, as a cold load
//!   does, and the next analysis builds everything else on use, under its
//!   own phases. A reset is counted as a fallback. Its label tells the
//!   edits apart for the wire: an insert, or the delete of a simple,
//!   unlabeled, non-jump statement, is [`ApplyPath::SeededResolve`]
//!   (`"seeded_resolve"`), and anything else [`ApplyPath::FullRebuild`].
//!
//! A session restored from a snapshot holds what a cold one holds, so it
//! edits exactly as a cold one.
//!
//! The invariant behind both paths: after every `apply`, slicing through
//! the session is **identical** to slicing a freshly analyzed copy of the
//! edited program. `difftest --mode incr` fuzzes exactly this.

use crate::apply::{apply_edit, Applied};
use crate::edit::{Edit, EditError};
use jumpslice_cfg::Cfg;
use jumpslice_core::{Analysis, AnalysisSeed};
use jumpslice_lang::{Program, StmtId};
use jumpslice_obs as obs;

/// Which invalidation path an accepted edit took. The two reset labels
/// take the same path and differ only in what the wire reports.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApplyPath {
    /// Everything reused; the edited statement's uses re-read.
    ExprPatch,
    /// A reset after an insert, or after the delete of a simple,
    /// unlabeled, non-jump statement. The wire protocol reports it as
    /// `"seeded_resolve"`.
    SeededResolve,
    /// A reset after any other edit that is not an expression patch.
    FullRebuild,
}

/// Per-session counters, one per [`ApplyPath`] plus rejections.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IncrStats {
    /// Accepted edits, total.
    pub edits: usize,
    /// Edits that took [`ApplyPath::ExprPatch`].
    pub expr_patches: usize,
    /// Resets labelled [`ApplyPath::SeededResolve`].
    pub seeded_resolves: usize,
    /// Resets labelled [`ApplyPath::FullRebuild`].
    pub full_rebuilds: usize,
    /// Edits rejected with an [`EditError`] (session state unchanged).
    pub rejected: usize,
}

/// What one accepted edit did, as reported by [`EditSession::apply`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EditOutcome {
    /// The invalidation path taken.
    pub path: ApplyPath,
    /// The size of the edit's dirty region, as the wire protocol reports
    /// it: 1, the edit site, for an expression patch, and the edited
    /// program's length for a reset.
    pub dirty_stmts: usize,
    /// Phases the next analysis finds built (of the three lazy ones a seed
    /// carries: PDG, postdominators, LST): after an expression patch, each
    /// one the session had built before the edit, and none after a reset.
    pub reused_phases: usize,
    /// New id of the statement the edit produced or modified (`None` for a
    /// deletion).
    pub touched: Option<StmtId>,
}

/// An editable program with warm, selectively-invalidated analyses.
#[derive(Debug)]
pub struct EditSession {
    prog: Program,
    /// Artifacts valid for `prog`. Held detached so the session can own
    /// both the program and its analyses without a self-borrow.
    seed: AnalysisSeed,
    stats: IncrStats,
}

impl EditSession {
    /// Opens a session on `prog`.
    ///
    /// # Panics
    ///
    /// Panics like [`Analysis::new`] if some statement cannot reach the
    /// exit. Callers handling untrusted input (the serve daemon) should use
    /// [`try_new`](EditSession::try_new) instead.
    pub fn new(prog: Program) -> EditSession {
        EditSession::try_new(prog).unwrap_or_else(|_| {
            panic!(
                "program has statements that cannot reach the exit; postdominators are undefined"
            )
        })
    }

    /// Opens a session on `prog`, rejecting programs no slicer is defined
    /// for instead of panicking — the entry point for untrusted sources.
    ///
    /// # Errors
    ///
    /// [`EditError::Unanalyzable`] when some statement cannot reach the
    /// exit (postdominators, and with them every jump-aware slicer, are
    /// undefined for such programs).
    pub fn try_new(prog: Program) -> Result<EditSession, EditError> {
        EditSession::try_with_seed(prog, AnalysisSeed::default())
    }

    /// Opens a session on `prog` with the artifacts in `seed`: a decoded
    /// snapshot's flowgraph, or any other trusted out-of-band source. The
    /// seed's correctness contract is [`AnalysisSeed`]'s: every artifact
    /// present must match `prog`. A seed without a flowgraph gets one built
    /// here. Either way the session refuses an unanalyzable program, as
    /// [`try_new`](EditSession::try_new) does.
    ///
    /// # Errors
    ///
    /// [`EditError::Unanalyzable`] when some statement cannot reach the
    /// exit.
    pub fn try_with_seed(prog: Program, mut seed: AnalysisSeed) -> Result<EditSession, EditError> {
        let cfg = match seed.cfg.take() {
            Some(cfg) => cfg,
            None => Cfg::build(&prog),
        };
        if !cfg.all_reach_exit() {
            return Err(EditError::Unanalyzable);
        }
        seed.cfg = Some(cfg);
        Ok(EditSession {
            prog,
            seed,
            stats: IncrStats::default(),
        })
    }

    /// The artifacts currently valid for the session's program — whatever
    /// the last [`with_analysis`](EditSession::with_analysis) run forced.
    pub fn seed(&self) -> &AnalysisSeed {
        &self.seed
    }

    /// The current program.
    pub fn prog(&self) -> &Program {
        &self.prog
    }

    /// Path and rejection counters since the session opened.
    pub fn stats(&self) -> IncrStats {
        self.stats
    }

    /// Runs `f` against an [`Analysis`] of the current program, pre-filled
    /// with every artifact that survived the edits so far. Artifacts `f`
    /// forces are harvested back into the session, so later calls (and
    /// later edits) reuse them.
    pub fn with_analysis<R>(&mut self, f: impl FnOnce(&Analysis<'_>) -> R) -> R {
        let seed = std::mem::take(&mut self.seed);
        let a = Analysis::with_seed(&self.prog, seed);
        let r = f(&a);
        self.seed = a.into_seed();
        r
    }

    /// Applies one edit, selectively invalidating cached analyses.
    ///
    /// # Errors
    ///
    /// A rejected edit (unresolvable path, invalid or unanalyzable result)
    /// returns an [`EditError`] and leaves the session untouched.
    pub fn apply(&mut self, edit: &Edit) -> Result<EditOutcome, EditError> {
        let applied = match apply_edit(&self.prog, edit) {
            Ok(a) => a,
            Err(e) => {
                self.stats.rejected += 1;
                return Err(e);
            }
        };
        let new_cfg = Cfg::build(&applied.prog);
        if !new_cfg.all_reach_exit() {
            self.stats.rejected += 1;
            return Err(EditError::Unanalyzable);
        }

        let outcome = match self.classify(edit, &applied) {
            ApplyPath::ExprPatch => self.patch_expr(applied, new_cfg),
            path => self.reset(path, applied, new_cfg),
        };

        self.stats.edits += 1;
        match outcome.path {
            ApplyPath::ExprPatch => self.stats.expr_patches += 1,
            ApplyPath::SeededResolve => self.stats.seeded_resolves += 1,
            ApplyPath::FullRebuild => self.stats.full_rebuilds += 1,
        }
        obs::record(|| obs::Event::Count {
            name: "incr.dirty_stmts",
            value: outcome.dirty_stmts as u64,
        });
        obs::record(|| obs::Event::Count {
            name: "incr.reused_phases",
            value: outcome.reused_phases as u64,
        });
        obs::record(|| obs::Event::Count {
            name: match outcome.path {
                ApplyPath::ExprPatch => "incr.fast_path",
                _ => "incr.fallback",
            },
            value: 1,
        });
        Ok(outcome)
    }

    /// Picks the invalidation path, and for a reset its wire label, for an
    /// edit that already applied cleanly.
    fn classify(&self, edit: &Edit, applied: &Applied) -> ApplyPath {
        match edit {
            Edit::ReplaceExpr { .. } if applied.same_ids => ApplyPath::ExprPatch,
            // Identity can only fail for ReplaceExpr if the program did not
            // originate from the builder's emit order; fall back safely.
            Edit::ReplaceExpr { .. } => ApplyPath::FullRebuild,
            Edit::InsertStmt { .. } => ApplyPath::SeededResolve,
            Edit::DeleteStmt { at } => {
                // A simple, unlabeled, non-jump victim leaves label
                // structure and jump topology alone.
                match at.resolve(&self.prog) {
                    Some(t) => {
                        let s = self.prog.stmt(t);
                        if !s.kind.is_compound()
                            && !s.kind.is_jump()
                            && self.prog.labels_of(t).is_empty()
                        {
                            ApplyPath::SeededResolve
                        } else {
                            ApplyPath::FullRebuild
                        }
                    }
                    None => ApplyPath::FullRebuild,
                }
            }
            Edit::ToggleJump { .. } => ApplyPath::FullRebuild,
        }
    }

    /// [`ApplyPath::ExprPatch`]: ids are stable, so every artifact survives
    /// verbatim; only the edited statement's data dependences change.
    fn patch_expr(&mut self, applied: Applied, new_cfg: Cfg) -> EditOutcome {
        let Applied { prog, touched, .. } = applied;
        let target = touched.expect("replace always touches a statement");
        let mut seed = std::mem::take(&mut self.seed);
        let reused = seed.reused_phases();
        if let Some(pdg) = &mut seed.pdg {
            pdg.repoint_data_uses(&prog, &new_cfg, target);
        }
        seed.cfg = Some(new_cfg);
        self.prog = prog;
        self.seed = seed;
        EditOutcome {
            path: ApplyPath::ExprPatch,
            dirty_stmts: 1,
            reused_phases: reused,
            touched: Some(target),
        }
    }

    /// Both reset labels: keep the edited program's flowgraph and nothing
    /// else, as [`try_new`](EditSession::try_new) does.
    fn reset(&mut self, path: ApplyPath, applied: Applied, new_cfg: Cfg) -> EditOutcome {
        let dirty = applied.prog.len();
        self.prog = applied.prog;
        self.seed = AnalysisSeed {
            cfg: Some(new_cfg),
            ..AnalysisSeed::default()
        };
        EditOutcome {
            path,
            dirty_stmts: dirty,
            reused_phases: 0,
            touched: applied.touched,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edit::{EditExpr, JumpKind, NewStmt};
    use crate::gen::random_edit;
    use jumpslice_core::{agrawal_slice, conventional_slice, Criterion};
    use jumpslice_lang::{parse, print_program, StmtPath};
    use jumpslice_progen::{gen_structured, gen_unstructured, GenConfig};
    use jumpslice_testkit::Rng;

    /// Incremental-vs-scratch identity over every statement criterion, for
    /// the conventional and jump-repaired slicers.
    fn assert_matches_scratch(session: &mut EditSession) {
        let prog = session.prog().clone();
        let scratch = Analysis::new(&prog);
        session.with_analysis(|a| {
            for s in prog.stmt_ids() {
                let c = Criterion::at_stmt(s);
                assert_eq!(
                    conventional_slice(a, &c).stmts,
                    conventional_slice(&scratch, &c).stmts,
                    "conventional at {s:?} of\n{}",
                    print_program(&prog),
                );
                assert_eq!(
                    agrawal_slice(a, &c).stmts,
                    agrawal_slice(&scratch, &c).stmts,
                    "agrawal at {s:?} of\n{}",
                    print_program(&prog),
                );
            }
        });
    }

    #[test]
    fn expr_patch_reuses_everything_and_matches_scratch() {
        let p =
            parse("read(c); x = c + 1; if (x > 0) { y = x; } else { y = 2; } write(y);").unwrap();
        let mut s = EditSession::new(p);
        s.with_analysis(|a| a.warm());
        let out = s
            .apply(&Edit::ReplaceExpr {
                at: StmtPath::root(1),
                with: EditExpr::Num(5),
            })
            .unwrap();
        assert_eq!(out.path, ApplyPath::ExprPatch);
        assert_eq!(out.dirty_stmts, 1);
        assert_eq!(out.reused_phases, 3, "all three lazy artifacts survive");
        // The seeded analysis must not recompute anything.
        let stats = s.with_analysis(|a| {
            a.warm();
            a.stats()
        });
        assert_eq!(stats.reaching_defs, 0);
        assert_eq!(stats.pdg_builds, 0);
        assert_eq!(stats.pdom_builds, 0);
        assert_eq!(stats.lst_builds, 0);
        assert_matches_scratch(&mut s);
    }

    /// An insert and the delete of a simple statement reset the session
    /// under the `seeded_resolve` label: the whole program is dirty,
    /// nothing is reused, and each counts as a fallback.
    #[test]
    fn insert_and_delete_reset_under_the_seeded_label() {
        let p = parse("x = 1; while (x < 9) { x = x + 2; } write(x);").unwrap();
        let mut s = EditSession::new(p);
        s.with_analysis(|a| a.warm());

        let (out, events) = obs::capture(|| {
            s.apply(&Edit::InsertStmt {
                at: StmtPath::root(1),
                stmt: NewStmt::Assign {
                    var: "x".into(),
                    rhs: EditExpr::Num(0),
                },
            })
        });
        let out = out.unwrap();
        assert_eq!(out.path, ApplyPath::SeededResolve);
        assert_eq!(out.dirty_stmts, s.prog().len());
        assert_eq!(out.reused_phases, 0);
        assert_eq!(s.seed().reused_phases(), 0);
        let counts = obs::Metrics::of(&events).counts;
        assert_eq!(counts.get("incr.fallback"), Some(&1));
        assert_eq!(counts.get("incr.fast_path"), None);
        assert_matches_scratch(&mut s);

        // Delete the statement we just inserted.
        let out = s
            .apply(&Edit::DeleteStmt {
                at: StmtPath::root(1),
            })
            .unwrap();
        assert_eq!(out.path, ApplyPath::SeededResolve);
        assert_eq!(out.dirty_stmts, s.prog().len());
        assert_matches_scratch(&mut s);
        assert_eq!(s.stats().seeded_resolves, 2);
        assert_eq!(s.stats().full_rebuilds, 0);
    }

    /// No session keeps reaching definitions: not after a cold warm, a
    /// `vars` slice, or an edit on any path.
    #[test]
    fn no_seed_keeps_reaching_definitions() {
        let p = parse("read(c); x = c + 1; while (x < 9) { x = x + 2; } write(x);").unwrap();
        let mut s = EditSession::new(p);
        s.with_analysis(|a| a.warm());
        assert!(s.seed().reaching.is_none(), "after a cold warm");
        let x = s.prog().name("x").unwrap();
        let crit = Criterion::vars_at(s.prog().at_line(5), vec![x]);
        s.with_analysis(|a| agrawal_slice(a, &crit));
        assert!(s.seed().reaching.is_none(), "after a vars slice");
        for edit in [
            Edit::ReplaceExpr {
                at: StmtPath::root(1),
                with: EditExpr::Var("c".into()),
            },
            Edit::InsertStmt {
                at: StmtPath::root(2),
                stmt: NewStmt::Assign {
                    var: "x".into(),
                    rhs: EditExpr::Num(0),
                },
            },
            Edit::DeleteStmt {
                at: StmtPath::root(2),
            },
            Edit::ToggleJump {
                at: StmtPath::root(2).child(jumpslice_lang::BlockSel::Body, 0),
                jump: JumpKind::Break,
            },
        ] {
            let out = s.apply(&edit).unwrap();
            assert!(s.seed().reaching.is_none(), "after {:?}", out.path);
            s.with_analysis(|a| a.warm());
            assert!(
                s.seed().reaching.is_none(),
                "after a warm past {:?}",
                out.path
            );
            assert_matches_scratch(&mut s);
        }
        let st = s.stats();
        assert_eq!(
            (st.expr_patches, st.seeded_resolves, st.full_rebuilds),
            (1, 2, 1)
        );
    }

    #[test]
    fn toggle_falls_back_and_matches_scratch() {
        let p = parse("x = 1; while (x < 9) { x = x + 2; y = x; } write(y);").unwrap();
        let mut s = EditSession::new(p);
        s.with_analysis(|a| a.warm());
        let out = s
            .apply(&Edit::ToggleJump {
                at: StmtPath::root(1).child(jumpslice_lang::BlockSel::Body, 1),
                jump: JumpKind::Break,
            })
            .unwrap();
        assert_eq!(out.path, ApplyPath::FullRebuild);
        assert_eq!(out.reused_phases, 0);
        assert_eq!(s.stats().full_rebuilds, 1);
        assert_matches_scratch(&mut s);
    }

    #[test]
    fn rejected_edits_leave_the_session_untouched() {
        let p = parse("x = 1; write(x);").unwrap();
        let mut s = EditSession::new(p);
        s.with_analysis(|a| a.warm());
        let before = print_program(s.prog());

        // break outside any loop: validation failure.
        let err = s
            .apply(&Edit::ToggleJump {
                at: StmtPath::root(0),
                jump: JumpKind::Break,
            })
            .unwrap_err();
        assert!(matches!(err, EditError::Invalid(_)));
        // Unresolvable path.
        let err = s
            .apply(&Edit::DeleteStmt {
                at: StmtPath::root(9),
            })
            .unwrap_err();
        assert_eq!(err, EditError::PathNotFound);
        assert_eq!(print_program(s.prog()), before);
        assert_eq!(s.stats().rejected, 2);
        assert_eq!(s.stats().edits, 0);
        // And the session still answers correctly.
        assert_matches_scratch(&mut s);
    }

    #[test]
    fn stranding_edit_is_rejected_as_unanalyzable() {
        let p = parse("L: x = x + 1; if (x < 9) goto L; write(x);").unwrap();
        let mut s = EditSession::new(p);
        // Turning the write into `goto L` leaves no path to the exit.
        let err = s
            .apply(&Edit::ToggleJump {
                at: StmtPath::root(2),
                jump: JumpKind::Goto("L".into()),
            })
            .unwrap_err();
        assert_eq!(err, EditError::Unanalyzable);
        assert_matches_scratch(&mut s);
    }

    #[test]
    fn try_new_rejects_unanalyzable_programs_without_panicking() {
        // An infinite loop: the write can never reach the exit.
        let p = parse("L: x = x + 1; goto L; write(x);").unwrap();
        assert_eq!(
            EditSession::try_new(p).unwrap_err(),
            EditError::Unanalyzable
        );
        // And the analyzable case still opens.
        let q = parse("x = 1; write(x);").unwrap();
        assert!(EditSession::try_new(q).is_ok());
    }

    #[test]
    fn random_edit_scripts_match_scratch() {
        jumpslice_testkit::check(12, |rng| {
            let seed = rng.gen_range(0u64..500);
            let structured = rng.gen_bool(0.5);
            let cfg = GenConfig {
                jump_density: if structured { 0.0 } else { 0.25 },
                ..GenConfig::sized(seed, 20)
            };
            let p = if structured {
                gen_structured(&cfg)
            } else {
                gen_unstructured(&cfg)
            };
            let mut session = EditSession::new(p);
            let mut edit_rng = Rng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
            for _ in 0..6 {
                let edit = random_edit(&mut edit_rng, session.prog());
                let _ = session.apply(&edit);
                assert_matches_scratch(&mut session);
            }
            assert_eq!(
                session.stats().edits + session.stats().rejected,
                6,
                "every edit accounted for"
            );
        });
    }
}
