//! The incremental-vs-scratch differential mode (`difftest --mode incr`).
//!
//! [`jumpslice_incr::EditSession`] promises one thing: slicing through a
//! session after any sequence of edits is *identical* to slicing a freshly
//! analyzed copy of the edited program — every registered slicer, every
//! criterion, whichever path (expression patch, or a reset labelled
//! `seeded_resolve` or `full_rebuild`) each edit took. This module fuzzes exactly that contract:
//! seeded programs from the same three families as the projection fuzzer,
//! random edit scripts from [`jumpslice_incr::random_edit`], and after
//! **every accepted edit** a full equality sweep of all eight slicers
//! against a cold [`Analysis`]. The same sweep holds the session's PDG
//! data dependences, expanded through their φs row by row, to the explicit
//! edges of the dense oracle ([`oracle::DenseDeps`]) on the edited
//! program, and the seeds of a `vars_at(s, uses(s))` criterion at each
//! picked statement to the oracle's.
//!
//! A mismatch is minimized on two axes before reporting
//! ([`shrink_script`]): the edit script (greedy single-edit drops, then
//! payload simplification) and the base program (the existing statement
//! shrinker, replaying the surviving script as the failure predicate).

use crate::harness::{pick_criteria, DiffConfig, Family};
use crate::oracle;
use crate::shrink::{is_valid_candidate, shrink};
use crate::ALGOS;
use jumpslice_core::{Analysis, BatchSlicer, Criterion};
use jumpslice_incr::{random_edit, Edit, EditExpr, EditSession, NewStmt};
use jumpslice_lang::{print_program, Program, StmtId};
use jumpslice_testkit::Rng;

/// Knobs for one incremental fuzzing session.
#[derive(Clone, Debug)]
pub struct IncrConfig {
    /// First seed (inclusive).
    pub start_seed: u64,
    /// Number of seeds; each seed drives one edit script per family.
    pub seeds: u64,
    /// Families to fuzz; `None` means all three.
    pub family: Option<Family>,
    /// Approximate statements per generated base program.
    pub target_stmts: usize,
    /// Goto density for the unstructured family.
    pub jump_density: f64,
    /// Edits attempted per script (rejected edits count toward this).
    pub edits_per_script: usize,
    /// Maximum criteria compared per equality sweep.
    pub max_criteria: usize,
    /// Whether to minimize failing scripts and programs before reporting.
    pub shrink: bool,
    /// Stop after this many findings.
    pub max_findings: usize,
}

impl Default for IncrConfig {
    fn default() -> Self {
        IncrConfig {
            start_seed: 0,
            seeds: 40,
            family: None,
            target_stmts: 30,
            jump_density: 0.3,
            edits_per_script: 6,
            max_criteria: 4,
            shrink: true,
            max_findings: 4,
        }
    }
}

impl IncrConfig {
    /// The fixed-seed smoke configuration CI runs.
    pub fn smoke() -> IncrConfig {
        IncrConfig {
            seeds: 12,
            target_stmts: 25,
            ..IncrConfig::default()
        }
    }

    fn families(&self) -> Vec<Family> {
        match self.family {
            Some(f) => vec![f],
            None => Family::ALL.to_vec(),
        }
    }

    /// Generation knobs repackaged for [`Family::generate`].
    fn gen_cfg(&self) -> DiffConfig {
        DiffConfig {
            target_stmts: self.target_stmts,
            jump_density: self.jump_density,
            ..DiffConfig::default()
        }
    }
}

/// One incremental-equivalence violation, minimized when enabled.
#[derive(Clone, Debug)]
pub struct IncrFinding {
    /// Seed of the generating draw.
    pub seed: u64,
    /// Family of the generating draw.
    pub family: Family,
    /// Human-readable failure description from the (shrunk) replay.
    pub detail: String,
    /// The (shrunk) base program text.
    pub program: String,
    /// The (shrunk) edit script that still reproduces the mismatch.
    pub script: Vec<Edit>,
}

/// Aggregate statistics of one incremental fuzzing session.
#[derive(Clone, Debug, Default)]
pub struct IncrReport {
    /// Edit scripts driven (one per seed × family).
    pub scripts: usize,
    /// Edits accepted by the session.
    pub edits_applied: usize,
    /// Edits rejected (invalid path, stranded jump, …) — the session must
    /// survive these untouched, so they stay in the stream.
    pub edits_rejected: usize,
    /// Accepted edits that took the expression-patch fast path.
    pub expr_patches: usize,
    /// Accepted edits that reset the session under the `seeded_resolve`
    /// label (inserts, and deletes of simple statements).
    pub seeded_resolves: usize,
    /// Accepted edits that reset the session under the `full_rebuild`
    /// label.
    pub full_rebuilds: usize,
    /// (slicer, criterion) identity comparisons executed.
    pub comparisons: usize,
    /// Statements whose PDG data dependences, expanded through the φs,
    /// were compared with the dense oracle's explicit edges (sessions
    /// holding a PDG only).
    pub data_rows: usize,
    /// `vars_at` criteria whose seeds were compared.
    pub vars_seeds: usize,
    /// Confirmed incremental-vs-scratch mismatches.
    pub findings: Vec<IncrFinding>,
}

/// What one [`sweep`] compared.
#[derive(Clone, Copy, Debug, Default)]
struct Swept {
    slices: usize,
    data_rows: usize,
    vars_seeds: usize,
}

/// Compares every registered slicer through `session` against a cold
/// analysis of the same program, then the seeds of a `vars_at` criterion
/// at each picked statement, then the session's PDG data dependences
/// (when it holds a PDG), both against the dense oracle's explicit edges.
/// Returns the comparison counts, or the first mismatch.
fn sweep(session: &mut EditSession, max_criteria: usize) -> Result<Swept, String> {
    let p = session.prog().clone();
    let cold = Analysis::new(&p);
    let stmts = pick_criteria(&p, &cold, max_criteria);
    let mut swept = Swept {
        slices: slices(session, &cold, &stmts)?,
        ..Swept::default()
    };
    let dense = oracle::DenseDeps::of(&p, cold.cfg());
    for &s in &stmts {
        let c = Criterion::vars_at(s, p.uses(s));
        let (want, got) = (
            dense.seeds(&cold, &c),
            session.with_analysis(|a| c.seeds(a)),
        );
        if got != want {
            return Err(format!(
                "vars_at seeds at line {}: incremental {:?} vs oracle {:?}",
                p.line_of(s),
                lines(&p, &got),
                lines(&p, &want)
            ));
        }
        swept.vars_seeds += 1;
    }
    if let Some(pdg) = &session.seed().pdg {
        for s in p.stmt_ids() {
            let (got, want) = (pdg.data().deps(s), &dense.data[s.index()]);
            if got != *want {
                return Err(format!(
                    "data edges into line {}: incremental {:?} vs oracle {:?}",
                    p.line_of(s),
                    lines(&p, &got),
                    lines(&p, want)
                ));
            }
            swept.data_rows += 1;
        }
    }
    Ok(swept)
}

/// The lines of `stmts`, for mismatch reports.
fn lines(p: &Program, stmts: &[StmtId]) -> Vec<usize> {
    stmts.iter().map(|&s| p.line_of(s)).collect()
}

/// The slicer half of [`sweep`]: every registered slicer at the statement
/// criteria `stmts`, through `session` and through `cold`.
fn slices(
    session: &mut EditSession,
    cold: &Analysis<'_>,
    stmts: &[StmtId],
) -> Result<usize, String> {
    let p = cold.prog();
    let criteria: Vec<Criterion> = stmts.iter().copied().map(Criterion::at_stmt).collect();
    if criteria.is_empty() {
        return Ok(0);
    }
    let cold_batch = BatchSlicer::new(cold);
    let mut done = 0;
    for algo in ALGOS {
        let scratch = cold_batch.try_slice_all(algo.f, &criteria);
        let warm = session.with_analysis(|a| BatchSlicer::new(a).try_slice_all(algo.f, &criteria));
        match (scratch, warm) {
            (Ok(s), Ok(w)) => {
                for (i, (ss, ws)) in s.iter().zip(&w).enumerate() {
                    done += 1;
                    if ss.stmts != ws.stmts || ss.moved_labels != ws.moved_labels {
                        return Err(format!(
                            "{} at line {}: incremental {} stmts vs scratch {} stmts",
                            algo.name,
                            p.line_of(stmts[i]),
                            ws.len(),
                            ss.len()
                        ));
                    }
                }
            }
            // A deterministic panic in both worlds is the projection
            // fuzzer's finding, not an incrementality bug.
            (Err(_), Err(_)) => {}
            (Ok(_), Err(_)) => {
                return Err(format!("{}: panics only through the session", algo.name));
            }
            (Err(_), Ok(_)) => {
                return Err(format!("{}: panics only from scratch", algo.name));
            }
        }
    }
    Ok(done)
}

impl IncrReport {
    fn add(&mut self, swept: Swept) {
        self.comparisons += swept.slices;
        self.data_rows += swept.data_rows;
        self.vars_seeds += swept.vars_seeds;
    }
}

/// Replays `script` on a fresh session over `p`. Returns the mismatch
/// detail if the equality sweep fails at any step (edits the session
/// rejects are skipped, as in the original run).
fn replay(p: &Program, script: &[Edit], max_criteria: usize) -> Option<String> {
    if !is_valid_candidate(p) {
        return None;
    }
    let mut session = EditSession::new(p.clone());
    if let Err(detail) = sweep(&mut session, max_criteria) {
        return Some(detail);
    }
    for edit in script {
        if session.apply(edit).is_err() {
            continue;
        }
        if let Err(detail) = sweep(&mut session, max_criteria) {
            return Some(detail);
        }
    }
    None
}

/// Strictly simpler payload variants of one edit, for script shrinking.
fn simpler_edits(edit: &Edit) -> Vec<Edit> {
    match edit {
        Edit::ReplaceExpr { at, with } if *with != EditExpr::Num(0) => vec![Edit::ReplaceExpr {
            at: at.clone(),
            with: EditExpr::Num(0),
        }],
        Edit::InsertStmt { at, stmt } if *stmt != NewStmt::Skip => vec![Edit::InsertStmt {
            at: at.clone(),
            stmt: NewStmt::Skip,
        }],
        _ => Vec::new(),
    }
}

/// Minimizes a failing (program, edit script) pair: greedy single-edit
/// drops, payload simplification, then base-program shrinking with the
/// surviving script replayed as the failure predicate.
pub fn shrink_script(p: &Program, script: &[Edit], max_criteria: usize) -> (Program, Vec<Edit>) {
    let mut cur = script.to_vec();
    let fails = |q: &Program, s: &[Edit]| replay(q, s, max_criteria).is_some();

    // Phase 1: drop whole edits, first-to-last, restarting on progress.
    'drop: loop {
        for i in 0..cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if fails(p, &cand) {
                cur = cand;
                continue 'drop;
            }
        }
        break;
    }

    // Phase 2: simplify surviving edit payloads.
    'simplify: loop {
        for i in 0..cur.len() {
            for simpler in simpler_edits(&cur[i]) {
                let mut cand = cur.clone();
                cand[i] = simpler;
                if fails(p, &cand) {
                    cur = cand;
                    continue 'simplify;
                }
            }
        }
        break;
    }

    // Phase 3: shrink the base program under the fixed script. Edits whose
    // paths stop resolving are rejected during replay, which is fine — the
    // mismatch must survive on what remains.
    let small = shrink(p, &|q| fails(q, &cur));

    // Phase 4: the smaller program may need fewer edits still.
    'after: loop {
        for i in 0..cur.len() {
            let mut cand = cur.clone();
            cand.remove(i);
            if fails(&small, &cand) {
                cur = cand;
                continue 'after;
            }
        }
        break;
    }

    (small, cur)
}

/// Runs the incremental differential session described by `cfg`.
pub fn run_incrtest(cfg: &IncrConfig) -> IncrReport {
    run_incrtest_with(cfg, |_| {})
}

/// Like [`run_incrtest`], invoking `progress` after each script (the
/// binary uses this for live output).
pub fn run_incrtest_with(cfg: &IncrConfig, mut progress: impl FnMut(&IncrReport)) -> IncrReport {
    let mut report = IncrReport::default();
    let gen_cfg = cfg.gen_cfg();

    'seeds: for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        for (fi, family) in cfg.families().into_iter().enumerate() {
            if report.findings.len() >= cfg.max_findings {
                break 'seeds;
            }
            let p = family.generate(seed, &gen_cfg);
            let mut rng = Rng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(fi as u64));
            let mut session = EditSession::new(p.clone());
            let mut script: Vec<Edit> = Vec::new();
            report.scripts += 1;

            let mut mismatch = match sweep(&mut session, cfg.max_criteria) {
                Ok(n) => {
                    report.add(n);
                    None
                }
                Err(detail) => Some(detail),
            };
            if mismatch.is_none() {
                for _ in 0..cfg.edits_per_script {
                    let edit = random_edit(&mut rng, session.prog());
                    if session.apply(&edit).is_err() {
                        report.edits_rejected += 1;
                        continue;
                    }
                    script.push(edit);
                    report.edits_applied += 1;
                    match sweep(&mut session, cfg.max_criteria) {
                        Ok(n) => report.add(n),
                        Err(detail) => {
                            mismatch = Some(detail);
                            break;
                        }
                    }
                }
            }

            let stats = session.stats();
            report.expr_patches += stats.expr_patches;
            report.seeded_resolves += stats.seeded_resolves;
            report.full_rebuilds += stats.full_rebuilds;

            if let Some(detail) = mismatch {
                let (small, small_script) = if cfg.shrink {
                    shrink_script(&p, &script, cfg.max_criteria)
                } else {
                    (p.clone(), script.clone())
                };
                let detail = replay(&small, &small_script, cfg.max_criteria).unwrap_or(detail);
                report.findings.push(IncrFinding {
                    seed,
                    family,
                    detail,
                    program: print_program(&small),
                    script: small_script,
                });
            }
            progress(&report);
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use jumpslice_lang::parse;

    #[test]
    fn smoke_run_is_mismatch_free() {
        let cfg = IncrConfig {
            seeds: 4,
            target_stmts: 20,
            ..IncrConfig::default()
        };
        let report = run_incrtest(&cfg);
        assert_eq!(report.scripts, 12);
        assert!(report.edits_applied > 0, "{report:?}");
        assert!(report.comparisons > 0, "{report:?}");
        assert!(report.data_rows > 0, "{report:?}");
        assert!(report.vars_seeds > 0, "{report:?}");
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }

    #[test]
    fn fast_paths_actually_engage() {
        let cfg = IncrConfig {
            seeds: 10,
            target_stmts: 25,
            ..IncrConfig::default()
        };
        let report = run_incrtest(&cfg);
        // Across 30 scripts the generator's 40% expression-replacement
        // weight must hit the patch path, and inserts/deletes and toggles
        // both reset labels — otherwise the fuzzer skips an edit kind.
        assert!(report.expr_patches > 0, "{report:?}");
        assert!(report.seeded_resolves > 0, "{report:?}");
        assert!(report.full_rebuilds > 0, "{report:?}");
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }

    #[test]
    fn shrinker_minimizes_scripts_and_programs() {
        // Manufacture a "failure": the replay predicate inside
        // shrink_script is the real one, so instead check the phases on a
        // synthetic predicate by shrinking a passing pair — the result must
        // replay clean and be no larger than the input.
        let p = parse("read(a); b = a + 1; write(b); write(a);").unwrap();
        let script = vec![Edit::ReplaceExpr {
            at: jumpslice_lang::StmtPath::root(1),
            with: EditExpr::Num(3),
        }];
        assert!(replay(&p, &script, 4).is_none());
        // A passing pair has nothing to preserve: every drop "fails to
        // fail", so the script survives intact and the program shrinks
        // only if the (vacuously false) predicate held — it doesn't.
        let (q, s) = shrink_script(&p, &script, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(q.len(), p.len());
    }
}
