//! The closure differential mode (`difftest --mode closure`).
//!
//! Every closure in the product, backward and forward, walks the PDG's SCC
//! condensation (`jumpslice_pdg::Condensation`), whose data half runs
//! through φs. This mode holds that walk against the direct walks over the
//! explicit edges of [`oracle::DenseDeps`], on four things:
//!
//! * the backward and the forward closure of each criterion statement;
//! * closures layered one after another onto a criterion's closure,
//!   seeded by the next criterion and by every live unconditional jump and
//!   sharing the φ-only components they entered, as the Figure-7 kernel's
//!   admissions are: after each layer the same set, and a delta listing
//!   each newly inserted statement exactly once;
//! * chops between consecutive criteria.
//!
//! Two sweeps per seed. The *cold* sweep compares on a fresh analysis. The
//! *edit* sweep drives a [`jumpslice_incr::EditSession`] through a random
//! edit script and, after every accepted edit, holds the session's
//! (selectively patched) analysis against the oracle on a cold analysis of
//! the same program, so a condensation left stale by an invalidation path
//! surfaces here. Mismatches are minimized like the incremental mode's:
//! greedy edit drops, then the shared statement shrinker.

use crate::harness::{pick_criteria, DiffConfig, Family};
use crate::oracle;
use crate::shrink::{is_valid_candidate, shrink};
use jumpslice_core::{chop, Analysis};
use jumpslice_dataflow::{BitSet, StmtSet};
use jumpslice_incr::{random_edit, Edit, EditSession};
use jumpslice_lang::{print_program, Program};
use jumpslice_testkit::Rng;

/// Knobs for one closure differential session.
#[derive(Clone, Debug)]
pub struct ClosureConfig {
    /// First seed (inclusive).
    pub start_seed: u64,
    /// Number of seeds; each seed drives one program per family.
    pub seeds: u64,
    /// Families to sweep; `None` means all three.
    pub family: Option<Family>,
    /// Approximate statements per generated program.
    pub target_stmts: usize,
    /// Goto density for the unstructured family.
    pub jump_density: f64,
    /// Maximum criteria compared per program state.
    pub max_criteria: usize,
    /// Edits attempted per seed's edit sweep (rejected edits count).
    pub edits_per_script: usize,
    /// Whether to minimize failing programs/scripts before reporting.
    pub shrink: bool,
    /// Stop after this many findings.
    pub max_findings: usize,
}

impl Default for ClosureConfig {
    fn default() -> Self {
        ClosureConfig {
            start_seed: 0,
            // 100 seeds × 3 families = 300 programs per default run.
            seeds: 100,
            family: None,
            target_stmts: 30,
            jump_density: 0.3,
            max_criteria: 4,
            edits_per_script: 4,
            shrink: true,
            max_findings: 4,
        }
    }
}

impl ClosureConfig {
    /// The fixed-seed smoke configuration CI runs.
    pub fn smoke() -> ClosureConfig {
        ClosureConfig {
            seeds: 12,
            target_stmts: 25,
            ..ClosureConfig::default()
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

/// One closure mismatch, minimized when enabled.
#[derive(Clone, Debug)]
pub struct ClosureFinding {
    /// Seed of the generating draw.
    pub seed: u64,
    /// Family of the generating draw.
    pub family: Family,
    /// Human-readable failure description from the (shrunk) replay.
    pub detail: String,
    /// The (shrunk) program text.
    pub program: String,
    /// The (shrunk) edit script leading to the mismatching state (empty
    /// for a cold-sweep mismatch).
    pub script: Vec<Edit>,
}

/// Aggregate statistics of one closure differential session.
#[derive(Clone, Debug, Default)]
pub struct ClosureReport {
    /// Programs swept (one per seed × family).
    pub programs: usize,
    /// Program states compared: the cold state plus one per accepted edit.
    pub states: usize,
    /// Edits accepted across all edit sweeps.
    pub edits_applied: usize,
    /// Individual equality checks executed (backward and forward closures,
    /// layered closures and their deltas, chops).
    pub comparisons: usize,
    /// Confirmed product-vs-oracle mismatches.
    pub findings: Vec<ClosureFinding>,
}

/// Holds the closures of `product` against the oracle's direct walks over
/// the explicit edges of `p`, with criteria and jumps picked on
/// `reference`, both analyses of `p`. Returns the comparison count or the
/// first mismatch.
fn compare(
    p: &Program,
    product: &Analysis<'_>,
    reference: &Analysis<'_>,
    max_criteria: usize,
) -> Result<usize, String> {
    let stmts = pick_criteria(p, reference, max_criteria);
    let pdg = product.pdg();
    let ref_pdg = &oracle::DenseDeps::of(p, reference.cfg());
    let jumps = oracle::jumps_in_pdom_preorder(reference);
    let dependents = oracle::dependents(ref_pdg);
    let mut comparisons = 0;

    for (i, &c) in stmts.iter().enumerate() {
        let line = p.line_of(c);
        let base = oracle::backward_closure(ref_pdg, [c]);
        comparisons += 2;
        if pdg.backward_closure([c]) != base {
            return Err(format!("backward closure at line {line}: product ≠ oracle"));
        }
        if pdg.forward_closure([c]) != oracle::forward_closure(&dependents, [c]) {
            return Err(format!("forward closure at line {line}: product ≠ oracle"));
        }

        // Layer closures onto `base`, each onto the union so far, which is
        // closed under dependence, sharing their marks.
        let next = stmts[(i + 1) % stmts.len()];
        let mut got = StmtSet::new();
        let mut entered = BitSet::new(pdg.condensation().num_components());
        pdg.backward_closure_delta([c], &mut got, &mut entered, &mut Vec::new());
        let mut want = base;
        for seed in std::iter::once(next).chain(jumps.iter().copied()) {
            let at = format!("line {} onto the closure of line {line}", p.line_of(seed));
            let before = want.clone();
            oracle::backward_closure_into(ref_pdg, [seed], &mut want);
            let mut delta = Vec::new();
            pdg.backward_closure_delta([seed], &mut got, &mut entered, &mut delta);
            comparisons += 2;
            if got != want {
                return Err(format!("layered closure of {at}: product ≠ oracle"));
            }
            let fresh: StmtSet = want.iter().filter(|&s| !before.contains(s)).collect();
            if delta.len() != fresh.len() || delta.into_iter().collect::<StmtSet>() != fresh {
                return Err(format!(
                    "delta of {at}: not the newly inserted statements, each once"
                ));
            }
        }
    }

    for w in stmts.windows(2) {
        let (src, sink) = (w[0], w[1]);
        let want = oracle::forward_closure(&dependents, [src])
            .intersection(&oracle::backward_closure(ref_pdg, [sink]));
        comparisons += 1;
        if chop(product, src, sink).stmts != want {
            return Err(format!(
                "chop lines {}→{}: product ≠ oracle",
                p.line_of(src),
                p.line_of(sink)
            ));
        }
    }
    Ok(comparisons)
}

/// The cold sweep: one fresh analysis of `p`, against itself.
fn cold_sweep(p: &Program, max_criteria: usize) -> Result<usize, String> {
    let a = Analysis::new(p);
    compare(p, &a, &a, max_criteria)
}

/// One edit-state comparison: the session's selectively-patched analysis
/// against the oracle on a cold analysis of the same program.
fn edit_sweep(session: &mut EditSession, max_criteria: usize) -> Result<usize, String> {
    let p = session.prog().clone();
    let cold = Analysis::new(&p);
    session.with_analysis(|a| compare(&p, a, &cold, max_criteria))
}

/// Replays `script` on a fresh session over `p` (cold sweep first, edit
/// sweep after each accepted edit). Returns the first mismatch detail.
fn replay(p: &Program, script: &[Edit], max_criteria: usize) -> Option<String> {
    if !is_valid_candidate(p) {
        return None;
    }
    if let Err(detail) = cold_sweep(p, max_criteria) {
        return Some(detail);
    }
    let mut session = EditSession::new(p.clone());
    for edit in script {
        if session.apply(edit).is_err() {
            continue;
        }
        if let Err(detail) = edit_sweep(&mut session, max_criteria) {
            return Some(detail);
        }
    }
    None
}

/// Minimizes a failing (program, script) pair: greedy single-edit drops,
/// then the shared statement shrinker with the surviving script replayed
/// as the failure predicate.
fn shrink_pair(p: &Program, script: &[Edit], max_criteria: usize) -> (Program, Vec<Edit>) {
    let mut cur = script.to_vec();
    let fails = |q: &Program, s: &[Edit]| replay(q, s, max_criteria).is_some();

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

    let small = shrink(p, &|q| fails(q, &cur));
    (small, cur)
}

/// Runs the closure differential session described by `cfg`.
pub fn run_closuretest(cfg: &ClosureConfig) -> ClosureReport {
    run_closuretest_with(cfg, |_| {})
}

/// Like [`run_closuretest`], invoking `progress` after each program (the
/// binary uses this for live output).
pub fn run_closuretest_with(
    cfg: &ClosureConfig,
    mut progress: impl FnMut(&ClosureReport),
) -> ClosureReport {
    let mut report = ClosureReport::default();
    let gen_cfg = cfg.gen_cfg();

    'seeds: for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        for (fi, family) in cfg.families().into_iter().enumerate() {
            if report.findings.len() >= cfg.max_findings {
                break 'seeds;
            }
            let p = family.generate(seed, &gen_cfg);
            report.programs += 1;
            let mut script: Vec<Edit> = Vec::new();

            let mut mismatch = match cold_sweep(&p, cfg.max_criteria) {
                Ok(n) => {
                    report.states += 1;
                    report.comparisons += n;
                    None
                }
                Err(detail) => Some(detail),
            };
            if mismatch.is_none() {
                // Same rng derivation as the incremental mode, so a seed's
                // edit script is reproducible across modes.
                let mut rng = Rng::seed_from_u64(seed.wrapping_mul(3).wrapping_add(fi as u64));
                let mut session = EditSession::new(p.clone());
                for _ in 0..cfg.edits_per_script {
                    let edit = random_edit(&mut rng, session.prog());
                    if session.apply(&edit).is_err() {
                        continue;
                    }
                    script.push(edit);
                    report.edits_applied += 1;
                    match edit_sweep(&mut session, cfg.max_criteria) {
                        Ok(n) => {
                            report.states += 1;
                            report.comparisons += n;
                        }
                        Err(detail) => {
                            mismatch = Some(detail);
                            break;
                        }
                    }
                }
            }

            if let Some(detail) = mismatch {
                let (small, small_script) = if cfg.shrink {
                    shrink_pair(&p, &script, cfg.max_criteria)
                } else {
                    (p.clone(), script.clone())
                };
                let detail = replay(&small, &small_script, cfg.max_criteria).unwrap_or(detail);
                report.findings.push(ClosureFinding {
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

    #[test]
    fn smoke_run_is_mismatch_free() {
        let cfg = ClosureConfig {
            seeds: 4,
            target_stmts: 25,
            ..ClosureConfig::default()
        };
        let report = run_closuretest(&cfg);
        assert_eq!(report.programs, 12);
        assert!(
            report.states > report.programs,
            "edit states were swept: {report:?}"
        );
        assert!(report.edits_applied > 0, "{report:?}");
        assert!(report.comparisons > 0, "{report:?}");
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }

    #[test]
    fn single_family_knob_restricts_the_sweep() {
        let cfg = ClosureConfig {
            seeds: 3,
            target_stmts: 20,
            family: Some(Family::Unstructured),
            ..ClosureConfig::default()
        };
        let report = run_closuretest(&cfg);
        assert_eq!(report.programs, 3);
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }
}
