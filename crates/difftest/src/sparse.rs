//! The sparse-vs-dense differential mode (`difftest --mode sparse`).
//!
//! `jumpslice_core::agrawal_slice` runs the sparse change-driven Figure-7
//! kernel; [`crate::oracle`] keeps the paper's dense round-based loop. The
//! two must be bit-identical: same statements, same `traversals`, same
//! `moved_labels`, and — through the traced pair — identical provenance
//! (the same `Why`, including the admission round and the npd/nls pair,
//! for every statement). Figures 12 and 13 read the kernel's chain index
//! too, so `structured_slice` and `conservative_slice` are held the same
//! way to the oracle's tree-walk restatements, on every family (Figure 12
//! is well defined off its structured domain, just not always correct).
//! This module sweeps seeded programs from the three projection-fuzzer
//! families and asserts exactly that; a mismatch is shrunk with the shared
//! statement shrinker before reporting.

use crate::harness::{pick_criteria, DiffConfig, Family};
use crate::oracle::{
    agrawal_slice_dense, agrawal_slice_dense_traced, conservative_slice_dense,
    structured_slice_dense, DenseDeps,
};
use crate::shrink::{is_valid_candidate, shrink};
use jumpslice_core::{
    agrawal_slice, agrawal_slice_traced, conservative_slice, structured_slice, Analysis, Criterion,
    Slice, SliceFn,
};
use jumpslice_lang::{print_program, Program};

/// Knobs for one sparse-vs-dense differential session.
#[derive(Clone, Debug)]
pub struct SparseConfig {
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
    /// Maximum criteria compared per program.
    pub max_criteria: usize,
    /// Whether to minimize failing programs before reporting.
    pub shrink: bool,
    /// Stop after this many findings.
    pub max_findings: usize,
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            start_seed: 0,
            // 100 seeds × 3 families = 300 programs per default run.
            seeds: 100,
            family: None,
            target_stmts: 30,
            jump_density: 0.3,
            max_criteria: 4,
            shrink: true,
            max_findings: 4,
        }
    }
}

impl SparseConfig {
    /// The fixed-seed smoke configuration CI runs.
    pub fn smoke() -> SparseConfig {
        SparseConfig {
            seeds: 12,
            target_stmts: 25,
            ..SparseConfig::default()
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

/// One sparse-vs-dense violation, minimized when enabled.
#[derive(Clone, Debug)]
pub struct SparseFinding {
    /// Seed of the generating draw.
    pub seed: u64,
    /// Family of the generating draw.
    pub family: Family,
    /// Human-readable failure description from the (shrunk) replay.
    pub detail: String,
    /// The (shrunk) program text.
    pub program: String,
}

/// Aggregate statistics of one sparse-vs-dense session.
#[derive(Clone, Debug, Default)]
pub struct SparseReport {
    /// Programs swept (one per seed × family).
    pub programs: usize,
    /// Criteria compared across all programs.
    pub criteria: usize,
    /// Individual equality checks executed (slice sets, traversal counts
    /// and moved labels of Figures 7, 12 and 13; per-statement provenance
    /// of Figure 7).
    pub comparisons: usize,
    /// Confirmed sparse-vs-dense mismatches.
    pub findings: Vec<SparseFinding>,
}

/// A dense reference slicer over the oracle's explicit edges.
type DenseFn = fn(&Analysis<'_>, &DenseDeps, &Criterion) -> Slice;

/// The product slicers held to a dense reference, with their names.
const PAIRS: [(&str, SliceFn, DenseFn); 3] = [
    ("fig7", agrawal_slice, agrawal_slice_dense),
    ("fig12", structured_slice, structured_slice_dense),
    ("fig13", conservative_slice, conservative_slice_dense),
];

/// Sweeps one program: every picked criterion, plain and traced, sparse
/// against dense. Returns `(criteria, comparisons)` or the first mismatch.
fn sweep(p: &Program, max_criteria: usize) -> Result<(usize, usize), String> {
    let a = Analysis::new(p);
    let deps = DenseDeps::of(p, a.cfg());
    let stmts = pick_criteria(p, &a, max_criteria);
    let mut comparisons = 0;
    for &c in &stmts {
        let line = p.line_of(c);
        let crit = Criterion::at_stmt(c);

        for (algo, product, reference) in PAIRS {
            let sparse = product(&a, &crit);
            let dense = reference(&a, &deps, &crit);
            comparisons += 3;
            if sparse.stmts != dense.stmts {
                return Err(format!(
                    "{algo} at criterion line {line}: sparse slice has {} stmts, dense {}",
                    sparse.len(),
                    dense.len()
                ));
            }
            if sparse.traversals != dense.traversals {
                return Err(format!(
                    "{algo} at criterion line {line}: sparse took {} traversals, dense {}",
                    sparse.traversals, dense.traversals
                ));
            }
            if sparse.moved_labels != dense.moved_labels {
                return Err(format!(
                    "{algo} at criterion line {line}: moved-label sets differ \
                     (sparse {:?} vs dense {:?})",
                    sparse.moved_labels, dense.moved_labels
                ));
            }
        }

        let (ts, tp) = agrawal_slice_traced(&a, &crit);
        let (rs, rp) = agrawal_slice_dense_traced(&a, &deps, &crit);
        comparisons += 1;
        if ts != rs {
            return Err(format!(
                "criterion line {line}: traced sparse and traced dense slices differ"
            ));
        }
        for s in p.stmt_ids() {
            comparisons += 1;
            if tp.why(s) != rp[s.index()] {
                return Err(format!(
                    "criterion line {line}: provenance for line {} differs \
                     (sparse {:?} vs dense {:?})",
                    p.line_of(s),
                    tp.why(s),
                    rp[s.index()]
                ));
            }
        }
    }
    Ok((stmts.len(), comparisons))
}

/// The sweep as a shrink predicate: does `p` still expose a mismatch?
fn mismatch(p: &Program, max_criteria: usize) -> Option<String> {
    if !is_valid_candidate(p) {
        return None;
    }
    sweep(p, max_criteria).err()
}

/// Runs the sparse-vs-dense differential session described by `cfg`.
pub fn run_sparsetest(cfg: &SparseConfig) -> SparseReport {
    run_sparsetest_with(cfg, |_| {})
}

/// Like [`run_sparsetest`], invoking `progress` after each program (the
/// binary uses this for live output).
pub fn run_sparsetest_with(
    cfg: &SparseConfig,
    mut progress: impl FnMut(&SparseReport),
) -> SparseReport {
    let mut report = SparseReport::default();
    let gen_cfg = cfg.gen_cfg();

    'seeds: for seed in cfg.start_seed..cfg.start_seed + cfg.seeds {
        for family in cfg.families() {
            if report.findings.len() >= cfg.max_findings {
                break 'seeds;
            }
            let p = family.generate(seed, &gen_cfg);
            report.programs += 1;
            match sweep(&p, cfg.max_criteria) {
                Ok((criteria, comparisons)) => {
                    report.criteria += criteria;
                    report.comparisons += comparisons;
                }
                Err(detail) => {
                    let small = if cfg.shrink {
                        shrink(&p, &|q| mismatch(q, cfg.max_criteria).is_some())
                    } else {
                        p.clone()
                    };
                    let detail = mismatch(&small, cfg.max_criteria).unwrap_or(detail);
                    report.findings.push(SparseFinding {
                        seed,
                        family,
                        detail,
                        program: print_program(&small),
                    });
                }
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
        let cfg = SparseConfig {
            seeds: 6,
            target_stmts: 25,
            ..SparseConfig::default()
        };
        let report = run_sparsetest(&cfg);
        assert_eq!(report.programs, 18);
        assert!(report.criteria > 0, "{report:?}");
        assert!(report.comparisons > report.criteria, "{report:?}");
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }

    #[test]
    fn single_family_knob_restricts_the_sweep() {
        let cfg = SparseConfig {
            seeds: 3,
            target_stmts: 20,
            family: Some(Family::Unstructured),
            ..SparseConfig::default()
        };
        let report = run_sparsetest(&cfg);
        assert_eq!(report.programs, 3);
        assert!(report.findings.is_empty(), "{:#?}", report.findings);
    }
}
