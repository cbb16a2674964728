//! Differential correctness fuzzing for the workspace's eight slicers.
//!
//! The paper's central claim is behavioral: a slice, executed as a residual
//! program, reproduces the original trajectory projected onto the slice.
//! This crate industrializes that check. Seeded generators
//! ([`jumpslice_progen`]) produce jump-heavy programs; every registered
//! slicer ([`registry::ALGOS`]) sweeps a family of criteria through the
//! warm batch engine; and four properties are verified per (program,
//! criterion, algorithm): projection-oracle correctness, the pinned
//! subset/equality lattice between algorithms, containment of dynamic
//! slices in the conventional static slice, and freedom from panics.
//! Failures are greedily minimized ([`shrink`]) and rendered as
//! ready-to-commit regression tests ([`emit`]). A second mode
//! ([`run_incrtest`]) fuzzes the incremental edit-and-reslice engine:
//! random edit scripts over the same program families, with every slicer's
//! session result checked for identity against a from-scratch analysis
//! after every step, and failing scripts minimized ([`shrink_script`]).
//! A third mode ([`run_sparsetest`]) pits the sparse change-driven
//! Figure-7 kernel against the paper's round-based loop in [`oracle`],
//! demanding identical slices, traversal counts, moved labels, and traced
//! provenance on every generated program. A fourth mode
//! ([`run_closuretest`]) holds the product's closures, which walk the
//! PDG's SCC condensation, against the direct walk over raw PDG edges in
//! [`oracle`] — identical closures, layered closures and their deltas, and
//! chops on every generated program *and* across incremental edit states,
//! so a condensation left stale by an `EditSession` edit would be caught.
//!
//! In the tradition of differential testing of program analyzers (Chalupa's
//! cross-checked control-dependence algorithms; SymPas's
//! execution-based slicer evaluation), disagreement between algorithms is
//! treated as signal: the paper proves how the eight slicers must relate,
//! and any generated program where they don't is a bug in somebody.
//!
//! # Examples
//!
//! ```
//! use jumpslice_difftest::{run_difftest, DiffConfig};
//! let report = run_difftest(&DiffConfig {
//!     seeds: 2,
//!     num_inputs: 3,
//!     ..DiffConfig::default()
//! });
//! assert_eq!(report.hard_findings().count(), 0);
//! assert!(report.verified > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closure;
pub mod emit;
mod harness;
mod incr;
pub mod oracle;
pub mod registry;
mod rewrite;
mod shrink;
mod sparse;

pub use closure::{
    run_closuretest, run_closuretest_with, ClosureConfig, ClosureFinding, ClosureReport,
};
pub use harness::{
    run_difftest, run_difftest_with, scope_of, DiffConfig, DiffReport, Family, Finding, FindingKind,
};
pub use incr::{
    run_incrtest, run_incrtest_with, shrink_script, IncrConfig, IncrFinding, IncrReport,
};
pub use registry::{Algo, RelKind, Relation, Scope, ALGOS, RELATIONS};
pub use rewrite::{expr_size, replace_expr};
pub use shrink::{is_valid_candidate, shrink};
pub use sparse::{run_sparsetest, run_sparsetest_with, SparseConfig, SparseFinding, SparseReport};
