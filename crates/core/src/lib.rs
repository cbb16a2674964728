//! Program slicing in the presence of jump statements — a full
//! implementation of Hiralal Agrawal, *"On Slicing Programs with Jump
//! Statements"*, PLDI 1994.
//!
//! The conventional PDG-reachability slicer never includes `goto`, `break`,
//! `continue`, or `return` statements (nothing is data or control dependent
//! on them), so its slices are wrong for programs that contain them. This
//! crate implements:
//!
//! * [`conventional_slice`] — the classic transitive-closure slicer (§2),
//!   with the paper's conditional-jump adaptation via fused
//!   conditional-goto nodes;
//! * [`agrawal_slice`] — the paper's **Figure 7** algorithm: repeat preorder
//!   traversals of the postdominator tree, adding every jump whose nearest
//!   postdominator *in the slice* differs from its nearest lexical successor
//!   *in the slice* (plus its dependence closure), then re-associate
//!   dangling labels;
//! * [`structured_slice`] — **Figure 12**: the one-traversal simplification
//!   valid for structured programs;
//! * [`conservative_slice`] — **Figure 13**: the on-the-fly approximation
//!   that needs neither the postdominator tree nor the lexical successor
//!   tree, unless the program has a `do-while` or a label moves;
//! * the [`LexSuccTree`] itself (§3) and the structuredness classifier (§4);
//! * the related-work baselines of §5 ([`baselines`]): Ball–Horwitz /
//!   Choi–Ferrante augmented-PDG slicing, Lyle's, Gallagher's, and the
//!   Jiang–Zhou–Robson rule set;
//! * the paper's sixteen figure programs as a ready-made [`corpus`].
//!
//! # Quick start
//!
//! ```
//! use jumpslice_core::{Analysis, Criterion, agrawal_slice, conventional_slice};
//! use jumpslice_lang::parse;
//!
//! let p = parse(
//!     "positives = 0;
//!      L3: if (eof()) goto L14;
//!      read(x);
//!      if (x > 0) goto L8;
//!      goto L3;
//!      L8: positives = positives + 1;
//!      goto L3;
//!      L14: write(positives);",
//! )?;
//! let a = Analysis::new(&p);
//! let crit = Criterion::at_stmt(p.at_line(8));
//!
//! let conv = conventional_slice(&a, &crit);
//! let full = agrawal_slice(&a, &crit);
//! // The conventional slice drops every unconditional goto; the paper's
//! // algorithm keeps the ones control flow needs.
//! assert!(conv.stmts.len() < full.stmts.len());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agrawal;
mod analysis;
pub mod baselines;
mod batch;
pub mod cancel;
mod chop;
mod classify;
mod conservative;
mod conventional;
pub mod corpus;
mod labels;
mod lexsucc;
mod provenance;
mod slice;
mod snapshot;
mod sparse;
mod structured;
pub mod synthesize;
mod wire;

pub use agrawal::agrawal_slice;
pub use analysis::{Analysis, AnalysisSeed, AnalysisStats};
pub use batch::{BatchPanic, BatchRunStats, BatchSlicer, SliceFn};
pub use chop::{chop, chop_executable, forward_slice};
pub use classify::{has_pdom_lexsucc_pair, is_structured};
pub use conservative::conservative_slice;
pub use conventional::{conventional_slice, Criterion};
pub use labels::reassociate_labels;
pub use lexsucc::LexSuccTree;
pub use provenance::{agrawal_slice_traced, Provenance, Why};
pub use slice::{Slice, SlicePoint};
pub use snapshot::{decode_snapshot, encode_snapshot, Snapshot, SnapshotError};
pub use sparse::ChainIndex;
pub use structured::structured_slice;
