//! **jumpslice** — program slicing in the presence of jump statements.
//!
//! A complete implementation of Hiralal Agrawal, *"On Slicing Programs with
//! Jump Statements"*, PLDI 1994, together with every substrate it needs: a
//! mini-C front end, control-flow graphs, dominator/postdominator trees,
//! dataflow analyses, program dependence graphs, the lexical successor
//! tree, a deterministic interpreter with a slice-correctness oracle, and
//! random program generators for property testing and benchmarking.
//!
//! This crate is a facade: it re-exports the workspace crates under stable
//! module names and offers a [`prelude`] for the common path.
//!
//! # Quick start
//!
//! ```
//! use jumpslice::prelude::*;
//!
//! let program = parse(
//!     "positives = 0;
//!      L3: if (eof()) goto L14;
//!      read(x);
//!      if (x > 0) goto L8;
//!      goto L3;
//!      L8: positives = positives + 1;
//!      goto L3;
//!      L14: write(positives);",
//! )?;
//! let analysis = Analysis::new(&program);
//! let slice = agrawal_slice(&analysis, &Criterion::at_stmt(program.at_line(8)));
//! println!("{}", slice.render(&program));
//! assert!(slice.lines(&program).contains(&7), "the goto L3 guarding the loop");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Batch slicing
//!
//! Many criteria over one program share a single lazily-cached
//! [`Analysis`](prelude::Analysis) through
//! [`BatchSlicer`](prelude::BatchSlicer):
//!
//! ```
//! use jumpslice::prelude::*;
//!
//! let program = parse("read(x); y = x + 1; write(y); write(x);")?;
//! let analysis = Analysis::new(&program);
//! let slices = BatchSlicer::new(&analysis).slice_all_writes(agrawal_slice);
//! assert_eq!(slices.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Observability: trace events, phase timers, counters, JSON emission.
pub use jumpslice_obs as obs;

/// The mini-C language: lexer, parser, AST, builder, printer.
pub use jumpslice_lang as lang;

/// Directed graphs, dominator trees, SCCs.
pub use jumpslice_graph as graph;

/// Control-flow graph construction.
pub use jumpslice_cfg as cfg;

/// Reaching definitions and data dependence.
pub use jumpslice_dataflow as dataflow;

/// Control dependence and program dependence graphs.
pub use jumpslice_pdg as pdg;

/// The slicing algorithms (the paper's contribution) and baselines.
pub use jumpslice_core as core;

/// The deterministic interpreter and the projection oracle.
pub use jumpslice_interp as interp;

/// Random program generators.
pub use jumpslice_progen as progen;

/// Dynamic slicing over execution trajectories.
pub use jumpslice_dynslice as dynslice;

/// Incremental edit-and-reslice sessions.
pub use jumpslice_incr as incr;

/// Differential fuzzing of the slicers against the projection oracle.
pub use jumpslice_difftest as difftest;

/// One-import access to the common workflow: parse → analyze → slice →
/// render/check.
pub mod prelude {
    pub use jumpslice_core::baselines::{
        ball_horwitz_slice, gallagher_slice, jzr_slice, lyle_slice,
    };
    pub use jumpslice_core::synthesize::synthesize_slice;
    pub use jumpslice_core::{
        agrawal_slice, agrawal_slice_traced, chop, chop_executable, conservative_slice,
        conventional_slice, corpus, forward_slice, is_structured, structured_slice, Analysis,
        AnalysisStats, BatchRunStats, BatchSlicer, Criterion, LexSuccTree, Provenance, Slice,
        SliceFn, Why,
    };
    pub use jumpslice_dataflow::StmtSet;
    pub use jumpslice_difftest::{
        run_difftest, run_incrtest, DiffConfig, DiffReport, IncrConfig, IncrReport,
    };
    pub use jumpslice_dynslice::{dynamic_slice, dynamic_slice_of_trace, DynCriterion};
    pub use jumpslice_incr::{
        apply_edit, ApplyPath, Edit, EditExpr, EditSession, JumpKind, NewStmt,
    };
    pub use jumpslice_interp::{
        check_projection, run, run_masked, ExecError, Input, ProjectionError, ProjectionReport,
    };
    pub use jumpslice_lang::{parse, print_program, print_slice, Program, ProgramBuilder, StmtId};
    pub use jumpslice_progen::{gen_structured, gen_unstructured, GenConfig};
}
