//! Dataflow analyses over the flowgraph: reaching definitions and def-use
//! chains (data dependence).
//!
//! The data-dependence edges produced here are one half of the program
//! dependence graph (paper, §2): statement `u` is *data dependent* on
//! statement `d` when `d` defines a variable that may reach a use of the same
//! variable at `u`. Reaching definitions are a classic iterative fixpoint
//! over compact bitsets.
//!
//! # Examples
//!
//! ```
//! use jumpslice_lang::parse;
//! use jumpslice_cfg::Cfg;
//! use jumpslice_dataflow::DataDeps;
//!
//! let p = parse("x = 1; y = x + 1; write(y);")?;
//! let cfg = Cfg::build(&p);
//! let dd = DataDeps::compute(&p, &cfg);
//! assert_eq!(dd.deps(p.at_line(2)), &[p.at_line(1)]); // y = x+1 depends on x = 1
//! assert_eq!(dd.deps(p.at_line(3)), &[p.at_line(2)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod reaching;
mod stmtset;

pub use bitset::BitSet;
pub use reaching::{reaching_defs_at, DataDeps, ReachingDefs, VarTable};
pub use stmtset::StmtSet;
