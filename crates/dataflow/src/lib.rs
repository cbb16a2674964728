//! Dataflow analyses over the flowgraph: data dependence and reaching
//! definitions.
//!
//! The data dependences built here are one half of the program dependence
//! graph (paper, §2): statement `u` is *data dependent* on statement `d`
//! when `d` defines a variable that may reach a use of the same variable
//! at `u`. [`DataDeps`] keeps that relation in factored form: every use
//! names one definition or φ, and every φ one operand per flowgraph
//! predecessor, so it grows with the program where the explicit edges
//! grow with the product of definitions and uses. [`ReachingDefs`] is the
//! classic iterative fixpoint over compact bitsets, which no product path
//! runs.
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
//! assert_eq!(dd.deps(p.at_line(2)), [p.at_line(1)]); // y = x+1 depends on x = 1
//! assert_eq!(dd.deps(p.at_line(3)), [p.at_line(2)]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bitset;
mod deps;
mod reaching;
mod stmtset;

pub use bitset::BitSet;
pub use deps::{DataDeps, Expansion};
pub use reaching::{ReachingDefs, VarTable};
pub use stmtset::StmtSet;
