//! Forward slices and chops — standard PDG derivatives (§1 lists the
//! application areas they serve: impact analysis, integration, testing).
//!
//! A *forward slice* of `s` is everything `s` can affect; a *chop* between
//! `source` and `sink` is the part of the backward slice of `sink` that the
//! forward slice of `source` can reach — "how does this input influence
//! that output".
//!
//! Jump handling: forward slices answer "what is affected", and jumps
//! affect nothing data- or control-wise, so no jump repair is needed on the
//! forward side. Chops inherit the jump repair of the backward half when
//! requested through [`chop_executable`].

use crate::{agrawal_slice, Analysis, Criterion, Slice};
use jumpslice_dataflow::StmtSet;
use jumpslice_lang::StmtId;

/// The forward closure of data and control dependence from `s`: every
/// statement whose execution or values `s` may influence.
///
/// # Examples
///
/// ```
/// use jumpslice_core::{forward_slice, Analysis};
/// use jumpslice_lang::parse;
/// let p = parse("read(x); y = x + 1; z = 5; write(y); write(z);")?;
/// let a = Analysis::new(&p);
/// let f = forward_slice(&a, p.at_line(1));
/// assert_eq!(f.lines(&p), vec![1, 2, 4]); // z is untouched by x
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn forward_slice(a: &Analysis<'_>, s: StmtId) -> Slice {
    Slice::from_stmts(a.pdg().forward_closure([s]))
}

/// The chop from `source` to `sink`: statements lying on some dependence
/// path from `source` to `sink` (computed as forward(source) ∩
/// backward(sink), both on the unmodified PDG).
///
/// # Examples
///
/// ```
/// use jumpslice_core::{chop, Analysis};
/// use jumpslice_lang::parse;
/// let p = parse("read(a); read(b); x = a + 1; y = x + b; write(y);")?;
/// let a_ = Analysis::new(&p);
/// let c = chop(&a_, p.at_line(1), p.at_line(5));
/// // read(b) feeds the sink but not from the source.
/// assert_eq!(c.lines(&p), vec![1, 3, 4, 5]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn chop(a: &Analysis<'_>, source: StmtId, sink: StmtId) -> Slice {
    let fwd = a.pdg().forward_closure([source]);
    let bwd = a.pdg().backward_closure([sink]);
    Slice::from_stmts(fwd.intersection(&bwd))
}

/// An *executable* chop: the jump-repaired backward slice of `sink`
/// (Figure 7), filtered to statements influenced by `source` but keeping
/// every jump and predicate the repair added, so the result still replays
/// correctly with respect to the sink.
///
/// This is the chop a debugger wants: "show me how `source` reaches
/// `sink`, as a program I can actually run".
pub fn chop_executable(a: &Analysis<'_>, source: StmtId, sink: StmtId) -> Slice {
    let backward = agrawal_slice(a, &Criterion::at_stmt(sink));
    let fwd = a.pdg().forward_closure([source]);
    let stmts: StmtSet = backward
        .stmts
        .iter()
        .filter(|&s| fwd.contains(s) || a.is_jump(s) || a.prog().stmt(s).kind.is_predicate())
        .collect();
    Slice {
        stmts,
        moved_labels: backward.moved_labels,
        traversals: backward.traversals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use jumpslice_lang::parse;

    #[test]
    fn forward_slice_through_control() {
        let p = parse("read(c); if (c) { x = 1; } write(x); write(9);").unwrap();
        let a = Analysis::new(&p);
        let f = forward_slice(&a, p.at_line(1));
        // read(c) affects the if, hence x = 1, hence write(x) — but not
        // the constant write.
        assert_eq!(f.lines(&p), vec![1, 2, 3, 4]);
    }

    #[test]
    fn chop_is_contained_in_both_slices() {
        let p = corpus::fig1();
        let a = Analysis::new(&p);
        let src = p.at_line(4); // read(x)
        let sink = p.at_line(12); // write(positives)
        let c = chop(&a, src, sink);
        let fwd = forward_slice(&a, src);
        let bwd = Slice::from_stmts(a.pdg().backward_closure([sink]));
        assert!(c.subset_of(&fwd));
        assert!(c.subset_of(&bwd));
        assert!(c.contains(src));
        assert!(c.contains(sink));
    }

    #[test]
    fn unrelated_chop_is_empty() {
        let p = parse("read(a); read(b); write(a); write(b);").unwrap();
        let a_ = Analysis::new(&p);
        let c = chop(&a_, p.at_line(2), p.at_line(3));
        assert!(c.is_empty(), "{:?}", c.lines(&p));
    }

    #[test]
    fn chop_on_fig1_finds_the_positives_path() {
        let p = corpus::fig1();
        let a = Analysis::new(&p);
        // From read(x) to write(positives): via the predicates and the
        // increment, not via any sum assignment.
        let c = chop(&a, p.at_line(4), p.at_line(12));
        let lines = c.lines(&p);
        assert!(lines.contains(&7), "the increment is on the path");
        assert!(!lines.contains(&6) && !lines.contains(&9) && !lines.contains(&10));
    }

    #[test]
    fn executable_chop_keeps_repaired_jumps() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let c = chop_executable(&a, p.at_line(4), p.at_line(15));
        // The jump repair (gotos 7 and 13) survives the chop filter.
        assert!(c.lines(&p).contains(&7));
        assert!(c.lines(&p).contains(&13));
        assert!(!c.lines(&p).contains(&1), "sum = 0 is not on the path");
    }
}
