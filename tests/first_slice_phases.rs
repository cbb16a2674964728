//! One builder of analysis artifacts. `Analysis` builds the postdominator
//! tree, the PDG (its data half timed as `reaching_defs`), the lexical
//! successor tree and the chain index, each under its own phase. A session
//! restored from a snapshot record, and a warm session that has just
//! taken an insert, hold only their program's flowgraph, so the first
//! Figure-7 slice of each times the same phases, once each, as the first
//! slice of a cold-loaded session; decoding the record and applying the
//! edit time none of them.

use jumpslice::core::{decode_snapshot, encode_snapshot};
use jumpslice::lang::StmtPath;
use jumpslice::obs;
use jumpslice::prelude::*;

const BUILD_PHASES: [&str; 5] = [
    "postdominators",
    "reaching_defs",
    "pdg_build",
    "lst_build",
    "chain_index_build",
];

/// How often each build phase ran in `events`, in `BUILD_PHASES` order.
fn build_phases(events: &[obs::Event]) -> [u64; 5] {
    let m = obs::Metrics::of(events);
    BUILD_PHASES.map(|p| m.phase_count.get(p).copied().unwrap_or(0))
}

/// The phases the first Figure-7 slice of `session`, at its last line,
/// records.
fn first_slice_phases(session: &mut EditSession) -> [u64; 5] {
    let (_, events) = obs::capture(|| {
        session.with_analysis(|a| {
            let crit = Criterion::at_stmt(a.prog().at_line(a.prog().len()));
            agrawal_slice(a, &crit)
        })
    });
    build_phases(&events)
}

#[test]
fn restores_and_resets_get_the_phases_of_a_cold_build() {
    let src = print_program(&corpus::fig3());
    let cold = first_slice_phases(&mut EditSession::new(parse(&src).unwrap()));
    assert_eq!(cold, [1; 5], "a cold first slice builds each artifact once");

    // (a) A session restored from a warm analysis' record.
    let record = {
        let prog = parse(&src).unwrap();
        let a = Analysis::new(&prog);
        a.warm();
        encode_snapshot(&src, &prog, &a.into_seed())
    };
    let (snap, events) = obs::capture(|| decode_snapshot(&record).expect("the record decodes"));
    assert_eq!(build_phases(&events), [0; 5], "decoding builds no artifact");
    let mut restored = EditSession::try_with_seed(snap.prog, snap.seed).expect("analyzable");
    assert_eq!(first_slice_phases(&mut restored), cold, "restored");

    // (b) A warm session that has just taken an insert.
    let mut edited = EditSession::new(parse(&src).unwrap());
    edited.with_analysis(|a| a.warm());
    let (out, events) = obs::capture(|| {
        edited.apply(&Edit::InsertStmt {
            at: StmtPath::root(1),
            stmt: NewStmt::Assign {
                var: "x".into(),
                rhs: EditExpr::Num(0),
            },
        })
    });
    assert_eq!(out.expect("a valid insert").path, ApplyPath::SeededResolve);
    assert_eq!(build_phases(&events), [0; 5], "the edit builds no artifact");
    assert_eq!(first_slice_phases(&mut edited), cold, "after an insert");
}
