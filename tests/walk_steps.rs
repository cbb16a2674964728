//! The Figure-7 kernel's nearest-in-slice memo, held to its bound on the
//! slice whose probes walked deepest before it: the last live write of a
//! 5,000-statement structured program, whose slice is a handful of
//! statements near the exit while hundreds of jumps are tested. Between
//! two growths of the slice each tree's walks write each statement's memo
//! entry at most once, so `sparse.walk_steps` stays within two entries per
//! statement per slice state; the seed's state and the admissions' states
//! are at most rounds + admissions + 2.

use jumpslice::lang::StmtKind;
use jumpslice::obs;
use jumpslice::prelude::*;

#[test]
fn walk_steps_of_the_5k_last_write_stay_within_two_per_statement_per_state() {
    let p = gen_structured(&GenConfig::sized(7, 5000));
    let a = Analysis::new(&p);
    a.warm();
    let last = p
        .stmt_ids()
        .filter(|&s| matches!(p.stmt(s).kind, StmtKind::Write { .. }) && a.is_live(s))
        .last()
        .expect("the program has a live write");
    let (slice, events) = obs::capture(|| agrawal_slice(&a, &Criterion::at_stmt(last)));
    let rounds = events
        .iter()
        .filter(|e| matches!(e, obs::Event::Round { .. }))
        .count() as u64;
    let admissions = events
        .iter()
        .filter(|e| matches!(e, obs::Event::JumpAdmitted { .. }))
        .count() as u64;
    let m = obs::Metrics::of(&events);
    let steps = *m
        .counts
        .get("sparse.walk_steps")
        .expect("the kernel counts its memo writes");
    let retests = m.counts["sparse.retests"];
    let bound = 2 * p.len() as u64 * (rounds + admissions + 2);
    assert!(retests > 0, "the slice tests jumps");
    assert!(steps > 0, "the retests walk");
    assert!(
        steps <= bound,
        "{steps} memo writes over {retests} retests exceed {bound} \
         ({} statements, {rounds} rounds, {admissions} admissions, slice of {})",
        p.len(),
        slice.len()
    );
}
