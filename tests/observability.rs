//! The observability layer, pinned end-to-end: exact trace events on the
//! paper's figure programs, cache hit/miss exactness through `Analysis`,
//! JSON round-tripping of real captured traces, provenance chains, and the
//! batch engine's per-run counters.

use jumpslice::obs;
use jumpslice::prelude::*;
use jumpslice_core::corpus;
use jumpslice_difftest::oracle;

/// The jump admissions an event stream contains, as `(algo, line, round)`.
fn admissions(events: &[obs::Event]) -> Vec<(&'static str, u32, u32)> {
    events
        .iter()
        .filter_map(|e| match e {
            obs::Event::JumpAdmitted {
                algo, line, round, ..
            } => Some((*algo, *line, *round)),
            _ => None,
        })
        .collect()
}

/// The fixpoint-round summaries, as `(round, admitted)`.
fn rounds(events: &[obs::Event]) -> Vec<(u32, u32)> {
    events
        .iter()
        .filter_map(|e| match e {
            obs::Event::Round {
                round, admitted, ..
            } => Some((*round, *admitted)),
            _ => None,
        })
        .collect()
}

/// Figure 3 at line 15: Figure 7 admits the two gotos in one productive
/// round, with the paper's pdom-vs-lexical-successor disagreements.
#[test]
fn fig3_fig7_trace_is_exact() {
    let p = corpus::fig3();
    let a = Analysis::new(&p);
    let (s, events) = obs::capture(|| agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15))));
    assert_eq!(s.lines(&p), vec![2, 3, 4, 5, 7, 8, 13, 15]);
    assert_eq!(s.traversals, 1);
    assert_eq!(
        admissions(&events),
        vec![("fig7", 13, 1), ("fig7", 7, 1)],
        "both gotos admitted in round 1, in pdom-preorder visit order"
    );
    assert_eq!(rounds(&events), vec![(1, 2), (2, 0)]);
    // The admission reasons are the paper's: npd-in-slice != nls-in-slice.
    for e in &events {
        if let obs::Event::JumpAdmitted { line, reason, .. } = e {
            match (line, reason) {
                (
                    13,
                    obs::AdmitReason::PdomLexsuccDisagree {
                        npd_line: Some(3),
                        nls_line: Some(15),
                    },
                )
                | (
                    7,
                    obs::AdmitReason::PdomLexsuccDisagree {
                        npd_line: Some(13),
                        nls_line: Some(8),
                    },
                ) => {}
                other => panic!("unexpected admission {other:?}"),
            }
        }
    }
}

/// Figure 10 at line 9 needs two productive rounds: line 4's goto only
/// becomes admissible after round 1 pulls lines 2 and 7 into the slice.
#[test]
fn fig10_fig7_needs_two_rounds() {
    let p = corpus::fig10();
    let a = Analysis::new(&p);
    let (s, events) = obs::capture(|| agrawal_slice(&a, &Criterion::at_stmt(p.at_line(9))));
    assert_eq!(s.lines(&p), vec![1, 2, 3, 4, 7, 9]);
    assert_eq!(s.traversals, 2);
    assert_eq!(
        admissions(&events),
        vec![("fig7", 7, 1), ("fig7", 2, 1), ("fig7", 4, 2)]
    );
    assert_eq!(rounds(&events), vec![(1, 2), (2, 1), (3, 0)]);
}

/// Figures 12 and 13 on the switch program of Figure 14, criterion line 9
/// (`write(x)`): one-pass Figure 12 admits only case 1's break, for the
/// Figure-7 reason; conservative Figure 13 admits every break merely for
/// being control dependent on an included predicate.
#[test]
fn fig12_fig13_admissions_on_fig14() {
    let p = corpus::fig14();
    let a = Analysis::new(&p);
    let crit = Criterion::at_stmt(p.at_line(9));

    let (s12, ev12) = obs::capture(|| structured_slice(&a, &crit));
    assert_eq!(s12.lines(&p), vec![1, 3, 4, 9]);
    assert_eq!(admissions(&ev12), vec![("fig12", 3, 1)]);
    assert!(ev12.iter().any(|e| matches!(
        e,
        obs::Event::JumpAdmitted {
            algo: "fig12",
            line: 3,
            reason: obs::AdmitReason::PdomLexsuccDisagree {
                npd_line: Some(9),
                nls_line: Some(4),
            },
            ..
        }
    )));

    let (s13, ev13) = obs::capture(|| conservative_slice(&a, &crit));
    assert_eq!(s13.lines(&p), vec![1, 3, 4, 5, 7, 9]);
    assert_eq!(
        admissions(&ev13),
        vec![("fig13", 3, 1), ("fig13", 5, 1), ("fig13", 7, 1)]
    );
    for e in &ev13 {
        if let obs::Event::JumpAdmitted { reason, .. } = e {
            assert_eq!(
                *reason,
                obs::AdmitReason::OnIncludedPredicate { predicate_line: 1 },
                "figure 13 admits on the included switch predicate alone"
            );
        }
    }
}

/// Jump-free programs emit no admissions and no fixpoint rounds beyond the
/// mandatory confirming one.
#[test]
fn fig1_conventional_emits_no_jump_events() {
    let p = corpus::fig1();
    let a = Analysis::new(&p);
    let (s, events) = obs::capture(|| agrawal_slice(&a, &Criterion::at_stmt(p.at_line(12))));
    assert_eq!(s.traversals, 0);
    assert!(admissions(&events).is_empty());
    assert_eq!(rounds(&events), vec![(1, 0)]);
}

/// Each `Analysis` artifact is computed exactly once; every later request
/// is a hit. The first Figure-7 slice on a cold analysis misses all five
/// artifacts (the four classic ones plus the sparse kernel's chain index,
/// whose build forces the LST); an identical second slice misses none. The
/// warm slice runs entirely off the chain index — it touches neither the
/// LST nor, though label L14 moves, the pdom tree.
#[test]
fn analysis_cache_events_are_exact() {
    let p = corpus::fig3();
    let a = Analysis::new(&p);
    let crit = Criterion::at_stmt(p.at_line(15));

    let (_, first) = obs::capture(|| agrawal_slice(&a, &crit));
    let m1 = obs::Metrics::of(&first);
    for artifact in ["reaching_defs", "pdg", "pdom", "lst", "chain_index"] {
        assert_eq!(
            m1.cache_misses.get(artifact),
            Some(&1),
            "cold analysis computes {artifact} exactly once"
        );
    }

    let (_, second) = obs::capture(|| agrawal_slice(&a, &crit));
    let m2 = obs::Metrics::of(&second);
    assert!(
        m2.cache_misses.is_empty(),
        "warm analysis recomputes nothing: {:?}",
        m2.cache_misses
    );
    for artifact in ["pdg", "chain_index"] {
        assert!(
            m2.cache_hits.get(artifact).is_some_and(|&h| h >= 1),
            "warm analysis hits {artifact}"
        );
    }
    assert_eq!(
        m2.cache_hits.get("lst"),
        None,
        "the warm sparse kernel answers every nearest-successor query from \
         the chain index, never walking the LST"
    );
    assert_eq!(
        m2.cache_hits.get("pdom"),
        None,
        "label re-association reads the chain index's pdom parents, never \
         walking the pdom tree"
    );
}

/// A warm Figure-7 slice looks up the chain index once and reads its jump
/// list directly: no other jump order is rebuilt, so neither the pdom tree
/// nor the LST is probed. Figure 5 has no gotos, so no label moves and
/// label re-association needs no pdom walk either.
#[test]
fn warm_fig7_slice_probes_only_the_chain_index_and_pdg() {
    let p = corpus::fig5();
    let a = Analysis::new(&p);
    a.warm();
    let crit = Criterion::at_stmt(p.at_line(14));
    let _ = agrawal_slice(&a, &crit);

    let (s, events) = obs::capture(|| agrawal_slice(&a, &crit));
    assert!(s.moved_labels.is_empty());
    let m = obs::Metrics::of(&events);
    assert!(m.cache_misses.is_empty(), "{:?}", m.cache_misses);
    assert_eq!(
        m.cache_hits.get("chain_index"),
        Some(&1),
        "{:?}",
        m.cache_hits
    );
    for artifact in ["pdom", "lst"] {
        assert_eq!(m.cache_hits.get(artifact), None, "{:?}", m.cache_hits);
    }
}

/// The sparse kernel's re-test counter on Figure 10, the two-round
/// program: the dirty-jump worklist runs strictly fewer jump tests than
/// the dense loop's jumps × rounds budget, and the exact count is pinned
/// so a regression to dense re-testing is caught immediately.
#[test]
fn fig10_sparse_retests_stay_below_dense_budget() {
    let p = corpus::fig10();
    let a = Analysis::new(&p);
    let (s, events) = obs::capture(|| agrawal_slice(&a, &Criterion::at_stmt(p.at_line(9))));
    assert_eq!(s.traversals, 2);
    let m = obs::Metrics::of(&events);
    let jumps = oracle::jumps_in_pdom_preorder(&a).len() as u64;
    let rounds = rounds(&events).len() as u64;
    let retests = m.counts["sparse.retests"];
    assert!(
        retests < jumps * rounds,
        "sparse re-tests ({retests}) must undercut the dense budget \
         ({jumps} jumps x {rounds} rounds)"
    );
    assert_eq!(retests, 4, "exact re-test count on Figure 10");
}

/// A real captured batch-sweep trace (phases, caches, admissions, rounds,
/// batch counters) survives the JSON round trip event-for-event.
#[test]
fn real_trace_round_trips_through_json() {
    let p = corpus::fig8();
    let a = Analysis::new(&p);
    let criteria: Vec<Criterion> = [9usize, 15]
        .iter()
        .map(|&l| Criterion::at_stmt(p.at_line(l)))
        .collect();
    let (_, events) = obs::capture(|| {
        BatchSlicer::new(&a)
            .with_threads(1)
            .slice_all(agrawal_slice, &criteria)
    });
    assert!(!events.is_empty());
    let text = obs::trace_to_json(&events).write_pretty();
    let parsed = obs::Json::parse(&text).expect("emitted trace parses");
    let back = obs::events_from_json(&parsed).expect("parsed trace decodes");
    assert_eq!(back, events);
}

/// Per-phase timings cover the whole pipeline on a cold slice.
#[test]
fn phase_timers_cover_the_pipeline() {
    let p = corpus::fig3();
    let a = Analysis::new(&p);
    let (_, events) = obs::capture(|| agrawal_slice(&a, &Criterion::at_stmt(p.at_line(15))));
    let m = obs::Metrics::of(&events);
    for phase in [
        "reaching_defs",
        "pdg_build",
        "postdominators",
        "lst_build",
        "conventional_closure",
        "fixpoint_round",
        "label_reassoc",
    ] {
        assert!(
            m.phase_count.get(phase).is_some_and(|&c| c >= 1),
            "cold Figure-7 slice times phase {phase}; saw {:?}",
            m.phase_count
        );
    }
    assert_eq!(
        m.phase_count["fixpoint_round"], 2,
        "productive + confirming"
    );
}

/// Provenance: every sliced statement explains itself back to the
/// criterion, and the admitted jumps carry their Figure-7 justification.
#[test]
fn provenance_chains_reach_the_criterion() {
    let p = corpus::fig3();
    let a = Analysis::new(&p);
    let crit = Criterion::at_stmt(p.at_line(15));
    let (s, prov) = agrawal_slice_traced(&a, &crit);
    assert_eq!(s.stmts, agrawal_slice(&a, &crit).stmts);

    for stmt in s.stmts.iter() {
        let chain = prov
            .chain(stmt)
            .unwrap_or_else(|| panic!("line {} has no chain", p.line_of(stmt)));
        let (last, why) = *chain.last().expect("chains are non-empty");
        assert!(
            matches!(why, Why::Criterion | Why::SeedDef | Why::Jump { .. }),
            "chain for line {} ends at a root, got {why:?}",
            p.line_of(stmt)
        );
        if matches!(why, Why::Criterion) {
            assert_eq!(last, p.at_line(15));
        }
    }
    // The two admitted gotos are roots of kind Jump, tagged with the round.
    for line in [7usize, 13] {
        match prov.why(p.at_line(line)) {
            Some(Why::Jump { round: 1, .. }) => {}
            other => panic!("line {line} should be a round-1 jump root, got {other:?}"),
        }
    }
    // And the same chains are available from the untraced slice on demand.
    let replay = s.provenance(&a, &crit).expect("provenance of own slice");
    assert_eq!(replay.why(p.at_line(7)), prov.why(p.at_line(7)));
}

/// The batch engine reports fresh per-run statistics and mirrors them as
/// counter events on the coordinating thread.
#[test]
fn batch_stats_and_counters_agree() {
    let p = corpus::fig8();
    let a = Analysis::new(&p);
    a.warm();
    let criteria: Vec<Criterion> = [9usize, 11, 15]
        .iter()
        .map(|&l| Criterion::at_stmt(p.at_line(l)))
        .collect();
    let batch = BatchSlicer::new(&a).with_threads(2);
    let ((slices, stats), events) =
        obs::capture(|| batch.slice_all_stats(agrawal_slice, &criteria));
    assert_eq!(slices.len(), 3);
    assert_eq!(stats.criteria, 3);
    assert_eq!(stats.threads, 2);
    assert_eq!(stats.per_worker_slices.iter().sum::<usize>(), 3);

    let m = obs::Metrics::of(&events);
    assert_eq!(m.counts["batch.criteria"], 3);
    assert_eq!(m.counts["batch.threads"], 2);
    assert_eq!(m.counts["batch.wall_ns"], stats.wall_ns);
    assert_eq!(m.counts["batch.busy_ns"], stats.busy_ns);
    assert_eq!(m.counts["batch.queue_wait_ns"], stats.queue_wait_ns);
    assert_eq!(m.phase_count["batch_run"], 1, "one BatchRun phase per run");

    // A second run reports its own snapshot, not an accumulation.
    let (_, stats2) = batch.slice_all_stats(agrawal_slice, &criteria[..1]);
    assert_eq!(stats2.criteria, 1);
}
