//! Whole-pipeline round-trip: generated program → warm analysis →
//! snapshot payload → store record → bytes → record → payload → restored
//! analysis, asserting byte equality at the record layer and slice
//! equality — for all eight slicers — at the analysis layer, with the
//! restored analysis building what a fresh one builds.

use jumpslice_core::baselines::{ball_horwitz_slice, gallagher_slice, jzr_slice, lyle_slice};
use jumpslice_core::{
    agrawal_slice, conservative_slice, conventional_slice, decode_snapshot, encode_snapshot,
    structured_slice, Analysis, Criterion, Slice,
};
use jumpslice_lang::{parse, print_program};
use jumpslice_progen::{gen_structured, gen_unstructured, GenConfig};
use jumpslice_store::{decode_record, encode_record, fnv1a};

type Slicer = (&'static str, fn(&Analysis<'_>, &Criterion) -> Slice);

const SLICERS: &[Slicer] = &[
    ("fig7", agrawal_slice),
    ("conventional", conventional_slice),
    ("fig12", structured_slice),
    ("fig13", conservative_slice),
    ("ball_horwitz", ball_horwitz_slice),
    ("lyle", lyle_slice),
    ("gallagher", gallagher_slice),
    ("jzr", jzr_slice),
];

fn check_roundtrip(src: &str) {
    let prog = parse(src).expect("printed programs re-parse");
    let fresh = Analysis::new(&prog);
    fresh.warm();

    // Through the codec and the record framing, as the store would.
    let payload = {
        let snap_prog = parse(src).unwrap();
        let a = Analysis::new(&snap_prog);
        a.warm();
        encode_snapshot(src, &snap_prog, &a.into_seed())
    };
    let key = fnv1a(src.as_bytes());
    let record = encode_record(key, &payload);
    let (k, decoded_payload) = decode_record(&record).expect("fresh record decodes");
    assert_eq!(k, key);
    assert_eq!(decoded_payload, payload, "record framing is lossless");

    let snap = decode_snapshot(decoded_payload).expect("payload decodes");
    assert_eq!(snap.source, src, "embedded source survives verbatim");
    let restored = Analysis::with_seed(&snap.prog, snap.seed);
    restored.warm();
    assert_eq!(
        restored.stats(),
        fresh.stats(),
        "restore builds each artifact once, as a fresh analysis does"
    );

    // Slice at every fourth statement to keep runtime sane while still
    // hitting jumps, guards, and plain assignments.
    for line in (1..=prog.len()).step_by(4) {
        let crit = Criterion::at_stmt(prog.at_line(line));
        let rcrit = Criterion::at_stmt(snap.prog.at_line(line));
        for (name, slicer) in SLICERS {
            assert_eq!(
                slicer(&restored, &rcrit),
                slicer(&fresh, &crit),
                "{name} slice diverged after restore (line {line})"
            );
        }
    }
}

#[test]
fn snapshots_round_trip_on_structured_corpora() {
    for seed in 0..4 {
        let src = print_program(&gen_structured(&GenConfig::sized(seed, 60)));
        check_roundtrip(&src);
    }
}

#[test]
fn snapshots_round_trip_on_unstructured_corpora() {
    for seed in 0..4 {
        let src = print_program(&gen_unstructured(&GenConfig::sized(seed, 50)));
        check_roundtrip(&src);
    }
}

#[test]
fn snapshots_round_trip_on_jump_dense_corpora() {
    for seed in 0..2 {
        let src = print_program(&gen_unstructured(
            &GenConfig::sized(seed, 80).with_jump_density(0.5),
        ));
        check_roundtrip(&src);
    }
}
