//! Pins the cost of instrumentation, both ways.
//!
//! *Disabled:* with no trace sink installed, every obs hook is a
//! thread-local read and a branch. This harness measures that per-hook cost
//! directly, counts how many hooks a real batch sweep executes, and asserts
//! the projected total is ≤ 2% of the sweep's wall-clock time — the
//! "zero-cost-when-disabled" contract, enforced rather than claimed. The
//! projection (hooks × per-hook-cost vs sweep time) is used instead of a
//! raw A/B timing diff because a sub-2% delta between two multi-ms
//! measurements drowns in scheduler noise on shared CI runners, while both
//! projection inputs are individually stable.
//!
//! *Enabled:* a sink must not change what it measures. The same
//! one-thread batch is timed with and without `obs::capture` on both
//! generated families at 1000 and 5000 statements, and the captured batch
//! may take at most 1.5× the uncaptured one. A 1.5× band is wide enough to
//! sit above scheduler noise and narrow enough to catch per-event work
//! that grows with the program (an event that walks the program to name
//! its line made captured batches 2.5–26× slower).

use jumpslice_bench::harness::Runner;
use jumpslice_bench::{criterion_pool, sized_structured, sized_unstructured};
use jumpslice_core::{agrawal_slice, Analysis, BatchSlicer};
use jumpslice_lang::Program;
use jumpslice_obs as obs;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// How much slower a captured batch may be than the same batch uncaptured.
const CAPTURED_LIMIT: f64 = 1.5;

fn main() {
    assert!(!obs::enabled(), "bench must run with no sink installed");
    let mut r = Runner::from_args().samples(5);

    // Per-hook disabled cost: the record() fast path (enabled check only;
    // the event closure must not run) and an inert phase guard.
    let record_ns = r.bench("obs/record-disabled", || {
        obs::record(|| {
            unreachable!("event closure must not run while disabled");
        });
    });
    let phase_ns = r.bench("obs/phase-disabled", || {
        let guard = obs::phase(obs::Phase::PdgBuild);
        black_box(&guard);
    });

    // A real sweep: the unstructured family exercises every hook (fixpoint
    // rounds, jump admissions, label re-association, batch counters).
    let p = sized_unstructured(1000);
    let a = Analysis::new(&p);
    a.warm();
    let criteria = criterion_pool(&p, &a, 120);
    let batch = BatchSlicer::new(&a).with_threads(1);

    // Count the hooks one sweep executes by actually capturing them. Phase
    // guards fire one record() each on drop; captured events therefore
    // bound record-calls from below, and phase guards are counted
    // separately for their constructor cost.
    let (_, events) = obs::capture(|| black_box(batch.slice_all(agrawal_slice, &criteria)));
    let record_calls = events.len() as f64;
    let phase_guards = events
        .iter()
        .filter(|e| matches!(e, obs::Event::Phase { .. }))
        .count() as f64;

    let sweep_ns = r.bench("obs/batch-sweep-disabled", || {
        black_box(batch.slice_all(agrawal_slice, &criteria))
    });
    r.finish();

    let projected = record_calls * record_ns + phase_guards * phase_ns;
    let overhead = projected / sweep_ns;
    println!(
        "\n{record_calls:.0} record hooks x {record_ns:.1} ns + {phase_guards:.0} phase guards x \
         {phase_ns:.1} ns = {projected:.0} ns projected over a {:.2} ms sweep: {:.3}% overhead",
        sweep_ns / 1e6,
        overhead * 100.0
    );
    assert!(
        overhead <= 0.02,
        "disabled instrumentation projects to {:.3}% of a batch sweep (limit 2%)",
        overhead * 100.0
    );
    println!("OK: disabled-path overhead within the 2% budget\n");

    let mut over = Vec::new();
    for (family, make) in [
        ("structured", sized_structured as fn(usize) -> Program),
        ("unstructured", sized_unstructured),
    ] {
        for size in [1000, 5000] {
            let p = make(size);
            let (plain, captured) = captured_vs_plain(&p);
            let ratio = captured.as_secs_f64() / plain.as_secs_f64();
            println!(
                "obs/captured-batch {family}-{}: {:.2} ms captured / {:.2} ms uncaptured = {ratio:.2}x",
                p.len(),
                captured.as_secs_f64() * 1e3,
                plain.as_secs_f64() * 1e3,
            );
            if ratio > CAPTURED_LIMIT {
                over.push(format!("{family}-{} at {ratio:.2}x", p.len()));
            }
        }
    }
    assert!(
        over.is_empty(),
        "a captured batch exceeds {CAPTURED_LIMIT}x its uncaptured time: {}",
        over.join(", ")
    );
    println!("OK: captured batches within {CAPTURED_LIMIT}x of uncaptured");
}

/// Medians of a one-thread 120-criterion Figure-7 batch on a warm analysis,
/// uncaptured and captured: one warm-up each, then 5 alternating runs.
fn captured_vs_plain(p: &Program) -> (Duration, Duration) {
    let a = Analysis::new(p);
    a.warm();
    let criteria = criterion_pool(p, &a, 120);
    let batch = BatchSlicer::new(&a).with_threads(1);
    let plain = || timed(|| batch.slice_all(agrawal_slice, &criteria));
    let captured = || timed(|| obs::capture(|| batch.slice_all(agrawal_slice, &criteria)));
    plain();
    captured();
    let (mut plains, mut captureds): (Vec<Duration>, Vec<Duration>) =
        (0..5).map(|_| (plain(), captured())).unzip();
    plains.sort();
    captureds.sort();
    (plains[2], captureds[2])
}

/// Wall time of `f`, not counting the drop of its result.
fn timed<T>(f: impl FnOnce() -> T) -> Duration {
    let t = Instant::now();
    let out = black_box(f());
    let elapsed = t.elapsed();
    drop(out);
    elapsed
}
