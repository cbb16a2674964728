//! Heap of a parsed [`Program`], measured by a counting global allocator.
//! A program keeps each name and label once, in one text buffer per
//! table, its labels in one table sorted by statement, and every list
//! allocated to fit: it is linear in its statements, labels and expression
//! nodes. Per-statement label vectors, a second copy of every string in a
//! hash map, or growth slack in the arena each fail the per-statement
//! bound on one of the two programs here.
//!
//! `parse` pulls its tokens from the lexer as it goes, so its peak is the
//! program plus a few open lists: a token vector with a string per word
//! fails the peak bound.
//!
//! The allocator counts the whole process, so this binary holds exactly
//! one test.

use jumpslice::core::{decode_snapshot, encode_snapshot, AnalysisSeed};
use jumpslice::lang::{Expr, Stmt};
use jumpslice::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters are statistics only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout` (every
        // allocation in this process goes through the methods above).
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The most heap a parsed program may keep, per statement.
const MAX_PROGRAM_BYTES_PER_STMT: f64 = 200.0;

/// The most heap `parse` may hold at once, over the program it returns.
const MAX_PARSE_PEAK_OVER_PROGRAM: f64 = 1.6;

/// Runs `f`, returning its result, the heap it left allocated and the most
/// it held at once, both counted from the call.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    let live = LIVE.load(Ordering::Relaxed) - before;
    let peak = PEAK.load(Ordering::Relaxed) - before;
    (out, live, peak)
}

#[test]
fn programs_are_linear_and_parse_peaks_near_the_program() {
    assert!(
        std::mem::size_of::<Stmt>() <= 72,
        "{}",
        std::mem::size_of::<Stmt>()
    );
    assert!(
        std::mem::size_of::<Expr>() <= 24,
        "{}",
        std::mem::size_of::<Expr>()
    );
    let s20k = gen_structured(&GenConfig::sized(7, 20_000));
    let u20k = gen_unstructured(&GenConfig::sized(7, 20_000).with_jump_density(0.25));
    for (what, generated) in [("s20k", s20k), ("u20k", u20k)] {
        let src = print_program(&generated);
        drop(generated);
        let (p, kept, peak) = measured(|| parse(&src).expect("printed programs parse"));
        let n = p.len();
        let per_stmt = kept as f64 / n as f64;
        let ratio = peak as f64 / kept as f64;
        println!(
            "{what}: {n} statements, {} labels, program {:.1} KiB ({per_stmt:.1} B/statement), \
             parse peak {ratio:.2}x the program",
            p.num_labels(),
            kept as f64 / 1024.0
        );
        assert!(
            per_stmt <= MAX_PROGRAM_BYTES_PER_STMT,
            "{what}: the program keeps {per_stmt:.1} bytes per statement \
             (bound {MAX_PROGRAM_BYTES_PER_STMT})"
        );
        assert!(
            ratio <= MAX_PARSE_PEAK_OVER_PROGRAM,
            "{what}: parse peaked at {ratio:.2}x the program \
             (bound {MAX_PARSE_PEAK_OVER_PROGRAM}x)"
        );

        // The same program decoded from its record: the source and the
        // flowgraph the decoder builds are dropped inside the measurement.
        let record = encode_snapshot(&src, &p, &AnalysisSeed::default());
        let (decoded, decoded_kept, _) = measured(|| {
            decode_snapshot(&record)
                .expect("a fresh record decodes")
                .prog
        });
        assert_eq!(decoded, p, "{what}");
        println!(
            "{what}: decoded program {:.1} KiB",
            decoded_kept as f64 / 1024.0
        );
        assert!(
            decoded_kept <= kept,
            "{what}: the decoded program keeps {decoded_kept} bytes, the parsed one {kept}"
        );
    }
}
