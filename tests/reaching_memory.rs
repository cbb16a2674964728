//! Peak heap of one reaching-definitions solve, measured by a counting
//! global allocator and pinned against the bytes of the IN sets the solve
//! returns. The IN sets are the result, so they are the floor; the solver
//! adds O(statements + definition sites) of scratch on top. A per-node
//! gen, kill or OUT matrix costs another full copy of the IN sets and
//! fails the bound.
//!
//! The allocator counts the whole process, so this binary holds exactly
//! one test.

use jumpslice::prelude::*;
use jumpslice_cfg::Cfg;
use jumpslice_dataflow::ReachingDefs;
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

/// The most heap one solve may hold at once, as a multiple of the bytes of
/// the IN sets it returns.
const MAX_PEAK_OVER_IN_SETS: f64 = 1.5;

/// Peak heap of `ReachingDefs::compute` on `p` over the bytes of its IN
/// sets.
fn peak_over_in_sets(p: &Program) -> f64 {
    let cfg = Cfg::build(p);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let rd = ReachingDefs::compute(p, &cfg);
    let peak = PEAK.load(Ordering::Relaxed) - before;
    let in_bytes: usize = rd.in_sets().iter().map(|s| s.words().len() * 8).sum();
    peak as f64 / in_bytes as f64
}

#[test]
fn one_solve_peaks_near_its_in_sets() {
    let straight = format!("read(x); {} write(x);", "x = x + 1; ".repeat(5000));
    let s5k = gen_structured(&GenConfig::sized(1, 5000));
    let u5k = gen_unstructured(&GenConfig::sized(1, 5000).with_jump_density(0.25));
    for (what, p) in [
        ("straight-line 5k", parse(&straight).unwrap()),
        ("s5k", s5k),
        ("u5k", u5k),
    ] {
        let ratio = peak_over_in_sets(&p);
        println!(
            "{what}: {} statements, peak {ratio:.2}x the IN sets",
            p.len()
        );
        assert!(
            ratio <= MAX_PEAK_OVER_IN_SETS,
            "{what}: one solve peaked at {ratio:.2}x its IN sets (bound {MAX_PEAK_OVER_IN_SETS}x)"
        );
    }
}
