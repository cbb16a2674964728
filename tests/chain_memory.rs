//! Heap of the Figure-7 chain index, the PDG and the postdominator tree,
//! measured by a counting global allocator. The index is O(statements +
//! jumps) words: per statement its parent links and its two preorder
//! spans, per jump its rank in each tree. Per-chain statement masks and a
//! statements × jumps matrix would cost hundreds of bytes per statement
//! here and fail the bounds, and so would full-width scratch sets kept
//! through the build. The PDG's data half is factored through φs, so the
//! PDG is linear in the program: bounded per statement, it fails on the
//! goto-dense program if it keeps the explicit def–use edges, which run
//! to hundreds per statement there. The postdominator tree keeps parent
//! links and interval numbers, no child lists.
//!
//! A cold warm builds the data half without a reaching-definitions
//! fixpoint, and its seed keeps no IN sets (one bit per flowgraph node
//! and definition site): the retained seed is bounded by the artifacts it
//! holds plus a linear term, the goto-dense one also in absolute bytes,
//! and the warm's peak by the seed alone.
//!
//! The allocator counts the whole process, so this binary holds exactly
//! one test.

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

/// The most heap the finished index may keep, per statement.
const MAX_INDEX_BYTES_PER_STMT: f64 = 80.0;

/// The most heap its build may hold at once, over what it keeps.
const MAX_BUILD_PEAK_OVER_INDEX: f64 = 2.0;

/// The most heap a whole cold warm may hold at once, over the seed it
/// leaves behind.
const MAX_WARM_PEAK_OVER_SEED: f64 = 1.5;

/// The most heap a seed may keep per statement beyond its PDG, pdom tree
/// and chain index (the flowgraph, the LST and the containers). A seed
/// keeping reaching definitions would hold over a thousand more here.
const MAX_SEED_BYTES_PER_STMT_OVER_ARTIFACTS: f64 = 128.0;

/// The most heap the goto-dense program's PDG, with its condensation, may
/// keep per statement.
const MAX_PDG_BYTES_PER_STMT: f64 = 128.0;

/// The most heap the goto-dense program's whole seed may keep.
const MAX_U20K_SEED_BYTES: usize = 6 << 20;

/// The most heap the postdominator tree may keep per flowgraph node.
const MAX_PDOM_BYTES_PER_NODE: f64 = 32.0;

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

const MIB: f64 = (1 << 20) as f64;

#[test]
fn chain_index_is_linear_and_warm_peaks_near_the_seed() {
    let s20k = gen_structured(&GenConfig::sized(7, 20_000));
    let u20k = gen_unstructured(&GenConfig::sized(7, 20_000).with_jump_density(0.25));
    for (what, p) in [("s20k", s20k), ("u20k", u20k)] {
        let n = p.len();

        // One artifact at a time, each over the ones it reads: the
        // postdominator tree over the flowgraph `Analysis::new` built, the
        // PDG over both, and with the LST the chain index, all that
        // `warm()` has left to build.
        let a = Analysis::new(&p);
        let (nodes, pdom, _) = measured(|| a.pdom().num_nodes());
        let (_, pdg, _) = measured(|| {
            let _ = a.pdg();
        });
        let data = a.pdg().data();
        let (phis, operands) = (data.num_phis(), data.num_operands());
        let _ = a.lst();
        let ((), index, build_peak) = measured(|| a.warm());
        assert_eq!(a.stats().chain_index_builds, 1);
        drop(a);

        let per_node = pdom as f64 / nodes as f64;
        let pdg_per_stmt = pdg as f64 / n as f64;
        println!(
            "{what}: pdom tree {:.2} MiB ({per_node:.1} B/node), PDG {:.2} MiB \
             ({pdg_per_stmt:.1} B/statement; {phis} φs, {operands} data operands)",
            pdom as f64 / MIB,
            pdg as f64 / MIB
        );
        assert!(
            per_node <= MAX_PDOM_BYTES_PER_NODE,
            "{what}: the pdom tree keeps {per_node:.1} bytes per node \
             (bound {MAX_PDOM_BYTES_PER_NODE})"
        );
        if what == "u20k" {
            assert!(
                pdg_per_stmt <= MAX_PDG_BYTES_PER_STMT,
                "{what}: the PDG keeps {pdg_per_stmt:.1} bytes per statement \
                 (bound {MAX_PDG_BYTES_PER_STMT})"
            );
        }

        let per_stmt = index as f64 / n as f64;
        let build_ratio = build_peak as f64 / index as f64;
        println!(
            "{what}: {n} statements, index {:.2} MiB ({per_stmt:.1} B/statement), \
             build peak {build_ratio:.2}x the index",
            index as f64 / MIB
        );
        assert!(
            per_stmt <= MAX_INDEX_BYTES_PER_STMT,
            "{what}: the index keeps {per_stmt:.1} bytes per statement \
             (bound {MAX_INDEX_BYTES_PER_STMT})"
        );
        assert!(
            build_ratio <= MAX_BUILD_PEAK_OVER_INDEX,
            "{what}: the build peaked at {build_ratio:.2}x the index \
             (bound {MAX_BUILD_PEAK_OVER_INDEX}x)"
        );

        // The whole cold warm, from `Analysis::new` to `into_seed`.
        let (seed, retained, peak) = measured(|| {
            let a = Analysis::new(&p);
            a.warm();
            a.into_seed()
        });
        assert!(seed.chain_index.is_some());
        assert!(seed.reaching.is_none(), "{what}: the seed keeps no IN sets");
        let over = (retained as f64 - (pdg + pdom + index) as f64) / n as f64;
        let warm_ratio = peak as f64 / retained as f64;
        println!(
            "{what}: seed {:.2} MiB ({over:.1} B/statement over the PDG, pdom tree and \
             index), warm peak {:.2} MiB ({warm_ratio:.2}x the seed)",
            retained as f64 / MIB,
            peak as f64 / MIB
        );
        assert!(
            over <= MAX_SEED_BYTES_PER_STMT_OVER_ARTIFACTS,
            "{what}: the seed keeps {over:.1} bytes per statement over its PDG, pdom \
             tree and index (bound {MAX_SEED_BYTES_PER_STMT_OVER_ARTIFACTS})"
        );
        if what == "u20k" {
            assert!(
                retained <= MAX_U20K_SEED_BYTES,
                "{what}: the seed keeps {:.2} MiB (bound {} MiB)",
                retained as f64 / MIB,
                MAX_U20K_SEED_BYTES >> 20
            );
        }
        assert!(
            warm_ratio <= MAX_WARM_PEAK_OVER_SEED,
            "{what}: a cold warm peaked at {warm_ratio:.2}x its seed \
             (bound {MAX_WARM_PEAK_OVER_SEED}x)"
        );
    }
}
