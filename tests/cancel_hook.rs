//! A blown deadline unwinds without running the process panic hook, so a
//! deadline-degraded daemon request writes no panic message or backtrace
//! to stderr. The hook is process-global, so this binary holds exactly one
//! test.

use jumpslice::prelude::*;
use jumpslice_core::cancel;
use std::panic::{self, catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Hook runs whose payload is the cancellation sentinel.
static HOOKED: AtomicUsize = AtomicUsize::new(0);

fn unwinds_cancelled(f: impl FnOnce()) -> bool {
    let payload = catch_unwind(AssertUnwindSafe(f)).unwrap_err();
    payload
        .downcast_ref::<&str>()
        .is_some_and(|m| cancel::is_cancelled(m))
}

#[test]
fn cancellation_does_not_run_the_panic_hook() {
    panic::set_hook(Box::new(|info| {
        if info
            .payload()
            .downcast_ref::<&str>()
            .is_some_and(|m| cancel::is_cancelled(m))
        {
            HOOKED.fetch_add(1, Ordering::Relaxed);
        }
    }));

    assert!(unwinds_cancelled(|| {
        let _g = cancel::deadline(Instant::now());
        cancel::checkpoint();
    }));
    assert!(unwinds_cancelled(|| {
        let _f = cancel::fuel(0);
        cancel::checkpoint();
    }));
    // The daemon's path: a one-thread batch under an expired deadline.
    let p = parse("read(x); L: if (x) goto L; write(x);").unwrap();
    let a = Analysis::new(&p);
    let err = BatchSlicer::new(&a)
        .with_threads(1)
        .with_deadline(Some(Instant::now()))
        .try_slice_all(agrawal_slice, &[Criterion::at_stmt(p.at_line(3))])
        .unwrap_err();
    assert!(cancel::is_cancelled(&err.message), "{err}");
    let quiet = HOOKED.load(Ordering::Relaxed);

    // The hook does see the sentinel when a real panic raises it.
    assert!(unwinds_cancelled(|| panic::panic_any(cancel::CANCELLED)));
    let _ = panic::take_hook();
    assert_eq!(quiet, 0, "a fired checkpoint ran the panic hook");
    assert_eq!(HOOKED.load(Ordering::Relaxed), 1);
}
