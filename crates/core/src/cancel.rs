//! Cooperative deadlines for long-running slicing work.
//!
//! A serving layer cannot afford a pathological program wedging a worker:
//! the Figure-7 fixpoint is worst-case quadratic in jump count, and a
//! hostile request must not stall the queue behind it. The mechanism here
//! is deliberately minimal — a **thread-local deadline** plus explicit
//! [`checkpoint`] calls at the natural round boundaries of the fixpoint
//! loops. When the deadline passes, the checkpoint unwinds with the fixed
//! [`CANCELLED`] payload; the batch engine's existing panic-attribution
//! net (`BatchSlicer::try_slice_all`) catches it and the caller classifies
//! it with [`is_cancelled`], distinguishing a blown deadline (degrade to a
//! cheaper, sound slicer) from a genuine bug (report it). The unwind skips
//! the panic hook ([`std::panic::resume_unwind`]), so it prints nothing.
//!
//! With no deadline installed — the default everywhere outside the serve
//! daemon — a checkpoint is one thread-local read and a branch; the clock
//! is only consulted while a [`DeadlineGuard`] is live, so the slicers pay
//! nothing for the capability.
//!
//! For *deterministic* expiry — fault injection that must fire on the same
//! checkpoint on every run regardless of machine speed — there is a second,
//! clock-free trigger: [`fuel`] installs a countdown of checkpoint visits,
//! and the visit that exhausts it unwinds with the same [`CANCELLED`]
//! sentinel. Wall-clock deadlines express "this request has 50ms"; fuel
//! expresses "this request dies at exactly its 37th checkpoint", which is
//! what a replayable chaos schedule needs.
//!
//! # Examples
//!
//! ```
//! use jumpslice_core::cancel;
//! use std::time::{Duration, Instant};
//!
//! // Already-expired deadline: the next checkpoint fires.
//! let caught = std::panic::catch_unwind(|| {
//!     let _g = cancel::deadline(Instant::now());
//!     cancel::checkpoint();
//! })
//! .unwrap_err();
//! let msg = caught.downcast_ref::<&str>().copied().unwrap_or_default();
//! assert!(cancel::is_cancelled(msg));
//!
//! // Guard dropped (even by the unwind above): checkpoints are free again.
//! cancel::checkpoint();
//! ```

use std::cell::Cell;
use std::time::Instant;

/// The payload a fired [`checkpoint`] unwinds with. A `&'static str`,
/// so it survives the batch engine's `panic_message` rendering verbatim and
/// [`is_cancelled`] can classify it at the request boundary.
pub const CANCELLED: &str = "jumpslice: deadline exceeded";

thread_local! {
    static DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
    static FUEL: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Restores the previously installed deadline (usually none) when dropped,
/// including during the unwind a fired checkpoint starts — so a worker
/// thread that catches the cancellation panic is clean for its next
/// request.
#[must_use = "dropping the guard immediately uninstalls the deadline"]
pub struct DeadlineGuard {
    previous: Option<Instant>,
}

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        DEADLINE.with(|d| d.set(self.previous));
    }
}

/// Installs `deadline` on the current thread for the guard's lifetime.
/// Nested guards stack: the innermost deadline wins until its guard drops.
pub fn deadline(deadline: Instant) -> DeadlineGuard {
    let previous = DEADLINE.with(|d| d.replace(Some(deadline)));
    DeadlineGuard { previous }
}

/// Whether a deadline is installed on this thread.
pub fn active() -> bool {
    DEADLINE.with(|d| d.get().is_some())
}

/// Restores the previously installed checkpoint fuel when dropped,
/// mirroring [`DeadlineGuard`] — including during the unwind the
/// exhausted checkpoint starts.
#[must_use = "dropping the guard immediately uninstalls the fuel"]
pub struct FuelGuard {
    previous: Option<u64>,
}

impl Drop for FuelGuard {
    fn drop(&mut self) {
        FUEL.with(|f| f.set(self.previous));
    }
}

/// Installs a checkpoint-count budget on the current thread for the
/// guard's lifetime: each [`checkpoint`] visit consumes one unit, and the
/// visit that finds the tank empty unwinds with [`CANCELLED`]. `fuel(0)`
/// therefore fires on the very next checkpoint. Entirely clock-free, so a
/// cancellation injected this way lands on the same statement of the same
/// fixpoint round on every machine and every run.
pub fn fuel(checkpoints: u64) -> FuelGuard {
    let previous = FUEL.with(|f| f.replace(Some(checkpoints)));
    FuelGuard { previous }
}

/// Whether checkpoint fuel is installed on this thread.
pub fn fuel_active() -> bool {
    FUEL.with(|f| f.get().is_some())
}

/// Unwinds with [`CANCELLED`] if this thread's deadline has passed or its
/// checkpoint fuel is exhausted. The slicing kernels call this at every
/// fixpoint round boundary and worklist drain step; with neither trigger
/// installed it is two thread-local reads and branches.
#[inline]
pub fn checkpoint() {
    if let Some(left) = FUEL.with(|f| f.get()) {
        if left == 0 {
            std::panic::resume_unwind(Box::new(CANCELLED));
        }
        FUEL.with(|f| f.set(Some(left - 1)));
    }
    if let Some(d) = DEADLINE.with(|d| d.get()) {
        if Instant::now() >= d {
            // The payload is the fixed sentinel so `is_cancelled` can
            // classify the unwind wherever it is caught.
            std::panic::resume_unwind(Box::new(CANCELLED));
        }
    }
}

/// Whether a caught panic message is the cooperative-cancellation sentinel
/// (as opposed to a genuine slicer bug).
pub fn is_cancelled(message: &str) -> bool {
    message == CANCELLED
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    #[test]
    fn checkpoint_is_inert_without_a_deadline() {
        assert!(!active());
        checkpoint(); // must not panic
    }

    #[test]
    fn expired_deadline_fires_and_guard_restores() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            let _g = deadline(Instant::now());
            assert!(active());
            checkpoint();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert!(is_cancelled(msg), "payload is the sentinel: {msg}");
        assert!(!active(), "guard uninstalled during unwind");
        checkpoint();
    }

    #[test]
    fn future_deadline_does_not_fire() {
        let _g = deadline(Instant::now() + Duration::from_secs(3600));
        checkpoint();
    }

    #[test]
    fn guards_nest_and_restore_the_outer_deadline() {
        let far = Instant::now() + Duration::from_secs(3600);
        let g1 = deadline(far);
        {
            let _g2 = deadline(Instant::now() + Duration::from_secs(1800));
            assert!(active());
        }
        assert!(active(), "outer deadline restored");
        checkpoint();
        drop(g1);
        assert!(!active());
    }

    /// Fuel fires on exactly the (n+1)-th checkpoint, every time — the
    /// determinism the chaos scheduler depends on.
    #[test]
    fn fuel_exhausts_on_a_fixed_checkpoint_and_guard_restores() {
        for budget in [0u64, 1, 5] {
            let mut survived = 0u64;
            let err = catch_unwind(AssertUnwindSafe(|| {
                let _g = fuel(budget);
                loop {
                    checkpoint();
                    survived += 1;
                }
            }))
            .unwrap_err();
            let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
            assert!(is_cancelled(msg), "payload is the sentinel: {msg}");
            assert_eq!(survived, budget, "fires on checkpoint {budget}");
            assert!(!fuel_active(), "guard uninstalled during unwind");
        }
        checkpoint();
    }

    #[test]
    fn fuel_guards_nest_and_restore() {
        let g1 = fuel(100);
        {
            let _g2 = fuel(50);
            assert!(fuel_active());
            checkpoint();
        }
        assert!(fuel_active(), "outer fuel restored");
        drop(g1);
        assert!(!fuel_active());
        checkpoint();
    }

    #[test]
    fn sentinel_classification_rejects_other_messages() {
        assert!(is_cancelled(CANCELLED));
        assert!(!is_cancelled("boom"));
        assert!(!is_cancelled(""));
    }
}
