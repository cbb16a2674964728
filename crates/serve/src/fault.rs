//! The daemon-side fault plane: deterministic injection points at the
//! cache, engine, and admission decision boundaries.
//!
//! Production deployments never install a hook — every probe site costs
//! one `Option` check. The `jumpslice-chaos` crate installs a seeded
//! [`FaultHook`] (via [`crate::Engine::with_fault_hook`]) that *observes*
//! lease traffic and *injects* failures exactly where the daemon makes a
//! recoverability decision:
//!
//! * **Lease events** ([`LeaseEvent`]) — every check-out, check-in, abort,
//!   insert, and eviction the [`crate::AnalysisCache`] performs, reported
//!   synchronously so an external tracker can prove the no-double-lease
//!   and no-leased-eviction invariants against the real interleaving.
//! * **Slice faults** ([`SliceFault`]) — a worker panic mid-request, or a
//!   deterministic deadline expiry (checkpoint fuel, no wall clock), both
//!   of which must degrade the one response and nothing else.
//! * **Admission rejection** — a request refused at the admission gate
//!   every front-end shares, answered with a structured `"queue full"`
//!   error instead of waiting for a slot.
//! * **Forced lease eviction** ([`FaultHook::evict_leased`]) — a
//!   *deliberately wrong* override that makes the cache violate its own
//!   checked-out-entries-are-pinned rule. It exists so the chaos harness
//!   can prove it *detects* the violation (`--inject-known-bug`); nothing
//!   else may ever return `true`.
//!
//! Hooks are called with cache-internal locks held; implementations must
//! not call back into the cache or block.

use std::sync::Arc;

/// One cache lease-lifecycle event, reported to the installed hook at the
/// instant it happens (under the cache lock, so the reported order *is*
/// the authoritative order).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LeaseEvent {
    /// An entry was leased (checked out) under `key`.
    Checkout {
        /// Content key of the leased entry.
        key: u64,
    },
    /// A checkout found nothing resident under `key`.
    Miss {
        /// Content key that missed.
        key: u64,
    },
    /// A leased entry was returned; an edit may have moved it.
    Checkin {
        /// Key the lease was taken under.
        old_key: u64,
        /// Key the entry now lives under (== `old_key` unless edited).
        new_key: u64,
    },
    /// A leased entry was dropped instead of returned (panic recovery).
    Abort {
        /// Key the lease was taken under.
        key: u64,
    },
    /// A new entry was registered under `key`.
    Insert {
        /// Content key of the new entry.
        key: u64,
    },
    /// An entry was evicted under `key`. `leased` marks a victim that was
    /// checked out at the time — legal only under the known-bug override,
    /// and exactly what the chaos lease tracker must flag.
    Evict {
        /// Content key of the victim.
        key: u64,
        /// Whether the victim was leased (always a violation).
        leased: bool,
    },
}

/// What to inject into the next slice execution.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SliceFault {
    /// Run normally.
    #[default]
    None,
    /// Panic mid-request, as a worker bug would. Must surface as one
    /// `{"ok":false}` response with the entry dropped, never a dead worker
    /// or a poisoned cache.
    Panic,
    /// Cancel after exactly this many slicer checkpoints (clock-free
    /// deadline expiry via [`jumpslice_core::cancel::fuel`]). Must surface
    /// as a `"degraded":true` Figure-13 answer.
    CancelAfter(u64),
}

/// The daemon's fault-injection interface. Every method has a no-op
/// default, so a hook overrides only the decision points it cares about.
pub trait FaultHook: Send + Sync {
    /// Observes one cache lease event (called under the cache lock; do
    /// not block or call back into the cache).
    fn lease(&self, event: LeaseEvent) {
        let _ = event;
    }

    /// Known-bug override: when `true`, the cache's eviction pass may
    /// victimize checked-out entries. Only the chaos self-test returns
    /// `true`, to prove the lease tracker catches the violation.
    fn evict_leased(&self) -> bool {
        false
    }

    /// Consulted once at the start of every `slice` execution; the
    /// returned fault is injected into that request.
    fn slice_fault(&self) -> SliceFault {
        SliceFault::None
    }

    /// Observes a successful snapshot-store restore of `key`.
    fn restored(&self, key: u64) {
        let _ = key;
    }

    /// When `true`, the concurrency shell refuses the next request at
    /// admission, before it waits for a slot, with a structured
    /// `"queue full"` error. Consulted once per request line on every
    /// front-end.
    fn reject_enqueue(&self) -> bool {
        false
    }
}

/// How fault hooks are shared across the cache, engine, and gate.
pub type SharedFaultHook = Arc<dyn FaultHook>;
