//! `jumpslice-chaos`: deterministic fault injection and concurrency stress
//! for the slice daemon and its snapshot store.
//!
//! The serve and store layers promise a lot under failure: torn writes
//! never become served snapshots, a worker panic costs one response, a
//! blown deadline degrades to the paper's Figure-13 conservative slicer
//! and nothing else, the cache never double-leases or evicts a
//! checked-out analysis, shutdown always drains. Unit tests pin each
//! mechanism in isolation; this crate attacks the *composition*, the way
//! operations would — except that every "random" failure here is a
//! deterministic, replayable schedule:
//!
//! * [`FaultPlan`] ([`plan`]) — pure data addressing each fault by call
//!   count (the Nth store write, the Nth slice execution), never by
//!   wall-clock or OS scheduling. Sampled from a seed, greedily shrunk to
//!   1-minimal counterexamples ([`shrink_plan`]), emitted as ready-to-paste
//!   regression tests ([`regression_test`]).
//! * [`FaultIo`] ([`io`]) — a [`jumpslice_store::StoreIo`] that injects
//!   failed/bit-flipped reads, failed/torn writes, and failed
//!   renames/removals on schedule.
//! * [`ChaosHook`] ([`hook`]) — a [`jumpslice_serve::FaultHook`] that
//!   injects worker panics, clock-free cancellations (checkpoint fuel),
//!   and queue rejections, while its [`LeaseTracker`] replays the cache's
//!   lease-event stream into invariant verdicts.
//! * [`run_plan`] / [`run_chaos`] ([`driver`]) — replay difftest-generated
//!   corpora through a real daemon (the serve binary's admission gate and
//!   request path, a snapshot store) under a plan, asserting after every
//!   response that the answer is byte-identical to a pristine engine's, or
//!   degraded exactly to the direct Figure-13 answer, or an error the plan
//!   caused and the daemon recovers from.
//! * [`self_test_lease_eviction_detected`] /
//!   [`self_test_forged_snapshot_detected`] — inject *known* bugs (a cache
//!   that evicts leased entries; a checksum-valid forged snapshot) and
//!   prove the harness detects both classes, so a green chaos run means
//!   something.
//!
//! # Example
//!
//! ```
//! use jumpslice_chaos::{run_plan, ChaosConfig, FaultPlan};
//!
//! let cfg = ChaosConfig {
//!     plans: 1,
//!     stress_clients: 0,
//!     ..ChaosConfig::smoke()
//! };
//! let outcome = run_plan(&cfg, 0, &FaultPlan::quiet(0));
//! assert_eq!(outcome.violations, Vec::<String>::new());
//! assert!(outcome.cases > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod driver;
pub mod hook;
pub mod io;
pub mod plan;

pub use driver::{
    run_chaos, run_plan, self_test_forged_snapshot_detected, self_test_lease_eviction_detected,
    ChaosConfig, ChaosFinding, ChaosReport, PlanOutcome,
};
pub use hook::{ChaosHook, LeaseTracker};
pub use io::FaultIo;
pub use plan::{regression_test, shrink_plan, FaultPlan, IoFault, IoFaultKind, SliceFaultAt};
