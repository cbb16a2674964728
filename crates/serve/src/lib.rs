//! Slice-as-a-service: a long-running daemon around the jumpslice
//! pipeline.
//!
//! The batch engine answers many criteria against one program; the
//! incremental engine answers many *edits* against one program. This crate
//! adds the missing axis — many **programs**, over time, from clients that
//! come and go — without re-paying parse + analysis per request:
//!
//! * [`hash`] — content-addressed program keys (FNV-1a 64).
//! * [`cache`] — the multi-program LRU of warmed [`jumpslice_incr::EditSession`]s,
//!   byte-budgeted, with check-out/check-in concurrency.
//! * [`proto`] — the JSON-lines request protocol (`load`, `slice`, `edit`,
//!   `chop`, `explain`, `stats`, `shutdown`).
//! * [`engine`] — request execution: deadlines via
//!   [`jumpslice_core::cancel`], graceful degradation to the Figure-13
//!   conservative slicer, per-request panic containment.
//! * [`server`] — the admission gate and the stdin/TCP front-ends; each
//!   request runs on its client's own thread.
//! * [`fault`] — the deterministic fault-injection seam the chaos harness
//!   drives; a no-op unless a hook is installed.
//!
//! The binary (`jumpslice-serve`) wires these together; see `src/main.rs`
//! and the README's daemon quickstart. Everything is dependency-free std,
//! like the rest of the workspace.
//!
//! # Example (in-process)
//!
//! ```
//! use jumpslice_serve::engine::Engine;
//! use jumpslice_obs::Json;
//!
//! let e = Engine::new(64 << 20);
//! let resp = e.handle_line(r#"{"op":"load","source":"read(x); write(x);"}"#);
//! let j = Json::parse(&resp).unwrap();
//! assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true));
//! let key = j.get("program").and_then(Json::as_str).unwrap();
//! let resp = e.handle_line(&format!(
//!     r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":2}}]}}"#
//! ));
//! assert!(resp.contains(r#""ok":true"#));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod engine;
pub mod fault;
pub mod hash;
pub mod proto;
pub mod server;

pub use cache::{AnalysisCache, CacheStats, Entry};
pub use engine::Engine;
pub use fault::{FaultHook, LeaseEvent, SharedFaultHook, SliceFault};
pub use hash::{content_hash, key_string, parse_key};
pub use proto::{parse_request, Request};
pub use server::{run, Pool, ServerConfig};
