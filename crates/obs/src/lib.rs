//! Zero-cost-when-disabled instrumentation for the slicing pipeline.
//!
//! Every analysis phase ([`Phase`]), cache access ([`Event::Cache`]), and
//! Figure-7 jump admission ([`Event::JumpAdmitted`]) in the workspace calls
//! into this crate. With no sink installed — the production default — each
//! call is a thread-local read and a branch; the `obs_overhead` bench pins
//! the cost at well under 2% of a batch sweep. With a sink installed via
//! [`ScopedSink`] (or the [`capture`] convenience), events flow to the
//! current thread's [`TraceSink`], where they can be aggregated
//! ([`Metrics`]) or serialized ([`trace_to_json`]) into the same
//! hand-rolled JSON dialect as `BENCH_slicing.json`.
//!
//! Sinks are **thread-local** by design: slicing algorithms are
//! single-threaded pure functions, so a scoped sink observes exactly the
//! work of one slicer without cross-test interference under `cargo test`'s
//! parallel runner. The batch engine's worker threads therefore emit
//! nothing themselves; the coordinating thread reports per-run utilization
//! through `BatchRunStats` and [`Event::Count`] events instead.
//!
//! # Examples
//!
//! ```
//! use jumpslice_obs as obs;
//! let (value, events) = obs::capture(|| {
//!     let _t = obs::phase(obs::Phase::PdgBuild);
//!     obs::record(|| obs::Event::Count { name: "edges", value: 3 });
//!     42
//! });
//! assert_eq!(value, 42);
//! assert_eq!(events.len(), 2); // the count, then the finished phase
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

pub use json::Json;

/// A lazily-built pipeline artifact whose cache behavior is tracked.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Artifact {
    /// The reaching-definitions fixpoint.
    ReachingDefs,
    /// The program dependence graph.
    Pdg,
    /// The postdominator tree.
    Pdom,
    /// The lexical successor tree.
    Lst,
    /// The flattened jump-chain index driving the sparse Figure-7 kernel.
    ChainIndex,
}

impl Artifact {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Artifact::ReachingDefs => "reaching_defs",
            Artifact::Pdg => "pdg",
            Artifact::Pdom => "pdom",
            Artifact::Lst => "lst",
            Artifact::ChainIndex => "chain_index",
        }
    }

    /// Parses a report name.
    pub fn from_name(s: &str) -> Option<Artifact> {
        [
            Artifact::ReachingDefs,
            Artifact::Pdg,
            Artifact::Pdom,
            Artifact::Lst,
            Artifact::ChainIndex,
        ]
        .into_iter()
        .find(|a| a.name() == s)
    }
}

/// A timed pipeline phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Phase {
    /// Parsing a program's source text (a cold load).
    Parse,
    /// Decoding a program from its snapshot record (a store restore).
    SnapshotDecode,
    /// The reaching-definitions fixpoint.
    ReachingDefs,
    /// Program-dependence-graph assembly (data + control halves and their
    /// SCC condensation).
    PdgBuild,
    /// Postdominator-tree construction.
    Postdominators,
    /// Lexical-successor-tree construction.
    LstBuild,
    /// Jump-chain index construction (flattened pdom/LST chains + masks
    /// for the sparse Figure-7 kernel).
    ChainIndexBuild,
    /// The conventional backward dependence closure (§2).
    ConventionalClosure,
    /// One round of the Figure-7 fixpoint (one full traversal of the jump
    /// visit order). The `round` field of [`Event::Phase`] is 1-based.
    FixpointRound,
    /// Label re-association (the final step of Figures 7/12/13).
    LabelReassoc,
    /// One whole batch run (`BatchSlicer::slice_all` and friends).
    BatchRun,
    /// One request handled by the serve daemon (parse, cache probe, slice
    /// work, response encoding).
    ServeRequest,
}

impl Phase {
    /// Stable report name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::SnapshotDecode => "snapshot_decode",
            Phase::ReachingDefs => "reaching_defs",
            Phase::PdgBuild => "pdg_build",
            Phase::Postdominators => "postdominators",
            Phase::LstBuild => "lst_build",
            Phase::ChainIndexBuild => "chain_index_build",
            Phase::ConventionalClosure => "conventional_closure",
            Phase::FixpointRound => "fixpoint_round",
            Phase::LabelReassoc => "label_reassoc",
            Phase::BatchRun => "batch_run",
            Phase::ServeRequest => "serve_request",
        }
    }

    /// Parses a report name.
    pub fn from_name(s: &str) -> Option<Phase> {
        [
            Phase::Parse,
            Phase::SnapshotDecode,
            Phase::ReachingDefs,
            Phase::PdgBuild,
            Phase::Postdominators,
            Phase::LstBuild,
            Phase::ChainIndexBuild,
            Phase::ConventionalClosure,
            Phase::FixpointRound,
            Phase::LabelReassoc,
            Phase::BatchRun,
            Phase::ServeRequest,
        ]
        .into_iter()
        .find(|p| p.name() == s)
    }
}

/// Why a slicer admitted a jump statement into the slice.
///
/// Statement positions are 1-based paper-style line numbers; `None` encodes
/// the program exit (implicitly part of every slice).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AdmitReason {
    /// Figure 7 / Figure 12: the jump's nearest postdominator in the slice
    /// differs from its nearest lexical successor in the slice.
    PdomLexsuccDisagree {
        /// Line of the nearest postdominator in the slice (`None` = exit).
        npd_line: Option<u32>,
        /// Line of the nearest lexical successor in the slice (`None` =
        /// exit).
        nls_line: Option<u32>,
    },
    /// Figure 13 (and Figure 12's precondition): the jump is directly
    /// control dependent on a predicate already in the slice.
    OnIncludedPredicate {
        /// Line of the in-slice controlling predicate.
        predicate_line: u32,
    },
    /// The workspace's do-while extension guard fired (answered by the
    /// chain index; `jumpslice_difftest::oracle::dowhile_hazard` states it
    /// as a tree walk).
    DoWhileHazard,
}

/// One instrumentation event.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// A timed phase finished.
    Phase {
        /// Which phase.
        kind: Phase,
        /// Wall-clock nanoseconds spent.
        ns: u64,
        /// 1-based round number for [`Phase::FixpointRound`]; `None`
        /// elsewhere.
        round: Option<u32>,
    },
    /// A lazily-cached artifact was requested.
    Cache {
        /// Which artifact.
        artifact: Artifact,
        /// `true` when already materialized, `false` when this request
        /// triggered the computation.
        hit: bool,
    },
    /// A slicing algorithm admitted a jump statement.
    JumpAdmitted {
        /// Algorithm name (`"fig7"`, `"fig12"`, `"fig13"`).
        algo: &'static str,
        /// 1-based line of the admitted jump.
        line: u32,
        /// 1-based fixpoint round (always 1 for the single-pass
        /// algorithms).
        round: u32,
        /// Why the jump was admitted.
        reason: AdmitReason,
    },
    /// A Figure-7 fixpoint round completed.
    Round {
        /// Algorithm name.
        algo: &'static str,
        /// 1-based round number.
        round: u32,
        /// Jumps admitted in this round (0 for the final, fixpoint-reaching
        /// round).
        admitted: u32,
    },
    /// A named counter sample.
    Count {
        /// Counter name, dot-separated (e.g. `"batch.queue_wait_ns"`).
        name: &'static str,
        /// Sampled value.
        value: u64,
    },
}

/// Receives events from the instrumented pipeline on the installing thread.
pub trait TraceSink {
    /// Called once per event, in program order.
    fn record(&self, ev: Event);
}

/// A [`TraceSink`] that appends every event to an interior vector.
#[derive(Default)]
pub struct CollectingSink {
    events: RefCell<Vec<Event>>,
}

impl CollectingSink {
    /// An empty sink.
    pub fn new() -> CollectingSink {
        CollectingSink::default()
    }

    /// Takes the events collected so far, leaving the sink empty.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut self.events.borrow_mut())
    }
}

impl TraceSink for CollectingSink {
    fn record(&self, ev: Event) {
        self.events.borrow_mut().push(ev);
    }
}

thread_local! {
    static SINK: RefCell<Option<Rc<dyn TraceSink>>> = const { RefCell::new(None) };
}

/// Whether a sink is installed on this thread. The disabled path of every
/// instrumentation hook is exactly this check.
#[inline]
pub fn enabled() -> bool {
    SINK.with(|s| s.borrow().is_some())
}

/// Records an event if a sink is installed on this thread. The closure is
/// only evaluated when enabled, so event construction costs nothing in the
/// disabled path.
#[inline]
pub fn record(make: impl FnOnce() -> Event) {
    // Clone the Rc out of the cell before calling the sink so a sink is
    // free to trigger nested instrumentation without a RefCell re-borrow.
    let sink = SINK.with(|s| s.borrow().clone());
    if let Some(sink) = sink {
        sink.record(make());
    }
}

/// Times a phase: the returned guard records [`Event::Phase`] when dropped.
/// When disabled at creation time the guard is inert (no clock read).
#[inline]
pub fn phase(kind: Phase) -> PhaseGuard {
    PhaseGuard {
        kind,
        round: None,
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

/// Like [`phase`], tagging the event with a 1-based fixpoint round.
#[inline]
pub fn phase_round(kind: Phase, round: u32) -> PhaseGuard {
    PhaseGuard {
        kind,
        round: Some(round),
        start: if enabled() {
            Some(Instant::now())
        } else {
            None
        },
    }
}

/// Guard returned by [`phase`]; records the elapsed time on drop.
#[must_use = "dropping the guard immediately records a zero-length phase"]
pub struct PhaseGuard {
    kind: Phase,
    round: Option<u32>,
    start: Option<Instant>,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let ns = start.elapsed().as_nanos().min(u64::MAX as u128) as u64;
            record(|| Event::Phase {
                kind: self.kind,
                ns,
                round: self.round,
            });
        }
    }
}

/// Installs a sink on the current thread for the guard's lifetime; the
/// previous sink (if any) is restored on drop, so scopes nest.
pub struct ScopedSink {
    previous: Option<Rc<dyn TraceSink>>,
}

impl ScopedSink {
    /// Installs `sink` on this thread.
    pub fn install(sink: Rc<dyn TraceSink>) -> ScopedSink {
        let previous = SINK.with(|s| s.borrow_mut().replace(sink));
        ScopedSink { previous }
    }
}

impl Drop for ScopedSink {
    fn drop(&mut self) {
        SINK.with(|s| *s.borrow_mut() = self.previous.take());
    }
}

/// Runs `f` with a fresh collecting sink installed on this thread and
/// returns its result alongside every event it emitted.
pub fn capture<T>(f: impl FnOnce() -> T) -> (T, Vec<Event>) {
    let sink = Rc::new(CollectingSink::new());
    let guard = ScopedSink::install(sink.clone());
    let value = f();
    drop(guard);
    let events = sink.take();
    (value, events)
}

/// Aggregated view of an event stream: per-phase totals, cache hit/miss
/// tallies, jump admissions, and counter sums.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Metrics {
    /// Total nanoseconds per phase name (fixpoint rounds folded together).
    pub phase_ns: BTreeMap<&'static str, u64>,
    /// Completed-phase count per phase name.
    pub phase_count: BTreeMap<&'static str, u64>,
    /// Cache hits per artifact name.
    pub cache_hits: BTreeMap<&'static str, u64>,
    /// Cache misses (computations) per artifact name.
    pub cache_misses: BTreeMap<&'static str, u64>,
    /// Jumps admitted per algorithm name.
    pub admitted: BTreeMap<&'static str, u64>,
    /// Highest fixpoint round seen per algorithm name.
    pub rounds: BTreeMap<&'static str, u32>,
    /// Last value per counter name (counters are snapshots, not deltas).
    pub counts: BTreeMap<&'static str, u64>,
}

impl Metrics {
    /// Aggregates an event stream.
    pub fn of(events: &[Event]) -> Metrics {
        let mut m = Metrics::default();
        for ev in events {
            match ev {
                Event::Phase { kind, ns, .. } => {
                    *m.phase_ns.entry(kind.name()).or_default() += ns;
                    *m.phase_count.entry(kind.name()).or_default() += 1;
                }
                Event::Cache { artifact, hit } => {
                    let map = if *hit {
                        &mut m.cache_hits
                    } else {
                        &mut m.cache_misses
                    };
                    *map.entry(artifact.name()).or_default() += 1;
                }
                Event::JumpAdmitted { algo, .. } => {
                    *m.admitted.entry(algo).or_default() += 1;
                }
                Event::Round { algo, round, .. } => {
                    let r = m.rounds.entry(algo).or_default();
                    *r = (*r).max(*round);
                }
                Event::Count { name, value } => {
                    m.counts.insert(name, *value);
                }
            }
        }
        m
    }
}

fn opt_line_json(l: Option<u32>) -> Json {
    match l {
        Some(n) => Json::Num(n as f64),
        None => Json::Str("exit".to_owned()),
    }
}

fn opt_line_from_json(j: &Json) -> Result<Option<u32>, String> {
    match j {
        Json::Num(n) => Ok(Some(*n as u32)),
        Json::Str(s) if s == "exit" => Ok(None),
        other => Err(format!("expected line number or \"exit\", got {other:?}")),
    }
}

/// Serializes an event stream as a JSON array in the same hand-rolled
/// dialect as `BENCH_slicing.json`. Round-trips through
/// [`events_from_json`].
pub fn trace_to_json(events: &[Event]) -> Json {
    let arr = events
        .iter()
        .map(|ev| {
            let mut obj: Vec<(String, Json)> = Vec::new();
            let mut put = |k: &str, v: Json| obj.push((k.to_owned(), v));
            match ev {
                Event::Phase { kind, ns, round } => {
                    put("event", Json::Str("phase".into()));
                    put("phase", Json::Str(kind.name().into()));
                    put("ns", Json::Num(*ns as f64));
                    if let Some(r) = round {
                        put("round", Json::Num(*r as f64));
                    }
                }
                Event::Cache { artifact, hit } => {
                    put("event", Json::Str("cache".into()));
                    put("artifact", Json::Str(artifact.name().into()));
                    put("hit", Json::Bool(*hit));
                }
                Event::JumpAdmitted {
                    algo,
                    line,
                    round,
                    reason,
                } => {
                    put("event", Json::Str("jump_admitted".into()));
                    put("algo", Json::Str((*algo).into()));
                    put("line", Json::Num(*line as f64));
                    put("round", Json::Num(*round as f64));
                    match reason {
                        AdmitReason::PdomLexsuccDisagree { npd_line, nls_line } => {
                            put("reason", Json::Str("pdom-vs-lexsucc".into()));
                            put("npd", opt_line_json(*npd_line));
                            put("nls", opt_line_json(*nls_line));
                        }
                        AdmitReason::OnIncludedPredicate { predicate_line } => {
                            put("reason", Json::Str("on-included-predicate".into()));
                            put("predicate", Json::Num(*predicate_line as f64));
                        }
                        AdmitReason::DoWhileHazard => {
                            put("reason", Json::Str("dowhile-hazard".into()));
                        }
                    }
                }
                Event::Round {
                    algo,
                    round,
                    admitted,
                } => {
                    put("event", Json::Str("round".into()));
                    put("algo", Json::Str((*algo).into()));
                    put("round", Json::Num(*round as f64));
                    put("admitted", Json::Num(*admitted as f64));
                }
                Event::Count { name, value } => {
                    put("event", Json::Str("count".into()));
                    put("name", Json::Str((*name).into()));
                    put("value", Json::Num(*value as f64));
                }
            }
            Json::Obj(obj)
        })
        .collect();
    Json::Arr(arr)
}

/// Algorithm names an event stream may mention; [`events_from_json`] interns
/// parsed names against this list (events carry `&'static str`).
const KNOWN_ALGOS: &[&str] = &["fig7", "fig12", "fig13"];

fn intern_algo(s: &str) -> Result<&'static str, String> {
    KNOWN_ALGOS
        .iter()
        .copied()
        .find(|k| *k == s)
        .ok_or_else(|| format!("unknown algorithm name `{s}`"))
}

/// Counter names an event stream may mention (see [`events_from_json`]).
const KNOWN_COUNTS: &[&str] = &[
    "reaching.fixpoint_passes",
    "domtree.fixpoint_passes",
    "pdg.data_edges",
    "pdg.control_edges",
    "batch.criteria",
    "batch.threads",
    "batch.queue_wait_ns",
    "batch.busy_ns",
    "batch.wall_ns",
    "sparse.chains",
    "sparse.chain_stmts",
    "sparse.retests",
    "sparse.dirty_marks",
    "sparse.walk_steps",
    "serve.cache.hit",
    "serve.cache.miss",
    "serve.cache.evict",
    "serve.requests",
    "serve.degraded",
    "serve.store.hit",
    "serve.store.miss",
    "serve.store.evict",
    "serve.store.corrupt",
    "serve.store.write",
    "store.corrupt_fallback",
    "edges",
];

fn intern_count(s: &str) -> Result<&'static str, String> {
    KNOWN_COUNTS
        .iter()
        .copied()
        .find(|k| *k == s)
        .ok_or_else(|| format!("unknown counter name `{s}`"))
}

/// Parses an event stream serialized by [`trace_to_json`].
pub fn events_from_json(j: &Json) -> Result<Vec<Event>, String> {
    let arr = j.as_arr().ok_or("trace is not an array")?;
    let mut out = Vec::with_capacity(arr.len());
    for item in arr {
        let kind = item
            .get("event")
            .and_then(Json::as_str)
            .ok_or("event object missing `event` tag")?;
        let num = |k: &str| -> Result<f64, String> {
            item.get(k)
                .and_then(Json::as_num)
                .ok_or_else(|| format!("`{kind}` event missing numeric `{k}`"))
        };
        let text = |k: &str| -> Result<&str, String> {
            item.get(k)
                .and_then(Json::as_str)
                .ok_or_else(|| format!("`{kind}` event missing string `{k}`"))
        };
        let ev = match kind {
            "phase" => Event::Phase {
                kind: Phase::from_name(text("phase")?)
                    .ok_or_else(|| format!("unknown phase `{}`", text("phase").unwrap()))?,
                ns: num("ns")? as u64,
                round: item.get("round").and_then(Json::as_num).map(|r| r as u32),
            },
            "cache" => Event::Cache {
                artifact: Artifact::from_name(text("artifact")?)
                    .ok_or_else(|| format!("unknown artifact `{}`", text("artifact").unwrap()))?,
                hit: item
                    .get("hit")
                    .and_then(Json::as_bool)
                    .ok_or("`cache` event missing bool `hit`")?,
            },
            "jump_admitted" => {
                let reason = match text("reason")? {
                    "pdom-vs-lexsucc" => AdmitReason::PdomLexsuccDisagree {
                        npd_line: opt_line_from_json(item.get("npd").ok_or("missing `npd`")?)?,
                        nls_line: opt_line_from_json(item.get("nls").ok_or("missing `nls`")?)?,
                    },
                    "on-included-predicate" => AdmitReason::OnIncludedPredicate {
                        predicate_line: num("predicate")? as u32,
                    },
                    "dowhile-hazard" => AdmitReason::DoWhileHazard,
                    other => return Err(format!("unknown admit reason `{other}`")),
                };
                Event::JumpAdmitted {
                    algo: intern_algo(text("algo")?)?,
                    line: num("line")? as u32,
                    round: num("round")? as u32,
                    reason,
                }
            }
            "round" => Event::Round {
                algo: intern_algo(text("algo")?)?,
                round: num("round")? as u32,
                admitted: num("admitted")? as u32,
            },
            "count" => Event::Count {
                name: intern_count(text("name")?)?,
                value: num("value")? as u64,
            },
            other => return Err(format!("unknown event kind `{other}`")),
        };
        out.push(ev);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default() {
        assert!(!enabled());
        // No sink: record must not panic and must not evaluate eagerly
        // observable side effects beyond the closure being skipped.
        let mut ran = false;
        record(|| {
            ran = true;
            Event::Count {
                name: "edges",
                value: 0,
            }
        });
        assert!(!ran, "event closure must not run when disabled");
    }

    #[test]
    fn capture_scopes_and_restores() {
        let (_, outer) = capture(|| {
            record(|| Event::Count {
                name: "edges",
                value: 1,
            });
            let (_, inner) = capture(|| {
                record(|| Event::Count {
                    name: "edges",
                    value: 2,
                });
            });
            assert_eq!(inner.len(), 1, "inner scope sees only its own events");
            record(|| Event::Count {
                name: "edges",
                value: 3,
            });
        });
        assert!(!enabled(), "sink uninstalled after capture");
        let values: Vec<u64> = outer
            .iter()
            .map(|e| match e {
                Event::Count { value, .. } => *value,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(values, vec![1, 3], "outer scope skips the nested capture");
    }

    #[test]
    fn phase_guard_times() {
        let (_, events) = capture(|| {
            let _g = phase_round(Phase::FixpointRound, 2);
            std::hint::black_box(0);
        });
        assert_eq!(events.len(), 1);
        match &events[0] {
            Event::Phase { kind, round, .. } => {
                assert_eq!(*kind, Phase::FixpointRound);
                assert_eq!(*round, Some(2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn metrics_aggregate() {
        let events = vec![
            Event::Phase {
                kind: Phase::PdgBuild,
                ns: 100,
                round: None,
            },
            Event::Phase {
                kind: Phase::FixpointRound,
                ns: 40,
                round: Some(1),
            },
            Event::Phase {
                kind: Phase::FixpointRound,
                ns: 60,
                round: Some(2),
            },
            Event::Cache {
                artifact: Artifact::Pdg,
                hit: false,
            },
            Event::Cache {
                artifact: Artifact::Pdg,
                hit: true,
            },
            Event::JumpAdmitted {
                algo: "fig7",
                line: 7,
                round: 1,
                reason: AdmitReason::DoWhileHazard,
            },
            Event::Round {
                algo: "fig7",
                round: 2,
                admitted: 0,
            },
            Event::Count {
                name: "edges",
                value: 9,
            },
        ];
        let m = Metrics::of(&events);
        assert_eq!(m.phase_ns["fixpoint_round"], 100);
        assert_eq!(m.phase_count["fixpoint_round"], 2);
        assert_eq!(m.phase_ns["pdg_build"], 100);
        assert_eq!(m.cache_hits["pdg"], 1);
        assert_eq!(m.cache_misses["pdg"], 1);
        assert_eq!(m.admitted["fig7"], 1);
        assert_eq!(m.rounds["fig7"], 2);
        assert_eq!(m.counts["edges"], 9);
    }

    #[test]
    fn trace_json_round_trips() {
        let events = vec![
            Event::Phase {
                kind: Phase::ReachingDefs,
                ns: 12345,
                round: None,
            },
            Event::Phase {
                kind: Phase::FixpointRound,
                ns: 777,
                round: Some(2),
            },
            Event::Cache {
                artifact: Artifact::Lst,
                hit: true,
            },
            Event::JumpAdmitted {
                algo: "fig7",
                line: 13,
                round: 1,
                reason: AdmitReason::PdomLexsuccDisagree {
                    npd_line: Some(3),
                    nls_line: None,
                },
            },
            Event::JumpAdmitted {
                algo: "fig13",
                line: 5,
                round: 1,
                reason: AdmitReason::OnIncludedPredicate { predicate_line: 4 },
            },
            Event::JumpAdmitted {
                algo: "fig12",
                line: 9,
                round: 1,
                reason: AdmitReason::DoWhileHazard,
            },
            Event::Round {
                algo: "fig7",
                round: 2,
                admitted: 0,
            },
            Event::Count {
                name: "batch.criteria",
                value: 120,
            },
        ];
        let text = trace_to_json(&events).write_pretty();
        let parsed = Json::parse(&text).expect("emitted trace parses");
        let back = events_from_json(&parsed).expect("parsed trace decodes");
        assert_eq!(back, events);
    }
}
