//! The traced run. It replays a plan's op stream in-process, one request at
//! a time, through two executors:
//!
//! - the real [`Engine::handle_line`], timed as a whole;
//! - a mirror that makes the engine's sequence of public calls (the same
//!   cache, the same `EditSession::with_analysis`, `warm_parallel` only
//!   when the analysis is not warm, the same response encoding), each call
//!   inside a span.
//!
//! Every mirrored response must be byte-identical to the engine's, or the
//! run fails: the spans describe the shipped configuration, not a lookalike.
//! A request's unattributed time is the engine's wall time minus the mirror
//! spans directly under it.
//!
//! `warm_parallel` overlaps its phases on helper threads, so on a cold warm
//! the phase spans cannot be taken inside it. After such a request the
//! mirror rebuilds the same pre-warm state and forces each phase in turn
//! under an `attribution` span. Those spans attribute busy time per phase;
//! they are not part of any request's wall time.

use crate::client::{Record, CACHE_BYTES, STORE_BYTES};
use crate::report::Metric;
use crate::workload::{Check, Op, Phase, Plan, Shape};
use jumpslice_core::{
    cancel, conservative_slice, decode_snapshot, encode_snapshot, Analysis, AnalysisSeed,
    BatchSlicer, Criterion,
};
use jumpslice_incr::{ApplyPath, EditSession};
use jumpslice_lang::{parse, print_program, Program};
use jumpslice_obs::Json;
use jumpslice_serve::engine::algo_by_name;
use jumpslice_serve::proto::{parse_request, CritSpec, Request};
use jumpslice_serve::{content_hash, key_string, AnalysisCache, Engine, Entry};
use jumpslice_store::SnapshotStore;
use std::collections::{BTreeMap, HashSet};
use std::path::Path;
use std::time::{Duration, Instant};

/// Content-key hashing of a source text.
const HASH: &str = "serve.content_hash";
/// Cache check-out, check-in and insert (which evicts, and drops what it
/// evicts).
const CACHE: &str = "serve.cache";
/// Root span of one mirrored request.
const REQUEST: &str = "serve.request";
/// Root span of a cold warm's phase-by-phase attribution.
const ATTRIBUTION: &str = "attribution";
/// Spans whose totals are also split by program shape.
const BY_SHAPE: [&str; 2] = ["core.fig7", "core.slice_lines"];
/// The phases `attribute` forces one by one.
const PHASES: [&str; 6] = [
    "dataflow.reaching",
    "graph.pdom",
    "pdg.build",
    "core.lst",
    "core.chain_index",
    "pdg.closure_index",
];

/// The layer metrics every workload reports (BENCHMARK.json `per_layer`).
/// Layers only some workloads reach (edits, the store, degradation) are
/// printed and written to the layers file too, but not listed here.
pub const LAYERS: [(&str, &str); 29] = [
    ("serve.handle_line_ms", "ms"),
    ("serve.unattributed_ms", "ms"),
    ("serve.unattributed_frac", "ratio"),
    ("serve.content_hash_ms", "ms"),
    ("serve.cache_ms", "ms"),
    ("obs.json_parse_ms", "ms"),
    ("obs.json_encode_ms", "ms"),
    ("lang.parse_ms", "ms"),
    ("cfg.build_ms", "ms"),
    ("dataflow.reaching_ms", "ms"),
    ("graph.pdom_ms", "ms"),
    ("pdg.build_ms", "ms"),
    ("core.lst_ms", "ms"),
    ("core.chain_index_ms", "ms"),
    ("pdg.closure_index_ms", "ms"),
    ("core.warm_parallel_ms", "ms"),
    ("core.warm_overlap", "ratio"),
    ("core.analysis_seed_ms", "ms"),
    ("core.fig7_ms", "ms"),
    ("core.fig7_ms.s1k", "ms"),
    ("core.fig7_ms.u1k", "ms"),
    ("core.fig7_ms.s5k", "ms"),
    ("core.fig7_ms.u5k", "ms"),
    ("core.slice_lines_ms", "ms"),
    ("core.slice_lines_ms.s1k", "ms"),
    ("core.slice_lines_ms.u1k", "ms"),
    ("core.slice_lines_ms.s5k", "ms"),
    ("core.slice_lines_ms.u5k", "ms"),
    ("trace.overhead_frac", "ratio"),
];

pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    /// The request the span belongs to (its index in the replay).
    pub op: usize,
    pub name: &'static str,
    pub shape: Shape,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans held in memory, written out when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: usize,
    shape: Shape,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            shape: Shape::S1k,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            op: self.op,
            name,
            shape: self.shape,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    pub fn close(&mut self, id: usize) {
        let end = self.now();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end;
    }

    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.open(name);
        let r = f(self);
        self.close(id);
        r
    }
}

/// Each span's time covered by its direct children.
fn child_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.ns();
        }
    }
    child
}

/// Each span's self time: its duration minus the part its children cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    spans
        .iter()
        .zip(child_ns(spans))
        .map(|(s, c)| s.ns().saturating_sub(c))
        .collect()
}

/// Whether the analysis `with_analysis` would build from `seed` is warm —
/// `Analysis::is_warm` read off the seed before the analysis exists.
fn seed_is_warm(seed: &AnalysisSeed) -> bool {
    seed.reaching.is_some()
        && seed.pdg.is_some()
        && seed.pdom.is_some()
        && seed.lst.is_some()
        && seed.chain_index.is_some()
}

type Fields = Vec<(String, Json)>;

/// The engine's request path, call for call.
struct Mirror {
    cache: AnalysisCache,
    store: Option<SnapshotStore>,
    threads: usize,
    /// Keys an edit produced whose next warm is a re-warm.
    edited: HashSet<u64>,
    /// Program and seed of the last cold warm, for `attribute`.
    pending: Option<(Program, AnalysisSeed)>,
}

impl Mirror {
    fn new(store: Option<SnapshotStore>) -> Mirror {
        Mirror {
            cache: AnalysisCache::new(CACHE_BYTES),
            store,
            threads: crate::report::available_parallelism(),
            edited: HashSet::new(),
            pending: None,
        }
    }

    fn handle_line(&mut self, line: &str, t: &mut Tracer) -> String {
        let parsed = t.span("obs.json_parse", |_| Json::parse(line));
        let id = parsed.as_ref().ok().and_then(|j| j.get("id").cloned());
        let body = match &parsed {
            Err(e) => Err(format!("request is not valid JSON: {e}")),
            Ok(j) => parse_request(j).and_then(|req| self.execute(req, t)),
        };
        let mut fields = Vec::new();
        if let Some(id) = id {
            fields.push(("id".to_owned(), id));
        }
        match body {
            Ok(mut ok) => {
                fields.push(("ok".to_owned(), Json::Bool(true)));
                fields.append(&mut ok);
            }
            Err(msg) => {
                fields.push(("ok".to_owned(), Json::Bool(false)));
                fields.push(("error".to_owned(), Json::Str(msg)));
            }
        }
        t.span("obs.json_encode", |_| Json::Obj(fields).write_compact())
    }

    fn checkout(&self, key: u64) -> Result<Entry, String> {
        self.cache.checkout(key).ok_or_else(|| {
            format!(
                "unknown program '{}' (never loaded, or evicted — re-send 'load')",
                key_string(key)
            )
        })
    }

    fn execute(&mut self, req: Request, t: &mut Tracer) -> Result<Fields, String> {
        match req {
            Request::Load { source } => self.load(source, t),
            Request::Slice {
                program,
                algo,
                criteria,
                deadline_ms,
            } => {
                let mut entry = t.span(CACHE, |_| self.checkout(program))?;
                let out = self.slice(program, &mut entry, &algo, &criteria, deadline_ms, t);
                if out.is_ok() {
                    self.store_save(program, &entry, t);
                }
                t.span(CACHE, |_| self.cache.checkin(program, program, entry));
                out
            }
            Request::Edit { program, edit } => {
                let mut entry = t.span(CACHE, |_| self.checkout(program))?;
                match t.span("incr.apply", |_| entry.session.apply(&edit)) {
                    Ok(outcome) => {
                        let new_source =
                            t.span("lang.print", |_| print_program(entry.session.prog()));
                        let new_key = t.span(HASH, |_| content_hash(&new_source));
                        let stmts = entry.session.prog().len();
                        let fresh = Entry::new(entry.session, new_source);
                        t.span(CACHE, |_| self.cache.checkin(program, new_key, fresh));
                        self.edited.insert(new_key);
                        let path = match outcome.path {
                            ApplyPath::ExprPatch => "expr_patch",
                            ApplyPath::SeededResolve => "seeded_resolve",
                            ApplyPath::FullRebuild => "full_rebuild",
                        };
                        Ok(vec![
                            ("program".to_owned(), Json::Str(key_string(new_key))),
                            ("path".to_owned(), Json::Str(path.to_owned())),
                            (
                                "dirty_stmts".to_owned(),
                                Json::Num(outcome.dirty_stmts as f64),
                            ),
                            ("stmts".to_owned(), Json::Num(stmts as f64)),
                        ])
                    }
                    Err(e) => {
                        t.span(CACHE, |_| self.cache.checkin(program, program, entry));
                        Err(format!("edit rejected: {e}"))
                    }
                }
            }
            _ => Err("the mirror replays load, slice and edit requests only".to_owned()),
        }
    }

    fn load(&mut self, source: String, t: &mut Tracer) -> Result<Fields, String> {
        let key = t.span(HASH, |_| content_hash(&source));
        let (session, restored) = match self.restore(key, &source, t) {
            Some(session) => (session, true),
            None => {
                let prog = t
                    .span("lang.parse", |_| parse(&source))
                    .map_err(|e| format!("parse error: {e}"))?;
                let session = t
                    .span("cfg.build", |_| EditSession::try_new(prog))
                    .map_err(|e| format!("unanalyzable: {e}"))?;
                (session, false)
            }
        };
        let stmts = session.prog().len();
        let entry = Entry::new(session, source);
        let cached = t.span(CACHE, |_| self.cache.insert(key, entry));
        Ok(vec![
            ("program".to_owned(), Json::Str(key_string(key))),
            ("stmts".to_owned(), Json::Num(stmts as f64)),
            ("cached".to_owned(), Json::Bool(cached)),
            ("restored".to_owned(), Json::Bool(restored)),
        ])
    }

    fn restore(&self, key: u64, source: &str, t: &mut Tracer) -> Option<EditSession> {
        let store = self.store.as_ref()?;
        let payload = t.span("store.load", |_| store.load(key))?;
        // The record bytes are freed inside the span, as they are right
        // after decoding in the engine.
        let snap = t
            .span("core.snapshot_decode", move |_| decode_snapshot(&payload))
            .ok()?;
        if snap.source != source {
            return None;
        }
        t.span("incr.session", |_| {
            EditSession::try_with_seed(snap.prog, snap.seed)
        })
        .ok()
    }

    fn store_save(&self, key: u64, entry: &Entry, t: &mut Tracer) {
        let Some(store) = &self.store else { return };
        if store.contains(key) {
            return;
        }
        let payload = t.span("core.snapshot_encode", |_| {
            encode_snapshot(&entry.source, entry.session.prog(), entry.session.seed())
        });
        if let Err(e) = t.span("store.save", |_| store.save(key, &payload)) {
            eprintln!("jsbench: mirror could not persist a snapshot: {e}");
        }
    }

    fn slice(
        &mut self,
        key: u64,
        entry: &mut Entry,
        algo_name: &str,
        specs: &[CritSpec],
        deadline_ms: Option<u64>,
        t: &mut Tracer,
    ) -> Result<Fields, String> {
        let algo = algo_by_name(algo_name).ok_or_else(|| {
            format!("unknown algorithm '{algo_name}' (try fig7, conventional, fig12, fig13)")
        })?;
        let prog = entry.session.prog();
        let criteria = specs
            .iter()
            .map(|s| match (&s.vars, prog.try_at_line(s.line)) {
                (None, Some(stmt)) => Ok(Criterion::at_stmt(stmt)),
                _ => Err(format!("the mirror cannot resolve criterion {s:?}")),
            })
            .collect::<Result<Vec<_>, _>>()?;
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        let cold = !seed_is_warm(entry.session.seed());
        let warm_span = if self.edited.remove(&key) {
            "incr.rewarm"
        } else {
            "core.warm_parallel"
        };
        if cold {
            self.pending = Some((prog.clone(), entry.session.seed().clone()));
        }
        let threads = self.threads;
        let attempt = t.span("core.analysis_seed", |t| {
            entry.session.with_analysis(|a| {
                if !a.is_warm() {
                    t.span(warm_span, |_| a.warm_parallel(threads));
                }
                let name = if deadline.is_some() {
                    "core.cancel"
                } else {
                    "core.fig7"
                };
                t.span(name, |_| {
                    BatchSlicer::new(a)
                        .with_threads(1)
                        .with_deadline(deadline)
                        .with_checkpoint_fuel(None)
                        .try_slice_all(algo, &criteria)
                })
            })
        });
        let (slices, degraded) = match attempt {
            Ok(slices) => (slices, false),
            Err(bp) if cancel::is_cancelled(&bp.message) => {
                let slices = t
                    .span("core.analysis_seed", |t| {
                        entry.session.with_analysis(|a| {
                            t.span("core.fig13", |_| {
                                BatchSlicer::new(a)
                                    .with_threads(1)
                                    .try_slice_all(conservative_slice, &criteria)
                            })
                        })
                    })
                    .map_err(|bp| format!("degraded slicer failed: {bp}"))?;
                (slices, true)
            }
            Err(bp) => return Err(format!("slicer panicked: {bp}")),
        };
        let prog = entry.session.prog();
        let out = specs
            .iter()
            .zip(&slices)
            .map(|(spec, s)| {
                let lines = t.span("core.slice_lines", |_| s.lines(prog));
                Json::Obj(vec![
                    ("line".to_owned(), Json::Num(spec.line as f64)),
                    (
                        "lines".to_owned(),
                        Json::Arr(lines.into_iter().map(|l| Json::Num(l as f64)).collect()),
                    ),
                ])
            })
            .collect();
        Ok(vec![
            ("algo".to_owned(), Json::Str(algo_name.to_owned())),
            ("degraded".to_owned(), Json::Bool(degraded)),
            ("slices".to_owned(), Json::Arr(out)),
        ])
    }

    /// Forces the phases of the last cold warm one at a time, from the
    /// same pre-warm state, each under its own span.
    fn attribute(&mut self, t: &mut Tracer) {
        let Some((prog, seed)) = self.pending.take() else {
            return;
        };
        t.span(ATTRIBUTION, |t| {
            let a = Analysis::with_seed(&prog, seed);
            t.span("dataflow.reaching", |_| {
                a.reaching();
            });
            t.span("graph.pdom", |_| {
                a.pdom();
            });
            t.span("pdg.build", |_| {
                a.pdg();
            });
            t.span("core.lst", |_| {
                a.lst();
            });
            // Everything but the chain index is cached now, so this builds
            // exactly the chain index.
            t.span("core.chain_index", |_| a.warm());
            t.span("pdg.closure_index", |_| {
                a.closure_index();
            });
        });
    }
}

/// One replayed request.
struct Handled {
    /// `<op class>.<request kind>`, e.g. `cold_load.slice`.
    class: String,
    shape: Shape,
    /// Measured phase op this request belongs to, if any.
    measured: Option<(usize, usize)>,
    engine_ns: u64,
    /// The mirror's root span.
    root: usize,
}

pub struct TraceOutcome {
    /// The engine's responses, for the oracle.
    pub records: Vec<Record>,
    /// Requests where the mirror's response differed from the engine's.
    pub mismatches: Vec<String>,
    tracer: Tracer,
    handled: Vec<Handled>,
    /// Cost of one span open/close pair, measured in this process.
    span_ns: f64,
}

/// A fresh engine and mirror; with `stores`, each on its own store
/// directory.
fn executors(stores: Option<(&Path, &Path)>) -> Result<(Engine, Mirror), String> {
    let open = |dir: &Path| {
        SnapshotStore::open(dir, STORE_BYTES)
            .map_err(|e| format!("cannot open store {}: {e}", dir.display()))
    };
    Ok(match stores {
        None => (Engine::new(CACHE_BYTES), Mirror::new(None)),
        Some((e, m)) => (
            Engine::new(CACHE_BYTES).with_store(open(e)?),
            Mirror::new(Some(open(m)?)),
        ),
    })
}

/// Replays the store fill (on a first engine/mirror pair), the setup, and
/// the first `measured_ops` ops of each connection's stream, interleaving
/// the two connections op by op.
pub fn replay(plan: &Plan, measured_ops: usize, work_dir: &Path) -> Result<TraceOutcome, String> {
    let store_dirs = plan
        .workload
        .uses_store()
        .then(|| (work_dir.join("trace-engine"), work_dir.join("trace-mirror")));
    if let Some((e, m)) = &store_dirs {
        let _ = std::fs::remove_dir_all(e);
        let _ = std::fs::remove_dir_all(m);
    }
    let stores = store_dirs.as_ref().map(|(e, m)| (e.as_path(), m.as_path()));
    let mut run = Replay {
        plan,
        tracer: Tracer::new(),
        handled: Vec::new(),
        records: Vec::new(),
        mismatches: Vec::new(),
    };
    if plan.fill.iter().any(|ops| !ops.is_empty()) {
        let (engine, mut mirror) = executors(stores)?;
        run.phase(&engine, &mut mirror, Phase::Fill, usize::MAX);
    }
    let (engine, mut mirror) = executors(stores)?;
    run.phase(&engine, &mut mirror, Phase::Setup, usize::MAX);
    run.phase(&engine, &mut mirror, Phase::Measured, measured_ops);
    drop((engine, mirror));
    if let Some((e, m)) = &store_dirs {
        let _ = std::fs::remove_dir_all(e);
        let _ = std::fs::remove_dir_all(m);
    }
    Ok(TraceOutcome {
        records: run.records,
        mismatches: run.mismatches,
        tracer: run.tracer,
        handled: run.handled,
        span_ns: span_cost_ns(),
    })
}

struct Replay<'p> {
    plan: &'p Plan,
    tracer: Tracer,
    handled: Vec<Handled>,
    records: Vec<Record>,
    mismatches: Vec<String>,
}

impl Replay<'_> {
    fn phase(&mut self, engine: &Engine, mirror: &mut Mirror, phase: Phase, limit: usize) {
        let plan = self.plan;
        let ops = [0, 1].map(|c| plan.ops(phase, c));
        let longest = ops.iter().map(|o| o.len().min(limit)).max().unwrap_or(0);
        for i in 0..longest {
            for (c, conn_ops) in ops.iter().enumerate() {
                if i < conn_ops.len().min(limit) {
                    self.op(engine, mirror, phase, c, i, &conn_ops[i]);
                }
            }
        }
    }

    fn op(
        &mut self,
        engine: &Engine,
        mirror: &mut Mirror,
        phase: Phase,
        c: usize,
        i: usize,
        op: &Op,
    ) {
        let mut responses = Vec::with_capacity(op.reqs.len());
        let mut ms = 0.0;
        for req in &op.reqs {
            let n = self.handled.len();
            self.tracer.op = n;
            self.tracer.shape = op.shape;
            // Alternate which executor goes first, so neither always runs
            // on caches the other just warmed.
            let run_engine = || {
                let start = Instant::now();
                let resp = engine.handle_line(&req.line);
                (resp, start.elapsed().as_nanos() as u64)
            };
            let (want, engine_ns, got, root) = if n % 2 == 0 {
                let (want, ns) = run_engine();
                let (got, root) = self.mirror(mirror, &req.line);
                (want, ns, got, root)
            } else {
                let (got, root) = self.mirror(mirror, &req.line);
                let (want, ns) = run_engine();
                (want, ns, got, root)
            };
            mirror.attribute(&mut self.tracer);
            if got != want {
                self.mismatches.push(format!(
                    "{phase:?} conn {c} op {i}: engine {} / mirror {}",
                    clip(&want),
                    clip(&got)
                ));
            }
            let kind = match &req.check {
                Check::Load { .. } => "load",
                Check::Slice { degraded: true, .. } => "degraded",
                Check::Slice { .. } => "slice",
                Check::Edit { .. } => "edit",
            };
            self.handled.push(Handled {
                class: format!("{}.{kind}", op.class.name()),
                shape: op.shape,
                measured: (phase == Phase::Measured).then_some((c, i)),
                engine_ns,
                root,
            });
            ms += engine_ns as f64 / 1e6;
            responses.push(Some(want));
        }
        self.records.push(Record {
            phase,
            round: 0,
            conn: c,
            op: i,
            ms,
            responses,
        });
    }

    fn mirror(&mut self, mirror: &mut Mirror, line: &str) -> (String, usize) {
        let root = self.tracer.open(REQUEST);
        let resp = mirror.handle_line(line, &mut self.tracer);
        self.tracer.close(root);
        (resp, root)
    }
}

fn clip(s: &str) -> String {
    s.chars().take(160).collect()
}

/// Cost of one span open/close pair, measured in this process.
fn span_cost_ns() -> f64 {
    const N: usize = 20_000;
    let mut t = Tracer::new();
    let start = Instant::now();
    for _ in 0..N {
        let id = t.open("calibration");
        t.close(id);
    }
    start.elapsed().as_nanos() as f64 / N as f64
}

impl TraceOutcome {
    /// The layer metrics: `(listed, extra, leaks)` where `listed` holds
    /// exactly [`LAYERS`], `extra` the workload-specific layers, call
    /// counts and per-class reconciliation, and `leaks` the classes whose
    /// unattributed share exceeds 10 %.
    pub fn layers(&self) -> (Vec<Metric>, Vec<Metric>, Vec<String>) {
        let spans = &self.tracer.spans;
        let own = self_times(spans);
        let mut ms: BTreeMap<String, f64> = BTreeMap::new();
        let mut calls: BTreeMap<String, f64> = BTreeMap::new();
        for (s, self_ns) in spans.iter().zip(&own) {
            if s.name == REQUEST || s.name == ATTRIBUTION {
                continue;
            }
            let mut add = |suffix: &str| {
                *ms.entry(format!("{}_ms{suffix}", s.name)).or_default() += *self_ns as f64 / 1e6;
                *calls
                    .entry(format!("{}_calls{suffix}", s.name))
                    .or_default() += 1.0;
            };
            add("");
            if BY_SHAPE.contains(&s.name) {
                add(&format!(".{}", s.shape.name()));
            }
        }

        // Reconciliation: engine wall time against the mirror's top-level
        // spans, per request class.
        let child = child_ns(spans);
        let mut per_class: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
        for h in &self.handled {
            let e = per_class.entry(&h.class).or_default();
            e.0 += h.engine_ns as f64 / 1e6;
            e.1 += (h.engine_ns as f64 - child[h.root] as f64) / 1e6;
        }
        let handle_ms: f64 = per_class.values().map(|v| v.0).sum();
        let unattributed_ms: f64 = per_class.values().map(|v| v.1).sum();
        ms.insert("serve.handle_line_ms".to_owned(), handle_ms);
        ms.insert("serve.unattributed_ms".to_owned(), unattributed_ms);
        ms.insert(
            "serve.unattributed_frac".to_owned(),
            unattributed_ms / handle_ms,
        );

        let warm_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "core.warm_parallel" || s.name == "incr.rewarm")
            .map(Span::ns)
            .sum();
        let phase_ns: u64 = spans
            .iter()
            .filter(|s| PHASES.contains(&s.name))
            .map(Span::ns)
            .sum();
        ms.insert(
            "core.warm_overlap".to_owned(),
            phase_ns as f64 / warm_ns.max(1) as f64,
        );

        let request_ns: u64 = spans
            .iter()
            .filter(|s| s.name == REQUEST)
            .map(Span::ns)
            .sum();
        let in_requests = spans
            .iter()
            .filter(|s| s.name != ATTRIBUTION && !PHASES.contains(&s.name))
            .count();
        ms.insert(
            "trace.overhead_frac".to_owned(),
            in_requests as f64 * self.span_ns / request_ns.max(1) as f64,
        );

        let slice_stmts: usize = self
            .records
            .iter()
            .flat_map(|r| r.responses.iter().flatten())
            .filter_map(|r| Json::parse(r).ok())
            .filter_map(|j| j.get("slices").and_then(Json::as_arr).cloned())
            .flatten()
            .filter_map(|s| s.get("lines").and_then(Json::as_arr).map(Vec::len))
            .sum();

        let listed: Vec<Metric> = LAYERS
            .iter()
            .map(|&(name, unit)| Metric::new(name, ms.get(name).copied().unwrap_or(0.0), unit))
            .collect();
        let is_listed = |n: &str| LAYERS.iter().any(|&(l, _)| l == n);
        let mut extra: Vec<Metric> = ms
            .iter()
            .filter(|(n, _)| !is_listed(n))
            .map(|(n, &v)| Metric::new(n.clone(), v, "ms"))
            .collect();
        extra.extend(
            calls
                .iter()
                .filter(|(n, _)| !is_listed(n))
                .map(|(n, &v)| Metric::new(n.clone(), v, "count")),
        );
        extra.push(Metric::new("core.slice_stmts", slice_stmts as f64, "count"));
        extra.push(Metric::new("trace.span_cost_ns", self.span_ns, "ns"));
        let mut leaks = Vec::new();
        for (class, (handle, unattributed)) in &per_class {
            let frac = unattributed / handle;
            extra.push(Metric::new(
                format!("serve.unattributed_frac.{class}"),
                frac,
                "ratio",
            ));
            if frac > 0.10 {
                leaks.push(format!(
                    "{class}: {:.1} % of {handle:.1} ms unattributed",
                    frac * 100.0
                ));
            }
        }
        (listed, extra, leaks)
    }

    /// In-process latency of each measured op of `class` on `shape`: the
    /// engine's time summed over the op's requests.
    pub fn op_ms(&self, class: &str, shape: Shape) -> Vec<f64> {
        let mut per_op: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        for h in &self.handled {
            if let Some(key) = h.measured {
                if h.shape == shape && h.class.starts_with(class) {
                    *per_op.entry(key).or_default() += h.engine_ns as f64 / 1e6;
                }
            }
        }
        per_op.into_values().collect()
    }

    /// The trace file: the spans `{id, parent, op, name, start_ns, end_ns}`
    /// and, per replayed request `op`, its class, the engine's wall time and
    /// the id of the mirror's root span.
    pub fn to_json(&self) -> Json {
        let num = |x: usize| Json::Num(x as f64);
        let spans = self.tracer.spans.iter().map(|s| {
            Json::Obj(vec![
                ("id".to_owned(), num(s.id)),
                ("parent".to_owned(), s.parent.map_or(Json::Null, num)),
                ("op".to_owned(), num(s.op)),
                ("name".to_owned(), Json::Str(s.name.to_owned())),
                ("start_ns".to_owned(), Json::Num(s.start_ns as f64)),
                ("end_ns".to_owned(), Json::Num(s.end_ns as f64)),
            ])
        });
        let requests = self.handled.iter().enumerate().map(|(op, h)| {
            Json::Obj(vec![
                ("op".to_owned(), num(op)),
                ("class".to_owned(), Json::Str(h.class.clone())),
                ("shape".to_owned(), Json::Str(h.shape.name().to_owned())),
                ("engine_ns".to_owned(), Json::Num(h.engine_ns as f64)),
                ("root".to_owned(), num(h.root)),
            ])
        });
        Json::Obj(vec![
            ("spans".to_owned(), Json::Arr(spans.collect())),
            ("requests".to_owned(), Json::Arr(requests.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "x",
            shape: Shape::S1k,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0 [0,100] ⊃ 1 [10,40] ⊃ 2 [20,30]; 0 ⊃ 3 [50,90].
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 20, 30),
            span(3, Some(0), 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times partition the root's wall time.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn tracer_nests_spans_by_call_structure() {
        let mut t = Tracer::new();
        t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| ());
        });
        let parents: Vec<Option<usize>> = t.spans.iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(0)]);
        let own = self_times(&t.spans);
        assert_eq!(own[0] + own[1] + own[2], t.spans[0].ns());
    }
}
