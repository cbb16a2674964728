//! Request execution: the bridge from protocol to slicers.
//!
//! One [`Engine`] owns the [`AnalysisCache`] and is shared (behind an
//! `Arc`) by every client thread. [`Engine::handle_line`] is the whole
//! contract: a request line in, a response line out, **never a panic** —
//! a last-resort `catch_unwind` turns any escaped panic into an
//! `{"ok":false}` response and drops the (possibly poisoned) cache entry
//! instead of the process.
//!
//! # The persistent snapshot tier
//!
//! With [`Engine::with_store`], a [`SnapshotStore`] becomes a second
//! cache tier below the in-memory [`AnalysisCache`]. A record holds a
//! program's source and its parsed form. A `load` whose key has a record
//! on disk decodes the program instead of parsing the source
//! (`"restored": true` in the response) and opens the session a cold load
//! opens; the first request that reads the analysis builds it, as after a
//! cold load. Every successful `slice` writes its program's record behind
//! the response, so the *next* process start is the one that benefits.
//! Anything wrong with a record — version skew, truncation, bit rot, an
//! FNV collision, a payload the current decoder rejects — falls back to
//! the ordinary from-source build and is counted
//! (`serve.store.corrupt` / `store.corrupt_fallback`), never served.
//!
//! # Deadlines and graceful degradation
//!
//! A `slice` request may carry `deadline_ms`. The deadline is installed as
//! a [`jumpslice_core::cancel`] guard through
//! [`BatchSlicer::with_deadline`], so the Figure-7 fixpoint checks it at
//! every round (and every sparse drain step) and aborts with the
//! cancellation sentinel. The engine then *re-answers all criteria* with
//! the paper's Figure-13 conservative slicer — no fixpoint, no
//! postdominator traversal — and marks the response `"degraded": true`.
//!
//! The precision contract of a degraded answer is Figure 13's: on
//! structured programs it is a superset of the precise Figure-7 slice
//! (the §4 lattice, pinned by the difftest suite); on programs with
//! `goto` it is the paper's "should suffice for most modern programs"
//! approximation and may omit jumps Figure 7 would keep. Clients that
//! cannot accept that must re-issue the request without a deadline.

use crate::cache::{AnalysisCache, CacheStats, Entry};
use crate::fault::{SharedFaultHook, SliceFault};
use crate::hash::{content_hash, key_string};
use crate::proto::{parse_request, CritSpec, Request};
use jumpslice_core::{
    agrawal_slice, agrawal_slice_traced, cancel, chop, chop_executable, conservative_slice,
    conventional_slice, decode_snapshot, encode_snapshot, structured_slice, BatchSlicer, Criterion,
    Slice, SliceFn,
};
use jumpslice_incr::{ApplyPath, EditSession};
use jumpslice_lang::{parse, print_program, Program};
use jumpslice_obs as obs;
use jumpslice_obs::Json;
use jumpslice_store::SnapshotStore;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Resolves a wire algorithm name. `fig7` is the default clients should
/// use; the long registry names accepted by the difftest tooling work too.
pub fn algo_by_name(name: &str) -> Option<SliceFn> {
    match name {
        "fig7" | "fig7-agrawal" | "agrawal" => Some(agrawal_slice),
        "conventional" => Some(conventional_slice),
        "fig12" | "fig12-structured" | "structured" => Some(structured_slice),
        "fig13" | "fig13-conservative" | "conservative" => Some(conservative_slice),
        _ => None,
    }
}

/// Shared request executor. Cheap to share; all mutability is interior.
pub struct Engine {
    cache: AnalysisCache,
    /// Second cache tier: persistent snapshots, written behind successful
    /// slices and probed on `load` before any analysis work.
    store: Option<SnapshotStore>,
    requests: AtomicU64,
    degraded: AtomicU64,
    store_fallbacks: AtomicU64,
    shutdown: AtomicBool,
    /// Fault-injection seam (chaos harness only); `None` in production.
    hook: Option<SharedFaultHook>,
}

impl Engine {
    /// An engine whose cache evicts past `cache_bytes` estimated bytes.
    pub fn new(cache_bytes: usize) -> Engine {
        Engine {
            cache: AnalysisCache::new(cache_bytes),
            store: None,
            requests: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
            store_fallbacks: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
            hook: None,
        }
    }

    /// Attaches a persistent snapshot store as the second cache tier.
    /// `load` requests probe it before building from source, and every
    /// successful `slice` writes the warm analysis behind the response.
    pub fn with_store(mut self, store: SnapshotStore) -> Engine {
        self.store = Some(store);
        self
    }

    /// The attached snapshot store, if any.
    pub fn store(&self) -> Option<&SnapshotStore> {
        self.store.as_ref()
    }

    /// Installs a fault hook on the engine and its cache. Chaos harness
    /// only: the hook observes every lease event and injects worker
    /// panics, deterministic cancellations, and admission rejections at
    /// the daemon's decision points.
    pub fn with_fault_hook(mut self, hook: SharedFaultHook) -> Engine {
        self.cache.set_fault_hook(hook.clone());
        self.hook = Some(hook);
        self
    }

    /// Chaos seam: whether the installed hook wants the next request
    /// refused at admission with a structured `"queue full"` error. The
    /// request path asks once per request, on every front-end. Always
    /// `false` without a hook.
    pub(crate) fn fault_reject_enqueue(&self) -> bool {
        self.hook.as_ref().is_some_and(|h| h.reject_enqueue())
    }

    /// Whether a `shutdown` request has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Cache counters (also surfaced by the `stats` op).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Handles one request line, returning exactly one response line
    /// (single-line JSON, no trailing newline). Never panics.
    pub fn handle_line(&self, line: &str) -> String {
        let _t = obs::phase(obs::Phase::ServeRequest);
        let n = self.requests.fetch_add(1, Ordering::SeqCst) + 1;
        obs::record(|| obs::Event::Count {
            name: "serve.requests",
            value: n,
        });
        let parsed = Json::parse(line);
        let id = parsed.as_ref().ok().and_then(|j| j.get("id").cloned());
        let body = match &parsed {
            Err(e) => Err(format!("request is not valid JSON: {e}")),
            Ok(j) => match parse_request(j) {
                Err(e) => Err(e),
                // The unwind net: a bug (or a poisoned invariant) in the
                // slicing stack becomes a per-request error. The closure
                // aborts its checkout on the way out, so the cache never
                // keeps a session a panic unwound through.
                Ok(req) => {
                    catch_unwind(AssertUnwindSafe(|| self.execute(req))).unwrap_or_else(|payload| {
                        let msg = payload
                            .downcast_ref::<&str>()
                            .map(|s| (*s).to_owned())
                            .or_else(|| payload.downcast_ref::<String>().cloned())
                            .unwrap_or_else(|| "non-string panic payload".to_owned());
                        Err(format!("internal error: {msg}"))
                    })
                }
            },
        };
        let mut fields = Vec::new();
        if let Some(id) = id {
            fields.push(("id".to_owned(), id));
        }
        match body {
            Ok(mut ok_fields) => {
                fields.push(("ok".to_owned(), Json::Bool(true)));
                fields.append(&mut ok_fields);
            }
            Err(msg) => {
                fields.push(("ok".to_owned(), Json::Bool(false)));
                fields.push(("error".to_owned(), Json::Str(msg)));
            }
        }
        Json::Obj(fields).write_compact()
    }

    fn execute(&self, req: Request) -> Result<Vec<(String, Json)>, String> {
        match req {
            Request::Load { source } => self.load(source),
            Request::Slice {
                program,
                algo,
                criteria,
                deadline_ms,
            } => self.with_entry(program, |this, entry| {
                let out = this.slice(entry, &algo, &criteria, deadline_ms)?;
                // A program that has served a slice is worth a record: the
                // next process can then skip its parse.
                this.store_save(program, entry);
                Ok(out)
            }),
            Request::Edit { program, edit } => {
                // `edit` manages its own check-in: success moves the entry
                // to the new content key.
                let mut entry = self.checkout(program)?;
                let r = catch_unwind(AssertUnwindSafe(|| {
                    entry.session.apply(&edit).map_err(|e| e.to_string())
                }));
                match r {
                    Ok(Ok(outcome)) => {
                        let new_source = print_program(entry.session.prog());
                        let new_key = content_hash(&new_source);
                        let stmts = entry.session.prog().len();
                        let fresh = Entry::new(entry.session, new_source);
                        self.cache.checkin(program, new_key, fresh);
                        Ok(vec![
                            ("program".to_owned(), Json::Str(key_string(new_key))),
                            (
                                "path".to_owned(),
                                Json::Str(
                                    match outcome.path {
                                        ApplyPath::ExprPatch => "expr_patch",
                                        ApplyPath::SeededResolve => "seeded_resolve",
                                        ApplyPath::FullRebuild => "full_rebuild",
                                    }
                                    .to_owned(),
                                ),
                            ),
                            (
                                "dirty_stmts".to_owned(),
                                Json::Num(outcome.dirty_stmts as f64),
                            ),
                            ("stmts".to_owned(), Json::Num(stmts as f64)),
                        ])
                    }
                    Ok(Err(e)) => {
                        // Rejected edits leave the session untouched; keep it.
                        self.cache.checkin(program, program, entry);
                        Err(format!("edit rejected: {e}"))
                    }
                    Err(payload) => {
                        self.cache.abort_checkout(program);
                        std::panic::resume_unwind(payload);
                    }
                }
            }
            Request::Chop {
                program,
                source_line,
                sink_line,
                executable,
            } => self.with_entry(program, |_, entry| {
                entry.session.with_analysis(|a| {
                    let src = stmt_at(a.prog(), source_line)?;
                    let sink = stmt_at(a.prog(), sink_line)?;
                    let s = if executable {
                        chop_executable(a, src, sink)
                    } else {
                        chop(a, src, sink)
                    };
                    Ok(vec![("lines".to_owned(), lines_json(&s, a.prog()))])
                })
            }),
            Request::Explain { program, line } => self.with_entry(program, |_, entry| {
                entry.session.with_analysis(|a| {
                    let stmt = stmt_at(a.prog(), line)?;
                    let crit = Criterion::at_stmt(stmt);
                    let (slice, prov) = agrawal_slice_traced(a, &crit);
                    Ok(vec![
                        ("lines".to_owned(), lines_json(&slice, a.prog())),
                        (
                            "report".to_owned(),
                            Json::Str(prov.report(a.prog(), &slice)),
                        ),
                    ])
                })
            }),
            Request::Stats => {
                let c = self.cache.stats();
                let mut fields = vec![
                    (
                        "requests".to_owned(),
                        Json::Num(self.requests.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "degraded".to_owned(),
                        Json::Num(self.degraded.load(Ordering::SeqCst) as f64),
                    ),
                    (
                        "cache".to_owned(),
                        Json::Obj(vec![
                            ("entries".to_owned(), Json::Num(c.entries as f64)),
                            ("bytes".to_owned(), Json::Num(c.bytes as f64)),
                            ("hits".to_owned(), Json::Num(c.hits as f64)),
                            ("misses".to_owned(), Json::Num(c.misses as f64)),
                            ("evictions".to_owned(), Json::Num(c.evictions as f64)),
                        ]),
                    ),
                ];
                if let Some(store) = &self.store {
                    let s = store.stats();
                    fields.push((
                        "store".to_owned(),
                        Json::Obj(vec![
                            ("records".to_owned(), Json::Num(s.records as f64)),
                            ("bytes".to_owned(), Json::Num(s.bytes as f64)),
                            ("hits".to_owned(), Json::Num(s.hits as f64)),
                            ("misses".to_owned(), Json::Num(s.misses as f64)),
                            ("evictions".to_owned(), Json::Num(s.evictions as f64)),
                            ("corrupt".to_owned(), Json::Num(s.corrupt as f64)),
                            ("writes".to_owned(), Json::Num(s.writes as f64)),
                            (
                                "fallbacks".to_owned(),
                                Json::Num(self.store_fallbacks.load(Ordering::SeqCst) as f64),
                            ),
                        ]),
                    ));
                }
                Ok(fields)
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                Ok(vec![("shutting_down".to_owned(), Json::Bool(true))])
            }
        }
    }

    fn load(&self, source: String) -> Result<Vec<(String, Json)>, String> {
        let key = content_hash(&source);
        let (session, restored) = match self.restore(key, &source) {
            Some(session) => (session, true),
            None => {
                let parsed = {
                    let _t = obs::phase(obs::Phase::Parse);
                    parse(&source)
                };
                let prog = parsed.map_err(|e| format!("parse error: {e}"))?;
                let session =
                    EditSession::try_new(prog).map_err(|e| format!("unanalyzable: {e}"))?;
                (session, false)
            }
        };
        let stmts = session.prog().len();
        let cached = self.cache.insert(key, Entry::new(session, source));
        Ok(vec![
            ("program".to_owned(), Json::Str(key_string(key))),
            ("stmts".to_owned(), Json::Num(stmts as f64)),
            ("cached".to_owned(), Json::Bool(cached)),
            ("restored".to_owned(), Json::Bool(restored)),
        ])
    }

    /// Probes the snapshot store for `key` and opens a session on the
    /// decoded program. Any failure past the record layer — payload that
    /// no longer decodes, an FNV collision (embedded source differs from
    /// the request's), a program whose statements cannot all reach the
    /// exit — is counted as `store.corrupt_fallback` and answered with
    /// `None`, which sends the caller down the ordinary from-source path.
    /// The refused record is deleted, so the next served slice writes a
    /// good one in its place.
    fn restore(&self, key: u64, source: &str) -> Option<EditSession> {
        let store = self.store.as_ref()?;
        let payload = store.load(key)?;
        let why = match decode_snapshot(&payload) {
            Err(e) => e.to_string(),
            // The store checksum makes this near-impossible, but a genuine
            // FNV-1a collision would otherwise serve slices of the *other*
            // program. Byte equality is the last word.
            Ok(snap) if snap.source != source => "content key collision".to_owned(),
            Ok(snap) => match EditSession::try_with_seed(snap.prog, snap.seed) {
                Ok(session) => {
                    if let Some(hook) = &self.hook {
                        hook.restored(key);
                    }
                    return Some(session);
                }
                Err(e) => format!("unanalyzable: {e}"),
            },
        };
        store.discard(key, &payload);
        let n = self.store_fallbacks.fetch_add(1, Ordering::SeqCst) + 1;
        obs::record(|| obs::Event::Count {
            name: "store.corrupt_fallback",
            value: n,
        });
        eprintln!(
            "jumpslice-serve: snapshot {} unusable ({why}); rebuilding from source",
            key_string(key)
        );
        None
    }

    /// Write-behind: persist the program's record after a served slice.
    /// Best effort — an I/O failure costs the next cold start, not this
    /// response. Skips keys already on disk (content-addressed records
    /// never change, so the first write is the only one needed).
    fn store_save(&self, key: u64, entry: &Entry) {
        let Some(store) = &self.store else { return };
        if store.contains(key) {
            return;
        }
        let payload = encode_snapshot(&entry.source, entry.session.prog(), entry.session.seed());
        if let Err(e) = store.save(key, &payload) {
            eprintln!(
                "jumpslice-serve: could not persist snapshot {}: {e}",
                key_string(key)
            );
        }
    }

    fn checkout(&self, key: u64) -> Result<Entry, String> {
        self.cache.checkout(key).ok_or_else(|| {
            format!(
                "unknown program '{}' (never loaded, or evicted — re-send 'load')",
                key_string(key)
            )
        })
    }

    /// Checks the entry out, runs `f`, and checks it back in under the same
    /// key — including when `f` errors. A panic in `f` aborts the checkout
    /// (dropping the entry) and resumes unwinding into `handle_line`'s net.
    fn with_entry(
        &self,
        key: u64,
        f: impl FnOnce(&Engine, &mut Entry) -> Result<Vec<(String, Json)>, String>,
    ) -> Result<Vec<(String, Json)>, String> {
        let mut entry = self.checkout(key)?;
        let r = catch_unwind(AssertUnwindSafe(|| f(self, &mut entry)));
        match r {
            Ok(result) => {
                self.cache.checkin(key, key, entry);
                result
            }
            Err(payload) => {
                self.cache.abort_checkout(key);
                std::panic::resume_unwind(payload);
            }
        }
    }

    fn slice(
        &self,
        entry: &mut Entry,
        algo_name: &str,
        specs: &[CritSpec],
        deadline_ms: Option<u64>,
    ) -> Result<Vec<(String, Json)>, String> {
        let algo = algo_by_name(algo_name).ok_or_else(|| {
            format!("unknown algorithm '{algo_name}' (try fig7, conventional, fig12, fig13)")
        })?;
        let criteria = specs
            .iter()
            .map(|s| criterion(entry.session.prog(), s))
            .collect::<Result<Vec<_>, _>>()?;
        let deadline = deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms));
        // Chaos seam: a hooked engine may replace this execution with a
        // worker panic (exercising the abort-and-respond path) or a
        // clock-free cancellation after a seed-chosen number of slicer
        // checkpoints (exercising degradation deterministically).
        let fuel = match self.hook.as_ref().map(|h| h.slice_fault()) {
            Some(SliceFault::Panic) => panic!("injected fault: worker panic mid-slice"),
            Some(SliceFault::CancelAfter(n)) => Some(n),
            Some(SliceFault::None) | None => None,
        };
        let attempt = entry.session.with_analysis(|a| {
            // Everything Figures 7, 12 and 13 read. A request runs on one
            // thread, cold warm included: concurrency lives across
            // requests, not within one.
            a.warm();
            BatchSlicer::new(a)
                .with_threads(1)
                .with_deadline(deadline)
                .with_checkpoint_fuel(fuel)
                .try_slice_all(algo, &criteria)
        });
        let (slices, degraded) = match attempt {
            Ok(slices) => (slices, false),
            Err(bp) if cancel::is_cancelled(&bp.message) => {
                // Deadline blown mid-slice: degrade the WHOLE batch to the
                // Figure-13 conservative answer, without a deadline — one
                // pass over the jumps, no fixpoint, reading the chain index
                // only when the program has a do-while or a label moves, so
                // it terminates promptly even on inputs fig7 struggled with.
                let n = self.degraded.fetch_add(1, Ordering::SeqCst) + 1;
                obs::record(|| obs::Event::Count {
                    name: "serve.degraded",
                    value: n,
                });
                let slices = entry
                    .session
                    .with_analysis(|a| {
                        BatchSlicer::new(a)
                            .with_threads(1)
                            .try_slice_all(conservative_slice, &criteria)
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
                Json::Obj(vec![
                    ("line".to_owned(), Json::Num(spec.line as f64)),
                    ("lines".to_owned(), lines_json(s, prog)),
                ])
            })
            .collect();
        Ok(vec![
            ("algo".to_owned(), Json::Str(algo_name.to_owned())),
            ("degraded".to_owned(), Json::Bool(degraded)),
            ("slices".to_owned(), Json::Arr(out)),
        ])
    }
}

fn stmt_at(p: &Program, line: usize) -> Result<jumpslice_lang::StmtId, String> {
    p.try_at_line(line).ok_or_else(|| {
        format!(
            "line {line} is out of range (program has {} lines)",
            p.len()
        )
    })
}

fn criterion(p: &Program, spec: &CritSpec) -> Result<Criterion, String> {
    let stmt = stmt_at(p, spec.line)?;
    match &spec.vars {
        None => Ok(Criterion::at_stmt(stmt)),
        Some(names) => {
            let vars = names
                .iter()
                .map(|n| {
                    p.name(n)
                        .ok_or_else(|| format!("variable '{n}' does not occur in the program"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Criterion::vars_at(stmt, vars))
        }
    }
}

fn lines_json(s: &Slice, p: &Program) -> Json {
    Json::Arr(
        s.lines(p)
            .into_iter()
            .map(|l| Json::Num(l as f64))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ok(resp: &str) -> Json {
        let j = Json::parse(resp).expect("response is valid JSON");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(true), "{resp}");
        j
    }

    fn err(resp: &str) -> String {
        let j = Json::parse(resp).expect("response is valid JSON");
        assert_eq!(j.get("ok").and_then(Json::as_bool), Some(false), "{resp}");
        j.get("error")
            .and_then(Json::as_str)
            .expect("error message")
            .to_owned()
    }

    const FIG3A: &str = "read(x); read(y); z = x + y; write(z); write(x);";

    fn load(e: &Engine, src: &str) -> String {
        let resp = ok(&e.handle_line(
            &Json::Obj(vec![
                ("op".to_owned(), Json::Str("load".to_owned())),
                ("source".to_owned(), Json::Str(src.to_owned())),
            ])
            .write_compact(),
        ));
        resp.get("program")
            .and_then(Json::as_str)
            .expect("key")
            .to_owned()
    }

    /// Every daemon slice equals the Figure-7 slice of a fresh analysis:
    /// after a cold load, and after an edit under each of the three wire
    /// labels (a jump toggle and an insert reset the session, an
    /// expression replacement patches the PDG and its condensation in
    /// place).
    #[test]
    fn slices_after_every_invalidation_path_match_a_fresh_analysis() {
        fn fig7_lines(prog: &Program) -> Vec<String> {
            let a = jumpslice_core::Analysis::new(prog);
            (1..=prog.len())
                .map(|l| {
                    let s = agrawal_slice(&a, &Criterion::at_stmt(prog.at_line(l)));
                    Json::Arr(
                        s.lines(prog)
                            .into_iter()
                            .map(|x| Json::Num(x as f64))
                            .collect(),
                    )
                    .write_compact()
                })
                .collect()
        }
        fn slice_every_line(e: &Engine, key: &str, n: usize) -> Vec<String> {
            let criteria: Vec<String> = (1..=n).map(|l| format!(r#"{{"line":{l}}}"#)).collect();
            let resp = ok(&e.handle_line(&format!(
                r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{}]}}"#,
                criteria.join(",")
            )));
            resp.get("slices")
                .and_then(Json::as_arr)
                .expect("slices")
                .iter()
                .map(|s| s.get("lines").expect("lines").write_compact())
                .collect()
        }

        let src = "read(n); i = 0; s = 0;
                   while (i < n) { read(x); if (x < 0) { y = 1; } s = s + x; i = i + 1; }
                   write(s); write(i);";
        let e = Engine::new(usize::MAX);
        let mut prog = parse(src).unwrap();
        let mut key = load(&e, src);
        assert_eq!(slice_every_line(&e, &key, prog.len()), fig7_lines(&prog));

        for (edit, path) in [
            (
                r#"{"kind":"toggle_jump","path":[["body",3],["body",1],["then",0]],"jump":"break"}"#,
                "full_rebuild",
            ),
            (
                r#"{"kind":"insert","path":[["body",2]],"stmt":{"kind":"assign","var":"s","expr":"n + 1"}}"#,
                "seeded_resolve",
            ),
            (
                r#"{"kind":"replace_expr","path":[["body",5]],"expr":"n"}"#,
                "expr_patch",
            ),
        ] {
            let edit_json = Json::parse(edit).unwrap();
            prog =
                jumpslice_incr::apply_edit(&prog, &crate::proto::parse_edit(&edit_json).unwrap())
                    .unwrap()
                    .prog;
            let resp = ok(&e.handle_line(&format!(
                r#"{{"op":"edit","program":"{key}","edit":{edit}}}"#
            )));
            assert_eq!(
                resp.get("path").and_then(Json::as_str),
                Some(path),
                "{edit}"
            );
            key = resp
                .get("program")
                .and_then(Json::as_str)
                .expect("key")
                .to_owned();
            assert_eq!(
                slice_every_line(&e, &key, prog.len()),
                fig7_lines(&prog),
                "{edit}"
            );
        }
    }

    #[test]
    fn load_slice_round_trip() {
        let e = Engine::new(usize::MAX);
        let key = load(&e, FIG3A);
        let resp = ok(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":4}}]}}"#
        )));
        assert_eq!(resp.get("degraded").and_then(Json::as_bool), Some(false));
        let slices = resp.get("slices").and_then(Json::as_arr).expect("slices");
        let lines: Vec<f64> = slices[0]
            .get("lines")
            .and_then(Json::as_arr)
            .expect("lines")
            .iter()
            .filter_map(Json::as_num)
            .collect();
        assert_eq!(lines, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn malformed_and_hostile_lines_error_without_panicking() {
        let e = Engine::new(usize::MAX);
        for line in [
            "",
            "not json",
            "[1,2,3]",
            r#"{"op":"slice","program":"0000000000000000","algo":"fig7","criteria":[{"line":1}]}"#,
            r#"{"op":"load","source":"x = ;"}"#,
            r#"{"op":"load","source":"L: x = 1; goto L; write(x);"}"#,
        ] {
            let msg = err(&e.handle_line(line));
            assert!(!msg.is_empty(), "line {line:?} should explain itself");
        }
        // Out-of-range criterion on a real program.
        let key = load(&e, FIG3A);
        err(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":99}}]}}"#
        )));
        err(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"nope","criteria":[{{"line":1}}]}}"#
        )));
        err(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":1,"vars":["ghost"]}}]}}"#
        )));
    }

    /// Satellite hardening (ISSUE 9): structural fuzz of the whole
    /// `handle_line` net. Every prefix truncation of valid requests,
    /// seeded byte splices, a 100k-deep nesting bomb, megabyte-scale
    /// fields, control bytes, and absurd numbers must each come back as
    /// exactly one parseable single-line JSON reply with an `ok` field —
    /// never a panic, never an empty string, never a wedged worker.
    #[test]
    fn fuzzed_lines_always_get_one_structured_reply() {
        let e = Engine::new(usize::MAX);
        let key = load(&e, FIG3A);
        let templates = [
            format!(
                r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":4}}]}}"#
            ),
            format!(
                r#"{{"op":"edit","program":"{key}","edit":{{"kind":"replace_expr","path":[["body",2]],"expr":"x - y"}}}}"#
            ),
            r#"{"op":"load","source":"read(x); write(x);"}"#.to_owned(),
            r#"{"id":1,"op":"stats"}"#.to_owned(),
        ];
        let check_reply = |line: &str| {
            let resp = e.handle_line(line);
            assert!(!resp.contains('\n'), "single line for {line:?}: {resp:?}");
            let j = Json::parse(&resp)
                .unwrap_or_else(|err| panic!("reply to {line:?} is not JSON ({err}): {resp}"));
            assert!(
                j.get("ok").and_then(Json::as_bool).is_some(),
                "reply to {line:?} carries ok: {resp}"
            );
        };
        // Every truncation point of every template.
        for t in &templates {
            for cut in 0..t.len() {
                if t.is_char_boundary(cut) {
                    check_reply(&t[..cut]);
                }
            }
        }
        // Seeded splices: increments, deletions, and structural-byte
        // insertions at random offsets.
        jumpslice_testkit::check(12, |rng| {
            let mut bytes = templates[rng.gen_range(0..templates.len())]
                .clone()
                .into_bytes();
            for _ in 0..1 + rng.gen_range(0..4usize) {
                if bytes.is_empty() {
                    break;
                }
                let at = rng.gen_range(0..bytes.len());
                match rng.gen_range(0..3u32) {
                    0 => bytes[at] = bytes[at].wrapping_add(1),
                    1 => {
                        bytes.remove(at);
                    }
                    _ => bytes.insert(at, b"{}[]\",:0"[rng.gen_range(0..8usize)]),
                }
            }
            if let Ok(line) = String::from_utf8(bytes) {
                check_reply(&line);
            }
        });
        // Whole-line hostiles. The nesting bomb is the one that must be an
        // error *before* recursion — an overflowed parser stack aborts the
        // process and no catch_unwind saves it.
        check_reply(&format!(
            r#"{{"op":"slice","criteria":{}"#,
            "[".repeat(100_000)
        ));
        check_reply(&format!(
            r#"{{"op":"load","source":"{}"}}"#,
            "x".repeat(2_000_000)
        ));
        check_reply(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":1e308}}]}}"#
        ));
        check_reply("{\"op\":\"load\",\"source\":\"read(x); \u{0001} write(x);\"}");
        // The daemon is still healthy after all of it.
        ok(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":4}}]}}"#
        )));
    }

    #[test]
    fn id_is_echoed() {
        let e = Engine::new(usize::MAX);
        let resp = e.handle_line(r#"{"id":7,"op":"stats"}"#);
        let j = ok(&resp);
        assert_eq!(j.get("id").and_then(Json::as_num), Some(7.0));
        assert!(
            resp.starts_with(r#"{"id":7,"#),
            "id leads the response: {resp}"
        );
    }

    /// The serve e2e script (and the CI `store` job) greps responses for
    /// exact JSON substrings, so field order is a contract, not an
    /// accident: `id` first when the request carried one, then `ok`, then
    /// the body (`error` first for failures). This test pins the exact
    /// prefixes those greps rely on.
    #[test]
    fn response_field_order_is_a_pinned_contract() {
        let e = Engine::new(usize::MAX);
        let resp = e.handle_line(r#"{"id":3,"op":"stats"}"#);
        assert!(
            resp.starts_with(r#"{"id":3,"ok":true,"requests":"#),
            "ok responses open id-then-ok-then-body: {resp}"
        );
        let resp = e.handle_line("not json");
        assert!(
            resp.starts_with(r#"{"ok":false,"error":""#),
            "error responses open ok-then-error: {resp}"
        );
        let resp = e.handle_line(r#"{"id":9,"op":"nope"}"#);
        assert!(
            resp.starts_with(r#"{"id":9,"ok":false,"error":""#),
            "errors still echo the id first: {resp}"
        );
        let key = load(&e, FIG3A);
        let resp = e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":4}}]}}"#
        ));
        assert!(
            resp.starts_with(r#"{"ok":true,"algo":"fig7","degraded":false,"slices":["#),
            "slice responses lead with algo and degraded: {resp}"
        );
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU64, Ordering};
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::SeqCst);
        let dir =
            std::env::temp_dir().join(format!("jumpslice-engine-{tag}-{}-{n}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    fn slice_lines(e: &Engine, key: &str, line: usize) -> String {
        let resp = ok(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":{line}}}]}}"#
        )));
        resp.get("slices").and_then(Json::as_arr).expect("slices")[0]
            .get("lines")
            .expect("lines")
            .write_compact()
    }

    #[test]
    fn a_restarted_engine_restores_from_the_store_tier() {
        let dir = tmpdir("restart");
        let src = jumpslice_lang::print_program(&jumpslice_core::corpus::fig3());
        let store = jumpslice_store::SnapshotStore::open(&dir, u64::MAX).unwrap();
        let cold = Engine::new(usize::MAX).with_store(store);
        let key = load(&cold, &src);
        let lines_cold = slice_lines(&cold, &key, 4);
        assert!(cold
            .store()
            .unwrap()
            .contains(crate::hash::parse_key(&key).unwrap()));

        // "Restart": a fresh engine (empty in-memory cache) over the same
        // directory. The load must come back restored and slice the same.
        let store = jumpslice_store::SnapshotStore::open(&dir, u64::MAX).unwrap();
        let warm = Engine::new(usize::MAX).with_store(store);
        let resp = ok(&warm.handle_line(
            &Json::Obj(vec![
                ("op".to_owned(), Json::Str("load".to_owned())),
                ("source".to_owned(), Json::Str(src.clone())),
            ])
            .write_compact(),
        ));
        assert_eq!(resp.get("restored").and_then(Json::as_bool), Some(true));
        assert_eq!(slice_lines(&warm, &key, 4), lines_cold);

        // The restored session builds its analysis from the decoded
        // program. Every algorithm, a chop and an explanation must answer
        // as a fresh engine's do.
        let fresh = Engine::new(usize::MAX);
        assert_eq!(load(&fresh, &src), key);
        let mut requests: Vec<String> = ["fig7", "fig12", "fig13", "conventional"]
            .iter()
            .flat_map(|algo| {
                [4, 14, 15].map(|line| {
                    format!(
                        r#"{{"op":"slice","program":"{key}","algo":"{algo}","criteria":[{{"line":{line}}}]}}"#
                    )
                })
            })
            .collect();
        requests.push(format!(
            r#"{{"op":"chop","program":"{key}","source_line":4,"sink_line":15}}"#
        ));
        requests.push(format!(r#"{{"op":"explain","program":"{key}","line":15}}"#));
        for req in &requests {
            let reply = warm.handle_line(req);
            assert!(reply.starts_with(r#"{"ok":true"#), "{req}: {reply}");
            assert_eq!(reply, fresh.handle_line(req), "{req}");
        }

        let stats = ok(&warm.handle_line(r#"{"op":"stats"}"#));
        let store_stats = stats.get("store").expect("store object in stats");
        assert_eq!(store_stats.get("hits").and_then(Json::as_num), Some(1.0));
        assert_eq!(
            store_stats.get("fallbacks").and_then(Json::as_num),
            Some(0.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cold load times its parse, and a restore its snapshot decode;
    /// neither runs the other.
    #[test]
    fn loads_record_a_parse_or_a_snapshot_decode() {
        let count = |events: &[obs::Event], phase: obs::Phase| {
            events
                .iter()
                .filter(|e| matches!(e, obs::Event::Phase { kind, .. } if *kind == phase))
                .count()
        };
        let dir = tmpdir("phases");
        let src = jumpslice_lang::print_program(&jumpslice_core::corpus::fig3());
        let store = jumpslice_store::SnapshotStore::open(&dir, u64::MAX).unwrap();
        let cold = Engine::new(usize::MAX).with_store(store);
        let (key, events) = obs::capture(|| load(&cold, &src));
        assert_eq!(count(&events, obs::Phase::Parse), 1);
        assert_eq!(count(&events, obs::Phase::SnapshotDecode), 0);
        // The served slice writes the record.
        slice_lines(&cold, &key, 4);

        let store = jumpslice_store::SnapshotStore::open(&dir, u64::MAX).unwrap();
        let warm = Engine::new(usize::MAX).with_store(store);
        let (restored, events) = obs::capture(|| load(&warm, &src));
        assert_eq!(restored, key);
        assert_eq!(count(&events, obs::Phase::SnapshotDecode), 1);
        assert_eq!(count(&events, obs::Phase::Parse), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `/*` that never closes is a parse error: the daemon does not
    /// slice the program before it as if it were the whole source.
    #[test]
    fn an_unterminated_comment_fails_the_load() {
        let e = Engine::new(usize::MAX);
        let reply = e.handle_line(
            &Json::Obj(vec![
                ("op".to_owned(), Json::Str("load".to_owned())),
                (
                    "source".to_owned(),
                    Json::Str("read(x); /* note write(x);".to_owned()),
                ),
            ])
            .write_compact(),
        );
        let msg = err(&reply);
        assert!(msg.contains("parse error"), "{msg}");
        assert!(msg.contains("comment is never closed"), "{msg}");
    }

    #[test]
    fn a_corrupt_snapshot_falls_back_to_the_source_build() {
        let dir = tmpdir("corrupt");
        let src = jumpslice_lang::print_program(&jumpslice_core::corpus::fig3());
        let store = jumpslice_store::SnapshotStore::open(&dir, u64::MAX).unwrap();
        let cold = Engine::new(usize::MAX).with_store(store);
        let key = load(&cold, &src);
        let lines_cold = slice_lines(&cold, &key, 4);

        // Flip one payload byte in the only record on disk.
        let record = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.extension().is_some_and(|x| x == "snap"))
            .expect("one snapshot record");
        let mut bytes = std::fs::read(&record).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&record, &bytes).unwrap();

        let store = jumpslice_store::SnapshotStore::open(&dir, u64::MAX).unwrap();
        let warm = Engine::new(usize::MAX).with_store(store);
        let resp = ok(&warm.handle_line(
            &Json::Obj(vec![
                ("op".to_owned(), Json::Str("load".to_owned())),
                ("source".to_owned(), Json::Str(src.clone())),
            ])
            .write_compact(),
        ));
        // Degradation, not damage: the load succeeds un-restored and the
        // slice is byte-identical to the cold engine's.
        assert_eq!(resp.get("restored").and_then(Json::as_bool), Some(false));
        assert_eq!(slice_lines(&warm, &key, 4), lines_cold);
        let stats = ok(&warm.handle_line(r#"{"op":"stats"}"#));
        let store_stats = stats.get("store").expect("store object in stats");
        assert_eq!(store_stats.get("corrupt").and_then(Json::as_num), Some(1.0));
        // The corrupt record was deleted; the slice above re-persisted it.
        assert_eq!(store_stats.get("writes").and_then(Json::as_num), Some(1.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A record carries only its program, and a restored session needs
    /// nothing more: a `vars` slice reads the nearest definitions or φs of
    /// the data half it builds, and each edit takes the label a cold
    /// engine's takes and answers as a cold engine's does. After each
    /// edit, the restored session slices every line as a cold engine does
    /// after the same edit.
    #[test]
    fn a_restored_session_answers_vars_slices_and_edits() {
        let dir = tmpdir("restored-reaching");
        let src = "read(y);\nwrite(y);\nwrite(y);\n";
        let store = || SnapshotStore::open(&dir, u64::MAX).unwrap();
        let writer = Engine::new(usize::MAX).with_store(store());
        let key = load(&writer, src);
        slice_lines(&writer, &key, 3); // the slice writes the record behind
        let restored = || {
            let e = Engine::new(usize::MAX).with_store(store());
            let resp = ok(&e.handle_line(
                &Json::Obj(vec![
                    ("op".to_owned(), Json::Str("load".to_owned())),
                    ("source".to_owned(), Json::Str(src.to_owned())),
                ])
                .write_compact(),
            ));
            assert_eq!(resp.get("restored").and_then(Json::as_bool), Some(true));
            e
        };

        let e = restored();
        let slice = ok(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":3,"vars":["y"]}}]}}"#
        )));
        let lines = slice.get("slices").and_then(Json::as_arr).expect("slices")[0]
            .get("lines")
            .expect("lines")
            .write_compact();
        assert_eq!(lines, "[1]", "only read(y) defines the y that line 3 sees");

        for (edit, path) in [
            (
                r#"{"kind":"replace_expr","path":[["body",1]],"expr":"y + 1"}"#,
                "expr_patch",
            ),
            (
                r#"{"kind":"insert","path":[["body",2]],"stmt":{"kind":"assign","var":"y","expr":"5"}}"#,
                "seeded_resolve",
            ),
        ] {
            let e = restored();
            let cold = Engine::new(usize::MAX);
            assert_eq!(load(&cold, src), key);
            let req = format!(r#"{{"op":"edit","program":"{key}","edit":{edit}}}"#);
            let reply = e.handle_line(&req);
            assert!(reply.contains(&format!(r#""path":"{path}""#)), "{reply}");
            assert_eq!(reply, cold.handle_line(&req));
            let reply = ok(&reply);
            let edited = reply.get("program").and_then(Json::as_str).expect("key");
            let stmts = reply.get("stmts").and_then(Json::as_num).expect("stmts");
            for line in 1..=stmts as usize {
                assert_eq!(
                    slice_lines(&e, edited, line),
                    slice_lines(&cold, edited, line),
                    "{path}: line {line}"
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A well-framed record under a shallow source whose program section
    /// nests one level deeper than any parse: `if` statements inside
    /// `MAX_DEPTH + 1` bodies. The decoder refuses it, so the load rebuilds
    /// from source, and the edit after it (which prints the program) and
    /// `stats` are answered.
    #[test]
    fn a_record_nested_past_the_parser_bound_falls_back_to_the_source_build() {
        use jumpslice_lang::{Expr, Stmt, StmtId, StmtKind, MAX_DEPTH};
        let dir = tmpdir("deep-record");
        let depth = MAX_DEPTH + 1;
        let stmts: Vec<Stmt> = (0..depth)
            .map(|i| Stmt {
                kind: StmtKind::If {
                    cond: Expr::Num(1),
                    then_branch: Box::new([StmtId::from_index(i + 1)]),
                    else_branch: Box::default(),
                },
                line: i as u32 + 1,
            })
            .chain(std::iter::once(Stmt {
                kind: StmtKind::Skip,
                line: depth as u32 + 1,
            }))
            .collect();
        let body = vec![StmtId::from_index(0)];
        let deep =
            Program::from_parts(stmts, body, &[], &[], vec![], vec![]).expect("a well-formed nest");
        assert_eq!(deep.structure().depth(), MAX_DEPTH + 1);
        let src = "read(x);\nwrite(x);\n";
        let store = jumpslice_store::SnapshotStore::open(&dir, u64::MAX).unwrap();
        let seed = jumpslice_core::AnalysisSeed::default();
        store
            .save(content_hash(src), &encode_snapshot(src, &deep, &seed))
            .unwrap();

        let e = Engine::new(usize::MAX).with_store(store);
        let resp = ok(&e.handle_line(
            &Json::Obj(vec![
                ("op".to_owned(), Json::Str("load".to_owned())),
                ("source".to_owned(), Json::Str(src.to_owned())),
            ])
            .write_compact(),
        ));
        assert_eq!(resp.get("restored").and_then(Json::as_bool), Some(false));
        let key = resp.get("program").and_then(Json::as_str).expect("key");
        let edited = ok(&e.handle_line(&format!(
            r#"{{"op":"edit","program":"{key}","edit":{{"kind":"replace_expr","path":[["body",1]],"expr":"x + 1"}}}}"#
        )));
        assert!(edited.get("program").is_some());
        let stats = ok(&e.handle_line(r#"{"op":"stats"}"#));
        let store_stats = stats.get("store").expect("store object in stats");
        assert_eq!(
            store_stats.get("fallbacks").and_then(Json::as_num),
            Some(1.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The decoder does not ask whether a program can reach the exit; the
    /// session opened on it does. A well-framed record under an analyzable
    /// source's key, holding a program with an infinite loop, decodes, is
    /// refused by the session and counted as a fallback, and the load
    /// rebuilds from source and slices as a cold engine does.
    #[test]
    fn an_unanalyzable_decoded_program_falls_back_to_the_source_build() {
        let dir = tmpdir("unanalyzable-record");
        let src = "read(x);\nx = x + 1;\nwrite(x);\n";
        let stuck = parse("L: x = x + 1; goto L; write(x);").unwrap();
        let store = SnapshotStore::open(&dir, u64::MAX).unwrap();
        let seed = jumpslice_core::AnalysisSeed::default();
        store
            .save(content_hash(src), &encode_snapshot(src, &stuck, &seed))
            .unwrap();

        let e = Engine::new(usize::MAX).with_store(store);
        let resp = ok(&e.handle_line(
            &Json::Obj(vec![
                ("op".to_owned(), Json::Str("load".to_owned())),
                ("source".to_owned(), Json::Str(src.to_owned())),
            ])
            .write_compact(),
        ));
        assert_eq!(resp.get("restored").and_then(Json::as_bool), Some(false));
        let key = resp.get("program").and_then(Json::as_str).expect("key");
        let cold = Engine::new(usize::MAX);
        assert_eq!(load(&cold, src), key);
        for line in 1..=3 {
            assert_eq!(slice_lines(&e, key, line), slice_lines(&cold, key, line));
        }
        let stats = ok(&e.handle_line(r#"{"op":"stats"}"#));
        let store_stats = stats.get("store").expect("store object in stats");
        assert_eq!(
            store_stats.get("fallbacks").and_then(Json::as_num),
            Some(1.0)
        );

        // The refused record was deleted and the slices above wrote a good
        // one, so the next daemon restores it.
        let next = Engine::new(usize::MAX).with_store(SnapshotStore::open(&dir, u64::MAX).unwrap());
        let resp = ok(&next.handle_line(
            &Json::Obj(vec![
                ("op".to_owned(), Json::Str("load".to_owned())),
                ("source".to_owned(), Json::Str(src.to_owned())),
            ])
            .write_compact(),
        ));
        assert_eq!(resp.get("restored").and_then(Json::as_bool), Some(true));
        for line in 1..=3 {
            assert_eq!(slice_lines(&next, key, line), slice_lines(&cold, key, line));
        }
        let stats = ok(&next.handle_line(r#"{"op":"stats"}"#));
        let store_stats = stats.get("store").expect("store object in stats");
        assert_eq!(
            store_stats.get("fallbacks").and_then(Json::as_num),
            Some(0.0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn an_expired_deadline_degrades_to_a_fig13_answer() {
        let e = Engine::new(usize::MAX);
        // Structured program (Figure 14), where fig13 ⊇ fig7 is pinned by
        // the difftest lattice — so the degraded answer must contain the
        // precise one.
        let src = jumpslice_lang::print_program(&jumpslice_core::corpus::fig14());
        let key = load(&e, &src);
        let precise = ok(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":9}}]}}"#
        )));
        // deadline_ms: 0 is already expired when the first checkpoint runs,
        // so degradation is deterministic.
        let degraded = ok(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":9}}],"deadline_ms":0}}"#
        )));
        assert_eq!(degraded.get("degraded").and_then(Json::as_bool), Some(true));
        assert_eq!(precise.get("degraded").and_then(Json::as_bool), Some(false));
        let lines = |j: &Json| -> Vec<i64> {
            j.get("slices").and_then(Json::as_arr).expect("slices")[0]
                .get("lines")
                .and_then(Json::as_arr)
                .expect("lines")
                .iter()
                .filter_map(Json::as_num)
                .map(|n| n as i64)
                .collect()
        };
        let p = lines(&precise);
        let d = lines(&degraded);
        assert!(
            p.iter().all(|l| d.contains(l)),
            "degraded {d:?} must contain precise {p:?}"
        );
        assert!(
            e.cache_stats().hits >= 2,
            "all three requests hit the cache"
        );
    }

    #[test]
    fn edits_move_the_program_to_its_new_content_key() {
        let e = Engine::new(usize::MAX);
        let key = load(&e, FIG3A);
        let resp = ok(&e.handle_line(&format!(
            r#"{{"op":"edit","program":"{key}","edit":{{"kind":"replace_expr","path":[["body",2]],"expr":"x * y"}}}}"#
        )));
        let new_key = resp
            .get("program")
            .and_then(Json::as_str)
            .expect("new key")
            .to_owned();
        assert_ne!(new_key, key, "content changed, key changed");
        // Old key no longer resolves; new key slices the edited program.
        err(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":4}}]}}"#
        )));
        ok(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{new_key}","algo":"fig7","criteria":[{{"line":4}}]}}"#
        )));
        // A rejected edit keeps the entry and reports the reason.
        let msg = err(&e.handle_line(&format!(
            r#"{{"op":"edit","program":"{new_key}","edit":{{"kind":"delete","path":[["body",99]]}}}}"#
        )));
        assert!(msg.contains("edit rejected"), "{msg}");
        ok(&e.handle_line(&format!(
            r#"{{"op":"slice","program":"{new_key}","algo":"fig7","criteria":[{{"line":4}}]}}"#
        )));
    }

    #[test]
    fn chop_explain_and_stats_answer() {
        let e = Engine::new(usize::MAX);
        let key = load(&e, FIG3A);
        let resp = ok(&e.handle_line(&format!(
            r#"{{"op":"chop","program":"{key}","source_line":1,"sink_line":4}}"#
        )));
        assert!(resp.get("lines").and_then(Json::as_arr).is_some());
        let resp = ok(&e.handle_line(&format!(r#"{{"op":"explain","program":"{key}","line":4}}"#)));
        assert!(resp
            .get("report")
            .and_then(Json::as_str)
            .is_some_and(|r| !r.is_empty()));
        let resp = ok(&e.handle_line(r#"{"op":"stats"}"#));
        let cache = resp.get("cache").expect("cache object");
        assert!(cache.get("hits").and_then(Json::as_num).unwrap_or(0.0) >= 2.0);
        assert_eq!(resp.get("requests").and_then(Json::as_num), Some(4.0));
    }
}
