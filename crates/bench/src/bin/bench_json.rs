//! Emits `BENCH_slicing.json`: the machine-readable benchmark summary the
//! experiment log (EXPERIMENTS.md) points at. Measures two things with the
//! in-tree harness and writes them as hand-rolled JSON (no serde in the
//! container):
//!
//! * single-slice latency for the paper's algorithms on a warm analysis —
//!   the figure-scale and ~1k-statement numbers;
//! * the batch sweep (120 criteria per program): a naive per-criterion
//!   `Analysis::new` loop vs `BatchSlicer` over one warm shared analysis,
//!   sequentially and at available parallelism;
//! * the sparse sweep: the change-driven Figure-7 kernel behind
//!   `agrawal_slice` vs the paper's dense round-based loop, the
//!   differential oracle in `jumpslice_difftest::oracle`, both over the
//!   same warm analysis and criterion pool. Every unstructured row of at
//!   least 1,000 statements must show the kernel at least 2× faster, or
//!   the run fails after writing its report;
//! * the cold-analysis sweep: `Analysis::warm` (the PDG's condensation
//!   included) from a fresh analysis, with the per-phase breakdown of that
//!   same call;
//! * the closure microsweep: raw backward closures through the oracle's
//!   direct walk over PDG edges vs the product's walk over the PDG's SCC
//!   condensation, on one warm analysis;
//! * the incremental sweep: one edit followed by a re-slice of a criterion
//!   pool, through a warm [`jumpslice_incr::EditSession`] (expression patch
//!   and seeded re-solve paths) vs edit-then-`Analysis::new` from scratch;
//! * the serve sweep: in-process daemon time per request on a warm cache —
//!   a mixed slice/stats session over two 120-statement programs, and
//!   single-criterion Figure-7 slices on one ~5k-statement program per
//!   family, where per-request work that scales with the program shows;
//! * the store sweep: first-slice latency through a store-enabled daemon
//!   on a miss (parse + analyze + warm + write-behind persist) vs on a
//!   snapshot hit (store load + decode + seeded analysis) — the daemon's
//!   cold-start-vs-warm-restart story;
//! * the per-phase breakdown (`per_phase_ns`): one captured cold analysis,
//!   warm and one-thread batch per family, with `unattributed_ns` the
//!   call's wall time minus its top-level phases.
//!
//! The headline `speedup_batch_vs_per_criterion_analysis` is the
//! cached-analysis amortization; on single-core containers the threaded
//! and sequential warm numbers coincide, and threads only add on
//! multicore hardware.

use jumpslice_bench::harness::Runner;
use jumpslice_bench::{criterion_pool, sized_structured, sized_unstructured};
use jumpslice_core::{
    agrawal_slice, conservative_slice, conventional_slice, Analysis, BatchSlicer, Criterion,
};
use jumpslice_difftest::oracle;
use jumpslice_incr::{apply_edit, Edit, EditExpr, EditSession, NewStmt};
use jumpslice_lang::{path_of, StmtId, StmtKind, StmtPath};
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::Instant;

const BATCH: usize = 120;
/// Criteria re-sliced after each edit in the incremental sweep — sized
/// like an interactive session (a handful of live slices kept current),
/// not like a batch audit, so the measurement isolates edit-to-answer
/// latency instead of drowning it in slice evaluation common to both arms.
const INCR_CRITERIA: usize = 4;
/// Single-criterion slice requests per ~5k-statement serve row.
const SERVE_CRITERIA: usize = 16;
/// Criteria per program in the sparse-vs-dense sweep. Enough to amortize
/// the one-time chain-index build into the sparse arm without making the
/// dense reference arm dominate the whole benchmark run.
const SPARSE_CRITERIA: usize = 32;

struct BatchRow {
    family: &'static str,
    stmts: usize,
    criteria: usize,
    cold_ns: f64,
    warm_seq_ns: f64,
    /// `None` on single-core containers, where the threaded arm would just
    /// re-measure the sequential one; the JSON key is omitted with it.
    warm_threads_ns: Option<f64>,
    /// Worker threads the batch engine actually used (clamped to the batch).
    threads_used: usize,
}

struct SparseRow {
    family: &'static str,
    stmts: usize,
    criteria: usize,
    dense_ns: f64,
    sparse_ns: f64,
}

struct ColdRow {
    family: &'static str,
    stmts: usize,
    warm_seq_ns: f64,
    /// Per-phase breakdown of one run of the timed call.
    per_phase: Vec<(&'static str, u64)>,
}

struct ClosureRow {
    family: &'static str,
    stmts: usize,
    criteria: usize,
    direct_ns: f64,
    condensed_ns: f64,
}

struct ServeRow {
    family: &'static str,
    stmts: usize,
    requests: usize,
    ns_per_request: f64,
}

struct StoreRow {
    family: &'static str,
    stmts: usize,
    record_bytes: usize,
    cold_ns: f64,
    restore_ns: f64,
}

struct IncrRow {
    family: &'static str,
    stmts: usize,
    criteria: usize,
    edit: &'static str,
    scratch_ns: f64,
    incr_ns: f64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn main() {
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut r = Runner::from_args().samples(5);

    // Single-slice latency on a warm analysis, per algorithm.
    let mut single: Vec<(String, f64)> = Vec::new();
    for (family, make) in [
        (
            "structured",
            sized_structured as fn(usize) -> jumpslice_lang::Program,
        ),
        (
            "unstructured",
            sized_unstructured as fn(usize) -> jumpslice_lang::Program,
        ),
    ] {
        for size in [100usize, 1000] {
            let p = make(size);
            let a = Analysis::new(&p);
            a.warm();
            let crit = Criterion::at_stmt(
                *jumpslice_bench::live_writes(&p, &a)
                    .last()
                    .expect("corpus has a live write"),
            );
            for (alg, f) in [
                (
                    "conventional",
                    conventional_slice as jumpslice_core::SliceFn,
                ),
                ("fig7-agrawal", agrawal_slice),
                ("fig13-conservative", conservative_slice),
            ] {
                let name = format!("single/{family}-{}/{alg}", p.len());
                let ns = r.bench(&name, || black_box(f(black_box(&a), black_box(&crit))));
                single.push((name, ns));
            }
        }
    }

    // The batch sweep: naive per-criterion analysis vs one shared warm one.
    let mut rows: Vec<BatchRow> = Vec::new();
    for (family, make) in [
        (
            "structured",
            sized_structured as fn(usize) -> jumpslice_lang::Program,
        ),
        (
            "unstructured",
            sized_unstructured as fn(usize) -> jumpslice_lang::Program,
        ),
    ] {
        for size in [100usize, 1000, 5000] {
            let p = make(size);
            let a = Analysis::new(&p);
            a.warm();
            let criteria = criterion_pool(&p, &a, BATCH);
            let n = p.len();
            let cold_ns = r.bench(
                &format!("json/batch/{family}/{n}/per-criterion-analysis"),
                || {
                    let mut total = 0usize;
                    for c in &criteria {
                        let fresh = Analysis::new(black_box(&p));
                        total += agrawal_slice(&fresh, c).len();
                    }
                    black_box(total)
                },
            );
            let warm_seq_ns = r.bench(
                &format!("json/batch/{family}/{n}/shared-analysis-sequential"),
                || {
                    black_box(
                        BatchSlicer::new(&a)
                            .with_threads(1)
                            .slice_all(agrawal_slice, &criteria),
                    )
                },
            );
            // On a single-core container the threaded arm is the sequential
            // arm with extra scaffolding; skip it and omit its JSON key.
            let (warm_threads_ns, threads_used) = if threads > 1 {
                let (_, stats) = BatchSlicer::new(&a).slice_all_stats(agrawal_slice, &criteria);
                let ns = r.bench(
                    &format!("json/batch/{family}/{n}/shared-analysis-threads"),
                    || black_box(BatchSlicer::new(&a).slice_all(agrawal_slice, &criteria)),
                );
                (Some(ns), stats.threads)
            } else {
                (None, 1)
            };
            rows.push(BatchRow {
                family,
                stmts: n,
                criteria: criteria.len(),
                cold_ns,
                warm_seq_ns,
                warm_threads_ns,
                threads_used,
            });
        }
    }

    // The forced-2-thread smoke sweep: `with_threads(2)` regardless of
    // `available_parallelism`, so the scoped pool's spawn/queue/join
    // machinery is exercised (and timed) even on the single-core containers
    // that skip the threaded arm above. Kept out of `batch_sweeps` so its
    // row never collides with the adaptive rows the perf gate compares.
    let threads2_smoke = {
        let p = sized_structured(1000);
        let a = Analysis::new(&p);
        a.warm();
        let criteria = criterion_pool(&p, &a, BATCH);
        let n = p.len();
        let (_, stats) = BatchSlicer::new(&a)
            .with_threads(2)
            .slice_all_stats(agrawal_slice, &criteria);
        assert_eq!(stats.threads, 2, "with_threads(2) must not be demoted");
        let ns = r.bench(
            &format!("json/batch/structured/{n}/forced-2-threads"),
            || {
                black_box(
                    BatchSlicer::new(&a)
                        .with_threads(2)
                        .slice_all(agrawal_slice, &criteria),
                )
            },
        );
        (n, criteria.len(), ns)
    };

    // The cold-analysis sweep: `warm()` from a fresh `Analysis` per
    // iteration, and the per-phase breakdown of one run of that same call.
    let mut cold_rows: Vec<ColdRow> = Vec::new();
    for (family, make) in [
        (
            "structured",
            sized_structured as fn(usize) -> jumpslice_lang::Program,
        ),
        (
            "unstructured",
            sized_unstructured as fn(usize) -> jumpslice_lang::Program,
        ),
    ] {
        for size in [1000usize, 5000] {
            let p = make(size);
            let n = p.len();
            let cold_warm = |p: &jumpslice_lang::Program| {
                let a = Analysis::new(p);
                a.warm();
                a.stats().pdg_builds
            };
            let warm_seq_ns = r.bench(&format!("json/cold/{family}/{n}/sequential-warm"), || {
                black_box(cold_warm(black_box(&p)))
            });
            let (_, events) = jumpslice_obs::capture(|| cold_warm(&p));
            let m = jumpslice_obs::Metrics::of(&events);
            cold_rows.push(ColdRow {
                family,
                stmts: n,
                warm_seq_ns,
                per_phase: m.phase_ns.into_iter().collect(),
            });
        }
    }

    // The serve sweep: in-process daemon engine throughput over a mixed
    // request session (two cached programs, slice + stats traffic), then
    // single-criterion fig7 slices on one ~5k-statement program per
    // family. One engine per measurement would re-pay analysis; the cache
    // is the product, so it stays warm across iterations like a real
    // daemon.
    let serve_rows = {
        use jumpslice_serve::engine::Engine;
        let src_a = jumpslice_lang::print_program(&sized_structured(120));
        let src_b = jumpslice_lang::print_program(&sized_unstructured(120));
        let engine = Engine::new(256 << 20);
        let load = |src: &str| -> String {
            let resp = engine.handle_line(
                &jumpslice_obs::Json::Obj(vec![
                    ("op".to_owned(), jumpslice_obs::Json::Str("load".to_owned())),
                    (
                        "source".to_owned(),
                        jumpslice_obs::Json::Str(src.to_owned()),
                    ),
                ])
                .write_compact(),
            );
            jumpslice_obs::Json::parse(&resp)
                .expect("serve responses are valid JSON")
                .get("program")
                .and_then(jumpslice_obs::Json::as_str)
                .expect("load succeeds on generated programs")
                .to_owned()
        };
        let key_a = load(&src_a);
        let key_b = load(&src_b);
        let stmts_a = jumpslice_lang::parse(&src_a).expect("round-trips").len();
        const REQUESTS: usize = 64;
        let requests: Vec<String> = (0..REQUESTS)
            .map(|i| match i % 8 {
                7 => r#"{"op":"stats"}"#.to_owned(),
                k => {
                    let key = if k % 2 == 0 { &key_a } else { &key_b };
                    let line = 1 + (i * 5) % stmts_a.min(100);
                    format!(
                        r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":{line}}}]}}"#
                    )
                }
            })
            .collect();
        let mut serve = |name: &str, requests: &[String]| {
            let total_ns = r.bench(name, || {
                let mut bytes = 0usize;
                for req in requests {
                    bytes += engine.handle_line(black_box(req)).len();
                }
                black_box(bytes)
            });
            total_ns / requests.len() as f64
        };
        let mut rows = vec![ServeRow {
            family: "mixed",
            stmts: 120,
            requests: REQUESTS,
            ns_per_request: serve("json/serve/mixed/120/warm-cache", &requests),
        }];
        for (family, make) in [
            (
                "structured",
                sized_structured as fn(usize) -> jumpslice_lang::Program,
            ),
            (
                "unstructured",
                sized_unstructured as fn(usize) -> jumpslice_lang::Program,
            ),
        ] {
            let src = jumpslice_lang::print_program(&make(5000));
            let key = load(&src);
            let p = jumpslice_lang::parse(&src).expect("round-trips");
            let requests: Vec<String> = criterion_pool(&p, &Analysis::new(&p), SERVE_CRITERIA)
                .iter()
                .map(|c| {
                    let line = p.line_of(c.stmt);
                    format!(
                        r#"{{"op":"slice","program":"{key}","algo":"fig7","criteria":[{{"line":{line}}}]}}"#
                    )
                })
                .collect();
            let n = p.len();
            rows.push(ServeRow {
                family,
                stmts: n,
                requests: requests.len(),
                ns_per_request: serve(&format!("json/serve/{family}/{n}/warm-cache"), &requests),
            });
        }
        rows
    };

    // The sparse sweep: the change-driven Figure-7 kernel behind
    // `agrawal_slice` against the dense round-based loop of the difftest
    // oracle, both over the same warm analysis and criterion pool.
    let mut sparse_rows: Vec<SparseRow> = Vec::new();
    for (family, make) in [
        (
            "structured",
            sized_structured as fn(usize) -> jumpslice_lang::Program,
        ),
        (
            "unstructured",
            sized_unstructured as fn(usize) -> jumpslice_lang::Program,
        ),
    ] {
        for size in [100usize, 1000, 5000] {
            let p = make(size);
            let a = Analysis::new(&p);
            a.warm();
            let criteria = criterion_pool(&p, &a, SPARSE_CRITERIA);
            let n = p.len();
            let dense_ns = r.bench(&format!("json/sparse/{family}/{n}/dense-reference"), || {
                let mut total = 0usize;
                for c in &criteria {
                    total += oracle::agrawal_slice_dense(black_box(&a), c).len();
                }
                black_box(total)
            });
            let sparse_ns = r.bench(&format!("json/sparse/{family}/{n}/sparse-kernel"), || {
                let mut total = 0usize;
                for c in &criteria {
                    total += agrawal_slice(black_box(&a), c).len();
                }
                black_box(total)
            });
            sparse_rows.push(SparseRow {
                family,
                stmts: n,
                criteria: criteria.len(),
                dense_ns,
                sparse_ns,
            });
        }
    }

    // The closure microsweep: raw backward closures over the batch-sized
    // criterion pool, answered by the oracle's direct walk over PDG edges
    // vs the product's walk over the PDG's condensation. Both arms read one
    // warm analysis, so the measurement isolates closure answering; the
    // condensation is built inside `pdg_build`, which the cold-analysis
    // sweep times.
    let mut closure_rows: Vec<ClosureRow> = Vec::new();
    for (family, make) in [
        (
            "structured",
            sized_structured as fn(usize) -> jumpslice_lang::Program,
        ),
        (
            "unstructured",
            sized_unstructured as fn(usize) -> jumpslice_lang::Program,
        ),
    ] {
        for size in [1000usize, 5000] {
            let p = make(size);
            let a = Analysis::new(&p);
            a.warm();
            let seeds: Vec<StmtId> = criterion_pool(&p, &a, BATCH)
                .iter()
                .map(|c| c.stmt)
                .collect();
            let n = p.len();
            let direct_ns = r.bench(&format!("json/closure/{family}/{n}/direct-walk"), || {
                let mut total = 0usize;
                for &s in &seeds {
                    total += oracle::backward_closure(a.pdg(), [black_box(s)]).len();
                }
                black_box(total)
            });
            let condensed_ns = r.bench(&format!("json/closure/{family}/{n}/condensed"), || {
                let mut total = 0usize;
                for &s in &seeds {
                    total += a.pdg().backward_closure([black_box(s)]).len();
                }
                black_box(total)
            });
            closure_rows.push(ClosureRow {
                family,
                stmts: n,
                criteria: seeds.len(),
                direct_ns,
                condensed_ns,
            });
        }
    }

    // The store sweep: first slice served by a store-enabled daemon on a
    // cache miss vs on a snapshot hit. Both arms end at the same place —
    // one Figure-7 answer on a fully warm analysis — and replay exactly
    // what the serve loop does in each state. The cold arm is the miss
    // path: parse + reaching-defs + PDG + pdom + LST, then the write-behind
    // persist (encode + `SnapshotStore::save`, a distinct key per
    // iteration so every write really hits disk). The restore arm is the
    // hit path: `SnapshotStore::load` (disk read + whole-record checksum),
    // snapshot decode, and a seeded analysis. The family is the
    // jump-heavy generator — unstructured control flow is the workload
    // this repo exists for, and it is where from-source analysis is
    // superlinear while snapshot decode stays linear in the record.
    let mut store_rows: Vec<StoreRow> = Vec::new();
    {
        use jumpslice_store::{fnv1a, SnapshotStore};
        let dir =
            std::env::temp_dir().join(format!("jumpslice-bench-store-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = SnapshotStore::open(&dir, u64::MAX).expect("temp store opens");
        let mut write_key = 0u64; // distinct per miss iteration: forces real writes
        for size in [4000usize, 6000] {
            let family = "unstructured";
            let src = jumpslice_lang::print_program(&sized_unstructured(size));
            let prog = jumpslice_lang::parse(&src).expect("printed programs re-parse");
            let a = Analysis::new(&prog);
            a.warm();
            let crit_line = prog.len(); // re-parse numbering is stable, so a line works for both arms
            let n = prog.len();
            let payload = jumpslice_core::encode_snapshot(&src, &prog, &a.into_seed());
            let key = fnv1a(src.as_bytes());
            store.save(key, &payload).expect("snapshot persists");
            let record_bytes = payload.len() + jumpslice_store::HEADER_LEN;

            let cold_ns = r.bench(&format!("json/store/{family}/{n}/cold-start"), || {
                let p = jumpslice_lang::parse(black_box(&src)).expect("parses");
                let a = Analysis::new(&p);
                a.warm();
                let crit = Criterion::at_stmt(p.at_line(crit_line));
                let len = agrawal_slice(&a, &crit).len();
                let payload = jumpslice_core::encode_snapshot(&src, &p, &a.into_seed());
                write_key += 1;
                store.save(write_key, &payload).expect("snapshot persists");
                black_box(len)
            });
            let restore_ns = r.bench(&format!("json/store/{family}/{n}/snapshot-restore"), || {
                let payload = store.load(black_box(key)).expect("record present");
                let snap = jumpslice_core::decode_snapshot(&payload).expect("snapshot decodes");
                let a = Analysis::with_seed(&snap.prog, snap.seed);
                let crit = Criterion::at_stmt(snap.prog.at_line(crit_line));
                black_box(agrawal_slice(&a, &crit).len())
            });
            store_rows.push(StoreRow {
                family,
                stmts: n,
                record_bytes,
                cold_ns,
                restore_ns,
            });
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    // The incremental sweep: edit + re-slice through a warm session vs
    // edit + from-scratch analysis. Two edit shapes, matching the two
    // fast paths: an expression replacement (everything reused) and an
    // insert/delete cycle (seeded re-solve, steady-state program size).
    let mut incr_rows: Vec<IncrRow> = Vec::new();
    for (family, make) in [
        (
            "structured",
            sized_structured as fn(usize) -> jumpslice_lang::Program,
        ),
        (
            "unstructured",
            sized_unstructured as fn(usize) -> jumpslice_lang::Program,
        ),
    ] {
        let p = make(1000);
        let a = Analysis::new(&p);
        a.warm();
        let criteria = criterion_pool(&p, &a, INCR_CRITERIA);
        let n = p.len();
        drop(a);

        let sweep = |a: &Analysis<'_>| {
            BatchSlicer::new(a)
                .with_threads(1)
                .slice_all(agrawal_slice, &criteria)
        };

        // Edit 1: replace the right-hand side of the last assignment.
        let target = p
            .stmt_ids()
            .filter(|&s| matches!(p.stmt(s).kind, StmtKind::Assign { .. }))
            .last()
            .expect("corpus has an assignment");
        let replace = Edit::ReplaceExpr {
            at: path_of(&p, target).expect("lexical statement has a path"),
            with: EditExpr::Num(7),
        };
        let scratch_ns = r.bench(
            &format!("json/incr/{family}/{n}/replace-expr/scratch"),
            || {
                let applied = apply_edit(&p, &replace).expect("valid edit");
                let fresh = Analysis::new(&applied.prog);
                black_box(sweep(&fresh))
            },
        );
        let mut session = EditSession::new(p.clone());
        session.with_analysis(|a| a.warm());
        let incr_ns = r.bench(
            &format!("json/incr/{family}/{n}/replace-expr/session"),
            || {
                session.apply(&replace).expect("valid edit");
                session.with_analysis(|a| black_box(sweep(a)))
            },
        );
        assert_eq!(
            session.stats().full_rebuilds,
            0,
            "expression replacement must stay on the patch path"
        );
        incr_rows.push(IncrRow {
            family,
            stmts: n,
            criteria: criteria.len(),
            edit: "replace-expr",
            scratch_ns,
            incr_ns,
        });

        // Edit 2: append an assignment, re-slice, delete it, re-slice —
        // program size is steady across iterations.
        let var = p.name_str(*p.defined_vars().first().expect("corpus defines a variable"));
        let insert = Edit::InsertStmt {
            at: StmtPath::root(p.body().len()),
            stmt: NewStmt::Assign {
                var: var.to_owned(),
                rhs: EditExpr::Num(1),
            },
        };
        let delete = Edit::DeleteStmt {
            at: StmtPath::root(p.body().len()),
        };
        let scratch_ns = r.bench(
            &format!("json/incr/{family}/{n}/insert-delete/scratch"),
            || {
                let q = apply_edit(&p, &insert).expect("valid edit").prog;
                let fa = Analysis::new(&q);
                let s1 = sweep(&fa);
                let q2 = apply_edit(&q, &delete).expect("valid edit").prog;
                let fb = Analysis::new(&q2);
                let s2 = sweep(&fb);
                black_box((s1, s2))
            },
        );
        let mut session = EditSession::new(p.clone());
        session.with_analysis(|a| a.warm());
        let incr_ns = r.bench(
            &format!("json/incr/{family}/{n}/insert-delete/session"),
            || {
                session.apply(&insert).expect("valid edit");
                let s1 = session.with_analysis(|a| sweep(a));
                session.apply(&delete).expect("valid edit");
                let s2 = session.with_analysis(|a| sweep(a));
                black_box((s1, s2))
            },
        );
        assert_eq!(
            session.stats().full_rebuilds,
            0,
            "insert/delete of a simple statement must stay on the seeded path"
        );
        incr_rows.push(IncrRow {
            family,
            stmts: n,
            criteria: criteria.len(),
            edit: "insert-delete",
            scratch_ns,
            incr_ns,
        });
    }
    r.finish();

    // Per-phase cost breakdown via the obs layer: one cold analysis + warm
    // + a single-threaded batch sweep per family, captured on this thread's
    // trace sink (workers would be silent, so the sweep runs sequentially).
    // Whatever the top-level phases do not cover (CFG and structure
    // construction, criterion selection, the sink itself) is reported as
    // `unattributed_ns` rather than hidden.
    const TOP_LEVEL: [&str; 6] = [
        "reaching_defs",
        "postdominators",
        "pdg_build",
        "lst_build",
        "chain_index_build",
        "batch_run",
    ];
    let mut per_phase: Vec<(String, Vec<(&'static str, u64)>)> = Vec::new();
    for (family, make) in [
        (
            "structured",
            sized_structured as fn(usize) -> jumpslice_lang::Program,
        ),
        (
            "unstructured",
            sized_unstructured as fn(usize) -> jumpslice_lang::Program,
        ),
    ] {
        let p = make(1000);
        let t = Instant::now();
        let (_, events) = jumpslice_obs::capture(|| {
            let a = Analysis::new(&p);
            a.warm();
            let criteria = criterion_pool(&p, &a, BATCH);
            black_box(
                BatchSlicer::new(&a)
                    .with_threads(1)
                    .slice_all(agrawal_slice, &criteria),
            );
        });
        let wall_ns = t.elapsed().as_nanos() as u64;
        let m = jumpslice_obs::Metrics::of(&events);
        let mut phases: Vec<(&'static str, u64)> = m.phase_ns.into_iter().collect();
        let attributed: u64 = phases
            .iter()
            .filter(|(phase, _)| TOP_LEVEL.contains(phase))
            .map(|&(_, ns)| ns)
            .sum();
        phases.push(("unattributed_ns", wall_ns.saturating_sub(attributed)));
        per_phase.push((format!("{family}-{}", p.len()), phases));
    }

    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"bench\": \"slicing\",");
    let _ = writeln!(
        out,
        "  \"harness\": \"in-tree calibrated harness (median of 5 samples)\","
    );
    let _ = writeln!(out, "  \"algorithm\": \"fig7-agrawal\",");
    let _ = writeln!(out, "  \"available_parallelism\": {threads},");
    out.push_str("  \"single_slice_warm_analysis_ns\": {\n");
    for (i, (name, ns)) in single.iter().enumerate() {
        let comma = if i + 1 == single.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}\": {:.1}{comma}", json_escape(name), ns);
    }
    out.push_str("  },\n");
    out.push_str("  \"batch_sweeps\": [\n");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        let best_warm = row.warm_threads_ns.unwrap_or(row.warm_seq_ns);
        let speedup = row.cold_ns / best_warm;
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"family\": \"{}\",", row.family);
        let _ = writeln!(out, "      \"stmts\": {},", row.stmts);
        let _ = writeln!(out, "      \"criteria\": {},", row.criteria);
        let _ = writeln!(out, "      \"batch_threads_used\": {},", row.threads_used);
        let _ = writeln!(out, "      \"available_parallelism\": {threads},");
        let _ = writeln!(
            out,
            "      \"sequential_per_criterion_analysis_ns\": {:.1},",
            row.cold_ns
        );
        let _ = writeln!(
            out,
            "      \"batch_shared_analysis_sequential_ns\": {:.1},",
            row.warm_seq_ns
        );
        if let Some(ns) = row.warm_threads_ns {
            let _ = writeln!(out, "      \"batch_shared_analysis_threads_ns\": {ns:.1},");
        }
        let _ = writeln!(
            out,
            "      \"speedup_batch_vs_per_criterion_analysis\": {speedup:.2}"
        );
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");
    {
        let (n, criteria, ns) = threads2_smoke;
        out.push_str("  \"batch_threads2_smoke\": [\n");
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"family\": \"structured\",");
        let _ = writeln!(out, "      \"stmts\": {n},");
        let _ = writeln!(out, "      \"criteria\": {criteria},");
        let _ = writeln!(out, "      \"batch_threads_used\": 2,");
        let _ = writeln!(out, "      \"available_parallelism\": {threads},");
        let _ = writeln!(out, "      \"batch_shared_analysis_threads_ns\": {ns:.1}");
        out.push_str("    }\n");
        out.push_str("  ],\n");
    }
    out.push_str("  \"cold_analysis_sweeps\": [\n");
    for (i, row) in cold_rows.iter().enumerate() {
        let comma = if i + 1 == cold_rows.len() { "" } else { "," };
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"family\": \"{}\",", row.family);
        let _ = writeln!(out, "      \"stmts\": {},", row.stmts);
        let _ = writeln!(out, "      \"available_parallelism\": {threads},");
        let _ = writeln!(
            out,
            "      \"cold_warm_sequential_ns\": {:.1},",
            row.warm_seq_ns
        );
        out.push_str("      \"per_phase_ns\": {\n");
        for (j, (phase, ns)) in row.per_phase.iter().enumerate() {
            let c = if j + 1 == row.per_phase.len() {
                ""
            } else {
                ","
            };
            let _ = writeln!(out, "        \"{phase}\": {ns}{c}");
        }
        out.push_str("      }\n");
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"serve_sweeps\": [\n");
    for (i, row) in serve_rows.iter().enumerate() {
        let comma = if i + 1 == serve_rows.len() { "" } else { "," };
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"family\": \"{}\",", row.family);
        let _ = writeln!(out, "      \"stmts\": {},", row.stmts);
        let _ = writeln!(out, "      \"requests\": {},", row.requests);
        let _ = writeln!(out, "      \"serve_workers_used\": 1,");
        let _ = writeln!(out, "      \"available_parallelism\": {threads},");
        let _ = writeln!(
            out,
            "      \"serve_ns_per_request\": {:.1}",
            row.ns_per_request
        );
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"sparse_sweeps\": [\n");
    for (i, row) in sparse_rows.iter().enumerate() {
        let comma = if i + 1 == sparse_rows.len() { "" } else { "," };
        let speedup = row.dense_ns / row.sparse_ns;
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"family\": \"{}\",", row.family);
        let _ = writeln!(out, "      \"stmts\": {},", row.stmts);
        let _ = writeln!(out, "      \"criteria\": {},", row.criteria);
        let _ = writeln!(out, "      \"available_parallelism\": {threads},");
        let _ = writeln!(out, "      \"dense_reference_ns\": {:.1},", row.dense_ns);
        let _ = writeln!(out, "      \"sparse_kernel_ns\": {:.1},", row.sparse_ns);
        let _ = writeln!(out, "      \"speedup_sparse_vs_dense\": {speedup:.2}");
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"closure_sweeps\": [\n");
    for (i, row) in closure_rows.iter().enumerate() {
        let comma = if i + 1 == closure_rows.len() { "" } else { "," };
        let speedup = row.direct_ns / row.condensed_ns;
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"family\": \"{}\",", row.family);
        let _ = writeln!(out, "      \"stmts\": {},", row.stmts);
        let _ = writeln!(out, "      \"criteria\": {},", row.criteria);
        let _ = writeln!(out, "      \"available_parallelism\": {threads},");
        let _ = writeln!(out, "      \"direct_closure_ns\": {:.1},", row.direct_ns);
        let _ = writeln!(
            out,
            "      \"condensed_closure_ns\": {:.1},",
            row.condensed_ns
        );
        let _ = writeln!(out, "      \"speedup_condensed_vs_direct\": {speedup:.2}");
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"store_sweeps\": [\n");
    for (i, row) in store_rows.iter().enumerate() {
        let comma = if i + 1 == store_rows.len() { "" } else { "," };
        let speedup = row.cold_ns / row.restore_ns;
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"family\": \"{}\",", row.family);
        let _ = writeln!(out, "      \"stmts\": {},", row.stmts);
        let _ = writeln!(out, "      \"available_parallelism\": {threads},");
        let _ = writeln!(out, "      \"record_bytes\": {},", row.record_bytes);
        let _ = writeln!(out, "      \"cold_start_ns\": {:.1},", row.cold_ns);
        let _ = writeln!(out, "      \"snapshot_restore_ns\": {:.1},", row.restore_ns);
        let _ = writeln!(out, "      \"speedup_restore_vs_cold\": {speedup:.2}");
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"incr_sweeps\": [\n");
    for (i, row) in incr_rows.iter().enumerate() {
        let comma = if i + 1 == incr_rows.len() { "" } else { "," };
        let speedup = row.scratch_ns / row.incr_ns;
        out.push_str("    {\n");
        let _ = writeln!(out, "      \"family\": \"{}\",", row.family);
        let _ = writeln!(out, "      \"stmts\": {},", row.stmts);
        let _ = writeln!(out, "      \"criteria\": {},", row.criteria);
        let _ = writeln!(out, "      \"edit\": \"{}\",", row.edit);
        let _ = writeln!(out, "      \"available_parallelism\": {threads},");
        let _ = writeln!(
            out,
            "      \"scratch_reanalysis_ns\": {:.1},",
            row.scratch_ns
        );
        let _ = writeln!(out, "      \"incremental_ns\": {:.1},", row.incr_ns);
        let _ = writeln!(
            out,
            "      \"speedup_incremental_vs_scratch\": {speedup:.2}"
        );
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"per_phase_ns\": {\n");
    for (i, (corpus, phases)) in per_phase.iter().enumerate() {
        let comma = if i + 1 == per_phase.len() { "" } else { "," };
        let _ = writeln!(out, "    \"{}\": {{", json_escape(corpus));
        for (j, (phase, ns)) in phases.iter().enumerate() {
            let c = if j + 1 == phases.len() { "" } else { "," };
            let _ = writeln!(out, "      \"{phase}\": {ns}{c}");
        }
        let _ = writeln!(out, "    }}{comma}");
    }
    out.push_str("  }\n}\n");

    std::fs::write("BENCH_slicing.json", &out).expect("write BENCH_slicing.json");
    println!("\nwrote BENCH_slicing.json");
    for row in &rows {
        println!(
            "  {:<12} {:>5} stmts x {} criteria: {:.2}x batch speedup vs per-criterion analysis ({} thread(s))",
            row.family,
            row.stmts,
            row.criteria,
            row.cold_ns / row.warm_threads_ns.unwrap_or(row.warm_seq_ns),
            row.threads_used
        );
    }
    for row in &sparse_rows {
        println!(
            "  {:<12} {:>5} stmts x {} criteria: {:.2}x sparse-kernel speedup vs dense reference",
            row.family,
            row.stmts,
            row.criteria,
            row.dense_ns / row.sparse_ns
        );
    }
    for row in &cold_rows {
        println!(
            "  {:<12} {:>5} stmts: cold warm {:.1}ms",
            row.family,
            row.stmts,
            row.warm_seq_ns / 1e6
        );
    }
    for row in &closure_rows {
        println!(
            "  {:<12} {:>5} stmts x {} criteria: {:.2}x condensed-closure speedup vs direct walk",
            row.family,
            row.stmts,
            row.criteria,
            row.direct_ns / row.condensed_ns
        );
    }
    for row in &incr_rows {
        println!(
            "  {:<12} {:>5} stmts, {:<13} edit: {:.2}x incremental speedup vs scratch re-analysis",
            row.family,
            row.stmts,
            row.edit,
            row.scratch_ns / row.incr_ns
        );
    }
    for row in &store_rows {
        println!(
            "  {:<12} {:>5} stmts: {:.2}x snapshot-restore speedup vs cold start ({} record bytes)",
            row.family,
            row.stmts,
            row.cold_ns / row.restore_ns,
            row.record_bytes
        );
    }
    for row in &serve_rows {
        println!(
            "  serve: {:<12} {:>5} stmts: {:.1}us/request on a warm cache ({} requests)",
            row.family,
            row.stmts,
            row.ns_per_request / 1e3,
            row.requests
        );
    }
    // Both sparse-sweep arms share every analysis artifact; on goto-dense
    // programs the kernel wins by walking the PDG's condensation where the
    // oracle walks raw edges. A kernel whose closures fell back to raw
    // edges fails here, after the report is written.
    for row in &sparse_rows {
        let speedup = row.dense_ns / row.sparse_ns;
        assert!(
            row.family != "unstructured" || row.stmts < 1000 || speedup >= 2.0,
            "unstructured-{}: sparse kernel only {speedup:.2}x the dense oracle \
             (floor 2x); are closures walking raw edges?",
            row.stmts
        );
    }
}
