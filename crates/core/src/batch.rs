//! Batch slicing: many criteria over one program, fanned across threads.
//!
//! Computing a whole family of slices — every `write` statement, every
//! procedure exit, a regression sweep's worth of criteria — used to mean
//! paying the program-level analyses (reaching definitions, the PDG, the
//! postdominator tree, the lexical successor tree) once *per criterion*.
//! [`Analysis`] now caches each of those lazily and is `Sync`, so a batch
//! costs one analysis plus per-criterion closure work, and the closures are
//! independent: [`BatchSlicer`] runs them on a scoped thread pool with a
//! shared immutable [`Analysis`] and an atomic work index. The sparse
//! Figure-7 kernel's chain index rides the same cache: `warm()` (which the
//! pool calls before spawning workers) forces it once, and every worker
//! probes the one shared copy. Closures walk the PDG's own condensation,
//! whichever the thread count. A one-thread batch is a plain loop on the
//! caller's thread, with no up-front warm. Each worker's per-slice scratch
//! (closure worklists and delta buffers, dirty-jump sets) lives in
//! thread-local pools so steady-state admissions allocate nothing. Each
//! worker allocates its own slice bitsets, so there is no cross-thread
//! contention beyond the work counter.
//!
//! Results come back in criterion order and are bit-for-bit identical to a
//! sequential loop (each slicer is a pure function of the analysis and its
//! criterion) — the property tests in `tests/equivalence.rs` pin this.
//!
//! # Examples
//!
//! ```
//! use jumpslice_core::{agrawal_slice, corpus, Analysis, BatchSlicer, Criterion};
//! let p = corpus::fig3();
//! let a = Analysis::new(&p);
//! let batch = BatchSlicer::new(&a);
//! let criteria: Vec<Criterion> =
//!     p.stmt_ids().map(Criterion::at_stmt).collect();
//! let slices = batch.slice_all(agrawal_slice, &criteria);
//! assert_eq!(slices.len(), p.len());
//! ```

use crate::{Analysis, Criterion, Slice};
use jumpslice_lang::{StmtId, StmtKind};
use jumpslice_obs as obs;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Execution statistics for **one** batch run.
///
/// A fresh snapshot is produced by every `*_stats` call: nothing accumulates
/// across runs, so two consecutive runs on one (reused, already-warm)
/// analysis each report only their own work. Workers run on scoped threads
/// whose sinks are empty, so these numbers are gathered by the coordinating
/// thread and reported through [`Event::Count`](jumpslice_obs::Event::Count)
/// events (`batch.*`) on the caller's sink.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchRunStats {
    /// Criteria sliced in this run.
    pub criteria: usize,
    /// Worker threads actually used (after clamping to the batch size;
    /// `1` means the sequential path on the caller's thread).
    pub threads: usize,
    /// Wall-clock duration of the whole run.
    pub wall_ns: u64,
    /// Summed per-worker time spent inside slicer calls.
    pub busy_ns: u64,
    /// Summed per-worker time *not* spent slicing (queue acquisition plus
    /// the idle tail after the work runs out): `wall × threads − busy`.
    pub queue_wait_ns: u64,
    /// Slices produced by each worker — the work-stealing balance.
    pub per_worker_slices: Vec<usize>,
}

impl BatchRunStats {
    /// Fraction of the run's total thread-time spent slicing (0.0–1.0).
    pub fn utilization(&self) -> f64 {
        let total = self.wall_ns.saturating_mul(self.threads as u64);
        if total == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / total as f64
    }
}

/// A slicer panic caught mid-batch, attributed to the criterion whose
/// closure died. Differential testing needs the attribution: a raw scoped
/// -thread panic says nothing about *which* of a thousand criteria killed
/// the worker.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BatchPanic {
    /// Index of the offending criterion in the batch's `criteria` slice.
    pub index: usize,
    /// The criterion itself.
    pub criterion: Criterion,
    /// The panic payload, if it was a string (the overwhelmingly common
    /// case: `panic!`, `assert!`, `expect` all produce one).
    pub message: String,
}

impl std::fmt::Display for BatchPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "slicer panicked on criterion #{} ({:?}): {}",
            self.index, self.criterion, self.message
        )
    }
}

impl std::error::Error for BatchPanic {}

/// Renders a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// A slicing algorithm usable in a batch: any of the workspace's slicers
/// (`conventional_slice`, `agrawal_slice`, `structured_slice`,
/// `conservative_slice`, the `baselines`) has this shape.
pub type SliceFn = fn(&Analysis<'_>, &Criterion) -> Slice;

/// Fans one slicing algorithm across many criteria on worker threads.
///
/// The underlying [`Analysis`] is shared immutably: it is warmed (all lazy
/// artifacts forced) before the fan-out, so workers only ever read it.
#[derive(Clone, Copy, Debug)]
pub struct BatchSlicer<'a, 'p> {
    analysis: &'a Analysis<'p>,
    /// `None`: the machine's available parallelism, asked for by each run
    /// (on Linux that reads cgroup files, which one-thread callers skip).
    threads: Option<usize>,
    /// Cooperative deadline installed on every worker for the duration of
    /// each slicer call (`None` = run to completion). Deadlines are
    /// thread-local, so the coordinating thread's own deadline would never
    /// reach the scoped workers — it must travel through the slicer.
    deadline: Option<Instant>,
    /// Clock-free cancellation trigger: each slicer call gets this many
    /// checkpoint visits before the next one fires [`crate::cancel::CANCELLED`].
    /// Travels to the workers exactly like the deadline. Fault-injection
    /// machinery uses it to blow a "deadline" on a reproducible checkpoint.
    checkpoint_fuel: Option<u64>,
}

impl<'a, 'p> BatchSlicer<'a, 'p> {
    /// A batch slicer over `analysis` using the machine's available
    /// parallelism (at least one thread).
    pub fn new(analysis: &'a Analysis<'p>) -> BatchSlicer<'a, 'p> {
        BatchSlicer {
            analysis,
            threads: None,
            deadline: None,
            checkpoint_fuel: None,
        }
    }

    /// Overrides the worker-thread count (`0` is clamped to `1`). One
    /// thread means a plain sequential loop on the caller's thread — the
    /// baseline the benches compare against.
    pub fn with_threads(self, threads: usize) -> BatchSlicer<'a, 'p> {
        BatchSlicer {
            threads: Some(threads.max(1)),
            ..self
        }
    }

    /// Installs a cooperative deadline: every worker checks it at the
    /// slicers' fixpoint checkpoints and before each criterion, and a blown
    /// deadline surfaces as a [`BatchPanic`] whose message satisfies
    /// [`crate::cancel::is_cancelled`] (use
    /// [`try_slice_all`](BatchSlicer::try_slice_all) to catch it).
    pub fn with_deadline(self, deadline: Option<Instant>) -> BatchSlicer<'a, 'p> {
        BatchSlicer { deadline, ..self }
    }

    /// Installs a per-criterion checkpoint budget (see
    /// [`crate::cancel::fuel`]): any criterion whose slicer visits more
    /// than `fuel` checkpoints is cancelled, deterministically, machine
    /// speed notwithstanding. Surfaces exactly like a blown deadline — a
    /// [`BatchPanic`] classified by [`crate::cancel::is_cancelled`].
    pub fn with_checkpoint_fuel(self, fuel: Option<u64>) -> BatchSlicer<'a, 'p> {
        BatchSlicer {
            checkpoint_fuel: fuel,
            ..self
        }
    }

    /// The shared analysis.
    pub fn analysis(&self) -> &'a Analysis<'p> {
        self.analysis
    }

    /// Slices every criterion with `algo`; `slices[i]` corresponds to
    /// `criteria[i]`. Identical to mapping `algo` sequentially, modulo
    /// wall-clock time.
    ///
    /// # Panics
    ///
    /// Re-raises any panic from `algo`, prefixed with the offending
    /// criterion (see [`try_slice_all`](BatchSlicer::try_slice_all) for the
    /// non-panicking form).
    pub fn slice_all(&self, algo: SliceFn, criteria: &[Criterion]) -> Vec<Slice> {
        self.try_slice_all(algo, criteria)
            .unwrap_or_else(|p| panic!("{p}"))
    }

    /// Like [`slice_all`](BatchSlicer::slice_all), but a panicking slicer
    /// produces an attributed [`BatchPanic`] instead of tearing down the
    /// scoped thread pool with an anonymous worker panic. When several
    /// criteria panic in one batch, the one with the lowest index is
    /// reported; the remaining workers drain the queue normally.
    pub fn try_slice_all(
        &self,
        algo: SliceFn,
        criteria: &[Criterion],
    ) -> Result<Vec<Slice>, BatchPanic> {
        self.try_slice_all_stats(algo, criteria).map(|(s, _)| s)
    }

    /// [`slice_all`](BatchSlicer::slice_all) returning a per-run
    /// [`BatchRunStats`] snapshot alongside the slices.
    pub fn slice_all_stats(
        &self,
        algo: SliceFn,
        criteria: &[Criterion],
    ) -> (Vec<Slice>, BatchRunStats) {
        self.try_slice_all_stats(algo, criteria)
            .unwrap_or_else(|p| panic!("{p}"))
    }

    /// [`try_slice_all`](BatchSlicer::try_slice_all) returning a per-run
    /// [`BatchRunStats`] snapshot alongside the slices — the single
    /// implementation every other entry point delegates to.
    pub fn try_slice_all_stats(
        &self,
        algo: SliceFn,
        criteria: &[Criterion],
    ) -> Result<(Vec<Slice>, BatchRunStats), BatchPanic> {
        let a = self.analysis;
        let n = criteria.len();
        let available = || std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        let threads = self.threads.unwrap_or_else(available).min(n).max(1);
        let _run = obs::phase(obs::Phase::BatchRun);
        let run_start = Instant::now();

        let deadline = self.deadline;
        let checkpoint_fuel = self.checkpoint_fuel;
        let slice_one = |i: usize| -> Result<Slice, BatchPanic> {
            catch_unwind(AssertUnwindSafe(|| {
                // Install the run's deadline and fuel on whichever thread
                // executes this criterion; the guards drop (restoring
                // nothing) even when the checkpoint's panic unwinds past
                // them.
                let _g = deadline.map(crate::cancel::deadline);
                let _f = checkpoint_fuel.map(crate::cancel::fuel);
                crate::cancel::checkpoint();
                algo(a, &criteria[i])
            }))
            .map_err(|payload| BatchPanic {
                index: i,
                criterion: criteria[i].clone(),
                message: panic_message(payload),
            })
        };

        if threads <= 1 {
            let mut busy_ns = 0u64;
            let mut out = Vec::with_capacity(n);
            for i in 0..n {
                let t0 = Instant::now();
                let r = slice_one(i);
                busy_ns += t0.elapsed().as_nanos() as u64;
                out.push(r?);
            }
            let stats = self.finish_stats(n, 1, run_start, busy_ns, vec![n]);
            return Ok((out, stats));
        }
        // Force every lazy artifact up front so workers never race to
        // initialize one (OnceLock would serialize them on first touch).
        a.warm();

        let next = AtomicUsize::new(0);
        let worker = || {
            let mut local: Vec<(usize, Result<Slice, BatchPanic>)> = Vec::new();
            let mut busy_ns = 0u64;
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let t0 = Instant::now();
                let r = slice_one(i);
                busy_ns += t0.elapsed().as_nanos() as u64;
                local.push((i, r));
            }
            (local, busy_ns)
        };
        type WorkerOut = (Vec<(usize, Result<Slice, BatchPanic>)>, u64);
        let finished: Vec<WorkerOut> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("batch worker itself never panics"))
                .collect()
        });

        let mut out: Vec<Option<Slice>> = std::iter::repeat_with(|| None).take(n).collect();
        let mut first_panic: Option<BatchPanic> = None;
        let mut busy_ns = 0u64;
        let mut per_worker_slices = Vec::with_capacity(threads);
        for (local, worker_busy) in finished {
            busy_ns += worker_busy;
            per_worker_slices.push(local.len());
            for (i, result) in local {
                match result {
                    Ok(slice) => out[i] = Some(slice),
                    Err(p) => {
                        if first_panic.as_ref().is_none_or(|q| p.index < q.index) {
                            first_panic = Some(p);
                        }
                    }
                }
            }
        }
        if let Some(p) = first_panic {
            return Err(p);
        }
        let stats = self.finish_stats(n, threads, run_start, busy_ns, per_worker_slices);
        Ok((
            out.into_iter()
                .map(|s| s.expect("every criterion sliced exactly once"))
                .collect(),
            stats,
        ))
    }

    /// Assembles the per-run snapshot and mirrors it onto the caller's
    /// trace sink as `batch.*` counter events.
    fn finish_stats(
        &self,
        criteria: usize,
        threads: usize,
        run_start: Instant,
        busy_ns: u64,
        per_worker_slices: Vec<usize>,
    ) -> BatchRunStats {
        let wall_ns = run_start.elapsed().as_nanos() as u64;
        let stats = BatchRunStats {
            criteria,
            threads,
            wall_ns,
            busy_ns,
            queue_wait_ns: wall_ns
                .saturating_mul(threads as u64)
                .saturating_sub(busy_ns),
            per_worker_slices,
        };
        obs::record(|| obs::Event::Count {
            name: "batch.criteria",
            value: stats.criteria as u64,
        });
        obs::record(|| obs::Event::Count {
            name: "batch.threads",
            value: stats.threads as u64,
        });
        obs::record(|| obs::Event::Count {
            name: "batch.wall_ns",
            value: stats.wall_ns,
        });
        obs::record(|| obs::Event::Count {
            name: "batch.busy_ns",
            value: stats.busy_ns,
        });
        obs::record(|| obs::Event::Count {
            name: "batch.queue_wait_ns",
            value: stats.queue_wait_ns,
        });
        stats
    }

    /// Slices at every reachable `write` statement — the criterion family
    /// the paper's experiments (and this workspace's benches) sweep.
    /// Returns `(write_stmt, slice)` pairs in lexical order.
    pub fn slice_all_writes(&self, algo: SliceFn) -> Vec<(StmtId, Slice)> {
        let p = self.analysis.prog();
        let writes: Vec<StmtId> = p
            .stmt_ids()
            .filter(|&s| {
                matches!(p.stmt(s).kind, StmtKind::Write { .. }) && self.analysis.is_live(s)
            })
            .collect();
        let criteria: Vec<Criterion> = writes.iter().copied().map(Criterion::at_stmt).collect();
        let slices = self.slice_all(algo, &criteria);
        writes.into_iter().zip(slices).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{agrawal_slice, conventional_slice, corpus};

    #[test]
    fn batch_matches_sequential() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let sequential: Vec<Slice> = criteria.iter().map(|c| agrawal_slice(&a, c)).collect();
        let batch = BatchSlicer::new(&a)
            .with_threads(4)
            .slice_all(agrawal_slice, &criteria);
        assert_eq!(batch, sequential);
    }

    #[test]
    fn one_thread_is_the_sequential_loop() {
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let one = BatchSlicer::new(&a)
            .with_threads(1)
            .slice_all(conventional_slice, &criteria);
        let many = BatchSlicer::new(&a)
            .with_threads(8)
            .slice_all(conventional_slice, &criteria);
        assert_eq!(one, many);
    }

    #[test]
    fn threaded_batch_builds_the_chain_index_exactly_once() {
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let _ = BatchSlicer::new(&a)
            .with_threads(4)
            .slice_all(agrawal_slice, &criteria);
        let _ = BatchSlicer::new(&a)
            .with_threads(4)
            .slice_all(agrawal_slice, &criteria);
        // Every worker of both runs probed the one shared index that
        // `warm()` forced up front.
        assert_eq!(a.stats().chain_index_builds, 1);
    }

    /// Threads change nothing but wall time: on a goto-dense program, one
    /// and two workers give identical slices and build the same artifacts.
    /// Workers' trace sinks are empty, so the per-slice phases show only in
    /// the one-thread run; every other phase must match.
    #[test]
    fn one_and_two_threads_slice_and_time_alike() {
        let p = jumpslice_progen::gen_unstructured(
            &jumpslice_progen::GenConfig::sized(3, 80).with_jump_density(0.4),
        );
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let run = |threads: usize| {
            let a = Analysis::new(&p);
            let (slices, events) = obs::capture(|| {
                BatchSlicer::new(&a)
                    .with_threads(threads)
                    .slice_all(agrawal_slice, &criteria)
            });
            let per_slice = ["conventional_closure", "fixpoint_round", "label_reassoc"];
            let phases: Vec<&str> = obs::Metrics::of(&events)
                .phase_ns
                .into_keys()
                .filter(|p| !per_slice.contains(p))
                .collect();
            (slices, phases)
        };
        let (one, one_phases) = run(1);
        let (two, two_phases) = run(2);
        assert_eq!(one, two);
        assert_eq!(one_phases, two_phases);
        assert!(one.iter().any(|s| s.traversals > 0), "jumps were admitted");
    }

    #[test]
    fn empty_batch_is_empty() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        assert!(BatchSlicer::new(&a)
            .slice_all(agrawal_slice, &[])
            .is_empty());
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let (slices, stats) = BatchSlicer::new(&a)
            .with_threads(0)
            .slice_all_stats(agrawal_slice, &criteria);
        assert_eq!(stats.threads, 1, "with_threads(0) clamps to 1");
        assert_eq!(slices.len(), criteria.len());
    }

    #[test]
    fn more_threads_than_criteria_clamps_to_batch_size() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).take(3).collect();
        let (slices, stats) = BatchSlicer::new(&a)
            .with_threads(criteria.len() + 13)
            .slice_all_stats(agrawal_slice, &criteria);
        assert_eq!(stats.threads, criteria.len());
        assert_eq!(stats.per_worker_slices.len(), criteria.len());
        let sequential: Vec<Slice> = criteria.iter().map(|c| agrawal_slice(&a, c)).collect();
        assert_eq!(slices, sequential);
    }

    #[test]
    fn expired_deadline_surfaces_as_a_classified_cancel() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        for threads in [1, 4] {
            let err = BatchSlicer::new(&a)
                .with_threads(threads)
                .with_deadline(Some(std::time::Instant::now()))
                .try_slice_all(agrawal_slice, &criteria)
                .unwrap_err();
            assert!(
                crate::cancel::is_cancelled(&err.message),
                "expired deadline classifies as cancellation, got: {}",
                err.message
            );
            assert_eq!(err.index, 0, "the first criterion already trips it");
        }
        // The workers' thread-local deadlines died with the scoped threads
        // (and the sequential path's guard dropped): a fresh run completes.
        let again = BatchSlicer::new(&a)
            .try_slice_all(agrawal_slice, &criteria)
            .unwrap();
        assert_eq!(again.len(), criteria.len());
    }

    #[test]
    fn exhausted_fuel_surfaces_as_a_classified_cancel() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        for threads in [1, 4] {
            let err = BatchSlicer::new(&a)
                .with_threads(threads)
                .with_checkpoint_fuel(Some(0))
                .try_slice_all(agrawal_slice, &criteria)
                .unwrap_err();
            assert!(
                crate::cancel::is_cancelled(&err.message),
                "fuel exhaustion classifies as cancellation, got: {}",
                err.message
            );
            assert_eq!(err.index, 0, "zero fuel trips on the first criterion");
        }
        // Fuel guards died with their slicer calls: a fresh run completes.
        let again = BatchSlicer::new(&a)
            .try_slice_all(agrawal_slice, &criteria)
            .unwrap();
        assert_eq!(again.len(), criteria.len());
    }

    #[test]
    fn generous_fuel_changes_nothing() {
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let fueled = BatchSlicer::new(&a)
            .with_threads(4)
            .with_checkpoint_fuel(Some(u64::MAX))
            .slice_all(agrawal_slice, &criteria);
        let plain = BatchSlicer::new(&a).slice_all(agrawal_slice, &criteria);
        assert_eq!(fueled, plain);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let far = std::time::Instant::now() + std::time::Duration::from_secs(3600);
        let timed = BatchSlicer::new(&a)
            .with_threads(4)
            .with_deadline(Some(far))
            .slice_all(agrawal_slice, &criteria);
        let plain = BatchSlicer::new(&a).slice_all(agrawal_slice, &criteria);
        assert_eq!(timed, plain);
    }

    #[test]
    fn write_sweep_hits_every_live_write() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let pairs = BatchSlicer::new(&a).slice_all_writes(agrawal_slice);
        assert!(!pairs.is_empty());
        for (w, s) in &pairs {
            assert!(s.contains(*w), "slice at a write contains the write");
        }
    }

    #[test]
    fn panicking_slicer_is_attributed_to_its_criterion() {
        fn bomb(a: &Analysis<'_>, c: &Criterion) -> Slice {
            if c.stmt.index() == 2 {
                panic!("boom at {:?}", c.stmt);
            }
            agrawal_slice(a, c)
        }
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        for threads in [1, 4] {
            let err = BatchSlicer::new(&a)
                .with_threads(threads)
                .try_slice_all(bomb, &criteria)
                .unwrap_err();
            assert_eq!(err.index, 2, "lowest panicking index wins");
            assert_eq!(err.criterion, criteria[2]);
            assert!(err.message.contains("boom"), "{}", err.message);
            assert!(err.to_string().contains("criterion #2"), "{err}");
        }
    }

    #[test]
    fn try_slice_all_matches_slice_all_when_nothing_panics() {
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let ok = BatchSlicer::new(&a)
            .with_threads(4)
            .try_slice_all(agrawal_slice, &criteria)
            .unwrap();
        let plain = BatchSlicer::new(&a).slice_all(agrawal_slice, &criteria);
        assert_eq!(ok, plain);
    }

    #[test]
    fn stats_are_per_run_snapshots() {
        // Regression pin: stats must not accumulate across `slice_all`
        // calls on a reused (already-warm) analysis — each run reports only
        // its own criteria and timings.
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let batch = BatchSlicer::new(&a).with_threads(2);
        let all: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let (_, first) = batch.slice_all_stats(agrawal_slice, &all);
        assert_eq!(first.criteria, all.len());
        let (_, second) = batch.slice_all_stats(agrawal_slice, &all[..3]);
        assert_eq!(second.criteria, 3, "second run counts only its own work");
        assert_eq!(second.per_worker_slices.iter().sum::<usize>(), 3);
        assert!(second.wall_ns > 0);
        assert!(
            second.busy_ns <= second.wall_ns.saturating_mul(second.threads as u64),
            "busy time bounded by thread-time"
        );
        assert!(second.utilization() <= 1.0);
        let (_, empty) = batch.slice_all_stats(agrawal_slice, &[]);
        assert_eq!(empty.criteria, 0);
        assert_eq!(empty.per_worker_slices, vec![0]);
    }

    #[test]
    fn stats_thread_clamping() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let all: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let (_, seq) = BatchSlicer::new(&a)
            .with_threads(1)
            .slice_all_stats(agrawal_slice, &all);
        assert_eq!(seq.threads, 1);
        assert_eq!(seq.per_worker_slices, vec![all.len()]);
        let (_, wide) = BatchSlicer::new(&a)
            .with_threads(64)
            .slice_all_stats(agrawal_slice, &all[..2]);
        assert_eq!(wide.threads, 2, "threads clamp to the batch size");
    }

    #[test]
    fn batch_shares_one_analysis() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let criteria: Vec<Criterion> = p.stmt_ids().map(Criterion::at_stmt).collect();
        let _ = BatchSlicer::new(&a)
            .with_threads(4)
            .slice_all(agrawal_slice, &criteria);
        let stats = a.stats();
        assert_eq!(
            stats.reaching_defs, 1,
            "one ReachingDefs for the whole batch"
        );
        assert_eq!(stats.pdg_builds, 1, "one PDG for the whole batch");
    }
}
