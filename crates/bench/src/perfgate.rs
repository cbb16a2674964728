//! The CI perf-regression gate: compares a freshly measured
//! `BENCH_slicing.json` against the committed baseline and fails on
//! wall-clock regressions beyond a tolerance band.
//!
//! The `batch_sweeps`, `incr_sweeps`, `sparse_sweeps`, `serve_sweeps`,
//! `store_sweeps`, `cold_analysis_sweeps`, and `closure_sweeps` sections
//! are compared —
//! single-slice latencies at figure scale are nanosecond-noisy, while the
//! sweeps integrate enough work (a full criterion pool per measurement) to
//! be stable across runs on the same machine. Rows are matched by
//! `(family, stmts)` plus the edit shape for incremental rows; a row
//! present in the baseline but missing from the current run is reported
//! rather than silently skipped. A baseline predating the `incr_sweeps`
//! schema simply skips that section. A run that compares nothing fails:
//! a gate that checked nothing is not a pass.

use jumpslice_obs::Json;

/// Metrics compared per batch-sweep row. `sequential_per_criterion_analysis`
/// is deliberately absent: it measures the *naive* strategy the batch engine
/// exists to beat, so regressing it is not a product regression.
const GATED_METRICS: &[&str] = &[
    "batch_shared_analysis_sequential_ns",
    "batch_shared_analysis_threads_ns",
];

/// Metrics compared per incremental-sweep row. `scratch_reanalysis_ns` is
/// the naive strategy the edit session exists to beat, so it is not gated.
const INCR_GATED_METRICS: &[&str] = &["incremental_ns"];

/// Metrics compared per sparse-sweep row. `dense_reference_ns` measures the
/// dense loop of `jumpslice_difftest::oracle`, which is not a product path,
/// so it is not gated.
const SPARSE_GATED_METRICS: &[&str] = &["sparse_kernel_ns"];

/// Metrics compared per serve-sweep row (in-process daemon throughput).
const SERVE_GATED_METRICS: &[&str] = &["serve_ns_per_request"];

/// Metrics compared per store-sweep row. `cold_start_ns` measures the
/// from-source build the snapshot store exists to beat, so it is not
/// gated — only the restore path is a product promise.
const STORE_GATED_METRICS: &[&str] = &["snapshot_restore_ns"];

/// Metrics compared per cold-analysis-sweep row: one `warm()` of a fresh
/// analysis, the PDG's condensation included — the cold build every
/// daemon load and batch pays.
const COLD_GATED_METRICS: &[&str] = &["cold_warm_sequential_ns"];

/// Metrics compared per closure-microsweep row. `direct_closure_ns` and
/// `direct_forward_ns` time the difftest oracle's direct walks over raw
/// PDG edges, which are not product paths, so only the product's
/// condensed walks count. Of those, `forward_closure_ns` is recorded but
/// not gated: forward closures serve only chops and forward slices, and
/// it joins the gate when the gate compares two builds on one host.
const CLOSURE_GATED_METRICS: &[&str] = &["condensed_closure_ns"];

/// Gated metrics whose wall-clock depends on a worker-thread count, each
/// with the row key recording the count it ran with. Wall-clocks measured
/// with different counts answer different questions (e.g. a 1-thread
/// baseline machine vs a 4-thread current one), so such a metric is
/// skipped with a logged reason when the counts differ, while the rest of
/// its row still compares. Every other gated metric is single-threaded.
const THREAD_BOUND_METRICS: &[(&str, &str)] =
    &[("batch_shared_analysis_threads_ns", "batch_threads_used")];

/// One comparable section of `BENCH_slicing.json`.
struct Section {
    name: &'static str,
    metrics: &'static [&'static str],
    /// Required sections fail the gate when absent; optional ones are
    /// skipped (older baseline schema).
    required: bool,
}

const SECTIONS: &[Section] = &[
    Section {
        name: "batch_sweeps",
        metrics: GATED_METRICS,
        required: true,
    },
    Section {
        name: "incr_sweeps",
        metrics: INCR_GATED_METRICS,
        required: false,
    },
    Section {
        name: "sparse_sweeps",
        metrics: SPARSE_GATED_METRICS,
        required: false,
    },
    Section {
        name: "serve_sweeps",
        metrics: SERVE_GATED_METRICS,
        required: false,
    },
    Section {
        name: "store_sweeps",
        metrics: STORE_GATED_METRICS,
        required: false,
    },
    Section {
        name: "cold_analysis_sweeps",
        metrics: COLD_GATED_METRICS,
        required: false,
    },
    Section {
        name: "closure_sweeps",
        metrics: CLOSURE_GATED_METRICS,
        required: false,
    },
];

/// One gated metric that regressed beyond the tolerance band.
#[derive(Clone, Debug, PartialEq)]
pub struct Regression {
    /// Corpus family of the offending row (`structured`/`unstructured`).
    pub family: String,
    /// Program size of the offending row.
    pub stmts: u64,
    /// The regressed metric name.
    pub metric: &'static str,
    /// Baseline nanoseconds.
    pub baseline_ns: f64,
    /// Currently measured nanoseconds.
    pub current_ns: f64,
}

impl Regression {
    /// `current / baseline` slowdown factor.
    pub fn ratio(&self) -> f64 {
        self.current_ns / self.baseline_ns
    }
}

/// Outcome of one gate run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct GateReport {
    /// Metric comparisons performed.
    pub compared: usize,
    /// Comparisons beyond the tolerance band, worst first.
    pub regressions: Vec<Regression>,
    /// Baseline rows with no matching `(family, stmts)` row in the current
    /// measurement.
    pub missing: Vec<String>,
    /// Metrics skipped as incomparable (the two measurements ran with
    /// different worker-thread counts), with the reason — surfaced in the
    /// gate's output, not silently dropped.
    pub skipped: Vec<String>,
}

impl GateReport {
    /// Whether the gate passes: at least one comparison, no regressions,
    /// and full row coverage.
    pub fn passes(&self) -> bool {
        self.compared > 0 && self.regressions.is_empty() && self.missing.is_empty()
    }
}

fn sweep_rows<'a>(doc: &'a Json, section: &Section) -> Result<Option<Vec<&'a Json>>, String> {
    match doc.get(section.name).map(|v| v.as_arr()) {
        Some(Some(rows)) => Ok(Some(rows.iter().collect())),
        Some(None) => Err(format!("`{}` is not an array", section.name)),
        None if section.required => Err(format!("document has no `{}` array", section.name)),
        None => Ok(None),
    }
}

/// A row's identity: `family`, `stmts`, and — for incremental rows — the
/// edit shape, folded into the family string.
fn row_key(row: &Json) -> Result<(String, u64), String> {
    let family = row
        .get("family")
        .and_then(Json::as_str)
        .ok_or("sweep row missing `family`")?;
    let stmts = row
        .get("stmts")
        .and_then(Json::as_num)
        .ok_or("sweep row missing `stmts`")?;
    let family = match row.get("edit").and_then(Json::as_str) {
        Some(edit) => format!("{family}/{edit}"),
        None => family.to_owned(),
    };
    Ok((family, stmts as u64))
}

/// Compares `current` against `baseline`: every gated metric of every
/// baseline sweep row (batch and incremental) must satisfy
/// `current ≤ baseline × (1 + tolerance)`.
pub fn compare(baseline: &Json, current: &Json, tolerance: f64) -> Result<GateReport, String> {
    let mut report = GateReport::default();
    for section in SECTIONS {
        let Some(base_rows) = sweep_rows(baseline, section)? else {
            continue; // baseline predates this section
        };
        let cur_rows = sweep_rows(current, section)?.unwrap_or_default();
        for base in base_rows {
            let key = row_key(base)?;
            let Some(cur) = cur_rows
                .iter()
                .find(|r| row_key(r).as_ref() == Ok(&key))
                .copied()
            else {
                report.missing.push(format!("{}-{}", key.0, key.1));
                continue;
            };
            for &metric in section.metrics {
                let (Some(b), Some(c)) = (
                    base.get(metric).and_then(Json::as_num),
                    cur.get(metric).and_then(Json::as_num),
                ) else {
                    // A metric absent on either side (e.g. an older baseline
                    // schema) is not comparable; skip rather than fail
                    // spuriously.
                    continue;
                };
                if let Some((tk, bt, ct)) = THREAD_BOUND_METRICS
                    .iter()
                    .find(|&&(m, _)| m == metric)
                    .and_then(|&(_, tk)| {
                        let bt = base.get(tk).and_then(Json::as_num)?;
                        let ct = cur.get(tk).and_then(Json::as_num)?;
                        (bt != ct).then_some((tk, bt, ct))
                    })
                {
                    report.skipped.push(format!(
                        "{}-{} {metric}: {tk} differs (baseline {}, current {}) — wall-clocks not comparable",
                        key.0, key.1, bt as u64, ct as u64
                    ));
                    continue;
                }
                report.compared += 1;
                if b > 0.0 && c > b * (1.0 + tolerance) {
                    report.regressions.push(Regression {
                        family: key.0.clone(),
                        stmts: key.1,
                        metric,
                        baseline_ns: b,
                        current_ns: c,
                    });
                }
            }
        }
    }
    report
        .regressions
        .sort_by(|x, y| y.ratio().total_cmp(&x.ratio()));
    Ok(report)
}

/// Multiplies every gated metric in `doc` by `factor` in place — the
/// self-test hook `perf_gate --inject-slowdown` uses to prove the gate
/// actually trips.
pub fn inject_slowdown(doc: &mut Json, factor: f64) {
    let Json::Obj(fields) = doc else { return };
    for section in SECTIONS {
        let Some((_, Json::Arr(rows))) = fields.iter_mut().find(|(k, _)| k == section.name) else {
            continue;
        };
        for row in rows {
            let Json::Obj(cells) = row else { continue };
            for (k, v) in cells {
                if section.metrics.contains(&k.as_str()) {
                    if let Json::Num(n) = v {
                        *n *= factor;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc(seq: f64, thr: f64) -> Json {
        Json::parse(&format!(
            r#"{{"batch_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "batch_shared_analysis_sequential_ns": {seq},
                  "batch_shared_analysis_threads_ns": {thr}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn identical_measurements_pass() {
        let base = doc(1e6, 5e5);
        let report = compare(&base, &base, 0.25).unwrap();
        assert!(report.passes());
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn within_tolerance_passes() {
        let report = compare(&doc(1e6, 5e5), &doc(1.2e6, 6e5), 0.25).unwrap();
        assert!(report.passes(), "{report:?}");
    }

    #[test]
    fn two_x_slowdown_fails() {
        let report = compare(&doc(1e6, 5e5), &doc(2e6, 1e6), 0.25).unwrap();
        assert_eq!(report.regressions.len(), 2);
        assert!(!report.passes());
        assert!((report.regressions[0].ratio() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn injected_slowdown_trips_the_gate() {
        let base = doc(1e6, 5e5);
        let mut cur = base.clone();
        inject_slowdown(&mut cur, 2.0);
        let report = compare(&base, &cur, 0.25).unwrap();
        assert!(!report.passes(), "2x injection must trip the gate");
        // And the untouched metrics still match the baseline document.
        assert!(compare(&base, &base, 0.25).unwrap().passes());
    }

    #[test]
    fn missing_row_is_reported() {
        let base = doc(1e6, 5e5);
        let empty = Json::parse(r#"{"batch_sweeps": []}"#).unwrap();
        let report = compare(&base, &empty, 0.25).unwrap();
        assert_eq!(report.missing, vec!["structured-954".to_owned()]);
        assert!(!report.passes());
    }

    #[test]
    fn speedups_never_fail() {
        let report = compare(&doc(1e6, 5e5), &doc(1e5, 5e4), 0.25).unwrap();
        assert!(report.passes());
    }

    fn doc_with_incr(incr: f64) -> Json {
        Json::parse(&format!(
            r#"{{"batch_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "batch_shared_analysis_sequential_ns": 1e6,
                  "batch_shared_analysis_threads_ns": 5e5}}
            ],
            "incr_sweeps": [
                {{"family": "structured", "stmts": 954, "edit": "replace-expr",
                  "scratch_reanalysis_ns": 1e6,
                  "incremental_ns": {incr}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn incr_rows_are_gated() {
        let base = doc_with_incr(1e5);
        let report = compare(&base, &base, 0.25).unwrap();
        assert!(report.passes());
        assert_eq!(report.compared, 3, "two batch metrics + one incr metric");

        let slow = compare(&base, &doc_with_incr(3e5), 0.25).unwrap();
        assert_eq!(slow.regressions.len(), 1);
        assert_eq!(slow.regressions[0].metric, "incremental_ns");
        assert_eq!(slow.regressions[0].family, "structured/replace-expr");
    }

    #[test]
    fn baseline_without_incr_section_skips_it() {
        // An old baseline gates only the batch section, even when the
        // current measurement carries incr rows.
        let report = compare(&doc(1e6, 5e5), &doc_with_incr(1e5), 0.25).unwrap();
        assert!(report.passes(), "{report:?}");
        assert_eq!(report.compared, 2);
    }

    #[test]
    fn missing_incr_row_is_reported() {
        let report = compare(&doc_with_incr(1e5), &doc(1e6, 5e5), 0.25).unwrap();
        assert!(!report.passes());
        assert_eq!(
            report.missing,
            vec!["structured/replace-expr-954".to_owned()]
        );
    }

    fn doc_with_sparse(sparse: f64) -> Json {
        Json::parse(&format!(
            r#"{{"batch_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "batch_shared_analysis_sequential_ns": 1e6}}
            ],
            "sparse_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "dense_reference_ns": 1e6,
                  "sparse_kernel_ns": {sparse}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn sparse_rows_are_gated_and_dense_reference_is_not() {
        let base = doc_with_sparse(1e5);
        let report = compare(&base, &base, 0.25).unwrap();
        assert!(report.passes());
        assert_eq!(report.compared, 2, "one batch metric + one sparse metric");

        let slow = compare(&base, &doc_with_sparse(3e5), 0.25).unwrap();
        assert_eq!(slow.regressions.len(), 1);
        assert_eq!(slow.regressions[0].metric, "sparse_kernel_ns");
        assert_eq!(slow.regressions[0].family, "structured");
    }

    #[test]
    fn baseline_without_sparse_section_skips_it() {
        let report = compare(&doc(1e6, 5e5), &doc_with_sparse(1e5), 0.25).unwrap();
        assert!(report.passes(), "{report:?}");
        // The sequential batch metric compares; the threads metric is absent
        // from the sparse doc's batch row and the sparse section has no
        // baseline counterpart, so neither contributes.
        assert_eq!(report.compared, 1);
    }

    /// A batch row as a single-core `bench_json` run writes it: no
    /// `batch_shared_analysis_threads_ns` key at all.
    fn doc_single_core(seq: f64) -> Json {
        Json::parse(&format!(
            r#"{{"batch_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "batch_threads_used": 1,
                  "batch_shared_analysis_sequential_ns": {seq}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn absent_threads_metric_is_tolerated_on_either_side() {
        // A single-core run omits `batch_shared_analysis_threads_ns`; the
        // gate compares the remaining metrics instead of failing.
        let multicore = doc(1e6, 5e5);
        let singlecore = doc_single_core(1e6);
        let report = compare(&multicore, &singlecore, 0.25).unwrap();
        assert!(report.passes(), "{report:?}");
        assert_eq!(report.compared, 1, "only the sequential metric matches up");
        let report = compare(&singlecore, &multicore, 0.25).unwrap();
        assert!(report.passes(), "{report:?}");
        assert_eq!(report.compared, 1);
    }

    /// A batch row stamped with the thread count it actually used.
    fn doc_threads_used(threads: u64, seq: f64, thr: f64) -> Json {
        Json::parse(&format!(
            r#"{{"batch_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "batch_threads_used": {threads},
                  "batch_shared_analysis_sequential_ns": {seq},
                  "batch_shared_analysis_threads_ns": {thr}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn mismatched_threads_used_skips_only_the_threaded_metric() {
        // Baseline from a 4-thread machine, current from a 1-thread one: a
        // 3x "slowdown" in the threaded metric is expected, not a
        // regression — and a 3x speedup must not mask one either. The
        // sequential metric of the same row still compares.
        let base = doc_threads_used(4, 1e6, 3e5);
        let cur = doc_threads_used(1, 1e6, 9e5);
        let report = compare(&base, &cur, 0.25).unwrap();
        assert!(report.passes(), "{report:?}");
        assert_eq!(report.compared, 1, "the sequential metric compares");
        assert_eq!(report.skipped.len(), 1);
        assert!(
            report.skipped[0]
                .contains("batch_shared_analysis_threads_ns: batch_threads_used differs"),
            "{:?}",
            report.skipped
        );
        let slow = compare(&base, &doc_threads_used(1, 3e6, 9e5), 0.25).unwrap();
        assert!(!slow.passes(), "the sequential metric still gates");
    }

    #[test]
    fn a_report_that_compared_nothing_fails() {
        // Every comparable metric skipped...
        let only_threads = |threads: u64| {
            Json::parse(&format!(
                r#"{{"batch_sweeps": [
                    {{"family": "structured", "stmts": 954,
                      "batch_threads_used": {threads},
                      "batch_shared_analysis_threads_ns": 3e5}}
                ]}}"#
            ))
            .unwrap()
        };
        let report = compare(&only_threads(4), &only_threads(1), 0.25).unwrap();
        assert_eq!((report.compared, report.skipped.len()), (0, 1));
        assert!(!report.passes(), "an all-skipped run checked nothing");
        // ...or nothing to compare at all.
        let empty = Json::parse(r#"{"batch_sweeps": []}"#).unwrap();
        let report = compare(&empty, &empty, 0.25).unwrap();
        assert_eq!(report.compared, 0);
        assert!(!report.passes());
    }

    #[test]
    fn matching_threads_used_still_compares() {
        let base = doc_threads_used(2, 1e6, 5e5);
        let report = compare(&base, &base, 0.25).unwrap();
        assert!(report.passes());
        assert_eq!(report.compared, 2);
        assert!(report.skipped.is_empty());
        let slow = compare(&base, &doc_threads_used(2, 3e6, 5e5), 0.25).unwrap();
        assert!(!slow.passes(), "same thread count still gates");
    }

    #[test]
    fn serve_rows_are_gated() {
        let doc_serve = |ns: f64| {
            Json::parse(&format!(
                r#"{{"batch_sweeps": [],
                "serve_sweeps": [
                    {{"family": "mixed", "stmts": 120, "serve_ns_per_request": {ns}}}
                ]}}"#
            ))
            .unwrap()
        };
        let base = doc_serve(1e5);
        let report = compare(&base, &base, 0.25).unwrap();
        assert!(report.passes());
        assert_eq!(report.compared, 1);
        let slow = compare(&base, &doc_serve(5e5), 0.25).unwrap();
        assert_eq!(slow.regressions.len(), 1);
        assert_eq!(slow.regressions[0].metric, "serve_ns_per_request");
    }

    fn doc_with_store(restore: f64) -> Json {
        Json::parse(&format!(
            r#"{{"batch_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "batch_shared_analysis_sequential_ns": 1e6}}
            ],
            "store_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "cold_start_ns": 1e6,
                  "snapshot_restore_ns": {restore}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn store_restore_is_gated_and_cold_start_is_not() {
        let base = doc_with_store(1e5);
        let report = compare(&base, &base, 0.25).unwrap();
        assert!(report.passes());
        assert_eq!(report.compared, 2, "one batch metric + one store metric");

        // A slower cold start alone never trips the gate...
        let mut slow_cold = base.clone();
        if let Json::Obj(fields) = &mut slow_cold {
            let rows = fields
                .iter_mut()
                .find(|(k, _)| k == "store_sweeps")
                .and_then(|(_, v)| match v {
                    Json::Arr(rows) => Some(rows),
                    _ => None,
                })
                .unwrap();
            if let Json::Obj(cells) = &mut rows[0] {
                for (k, v) in cells {
                    if k == "cold_start_ns" {
                        *v = Json::Num(9e6);
                    }
                }
            }
        }
        assert!(compare(&base, &slow_cold, 0.25).unwrap().passes());

        // ...but a slower restore does.
        let slow = compare(&base, &doc_with_store(3e5), 0.25).unwrap();
        assert_eq!(slow.regressions.len(), 1);
        assert_eq!(slow.regressions[0].metric, "snapshot_restore_ns");
    }

    #[test]
    fn baseline_without_store_section_skips_it() {
        let report = compare(&doc(1e6, 5e5), &doc_with_store(1e5), 0.25).unwrap();
        assert!(report.passes(), "{report:?}");
        assert_eq!(report.compared, 1);
    }

    fn doc_with_cold(seq: f64) -> Json {
        Json::parse(&format!(
            r#"{{"batch_sweeps": [],
            "cold_analysis_sweeps": [
                {{"family": "unstructured", "stmts": 4821,
                  "available_parallelism": 2,
                  "cold_warm_sequential_ns": {seq}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn cold_analysis_rows_are_gated() {
        let base = doc_with_cold(1e7);
        let report = compare(&base, &base, 0.25).unwrap();
        assert!(report.passes());
        assert_eq!(report.compared, 1);

        let slow = compare(&base, &doc_with_cold(1.3e7), 0.25).unwrap();
        assert_eq!(slow.regressions.len(), 1);
        assert_eq!(slow.regressions[0].metric, "cold_warm_sequential_ns");
    }

    /// Rows as `bench_json` writes them on a 1-core and on a 2-core host:
    /// every row stamps its host's `available_parallelism`, and only the
    /// 2-core batch row carries the threaded metric.
    fn host_doc(cores: u64, scale: f64) -> Json {
        let threaded = if cores > 1 {
            format!(r#", "batch_shared_analysis_threads_ns": {}"#, 5e5 * scale)
        } else {
            String::new()
        };
        Json::parse(&format!(
            r#"{{"available_parallelism": {cores},
            "batch_sweeps": [
                {{"family": "structured", "stmts": 954,
                  "batch_threads_used": {cores}, "available_parallelism": {cores},
                  "batch_shared_analysis_sequential_ns": {seq}{threaded}}}
            ],
            "cold_analysis_sweeps": [
                {{"family": "unstructured", "stmts": 4821,
                  "available_parallelism": {cores},
                  "cold_warm_sequential_ns": {cold}}}
            ]}}"#,
            seq = 1e6 * scale,
            cold = 1e7 * scale,
        ))
        .unwrap()
    }

    #[test]
    fn a_multicore_run_against_a_single_core_baseline_compares_sequential_metrics() {
        let base = host_doc(1, 1.0);
        let report = compare(&base, &host_doc(2, 1.0), 0.25).unwrap();
        assert!(report.passes(), "{report:?}");
        assert_eq!(report.compared, 2, "batch sequential + cold warm");
        assert!(report.skipped.is_empty(), "{:?}", report.skipped);
        let slow = compare(&base, &host_doc(2, 2.0), 0.25).unwrap();
        assert_eq!(slow.regressions.len(), 2, "{slow:?}");
        assert!(!slow.passes());
    }

    fn doc_with_closure(condensed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"batch_sweeps": [],
            "closure_sweeps": [
                {{"family": "structured", "stmts": 4821, "criteria": 120,
                  "available_parallelism": 1,
                  "direct_closure_ns": 1e6,
                  "condensed_closure_ns": {condensed}}}
            ]}}"#
        ))
        .unwrap()
    }

    #[test]
    fn closure_rows_gate_the_condensed_path_only() {
        let base = doc_with_closure(2e5);
        let report = compare(&base, &base, 0.25).unwrap();
        assert!(report.passes());
        assert_eq!(report.compared, 1, "only the condensed metric gates");

        // A slower oracle walk never trips the gate...
        let mut slow_direct = base.clone();
        inject_slowdown(&mut slow_direct, 1.0); // no-op; direct is ungated anyway
        assert!(compare(&base, &slow_direct, 0.25).unwrap().passes());

        // ...but a slower product walk does.
        let slow = compare(&base, &doc_with_closure(6e5), 0.25).unwrap();
        assert_eq!(slow.regressions.len(), 1);
        assert_eq!(slow.regressions[0].metric, "condensed_closure_ns");
    }

    #[test]
    fn injected_slowdown_trips_cold_and_closure_metrics_too() {
        for base in [doc_with_cold(1e7), doc_with_closure(2e5)] {
            let mut cur = base.clone();
            inject_slowdown(&mut cur, 2.0);
            let report = compare(&base, &cur, 0.25).unwrap();
            assert!(!report.passes(), "2x injection must trip the gate");
        }
    }

    #[test]
    fn injected_slowdown_trips_sparse_metrics_too() {
        let base = doc_with_sparse(1e5);
        let mut cur = base.clone();
        inject_slowdown(&mut cur, 2.0);
        let report = compare(&base, &cur, 0.25).unwrap();
        assert!(report
            .regressions
            .iter()
            .any(|r| r.metric == "sparse_kernel_ns"));
    }

    #[test]
    fn injected_slowdown_trips_incr_metrics_too() {
        let base = doc_with_incr(1e5);
        let mut cur = base.clone();
        inject_slowdown(&mut cur, 2.0);
        let report = compare(&base, &cur, 0.25).unwrap();
        assert!(report
            .regressions
            .iter()
            .any(|r| r.metric == "incremental_ns"));
    }
}
