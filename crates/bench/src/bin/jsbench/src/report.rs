//! Turning records into metrics, printing them, and the result files with
//! their identity stamps.

use crate::client::{Outcome, Record, CLIENTS, WORKERS};
use crate::oracle::Verdict;
use crate::stats::{median, percentile, sorted, tail};
use crate::workload::{Class, Phase, Plan, Shape};
use jumpslice_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Latencies (ms) of the measured ops of `class`, optionally one shape.
fn latencies(plan: &Plan, records: &[Record], class: Class, shape: Option<Shape>) -> Vec<f64> {
    records
        .iter()
        .filter(|r| r.phase == Phase::Measured)
        .filter(|r| {
            let op = &plan.stream[r.conn][r.op];
            op.class == class && shape.is_none_or(|s| s == op.shape)
        })
        .map(|r| r.ms)
        .collect()
}

/// The gated metrics of BENCHMARK.json: the ones whose run-to-run spread
/// on a shared host stays within a bound the benchmark can set. The daemon
/// metrics are missing when the backend is not a daemon process.
pub fn end_to_end(out: &Outcome) -> Vec<Metric> {
    let mut m = Vec::new();
    let setups: Vec<f64> = out.rounds.iter().map(|r| r.setup_s).collect();
    m.push(Metric::new("setup_s", median(&setups), "s"));
    let rss: Vec<f64> = out.rounds.iter().filter_map(|r| r.rss_mib).collect();
    if !rss.is_empty() {
        m.push(Metric::new("daemon_peak_rss_mib", median(&rss), "MiB"));
    }
    if let Some((plain, _)) = out.transport_ms {
        m.push(Metric::new("plain_client_stats_p50_ms", plain, "ms"));
    }
    m
}

/// Everything else a reader wants: throughput, per-class percentiles with
/// their sample counts, the failure fraction, and counts read from
/// responses and from the daemon's own `stats`. The timings here are not
/// gated; `compare` judges them without a bound.
pub fn extras(plan: &Plan, out: &Outcome, verdict: &Verdict) -> Vec<Metric> {
    let mut m = Vec::new();
    let ops: usize = out.rounds.iter().map(|r| r.measured_ops).sum();
    let window: f64 = out.rounds.iter().map(|r| r.window_s).sum();
    m.push(Metric::new("ops_per_s", ops as f64 / window, "op/s"));
    let classes = [
        Class::WarmSlice,
        Class::Degraded,
        Class::ColdLoad,
        Class::EditReslice,
        Class::Restore,
    ];
    for class in classes {
        let all = latencies(plan, &out.records, class, None);
        if all.is_empty() {
            continue;
        }
        let groups = std::iter::once((class.name().to_owned(), all)).chain(
            Shape::ALL.into_iter().map(|s| {
                (
                    format!("{}.{}", class.name(), s.name()),
                    latencies(plan, &out.records, class, Some(s)),
                )
            }),
        );
        for (name, v) in groups {
            let v = sorted(&v);
            if let Some(p50) = percentile(&v, 50) {
                m.push(Metric::new(format!("{name}_p50_ms"), p50, "ms"));
            }
            if let Some((p, x)) = tail(&v) {
                m.push(Metric::new(format!("{name}_p{p}_ms"), x, "ms"));
            }
            m.push(Metric::new(format!("{name}_n"), v.len() as f64, "count"));
        }
    }
    m.push(Metric::new(
        "failed_frac",
        verdict.failed as f64 / verdict.attempted.max(1) as f64,
        "ratio",
    ));

    let mut slice_stmts = 0usize;
    let mut paths: BTreeMap<String, usize> = BTreeMap::new();
    for r in out.records.iter().filter(|r| r.phase == Phase::Measured) {
        for resp in r.responses.iter().flatten() {
            let Ok(j) = Json::parse(resp) else { continue };
            if let Some(slices) = j.get("slices").and_then(Json::as_arr) {
                slice_stmts += slices
                    .iter()
                    .filter_map(|s| s.get("lines").and_then(Json::as_arr))
                    .map(Vec::len)
                    .sum::<usize>();
            }
            if let Some(path) = j.get("path").and_then(Json::as_str) {
                *paths.entry(format!("incr.{path}")).or_default() += 1;
            }
        }
    }
    m.push(Metric::new("core.slice_stmts", slice_stmts as f64, "count"));
    for (name, n) in paths {
        m.push(Metric::new(name, n as f64, "count"));
    }

    let sum = |path: &[&str]| -> f64 {
        out.rounds
            .iter()
            .filter_map(|r| {
                path.iter()
                    .try_fold(r.stats.as_ref()?, |j, k| j.get(k))
                    .and_then(Json::as_num)
            })
            .sum()
    };
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    m.push(Metric::new(
        "serve.cache_hit_ratio",
        ratio(sum(&["cache", "hits"]), sum(&["cache", "misses"])),
        "ratio",
    ));
    m.push(Metric::new(
        "serve.cache_evictions",
        sum(&["cache", "evictions"]),
        "count",
    ));
    m.push(Metric::new("serve.degraded", sum(&["degraded"]), "count"));
    if plan.workload.uses_store() {
        m.push(Metric::new(
            "serve.store_hit_ratio",
            ratio(sum(&["store", "hits"]), sum(&["store", "misses"])),
            "ratio",
        ));
    }
    if let Some((_, measured)) = out.transport_ms {
        m.push(Metric::new("transport.stats_p50_ms", measured, "ms"));
    }
    let unclean = out.rounds.iter().filter(|r| !r.clean_exit).count();
    m.push(Metric::new("daemon_unclean_exits", unclean as f64, "count"));
    m
}

/// `name value unit`, one metric per line.
pub fn print(metrics: &[Metric]) {
    for m in metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".to_owned(), Json::Num(m.value)),
                        ("unit".to_owned(), Json::Str(m.unit.to_owned())),
                    ]),
                )
            })
            .collect(),
    )
}

/// The machine-readable last line of standard output.
pub fn summary_line(verdict: &Verdict, metrics: &[Metric]) -> String {
    Json::Obj(vec![
        ("correct".to_owned(), Json::Bool(verdict.correct())),
        ("attempted".to_owned(), Json::Num(verdict.attempted as f64)),
        ("failed".to_owned(), Json::Num(verdict.failed as f64)),
        ("metrics".to_owned(), metrics_json(metrics)),
    ])
    .write_compact()
}

/// What a result is comparable with: `compare` refuses to pair results
/// whose parallelism or request stream differ.
pub struct Stamp {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub stream_hash: u64,
}

fn git_head() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

pub fn available_parallelism() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

pub fn write_result(
    path: &Path,
    stamp: &Stamp,
    verdict: &Verdict,
    metrics: &[Metric],
    extra: &[Metric],
) -> std::io::Result<()> {
    let doc = Json::Obj(vec![
        (
            "stamp".to_owned(),
            Json::Obj(vec![
                ("workload".to_owned(), Json::Str(stamp.workload.clone())),
                ("seed".to_owned(), Json::Num(stamp.seed as f64)),
                ("seconds".to_owned(), Json::Num(stamp.seconds as f64)),
                ("trace".to_owned(), Json::Bool(stamp.trace)),
                (
                    "stream_hash".to_owned(),
                    Json::Str(format!("{:016x}", stamp.stream_hash)),
                ),
                (
                    "available_parallelism".to_owned(),
                    Json::Num(available_parallelism() as f64),
                ),
                ("git_head".to_owned(), Json::Str(git_head())),
                ("clients".to_owned(), Json::Num(CLIENTS as f64)),
                ("workers".to_owned(), Json::Num(WORKERS as f64)),
            ]),
        ),
        ("correct".to_owned(), Json::Bool(verdict.correct())),
        ("attempted".to_owned(), Json::Num(verdict.attempted as f64)),
        ("failed".to_owned(), Json::Num(verdict.failed as f64)),
        ("metrics".to_owned(), metrics_json(metrics)),
        ("extra".to_owned(), metrics_json(extra)),
    ]);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, doc.write_pretty())
}
