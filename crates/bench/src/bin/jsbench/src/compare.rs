//! `jsbench compare`: pairs the result files of two sets of runs by
//! (workload, seed) and gives each (metric, workload) a verdict.
//!
//! The rule: the change is `better` only when it wins at least nine tenths
//! of the pairs and the medians differ by more than the parent's IQR. For
//! a gated metric (BENCHMARK.json's `end_to_end`) it is `worse` when its
//! median is worse than the parent's by more than the metric's bound, and
//! when either side's spread (IQR / median) exceeds that bound the
//! comparison is `unresolved` rather than `same`. The client timings the
//! benchmark prints but does not gate (`ops_per_s` and every `*_p50_ms`)
//! have no bound: they are `worse` when the change loses nine tenths of the
//! pairs and the medians differ by more than the parent's IQR, and
//! `unresolved` otherwise. A gain does not count when more operations fail:
//! if any head run failed the oracle, or failed more ops than its base run,
//! every metric of that workload is `worse`.

use crate::stats::{median, quartiles, relative_iqr};
use jumpslice_obs::Json;
use std::collections::BTreeMap;
use std::path::Path;

struct Rule {
    name: String,
    lower_is_better: bool,
    /// `None` for an ungated metric.
    bound: Option<f64>,
}

fn bounds(bench: &Path) -> Result<Vec<Rule>, String> {
    let text = std::fs::read_to_string(bench)
        .map_err(|e| format!("cannot read {}: {e}", bench.display()))?;
    let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", bench.display()))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Rule {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_owned(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: Some(
                    m.get("bound")
                        .and_then(Json::as_num)
                        .ok_or("metric without a bound")?,
                ),
            })
        })
        .collect()
}

/// (workload, seed) → the result document.
fn results(dir: &Path) -> Result<BTreeMap<(String, u64), Json>, String> {
    let mut out = BTreeMap::new();
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for path in entries.filter_map(Result::ok).map(|e| e.path()) {
        if !path.to_string_lossy().ends_with(".result.json") {
            continue;
        }
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let stamp = doc.get("stamp").ok_or("result without a stamp")?;
        let workload = stamp
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("stamp without a workload")?
            .to_owned();
        let seed = stamp
            .get("seed")
            .and_then(Json::as_num)
            .ok_or("stamp without a seed")? as u64;
        out.insert((workload, seed), doc);
    }
    Ok(out)
}

fn stamp_field<'j>(doc: &'j Json, key: &str) -> Option<&'j Json> {
    doc.get("stamp").and_then(|s| s.get(key))
}

fn metric(doc: &Json, name: &str) -> Option<f64> {
    ["metrics", "extra"]
        .iter()
        .find_map(|part| doc.get(part)?.get(name))?
        .get("value")?
        .as_num()
}

/// The ungated client timings of a measured result.
fn ungated(doc: &Json) -> Vec<Rule> {
    let Some(Json::Obj(extra)) = doc.get("extra") else {
        return Vec::new();
    };
    extra
        .iter()
        .filter(|(name, _)| name == "ops_per_s" || name.ends_with("_p50_ms"))
        .map(|(name, _)| Rule {
            name: name.clone(),
            lower_is_better: name != "ops_per_s",
            bound: None,
        })
        .collect()
}

/// Whether `head` failed the oracle or failed more ops than `base`. A
/// result without the fields counts as failed.
fn fails_more(base: &Json, head: &Json) -> bool {
    let failed = |doc: &Json| doc.get("failed").and_then(Json::as_num);
    let correct = head.get("correct").and_then(Json::as_bool) == Some(true);
    match (failed(base), failed(head)) {
        (Some(b), Some(h)) => !correct || h > b,
        _ => true,
    }
}

pub fn verdict(
    base: &[f64],
    head: &[f64],
    lower_is_better: bool,
    bound: Option<f64>,
) -> &'static str {
    // Positive when the change reads better.
    let gain = |b: f64, h: f64| if lower_is_better { b - h } else { h - b };
    let n = base.len();
    let pairs = |sign: f64| {
        base.iter()
            .zip(head)
            .filter(|(b, h)| sign * gain(**b, **h) > 0.0)
            .count()
    };
    let (q1, q3) = quartiles(base);
    let parent_iqr = q3 - q1;
    let (mb, mh) = (median(base), median(head));
    let shift = gain(mb, mh);
    if pairs(1.0) * 10 >= n * 9 && shift > parent_iqr {
        return "better";
    }
    match bound {
        Some(bound) if relative_iqr(base).max(relative_iqr(head)) > bound => "unresolved",
        Some(bound) if -shift > bound * mb.abs() => "worse",
        Some(_) => "same",
        None if pairs(-1.0) * 10 >= n * 9 && -shift > parent_iqr => "worse",
        None => "unresolved",
    }
}

/// Prints one row per (workload, metric); `Ok(true)` when no verdict is
/// `worse` and every gated one is `same` or `better`.
pub fn run(base_dir: &Path, head_dir: &Path, bench: &Path) -> Result<bool, String> {
    let bounds = bounds(bench)?;
    let base = results(base_dir)?;
    let head = results(head_dir)?;
    let mut pairs: BTreeMap<&str, Vec<(&Json, &Json)>> = BTreeMap::new();
    for (key, b) in &base {
        let Some(h) = head.get(key) else { continue };
        for field in ["available_parallelism", "stream_hash", "seconds", "trace"] {
            if stamp_field(b, field) != stamp_field(h, field) {
                return Err(format!(
                    "{} seed {}: the two results differ in {field} ({:?} vs {:?}); they are not comparable",
                    key.0,
                    key.1,
                    stamp_field(b, field),
                    stamp_field(h, field)
                ));
            }
        }
        pairs.entry(&key.0).or_default().push((b, h));
    }
    if pairs.is_empty() {
        return Err("no (workload, seed) result appears in both directories".to_owned());
    }
    println!(
        "{:<16} {:<28} {:>3} {:>30} {:>30} {:>6}  verdict",
        "workload", "metric", "n", "base median [q1, q3]", "head median [q1, q3]", "wins"
    );
    let mut ok = true;
    for (workload, runs) in &pairs {
        let failing = runs.iter().filter(|(b, h)| fails_more(b, h)).count();
        if failing > 0 {
            println!(
                "{workload:<16} {failing} of {} head runs failed the oracle or failed more ops than base; every metric is worse",
                runs.len()
            );
        }
        let timings = ungated(runs[0].0);
        for m in bounds.iter().chain(&timings) {
            let (b, h): (Vec<f64>, Vec<f64>) = runs
                .iter()
                .filter_map(|(b, h)| Some((metric(b, &m.name)?, metric(h, &m.name)?)))
                .unzip();
            if b.is_empty() {
                continue;
            }
            let v = if failing > 0 {
                "worse"
            } else {
                verdict(&b, &h, m.lower_is_better, m.bound)
            };
            ok &= v != "worse" && (m.bound.is_none() || v != "unresolved");
            let wins = b
                .iter()
                .zip(&h)
                .filter(|(b, h)| if m.lower_is_better { h < b } else { h > b })
                .count();
            let show = |x: &[f64]| {
                let (q1, q3) = quartiles(x);
                format!("{:.4} [{:.4}, {:.4}]", median(x), q1, q3)
            };
            println!(
                "{workload:<16} {:<28} {:>3} {:>30} {:>30} {:>6}  {v}",
                m.name,
                b.len(),
                show(&b),
                show(&h),
                format!("{wins}/{}", b.len())
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::{fails_more, verdict};
    use jumpslice_obs::Json;

    #[test]
    fn verdicts_follow_the_pairwise_rule() {
        let base = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2];
        let faster: Vec<f64> = base.iter().map(|x| x * 0.8).collect();
        let slower: Vec<f64> = base.iter().map(|x| x * 1.2).collect();
        let noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0];
        let gated = Some(0.05);
        assert_eq!(verdict(&base, &base, true, gated), "same");
        assert_eq!(verdict(&base, &faster, true, gated), "better");
        assert_eq!(verdict(&base, &slower, true, gated), "worse");
        assert_eq!(verdict(&base, &faster, false, gated), "worse");
        assert_eq!(verdict(&base, &noisy, true, gated), "unresolved");
        assert_eq!(verdict(&base, &base, true, None), "unresolved");
        assert_eq!(verdict(&base, &faster, true, None), "better");
        assert_eq!(verdict(&base, &slower, true, None), "worse");
        assert_eq!(verdict(&base, &noisy, true, None), "unresolved");
    }

    #[test]
    fn a_head_run_that_fails_more_ops_is_flagged() {
        let doc = |correct: bool, failed: u32| {
            Json::parse(&format!(r#"{{"correct":{correct},"failed":{failed}}}"#)).unwrap()
        };
        assert!(!fails_more(&doc(true, 0), &doc(true, 0)));
        assert!(fails_more(&doc(true, 0), &doc(false, 0)));
        assert!(fails_more(&doc(true, 0), &doc(true, 1)));
        assert!(!fails_more(&doc(false, 2), &doc(true, 0)));
        assert!(fails_more(&doc(true, 0), &Json::parse("{}").unwrap()));
    }
}
