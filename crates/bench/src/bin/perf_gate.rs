//! CI perf-regression gate over `BENCH_slicing.json`.
//!
//! ```text
//! perf_gate --baseline BENCH_slicing.json --current bench-current.json \
//!           [--tolerance 0.25] [--inject-slowdown 2.0]
//! ```
//!
//! Exits 0 when every gated sweep metric in `current` is within
//! `baseline × (1 + tolerance)`, 1 on any regression, on a baseline row
//! the current run failed to measure, or when nothing was compared, 2 on
//! usage or parse errors.
//! `--inject-slowdown F` multiplies the current metrics by `F` first — CI
//! runs the gate once for real and once inverted with a 2× injection to
//! prove the gate still trips.

use jumpslice_bench::perfgate;
use jumpslice_obs::Json;
use std::process::ExitCode;

struct Args {
    baseline: String,
    current: String,
    tolerance: f64,
    inject_slowdown: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut baseline = None;
    let mut current = None;
    let mut tolerance = 0.25;
    let mut inject_slowdown = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("{name} requires a value"));
        match flag.as_str() {
            "--baseline" => baseline = Some(value("--baseline")?),
            "--current" => current = Some(value("--current")?),
            "--tolerance" => {
                tolerance = value("--tolerance")?
                    .parse()
                    .map_err(|e| format!("bad --tolerance: {e}"))?
            }
            "--inject-slowdown" => {
                inject_slowdown = Some(
                    value("--inject-slowdown")?
                        .parse()
                        .map_err(|e| format!("bad --inject-slowdown: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        baseline: baseline.ok_or("--baseline is required")?,
        current: current.ok_or("--current is required")?,
        tolerance,
        inject_slowdown,
    })
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baseline = load(&args.baseline)?;
    let mut current = load(&args.current)?;
    if let Some(factor) = args.inject_slowdown {
        println!("injecting a {factor}x slowdown into current metrics (self-test)");
        perfgate::inject_slowdown(&mut current, factor);
    }
    let report = perfgate::compare(&baseline, &current, args.tolerance)?;
    println!(
        "perf gate: {} comparisons at tolerance {:.0}%",
        report.compared,
        args.tolerance * 100.0
    );
    for m in &report.missing {
        println!("  MISSING  {m}: baseline row absent from current measurement");
    }
    for s in &report.skipped {
        println!("  SKIPPED  {s}");
    }
    for r in &report.regressions {
        println!(
            "  REGRESSED  {}-{} {}: {:.2}ms -> {:.2}ms ({:.2}x, limit {:.2}x)",
            r.family,
            r.stmts,
            r.metric,
            r.baseline_ns / 1e6,
            r.current_ns / 1e6,
            r.ratio(),
            1.0 + args.tolerance
        );
    }
    if report.compared == 0 {
        println!("  FAIL: no metric was compared, so the gate checked nothing");
    } else if report.passes() {
        println!("  OK: no wall-clock regressions beyond the tolerance band");
    }
    Ok(report.passes())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perf_gate: {e}");
            ExitCode::from(2)
        }
    }
}
