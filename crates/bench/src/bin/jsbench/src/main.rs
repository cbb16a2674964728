//! `jsbench`: the end-to-end benchmark of the `jumpslice-serve` daemon.
//!
//! ```text
//! jsbench run     --workload W --seed S [--seconds N] [--trace 0|1] [--self-test]
//! jsbench trace   --workload W --seed S [--seconds N]
//! jsbench compare BASE_DIR HEAD_DIR [--bench BENCHMARK.json]
//! ```
//!
//! `run` starts the real daemon binary from `$CARGO_TARGET_DIR/release`
//! (default `target/release`), drives it from two TCP clients, checks every
//! response, prints each metric as `name value unit`, writes
//! `<target>/jsbench/<workload>-<seed>.result.json`, and ends standard
//! output with one JSON summary line. `run --trace 1` (or `trace`) is the
//! separate in-process traced run that gives the per-layer numbers. See
//! README.md beside this crate for the metrics, workloads and bounds.

mod client;
mod compare;
mod oracle;
mod report;
mod stats;
mod trace;
mod workload;

use client::{Backend, DriveConfig};
use oracle::Verdict;
use report::{Metric, Stamp};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workload::{Plan, Scale, Shape, Workload};

/// Rounds per run. Each round starts a fresh daemon, sets it up, and
/// measures for a fifth of `--seconds`; `setup_s` is the median round.
const ROUNDS: usize = 5;

const USAGE: &str = "usage:
  jsbench run     --workload W --seed S [--seconds N] [--trace 0|1] [--self-test]
  jsbench trace   --workload W --seed S [--seconds N]
  jsbench compare BASE_DIR HEAD_DIR [--bench BENCHMARK.json]
workloads: warm-ide, cold-ingest, edit-loop, restart-restore";

/// Planned measured ops per connection per second of `--seconds`: several
/// times what the daemon completes today, so a round's window closes
/// before its stream runs out even if the daemon gets much faster.
fn stream_len(w: Workload, seconds: u64) -> [usize; 2] {
    let per_s = match w {
        Workload::WarmIde => [150, 150],
        Workload::ColdIngest => [40, 40],
        // Connection 0 spends its time on u5k edits, connection 1 edits
        // only small programs.
        Workload::EditLoop => [25, 25],
        Workload::RestartRestore => [100, 100],
    };
    per_s.map(|r| r * seconds.max(1) as usize)
}

/// Measured ops per connection the traced run replays, sized so the trace
/// (engine, mirror and phase attribution) takes about `--seconds`.
fn trace_len(w: Workload, seconds: u64) -> usize {
    let per_10s = match w {
        Workload::WarmIde => 40,
        Workload::ColdIngest => 15,
        Workload::EditLoop => 7,
        Workload::RestartRestore => 30,
    };
    (per_10s * seconds.max(1) as usize).div_ceil(10)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_test: bool,
}

fn parse_run(args: &[String], trace: bool) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 15;
    let mut trace = trace;
    let mut self_test = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = value()?;
                workload =
                    Some(Workload::parse(&w).ok_or_else(|| format!("unknown workload '{w}'"))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|_| "--seed needs an integer")?),
            "--seconds" => seconds = value()?.parse().map_err(|_| "--seconds needs an integer")?,
            "--trace" => trace = value()? != "0",
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.ok_or_else(|| format!("--seed is required\n{USAGE}"))?,
        seconds,
        trace,
        self_test,
    })
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("target"))
}

fn main() -> ExitCode {
    // Every deadline cancellation unwinds through a panic. With these set,
    // each one would also capture a backtrace, in the traced process and in
    // the daemon it spawns, so degraded requests would cost whatever the
    // caller's environment says. Cleared before any thread starts.
    std::env::remove_var("RUST_BACKTRACE");
    std::env::remove_var("RUST_LIB_BACKTRACE");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..], false).and_then(|a| run(&a)),
        Some("trace") => parse_run(&args[1..], true).and_then(|a| run(&a)),
        Some("compare") => compare_cmd(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    result.unwrap_or_else(|msg| {
        eprintln!("jsbench: {msg}");
        ExitCode::from(2)
    })
}

fn compare_cmd(args: &[String]) -> Result<ExitCode, String> {
    let mut dirs = Vec::new();
    let mut bench = PathBuf::from("BENCHMARK.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench = it.next().ok_or("--bench needs a path")?.into();
        } else {
            dirs.push(PathBuf::from(a));
        }
    }
    let [base, head] = dirs.as_slice() else {
        return Err(USAGE.to_owned());
    };
    Ok(if compare::run(base, head, &bench)? {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn run(a: &Args) -> Result<ExitCode, String> {
    let target = target_dir();
    let out_dir = target.join("jsbench");
    let work_dir = out_dir.join(format!("work-{}-{}", a.workload.name(), a.seed));
    std::fs::create_dir_all(&work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let started = Instant::now();
    let plan = Plan::build(
        a.workload,
        a.seed,
        Scale::FULL,
        stream_len(a.workload, a.seconds),
    );
    let stamp = Stamp {
        workload: a.workload.name().to_owned(),
        seed: a.seed,
        seconds: a.seconds,
        trace: a.trace,
        stream_hash: plan.stream_hash(),
    };
    eprintln!(
        "jsbench: {} seed {} for {} s ({}), stream {:016x}, planned in {:.1} s",
        a.workload.name(),
        a.seed,
        a.seconds,
        if a.trace { "traced" } else { "untraced" },
        stamp.stream_hash,
        started.elapsed().as_secs_f64()
    );
    let code = if a.trace {
        traced(&plan, a, &stamp, &out_dir, &work_dir)
    } else {
        untraced(&plan, a, &stamp, &target, &out_dir, &work_dir)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    code
}

fn report_failures(verdict: &Verdict) {
    for m in &verdict.messages {
        eprintln!("jsbench: WRONG {m}");
    }
    if !verdict.correct() {
        eprintln!(
            "jsbench: {} of {} ops failed the oracle",
            verdict.failed, verdict.attempted
        );
    }
}

fn untraced(
    plan: &Plan,
    a: &Args,
    stamp: &Stamp,
    target: &Path,
    out_dir: &Path,
    work_dir: &Path,
) -> Result<ExitCode, String> {
    let bin = target.join("release").join("jumpslice-serve");
    if !bin.is_file() {
        return Err(format!(
            "{} is missing; build it with `cargo build --release -p jumpslice-serve`",
            bin.display()
        ));
    }
    let mut outcome = client::drive(
        plan,
        &Backend::Binary(bin),
        &DriveConfig {
            rounds: ROUNDS,
            window: Duration::from_secs_f64(a.seconds as f64 / ROUNDS as f64),
            work_dir: work_dir.to_owned(),
        },
    )?;
    if a.self_test {
        let injected = oracle::inject_fault(&mut outcome.records);
        eprintln!("jsbench: self-test: corrupted one recorded line number ({injected})");
    }
    let started = Instant::now();
    let verdict = oracle::check(plan, &outcome.records);
    eprintln!(
        "jsbench: checked {} ops in {:.1} s",
        verdict.attempted,
        started.elapsed().as_secs_f64()
    );
    report_failures(&verdict);
    let metrics = report::end_to_end(&outcome);
    let extra = report::extras(plan, &outcome, &verdict);
    report::print(&extra);
    report::print(&metrics);
    // A self-test's result is corrupt on purpose; it must not replace the
    // measured result that `compare` and the traced run read.
    if !a.self_test {
        let path = out_dir.join(format!("{}-{}.result.json", stamp.workload, stamp.seed));
        report::write_result(&path, stamp, &verdict, &metrics, &extra)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    println!("{}", report::summary_line(&verdict, &metrics));
    Ok(exit_code(&verdict))
}

fn exit_code(verdict: &Verdict) -> ExitCode {
    if verdict.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn traced(
    plan: &Plan,
    a: &Args,
    stamp: &Stamp,
    out_dir: &Path,
    work_dir: &Path,
) -> Result<ExitCode, String> {
    let out = trace::replay(plan, trace_len(a.workload, a.seconds), work_dir)?;
    let mut verdict = oracle::check(plan, &out.records);
    verdict.failed += out.mismatches.len();
    verdict.messages.extend(
        out.mismatches
            .iter()
            .take(10)
            .map(|m| format!("mirror differs: {m}")),
    );
    report_failures(&verdict);
    let (listed, mut extra, leaks) = out.layers();

    // Transport: the client's median op (from this seed's untraced result,
    // when present) minus the same ops' median in-process.
    let primary = a.workload.primary().name();
    let untraced = std::fs::read_to_string(
        out_dir.join(format!("{}-{}.result.json", stamp.workload, stamp.seed)),
    )
    .ok()
    .and_then(|t| jumpslice_obs::Json::parse(&t).ok())
    .filter(|j| {
        j.get("stamp")
            .and_then(|s| s.get("stream_hash"))
            .and_then(|h| h.as_str())
            == Some(&format!("{:016x}", stamp.stream_hash))
    });
    for shape in Shape::ALL {
        let v = stats::sorted(&out.op_ms(primary, shape));
        let Some(inproc) = stats::percentile(&v, 50) else {
            continue;
        };
        extra.push(Metric::new(
            format!("inproc.{}_p50_ms", shape.name()),
            inproc,
            "ms",
        ));
        let client = untraced.as_ref().and_then(|j| {
            j.get("extra")?
                .get(&format!("{primary}.{}_p50_ms", shape.name()))?
                .get("value")?
                .as_num()
        });
        if let Some(client) = client {
            extra.push(Metric::new(
                format!("serve.transport_ms.{}", shape.name()),
                client - inproc,
                "ms",
            ));
        }
    }
    report::print(&extra);
    report::print(&listed);
    for leak in &leaks {
        println!("# unattributed above 10 %: {leak}");
    }
    let trace_path = out_dir.join(format!("{}-{}.trace.json", stamp.workload, stamp.seed));
    std::fs::write(&trace_path, out.to_json().write_compact())
        .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
    let path = out_dir.join(format!("{}-{}.layers.json", stamp.workload, stamp.seed));
    report::write_result(&path, stamp, &verdict, &listed, &extra)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("{}", report::summary_line(&verdict, &listed));
    Ok(exit_code(&verdict))
}

#[cfg(test)]
mod tests {
    use super::*;
    use client::drive;

    /// A scratch directory that is removed when dropped, also when a test
    /// fails.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new(tag: &str) -> Scratch {
            let dir = std::env::temp_dir().join(format!("jsbench-{tag}-{}", std::process::id()));
            std::fs::create_dir_all(&dir).unwrap();
            Scratch(dir)
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn config(rounds: usize, window_ms: u64, scratch: &Scratch) -> DriveConfig {
        DriveConfig {
            rounds,
            window: Duration::from_millis(window_ms),
            work_dir: scratch.0.clone(),
        }
    }

    /// A 1/50-scale run of every workload through the daemon's in-process
    /// worker pool, with the oracle on; the traced replay of the same plan
    /// must match the engine byte for byte.
    #[test]
    fn every_workload_runs_clean_at_smoke_scale() {
        for w in Workload::ALL {
            let plan = Plan::build(w, 11, Scale::SMOKE, [100, 60]);
            let scratch = Scratch::new(&format!("smoke-{}", w.name()));
            let outcome = drive(&plan, &Backend::InProcess, &config(2, 50, &scratch)).unwrap();
            let verdict = oracle::check(&plan, &outcome.records);
            assert!(verdict.correct(), "{}: {:?}", w.name(), verdict.messages);
            assert!(verdict.attempted > 0);
            let metrics = report::end_to_end(&outcome);
            assert!(metrics.iter().all(|m| m.value > 0.0), "{}", w.name());
            let extra = report::extras(&plan, &outcome, &verdict);
            for shape in Shape::ALL {
                let name = format!("{}.{}_p50_ms", w.primary().name(), shape.name());
                assert!(extra.iter().any(|m| m.name == name), "{name} missing");
            }

            let traced = trace::replay(&plan, 5, &scratch.0).unwrap();
            assert!(
                traced.mismatches.is_empty(),
                "{}: {:?}",
                w.name(),
                traced.mismatches
            );
            assert!(oracle::check(&plan, &traced.records).correct());
            let (listed, _, _) = traced.layers();
            assert_eq!(listed.len(), trace::LAYERS.len());
        }
    }

    #[test]
    fn the_oracle_catches_a_flipped_line_number() {
        let plan = Plan::build(Workload::WarmIde, 5, Scale::SMOKE, [30, 30]);
        let scratch = Scratch::new("selftest");
        let mut outcome = drive(&plan, &Backend::InProcess, &config(1, 20, &scratch)).unwrap();
        assert!(oracle::check(&plan, &outcome.records).correct());
        assert!(oracle::inject_fault(&mut outcome.records));
        assert_eq!(oracle::check(&plan, &outcome.records).failed, 1);
    }
}
