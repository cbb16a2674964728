//! Chaos harness CLI: deterministic fault injection against the daemon.
//!
//! Samples seeded [`jumpslice_chaos::FaultPlan`]s, replays
//! difftest-generated corpora through a real daemon (the serve binary's
//! admission gate and request path, a snapshot store on a scratch
//! directory) under each plan, and checks every response against a
//! pristine engine. Violating plans are shrunk to 1-minimal schedules and
//! written out as ready-to-paste regression tests. Exits non-zero on any
//! violation, so CI can gate on it.
//!
//! ```text
//! chaos --smoke                  # fixed-seed CI configuration
//! chaos --plans 200 --size 25    # a longer hunt (the acceptance sweep)
//! chaos --start 4000 --plans 400 --out findings/   # nightly window
//! chaos --inject-known-bug       # self-test: prove the detectors fire
//! ```

use jumpslice_chaos::{
    run_chaos, self_test_forged_snapshot_detected, self_test_lease_eviction_detected, ChaosConfig,
    ChaosFinding,
};
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: chaos [options]
  --smoke              fixed-seed smoke configuration (CI)
  --plans N            number of fault plans (default 8; one corpus each)
  --start N            first plan seed (default 0)
  --size N             target statements per generated program (default 20)
  --programs N         programs per plan (default 3)
  --workers N          requests the daemon runs at once (default 2)
  --stress N           concurrent stress clients (default 3; 0 disables)
  --no-shrink          report violating plans without minimizing
  --max-findings N     stop after N violating plans (default 4)
  --out DIR            write per-finding artifacts (.plan.txt / .test.rs)
  --inject-known-bug   run the detector self-tests (lease eviction and
                       forged snapshot) instead of a sweep; exits non-zero
                       if either class goes undetected"
    );
    std::process::exit(2)
}

fn write_finding(dir: &Path, idx: usize, f: &ChaosFinding) -> std::io::Result<()> {
    let stem = format!("{idx:03}-chaos-seed{}", f.program_seed);
    let mut plan = String::new();
    plan.push_str(&f.plan.describe());
    plan.push('\n');
    plan.push_str(&f.shrunk.describe());
    plan.push('\n');
    for v in &f.violations {
        plan.push_str(v);
        plan.push('\n');
    }
    std::fs::write(dir.join(format!("{stem}.plan.txt")), plan)?;
    std::fs::write(dir.join(format!("{stem}.test.rs")), &f.regression_test)?;
    Ok(())
}

fn self_test() -> ! {
    let mut failed = false;
    match self_test_lease_eviction_detected() {
        Ok(()) => println!("self-test lease-eviction: detected (tracker flags the known bug)"),
        Err(e) => {
            eprintln!("self-test lease-eviction FAILED: {e}");
            failed = true;
        }
    }
    let scratch =
        std::env::temp_dir().join(format!("jumpslice-chaos-selftest-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).ok();
    match self_test_forged_snapshot_detected(&scratch) {
        Ok(()) => {
            println!("self-test forged-snapshot: detected (slice identity flags the forgery)")
        }
        Err(e) => {
            eprintln!("self-test forged-snapshot FAILED: {e}");
            failed = true;
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    std::process::exit(if failed { 1 } else { 0 })
}

fn main() {
    let mut cfg = ChaosConfig::smoke();
    let mut out_dir: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    let next_num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("missing/invalid value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => cfg = ChaosConfig::smoke(),
            "--plans" => cfg.plans = next_num(&mut args, "--plans"),
            "--start" => cfg.start_seed = next_num(&mut args, "--start"),
            "--size" => cfg.target_stmts = next_num(&mut args, "--size") as usize,
            "--programs" => cfg.programs_per_plan = next_num(&mut args, "--programs") as usize,
            "--workers" => cfg.workers = next_num(&mut args, "--workers") as usize,
            "--stress" => cfg.stress_clients = next_num(&mut args, "--stress") as usize,
            "--max-findings" => cfg.max_findings = next_num(&mut args, "--max-findings") as usize,
            "--no-shrink" => cfg.shrink = false,
            "--inject-known-bug" => self_test(),
            "--out" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("missing value for --out");
                    usage()
                })));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option `{other}`");
                usage();
            }
        }
    }

    let report = run_chaos(&cfg);
    println!("{}", report.summary());
    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).expect("create --out dir");
        for (i, f) in report.findings.iter().enumerate() {
            write_finding(dir, i, f).expect("write finding artifacts");
        }
        if !report.findings.is_empty() {
            println!(
                "wrote {} finding(s) to {}",
                report.findings.len(),
                dir.display()
            );
        }
    }
    for f in &report.findings {
        eprintln!("--- violating plan (seed {}) ---", f.program_seed);
        eprintln!("  sampled: {}", f.plan.describe());
        eprintln!("  shrunk:  {}", f.shrunk.describe());
        for v in &f.violations {
            eprintln!("  violation: {v}");
        }
        eprintln!("{}", f.regression_test);
    }
    std::process::exit(if report.findings.is_empty() { 0 } else { 1 })
}
