//! Differential slicing fuzzer CLI.
//!
//! Runs the `jumpslice-difftest` harness over a seed range and reports
//! findings with shrunk counterexamples and ready-to-paste regression
//! tests. Exits non-zero when any *pinned* claim is violated, so CI can
//! gate on it.
//!
//! ```text
//! difftest --smoke                 # fixed-seed CI configuration
//! difftest --seeds 200 --size 40   # a longer hunt
//! difftest --family unstructured --record-expected
//! difftest --mode incr --seeds 170 # incremental-vs-scratch equivalence
//! difftest --mode sparse --seeds 100 # chain-index slicers vs dense walks (Figures 7/12/13)
//! difftest --mode closure --seeds 100 # product-vs-oracle closure equality
//! ```

use jumpslice_difftest::{
    run_closuretest_with, run_difftest_with, run_incrtest_with, run_sparsetest_with, ClosureConfig,
    DiffConfig, Family, Finding, IncrConfig, SparseConfig,
};
use std::path::{Path, PathBuf};

fn usage() -> ! {
    eprintln!(
        "usage: difftest [options]
  --mode NAME          diff (default) | incr (incremental-vs-scratch equality)
                       | sparse (chain-index Figures 7/12/13 vs dense walks)
                       | closure (product-vs-oracle closure equality)
  --smoke              fixed-seed smoke configuration (CI)
  --seeds N            number of seeds (default 25; one program per family each)
  --start N            first seed (default 0)
  --family NAME        paper-fragment | structured | unstructured (default: all)
  --size N             target statements per program (default 30)
  --density F          goto density for the unstructured family (default 0.3)
  --criteria N         max criteria per program (default 4)
  --inputs N           inputs per projection check (default 5)
  --fuel N             interpreter fuel per run (default 20000)
  --steps N            incr mode: edits per script (default 6)
  --threads N          batch-slicer worker threads (default 1)
  --no-shrink          report findings without minimizing
  --record-expected    also shrink+report known-unsound failures (non-fatal)
  --max-findings N     stop after N findings (default 8)
  --out DIR            write per-finding artifacts (.prog.txt / .test.rs /
                       .trace.json) into DIR (created if missing)"
    );
    std::process::exit(2)
}

/// Write one finding's artifacts into `dir` under a stable, shell-safe stem.
fn write_finding(dir: &Path, idx: usize, f: &Finding) -> std::io::Result<()> {
    let tag = if f.expected { "expected" } else { "finding" };
    let stem = format!(
        "{idx:03}-{tag}-{}-{}-{}-seed{}",
        f.algo,
        f.kind.name(),
        f.family.name(),
        f.seed
    );
    std::fs::write(dir.join(format!("{stem}.prog.txt")), &f.program)?;
    std::fs::write(dir.join(format!("{stem}.test.rs")), &f.regression_test)?;
    std::fs::write(dir.join(format!("{stem}.trace.json")), &f.trace_json)?;
    Ok(())
}

/// Which harness a run drives.
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Diff,
    Incr,
    Sparse,
    Closure,
}

/// Flags shared between the modes, plus the incr-only step count.
struct Cli {
    cfg: DiffConfig,
    out_dir: Option<PathBuf>,
    mode: Mode,
    smoke: bool,
    steps: usize,
}

fn parse_args() -> Cli {
    let mut cfg = DiffConfig::default();
    let mut out_dir = None;
    let mut mode = Mode::Diff;
    let mut smoke = false;
    let mut steps = IncrConfig::default().edits_per_script;
    let mut args = std::env::args().skip(1);
    let next_num = |args: &mut dyn Iterator<Item = String>, flag: &str| -> u64 {
        args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
            eprintln!("missing/invalid value for {flag}");
            usage()
        })
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--mode" => match args.next().as_deref() {
                Some("diff") => mode = Mode::Diff,
                Some("incr") => mode = Mode::Incr,
                Some("sparse") => mode = Mode::Sparse,
                Some("closure") => mode = Mode::Closure,
                other => {
                    eprintln!("unknown mode `{}`", other.unwrap_or_default());
                    usage()
                }
            },
            "--smoke" => {
                cfg = DiffConfig::smoke();
                smoke = true;
            }
            "--steps" => steps = next_num(&mut args, "--steps") as usize,
            "--seeds" => cfg.seeds = next_num(&mut args, "--seeds"),
            "--start" => cfg.start_seed = next_num(&mut args, "--start"),
            "--size" => cfg.target_stmts = next_num(&mut args, "--size") as usize,
            "--criteria" => cfg.max_criteria = next_num(&mut args, "--criteria") as usize,
            "--inputs" => cfg.num_inputs = next_num(&mut args, "--inputs") as usize,
            "--fuel" => cfg.fuel = next_num(&mut args, "--fuel"),
            "--threads" => cfg.threads = next_num(&mut args, "--threads") as usize,
            "--max-findings" => cfg.max_findings = next_num(&mut args, "--max-findings") as usize,
            "--no-shrink" => cfg.shrink = false,
            "--record-expected" => cfg.record_expected = true,
            "--density" => {
                cfg.jump_density = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage());
            }
            "--out" => {
                out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| {
                    eprintln!("missing value for --out");
                    usage()
                })));
            }
            "--family" => {
                let name = args.next().unwrap_or_default();
                cfg.family = Some(Family::from_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown family `{name}`");
                    usage()
                }));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown option `{other}`");
                usage();
            }
        }
    }
    Cli {
        cfg,
        out_dir,
        mode,
        smoke,
        steps,
    }
}

/// Runs the incremental-vs-scratch mode and exits.
fn run_incr_mode(cli: &Cli) -> ! {
    let mut icfg = if cli.smoke {
        IncrConfig::smoke()
    } else {
        IncrConfig::default()
    };
    // Shared flags carry over; --smoke keeps its own seed count.
    if !cli.smoke {
        icfg.seeds = cli.cfg.seeds;
        icfg.target_stmts = cli.cfg.target_stmts;
    }
    icfg.start_seed = cli.cfg.start_seed;
    icfg.family = cli.cfg.family;
    icfg.jump_density = cli.cfg.jump_density;
    icfg.max_criteria = cli.cfg.max_criteria;
    icfg.shrink = cli.cfg.shrink;
    icfg.max_findings = cli.cfg.max_findings;
    icfg.edits_per_script = cli.steps;

    let mut last = 0usize;
    let report = run_incrtest_with(&icfg, |r| {
        if r.scripts / 50 > last {
            last = r.scripts / 50;
            eprintln!(
                "  …{} scripts, {} edits applied, {} comparisons, {} findings",
                r.scripts,
                r.edits_applied,
                r.comparisons,
                r.findings.len()
            );
        }
    });

    println!(
        "difftest --mode incr: {} edit scripts · {} edits applied ({} rejected) · {} identity comparisons",
        report.scripts, report.edits_applied, report.edits_rejected, report.comparisons
    );
    println!(
        "  data edges: {} rows held to the dense oracle · {} vars_at seed comparisons",
        report.data_rows, report.vars_seeds
    );
    println!(
        "  apply paths: {} expression patches, resets {} seeded_resolve and {} full_rebuild",
        report.expr_patches, report.seeded_resolves, report.full_rebuilds
    );
    for f in &report.findings {
        println!(
            "\n[FINDING] incremental ≠ scratch (seed {}, {} family)",
            f.seed,
            f.family.name()
        );
        println!("  {}", f.detail);
        println!("--- shrunk program ---");
        for l in f.program.lines() {
            println!("  {l}");
        }
        println!("--- shrunk edit script ({} edits) ---", f.script.len());
        for e in &f.script {
            println!("  {e:?}");
        }
    }
    if !report.findings.is_empty() {
        eprintln!("\n{} incremental mismatch(es)", report.findings.len());
        std::process::exit(1);
    }
    println!("\nno incremental mismatches");
    std::process::exit(0)
}

/// Runs the sparse-vs-dense equality mode (Figures 7, 12 and 13) and exits.
fn run_sparse_mode(cli: &Cli) -> ! {
    let mut scfg = if cli.smoke {
        SparseConfig::smoke()
    } else {
        SparseConfig::default()
    };
    // Shared flags carry over; --smoke keeps its own seed count.
    if !cli.smoke {
        scfg.seeds = cli.cfg.seeds;
        scfg.target_stmts = cli.cfg.target_stmts;
    }
    scfg.start_seed = cli.cfg.start_seed;
    scfg.family = cli.cfg.family;
    scfg.jump_density = cli.cfg.jump_density;
    scfg.max_criteria = cli.cfg.max_criteria;
    scfg.shrink = cli.cfg.shrink;
    scfg.max_findings = cli.cfg.max_findings;

    let mut last = 0usize;
    let report = run_sparsetest_with(&scfg, |r| {
        if r.programs / 50 > last {
            last = r.programs / 50;
            eprintln!(
                "  …{} programs, {} criteria, {} comparisons, {} findings",
                r.programs,
                r.criteria,
                r.comparisons,
                r.findings.len()
            );
        }
    });

    println!(
        "difftest --mode sparse: {} programs · {} criteria · {} equality comparisons",
        report.programs, report.criteria, report.comparisons
    );
    for f in &report.findings {
        println!(
            "\n[FINDING] sparse ≠ dense (seed {}, {} family)",
            f.seed,
            f.family.name()
        );
        println!("  {}", f.detail);
        println!("--- shrunk program ---");
        for l in f.program.lines() {
            println!("  {l}");
        }
    }
    if !report.findings.is_empty() {
        eprintln!("\n{} sparse-kernel mismatch(es)", report.findings.len());
        std::process::exit(1);
    }
    println!("\nno sparse-kernel mismatches");
    std::process::exit(0)
}

/// Runs the product-vs-oracle closure equality mode and exits.
fn run_closure_mode(cli: &Cli) -> ! {
    let mut ccfg = if cli.smoke {
        ClosureConfig::smoke()
    } else {
        ClosureConfig::default()
    };
    // Shared flags carry over; --smoke keeps its own seed count.
    if !cli.smoke {
        ccfg.seeds = cli.cfg.seeds;
        ccfg.target_stmts = cli.cfg.target_stmts;
    }
    ccfg.start_seed = cli.cfg.start_seed;
    ccfg.family = cli.cfg.family;
    ccfg.jump_density = cli.cfg.jump_density;
    ccfg.max_criteria = cli.cfg.max_criteria;
    ccfg.shrink = cli.cfg.shrink;
    ccfg.max_findings = cli.cfg.max_findings;
    ccfg.edits_per_script = cli.steps;

    let mut last = 0usize;
    let report = run_closuretest_with(&ccfg, |r| {
        if r.programs / 50 > last {
            last = r.programs / 50;
            eprintln!(
                "  …{} programs, {} states, {} comparisons, {} findings",
                r.programs,
                r.states,
                r.comparisons,
                r.findings.len()
            );
        }
    });

    println!(
        "difftest --mode closure: {} programs · {} states ({} edits applied) · {} equality comparisons",
        report.programs, report.states, report.edits_applied, report.comparisons
    );
    for f in &report.findings {
        println!(
            "\n[FINDING] product closure ≠ oracle (seed {}, {} family)",
            f.seed,
            f.family.name()
        );
        println!("  {}", f.detail);
        println!("--- shrunk program ---");
        for l in f.program.lines() {
            println!("  {l}");
        }
        if !f.script.is_empty() {
            println!("--- shrunk edit script ({} edits) ---", f.script.len());
            for e in &f.script {
                println!("  {e:?}");
            }
        }
    }
    if !report.findings.is_empty() {
        eprintln!("\n{} closure mismatch(es)", report.findings.len());
        std::process::exit(1);
    }
    println!("\nno closure mismatches");
    std::process::exit(0)
}

fn main() {
    let cli = parse_args();
    match cli.mode {
        Mode::Incr => run_incr_mode(&cli),
        Mode::Sparse => run_sparse_mode(&cli),
        Mode::Closure => run_closure_mode(&cli),
        Mode::Diff => {}
    }
    let Cli { cfg, out_dir, .. } = cli;
    // Panics are a *verdict* here (caught, attributed, reported); keep the
    // default hook from spraying backtraces over the progress output.
    std::panic::set_hook(Box::new(|_| {}));

    let mut last = 0usize;
    let report = run_difftest_with(&cfg, |r| {
        if r.programs / 25 > last {
            last = r.programs / 25;
            eprintln!(
                "  …{} programs, {} oracle checks, {} verified, {} findings",
                r.programs,
                r.oracle_checks,
                r.verified,
                r.findings.len()
            );
        }
    });
    let _ = std::panic::take_hook();

    println!(
        "difftest: {} programs · {} (program, criterion) cases · {} oracle checks",
        report.programs, report.criterion_cases, report.oracle_checks
    );
    println!(
        "  verified {}, inconclusive {}, expected-unsound failures {}, lattice checks {}",
        report.verified, report.inconclusive, report.expected_failures, report.lattice_checks
    );

    for f in &report.findings {
        let tag = if f.expected { "expected" } else { "FINDING" };
        println!(
            "\n[{tag}] {} / {} (seed {}, {} family)",
            f.algo,
            f.kind.name(),
            f.seed,
            f.family.name()
        );
        println!("  {}", f.detail);
        println!("--- shrunk program ---");
        for l in f.program.lines() {
            println!("  {l}");
        }
        println!("--- regression test ---");
        print!("{}", f.regression_test);
    }

    if let Some(dir) = &out_dir {
        std::fs::create_dir_all(dir).unwrap_or_else(|e| {
            eprintln!("cannot create {}: {e}", dir.display());
            std::process::exit(2);
        });
        for (i, f) in report.findings.iter().enumerate() {
            write_finding(dir, i, f).unwrap_or_else(|e| {
                eprintln!("cannot write finding {i} to {}: {e}", dir.display());
                std::process::exit(2);
            });
        }
        println!(
            "wrote {} finding artifact set(s) to {}",
            report.findings.len(),
            dir.display()
        );
    }

    let hard = report.hard_findings().count();
    if hard > 0 {
        eprintln!("\n{hard} pinned-claim violation(s)");
        std::process::exit(1);
    }
    println!("\nno pinned-claim violations");
}
