//! `explain`: why is each statement in the slice?
//!
//! ```text
//! cargo run --release -p jumpslice-bench --bin explain -- fig1 12
//! cargo run --release -p jumpslice-bench --bin explain -- path/to/prog.txt 7
//! ```
//!
//! The first argument is a paper corpus name (`fig1`, `fig3`, `fig5`,
//! `fig8`, `fig10`, `fig14`, `fig16`) or a file containing a program in the
//! paper language; the second is the 1-based criterion line. Prints the
//! residual slice, then a witness chain for every sliced statement — data
//! and control dependence hops back to the criterion, with Figure-7 jump
//! admissions annotated by the postdominator/lexical-successor disagreement
//! that admitted them — and finally the Figure-7 round trace.

use jumpslice_core::{agrawal_slice_traced, corpus, Analysis, Criterion};
use jumpslice_lang::{parse, Program};
use jumpslice_obs as obs;
use std::process::ExitCode;

fn load_program(name: &str) -> Result<Program, String> {
    match name {
        "fig1" => Ok(corpus::fig1()),
        "fig3" => Ok(corpus::fig3()),
        "fig5" => Ok(corpus::fig5()),
        "fig8" => Ok(corpus::fig8()),
        "fig10" => Ok(corpus::fig10()),
        "fig14" => Ok(corpus::fig14()),
        "fig16" => Ok(corpus::fig16()),
        path => {
            let src = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            parse(&src).map_err(|e| format!("parse {path}: {e}"))
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let (Some(name), Some(line)) = (args.next(), args.next()) else {
        return Err("usage: explain <fig1|fig3|fig5|fig8|fig10|fig14|fig16|FILE> <line>".into());
    };
    let line: usize = line.parse().map_err(|e| format!("bad line number: {e}"))?;
    let p = load_program(&name)?;
    let n = p.len();
    if line == 0 || line > n {
        return Err(format!("line {line} out of range (program has {n} lines)"));
    }
    let a = Analysis::new(&p);
    let crit = Criterion::at_stmt(p.at_line(line));

    let ((slice, prov), events) = obs::capture(|| agrawal_slice_traced(&a, &crit));

    println!("== slice of {name} at line {line} (Figure 7) ==");
    print!("{}", slice.render(&p));
    println!();
    println!("== provenance ({} statements) ==", slice.len());
    print!("{}", prov.report(&p, &slice));

    let rounds: Vec<_> = events
        .iter()
        .filter(|e| {
            matches!(
                e,
                obs::Event::Round { .. } | obs::Event::JumpAdmitted { .. }
            )
        })
        .collect();
    if !rounds.is_empty() {
        println!();
        println!("== figure-7 trace ==");
        for ev in rounds {
            match ev {
                obs::Event::JumpAdmitted {
                    line: l,
                    round,
                    reason,
                    ..
                } => {
                    let why = match reason {
                        obs::AdmitReason::PdomLexsuccDisagree { npd_line, nls_line } => {
                            let pt = |x: &Option<u32>| match x {
                                Some(n) => format!("line {n}"),
                                None => "exit".to_owned(),
                            };
                            format!(
                                "nearest in-slice postdominator {} != nearest in-slice lexical successor {}",
                                pt(npd_line),
                                pt(nls_line)
                            )
                        }
                        obs::AdmitReason::OnIncludedPredicate { predicate_line } => {
                            format!("control dependent on in-slice predicate line {predicate_line}")
                        }
                        obs::AdmitReason::DoWhileHazard => {
                            "do-while hazard on the lexical-successor path".to_owned()
                        }
                    };
                    println!("  round {round}: admit jump at line {l} ({why})");
                }
                obs::Event::Round {
                    round, admitted, ..
                } => {
                    println!("  round {round}: {admitted} jump(s) admitted");
                }
                _ => {}
            }
        }
    }
    if !slice.moved_labels.is_empty() {
        println!();
        println!("== re-associated labels ==");
        for (l, dest) in &slice.moved_labels {
            let to = match dest {
                Some(s) => format!("line {}", p.line_of(*s)),
                None => "program exit".to_owned(),
            };
            println!("  {}: moved to {to}", p.label_str(*l));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("explain: {e}");
            ExitCode::FAILURE
        }
    }
}
