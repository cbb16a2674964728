//! Regenerates every figure of the paper and prints a paper-vs-measured
//! report (the data behind EXPERIMENTS.md).
//!
//! Run with `cargo run --release -p jumpslice-bench --bin figures`.

use jumpslice_cfg::{cfg_dot, Cfg};
use jumpslice_core::baselines::{ball_horwitz_slice, gallagher_slice, jzr_slice, lyle_slice};
use jumpslice_core::{
    agrawal_slice, conservative_slice, conventional_slice, corpus, is_structured, structured_slice,
    Analysis, Criterion, Slice,
};
use jumpslice_interp::{check_projection, Input};
use jumpslice_lang::Program;
use jumpslice_pdg::{pdg_dot, Pdg};

struct Report {
    pass: usize,
    fail: usize,
}

impl Report {
    fn check(&mut self, what: &str, expected: &[usize], got: &Slice, p: &Program) {
        let lines = got.lines(p);
        if lines == expected {
            println!("  [ok]   {what}: {lines:?}");
            self.pass += 1;
        } else {
            println!("  [FAIL] {what}: expected {expected:?}, got {lines:?}");
            self.fail += 1;
        }
    }

    fn check_flag(&mut self, what: &str, ok: bool) {
        if ok {
            println!("  [ok]   {what}");
            self.pass += 1;
        } else {
            println!("  [FAIL] {what}");
            self.fail += 1;
        }
    }
}

fn main() {
    let mut r = Report { pass: 0, fail: 0 };
    let oracle_inputs = Input::family(10);

    println!("== F1/F2: Figure 1 (jump-free) ==");
    {
        let p = corpus::fig1();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(12));
        r.check(
            "conventional slice on positives@12 (Fig. 1-b)",
            &[2, 3, 4, 5, 7, 12],
            &conventional_slice(&a, &crit),
            &p,
        );
        let cfg = Cfg::build(&p);
        let pdg = Pdg::build(&p, &cfg);
        println!(
            "  graphs: flowgraph {} nodes / {} edges; DDG {} edges; CDG {} edges (Fig. 2)",
            cfg.graph().len(),
            cfg.graph().num_edges(),
            p.stmt_ids()
                .map(|s| pdg.data().deps(s).len())
                .sum::<usize>(),
            pdg.control().edges().count(),
        );
        // Machine-readable dumps, should anyone want to diff the drawings.
        let _ = (cfg_dot(&cfg, &p), pdg_dot(&pdg, &p));
    }

    println!("== F3/F4: Figure 3 (goto version) ==");
    {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(15));
        r.check(
            "conventional slice (Fig. 3-b)",
            &[2, 3, 4, 5, 8, 15],
            &conventional_slice(&a, &crit),
            &p,
        );
        let s = agrawal_slice(&a, &crit);
        r.check(
            "Figure 7 slice (Fig. 3-c)",
            &[2, 3, 4, 5, 7, 8, 13, 15],
            &s,
            &p,
        );
        r.check_flag("single traversal (§3)", s.traversals == 1);
        r.check_flag(
            "L14 re-associated to write(positives)",
            s.moved_labels == vec![(p.label("L14").unwrap(), Some(p.at_line(15)))],
        );
        r.check_flag(
            "oracle: Fig. 3-c replays the program",
            check_projection(&p, &s.stmts, &s.moved_labels, &oracle_inputs).is_ok(),
        );
        let c = conventional_slice(&a, &crit);
        r.check_flag(
            "oracle: Fig. 3-b does NOT",
            check_projection(&p, &c.stmts, &c.moved_labels, &oracle_inputs).is_err(),
        );
    }

    println!("== F5/F6: Figure 5 (continue version) ==");
    {
        let p = corpus::fig5();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(14));
        r.check(
            "conventional slice (Fig. 5-b)",
            &[2, 3, 4, 5, 8, 14],
            &conventional_slice(&a, &crit),
            &p,
        );
        r.check(
            "Figure 7 slice (Fig. 5-c)",
            &[2, 3, 4, 5, 7, 8, 14],
            &agrawal_slice(&a, &crit),
            &p,
        );
        r.check_flag("program is structured (§4)", is_structured(&a));
        r.check(
            "Figure 12 slice agrees",
            &[2, 3, 4, 5, 7, 8, 14],
            &structured_slice(&a, &crit),
            &p,
        );
        r.check(
            "Figure 13 slice agrees here too",
            &[2, 3, 4, 5, 7, 8, 14],
            &conservative_slice(&a, &crit),
            &p,
        );
    }

    println!("== F8/F9: Figure 8 (direct gotos) ==");
    {
        let p = corpus::fig8();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(15));
        let s = agrawal_slice(&a, &crit);
        r.check(
            "Figure 7 slice (Fig. 8-c): jumps 7/11/13 + predicate 9",
            &[2, 3, 4, 5, 7, 8, 9, 11, 13, 15],
            &s,
            &p,
        );
        r.check_flag("single traversal (§3)", s.traversals == 1);
    }

    println!("== F10/F11: Figure 10 (two traversals) ==");
    {
        let p = corpus::fig10();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(9));
        let s = agrawal_slice(&a, &crit);
        r.check("Figure 7 slice (Fig. 10-b)", &[1, 2, 3, 4, 7, 9], &s, &p);
        r.check_flag("needs exactly two traversals (§3)", s.traversals == 2);
        r.check_flag(
            "contains the (4, 7) pdom/lexsucc pair (Fig. 11)",
            jumpslice_core::has_pdom_lexsucc_pair(&a),
        );
    }

    println!("== F14/F15: Figure 14 (switch; Fig. 12 vs Fig. 13) ==");
    {
        let p = corpus::fig14();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(9));
        r.check(
            "Figure 12 slice (Fig. 14-b)",
            &[1, 3, 4, 9],
            &structured_slice(&a, &crit),
            &p,
        );
        r.check(
            "Figure 13 slice (Fig. 14-c): extra breaks 5 and 7",
            &[1, 3, 4, 5, 7, 9],
            &conservative_slice(&a, &crit),
            &p,
        );
    }

    println!("== F16: Figure 16 (Gallagher counterexample) ==");
    {
        let p = corpus::fig16();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(10));
        r.check(
            "Gallagher slice (Fig. 16-b, misses goto 4)",
            &[1, 2, 3, 5, 10],
            &gallagher_slice(&a, &crit),
            &p,
        );
        let s = agrawal_slice(&a, &crit);
        r.check("correct slice (Fig. 16-c)", &[1, 2, 3, 4, 5, 10], &s, &p);
        r.check_flag(
            "L6 re-associated to write(y)",
            s.moved_labels == vec![(p.label("L6").unwrap(), Some(p.at_line(10)))],
        );
    }

    println!("== RW: §5 related-work claims ==");
    {
        let p = corpus::fig5();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(14));
        r.check(
            "Lyle on Fig. 5 keeps continue 11 and predicate 9",
            &[2, 3, 4, 5, 7, 8, 9, 11, 14],
            &lyle_slice(&a, &crit),
            &p,
        );
        r.check(
            "Gallagher correct on Fig. 5",
            &[2, 3, 4, 5, 7, 8, 14],
            &gallagher_slice(&a, &crit),
            &p,
        );
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(15));
        let ly = lyle_slice(&a, &crit);
        r.check_flag(
            "Lyle on Fig. 3 keeps all gotos and predicates",
            [3, 5, 7, 9, 11, 13]
                .iter()
                .all(|l| ly.lines(&p).contains(l)),
        );
        let p = corpus::fig8();
        let a = Analysis::new(&p);
        let crit = Criterion::at_stmt(p.at_line(15));
        r.check(
            "Jiang–Zhou–Robson on Fig. 8 misses gotos 11 and 13",
            &[2, 3, 4, 5, 7, 8, 15],
            &jzr_slice(&a, &crit),
            &p,
        );
    }

    println!("== EQ: §3 equivalence with Ball–Horwitz ==");
    {
        let mut all_eq = true;
        for (_, p, _) in corpus::all() {
            let a = Analysis::new(&p);
            for line in 1..=p.len() {
                let crit = Criterion::at_stmt(p.at_line(line));
                all_eq &= agrawal_slice(&a, &crit).stmts == ball_horwitz_slice(&a, &crit).stmts;
            }
        }
        r.check_flag(
            "Figure 7 ≡ Ball–Horwitz on every criterion of every figure",
            all_eq,
        );
        println!(
            "  note: on adversarial generated goto programs the equivalence weakens to\n\
             \u{20}  Ball–Horwitz ⊆ Figure 7 (sound over-approximation) — see\n\
             \u{20}  tests/extension_gaps.rs and EXPERIMENTS.md, finding 3."
        );
    }

    println!("\n{} checks passed, {} failed", r.pass, r.fail);
    if r.fail > 0 {
        std::process::exit(1);
    }
}
