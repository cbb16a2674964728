//! The reaching-definitions solver and the factored data dependences,
//! held to the dense gen/kill oracle in `jumpslice_difftest::oracle`: the
//! def-site numbering and every IN set bit for bit; every statement's
//! data dependences, expanded through the φs, against the explicit edges
//! filtered from the dense IN sets; every variable's reaching definitions
//! at every statement from the nearest definition or φ up the dominator
//! tree; and the seeds of `vars_at` criteria.
//!
//! Inputs: both generator families at 30–1000 statements with 1–12
//! variables (the structured family's defaults emit `do-while` and
//! `switch`), a straight-line program whose single variable has hundreds
//! of definition sites spread over several words, a labeled
//! `x = x + 1` that a `goto` loops back to, a use before any definition,
//! and dead code after a `goto`.

use jumpslice::prelude::*;
use jumpslice_cfg::Cfg;
use jumpslice_dataflow::{DataDeps, ReachingDefs, VarTable};
use jumpslice_difftest::oracle;
use jumpslice_graph::NodeId;
use jumpslice_lang::{Name, StmtKind};

fn assert_matches_oracle(p: &Program, what: &str) {
    let cfg = Cfg::build(p);
    let rd = ReachingDefs::compute(p, &cfg);
    let dense = oracle::reaching_dense(p, &cfg);
    assert_eq!(rd.def_sites(), dense.def_sites, "{what}: def sites");
    assert_eq!(rd.in_sets(), dense.in_sets, "{what}: IN sets");

    let dd = DataDeps::compute(p, &cfg);
    let want = oracle::data_deps_dense(p, &cfg, &dense);
    for s in p.stmt_ids() {
        assert_eq!(dd.deps(s), want[s.index()], "{what}: deps of {s:?}");
    }

    // The dense IN set of `node` restricted to the definitions of `vars`.
    let dense_at = |node: NodeId, vars: &[Name]| -> Vec<StmtId> {
        dense.in_sets[node.index()]
            .iter()
            .map(|bit| dense.def_sites[bit])
            .filter(|&d| vars.contains(&p.defs(d).expect("def site")))
            .collect()
    };
    let table = VarTable::of(p);
    let names: Vec<Name> = (0..table.len()).map(|i| table.var(i)).collect();
    for s in p.stmt_ids() {
        for &v in &names {
            assert_eq!(
                dd.reaching(p, &cfg, s, &[v]),
                dense_at(cfg.node(s), &[v]),
                "{what}: reaching definitions at {s:?}"
            );
        }
    }

    let a = Analysis::new(p);
    let mut all_vars: Vec<Name> = p.stmt_ids().filter_map(|s| p.defs(s)).collect();
    all_vars.sort();
    all_vars.dedup();
    for s in p.stmt_ids() {
        // A criterion may name a variable twice; its seeds stay distinct.
        for vars in [p.uses(s), all_vars.clone(), all_vars.repeat(2)] {
            let want = dense_at(cfg.node(s), &vars);
            let got = Criterion::vars_at(s, vars).seeds(&a);
            assert_eq!(got, want, "{what}: vars_at seeds at {s:?}");
        }
    }
}

fn has(p: &Program, pred: impl Fn(&StmtKind) -> bool) -> bool {
    p.stmt_ids().any(|s| pred(&p.stmt(s).kind))
}

#[test]
fn reaching_and_data_deps_match_the_dense_oracle() {
    let (mut dowhile, mut switch) = (false, false);
    for target_stmts in [30, 100, 300, 1000] {
        for num_vars in 1..=12 {
            let cfg = GenConfig {
                seed: (target_stmts * 31 + num_vars) as u64,
                target_stmts,
                num_vars,
                ..GenConfig::default()
            };
            for (family, p) in [
                ("structured", gen_structured(&cfg)),
                ("unstructured", gen_unstructured(&cfg)),
            ] {
                dowhile |= has(&p, |k| matches!(k, StmtKind::DoWhile { .. }));
                switch |= has(&p, |k| matches!(k, StmtKind::Switch { .. }));
                assert_matches_oracle(&p, &format!("{family} {target_stmts}/{num_vars}"));
            }
        }
    }
    assert!(
        dowhile && switch,
        "the corpus exercises do-while and switch"
    );

    let straight = format!("read(x); {} write(x);", "x = x + 1; ".repeat(300));
    assert_matches_oracle(&parse(&straight).unwrap(), "straight line");
    for src in [
        "L: x = x + 1; if (x < 9) goto L; write(x);",
        "write(x); y = x; x = 1; write(y); write(x);",
        "x = 1; goto L; x = x + 2; y = x; L: write(x); write(y);",
    ] {
        assert_matches_oracle(&parse(src).unwrap(), src);
    }
}
