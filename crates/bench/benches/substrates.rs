//! Microbenchmarks for every substrate the slicer stands on: parsing, CFG
//! construction, the data half of the PDG (reaching definitions in
//! factored form: φ placement and renaming), control dependence, the
//! lexical successor tree, and the interpreter. These bound where end-to-end time
//! goes and catch regressions in any one layer.

use jumpslice_bench::harness::Runner;
use jumpslice_bench::sized_structured;
use jumpslice_cfg::Cfg;
use jumpslice_dataflow::DataDeps;
use jumpslice_interp::{run, Input};
use jumpslice_lang::{parse, print_program};
use jumpslice_pdg::ControlDeps;
use std::hint::black_box;

const SIZES: &[usize] = &[100, 400, 1600];

fn main() {
    let mut r = Runner::from_args();
    for &size in SIZES {
        let p = sized_structured(size);
        let src = print_program(&p);
        let cfg = Cfg::build(&p);
        let n = p.len();

        r.bench(&format!("substrates/parse/{n}"), || {
            black_box(parse(black_box(&src)).unwrap())
        });
        r.bench(&format!("substrates/cfg-build/{n}"), || {
            black_box(Cfg::build(black_box(&p)))
        });
        r.bench(&format!("substrates/data-deps/{n}"), || {
            black_box(DataDeps::compute(black_box(&p), &cfg))
        });
        r.bench(&format!("substrates/control-deps/{n}"), || {
            black_box(ControlDeps::compute(black_box(&p), &cfg))
        });
        r.bench(&format!("substrates/lexsucc-tree/{n}"), || {
            black_box(jumpslice_core::LexSuccTree::build(black_box(&p)))
        });
        let input = Input {
            fuel: 20_000,
            ..Input::default()
        };
        r.bench(&format!("substrates/interp-run/{n}"), || {
            black_box(run(black_box(&p), &input))
        });
    }
    r.finish();
}
