//! The output oracle. After timing stops, every recorded response is
//! checked against answers computed here, from the plan alone:
//!
//! - fig7 slices against `agrawal_slice` on an `Analysis` built here;
//! - degraded slices against `conservative_slice`;
//! - edits by replaying the chain's script with `apply_edit`: the returned
//!   key must be FNV-1a of `print_program` of the edited program;
//! - loads by key and statement count, and restores must say
//!   `restored: true`.
//!
//! Statements map to lines through [`Lines`], a table built here, never
//! through `Slice::lines`, so the oracle does not share the response
//! encoding it checks.

use crate::client::Record;
use crate::workload::{Check, Lines, Plan, State};
use jumpslice_core::{agrawal_slice, conservative_slice, Analysis, Criterion, SliceFn};
use jumpslice_incr::apply_edit;
use jumpslice_lang::print_program;
use jumpslice_obs::Json;
use jumpslice_serve::{content_hash, key_string};
use std::collections::{BTreeMap, BTreeSet, HashMap};

pub struct Verdict {
    /// Ops checked.
    pub attempted: usize,
    /// Ops with a missing response, an `ok: false`, or a wrong answer.
    pub failed: usize,
    /// The first few failures, for the log.
    pub messages: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// The criteria a program state must be sliced at.
#[derive(Default)]
struct Need {
    fig7: BTreeSet<usize>,
    fig13: BTreeSet<usize>,
}

struct Answer {
    key: u64,
    stmts: usize,
    fig7: HashMap<usize, Vec<usize>>,
    fig13: HashMap<usize, Vec<usize>>,
}

pub fn check(plan: &Plan, records: &[Record]) -> Verdict {
    let mut needs: BTreeMap<State, Need> = BTreeMap::new();
    for r in records {
        let op = &plan.ops(r.phase, r.conn)[r.op];
        for req in op.reqs.iter().take(r.responses.len()) {
            match &req.check {
                Check::Load { state, .. } | Check::Edit { state, .. } => {
                    needs.entry(*state).or_default();
                }
                Check::Slice {
                    state,
                    lines,
                    degraded,
                } => {
                    let need = needs.entry(*state).or_default();
                    let set = if *degraded {
                        &mut need.fig13
                    } else {
                        &mut need.fig7
                    };
                    set.extend(lines.iter().copied());
                }
            }
        }
    }
    let answers = answer_all(plan, &needs);

    let mut verdict = Verdict {
        attempted: records.len(),
        failed: 0,
        messages: Vec::new(),
    };
    for r in records {
        let op = &plan.ops(r.phase, r.conn)[r.op];
        let mut problem = None;
        for (i, req) in op.reqs.iter().enumerate() {
            let found = match r.responses.get(i) {
                Some(Some(resp)) => check_one(&req.check, resp, &answers),
                _ => Err("no response".to_owned()),
            };
            if let Err(why) = found {
                problem = Some(format!(
                    "{:?} round {} conn {} op {} request {i}: {why}",
                    r.phase, r.round, r.conn, r.op
                ));
                break;
            }
        }
        if let Some(msg) = problem {
            verdict.failed += 1;
            if verdict.messages.len() < 10 {
                verdict.messages.push(msg);
            }
        }
    }
    verdict
}

/// Computes every needed answer, walking each chain's edit script once;
/// chains are split over two threads.
fn answer_all(plan: &Plan, needs: &BTreeMap<State, Need>) -> HashMap<State, Answer> {
    let mut last_step: BTreeMap<usize, usize> = BTreeMap::new();
    for s in needs.keys() {
        let e = last_step.entry(s.chain).or_default();
        *e = (*e).max(s.step);
    }
    let chains: Vec<(usize, usize)> = last_step.into_iter().collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|t| {
                let mine: Vec<(usize, usize)> = chains.iter().copied().skip(t).step_by(2).collect();
                scope.spawn(move || {
                    let mut out = HashMap::new();
                    for (chain, last) in mine {
                        let c = &plan.chains[chain];
                        let mut prog = c.shape.generate(c.gen_seed, &plan.scale);
                        for step in 0..=last {
                            if step > 0 {
                                prog = apply_edit(&prog, &c.edits[step - 1])
                                    .expect("edits were validated when planned")
                                    .prog;
                            }
                            let state = State { chain, step };
                            if let Some(need) = needs.get(&state) {
                                out.insert(state, answer(&prog, need));
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle threads do not panic"))
            .collect()
    })
}

fn answer(prog: &jumpslice_lang::Program, need: &Need) -> Answer {
    let lines = Lines::of(prog);
    let a = Analysis::new(prog);
    let slice_lines = |algo: SliceFn, criterion: usize| {
        let s = algo(&a, &Criterion::at_stmt(lines.stmt(criterion)));
        let mut out: Vec<usize> = s.stmts.iter().map(|t| lines.line(t)).collect();
        out.sort_unstable();
        out
    };
    Answer {
        key: content_hash(&print_program(prog)),
        stmts: prog.len(),
        fig7: need
            .fig7
            .iter()
            .map(|&l| (l, slice_lines(agrawal_slice, l)))
            .collect(),
        fig13: need
            .fig13
            .iter()
            .map(|&l| (l, slice_lines(conservative_slice, l)))
            .collect(),
    }
}

fn field<'j>(j: &'j Json, key: &str) -> Result<&'j Json, String> {
    j.get(key).ok_or_else(|| format!("response lacks '{key}'"))
}

fn expect_eq<T: PartialEq + std::fmt::Debug>(what: &str, got: T, want: T) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, want {want:?}"))
    }
}

fn check_one(check: &Check, resp: &str, answers: &HashMap<State, Answer>) -> Result<(), String> {
    let j = Json::parse(resp).map_err(|e| format!("response is not JSON ({e})"))?;
    if j.get("ok").and_then(Json::as_bool) != Some(true) {
        return Err(format!("not ok: {resp}"));
    }
    let (Check::Load { state, .. } | Check::Slice { state, .. } | Check::Edit { state, .. }) =
        check;
    let ans = &answers[state];
    match check {
        Check::Load { restored, .. } => {
            expect_eq(
                "program",
                field(&j, "program")?.as_str(),
                Some(&*key_string(ans.key)),
            )?;
            expect_eq(
                "stmts",
                field(&j, "stmts")?.as_num(),
                Some(ans.stmts as f64),
            )?;
            expect_eq(
                "restored",
                field(&j, "restored")?.as_bool(),
                Some(*restored),
            )
        }
        Check::Edit { path, .. } => {
            expect_eq(
                "program",
                field(&j, "program")?.as_str(),
                Some(&*key_string(ans.key)),
            )?;
            expect_eq("path", field(&j, "path")?.as_str(), Some(*path))?;
            expect_eq(
                "stmts",
                field(&j, "stmts")?.as_num(),
                Some(ans.stmts as f64),
            )
        }
        Check::Slice {
            lines, degraded, ..
        } => {
            expect_eq(
                "degraded",
                field(&j, "degraded")?.as_bool(),
                Some(*degraded),
            )?;
            let slices = field(&j, "slices")?
                .as_arr()
                .ok_or("'slices' is not an array")?;
            expect_eq("slice count", slices.len(), lines.len())?;
            let want = if *degraded { &ans.fig13 } else { &ans.fig7 };
            for (s, &criterion) in slices.iter().zip(lines) {
                expect_eq(
                    "criterion line",
                    field(s, "line")?.as_num(),
                    Some(criterion as f64),
                )?;
                let got: Vec<f64> = field(s, "lines")?
                    .as_arr()
                    .ok_or("'lines' is not an array")?
                    .iter()
                    .map(|n| n.as_num().unwrap_or(f64::NAN))
                    .collect();
                let expected: Vec<f64> = want[&criterion].iter().map(|&l| l as f64).collect();
                if got != expected {
                    return Err(format!(
                        "slice at line {criterion}: {} lines served, {} expected, first difference at {:?}",
                        got.len(),
                        expected.len(),
                        got.iter().zip(&expected).position(|(a, b)| a != b)
                    ));
                }
            }
            Ok(())
        }
    }
}

/// Corrupts one line number in the first non-empty recorded slice response,
/// proving the oracle catches a wrong answer (`run --self-test`).
pub fn inject_fault(records: &mut [Record]) -> bool {
    const MARK: &str = r#""lines":["#;
    for resp in records
        .iter_mut()
        .flat_map(|r| r.responses.iter_mut().flatten())
    {
        let Some(at) = resp.find(MARK).map(|i| i + MARK.len()) else {
            continue;
        };
        let digits = resp[at..].bytes().take_while(u8::is_ascii_digit).count();
        if digits == 0 {
            continue;
        }
        let n: u64 = resp[at..at + digits].parse().expect("digits parse");
        resp.replace_range(at..at + digits, &(n + 1).to_string());
        return true;
    }
    false
}
