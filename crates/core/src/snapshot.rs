//! The analysis-snapshot codec: a program ⇄ a flat byte payload.
//!
//! A snapshot is a program: the source text it was parsed from and the
//! parsed [`Program`] in wire form (intern tables, statement arena, block
//! tree, label map). The daemon's snapshot store persists these payloads
//! so a restarted process can open a session on a known program without
//! parsing it.
//!
//! Two properties make the format safe:
//!
//! * **The program travels; what it determines does not.** The record
//!   stores the parsed program because decoding it beats parsing its
//!   source by 1.9–2.1× (EXPERIMENTS.md, "One builder (store format
//!   7)"). Everything that follows from the program is built, never
//!   stored: the decoder builds the flowgraph ([`Cfg::build`]), as a cold
//!   load does, and [`crate::Analysis`] builds the postdominator tree, the
//!   PDG, the lexical successor tree and the chain index on first use,
//!   under its own phases, so a record holds nothing that could disagree
//!   with its program. The source stays embedded because callers that map
//!   snapshots by content hash must compare it against the request's
//!   source byte-for-byte — that comparison, not the hash, is what makes
//!   a key collision harmless.
//! * **Decoding validates, never trusts.** Every count is bounded, every
//!   index is range-checked, and the decoded program must pass
//!   [`Program::from_parts`]'s audit (block-tree bijection, label
//!   consistency, intern-table well-formedness, and the parser's jump and
//!   switch-guard rules) and nest no deeper than the parser's
//!   [`MAX_DEPTH`]; any violation is a [`SnapshotError`] — the caller
//!   falls back to analyzing from source. That the program really is the
//!   parse of the embedded source is the job of the store's whole-record
//!   checksum one layer up; this module only defines the payload.
//!
//! The encoding is little-endian throughout: counts and indices as `u32`
//! (`u32::MAX` = "none"), tags as single bytes, strings length-prefixed.

use crate::wire::{self, Reader};
use crate::{AnalysisSeed, SlicePoint};
use jumpslice_cfg::Cfg;
use jumpslice_lang::{
    BinOp, CaseGuard, Expr, Label, Name, Program, Stmt, StmtId, StmtKind, SwitchArm, UnOp,
    MAX_DEPTH,
};
use jumpslice_obs as obs;
use std::fmt;

/// Why a snapshot payload was rejected. Every variant is a clean "rebuild
/// from source instead" signal; none of them is a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A field ended early, a count exceeded its bound, an index was out of
    /// range, the program section failed its audit, or trailing bytes
    /// followed the program section.
    Malformed,
    /// The embedded source text is not UTF-8.
    BadSource,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SnapshotError::Malformed => "malformed snapshot payload",
            SnapshotError::BadSource => "embedded source is not UTF-8",
        })
    }
}

impl std::error::Error for SnapshotError {}

/// A decoded snapshot: the embedded source, its decoded program, and the
/// program's flowgraph, ready for [`crate::Analysis::with_seed`].
#[derive(Debug)]
pub struct Snapshot {
    /// The program text the record was written for.
    pub source: String,
    /// The embedded program, decoded from its wire form (never re-parsed).
    /// For payloads produced by [`encode_snapshot`] this is equal to the
    /// parse of `source`, statement ids and all — parsing is deterministic
    /// and the encoder reads the parts straight off the parsed program.
    pub prog: Program,
    /// The flowgraph of `prog`, built by the decoder as a cold load builds
    /// it. Every other field is `None`: the first analysis of the program
    /// builds those artifacts when a request reads them.
    pub seed: AnalysisSeed,
}

/// Serializes `prog`, with its source `source` embedded, into a snapshot
/// payload. `prog` must be the parse of `source`. A record holds no
/// artifact, so `_seed` is unused; the argument stays while jsbench's
/// trace mirror (`jsbench/src/trace.rs`), which passes a session's seed,
/// is still built against this signature.
pub fn encode_snapshot(source: &str, prog: &Program, _seed: &AnalysisSeed) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_bytes(&mut out, source.as_bytes());
    encode_program(&mut out, prog);
    out
}

/// Decodes a snapshot payload, validating the program section as
/// [`Program::from_parts`] does (and its nesting against [`MAX_DEPTH`]),
/// and builds the decoded program's flowgraph, nothing more. Whether every
/// statement can reach the exit is not checked here: the flowgraph records
/// the verdict, and the session opened on the program refuses it as a
/// cold load would. Any malformation is an error, not a panic; the caller
/// is expected to fall back to a from-source build.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    use SnapshotError::*;
    let decode = obs::phase(obs::Phase::SnapshotDecode);
    let mut r = Reader::new(bytes);
    let source = std::str::from_utf8(r.byte_str().ok_or(Malformed)?)
        .map_err(|_| BadSource)?
        .to_owned();
    let prog = decode_program(&mut r)?;
    if r.remaining() != 0 {
        return Err(Malformed);
    }
    drop(decode);
    let seed = AnalysisSeed {
        cfg: Some(Cfg::build(&prog)),
        ..AnalysisSeed::default()
    };
    Ok(Snapshot { source, prog, seed })
}

// ---- program section ---------------------------------------------------
//
// Ids in this section are *raw* — not range-checked as they are read.
// `Program::from_parts` audits every one of them in a single pass at the
// end, so the readers here only bound counts (each element costs at least
// its wire size) to keep hostile lengths from becoming giant allocations.

fn encode_program(out: &mut Vec<u8>, prog: &Program) {
    wire::put_len(out, prog.num_names());
    for n in prog.all_names() {
        wire::put_bytes(out, prog.name_str(n).as_bytes());
    }
    wire::put_len(out, prog.num_labels());
    for l in prog.all_labels() {
        wire::put_bytes(out, prog.label_str(l).as_bytes());
    }
    for l in prog.all_labels() {
        put_opt_stmt(out, prog.label_target(l));
    }
    wire::put_len(out, prog.len());
    for s in prog.stmt_ids() {
        encode_stmt(out, prog.stmt(s), prog.labels_of(s));
    }
    wire::put_len(out, prog.body().len());
    for &s in prog.body() {
        wire::put_len(out, s.index());
    }
}

fn decode_program(r: &mut Reader<'_>) -> Result<Program, SnapshotError> {
    use SnapshotError::Malformed;
    fn strings<'a>(r: &mut Reader<'a>) -> Result<Vec<&'a str>, SnapshotError> {
        let n = r.len(r.remaining() / 4).ok_or(Malformed)?;
        (0..n)
            .map(|_| std::str::from_utf8(r.byte_str().ok_or(Malformed)?).map_err(|_| Malformed))
            .collect()
    }
    let names = strings(r)?;
    let labels = strings(r)?;
    let label_targets = (0..labels.len())
        .map(|_| raw_opt_stmt(r))
        .collect::<Result<Vec<_>, _>>()?;
    // A statement costs at least tag + label count + line = 9 bytes.
    let n_stmts = r.len(r.remaining() / 9).ok_or(Malformed)?;
    let mut stmts = Vec::with_capacity(n_stmts);
    let mut attached = Vec::new();
    for id in (0..n_stmts).map(StmtId::from_index) {
        stmts.push(decode_stmt(r, id, &mut attached)?);
    }
    let body = raw_stmt_list(r)?.into_vec();
    let prog = Program::from_parts(stmts, body, &names, &labels, label_targets, attached)
        .ok_or(Malformed)?;
    // Walkers over statements recurse or hold per-level state, so a record
    // nests no deeper than any parse could.
    if prog.structure().depth() > MAX_DEPTH {
        return Err(Malformed);
    }
    Ok(prog)
}

fn put_stmt_ids(out: &mut Vec<u8>, ids: &[StmtId]) {
    wire::put_len(out, ids.len());
    for &s in ids {
        wire::put_len(out, s.index());
    }
}

fn put_opt_stmt(out: &mut Vec<u8>, s: SlicePoint) {
    match s {
        Some(t) => wire::put_len(out, t.index()),
        None => wire::put_u32(out, u32::MAX),
    }
}

fn encode_stmt(out: &mut Vec<u8>, s: &Stmt, labels: &[Label]) {
    match &s.kind {
        StmtKind::Assign { lhs, rhs } => {
            wire::put_u8(out, 0);
            wire::put_len(out, lhs.index());
            encode_expr(out, rhs);
        }
        StmtKind::Read { var } => {
            wire::put_u8(out, 1);
            wire::put_len(out, var.index());
        }
        StmtKind::Write { arg } => {
            wire::put_u8(out, 2);
            encode_expr(out, arg);
        }
        StmtKind::Skip => wire::put_u8(out, 3),
        StmtKind::If {
            cond,
            then_branch,
            else_branch,
        } => {
            wire::put_u8(out, 4);
            encode_expr(out, cond);
            put_stmt_ids(out, then_branch);
            put_stmt_ids(out, else_branch);
        }
        StmtKind::While { cond, body } => {
            wire::put_u8(out, 5);
            encode_expr(out, cond);
            put_stmt_ids(out, body);
        }
        StmtKind::DoWhile { body, cond } => {
            wire::put_u8(out, 6);
            put_stmt_ids(out, body);
            encode_expr(out, cond);
        }
        StmtKind::Switch { scrutinee, arms } => {
            wire::put_u8(out, 7);
            encode_expr(out, scrutinee);
            wire::put_len(out, arms.len());
            for arm in arms {
                wire::put_len(out, arm.guards.len());
                for g in &arm.guards {
                    match g {
                        CaseGuard::Case(v) => {
                            wire::put_u8(out, 0);
                            wire::put_u64(out, *v as u64);
                        }
                        CaseGuard::Default => wire::put_u8(out, 1),
                    }
                }
                put_stmt_ids(out, &arm.body);
            }
        }
        StmtKind::Goto { target } => {
            wire::put_u8(out, 8);
            wire::put_len(out, target.index());
        }
        StmtKind::CondGoto { cond, target } => {
            wire::put_u8(out, 9);
            encode_expr(out, cond);
            wire::put_len(out, target.index());
        }
        StmtKind::Break => wire::put_u8(out, 10),
        StmtKind::Continue => wire::put_u8(out, 11),
        StmtKind::Return { value } => {
            wire::put_u8(out, 12);
            match value {
                Some(e) => {
                    wire::put_u8(out, 1);
                    encode_expr(out, e);
                }
                None => wire::put_u8(out, 0),
            }
        }
    }
    wire::put_len(out, labels.len());
    for &l in labels {
        wire::put_len(out, l.index());
    }
    wire::put_u32(out, s.line);
}

/// Decodes statement `id`, appending its labels to `attached`.
fn decode_stmt(
    r: &mut Reader<'_>,
    id: StmtId,
    attached: &mut Vec<(StmtId, Label)>,
) -> Result<Stmt, SnapshotError> {
    use SnapshotError::Malformed;
    let kind = match r.u8().ok_or(Malformed)? {
        0 => StmtKind::Assign {
            lhs: raw_name(r)?,
            rhs: decode_expr(r, 0)?,
        },
        1 => StmtKind::Read { var: raw_name(r)? },
        2 => StmtKind::Write {
            arg: decode_expr(r, 0)?,
        },
        3 => StmtKind::Skip,
        4 => StmtKind::If {
            cond: decode_expr(r, 0)?,
            then_branch: raw_stmt_list(r)?,
            else_branch: raw_stmt_list(r)?,
        },
        5 => StmtKind::While {
            cond: decode_expr(r, 0)?,
            body: raw_stmt_list(r)?,
        },
        6 => StmtKind::DoWhile {
            body: raw_stmt_list(r)?,
            cond: decode_expr(r, 0)?,
        },
        7 => {
            let scrutinee = decode_expr(r, 0)?;
            let n_arms = r.len(r.remaining() / 4).ok_or(Malformed)?;
            let arms = (0..n_arms)
                .map(|_| decode_arm(r))
                .collect::<Result<_, _>>()?;
            StmtKind::Switch { scrutinee, arms }
        }
        8 => StmtKind::Goto {
            target: raw_label(r)?,
        },
        9 => StmtKind::CondGoto {
            cond: decode_expr(r, 0)?,
            target: raw_label(r)?,
        },
        10 => StmtKind::Break,
        11 => StmtKind::Continue,
        12 => StmtKind::Return {
            value: match r.u8().ok_or(Malformed)? {
                0 => None,
                1 => Some(decode_expr(r, 0)?),
                _ => return Err(Malformed),
            },
        },
        _ => return Err(Malformed),
    };
    let n_labels = r.len(r.remaining() / 4).ok_or(Malformed)?;
    for _ in 0..n_labels {
        attached.push((id, raw_label(r)?));
    }
    let line = r.u32().ok_or(Malformed)?;
    Ok(Stmt { kind, line })
}

fn decode_arm(r: &mut Reader<'_>) -> Result<SwitchArm, SnapshotError> {
    use SnapshotError::Malformed;
    let n_guards = r.len(r.remaining()).ok_or(Malformed)?;
    let guards = (0..n_guards)
        .map(|_| {
            Ok(match r.u8().ok_or(Malformed)? {
                0 => CaseGuard::Case(r.u64().ok_or(Malformed)? as i64),
                1 => CaseGuard::Default,
                _ => return Err(Malformed),
            })
        })
        .collect::<Result<_, SnapshotError>>()?;
    let body = raw_stmt_list(r)?;
    Ok(SwitchArm { guards, body })
}

fn encode_expr(out: &mut Vec<u8>, e: &Expr) {
    match e {
        Expr::Num(v) => {
            wire::put_u8(out, 0);
            wire::put_u64(out, *v as u64);
        }
        Expr::Var(n) => {
            wire::put_u8(out, 1);
            wire::put_len(out, n.index());
        }
        Expr::Unary(op, a) => {
            wire::put_u8(out, 2);
            wire::put_u8(out, un_op_code(*op));
            encode_expr(out, a);
        }
        Expr::Binary(op, l, r) => {
            wire::put_u8(out, 3);
            wire::put_u8(out, bin_op_code(*op));
            encode_expr(out, l);
            encode_expr(out, r);
        }
        Expr::Call(f, args) => {
            wire::put_u8(out, 4);
            wire::put_len(out, f.index());
            wire::put_len(out, args.len());
            for a in args {
                encode_expr(out, a);
            }
        }
    }
}

/// Decodes an expression whose root lies `depth` levels below its
/// statement. The decoder recurses over expressions (statement decoding is
/// flat), so hostile bytes must not get to choose the recursion depth:
/// trees taller than the parser's [`MAX_DEPTH`] are rejected, and every
/// tree the parser returns is accepted.
fn decode_expr(r: &mut Reader<'_>, depth: usize) -> Result<Expr, SnapshotError> {
    use SnapshotError::Malformed;
    if depth >= MAX_DEPTH {
        return Err(Malformed);
    }
    Ok(match r.u8().ok_or(Malformed)? {
        0 => Expr::Num(r.u64().ok_or(Malformed)? as i64),
        1 => Expr::Var(raw_name(r)?),
        2 => {
            let op = un_op(r.u8().ok_or(Malformed)?).ok_or(Malformed)?;
            Expr::Unary(op, Box::new(decode_expr(r, depth + 1)?))
        }
        3 => {
            let op = bin_op(r.u8().ok_or(Malformed)?).ok_or(Malformed)?;
            let lhs = Box::new(decode_expr(r, depth + 1)?);
            let rhs = Box::new(decode_expr(r, depth + 1)?);
            Expr::Binary(op, lhs, rhs)
        }
        4 => {
            let f = raw_name(r)?;
            let n_args = r.len(r.remaining()).ok_or(Malformed)?;
            let args = (0..n_args)
                .map(|_| decode_expr(r, depth + 1))
                .collect::<Result<_, _>>()?;
            Expr::Call(f, args)
        }
        _ => return Err(Malformed),
    })
}

fn un_op_code(op: UnOp) -> u8 {
    match op {
        UnOp::Neg => 0,
        UnOp::Not => 1,
    }
}

fn un_op(code: u8) -> Option<UnOp> {
    Some(match code {
        0 => UnOp::Neg,
        1 => UnOp::Not,
        _ => return None,
    })
}

fn bin_op_code(op: BinOp) -> u8 {
    match op {
        BinOp::Add => 0,
        BinOp::Sub => 1,
        BinOp::Mul => 2,
        BinOp::Div => 3,
        BinOp::Mod => 4,
        BinOp::Eq => 5,
        BinOp::Ne => 6,
        BinOp::Lt => 7,
        BinOp::Le => 8,
        BinOp::Gt => 9,
        BinOp::Ge => 10,
        BinOp::And => 11,
        BinOp::Or => 12,
    }
}

fn bin_op(code: u8) -> Option<BinOp> {
    Some(match code {
        0 => BinOp::Add,
        1 => BinOp::Sub,
        2 => BinOp::Mul,
        3 => BinOp::Div,
        4 => BinOp::Mod,
        5 => BinOp::Eq,
        6 => BinOp::Ne,
        7 => BinOp::Lt,
        8 => BinOp::Le,
        9 => BinOp::Gt,
        10 => BinOp::Ge,
        11 => BinOp::And,
        12 => BinOp::Or,
        _ => return None,
    })
}

fn raw_name(r: &mut Reader<'_>) -> Result<Name, SnapshotError> {
    let v = r.u32().ok_or(SnapshotError::Malformed)?;
    Ok(Name::from_index(v as usize))
}

fn raw_label(r: &mut Reader<'_>) -> Result<Label, SnapshotError> {
    let v = r.u32().ok_or(SnapshotError::Malformed)?;
    Ok(Label::from_index(v as usize))
}

fn raw_stmt(r: &mut Reader<'_>) -> Result<StmtId, SnapshotError> {
    let v = r.u32().ok_or(SnapshotError::Malformed)?;
    Ok(StmtId::from_index(v as usize))
}

/// A statement list, allocated to fit: each id costs its 4 bytes on the
/// wire, so the count bounds the allocation by the payload.
fn raw_stmt_list(r: &mut Reader<'_>) -> Result<Box<[StmtId]>, SnapshotError> {
    let len = r.len(r.remaining() / 4).ok_or(SnapshotError::Malformed)?;
    let mut list = Vec::with_capacity(len);
    for _ in 0..len {
        list.push(raw_stmt(r)?);
    }
    Ok(list.into_boxed_slice())
}

fn raw_opt_stmt(r: &mut Reader<'_>) -> Result<SlicePoint, SnapshotError> {
    let v = r.u32().ok_or(SnapshotError::Malformed)?;
    Ok(if v == u32::MAX {
        None
    } else {
        Some(StmtId::from_index(v as usize))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        agrawal_slice, conservative_slice, conventional_slice, structured_slice, Analysis,
        Criterion,
    };
    use jumpslice_lang::{parse, print_program};

    const GOTO_SRC: &str = "positives = 0;
L3: if (eof()) goto L14;
read(x);
if (x > 0) goto L8;
goto L3;
L8: positives = positives + 1;
goto L3;
L14: write(positives);";

    const DOWHILE_SRC: &str =
        "read(x); do { x = x + 1; if (c) break; y = 2; } while (x < 10); write(y);";

    const STRUCTURED_SRC: &str = "read(c); while (c) { read(c); } write(c);";

    fn warm_snapshot(src: &str) -> Vec<u8> {
        let prog = parse(src).unwrap();
        let a = Analysis::new(&prog);
        a.warm();
        let seed = a.into_seed();
        encode_snapshot(src, &prog, &seed)
    }

    /// The whole payload of `src`, written field by field: the source, then
    /// the program section.
    fn program_record(src: &str) -> Vec<u8> {
        let prog = parse(src).unwrap();
        let mut out = Vec::new();
        wire::put_bytes(&mut out, src.as_bytes());
        encode_program(&mut out, &prog);
        out
    }

    /// A decoded snapshot yields the same slices as a fresh analysis for
    /// every slicer. The decoder builds only the flowgraph, so the restored
    /// analysis builds what the fresh one builds, once each.
    #[test]
    fn round_trip_restores_the_slices_of_a_fresh_analysis() {
        for (src, line) in [(GOTO_SRC, 8), (DOWHILE_SRC, 7), (STRUCTURED_SRC, 4)] {
            let bytes = warm_snapshot(src);
            let snap = decode_snapshot(&bytes).expect("well-formed snapshot");
            assert_eq!(snap.source, src);
            // The decoded program *is* the parse — ids, interners, labels.
            assert_eq!(snap.prog, parse(src).unwrap(), "{src:?}");

            let restored = Analysis::with_seed(&snap.prog, snap.seed);
            let fresh_prog = parse(src).unwrap();
            let fresh = Analysis::new(&fresh_prog);
            let crit = Criterion::at_stmt(fresh_prog.at_line(line));
            let rcrit = Criterion::at_stmt(snap.prog.at_line(line));
            assert_eq!(
                agrawal_slice(&restored, &rcrit),
                agrawal_slice(&fresh, &crit)
            );
            assert_eq!(
                conventional_slice(&restored, &rcrit),
                conventional_slice(&fresh, &crit)
            );
            assert_eq!(
                conservative_slice(&restored, &rcrit),
                conservative_slice(&fresh, &crit)
            );
            assert_eq!(
                structured_slice(&restored, &rcrit),
                structured_slice(&fresh, &crit)
            );
            assert_eq!(restored.stats(), fresh.stats(), "{src:?}");
        }
    }

    /// A record is its source and its program section, whatever the
    /// analysis that wrote it had built, and the decoded seed holds the
    /// flowgraph only.
    #[test]
    fn records_carry_only_their_source_and_program() {
        for src in [GOTO_SRC, DOWHILE_SRC, STRUCTURED_SRC] {
            let prog = parse(src).unwrap();
            let cold = encode_snapshot(src, &prog, &Analysis::new(&prog).into_seed());
            assert_eq!(cold, program_record(src), "{src}");
            assert_eq!(warm_snapshot(src), cold, "{src}");
            let seed = decode_snapshot(&cold).unwrap().seed;
            assert!(seed.cfg.is_some(), "the decoder builds the flowgraph");
            assert_eq!(seed.reused_phases(), 0, "{src}");
            assert!(seed.chain_index.is_none() && seed.reaching.is_none());
        }
    }

    /// Records written before the program kept its labels in one table
    /// and its lists boxed, checked in as bytes: this build writes the same
    /// bytes and decodes them to the parsed program, so a store filled
    /// before an upgrade still restores after it.
    #[test]
    fn format_7_records_are_unchanged() {
        for (src, golden) in [
            (GOTO_SRC, &include_bytes!("testdata/goto.rec")[..]),
            (DOWHILE_SRC, &include_bytes!("testdata/dowhile.rec")[..]),
        ] {
            assert_eq!(program_record(src), golden, "{src}");
            let snap = decode_snapshot(golden).expect("a checked-in record decodes");
            assert_eq!(snap.source, src);
            assert_eq!(snap.prog, parse(src).unwrap(), "{src}");
        }
    }

    /// A `vars_at` slice on a restored analysis reads its criterion's
    /// nearest definitions or φs from the data half the analysis builds,
    /// and answers as a fresh analysis does.
    #[test]
    fn restored_analyses_answer_vars_slices_as_fresh_ones() {
        let snap = decode_snapshot(&warm_snapshot(GOTO_SRC)).unwrap();
        let a = Analysis::with_seed(&snap.prog, snap.seed);
        let positives = snap.prog.name("positives").unwrap();
        let crit = Criterion::vars_at(snap.prog.at_line(8), vec![positives]);
        let fresh_prog = parse(GOTO_SRC).unwrap();
        let fresh = Analysis::new(&fresh_prog);
        for _ in 0..2 {
            assert_eq!(agrawal_slice(&a, &crit), agrawal_slice(&fresh, &crit));
        }
        assert_eq!(a.stats(), fresh.stats());
    }

    /// Truncation at every prefix length is an error, never a panic — the
    /// store's length framing normally prevents this, but a torn write must
    /// still fail closed here.
    #[test]
    fn truncation_at_every_length_is_rejected() {
        let bytes = warm_snapshot(GOTO_SRC);
        for cut in 0..bytes.len() {
            assert!(
                decode_snapshot(&bytes[..cut]).is_err(),
                "truncation at {cut} must be rejected"
            );
        }
    }

    /// Nothing may follow the program section: not a stray byte, and not
    /// the presence word that format 6 wrote there.
    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = warm_snapshot(GOTO_SRC);
        bytes.push(0);
        assert_eq!(
            decode_snapshot(&bytes).err(),
            Some(SnapshotError::Malformed)
        );

        for word in [0, 1] {
            let mut format6 = program_record(STRUCTURED_SRC);
            wire::put_u32(&mut format6, word);
            assert_eq!(
                decode_snapshot(&format6).err(),
                Some(SnapshotError::Malformed)
            );
        }
    }

    #[test]
    fn non_utf8_source_and_garbage_program_sections_are_rejected() {
        // A source that is not UTF-8 text.
        let mut crafted = Vec::new();
        wire::put_bytes(&mut crafted, &[0xFF, 0xFE]);
        wire::put_u32(&mut crafted, 0);
        assert_eq!(
            decode_snapshot(&crafted).err(),
            Some(SnapshotError::BadSource)
        );

        // A valid source followed by bytes that are not a program section.
        let mut crafted = Vec::new();
        wire::put_bytes(&mut crafted, STRUCTURED_SRC.as_bytes());
        crafted.extend_from_slice(&[0xFF; 16]);
        assert_eq!(
            decode_snapshot(&crafted).err(),
            Some(SnapshotError::Malformed)
        );
    }

    /// A tampered program section that stays syntactically decodable must
    /// still fail [`Program::from_parts`]'s structural audit: point the
    /// label map at a statement that never claimed the label.
    #[test]
    fn structurally_lying_program_sections_are_rejected() {
        let src = "L: read(x); if (x) goto L; write(x);";
        let bytes = warm_snapshot(src);
        let prog = decode_snapshot(&bytes)
            .expect("untampered payload decodes")
            .prog;
        let target = prog
            .label_target(Label::from_index(0))
            .expect("fixture's label resolves");

        // Walk the layout to the first label-target entry: source, name
        // strings, label strings, then the target array.
        let mut pos = 4 + src.len() + 4;
        for n in prog.all_names() {
            pos += 4 + prog.name_str(n).len();
        }
        pos += 4;
        for l in prog.all_labels() {
            pos += 4 + prog.label_str(l).len();
        }
        assert_eq!(
            bytes[pos..pos + 4],
            (target.index() as u32).to_le_bytes(),
            "layout walk landed on the label-target entry"
        );
        let mut tampered = bytes.clone();
        tampered[pos..pos + 4].copy_from_slice(&((target.index() as u32) ^ 1).to_le_bytes());
        assert_eq!(
            decode_snapshot(&tampered).err(),
            Some(SnapshotError::Malformed),
            "a lying label map must not survive the audit"
        );
    }

    /// Programs nested exactly to the parser's bound decode again (the
    /// decoder's expression bound is the parser's), so every record the
    /// daemon writes for a program it parsed can be read back. A tree one
    /// level taller, which only a builder can make, is malformed.
    #[test]
    fn programs_at_the_nesting_bound_round_trip() {
        let sum = vec!["y"; MAX_DEPTH].join(" + ");
        let negations = "-".repeat(MAX_DEPTH - 1);
        let (open, close) = ("if (x) {".repeat(MAX_DEPTH - 1), "}".repeat(MAX_DEPTH - 1));
        for src in [
            format!("read(y); x = {sum}; write(x);"),
            format!("read(y); x = {negations}y; write(x);"),
            format!("read(x); {open}x = 1;{close} write(x);"),
        ] {
            let prog = parse(&src).expect("a program at the bound parses");
            let snap = decode_snapshot(&warm_snapshot(&src)).expect("and decodes");
            assert_eq!(snap.prog, prog);
        }

        let mut b = jumpslice_lang::ProgramBuilder::new();
        let mut e = b.var("y");
        for _ in 0..MAX_DEPTH {
            e = Expr::Unary(UnOp::Neg, Box::new(e));
        }
        b.assign("x", e);
        let prog = b.build().unwrap();
        let seed = Analysis::new(&prog).into_seed();
        assert_eq!(
            decode_snapshot(&encode_snapshot("", &prog, &seed)).err(),
            Some(SnapshotError::Malformed)
        );
    }

    /// Statements nested in `MAX_DEPTH` compound statements, as deep as a
    /// parse goes, decode; one level deeper, which only a builder makes, is
    /// malformed.
    #[test]
    fn statement_nesting_past_the_bound_is_malformed() {
        let nest = |depth: usize| {
            let stmts: Vec<Stmt> = (0..depth)
                .map(|i| Stmt {
                    kind: StmtKind::While {
                        cond: Expr::Num(0),
                        body: Box::new([StmtId::from_index(i + 1)]),
                    },
                    line: i as u32 + 1,
                })
                .chain(std::iter::once(Stmt {
                    kind: StmtKind::Break,
                    line: depth as u32 + 1,
                }))
                .collect();
            let body = vec![StmtId::from_index(0)];
            let prog = Program::from_parts(stmts, body, &[], &[], vec![], vec![])
                .expect("a well-formed nest");
            assert_eq!(prog.structure().depth(), depth);
            encode_snapshot("", &prog, &AnalysisSeed::default())
        };
        let snap = decode_snapshot(&nest(MAX_DEPTH)).expect("a nest at the bound decodes");
        let a = Analysis::with_seed(&snap.prog, snap.seed);
        a.warm();
        assert_eq!(a.stats().chain_index_builds, 1, "and analyzes");
        assert_eq!(
            decode_snapshot(&nest(MAX_DEPTH + 1)).err(),
            Some(SnapshotError::Malformed)
        );
    }

    /// The decoder refuses no program for failing to reach the exit: the
    /// flowgraph it builds records the verdict, and the session opened on
    /// the program refuses it, as a cold load's does.
    #[test]
    fn records_of_an_unanalyzable_program_decode_with_their_verdict() {
        let src = "L: x = x + 1; goto L; write(x);";
        let prog = parse(src).unwrap();
        let snap = decode_snapshot(&encode_snapshot(src, &prog, &AnalysisSeed::default()))
            .expect("the program section is well formed");
        assert_eq!(snap.prog, prog);
        assert!(!snap.seed.cfg.expect("the flowgraph").all_reach_exit());
    }

    /// Every one-word rewrite of a record's program section (Figure 3's,
    /// and a do-while that ends in `break` and holds a `goto`) is refused, or decodes to an unanalyzable program, or
    /// decodes to a session that answers Figures 7, 12 and 13 at every
    /// line. A rewritten program may slice differently from its source (the
    /// store's checksum guards their fidelity), but no rewrite may panic or
    /// hang a slicer.
    #[test]
    fn one_word_rewrites_are_refused_or_answer_every_line() {
        let dowhile = "read(x); read(y); do { y = y + x; if (y) { goto OUT; } x = x - 1; break; } while (x); OUT: write(y); write(x);";
        for src in [print_program(&crate::corpus::fig3()), dowhile.to_owned()] {
            let bytes = warm_snapshot(&src);
            for at in 4 + src.len()..=bytes.len() - 4 {
                let word = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                for forged in [0, u32::MAX, word.wrapping_add(1), word.wrapping_sub(1)] {
                    let mut rewritten = bytes.clone();
                    rewritten[at..at + 4].copy_from_slice(&forged.to_le_bytes());
                    let Ok(snap) = decode_snapshot(&rewritten) else {
                        continue;
                    };
                    if !snap.seed.cfg.as_ref().is_some_and(Cfg::all_reach_exit) {
                        continue;
                    }
                    let a = Analysis::with_seed(&snap.prog, snap.seed);
                    for line in 1..=snap.prog.len() {
                        let crit = Criterion::at_stmt(snap.prog.at_line(line));
                        agrawal_slice(&a, &crit);
                        structured_slice(&a, &crit);
                        conservative_slice(&a, &crit);
                    }
                }
            }
        }
    }

    /// A payload that is well framed but whose program no parse could
    /// produce: `break; write(1);`, a top-level break. The program section
    /// fails `Program::from_parts`, so the payload is malformed; the same
    /// payload with a `;` in the break's place decodes.
    #[test]
    fn program_with_a_top_level_break_is_malformed() {
        let payload = |first: StmtKind| {
            let mut out = Vec::new();
            wire::put_bytes(&mut out, b"break; write(1);");
            wire::put_len(&mut out, 0); // names
            wire::put_len(&mut out, 0); // labels
            let stmts = [first, StmtKind::Write { arg: Expr::Num(1) }];
            wire::put_len(&mut out, stmts.len());
            for kind in stmts {
                encode_stmt(&mut out, &Stmt { kind, line: 1 }, &[]);
            }
            put_stmt_ids(&mut out, &[StmtId::from_index(0), StmtId::from_index(1)]);
            out
        };
        assert_eq!(
            decode_snapshot(&payload(StmtKind::Break)).unwrap_err(),
            SnapshotError::Malformed
        );
        assert!(decode_snapshot(&payload(StmtKind::Skip)).is_ok());
    }
}
