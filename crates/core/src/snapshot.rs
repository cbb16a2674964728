//! The analysis-snapshot codec: [`AnalysisSeed`] ⇄ a flat byte payload.
//!
//! A snapshot captures everything expensive about a finished analysis — the
//! reaching-definitions solution, both PDG halves, the postdominator tree,
//! the lexical successor tree, and the sparse kernel's chain index — next
//! to the program source it was computed from. The daemon's snapshot store
//! persists these payloads so a restarted process can serve its first slice
//! without re-running any fixpoint.
//!
//! Two properties make the format safe and the restore fast:
//!
//! * **The program and its flowgraph travel with the artifacts.** An
//!   earlier draft of this codec stored only the source text and re-parsed
//!   it at decode time ("the source is the schema"), but the re-parse and
//!   flowgraph rebuild dominated restore latency — exactly the cost a
//!   snapshot exists to avoid. The payload therefore carries the parsed
//!   [`Program`] in wire form (intern tables, statement arena, block tree,
//!   label map) and the [`Cfg`] (successor lists, fall-throughs), next to
//!   the source text itself. The source stays embedded because callers
//!   that map snapshots by content hash must compare it against the
//!   request's source byte-for-byte — that comparison, not the hash, is
//!   what makes a key collision harmless.
//! * **Decoding validates, never trusts.** Every count is bounded, every
//!   index is range-checked, and the decoded program must pass
//!   [`Program::from_parts`]'s audit (block-tree bijection, label
//!   consistency, intern-table well-formedness, and the parser's jump and
//!   switch-guard rules); any violation is a [`SnapshotError`] — the
//!   caller falls back to analyzing from source.
//!   Semantic fidelity (that these artifacts really belong to this source)
//!   is the job of the store's whole-record checksum one layer up, and
//!   analyzability (every statement reaches the exit) is re-established by
//!   whoever builds a session from the seed; this module only defines the
//!   payload.
//!
//! The encoding is little-endian throughout: counts and indices as `u32`
//! (`u32::MAX` = "none"), tags as single bytes, strings length-prefixed,
//! bitsets as their capacity plus raw words.

use crate::wire::{self, Reader};
use crate::{AnalysisSeed, LexSuccTree, SlicePoint};
use jumpslice_cfg::Cfg;
use jumpslice_dataflow::{BitSet, DataDeps, ReachingDefs};
use jumpslice_graph::{DiGraph, DomTree, NodeId};
use jumpslice_lang::{
    BinOp, CaseGuard, Expr, Label, Name, Program, Stmt, StmtId, StmtKind, SwitchArm, UnOp,
    MAX_DEPTH,
};
use jumpslice_pdg::{ControlDeps, Pdg};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Why a snapshot payload was rejected. Every variant is a clean "rebuild
/// from source instead" signal; none of them is a panic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SnapshotError {
    /// A field ended early, a count exceeded its bound, an index was out of
    /// range, the program section failed its audit, or trailing bytes
    /// followed the last artifact.
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
/// restored artifacts ready for [`crate::Analysis::with_seed`].
#[derive(Debug)]
pub struct Snapshot {
    /// The program text the artifacts were computed from.
    pub source: String,
    /// The embedded program, decoded from its wire form (never re-parsed).
    /// For payloads produced by [`encode_snapshot`] this is equal to the
    /// parse of `source`, statement ids and all — parsing is deterministic
    /// and the encoder reads the parts straight off the parsed program.
    pub prog: Program,
    /// The restored artifacts (always includes the flowgraph; absent
    /// artifacts were never forced before the snapshot was taken).
    pub seed: AnalysisSeed,
}

const HAS_REACHING: u32 = 1 << 0;
const HAS_PDG: u32 = 1 << 1;
const HAS_PDOM: u32 = 1 << 2;
const HAS_LST: u32 = 1 << 3;
const HAS_CHAIN: u32 = 1 << 4;
const KNOWN_BITS: u32 = HAS_REACHING | HAS_PDG | HAS_PDOM | HAS_LST | HAS_CHAIN;

/// Serializes `seed`'s artifacts (with `source` and `prog` embedded) into a
/// snapshot payload. `prog` must be the parse of `source` that the seed's
/// artifacts were computed against; absent artifacts are simply skipped.
/// The flowgraph is encoded from the seed (or built here if the seed never
/// carried one) so the decoder can skip [`Cfg::build`] entirely.
pub fn encode_snapshot(source: &str, prog: &Program, seed: &AnalysisSeed) -> Vec<u8> {
    let mut out = Vec::new();
    wire::put_bytes(&mut out, source.as_bytes());
    encode_program(&mut out, prog);
    let built;
    let cfg = match &seed.cfg {
        Some(c) => c,
        None => {
            built = Cfg::build(prog);
            &built
        }
    };
    encode_cfg(&mut out, cfg);
    let mut bits = 0u32;
    for (bit, present) in [
        (HAS_REACHING, seed.reaching.is_some()),
        (HAS_PDG, seed.pdg.is_some()),
        (HAS_PDOM, seed.pdom.is_some()),
        (HAS_LST, seed.lst.is_some()),
        (HAS_CHAIN, seed.chain_index.is_some()),
    ] {
        if present {
            bits |= bit;
        }
    }
    wire::put_u32(&mut out, bits);
    if let Some(rd) = &seed.reaching {
        framed(&mut out, |out| encode_reaching(out, rd));
    }
    if let Some(pdg) = &seed.pdg {
        framed(&mut out, |out| encode_pdg(out, prog, pdg));
    }
    if let Some(pdom) = &seed.pdom {
        framed(&mut out, |out| encode_pdom(out, pdom));
    }
    if let Some(lst) = &seed.lst {
        framed(&mut out, |out| encode_lst(out, lst));
    }
    if let Some(ci) = &seed.chain_index {
        framed(&mut out, |out| ci.encode_into(out));
    }
    out
}

/// Encodes one artifact section behind a byte-length prefix, patched in
/// after the section body is written (no staging buffer). The prefix lets
/// the decoder split sections apart up front and check that each one is
/// consumed exactly.
fn framed(out: &mut Vec<u8>, body: impl FnOnce(&mut Vec<u8>)) {
    let mark = out.len();
    wire::put_u32(out, 0);
    body(out);
    let len = u32::try_from(out.len() - mark - 4).expect("section fits u32");
    out[mark..mark + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decodes a snapshot payload, validating the program section as
/// [`Program::from_parts`] does and every artifact against it. Any malformation is an error, not a
/// panic; the caller is expected to fall back to a from-source build.
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, SnapshotError> {
    use SnapshotError::*;
    let mut r = Reader::new(bytes);
    let source = std::str::from_utf8(r.byte_str().ok_or(Malformed)?)
        .map_err(|_| BadSource)?
        .to_owned();
    let prog = decode_program(&mut r)?;
    let cfg = decode_cfg(&mut r, prog.len())?;
    let bits = r.u32().ok_or(Malformed)?;
    if bits & !KNOWN_BITS != 0 {
        return Err(Malformed);
    }
    fn section<'a>(
        r: &mut Reader<'a>,
        bits: u32,
        bit: u32,
    ) -> Result<Option<&'a [u8]>, SnapshotError> {
        if bits & bit == 0 {
            return Ok(None);
        }
        let n = r.len(r.remaining()).ok_or(SnapshotError::Malformed)?;
        Ok(Some(r.bytes(n).ok_or(SnapshotError::Malformed)?))
    }
    let reaching_b = section(&mut r, bits, HAS_REACHING)?;
    let pdg_b = section(&mut r, bits, HAS_PDG)?;
    let pdom_b = section(&mut r, bits, HAS_PDOM)?;
    let lst_b = section(&mut r, bits, HAS_LST)?;
    let chain_b = section(&mut r, bits, HAS_CHAIN)?;
    if r.remaining() != 0 {
        return Err(Malformed);
    }

    let n = prog.len();
    let (reaching, pdg, pdom, lst, chain) = panic_as_malformed(|| {
        Ok((
            exact(reaching_b, |r| decode_reaching(r, &prog, &cfg))?,
            exact(pdg_b, |r| decode_pdg(r, n))?,
            exact(pdom_b, |r| decode_pdom(r, &cfg))?,
            exact(lst_b, |r| decode_lst(r, n))?,
            exact(chain_b, |r| {
                crate::sparse::ChainIndex::decode_from(r, n).ok_or(Malformed)
            })?,
        ))
    })?;

    let seed = AnalysisSeed {
        cfg: Some(cfg),
        pdom,
        pdg,
        lst,
        reaching,
        chain_index: chain,
    };
    Ok(Snapshot { source, prog, seed })
}

/// Runs the section decoders. A panicking decoder would be a bug, but the
/// store's contract is that a bad record degrades to a from-source
/// rebuild, so a panic classifies as malformed rather than failing the
/// caller's load.
fn panic_as_malformed<T>(
    decode: impl FnOnce() -> Result<T, SnapshotError>,
) -> Result<T, SnapshotError> {
    catch_unwind(AssertUnwindSafe(decode)).unwrap_or(Err(SnapshotError::Malformed))
}

/// Decodes one optional artifact section, which must be consumed exactly: a
/// length prefix lying either way about its section's extent is malformed.
fn exact<T>(
    bytes: Option<&[u8]>,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, SnapshotError>,
) -> Result<Option<T>, SnapshotError> {
    let Some(bytes) = bytes else { return Ok(None) };
    let mut r = Reader::new(bytes);
    let v = decode(&mut r)?;
    if r.remaining() == 0 {
        Ok(Some(v))
    } else {
        Err(SnapshotError::Malformed)
    }
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
        encode_stmt(out, prog.stmt(s));
    }
    wire::put_len(out, prog.body().len());
    for &s in prog.body() {
        wire::put_len(out, s.index());
    }
}

fn decode_program(r: &mut Reader<'_>) -> Result<Program, SnapshotError> {
    use SnapshotError::Malformed;
    fn utf8_string(r: &mut Reader<'_>) -> Result<String, SnapshotError> {
        Ok(std::str::from_utf8(r.byte_str().ok_or(Malformed)?)
            .map_err(|_| Malformed)?
            .to_owned())
    }
    let n_names = r.len(r.remaining() / 4).ok_or(Malformed)?;
    let names = (0..n_names)
        .map(|_| utf8_string(r))
        .collect::<Result<Vec<_>, _>>()?;
    let n_labels = r.len(r.remaining() / 4).ok_or(Malformed)?;
    let labels = (0..n_labels)
        .map(|_| utf8_string(r))
        .collect::<Result<Vec<_>, _>>()?;
    let label_targets = (0..n_labels)
        .map(|_| raw_opt_stmt(r))
        .collect::<Result<Vec<_>, _>>()?;
    // A statement costs at least tag + label count + line = 9 bytes.
    let n_stmts = r.len(r.remaining() / 9).ok_or(Malformed)?;
    let stmts = (0..n_stmts)
        .map(|_| decode_stmt(r))
        .collect::<Result<Vec<_>, _>>()?;
    let body = raw_stmt_list(r)?;
    Program::from_parts(stmts, body, names, labels, label_targets).ok_or(Malformed)
}

fn put_stmt_ids(out: &mut Vec<u8>, ids: &[StmtId]) {
    wire::put_len(out, ids.len());
    for &s in ids {
        wire::put_len(out, s.index());
    }
}

fn encode_stmt(out: &mut Vec<u8>, s: &Stmt) {
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
    wire::put_len(out, s.labels.len());
    for &l in &s.labels {
        wire::put_len(out, l.index());
    }
    wire::put_u32(out, s.line);
}

fn decode_stmt(r: &mut Reader<'_>) -> Result<Stmt, SnapshotError> {
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
                .collect::<Result<Vec<_>, _>>()?;
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
    let labels = (0..n_labels)
        .map(|_| raw_label(r))
        .collect::<Result<Vec<_>, _>>()?;
    let line = r.u32().ok_or(Malformed)?;
    Ok(Stmt { kind, labels, line })
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
        .collect::<Result<Vec<_>, SnapshotError>>()?;
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
                .collect::<Result<Vec<_>, _>>()?;
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

fn raw_stmt_list(r: &mut Reader<'_>) -> Result<Vec<StmtId>, SnapshotError> {
    let len = r.len(r.remaining() / 4).ok_or(SnapshotError::Malformed)?;
    (0..len).map(|_| raw_stmt(r)).collect()
}

fn raw_opt_stmt(r: &mut Reader<'_>) -> Result<SlicePoint, SnapshotError> {
    let v = r.u32().ok_or(SnapshotError::Malformed)?;
    Ok(if v == u32::MAX {
        None
    } else {
        Some(StmtId::from_index(v as usize))
    })
}

// ---- flowgraph section -------------------------------------------------

fn encode_cfg(out: &mut Vec<u8>, cfg: &Cfg) {
    let g = cfg.graph();
    for node in g.nodes() {
        let succs = g.succs(node);
        wire::put_len(out, succs.len());
        for &t in succs {
            wire::put_len(out, t.index());
        }
    }
    for node in g.nodes() {
        match cfg.fallthrough(node) {
            Some(t) => wire::put_len(out, t.index()),
            None => wire::put_u32(out, u32::MAX),
        }
    }
}

fn decode_cfg(r: &mut Reader<'_>, num_stmts: usize) -> Result<Cfg, SnapshotError> {
    use SnapshotError::Malformed;
    let n = num_stmts.checked_add(2).ok_or(Malformed)?;
    // Successors are distinct, so the node count bounds each list; bounds
    // and duplicate checks are `DiGraph::from_succs`'s audit.
    let mut succs = Vec::with_capacity(n);
    for _ in 0..n {
        let n_succ = r.len(n).ok_or(Malformed)?;
        let raw = r
            .bytes(n_succ.checked_mul(4).ok_or(Malformed)?)
            .ok_or(Malformed)?;
        succs.push(
            raw.chunks_exact(4)
                .map(|c| {
                    NodeId::new(u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")) as usize)
                })
                .collect::<Vec<_>>(),
        );
    }
    let graph = DiGraph::from_succs(succs).ok_or(Malformed)?;
    let fallthrough = (0..n)
        .map(|_| {
            let v = r.u32().ok_or(Malformed)?;
            if v == u32::MAX {
                Ok(None)
            } else if (v as usize) < n {
                Ok(Some(NodeId::new(v as usize)))
            } else {
                Err(Malformed)
            }
        })
        .collect::<Result<Vec<_>, _>>()?;
    Cfg::from_parts(num_stmts, graph, fallthrough).ok_or(Malformed)
}

// ---- artifact sections -------------------------------------------------

fn put_opt_stmt(out: &mut Vec<u8>, s: SlicePoint) {
    match s {
        Some(t) => wire::put_len(out, t.index()),
        None => wire::put_u32(out, u32::MAX),
    }
}

fn opt_stmt(r: &mut Reader<'_>, n: usize) -> Result<SlicePoint, SnapshotError> {
    let v = r.u32().ok_or(SnapshotError::Malformed)?;
    if v == u32::MAX {
        Ok(None)
    } else if (v as usize) < n {
        Ok(Some(StmtId::from_index(v as usize)))
    } else {
        Err(SnapshotError::Malformed)
    }
}

fn stmt_list(r: &mut Reader<'_>, n: usize) -> Result<Vec<StmtId>, SnapshotError> {
    use SnapshotError::Malformed;
    // Dep lists are deduplicated per statement, so `n` bounds their length.
    // Decoded in bulk: the PDG is quadratic in the worst case and its lists
    // dominate the artifact payload, so this is the hot path of a restore.
    let len = r.len(n).ok_or(Malformed)?;
    let raw = r
        .bytes(len.checked_mul(4).ok_or(Malformed)?)
        .ok_or(Malformed)?;
    let mut out = Vec::with_capacity(len);
    for c in raw.chunks_exact(4) {
        let v = u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")) as usize;
        if v >= n {
            return Err(Malformed);
        }
        out.push(StmtId::from_index(v));
    }
    Ok(out)
}

fn encode_reaching(out: &mut Vec<u8>, rd: &ReachingDefs) {
    let vars = rd.vars();
    wire::put_len(out, vars.len());
    for i in 0..vars.len() {
        wire::put_len(out, vars.var(i).index());
    }
    wire::put_len(out, rd.def_sites().len());
    for &d in rd.def_sites() {
        wire::put_len(out, d.index());
    }
    // Every IN set indexes `def_sites`, so one shared capacity implies each
    // set's word count — the sets travel as one contiguous word blob.
    wire::put_len(out, rd.in_sets().len());
    for set in rd.in_sets() {
        assert_eq!(
            set.capacity(),
            rd.def_sites().len(),
            "IN sets index the def-site numbering"
        );
        for &w in set.words() {
            wire::put_u64(out, w);
        }
    }
}

fn decode_reaching(
    r: &mut Reader<'_>,
    prog: &Program,
    cfg: &Cfg,
) -> Result<ReachingDefs, SnapshotError> {
    use SnapshotError::Malformed;
    // Vars travel as raw interner ids — the program section restored the
    // interner, so an id out of its range cannot belong here.
    let n_vars = r.len(r.remaining() / 4).ok_or(Malformed)?;
    let raw_vars = r.bytes(n_vars * 4).ok_or(Malformed)?;
    let mut vars = Vec::with_capacity(n_vars);
    for c in raw_vars.chunks_exact(4) {
        let v = u32::from_le_bytes(c.try_into().expect("chunks_exact(4)")) as usize;
        if v >= prog.num_names() {
            return Err(Malformed);
        }
        vars.push(Name::from_index(v));
    }
    let def_sites = stmt_list(r, prog.len())?;
    let n_sets = r.len(cfg.graph().len()).ok_or(Malformed)?;
    if n_sets != cfg.graph().len() {
        return Err(Malformed);
    }
    let cap = def_sites.len();
    let words_per_set = cap.div_ceil(64);
    let raw = r
        .bytes(n_sets.checked_mul(words_per_set * 8).ok_or(Malformed)?)
        .ok_or(Malformed)?;
    let in_sets = if words_per_set == 0 {
        vec![BitSet::new(0); n_sets]
    } else {
        raw.chunks_exact(words_per_set * 8)
            .map(|chunk| {
                let words = chunk
                    .chunks_exact(8)
                    .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")))
                    .collect();
                BitSet::from_words(cap, words)
            })
            .collect()
    };
    // Consumers read a variable's reaching definitions through the def-site
    // numbering, so a section whose sites or variables are not this
    // program's would answer for the wrong statements.
    ReachingDefs::from_parts(prog, &def_sites, in_sets, &vars).ok_or(Malformed)
}

fn encode_pdg(out: &mut Vec<u8>, prog: &Program, pdg: &Pdg) {
    wire::put_len(out, prog.len());
    for s in prog.stmt_ids() {
        let d = pdg.data().deps(s);
        wire::put_len(out, d.len());
        for &t in d {
            wire::put_len(out, t.index());
        }
    }
    for s in prog.stmt_ids() {
        let d = pdg.control().deps(s);
        wire::put_len(out, d.len());
        for &t in d {
            wire::put_len(out, t.index());
        }
    }
    let ec = pdg.control().entry_controlled();
    wire::put_len(out, ec.len());
    for &t in ec {
        wire::put_len(out, t.index());
    }
}

fn decode_pdg(r: &mut Reader<'_>, n: usize) -> Result<Pdg, SnapshotError> {
    use SnapshotError::Malformed;
    if r.len(n).ok_or(Malformed)? != n {
        return Err(Malformed);
    }
    let data_deps = (0..n)
        .map(|_| stmt_list(r, n))
        .collect::<Result<Vec<_>, _>>()?;
    let control_deps = (0..n)
        .map(|_| stmt_list(r, n))
        .collect::<Result<Vec<_>, _>>()?;
    let entry_controlled = stmt_list(r, n)?;
    Ok(Pdg::from_parts(
        DataDeps::from_deps(data_deps),
        ControlDeps::from_parts(control_deps, entry_controlled),
    ))
}

fn encode_pdom(out: &mut Vec<u8>, pdom: &DomTree) {
    let n = pdom.num_nodes();
    wire::put_len(out, n);
    wire::put_len(out, pdom.root().index());
    for i in 0..n {
        match pdom.idom(NodeId::new(i)) {
            Some(d) => wire::put_len(out, d.index()),
            None => wire::put_u32(out, u32::MAX),
        }
    }
}

fn decode_pdom(r: &mut Reader<'_>, cfg: &Cfg) -> Result<DomTree, SnapshotError> {
    use SnapshotError::Malformed;
    let n = cfg.graph().len();
    if r.len(n).ok_or(Malformed)? != n {
        return Err(Malformed);
    }
    let root = r.u32().ok_or(Malformed)? as usize;
    // The postdominator tree of this flowgraph is rooted at its exit; any
    // other root is a different graph's tree.
    if root != cfg.exit().index() {
        return Err(Malformed);
    }
    let idom = (0..n)
        .map(|_| {
            let v = r.u32().ok_or(Malformed)?;
            Ok(if v == u32::MAX {
                None
            } else {
                Some(NodeId::new(v as usize))
            })
        })
        .collect::<Result<Vec<_>, SnapshotError>>()?;
    DomTree::from_idom_array(n, cfg.exit(), idom).ok_or(Malformed)
}

fn encode_lst(out: &mut Vec<u8>, lst: &LexSuccTree) {
    let parents = lst.parents();
    wire::put_len(out, parents.len());
    for &p in parents {
        put_opt_stmt(out, p);
    }
}

fn decode_lst(r: &mut Reader<'_>, n: usize) -> Result<LexSuccTree, SnapshotError> {
    if r.len(n).ok_or(SnapshotError::Malformed)? != n {
        return Err(SnapshotError::Malformed);
    }
    let parents = (0..n)
        .map(|_| opt_stmt(r, n))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(LexSuccTree::from_parents(parents))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        agrawal_slice, conservative_slice, conventional_slice, structured_slice, Analysis,
        AnalysisStats, Criterion,
    };
    use jumpslice_lang::parse;

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

    /// A payload prefix that is valid through the program and flowgraph
    /// sections, for crafting targeted suffixes.
    fn valid_prefix(src: &str) -> Vec<u8> {
        let prog = parse(src).unwrap();
        let cfg = Cfg::build(&prog);
        let mut out = Vec::new();
        wire::put_bytes(&mut out, src.as_bytes());
        encode_program(&mut out, &prog);
        encode_cfg(&mut out, &cfg);
        out
    }

    /// The tentpole's core promise, at codec level: a decoded snapshot
    /// yields the same slices as a fresh analysis for every slicer, and the
    /// restored analysis performs **zero** artifact builds even after
    /// `warm()` — the restart genuinely skips the fixpoints.
    #[test]
    fn round_trip_restores_slices_without_any_rebuild() {
        for (src, line) in [(GOTO_SRC, 8), (DOWHILE_SRC, 7), (STRUCTURED_SRC, 4)] {
            let bytes = warm_snapshot(src);
            let snap = decode_snapshot(&bytes).expect("well-formed snapshot");
            assert_eq!(snap.source, src);
            // The decoded program *is* the parse — ids, interners, labels.
            assert_eq!(snap.prog, parse(src).unwrap(), "{src:?}");

            let restored = Analysis::with_seed(&snap.prog, snap.seed);
            restored.warm();
            assert_eq!(
                restored.stats(),
                AnalysisStats::default(),
                "restored analysis must not recompute anything ({src:?})"
            );

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
        }
    }

    /// Artifacts that were never forced stay absent through the round trip
    /// (the presence bitmap, not padding, carries the schema).
    #[test]
    fn partial_seeds_round_trip_their_presence() {
        let prog = parse(GOTO_SRC).unwrap();
        let a = Analysis::new(&prog);
        let _ = a.reaching(); // force exactly one artifact
        let seed = a.into_seed();
        let bytes = encode_snapshot(GOTO_SRC, &prog, &seed);
        let snap = decode_snapshot(&bytes).unwrap();
        assert!(snap.seed.reaching.is_some());
        assert!(snap.seed.pdg.is_none());
        assert!(snap.seed.pdom.is_none());
        assert!(snap.seed.lst.is_none());
        assert!(snap.seed.chain_index.is_none());
        assert!(snap.seed.cfg.is_some(), "the flowgraph always travels");
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

    #[test]
    fn trailing_garbage_and_unknown_presence_bits_are_rejected() {
        let mut bytes = warm_snapshot(GOTO_SRC);
        bytes.push(0);
        assert_eq!(
            decode_snapshot(&bytes).err(),
            Some(SnapshotError::Malformed)
        );

        let mut crafted = valid_prefix(STRUCTURED_SRC);
        wire::put_u32(&mut crafted, 1 << 31);
        assert_eq!(
            decode_snapshot(&crafted).err(),
            Some(SnapshotError::Malformed)
        );
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

    /// A reaching section must describe the embedded program: its def
    /// sites exactly the program's definition statements in statement
    /// order, its variable table the program's. A section solved for
    /// another program of the same shape, whose second site is this
    /// program's `write(y)`, would send `vars_at` seeds to a statement that
    /// defines nothing; a reordered variable table would read each
    /// variable's definitions from the other's words.
    #[test]
    fn reaching_sections_that_do_not_fit_the_program_are_rejected() {
        let src = "read(y); write(y); write(y);";
        let prog = parse(src).unwrap();
        let a = Analysis::new(&prog);
        a.warm();
        let mut seed = a.into_seed();
        let other = parse("read(y); read(y); write(y);").unwrap();
        seed.reaching = Some(ReachingDefs::compute(&other, &Cfg::build(&other)));
        assert_eq!(
            decode_snapshot(&encode_snapshot(src, &prog, &seed)).err(),
            Some(SnapshotError::Malformed)
        );

        let src = "read(x); read(y); write(x + y);";
        let bytes = warm_snapshot(src);
        // The variable count follows the prefix, the presence bits and the
        // section length; the two interner ids follow it.
        let at = valid_prefix(src).len() + 8;
        assert_eq!(bytes[at..at + 4], 2u32.to_le_bytes(), "two variables");
        let mut swapped = bytes.clone();
        swapped[at + 4..at + 8].copy_from_slice(&bytes[at + 8..at + 12]);
        swapped[at + 8..at + 12].copy_from_slice(&bytes[at + 4..at + 8]);
        assert_ne!(swapped, bytes);
        assert_eq!(
            decode_snapshot(&swapped).err(),
            Some(SnapshotError::Malformed)
        );
    }

    /// A section decoder that panics (a decoder bug, never expected) still
    /// yields `Malformed`, the rebuild-from-source signal, not an unwind.
    #[test]
    fn panicking_section_decoder_is_malformed() {
        let got = panic_as_malformed(|| {
            exact(Some(&[0u8][..]), |_| -> Result<(), _> {
                panic!("decoder bug")
            })
        });
        assert_eq!(got, Err(SnapshotError::Malformed));
        let fine = panic_as_malformed(|| exact(Some(&[][..]), |_| Ok(7)));
        assert_eq!(fine, Ok(Some(7)));
    }

    /// A payload that is well framed, with a flowgraph section of the right
    /// shape and no artifact sections, but whose program no parse could
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
                let s = Stmt {
                    kind,
                    labels: vec![],
                    line: 1,
                };
                encode_stmt(&mut out, &s);
            }
            put_stmt_ids(&mut out, &[StmtId::from_index(0), StmtId::from_index(1)]);
            // Entry 0, exit 1, the break 2 (falling through to 3), the
            // write 3.
            let n = NodeId::new;
            let mut g = DiGraph::with_nodes(4);
            for (from, to) in [(0, 1), (0, 2), (2, 1), (3, 1)] {
                g.add_edge(n(from), n(to));
            }
            let fallthrough = vec![None, None, Some(n(3)), None];
            let cfg = Cfg::from_parts(2, g, fallthrough).expect("shaped for two statements");
            encode_cfg(&mut out, &cfg);
            wire::put_u32(&mut out, 0); // no artifact sections
            out
        };
        assert_eq!(
            decode_snapshot(&payload(StmtKind::Break)).unwrap_err(),
            SnapshotError::Malformed
        );
        assert!(decode_snapshot(&payload(StmtKind::Skip)).is_ok());
    }

    /// An empty-but-valid suffix (no artifacts) decodes to a bare seed; the
    /// engine then pays the normal lazy builds, no worse than a cache miss.
    #[test]
    fn artifact_free_snapshot_is_valid() {
        let mut crafted = valid_prefix(STRUCTURED_SRC);
        wire::put_u32(&mut crafted, 0);
        let snap = decode_snapshot(&crafted).unwrap();
        assert_eq!(snap.seed.reused_phases(), 0);
        let a = Analysis::with_seed(&snap.prog, snap.seed);
        let crit = Criterion::at_stmt(snap.prog.at_line(4));
        assert!(!agrawal_slice(&a, &crit).stmts.is_empty());
    }
}
