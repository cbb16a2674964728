//! The sparse, change-driven Figure-7 kernel.
//!
//! The paper's round-based loop (kept as the differential oracle
//! `jumpslice_difftest::oracle::figure7`) re-tests *every* out-of-slice
//! jump on *every* round, and each test walks the
//! postdominator tree and the lexical successor tree node by node —
//! O(rounds × jumps × tree-depth) of pointer chasing. But a jump's test is
//! a pure function of `chain ∩ slice`, where `chain` is the fixed set of
//! statements on its pdom-ancestor and LST-successor paths (plus, for the
//! do-while guard, the bodies of the do-whiles those paths cross). The
//! slice only grows, so a jump whose chain the latest admissions did not
//! touch would answer exactly as it did last time — necessarily "no", or
//! it would already be in the slice.
//!
//! This module exploits that in two layers:
//!
//! * [`ChainIndex`] holds both trees as per-statement parent arrays (chains
//!   share suffixes, so a chain is a walk up one array) and turns chain
//!   membership around with preorder intervals. A statement lies on a
//!   jump's pdom chain exactly when the jump lies in the statement's
//!   proper pdom subtree; jumps are numbered in pdom preorder, so those
//!   jumps are one run of chain ids. Likewise a statement's proper LST
//!   subtree is one run of LST ranks, mapped to chain ids through a
//!   permutation. The do-while guard adds, for each do-while around the
//!   statement, the LST subtrees of that do-while's candidates (body
//!   statements whose lexical successor is the do-while), ranked as one
//!   run. The index is O(statements + jumps) words.
//! * [`figure7`] replays the round-based loop's rounds, but each round
//!   only re-tests the *dirty* jumps — those whose chains intersect the
//!   delta of statements admitted since their last test — in
//!   postdominator preorder, which is the order of the index's jump list.
//!   Deltas flow out of the dependence closures
//!   (`Pdg::backward_closure_delta`; they share the φ-only components
//!   they entered, so each is walked once per slice), and a dirty jump
//!   the current round has already passed is deferred to the next round,
//!   exactly when the dense loop would re-test it. A retest asks
//!   [`Nearest`], which keeps each statement's nearest proper ancestor in
//!   the slice, per tree, until the slice next grows. Admission order,
//!   rounds, provenance, `traversals`: all bit-identical.
//!
//! Complexity: the seed costs O(closure + jumps), or O(statements) of
//! memo walks when the closure outnumbers the jumps; each statement an
//! admission adds marks its two intervals, O(1 + interval words) apiece,
//! plus one interval per enclosing do-while; each newly dirty jump costs
//! O(1); and between two admissions each tree's probes write each
//! statement's memo entry at most once. That replaces O(rounds × jumps ×
//! depth) walks, and the confirming final round costs only the (empty)
//! worklist check instead of a full traversal.

use crate::provenance::Recorder;
use crate::{reassociate_labels, Analysis, Criterion, LexSuccTree, Slice, SlicePoint};
use jumpslice_cfg::Cfg;
use jumpslice_dataflow::{BitSet, StmtSet};
use jumpslice_graph::DomTree;
use jumpslice_lang::{Program, StmtId, StmtKind};
use jumpslice_obs as obs;
use std::cell::RefCell;

/// Sentinel for "the chain ends here (exit)" in the parent arrays.
const NO_STMT: u32 = u32::MAX;

/// Sentinel for "no enclosing do-while" in the do-while links.
const NO_DW: u32 = u32::MAX;

/// Checked narrowing for the indices the chain index stores as `u32`.
/// `u32::MAX` itself is excluded: it is the [`NO_STMT`]/[`NO_DW`]
/// sentinel, so a silent `as u32` truncation — or an exact collision with
/// the sentinel — would corrupt the chain walks instead of failing. The
/// builder checks the statement count once, which bounds every statement
/// index, jump count and do-while count it stores. No real program gets
/// near 2³²−1 statements, so this panics rather than plumbing a `Result`
/// through the builder.
#[inline]
fn index_u32(i: usize, what: &str) -> u32 {
    assert!(
        i < NO_STMT as usize,
        "chain index overflow: {what} {i} does not fit the u32 parent arrays \
         (max supported: {})",
        NO_STMT - 1
    );
    i as u32
}

/// A half-open run `lo..hi` of chain ids (pdom tree) or LST ranks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct Span {
    lo: u32,
    hi: u32,
}

impl Span {
    fn range(self) -> std::ops::Range<usize> {
        self.lo as usize..self.hi as usize
    }
}

/// One `do-while` of the program, as the hazard guard sees it.
#[derive(Clone, Debug, PartialEq, Eq)]
struct DoWhile {
    /// The nearest do-while lexically enclosing this one, or [`NO_DW`].
    up: u32,
    /// Its candidates' subtrees, one run of LST ranks: the candidates are
    /// the statements inside its body whose lexical successor is the
    /// do-while itself (deleting one lands on the loop condition), and the
    /// build ranks them last among the do-while's LST children.
    cands: Span,
    /// Its body as a span-trimmed statement mask: the run
    /// `ChainIndex::body_words[words]`, whose first word covers statements
    /// from `first_word * 64` on.
    first_word: u32,
    words: Span,
}

/// Flattened per-jump chain data, built once per program and cached on
/// [`Analysis`] (see `Analysis::chain_index`). It answers Figure 7's three
/// tests for Figures 7, 12 and 13 alike, its parent arrays through the
/// kernel's nearest-in-slice memo, and its pdom parent array answers label
/// re-association.
///
/// Opaque outside this crate: it appears in [`crate::AnalysisSeed`] so the
/// incremental edit session can carry it across edits that leave the jump
/// structure, postdominators, and lexical successor tree intact, but its
/// contents are an implementation detail of the sparse kernel. It is never
/// persisted: a restored snapshot derives it from the program.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ChainIndex {
    /// The indexed jumps — every live unconditional jump, in pdom preorder,
    /// which is Figure 7's visit order. A chain id is an index into this
    /// vector, so it is also the jump's visit rank.
    jumps: Vec<StmtId>,
    /// Statement index → its pdom parent ([`NO_STMT`] = the exit). Chains
    /// share suffixes in the pdom tree, so one parent array replaces
    /// per-jump chain vectors: a chain is the walk `pnext[j]`,
    /// `pnext[pnext[j]]`, …
    pnext: Vec<u32>,
    /// Statement index → the immediate lexical successor ([`NO_STMT`] =
    /// the exit); the LST's own parent pointers, re-indexed by statement.
    lnext: Vec<u32>,
    /// Statement index → the nearest statement at-or-after it on the
    /// lexical-successor chain whose outgoing edge enters a do-while *from
    /// inside its body* (the hazard guard's candidate shape — a static
    /// property of the edge), or [`NO_STMT`]. Chains share suffixes, so one
    /// skip pointer per statement replaces a candidate list per chain.
    hz_skip: Vec<u32>,
    /// Statement index → the nearest do-while lexically enclosing it, an
    /// index into `dws` ([`NO_DW`] if none). At a hazard candidate this is
    /// the do-while its edge enters: that do-while is the candidate's
    /// nearest enclosing loop.
    dw_of: Vec<u32>,
    /// The program's do-whiles, outer ones first.
    dws: Vec<DoWhile>,
    /// The do-while body masks, back to back.
    body_words: Vec<u64>,
    /// Statement index → the chain ids of the jumps in its proper pdom
    /// subtree: the jumps whose pdom chain passes through it.
    pspan: Vec<Span>,
    /// Statement index → the LST ranks of the jumps in its proper LST
    /// subtree: the jumps whose lexical-successor chain passes through it.
    lspan: Vec<Span>,
    /// Chain id → LST rank.
    lrank: Vec<u32>,
    /// LST rank → chain id.
    lperm: Vec<u32>,
}

impl ChainIndex {
    /// Builds the index from the program's flowgraph and postdominator
    /// tree. `lst` is asked for the lexical successor tree only when the
    /// program has an indexed jump; without one, only the pdom parent
    /// array is kept.
    pub(crate) fn build<'t>(
        prog: &Program,
        cfg: &Cfg,
        pdom: &DomTree,
        lst: impl FnOnce() -> &'t LexSuccTree,
    ) -> ChainIndex {
        let _t = obs::phase(obs::Phase::ChainIndexBuild);
        let n = prog.len();
        index_u32(n, "statement count");
        let indexed = |s: StmtId| {
            prog.stmt(s).kind.is_unconditional_jump() && cfg.reachable()[cfg.node(s).index()]
        };

        // The pdom tree in preorder numbers the jumps and opens each
        // statement's span just past itself; in reverse preorder every
        // statement has heard from all of its descendants, so its span's
        // `hi` (a jump count until then) can be closed and handed up. The
        // exit is the root and the entry a leaf, so every other node is a
        // statement.
        let mut jumps: Vec<StmtId> = Vec::new();
        let mut pnext = vec![NO_STMT; n];
        let mut pspan = vec![Span::default(); n];
        let mut chain_stmts = 0u64;
        for v in pdom.preorder() {
            let Some(s) = cfg.stmt(v) else { continue };
            if let Some(t) = pdom.idom(v).and_then(|p| cfg.stmt(p)) {
                pnext[s.index()] = t.index() as u32;
            }
            if indexed(s) {
                jumps.push(s);
                chain_stmts += u64::from(pdom.depth(v) - 1);
            }
            pspan[s.index()].lo = jumps.len() as u32;
        }
        if jumps.is_empty() {
            // No chain is ever tested, and the LST is never asked for. A
            // fused conditional goto can still move a label, which reads
            // the pdom parents.
            return ChainIndex {
                pnext,
                ..ChainIndex::default()
            };
        }
        jumps.shrink_to_fit();
        for v in pdom.preorder().rev() {
            let Some(s) = cfg.stmt(v) else { continue };
            let span = &mut pspan[s.index()];
            let below = span.hi;
            span.hi = span.lo + below;
            let own = u32::from(indexed(s));
            if let Some(p) = pdom.idom(v).and_then(|p| cfg.stmt(p)) {
                pspan[p.index()].hi += below + own;
            }
        }

        // The do-whiles, outer ones first, and the nearest one around each
        // statement (parents precede children in the lexical order).
        let st = prog.structure();
        let mut dw_of = vec![NO_DW; n];
        let mut dws: Vec<DoWhile> = Vec::new();
        {
            let mut dw_index = vec![NO_DW; n];
            for &s in prog.lexical_order() {
                let up = match st.parent(s) {
                    Some(p) if dw_index[p.index()] != NO_DW => dw_index[p.index()],
                    Some(p) => dw_of[p.index()],
                    None => NO_DW,
                };
                dw_of[s.index()] = up;
                if matches!(prog.stmt(s).kind, StmtKind::DoWhile { .. }) {
                    dw_index[s.index()] = dws.len() as u32;
                    dws.push(DoWhile {
                        up,
                        cands: Span::default(),
                        first_word: 0,
                        words: Span::default(),
                    });
                }
            }
        }

        // The LST, depth first from the exit with children by statement
        // index, walked through first-child/next-sibling links and the
        // parent pointers, so no stack grows with the tree's depth: rank
        // the jumps, span every statement's subtree, and fill the hazard
        // skip pointers parents first.
        let lst = lst();
        let mut lnext = vec![NO_STMT; n];
        for (s, next) in lnext.iter_mut().enumerate() {
            *next = lst
                .immediate(StmtId::from_index(s))
                .map_or(NO_STMT, |t| t.index() as u32);
        }
        let candidate: Vec<bool> = (0..n)
            .map(|u| {
                let t = lnext[u];
                t != NO_STMT
                    && matches!(
                        prog.stmt(StmtId::from_index(t as usize)).kind,
                        StmtKind::DoWhile { .. }
                    )
                    // Entering from before the do-while enters its body;
                    // only its own body statements follow it in the lexical
                    // order.
                    && prog.line_of(StmtId::from_index(u))
                        > prog.line_of(StmtId::from_index(t as usize))
            })
            .collect();
        // Children by statement index, a do-while's candidates after its
        // other children (each pass prepends, so the candidates' pass runs
        // first), so that their subtrees form one run of ranks.
        let mut first_kid = vec![NO_STMT; n + 1];
        let mut next_sib = vec![NO_STMT; n];
        for pass in [true, false] {
            for s in (0..n).rev().filter(|&s| candidate[s] == pass) {
                let p = lnext[s].min(n as u32) as usize;
                next_sib[s] = first_kid[p];
                first_kid[p] = s as u32;
            }
        }
        let mut chain_of = vec![NO_STMT; n];
        for (c, &j) in jumps.iter().enumerate() {
            chain_of[j.index()] = c as u32;
        }
        let mut lrank = vec![0u32; jumps.len()];
        let mut lperm: Vec<u32> = Vec::with_capacity(jumps.len());
        let mut lspan = vec![Span::default(); n];
        let mut hz_skip = vec![NO_STMT; n];
        let mut depth = 0u64;
        let mut u = first_kid[n];
        while u != NO_STMT {
            let v = u as usize;
            let c = chain_of[v];
            if c != NO_STMT {
                lrank[c as usize] = lperm.len() as u32;
                lperm.push(c);
                chain_stmts += depth;
            }
            lspan[v].lo = lperm.len() as u32;
            hz_skip[v] = match lnext[v] {
                NO_STMT => NO_STMT,
                _ if candidate[v] => u,
                t => hz_skip[t as usize],
            };
            if first_kid[v] != NO_STMT {
                u = first_kid[v];
                depth += 1;
                continue;
            }
            // Leave `u` and every ancestor whose last child it closes.
            loop {
                lspan[u as usize].hi = lperm.len() as u32;
                if next_sib[u as usize] != NO_STMT {
                    u = next_sib[u as usize];
                    break;
                }
                u = lnext[u as usize];
                if u == NO_STMT {
                    break;
                }
                depth -= 1;
            }
        }
        drop((first_kid, next_sib));

        // Each do-while's candidates, as the one run of ranks their
        // subtrees fill.
        for u in (0..n).filter(|&u| candidate[u]) {
            // The do-while a candidate enters is its nearest enclosing
            // loop, so its nearest enclosing do-while.
            let dw = &mut dws[dw_of[u] as usize];
            let own = u32::from(chain_of[u] != NO_STMT);
            let lo = lspan[u].lo - own;
            dw.cands = if dw.cands.lo == dw.cands.hi {
                Span {
                    lo,
                    hi: lspan[u].hi,
                }
            } else {
                Span {
                    lo: dw.cands.lo.min(lo),
                    hi: dw.cands.hi.max(lspan[u].hi),
                }
            };
        }
        drop((candidate, chain_of));

        // Body masks: the statement-index extent of each body, then its
        // bits, each statement walking up its enclosing do-whiles.
        let mut extent = vec![(u32::MAX, 0u32); dws.len()];
        for (s, &inner) in dw_of.iter().enumerate() {
            let mut k = inner;
            while k != NO_DW {
                let e = &mut extent[k as usize];
                *e = (e.0.min(s as u32), e.1.max(s as u32));
                k = dws[k as usize].up;
            }
        }
        let mut words = 0u32;
        for (dw, &(lo, hi)) in dws.iter_mut().zip(&extent) {
            if lo <= hi {
                dw.first_word = lo / 64;
                dw.words = Span {
                    lo: words,
                    hi: words + hi / 64 - lo / 64 + 1,
                };
                words = dw.words.hi;
            }
        }
        drop(extent);
        let mut body_words = vec![0u64; words as usize];
        for (s, &inner) in dw_of.iter().enumerate() {
            let mut k = inner;
            while k != NO_DW {
                let dw = &dws[k as usize];
                body_words[dw.words.lo as usize + s / 64 - dw.first_word as usize] |= 1 << (s % 64);
                k = dw.up;
            }
        }
        dws.shrink_to_fit();

        obs::record(|| obs::Event::Count {
            name: "sparse.chains",
            value: jumps.len() as u64,
        });
        obs::record(|| obs::Event::Count {
            name: "sparse.chain_stmts",
            value: chain_stmts,
        });

        ChainIndex {
            jumps,
            pnext,
            lnext,
            hz_skip,
            dw_of,
            dws,
            body_words,
            pspan,
            lspan,
            lrank,
            lperm,
        }
    }

    /// The indexed jumps: every live unconditional jump, in pdom preorder.
    pub(crate) fn jumps(&self) -> &[StmtId] {
        &self.jumps
    }

    /// The do-while extension guard for the indexed jump `j`, a construct
    /// outside the paper's language. Walking `j`'s lexical-successor chain
    /// toward its nearest in-slice successor, it fires when the walk
    /// enters an out-of-slice do-while *from inside its body* (landing on
    /// the loop condition) and that body holds slice statements.
    ///
    /// Deleting such a jump makes control fall into the condition, which
    /// may loop back and re-execute the in-slice body, even when the
    /// condition was dead code in the original program (a body ending in
    /// `break`). The npd-vs-nls test cannot see this because a do-while's
    /// entry (its body) differs from its flowgraph node (its condition);
    /// for the paper's own constructs the guard never fires.
    ///
    /// Answered from the skip pointers and body masks: walks chain
    /// statements up to the last candidate do-while, bailing on the first
    /// one already in the slice. In a program without do-whiles no chain
    /// has a candidate, so the answer is immediate.
    pub(crate) fn hazard(&self, j: StmtId, slice: &StmtSet) -> bool {
        let mut v = self.hz_skip[j.index()];
        if v == NO_STMT {
            return false;
        }
        let mut s = self.lnext[j.index()];
        loop {
            // The candidate do-while is `lnext[v]`; every chain statement up
            // to and including it gets the membership check first, in order.
            let d = self.lnext[v as usize];
            loop {
                let t = StmtId::from_index(s as usize);
                if slice.contains(t) {
                    return false;
                }
                let at_dowhile = s == d;
                s = self.lnext[s as usize];
                if at_dowhile {
                    break;
                }
            }
            if self.body_meets(self.dw_of[v as usize], slice) {
                return true;
            }
            v = self.hz_skip[d as usize];
            if v == NO_STMT {
                return false;
            }
        }
    }

    /// Whether do-while `k`'s body shares a statement with `slice`,
    /// scanning only the body's own span.
    fn body_meets(&self, k: u32, slice: &StmtSet) -> bool {
        let dw = &self.dws[k as usize];
        let body = &self.body_words[dw.words.range()];
        match slice.words().get(dw.first_word as usize..) {
            Some(sw) => body.iter().zip(sw).any(|(a, b)| a & b != 0),
            None => false,
        }
    }

    /// The do-whiles lexically enclosing statement `s`, innermost first.
    fn enclosing(&self, s: usize) -> impl Iterator<Item = u32> + '_ {
        let mut k = self.dw_of[s];
        std::iter::from_fn(move || {
            (k != NO_DW).then(|| {
                let this = k;
                k = self.dws[k as usize].up;
                this
            })
        })
    }
}

/// Every nearest-in-slice probe of Figures 7 and 12 and of label
/// re-association, memoized (a nearest-marked-ancestor memo, after
/// Alstrup, Husfeldt and Rauhe, FOCS 1998). Per tree (pdom, LST) and
/// statement it keeps a stamp and the statement's nearest proper ancestor
/// in the slice ([`NO_STMT`] = the exit), valid while the stamp equals
/// `epoch`, which advances whenever the slice grows. A walk stops at the
/// first parent in the slice or the first statement answered, and writes
/// its answer on every statement it passed below that, so per slice
/// state each tree's walks write each statement at most once. One per
/// thread, sized for the largest program it has sliced: 16 bytes per
/// statement.
#[derive(Default)]
pub(crate) struct Nearest {
    epoch: u32,
    memo: [Vec<(u32, u32)>; 2],
    /// Memo entries written since the slice started (`sparse.walk_steps`).
    steps: u64,
}

impl Nearest {
    /// Takes this thread's memo for a new slice of an `n`-statement
    /// program; [`Nearest::put_back`] returns it.
    pub(crate) fn take(n: usize) -> Nearest {
        let mut nearest = SCRATCH.with(|s| std::mem::take(&mut s.borrow_mut().nearest));
        nearest.start(n);
        nearest
    }

    /// Hands the memo back to this thread's scratch.
    pub(crate) fn put_back(self) {
        SCRATCH.with(|s| s.borrow_mut().nearest = self);
    }

    /// Forgets the previous slice's answers, sized for `n` statements.
    fn start(&mut self, n: usize) {
        for memo in &mut self.memo {
            if memo.len() < n {
                memo.resize(n, (0, 0));
            }
        }
        self.steps = 0;
        self.grow();
    }

    /// Forgets every answer: the slice grew. A wrapping epoch clears every
    /// stamp, so no entry of 2³² growths ago reads as current.
    pub(crate) fn grow(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.memo.iter_mut().flatten().for_each(|e| e.0 = 0);
            self.epoch = 1;
        }
    }

    /// The nearest proper postdominator of statement `s` in `slice`
    /// (`None` = the exit, which is in every slice).
    pub(crate) fn pdom(&mut self, ci: &ChainIndex, s: StmtId, slice: &StmtSet) -> SlicePoint {
        self.walk(0, &ci.pnext, s.index(), slice)
    }

    /// The nearest proper lexical successor of the indexed jump `j` in
    /// `slice` (`None` = the exit).
    pub(crate) fn lexsucc(&mut self, ci: &ChainIndex, j: StmtId, slice: &StmtSet) -> SlicePoint {
        self.walk(1, &ci.lnext, j.index(), slice)
    }

    fn walk(&mut self, tree: usize, next: &[u32], s: usize, slice: &StmtSet) -> SlicePoint {
        let (epoch, memo) = (self.epoch, &mut self.memo[tree]);
        // Up to a statement already answered, or to one whose parent is in
        // the slice or the exit. The statements below it share its answer,
        // so each gets it written; the top itself needs no entry, since
        // asking it again costs one step either way.
        let (mut top, mut below) = (s, 0);
        let near = loop {
            let (stamp, near) = memo[top];
            if stamp == epoch {
                break near;
            }
            let up = next[top];
            if up == NO_STMT || slice.contains(StmtId::from_index(up as usize)) {
                break up;
            }
            top = up as usize;
            below += 1;
        };
        let mut v = s;
        for _ in 0..below {
            memo[v] = (epoch, near);
            v = next[v] as usize;
        }
        self.steps += below;
        (near != NO_STMT).then(|| StmtId::from_index(near as usize))
    }
}

/// The dirty-jump worklists. `cur` holds the jumps this round still has
/// to test, all past the cursor; `next` those deferred to the next round,
/// none past it. A jump is in at most one of them, and `ldirty` mirrors
/// their union in LST-rank space, so marking an LST span touches only the
/// jumps it newly dirties.
#[derive(Default)]
struct Worklist {
    cur: BitSet,
    next: BitSet,
    ldirty: BitSet,
}

impl Worklist {
    /// Dirties every jump whose test can change when statement `s` enters
    /// the slice: chain ids below `split` wait for the next round, the rest
    /// are tested in this one. Returns how many jumps became dirty.
    fn dirty(&mut self, ci: &ChainIndex, s: usize, split: u32) -> u64 {
        let Worklist { cur, next, ldirty } = self;
        let mut marks = 0u64;
        let p = ci.pspan[s];
        let mid = split.clamp(p.lo, p.hi) as usize;
        for (set, lo, hi) in [
            (&mut *next, p.lo as usize, mid),
            (&mut *cur, mid, p.hi as usize),
        ] {
            set.insert_range(lo, hi, |c| {
                ldirty.insert(ci.lrank[c] as usize);
                marks += 1;
            });
        }
        let mut dirty_lst = |span: Span| {
            ldirty.insert_range(span.lo as usize, span.hi as usize, |r| {
                let c = ci.lperm[r];
                (if c < split { &mut *next } else { &mut *cur }).insert(c as usize);
                marks += 1;
            });
        };
        dirty_lst(ci.lspan[s]);
        for k in ci.enclosing(s) {
            dirty_lst(ci.dws[k as usize].cands);
        }
        marks
    }

    /// Takes chain `c` off the current round's list.
    fn take(&mut self, ci: &ChainIndex, c: usize) {
        self.cur.remove(c);
        self.ldirty.remove(ci.lrank[c] as usize);
    }
}

/// Seed dirtying: the whole conventional closure is one delta against the
/// empty slice, so every dirty jump waits for round 1. A jump outside the
/// closure is dirty when the closure meets its pdom chain, its LST chain or
/// a body its hazard guard reads. Returns how many jumps that dirties.
///
/// The chains the closure meets are the union of its statements' spans,
/// counted (+1 at `lo`, -1 at `hi`, then one pass over the jumps), one
/// visit per closure statement. A closure that outnumbers the jumps (the
/// goto-heavy case) meets most chains within a step or two, so there each
/// jump asks `nearest` instead, and round 1's retests reuse its answers.
/// Each do-while whose body the closure meets marks its candidates' span
/// (in `ldirty`, scratch until the final pass).
fn seed(
    ci: &ChainIndex,
    closure: &StmtSet,
    work: &mut Worklist,
    nearest: &mut Nearest,
    seen: &mut BitSet,
    counts: &mut Vec<i32>,
) -> u64 {
    let n_jumps = ci.jumps.len();
    let count = closure.len() <= n_jumps;
    counts.clear();
    if count {
        counts.resize(2 * (n_jumps + 1), 0);
    }
    let half = counts.len() / 2;
    let (pcount, lcount) = counts.split_at_mut(half);
    if count || !ci.dws.is_empty() {
        for s in closure.iter() {
            let s = s.index();
            if count {
                let (p, l) = (ci.pspan[s], ci.lspan[s]);
                pcount[p.lo as usize] += 1;
                pcount[p.hi as usize] -= 1;
                lcount[l.lo as usize] += 1;
                lcount[l.hi as usize] -= 1;
            }
            for k in ci.enclosing(s) {
                if seen.contains(k as usize) {
                    break;
                }
                seen.insert(k as usize);
                let span = ci.dws[k as usize].cands;
                work.ldirty
                    .insert_range(span.lo as usize, span.hi as usize, |_| {});
            }
        }
    }
    if count {
        // `pcount` runs over chain ids, `lcount` over LST ranks.
        let (mut on_pdom, mut on_lst) = (0, 0);
        for r in 0..n_jumps {
            on_pdom += pcount[r];
            on_lst += lcount[r];
            if on_pdom > 0 {
                work.ldirty.insert(ci.lrank[r] as usize);
            }
            if on_lst > 0 {
                work.ldirty.insert(r);
            }
        }
    } else {
        for (c, &j) in ci.jumps.iter().enumerate() {
            if !closure.contains(j)
                && (nearest.pdom(ci, j, closure).is_some()
                    || nearest.lexsucc(ci, j, closure).is_some())
            {
                work.ldirty.insert(ci.lrank[c] as usize);
            }
        }
    }
    let mut marks = 0;
    let mut r = 0;
    while let Some(at) = work.ldirty.next_at_or_after(r) {
        let c = ci.lperm[at] as usize;
        if closure.contains(ci.jumps[c]) {
            work.ldirty.remove(at);
        } else {
            work.next.insert(c);
            marks += 1;
        }
        r = at + 1;
    }
    marks
}

/// Per-thread reusable buffers: the closure delta vector, the worklists,
/// the nearest-in-slice memo, and the seed's do-while marks and span
/// counts. Pooled so the batch engine's workers run the whole fixpoint
/// allocation-free after the first criterion.
#[derive(Default)]
struct Scratch {
    delta: Vec<StmtId>,
    work: Worklist,
    nearest: Nearest,
    seen: BitSet,
    counts: Vec<i32>,
    /// The φ-only components the slice's closures entered.
    entered: BitSet,
}

/// Empties `set` for positions `0..len`, keeping its allocation when it
/// already has that size.
fn reset(set: &mut BitSet, len: usize) {
    if set.capacity() == len {
        set.clear();
    } else {
        *set = BitSet::new(len);
    }
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch::default());
}

/// The Figure-7 kernel behind [`crate::agrawal_slice`] and
/// [`crate::agrawal_slice_traced`]: one code path, so a provenance record
/// can never diverge from the slice it explains. `rec`, when present, is
/// told why each statement entered the slice.
///
/// Visits the chain index's jumps in postdominator preorder. Slices,
/// `traversals`, `moved_labels` and recorded provenance equal the paper's
/// round-based loop's; the differential harness's `sparse` mode and
/// `tests/equivalence.rs` hold the two together.
pub(crate) fn figure7(a: &Analysis<'_>, crit: &Criterion, mut rec: Option<&mut Recorder>) -> Slice {
    let Scratch {
        mut delta,
        mut work,
        mut nearest,
        mut seen,
        mut counts,
        mut entered,
    } = SCRATCH.with(|s| s.take());

    // One PDG lookup per slice; every closure below walks it, and all of
    // them share `entered`.
    let (pdg, mut stmts) = {
        let _t = obs::phase(obs::Phase::ConventionalClosure);
        let seeds = crit.seeds(a);
        let pdg = a.pdg();
        reset(&mut entered, pdg.condensation().num_components());
        let stmts = match rec.as_deref_mut() {
            Some(r) => r.seed_closure(pdg, crit, seeds),
            None => {
                let mut stmts = StmtSet::with_capacity(a.prog().len());
                delta.clear();
                pdg.backward_closure_delta(seeds, &mut stmts, &mut entered, &mut delta);
                stmts
            }
        };
        (pdg, stmts)
    };

    let mut traversals = 0usize;
    let mut round: u32 = 0;
    let mut retests = 0u64;
    let mut dirty_marks = 0u64;
    let ci = a.chain_index();
    let jumps = &ci.jumps;
    nearest.start(a.prog().len());

    if jumps.is_empty() {
        // No candidates: only the confirming round runs.
        round += 1;
        {
            let _t = obs::phase_round(obs::Phase::FixpointRound, round);
        }
        obs::record(|| obs::Event::Round {
            algo: "fig7",
            round,
            admitted: 0,
        });
    } else {
        let n_jumps = jumps.len();
        // The worklists drain empty whenever a fixpoint finishes (a panic
        // drops the taken scratch), so only their size may need changing.
        for set in [&mut work.cur, &mut work.next, &mut work.ldirty] {
            debug_assert!(set.is_empty());
            if set.capacity() != n_jumps {
                *set = BitSet::new(n_jumps);
            }
        }
        reset(&mut seen, ci.dws.len());

        dirty_marks += seed(ci, &stmts, &mut work, &mut nearest, &mut seen, &mut counts);

        loop {
            round += 1;
            // Cooperative deadline probe at the round boundary; free when
            // no deadline is installed (the default outside the daemon).
            crate::cancel::checkpoint();
            let mut admitted: u32 = 0;
            {
                let _t = obs::phase_round(obs::Phase::FixpointRound, round);
                std::mem::swap(&mut work.cur, &mut work.next);
                let mut pos = 0usize;
                while let Some(c) = work.cur.next_at_or_after(pos) {
                    crate::cancel::checkpoint();
                    work.take(ci, c);
                    pos = c;
                    let j = jumps[c];
                    if stmts.contains(j) {
                        continue;
                    }
                    retests += 1;
                    let npd = nearest.pdom(ci, j, &stmts);
                    let nls = nearest.lexsucc(ci, j, &stmts);
                    let disagree = npd != nls;
                    if disagree || ci.hazard(j, &stmts) {
                        obs::record(|| obs::Event::JumpAdmitted {
                            algo: "fig7",
                            line: a.prog().line_of(j) as u32,
                            round,
                            reason: if disagree {
                                obs::AdmitReason::PdomLexsuccDisagree {
                                    npd_line: npd.map(|s| a.prog().line_of(s) as u32),
                                    nls_line: nls.map(|s| a.prog().line_of(s) as u32),
                                }
                            } else {
                                obs::AdmitReason::DoWhileHazard
                            },
                        });
                        delta.clear();
                        match rec.as_deref_mut() {
                            Some(r) => r.jump_closure_delta(
                                pdg, j, round, npd, nls, !disagree, &mut stmts, &mut delta,
                            ),
                            // The slice is a union of closures, hence closed
                            // under dependence, as the condensed walk needs.
                            // Its delta comes in no particular order; the
                            // span marking below does not care.
                            None => pdg.backward_closure_delta(
                                [j],
                                &mut stmts,
                                &mut entered,
                                &mut delta,
                            ),
                        }
                        nearest.grow();
                        admitted += 1;
                        // Dirty every jump whose chain the delta touched. A
                        // jump the current round has not reached yet is
                        // tested this round; anything at or before the
                        // cursor waits for the next round, as in the paper's
                        // traversal. Already-admitted jumps may be enqueued;
                        // the drain skips them.
                        for &s in &delta {
                            dirty_marks += work.dirty(ci, s.index(), c as u32 + 1);
                        }
                    }
                }
            }
            obs::record(|| obs::Event::Round {
                algo: "fig7",
                round,
                admitted,
            });
            if admitted == 0 {
                break;
            }
            traversals += 1;
        }
    }

    obs::record(|| obs::Event::Count {
        name: "sparse.retests",
        value: retests,
    });
    obs::record(|| obs::Event::Count {
        name: "sparse.dirty_marks",
        value: dirty_marks,
    });
    obs::record(|| obs::Event::Count {
        name: "sparse.walk_steps",
        value: nearest.steps,
    });

    // Label re-association takes the memo back out of the scratch.
    SCRATCH.with(|s| {
        *s.borrow_mut() = Scratch {
            delta,
            work,
            nearest,
            seen,
            counts,
            entered,
        }
    });
    let moved_labels = {
        let _t = obs::phase(obs::Phase::LabelReassoc);
        reassociate_labels(a, &stmts)
    };

    Slice {
        stmts,
        moved_labels,
        traversals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus;
    use jumpslice_lang::parse;

    /// The nearest proper postdominator of `s` in `slice`, walking the
    /// pdom tree itself (the exit, its root, is no statement).
    fn pdom_walk(a: &Analysis<'_>, s: StmtId, slice: &StmtSet) -> SlicePoint {
        a.pdom()
            .ancestors(a.cfg().node(s))
            .filter_map(|n| a.cfg().stmt(n))
            .find(|&t| slice.contains(t))
    }

    /// The nearest proper lexical successor of `s` in `slice`, walking the
    /// LST itself.
    fn lexsucc_walk(a: &Analysis<'_>, s: StmtId, slice: &StmtSet) -> SlicePoint {
        a.lst().successors(s).find(|&t| slice.contains(t))
    }

    /// Whether `s` lies lexically inside the do-while `d`.
    fn in_dowhile(p: &Program, d: StmtId, s: StmtId) -> bool {
        matches!(p.stmt(d).kind, StmtKind::DoWhile { .. }) && p.structure().contains(d, s)
    }

    /// The do-while guard as a walk of `j`'s lexical successors: the walk
    /// enters an out-of-slice do-while from inside its body before it
    /// meets the slice, and the body holds a slice statement.
    fn hazard_walk(a: &Analysis<'_>, j: StmtId, slice: &StmtSet) -> bool {
        let p = a.prog();
        let mut prev = j;
        for t in a.lst().successors(j) {
            if slice.contains(t) {
                return false;
            }
            if in_dowhile(p, t, prev) && slice.iter().any(|s| in_dowhile(p, t, s)) {
                return true;
            }
            prev = t;
        }
        false
    }

    /// Chain probes answer exactly like the tree walks, at every slice
    /// state reachable by growing the slice one statement at a time in id
    /// order. The pdom probe answers for every statement, the others for
    /// every indexed jump. Between two growths, each tree's memo walks
    /// write each statement at most once.
    #[test]
    fn chain_probes_match_tree_walks() {
        for p in [
            corpus::fig3(),
            corpus::fig5(),
            corpus::fig8(),
            corpus::fig10(),
            corpus::fig14(),
            corpus::fig16(),
            mixed_program(),
        ] {
            let a = Analysis::new(&p);
            let ci = a.chain_index();
            let mut nearest = Nearest::default();
            nearest.start(p.len());
            let mut slice = StmtSet::with_capacity(p.len());
            for grow in std::iter::once(None).chain(p.stmt_ids().map(Some)) {
                if let Some(s) = grow {
                    slice.insert(s);
                    nearest.grow();
                }
                let before = nearest.steps;
                // Twice, so the second pass reads the first one's entries.
                for _ in 0..2 {
                    for s in (0..p.len()).rev().map(StmtId::from_index) {
                        assert_eq!(nearest.pdom(ci, s, &slice), pdom_walk(&a, s, &slice));
                    }
                    for &j in ci.jumps() {
                        assert_eq!(nearest.lexsucc(ci, j, &slice), lexsucc_walk(&a, j, &slice));
                        assert_eq!(ci.hazard(j, &slice), hazard_walk(&a, j, &slice));
                    }
                }
                assert!(nearest.steps - before <= 2 * p.len() as u64);
            }
        }
    }

    /// Probes across an epoch wrap answer like the tree walks: the wrap
    /// clears every stamp, so answers written at epoch 1 before it do not
    /// read as current after it.
    #[test]
    fn probes_across_an_epoch_wrap_match_tree_walks() {
        for p in [corpus::fig3(), corpus::fig8(), mixed_program()] {
            let a = Analysis::new(&p);
            let ci = a.chain_index();
            let mut nearest = Nearest::default();
            nearest.start(p.len());
            assert_eq!(nearest.epoch, 1);
            let mut slice = StmtSet::with_capacity(p.len());
            let probe_all = |nearest: &mut Nearest, slice: &StmtSet| {
                for s in p.stmt_ids() {
                    assert_eq!(nearest.pdom(ci, s, slice), pdom_walk(&a, s, slice));
                }
                for &j in ci.jumps() {
                    assert_eq!(nearest.lexsucc(ci, j, slice), lexsucc_walk(&a, j, slice));
                }
            };
            probe_all(&mut nearest, &slice);
            nearest.epoch = u32::MAX - 2;
            let mut wrapped = false;
            for s in p.stmt_ids() {
                slice.insert(s);
                nearest.grow();
                wrapped |= nearest.epoch == 1;
                probe_all(&mut nearest, &slice);
            }
            assert!(wrapped, "the epoch wrapped");
        }
    }

    /// A Figure-7 slice cancelled at any checkpoint leaves nothing behind
    /// on its thread: the next, uncancelled slice there equals a fresh
    /// analysis's, moved labels and traversals included.
    #[test]
    fn a_cancelled_slice_leaves_the_next_one_exact() {
        let mut progs = many_jump_programs();
        progs.extend([mixed_program(), corpus::fig3(), corpus::fig10()]);
        for p in &progs {
            let a = Analysis::new(p);
            let crit = Criterion::at_stmt(p.at_line(p.len()));
            let want = crate::agrawal_slice(&Analysis::new(p), &crit);
            for k in 0.. {
                let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    let _fuel = crate::cancel::fuel(k);
                    crate::agrawal_slice(&a, &crit)
                }));
                let got = crate::agrawal_slice(&a, &crit);
                assert_eq!(got.stmts, want.stmts, "fuel {k}");
                assert_eq!(got.moved_labels, want.moved_labels, "fuel {k}");
                assert_eq!(got.traversals, want.traversals, "fuel {k}");
                if run.is_ok() {
                    assert!(k > 0, "the slice passes a checkpoint");
                    break;
                }
            }
        }
    }

    /// The do-while guard fires identically through the candidate/body
    /// probe, on every slice state of a program where it genuinely fires
    /// (break inside a do-while whose body holds slice statements).
    #[test]
    fn hazard_probe_on_dowhile_program() {
        let p = parse("read(x); do { x = x + 1; if (c) break; y = 2; } while (x < 10); write(y);")
            .unwrap();
        let a = Analysis::new(&p);
        let ci = a.chain_index();
        let brk = p.at_line(5);
        assert!(ci.jumps().contains(&brk), "break is indexed");
        let n = p.len();
        let mut fired = false;
        for mask in 0u32..(1 << n) {
            let slice: StmtSet = p
                .stmt_ids()
                .filter(|s| mask & (1 << s.index()) != 0)
                .collect();
            let got = ci.hazard(brk, &slice);
            assert_eq!(got, hazard_walk(&a, brk, &slice), "slice mask {mask:#b}");
            fired |= got;
        }
        assert!(fired, "the hazard case is actually exercised");
    }

    /// Programs with more than 64 jumps (so spans cross chain words), goto
    /// runs, and nested do-whiles whose bodies end in `break`.
    fn many_jump_programs() -> Vec<Program> {
        let mut gotos = String::from("read(x);\n");
        for k in 0..70 {
            gotos.push_str(&format!("goto L{k};\nL{k}: x = x + {k};\n"));
        }
        gotos.push_str("write(x);");
        let mut nested = String::from("read(x); read(c);\n");
        for k in 0..24 {
            nested.push_str(&format!(
                "do {{ x = x + {k}; if (c) break; do {{ if (x) {{ c = c - 1; break; }} \
                 if (c) continue; x = x - 1; break; }} while (c); if (x) break; }} while (x);\n"
            ));
        }
        nested.push_str("write(x); write(c);");
        vec![parse(&gotos).unwrap(), parse(&nested).unwrap()]
    }

    /// A goto into a do-while nest, a switch inside one, and a do-while
    /// inside a while.
    fn mixed_program() -> Program {
        parse(
            "read(x); L: do { do { if (x) goto M; x = x - 1; if (x) break; } while (x); \
                     switch (x) { case 1: break; default: x = 2; } break; } while (x); \
             M: if (x) goto L; while (x) { x = x - 1; do { break; } while (x); } write(x);",
        )
        .unwrap()
    }

    /// The jumps a statement dirties equal what walking the trees says:
    /// jump `j` is dirtied by `s` when `s` is a proper pdom ancestor of
    /// `j`, a proper lexical successor of `j`, or in the body of the
    /// do-while a candidate on `j`'s lexical-successor chain (`j`
    /// included) enters.
    #[test]
    fn span_marks_match_tree_walks_past_64_chains() {
        let progs = many_jump_programs();
        assert!(progs.iter().all(|p| {
            let a = Analysis::new(p);
            a.chain_index().jumps.len() > 64
        }));
        let others = [mixed_program(), corpus::fig3(), corpus::fig16()];
        for p in progs.iter().chain(&others) {
            let a = Analysis::new(p);
            let ci = a.chain_index();
            let st = p.structure();
            let n_jumps = ci.jumps.len();
            for s in p.stmt_ids() {
                let on_pdom = |j: StmtId| {
                    a.pdom()
                        .ancestors(a.cfg().node(j))
                        .any(|n| a.cfg().stmt(n) == Some(s))
                };
                let on_lst = |j: StmtId| a.lst().successors(j).any(|t| t == s);
                let in_candidate_body = |j: StmtId| {
                    std::iter::once(j).chain(a.lst().successors(j)).any(|u| {
                        match a.lst().immediate(u) {
                            Some(d) => in_dowhile(p, d, u) && st.contains(d, s),
                            None => false,
                        }
                    })
                };
                let want: Vec<usize> = (0..n_jumps)
                    .filter(|&c| {
                        let j = ci.jumps[c];
                        on_pdom(j) || on_lst(j) || in_candidate_body(j)
                    })
                    .collect();

                let empty = || BitSet::new(n_jumps);
                let mut work = Worklist {
                    cur: empty(),
                    next: empty(),
                    ldirty: empty(),
                };
                let marks = work.dirty(ci, s.index(), n_jumps as u32);
                assert_eq!(
                    work.next.iter().collect::<Vec<_>>(),
                    want,
                    "line {}",
                    p.line_of(s)
                );
                assert_eq!(marks, want.len() as u64);
                assert_eq!(work.cur.iter().count(), 0, "all before the split");
                let mirrored: Vec<usize> =
                    work.ldirty.iter().map(|r| ci.lperm[r] as usize).collect();
                assert_eq!(mirrored.len(), want.len());
                assert!(mirrored.iter().all(|c| want.contains(c)));
            }
        }
    }

    /// A split inside a span sends the jumps below it to the next round
    /// and the rest to this one, and a second marking of the same span
    /// dirties nothing new.
    #[test]
    fn dirty_marks_split_at_the_cursor_once() {
        let p = &many_jump_programs()[0];
        let a = Analysis::new(p);
        let ci = a.chain_index();
        let n_jumps = ci.jumps.len();
        let last = p.at_line(p.len());
        let mut work = Worklist {
            cur: BitSet::new(n_jumps),
            next: BitSet::new(n_jumps),
            ldirty: BitSet::new(n_jumps),
        };
        let split = 40u32;
        let marks = work.dirty(ci, last.index(), split);
        assert_eq!(
            marks, n_jumps as u64,
            "the last statement follows every jump"
        );
        assert!(work.next.iter().all(|c| c < split as usize));
        assert!(work.cur.iter().all(|c| c >= split as usize));
        assert_eq!(work.next.iter().count() + work.cur.iter().count(), n_jumps);
        assert_eq!(work.dirty(ci, last.index(), split), 0);
        for c in work.cur.iter().collect::<Vec<_>>() {
            work.take(ci, c);
        }
        assert_eq!(work.ldirty.iter().count(), split as usize);
    }

    /// LST ranks and chain ids are inverse permutations of the jumps, and
    /// each do-while's candidate span is exactly the ranks of the jumps in
    /// its candidates' LST subtrees.
    #[test]
    fn lst_ranks_permute_the_chains_and_candidates_form_one_run() {
        let mut progs = many_jump_programs();
        progs.extend([mixed_program(), corpus::fig14(), corpus::fig16()]);
        for p in &progs {
            let a = Analysis::new(p);
            let ci = a.chain_index();
            assert_eq!(ci.lrank.len(), ci.jumps.len());
            assert_eq!(ci.lperm.len(), ci.jumps.len());
            for (c, &r) in ci.lrank.iter().enumerate() {
                assert_eq!(ci.lperm[r as usize] as usize, c);
            }
            let st = p.structure();
            let mut k = 0;
            for &d in p.lexical_order() {
                if !matches!(p.stmt(d).kind, StmtKind::DoWhile { .. }) {
                    continue;
                }
                let want: Vec<u32> = (0..ci.jumps.len())
                    .filter(|&c| {
                        let j = ci.jumps[c];
                        std::iter::once(j)
                            .chain(a.lst().successors(j))
                            .any(|u| a.lst().immediate(u) == Some(d) && st.contains(d, u))
                    })
                    .map(|c| ci.lrank[c])
                    .collect();
                let mut got: Vec<u32> = ci.dws[k].cands.range().map(|r| r as u32).collect();
                got.sort_unstable();
                let mut want = want;
                want.sort_unstable();
                assert_eq!(got, want, "do-while at line {}", p.line_of(d));
                k += 1;
            }
            assert_eq!(k, ci.dws.len());
        }
    }

    /// A jump-free program indexes no jump and never asks for the LST.
    #[test]
    fn jump_free_programs_skip_the_lst() {
        let p = parse("read(x); do { x = x - 1; } while (x); write(x);").unwrap();
        let a = Analysis::new(&p);
        assert!(a.chain_index().jumps().is_empty());
        assert_eq!(a.stats().lst_builds, 0);
    }

    /// The checked narrowing itself: in-range indices pass through, the
    /// sentinel value and anything above it panic with the overflow
    /// message. Exercised on the helper directly — a real ≥4B-statement
    /// program is not constructible in a test.
    #[test]
    fn index_guard_accepts_the_full_sub_sentinel_range() {
        assert_eq!(index_u32(0, "statement index"), 0);
        assert_eq!(
            index_u32((u32::MAX - 1) as usize, "statement index"),
            u32::MAX - 1
        );
    }

    #[test]
    #[should_panic(expected = "chain index overflow")]
    fn index_guard_rejects_the_sentinel_collision() {
        // u32::MAX is exactly NO_STMT/NO_DW: a cast would not even
        // truncate here, it would silently *become* the sentinel.
        index_u32(u32::MAX as usize, "statement index");
    }

    #[test]
    #[should_panic(expected = "chain index overflow")]
    fn index_guard_rejects_truncating_counts() {
        // Only meaningful on 64-bit targets, where the cast used to wrap.
        if usize::BITS <= 32 {
            panic!("chain index overflow: not representable on this target");
        }
        index_u32(u32::MAX as usize + 1, "statement count");
    }
}
