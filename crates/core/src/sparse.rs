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
//! * [`ChainIndex`] captures each live unconditional jump's two chains as
//!   per-statement parent arrays (chains share suffixes in both trees)
//!   plus per-chain span-trimmed masks, so "nearest pdom/lexical successor
//!   *in the slice*" becomes a word-parallel `mask ∩ slice` probe (usually
//!   answering `None` immediately) followed by a short parent-array walk;
//!   and it inverts the chains into `affected`: statement → the jumps
//!   whose test that statement can change.
//! * [`figure7`] replays the round-based loop's rounds, but each round
//!   only re-tests the *dirty* jumps — those whose chains intersect the
//!   delta of statements admitted since their last test — in
//!   postdominator preorder, which is the order of the index's jump list.
//!   Deltas flow out of the dependence closures
//!   (`Pdg::backward_closure_delta`), and a dirty jump the current round
//!   has already passed is deferred to the next round, exactly when the
//!   dense loop would re-test it. Admission order, rounds, provenance,
//!   `traversals`: all bit-identical.
//!
//! Complexity: O(admissions × affected-jumps) probe work instead of
//! O(rounds × jumps × depth); the confirming final round costs only the
//! (empty) worklist check instead of a full traversal.

use crate::provenance::Recorder;
use crate::wire::{self, Reader};
use crate::{reassociate_labels, Analysis, Criterion, Slice};
use jumpslice_dataflow::{BitSet, StmtSet};
use jumpslice_lang::{StmtId, StmtKind};
use jumpslice_obs as obs;
use std::cell::RefCell;

/// Sentinel for "no do-while body" in the body-id arrays of [`ChainIndex`].
const NO_BODY: u32 = u32::MAX;

/// Sentinel for "the chain ends here (exit)" in the parent arrays.
const NO_STMT: u32 = u32::MAX;

/// Checked narrowing for the indices the chain index stores as `u32`
/// (statement ids in the parent arrays, do-while body ids). `u32::MAX`
/// itself is excluded: it is the [`NO_STMT`]/[`NO_BODY`] sentinel, so a
/// silent `as u32` truncation — or an exact collision with the sentinel —
/// would corrupt the chain walks instead of failing. No real program gets near 2³²−1 statements, so this panics
/// rather than plumbing a `Result` through the builder.
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

/// A span-trimmed statement mask: `words[i]` covers statement indices
/// `(off + i) * 64 ..`, with leading and trailing zero words dropped.
/// Chains occupy a contiguous tail of the program on goto-heavy inputs, so
/// probing a full-width [`StmtSet`] would wade through the zero prefix on
/// every test; trimming makes the common dense-slice probe O(1).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Mask {
    off: usize,
    words: Vec<u64>,
}

impl Mask {
    fn from_set(set: &StmtSet) -> Mask {
        let w = set.words();
        let Some(first) = w.iter().position(|&x| x != 0) else {
            return Mask::default();
        };
        let last = w.iter().rposition(|&x| x != 0).expect("some word is set");
        Mask {
            off: first,
            words: w[first..=last].to_vec(),
        }
    }

    /// Whether the mask shares a statement with `slice`, scanning only the
    /// mask's own span.
    fn intersects(&self, slice: &StmtSet) -> bool {
        match slice.words().get(self.off..) {
            Some(sw) => self.words.iter().zip(sw).any(|(a, b)| a & b != 0),
            None => false,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        wire::put_len(out, self.off);
        wire::put_len(out, self.words.len());
        for &w in &self.words {
            wire::put_u64(out, w);
        }
    }

    /// Decodes a mask whose span must fit a statement universe of
    /// `stmt_words` words; a span past that bound is malformed.
    fn decode_from(r: &mut Reader<'_>, stmt_words: usize) -> Option<Mask> {
        let off = r.len(stmt_words)?;
        let n = r.len(stmt_words - off)?;
        let raw = r.bytes(n.checked_mul(8)?)?;
        let words = raw
            .chunks_exact(8)
            .map(|w| u64::from_le_bytes(w.try_into().expect("chunks_exact(8)")))
            .collect();
        Some(Mask { off, words })
    }
}

/// Flattened per-jump chain data, built once per program and cached on
/// [`Analysis`] (see `Analysis::chain_index`).
///
/// Opaque outside this crate: it appears in [`crate::AnalysisSeed`] so the
/// incremental edit session can carry it across edits that leave the jump
/// structure, postdominators, and lexical successor tree intact, but its
/// contents are an implementation detail of the sparse kernel.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChainIndex {
    /// The indexed jumps — every live unconditional jump, in pdom preorder,
    /// which is Figure 7's visit order. A chain id is an index into this
    /// (and every per-chain) vector, so it is also the jump's visit rank.
    jumps: Vec<StmtId>,
    /// Statement index → the next statement-bearing proper pdom ancestor
    /// ([`NO_STMT`] = the exit). Chains share suffixes in the pdom tree, so
    /// one parent array replaces per-jump chain vectors: a chain is the
    /// walk `pnext[j]`, `pnext[pnext[j]]`, … Filled only along the paths
    /// from indexed jumps; untouched entries stay [`NO_STMT`], which a walk
    /// reads as "exit" and never follows further.
    pnext: Vec<u32>,
    /// Statement index → the immediate lexical successor ([`NO_STMT`] =
    /// the exit); the LST's own parent pointers, re-indexed by statement.
    lnext: Vec<u32>,
    /// Per chain: the pdom-chain statements as a mask for the word-parallel
    /// "does the slice touch this chain at all?" probe.
    pdom_masks: Vec<Mask>,
    /// Per chain: the lexical-successor chain as a mask.
    lst_masks: Vec<Mask>,
    /// Statement index → the nearest statement at-or-after it on the
    /// lexical-successor chain whose outgoing edge enters a do-while *from
    /// inside its body* (the hazard guard's candidate shape — a static
    /// property of the edge), or [`NO_STMT`]. Chains share suffixes, so one
    /// skip pointer per statement replaces a candidate list per chain.
    hz_skip: Vec<u32>,
    /// Statement index → the body index of that candidate edge's do-while
    /// (meaningful only where `hz_skip[s] == s`).
    hz_body: Vec<u32>,
    /// The do-while body sets the hazard candidates refer to.
    bodies: Vec<Mask>,
    /// Per chain: everything that can change the jump's test — both chains
    /// plus the candidate bodies — as one mask, for the O(span words) "does
    /// this slice touch the jump at all?" seed probe.
    touch_masks: Vec<Mask>,
    /// Statement index → the chain ids whose jump test can change when this
    /// statement enters the slice (`touch_masks` inverted), as a bitset over
    /// chain ids so delta dirtying is a word-parallel union.
    affected: Vec<BitSet>,
}

impl ChainIndex {
    /// Builds the index; forces the postdominator tree and (when the
    /// program has any indexed jump) the lexical successor tree.
    pub(crate) fn build(a: &Analysis<'_>) -> ChainIndex {
        let _t = obs::phase(obs::Phase::ChainIndexBuild);
        let prog = a.prog();
        let n = prog.len();
        let jumps = a.jumps_in_pdom_preorder();

        let mut pdom_masks = Vec::with_capacity(jumps.len());
        let mut lst_masks = Vec::with_capacity(jumps.len());
        let mut touch_masks = Vec::with_capacity(jumps.len());
        // Full-width body sets kept through the build for the touch unions;
        // only the trimmed masks survive into the index.
        let mut body_sets: Vec<StmtSet> = Vec::new();
        let mut body_of: Vec<u32> = vec![NO_BODY; n];
        let mut pnext = vec![NO_STMT; n];
        let mut lnext = vec![NO_STMT; n];
        let mut hz_skip = vec![NO_STMT; n];
        let mut hz_body = vec![NO_BODY; n];
        let mut chain_stmts = 0u64;

        if jumps.is_empty() {
            // Listing the jumps has forced the pdom tree; a jump-free
            // program skips the LST and the chain walks.
            return ChainIndex {
                jumps,
                pnext,
                lnext,
                pdom_masks,
                lst_masks,
                hz_skip,
                hz_body,
                bodies: Vec::new(),
                touch_masks,
                affected: Vec::new(),
            };
        }

        let cfg = a.cfg();
        let pdom = a.pdom();
        let lst = a.lst();

        // Parent arrays. The LST hands its parent pointers over directly;
        // pdom chains are filled by walking up from each jump, stopping as
        // soon as the walk enters territory an earlier jump already mapped
        // (chains in a tree share suffixes), so the total is O(distinct
        // chain statements), not O(sum of chain lengths).
        for s in prog.stmt_ids() {
            lnext[s.index()] = match lst.immediate(s) {
                Some(t) => index_u32(t.index(), "statement index"),
                None => NO_STMT,
            };
        }
        for &j in jumps.iter() {
            let mut prev = j;
            for anc in pdom.ancestors(cfg.node(j)) {
                if anc == cfg.exit() {
                    break;
                }
                let Some(t) = cfg.stmt(anc) else { continue };
                pnext[prev.index()] = index_u32(t.index(), "statement index");
                prev = t;
                if pnext[prev.index()] != NO_STMT {
                    break;
                }
            }
        }

        // Chain masks by memoized suffix-sharing DP: the mask of a
        // statement is its parent's mask plus the parent — one word-parallel
        // copy per distinct chain statement instead of per-element inserts
        // per jump.
        let mut pmask_memo: Vec<Option<StmtSet>> = vec![None; n];
        let mut lmask_memo: Vec<Option<StmtSet>> = vec![None; n];
        // Hazard DP over the LST: whether a chain step enters a do-while
        // from inside its body depends only on the edge, and every statement
        // has exactly one outgoing chain edge, so candidacy is a
        // per-statement fact. `hz_skip[s]` skips to the nearest candidate
        // at-or-after `s` — suffix-shared across chains with no list copies.
        let mut hz_done = vec![false; n];
        let mut path: Vec<StmtId> = Vec::new();
        let mut touch_sets: Vec<StmtSet> = Vec::with_capacity(jumps.len());

        for &j in &jumps {
            chain_mask(j, &pnext, &mut pmask_memo, &mut path, n);
            chain_mask(j, &lnext, &mut lmask_memo, &mut path, n);

            // Hazard skip pointers, deepest unresolved statement first.
            path.clear();
            let mut cur = j;
            while !hz_done[cur.index()] {
                path.push(cur);
                let t = lnext[cur.index()];
                if t == NO_STMT {
                    break;
                }
                cur = StmtId::from_index(t as usize);
            }
            while let Some(u) = path.pop() {
                let t = lnext[u.index()];
                hz_skip[u.index()] = if t == NO_STMT {
                    NO_STMT
                } else {
                    let t = StmtId::from_index(t as usize);
                    if matches!(prog.stmt(t).kind, StmtKind::DoWhile { .. })
                        && a.dowhile_body(t).contains(u)
                    {
                        hz_body[u.index()] = if body_of[t.index()] == NO_BODY {
                            let idx = index_u32(body_sets.len(), "do-while body id");
                            body_of[t.index()] = idx;
                            body_sets.push(a.dowhile_body(t).clone());
                            idx
                        } else {
                            body_of[t.index()]
                        };
                        index_u32(u.index(), "statement index")
                    } else {
                        hz_skip[t.index()]
                    }
                };
                hz_done[u.index()] = true;
            }

            let pm = pmask_memo[j.index()].as_ref().expect("just ensured");
            let lm = lmask_memo[j.index()].as_ref().expect("just ensured");
            chain_stmts += (pm.len() + lm.len()) as u64;

            let mut touch = pm.clone();
            touch.union_with(lm);
            let mut v = hz_skip[j.index()];
            while v != NO_STMT {
                touch.union_with(&body_sets[hz_body[v as usize] as usize]);
                v = hz_skip[lnext[v as usize] as usize];
            }
            touch_masks.push(Mask::from_set(&touch));
            touch_sets.push(touch);
            pdom_masks.push(Mask::from_set(pm));
            lst_masks.push(Mask::from_set(lm));
        }
        let bodies = body_sets.iter().map(Mask::from_set).collect();

        // `affected` is the touch matrix transposed (statement → chains),
        // produced 64×64 bit-block at a time instead of bit-by-bit.
        let chain_words = jumps.len().div_ceil(64);
        let stmt_words = n.div_ceil(64);
        let mut aff_words: Vec<Vec<u64>> = vec![vec![0; chain_words]; n];
        let mut block = [0u64; 64];
        for cb in 0..chain_words {
            for w in 0..stmt_words {
                block.fill(0);
                let mut any = false;
                for (r, set) in touch_sets[cb * 64..].iter().take(64).enumerate() {
                    let v = set.words().get(w).copied().unwrap_or(0);
                    block[r] = v;
                    any |= v != 0;
                }
                if !any {
                    continue;
                }
                // transpose64 works in MSB-first row order; bracketing it
                // with row reversals yields the LSB-first transpose
                // (bit b of row r → bit r of row b).
                block.reverse();
                transpose64(&mut block);
                block.reverse();
                for (b, &v) in block.iter().enumerate() {
                    if v != 0 {
                        aff_words[w * 64 + b][cb] = v;
                    }
                }
            }
        }
        let affected: Vec<BitSet> = aff_words
            .into_iter()
            .map(|ws| BitSet::from_words(jumps.len(), ws))
            .collect();

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
            pdom_masks,
            lst_masks,
            hz_skip,
            hz_body,
            bodies,
            touch_masks,
            affected,
        }
    }

    /// Serializes the index for the analysis snapshot store. The layout is
    /// private to this crate; [`ChainIndex::decode_from`] is the only
    /// reader.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        let n = self.pnext.len();
        wire::put_len(out, n);
        wire::put_len(out, self.jumps.len());
        for &j in &self.jumps {
            wire::put_u32(out, index_u32(j.index(), "statement index"));
        }
        for arr in [&self.pnext, &self.lnext, &self.hz_skip, &self.hz_body] {
            debug_assert_eq!(arr.len(), n);
            for &v in arr.iter() {
                wire::put_u32(out, v);
            }
        }
        wire::put_len(out, self.bodies.len());
        for group in [
            &self.pdom_masks,
            &self.lst_masks,
            &self.touch_masks,
            &self.bodies,
        ] {
            for m in group.iter() {
                m.encode_into(out);
            }
        }
        wire::put_len(out, self.affected.len());
        for set in &self.affected {
            set.encode_into(out);
        }
    }

    /// Decodes an index for a program of `n` statements, validating every
    /// stored index against its array's bounds (sentinels pass through)
    /// and the walks the kernel makes over them: the parent arrays must be
    /// acyclic, and every hazard skip pointer must follow the build's
    /// recurrence, so every probe reaches its sentinel. `None` means the
    /// bytes are malformed — the caller falls back to rebuilding from
    /// source. Whether the chains are this program's is the snapshot
    /// layer's whole-record checksum's concern.
    pub(crate) fn decode_from(r: &mut Reader<'_>, n: usize) -> Option<ChainIndex> {
        fn u32_array(r: &mut Reader<'_>, len: usize, bound: usize) -> Option<Vec<u32>> {
            (0..len)
                .map(|_| {
                    let v = r.u32()?;
                    (v == u32::MAX || (v as usize) < bound).then_some(v)
                })
                .collect()
        }
        fn masks(r: &mut Reader<'_>, len: usize, stmt_words: usize) -> Option<Vec<Mask>> {
            (0..len).map(|_| Mask::decode_from(r, stmt_words)).collect()
        }

        if r.len(n)? != n {
            return None;
        }
        let jc = r.len(n)?;
        let jumps = (0..jc)
            .map(|_| {
                let v = r.u32()? as usize;
                (v < n).then(|| StmtId::from_index(v))
            })
            .collect::<Option<Vec<StmtId>>>()?;
        // A statement listed twice would be visited twice per round.
        let mut listed = StmtSet::with_capacity(n);
        if !jumps.iter().all(|&j| listed.insert(j)) {
            return None;
        }
        let pnext = u32_array(r, n, n)?;
        let lnext = u32_array(r, n, n)?;
        let hz_skip = u32_array(r, n, n)?;
        // Body ids are bounded by the statement count (one body per
        // distinct do-while); the exact bound is re-checked below once the
        // body count has been read.
        let hz_body = u32_array(r, n, n)?;
        let n_bodies = r.len(n)?;
        if hz_body
            .iter()
            .any(|&v| v != NO_BODY && v as usize >= n_bodies)
        {
            return None;
        }
        if !acyclic(&pnext) || !acyclic(&lnext) {
            return None;
        }
        // The build sets `hz_skip[s]` to the sentinel, to `s` itself (its
        // edge enters a do-while's predicate from that do-while's body,
        // with a body id), or to its lexical successor's pointer. Along an
        // acyclic `lnext` that keeps every `hazard` walk on the chain.
        let skip_ok = |s: usize| {
            let (h, t) = (hz_skip[s], lnext[s]);
            h == NO_STMT
                || t != NO_STMT
                    && (h as usize == s && hz_body[s] != NO_BODY || h == hz_skip[t as usize])
        };
        if !(0..n).all(skip_ok) {
            return None;
        }
        let stmt_words = n.div_ceil(64);
        let pdom_masks = masks(r, jc, stmt_words)?;
        let lst_masks = masks(r, jc, stmt_words)?;
        let touch_masks = masks(r, jc, stmt_words)?;
        let bodies = masks(r, n_bodies, stmt_words)?;
        let n_affected = r.len(n)?;
        if n_affected != if jc == 0 { 0 } else { n } {
            return None;
        }
        let affected = (0..n_affected)
            .map(|_| {
                let set = r.bitset()?;
                (set.capacity() == jc).then_some(set)
            })
            .collect::<Option<Vec<BitSet>>>()?;
        Some(ChainIndex {
            jumps,
            pnext,
            lnext,
            pdom_masks,
            lst_masks,
            hz_skip,
            hz_body,
            bodies,
            touch_masks,
            affected,
        })
    }

    /// `Analysis::nearest_pdom_in`, answered by a parent-array walk gated
    /// on the chain mask.
    fn nearest_pdom_in(&self, c: usize, slice: &StmtSet) -> Option<StmtId> {
        nearest_in(self.jumps[c], &self.pnext, &self.pdom_masks[c], slice)
    }

    /// `Analysis::nearest_lexsucc_in`, answered the same way over the LST
    /// parent array.
    fn nearest_lexsucc_in(&self, c: usize, slice: &StmtSet) -> Option<StmtId> {
        nearest_in(self.jumps[c], &self.lnext, &self.lst_masks[c], slice)
    }

    /// `Analysis::dowhile_hazard`, answered from the precomputed skip
    /// pointers and body bitsets. Walks chain statements up to the last
    /// candidate do-while, bailing on the first one already in the slice.
    fn hazard(&self, c: usize, slice: &StmtSet) -> bool {
        let mut v = self.hz_skip[self.jumps[c].index()];
        if v == NO_STMT {
            return false;
        }
        let mut s = self.lnext[self.jumps[c].index()];
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
            if self.bodies[self.hz_body[v as usize] as usize].intersects(slice) {
                return true;
            }
            v = self.hz_skip[d as usize];
            if v == NO_STMT {
                return false;
            }
        }
    }
}

/// Whether following `next` from every statement reaches [`NO_STMT`]: one
/// pass in which each statement is entered once, marked on the walk that
/// first reaches it and settled when that walk ends.
fn acyclic(next: &[u32]) -> bool {
    const NEW: u8 = 0;
    const ON_WALK: u8 = 1;
    const SETTLED: u8 = 2;
    let mut state = vec![NEW; next.len()];
    for start in 0..next.len() {
        let mut s = start as u32;
        while s != NO_STMT && state[s as usize] == NEW {
            state[s as usize] = ON_WALK;
            s = next[s as usize];
        }
        if s != NO_STMT && state[s as usize] == ON_WALK {
            return false;
        }
        let mut s = start as u32;
        while s != NO_STMT && state[s as usize] == ON_WALK {
            state[s as usize] = SETTLED;
            s = next[s as usize];
        }
    }
    true
}

/// First statement on `j`'s `next`-chain that is in `slice`, gated by a
/// word-parallel mask probe. `None` means the walk would fall through to
/// the exit.
fn nearest_in(j: StmtId, next: &[u32], mask: &Mask, slice: &StmtSet) -> Option<StmtId> {
    if !mask.intersects(slice) {
        return None;
    }
    let mut s = next[j.index()];
    while s != NO_STMT {
        let t = StmtId::from_index(s as usize);
        if slice.contains(t) {
            return Some(t);
        }
        s = next[s as usize];
    }
    None
}

/// In-place 64×64 bit-matrix transpose (Hacker's Delight 7-3): afterwards
/// bit `r` of `a[b]` is what bit `b` of `a[r]` was.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32usize;
    let mut m = 0x0000_0000_FFFF_FFFFu64;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            let t = (a[k] ^ (a[k + j] >> j)) & m;
            a[k] ^= t;
            a[k + j] ^= t << j;
            k = (k + j + 1) & !j;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// Ensures `memo[s]` holds the set of statements on the `next`-chain
/// strictly after `s`, resolving every statement on the path below the
/// first already-resolved one — a suffix-sharing DP where each distinct
/// chain statement costs one word-parallel copy of its parent's mask
/// instead of a per-jump element walk.
fn chain_mask(
    s: StmtId,
    next: &[u32],
    memo: &mut [Option<StmtSet>],
    path: &mut Vec<StmtId>,
    n: usize,
) {
    path.clear();
    let mut cur = s;
    while memo[cur.index()].is_none() {
        path.push(cur);
        let t = next[cur.index()];
        if t == NO_STMT {
            break;
        }
        cur = StmtId::from_index(t as usize);
    }
    while let Some(u) = path.pop() {
        let t = next[u.index()];
        let set = if t == NO_STMT {
            StmtSet::with_capacity(n)
        } else {
            let t = StmtId::from_index(t as usize);
            let mut set = memo[t.index()].as_ref().expect("resolved before u").clone();
            set.insert(t);
            set
        };
        memo[u.index()] = Some(set);
    }
}

/// Per-thread reusable buffers: the closure delta vector and the
/// dirty-jump worklists. Pooled so the batch engine's workers run the whole
/// fixpoint allocation-free after the first criterion.
struct Scratch {
    delta: Vec<StmtId>,
    cur: BitSet,
    next: BitSet,
}

impl Default for Scratch {
    fn default() -> Scratch {
        Scratch {
            delta: Vec::new(),
            cur: BitSet::new(0),
            next: BitSet::new(0),
        }
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
        mut cur,
        mut next,
    } = SCRATCH.with(|s| s.take());

    // One PDG lookup per slice; every closure below walks it.
    let (pdg, mut stmts) = {
        let _t = obs::phase(obs::Phase::ConventionalClosure);
        let seeds = crit.seeds(a);
        let pdg = a.pdg();
        let stmts = match rec.as_deref_mut() {
            Some(r) => r.seed_closure(pdg, crit, seeds),
            None => pdg.backward_closure(seeds),
        };
        (pdg, stmts)
    };

    let mut traversals = 0usize;
    let mut round: u32 = 0;
    let mut retests = 0u64;
    let mut dirty_marks = 0u64;
    let ci = a.chain_index();
    let jumps = &ci.jumps;

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
        if cur.capacity() < jumps.len() {
            cur = BitSet::new(jumps.len());
            next = BitSet::new(jumps.len());
        } else {
            // Both drained empty when the previous fixpoint converged; clear
            // anyway in case a panic unwound mid-round.
            cur.clear();
            next.clear();
        }

        // Seed dirtying: the whole conventional closure is one delta against
        // the empty slice. Probing each jump's touch mask against it costs
        // O(jumps × words) — iterating the closure through `affected` would
        // be O(|closure| × jumps) on goto-dense programs, whose chains span
        // most of the program.
        for (c, &j) in jumps.iter().enumerate() {
            if !stmts.contains(j) && ci.touch_masks[c].intersects(&stmts) {
                dirty_marks += u64::from(next.insert(c));
            }
        }

        loop {
            round += 1;
            // Cooperative deadline probe at the round boundary; free when
            // no deadline is installed (the default outside the daemon).
            crate::cancel::checkpoint();
            let mut admitted: u32 = 0;
            {
                let _t = obs::phase_round(obs::Phase::FixpointRound, round);
                std::mem::swap(&mut cur, &mut next);
                let mut pos = 0usize;
                while let Some(c) = cur.next_at_or_after(pos) {
                    crate::cancel::checkpoint();
                    cur.remove(c);
                    pos = c;
                    let j = jumps[c];
                    if stmts.contains(j) {
                        continue;
                    }
                    retests += 1;
                    let npd = ci.nearest_pdom_in(c, &stmts);
                    let nls = ci.nearest_lexsucc_in(c, &stmts);
                    let disagree = npd != nls;
                    if disagree || ci.hazard(c, &stmts) {
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
                            // masked unions below do not care.
                            None => pdg.backward_closure_delta([j], &mut stmts, &mut delta),
                        }
                        admitted += 1;
                        // Dirty every jump whose chain the delta touched. A
                        // jump the current round has not reached yet is
                        // tested this round; anything at or before the
                        // cursor waits for the next round, as in the paper's
                        // traversal. Already-admitted jumps may be enqueued;
                        // the drain skips them.
                        let before = cur.len() + next.len();
                        for &s in &delta {
                            let m = &ci.affected[s.index()];
                            cur.union_range(m, c + 1, jumps.len());
                            next.union_range(m, 0, c + 1);
                        }
                        dirty_marks += (cur.len() + next.len() - before) as u64;
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

    let moved_labels = {
        let _t = obs::phase(obs::Phase::LabelReassoc);
        reassociate_labels(a, &stmts)
    };

    SCRATCH.with(|s| *s.borrow_mut() = Scratch { delta, cur, next });

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

    /// Chain probes answer exactly like the tree walks they replace, at
    /// every slice state reachable by growing the slice one statement at a
    /// time in id order.
    #[test]
    fn chain_probes_match_tree_walks() {
        for p in [
            corpus::fig3(),
            corpus::fig5(),
            corpus::fig8(),
            corpus::fig10(),
            corpus::fig14(),
            corpus::fig16(),
        ] {
            let a = Analysis::new(&p);
            let ci = a.chain_index();
            let mut slice = StmtSet::with_capacity(p.len());
            for grow in std::iter::once(None).chain(p.stmt_ids().map(Some)) {
                if let Some(s) = grow {
                    slice.insert(s);
                }
                for (c, &j) in ci.jumps.iter().enumerate() {
                    assert_eq!(ci.nearest_pdom_in(c, &slice), a.nearest_pdom_in(j, &slice));
                    assert_eq!(
                        ci.nearest_lexsucc_in(c, &slice),
                        a.nearest_lexsucc_in(j, &slice)
                    );
                    assert_eq!(ci.hazard(c, &slice), a.dowhile_hazard(j, &slice));
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
        let c = ci
            .jumps
            .iter()
            .position(|&j| j == brk)
            .expect("break is indexed");
        let n = p.len();
        let mut fired = false;
        for mask in 0u32..(1 << n) {
            let slice: StmtSet = p
                .stmt_ids()
                .filter(|s| mask & (1 << s.index()) != 0)
                .collect();
            let got = ci.hazard(c, &slice);
            assert_eq!(got, a.dowhile_hazard(brk, &slice), "slice mask {mask:#b}");
            fired |= got;
        }
        assert!(fired, "the hazard case is actually exercised");
    }

    /// The transposed `affected` inversion agrees with the touch masks it
    /// was derived from, on a program with more than 64 chains (so the
    /// block transpose crosses a chain-word boundary).
    #[test]
    fn affected_inversion_matches_touch_masks_past_64_chains() {
        let mut src = String::from("read(x);\n");
        for k in 0..70 {
            src.push_str(&format!("goto L{k};\nL{k}: x = x + {k};\n"));
        }
        src.push_str("write(x);");
        let p = parse(&src).unwrap();
        let a = Analysis::new(&p);
        let ci = a.chain_index();
        assert!(ci.jumps.len() > 64, "need a second chain word");
        for s in p.stmt_ids() {
            let single: StmtSet = [s].into_iter().collect();
            for c in 0..ci.jumps.len() {
                assert_eq!(
                    ci.affected[s.index()].contains(c),
                    ci.touch_masks[c].intersects(&single),
                    "stmt {s:?} chain {c}"
                );
            }
        }
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
        // u32::MAX is exactly NO_STMT/NO_BODY: a cast would not even
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
        index_u32(u32::MAX as usize + 1, "do-while body id");
    }

    /// The wire codec reproduces the index field-for-field on jump-heavy,
    /// do-while, and jump-free programs, and rejects truncation at every
    /// prefix length instead of panicking.
    #[test]
    fn chain_index_codec_round_trips_and_rejects_truncation() {
        let dowhile =
            parse("read(x); do { x = x + 1; if (c) break; y = 2; } while (x < 10); write(y);")
                .unwrap();
        let jumpfree = parse("a = 1; write(a);").unwrap();
        for p in [
            corpus::fig3(),
            corpus::fig8(),
            corpus::fig10(),
            dowhile,
            jumpfree,
        ] {
            let a = Analysis::new(&p);
            let ci = a.chain_index();
            let mut bytes = Vec::new();
            ci.encode_into(&mut bytes);

            let mut r = Reader::new(&bytes);
            let back = ChainIndex::decode_from(&mut r, p.len()).expect("well-formed bytes decode");
            assert_eq!(r.remaining(), 0, "codec consumed exactly its record");
            assert_eq!(&back, ci);

            for cut in 0..bytes.len() {
                let mut r = Reader::new(&bytes[..cut]);
                assert_eq!(
                    ChainIndex::decode_from(&mut r, p.len()),
                    None,
                    "truncation at {cut} must be rejected"
                );
            }
            // A mismatched statement count is a stale record, not a panic.
            let mut r = Reader::new(&bytes);
            assert_eq!(ChainIndex::decode_from(&mut r, p.len() + 1), None);
        }
    }

    /// Fig 3's statement count, chain index and encoded index, and the
    /// offset of the encoding's `pnext` array (after the statement count,
    /// the jump count and one u32 per jump).
    fn fig3_index_bytes() -> (usize, ChainIndex, Vec<u8>, usize) {
        let p = corpus::fig3();
        let ci = Analysis::new(&p).chain_index().clone();
        let mut bytes = Vec::new();
        ci.encode_into(&mut bytes);
        let pnext_at = 8 + 4 * ci.jumps.len();
        (p.len(), ci, bytes, pnext_at)
    }

    fn put_word(bytes: &mut [u8], at: usize, v: u32) {
        bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// A forged `lnext` that maps a jump to itself would spin the
    /// lexical-successor probe forever; the decoder refuses it.
    #[test]
    fn chain_index_decoder_rejects_an_lnext_self_loop() {
        let (n, ci, mut bytes, pnext_at) = fig3_index_bytes();
        let j = ci.jumps[0].index();
        put_word(&mut bytes, pnext_at + 4 * (n + j), j as u32);
        assert_eq!(ChainIndex::decode_from(&mut Reader::new(&bytes), n), None);
    }

    /// A two-statement cycle in `pnext` is refused just the same.
    #[test]
    fn chain_index_decoder_rejects_a_pnext_two_cycle() {
        let (n, ci, mut bytes, pnext_at) = fig3_index_bytes();
        let j = ci.jumps[0];
        let t = ci.pnext[j.index()];
        assert_ne!(t, NO_STMT, "the first jump has a pdom chain");
        put_word(&mut bytes, pnext_at + 4 * t as usize, j.index() as u32);
        assert_eq!(ChainIndex::decode_from(&mut Reader::new(&bytes), n), None);
    }

    /// A hazard skip pointer that is neither the sentinel, the statement
    /// itself, nor its lexical successor's pointer is refused: the
    /// `hazard` walk would leave the chain.
    #[test]
    fn chain_index_decoder_rejects_a_stray_hazard_skip() {
        let (n, ci, mut bytes, pnext_at) = fig3_index_bytes();
        // A statement whose lexical successor is another statement: point
        // its skip at a third one, off that recurrence.
        let s = (0..n)
            .find(|&s| ci.lnext[s] != NO_STMT)
            .expect("fig 3 has a lexical chain");
        let stray = (0..n)
            .find(|&t| t != s && t as u32 != ci.hz_skip[ci.lnext[s] as usize])
            .unwrap();
        put_word(&mut bytes, pnext_at + 4 * (2 * n + s), stray as u32);
        assert_eq!(ChainIndex::decode_from(&mut Reader::new(&bytes), n), None);
    }

    /// A record whose jump list names a statement twice is malformed: the
    /// kernel would visit that jump twice per round.
    #[test]
    fn chain_index_decoder_rejects_a_repeated_jump() {
        let p = corpus::fig3();
        let a = Analysis::new(&p);
        let ci = a.chain_index();
        assert!(ci.jumps.len() >= 2);
        let mut bytes = Vec::new();
        ci.encode_into(&mut bytes);
        // Layout: statement count, jump count, then one u32 per jump.
        let first: [u8; 4] = bytes[8..12].try_into().unwrap();
        bytes[12..16].copy_from_slice(&first);
        assert_eq!(
            ChainIndex::decode_from(&mut Reader::new(&bytes), p.len()),
            None
        );
    }
}
