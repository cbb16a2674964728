//! The multi-program analysis cache.
//!
//! The daemon's whole value is *reuse*: the first request against a
//! program pays for parsing and the lazy analyses; every later request —
//! including edits, which selectively invalidate — rides the warm
//! [`EditSession`]. Entries are keyed by the content hash of the source
//! text (see [`crate::hash`]), so identical programs loaded by different
//! clients share one session, and an edited program *moves* to its new
//! content key instead of duplicating.
//!
//! Eviction is byte-budgeted LRU: each entry carries a size estimate
//! (source text plus the bitset-quadratic analysis artifacts), and
//! inserting past the budget evicts least-recently-used entries — except
//! the newest one, so a single oversized program still serves, and except
//! checked-out entries, which a worker is actively using.
//!
//! Concurrency is **check-out/check-in**: a worker takes the whole entry
//! out of the map (leaving a marker), works on it without any lock held,
//! and checks it back in — possibly under a new key, when an edit changed
//! the program's content. A second worker needing the same program waits
//! on a condvar rather than spinning. Counters mirror onto the `obs` layer
//! (`serve.cache.hit/miss/evict`) for single-threaded in-process callers
//! with a trace sink installed; the daemon's `stats` op reads the same
//! numbers through [`CacheStats`].

use crate::fault::{LeaseEvent, SharedFaultHook};
use jumpslice_incr::EditSession;
use jumpslice_obs as obs;
use std::collections::HashMap;
use std::sync::{Condvar, Mutex};

/// A cached program: the warm session plus the bookkeeping the cache
/// needs.
#[derive(Debug)]
pub struct Entry {
    /// The warm edit-and-reslice session (owns the program and every
    /// analysis artifact computed for it so far).
    pub session: EditSession,
    /// The source text the entry was registered under (the preimage of its
    /// key).
    pub source: String,
    /// Estimated resident bytes (see [`estimate_bytes`]).
    pub bytes: usize,
}

impl Entry {
    /// Builds an entry, estimating its resident size.
    pub fn new(session: EditSession, source: String) -> Entry {
        let bytes = estimate_bytes(source.len(), session.prog().len());
        Entry {
            session,
            source,
            bytes,
        }
    }
}

/// Resident-size estimate for one cached program: the source text plus the
/// analysis artifacts. Every artifact an entry keeps is linear in the
/// program — the PDG's data half is factored through φs, and no entry
/// keeps reaching-definitions IN sets — so the `n²/2` term stands for
/// nothing a warm seed holds and over-predicts every entry. It stays only
/// because the eviction it drives (how many programs stay resident under
/// `--cache-bytes`) is tuned to it, until the formula is re-derived from
/// measured seeds as part of admission by predicted cost.
pub fn estimate_bytes(source_len: usize, stmts: usize) -> usize {
    source_len + 512 + stmts * 256 + (stmts * stmts) / 2
}

/// A snapshot of the cache's counters and occupancy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Entries currently resident (including checked-out ones).
    pub entries: usize,
    /// Estimated resident bytes (including checked-out entries).
    pub bytes: usize,
    /// Requests that found their program resident.
    pub hits: u64,
    /// Requests that missed (including `load`s of new programs).
    pub misses: u64,
    /// Entries evicted to stay within the byte budget.
    pub evictions: u64,
}

/// One map slot: the entry itself, or a marker that a worker has it.
enum Slot {
    /// Resident; `tick` is the last-touch stamp LRU eviction orders by.
    Present { entry: Box<Entry>, tick: u64 },
    /// A worker checked the entry out; `bytes` keeps the budget accounting
    /// honest while it is away.
    CheckedOut { bytes: usize },
}

struct Inner {
    slots: HashMap<u64, Slot>,
    tick: u64,
    bytes: usize,
    stats: CacheStats,
}

/// The shared LRU described in the module docs.
pub struct AnalysisCache {
    byte_budget: usize,
    inner: Mutex<Inner>,
    /// Signalled on every check-in and abort, waking workers queued behind
    /// a checked-out entry.
    returned: Condvar,
    /// Fault-plane probe (see [`crate::fault`]); `None` in production.
    hook: Option<SharedFaultHook>,
}

impl AnalysisCache {
    /// An empty cache evicting past `byte_budget` estimated bytes.
    pub fn new(byte_budget: usize) -> AnalysisCache {
        AnalysisCache {
            byte_budget,
            inner: Mutex::new(Inner {
                slots: HashMap::new(),
                tick: 0,
                bytes: 0,
                stats: CacheStats::default(),
            }),
            returned: Condvar::new(),
            hook: None,
        }
    }

    /// Installs a fault hook (chaos testing only); every lease event is
    /// reported to it and its overrides are honored.
    pub fn set_fault_hook(&mut self, hook: SharedFaultHook) {
        self.hook = Some(hook);
    }

    fn probe(&self, event: LeaseEvent) {
        if let Some(h) = &self.hook {
            h.lease(event);
        }
    }

    /// Registers `entry` under `key`. An existing resident entry for the
    /// same content is kept (it is at least as warm) and counted as a hit;
    /// a new registration counts as a miss and may evict others. Returns
    /// whether the program was already resident.
    pub fn insert(&self, key: u64, entry: Entry) -> bool {
        let mut g = self.inner.lock().expect("cache lock");
        g.tick += 1;
        let tick = g.tick;
        match g.slots.get_mut(&key) {
            Some(Slot::Present { tick: t, .. }) => {
                *t = tick;
                g.stats.hits += 1;
                obs::record(|| obs::Event::Count {
                    name: "serve.cache.hit",
                    value: g.stats.hits,
                });
                true
            }
            Some(Slot::CheckedOut { .. }) => {
                // A worker is using this very program; the registration is
                // a hit and the in-flight entry stays canonical.
                g.stats.hits += 1;
                obs::record(|| obs::Event::Count {
                    name: "serve.cache.hit",
                    value: g.stats.hits,
                });
                true
            }
            None => {
                g.bytes += entry.bytes;
                g.slots.insert(
                    key,
                    Slot::Present {
                        entry: Box::new(entry),
                        tick,
                    },
                );
                g.stats.misses += 1;
                obs::record(|| obs::Event::Count {
                    name: "serve.cache.miss",
                    value: g.stats.misses,
                });
                self.probe(LeaseEvent::Insert { key });
                let evicted = self.evict_over_budget(&mut g);
                drop(g);
                drop(evicted);
                false
            }
        }
    }

    /// Takes the entry for `key` out of the map, waiting while another
    /// worker has it. `None` means the program is not resident (never
    /// loaded, or evicted) — counted as a miss.
    pub fn checkout(&self, key: u64) -> Option<Entry> {
        let mut g = self.inner.lock().expect("cache lock");
        loop {
            match g.slots.get(&key) {
                Some(Slot::Present { .. }) => {
                    g.tick += 1;
                    let Some(Slot::Present { entry, .. }) = g.slots.remove(&key) else {
                        unreachable!("matched Present above");
                    };
                    g.slots.insert(key, Slot::CheckedOut { bytes: entry.bytes });
                    g.stats.hits += 1;
                    obs::record(|| obs::Event::Count {
                        name: "serve.cache.hit",
                        value: g.stats.hits,
                    });
                    self.probe(LeaseEvent::Checkout { key });
                    return Some(*entry);
                }
                Some(Slot::CheckedOut { .. }) => {
                    g = self.returned.wait(g).expect("cache lock");
                }
                None => {
                    g.stats.misses += 1;
                    obs::record(|| obs::Event::Count {
                        name: "serve.cache.miss",
                        value: g.stats.misses,
                    });
                    self.probe(LeaseEvent::Miss { key });
                    return None;
                }
            }
        }
    }

    /// Returns a checked-out entry, under `new_key` (== `old_key` unless an
    /// edit changed the program's content). If the new key collides with a
    /// resident entry — the edit recreated a program someone else has
    /// loaded — the returned session wins: it is warmer.
    pub fn checkin(&self, old_key: u64, new_key: u64, entry: Entry) {
        let mut g = self.inner.lock().expect("cache lock");
        // Clear the marker this lease left — but only if it is still a
        // marker. A concurrent edit can check *its* entry in under our
        // `old_key` (content collision), replacing the marker with a fresh
        // `Present` entry; removing that entry here would silently drop a
        // warm session and leak its bytes into the accounting forever
        // (found by chaos concurrency stress: the cache then believed it
        // was full and thrashed every later insert).
        if let Some(Slot::CheckedOut { bytes }) = g.slots.get(&old_key) {
            let bytes = *bytes;
            g.slots.remove(&old_key);
            g.bytes = g.bytes.saturating_sub(bytes);
        }
        // Collision: drop the colder twin (or a stale marker — workers
        // waiting on it will re-probe and find the fresh entry).
        let twin = g.slots.remove(&new_key);
        match &twin {
            Some(Slot::Present { entry: e, .. }) => g.bytes = g.bytes.saturating_sub(e.bytes),
            Some(Slot::CheckedOut { bytes }) => g.bytes = g.bytes.saturating_sub(*bytes),
            None => {}
        }
        g.tick += 1;
        let tick = g.tick;
        g.bytes += entry.bytes;
        g.slots.insert(
            new_key,
            Slot::Present {
                entry: Box::new(entry),
                tick,
            },
        );
        self.probe(LeaseEvent::Checkin { old_key, new_key });
        let evicted = self.evict_over_budget(&mut g);
        drop(g);
        self.returned.notify_all();
        drop((twin, evicted));
    }

    /// Drops a checked-out entry instead of returning it — the safety
    /// valve for a request that panicked mid-use, where the session's
    /// internal state can no longer be trusted.
    pub fn abort_checkout(&self, key: u64) {
        let mut g = self.inner.lock().expect("cache lock");
        // Same collision guard as `checkin`: only the marker this lease
        // left may be cleared; a colliding edit's fresh entry stays.
        if let Some(Slot::CheckedOut { bytes }) = g.slots.get(&key) {
            let bytes = *bytes;
            g.slots.remove(&key);
            g.bytes = g.bytes.saturating_sub(bytes);
        }
        self.probe(LeaseEvent::Abort { key });
        drop(g);
        self.returned.notify_all();
    }

    /// Counter and occupancy snapshot.
    pub fn stats(&self) -> CacheStats {
        let g = self.inner.lock().expect("cache lock");
        CacheStats {
            entries: g.slots.len(),
            bytes: g.bytes,
            ..g.stats
        }
    }

    /// Evicts least-recently-touched resident entries until the estimate
    /// fits the budget. Never evicts checked-out entries, and always keeps
    /// at least one resident entry, so a single over-budget program still
    /// serves rather than thrashing. Returns the evicted entries for the
    /// caller to drop once it has released the lock: tearing down a warm
    /// session of 5,000 statements takes most of a millisecond, which
    /// every checkout, check-in and `stats` would otherwise wait out.
    ///
    /// The only exception to the checked-out pin is the fault hook's
    /// [`evict_leased`](crate::fault::FaultHook::evict_leased) known-bug
    /// override: with it the LRU victimizes lease markers too (treated as
    /// infinitely old). That is a deliberate invariant violation — the
    /// chaos harness's self-test injects it to prove its lease tracker
    /// catches exactly this class of bug.
    fn evict_over_budget(&self, g: &mut Inner) -> Vec<Entry> {
        let evict_leased = self.hook.as_ref().is_some_and(|h| h.evict_leased());
        let mut victims = Vec::new();
        while g.bytes > self.byte_budget {
            let resident = g
                .slots
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Present { tick, .. } => Some((*k, *tick)),
                    Slot::CheckedOut { .. } if evict_leased => Some((*k, 0)),
                    Slot::CheckedOut { .. } => None,
                })
                .collect::<Vec<_>>();
            if resident.len() <= 1 {
                break;
            }
            let (victim, _) = resident
                .into_iter()
                .min_by_key(|&(_, tick)| tick)
                .expect("len > 1 checked");
            match g.slots.remove(&victim) {
                Some(Slot::Present { entry, .. }) => {
                    g.bytes = g.bytes.saturating_sub(entry.bytes);
                    g.stats.evictions += 1;
                    obs::record(|| obs::Event::Count {
                        name: "serve.cache.evict",
                        value: g.stats.evictions,
                    });
                    self.probe(LeaseEvent::Evict {
                        key: victim,
                        leased: false,
                    });
                    victims.push(*entry);
                }
                Some(Slot::CheckedOut { bytes }) => {
                    g.bytes = g.bytes.saturating_sub(bytes);
                    g.stats.evictions += 1;
                    self.probe(LeaseEvent::Evict {
                        key: victim,
                        leased: true,
                    });
                }
                None => {}
            }
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::content_hash;
    use jumpslice_lang::parse;

    fn entry(src: &str) -> (u64, Entry) {
        let p = parse(src).expect("test source parses");
        let session = EditSession::try_new(p).expect("analyzable");
        (content_hash(src), Entry::new(session, src.to_owned()))
    }

    #[test]
    fn checkout_checkin_round_trip() {
        let cache = AnalysisCache::new(usize::MAX);
        let (k, e) = entry("x = 1; write(x);");
        assert!(!cache.insert(k, e), "first registration is new");
        let got = cache.checkout(k).expect("resident");
        assert_eq!(got.source, "x = 1; write(x);");
        cache.checkin(k, k, got);
        assert!(cache.checkout(k).is_some(), "still resident after checkin");
        let s = cache.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 1);
    }

    #[test]
    fn reloading_a_resident_program_is_a_hit() {
        let cache = AnalysisCache::new(usize::MAX);
        let (k, e) = entry("x = 1; write(x);");
        cache.insert(k, e);
        let (_, e2) = entry("x = 1; write(x);");
        assert!(cache.insert(k, e2), "second registration hits");
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn byte_budget_evicts_lru_but_keeps_the_newest() {
        let (k1, e1) = entry("a = 1; write(a);");
        let budget = e1.bytes; // room for roughly one entry
        let cache = AnalysisCache::new(budget);
        cache.insert(k1, e1);
        let (k2, e2) = entry("b = 2; write(b);");
        cache.insert(k2, e2);
        assert!(cache.checkout(k1).is_none(), "LRU victim evicted");
        let got = cache.checkout(k2).expect("newest survives");
        cache.checkin(k2, k2, got);
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn touching_reorders_the_lru() {
        let (k1, e1) = entry("a = 1; write(a);");
        let (k2, e2) = entry("b = 2; write(b);");
        let budget = e1.bytes + e2.bytes;
        let cache = AnalysisCache::new(budget);
        cache.insert(k1, e1);
        cache.insert(k2, e2);
        // Touch k1 so k2 becomes the LRU, then overflow with a third.
        let got = cache.checkout(k1).expect("resident");
        cache.checkin(k1, k1, got);
        let (k3, e3) = entry("c = 3; write(c);");
        cache.insert(k3, e3);
        assert!(cache.checkout(k2).is_none(), "k2 was least recent");
        assert!(cache.checkout(k1).is_some(), "k1 was touched, survives");
    }

    #[test]
    fn checkin_under_a_new_key_moves_the_entry() {
        let cache = AnalysisCache::new(usize::MAX);
        let (k, e) = entry("x = 1; write(x);");
        cache.insert(k, e);
        let got = cache.checkout(k).expect("resident");
        let k2 = content_hash("x = 2; write(x);");
        cache.checkin(k, k2, got);
        assert!(cache.checkout(k).is_none(), "old key gone");
        assert!(cache.checkout(k2).is_some(), "entry rides to the new key");
    }

    /// Pinned (chaos finding, ISSUE 9 satellite fix): when worker B's edit
    /// moves its entry onto a key worker A currently has checked out, A's
    /// later check-in must not clobber B's fresh entry. The old code
    /// removed the old-key slot unconditionally but only subtracted its
    /// bytes when it was still a lease marker — so B's `Present` entry was
    /// silently dropped *and* its bytes leaked into the accounting,
    /// permanently shrinking the budget the cache believed it had.
    #[test]
    fn edit_collision_checkin_keeps_accounting_exact() {
        let cache = AnalysisCache::new(usize::MAX);
        let (ka, ea) = entry("a = 1; write(a);");
        let (kb, eb) = entry("b = 2; write(b);");
        let per_entry = ea.bytes;
        cache.insert(ka, ea);
        cache.insert(kb, eb);
        let a = cache.checkout(ka).expect("A leases ka");
        let b = cache.checkout(kb).expect("B leases kb");
        // B's edit rewrote its program into A's exact content: B checks in
        // under ka while A's lease marker sits there.
        let (_, b_edited) = entry("a = 1; write(a);");
        drop(b);
        cache.checkin(kb, ka, b_edited);
        // A returns its (unedited) lease under the same key.
        cache.checkin(ka, ka, a);
        let s = cache.stats();
        assert_eq!(s.entries, 1, "one program, one entry");
        assert_eq!(
            s.bytes, per_entry,
            "accounting must equal the single resident entry, not leak the collided one"
        );
        assert!(cache.checkout(ka).is_some(), "the program still serves");
    }

    /// Pinned (same collision, abort path): an abort after the collision
    /// must keep the colliding worker's warm entry — the marker the abort
    /// wants to clear no longer exists.
    #[test]
    fn edit_collision_abort_keeps_the_fresh_entry() {
        let cache = AnalysisCache::new(usize::MAX);
        let (ka, ea) = entry("a = 1; write(a);");
        let (kb, eb) = entry("b = 2; write(b);");
        let per_entry = ea.bytes;
        cache.insert(ka, ea);
        cache.insert(kb, eb);
        let _a = cache.checkout(ka).expect("A leases ka");
        let b = cache.checkout(kb).expect("B leases kb");
        drop(b);
        let (_, b_edited) = entry("a = 1; write(a);");
        cache.checkin(kb, ka, b_edited);
        // A's request panicked; its recovery path aborts the lease.
        cache.abort_checkout(ka);
        let s = cache.stats();
        assert_eq!(s.entries, 1, "B's fresh entry survives A's abort");
        assert_eq!(s.bytes, per_entry, "no leaked bytes");
        assert!(cache.checkout(ka).is_some(), "still serves");
    }

    /// Property (ISSUE 9 satellite): under random insert/checkout/checkin
    /// pressure against a tiny budget, a checked-out entry is never
    /// evicted, and the byte accounting always equals the sum of the
    /// slots' recorded sizes.
    #[test]
    fn leased_entries_survive_eviction_pressure_and_accounting_stays_exact() {
        let sources = [
            "a = 1; write(a);",
            "b = 2; write(b);",
            "c = 3; write(c);",
            "d = 4; write(d);",
        ];
        let (_, probe) = entry(sources[0]);
        let budget = probe.bytes + probe.bytes / 2; // ~1.5 entries
        jumpslice_testkit::check(16, |rng| {
            let cache = AnalysisCache::new(budget);
            let mut leased: Vec<(u64, Entry)> = Vec::new();
            for _ in 0..40 {
                match rng.gen_range(0..3u32) {
                    0 => {
                        let (k, e) = entry(sources[rng.gen_range(0..sources.len())]);
                        if leased.iter().all(|(lk, _)| *lk != k) {
                            cache.insert(k, e);
                        }
                    }
                    1 => {
                        let (k, _) = entry(sources[rng.gen_range(0..sources.len())]);
                        if leased.iter().all(|(lk, _)| *lk != k) {
                            if let Some(e) = cache.checkout(k) {
                                leased.push((k, e));
                            }
                        }
                    }
                    _ => {
                        if let Some(at) = leased.len().checked_sub(1) {
                            let (k, e) = leased.remove(rng.gen_range(0..at + 1));
                            cache.checkin(k, k, e);
                            // The pin: an entry that was leased through any
                            // amount of insert pressure is still resident
                            // the moment it returns.
                            let back = cache
                                .checkout(k)
                                .expect("a leased entry must never be evicted");
                            cache.checkin(k, k, back);
                        }
                    }
                }
            }
            let s = cache.stats();
            let leased_bytes: usize = leased.iter().map(|(_, e)| e.bytes).sum();
            assert!(
                s.bytes >= leased_bytes,
                "accounting {} cannot undercount the {} leased bytes",
                s.bytes,
                leased_bytes
            );
            // Return everything; the cache must come back to a consistent,
            // budget-respecting state with no drift.
            for (k, e) in leased.drain(..) {
                cache.checkin(k, k, e);
            }
            let s = cache.stats();
            assert!(
                s.bytes <= budget || s.entries == 1,
                "after all leases return: {} bytes across {} entries vs budget {budget}",
                s.bytes,
                s.entries
            );
        });
    }

    #[test]
    fn abort_checkout_drops_the_entry() {
        let cache = AnalysisCache::new(usize::MAX);
        let (k, e) = entry("x = 1; write(x);");
        cache.insert(k, e);
        let _dropped = cache.checkout(k).expect("resident");
        cache.abort_checkout(k);
        assert!(cache.checkout(k).is_none(), "aborted entry is gone");
        assert_eq!(cache.stats().entries, 0);
        assert_eq!(cache.stats().bytes, 0);
    }
}
