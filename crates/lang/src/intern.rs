//! String tables shared by variable names, function names, and labels.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Append-only string table handing out dense `u32` ids. Every string is
/// kept once, in one text buffer with one end offset per id. Lookups by
/// string binary-search `sorted`, the ids ordered by their strings, which
/// [`Interner::freeze`] computes once the table is complete; while a
/// program is being built, an [`Index`] beside the table finds repeats.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub(crate) struct Interner {
    text: String,
    ends: Vec<u32>,
    sorted: Box<[u32]>,
}

impl Interner {
    fn push(&mut self, s: &str) -> u32 {
        let id = u32::try_from(self.ends.len()).expect("interner overflow");
        self.text.push_str(s);
        self.ends
            .push(u32::try_from(self.text.len()).expect("interner overflow"));
        id
    }

    /// Drops the spare capacity of a complete table and orders its ids for
    /// [`Interner::lookup`].
    pub(crate) fn freeze(&mut self) {
        self.text.shrink_to_fit();
        self.ends.shrink_to_fit();
        let mut sorted: Box<[u32]> = (0..self.ends.len() as u32).collect();
        sorted.sort_unstable_by(|&a, &b| self.resolve(a).cmp(self.resolve(b)));
        self.sorted = sorted;
    }

    /// Rebuilds a table from its resolved strings, in id order — the
    /// inverse of resolving `0..len()`. Returns `None` if any entry is
    /// empty or repeats: duplicates would give two ids for one string, and
    /// `lookup` could then disagree with `resolve`.
    pub(crate) fn from_entries(strings: &[&str]) -> Option<Interner> {
        let bytes = strings.iter().map(|s| s.len()).sum();
        u32::try_from(bytes).ok()?;
        let mut table = Interner {
            text: String::with_capacity(bytes),
            ends: Vec::with_capacity(strings.len()),
            sorted: Box::default(),
        };
        for s in strings {
            if s.is_empty() {
                return None;
            }
            table.push(s);
        }
        table.freeze();
        let repeats = table
            .sorted
            .windows(2)
            .any(|w| table.resolve(w[0]) == table.resolve(w[1]));
        (!repeats).then_some(table)
    }

    pub(crate) fn lookup(&self, s: &str) -> Option<u32> {
        let at = self
            .sorted
            .binary_search_by(|&id| self.resolve(id).cmp(s))
            .ok()?;
        Some(self.sorted[at])
    }

    pub(crate) fn resolve(&self, id: u32) -> &str {
        let end = self.ends[id as usize] as usize;
        let start = match id.checked_sub(1) {
            Some(prev) => self.ends[prev as usize] as usize,
            None => 0,
        };
        &self.text[start..end]
    }

    pub(crate) fn len(&self) -> usize {
        self.ends.len()
    }
}

/// The build-time index of an [`Interner`]: open addressing over ids,
/// hashed with a key drawn per index, so no input can choose its
/// collisions. It lives beside the table only while a program is being
/// built.
#[derive(Debug, Default)]
pub(crate) struct Index {
    /// An id + 1 per occupied slot, 0 for empty; a power-of-two length at
    /// least twice the table's.
    slots: Vec<u32>,
    hasher: RandomState,
}

impl Index {
    /// The id of `s` in `table`, appending it first if it is new. `table`
    /// must be the one every earlier call was given.
    pub(crate) fn intern(&mut self, table: &mut Interner, s: &str) -> u32 {
        if 2 * (table.len() + 1) > self.slots.len() {
            self.grow(table);
        }
        let mut at = self.slot(s);
        loop {
            match self.slots[at] {
                0 => {
                    let id = table.push(s);
                    self.slots[at] = id + 1;
                    return id;
                }
                k if table.resolve(k - 1) == s => return k - 1,
                _ => at = (at + 1) & (self.slots.len() - 1),
            }
        }
    }

    fn slot(&self, s: &str) -> usize {
        self.hasher.hash_one(s) as usize & (self.slots.len() - 1)
    }

    fn grow(&mut self, table: &Interner) {
        self.slots = vec![0; (2 * self.slots.len()).max(16)];
        for id in 0..table.len() as u32 {
            let mut at = self.slot(table.resolve(id));
            while self.slots[at] != 0 {
                at = (at + 1) & (self.slots.len() - 1);
            }
            self.slots[at] = id + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut i = Interner::default();
        let mut index = Index::default();
        let a = index.intern(&mut i, "x");
        let b = index.intern(&mut i, "y");
        assert_ne!(a, b);
        assert_eq!(index.intern(&mut i, "x"), a);
        i.freeze();
        assert_eq!(i.resolve(a), "x");
        assert_eq!(i.lookup("y"), Some(b));
        assert_eq!(i.lookup("z"), None);
        assert_eq!(i.len(), 2);
    }

    /// Past every growth of the index, each string keeps its first id and
    /// a frozen table finds every one of them.
    #[test]
    fn many_strings_keep_their_ids() {
        let words: Vec<String> = (0..1000).map(|k| format!("L{k}")).collect();
        let mut i = Interner::default();
        let mut index = Index::default();
        for (k, w) in words.iter().enumerate() {
            assert_eq!(index.intern(&mut i, w), k as u32);
        }
        for (k, w) in words.iter().enumerate().rev() {
            assert_eq!(index.intern(&mut i, w), k as u32);
        }
        i.freeze();
        for (k, w) in words.iter().enumerate() {
            assert_eq!(i.resolve(k as u32), w);
            assert_eq!(i.lookup(w), Some(k as u32));
        }
        let entries: Vec<&str> = words.iter().map(String::as_str).collect();
        assert_eq!(Interner::from_entries(&entries), Some(i));
        assert_eq!(Interner::from_entries(&["a", "b", "a"]), None);
        assert_eq!(Interner::from_entries(&["a", ""]), None);
    }
}
