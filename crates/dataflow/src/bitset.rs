//! A fixed-capacity bitset for dataflow fixpoints.

/// A dense bitset over `0..capacity`.
///
/// # Examples
///
/// ```
/// use jumpslice_dataflow::BitSet;
/// let mut s = BitSet::new(100);
/// s.insert(3);
/// s.insert(70);
/// assert!(s.contains(3));
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 70]);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl BitSet {
    /// Creates an empty set able to hold values `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The capacity this set was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `v`; returns `true` if it was newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `v >= capacity`.
    pub fn insert(&mut self, v: usize) -> bool {
        assert!(v < self.capacity, "bitset index out of range");
        let (w, b) = (v / 64, v % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !had
    }

    /// Removes `v`; returns `true` if it was present.
    pub fn remove(&mut self, v: usize) -> bool {
        assert!(v < self.capacity, "bitset index out of range");
        let (w, b) = (v / 64, v % 64);
        let had = self.words[w] & (1 << b) != 0;
        self.words[w] &= !(1 << b);
        had
    }

    /// Membership test.
    pub fn contains(&self, v: usize) -> bool {
        if v >= self.capacity {
            return false;
        }
        self.words[v / 64] & (1 << (v % 64)) != 0
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let new = *a | *b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Unions `other` into `self` with the `(word, mask)` pairs of `kill`
    /// (ascending by word, each word in range) removed from `other` first:
    /// the reaching-definitions transfer of a defining node, applied on
    /// the fly instead of from a stored OUT set.
    pub(crate) fn union_except(&mut self, other: &BitSet, kill: &[(usize, u64)]) {
        debug_assert_eq!(self.capacity, other.capacity);
        let mut from = 0;
        for &(w, m) in kill {
            for (a, b) in self.words[from..w].iter_mut().zip(&other.words[from..w]) {
                *a |= b;
            }
            self.words[w] |= other.words[w] & !m;
            from = w + 1;
        }
        for (a, b) in self.words[from..].iter_mut().zip(&other.words[from..]) {
            *a |= b;
        }
    }

    /// Whether the two sets share any element, word-parallel. Capacities
    /// may differ; bits past the shorter operand are treated as absent.
    pub fn intersects(&self, other: &BitSet) -> bool {
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// Inserts every element of `start..end`, calling `fresh` with each one
    /// that was not already present, ascending: word-parallel, so a run
    /// that is already in the set costs one step per word.
    ///
    /// # Panics
    ///
    /// Panics if `end > capacity` (for a non-empty run).
    pub fn insert_range(&mut self, start: usize, end: usize, mut fresh: impl FnMut(usize)) {
        if start >= end {
            return;
        }
        assert!(end <= self.capacity, "bitset range out of range");
        let (w0, w1) = (start / 64, (end - 1) / 64);
        for w in w0..=w1 {
            let mut mask = !0u64;
            if w == w0 {
                mask &= !0u64 << (start % 64);
            }
            if w == w1 {
                mask &= !0u64 >> (63 - (end - 1) % 64);
            }
            let mut new = mask & !self.words[w];
            self.words[w] |= mask;
            while new != 0 {
                fresh(w * 64 + new.trailing_zeros() as usize);
                new &= new - 1;
            }
        }
    }

    /// The smallest element `>= v`, or `None` if there is none. A linear
    /// word scan with a masked first word — the cursor primitive behind
    /// ordered worklist draining.
    pub fn next_at_or_after(&self, v: usize) -> Option<usize> {
        if v >= self.capacity {
            return None;
        }
        let mut wi = v / 64;
        let mut w = self.words[wi] & (!0u64 << (v % 64));
        loop {
            if w != 0 {
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
            wi += 1;
            if wi >= self.words.len() {
                return None;
            }
            w = self.words[wi];
        }
    }

    /// Removes every element of `other` from `self`.
    pub fn subtract(&mut self, other: &BitSet) {
        debug_assert_eq!(self.capacity, other.capacity);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// The backing 64-bit words, least-significant block first: bit `b` of
    /// `words()[w]` is element `w * 64 + b`. For word-parallel operators
    /// that need an offset view (e.g. probing a span-trimmed mask against a
    /// full-width set).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Iterates the elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &w)| word_bits(w).map(move |b| wi * 64 + b))
    }
}

/// The set bits of one word, ascending.
pub(crate) fn word_bits(mut w: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if w == 0 {
            None
        } else {
            let b = w.trailing_zeros() as usize;
            w &= w - 1;
            Some(b)
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert!(s.contains(129));
        assert!(!s.contains(128));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn union_reports_change() {
        let mut a = BitSet::new(10);
        let mut b = BitSet::new(10);
        b.insert(3);
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.contains(3));
    }

    #[test]
    fn union_except_drops_only_the_killed_bits_of_other() {
        let mut src = BitSet::new(200);
        for v in [0, 5, 63, 64, 100, 130, 199] {
            src.insert(v);
        }
        let mut target = BitSet::new(200);
        target.insert(5); // already present bits survive a kill
                          // Kill {5, 63} in word 0 and {130} in word 2; words 1 and 3 pass.
        target.union_except(&src, &[(0, 1 << 5 | 1 << 63), (2, 1 << 2)]);
        assert_eq!(target.iter().collect::<Vec<_>>(), vec![0, 5, 64, 100, 199]);
        let mut plain = BitSet::new(200);
        plain.union_except(&src, &[]);
        assert_eq!(plain, src, "no kill is a plain union");
    }

    #[test]
    fn subtract_removes() {
        let mut a = BitSet::new(10);
        a.insert(1);
        a.insert(2);
        let mut b = BitSet::new(10);
        b.insert(2);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn iter_crosses_word_boundaries() {
        let mut s = BitSet::new(200);
        for v in [0, 63, 64, 65, 127, 128, 199] {
            s.insert(v);
        }
        assert_eq!(
            s.iter().collect::<Vec<_>>(),
            vec![0, 63, 64, 65, 127, 128, 199]
        );
    }

    #[test]
    fn empty_and_clear() {
        let mut s = BitSet::new(5);
        assert!(s.is_empty());
        s.insert(4);
        assert!(!s.is_empty());
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn intersects_is_any_overlap() {
        let mut a = BitSet::new(130);
        let mut b = BitSet::new(70);
        assert!(!a.intersects(&b));
        a.insert(129);
        b.insert(65);
        assert!(!a.intersects(&b), "no shared element, no overlap");
        a.insert(65);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a), "symmetric across capacities");
    }

    #[test]
    fn insert_range_reports_exactly_the_new_elements() {
        let before = [0usize, 1, 5, 63, 64, 100, 129];
        for start in 0..=130 {
            for end in start..=130 {
                let mut set = BitSet::new(130);
                for v in before {
                    set.insert(v);
                }
                let mut fresh = Vec::new();
                set.insert_range(start, end, |v| fresh.push(v));
                let want: Vec<usize> = (start..end).filter(|v| !before.contains(v)).collect();
                assert_eq!(fresh, want, "[{start},{end})");
                let all: Vec<usize> = (0..130)
                    .filter(|v| before.contains(v) || (start..end).contains(v))
                    .collect();
                assert_eq!(set.iter().collect::<Vec<_>>(), all, "[{start},{end})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "bitset range out of range")]
    fn insert_range_past_capacity_panics() {
        BitSet::new(70).insert_range(60, 71, |_| {});
    }

    #[test]
    fn next_at_or_after_scans_forward() {
        let mut s = BitSet::new(200);
        for v in [3, 64, 130] {
            s.insert(v);
        }
        assert_eq!(s.next_at_or_after(0), Some(3));
        assert_eq!(s.next_at_or_after(3), Some(3), "inclusive lower bound");
        assert_eq!(s.next_at_or_after(4), Some(64));
        assert_eq!(s.next_at_or_after(65), Some(130));
        assert_eq!(s.next_at_or_after(131), None);
        assert_eq!(s.next_at_or_after(1000), None, "past capacity");
    }

    #[test]
    fn contains_out_of_range_is_false() {
        let s = BitSet::new(5);
        assert!(!s.contains(1000));
    }
}
