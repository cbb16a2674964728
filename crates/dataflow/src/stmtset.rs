//! A dense statement set: the slicing engine's working currency.
//!
//! Statement ids are dense `0..program.len()` arena indices, so a slice —
//! fundamentally "a set of statements of one program" — is a bitset, not a
//! search tree. Membership is one shift-and-mask, union is a word-wise OR,
//! and iteration is still sorted by id, while removing the `BTreeSet`
//! log-factor and pointer chasing from all the slicers' inner loops. Id
//! order is not lexical order (a compound statement is allocated after its
//! body), so line-reporting code reads each statement's line from the
//! program's line table (`Program::line_of`).

use crate::BitSet;
use jumpslice_lang::StmtId;

/// A set of [`StmtId`]s backed by a dense [`BitSet`].
///
/// Capacity grows automatically on insert, and equality/ordering are
/// content-based regardless of capacity, so sets sized for different
/// programs (or grown at different times) still compare as values.
///
/// # Examples
///
/// ```
/// use jumpslice_dataflow::StmtSet;
/// use jumpslice_lang::StmtId;
/// let mut s = StmtSet::with_capacity(10);
/// s.insert(StmtId::from_index(3));
/// s.insert(StmtId::from_index(7));
/// assert!(s.contains(StmtId::from_index(3)));
/// assert_eq!(s.iter().map(|id| id.index()).collect::<Vec<_>>(), vec![3, 7]);
/// ```
#[derive(Clone, Debug)]
pub struct StmtSet {
    bits: BitSet,
}

impl Default for StmtSet {
    fn default() -> StmtSet {
        StmtSet::new()
    }
}

impl StmtSet {
    /// Creates an empty set; storage is allocated on first insert.
    pub fn new() -> StmtSet {
        StmtSet::with_capacity(0)
    }

    /// Creates an empty set pre-sized for statements `0..capacity`
    /// (typically `program.len()`), avoiding growth in hot loops.
    pub fn with_capacity(capacity: usize) -> StmtSet {
        StmtSet {
            bits: BitSet::new(capacity),
        }
    }

    /// Inserts `s`; returns `true` if newly inserted. Grows as needed.
    pub fn insert(&mut self, s: StmtId) -> bool {
        let i = s.index();
        if i >= self.bits.capacity() {
            self.grow(i + 1);
        }
        self.bits.insert(i)
    }

    /// Removes `s`; returns `true` if it was present.
    pub fn remove(&mut self, s: StmtId) -> bool {
        if s.index() >= self.bits.capacity() {
            return false;
        }
        self.bits.remove(s.index())
    }

    /// Membership test (false for out-of-capacity ids; no growth).
    pub fn contains(&self, s: StmtId) -> bool {
        self.bits.contains(s.index())
    }

    /// Number of statements in the set.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Removes all elements, keeping capacity.
    pub fn clear(&mut self) {
        self.bits.clear();
    }

    /// Iterates statements in ascending id order (not lexical order).
    pub fn iter(&self) -> impl Iterator<Item = StmtId> + '_ {
        self.bits.iter().map(StmtId::from_index)
    }

    /// Unions `other` into `self`; returns `true` if `self` changed.
    pub fn union_with(&mut self, other: &StmtSet) -> bool {
        if other.bits.capacity() > self.bits.capacity() {
            self.grow(other.bits.capacity());
        }
        if other.bits.capacity() == self.bits.capacity() {
            return self.bits.union_with(&other.bits);
        }
        let mut changed = false;
        for v in other.bits.iter() {
            changed |= self.bits.insert(v);
        }
        changed
    }

    /// Whether the two sets share any statement — a word-parallel probe,
    /// not an element loop. Capacities may differ.
    pub fn intersects(&self, other: &StmtSet) -> bool {
        self.bits.intersects(&other.bits)
    }

    /// The backing 64-bit words (see [`BitSet::words`]): bit `b` of
    /// `words()[w]` is the statement with index `w * 64 + b`.
    pub fn words(&self) -> &[u64] {
        self.bits.words()
    }

    /// Whether every element of `self` is in `other`.
    pub fn is_subset(&self, other: &StmtSet) -> bool {
        self.iter().all(|s| other.contains(s))
    }

    /// The intersection of the two sets.
    pub fn intersection(&self, other: &StmtSet) -> StmtSet {
        let mut out = StmtSet::with_capacity(self.bits.capacity().min(other.bits.capacity()));
        for s in self.iter() {
            if other.contains(s) {
                out.insert(s);
            }
        }
        out
    }

    fn grow(&mut self, min_capacity: usize) {
        let mut bigger = BitSet::new(min_capacity.max(self.bits.capacity() * 2).max(64));
        for v in self.bits.iter() {
            bigger.insert(v);
        }
        self.bits = bigger;
    }
}

impl PartialEq for StmtSet {
    fn eq(&self, other: &StmtSet) -> bool {
        // Content equality irrespective of capacity.
        let mut a = self.bits.iter();
        let mut b = other.bits.iter();
        loop {
            match (a.next(), b.next()) {
                (None, None) => return true,
                (x, y) if x == y => continue,
                _ => return false,
            }
        }
    }
}

impl Eq for StmtSet {}

impl FromIterator<StmtId> for StmtSet {
    fn from_iter<I: IntoIterator<Item = StmtId>>(iter: I) -> StmtSet {
        let mut s = StmtSet::new();
        s.extend(iter);
        s
    }
}

impl Extend<StmtId> for StmtSet {
    fn extend<I: IntoIterator<Item = StmtId>>(&mut self, iter: I) {
        for s in iter {
            self.insert(s);
        }
    }
}

impl<'a> IntoIterator for &'a StmtSet {
    type Item = StmtId;
    type IntoIter = Box<dyn Iterator<Item = StmtId> + 'a>;
    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> StmtId {
        StmtId::from_index(i)
    }

    #[test]
    fn sorted_iteration_and_membership() {
        let mut s = StmtSet::with_capacity(4);
        for i in [9, 2, 130, 2, 64] {
            s.insert(id(i));
        }
        assert_eq!(
            s.iter().map(|x| x.index()).collect::<Vec<_>>(),
            vec![2, 9, 64, 130]
        );
        assert!(s.contains(id(64)));
        assert!(!s.contains(id(65)));
        assert_eq!(s.len(), 4);
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut a = StmtSet::with_capacity(1000);
        let mut b = StmtSet::new();
        for i in [1, 5, 900] {
            a.insert(id(i));
            b.insert(id(i));
        }
        assert_eq!(a, b);
        b.insert(id(2));
        assert_ne!(a, b);
    }

    #[test]
    fn union_grows() {
        let mut a = StmtSet::with_capacity(4);
        a.insert(id(1));
        let mut b = StmtSet::with_capacity(300);
        b.insert(id(256));
        assert!(a.union_with(&b));
        assert!(!a.union_with(&b));
        assert!(a.contains(id(256)) && a.contains(id(1)));
    }

    #[test]
    fn subset_and_intersection() {
        let a: StmtSet = [1, 2, 3].into_iter().map(id).collect();
        let b: StmtSet = [2, 3, 4, 5].into_iter().map(id).collect();
        assert!(!a.is_subset(&b));
        let i = a.intersection(&b);
        assert_eq!(i.iter().map(|x| x.index()).collect::<Vec<_>>(), vec![2, 3]);
        assert!(i.is_subset(&a) && i.is_subset(&b));
    }

    #[test]
    fn intersects_across_capacities() {
        let mut a = StmtSet::with_capacity(1000);
        let mut b = StmtSet::new();
        assert!(!a.intersects(&b));
        a.insert(id(900));
        b.insert(id(7));
        assert!(!a.intersects(&b));
        a.insert(id(7));
        assert!(a.intersects(&b) && b.intersects(&a));
    }

    #[test]
    fn remove_out_of_capacity_is_noop() {
        let mut s = StmtSet::new();
        assert!(!s.remove(id(10)));
        s.insert(id(10));
        assert!(s.remove(id(10)));
        assert!(s.is_empty());
    }
}
