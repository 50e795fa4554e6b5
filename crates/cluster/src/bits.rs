//! [`SlotBits`]: a set of slot ids as a word bitset with a summary level,
//! the representation of every slot index in [`SlotPool`].
//!
//! Membership updates and tests are O(1). Enumeration is ascending and
//! costs O(result + span / 4096): one summary bit per 64-slot word lets a
//! walk skip 4096 empty slots per word it reads, so the first member of a
//! nearly empty 50k-slot set is three word reads away, and a node's or a
//! rack's contiguous id range is walked without touching the rest.
//!
//! [`SlotPool`]: crate::SlotPool

#![deny(clippy::indexing_slicing, clippy::unwrap_used, clippy::expect_used)]
#![deny(clippy::panic, clippy::unreachable)]

use crate::topology::SlotId;

/// A set of slot ids below a fixed capacity: bit `s % 64` of word `s / 64`
/// is slot `s`, and bit `w % 64` of summary word `w / 64` is set iff word
/// `w` is non-zero. The member count is maintained.
#[derive(Debug, Clone)]
pub struct SlotBits {
    words: Vec<u64>,
    summary: Vec<u64>,
    len: usize,
}

impl SlotBits {
    /// An empty set that can hold slots `0..capacity` (rounded up to a
    /// whole word).
    pub fn new(capacity: usize) -> Self {
        let words = capacity.div_ceil(64);
        SlotBits { words: vec![0; words], summary: vec![0; words.div_ceil(64)], len: 0 }
    }

    /// Adds `slot`; returns `true` if it was not a member. A slot past
    /// the last word is ignored (and `false` returned).
    pub fn insert(&mut self, slot: SlotId) -> bool {
        let (w, bit) = (slot.index() / 64, 1 << (slot.index() % 64));
        let Some(word) = self.words.get_mut(w) else { return false };
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        if let Some(s) = self.summary.get_mut(w / 64) {
            *s |= 1 << (w % 64);
        }
        self.len += 1;
        true
    }

    /// Removes `slot`; returns `true` if it was a member.
    pub fn remove(&mut self, slot: SlotId) -> bool {
        let (w, bit) = (slot.index() / 64, 1 << (slot.index() % 64));
        let Some(word) = self.words.get_mut(w) else { return false };
        if *word & bit == 0 {
            return false;
        }
        *word &= !bit;
        if *word == 0 {
            if let Some(s) = self.summary.get_mut(w / 64) {
                *s &= !(1 << (w % 64));
            }
        }
        self.len -= 1;
        true
    }

    /// `true` if `slot` is a member; slots past the capacity never are.
    #[inline]
    pub fn contains(&self, slot: SlotId) -> bool {
        let (w, bit) = (slot.index() / 64, slot.index() % 64);
        self.words.get(w).is_some_and(|word| (word >> bit) & 1 == 1)
    }

    /// Number of members — O(1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the set has no members.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The member words, 64 slots a word, for word-at-a-time
    /// intersection with another slot bitset of the same layout.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The members in ascending order.
    pub fn iter(&self) -> Ones<'_> {
        self.range(0, self.words.len() * 64)
    }

    /// The members in `lo..hi`, ascending: a node's or a rack's slots,
    /// which are contiguous ids. Both bounds are clamped to the capacity,
    /// so the range is empty when `lo >= hi` or `lo` is past the capacity.
    pub fn range(&self, lo: usize, hi: usize) -> Ones<'_> {
        let hi = hi.min(self.words.len() * 64);
        let lo = lo.min(hi);
        let first = lo / 64;
        let mut ones = Ones {
            bits: self,
            lo,
            hi,
            pending: 0,
            summary_at: first / 64,
            word: 0,
            word_at: 0,
        };
        if lo < hi {
            let head = self.summary.get(first / 64).copied().unwrap_or(0);
            ones.pending = head & (u64::MAX << (first % 64));
        }
        ones
    }
}

/// Ascending iterator over the members of a [`SlotBits`] in a slot range,
/// driven by the summary words so that empty words cost nothing.
#[derive(Debug, Clone)]
pub struct Ones<'a> {
    bits: &'a SlotBits,
    lo: usize,
    hi: usize,
    /// Unvisited non-empty words of summary word `summary_at`.
    pending: u64,
    summary_at: usize,
    /// Unvisited members of word `word_at`, masked to `lo..hi`.
    word: u64,
    word_at: usize,
}

impl Iterator for Ones<'_> {
    type Item = SlotId;

    #[inline]
    fn next(&mut self) -> Option<SlotId> {
        while self.word == 0 {
            while self.pending == 0 {
                self.summary_at += 1;
                if self.summary_at * 4096 >= self.hi {
                    return None;
                }
                self.pending = self.bits.summary.get(self.summary_at).copied().unwrap_or(0);
            }
            let at = self.summary_at * 64 + self.pending.trailing_zeros() as usize;
            self.pending &= self.pending - 1;
            if at * 64 >= self.hi {
                // Past the range: the next call ends at the bound check.
                (self.pending, self.summary_at) = (0, self.hi / 4096);
                return None;
            }
            let mut word = self.bits.words.get(at).copied().unwrap_or(0);
            if at == self.lo / 64 {
                word &= u64::MAX << (self.lo % 64);
            }
            if at == (self.hi - 1) / 64 {
                word &= u64::MAX >> (63 - (self.hi - 1) % 64);
            }
            self.word = word;
            self.word_at = at;
        }
        let slot = self.word_at * 64 + self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(SlotId::new(slot as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn ids(it: impl Iterator<Item = SlotId>) -> Vec<usize> {
        it.map(SlotId::index).collect()
    }

    #[test]
    fn membership_count_and_capacity() {
        let mut b = SlotBits::new(130);
        assert!(b.insert(SlotId::new(129)));
        assert!(!b.insert(SlotId::new(129)));
        assert!(!b.insert(SlotId::new(192)), "past the last word");
        assert!(b.insert(SlotId::new(0)));
        assert_eq!((b.len(), b.contains(SlotId::new(129))), (2, true));
        assert_eq!(ids(b.iter()), vec![0, 129]);
        assert!(b.remove(SlotId::new(129)) && !b.remove(SlotId::new(129)));
        assert_eq!(ids(b.iter()), vec![0]);
        assert!(b.remove(SlotId::new(0)) && b.is_empty());
        assert_eq!(b.iter().next(), None);
        assert_eq!(b.range(5, 5).next(), None);
        // A bound far past the capacity is clamped, not walked to.
        b.insert(SlotId::new(70));
        assert_eq!(ids(b.range(1, usize::MAX)), vec![70]);
        assert_eq!(b.range(usize::MAX - 1, usize::MAX).next(), None);
    }

    proptest! {
        /// Enumeration over any range agrees with a `BTreeSet` filter, on
        /// capacities that end mid-word and past a summary word (4096).
        #[test]
        fn bits_agree_with_btreeset(
            cap in prop_oneof![Just(63usize), Just(65), Just(4096), Just(8200)],
            ops in proptest::collection::vec((0u32..2, 0usize..8300), 0..200),
            ranges in proptest::collection::vec(
                (0usize..8300, prop_oneof![0usize..8300, Just(usize::MAX)]),
                1..8,
            ),
        ) {
            let mut bits = SlotBits::new(cap);
            let mut naive = BTreeSet::new();
            for (add, s) in ops {
                let slot = SlotId::new(s as u32);
                if add == 1 {
                    let held = s < cap.div_ceil(64) * 64;
                    prop_assert_eq!(bits.insert(slot), held && naive.insert(s));
                } else {
                    prop_assert_eq!(bits.remove(slot), naive.remove(&s));
                }
                prop_assert_eq!(bits.len(), naive.len());
            }
            // The summary marks exactly the non-empty words.
            for (w, word) in bits.words.iter().enumerate() {
                let marked = bits.summary.get(w / 64).is_some_and(|s| (s >> (w % 64)) & 1 == 1);
                prop_assert_eq!(marked, *word != 0, "summary bit of word {}", w);
            }
            prop_assert_eq!(ids(bits.iter()), naive.iter().copied().collect::<Vec<_>>());
            for (lo, hi) in ranges {
                prop_assert_eq!(
                    ids(bits.range(lo, hi)),
                    naive.iter().copied().filter(|s| (lo..hi).contains(s)).collect::<Vec<_>>()
                );
            }
        }
    }
}
