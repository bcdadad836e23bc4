//! Packed `u64` bitmaps for per-player and per-object flag sets.
//!
//! The mega-scale engines keep their satisfied/crashed/active flags in
//! [`BitSet`]s instead of `Vec<bool>`: membership tests touch one cache line
//! per 512 players, clearing is a `memset`, and population counts are a
//! handful of `popcnt`s — the flag side of the struct-of-arrays round loop.

/// A fixed-capacity set of small integer ids, stored one bit per id.
///
/// ```
/// use distill_billboard::BitSet;
/// let mut s = BitSet::new(130);
/// s.insert(0);
/// s.insert(129);
/// assert!(s.contains(129) && !s.contains(64));
/// assert_eq!(s.count_ones(), 2);
/// s.remove(0);
/// assert_eq!(s.iter().collect::<Vec<_>>(), vec![129]);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    len: usize,
}

impl BitSet {
    /// An empty set over the id universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// The id universe size this set was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` iff the universe is empty (no ids can be stored).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Re-dimensions the set to the universe `0..len` and clears every bit,
    /// reusing the existing word buffer when it is large enough — the reset
    /// path of an engine arena.
    pub fn reset(&mut self, len: usize) {
        let words = len.div_ceil(64);
        self.words.clear();
        self.words.resize(words, 0);
        self.len = len;
    }

    /// Clears every bit without changing the universe size.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Membership test. Ids outside the universe are never members.
    #[inline]
    pub fn contains(&self, id: usize) -> bool {
        self.words
            .get(id / 64)
            .is_some_and(|w| w & (1u64 << (id % 64)) != 0)
    }

    /// Inserts `id`. Out-of-universe ids are ignored (the engines validate
    /// ids at construction; tolerating them here keeps the set panic-free).
    #[inline]
    pub fn insert(&mut self, id: usize) {
        if id < self.len {
            self.words[id / 64] |= 1u64 << (id % 64);
        }
    }

    /// Removes `id` (a no-op when absent or out of universe).
    #[inline]
    pub fn remove(&mut self, id: usize) {
        if id < self.len {
            self.words[id / 64] &= !(1u64 << (id % 64));
        }
    }

    /// Number of members, via per-word popcounts.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Selects non-members by rank: for each `k` of `ranks`, the `k`-th id
    /// of `0..len` (counting from 0) that is not a member, or `None` when
    /// there are no more than `k` such ids. The ranks may come in any order
    /// and repeat; one sweep over the words answers them all, without
    /// listing the non-members.
    pub fn absent_by_rank(&self, ranks: &[usize]) -> Vec<Option<usize>> {
        let mut order: Vec<usize> = (0..ranks.len()).collect();
        order.sort_unstable_by_key(|&i| ranks[i]);
        let mut pending = order.into_iter().peekable();
        let mut out = vec![None; ranks.len()];
        let mut before = 0; // non-members in the words already swept
        for (wi, &word) in self.words.iter().enumerate() {
            if pending.peek().is_none() {
                break;
            }
            let in_universe = self.len - wi * 64;
            let mut absent = !word;
            if in_universe < 64 {
                absent &= (1u64 << in_universe) - 1;
            }
            let count = absent.count_ones() as usize;
            // Ranks are swept ascending, so every pending rank is at least
            // `before`.
            while let Some(&i) = pending.peek() {
                let r = ranks[i] - before;
                if r >= count {
                    break;
                }
                let mut bits = absent;
                for _ in 0..r {
                    bits &= bits - 1; // clear the lowest non-member
                }
                out[i] = Some(wi * 64 + bits.trailing_zeros() as usize);
                pending.next();
            }
            before += count;
        }
        out
    }

    /// Iterates the members in ascending order, skipping empty words.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &word)| {
            std::iter::successors((word != 0).then_some(word), |w| {
                let next = w & (w - 1); // clear lowest set bit
                (next != 0).then_some(next)
            })
            .map(move |w| wi * 64 + w.trailing_zeros() as usize)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let mut s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count_ones(), 0);
        s.insert(0); // out of universe: ignored
        assert!(!s.contains(0));

        let mut s = BitSet::new(200);
        for i in 0..200 {
            s.insert(i);
        }
        assert_eq!(s.count_ones(), 200);
        assert_eq!(s.iter().count(), 200);
        s.clear();
        assert_eq!(s.count_ones(), 0);
        assert_eq!(s.len(), 200);
    }

    #[test]
    fn word_boundaries() {
        let mut s = BitSet::new(129);
        for i in [0usize, 63, 64, 127, 128] {
            s.insert(i);
            assert!(s.contains(i));
        }
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 127, 128]);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.count_ones(), 4);
        // out-of-universe probes are answered, not panicked on
        assert!(!s.contains(1000));
        s.remove(1000);
        s.insert(129); // one past the end: ignored
        assert_eq!(s.count_ones(), 4);
    }

    #[test]
    fn reset_reuses_and_redimensions() {
        let mut s = BitSet::new(100);
        s.insert(99);
        s.reset(64);
        assert_eq!(s.len(), 64);
        assert_eq!(s.count_ones(), 0);
        s.insert(63);
        assert!(s.contains(63));
        s.reset(300);
        assert_eq!(s.count_ones(), 0);
        s.insert(299);
        assert!(s.contains(299));
    }

    #[test]
    fn absent_by_rank_selects_non_members_in_any_order() {
        let mut s = BitSet::new(130);
        for id in [0, 2, 63, 64, 127] {
            s.insert(id);
        }
        let absent: Vec<usize> = (0..130).filter(|&id| !s.contains(id)).collect();
        assert_eq!(absent.len(), 125);
        let ranks = [124, 0, 61, 61, 62, 1, 123, 125, 1000];
        let want: Vec<Option<usize>> = ranks.iter().map(|&k| absent.get(k).copied()).collect();
        assert_eq!(s.absent_by_rank(&ranks), want);
        // The two bits past the universe in the last word are never picked.
        assert_eq!(s.absent_by_rank(&[124, 125]), vec![Some(129), None]);
        assert!(s.absent_by_rank(&[]).is_empty());
        assert_eq!(BitSet::new(0).absent_by_rank(&[0]), vec![None]);
    }

    #[test]
    fn iter_skips_empty_words() {
        let mut s = BitSet::new(1024);
        s.insert(3);
        s.insert(700);
        s.insert(701);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 700, 701]);
    }
}
