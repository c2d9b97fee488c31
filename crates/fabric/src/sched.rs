//! An indexed binary min-heap over alive images, keyed `(time, prio, rank)`
//! — the alive index of the **legacy oracle** only.
//!
//! The default simulator core keeps image turns in the same queue as the
//! events ([`crate::evq`]) and no longer uses this. It survives because the
//! core behind [`SimConfig::legacy_queue`](crate::SimConfig::legacy_queue)
//! — global event heap, O(n) argmin scans — still reads its event drain's
//! due-bound (the minimal alive clock) off this heap's root, and that core
//! is the oracle caf-check and `exp_s1_simscale` diff the queue against: it
//! is kept as it was, updated on every clock advance, block, wake, death
//! and chaos reshuffle.
//!
//! The heap stores image ranks; `pos[i]` is the back-pointer that makes
//! targeted `update`/`remove` possible. Keys are `(time, prio)` with the
//! rank itself as the final tie-break, so the argmin is *exactly* the
//! image `min_by_key` would have picked on a linear scan (lowest rank wins
//! ties).

/// Sentinel for "image not in the heap" (Blocked or Done).
const ABSENT: u32 = u32::MAX;

/// Positional min-heap over image ranks; see the module docs.
#[derive(Debug)]
pub(crate) struct SchedIndex {
    /// Heap of image ranks, ordered by `(keys[rank], rank)`.
    heap: Vec<u32>,
    /// `pos[rank]` = index into `heap`, or [`ABSENT`].
    pos: Vec<u32>,
    /// `(time, prio)` per image — the first two key components.
    keys: Vec<(u64, u64)>,
}

impl SchedIndex {
    /// An empty index with capacity for images `0..n`.
    pub(crate) fn new(n: usize) -> Self {
        Self {
            heap: Vec::with_capacity(n),
            pos: vec![ABSENT; n],
            keys: vec![(0, 0); n],
        }
    }

    /// Number of images currently in the index (= alive images).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no image is alive.
    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Is image `i` present (alive)?
    pub(crate) fn contains(&self, i: usize) -> bool {
        self.pos[i] != ABSENT
    }

    /// The argmin image by `(time, prio, rank)`, in O(1).
    #[cfg(test)]
    pub(crate) fn peek(&self) -> Option<usize> {
        self.heap.first().map(|&i| i as usize)
    }

    /// The minimal alive clock, in O(1). The heap root minimizes
    /// `(time, prio, rank)` lexicographically, so its `time` component is
    /// the global minimum over alive images.
    pub(crate) fn peek_time(&self) -> Option<u64> {
        self.heap.first().map(|&i| self.keys[i as usize].0)
    }

    /// Insert image `i` with key `(time, prio)`. Must not already be
    /// present.
    pub(crate) fn insert(&mut self, i: usize, key: (u64, u64)) {
        debug_assert_eq!(self.pos[i], ABSENT, "image {i} already in SchedIndex");
        self.keys[i] = key;
        let slot = self.heap.len();
        self.heap.push(i as u32);
        self.pos[i] = slot as u32;
        self.sift_up(slot);
    }

    /// Remove image `i` (block or death). No-op when absent.
    pub(crate) fn remove(&mut self, i: usize) {
        let slot = self.pos[i];
        if slot == ABSENT {
            return;
        }
        let slot = slot as usize;
        self.pos[i] = ABSENT;
        let last = self.heap.pop().expect("non-empty: contains i");
        if slot < self.heap.len() {
            self.heap[slot] = last;
            self.pos[last as usize] = slot as u32;
            // The moved element may need to go either way.
            self.sift_down(slot);
            self.sift_up(self.pos[last as usize] as usize);
        }
    }

    /// Re-key image `i` (clock advance). Must be present.
    pub(crate) fn update(&mut self, i: usize, key: (u64, u64)) {
        debug_assert_ne!(self.pos[i], ABSENT, "image {i} not in SchedIndex");
        self.keys[i] = key;
        let slot = self.pos[i] as usize;
        self.sift_down(slot);
        self.sift_up(self.pos[i] as usize);
    }

    /// Drop every member (heal rebuild).
    pub(crate) fn clear(&mut self) {
        for &i in &self.heap {
            self.pos[i as usize] = ABSENT;
        }
        self.heap.clear();
    }

    /// Re-key every member at once (chaos priority reshuffle) and restore
    /// the heap property bottom-up in O(n).
    pub(crate) fn refresh(&mut self, key_of: impl Fn(usize) -> (u64, u64)) {
        for slot in 0..self.heap.len() {
            let i = self.heap[slot] as usize;
            self.keys[i] = key_of(i);
        }
        for slot in (0..self.heap.len() / 2).rev() {
            self.sift_down(slot);
        }
    }

    #[inline]
    fn less(&self, a: u32, b: u32) -> bool {
        let (ta, pa) = self.keys[a as usize];
        let (tb, pb) = self.keys[b as usize];
        (ta, pa, a) < (tb, pb, b)
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.less(self.heap[slot], self.heap[parent]) {
                self.heap.swap(slot, parent);
                self.pos[self.heap[slot] as usize] = slot as u32;
                self.pos[self.heap[parent] as usize] = parent as u32;
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        let len = self.heap.len();
        loop {
            let l = 2 * slot + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let mut best = l;
            if r < len && self.less(self.heap[r], self.heap[l]) {
                best = r;
            }
            if self.less(self.heap[best], self.heap[slot]) {
                self.heap.swap(slot, best);
                self.pos[self.heap[slot] as usize] = slot as u32;
                self.pos[self.heap[best] as usize] = best as u32;
                slot = best;
            } else {
                break;
            }
        }
    }

    /// Debug invariant: every heap slot's back-pointer is consistent and
    /// every parent precedes its children.
    #[cfg(test)]
    fn check_invariants(&self) {
        for (slot, &i) in self.heap.iter().enumerate() {
            assert_eq!(self.pos[i as usize] as usize, slot);
            if slot > 0 {
                let parent = (slot - 1) / 2;
                assert!(
                    !self.less(i, self.heap[parent]),
                    "heap property violated at slot {slot}"
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Brute-force reference: argmin by `(time, prio, rank)` over members.
    fn ref_argmin(members: &[(usize, (u64, u64))]) -> Option<usize> {
        members
            .iter()
            .min_by_key(|(i, (t, p))| (*t, *p, *i))
            .map(|(i, _)| *i)
    }

    #[test]
    fn peek_matches_linear_scan_under_random_churn() {
        let n = 64;
        let mut idx = SchedIndex::new(n);
        let mut members: Vec<(usize, (u64, u64))> = Vec::new();
        // Deterministic splitmix64 churn.
        let mut s: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut rnd = || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for step in 0..4000 {
            let i = (rnd() % n as u64) as usize;
            match rnd() % 3 {
                0 => {
                    if !idx.contains(i) {
                        let key = (rnd() % 100, rnd() % 4);
                        idx.insert(i, key);
                        members.push((i, key));
                    }
                }
                1 => {
                    idx.remove(i);
                    members.retain(|(j, _)| *j != i);
                }
                _ => {
                    if idx.contains(i) {
                        let key = (rnd() % 100, rnd() % 4);
                        idx.update(i, key);
                        for m in members.iter_mut() {
                            if m.0 == i {
                                m.1 = key;
                            }
                        }
                    }
                }
            }
            idx.check_invariants();
            assert_eq!(idx.peek(), ref_argmin(&members), "step {step}");
            assert_eq!(
                idx.peek_time(),
                members.iter().map(|(_, (t, _))| *t).min(),
                "step {step}"
            );
            assert_eq!(idx.len(), members.len());
        }
    }

    #[test]
    fn refresh_rekeys_everything() {
        let n = 16;
        let mut idx = SchedIndex::new(n);
        for i in 0..n {
            idx.insert(i, (i as u64, 0));
        }
        assert_eq!(idx.peek(), Some(0));
        // Invert the ordering wholesale.
        idx.refresh(|i| ((n - i) as u64, 0));
        idx.check_invariants();
        assert_eq!(idx.peek(), Some(n - 1));
        assert_eq!(idx.peek_time(), Some(1));
    }

    #[test]
    fn rank_breaks_exact_ties_lowest_first() {
        let mut idx = SchedIndex::new(8);
        for i in [5usize, 2, 7, 3] {
            idx.insert(i, (42, 1));
        }
        assert_eq!(idx.peek(), Some(2), "lowest rank wins an exact tie");
        idx.remove(2);
        assert_eq!(idx.peek(), Some(3));
    }

    #[test]
    fn clear_empties_and_allows_reinsert() {
        let mut idx = SchedIndex::new(4);
        for i in 0..4 {
            idx.insert(i, (10 - i as u64, 0));
        }
        idx.clear();
        assert!(idx.is_empty());
        assert_eq!(idx.peek(), None);
        idx.insert(2, (1, 0));
        assert_eq!(idx.peek(), Some(2));
    }
}
