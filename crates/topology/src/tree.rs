//! Small combinatorial helpers of the collective algorithms: power-of-two
//! arithmetic and the shape functions of the two binomial trees (clear the
//! highest set bit, clear the lowest). They live here, below every crate
//! that shapes a tree, so there is one copy.

/// ⌈log₂ n⌉ for n ≥ 1 (0 for n = 1) — the round count of dissemination and
/// the depth of binomial trees.
#[inline]
pub fn ceil_log2(n: usize) -> usize {
    assert!(n >= 1, "ceil_log2 of zero");
    (usize::BITS - (n - 1).leading_zeros()) as usize
}

/// Largest power of two ≤ n (n ≥ 1) — the main-phase size of the
/// general-n recursive-doubling allreduce.
#[inline]
pub fn floor_pow2(n: usize) -> usize {
    assert!(n >= 1);
    1 << (usize::BITS - 1 - n.leading_zeros())
}

/// Parent of virtual rank `v` (> 0) in the standard binomial broadcast tree
/// rooted at 0: clear the highest set bit.
#[inline]
pub fn binomial_parent(v: usize) -> usize {
    assert!(v > 0, "root has no parent");
    v & !(1 << (usize::BITS - 1 - (v as u64 as usize).leading_zeros()))
}

/// Children of virtual rank `v` in a binomial tree over `n` virtual ranks,
/// in send order (closest subtree first). Child `v + 2^k` exists for every
/// `2^k > v` with `v + 2^k < n`.
pub fn binomial_children(v: usize, n: usize) -> Vec<usize> {
    debug_assert!(v < n);
    let mut k = if v == 0 {
        0
    } else {
        usize::BITS as usize - v.leading_zeros() as usize
    };
    let mut out = Vec::new();
    while v + (1 << k) < n {
        out.push(v + (1 << k));
        k += 1;
    }
    out
}

/// Parent of virtual rank `v` (> 0) in the clear-lowest-bit binomial tree
/// rooted at 0. Rank `v`'s subtree is the contiguous range
/// [`lowbit_subtree`], so a gather hop can ship a whole subtree as one
/// range of slots.
#[inline]
pub fn lowbit_parent(v: usize) -> usize {
    assert!(v > 0, "root has no parent");
    v & (v - 1)
}

/// The ranks under `v` (itself included) in the clear-lowest-bit tree over
/// `n` ranks: `v..v + 2^t` for `v`'s lowest set bit `t`, cut at `n`; all
/// of them under the root.
pub fn lowbit_subtree(v: usize, n: usize) -> std::ops::Range<usize> {
    debug_assert!(v < n);
    let end = if v == 0 {
        n
    } else {
        v + (v & v.wrapping_neg())
    };
    v..end.min(n)
}

/// Children of `v` in the clear-lowest-bit tree over `n` ranks, nearest
/// first: `v + 2^k` for every `v + 2^k` inside [`lowbit_subtree`].
pub fn lowbit_children(v: usize, n: usize) -> impl Iterator<Item = usize> {
    let end = lowbit_subtree(v, n).end;
    (0..)
        .map(move |k| v + (1 << k))
        .take_while(move |&c| c < end)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(8), 3);
        assert_eq!(ceil_log2(9), 4);
        assert_eq!(ceil_log2(352), 9);
    }

    #[test]
    fn floor_pow2_values() {
        assert_eq!(floor_pow2(1), 1);
        assert_eq!(floor_pow2(2), 2);
        assert_eq!(floor_pow2(3), 2);
        assert_eq!(floor_pow2(44), 32);
        assert_eq!(floor_pow2(64), 64);
    }

    #[test]
    fn binomial_parent_clears_highest_bit() {
        assert_eq!(binomial_parent(1), 0);
        assert_eq!(binomial_parent(2), 0);
        assert_eq!(binomial_parent(3), 1);
        assert_eq!(binomial_parent(6), 2);
        assert_eq!(binomial_parent(12), 4);
    }

    #[test]
    fn binomial_children_of_root() {
        assert_eq!(binomial_children(0, 8), vec![1, 2, 4]);
        assert_eq!(binomial_children(0, 6), vec![1, 2, 4]);
        assert_eq!(binomial_children(0, 1), Vec::<usize>::new());
    }

    #[test]
    fn binomial_children_internal() {
        assert_eq!(binomial_children(1, 8), vec![3, 5]);
        assert_eq!(binomial_children(2, 8), vec![6]);
        assert_eq!(binomial_children(4, 8), Vec::<usize>::new());
        assert_eq!(binomial_children(2, 7), vec![6]);
    }

    #[test]
    fn tree_is_consistent_every_nonroot_has_one_parent() {
        for n in 1..50 {
            let mut indeg = vec![0usize; n];
            for v in 0..n {
                for c in binomial_children(v, n) {
                    assert_eq!(binomial_parent(c), v, "child {c} of {v} (n={n})");
                    indeg[c] += 1;
                }
            }
            assert_eq!(indeg[0], 0);
            for (v, d) in indeg.iter().enumerate().skip(1) {
                assert_eq!(*d, 1, "rank {v} in tree of {n}");
            }
        }
    }

    #[test]
    fn lowbit_tree_has_contiguous_subtrees() {
        assert_eq!(lowbit_children(0, 8).collect::<Vec<_>>(), [1, 2, 4]);
        assert_eq!(lowbit_children(4, 8).collect::<Vec<_>>(), [5, 6]);
        assert_eq!(lowbit_children(4, 6).collect::<Vec<_>>(), [5]);
        assert_eq!(lowbit_children(3, 8).count(), 0);
        assert_eq!(lowbit_parent(6), 4);
        assert_eq!(lowbit_parent(12), 8);
        for n in 1..50 {
            for v in 0..n {
                // My subtree is me followed by my children's subtrees, in
                // order, each child parented by me.
                let mut next = v + 1;
                for c in lowbit_children(v, n) {
                    assert_eq!((c, lowbit_parent(c)), (next, v), "v={v} n={n}");
                    next = lowbit_subtree(c, n).end;
                }
                assert_eq!(next, lowbit_subtree(v, n).end, "v={v} n={n}");
            }
        }
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        for n in [2usize, 5, 16, 44, 352] {
            for v in 1..n {
                let mut hops = 0;
                let mut cur = v;
                while cur != 0 {
                    cur = binomial_parent(cur);
                    hops += 1;
                }
                assert!(hops <= ceil_log2(n), "rank {v} depth {hops} in n={n}");
            }
        }
    }
}
