//! Communication shapes — *who talks to whom* in a collective, as values.
//!
//! The paper's methodology computes a team's hierarchy once and has every
//! collective consult it. This module is where that consultation happens:
//! an algorithm is a **shape** (built here, from the team's
//! [`HierarchyView`]) plus one **protocol** that walks it (`bcast.rs`'s
//! three waves or its credit ring, `barrier.rs`'s gather/release,
//! `gather.rs`'s gather and scatter). Adding a hierarchy-aware tree
//! collective means naming its tree here.
//!
//! | algorithm | shape |
//! |-----------|-------|
//! | `BcastAlgo::FlatLinear` | [`Tree::star`] at the root, children ascending |
//! | `BcastAlgo::FlatBinomial` | [`Tree::binomial`] over `(rank − root) mod n` |
//! | `BcastAlgo::TwoLevel` | [`Tree::two_level`]: binomial over the rotated effective-leader index, then the node's other ranks |
//! | `BcastAlgo::TwoLevelPipelined` | [`Tree::two_level`] with heap children `2v+1, 2v+2` over the same index |
//! | `GatherAlgo::FlatLinear` | [`Tree::star`] at the root, children ascending |
//! | `GatherAlgo::TwoLevel` | [`Tree::two_level`]: a star from the root over the other nodes' effective leaders, in set order, then each leader's node |
//! | `TeamComm::co_broadcast_ring` | [`Ring`]: team ranks in rank order, whatever the root |
//! | `BarrierAlgo::CentralCounter` | one level, star at rank 0 |
//! | `BarrierAlgo::BinomialTree` | one level, binomial tree at rank 0 |
//! | `BarrierAlgo::Dissemination` | no level; everyone disseminates |
//! | `BarrierAlgo::Tdlb` | one level, star per node; leaders disseminate |
//! | `BarrierAlgo::TdlbMultilevel` | star per socket under star per node; leaders disseminate |

use crate::comm::flag;
use crate::config::{BarrierAlgo, BcastAlgo, GatherAlgo};
use caf_topology::tree::{binomial_children, binomial_parent};
use caf_topology::HierarchyView;

/// The participants of a flat exchange stage (dissemination, recursive
/// doubling, Rabenseifner): every team rank, or one leader per node. Both
/// lists and the caller's place in them are the hierarchy's own
/// formation-time tables, so a stage costs no allocation and no search.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Among {
    /// Every rank of the team, in rank order.
    All,
    /// The node leaders, in set order.
    Leaders,
}

impl Among {
    /// `(participant count, position of rank)`; `rank` must take part.
    pub(crate) fn place(self, hier: &HierarchyView, rank: usize) -> (usize, usize) {
        match self {
            Among::All => (hier.n_ranks(), rank),
            Among::Leaders => {
                debug_assert!(hier.is_leader(rank), "rank {rank} is not a leader");
                (hier.n_nodes(), hier.leader_index_of(rank))
            }
        }
    }

    /// Team rank of participant `i`.
    pub(crate) fn rank_at(self, hier: &HierarchyView, i: usize) -> usize {
        match self {
            Among::All => i,
            Among::Leaders => hier.leaders()[i],
        }
    }
}

/// The two-level view of a team for one root, as one rank sees it. In a
/// rooted collective the **root stands in for its node's leader**: it is
/// the *effective leader* of its set, every other set keeps its own. Every
/// two-level tree ([`Tree::two_level`]) is built from this one value.
struct Rooted<'a> {
    hier: &'a HierarchyView,
    /// The rank this view belongs to.
    rank: usize,
    /// The collective's root.
    root: usize,
    /// Index of the root's intranode set.
    root_set: usize,
    /// Index of my intranode set.
    my_set: usize,
    /// My effective leader (myself when I am one).
    el: usize,
}

impl<'a> Rooted<'a> {
    fn new(hier: &'a HierarchyView, rank: usize, root: usize) -> Self {
        let mut r = Self {
            hier,
            rank,
            root,
            root_set: hier.leader_index_of(root),
            my_set: hier.leader_index_of(rank),
            el: rank,
        };
        r.el = r.eff_leader(r.my_set);
        r
    }

    /// Effective leader of set `s`.
    fn eff_leader(&self, s: usize) -> usize {
        if s == self.root_set {
            self.root
        } else {
            self.hier.sets()[s].leader
        }
    }

    /// My set's index rotated so that the root's set is 0 — the virtual
    /// rank of my effective leader in the leader tree.
    fn lv(&self) -> usize {
        let l = self.hier.n_nodes();
        (self.my_set + l - self.root_set) % l
    }

    /// Effective leader at rotated leader index `lv`.
    fn leader_at(&self, lv: usize) -> usize {
        self.eff_leader((lv + self.root_set) % self.hier.n_nodes())
    }

    /// The effective leaders of every set but the root's, in set order.
    fn other_leaders(&self) -> impl Iterator<Item = usize> + '_ {
        let sets = self.hier.sets().iter().enumerate();
        sets.filter(|(s, _)| *s != self.root_set)
            .map(|(_, set)| set.leader)
    }

    /// The ranks I serve as my node's effective leader — my set minus me, in
    /// set order; none when I am not it.
    fn locals(&self) -> impl Iterator<Item = usize> + '_ {
        let led = if self.rank == self.el {
            &self.hier.sets()[self.my_set].ranks[..]
        } else {
            &[]
        };
        led.iter().copied().filter(|&m| m != self.el)
    }
}

/// How the effective leaders of a two-level tree reach each other.
#[derive(Clone, Copy, Debug)]
enum Fan {
    /// Binomial over the rotated leader index.
    Binomial,
    /// The binary heap `2v+1, 2v+2` over the same index, which a
    /// pipelined stream wants.
    Heap,
    /// The root parents every other leader, in set order.
    Star,
}

/// One rank's place in a rooted tree.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct Tree {
    /// Who I receive from; `None` at the root.
    pub parent: Option<usize>,
    /// Who I send to, in send order.
    pub children: Vec<usize>,
    /// On an effective leader of a two-level shape, how many leading
    /// `children` are leaders of *other* nodes (the rest share my node).
    /// `None` on flat shapes and on plain members.
    pub far: Option<usize>,
}

impl Tree {
    /// Star over `ranks`: `root` parents every other one, in the order given.
    pub(crate) fn star(rank: usize, root: usize, ranks: impl IntoIterator<Item = usize>) -> Self {
        if rank != root {
            return Self {
                parent: Some(root),
                ..Self::default()
            };
        }
        Self {
            children: ranks.into_iter().filter(|&j| j != root).collect(),
            ..Self::default()
        }
    }

    /// Binomial tree over the virtual ranks `(rank − root) mod n`.
    pub(crate) fn binomial(rank: usize, root: usize, n: usize) -> Self {
        let v = (rank + n - root) % n;
        let real = |vr: usize| (vr + root) % n;
        Self {
            parent: (v != 0).then(|| real(binomial_parent(v))),
            children: binomial_children(v, n).into_iter().map(real).collect(),
            far: None,
        }
    }

    /// The paper's two-level tree: a tree over the effective leaders,
    /// indexed by [`Rooted::lv`] and shaped by `fan`, then each effective
    /// leader fans out to its node. Inter-node children come first so their
    /// transfers are in flight while the node is served.
    fn two_level(r: &Rooted, fan: Fan) -> Self {
        if r.rank != r.el {
            return Self {
                parent: Some(r.el),
                ..Self::default()
            };
        }
        let (l, lv) = (r.hier.n_nodes(), r.lv());
        let parent = (lv != 0).then(|| match fan {
            Fan::Binomial => r.leader_at(binomial_parent(lv)),
            Fan::Heap => r.leader_at((lv - 1) / 2),
            Fan::Star => r.root,
        });
        let leaders = |v: &[usize]| -> Vec<usize> {
            let v = v.iter().filter(|&&c| c < l);
            v.map(|&c| r.leader_at(c)).collect()
        };
        let mut children = match fan {
            Fan::Binomial => leaders(&binomial_children(lv, l)),
            Fan::Heap => leaders(&[2 * lv + 1, 2 * lv + 2]),
            // The root's star runs in set order, not the rotated index's.
            Fan::Star if lv == 0 => r.other_leaders().collect(),
            Fan::Star => Vec::new(),
        };
        let far = children.len();
        children.extend(r.locals());
        Self {
            parent,
            children,
            far: Some(far),
        }
    }

    /// The tree `algo` broadcasts down from `root`, as `rank` sees it.
    pub(crate) fn for_bcast(
        algo: BcastAlgo,
        hier: &HierarchyView,
        rank: usize,
        root: usize,
    ) -> Self {
        let n = hier.n_ranks();
        let two_level = |fan| Self::two_level(&Rooted::new(hier, rank, root), fan);
        match algo {
            BcastAlgo::FlatLinear => Self::star(rank, root, 0..n),
            BcastAlgo::FlatBinomial => Self::binomial(rank, root, n),
            BcastAlgo::TwoLevel => two_level(Fan::Binomial),
            BcastAlgo::TwoLevelPipelined => two_level(Fan::Heap),
            BcastAlgo::Auto => unreachable!("Auto resolved per call"),
        }
    }

    /// The tree `algo` gathers up to and scatters down from `root`, as
    /// `rank` sees it.
    pub(crate) fn for_gather(
        algo: GatherAlgo,
        hier: &HierarchyView,
        rank: usize,
        root: usize,
    ) -> Self {
        match algo {
            GatherAlgo::FlatLinear => Self::star(rank, root, 0..hier.n_ranks()),
            GatherAlgo::TwoLevel => Self::two_level(&Rooted::new(hier, rank, root), Fan::Star),
            GatherAlgo::Auto => unreachable!("Auto resolved at formation"),
        }
    }
}

/// One rank's place on the team's ring: the ranks in rank order, closed.
/// The neighbours do not depend on the root — a broadcast from any root
/// runs `root → root + 1 → … → root − 1` — so each rank's ring flags and
/// slots have one fixed writer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Ring {
    /// Who writes to me.
    pub pred: usize,
    /// Who I write to.
    pub succ: usize,
}

impl Ring {
    /// Rank `rank`'s neighbours on a ring of `n`.
    pub(crate) fn new(rank: usize, n: usize) -> Self {
        Self {
            pred: (rank + n - 1) % n,
            succ: (rank + 1) % n,
        }
    }
}

/// One level of a gather/release barrier as one rank sees it: its place in
/// the level's tree and the flag pair the level counts on.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct BarrierLevel {
    pub tree: Tree,
    /// Gather counter (on the parent).
    pub counter: usize,
    /// Release notification (on each child).
    pub release: usize,
}

impl BarrierLevel {
    /// The level every team's control barrier runs on: a star at rank 0.
    pub(crate) fn control(n: usize, rank: usize) -> Self {
        Self {
            tree: Tree::star(rank, 0, 0..n),
            counter: flag::EXCH_COUNTER,
            release: flag::EXCH_RELEASE,
        }
    }
}

/// The levels `rank` climbs in barrier `algo`, bottom first, and who runs
/// the dissemination among the levels' roots (`None`: there is one root).
/// A rank's list ends at the level where it has a parent.
pub(crate) fn barrier_shape(
    algo: BarrierAlgo,
    hier: &HierarchyView,
    rank: usize,
) -> (Vec<BarrierLevel>, Option<Among>) {
    let n = hier.n_ranks();
    let node = |tree| BarrierLevel {
        tree,
        counter: flag::COUNTER,
        release: flag::RELEASE,
    };
    let set = hier.set_for(rank);
    match algo {
        BarrierAlgo::CentralCounter => (vec![node(Tree::star(rank, 0, 0..n))], None),
        BarrierAlgo::BinomialTree => (vec![node(Tree::binomial(rank, 0, n))], None),
        BarrierAlgo::Dissemination => (Vec::new(), Some(Among::All)),
        BarrierAlgo::Tdlb => {
            let star = Tree::star(rank, set.leader, set.ranks.iter().copied());
            (vec![node(star)], Some(Among::Leaders))
        }
        BarrierAlgo::TdlbMultilevel => {
            // §VII: images gather at their socket's first rank, socket
            // leaders at the node leader (the first socket's first rank).
            let groups = hier.socket_groups(rank);
            let mine = groups
                .iter()
                .find(|g| g.contains(&rank))
                .expect("every rank is in a socket group");
            let mut levels = vec![BarrierLevel {
                tree: Tree::star(rank, mine[0], mine.iter().copied()),
                counter: flag::S_COUNTER,
                release: flag::S_RELEASE,
            }];
            if rank == mine[0] {
                let heads = groups.iter().map(|g| g[0]);
                levels.push(node(Tree::star(rank, set.leader, heads)));
            }
            (levels, Some(Among::Leaders))
        }
        BarrierAlgo::Auto => unreachable!("Auto resolved at formation"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caf_topology::{ImageMap, MachineModel, Placement, ProcId};

    /// A named rooted tree: a broadcast's or a gather's.
    #[derive(Clone, Copy, Debug)]
    enum Named {
        Bcast(BcastAlgo),
        Gather(GatherAlgo),
    }

    const NAMED: [Named; 6] = [
        Named::Bcast(BcastAlgo::FlatLinear),
        Named::Bcast(BcastAlgo::FlatBinomial),
        Named::Bcast(BcastAlgo::TwoLevel),
        Named::Bcast(BcastAlgo::TwoLevelPipelined),
        Named::Gather(GatherAlgo::FlatLinear),
        Named::Gather(GatherAlgo::TwoLevel),
    ];

    impl Named {
        fn tree(self, hier: &HierarchyView, rank: usize, root: usize) -> Tree {
            match self {
                Named::Bcast(a) => Tree::for_bcast(a, hier, rank, root),
                Named::Gather(a) => Tree::for_gather(a, hier, rank, root),
            }
        }

        /// The fan of a two-level shape; `None` for a flat one.
        fn fan(self) -> Option<Fan> {
            match self {
                Named::Bcast(BcastAlgo::TwoLevel) => Some(Fan::Binomial),
                Named::Bcast(BcastAlgo::TwoLevelPipelined) => Some(Fan::Heap),
                Named::Gather(GatherAlgo::TwoLevel) => Some(Fan::Star),
                _ => None,
            }
        }
    }

    /// The whole team of `n` images on 50 nodes × 2 sockets × 2 cores,
    /// image `i` on global core `cores[i]`.
    fn team(cores: Vec<usize>) -> HierarchyView {
        let n = cores.len();
        let machine = MachineModel::new("ragged", 50, 2, 2);
        let map = ImageMap::new(machine, n, &Placement::Custom(cores));
        let members: Vec<ProcId> = (0..n).map(ProcId).collect();
        HierarchyView::build(&map, &members)
    }

    /// Placements of `n` images: one per node (flat), packed four to a node,
    /// and ragged — nodes holding 4, 3, 1, 4, 3, 1, … images, with image
    /// order striding across them so no set is a contiguous rank range.
    fn placements(n: usize) -> Vec<HierarchyView> {
        let flat: Vec<usize> = (0..n).map(|i| i * 4).collect();
        let packed: Vec<usize> = (0..n).collect();
        let mut slots = Vec::new();
        for node in 0.. {
            let take = [4, 3, 1][node % 3].min(n - slots.len());
            slots.extend((0..take).map(|c| node * 4 + c));
            if slots.len() == n {
                break;
            }
        }
        let gcd = |mut a: usize, mut b: usize| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        let stride = [7, 5, 3, 1].into_iter().find(|&s| gcd(s, n) == 1).unwrap();
        let ragged: Vec<usize> = (0..n).map(|i| slots[i * stride % n]).collect();
        vec![team(flat), team(packed), team(ragged)]
    }

    fn trees(named: Named, hier: &HierarchyView, root: usize) -> Vec<Tree> {
        (0..hier.n_ranks())
            .map(|rank| named.tree(hier, rank, root))
            .collect()
    }

    #[test]
    fn every_broadcast_and_gather_shape_is_a_tree_that_spans_the_team() {
        for n in 1..50 {
            for hier in placements(n) {
                for (named, root) in NAMED.into_iter().flat_map(|a| (0..n).map(move |r| (a, r))) {
                    let what = format!("{named:?} n={n} root={root} nodes={}", hier.n_nodes());
                    let t = trees(named, &hier, root);
                    // Every non-root has one parent, and that parent's child
                    // list holds it; nobody else's does.
                    assert_eq!(t[root].parent, None, "{what}");
                    let edges: usize = t.iter().map(|x| x.children.len()).sum();
                    assert_eq!(edges, n - 1, "{what}");
                    for (rank, tree) in t.iter().enumerate().filter(|(r, _)| *r != root) {
                        let p = tree
                            .parent
                            .unwrap_or_else(|| panic!("{what}: {rank} orphaned"));
                        let holds = t[p].children.iter().filter(|&&c| c == rank).count();
                        assert_eq!(holds, 1, "{what}: {p} -> {rank}");
                    }
                    // The root reaches everyone.
                    let mut seen = vec![false; n];
                    let mut todo = vec![root];
                    while let Some(r) = todo.pop() {
                        assert!(
                            !std::mem::replace(&mut seen[r], true),
                            "{what}: cycle at {r}"
                        );
                        todo.extend(&t[r].children);
                    }
                    assert!(seen.iter().all(|&s| s), "{what}");
                }
            }
        }
    }

    /// From every root the ring visits each rank once, in rank order from
    /// the root's successor, and each rank's predecessor names it as its
    /// successor.
    #[test]
    fn the_ring_spans_the_team_from_every_root() {
        for n in 1..50 {
            for root in 0..n {
                let mut order = vec![root];
                while order.len() < n {
                    let at = *order.last().unwrap();
                    let next = Ring::new(at, n).succ;
                    assert_eq!(Ring::new(next, n).pred, at, "n={n}");
                    order.push(next);
                }
                let want: Vec<usize> = (0..n).map(|i| (root + i) % n).collect();
                assert_eq!(order, want, "n={n} root={root}");
                assert_eq!(Ring::new(order[n - 1], n).succ, root, "n={n} root={root}");
            }
        }
    }

    #[test]
    fn two_level_shapes_cross_each_node_boundary_once_between_effective_leaders() {
        for n in 1..50 {
            for hier in placements(n) {
                let node = |r: usize| hier.set_for(r).node;
                for named in NAMED.into_iter().filter(|x| x.fan().is_some()) {
                    for root in 0..n {
                        let what = format!("{named:?} n={n} root={root}");
                        let mut crossings = 0;
                        for rank in 0..n {
                            let r = Rooted::new(&hier, rank, root);
                            let leads = |x: usize| r.eff_leader(hier.leader_index_of(x)) == x;
                            let t = named.tree(&hier, rank, root);
                            let far = t.children.iter().filter(|&&c| node(c) != node(rank));
                            let far: Vec<usize> = far.copied().collect();
                            // Inter-node children lead the list, `far` counts
                            // them, and both ends of each are effective leaders.
                            assert_eq!(t.children[..far.len()], far[..], "{what} rank={rank}");
                            assert_eq!(
                                t.far,
                                leads(rank).then_some(far.len()),
                                "{what} rank={rank}"
                            );
                            assert!(far.iter().all(|&c| leads(c)), "{what} rank={rank}");
                            assert!(far.is_empty() || leads(rank), "{what} rank={rank}");
                            crossings += far.len();
                        }
                        assert_eq!(crossings, hier.n_nodes() - 1, "{what}");
                    }
                }
            }
        }
    }

    #[test]
    fn rooted_on_a_flat_hierarchy_gives_the_flat_shapes() {
        for n in 1..50 {
            let hier = placements(n).swap_remove(0);
            assert!(hier.is_flat());
            for (root, rank) in (0..n).flat_map(|root| (0..n).map(move |rank| (root, rank))) {
                let r = Rooted::new(&hier, rank, root);
                assert_eq!((r.el, r.locals().count()), (rank, 0));
                let flats = [
                    (Fan::Binomial, Tree::binomial(rank, root, n)),
                    (Fan::Star, Tree::star(rank, root, 0..n)),
                ];
                for (fan, flat) in flats {
                    let two = Tree::two_level(&r, fan);
                    assert_eq!((two.parent, &two.children), (flat.parent, &flat.children));
                    assert_eq!(two.far, Some(flat.children.len()), "{fan:?}");
                }
            }
        }
    }

    /// Each barrier algorithm's levels name the same edges from both ends,
    /// and the named shapes are the ones the table in the module docs says.
    #[test]
    fn barrier_levels_agree_from_both_ends() {
        use BarrierAlgo::*;
        for n in [1, 2, 7, 8, 13, 24] {
            for hier in placements(n) {
                for algo in [
                    CentralCounter,
                    BinomialTree,
                    Dissemination,
                    Tdlb,
                    TdlbMultilevel,
                ] {
                    let shapes: Vec<_> = (0..n).map(|r| barrier_shape(algo, &hier, r)).collect();
                    for (rank, (levels, roots)) in shapes.iter().enumerate() {
                        for (i, lv) in levels.iter().enumerate() {
                            if let Some(p) = lv.tree.parent {
                                assert_eq!(i + 1, levels.len(), "{algo:?}: climbs past a parent");
                                assert!(shapes[p].0[i].tree.children.contains(&rank));
                            }
                            for &c in &lv.tree.children {
                                assert_eq!(shapes[c].0[i].tree.parent, Some(rank), "{algo:?}");
                            }
                        }
                        let is_root = levels.iter().all(|lv| lv.tree.parent.is_none());
                        match algo {
                            CentralCounter | BinomialTree => {
                                assert_eq!((is_root, *roots), (rank == 0, None))
                            }
                            Dissemination => {
                                assert_eq!((is_root, *roots), (true, Some(Among::All)))
                            }
                            Tdlb | TdlbMultilevel => {
                                assert_eq!(is_root, hier.is_leader(rank), "{algo:?} rank {rank}");
                                assert_eq!(*roots, Some(Among::Leaders));
                            }
                            Auto => unreachable!(),
                        }
                    }
                    if algo == Tdlb {
                        for (rank, (levels, _)) in shapes.iter().enumerate() {
                            let set = hier.set_for(rank);
                            let star = Tree::star(rank, set.leader, set.ranks.iter().copied());
                            assert_eq!(levels[0].tree, star);
                        }
                    }
                }
            }
        }
    }
}
