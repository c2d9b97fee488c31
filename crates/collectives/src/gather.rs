//! Gather and scatter collectives — extensions beyond the paper's three
//! (barrier/reduction/broadcast), built with the same §IV-A methodology and
//! the same split as the broadcast: a shape from [`Tree::for_gather`] (a
//! star at the root, or the two-level tree — a star from the root over
//! the other nodes' effective leaders, then each leader's node) plus one
//! protocol per direction. On the two-level shape only one message per
//! node crosses the network, and members talk to their leader over shared
//! memory.
//!
//! * `co_gather(root)`: every member contributes `len` elements; the root
//!   receives the concatenation in team-rank order.
//! * `co_scatter(root)`: the root holds `n·len` elements; member `r`
//!   receives slice `r`.
//!
//! # The two walks
//!
//! A gather region holds one `gather_slot_bytes` slot per rank, the team
//! in set order ([`slot_of`]), so each node's slots are one contiguous
//! block.
//!
//! * **gather** sends data up the tree. Each rank waits for its near
//!   children (its node), then for its `far` ones (other nodes' leaders),
//!   one counted wait each. A member puts its slice into its parent's
//!   region at its own slot; an effective leader (`far` is set) forwards
//!   its node's block, its own slot filled in from memory, in one put. The
//!   root reads its region once, and the release goes down in `children`
//!   order.
//! * **scatter** sends data down the tree. The root puts each far child
//!   its node's block at slot 0 (the node's ranks in set order) and each
//!   near child its own slice at slot 0; a leader below the root keeps its
//!   slice and forwards its members theirs at slot 1, so root-direct and
//!   forwarded deliveries never alias. Every member acks the root
//!   directly, and the release goes down in `children` order.
//!
//! Only the root has far children in either shape: a leader forwards its
//! own node, never another's.
//!
//! # Flow control
//!
//! Like broadcast, these have rotating roots, so slot reuse needs explicit
//! fencing:
//! * gather runs **data up → release down**: the root releases (through
//!   the same leader tree) once it has consumed everything, and members
//!   return only on their release — so nobody's era-`e+1` contribution can
//!   land in a leader/root slot still holding era `e`.
//! * scatter runs **data down → ack up → release down**: members ack after
//!   reading, the root collects every ack and then releases; members
//!   return only on their release. The release is what protects member
//!   slots across eras — roots rotate, so era `e+1`'s (different) root
//!   must not start until era `e` was read everywhere.

use crate::comm::{flag, Region::Gather, TeamComm};
use crate::shape::Tree;
use crate::value::{bytes_to_slice, CoValue};
use caf_topology::HierarchyView;

/// All-to-all personalized exchange over a ring schedule; see
/// [`TeamComm::co_alltoall`]. Every image deposits slice `j` into rank
/// `j`'s region at slot `my_rank`, staggered so step `k` pairs
/// `(rank, rank+k)` — no hot spot. The trailing team barrier fences the
/// region: nobody enters era `e+1` before everyone consumed era `e`.
pub(crate) fn alltoall<T: CoValue>(comm: &mut TeamComm, send: &[T], len: usize) -> Vec<T> {
    let n = comm.size();
    assert_eq!(send.len(), n * len, "alltoall send buffer must be n*len");
    let mut out = vec![T::load(&vec![0u8; T::SIZE]); n * len];
    // My own slice moves locally.
    out[comm.rank * len..(comm.rank + 1) * len]
        .copy_from_slice(&send[comm.rank * len..(comm.rank + 1) * len]);
    if n == 1 {
        return out;
    }
    comm.ensure_gather((len * T::SIZE).max(1));
    let gs = comm.gather_slot_bytes;
    for k in 1..n {
        let to = (comm.rank + k) % n;
        let slice = &send[to * len..(to + 1) * len];
        comm.send_flagged(Gather, to, comm.rank * gs, slice, flag::A2A_ARRIVE);
    }
    comm.arrivals(flag::A2A_ARRIVE, n as u64 - 1);
    let mut bytes = comm.take_stage(n * gs);
    comm.read_raw(Gather, 0, &mut bytes);
    for r in 0..n {
        if r != comm.rank {
            bytes_to_slice(
                &bytes[r * gs..r * gs + len * T::SIZE],
                &mut out[r * len..(r + 1) * len],
            );
        }
    }
    comm.restore_stage(bytes);
    comm.barrier();
    out
}

/// Team rank `r`'s slot in a gather region: the team in set order.
fn slot_of(hier: &HierarchyView, r: usize) -> usize {
    let before = &hier.sets()[..hier.leader_index_of(r)];
    before.iter().map(|set| set.len()).sum::<usize>() + hier.pos_in_set(r)
}

/// Serialize `src` into the front of `dst`.
fn store_into<T: CoValue>(src: &[T], dst: &mut [u8]) {
    for (v, at) in src.iter().zip(dst.chunks_exact_mut(T::SIZE)) {
        v.store(at);
    }
}

/// Collective gather; see module docs. `mine.len()` must match on every
/// member; returns `Some(concatenation)` on the root, `None` elsewhere.
pub(crate) fn gather<T: CoValue>(comm: &mut TeamComm, mine: &[T], root: usize) -> Option<Vec<T>> {
    assert!(root < comm.size(), "gather root {root} out of team");
    let n = comm.size();
    if n == 1 {
        return Some(mine.to_vec());
    }
    let len = mine.len();
    comm.ensure_gather((len * T::SIZE).max(1));
    let gs = comm.gather_slot_bytes;
    let hier = comm.hier.clone();
    let tree = Tree::for_gather(comm.gather_algo, &hier, comm.rank, root);
    let (far, near) = tree.children.split_at(tree.far.unwrap_or(0));
    // One counted wait per level: my node, then the other nodes.
    comm.arrivals(flag::GA_ARRIVE, near.len() as u64);
    comm.arrivals(flag::GA_ARRIVE, far.len() as u64);
    let out = match tree.parent {
        None => {
            // Everything is in; my own slice never left my memory.
            let mut bytes = comm.take_stage(n * gs);
            comm.read_raw(Gather, 0, &mut bytes);
            let mut out = vec![T::load(&vec![0u8; T::SIZE]); n * len];
            let in_set_order = hier.sets().iter().flat_map(|set| &set.ranks);
            for (slot, &r) in in_set_order.enumerate().filter(|(_, &r)| r != root) {
                let src = &bytes[slot * gs..slot * gs + len * T::SIZE];
                bytes_to_slice(src, &mut out[r * len..(r + 1) * len]);
            }
            comm.restore_stage(bytes);
            out[root * len..(root + 1) * len].copy_from_slice(mine);
            Some(out)
        }
        Some(parent) => {
            let at = slot_of(&hier, comm.rank) * gs;
            if tree.far.is_some() {
                // An effective leader: my node's block, my own slot filled
                // in from memory, goes up in one put.
                let base = at - hier.pos_in_set(comm.rank) * gs;
                let mut block = comm.take_stage(hier.set_for(comm.rank).len() * gs);
                comm.read_raw(Gather, base, &mut block);
                store_into(mine, &mut block[at - base..]);
                comm.put_flag(Gather, parent, base, &block, flag::GA_ARRIVE);
                comm.restore_stage(block);
            } else {
                comm.send_flagged(Gather, parent, at, mine, flag::GA_ARRIVE);
            }
            comm.arrivals(flag::GA_DONE, 1);
            None
        }
    };
    for &child in &tree.children {
        comm.add_flag(child, flag::GA_DONE, 1);
    }
    out
}

/// Collective scatter; see module docs. On the root, `all` must hold
/// `n·len` elements (`len` = `out.len()`, matching on every member); every
/// member's `out` receives its slice.
pub(crate) fn scatter<T: CoValue>(
    comm: &mut TeamComm,
    all: Option<&[T]>,
    out: &mut [T],
    root: usize,
) {
    assert!(root < comm.size(), "scatter root {root} out of team");
    let n = comm.size();
    let len = out.len();
    if comm.rank == root {
        let all = all.expect("root must supply the source buffer");
        assert_eq!(
            all.len(),
            n * len,
            "scatter source must hold n*len elements"
        );
        out.copy_from_slice(&all[root * len..(root + 1) * len]);
        if n == 1 {
            return;
        }
    } else if n == 1 {
        return;
    }
    comm.ensure_gather((len * T::SIZE).max(1));
    let gs = comm.gather_slot_bytes;
    let hier = comm.hier.clone();
    let tree = Tree::for_gather(comm.gather_algo, &hier, comm.rank, root);
    let (far, near) = tree.children.split_at(tree.far.unwrap_or(0));
    match tree.parent {
        None => {
            let all = all.expect("root buffer");
            let slice = |r: usize| &all[r * len..(r + 1) * len];
            for &leader in far {
                let ranks = &hier.set_for(leader).ranks;
                let mut block = comm.take_stage(ranks.len() * gs);
                block.fill(0);
                for (pos, &m) in ranks.iter().enumerate() {
                    store_into(slice(m), &mut block[pos * gs..]);
                }
                comm.put_flag(Gather, leader, 0, &block, flag::SC_ARRIVE);
                comm.restore_stage(block);
            }
            for &m in near {
                comm.send_flagged(Gather, m, 0, slice(m), flag::SC_ARRIVE);
            }
            comm.arrivals(flag::SC_ACK, n as u64 - 1);
        }
        Some(parent) => {
            comm.arrivals(flag::SC_ARRIVE, 1);
            if tree.far.is_some() {
                // An effective leader: my node's block is in; I keep my
                // slice and forward my members theirs.
                let mut block = comm.take_stage(hier.set_for(comm.rank).len() * gs);
                comm.read_raw(Gather, 0, &mut block);
                let own = hier.pos_in_set(comm.rank) * gs;
                bytes_to_slice(&block[own..own + len * T::SIZE], out);
                for &m in near {
                    let at = hier.pos_in_set(m) * gs;
                    comm.put_flag(Gather, m, gs, &block[at..at + gs], flag::SC_ARRIVE);
                }
                comm.restore_stage(block);
            } else {
                // Slot 0 straight from the root, slot 1 from a leader.
                let slot = if parent == root { 0 } else { gs };
                comm.load_values(Gather, slot, out);
            }
            comm.add_flag(root, flag::SC_ACK, 1);
            comm.arrivals(flag::SC_DONE, 1);
        }
    }
    for &child in &tree.children {
        comm.add_flag(child, flag::SC_DONE, 1);
    }
}
