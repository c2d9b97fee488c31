//! Gather and scatter collectives — extensions beyond the paper's three
//! (barrier/reduction/broadcast), built with the same §IV-A methodology:
//! the 2-level variants route through node leaders so only one message per
//! node crosses the network, while members talk to their leader over
//! shared memory.
//!
//! * `co_gather(root)`: every member contributes `len` elements; the root
//!   receives the concatenation in team-rank order.
//! * `co_scatter(root)`: the root holds `n·len` elements; member `r`
//!   receives slice `r`.
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
use crate::config::GatherAlgo;
use crate::shape::Rooted;
use crate::value::{bytes_to_slice, CoValue};

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

/// Collective gather; see module docs. `mine.len()` must match on every
/// member; returns `Some(concatenation)` on the root, `None` elsewhere.
pub(crate) fn gather<T: CoValue>(comm: &mut TeamComm, mine: &[T], root: usize) -> Option<Vec<T>> {
    assert!(root < comm.size(), "gather root {root} out of team");
    let n = comm.size();
    if n == 1 {
        return Some(mine.to_vec());
    }
    let nbytes = mine.len() * T::SIZE;
    comm.ensure_gather(nbytes.max(1));
    match comm.gather_algo {
        GatherAlgo::FlatLinear => gather_flat(comm, mine, root),
        GatherAlgo::TwoLevel => gather_two_level(comm, mine, root),
        GatherAlgo::Auto => unreachable!("Auto resolved at formation"),
    }
}

/// Serialize `src` into the front of `dst`.
fn store_into<T: CoValue>(src: &[T], dst: &mut [u8]) {
    for (v, at) in src.iter().zip(dst.chunks_exact_mut(T::SIZE)) {
        v.store(at);
    }
}

/// Read my whole gather region, taking slot `slot_of(r)`'s payload as the
/// contribution of team rank `r`.
fn read_all_slots<T: CoValue>(
    comm: &mut TeamComm,
    len: usize,
    slot_of: impl Fn(usize) -> usize,
) -> Vec<T> {
    let n = comm.size();
    let gs = comm.gather_slot_bytes;
    let mut bytes = comm.take_stage(n * gs);
    comm.read_raw(Gather, 0, &mut bytes);
    let mut out = vec![T::load(&vec![0u8; T::SIZE]); n * len];
    for rank in 0..n {
        let slot = slot_of(rank);
        let src = &bytes[slot * gs..slot * gs + len * T::SIZE];
        bytes_to_slice(src, &mut out[rank * len..(rank + 1) * len]);
    }
    comm.restore_stage(bytes);
    out
}

fn gather_flat<T: CoValue>(comm: &mut TeamComm, mine: &[T], root: usize) -> Option<Vec<T>> {
    let n = comm.size();
    if comm.rank == root {
        // Collect the rest; my own contribution never leaves my memory.
        comm.arrivals(flag::GA_ARRIVE, n as u64 - 1);
        let mut out = read_all_slots(comm, mine.len(), |r| r);
        out[root * mine.len()..(root + 1) * mine.len()].copy_from_slice(mine);
        for j in 0..n {
            if j != root {
                comm.add_flag(j, flag::GA_DONE, 1);
            }
        }
        Some(out)
    } else {
        let at = comm.rank * comm.gather_slot_bytes;
        comm.send_flagged(Gather, root, at, mine, flag::GA_ARRIVE);
        comm.arrivals(flag::GA_DONE, 1);
        None
    }
}

fn gather_two_level<T: CoValue>(comm: &mut TeamComm, mine: &[T], root: usize) -> Option<Vec<T>> {
    let r = Rooted::new(&comm.hier, comm.rank, root);
    let hier = r.hier();

    // Slot map: contributions are stored by (set, position-within-set):
    // slot(rank) = prefix[set(rank)] + pos(rank). This makes each node's
    // block contiguous so leaders forward ONE message per node.
    let mut prefix = vec![0usize; hier.n_nodes() + 1];
    for (s, set) in hier.sets().iter().enumerate() {
        prefix[s + 1] = prefix[s] + set.len();
    }
    let slot_of = |rank: usize| prefix[hier.leader_index_of(rank)] + hier.pos_in_set(rank);

    // Stage 1: contribute to my effective leader's region — unless I am
    // it: then my contribution stays in my memory until it is needed.
    let gs = comm.gather_slot_bytes;
    let my_slot = slot_of(comm.rank) * gs;
    if comm.rank != r.el {
        comm.send_flagged(Gather, r.el, my_slot, mine, flag::GA_ARRIVE);
        comm.arrivals(flag::GA_DONE, 1);
        return None;
    }

    // Effective leader: wait for the rest of my node (within root's set
    // the nominal leader contributes like anyone else).
    comm.arrivals(flag::GA_ARRIVE, r.my_ranks().len() as u64 - 1);

    let out = if comm.rank == root {
        // Root: wait for every other node's block (one notification each).
        comm.arrivals(flag::GA_ARRIVE, hier.n_nodes() as u64 - 1);
        let mut out = read_all_slots(comm, mine.len(), slot_of);
        out[root * mine.len()..(root + 1) * mine.len()].copy_from_slice(mine);
        // Release wave: root -> leaders -> members.
        for l in r.other_leaders() {
            comm.add_flag(l, flag::GA_DONE, 1);
        }
        Some(out)
    } else {
        // Forward my node's contiguous block, my own slot filled in from
        // memory, to the root in one put.
        let base = prefix[r.my_set] * gs;
        let mut block = comm.take_stage(r.my_ranks().len() * gs);
        comm.read_raw(Gather, base, &mut block);
        store_into(mine, &mut block[my_slot - base..]);
        comm.put_flag(Gather, root, base, &block, flag::GA_ARRIVE);
        comm.restore_stage(block);
        // Await my release before releasing my members.
        comm.arrivals(flag::GA_DONE, 1);
        None
    };
    for m in r.locals() {
        comm.add_flag(m, flag::GA_DONE, 1);
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
    match comm.gather_algo {
        GatherAlgo::FlatLinear => scatter_flat(comm, all, out, root),
        GatherAlgo::TwoLevel => scatter_two_level(comm, all, out, root),
        GatherAlgo::Auto => unreachable!("Auto resolved at formation"),
    }
}

fn scatter_flat<T: CoValue>(comm: &mut TeamComm, all: Option<&[T]>, out: &mut [T], root: usize) {
    let n = comm.size();
    let len = out.len();
    if comm.rank == root {
        let all = all.expect("root buffer");
        for j in 0..n {
            if j != root {
                // Each member's slice goes into ITS slot 0.
                comm.send_flagged(Gather, j, 0, &all[j * len..(j + 1) * len], flag::SC_ARRIVE);
            }
        }
        comm.arrivals(flag::SC_ACK, n as u64 - 1);
        for j in 0..n {
            if j != root {
                comm.add_flag(j, flag::SC_DONE, 1);
            }
        }
    } else {
        comm.arrivals(flag::SC_ARRIVE, 1);
        comm.load_values(Gather, 0, out);
        comm.add_flag(root, flag::SC_ACK, 1);
        comm.arrivals(flag::SC_DONE, 1);
    }
}

fn scatter_two_level<T: CoValue>(
    comm: &mut TeamComm,
    all: Option<&[T]>,
    out: &mut [T],
    root: usize,
) {
    let r = Rooted::new(&comm.hier, comm.rank, root);
    let len = out.len();
    let gs = comm.gather_slot_bytes;

    if comm.rank == root {
        let all = all.expect("root buffer");
        // Stage 1: one contiguous block per other node, ordered by that
        // node's member positions (slots 0..set_len on the leader).
        for (s, set) in r.hier().sets().iter().enumerate() {
            if s == r.root_set {
                continue;
            }
            let mut block = comm.take_stage(set.len() * gs);
            block.iter_mut().for_each(|b| *b = 0);
            for (pos, &m) in set.ranks.iter().enumerate() {
                // Serialize rank m's slice directly into the block.
                store_into(&all[m * len..(m + 1) * len], &mut block[pos * gs..]);
            }
            comm.put_flag(Gather, set.leader, 0, &block, flag::SC_ARRIVE);
            comm.restore_stage(block);
        }
        // Root acts as its own node's leader: deliver locally.
        for m in r.locals() {
            comm.send_flagged(Gather, m, 0, &all[m * len..(m + 1) * len], flag::SC_ARRIVE);
        }
        // Wait for every member's ack (directly counted at the root),
        // then release through the leader tree.
        comm.arrivals(flag::SC_ACK, comm.size() as u64 - 1);
        for l in r.other_leaders() {
            comm.add_flag(l, flag::SC_DONE, 1);
        }
    } else {
        // My slice — or, on a leader, my node's block — arrives.
        comm.arrivals(flag::SC_ARRIVE, 1);
        if comm.rank == r.el {
            // Leader of a non-root node: take my slice, fan the rest out.
            let set = r.my_ranks();
            let mut block = comm.take_stage(set.len() * gs);
            comm.read_raw(Gather, 0, &mut block);
            bytes_to_slice(&block[r.my_pos * gs..r.my_pos * gs + len * T::SIZE], out);
            for (pos, &m) in set.iter().enumerate() {
                if m != r.el {
                    // Forward slice `pos` into member m's slot 1 (slot 0
                    // would also work — each image owns its whole region —
                    // but a distinct slot keeps root-direct and
                    // leader-forwarded deliveries from ever aliasing).
                    let slice = &block[pos * gs..(pos + 1) * gs];
                    comm.put_flag(Gather, m, gs, slice, flag::SC_ARRIVE);
                }
            }
            comm.restore_stage(block);
        } else {
            // Plain member: slot 0 when it comes straight from the root,
            // slot 1 when forwarded by a leader.
            let off = if r.my_set == r.root_set { 0 } else { gs };
            let mut bytes = comm.take_stage(len * T::SIZE);
            comm.read_raw(Gather, off, &mut bytes);
            bytes_to_slice(&bytes, out);
            comm.restore_stage(bytes);
        }
        comm.add_flag(root, flag::SC_ACK, 1);
        // Await my release before releasing my members.
        comm.arrivals(flag::SC_DONE, 1);
    }
    for m in r.locals() {
        comm.add_flag(m, flag::SC_DONE, 1);
    }
}
