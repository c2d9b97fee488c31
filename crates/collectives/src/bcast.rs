//! One-to-all broadcast: **one protocol over a tree**. The algorithms
//! differ only in the tree each rank is handed ([`Tree::for_bcast`]): a
//! star at the root (linear), a flat binomial tree, the paper's two-level
//! tree (binomial over node leaders — with the root standing in as its
//! node's leader — then each leader's node), and the pipelined two-level
//! tree for large payloads, where K-byte chunks stream down a *binary* tree
//! of node leaders with nonblocking puts and each leader fans a chunk out
//! through shared memory while its NIC forwards it downstream — the
//! inter-node stage and the intranode fan-out overlap instead of
//! serializing.
//!
//! # Flow control: three waves
//!
//! A one-sided broadcast needs more than parity double-buffering, because
//! the **root rotates** call to call: the root of episode e+2 only needs
//! episode e+1's *data* to proceed, so a chain of fast roots can outrun a
//! slow receiver by any number of episodes and overwrite a payload slot it
//! has not read yet. The protocol therefore runs three waves:
//!
//! 1. **data** down the tree (payload put + `B_ARRIVE` notification),
//! 2. **ack** back up (`B_ACK`, collected subtree-by-subtree),
//! 3. **release** down again (`B_DONE`), sent once the root holds every
//!    ack; receivers return only after their release.
//!
//! Wave 3 makes an episode's completion globally visible: any image
//! *starting* episode e has finished e−1, whose release certifies that all
//! of e−1's payloads (and a fortiori e−2's, whose parity slot e reuses)
//! were consumed everywhere. Because roots change, the per-image
//! expectations (`bcast_arrived`, `bcast_acks`, `bcast_released`) are
//! cumulative counters rather than the bare episode number.
//!
//! Wave 1 is counted *per chunk*: every receiver has exactly one payload
//! source per episode, and the fabric orders a flag behind a prior put to
//! the same target, so a cumulative `B_ARRIVE` count identifies chunk
//! boundaries without tokens. Acks and releases stay per-episode.
//!
//! # Why a binary tree when pipelining
//!
//! With nonblocking puts each leader forwards chunk `c` to its (at most
//! two) children while its own NIC is still receiving chunk `c+1`, so for
//! payloads of many chunks the total time approaches one payload's NIC
//! time plus a `⌈log₂ l⌉`-deep fill term — instead of the binomial tree's
//! `log l × payload` store-and-forward time, and instead of the `l`-deep
//! fill a chain would pay (a chain halves per-chunk NIC load but its fill
//! dominates everything below multi-MiB payloads at 44 nodes). Two
//! children per chunk keep the NIC busy below the intranode fan-out time,
//! so the fan-out — which overlaps the inter-node transfer of the next
//! chunk — remains the steady-state bound.

use crate::comm::{flag, TeamComm};
use crate::config::BcastAlgo;
use crate::shape::Tree;
use crate::value::CoValue;
use caf_trace::{EventKind, Level};

/// Stable trace operand for a broadcast algorithm (`Bcast` event `a`).
fn algo_code(a: BcastAlgo) -> u64 {
    match a {
        BcastAlgo::FlatLinear => 1,
        BcastAlgo::FlatBinomial => 2,
        BcastAlgo::TwoLevel => 3,
        BcastAlgo::TwoLevelPipelined => 4,
        BcastAlgo::Auto => 0,
    }
}

/// Broadcast `buf` from team rank `root`, picking the algorithm by
/// (hierarchy × payload size) — all members see the same length, so they
/// agree on the choice.
pub(crate) fn broadcast<T: CoValue>(comm: &mut TeamComm, buf: &mut [T], root: usize) {
    let algo = comm.bcast_algo_for(buf.len() * T::SIZE);
    broadcast_using(comm, buf, root, algo);
}

/// Broadcast with an explicit algorithm (used by `FlatBinomial` allreduce,
/// which embeds a flat broadcast regardless of the team's bcast choice).
pub(crate) fn broadcast_using<T: CoValue>(
    comm: &mut TeamComm,
    buf: &mut [T],
    root: usize,
    algo: BcastAlgo,
) {
    assert!(root < comm.size(), "broadcast root {root} out of team");
    comm.epochs.bcast += 1;
    if comm.size() == 1 {
        return;
    }
    let bytes = buf.len() * T::SIZE;
    comm.ensure_scratch(bytes);
    let e = comm.epochs.bcast;
    let t0 = comm.trace_now();
    let tree = Tree::for_bcast(algo, &comm.hier, comm.rank, root);
    // Only the pipelined tree cuts the payload up and streams it.
    let pipelined = algo == BcastAlgo::TwoLevelPipelined;
    let chunk = if pipelined {
        comm.chunk_elems(T::SIZE)
    } else {
        buf.len().max(1)
    };
    tree_bcast(comm, buf, &tree, chunk, pipelined);
    let code = algo_code(algo);
    comm.trace_span(EventKind::Bcast, t0, Level::Whole, code, e, bytes as u64);
}

/// The three waves over `tree`, the payload cut into `chunk`-element
/// pieces; `nb` streams the pieces with nonblocking puts. An effective
/// leader of a two-level tree also records its stages: store-and-forward
/// has an inter-node stage (receive, forward to other leaders) and then an
/// intranode one; a stream overlaps the two, so it records one span.
fn tree_bcast<T: CoValue>(comm: &mut TeamComm, buf: &mut [T], tree: &Tree, chunk: usize, nb: bool) {
    let len = buf.len();
    let chunks = len.div_ceil(chunk).max(1);
    let off = comm.sl_bcast((comm.epochs.bcast % 2) as usize);
    let (far, near) = tree.children.split_at(tree.far.unwrap_or(0));
    let staged = tree.far.is_some();
    let send = |comm: &mut TeamComm, to: &[usize], at: usize, piece: &[T]| {
        for &child in to {
            if nb {
                comm.send_values_nb(child, at, piece);
            } else {
                comm.send_values(child, at, piece);
            }
            comm.add_flag(child, flag::B_ARRIVE, 1);
        }
    };
    let e = comm.epochs.bcast;
    let t0 = comm.trace_now();
    let mut t1 = t0;

    // Wave 1: data down. Inter-node children first — a nonblocking put
    // frees this CPU to serve the node while the NIC streams the chunk.
    for c in 0..chunks {
        let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(len));
        let at = off + lo * T::SIZE;
        if tree.parent.is_some() {
            comm.epochs.bcast_arrived += 1;
            comm.wait_flag(flag::B_ARRIVE, comm.epochs.bcast_arrived);
            comm.load_from_scratch(at, &mut buf[lo..hi]);
        }
        send(comm, far, at, &buf[lo..hi]);
        if staged && !nb {
            comm.trace_span(EventKind::BcastStage, t0, Level::Inter, 1, e, 0);
            t1 = comm.trace_now();
        }
        send(comm, near, at, &buf[lo..hi]);
    }
    if staged && nb {
        comm.trace_span(EventKind::BcastStage, t0, Level::Inter, 1, e, chunks as u64);
    } else if staged {
        comm.trace_span(EventKind::BcastStage, t1, Level::Intra, 2, e, 0);
    }

    // Wave 2: acks up — my subtree's, then mine to my parent.
    if !tree.children.is_empty() {
        comm.epochs.bcast_acks += tree.children.len() as u64;
        comm.wait_flag(flag::B_ACK, comm.epochs.bcast_acks);
    }
    // Wave 3: release down; the root starts it once it holds every ack.
    if let Some(parent) = tree.parent {
        comm.add_flag(parent, flag::B_ACK, 1);
        comm.epochs.bcast_released += 1;
        comm.wait_flag(flag::B_DONE, comm.epochs.bcast_released);
    }
    for &child in &tree.children {
        comm.add_flag(child, flag::B_DONE, 1);
    }
}
