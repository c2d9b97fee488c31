//! One-to-all broadcast: **one protocol over a tree**, and one over the
//! team's ring ([`ring`]). The tree algorithms differ only in the tree
//! each rank is handed ([`Tree::for_bcast`]): a star at the root
//! (linear), a flat binomial tree, the paper's two-level
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
//! 1. **data** down the tree (payload put + `B_ARRIVE` notification: one
//!    signalled put, or a stream of nonblocking chunks each with its own
//!    notification),
//! 2. **ack** back up (`B_ACK`, collected subtree-by-subtree),
//! 3. **release** down again (`B_DONE`), sent once the root holds every
//!    ack.
//!
//! Because roots change, what an image waits for differs episode to
//! episode: its children's acks, one release unless it was the root. Each
//! wait names those arrivals, and the team's counted wait adds them to
//! what the flag has consumed; no wave has an episode-scaled threshold.
//!
//! Wave 1 is counted *per chunk*: every receiver has exactly one payload
//! source per episode, and the fabric orders a flag behind a prior put to
//! the same target, so a cumulative `B_ARRIVE` count identifies chunk
//! boundaries without tokens. Acks and releases stay per-episode.
//!
//! # Split phase: two broadcasts in flight
//!
//! [`begin`] runs wave 1, and below the root also wave 2: a member returns
//! holding the data, once its subtree has acked and it has sent its own
//! ack. [`finish`] runs what is left — the root's ack collection and
//! wave 3 — for every broadcast this image has begun, oldest first;
//! `co_broadcast` is the two back to back, today's operations in today's
//! order. The time between them is the caller's: HPL factors its next
//! panel there.
//!
//! Episode e uses scratch slot `e mod 2` and that parity's own three
//! flags (`B_ARRIVE`, `B_ACK` and `B_DONE` are flag pairs, each counted on
//! its own), so the two parities never share a cumulative count and an
//! image may hold one unfinished broadcast per parity. `begin(e)` finishes
//! e − 2 — the last user of its slot and counters — and leaves e − 1 in
//! flight. That is enough: e − 2 finished here means its release (or, at
//! its root, every ack) has come, so every member consumed e − 2's payload
//! before any data of e can reach its slot; and an image sends e's ack only
//! after its own `begin(e)`, so no count of e can be taken for one of e − 2.
//! A barrier finishes everything, and a team dropped with a broadcast
//! unfinished panics, naming the rank.
//!
//! # Credits on a fixed ring
//!
//! [`ring`] walks the team's [`Ring`] — ranks in rank order, the same
//! neighbours whatever the root — and needs neither wave 2 nor wave 3.
//! Ring episode e uses ring slot `e mod 2`. On a ring of three or more the
//! payload streams in pieces of the team's `SizePolicy::chunk_bytes`, so a
//! member forwards one piece while the next is still arriving. A ring of
//! two has no forwarder and sends one piece, and so does a ring whose
//! node-mates' messages share a NIC (`TeamComm::shares_a_nic`): there the
//! pieces of every hop on a node queue on its one NIC, and cutting them
//! up only adds per-message cost. Per piece:
//!
//! * a non-root waits for one arrival on its own `RING_ARRIVE` and loads
//!   the piece from its own slot;
//! * it forwards the piece to its successor unless the successor is the
//!   root;
//! * a forwarder writes e into its successor's slot only once that
//!   successor's credits (`RING_CREDIT`, on the forwarder) reach e − 2 —
//!   waited for once, before its first piece goes out.
//!
//! Last, every member, the root included, adds one credit to its
//! predecessor: one arrival per piece, one credit per episode.
//!
//! Both flags have one writer, a fixed neighbour. The predecessor sends
//! pieces and episodes in order, every member cuts a payload into the same
//! pieces, and the fabric orders its puts to one target, so an arrival
//! cannot be counted for the wrong piece or episode, and one cumulative
//! count serves both slots. The successor returns one credit per episode
//! after reading its slot, so credit e − 2 says that episode e − 2, the
//! last user of the slot, is consumed. Nothing is left to finish, and a
//! member waits only for its predecessor's data and, to reuse a slot, for
//! its successor.
//!
//! An arbitrary tree has neither property. As the root rotates, an image's
//! parent changes: two episodes can reach one slot from different senders
//! with nothing ordering them, and the image a sender writes to has never
//! told *that* sender that it read the slot. Who has consumed an episode is
//! known only at the root once every ack is in, and only a release wave
//! carries it back — so the tree keeps its three waves. The ring pays one
//! hop per member instead of a tree's depth, which suits a root that
//! advances in rank order, as HPL's panel owner does: the next root is the
//! current root's successor and holds the data first.
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

use crate::comm::{flag, Region::Scratch, TeamComm};
use crate::config::BcastAlgo;
use crate::shape::{Ring, Tree};
use crate::value::CoValue;
use caf_trace::{EventKind, Level};

/// The ring broadcast's `Bcast` event `a`, beyond every [`BcastAlgo`]'s.
const RING_CODE: u64 = 5;

/// A broadcast this image has begun and not finished: what its waves 2–3
/// need.
pub(crate) struct Pending {
    /// The episode (its parity picks the slot and the counters).
    pub e: u64,
    tree: Tree,
    /// Trace: start of the `Bcast` span, algorithm code, payload bytes.
    t0: u64,
    code: u64,
    bytes: u64,
}

/// Begin broadcasting `buf` from team rank `root`, picking the algorithm
/// by (hierarchy × payload size) — all members see the same length, so
/// they agree on the choice.
pub(crate) fn begin<T: CoValue>(comm: &mut TeamComm, buf: &mut [T], root: usize) {
    let algo = comm.bcast_algo_for(buf.len() * T::SIZE);
    begin_using(comm, buf, root, algo);
}

/// [`begin`] with an explicit algorithm (used by `FlatBinomial` allreduce,
/// which embeds a flat broadcast regardless of the team's bcast choice).
pub(crate) fn begin_using<T: CoValue>(
    comm: &mut TeamComm,
    buf: &mut [T],
    root: usize,
    algo: BcastAlgo,
) {
    assert!(root < comm.size(), "broadcast root {root} out of team");
    comm.bcasts += 1;
    if comm.size() == 1 {
        return;
    }
    let e = comm.bcasts;
    let par = (e % 2) as usize;
    // Episode e − 2 is the last user of this parity's slot and counters.
    if let Some(owed) = comm.bcast_pending[par].take() {
        complete(comm, owed);
    }
    let bytes = buf.len() * T::SIZE;
    comm.ensure_scratch(bytes);
    let t0 = comm.trace_now();
    let tree = Tree::for_bcast(algo, &comm.hier, comm.rank, root);
    // Only the pipelined tree cuts the payload up and streams it.
    let pipelined = algo == BcastAlgo::TwoLevelPipelined;
    let chunk = if pipelined {
        comm.chunk_elems(T::SIZE)
    } else {
        buf.len().max(1)
    };
    data_wave(comm, buf, &tree, chunk, pipelined, par);
    // Wave 2 below the root: my subtree's acks, then mine to my parent.
    if let Some(parent) = tree.parent {
        collect_acks(comm, &tree, par);
        comm.add_flag(parent, flag::B_ACK[par], 1);
    }
    comm.bcast_pending[par] = Some(Pending {
        e,
        tree,
        t0,
        code: algo as u64,
        bytes: bytes as u64,
    });
}

/// Finish every broadcast this image has begun, oldest first.
pub(crate) fn finish(comm: &mut TeamComm) {
    let last = (comm.bcasts % 2) as usize;
    for par in [1 - last, last] {
        if let Some(owed) = comm.bcast_pending[par].take() {
            complete(comm, owed);
        }
    }
}

/// Waves 2–3 of one begun broadcast: the root collects its acks, a member
/// waits for its release; both pass the release on.
fn complete(comm: &mut TeamComm, p: Pending) {
    let par = (p.e % 2) as usize;
    if p.tree.parent.is_none() {
        collect_acks(comm, &p.tree, par);
    } else {
        comm.arrivals(flag::B_DONE[par], 1);
    }
    for &child in &p.tree.children {
        comm.add_flag(child, flag::B_DONE[par], 1);
    }
    comm.trace_span(EventKind::Bcast, p.t0, Level::Whole, p.code, p.e, p.bytes);
}

/// Wave 2 at one rank: wait until every child has acked.
fn collect_acks(comm: &mut TeamComm, tree: &Tree, par: usize) {
    comm.arrivals(flag::B_ACK[par], tree.children.len() as u64);
}

/// Broadcast `buf` from team rank `root` along the team's [`Ring`] (module
/// docs, "credits on a fixed ring").
pub(crate) fn ring<T: CoValue>(comm: &mut TeamComm, buf: &mut [T], root: usize) {
    assert!(root < comm.size(), "broadcast root {root} out of team");
    comm.rings += 1;
    if comm.size() == 1 {
        return;
    }
    let e = comm.rings;
    let bytes = (buf.len() * T::SIZE) as u64;
    comm.ensure_scratch(bytes as usize);
    let t0 = comm.trace_now();
    let ring = Ring::new(comm.rank, comm.size());
    let at = comm.sl_ring((e % 2) as usize);
    // A ring of two has no forwarder to overlap with, and through a NIC
    // shared with node-mates the pieces would only queue: one piece.
    let len = buf.len();
    let chunk = if comm.size() > 2 && !comm.shares_a_nic() {
        comm.chunk_elems(T::SIZE)
    } else {
        len.max(1)
    };
    let forwards = ring.succ != root;
    for c in 0..len.div_ceil(chunk).max(1) {
        let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(len));
        let off = at + lo * T::SIZE;
        if comm.rank != root {
            comm.arrivals(flag::RING_ARRIVE, 1);
            comm.load_values(Scratch, off, &mut buf[lo..hi]);
        }
        if forwards {
            if c == 0 {
                comm.arrivals_until(flag::RING_CREDIT, e.saturating_sub(2));
            }
            comm.send_flagged(Scratch, ring.succ, off, &buf[lo..hi], flag::RING_ARRIVE);
        }
    }
    comm.add_flag(ring.pred, flag::RING_CREDIT, 1);
    comm.trace_span(EventKind::Bcast, t0, Level::Whole, RING_CODE, e, bytes);
}

/// Wave 1 over `tree`, the payload cut into `chunk`-element pieces; `nb`
/// streams the pieces with nonblocking puts. An effective leader of a
/// two-level tree also records its stages: store-and-forward has an
/// inter-node stage (receive, forward to other leaders) and then an
/// intranode one; a stream overlaps the two, so it records one span.
fn data_wave<T: CoValue>(
    comm: &mut TeamComm,
    buf: &mut [T],
    tree: &Tree,
    chunk: usize,
    nb: bool,
    par: usize,
) {
    let len = buf.len();
    let chunks = len.div_ceil(chunk).max(1);
    let off = comm.sl_bcast(par);
    let (far, near) = tree.children.split_at(tree.far.unwrap_or(0));
    let staged = tree.far.is_some();
    let send = |comm: &mut TeamComm, to: &[usize], at: usize, piece: &[T]| {
        for &child in to {
            if nb {
                comm.send_values_nb(child, at, piece);
                comm.add_flag(child, flag::B_ARRIVE[par], 1);
            } else {
                comm.send_flagged(Scratch, child, at, piece, flag::B_ARRIVE[par]);
            }
        }
    };
    let e = comm.bcasts;
    let t0 = comm.trace_now();
    let mut t1 = t0;

    // Inter-node children first — a nonblocking put frees this CPU to
    // serve the node while the NIC streams the chunk.
    for c in 0..chunks {
        let (lo, hi) = (c * chunk, ((c + 1) * chunk).min(len));
        let at = off + lo * T::SIZE;
        if tree.parent.is_some() {
            comm.arrivals(flag::B_ARRIVE[par], 1);
            comm.load_values(Scratch, at, &mut buf[lo..hi]);
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
}
