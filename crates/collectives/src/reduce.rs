//! All-to-all reduction (allreduce) algorithms: flat recursive doubling,
//! flat binomial reduce-then-broadcast, the paper's two-level scheme
//! (intra-node linear combine at each leader → recursive doubling among
//! leaders → intra-node release), flat Rabenseifner (recursive-halving
//! reduce-scatter + recursive-doubling allgather, bandwidth-optimal for
//! large payloads), and a chunked pipelined two-level scheme where slaves
//! stream K-byte chunks to their leader with nonblocking puts, the leader
//! folds chunk-by-chunk as they arrive, leaders run Rabenseifner on the
//! folded buffer, and the release streams back in chunks.
//!
//! # Flow control
//!
//! Data travels through per-round scratch slots, double-buffered by the
//! epoch's parity. An image can be at most one episode ahead of any image
//! it communicates with (allreduce is globally synchronizing), so parity
//! double-buffering suffices to prevent a sender's episode-`e+2` payload
//! from landing before the receiver consumed episode `e`: starting episode
//! `e+2` requires finishing `e+1`, which requires the receiver to have
//! *started* `e+1` and hence consumed all of `e`.

use crate::comm::{flag, Region::Scratch, TeamComm};
use crate::config::ReduceAlgo;
use crate::shape::Among;
use crate::value::CoValue;
use caf_topology::tree::{ceil_log2, floor_pow2, lowbit_children, lowbit_parent};
use caf_trace::{EventKind, Level};

/// Element-wise allreduce of `buf` across the team, picking the algorithm
/// by (hierarchy × payload size) — every member must call with the same
/// `buf.len()` and an equivalent operation, so all agree on the choice.
pub(crate) fn allreduce<T: CoValue>(comm: &mut TeamComm, buf: &mut [T], f: &impl Fn(T, T) -> T) {
    comm.reductions += 1;
    let e = comm.reductions;
    if comm.size() == 1 || buf.is_empty() {
        return;
    }
    let algo = comm.reduce_algo_for(buf.len() * T::SIZE);
    comm.ensure_scratch(buf.len() * T::SIZE);
    let t0 = comm.trace_now();
    match algo {
        ReduceAlgo::FlatRecursiveDoubling => rd_over(comm, Among::All, buf, f, e),
        ReduceAlgo::FlatBinomial => flat_binomial(comm, buf, f, e),
        ReduceAlgo::TwoLevel => two_level(comm, buf, f, e),
        ReduceAlgo::TwoLevelPipelined => two_level_pipelined(comm, buf, f, e),
        ReduceAlgo::Rabenseifner => rabenseifner_over(comm, Among::All, buf, f, e),
        ReduceAlgo::Auto => unreachable!("Auto resolved per call"),
    }
    let bytes = (buf.len() * T::SIZE) as u64;
    comm.trace_span(EventKind::Reduce, t0, Level::Whole, algo as u64, e, bytes);
}

/// The power-of-two core of an exchange among `among`, which the caller
/// must be one of: the standard fold-in/fold-out handling of other sizes.
/// The `extras` (positions ≥ p2 = 2^⌊log₂L⌋) contribute to a partner up
/// front and receive the final result afterwards — for them this is the
/// whole reduction and `None` comes back; the first p2 participants get
/// `(my position, p2, my extra if I folded one in)`, run their exchange,
/// and finish with [`fold_out`].
fn fold_in<T: CoValue>(
    comm: &mut TeamComm,
    among: Among,
    buf: &mut [T],
    f: &impl Fn(T, T) -> T,
    par: usize,
) -> Option<(usize, usize, Option<usize>)> {
    let (l, pos) = among.place(&comm.hier, comm.rank);
    let p2 = floor_pow2(l);
    if pos >= p2 {
        // Fold in: hand my contribution to my partner, collect the result.
        let partner = among.rank_at(&comm.hier, pos - p2);
        let off = comm.sl_pre(par);
        comm.send_flagged(Scratch, partner, off, buf, flag::R_PRE);
        comm.arrivals(flag::R_POST, 1);
        let off = comm.sl_post(par);
        comm.load_values(Scratch, off, buf);
        return None;
    }
    let extra = (pos + p2 < l).then(|| among.rank_at(&comm.hier, pos + p2));
    if extra.is_some() {
        comm.arrivals(flag::R_PRE, 1);
        let off = comm.sl_pre(par);
        comm.combine_from_scratch(off, buf, f);
    }
    Some((pos, p2, extra))
}

/// Return the finished result to the extra I folded in, if any.
fn fold_out<T: CoValue>(comm: &mut TeamComm, extra: Option<usize>, buf: &[T], par: usize) {
    if let Some(extra) = extra {
        let off = comm.sl_post(par);
        comm.send_flagged(Scratch, extra, off, buf, flag::R_POST);
    }
}

/// Recursive-doubling allreduce among `among` (see [`fold_in`] for sizes
/// that are not a power of two).
pub(crate) fn rd_over<T: CoValue>(
    comm: &mut TeamComm,
    among: Among,
    buf: &mut [T],
    f: &impl Fn(T, T) -> T,
    e: u64,
) {
    let par = (e % 2) as usize;
    let Some((pos, p2, extra)) = fold_in(comm, among, buf, f, par) else {
        return;
    };
    // Main phase: hypercube exchange among the first p2 participants.
    for k in 0..ceil_log2(p2) {
        let partner = among.rank_at(&comm.hier, pos ^ (1 << k));
        let off = comm.sl_rd(k, par);
        comm.send_flagged(Scratch, partner, off, buf, comm.layout.r_arrive(k));
        comm.arrivals(comm.layout.r_arrive(k), 1);
        comm.combine_from_scratch(off, buf, f);
    }
    fold_out(comm, extra, buf, par);
}

/// Binomial-tree reduce to team rank 0, then a flat binomial broadcast of
/// the result. A classic 1-level baseline with lower bandwidth than
/// recursive doubling but a root hot-spot.
fn flat_binomial<T: CoValue>(comm: &mut TeamComm, buf: &mut [T], f: &impl Fn(T, T) -> T, e: u64) {
    let v = comm.rank;
    let par = (e % 2) as usize;
    // Round k of the clear-lowest-bit tree joins the subtrees 2^k apart:
    // combine my children nearest first, then send to my parent.
    let round = |d: usize| d.trailing_zeros() as usize;
    for child in lowbit_children(v, comm.size()) {
        let k = round(child - v);
        comm.arrivals(comm.layout.r_arrive(k), 1);
        let off = comm.sl_rd(k, par);
        comm.combine_from_scratch(off, buf, f);
    }
    if v != 0 {
        let k = round(v);
        let off = comm.sl_rd(k, par);
        comm.send_flagged(Scratch, lowbit_parent(v), off, buf, comm.layout.r_arrive(k));
    }
    // Everyone (root included) picks up the result through the broadcast,
    // whose full-ack flow control also fences the rd slots for reuse.
    crate::bcast::begin_using(comm, buf, 0, crate::config::BcastAlgo::FlatBinomial);
    crate::bcast::finish(comm);
}

/// The paper's two-level reduction (§IV applied to all-to-all reduction):
/// slaves deposit contributions at their node leader (shared-memory
/// friendly linear gather), leaders run recursive doubling across nodes,
/// leaders release results to their intranode sets.
fn two_level<T: CoValue>(comm: &mut TeamComm, buf: &mut [T], f: &impl Fn(T, T) -> T, e: u64) {
    let hier = comm.hier.clone();
    let set = hier.set_for(comm.rank);
    let leader = set.leader;
    let par = (e % 2) as usize;

    if comm.rank != leader {
        let off = comm.sl_gather(hier.pos_in_set(comm.rank), par);
        comm.send_flagged(Scratch, leader, off, buf, flag::R_COUNTER);
        comm.arrivals(flag::R_RELEASE, 1);
        let off = comm.sl_release(par);
        comm.load_values(Scratch, off, buf);
        return;
    }

    // Leader: linear gather of the intranode set.
    let t0 = comm.trace_now();
    comm.arrivals(flag::R_COUNTER, set.len() as u64 - 1);
    for pos in 1..set.len() {
        let off = comm.sl_gather(pos, par);
        comm.combine_from_scratch(off, buf, f);
    }
    comm.trace_span(EventKind::ReduceStage, t0, Level::Intra, 1, e, 0);

    // Leaders: recursive doubling across nodes.
    let t1 = comm.trace_now();
    rd_over(comm, Among::Leaders, buf, f, e);
    comm.trace_span(EventKind::ReduceStage, t1, Level::Inter, 2, e, 0);

    // Release the intranode set.
    let t2 = comm.trace_now();
    for &s in set.slaves() {
        let off = comm.sl_release(par);
        comm.send_flagged(Scratch, s, off, buf, flag::R_RELEASE);
    }
    comm.trace_span(EventKind::ReduceStage, t2, Level::Intra, 3, e, 0);
}

/// Pipelined two-level reduction for large payloads: slaves *stream* their
/// contribution to the node leader in policy-sized chunks (the leader folds
/// chunk `c` while chunk `c+1` is still crossing the memory bus), leaders
/// run the bandwidth-optimal Rabenseifner exchange across nodes, and the
/// result streams back to the slaves with nonblocking puts.
///
/// Each slave's chunk stream is counted on its **own** per-set-position
/// flag (`layout.chunk(pos)`): with several slaves sending concurrently, a
/// shared counter could not tell "slave A sent two chunks" from "A and B
/// sent one each", and the leader must know *whose* chunk landed before
/// folding that position's slot range.
fn two_level_pipelined<T: CoValue>(
    comm: &mut TeamComm,
    buf: &mut [T],
    f: &impl Fn(T, T) -> T,
    e: u64,
) {
    let hier = comm.hier.clone();
    let set = hier.set_for(comm.rank);
    let leader = set.leader;
    let par = (e % 2) as usize;
    let len = buf.len();
    let ce = comm.chunk_elems(T::SIZE);
    let nchunks = len.div_ceil(ce).max(1);
    let chunk = |c: usize| (c * ce, ((c + 1) * ce).min(len));

    if comm.rank != leader {
        let pos = hier.pos_in_set(comm.rank);
        let g_off = comm.sl_gather(pos, par);
        for c in 0..nchunks {
            let (lo, hi) = chunk(c);
            comm.send_values_nb(leader, g_off + lo * T::SIZE, &buf[lo..hi]);
            comm.add_flag(leader, comm.layout.chunk(pos), 1);
        }
        let r_off = comm.sl_release(par);
        for c in 0..nchunks {
            let (lo, hi) = chunk(c);
            comm.arrivals(flag::R_RELEASE, 1);
            comm.load_values(Scratch, r_off + lo * T::SIZE, &mut buf[lo..hi]);
        }
        return;
    }

    // Leader: fold each slave's chunk as soon as it lands.
    let t0 = comm.trace_now();
    let npos = set.len();
    for c in 0..nchunks {
        let (lo, hi) = chunk(c);
        for pos in 1..npos {
            comm.arrivals(comm.layout.chunk(pos), 1);
            let g_off = comm.sl_gather(pos, par);
            comm.combine_from_scratch(g_off + lo * T::SIZE, &mut buf[lo..hi], f);
        }
    }
    comm.trace_span(
        EventKind::ReduceStage,
        t0,
        Level::Intra,
        1,
        e,
        nchunks as u64,
    );

    // Leaders: bandwidth-optimal exchange across nodes.
    let t1 = comm.trace_now();
    rabenseifner_over(comm, Among::Leaders, buf, f, e);
    comm.trace_span(EventKind::ReduceStage, t1, Level::Inter, 2, e, 0);

    // Stream the result back to the intranode set.
    let t2 = comm.trace_now();
    let r_off = comm.sl_release(par);
    for c in 0..nchunks {
        let (lo, hi) = chunk(c);
        for &s in set.slaves() {
            comm.send_values_nb(s, r_off + lo * T::SIZE, &buf[lo..hi]);
            comm.add_flag(s, flag::R_RELEASE, 1);
        }
    }
    comm.trace_span(
        EventKind::ReduceStage,
        t2,
        Level::Intra,
        3,
        e,
        nchunks as u64,
    );
}

/// Rabenseifner's allreduce over an arbitrary participant list: a
/// recursive-halving reduce-scatter followed by a recursive-doubling
/// allgather. Each participant moves ~`2·(L−1)/L` payloads instead of the
/// `log L` payloads of plain recursive doubling, which is what makes this
/// the large-message algorithm of choice; the elementwise operation is
/// applied to ever-shrinking ranges, so compute is also ~halved.
///
/// Other sizes than a power of two go through [`fold_in`]. Scratch reuse is safe within an episode because the
/// halving round `k` deposit (my kept half) and the allgather round `k`
/// deposit (the complementary half) land at disjoint absolute element
/// offsets of the same `sl_rd(k)` slot; across episodes parity
/// double-buffering applies as usual.
pub(crate) fn rabenseifner_over<T: CoValue>(
    comm: &mut TeamComm,
    among: Among,
    buf: &mut [T],
    f: &impl Fn(T, T) -> T,
    e: u64,
) {
    let par = (e % 2) as usize;
    let Some((pos, p2, extra)) = fold_in(comm, among, buf, f, par) else {
        return;
    };
    // Reduce-scatter by recursive halving: at round k my partner is
    // `pos ^ (p2 >> (k+1))`; we split my current range, each side sends
    // the half the *other* keeps, and I fold the received half into mine.
    let rounds = ceil_log2(p2);
    let (mut lo, mut hi) = (0usize, buf.len());
    let mut parents: Vec<(usize, usize)> = Vec::with_capacity(rounds);
    for k in 0..rounds {
        let d = p2 >> (k + 1);
        let partner = among.rank_at(&comm.hier, pos ^ d);
        parents.push((lo, hi));
        let mid = lo + (hi - lo) / 2;
        let (keep, send) = if pos & d == 0 {
            ((lo, mid), (mid, hi))
        } else {
            ((mid, hi), (lo, mid))
        };
        let off = comm.sl_rd(k, par);
        let (at, piece) = (off + send.0 * T::SIZE, &buf[send.0..send.1]);
        comm.send_flagged(Scratch, partner, at, piece, comm.layout.r_arrive(k));
        comm.arrivals(comm.layout.r_arrive(k), 1);
        comm.combine_from_scratch(off + keep.0 * T::SIZE, &mut buf[keep.0..keep.1], f);
        (lo, hi) = keep;
    }

    // Allgather by recursive doubling, unwinding the same pairings: I own
    // the reduced [lo, hi); my round-k partner owns the complement of my
    // round-k parent range, and we swap.
    for k in (0..rounds).rev() {
        let d = p2 >> (k + 1);
        let partner = among.rank_at(&comm.hier, pos ^ d);
        let (plo, phi) = parents[k];
        let off = comm.sl_rd(k, par);
        let (at, piece) = (off + lo * T::SIZE, &buf[lo..hi]);
        comm.send_flagged(Scratch, partner, at, piece, comm.layout.r_arrive(k));
        comm.arrivals(comm.layout.r_arrive(k), 1);
        let (olo, ohi) = if lo == plo { (hi, phi) } else { (plo, lo) };
        comm.load_values(Scratch, off + olo * T::SIZE, &mut buf[olo..ohi]);
        (lo, hi) = (plo, phi);
    }
    fold_out(comm, extra, buf, par);
}
