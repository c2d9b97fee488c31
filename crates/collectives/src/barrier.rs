//! Barriers: **one gather/release walk over per-rank levels**
//! ([`crate::shape::barrier_shape`]) with a PGAS dissemination among the
//! levels' roots. A centralized linear counter is one level with a star at
//! rank 0, the binomial-tree barrier one level with a binomial tree, pure
//! dissemination no level at all, the paper's TDLB (Algorithm 1) one level
//! with a star per node and the dissemination among node leaders, and the
//! §VII multi-level extension a socket level under TDLB's node level.
//!
//! Every wait is the team's counted wait for the arrivals one episode
//! brings: a level's children, one release, one notification per
//! dissemination round. The algorithm, and the levels it walks, are
//! resolved once, at formation.

use crate::comm::TeamComm;
use crate::config::BarrierAlgo;
use crate::shape::{Among, BarrierLevel};
use caf_topology::tree::ceil_log2;
use caf_trace::{Event, EventKind, Level};

/// Run one barrier episode on `comm` with its resolved algorithm.
pub(crate) fn barrier(comm: &mut TeamComm) {
    comm.barriers += 1;
    let e = comm.barriers;
    if comm.size() == 1 {
        return;
    }
    let t0 = comm.trace_now();
    let staged = comm.barrier_algo == BarrierAlgo::Tdlb;
    // The walk counts arrivals on `comm` while it reads the levels.
    let levels = std::mem::take(&mut comm.barrier_levels);
    walk(comm, &levels, comm.barrier_roots, e, staged);
    comm.barrier_levels = levels;
    let code = comm.barrier_algo as u64;
    comm.trace_span(EventKind::Barrier, t0, Level::Whole, code, e, 0);
}

/// One episode `e` of the gather/release barrier over `levels` (bottom
/// first). The paper's Algorithm 1 is the one-level case:
///
/// ```text
/// procedure TDLB(team)
///   me       = this_image(team)
///   leader   = get_leader(team, me)
///   linear_counter_1(team, me, leader)      // slaves sync with the leader
///   if leader == me then
///       pgased_dissemination(team, leader)  // leaders sync across nodes
///       linear_counter_2(team, me, leader)  // leaders release their slaves
/// ```
///
/// **Gather**: at each level wait for my children on the level's counter;
/// where I have a parent, notify it, wait for its release, and climb no
/// further. **Top**: a rank with no parent anywhere is a root; the roots
/// — `roots`, when there is more than one — disseminate. **Release**: back
/// down the levels I gathered at, top level first. `staged` records
/// TDLB's three phase spans on the roots.
pub(crate) fn walk(
    comm: &mut TeamComm,
    levels: &[BarrierLevel],
    roots: Option<Among>,
    e: u64,
    staged: bool,
) {
    let t0 = comm.trace_now();
    let mut held = 0;
    let mut root = true;
    for lv in levels {
        held += 1;
        comm.arrivals(lv.counter, lv.tree.children.len() as u64);
        if let Some(parent) = lv.tree.parent {
            comm.add_flag(parent, lv.counter, 1);
            comm.arrivals(lv.release, 1);
            root = false;
            break;
        }
    }
    let staged = staged && root;
    let slaves = levels.first().map_or(0, |lv| lv.tree.children.len() as u64);
    if staged {
        comm.trace_span(EventKind::TdlbGather, t0, Level::Intra, slaves, e, 0);
    }
    if let (true, Some(among)) = (root, roots) {
        let t1 = comm.trace_now();
        dissemination_over(comm, among, e);
        if staged {
            let l = comm.hier.n_nodes() as u64;
            comm.trace_span(EventKind::TdlbDissem, t1, Level::Inter, l, e, 0);
        }
    }
    let t2 = comm.trace_now();
    for lv in levels[..held].iter().rev() {
        for &child in &lv.tree.children {
            comm.add_flag(child, lv.release, 1);
        }
    }
    if staged {
        comm.trace_span(EventKind::TdlbRelease, t2, Level::Intra, slaves, e, 0);
    }
}

/// PGAS dissemination barrier among `among`, which the caller must be one
/// of. Used both flat (over all ranks) and by TDLB's leader stage.
///
/// Round `k`: notify participant `(me + 2^k) mod L`, then perform the
/// paper's **single wait**: my round-`k` flag is an accumulating counter,
/// so waiting for its one arrival of the episode needs no flag reset and
/// no second array (contrast Mellor-Crummey & Scott's two-array
/// formulation and Hensgen et al.'s two waits).
pub(crate) fn dissemination_over(comm: &mut TeamComm, among: Among, e: u64) {
    let (l, my_pos) = among.place(&comm.hier, comm.rank);
    let lvl = match among {
        Among::All => Level::Whole,
        Among::Leaders => Level::Inter,
    };
    for k in 0..ceil_log2(l) {
        let partner = among.rank_at(&comm.hier, (my_pos + (1 << k)) % l);
        let t0 = comm.trace_now();
        comm.add_flag(partner, comm.layout.dissem(k), 1);
        comm.arrivals(comm.layout.dissem(k), 1);
        comm.trace(
            Event::span(
                EventKind::BarrierRound,
                t0,
                comm.trace_now().saturating_sub(t0),
            )
            .a(k as u64)
            .b(comm.members[partner].index() as u64)
            .c(e)
            .level(lvl),
        );
    }
}
