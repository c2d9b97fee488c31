//! Per-destination aggregation for the active-message tier.
//!
//! [`Batcher`] is deliberately fabric-free: it owns nothing but op
//! buffers and a [`AmPolicy`], so its ordering contract — per-destination
//! program order, fences drain everything — can be property-tested
//! against a naive unbatched replay without spinning up a fabric (see the
//! proptest module at the bottom). The fabric-facing sender that feeds it
//! lives in [`crate::am`].

use crate::am::AmOp;
use caf_topology::CostParams;
use std::collections::BTreeMap;

/// Flush thresholds of the active-message batcher.
///
/// A destination buffer is flushed when it holds [`AmPolicy::batch_ops`]
/// ops or [`AmPolicy::batch_bytes`] encoded bytes, when it has aged past
/// [`AmPolicy::flush_age_ns`] at the next inject, or explicitly
/// ([`crate::am::Am::flush`] / [`crate::am::Am::quiet`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AmPolicy {
    /// Byte budget per destination buffer (encoded op bytes).
    pub batch_bytes: usize,
    /// Op-count budget per destination buffer. `1` disables aggregation —
    /// every op ships alone, the unbatched reference behavior.
    pub batch_ops: usize,
    /// Age bound: at inject time, any *other* destination whose oldest
    /// buffered op is more than this many ns old is drained too, bounding
    /// the latency a buffered op can suffer from an idle destination.
    pub flush_age_ns: u64,
}

impl AmPolicy {
    /// Derive thresholds from the communication cost model.
    ///
    /// The defaults follow the same logic as the LogGP crossovers: keep
    /// aggregating while the per-op injection overhead (`o_inter + gap_nic`)
    /// dominates the marginal payload cost, and never delay a buffered op
    /// by more than a couple of wire latencies.
    pub fn from_cost(cost: &CostParams) -> Self {
        let per_op = (cost.o_inter_ns + cost.gap_nic_ns).max(1);
        Self {
            batch_bytes: 4096,
            // Ops worth coalescing: one wire latency's worth of injection
            // overheads, clamped to a sane window.
            batch_ops: ((cost.l_inter_ns / per_op) as usize).clamp(8, 64),
            flush_age_ns: 2 * cost.l_inter_ns.max(1_000),
        }
    }

    /// The unbatched reference policy: every op flushes immediately. The
    /// differential oracle and the bench's unbatched rows use this.
    pub fn unbatched() -> Self {
        Self {
            batch_bytes: 0,
            batch_ops: 1,
            flush_age_ns: 0,
        }
    }
}

impl Default for AmPolicy {
    fn default() -> Self {
        Self::from_cost(&CostParams::default())
    }
}

/// One destination's pending ops.
#[derive(Debug, Default)]
struct DestBuf {
    ops: Vec<AmOp>,
    /// Encoded bytes of `ops` (tracked incrementally).
    bytes: usize,
    /// Inject time of the oldest buffered op (age-based drain key).
    first_ns: u64,
}

/// Per-destination aggregation buffers. Pure data structure — see the
/// module docs. Destinations are plain `usize` image ranks so the batcher
/// never needs a fabric or an image map.
#[derive(Debug, Default)]
pub struct Batcher {
    policy: AmPolicy,
    /// `BTreeMap` (not hash) so drain order over destinations is
    /// deterministic — a flush-all must replay identically run-to-run for
    /// the simulator's oracle guarantee.
    dests: BTreeMap<usize, DestBuf>,
    fused: u64,
}

impl Batcher {
    /// A batcher with the given flush policy.
    pub fn new(policy: AmPolicy) -> Self {
        Self {
            policy,
            dests: BTreeMap::new(),
            fused: 0,
        }
    }

    /// The policy in effect.
    pub fn policy(&self) -> &AmPolicy {
        &self.policy
    }

    /// Cumulative put+flag pairs fused into a single [`AmOp::PutFlag`].
    pub fn fused(&self) -> u64 {
        self.fused
    }

    /// Total ops currently buffered across all destinations.
    pub fn pending_ops(&self) -> usize {
        self.dests.values().map(|d| d.ops.len()).sum()
    }

    /// True when nothing is buffered anywhere.
    pub fn is_empty(&self) -> bool {
        self.dests.values().all(|d| d.ops.is_empty())
    }

    /// Buffer `op` for `dst` (injected at `now_ns`). Returns the
    /// destination's whole batch when this push tripped a threshold; the
    /// caller must deliver it immediately to preserve program order.
    ///
    /// A `FlagAdd` that directly follows a `Put` in the same buffer is
    /// fused into one [`AmOp::PutFlag`] — the "payload plus doorbell"
    /// idiom of every collective, collapsed to a single wire op.
    pub fn push(&mut self, dst: usize, op: AmOp, now_ns: u64) -> Option<Vec<AmOp>> {
        let buf = self.dests.entry(dst).or_default();
        if buf.ops.is_empty() {
            buf.first_ns = now_ns;
        }
        let fused = match (&op, buf.ops.last()) {
            (AmOp::FlagAdd { flag, delta }, Some(AmOp::Put { .. })) => {
                let (flag, delta) = (*flag, *delta);
                let Some(AmOp::Put { seg, off, data }) = buf.ops.pop() else {
                    unreachable!("matched Put above");
                };
                buf.bytes -= AmOp::Put {
                    seg,
                    off,
                    data: Vec::new(),
                }
                .wire_len();
                // The placeholder above under-counts by the data length;
                // recompute from the fused op below instead.
                buf.bytes -= data.len();
                let fused_op = AmOp::PutFlag {
                    seg,
                    off,
                    data,
                    flag,
                    delta,
                };
                buf.bytes += fused_op.wire_len();
                buf.ops.push(fused_op);
                self.fused += 1;
                true
            }
            _ => false,
        };
        if !fused {
            buf.bytes += op.wire_len();
            buf.ops.push(op);
        }
        if buf.ops.len() >= self.policy.batch_ops || buf.bytes >= self.policy.batch_bytes.max(1) {
            return self.take(dst);
        }
        None
    }

    /// Remove and return `dst`'s pending batch, if any.
    pub fn take(&mut self, dst: usize) -> Option<Vec<AmOp>> {
        let buf = self.dests.get_mut(&dst)?;
        if buf.ops.is_empty() {
            return None;
        }
        buf.bytes = 0;
        Some(std::mem::take(&mut buf.ops))
    }

    /// Destinations (ascending) whose oldest buffered op was injected more
    /// than `policy.flush_age_ns` before `now_ns`.
    pub fn stale(&self, now_ns: u64) -> Vec<usize> {
        self.dests
            .iter()
            .filter(|(_, b)| {
                !b.ops.is_empty() && now_ns.saturating_sub(b.first_ns) > self.policy.flush_age_ns
            })
            .map(|(&d, _)| d)
            .collect()
    }

    /// Drain every destination, in ascending destination order — the
    /// explicit fence ([`crate::am::Am::flush`]).
    pub fn drain_all(&mut self) -> Vec<(usize, Vec<AmOp>)> {
        let mut out = Vec::new();
        for (&dst, buf) in self.dests.iter_mut() {
            if !buf.ops.is_empty() {
                buf.bytes = 0;
                out.push((dst, std::mem::take(&mut buf.ops)));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seg::{FlagId, SegmentId};

    fn put(v: u8) -> AmOp {
        AmOp::Put {
            seg: SegmentId(0),
            off: v as usize,
            data: vec![v; 8],
        }
    }

    fn flag(delta: u64) -> AmOp {
        AmOp::FlagAdd {
            flag: FlagId(2),
            delta,
        }
    }

    fn batching() -> AmPolicy {
        AmPolicy {
            batch_bytes: 1 << 20,
            batch_ops: 64,
            flush_age_ns: u64::MAX / 2,
        }
    }

    #[test]
    fn op_threshold_flushes_exactly_at_the_budget() {
        let mut b = Batcher::new(AmPolicy {
            batch_ops: 3,
            ..batching()
        });
        assert!(b.push(1, put(1), 0).is_none());
        assert!(b.push(1, put(2), 0).is_none());
        let batch = b.push(1, put(3), 0).expect("third op trips the budget");
        assert_eq!(batch.len(), 3);
        assert!(b.is_empty());
    }

    #[test]
    fn byte_threshold_flushes() {
        let small = AmOp::Put {
            seg: SegmentId(0),
            off: 0,
            data: vec![0; 8],
        }
        .wire_len();
        let mut b = Batcher::new(AmPolicy {
            batch_bytes: 2 * small,
            ..batching()
        });
        assert!(b.push(0, put(1), 0).is_none());
        assert!(b.push(0, put(2), 0).is_some(), "two ops reach the budget");
    }

    #[test]
    fn unbatched_policy_ships_every_op_alone() {
        let mut b = Batcher::new(AmPolicy::unbatched());
        for k in 0..4 {
            let batch = b.push(2, put(k), 0).expect("every push flushes");
            assert_eq!(batch.len(), 1);
        }
    }

    #[test]
    fn destinations_do_not_share_buffers() {
        let mut b = Batcher::new(batching());
        b.push(1, put(1), 0);
        b.push(2, put(2), 0);
        assert_eq!(b.take(1).unwrap().len(), 1);
        assert_eq!(b.take(2).unwrap().len(), 1);
        assert!(b.take(3).is_none());
    }

    #[test]
    fn put_then_flag_fuses() {
        let mut b = Batcher::new(batching());
        b.push(1, put(7), 0);
        b.push(1, flag(1), 0);
        assert_eq!(b.fused(), 1);
        let batch = b.take(1).unwrap();
        assert_eq!(batch.len(), 1);
        assert!(matches!(&batch[0], AmOp::PutFlag { delta: 1, .. }));
    }

    #[test]
    fn flag_without_preceding_put_does_not_fuse() {
        let mut b = Batcher::new(batching());
        b.push(1, flag(1), 0);
        b.push(1, flag(1), 0);
        assert_eq!(b.fused(), 0);
        assert_eq!(b.take(1).unwrap().len(), 2);
    }

    #[test]
    fn fused_bytes_stay_consistent() {
        // After a fuse, the tracked byte count must equal the encoded size
        // of the fused buffer (the byte budget reads it).
        let mut b = Batcher::new(batching());
        b.push(1, put(7), 0);
        b.push(1, flag(1), 0);
        let expect: usize = b.dests[&1].ops.iter().map(|o| o.wire_len()).sum();
        assert_eq!(b.dests[&1].bytes, expect);
    }

    #[test]
    fn stale_reports_aged_destinations_only() {
        let mut b = Batcher::new(AmPolicy {
            flush_age_ns: 100,
            ..batching()
        });
        b.push(1, put(1), 0);
        b.push(2, put(2), 90);
        assert_eq!(b.stale(150), vec![1]);
        assert_eq!(b.stale(50), Vec::<usize>::new());
    }

    #[test]
    fn drain_all_is_ordered_and_empties() {
        let mut b = Batcher::new(batching());
        for d in [5usize, 1, 3] {
            b.push(d, put(d as u8), 0);
        }
        let drained = b.drain_all();
        let dests: Vec<usize> = drained.iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![1, 3, 5], "deterministic ascending order");
        assert!(b.is_empty());
        assert!(b.drain_all().is_empty());
    }
}

/// The batcher's ordering contract, property-tested: arbitrary
/// interleavings of injects, per-destination flushes, and full fences must
/// deliver — once flattened per destination and with fusions split back
/// apart — exactly the sequence a naive unbatched sender would have
/// shipped, and every fence must leave nothing buffered.
#[cfg(test)]
mod proptests {
    use super::*;
    use crate::seg::{FlagId, SegmentId};
    use proptest::prelude::*;

    /// One step of an arbitrary sender schedule over a handful of
    /// destinations.
    #[derive(Clone, Debug)]
    enum Step {
        /// Buffer a small put for `dst` carrying `val`.
        Put { dst: usize, val: u8 },
        /// Buffer a flag bump for `dst`.
        Flag { dst: usize, delta: u64 },
        /// Explicitly flush one destination (the `Am::put_nb` ordering
        /// path flushes like this before a direct op).
        FlushDst(usize),
        /// Fence: drain every destination — `flush`/`quiet`, and what
        /// every blocking wait in the collectives does first.
        Fence,
    }

    fn step() -> impl Strategy<Value = Step> {
        // The vendored proptest shim has no `prop_oneof`; weight the
        // variants by hand through a selector range (4:4:1:1).
        (0u8..10, 0usize..4, any::<u8>()).prop_map(|(sel, dst, val)| match sel {
            0..=3 => Step::Put { dst, val },
            4..=7 => Step::Flag {
                dst,
                delta: 1 + val as u64 % 4,
            },
            8 => Step::FlushDst(dst),
            _ => Step::Fence,
        })
    }

    fn mk_op(step: &Step) -> Option<AmOp> {
        match step {
            Step::Put { val, .. } => Some(AmOp::Put {
                seg: SegmentId(0),
                off: *val as usize,
                data: vec![*val; 8],
            }),
            Step::Flag { delta, .. } => Some(AmOp::FlagAdd {
                flag: FlagId(2),
                delta: *delta,
            }),
            _ => None,
        }
    }

    /// Split fused `PutFlag` ops back into the `Put` + `FlagAdd` pair they
    /// were built from, so delivered sequences compare against the
    /// unbatched oracle op-for-op.
    fn normalize(ops: &[AmOp]) -> Vec<AmOp> {
        let mut out = Vec::with_capacity(ops.len() + 4);
        for op in ops {
            match op {
                AmOp::PutFlag {
                    seg,
                    off,
                    data,
                    flag,
                    delta,
                } => {
                    out.push(AmOp::Put {
                        seg: *seg,
                        off: *off,
                        data: data.clone(),
                    });
                    out.push(AmOp::FlagAdd {
                        flag: *flag,
                        delta: *delta,
                    });
                }
                other => out.push(other.clone()),
            }
        }
        out
    }

    /// Run `steps` through a batcher (mimicking the `Am` sender's drive
    /// loop: threshold flush on push, stale drain after, explicit flushes
    /// and fences), recording every delivered batch in order.
    fn run_model(policy: AmPolicy, steps: &[Step]) -> (Vec<(usize, Vec<AmOp>)>, Vec<AmOp>) {
        let mut b = Batcher::new(policy);
        let mut delivered: Vec<(usize, Vec<AmOp>)> = Vec::new();
        let mut injected: Vec<AmOp> = Vec::new();
        for (now, s) in steps.iter().enumerate() {
            match s {
                Step::Put { dst, .. } | Step::Flag { dst, .. } => {
                    let op = mk_op(s).unwrap();
                    injected.push(op.clone());
                    if let Some(batch) = b.push(*dst, op, now as u64) {
                        delivered.push((*dst, batch));
                    }
                    for d in b.stale(now as u64) {
                        if let Some(batch) = b.take(d) {
                            delivered.push((d, batch));
                        }
                    }
                }
                Step::FlushDst(dst) => {
                    if let Some(batch) = b.take(*dst) {
                        delivered.push((*dst, batch));
                    }
                }
                Step::Fence => {
                    delivered.extend(b.drain_all());
                    assert!(b.is_empty(), "a fence must leave nothing buffered");
                    let shipped: usize =
                        delivered.iter().map(|(_, ops)| normalize(ops).len()).sum();
                    assert_eq!(
                        shipped,
                        injected.len(),
                        "every op injected before a fence must have been delivered"
                    );
                }
            }
        }
        delivered.extend(b.drain_all());
        (delivered, injected)
    }

    /// What a naive unbatched sender ships to `dst`: the injected ops for
    /// that destination, in program order, unfused.
    fn oracle_for(steps: &[Step], dst: usize) -> Vec<AmOp> {
        steps
            .iter()
            .filter(
                |s| matches!(s, Step::Put { dst: d, .. } | Step::Flag { dst: d, .. } if *d == dst),
            )
            .filter_map(mk_op)
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn flattened_delivery_matches_the_unbatched_oracle(
            steps in proptest::collection::vec(step(), 1..80),
            batch_ops in 1usize..8,
            batch_bytes in 16usize..256,
            age_sel in 0u8..3,
        ) {
            // Age bound: always stale, stale after a few steps, never.
            let flush_age_ns = [0u64, 3, u64::MAX / 2][age_sel as usize];
            let policy = AmPolicy { batch_bytes, batch_ops, flush_age_ns };
            let (delivered, injected) = run_model(policy, &steps);
            // Nothing lost, nothing duplicated, overall.
            let shipped: usize = delivered.iter().map(|(_, ops)| normalize(ops).len()).sum();
            prop_assert_eq!(shipped, injected.len());
            // Per destination, the flattened normalized sequence is
            // exactly the program-order injection sequence.
            for dst in 0..4 {
                let got: Vec<AmOp> = delivered
                    .iter()
                    .filter(|(d, _)| *d == dst)
                    .flat_map(|(_, ops)| normalize(ops))
                    .collect();
                prop_assert_eq!(
                    got,
                    oracle_for(&steps, dst),
                    "per-destination program order broken for dst {}",
                    dst
                );
            }
        }

        #[test]
        fn unbatched_policy_is_the_identity_schedule(
            steps in proptest::collection::vec(step(), 1..40),
        ) {
            // batch_ops = 1: every delivered batch holds exactly the one
            // op just injected — the reference schedule the differential
            // oracle runs with.
            let (delivered, injected) = run_model(AmPolicy::unbatched(), &steps);
            let flat: Vec<AmOp> = delivered.into_iter().flat_map(|(_, ops)| ops).collect();
            prop_assert_eq!(flat, injected);
        }
    }
}
