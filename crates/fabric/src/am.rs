//! Active messages: small one-sided ops executed at the target image,
//! aggregated per destination before they touch the fabric.
//!
//! A storm of tiny puts and flag bumps issued one at a time is a full
//! fabric call each (and, on [`SocketFabric`](crate::SocketFabric), its
//! own length-prefixed frame). This tier buffers them as [`AmOp`] values in
//! a per-destination [`Batcher`] and hands whole batches to
//! [`Fabric::am_deliver`](crate::Fabric::am_deliver): one wire frame, or
//! one pass over the target's memory where the socket fabric reaches it,
//! and one scheduled delivery event on the simulator. (The collectives
//! send one signalled put per hop and do not route through it.)
//!
//! Ordering contract: ops to the *same* destination are delivered in
//! program order (batches never reorder internally, and a destination's
//! buffer is flushed before any direct nonblocking put to it issued through
//! [`Am::put_nb`]). [`Am::quiet`] flushes every buffer and then runs the
//! fabric-level quiet, so it means remote completion of every batched AM.
//! Callers that block on a fabric-level wait must flush first —
//! [`Am::flush`] is the fence.

use crate::batch::{AmPolicy, Batcher};
use crate::seg::{Amo, FlagId, Local, SegmentId, Window};
use crate::socket::wire::{Cursor, Field};
use crate::{ArcFabric, ProcId, PutToken};
use std::io;

const OP_PUT: u8 = 1;
const OP_FLAG_ADD: u8 = 2;
const OP_AMO_ADD: u8 = 3;
const OP_PUT_FLAG: u8 = 4;

/// Guard against absurd payload lengths in a decoded op (a corrupted
/// header must fail before it drives a huge allocation).
const MAX_OP_DATA: usize = 16 << 20;

/// One active-message operation: a small one-sided effect applied at the
/// target image. The enum is closed — every variant is serializable and
/// idempotence-free, so a batch replays exactly once, in order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AmOp {
    /// Write `data` into the target's segment at `off`.
    Put {
        /// Target segment.
        seg: SegmentId,
        /// Byte offset within the segment.
        off: usize,
        /// Payload.
        data: Vec<u8>,
    },
    /// Accumulate `delta` into the target's sync flag.
    FlagAdd {
        /// Target flag.
        flag: FlagId,
        /// Increment.
        delta: u64,
    },
    /// Atomic wrapping add of `delta` to the `u64` cell at `off`.
    AmoAdd {
        /// Target segment.
        seg: SegmentId,
        /// Byte offset (8-byte aligned) of the cell.
        off: usize,
        /// Addend.
        delta: u64,
    },
    /// Fused payload + doorbell: write `data`, then bump `flag` — the
    /// batcher folds an adjacent put/flag_add pair into this.
    PutFlag {
        /// Target segment.
        seg: SegmentId,
        /// Byte offset within the segment.
        off: usize,
        /// Payload.
        data: Vec<u8>,
        /// Flag bumped after the write.
        flag: FlagId,
        /// Increment.
        delta: u64,
    },
}

impl AmOp {
    /// Encoded size in bytes (tag + fields) — the batcher's byte budget and
    /// the simulator's modeled transfer size both use this.
    pub fn wire_len(&self) -> usize {
        match self {
            AmOp::Put { data, .. } => 1 + 8 + 8 + 4 + data.len(),
            AmOp::FlagAdd { .. } => 1 + 8 + 8,
            AmOp::AmoAdd { .. } => 1 + 8 + 8 + 8,
            AmOp::PutFlag { data, .. } => 1 + 8 + 8 + 4 + data.len() + 8 + 8,
        }
    }

    /// User payload bytes carried (0 for pure flag/amo ops) — the
    /// bytes-per-op stats numerator.
    pub fn payload_len(&self) -> usize {
        match self {
            AmOp::Put { data, .. } | AmOp::PutFlag { data, .. } => data.len(),
            AmOp::FlagAdd { .. } | AmOp::AmoAdd { .. } => 0,
        }
    }

    /// Append the little-endian encoding to `buf`.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            AmOp::Put { seg, off, data } => {
                buf.push(OP_PUT);
                (seg.0 as u64).put(buf);
                (*off as u64).put(buf);
                (data.len() as u32).put(buf);
                buf.extend_from_slice(data);
            }
            AmOp::FlagAdd { flag, delta } => {
                buf.push(OP_FLAG_ADD);
                (flag.0 as u64).put(buf);
                delta.put(buf);
            }
            AmOp::AmoAdd { seg, off, delta } => {
                buf.push(OP_AMO_ADD);
                (seg.0 as u64).put(buf);
                (*off as u64).put(buf);
                delta.put(buf);
            }
            AmOp::PutFlag {
                seg,
                off,
                data,
                flag,
                delta,
            } => {
                buf.push(OP_PUT_FLAG);
                (seg.0 as u64).put(buf);
                (*off as u64).put(buf);
                (data.len() as u32).put(buf);
                buf.extend_from_slice(data);
                (flag.0 as u64).put(buf);
                delta.put(buf);
            }
        }
    }

    /// Decode one op at the cursor. Every length is validated before it is
    /// trusted — a corrupted batch body must surface as `InvalidData`, never
    /// a panic or an absurd allocation.
    pub(crate) fn decode(c: &mut Cursor<'_>) -> io::Result<AmOp> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let tag = c.take(1)?[0];
        Ok(match tag {
            OP_PUT | OP_PUT_FLAG => {
                let seg = SegmentId(c.get::<u64>()? as usize);
                let off = c.get::<u64>()? as usize;
                let n = c.get::<u32>()? as usize;
                if n > MAX_OP_DATA {
                    return Err(bad("absurd am payload length"));
                }
                let data = c.take(n)?.to_vec();
                if tag == OP_PUT {
                    AmOp::Put { seg, off, data }
                } else {
                    AmOp::PutFlag {
                        seg,
                        off,
                        data,
                        flag: FlagId(c.get::<u64>()? as usize),
                        delta: c.get::<u64>()?,
                    }
                }
            }
            OP_FLAG_ADD => AmOp::FlagAdd {
                flag: FlagId(c.get::<u64>()? as usize),
                delta: c.get::<u64>()?,
            },
            OP_AMO_ADD => AmOp::AmoAdd {
                seg: SegmentId(c.get::<u64>()? as usize),
                off: c.get::<u64>()? as usize,
                delta: c.get::<u64>()?,
            },
            _ => return Err(bad("unknown am op tag")),
        })
    }
}

/// Apply a batch in vector order to one image, reached however the
/// applying fabric reaches it (its own tables, a mapped peer's): `window`
/// yields the image's window for a segment id, `bump` release-adds to one
/// of its flags. Each op's effects are visible to every later op, and a
/// flag bump lands after the payloads before it — the fabric memory
/// model's put→flag ordering, kept inside a batch.
pub(crate) fn apply(
    ops: &[AmOp],
    window: impl Fn(SegmentId) -> Window<Local>,
    bump: impl Fn(FlagId, u64),
) {
    for op in ops {
        match op {
            AmOp::Put { seg, off, data } | AmOp::PutFlag { seg, off, data, .. } => {
                window(*seg).write(*off, data)
            }
            AmOp::AmoAdd { seg, off, delta } => {
                window(*seg).amo(*off, Amo::Add(*delta));
            }
            AmOp::FlagAdd { .. } => {}
        }
        if let AmOp::FlagAdd { flag, delta } | AmOp::PutFlag { flag, delta, .. } = op {
            bump(*flag, *delta);
        }
    }
}

/// An image's active-message sender: buffers [`AmOp`]s per destination and
/// delivers whole batches through the owning fabric.
///
/// One `Am` belongs to one image (`me`); it is not shared across images.
/// Construct with [`AmPolicy::from_cost`] for the fabric-derived flush
/// thresholds or [`AmPolicy::unbatched`] for the reference behavior.
pub struct Am {
    fabric: ArcFabric,
    me: ProcId,
    batcher: Batcher,
}

impl Am {
    /// A sender for image `me` on `fabric` with the given flush policy.
    pub fn new(fabric: ArcFabric, me: ProcId, policy: AmPolicy) -> Self {
        Self {
            fabric,
            me,
            batcher: Batcher::new(policy),
        }
    }

    /// The issuing image.
    pub fn me(&self) -> ProcId {
        self.me
    }

    /// Ops currently buffered (all destinations).
    pub fn pending_ops(&self) -> usize {
        self.batcher.pending_ops()
    }

    /// Buffer a put of `data` into `dst`'s segment.
    pub fn put(&mut self, dst: ProcId, seg: SegmentId, off: usize, data: &[u8]) {
        self.inject(
            dst,
            AmOp::Put {
                seg,
                off,
                data: data.to_vec(),
            },
        );
    }

    /// Buffer a flag bump at `dst`.
    pub fn flag_add(&mut self, dst: ProcId, flag: FlagId, delta: u64) {
        self.inject(dst, AmOp::FlagAdd { flag, delta });
    }

    /// Buffer an atomic add to a `u64` cell at `dst`.
    pub fn amo_add(&mut self, dst: ProcId, seg: SegmentId, off: usize, delta: u64) {
        self.inject(dst, AmOp::AmoAdd { seg, off, delta });
    }

    /// Buffer a fused payload+doorbell op.
    pub fn put_flag(
        &mut self,
        dst: ProcId,
        seg: SegmentId,
        off: usize,
        data: &[u8],
        flag: FlagId,
        delta: u64,
    ) {
        self.inject(
            dst,
            AmOp::PutFlag {
                seg,
                off,
                data: data.to_vec(),
                flag,
                delta,
            },
        );
    }

    /// Direct nonblocking put that preserves per-destination program order:
    /// `dst`'s buffered AMs are flushed first, then the put is injected on
    /// the underlying fabric.
    pub fn put_nb(&mut self, dst: ProcId, seg: SegmentId, off: usize, data: &[u8]) -> PutToken {
        self.flush_dst(dst);
        self.fabric.put_nb(self.me, dst, seg, off, data)
    }

    /// Flush `dst`'s buffered ops, if any.
    pub fn flush_dst(&mut self, dst: ProcId) {
        if let Some(ops) = self.batcher.take(dst.index()) {
            self.deliver(dst.index(), ops);
        }
    }

    /// Fence: flush every destination's buffer, in ascending destination
    /// order. After this returns, every previously injected AM has been
    /// handed to the fabric (remote completion still needs [`Am::quiet`]).
    pub fn flush(&mut self) {
        for (dst, ops) in self.batcher.drain_all() {
            self.deliver(dst, ops);
        }
    }

    /// Flush everything, then wait for remote completion of all outstanding
    /// one-sided traffic from this image (including the batches just sent).
    pub fn quiet(&mut self) {
        self.flush();
        self.fabric.quiet(self.me);
    }

    fn inject(&mut self, dst: ProcId, op: AmOp) {
        let stats = self.fabric.stats();
        stats.record_am_inject(op.payload_len() as u64);
        let now = self.fabric.now_ns(self.me);
        let fused_before = self.batcher.fused();
        if let Some(ops) = self.batcher.push(dst.index(), op, now) {
            self.deliver(dst.index(), ops);
        }
        if self.batcher.fused() > fused_before {
            stats.record_am_fused();
        }
        // Age-based drain: destinations whose oldest op has waited longer
        // than the policy allows ride along on this inject.
        for d in self.batcher.stale(now) {
            if let Some(ops) = self.batcher.take(d) {
                self.deliver(d, ops);
            }
        }
    }

    fn deliver(&self, dst: usize, ops: Vec<AmOp>) {
        self.fabric.stats().record_am_flush();
        self.fabric.am_deliver(self.me, ProcId(dst), &ops);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(op: AmOp) {
        let mut buf = Vec::new();
        op.encode(&mut buf);
        assert_eq!(buf.len(), op.wire_len(), "wire_len matches encoding");
        let mut c = Cursor::new(&buf);
        let back = AmOp::decode(&mut c).unwrap();
        assert!(c.done());
        assert_eq!(back, op);
    }

    #[test]
    fn ops_roundtrip() {
        roundtrip(AmOp::Put {
            seg: SegmentId(3),
            off: 4096,
            data: vec![1, 2, 3, 4, 5, 6, 7, 8],
        });
        roundtrip(AmOp::FlagAdd {
            flag: FlagId(2),
            delta: 7,
        });
        roundtrip(AmOp::AmoAdd {
            seg: SegmentId(0),
            off: 16,
            delta: u64::MAX,
        });
        roundtrip(AmOp::PutFlag {
            seg: SegmentId(1),
            off: 64,
            data: vec![9; 32],
            flag: FlagId(5),
            delta: 1,
        });
    }

    #[test]
    fn decode_rejects_corrupt_ops() {
        // Unknown tag.
        let mut c = Cursor::new(&[0xEE, 0, 0, 0]);
        assert!(AmOp::decode(&mut c).is_err());
        // Truncated put header.
        let mut buf = Vec::new();
        AmOp::Put {
            seg: SegmentId(0),
            off: 0,
            data: vec![1, 2, 3],
        }
        .encode(&mut buf);
        let mut c = Cursor::new(&buf[..buf.len() - 2]);
        assert!(AmOp::decode(&mut c).is_err());
        // Payload length larger than the remaining body.
        let mut buf = Vec::new();
        buf.push(super::OP_PUT);
        0u64.put(&mut buf);
        0u64.put(&mut buf);
        (1u32 << 30).put(&mut buf); // claims 1 GiB follows
        let mut c = Cursor::new(&buf);
        assert!(AmOp::decode(&mut c).is_err());
    }
}
