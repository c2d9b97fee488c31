//! Write combining on the socket fabric's data plane: one `write(2)` per
//! burst of frames instead of one per frame.
//!
//! Every data connection has a [`Cork`] on each writing side: frames are
//! encoded straight into its buffer and leave the process together. What
//! decides *when* is Nagle's rule applied to the fabric's own protocol —
//! the flushes are clocked by the fabric's acks, not by a timer and not by
//! a knob:
//!
//! | trigger | who | why |
//! |---|---|---|
//! | a signalling frame is appended while no response is outstanding from the peer ([`flush_now`]) | the appending image | the idle-link idiom `put_nb` + `flag_add` is exactly one write, and ping-pong latency is what it was |
//! | the buffer reaches [`CORK_BYTES`] | the appending image | bounds memory and the burst; a payload at least that large is never copied — the corked bytes, its header and the payload go out in one vectored write |
//! | a hosted image enters a wait | that image (`flush_corked`) | nothing an image waits for may sit in its own process's buffer |
//! | a batch of responses from the peer was retired | the `caf-sock-egress` thread | the ack clock: drains a stream's tail when the sender never calls in again |
//!
//! | frame | on append |
//! |---|---|
//! | `Put` from `put_nb` | corked ([`Urgency::Data`]) |
//! | `FlagAdd`, `AmBatch` | flushed if nothing is in flight, else corked until the ack clock ticks ([`Urgency::Signal`]) |
//! | blocking `Put`/`Get`/AMO, `Heartbeat`, `Bye`, `RecoverBarrier` | flushed ([`Urgency::Now`]): the caller waits on it, or liveness depends on it |
//! | `PutAck` (receive side) | corked until the ingress reader is drained or [`CORK_BYTES`] |
//! | `GetResp`, `AmoResp` (receive side) | flushed: a blocked caller is waiting |
//!
//! Two rules keep this safe. **Deadlock:** the thread that reads a peer's
//! responses never takes a cork lock and never writes to a socket — it
//! retires the batch, decrements [`Egress::unacked`], and pokes the
//! per-process egress thread, which does the ack-clocked flush; so
//! "A's reader stuck writing to B while B's ingress is stuck writing acks
//! to A" cannot form. **Lost flush:** the append, the "something is
//! corked" mark and the "is a response outstanding?" test happen in that
//! order under the cork lock, and the reader decrements before it looks
//! at the mark (all sequentially consistent), so a frame corked against
//! an ack that has just arrived is still flushed: either the appender
//! reads the decrement (nothing in flight — it flushes itself) or the
//! reader sees the mark and pokes (see [`Egress::send`]). A reader that
//! finds nothing corked pokes nobody, which keeps the egress thread off
//! the ping-pong path.

use super::wire::{Frame, FrameRef, Stream};
use super::{SocketFabric, POLL};
use caf_topology::ProcId;
use parking_lot::Mutex;
use std::io::{self, IoSlice, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Corked bytes that force a flush, and the payload size from which a
/// frame skips the buffer. Two hundred 8-byte put+flag messages: large
/// enough that the syscall is a small share of a burst, small enough that
/// a burst fits any socket buffer and stays cache-resident.
pub(super) const CORK_BYTES: usize = 16 << 10;

/// The write half of one connection plus the frames waiting to leave on
/// it. The ingress thread owns one outright (for its responses); requests
/// share one per peer behind [`Egress`].
pub(super) struct Cork {
    stream: Stream,
    buf: Vec<u8>,
    /// How many of the corked frames the peer answers (ack, data or
    /// value): requests not yet on the wire.
    awaiting: u64,
}

impl Cork {
    pub(super) fn new(stream: Stream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            awaiting: 0,
        }
    }

    pub(super) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Encode `frame` behind whatever is already corked;
    /// `expects_response` marks one the peer answers. Returns the frame's
    /// wire bytes and the socket writes this took: zero, unless the
    /// payload is [`CORK_BYTES`] or more — then everything corked, the
    /// frame's header and the payload leave now, in place.
    pub(super) fn push(
        &mut self,
        frame: FrameRef<'_>,
        expects_response: bool,
    ) -> io::Result<(usize, u64)> {
        let start = self.buf.len();
        let tail = frame.encode_head(&mut self.buf);
        let bytes = self.buf.len() - start + tail.len();
        self.awaiting += u64::from(expects_response);
        if tail.len() < CORK_BYTES {
            self.buf.extend_from_slice(tail);
            return Ok((bytes, 0));
        }
        Ok((bytes, self.write_out(tail)?))
    }

    /// Write everything corked; returns the socket writes it took.
    pub(super) fn flush(&mut self) -> io::Result<u64> {
        if self.buf.is_empty() {
            return Ok(0);
        }
        self.write_out(&[])
    }

    /// Write the corked bytes, then `tail`. Whatever happens the cork is
    /// empty afterwards: after an error the connection is broken, and the
    /// caller declares the peer dead.
    fn write_out(&mut self, tail: &[u8]) -> io::Result<u64> {
        let res = write_all_counted(&mut self.stream, &self.buf, tail);
        self.discard();
        res
    }

    fn discard(&mut self) {
        self.buf.clear();
        self.awaiting = 0;
    }
}

/// `write_all` over `head` then `tail` (vectored while both remain),
/// counting the write calls.
fn write_all_counted(w: &mut Stream, mut head: &[u8], mut tail: &[u8]) -> io::Result<u64> {
    let mut writes = 0;
    while !head.is_empty() || !tail.is_empty() {
        let res = if head.is_empty() {
            w.write(tail)
        } else if tail.is_empty() {
            w.write(head)
        } else {
            w.write_vectored(&[IoSlice::new(head), IoSlice::new(tail)])
        };
        match res {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => {
                writes += 1;
                let from_head = n.min(head.len());
                head = &head[from_head..];
                tail = &tail[n - from_head..];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(writes)
}

/// What appending a frame asks of the cork.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) enum Urgency {
    /// Bulk data nobody is told about yet: wait for company.
    Data,
    /// Something the target acts on: leave now unless a response is
    /// already outstanding, whose arrival will carry it out.
    Signal,
    /// The caller blocks on it, or liveness depends on it.
    Now,
}

/// The one "flush now?" decision: `in_flight` is how many responses the
/// peer still owes for requests already on the wire, `corked` the bytes
/// buffered once the frame is appended.
fn flush_now(urgency: Urgency, in_flight: u64, corked: usize) -> bool {
    corked >= CORK_BYTES
        || match urgency {
            Urgency::Data => false,
            Urgency::Signal => in_flight == 0,
            Urgency::Now => true,
        }
}

/// What one [`Egress::send`] did.
pub(super) struct Sent {
    /// The frame's wire bytes.
    pub(super) bytes: usize,
    /// Socket writes made (0 = corked).
    pub(super) writes: u64,
    /// Time spent waiting for the cork lock (0 unless asked for).
    pub(super) queue_ns: u64,
}

/// The request side of one peer connection: the shared cork and the
/// counters that clock it.
pub(super) struct Egress {
    cork: Mutex<Cork>,
    /// Response-carrying requests to this peer — corked or on the wire —
    /// whose response has not been retired. Non-zero is also this peer's
    /// *wire debt*: a flag routed through shared memory could overtake a
    /// payload still travelling by frame, so the shm fast path yields to
    /// the frame path until it is zero again (acks are sent after the
    /// remote write applies).
    unacked: AtomicU64,
    /// Something is corked. Written under the cork lock only; read
    /// without it by waits (to skip the lock) and by the response reader
    /// (to skip the poke) — the latter is half of the lost-flush rule.
    dirty: AtomicBool,
}

impl Egress {
    pub(super) fn new(stream: Stream) -> Self {
        Self {
            cork: Mutex::new(Cork::new(stream)),
            unacked: AtomicU64::new(0),
            dirty: AtomicBool::new(false),
        }
    }

    /// Append `frame`; flush if [`flush_now`] says so. `expects_response`
    /// marks a frame the peer answers (ack, data or value).
    pub(super) fn send(
        &self,
        frame: FrameRef<'_>,
        expects_response: bool,
        urgency: Urgency,
        time_queue: bool,
    ) -> io::Result<Sent> {
        let q0 = time_queue.then(Instant::now);
        let mut cork = self.cork.lock();
        let queue_ns = q0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let (bytes, mut writes) = cork.push(frame, expects_response)?;
        if expects_response {
            self.unacked.fetch_add(1, Ordering::SeqCst);
        }
        // Publish "something is corked" *before* testing for outstanding
        // responses: either this test sees the decrement of a response
        // being retired right now, or that reader's later `dirty` test
        // sees the store and pokes the egress thread (the lost-flush rule).
        if !self.dirty.load(Ordering::Relaxed) {
            self.dirty.store(true, Ordering::SeqCst);
        }
        let in_flight = self
            .unacked
            .load(Ordering::SeqCst)
            .saturating_sub(cork.awaiting);
        if flush_now(urgency, in_flight, cork.len()) {
            writes += cork.flush()?;
        }
        if cork.len() == 0 {
            self.dirty.store(false, Ordering::SeqCst);
        }
        Ok(Sent {
            bytes,
            writes,
            queue_ns,
        })
    }

    /// Is anything corked? (May lag a concurrent `send` by another image;
    /// never one's own.)
    pub(super) fn dirty(&self) -> bool {
        self.dirty.load(Ordering::SeqCst)
    }

    /// Write whatever is corked; returns the socket writes it took.
    pub(super) fn flush(&self) -> io::Result<u64> {
        let mut cork = self.cork.lock();
        self.dirty.store(false, Ordering::SeqCst);
        cork.flush()
    }

    /// `n` of this peer's responses were just retired: tick the ack clock.
    /// Called by the response reader, which must not block; `true` means
    /// frames are corked and the caller must poke the egress thread.
    #[must_use]
    pub(super) fn retired(&self, n: u64) -> bool {
        self.unacked.fetch_sub(n, Ordering::SeqCst);
        self.dirty.load(Ordering::SeqCst)
    }

    /// See [`Egress::unacked`].
    pub(super) fn has_debt(&self) -> bool {
        self.unacked.load(Ordering::SeqCst) > 0
    }

    /// Recovery reset: forget corked frames and outstanding responses (the
    /// pending table that would retire them is cleared alongside).
    pub(super) fn reset(&self) {
        let mut cork = self.cork.lock();
        cork.discard();
        self.unacked.store(0, Ordering::SeqCst);
        self.dirty.store(false, Ordering::SeqCst);
    }

    /// Fault injection: close the write half, corked frames and all.
    pub(super) fn shutdown_write(&self) {
        self.cork.lock().stream.shutdown_write();
    }
}

/// How a response reader — which must never block — hands the ack-clocked
/// flush to the per-process egress thread: set the flag, unpark.
#[derive(Default)]
pub(super) struct AckClock {
    thread: OnceLock<std::thread::Thread>,
    poked: AtomicBool,
}

impl AckClock {
    /// Name the egress thread (once, before the first connection is up).
    pub(super) fn attach(&self, egress_thread: std::thread::Thread) {
        self.thread
            .set(egress_thread)
            .expect("one egress thread per fabric");
    }

    pub(super) fn poke(&self) {
        self.poked.store(true, Ordering::Release);
        if let Some(t) = self.thread.get() {
            t.unpark();
        }
    }

    fn take_poke(&self) -> bool {
        self.poked.swap(false, Ordering::Acquire)
    }
}

/// The fabric's side of the egress: how requests reach a peer's cork, who
/// flushes it, and where the writes are counted.
impl SocketFabric {
    /// The ack-clocked flush (see the module docs): a response reader that
    /// retires a batch while frames are corked pokes this thread, which
    /// writes them out. Only a poke flushes — the timeout is the shutdown
    /// poll, not a flush timer.
    pub(super) fn egress_loop(&self) {
        while !self.stopping() {
            if self.ack_clock.take_poke() {
                self.flush_corked();
            }
            std::thread::park_timeout(POLL);
        }
    }

    /// Write out whatever is corked toward `rank`. A failure is the peer's
    /// death (unless this process is going down itself): the waits that
    /// follow every caller of this observe the poison.
    fn flush_peer(&self, rank: usize, e: &Egress) {
        match e.flush() {
            Ok(writes) => self.obs.wire_writes(rank, writes),
            Err(_) if self.stopping() || self.all_done.load(Ordering::Acquire) => {}
            Err(err) => self.declare_dead(rank, &format!("egress flush failed: {err}")),
        }
    }

    /// Flush trigger (3): an image is about to wait, so nothing it (or a
    /// sibling image) issued may stay corked in this process.
    pub(super) fn flush_corked(&self) {
        for (rank, slot) in self.egress.iter().enumerate() {
            let dirty = slot.read().as_ref().filter(|e| e.dirty()).cloned();
            if let Some(e) = dirty {
                self.flush_peer(rank, &e);
            }
        }
    }

    /// Count one frame of `bytes` wire bytes sent to `rank`, and the
    /// socket `writes` sending it took (0 = corked).
    #[inline]
    pub(super) fn count_sent(&self, rank: usize, bytes: usize, writes: u64) {
        self.stats.record_wire_tx(bytes);
        self.obs.wire_tx(rank, bytes);
        self.obs.wire_writes(rank, writes);
    }

    /// Send a control frame (heartbeat, goodbye, recovery mark) to `rank`
    /// right away, behind whatever is corked, with none of the request
    /// path's poison checks. For a heartbeat or goodbye the result is
    /// ignored: liveness tracking, not this write, decides whether the
    /// peer is dead.
    pub(super) fn send_control(&self, rank: usize, frame: &Frame) -> io::Result<()> {
        if let Some(e) = self.egress_to(rank) {
            let sent = e.send(frame.into(), false, Urgency::Now, false)?;
            self.count_sent(rank, sent.bytes, sent.writes);
        }
        Ok(())
    }

    /// Append `frame` to the egress cork of the process hosting `dst`
    /// (flushed as `urgency` and the ack clock decide — see the module docs).
    /// Returns `(queue_ns, hosting process rank)` — time spent waiting for
    /// the per-peer cork (the tracer's queueing component).
    pub(super) fn send_request(
        &self,
        me: ProcId,
        dst: ProcId,
        frame: FrameRef<'_>,
        expects_response: bool,
        urgency: Urgency,
    ) -> (u64, usize) {
        let rank = self.proc_of_image[dst.index()];
        let e = self
            .egress_to(rank)
            .unwrap_or_else(|| panic!("no egress connection to process {rank}"));
        match e.send(frame, expects_response, urgency, self.cfg.tracer.enabled()) {
            Ok(sent) => {
                self.count_sent(rank, sent.bytes, sent.writes);
                (sent.queue_ns, rank)
            }
            Err(e) => {
                self.declare_dead(rank, &format!("request write failed: {e}"));
                self.check_poison(me, "sending to a dead peer");
                panic!(
                    "image {} request write to {} failed: {e}",
                    me.index() + 1,
                    self.peer_desc(rank)
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_flush_rule() {
        // Data waits for company, whatever the link is doing.
        assert!(!flush_now(Urgency::Data, 0, 100));
        assert!(!flush_now(Urgency::Data, 3, 100));
        // A signal leaves at once on an idle link, and rides the ack
        // clock on a busy one.
        assert!(flush_now(Urgency::Signal, 0, 100));
        assert!(!flush_now(Urgency::Signal, 1, 100));
        // What a caller blocks on always leaves.
        assert!(flush_now(Urgency::Now, 7, 100));
        // A full cork leaves regardless.
        assert!(flush_now(Urgency::Data, 3, CORK_BYTES));
        assert!(flush_now(Urgency::Signal, 3, CORK_BYTES + 1));
    }
}
