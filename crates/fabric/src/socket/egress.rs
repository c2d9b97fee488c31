//! Write combining on the socket fabric's data plane: one `write(2)` per
//! burst of frames instead of one per frame, and one *frame* for the pair
//! a pipelined collective streams — a `put_nb` and the `flag_add` behind
//! it (a blocking hop's `put_flag` is one frame by construction).
//!
//! Every data connection has a [`Cork`] on each writing side: frames are
//! encoded straight into its buffer and leave the process together. What
//! decides *when* is Nagle's rule applied to the fabric's own protocol —
//! the flushes are clocked by the fabric's acks, not by a timer and not by
//! a knob:
//!
//! | trigger | who | why |
//! |---|---|---|
//! | a signalling frame is appended while no response is outstanding from the peer ([`flush_now`]) | the appending image | the idle-link idiom `put_nb` + `flag_add` is exactly one frame in one write, and ping-pong latency is what it was |
//! | the buffer reaches [`CORK_BYTES`] | the appending image | bounds memory and the burst; a payload at least that large is never copied — the corked bytes, its header and the payload go out in one vectored write. A `put_nb` that would take the buffer past the bound sends what was corked *before* it and stays behind itself, so it is still there when its flag arrives |
//! | a hosted image enters a wait | that image (`flush_corked`) | nothing an image waits for may sit in its own process's buffer |
//! | a batch of responses from the peer was retired | the `caf-sock-egress` thread | the ack clock: drains a stream's tail when the sender never calls in again |
//!
//! | frame | on append |
//! |---|---|
//! | `Put` from `put_nb` | corked ([`Urgency::Data`]) |
//! | `FlagAdd` | if the last frame corked is a `put_nb` from the same image to the same image, rewritten into it (`PutFlag`: [`wire::fuse_flag`]), else appended; either way flushed if nothing is in flight, else corked until the ack clock ticks ([`Urgency::Signal`]) |
//! | `PutFlag` from `put_flag` | flushed if nothing is in flight, else corked until the ack clock ticks ([`Urgency::Signal`]) |
//! | blocking `Put`/`Get`/AMO, `Heartbeat`, `Bye`, `RecoverBarrier` | flushed ([`Urgency::Now`]): the caller waits on it, or liveness depends on it |
//! | `PutAck` (receive side) | corked until the ingress reader's burst is over; if the last frame corked is a `PutAck`, rewritten to name the new request instead ([`Cork::push_ack`]): one ack per response burst, standing for every unanswered request up to it |
//! | `GetResp`, `AmoResp` (receive side) | flushed: a blocked caller is waiting |
//!
//! Anything between a put and its flag — a sibling image's frame, a flush,
//! a payload of [`CORK_BYTES`] or more, which left vectored — means no
//! fusion, and the two frames the pair always was. The fused frame is
//! applied put, then flag, then ack, by the one thread that serves the
//! connection in order: what the target sees, and what `quiet` waits for,
//! is exactly what `Put; FlagAdd` gave.
//!
//! A request the peer answers is numbered at append under the cork lock
//! ([`Egress::send`]): the cork owns the peer's next sequence number. It is
//! registered in one batch before the write: the write that carries it
//! first hands every corked request to the pending table under one lock
//! ([`Pending::register_batch`]) before a byte of it leaves — the flush,
//! the pre-frame flush of an overfilling `put_nb` and the vectored write of
//! a large payload alike. So the order of the pending table's ring is the
//! order of the wire, a response never beats its registration, and the
//! request path takes the pending lock once per write, not once per
//! request. A discard — a recovery reset, a broken write, a re-dial — takes
//! back the numbers of the requests it drops. Frames are counted when they
//! leave ([`Left`]), a burst at a time.
//!
//! The fabric's egress slot per peer is write-once: a re-dial swaps the
//! stream inside the existing [`Egress`], under its cork lock
//! ([`Egress::redial`]), so the request path reads the slot without a lock.
//!
//! Two rules keep this safe. **Deadlock:** the thread that reads a peer's
//! responses never takes a cork lock and never writes to a socket — it
//! retires the batch, decrements [`Egress::unacked`], and pokes the
//! per-process egress thread, which does the ack-clocked flush; so
//! "A's reader stuck writing to B while B's ingress is stuck writing acks
//! to A" cannot form. (Senders lock cork, then pending; the reader locks
//! pending alone.) **Lost flush:** the append, the "something is
//! corked" mark and the "is a response outstanding?" test happen in that
//! order under the cork lock, and the reader decrements before it looks
//! at the mark (all sequentially consistent), so a frame corked against
//! an ack that has just arrived is still flushed: either the appender
//! reads the decrement (nothing in flight — it flushes itself) or the
//! reader sees the mark and pokes (see [`Egress::with_cork`]). A reader that
//! finds nothing corked pokes nobody, which keeps the egress thread off
//! the ping-pong path.

use super::pending::{Entry, Pending};
use super::wire::{self, Frame, Stream};
use super::{Op, SocketFabric, POLL};
use caf_topology::ProcId;
use parking_lot::Mutex;
use std::io::{self, IoSlice, Write};
use std::ops::AddAssign;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Corked bytes that force a flush, and the payload size from which a
/// frame skips the buffer. Two hundred 8-byte put+flag messages: large
/// enough that the syscall is a small share of a burst, small enough that
/// a burst fits any socket buffer and stays cache-resident.
pub(super) const CORK_BYTES: usize = 16 << 10;

/// What a write put on the wire. Frames are counted when they leave, a
/// burst at a time, not when they are corked.
#[derive(Clone, Copy, Default)]
pub(super) struct Left {
    pub(super) frames: u64,
    pub(super) bytes: u64,
    /// Socket writes it took.
    pub(super) writes: u64,
}

impl AddAssign for Left {
    fn add_assign(&mut self, more: Left) {
        self.frames += more.frames;
        self.bytes += more.bytes;
        self.writes += more.writes;
    }
}

/// The write half of one connection plus the frames waiting to leave on
/// it. The ingress thread owns one outright (for its responses); requests
/// share one per peer behind [`Egress`].
pub(super) struct Cork {
    stream: Stream,
    buf: Vec<u8>,
    /// Frames in `buf`.
    frames: u64,
    /// The corked frames the peer answers (ack, data or value), oldest
    /// first: requests numbered `next - requests.len()..next`, registered
    /// when a write carries them.
    requests: Vec<Entry>,
    /// The sequence number the next request gets.
    next: u64,
    /// The pending table and peer rank a request cork registers into;
    /// `None` on a response cork, whose frames nobody answers.
    table: Option<(Arc<Pending>, usize)>,
    /// Where in `buf` the last frame starts, while that frame is a
    /// `put_nb`'s `Put` — what a `flag_add` arriving next fuses into.
    tail_put: Option<usize>,
    /// Where in `buf` the last frame starts, while that frame is a
    /// `PutAck` — what the ack of the next request rewrites.
    tail_ack: Option<usize>,
}

impl Cork {
    /// A response cork.
    pub(super) fn new(stream: Stream) -> Self {
        Self {
            stream,
            buf: Vec::new(),
            frames: 0,
            requests: Vec::new(),
            next: 1,
            table: None,
            tail_put: None,
            tail_ack: None,
        }
    }

    /// The request cork toward `peer`, whose requests `pending` tracks
    /// (numbered from 1, as its ring is).
    fn for_requests(stream: Stream, pending: Arc<Pending>, peer: usize) -> Self {
        Self {
            table: Some((pending, peer)),
            ..Self::new(stream)
        }
    }

    pub(super) fn len(&self) -> usize {
        self.buf.len()
    }

    /// Cork the frame `encode` appends, around its sequence number, to the
    /// buffer it is given (handing back the bulk payload it did not copy,
    /// as `PutHead::encode_head` does). `awaits` is the pending entry of a
    /// request the peer answers: the frame is numbered the cork's next
    /// number and the entry waits here for the write that registers it;
    /// any other frame is numbered 0. Returns what this wrote, which is
    /// nothing unless
    ///
    /// * the payload is [`CORK_BYTES`] or more — then everything corked,
    ///   the frame's header and the payload leave now, in place; or
    /// * the frame is [`Urgency::Data`] and takes the cork past
    ///   [`CORK_BYTES`] — then what was corked *before* it leaves, and the
    ///   frame stays behind for the flag that may follow it;
    ///
    /// and the frame's number.
    pub(super) fn push<'a>(
        &mut self,
        urgency: Urgency,
        awaits: Option<Entry>,
        encode: impl FnOnce(u64, &mut Vec<u8>) -> &'a [u8],
    ) -> io::Result<(Left, u64)> {
        let seq = if awaits.is_some() { self.next } else { 0 };
        let mut start = self.buf.len();
        let tail = encode(seq, &mut self.buf);
        (self.tail_put, self.tail_ack) = (None, None);
        let mut left = Left::default();
        if tail.len() < CORK_BYTES {
            self.buf.extend_from_slice(tail);
            if urgency == Urgency::Data {
                if start > 0 && self.buf.len() > CORK_BYTES {
                    left = self.write_out(start, &[])?;
                    start = 0;
                }
                self.tail_put = Some(start);
            }
        }
        self.frames += 1;
        if let Some(entry) = awaits {
            self.requests.push(entry);
            self.next += 1;
            self.publish_numbered();
        }
        if tail.len() >= CORK_BYTES {
            left = self.write_out(self.buf.len(), tail)?;
        }
        Ok((left, seq))
    }

    /// Requests corked, not yet on the wire.
    fn corked_requests(&self) -> u64 {
        self.requests.len() as u64
    }

    /// Cork `flag += delta` at image `dst` from image `src`: fused into the
    /// `put_nb` frame of the same pair if that is the last thing corked,
    /// else as a `FlagAdd` frame of its own.
    fn push_flag(&mut self, src: u32, dst: u32, flag: u64, delta: u64) -> io::Result<Left> {
        let fusable = self.tail_put.take();
        if fusable.is_some_and(|at| wire::fuse_flag(&mut self.buf, at, (src, dst), flag, delta)) {
            return Ok(Left::default());
        }
        let frame = Frame::FlagAdd {
            src,
            dst,
            flag,
            delta,
        };
        let (left, _) = self.push(Urgency::Signal, None, |_, b| {
            frame.encode_into(b);
            &[]
        })?;
        Ok(left)
    }

    /// Cork the ack of request `ack`. It stands for every request before
    /// it on the connection too, which is FIFO, so a `PutAck` that is the
    /// last frame corked is rewritten to name `ack` instead of a second one
    /// appended: a burst of puts is answered with one frame. Anything
    /// corked after it, or a flush, ends the run.
    pub(super) fn push_ack(&mut self, ack: u64) -> io::Result<Left> {
        let frame = Frame::PutAck { ack };
        if let Some(at) = self.tail_ack {
            self.buf.truncate(at);
            frame.encode_into(&mut self.buf);
            return Ok(Left::default());
        }
        let at = self.buf.len();
        let (left, _) = self.push(Urgency::Now, None, |_, b| {
            frame.encode_into(b);
            &[]
        })?;
        self.tail_ack = Some(at);
        Ok(left)
    }

    /// Write everything corked.
    pub(super) fn flush(&mut self) -> io::Result<Left> {
        if self.buf.is_empty() {
            return Ok(Left::default());
        }
        self.write_out(self.buf.len(), &[])
    }

    /// Write the first `upto` corked bytes, which hold every frame counted
    /// so far, then `tail`; what lies behind them (a frame just encoded,
    /// not yet counted) stays. The requests among the counted frames are
    /// registered first. After an error the cork is empty: the connection
    /// is broken, and the caller declares the peer dead.
    fn write_out(&mut self, upto: usize, tail: &[u8]) -> io::Result<Left> {
        self.register();
        match write_all_counted(&mut self.stream, &self.buf[..upto], tail) {
            Ok(writes) => {
                let left = Left {
                    frames: self.frames,
                    bytes: (upto + tail.len()) as u64,
                    writes,
                };
                self.buf.drain(..upto);
                self.frames = 0;
                (self.tail_put, self.tail_ack) = (None, None);
                Ok(left)
            }
            Err(e) => {
                self.discard();
                Err(e)
            }
        }
    }

    /// Hand every corked request to the pending table in one batch, before
    /// the write that carries them: a response cannot beat its
    /// registration.
    fn register(&mut self) {
        if self.requests.is_empty() {
            return;
        }
        let (pending, peer) = self
            .table
            .as_ref()
            .expect("a response cork numbers no request");
        let first = self.next - self.corked_requests();
        pending.register_batch(*peer, first, self.requests.drain(..));
    }

    /// Tell the pending table how far this cork has numbered (see
    /// [`Pending::numbered`]).
    fn publish_numbered(&self) {
        if let Some((pending, peer)) = &self.table {
            pending.numbered[*peer].store(self.next, Ordering::Relaxed);
        }
    }

    /// Forget everything corked, and take back the numbers of the requests
    /// among it: the next request is numbered the pending ring's end.
    fn discard(&mut self) {
        self.buf.clear();
        self.frames = 0;
        self.next -= self.corked_requests();
        self.requests.clear();
        self.publish_numbered();
        (self.tail_put, self.tail_ack) = (None, None);
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
    /// Bulk data nobody is told about yet (a `put_nb`): wait for company.
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
    /// What it put on the wire (nothing = corked).
    pub(super) left: Left,
    /// Time spent waiting for the cork lock, the tracer's queueing
    /// component (0 unless asked for).
    pub(super) queue_ns: u64,
    /// The request's sequence number (0 for a frame the peer does not
    /// answer).
    pub(super) seq: u64,
}

/// The request side of the connection to one peer: the shared cork and the
/// counters that clock it. One per peer rank for the fabric's life; a
/// re-dial swaps the connection inside it ([`Egress::redial`]).
pub(super) struct Egress {
    cork: Mutex<Cork>,
    /// Response-carrying requests to this peer — corked or on the wire —
    /// whose response has not been retired. Non-zero is also this peer's
    /// *wire debt*: a flag routed through shared memory could overtake a
    /// payload still travelling by frame, so the shm fast path yields to
    /// the frame path until it is zero again (acks are sent after the
    /// remote write applies). The fabric owns the cell (`wire_debt`, one
    /// per peer rank, which `route` reads without a lock) and hands it to
    /// the rank's `Egress`.
    unacked: Arc<AtomicU64>,
    /// Something is corked. Written under the cork lock only; read
    /// without it by waits (to skip the lock) and by the response reader
    /// (to skip the poke) — the latter is half of the lost-flush rule.
    dirty: AtomicBool,
}

impl Egress {
    /// The egress toward peer rank `peer` over `stream`, counting its wire
    /// debt on `unacked` and registering its requests in `pending`.
    pub(super) fn new(
        stream: Stream,
        unacked: Arc<AtomicU64>,
        pending: Arc<Pending>,
        peer: usize,
    ) -> Self {
        Self {
            cork: Mutex::new(Cork::for_requests(stream, pending, peer)),
            unacked,
            dirty: AtomicBool::new(false),
        }
    }

    /// Append what `append` corks; flush if [`flush_now`] says so. What
    /// `dirty` reads `false` after is registered (the lost-flush rule, and
    /// what a wait that skips a clean cork relies on).
    fn with_cork(
        &self,
        urgency: Urgency,
        time_queue: bool,
        append: impl FnOnce(&mut Cork) -> io::Result<(Left, u64)>,
    ) -> io::Result<Sent> {
        let q0 = time_queue.then(Instant::now);
        let mut cork = self.cork.lock();
        let queue_ns = q0.map_or(0, |t| t.elapsed().as_nanos() as u64);
        let (mut left, seq) = append(&mut cork)?;
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
            .saturating_sub(cork.corked_requests());
        if flush_now(urgency, in_flight, cork.len()) {
            left += cork.flush()?;
        }
        if cork.len() == 0 {
            self.dirty.store(false, Ordering::SeqCst);
        }
        Ok(Sent {
            left,
            queue_ns,
            seq,
        })
    }

    /// Append the frame `encode` writes (see [`Cork::push`]) around its
    /// sequence number. `awaits` is the pending entry of a frame the peer
    /// answers (ack, data or value): numbered here, under the cork lock,
    /// and registered by the write that carries it, so that the table's
    /// order is the wire's. It counts on the wire debt from here on.
    pub(super) fn send<'a>(
        &self,
        awaits: Option<Entry>,
        urgency: Urgency,
        time_queue: bool,
        encode: impl FnOnce(u64, &mut Vec<u8>) -> &'a [u8],
    ) -> io::Result<Sent> {
        self.with_cork(urgency, time_queue, |cork| {
            if awaits.is_some() {
                self.unacked.fetch_add(1, Ordering::SeqCst);
            }
            cork.push(urgency, awaits, encode)
        })
    }

    /// Append `flag += delta` at image `dst` from image `src`, a signal:
    /// inside the `put_nb` frame it follows, if that is still corked.
    pub(super) fn send_flag(
        &self,
        (src, dst): (u32, u32),
        flag: u64,
        delta: u64,
        time_queue: bool,
    ) -> io::Result<Sent> {
        self.with_cork(Urgency::Signal, time_queue, |cork| {
            Ok((cork.push_flag(src, dst, flag, delta)?, 0))
        })
    }

    /// Is anything corked? (May lag a concurrent `send` by another image;
    /// never one's own.)
    pub(super) fn dirty(&self) -> bool {
        self.dirty.load(Ordering::SeqCst)
    }

    /// Write whatever is corked. The cork reads clean once its requests
    /// are registered, not before.
    pub(super) fn flush(&self) -> io::Result<Left> {
        let mut cork = self.cork.lock();
        let left = cork.flush();
        self.dirty.store(false, Ordering::SeqCst);
        left
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
    #[cfg(test)]
    pub(super) fn has_debt(&self) -> bool {
        self.unacked.load(Ordering::SeqCst) > 0
    }

    /// A re-dial: the peer's new connection replaces the dead one, under
    /// the cork lock. What was corked for the dead one is discarded, as
    /// [`Egress::reset`] does, numbers and all; the wire debt stays until
    /// the recovery reset clears it.
    pub(super) fn redial(&self, stream: Stream) {
        let mut cork = self.cork.lock();
        cork.discard();
        cork.stream = stream;
        self.dirty.store(false, Ordering::SeqCst);
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
            Ok(left) => self.count_sent(rank, left),
            Err(_) if self.stopping() || self.all_done.load(Ordering::Acquire) => {}
            Err(err) => self.declare_dead(rank, &format!("egress flush failed: {err}")),
        }
    }

    /// Flush trigger (3): an image is about to wait, so nothing it (or a
    /// sibling image) issued may stay corked in this process.
    pub(super) fn flush_corked(&self) {
        for (rank, slot) in self.egress.iter().enumerate() {
            if rank == self.node_rank {
                continue;
            }
            if let Some(e) = slot.get().filter(|e| e.dirty()) {
                self.flush_peer(rank, e);
            }
        }
    }

    /// Count what a write toward `rank` put on the wire: its frames, their
    /// bytes and the socket writes they took.
    #[inline]
    pub(super) fn count_sent(&self, rank: usize, left: Left) {
        if left.writes > 0 {
            self.stats.record_wire_tx(left.frames, left.bytes);
            self.obs.wire_tx(rank, left);
        }
    }

    /// Send a control frame (heartbeat, goodbye, recovery mark) to `rank`
    /// right away, behind whatever is corked, with none of the request
    /// path's poison checks. For a heartbeat or goodbye the result is
    /// ignored: liveness tracking, not this write, decides whether the
    /// peer is dead.
    pub(super) fn send_control(&self, rank: usize, frame: &Frame) -> io::Result<()> {
        if let Some(e) = self.egress[rank].get() {
            let sent = e.send(None, Urgency::Now, false, |_, b| {
                frame.encode_into(b);
                &[]
            })?;
            self.count_sent(rank, sent.left);
        }
        Ok(())
    }

    /// Run `send` on the egress of the process hosting `dst` (a write-once
    /// slot, read without a lock); count what left, and turn a failed write
    /// into the peer's death.
    fn to_peer(
        &self,
        me: ProcId,
        dst: ProcId,
        send: impl FnOnce(&Egress) -> io::Result<Sent>,
    ) -> (usize, Sent) {
        let rank = self.proc_of_image[dst.index()];
        let e = (self.egress[rank].get())
            .unwrap_or_else(|| panic!("no egress connection to process {rank}"));
        match send(e) {
            Ok(sent) => {
                self.count_sent(rank, sent.left);
                (rank, sent)
            }
            Err(e) => {
                self.declare_dead(rank, &format!("request write failed: {e}"));
                self.poisoned.check(me, "sending to a dead peer");
                panic!(
                    "image {} request write to {} failed: {e}",
                    me.index() + 1,
                    self.peer_desc(rank)
                );
            }
        }
    }

    /// Append the frame `encode` writes around its sequence number to the
    /// egress cork of the process hosting `op`'s peer (flushed as `urgency`
    /// and the ack clock decide — see the module docs). `awaits` is the
    /// pending entry of a frame the peer answers. Returns the hosting
    /// process's rank with what the send did (its queueing timed when `op`
    /// is traced).
    pub(super) fn send_request<'a>(
        &self,
        op: &Op,
        awaits: Option<Entry>,
        urgency: Urgency,
        encode: impl FnOnce(u64, &mut Vec<u8>) -> &'a [u8],
    ) -> (usize, Sent) {
        let time_queue = op.t0.is_some();
        self.to_peer(op.me, op.peer, |e| {
            e.send(awaits, urgency, time_queue, encode)
        })
    }

    /// Append `op`'s `flag += delta` at its peer to the cork of the process
    /// hosting it: one frame with the `put_nb` it follows, if that is still
    /// corked ([`Egress::send_flag`]).
    pub(super) fn send_flag(&self, op: &Op, flag: u64, delta: u64) {
        let pair = (op.me.index() as u32, op.peer.index() as u32);
        let time_queue = op.t0.is_some();
        self.to_peer(op.me, op.peer, |e| {
            e.send_flag(pair, flag, delta, time_queue)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::wire::{FrameReader, PutHead};
    use std::os::unix::net::UnixStream;

    /// A request cork toward peer 1, and a reader on the other end of its
    /// connection.
    fn cork() -> (Cork, FrameReader<Stream>) {
        let (ours, theirs) = UnixStream::pair().expect("socket pair");
        let reader = FrameReader::new(Stream::Uds(theirs));
        let pending = Arc::new(Pending::new(4, 2));
        (Cork::for_requests(Stream::Uds(ours), pending, 1), reader)
    }

    /// The frame [`push_nb`] sends for `data`.
    fn put(data: &[u8]) -> Frame {
        Frame::Put {
            src: 0,
            dst: 2,
            seg: 1,
            off: 64,
            ack: 5,
            data: data.to_vec(),
        }
    }

    fn put_flag(src: u32, dst: u32, data: &[u8], flag: u64) -> Frame {
        Frame::PutFlag {
            src,
            dst,
            seg: 1,
            off: 64,
            ack: 5,
            data: data.to_vec(),
            flag,
            delta: 1,
        }
    }

    fn flag_add(src: u32, dst: u32, flag: u64) -> Frame {
        Frame::FlagAdd {
            src,
            dst,
            flag,
            delta: 1,
        }
    }

    /// Cork a `put_nb`'s frame of `data`, the way the fabric does: its
    /// head, and the payload borrowed; what left.
    fn push_nb(c: &mut Cork, data: &[u8]) -> Left {
        let (seg, off, ack, len) = (1, 64, 5, data.len());
        let head = PutHead {
            src: 0,
            dst: 2,
            seg,
            off,
            ack,
            len,
            flag: None,
        };
        let nb = Entry::Nb { img: 0, put: true };
        (c.push(Urgency::Data, Some(nb), |_, b| head.encode_head(b, data)))
            .expect("push")
            .0
    }

    /// Flush, and read back the frames that arrive.
    fn drain(c: &mut Cork, r: &mut FrameReader<Stream>) -> Vec<Frame> {
        let left = c.flush().expect("flush");
        (0..left.frames)
            .map(|_| r.next_frame().expect("frame").0)
            .collect()
    }

    #[test]
    fn a_flag_fuses_into_the_put_nb_corked_right_before_it_and_into_nothing_else() {
        let (mut c, mut r) = cork();
        let word = [7u8; 8];
        // The pair: one frame, counted once, still awaiting its one ack.
        push_nb(&mut c, &word);
        c.push_flag(0, 2, 3, 1).expect("fused");
        assert_eq!((c.frames, c.corked_requests()), (1, 1));
        assert_eq!(drain(&mut c, &mut r), [put_flag(0, 2, &word, 3)]);
        // A second flag has nothing left to fuse into; neither has a flag
        // from a sibling image, or one for another target.
        push_nb(&mut c, &word);
        c.push_flag(0, 2, 3, 1).expect("fused");
        c.push_flag(0, 2, 4, 1).expect("appended");
        push_nb(&mut c, &word);
        c.push_flag(1, 2, 3, 1).expect("appended");
        push_nb(&mut c, &word);
        c.push_flag(0, 3, 3, 1).expect("appended");
        assert_eq!(
            drain(&mut c, &mut r),
            [
                put_flag(0, 2, &word, 3),
                flag_add(0, 2, 4),
                put(&word),
                flag_add(1, 2, 3),
                put(&word),
                flag_add(0, 3, 3),
            ]
        );
        // A sibling's frame between the put and its flag: the payload
        // still goes first, in a frame of its own.
        push_nb(&mut c, &word);
        let sibling = flag_add(1, 2, 9);
        (c.push(Urgency::Signal, None, |_, b| {
            sibling.encode_into(b);
            &[]
        }))
        .expect("push");
        c.push_flag(0, 2, 3, 1).expect("appended");
        assert_eq!(
            drain(&mut c, &mut r),
            [put(&word), flag_add(1, 2, 9), flag_add(0, 2, 3)]
        );
        // A flush in between.
        push_nb(&mut c, &word);
        assert_eq!(drain(&mut c, &mut r), [put(&word)]);
        c.push_flag(0, 2, 3, 1).expect("appended");
        assert_eq!(drain(&mut c, &mut r), [flag_add(0, 2, 3)]);
        // A payload that left vectored, uncopied.
        let big = vec![9u8; CORK_BYTES];
        let left = push_nb(&mut c, &big);
        assert_eq!((left.frames, c.len()), (1, 0));
        c.push_flag(0, 2, 3, 1).expect("appended");
        assert!(matches!(r.next_frame().expect("put").0, Frame::Put { data, .. } if data == big));
        assert_eq!(drain(&mut c, &mut r), [flag_add(0, 2, 3)]);
    }

    #[test]
    fn a_put_nb_that_overfills_the_cork_sends_what_came_before_it_and_stays() {
        let (mut c, mut r) = cork();
        let kib = [3u8; 1024];
        let mut corked = 0;
        // Fill up: nothing leaves while the bound holds.
        while c.len() + kib.len() + 64 <= CORK_BYTES {
            assert_eq!(push_nb(&mut c, &kib).writes, 0);
            corked += 1;
        }
        // The put that would cross it sends the others on their way...
        let last = [4u8; 1024];
        let left = push_nb(&mut c, &last);
        assert_eq!(left.frames, corked);
        assert!(left.writes >= 1 && left.bytes > corked * 1024);
        assert_eq!(
            (c.frames, c.corked_requests()),
            (1, 1),
            "and stays, with its ack"
        );
        for _ in 0..corked {
            assert!(
                matches!(r.next_frame().expect("put").0, Frame::Put { data, .. } if data == kib)
            );
        }
        // ...so that it is still there when its flag arrives.
        c.push_flag(0, 2, 3, 1).expect("fused");
        assert_eq!(drain(&mut c, &mut r), [put_flag(0, 2, &last, 3)]);
        // A lone put past the bound has nothing to send ahead, and waits.
        let most = vec![5u8; CORK_BYTES - 1];
        assert_eq!(push_nb(&mut c, &most).writes, 0);
        c.push_flag(0, 2, 3, 1).expect("fused");
        assert_eq!(drain(&mut c, &mut r), [put_flag(0, 2, &most, 3)]);
    }

    #[test]
    fn a_burst_of_acks_leaves_as_one_frame_naming_the_last_request() {
        let (mut c, mut r) = cork();
        let ack = |ack| Frame::PutAck { ack };
        // One frame for the burst, counted once: the last request's ack
        // stands for the ones before it.
        for seq in 1..=50 {
            assert_eq!(c.push_ack(seq).expect("ack").writes, 0);
        }
        assert_eq!(c.frames, 1);
        assert_eq!(drain(&mut c, &mut r), [ack(50)]);
        // Any other frame ends the run: the acks on either side of it stay
        // apart, in order.
        c.push_ack(51).expect("ack");
        (c.push(Urgency::Now, None, |_, b| {
            wire::encode_get_resp(b, 52, &[1, 2])
        }))
        .expect("data");
        c.push_ack(53).expect("ack");
        let data = Frame::GetResp {
            req: 52,
            data: vec![1, 2],
        };
        assert_eq!(drain(&mut c, &mut r), [ack(51), data, ack(53)]);
        // So does a flush, and so does a discard.
        c.push_ack(54).expect("ack");
        assert_eq!(drain(&mut c, &mut r), [ack(54)]);
        c.push_ack(55).expect("ack");
        assert_eq!(drain(&mut c, &mut r), [ack(55)]);
        c.push_ack(56).expect("ack");
        c.discard();
        c.push_ack(57).expect("ack");
        assert_eq!(drain(&mut c, &mut r), [ack(57)]);
    }

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
