//! The real-memory fabric: one OS process per occupied node, Unix-domain
//! sockets (or TCP) between processes, shared memory within.
//!
//! Here the paper's leader/slave split maps onto genuine process and wire
//! boundaries: images colocated on one "node" live in one process and
//! share its relaxed-atomic segments; images on different nodes talk
//! through per-peer connections carrying length-prefixed
//! [`wire::Frame`]s. A fleet member is built by [`SocketFabric::join`]. A
//! plan of one process — [`SocketFabric::new`], the
//! [`ThreadFabric`](crate::ThreadFabric) — hosts every image of the map
//! and serves every op from its own memory, with no socket, coordinator,
//! shared segment or service thread; its counters and traces still tell
//! the map's nodes apart.
//!
//! # Protocol
//!
//! For each ordered pair of processes (A, B), A dials B's listener exactly
//! once; that connection carries A's requests (puts, gets, AMOs, flag
//! adds, heartbeats, the graceful `Bye`) to B and B's responses (put acks,
//! get data, AMO results) back to A. B serves the connection with one
//! ingress thread that applies requests *in arrival order* — which,
//! together with the single per-peer egress writer, provides the fabric
//! memory model's point-to-point ordering: operations from one image to
//! one target complete in initiation order, and a flag update sent after a
//! put to the same target lands after the put's payload.
//!
//! Every remote put — blocking or not — carries an ack cookie, so
//! [`Fabric::quiet`] and [`Fabric::put_wait`] mean *remotely complete*,
//! not merely injected. The cookie is the request's sequence number on its
//! connection: responses come back in request order, so completion is an
//! index into a per-peer ring (`pending`), not a lookup. A signalled put
//! (`put_flag`) is one [`Frame::PutFlag`], a signal nobody blocks on: its
//! ack retires debt that `quiet` waits for. A `put_nb` and the `flag_add`
//! right behind it to the same image travel as one too, when nothing came
//! between them (`egress`).
//!
//! # Robustness
//!
//! Connects retry with capped exponential backoff; every blocking wait has
//! a configurable timeout; each process heartbeats all peers and declares
//! a peer dead when nothing (data or heartbeat) has arrived from it within
//! [`SocketConfig::peer_timeout`]. Death, unexpected EOF, or a timeout
//! poisons the fabric: every image blocked in (or later entering) a wait
//! panics with a report naming the dead process and its 1-based image
//! ranks, plus the tracer's recent-operation window when tracing is on —
//! a loud failure instead of a silent hang.
//!
//! # Layout
//!
//! Where an operation is served — this process's own memory, a same-host
//! peer's mapped segment, or the wire — is decided once, in `route`;
//! every data operation below is that decision followed by one direct arm
//! or one wire arm (DESIGN.md §3.2b tabulates the outcome per op). The
//! rest sits behind narrow seams: hosted storage and the checked resolver
//! (`store`, over `seg::Tables` — which also keeps the mapped peers, and
//! is read through per-thread views: a direct op takes no lock and touches
//! no shared reference count on its way to memory), the completion core
//! (`pending`), write combining (`egress`), connections and service
//! threads (`link`), recovery (`recover`). A data op counts itself in its
//! image's lane of the `FabricStats` (`stats`), service threads in the
//! shared cells.

mod egress;
mod link;
pub mod obs;
mod pending;
mod recover;
pub mod rendezvous;
mod route;
pub mod shm;
mod store;
pub mod testing;
pub mod wire;

pub use obs::{
    HeartbeatSnapshot, HistSnapshot, NodeTelemetry, ObsSnapshot, PeerWireSnapshot, TelemetryPhase,
};
pub use rendezvous::CoordClient;
pub use wire::{Addr, Frame, Listener, PutHead, Stream, Transport};

use crate::seg::{bump_flag, Access, Amo, FlagId, FlagWaiters, Poison, SegmentId};
use crate::stats::{FabricStats, Lane, StatsSnapshot};
use crate::{Fabric, PutToken, RecoveryError};
use caf_topology::{CostParams, ImageMap, NodeId, ProcId, SoftwareOverheads};
use caf_trace::{Event, EventKind, Tracer};
use crossbeam::utils::CachePadded;
use egress::{Egress, Urgency};
use parking_lot::Mutex;
use pending::{Entry, Kind, Pending, Reply};
use route::{Route, Tier};
use std::io;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use store::Store;
use wire::WIRE_MAGIC;

/// Configuration for a [`SocketFabric`].
#[derive(Clone, Debug)]
pub struct SocketConfig {
    /// Cost parameters (reported through [`Fabric::cost`]; the socket
    /// fabric injects no modeled delays — the wire is real).
    pub cost: CostParams,
    /// Software overheads (reported through [`Fabric::overheads`]).
    pub overheads: SoftwareOverheads,
    /// Trace sink; an enabled tracer records every fabric operation with
    /// socket queueing-vs-service split on remote ops.
    pub tracer: Tracer,
    /// Unix-domain sockets or TCP.
    pub transport: Transport,
    /// Upper bound on any single blocking remote operation (put ack, get
    /// response, AMO response) and on fleet establishment.
    pub io_timeout: Duration,
    /// How often each process sends heartbeats to every peer.
    pub heartbeat_period: Duration,
    /// A peer from which nothing has arrived for this long is dead.
    pub peer_timeout: Duration,
    /// Upper bound on one [`Fabric::flag_wait_ge`] (collectives on a
    /// healthy fleet finish in milliseconds; a wait this long means a
    /// hung or dead peer that heartbeats somehow missed).
    pub flag_wait_timeout: Duration,
    /// Survivable-fleet mode (`CAF_RESPAWN=1`): a dead peer still poisons
    /// the fabric, but service threads stay up, the data listener keeps
    /// accepting, and [`Fabric::heal`] waits for the supervisor to respawn
    /// the dead rank and for its [`Frame::Rejoin`] handshake instead of
    /// treating the death as final.
    pub respawn: bool,
    /// `Some(g)`: this process is a **respawned incarnation** of its rank
    /// (`CAF_GENERATION=g`), rejoining a running fleet to establish
    /// recovery generation `g`. It skips nothing locally — fresh slots are
    /// exactly the post-heal state — but dials peers with
    /// [`Frame::Rejoin`] instead of [`Frame::Open`] and starts its
    /// generation counter at `g - 1` so the fleet-wide heal lands everyone
    /// on `g` together.
    pub rejoin_generation: Option<u64>,
    /// Shared-memory intranode tier: host every hosted segment in an
    /// mmap-backed node segment peers on the same host map, so
    /// cross-process puts/gets/AMOs/flag adds between them skip the wire
    /// entirely. On by default where supported; `CAF_SOCKET_SHM=0` keeps
    /// the pure-socket path as the differential oracle.
    pub shm: bool,
    /// Shared-segment arena bytes reserved per hosted image
    /// (`CAF_SOCKET_SHM_BYTES`). Allocation past this (or past the shared
    /// directory's `shm::MAX_SEGS` entries) degrades gracefully: the
    /// window spills to the owner's heap, its directory entry stays
    /// unpublished, and peers reach it over the wire — the *unpublished
    /// window* rule, which with the *wire debt* rule keeps a destination
    /// reached over both tiers ordered (both stated once, in DESIGN.md
    /// §3.2b and the `route` module).
    pub shm_bytes_per_image: usize,
}

impl Default for SocketConfig {
    fn default() -> Self {
        Self {
            cost: CostParams::default(),
            overheads: SoftwareOverheads::NONE,
            tracer: Tracer::off(),
            transport: Transport::Uds,
            io_timeout: Duration::from_secs(10),
            heartbeat_period: Duration::from_millis(100),
            peer_timeout: Duration::from_secs(2),
            flag_wait_timeout: Duration::from_secs(30),
            respawn: false,
            rejoin_generation: None,
            shm: cfg!(unix),
            shm_bytes_per_image: shm::DEFAULT_ARENA_PER_IMAGE,
        }
    }
}

impl SocketConfig {
    /// Default configuration with environment overrides applied:
    /// `CAF_SOCKET_TCP=1` selects TCP, `CAF_SOCKET_IO_TIMEOUT_MS`,
    /// `CAF_SOCKET_PEER_TIMEOUT_MS`, `CAF_SOCKET_HEARTBEAT_MS`, and
    /// `CAF_SOCKET_FLAG_TIMEOUT_MS` override the corresponding timeouts.
    /// `CAF_RESPAWN=1` enables survivable-fleet mode and `CAF_GENERATION=g`
    /// (g ≥ 1, set by the supervisor on a respawned child) marks this
    /// process as a rejoining incarnation establishing generation `g`.
    /// `CAF_SOCKET_SHM=0` disables the shared-memory intranode tier and
    /// `CAF_SOCKET_SHM_BYTES` sizes its per-image arena.
    pub fn from_env() -> Self {
        let ms = |var: &str, default: Duration| {
            std::env::var(var)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .map(Duration::from_millis)
                .unwrap_or(default)
        };
        let d = Self::default();
        Self {
            transport: Transport::from_env(),
            io_timeout: ms("CAF_SOCKET_IO_TIMEOUT_MS", d.io_timeout),
            peer_timeout: ms("CAF_SOCKET_PEER_TIMEOUT_MS", d.peer_timeout),
            heartbeat_period: ms("CAF_SOCKET_HEARTBEAT_MS", d.heartbeat_period),
            flag_wait_timeout: ms("CAF_SOCKET_FLAG_TIMEOUT_MS", d.flag_wait_timeout),
            respawn: std::env::var(crate::ENV_RESPAWN).is_ok_and(|v| v == "1"),
            rejoin_generation: std::env::var(crate::ENV_GENERATION)
                .ok()
                .and_then(|v| v.parse::<u64>().ok())
                .filter(|g| *g > 0),
            shm: d.shm && std::env::var(shm::ENV_SHM).map_or(true, |v| v != "0"),
            shm_bytes_per_image: std::env::var(shm::ENV_SHM_BYTES)
                .ok()
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(d.shm_bytes_per_image),
            ..d
        }
    }
}

const PEER_ALIVE: u8 = 0;
const PEER_GRACEFUL: u8 = 1;
const PEER_DEAD: u8 = 2;

/// Poll period of every service-thread loop (bounds shutdown latency).
const POLL: Duration = Duration::from_millis(50);

/// The real-memory fabric. Build one per process of a fleet with
/// [`SocketFabric::join`], or one hosting every image with
/// [`SocketFabric::new`]; see the module docs for the protocol.
pub struct SocketFabric {
    map: ImageMap,
    cfg: SocketConfig,
    stats: FabricStats,
    start: Instant,
    /// Occupied nodes in `NodeId` order; index = process rank.
    occ: Vec<NodeId>,
    /// Process rank hosting each global image.
    proc_of_image: Vec<usize>,
    /// Each global image's index among the images of its own process —
    /// its slot in that process's shared segment.
    local_of_image: Vec<u32>,
    /// This process's rank in `occ`.
    node_rank: usize,
    /// Images this process hosts, in rank order.
    hosted: Vec<ProcId>,
    store: Store,
    /// Egress write halves per peer process rank (empty at own rank).
    /// Write-once, set by the first dial, so the request path reads a
    /// slot without a lock: a re-dial (a rejoin handshake's back-dial to a
    /// respawned peer) swaps the stream inside the `Egress`, under its cork
    /// lock ([`Egress::redial`]). A request is numbered at append under
    /// the cork lock and registered in one batch before the write.
    egress: Vec<OnceLock<Arc<Egress>>>,
    /// Per peer process rank, the response-carrying requests to it that
    /// are unacked — its *wire debt* (see `route`). Counted by the rank's
    /// `Egress`, and owned here so that `route` reads it with one load,
    /// behind no lock, before the first dial too.
    wire_debt: Vec<Arc<AtomicU64>>,
    /// How response readers hand the ack-clocked flush to the
    /// `caf-sock-egress` thread (see [`egress`]).
    ack_clock: egress::AckClock,
    pending: Arc<Pending>,
    /// Buffers remote gets land in, recycled: a response reader fills one
    /// and hands it to the requester ([`Reply::Data`]), who copies out and
    /// puts it back. At most one per hosted image is kept.
    get_bufs: Mutex<Vec<Vec<u8>>>,
    /// Parked `flag_wait_ge` callers.
    waiters: FlagWaiters,
    poisoned: Poison,
    trace_sys_lock: Mutex<()>,
    /// Liveness per peer process: ns-since-start of the last frame seen.
    last_seen: Vec<CachePadded<AtomicU64>>,
    peer_state: Vec<AtomicU8>,
    /// Observability probes: per-peer wire counters, put-ack latency
    /// histogram, heartbeat jitter (see [`obs`]).
    obs: obs::SocketObs,
    /// Each peer's counter snapshot from its most recent heartbeat — the
    /// fleet's last-known picture of a process that stops talking.
    last_peer_stats: Vec<Mutex<Option<StatsSnapshot>>>,
    /// Ingress connections established so far (fleet bring-up gate).
    ingress_up: AtomicUsize,
    /// Hosted images that called `image_done`.
    done_count: AtomicUsize,
    /// All hosted images finished — EOFs are expected from here on.
    all_done: AtomicBool,
    /// Orderly teardown requested; service threads drain and exit.
    shutting_down: AtomicBool,
    /// Fault-injection hook tripped (see [`SocketFabric::sever`]).
    severed: AtomicBool,
    recovery: recover::Recovery,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl SocketFabric {
    /// Join a fleet: build this process's fabric, bind a data-plane
    /// listener, rendezvous through the coordinator at `coord`, and — in a
    /// fleet of more than one process — connect to every peer (with
    /// retry/backoff) and start the service threads. Returns the fabric
    /// plus the still-open coordinator connection (for
    /// [`CoordClient::send_done`]).
    ///
    /// `node_rank` is this process's index into the occupied-node list of
    /// `map` (rank `i` hosts the images of the `i`-th occupied node).
    pub fn join(
        map: ImageMap,
        node_rank: usize,
        coord: &Addr,
        cfg: SocketConfig,
    ) -> io::Result<(Arc<SocketFabric>, CoordClient)> {
        let plan: Vec<_> = (map.process_plan().into_iter())
            .map(|(node, images)| (node, images.to_vec()))
            .collect();
        let n_procs = plan.len();
        if node_rank >= n_procs {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node rank {node_rank} out of {n_procs} occupied nodes"),
            ));
        }
        let (transport, io_timeout) = (cfg.transport, cfg.io_timeout);
        let fabric = Self::build(map, plan, node_rank, cfg);
        let listener = Listener::bind(transport)?;
        let listen_addr = listener.local_addr()?;
        let (coord_client, peers) =
            CoordClient::join(coord, node_rank as u32, &listen_addr, io_timeout)?;
        if peers.len() != n_procs {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "coordinator announced {} members but the image map has {n_procs} \
                     occupied nodes",
                    peers.len()
                ),
            ));
        }
        if n_procs > 1 {
            fabric.connect(listener, &listen_addr, &peers)?;
        }
        Ok((fabric, coord_client))
    }

    /// The fabric of process `node_rank` of `plan` (rank `i` hosts the
    /// images `plan[i].1` of occupied node `plan[i].0`): its store, lanes
    /// and pending table, and no connection, thread or socket. A plan of
    /// one process is a whole run: every op is served from its memory.
    pub(crate) fn build(
        map: ImageMap,
        plan: Vec<(NodeId, Vec<ProcId>)>,
        node_rank: usize,
        cfg: SocketConfig,
    ) -> Arc<SocketFabric> {
        let (n_images, n_procs) = (map.n_images(), plan.len());
        let mut proc_of_image = vec![0usize; n_images];
        let mut local_of_image = vec![0u32; n_images];
        for (rank, (_, images)) in plan.iter().enumerate() {
            for (local, img) in images.iter().enumerate() {
                proc_of_image[img.index()] = rank;
                local_of_image[img.index()] = local as u32;
            }
        }
        let occ: Vec<NodeId> = plan.iter().map(|(node, _)| *node).collect();
        let hosted = plan.into_iter().nth(node_rank).expect("rank in plan").1;
        // All-or-nothing per fleet: mixing shm and heap segments for one
        // image would let a peer's data ops to it take different paths
        // and lose program order.
        let node_shm = if cfg.shm && n_procs > 1 {
            match shm::NodeShm::create(
                node_rank,
                cfg.rejoin_generation.unwrap_or(0),
                hosted.len(),
                cfg.shm_bytes_per_image,
            ) {
                Ok(s) => Some(s),
                Err(e) => {
                    eprintln!("caf-socket: shared-memory tier disabled: {e}");
                    None
                }
            }
        } else {
            None
        };
        let stats = FabricStats::with_lanes(hosted.len());
        let store = Store::new(n_images, &hosted, (node_rank, n_procs), node_shm, &stats);
        Arc::new(SocketFabric {
            map,
            stats,
            start: Instant::now(),
            proc_of_image,
            local_of_image,
            node_rank,
            hosted,
            store,
            egress: (0..n_procs).map(|_| OnceLock::new()).collect(),
            wire_debt: (0..n_procs).map(|_| Arc::default()).collect(),
            ack_clock: egress::AckClock::default(),
            pending: Arc::new(Pending::new(n_images, n_procs)),
            get_bufs: Mutex::new(Vec::new()),
            waiters: FlagWaiters::default(),
            poisoned: Poison::default(),
            trace_sys_lock: Mutex::new(()),
            last_seen: (0..n_procs)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            peer_state: (0..n_procs).map(|_| AtomicU8::new(PEER_ALIVE)).collect(),
            obs: obs::SocketObs::new(n_procs, cfg.heartbeat_period.as_nanos() as u64),
            last_peer_stats: (0..n_procs).map(|_| Mutex::new(None)).collect(),
            ingress_up: AtomicUsize::new(0),
            done_count: AtomicUsize::new(0),
            all_done: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            severed: AtomicBool::new(false),
            recovery: recover::Recovery::new(cfg.rejoin_generation.map_or(0, |g| g - 1)),
            threads: Mutex::new(Vec::new()),
            occ,
            cfg,
        })
    }

    /// Bring up the fleet around a built fabric: accept on `listener`
    /// (announced to the coordinator as `listen_addr`), dial every other
    /// member of `peers`, wait until every connection is up, and start the
    /// egress, accept and heartbeat threads.
    fn connect(
        self: &Arc<Self>,
        listener: Listener,
        listen_addr: &Addr,
        peers: &[Addr],
    ) -> io::Result<()> {
        let others = peers.len() - 1;
        // Up before the first dial: response readers poke it.
        let eg = self.clone();
        let t = self.spawn_guarded("egress", move || eg.egress_loop());
        self.ack_clock.attach(t);
        self.spawn_accepting(listener, others);
        // A respawned incarnation announces itself with Rejoin (which
        // carries its fresh listen address so survivors can back-dial);
        // a first-life member sends the plain Open handshake.
        let hello = match self.cfg.rejoin_generation {
            Some(generation) => Frame::Rejoin {
                node: self.node_rank as u32,
                generation,
                addr: listen_addr.to_string(),
                magic: WIRE_MAGIC,
                shm: self.store.shm_path(),
            },
            None => self.open_frame(),
        };
        for (rank, addr) in peers.iter().enumerate() {
            if rank != self.node_rank {
                self.dial_peer(rank, addr, &hello)?;
            }
        }
        self.wait_established(others)?;
        let hb = self.clone();
        self.spawn_guarded("heartbeat", move || hb.heartbeat_loop());
        Ok(())
    }

    /// Images hosted by this process, in rank order.
    pub fn hosted(&self) -> &[ProcId] {
        &self.hosted
    }

    /// Assemble this process's observability shipment: counters, wire
    /// probes, and — except for [`TelemetryPhase::Live`] — the full
    /// retained trace window. `cause` is recorded for flight recorders.
    pub fn node_telemetry(&self, phase: TelemetryPhase, cause: Option<&str>) -> NodeTelemetry {
        NodeTelemetry {
            node: self.node_rank as u32,
            phase,
            sent_at_ns: self.wall_now(),
            cause: cause.unwrap_or_default().to_string(),
            images: self.hosted.iter().map(|p| p.index() as u32).collect(),
            stats: self.stats.snapshot(),
            obs: self.obs.snapshot(),
            events: if phase == TelemetryPhase::Live {
                Vec::new()
            } else {
                self.cfg.tracer.events()
            },
        }
    }

    /// The counter snapshot `peer` shipped in its most recent heartbeat,
    /// if any arrived.
    pub fn last_peer_stats(&self, peer: usize) -> Option<StatsSnapshot> {
        *self.last_peer_stats[peer].lock()
    }

    /// This process's rank among the fleet's occupied nodes.
    pub fn node_rank(&self) -> usize {
        self.node_rank
    }

    /// Orderly teardown: stop and join every service thread, closing all
    /// connections. Call from the launching thread after the hosted images
    /// finished (never from a fabric callback — it joins the very threads
    /// a callback may run on).
    pub fn shutdown(&self) {
        self.flush_corked();
        self.shutting_down.store(true, Ordering::Release);
        self.ack_clock.poke(); // parked, not polling a socket: wake it to exit
        let handles: Vec<_> = self.threads.lock().drain(..).collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// Fault-injection hook: abruptly stop serving — close every egress
    /// write half (whatever is corked on it is lost, as in a crash), stop
    /// answering requests and heartbeats — *without* the graceful `Bye`. To
    /// every peer this process is now indistinguishable from a killed one;
    /// used by tests to exercise the death-detection path inside one OS
    /// process.
    pub fn sever(&self) {
        self.severed.store(true, Ordering::Release);
        for e in self.egress.iter().filter_map(OnceLock::get) {
            e.shutdown_write();
        }
    }

    /// Poison the fabric with `msg` and hand it back to panic with.
    fn poison_with(&self, msg: String) -> String {
        self.poison(&msg);
        msg
    }

    /// Append the tracer's recent-operation window to a failure report.
    fn push_recent_ops(&self, msg: &mut String) {
        if self.cfg.tracer.enabled() {
            msg.push_str("\nrecent operations before the failure:\n");
            msg.push_str(&self.cfg.tracer.render_recent(5));
        }
    }

    #[inline]
    fn wall_now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Hosted image `me`'s counter lane: where the ops it issues count
    /// themselves.
    #[inline]
    fn lane(&self, me: ProcId) -> Lane<'_> {
        self.stats.lane(self.local_of_image[me.index()] as usize)
    }

    /// Now, when the tracer is on: the one read of it an op makes.
    #[inline]
    fn trace_start(&self) -> Option<u64> {
        self.cfg.tracer.enabled().then(|| self.wall_now())
    }

    /// Start tracing `me`'s op of `kind` on `peer`.
    #[inline]
    fn begin(&self, kind: EventKind, me: ProcId, peer: ProcId) -> Op<'_> {
        Op {
            fab: self,
            kind,
            me,
            peer,
            t0: self.trace_start(),
        }
    }

    /// Does `me`'s op on `peer`, served from memory at `tier`, count and
    /// trace as intra-node? A mapped peer is on this host; an image of
    /// this process is when the map puts it on `me`'s node — always, in a
    /// fleet, whose processes are its nodes.
    #[inline]
    fn intra(&self, tier: Tier, me: ProcId, peer: ProcId) -> bool {
        tier == Tier::Mapped || self.map.colocated(me, peer)
    }

    /// Bump hosted image `img`'s `flag` in `cell` on behalf of image
    /// `from`, record the delivery, and wake parked waiters — the wake is
    /// this fabric's own, taken only for a cell it hosts: a mapped peer's
    /// waiter polls. `posted`: when a sender of this process issued the
    /// add (`None` when the tracer is off); `None` for a frame's, whose
    /// delivery is stamped with its landing and is never intra-node.
    #[inline]
    fn land_flag(
        &self,
        cell: &AtomicU64,
        from: usize,
        img: usize,
        flag: FlagId,
        delta: u64,
        posted: Option<u64>,
    ) {
        bump_flag(cell, img, flag, delta);
        if self.cfg.tracer.enabled() {
            let t = self.wall_now();
            let near = from == img || self.map.colocated(ProcId(from), ProcId(img));
            let intra = posted.is_some() && near;
            let _g = self.trace_sys_lock.lock();
            self.cfg.tracer.record_system(
                Event::instant(EventKind::FlagDeliver, t)
                    .a(from as u64)
                    .b(flag.0 as u64)
                    .c(posted.unwrap_or(t))
                    .d(img as u64)
                    .intra(intra),
            );
        }
        self.waiters.wake();
    }

    /// A remote atomic on the 8-byte cell at `offset` of `target`'s window
    /// `seg`: applied to the window where that is reachable directly, else
    /// sent to the hosting process, which answers with the old value.
    #[inline]
    fn amo(&self, me: ProcId, target: ProcId, seg: SegmentId, offset: usize, amo: Amo) -> u64 {
        self.lane(me).record_amo();
        let (kind, doing) = match amo {
            Amo::Add(_) => (EventKind::AmoFetchAdd, "remote fetch-add"),
            Amo::Cas { .. } => (EventKind::AmoCas, "remote compare-and-swap"),
        };
        let op = self.begin(kind, me, target);
        match self.route_span(me, target, Access::Amo, seg, offset, 8) {
            Route::Direct(window, tier) => {
                let old = window.amo(offset, amo);
                if tier == Tier::Mapped {
                    self.lane(me).record_shm_flag();
                }
                op.direct(tier, offset as u64);
                old
            }
            Route::Wire => {
                let (src, dst) = (me.index() as u32, target.index() as u32);
                let (seg, off) = (seg.0 as u64, offset as u64);
                let frame = |req| match amo {
                    Amo::Add(delta) => Frame::AmoFadd {
                        src,
                        dst,
                        seg,
                        off,
                        delta,
                        req,
                    },
                    Amo::Cas { expected, new } => Frame::AmoCas {
                        src,
                        dst,
                        seg,
                        off,
                        expected,
                        new,
                        req,
                    },
                };
                let (reply, queue_ns, service_ns) = self.call(&op, doing, Kind::Val, whole(frame));
                let Reply::Val(old) = reply else {
                    panic!("AMO got a non-value response");
                };
                op.wire(offset as u64, queue_ns, service_ns);
                old
            }
        }
    }
}

/// One traced fabric op: what, by whom, on whom, since when (`None` when
/// the tracer is off, so no step of the op reads it again).
struct Op<'a> {
    fab: &'a SocketFabric,
    kind: EventKind,
    me: ProcId,
    peer: ProcId,
    t0: Option<u64>,
}

impl Op<'_> {
    /// Served from memory at `tier`: a local span.
    #[inline]
    fn direct(&self, tier: Tier, bytes: u64) {
        let Some(t0) = self.t0 else { return };
        let ev = Event::span(self.kind, t0, self.fab.wall_now().saturating_sub(t0))
            .a(self.peer.index() as u64)
            .b(bytes);
        self.record(ev, self.fab.intra(tier, self.me, self.peer));
    }

    /// Served over the wire: a span with the socket queueing-vs-service
    /// split (`c` = writer-queue ns, `d` = service ns — wire + remote apply
    /// + response), mirroring the simulator's Put convention.
    #[inline]
    fn wire(&self, bytes: u64, queue_ns: u64, service_ns: u64) {
        let Some(t0) = self.t0 else { return };
        let ev = Event::span(self.kind, t0, self.fab.wall_now().saturating_sub(t0))
            .a(self.peer.index() as u64)
            .b(bytes)
            .c(queue_ns)
            .d(service_ns);
        self.record(ev, false);
    }

    /// The op's flag add of `delta` to `flag`, issued when the op began
    /// (`intra`: served from memory on `me`'s node or host, not sent by
    /// frame).
    #[inline]
    fn flag_add(&self, flag: FlagId, delta: u64, intra: bool) {
        let Some(t0) = self.t0 else { return };
        let ev = Event::instant(EventKind::FlagAdd, t0)
            .a(self.peer.index() as u64)
            .b(flag.0 as u64)
            .c(delta)
            .d(self.fab.wall_now());
        self.record(ev, intra);
    }

    /// Record `ev` on `me`'s ring: self-targeted, or `intra` or not. Cold:
    /// the tracer is off unless a run installs one.
    #[cold]
    fn record(&self, ev: Event, intra: bool) {
        let ev = if self.me == self.peer {
            ev.self_target()
        } else {
            ev.intra(intra)
        };
        self.fab.cfg.tracer.record(self.me.index(), ev);
    }
}

/// How a request with no bulk payload is encoded: whole, as the owned frame
/// `frame` builds around the request's sequence number.
fn whole(frame: impl FnOnce(u64) -> Frame) -> impl FnOnce(u64, &mut Vec<u8>) -> &'static [u8] {
    move |req, b| {
        frame(req).encode_into(b);
        &[]
    }
}

impl Fabric for SocketFabric {
    fn n_images(&self) -> usize {
        self.map.n_images()
    }

    fn image_map(&self) -> &ImageMap {
        &self.map
    }

    fn cost(&self) -> &CostParams {
        &self.cfg.cost
    }

    fn overheads(&self) -> &SoftwareOverheads {
        &self.cfg.overheads
    }

    fn stats(&self) -> &FabricStats {
        &self.stats
    }

    fn tracer(&self) -> &Tracer {
        &self.cfg.tracer
    }

    fn process_telemetry(
        &self,
        phase: TelemetryPhase,
        cause: Option<&str>,
    ) -> Option<NodeTelemetry> {
        Some(self.node_telemetry(phase, cause))
    }

    fn alloc_segment(&self, me: ProcId, bytes: usize) -> SegmentId {
        self.store.alloc_segment(me, bytes, &self.stats)
    }

    fn alloc_flags(&self, me: ProcId, count: usize) -> FlagId {
        self.store.alloc_flags(me, count, &self.stats)
    }

    fn put(&self, me: ProcId, dst: ProcId, seg: SegmentId, offset: usize, bytes: &[u8]) {
        let op = self.begin(EventKind::Put, me, dst);
        let len = bytes.len();
        match self.route_span(me, dst, Access::Put, seg, offset, len) {
            Route::Direct(window, tier) => {
                window.write(offset, bytes);
                match tier {
                    Tier::Own if me == dst => {}
                    Tier::Own => self.lane(me).record_put(self.intra(tier, me, dst), len),
                    Tier::Mapped => {
                        // The data is globally visible before any later
                        // flag/AMO the peer could observe. No frame, no
                        // ack, nothing for `quiet` to drain.
                        fence(Ordering::Release);
                        self.lane(me).record_shm_put(len);
                    }
                }
                op.direct(tier, len as u64);
            }
            Route::Wire => {
                self.lane(me).record_put(false, len);
                let (reply, queue_ns, service_ns) =
                    self.call(&op, "remote put", Kind::Ack, |ack, b| {
                        let (src, dst) = (me.index() as u32, dst.index() as u32);
                        let (seg, off) = (seg.0 as u64, offset as u64);
                        let head = PutHead {
                            src,
                            dst,
                            seg,
                            off,
                            ack,
                            len,
                            flag: None,
                        };
                        head.encode_head(b, bytes)
                    });
                assert!(matches!(reply, Reply::Ack), "put got a non-ack response");
                self.obs.put_ack(service_ns);
                op.wire(len as u64, queue_ns, service_ns);
            }
        }
    }

    fn put_nb(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
    ) -> PutToken {
        let op = self.begin(EventKind::PutNb, me, dst);
        let len = bytes.len();
        match self.route_span(me, dst, Access::Put, seg, offset, len) {
            Route::Direct(window, tier) => {
                // A direct put completes at injection: it counts through
                // both nb counters so the injected == completed invariant
                // the litmus suite checks holds across the mixed fabric.
                window.write(offset, bytes);
                let lane = self.lane(me);
                match tier {
                    Tier::Own if me == dst => {}
                    Tier::Own => {
                        lane.record_put_nb(self.intra(tier, me, dst), len);
                        lane.record_put_nb_complete();
                    }
                    Tier::Mapped => {
                        fence(Ordering::Release);
                        lane.record_shm_put(len);
                        lane.record_put_nb_inject();
                        lane.record_put_nb_complete();
                    }
                }
                op.direct(tier, len as u64);
                PutToken::DONE
            }
            Route::Wire => {
                self.lane(me).record_put_nb(false, len);
                let (img, put) = (me.index() as u32, true);
                let awaits = Some(Entry::Nb { img, put });
                let (rank, sent) = self.send_request(&op, awaits, Urgency::Data, |ack, b| {
                    let (src, dst) = (me.index() as u32, dst.index() as u32);
                    let (seg, off) = (seg.0 as u64, offset as u64);
                    let head = PutHead {
                        src,
                        dst,
                        seg,
                        off,
                        ack,
                        len,
                        flag: None,
                    };
                    head.encode_head(b, bytes)
                });
                op.wire(len as u64, sent.queue_ns, 0);
                // The token smuggles the request's place in its peer's ring
                // (never 0, the completed token); `put_test`/`put_wait`
                // resolve it against the pending table.
                Pending::token(rank, sent.seq)
            }
        }
    }

    fn put_test(&self, _me: ProcId, token: PutToken) -> bool {
        if token.arrival_ns == 0 {
            return true;
        }
        if !self.pending.is_pending(token) {
            return true;
        }
        // A program polling this must make progress: the put may be corked
        // (and pending all the same: numbered, not yet registered).
        self.flush_corked();
        false
    }

    fn put_wait(&self, me: ProcId, token: PutToken) {
        if token.arrival_ns == 0 {
            return;
        }
        let timed_out = || {
            self.poison_with(format!(
                "image {} put_wait: no ack within {:?}",
                me.index() + 1,
                self.cfg.io_timeout
            ))
        };
        self.wait_pending(me, "put_wait", timed_out, |t| {
            (!t.is_pending(token, &self.pending.numbered)).then_some(())
        });
    }

    fn get(&self, me: ProcId, src: ProcId, seg: SegmentId, offset: usize, out: &mut [u8]) {
        let op = self.begin(EventKind::Get, me, src);
        let len = out.len();
        match self.route_span(me, src, Access::Get, seg, offset, len) {
            Route::Direct(window, tier) => {
                match tier {
                    Tier::Own if me == src => {}
                    Tier::Own => self.lane(me).record_get(self.intra(tier, me, src), len),
                    Tier::Mapped => {
                        fence(Ordering::Acquire);
                        self.lane(me).record_shm_get(len);
                    }
                }
                window.read(offset, out);
                op.direct(tier, len as u64);
            }
            Route::Wire => {
                self.lane(me).record_get(false, len);
                let frame = |req| Frame::Get {
                    src: me.index() as u32,
                    dst: src.index() as u32,
                    seg: seg.0 as u64,
                    off: offset as u64,
                    len: len as u32,
                    req,
                };
                let (reply, queue_ns, service_ns) =
                    self.call(&op, "remote get", Kind::Data, whole(frame));
                let Reply::Data { buf, len: got } = reply else {
                    panic!("get got a non-data response");
                };
                assert_eq!(got, len, "get response length mismatch");
                out.copy_from_slice(&buf[..len]);
                let mut pool = self.get_bufs.lock();
                if buf.len() <= link::KEEP_BYTES && pool.len() < self.hosted.len() {
                    pool.push(buf);
                }
                drop(pool);
                op.wire(len as u64, queue_ns, service_ns);
            }
        }
    }

    fn amo_fetch_add_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        delta: u64,
    ) -> u64 {
        self.amo(me, target, seg, offset, Amo::Add(delta))
    }

    fn amo_cas_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        expected: u64,
        new: u64,
    ) -> u64 {
        self.amo(me, target, seg, offset, Amo::Cas { expected, new })
    }

    fn flag_add(&self, me: ProcId, target: ProcId, flag: FlagId, delta: u64) {
        let op = self.begin(EventKind::FlagAdd, me, target);
        let intra = match self.route_flag(me, target, flag) {
            Route::Direct(cell, tier) => {
                let intra = self.intra(tier, me, target);
                match tier {
                    Tier::Own => {
                        if me != target {
                            self.lane(me).record_flag(intra);
                        }
                        let (from, img) = (me.index(), target.index());
                        self.land_flag(cell.cell(), from, img, flag, delta, op.t0);
                    }
                    Tier::Mapped => {
                        // Release on the shared cell publishes every prior
                        // shm put to this peer; the waiter's acquire load
                        // pairs with it. Its parked phase is a bounded
                        // (200µs) poll, so no cross-process notification
                        // is needed.
                        bump_flag(cell.cell(), target.index(), flag, delta);
                        self.lane(me).record_shm_flag();
                    }
                }
                intra
            }
            Route::Wire => {
                self.lane(me).record_flag(false);
                // Fire-and-forget: ordering with prior puts to the same
                // target comes from the shared per-peer connection (frames
                // apply in send order) — or from sharing the frame of the
                // `put_nb` right before it, if that is still corked.
                self.send_flag(&op, flag.0 as u64, delta);
                false
            }
        };
        op.flag_add(flag, delta, intra);
    }

    fn put_flag(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
        flag: FlagId,
        delta: u64,
    ) {
        if bytes.is_empty() {
            return self.flag_add(me, dst, flag, delta);
        }
        let op = self.begin(EventKind::Put, me, dst);
        let len = bytes.len();
        let intra = match self.route_put_flag(me, dst, (seg, offset, len), flag) {
            Route::Direct((window, cell), tier) => {
                window.write(offset, bytes);
                let (lane, intra) = (self.lane(me), self.intra(tier, me, dst));
                match tier {
                    Tier::Own => {
                        if me != dst {
                            lane.record_put(intra, len);
                            lane.record_flag(intra);
                        }
                        let (from, img) = (me.index(), dst.index());
                        self.land_flag(cell.cell(), from, img, flag, delta, op.t0);
                    }
                    Tier::Mapped => {
                        // The flag's release add publishes the payload.
                        bump_flag(cell.cell(), dst.index(), flag, delta);
                        lane.record_shm_put(len);
                        lane.record_shm_flag();
                    }
                }
                op.direct(tier, len as u64);
                intra
            }
            Route::Wire => {
                let lane = self.lane(me);
                lane.record_put(false, len);
                lane.record_flag(false);
                // One `PutFlag` frame, a signal; its ack retires debt that
                // `quiet` waits for, as a `put_nb`'s does — nobody blocks on it.
                let (src, img) = (me.index() as u32, dst.index() as u32);
                let awaits = Some(Entry::Nb {
                    img: src,
                    put: false,
                });
                let (_, sent) = self.send_request(&op, awaits, Urgency::Signal, |ack, b| {
                    let (seg, off) = (seg.0 as u64, offset as u64);
                    let flag = Some((flag.0 as u64, delta));
                    let head = PutHead {
                        src,
                        dst: img,
                        seg,
                        off,
                        ack,
                        len,
                        flag,
                    };
                    head.encode_head(b, bytes)
                });
                op.wire(len as u64, sent.queue_ns, 0);
                false
            }
        };
        op.flag_add(flag, delta, intra);
    }

    fn flag_wait_ge(&self, me: ProcId, flag: FlagId, at_least: u64) {
        self.lane(me).record_flag_wait();
        self.flush_corked();
        let t0 = self.trace_start();
        let cell_owner = (self.store.flag(me.index(), flag.0)).unwrap_or_else(|e| panic!("{e}"));
        let cell = cell_owner.cell();
        // Built on the first miss: a wait that is already satisfied reads
        // no clock.
        let mut deadline = None;
        self.waiters.wait_ge(cell, at_least, |clock_due| {
            self.poisoned.check(me, "flag wait");
            if !clock_due {
                return;
            }
            let now = Instant::now();
            if now > *deadline.get_or_insert(now + self.cfg.flag_wait_timeout) {
                let mut msg = format!(
                    "image {} flag wait timed out after {:?} ({flag:?} = {} < {at_least})",
                    me.index() + 1,
                    self.cfg.flag_wait_timeout,
                    cell.load(Ordering::Acquire),
                );
                self.push_recent_ops(&mut msg);
                panic!("{}", self.poison_with(msg));
            }
        });
        if let Some(t0) = t0 {
            let t1 = self.wall_now();
            self.cfg.tracer.record(
                me.index(),
                Event::span(EventKind::FlagWait, t0, t1.saturating_sub(t0))
                    .a(flag.0 as u64)
                    .b(at_least),
            );
        }
    }

    fn flag_read(&self, me: ProcId, flag: FlagId) -> u64 {
        (self.store.flag(me.index(), flag.0))
            .unwrap_or_else(|e| panic!("{e}"))
            .cell()
            .load(Ordering::Acquire)
    }

    fn quiet(&self, me: ProcId) {
        let timed_out = || {
            self.poison_with(format!(
                "image {} quiet: outstanding puts unacked after {:?}",
                me.index() + 1,
                self.cfg.io_timeout
            ))
        };
        self.wait_pending(me, "quiet", timed_out, |t| {
            (!t.has_debt(me.index())).then_some(())
        });
        fence(Ordering::SeqCst);
    }

    fn compute(&self, _me: ProcId, _ns: u64) {
        // Real computation takes real wall time; nothing to account.
    }

    fn now_ns(&self, _me: ProcId) -> u64 {
        self.wall_now()
    }

    fn image_done(&self, _me: ProcId) {
        self.flush_corked();
        let done = self.done_count.fetch_add(1, Ordering::AcqRel) + 1;
        if done == self.hosted.len() {
            self.all_done.store(true, Ordering::Release);
            let bye = Frame::Bye {
                node: self.node_rank as u32,
            };
            for rank in 0..self.egress.len() {
                let _ = self.send_control(rank, &bye);
            }
        }
    }

    fn health(&self) -> Result<(), RecoveryError> {
        self.poisoned.health()
    }

    fn alive_images(&self) -> Vec<ProcId> {
        (0..self.map.n_images())
            .map(ProcId)
            .filter(|img| {
                let rank = self.proc_of_image[img.index()];
                rank == self.node_rank || self.peer_state[rank].load(Ordering::Acquire) != PEER_DEAD
            })
            .collect()
    }

    fn generation(&self) -> u64 {
        self.recovery.generation.load(Ordering::Acquire)
    }

    fn heal(&self, _me: ProcId) -> Result<(), RecoveryError> {
        self.heal_rendezvous()
    }

    fn poison(&self, msg: &str) {
        self.poisoned.set(msg);
        self.waiters.wake();
        self.pending.wake_all();
    }
}

#[cfg(test)]
mod tests {
    use super::link::Response;
    use super::testing::{fleet, run_fleet};
    use super::*;
    use crate::am::AmOp;
    use crate::seg::Window;
    use caf_topology::{presets, Placement};

    const BSEG: SegmentId = crate::bootstrap::SEG;
    const SPARE_FLAG: FlagId = FlagId(2);
    const SPARE_FLAG2: FlagId = FlagId(3);

    fn map(nodes: usize, cores: usize, images: usize) -> ImageMap {
        ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed)
    }

    impl SocketFabric {
        /// Hosted image `img`'s window `seg`, through the resolver.
        pub(crate) fn window(&self, img: usize, seg: SegmentId) -> std::rc::Rc<Window> {
            (self.store.window(Access::Get, img, seg.0, 0, 0)).expect("hosted window")
        }
    }

    fn quick_cfg() -> SocketConfig {
        SocketConfig {
            io_timeout: Duration::from_secs(5),
            flag_wait_timeout: Duration::from_secs(5),
            ..SocketConfig::default()
        }
    }

    #[test]
    fn cross_process_put_flag_get_roundtrip() {
        // 2 nodes × 2 cores, 4 images: image 0 (process 0) writes to image
        // 2 (process 1), flags it, and waits for an ack flag — the
        // put-then-flag visibility contract over a real socket.
        let fabrics = fleet(&map(2, 2, 4), &quick_cfg());
        assert_eq!(fabrics.len(), 2);
        run_fleet(&fabrics, |f, me| {
            for round in 1..=20u64 {
                if me == ProcId(0) {
                    f.put(me, ProcId(2), BSEG, 0, &round.to_ne_bytes());
                    f.flag_add(me, ProcId(2), SPARE_FLAG, 1);
                    f.flag_wait_ge(me, SPARE_FLAG2, round);
                } else if me == ProcId(2) {
                    f.flag_wait_ge(me, SPARE_FLAG, round);
                    let mut out = [0u8; 8];
                    f.get(me, me, BSEG, 0, &mut out);
                    assert_eq!(u64::from_ne_bytes(out), round, "round {round}");
                    f.flag_add(me, ProcId(0), SPARE_FLAG2, 1);
                }
            }
            f.image_done(me);
        });
    }

    #[test]
    fn remote_get_reads_what_remote_put_wrote() {
        let fabrics = fleet(&map(2, 1, 2), &quick_cfg());
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(0) {
                let payload: Vec<u8> = (0..48).collect();
                f.put(me, ProcId(1), BSEG, 8, &payload);
                // Blocking put is remotely complete on return: a get must
                // observe it without any flag synchronization.
                let mut out = vec![0u8; 48];
                f.get(me, ProcId(1), BSEG, 8, &mut out);
                assert_eq!(out, payload);
            }
            f.image_done(me);
        });
    }

    #[test]
    fn remote_amos_are_atomic_across_processes() {
        let n = 4;
        let fabrics = fleet(&map(2, 2, n), &quick_cfg());
        run_fleet(&fabrics, |f, me| {
            for _ in 0..250 {
                f.amo_fetch_add_u64(me, ProcId(0), BSEG, 0, 1);
            }
            f.image_done(me);
        });
        // All fabrics still alive (run_fleet shut them down); check the
        // counter through the hosting fabric's local path.
        let mut out = [0u8; 8];
        fabrics[0].window(0, BSEG).read(0, &mut out);
        assert_eq!(u64::from_ne_bytes(out), (n * 250) as u64);
    }

    #[test]
    fn remote_cas_swaps_exactly_once() {
        let fabrics = fleet(&map(2, 1, 2), &quick_cfg());
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(1) {
                let old = f.amo_cas_u64(me, ProcId(0), BSEG, 8, 0, 99);
                assert_eq!(old, 0);
                let old = f.amo_cas_u64(me, ProcId(0), BSEG, 8, 0, 77);
                assert_eq!(old, 99, "second CAS must see the first swap");
            }
            f.image_done(me);
        });
    }

    #[test]
    fn put_nb_token_resolves_and_quiet_drains() {
        let fabrics = fleet(&map(2, 1, 2), &quick_cfg());
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(0) {
                let tokens: Vec<PutToken> = (0..16u64)
                    .map(|i| f.put_nb(me, ProcId(1), BSEG, (i * 8) as usize, &i.to_ne_bytes()))
                    .collect();
                f.quiet(me);
                for t in tokens {
                    assert!(f.put_test(me, t), "token unresolved after quiet");
                    f.put_wait(me, t); // must be a no-op now
                }
                let mut out = [0u8; 8];
                f.get(me, ProcId(1), BSEG, 15 * 8, &mut out);
                assert_eq!(u64::from_ne_bytes(out), 15);
            }
            f.image_done(me);
        });
    }

    #[test]
    fn a_corked_put_nb_is_pending_to_put_test_and_quiet_covers_it() {
        // Shm off: the puts take the wire, where a `put_nb` is corked.
        let cfg = SocketConfig {
            shm: false,
            ..quick_cfg()
        };
        let fabrics = fleet(&map(2, 1, 2), &cfg);
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(0) {
                let put =
                    |i: u64| f.put_nb(me, ProcId(1), BSEG, (i * 8) as usize, &i.to_ne_bytes());
                // Numbered, not yet registered or written: pending all the
                // same (and the poll writes it out).
                let first = put(1);
                assert_ne!(first, PutToken::DONE);
                assert!(!f.put_test(me, first), "a corked put_nb reads complete");
                let second = put(2);
                f.quiet(me);
                assert!(f.put_test(me, first) && f.put_test(me, second));
                let mut out = [0u8; 8];
                f.get(me, ProcId(1), BSEG, 16, &mut out);
                assert_eq!(u64::from_ne_bytes(out), 2);
            }
            f.image_done(me);
        });
    }

    #[test]
    fn wire_counters_count_remote_traffic_only() {
        // Pin shm off: this test asserts wire frame/byte counts that the
        // shared-memory fast path would (correctly) bypass.
        let cfg = SocketConfig {
            shm: false,
            ..quick_cfg()
        };
        let fabrics = fleet(&map(2, 1, 2), &cfg);
        let f0 = fabrics[0].clone();
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(0) {
                f.put(me, ProcId(1), BSEG, 0, &[1u8; 32]); // remote: framed
                f.put(me, ProcId(0), BSEG, 0, &[1u8; 32]); // local: no wire
            }
            f.image_done(me);
        });
        let s = f0.stats().snapshot();
        assert!(s.wire_frames_tx >= 2, "Open + Put at minimum: {s:?}");
        assert!(
            s.wire_bytes_tx > 32,
            "frame overhead must appear in wire bytes"
        );
        assert!(s.wire_frames_rx >= 1, "put ack must be counted: {s:?}");
        assert_eq!(s.puts_intra, 0, "self-put is uncounted, local framing off");
    }

    /// Process 0 sends `frame` to process 1 of a fresh two-process wire
    /// fleet; returns process 1's poison report, having checked that no
    /// byte of its hosted window moved.
    fn poison_from(frame: Frame) -> String {
        poison_from_bytes(&frame.encode())
    }

    /// [`poison_from`] for bytes no [`Frame`] encodes to.
    fn poison_from_bytes(wire: &[u8]) -> String {
        let cfg = SocketConfig {
            shm: false,
            ..quick_cfg()
        };
        let fabrics = fleet(&map(2, 1, 2), &cfg);
        let (f0, f1) = (&fabrics[0], &fabrics[1]);
        let window = f1.window(1, BSEG);
        let mut before = vec![0u8; window.len()];
        window.read(0, &mut before);
        (f0.egress[1].get())
            .expect("egress to process 1")
            .send(None, Urgency::Now, false, |_, b| {
                b.extend_from_slice(wire);
                &[]
            })
            .expect("send");
        let t0 = Instant::now();
        let msg = loop {
            match f1.health() {
                Err(RecoveryError::Poisoned(msg)) => break msg,
                _ => assert!(t0.elapsed() < Duration::from_secs(5), "never poisoned"),
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        let mut after = vec![0u8; window.len()];
        window.read(0, &mut after);
        assert_eq!(before, after, "a refused frame wrote to the window");
        for f in &fabrics {
            f.shutdown();
        }
        assert!(
            msg.contains("malformed frame from peer process 0 (node 0, images 1)"),
            "poison must name the sender: {msg}"
        );
        msg
    }

    #[test]
    fn out_of_range_wire_requests_poison_naming_peer_and_fields() {
        // A length no window holds: refused before any buffer is sized
        // from it.
        let msg = poison_from(Frame::Get {
            src: 0,
            dst: 1,
            seg: BSEG.0 as u64,
            off: 0,
            len: u32::MAX,
            req: 5,
        });
        assert!(
            msg.contains("Get { src: 0, dst: 1, seg: 0, off: 0, len: 4294967295 }"),
            "{msg}"
        );
        // `off + len` wraps around u64.
        let msg = poison_from(Frame::Put {
            src: 0,
            dst: 1,
            seg: BSEG.0 as u64,
            off: u64::MAX - 3,
            ack: 1,
            data: vec![0xEE; 8],
        });
        assert!(msg.contains("off: 18446744073709551612, len: 8"), "{msg}");
        assert!(msg.contains("exceeds segment"), "{msg}");
        // An image the receiver does not host, in range and out of it.
        for dst in [0, 99] {
            let msg = poison_from(Frame::Put {
                src: 0,
                dst,
                seg: BSEG.0 as u64,
                off: 0,
                ack: 1,
                data: vec![0xEE; 8],
            });
            assert!(
                msg.contains(&format!("image {dst} is not hosted by this process")),
                "{msg}"
            );
        }
        // A segment the image never allocated.
        let msg = poison_from(Frame::Put {
            src: 0,
            dst: 1,
            seg: 77,
            off: 0,
            ack: 1,
            data: vec![0xEE; 8],
        });
        assert!(msg.contains("seg: 77"), "{msg}");

        // AMO targets go through the same resolver: unhosted image,
        // unallocated segment, misaligned cell, an offset whose end wraps.
        let fadd = |dst, seg, off| Frame::AmoFadd {
            src: 0,
            dst,
            seg,
            off,
            delta: 1,
            req: 9,
        };
        let msg = poison_from(fadd(0, 0, 0));
        assert!(msg.contains("AmoFadd { src: 0, dst: 0, seg: 0"), "{msg}");
        assert!(
            msg.contains("image 0 is not hosted by this process"),
            "{msg}"
        );
        let msg = poison_from(fadd(1, 77, 0));
        assert!(msg.contains("image 1 has no seg77 (out of 1)"), "{msg}");
        let msg = poison_from(fadd(1, 0, 4));
        assert!(msg.contains("AMO offset 4 not 8-byte aligned"), "{msg}");
        let msg = poison_from(fadd(1, 0, u64::MAX - 7));
        assert!(msg.contains("off: 18446744073709551608, len: 8"), "{msg}");
        assert!(msg.contains("exceeds segment"), "{msg}");
        // One word past the (2 images x 64 B) bootstrap window.
        let msg = poison_from(Frame::AmoCas {
            src: 0,
            dst: 1,
            seg: 0,
            off: 128,
            expected: 0,
            new: 7,
            req: 9,
        });
        assert!(
            msg.contains("AmoCas { src: 0, dst: 1, seg: 0, off: 128, len: 8 }"),
            "{msg}"
        );
        assert!(
            msg.contains("AMO at offset 128 exceeds segment of 128 bytes"),
            "{msg}"
        );
        // A flag the image never allocated.
        let msg = poison_from(Frame::FlagAdd {
            src: 0,
            dst: 1,
            flag: 99,
            delta: 1,
        });
        assert!(
            msg.contains("FlagAdd { src: 0, dst: 1, flag: 99, delta: 1 }"),
            "{msg}"
        );
        assert!(msg.contains("image 1 has no flag99 (out of 4)"), "{msg}");
        // A fused put+flag is checked whole before a byte lands
        // (`poison_from` compares the window): a bad window; a bad flag
        // with a good window, within the table's index type and past it; a
        // payload that runs past the window.
        let fused = |seg, off, flag| Frame::PutFlag {
            src: 0,
            dst: 1,
            seg,
            off,
            ack: 1,
            data: vec![0xEE; 8],
            flag,
            delta: 1,
        };
        let msg = poison_from(fused(77, 0, SPARE_FLAG.0 as u64));
        assert!(
            msg.contains("PutFlag { src: 0, dst: 1, seg: 77, off: 0, len: 8 }"),
            "{msg}"
        );
        assert!(msg.contains("image 1 has no seg77 (out of 1)"), "{msg}");
        for flag in [4, 99, u64::MAX] {
            let msg = poison_from(fused(0, 0, flag));
            assert!(
                msg.contains(&format!(
                    "PutFlag {{ src: 0, dst: 1, flag: {flag}, delta: 1 }}"
                )),
                "{msg}"
            );
            assert!(msg.contains("(out of 4)"), "{msg}");
        }
        let msg = poison_from(fused(0, 124, SPARE_FLAG.0 as u64));
        assert!(
            msg.contains("PutFlag { src: 0, dst: 1, seg: 0, off: 124, len: 8 }"),
            "{msg}"
        );
        assert!(msg.contains("exceeds segment"), "{msg}");
        // A `len` field that claims more payload than the frame holds.
        let mut wire = fused(0, 0, SPARE_FLAG.0 as u64).encode();
        wire[37..41].copy_from_slice(&9u32.to_le_bytes());
        let msg = poison_from_bytes(&wire);
        assert!(
            msg.contains("payload of 9 bytes in a frame body of 61"),
            "{msg}"
        );
        // A batch is no request: an `AmBatch` on a data connection is
        // refused whole, so even its in-range first put does not land
        // (`poison_from` compares the window).
        let msg = poison_from(Frame::AmBatch {
            src: 0,
            dst: 1,
            ack: 3,
            ops: vec![
                AmOp::Put {
                    seg: BSEG,
                    off: 0,
                    data: vec![0xEE; 8],
                },
                AmOp::PutFlag {
                    seg: BSEG,
                    off: 124,
                    data: vec![0xEE; 8],
                    flag: SPARE_FLAG,
                    delta: 1,
                },
            ],
        });
        assert!(msg.contains("unexpected AmBatch { src: 0, dst: 1"), "{msg}");
        assert!(msg.contains("on a data connection"), "{msg}");
    }

    #[test]
    fn a_refused_get_grows_no_buffer() {
        let fabrics = fleet(&map(1, 1, 1), &quick_cfg());
        let f = &fabrics[0];
        let mut get_buf = Vec::new();
        let get = |len, off| Frame::Get {
            src: 0,
            dst: 0,
            seg: BSEG.0 as u64,
            off,
            len,
            req: 1,
        };
        for bad in [get(u32::MAX, 0), get(8, u64::MAX), get(1 << 30, 0)] {
            let err = f
                .serve(0, bad, &mut get_buf)
                .map(|_| ())
                .expect_err("refused");
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert_eq!(get_buf.capacity(), 0, "sized from a refused request");
        }
        assert!(matches!(
            f.serve(0, get(8, 16), &mut get_buf),
            Ok(Some(Response::Data { req: 1, data })) if data.len() == 8
        ));
        f.shutdown();
    }

    #[test]
    fn control_barrier_over_sockets() {
        let fabrics = fleet(&map(2, 2, 4), &quick_cfg());
        run_fleet(&fabrics, |f, me| {
            let mut epoch = 0u64;
            for _ in 0..10 {
                crate::bootstrap::control_barrier(&*f, me, &mut epoch);
            }
            f.image_done(me);
        });
    }

    #[test]
    fn severed_peer_is_reported_dead_by_rank() {
        // Process 1 (images 3,4 in 1-based terms) goes silent mid-run; the
        // survivor's wait must fail loudly, naming the dead images, within
        // the configured timeout — no hang.
        let cfg = SocketConfig {
            peer_timeout: Duration::from_millis(400),
            heartbeat_period: Duration::from_millis(50),
            io_timeout: Duration::from_secs(5),
            flag_wait_timeout: Duration::from_secs(5),
            ..SocketConfig::default()
        };
        let fabrics = fleet(&map(2, 2, 4), &cfg);
        let victim = fabrics[1].clone();
        let t0 = Instant::now();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_fleet(&fabrics, move |f, me| {
                if me == ProcId(0) {
                    // Kill process 1 after the fleet is definitely running
                    // and while its images are still mid-"collective" (no
                    // graceful Bye must escape). The delay spans several
                    // heartbeat periods so the victim's counter snapshots
                    // reach the survivor before it goes silent.
                    std::thread::sleep(Duration::from_millis(200));
                    victim.sever();
                }
                if me.index() < 2 {
                    // Survivors (process 0) wait on a flag that the dead
                    // process will never send.
                    f.flag_wait_ge(me, SPARE_FLAG, 1);
                } else {
                    // Victim images are busy until well past the sever, so
                    // their image_done's Bye hits the closed connections.
                    std::thread::sleep(Duration::from_millis(300));
                }
                f.image_done(me);
            });
        }))
        .unwrap_err();
        let elapsed = t0.elapsed();
        let msg = crate::panic_message(err.as_ref());
        assert!(
            msg.contains("images 3,4"),
            "failure must name the dead images: {msg}"
        );
        assert!(
            msg.contains("last-known stats (from its final heartbeat)"),
            "death report must carry the dead node's own counters: {msg}"
        );
        assert!(
            elapsed < Duration::from_secs(5),
            "death detection took {elapsed:?}"
        );
    }

    #[test]
    fn telemetry_snapshot_covers_wire_and_roundtrips() {
        // Pin shm off: asserts wire roundtrip observations per peer.
        let cfg = SocketConfig {
            shm: false,
            ..quick_cfg()
        };
        let fabrics = fleet(&map(2, 1, 2), &cfg);
        let (f0, f1) = (fabrics[0].clone(), fabrics[1].clone());
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(0) {
                f.put(me, ProcId(1), BSEG, 0, &[7u8; 64]);
                let mut out = [0u8; 8];
                f.get(me, ProcId(1), BSEG, 0, &mut out);
            }
            f.image_done(me);
        });
        let t = f0.node_telemetry(TelemetryPhase::Final, None);
        assert_eq!(t.node, 0);
        assert_eq!(t.images, vec![0]);
        assert_eq!(t.obs.peers.len(), 2);
        let to_peer = t.obs.peers[1];
        assert!(to_peer.frames_tx >= 3, "Open + Put + Get: {to_peer:?}");
        assert!(to_peer.frames_rx >= 2, "PutAck + GetResp: {to_peer:?}");
        assert!(to_peer.bytes_tx > 64, "frame overhead counted: {to_peer:?}");
        assert_eq!(
            t.obs.peers[0],
            PeerWireSnapshot::default(),
            "own-rank row stays zero"
        );
        assert_eq!(t.obs.put_ack.count, 1, "one blocking remote put sampled");
        assert!(t.obs.put_ack.percentile_ns(50.0) > 0);
        // The blob survives its wire codec, and the receiving side of the
        // fleet also saw traffic from process 0.
        let back = NodeTelemetry::decode(&t.encode()).expect("decode");
        assert_eq!(back, t);
        let t1 = f1.node_telemetry(TelemetryPhase::FlightRecorder, Some("drill"));
        assert_eq!(t1.cause, "drill");
        assert!(t1.obs.peers[0].frames_rx >= 3, "{:?}", t1.obs.peers[0]);
    }

    #[test]
    fn heartbeats_deliver_peer_stats_snapshots() {
        let cfg = SocketConfig {
            heartbeat_period: Duration::from_millis(25),
            // Pin shm off: asserts the peer's put shows up in the
            // heartbeat-carried wire stats snapshot.
            shm: false,
            ..quick_cfg()
        };
        let fabrics = fleet(&map(2, 1, 2), &cfg);
        let f0 = fabrics[0].clone();
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(1) {
                f.put(me, ProcId(0), BSEG, 0, &[1u8; 16]);
                // Outlive a few heartbeat periods so snapshots flow.
                std::thread::sleep(Duration::from_millis(120));
            }
            f.image_done(me);
        });
        let s = f0.last_peer_stats(1).expect("peer 1 heartbeat stats");
        assert!(s.puts_inter >= 1, "peer's own put must be in its snapshot");
        assert!(f0.last_peer_stats(0).is_none(), "no heartbeat to self");
        let t = f0.node_telemetry(TelemetryPhase::Final, None);
        assert!(
            t.obs.heartbeats[1].count >= 1,
            "heartbeat jitter watch saw arrivals: {:?}",
            t.obs.heartbeats[1]
        );
    }

    #[test]
    fn single_process_fleet_needs_no_sockets() {
        let fabrics = fleet(&map(1, 4, 4), &quick_cfg());
        assert_eq!(fabrics.len(), 1);
        run_fleet(&fabrics, |f, me| {
            let mut epoch = 0u64;
            crate::bootstrap::control_barrier(&*f, me, &mut epoch);
            f.put(me, ProcId((me.index() + 1) % 4), BSEG, 0, &[9u8; 8]);
            crate::bootstrap::control_barrier(&*f, me, &mut epoch);
            f.image_done(me);
        });
    }

    #[test]
    fn config_from_env_parses_overrides() {
        // Serialized by env-var name uniqueness; runs in-process only.
        std::env::set_var("CAF_SOCKET_PEER_TIMEOUT_MS", "1234");
        let cfg = SocketConfig::from_env();
        assert_eq!(cfg.peer_timeout, Duration::from_millis(1234));
        std::env::remove_var("CAF_SOCKET_PEER_TIMEOUT_MS");
    }

    /// Full rejoin cycle inside one OS process: a 2-process fleet loses
    /// process 1 abruptly (no Bye), a new incarnation joins with a
    /// `Rejoin` handshake at generation 1, both sides run the recovery
    /// fence, and the data plane works again on the healed fabric.
    #[test]
    fn respawned_process_rejoins_and_fleet_heals() {
        let cfg = SocketConfig {
            respawn: true,
            heartbeat_period: Duration::from_millis(25),
            peer_timeout: Duration::from_millis(400),
            ..quick_cfg()
        };
        let m = map(2, 1, 2);

        // The inline coordinator stays up past the rendezvous for one more
        // Hello: the respawned incarnation re-registering.
        let mut coord = rendezvous::Coordinator::bind(cfg.transport, 2).expect("bind coordinator");
        let coord_addr = coord.addr().clone();
        let io_timeout = cfg.io_timeout;
        let coord = std::thread::spawn(move || {
            coord
                .admit(io_timeout, rendezvous::nap)
                .expect("rendezvous");
            coord
                .readmit(1, Duration::from_secs(30))
                .expect("rank 1 re-registers");
        });

        let join = |rank: usize, cfg: SocketConfig| {
            let m = m.clone();
            let coord_addr = coord_addr.clone();
            std::thread::spawn(move || {
                SocketFabric::join(m, rank, &coord_addr, cfg)
                    .expect("join fleet")
                    .0
            })
        };
        let (j0, j1) = (join(0, cfg.clone()), join(1, cfg.clone()));
        let (f0, f1_old) = (j0.join().unwrap(), j1.join().unwrap());
        let egress_before = f0.egress[1].get().expect("dialed").clone();

        // Image 0's whole life, concurrent with the kill + respawn below:
        // normal traffic, observe the poison, heal, traffic again — all on
        // one thread, whose view of the peer's mapping is filled by the
        // first put and must not outlive the incarnation it maps.
        let f = f0.clone();
        let (refused_tx, refused_rx) = std::sync::mpsc::channel();
        let img0 = std::thread::spawn(move || {
            let me = ProcId(0);
            for round in 1..=2u64 {
                f.put(me, ProcId(1), BSEG, 0, &round.to_ne_bytes());
                f.flag_add(me, ProcId(1), SPARE_FLAG, 1);
                f.flag_wait_ge(me, SPARE_FLAG2, round);
            }
            let t0 = Instant::now();
            while f.health().is_ok() {
                assert!(
                    t0.elapsed() < Duration::from_secs(5),
                    "peer death was never observed"
                );
                std::thread::sleep(Duration::from_millis(10));
            }
            // The peer is dead and not yet replaced (the respawn waits for
            // `refused`): the mapping this thread holds is still there, and
            // an op through it is refused before a byte moves.
            assert_eq!(f.alive_images(), [me]);
            let dead = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f.put(me, ProcId(1), BSEG, 0, &[0xEE; 8])
            }));
            let msg = crate::panic_message(dead.expect_err("served a dead peer").as_ref());
            assert!(msg.contains("shared-memory op to a dead peer"), "{msg}");
            refused_tx.send(()).expect("main is waiting");
            f.heal(me).expect("heal after rejoin");
            assert_eq!(f.generation(), 1);
            assert_eq!(f.alive_images().len(), 2, "rejoiner counts again");
            f.health().expect("poison cleared by the fence");
            // Data plane over the replaced connection pair, on the reset
            // (zeroed) flags and bootstrap segment.
            f.put(me, ProcId(1), BSEG, 0, &0xFEEDu64.to_ne_bytes());
            f.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            f.flag_wait_ge(me, SPARE_FLAG2, 1);
            f.image_done(me);
        });

        // Old incarnation of process 1: answer the two rounds, then die
        // without a Bye (thread returns, fabric torn down abruptly).
        {
            let f = f1_old.clone();
            let me = ProcId(1);
            for round in 1..=2u64 {
                f.flag_wait_ge(me, SPARE_FLAG, round);
                let mut out = [0u8; 8];
                f.get(me, me, BSEG, 0, &mut out);
                assert_eq!(u64::from_ne_bytes(out), round);
                f.flag_add(me, ProcId(0), SPARE_FLAG2, 1);
            }
            let window = f1_old.window(1, BSEG);
            f1_old.shutdown();
            drop(f1_old);
            // What the survivor's refused put would have overwritten, in
            // the dead incarnation's segment (this window keeps it mapped).
            refused_rx.recv().expect("image 0 tried the dead peer");
            let mut out = [0u8; 8];
            window.read(0, &mut out);
            assert_eq!(u64::from_ne_bytes(out), 2, "a refused put moved bytes");
        }

        // Respawned incarnation: generation 1, fresh listener + Rejoin
        // handshake toward the survivor.
        let f1_new = join(
            1,
            SocketConfig {
                rejoin_generation: Some(1),
                ..cfg
            },
        )
        .join()
        .unwrap();
        assert_eq!(f1_new.generation(), 0, "starts one below its target");
        let f = f1_new.clone();
        let img1 = std::thread::spawn(move || {
            let me = ProcId(1);
            f.heal(me).expect("rejoiner heal");
            assert_eq!(f.generation(), 1);
            f.flag_wait_ge(me, SPARE_FLAG, 1);
            let mut out = [0u8; 8];
            f.get(me, me, BSEG, 0, &mut out);
            assert_eq!(u64::from_ne_bytes(out), 0xFEED);
            f.flag_add(me, ProcId(0), SPARE_FLAG2, 1);
            f.image_done(me);
        });

        img0.join().expect("image 0");
        img1.join().expect("image 1 (respawned)");
        // The survivor's re-dial swapped the connection inside the egress
        // it had: the slot is write-once.
        let egress_after = f0.egress[1].get().expect("re-dialed");
        assert!(Arc::ptr_eq(&egress_before, egress_after));
        coord.join().expect("coordinator");
        f0.shutdown();
        f1_new.shutdown();
    }

    /// With the shm tier on (the unix default), cross-process data ops on
    /// one host never touch the wire: correctness plus counter routing.
    #[test]
    #[cfg(unix)]
    fn shm_fast_path_covers_put_get_amo_flag() {
        let fabrics = fleet(&map(2, 1, 2), &quick_cfg());
        assert!(
            !fabrics[0].store.shm_path().is_empty(),
            "shm tier should be on by default on unix"
        );
        let (f0, f1) = (fabrics[0].clone(), fabrics[1].clone());
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(0) {
                // Blocking put + fused flag, observed by the peer.
                f.put(me, ProcId(1), BSEG, 0, &0xABCDu64.to_ne_bytes());
                f.flag_add(me, ProcId(1), SPARE_FLAG, 1);
                // Nonblocking put completes at injection; quiet has no debt.
                let tok = f.put_nb(me, ProcId(1), BSEG, 8, &[7u8; 8]);
                assert!(f.put_test(me, tok), "shm put_nb completes at injection");
                f.quiet(me);
                // AMO on the peer's bootstrap segment.
                let old = f.amo_fetch_add_u64(me, ProcId(1), BSEG, 16, 5);
                assert_eq!(old, 0);
                f.flag_wait_ge(me, SPARE_FLAG2, 1);
                // Read back what image 1 wrote into its own window.
                let mut out = [0u8; 8];
                f.get(me, ProcId(1), BSEG, 24, &mut out);
                assert_eq!(u64::from_ne_bytes(out), 0x5EED);
            } else {
                f.flag_wait_ge(me, SPARE_FLAG, 1);
                let mut out = [0u8; 8];
                f.get(me, me, BSEG, 0, &mut out);
                assert_eq!(
                    u64::from_ne_bytes(out),
                    0xABCD,
                    "shm put visible after flag"
                );
                f.put(me, me, BSEG, 24, &0x5EEDu64.to_ne_bytes());
                f.flag_add(me, ProcId(0), SPARE_FLAG2, 1);
            }
            f.image_done(me);
        });
        let s0 = f0.stats().snapshot();
        let s1 = f1.stats().snapshot();
        // Every cross-process data op went through shared memory; the wire
        // carried only control traffic (Open/heartbeat/Bye).
        assert!(s0.shm_puts >= 2, "put + put_nb via shm: {s0:?}");
        assert!(s0.shm_bytes >= 8 + 8 + 8, "put/put_nb/get bytes: {s0:?}");
        assert!(s0.shm_flag_ops >= 2, "amo + flag_add via shm: {s0:?}");
        assert_eq!(s0.puts_intra + s0.puts_inter, 0, "no wire puts: {s0:?}");
        assert_eq!(s0.gets_intra + s0.gets_inter, 0, "no wire gets: {s0:?}");
        assert_eq!(s0.puts_nb_injected, s0.puts_nb_completed, "nb debt retired");
        assert!(s1.shm_flag_ops >= 1, "peer's ack flag via shm: {s1:?}");
    }

    /// The recovery reset is what a cached window must not survive: a
    /// segment re-allocated under the same id with another size is resolved
    /// anew — by the thread that held the old window in its view, by a
    /// mapped peer, and by the ingress thread serving a frame.
    #[test]
    fn a_window_reallocated_after_a_reset_is_resolved_anew() {
        let past_the_new_end = |put: &dyn Fn()| {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(put));
            let msg = crate::panic_message(r.expect_err("valid for the old size only").as_ref());
            let want = "put of 64 bytes at offset 64 exceeds segment of 32 bytes";
            assert!(msg.contains(want), "{msg}");
        };
        for shm in [cfg!(unix), false] {
            let cfg = SocketConfig { shm, ..quick_cfg() };
            let fabrics = fleet(&map(2, 1, 2), &cfg);
            let (f0, f1) = (&fabrics[0], &fabrics[1]);
            let (me, peer) = (ProcId(0), ProcId(1));
            let seg = f0.alloc_segment(me, 128);
            let flag = f0.alloc_flags(me, 1);
            // Own tier, mapped tier (or the wire: process 0's ingress
            // thread), all with the 128-byte window in their views.
            f0.put(me, me, seg, 64, &[1; 64]);
            f1.put(peer, me, seg, 64, &[2; 64]);
            f0.flag_add(me, me, flag, 1);
            f0.store.reset();
            assert_eq!(f0.alloc_segment(me, 32), seg);
            f0.put(me, me, seg, 0, &[3; 32]);
            f1.put(peer, me, seg, 0, &[4; 32]);
            past_the_new_end(&|| f0.put(me, me, seg, 64, &[1; 64]));
            if shm {
                past_the_new_end(&|| f1.put(peer, me, seg, 64, &[2; 64]));
            }
            // The flag went with the reset; a cached cell does not bring
            // it back.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                f0.flag_add(me, me, flag, 1)
            }));
            let msg = crate::panic_message(r.expect_err("truncated").as_ref());
            assert!(msg.contains("image 0 has no flag4 (out of 4)"), "{msg}");
            for f in &fabrics {
                f.hosted().iter().for_each(|img| f.image_done(*img));
            }
            for f in &fabrics {
                f.shutdown();
            }
        }
    }

    /// A zero-size allocation is a peek on the socket tier too: no table
    /// entry and, with the shared segment on, no directory entry — a mapped
    /// peer finds the id unpublished until the real allocation.
    #[test]
    fn a_zero_size_allocation_adds_no_table_or_directory_entry() {
        for shm in [cfg!(unix), false] {
            let cfg = SocketConfig { shm, ..quick_cfg() };
            let fabrics = fleet(&map(2, 1, 2), &cfg);
            let (f0, me) = (&fabrics[0], ProcId(0));
            let (seg, flag) = (f0.alloc_segment(me, 0), f0.alloc_flags(me, 0));
            assert!(f0.store.window(Access::Get, 0, seg.0, 0, 0).is_err());
            assert!(f0.store.flag(0, flag.0).is_err());
            let published = || {
                let path = std::path::PathBuf::from(f0.store.shm_path());
                shm::PeerShm::open(&path).map(|peer| peer.window(0, seg.0).is_some())
            };
            if shm {
                assert!(
                    !published().expect("mapped"),
                    "a peek published seg{}",
                    seg.0
                );
            }
            crate::trait_tests::zero_size_is_a_peek(&**f0, me);
            assert!(f0.store.window(Access::Get, 0, seg.0, 0, 24).is_ok());
            if shm {
                assert!(published().expect("mapped"), "the allocation is published");
            }
            for f in &fabrics {
                f.hosted().iter().for_each(|img| f.image_done(*img));
            }
            for f in &fabrics {
                f.shutdown();
            }
        }
    }

    /// Threads keep windows and mappings in their views; a segment *file*
    /// does not wait for them. Every op here is issued from the test's own
    /// thread, which outlives the fleet.
    #[test]
    #[cfg(unix)]
    fn a_dropped_fleet_leaves_no_segment_file_whoever_issued_its_ops() {
        let fabrics = fleet(&map(2, 1, 2), &quick_cfg());
        let files: Vec<_> = fabrics
            .iter()
            .map(|f| std::path::PathBuf::from(f.store.shm_path()))
            .collect();
        assert!(files.iter().all(|file| file.exists()), "{files:?}");
        let (f0, f1) = (&fabrics[0], &fabrics[1]);
        f0.put(ProcId(0), ProcId(0), BSEG, 8, &[1; 8]);
        f0.put(ProcId(0), ProcId(1), BSEG, 0, &[2; 8]);
        f1.put(ProcId(1), ProcId(0), BSEG, 0, &[3; 8]);
        f1.flag_add(ProcId(1), ProcId(0), SPARE_FLAG, 1);
        assert_eq!(f0.stats().snapshot().shm_puts, 1, "mapped, not framed");
        for f in &fabrics {
            f.hosted().iter().for_each(|img| f.image_done(*img));
        }
        for f in &fabrics {
            f.shutdown();
        }
        drop(fabrics);
        for file in files {
            assert!(!file.exists(), "{} outlived its fleet", file.display());
        }
    }

    /// Segments allocated after bootstrap live in the shared arena and are
    /// addressable by same-host peers through the published directory.
    #[test]
    #[cfg(unix)]
    fn shm_post_bootstrap_segment_is_peer_addressable() {
        let fabrics = fleet(&map(2, 1, 2), &quick_cfg());
        run_fleet(&fabrics, |f, me| {
            let seg = f.alloc_segment(me, 4096);
            assert_eq!(seg, SegmentId(1));
            // Publish-then-use: both sides allocate before either touches
            // the peer's new segment (flag barrier over the shm tables).
            let peer = ProcId(1 - me.index());
            f.flag_add(me, peer, SPARE_FLAG, 1);
            f.flag_wait_ge(me, SPARE_FLAG, 1);
            f.put(me, peer, seg, 128, &[me.index() as u8 + 10; 64]);
            f.flag_add(me, peer, SPARE_FLAG2, 1);
            f.flag_wait_ge(me, SPARE_FLAG2, 1);
            let mut out = [0u8; 64];
            f.get(me, me, seg, 128, &mut out);
            assert_eq!(out, [peer.index() as u8 + 10; 64]);
            f.image_done(me);
        });
    }

    /// `CAF_SOCKET_SHM=0`-style config keeps the pure-socket path as the
    /// differential oracle: same program, zero shm counters, wire puts.
    #[test]
    fn shm_off_runs_the_same_program_over_the_wire() {
        let cfg = SocketConfig {
            shm: false,
            ..quick_cfg()
        };
        let fabrics = fleet(&map(2, 1, 2), &cfg);
        let f0 = fabrics[0].clone();
        run_fleet(&fabrics, |f, me| {
            if me == ProcId(0) {
                f.put(me, ProcId(1), BSEG, 0, &0xABCDu64.to_ne_bytes());
                f.flag_add(me, ProcId(1), SPARE_FLAG, 1);
            } else {
                f.flag_wait_ge(me, SPARE_FLAG, 1);
                let mut out = [0u8; 8];
                f.get(me, me, BSEG, 0, &mut out);
                assert_eq!(u64::from_ne_bytes(out), 0xABCD);
            }
            f.image_done(me);
        });
        let s = f0.stats().snapshot();
        assert_eq!(s.shm_puts + s.shm_bytes + s.shm_flag_ops, 0);
        assert_eq!(s.puts_inter, 1, "the put went over the wire: {s:?}");
    }

    /// A dead peer is never serviced through shared memory: the shm fast
    /// path re-checks liveness and panics with the per-rank report.
    #[test]
    #[cfg(unix)]
    fn shm_op_to_dead_peer_panics_loudly() {
        let cfg = SocketConfig {
            peer_timeout: Duration::from_millis(400),
            heartbeat_period: Duration::from_millis(50),
            ..quick_cfg()
        };
        let fabrics = fleet(&map(2, 1, 2), &cfg);
        let victim = fabrics[1].clone();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_fleet(&fabrics, move |f, me| {
                if me == ProcId(0) {
                    std::thread::sleep(Duration::from_millis(150));
                    victim.sever();
                    // Wait for the heartbeat tier to declare the death,
                    // then hit the shm path directly.
                    let t0 = Instant::now();
                    while f.alive_images().len() == 2 {
                        assert!(t0.elapsed() < Duration::from_secs(5));
                        std::thread::sleep(Duration::from_millis(10));
                    }
                    f.put(me, ProcId(1), BSEG, 0, &[1u8; 8]);
                } else {
                    std::thread::sleep(Duration::from_millis(500));
                }
                f.image_done(me);
            });
        }))
        .unwrap_err();
        let msg = crate::panic_message(err.as_ref());
        assert!(
            msg.contains("image 2") || msg.contains("dead"),
            "shm op must fail loudly naming the dead peer, got: {msg}"
        );
    }
}
