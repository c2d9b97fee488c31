//! A real multi-process network fabric: one OS process per occupied node,
//! Unix-domain sockets (or TCP) between processes, shared memory within.
//!
//! This is the third [`Fabric`] implementation, and the first where the
//! paper's leader/slave split maps onto genuine process and wire
//! boundaries: images colocated on one "node" live in one process and use
//! the same relaxed-atomic segments as [`crate::ThreadFabric`]; images on
//! different nodes talk through per-peer connections carrying
//! length-prefixed [`wire::Frame`]s.
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
//! not merely injected.
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

mod egress;
pub mod obs;
pub mod rendezvous;
pub mod shm;
pub mod wire;

pub use obs::{
    HeartbeatSnapshot, HistSnapshot, NodeTelemetry, ObsSnapshot, PeerWireSnapshot, TelemetryPhase,
};
pub use rendezvous::CoordClient;
pub use wire::{Addr, Frame, FrameRef, Listener, Stream, Transport};

use crate::am::AmOp;
use crate::seg::{FlagId, SegmentId, SharedBytes};
use crate::stats::{FabricStats, StatsSnapshot};
use crate::{Fabric, PutToken, RecoveryError};
use caf_topology::{CostParams, ImageMap, NodeId, ProcId, SoftwareOverheads};
use caf_trace::{Event, EventKind, Tracer};
use crossbeam::utils::{Backoff, CachePadded};
use egress::{Cork, Egress, Urgency, CORK_BYTES};
use parking_lot::{Condvar, Mutex, RwLock};
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use wire::{write_frame, FrameReader, Incoming, PutHead, MAX_FRAME_BYTES, WIRE_MAGIC};

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
    /// First connect-retry backoff; doubles per attempt.
    pub connect_backoff_start: Duration,
    /// Backoff cap.
    pub connect_backoff_cap: Duration,
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
    /// window spills to the owner's heap and peers reach it over the wire
    /// — its directory entry stays unpublished, so both sides agree
    /// without a handshake. Mixing wire and shm ops to one destination
    /// stays ordered because flag publication falls back to the frame
    /// path while wire requests to that peer are unacked (see
    /// `SocketFabric::wire_debt_to`).
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
            connect_backoff_start: Duration::from_millis(10),
            connect_backoff_cap: Duration::from_millis(500),
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

/// One hosted segment's storage: heap bytes (single-process fleets, or
/// `CAF_SOCKET_SHM=0`) or a window into this process's shared-memory
/// segment, where same-host peers service their traffic directly. The
/// API (and panic contract) mirrors [`SharedBytes`].
#[derive(Clone)]
enum Window {
    Heap(Arc<SharedBytes>),
    Shm(shm::ShmWindow),
}

impl Window {
    fn len(&self) -> usize {
        match self {
            Window::Heap(s) => s.len(),
            Window::Shm(w) => w.len(),
        }
    }

    fn write(&self, offset: usize, src: &[u8]) {
        match self {
            Window::Heap(s) => s.write(offset, src),
            Window::Shm(w) => w.write(offset, src),
        }
    }

    fn read(&self, offset: usize, dst: &mut [u8]) {
        match self {
            Window::Heap(s) => s.read(offset, dst),
            Window::Shm(w) => w.read(offset, dst),
        }
    }

    fn as_atomic_u64(&self, offset: usize) -> &AtomicU64 {
        match self {
            Window::Heap(s) => s.as_atomic_u64(offset),
            Window::Shm(w) => w.as_atomic_u64(offset),
        }
    }
}

/// One hosted sync flag's cell: heap, or a slot in the shared flag table
/// where same-host peers bump it without a frame.
#[derive(Clone)]
enum FlagCell {
    Heap(Arc<CachePadded<AtomicU64>>),
    Shm(shm::ShmFlag),
}

impl FlagCell {
    fn cell(&self) -> &AtomicU64 {
        match self {
            FlagCell::Heap(c) => c,
            FlagCell::Shm(f) => f.cell(),
        }
    }
}

/// A same-host peer's mapped shared segment plus its hosted-image list
/// (global image index → slot index inside the peer's segment).
struct ShmPeer {
    seg: shm::PeerShm,
    images: Vec<usize>,
}

impl ShmPeer {
    fn local_idx(&self, img: usize) -> usize {
        self.images
            .iter()
            .position(|&i| i == img)
            .unwrap_or_else(|| panic!("image {img} is not hosted by its shm peer"))
    }

    /// Resolve `img`'s segment `seg` inside the peer's mapped arena.
    /// `None` means the owner never published it — the id spilled past
    /// the shared directory or the arena ran dry, so the window lives on
    /// the owner's heap and is reachable only over the wire (see
    /// `SocketFabric::alloc_segment`).
    fn window(&self, img: usize, seg: SegmentId) -> Option<shm::ShmWindow> {
        self.seg.window(self.local_idx(img), seg.0)
    }

    fn flag(&self, img: usize, flag: FlagId) -> shm::ShmFlag {
        self.seg.flag(self.local_idx(img), flag.0)
    }
}

/// Per-hosted-image storage — same shape as the thread fabric's slots.
struct ImageSlot {
    segs: RwLock<Vec<Window>>,
    flags: RwLock<Vec<FlagCell>>,
}

/// An in-flight request awaiting its response frame.
enum Pending {
    /// A blocking caller parked on the table's condvar.
    Sync(Option<Reply>),
    /// A nonblocking put (`put: true`) or an active-message batch awaiting
    /// its ack; `img` indexes `outstanding_nb`. A batch shares the sender's
    /// `outstanding_nb` debt so `quiet` covers batched AMs, but does not
    /// count as a nonblocking-put completion in the stats.
    Nb { img: usize, put: bool },
}

enum Reply {
    Ack,
    /// A get's bytes: the front `len` of a buffer on loan from
    /// `SocketFabric::get_bufs`, exactly as the response reader filled it.
    Data {
        buf: Vec<u8>,
        len: usize,
    },
    Val(u64),
}

/// What a served request is owed; `Data` borrows the serving thread's
/// reused get buffer, so no response owns a payload.
enum Response<'a> {
    Ack(u64),
    Val { req: u64, old: u64 },
    Data { req: u64, data: &'a [u8] },
}

/// Cookie-indexed in-flight requests plus per-image nonblocking-put debt,
/// all mutated under one lock so `quiet`'s wakeups cannot be lost.
struct PendingTable {
    entries: HashMap<u64, Pending>,
    outstanding_nb: Vec<u64>,
}

const PEER_ALIVE: u8 = 0;
const PEER_GRACEFUL: u8 = 1;
const PEER_DEAD: u8 = 2;

/// How long an unexplained EOF may wait for a racing `Bye` (on the other
/// connection of the pair) before it is declared a death.
const EOF_GRACE: Duration = Duration::from_millis(300);

/// Poll period of every service-thread loop (bounds shutdown latency).
const POLL: Duration = Duration::from_millis(50);

/// Responses a reader retires at once at most (more may be buffered).
const RETIRE_BATCH: usize = 256;

/// The largest get buffer kept for reuse (an ingress thread's window copy,
/// a pooled response buffer); one grown past this by a rare huge get is
/// freed after use instead of pinning its memory for the fabric's life.
const KEEP_BYTES: usize = 4 << 20;

/// The multi-process socket fabric. Build one per process with
/// [`SocketFabric::join`]; see the module docs for the protocol.
pub struct SocketFabric {
    map: ImageMap,
    cfg: SocketConfig,
    stats: FabricStats,
    start: Instant,
    /// Occupied nodes in `NodeId` order; index = process rank.
    occ: Vec<NodeId>,
    /// Process rank hosting each global image.
    proc_of_image: Vec<usize>,
    /// This process's rank in `occ`.
    node_rank: usize,
    /// Images this process hosts, in rank order.
    hosted: Vec<ProcId>,
    /// Storage per global image; `Some` only for hosted images.
    slots: Vec<Option<ImageSlot>>,
    /// Egress write halves per peer process rank (`None` at own rank).
    /// Replaceable (not write-once): a rejoin handshake swaps in a fresh
    /// connection to a respawned peer.
    egress: Vec<RwLock<Option<Arc<Egress>>>>,
    /// How response readers hand the ack-clocked flush to the
    /// `caf-sock-egress` thread (see [`egress`]).
    ack_clock: egress::AckClock,
    /// Monotonic request-cookie source (0 is reserved = "complete").
    next_cookie: AtomicU64,
    pending: Mutex<PendingTable>,
    pending_cv: Condvar,
    /// Buffers remote gets land in, recycled: a response reader fills one
    /// and hands it to the requester ([`Reply::Data`]), who copies out and
    /// puts it back. At most one per hosted image is kept.
    get_bufs: Mutex<Vec<Vec<u8>>>,
    /// Parked `flag_wait_ge` callers; adds take the wake lock only when
    /// someone may be parked.
    parked: AtomicUsize,
    wake_lock: Mutex<()>,
    wake_cv: Condvar,
    poisoned: Mutex<Option<String>>,
    poison_flag: AtomicBool,
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
    /// This process's shared-memory segment (`None`: tier disabled,
    /// single-process fleet, or unsupported platform).
    shm: Option<shm::NodeShm>,
    /// Same-host peers' mapped segments, per process rank (`None` until
    /// the peer's `Open`/`Rejoin` announces one). A rejoin swaps in the
    /// new incarnation's segment.
    shm_peers: Vec<RwLock<Option<Arc<ShmPeer>>>>,
    /// Hosted images that called `image_done`.
    done_count: AtomicUsize,
    /// All hosted images finished — EOFs are expected from here on.
    all_done: AtomicBool,
    /// Orderly teardown requested; service threads drain and exit.
    shutting_down: AtomicBool,
    /// Fault-injection hook tripped (see [`SocketFabric::sever`]).
    severed: AtomicBool,
    /// Completed recovery generations (plus any inherited at construction
    /// by a respawned process).
    generation: AtomicU64,
    /// Hosted images' heal rendezvous (the process-local half of
    /// [`Fabric::heal`]).
    heal: Mutex<HealState>,
    heal_cv: Condvar,
    /// `(generation, round)` → peer ranks whose [`Frame::RecoverBarrier`]
    /// mark has arrived.
    recover_marks: Mutex<HashMap<(u64, u64), std::collections::HashSet<usize>>>,
    recover_cv: Condvar,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

/// Process-local heal rendezvous: hosted images gather here; the last
/// arrival runs the fleet-wide recovery fence.
struct HealState {
    waiting: usize,
    round: u64,
    /// Failure report of the round's fence leader, for the waiters.
    failed: Option<String>,
}

impl SocketFabric {
    /// Join a fleet: bind a data-plane listener, rendezvous through the
    /// coordinator at `coord`, connect to every peer (with retry/backoff),
    /// and start the service threads. Returns the fabric plus the still-open
    /// coordinator connection (for [`CoordClient::send_done`]).
    ///
    /// `node_rank` is this process's index into the occupied-node list of
    /// `map` (rank `i` hosts the images of the `i`-th occupied node).
    pub fn join(
        map: ImageMap,
        node_rank: usize,
        coord: &Addr,
        cfg: SocketConfig,
    ) -> io::Result<(Arc<SocketFabric>, CoordClient)> {
        let occ: Vec<NodeId> = (0..map.machine().nodes)
            .map(NodeId)
            .filter(|n| !map.images_on_node(*n).is_empty())
            .collect();
        let n_procs = occ.len();
        if node_rank >= n_procs {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("node rank {node_rank} out of {n_procs} occupied nodes"),
            ));
        }
        let mut proc_of_image = vec![0usize; map.n_images()];
        for (rank, node) in occ.iter().enumerate() {
            for img in map.images_on_node(*node) {
                proc_of_image[img.index()] = rank;
            }
        }
        let hosted: Vec<ProcId> = map.images_on_node(occ[node_rank]).to_vec();
        // With the shm tier on, every hosted segment lives in this
        // process's node segment so same-host peers (and direct-landing
        // wire puts) write into it without staging. All-or-nothing per
        // fleet: mixing shm and heap segments for one image would let a
        // peer's data ops to it take different paths and lose program
        // order.
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
        let boot_len = map.n_images() * crate::bootstrap::SLOT_BYTES;
        let slots = (0..map.n_images())
            .map(|i| {
                if proc_of_image[i] != node_rank {
                    return None;
                }
                let local = hosted
                    .iter()
                    .position(|p| p.index() == i)
                    .expect("hosted image missing from its own node list");
                let (seg0, flags) = match &node_shm {
                    Some(s) => (
                        Window::Shm(
                            s.alloc(local, 0, boot_len)
                                .unwrap_or_else(|e| panic!("image {i} bootstrap segment: {e}")),
                        ),
                        (0..crate::bootstrap::NUM_FLAGS)
                            .map(|f| FlagCell::Shm(s.flag(local, f)))
                            .collect(),
                    ),
                    None => (
                        Window::Heap(Arc::new(SharedBytes::new(boot_len))),
                        (0..crate::bootstrap::NUM_FLAGS)
                            .map(|_| FlagCell::Heap(Arc::new(CachePadded::new(AtomicU64::new(0)))))
                            .collect(),
                    ),
                };
                Some(ImageSlot {
                    segs: RwLock::new(vec![seg0]),
                    flags: RwLock::new(flags),
                })
            })
            .collect();
        if let Some(s) = &node_shm {
            s.seal_bootstrap();
        }

        let listener = Listener::bind(cfg.transport)?;
        let listen_addr = listener.local_addr()?;
        let (coord_client, peers) =
            CoordClient::join(coord, node_rank as u32, &listen_addr, cfg.io_timeout)?;
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

        let n_images = map.n_images();
        let fabric = Arc::new(SocketFabric {
            map,
            stats: FabricStats::default(),
            start: Instant::now(),
            proc_of_image,
            node_rank,
            hosted,
            slots,
            egress: (0..n_procs).map(|_| RwLock::new(None)).collect(),
            ack_clock: egress::AckClock::default(),
            next_cookie: AtomicU64::new(1),
            pending: Mutex::new(PendingTable {
                entries: HashMap::new(),
                outstanding_nb: vec![0; n_images],
            }),
            pending_cv: Condvar::new(),
            get_bufs: Mutex::new(Vec::new()),
            parked: AtomicUsize::new(0),
            wake_lock: Mutex::new(()),
            wake_cv: Condvar::new(),
            poisoned: Mutex::new(None),
            poison_flag: AtomicBool::new(false),
            trace_sys_lock: Mutex::new(()),
            last_seen: (0..n_procs)
                .map(|_| CachePadded::new(AtomicU64::new(0)))
                .collect(),
            peer_state: (0..n_procs).map(|_| AtomicU8::new(PEER_ALIVE)).collect(),
            obs: obs::SocketObs::new(n_procs, cfg.heartbeat_period.as_nanos() as u64),
            last_peer_stats: (0..n_procs).map(|_| Mutex::new(None)).collect(),
            ingress_up: AtomicUsize::new(0),
            shm: node_shm,
            shm_peers: (0..n_procs).map(|_| RwLock::new(None)).collect(),
            done_count: AtomicUsize::new(0),
            all_done: AtomicBool::new(false),
            shutting_down: AtomicBool::new(false),
            severed: AtomicBool::new(false),
            generation: AtomicU64::new(cfg.rejoin_generation.map_or(0, |g| g - 1)),
            heal: Mutex::new(HealState {
                waiting: 0,
                round: 0,
                failed: None,
            }),
            heal_cv: Condvar::new(),
            recover_marks: Mutex::new(HashMap::new()),
            recover_cv: Condvar::new(),
            threads: Mutex::new(Vec::new()),
            occ,
            cfg,
        });

        if n_procs > 1 {
            // Up before the first dial: response readers poke it.
            let eg = fabric.clone();
            let t = fabric.spawn_guarded("egress", move || eg.egress_loop());
            fabric.ack_clock.attach(t);
            fabric.spawn_accepting(listener, n_procs - 1);
            // A respawned incarnation announces itself with Rejoin (which
            // carries its fresh listen address so survivors can back-dial);
            // a first-life member sends the plain Open handshake.
            let hello = match fabric.cfg.rejoin_generation {
                Some(generation) => Frame::Rejoin {
                    node: node_rank as u32,
                    generation,
                    addr: listen_addr.to_string(),
                    magic: WIRE_MAGIC,
                    shm: fabric.own_shm_path(),
                },
                None => Frame::Open {
                    node: node_rank as u32,
                    magic: WIRE_MAGIC,
                    shm: fabric.own_shm_path(),
                },
            };
            for (rank, addr) in peers.iter().enumerate() {
                if rank != node_rank {
                    fabric.dial_peer(rank, addr, &hello)?;
                }
            }
            fabric.wait_established(n_procs - 1)?;
            let hb = fabric.clone();
            fabric.spawn_guarded("heartbeat", move || hb.heartbeat_loop());
        }
        Ok((fabric, coord_client))
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
        for e in self.egress.iter().filter_map(|e| e.read().clone()) {
            e.shutdown_write();
        }
    }

    /// The current egress connection to process `rank`, if one is up.
    fn egress_to(&self, rank: usize) -> Option<Arc<Egress>> {
        self.egress[rank].read().clone()
    }

    // ---- construction helpers ----------------------------------------

    fn spawn_guarded(
        self: &Arc<Self>,
        name: &'static str,
        f: impl FnOnce() + Send + 'static,
    ) -> std::thread::Thread {
        let fab = self.clone();
        let h = std::thread::Builder::new()
            .name(format!("caf-sock-{name}"))
            .spawn(move || {
                let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
                if let Err(p) = r {
                    let msg = p
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "socket service thread panicked".into());
                    if !fab.shutting_down.load(Ordering::Acquire) {
                        fab.poison(&format!("socket fabric {name} thread: {msg}"));
                    }
                }
            })
            .expect("spawn socket service thread");
        let thread = h.thread().clone();
        self.threads.lock().push(h);
        thread
    }

    /// Accept loop: collect `expected` ingress connections, identify each
    /// by its `Open` (or, in respawn mode, `Rejoin`) frame, and hand it to
    /// a dedicated ingress thread. In respawn mode the listener stays up
    /// past fleet bring-up so a respawned peer can dial back in at any
    /// point in the run.
    fn spawn_accepting(self: &Arc<Self>, listener: Listener, expected: usize) {
        let fab = self.clone();
        self.spawn_guarded("accept", move || {
            listener
                .set_nonblocking(true)
                .expect("listener nonblocking");
            let mut accepted = 0;
            while !fab.stopping()
                && (accepted < expected
                    || (fab.cfg.respawn && !fab.all_done.load(Ordering::Acquire)))
            {
                match listener.accept() {
                    Ok(stream) => {
                        stream
                            .set_read_timeout(Some(POLL))
                            .expect("ingress read timeout");
                        let mut reader =
                            FrameReader::new(stream.try_clone().expect("clone ingress stream"));
                        // First frame must identify the dialer.
                        let deadline = Instant::now() + fab.cfg.io_timeout;
                        let (peer, peer_shm) = loop {
                            match reader.next_frame() {
                                Ok((Frame::Open { node, magic, shm }, n)) => {
                                    assert_eq!(
                                        magic, WIRE_MAGIC,
                                        "wire-protocol version mismatch from process {node}"
                                    );
                                    fab.stats.record_wire_rx(n);
                                    fab.obs.wire_rx(node as usize, n);
                                    break (node as usize, shm);
                                }
                                Ok((
                                    Frame::Rejoin {
                                        node,
                                        generation,
                                        addr,
                                        magic,
                                        shm,
                                    },
                                    n,
                                )) => {
                                    assert_eq!(
                                        magic, WIRE_MAGIC,
                                        "wire-protocol version mismatch from process {node}"
                                    );
                                    fab.stats.record_wire_rx(n);
                                    fab.obs.wire_rx(node as usize, n);
                                    match fab.accept_rejoin(node as usize, generation, &addr, &shm)
                                    {
                                        Ok(()) => break (node as usize, String::new()),
                                        Err(e) => {
                                            eprintln!(
                                                "caf-socket: rejected rejoin from process \
                                                 {node}: {e}"
                                            );
                                            break (usize::MAX, String::new()); // drop it
                                        }
                                    }
                                }
                                Ok((other, _)) => {
                                    panic!("expected Open on new connection, got {other:?}")
                                }
                                Err(e) if is_timeout(&e) => {
                                    if Instant::now() > deadline || fab.stopping() {
                                        return;
                                    }
                                }
                                // Dialer vanished pre-handshake.
                                Err(_) => break (usize::MAX, String::new()),
                            }
                        };
                        if peer == usize::MAX {
                            continue;
                        }
                        // Map the dialer's segment before its ingress
                        // thread starts: once requests flow, replies may
                        // race reads of segments only the mapping serves.
                        if !peer_shm.is_empty() {
                            fab.map_shm_peer(peer, &peer_shm);
                        }
                        fab.mark_seen(peer);
                        accepted += 1;
                        fab.ingress_up.fetch_add(1, Ordering::Release);
                        let f2 = fab.clone();
                        f2.clone().spawn_guarded("ingress", move || {
                            f2.ingress_loop(peer, reader, stream)
                        });
                    }
                    Err(e) if is_timeout(&e) => std::thread::sleep(Duration::from_millis(2)),
                    Err(e) => panic!("accept failed: {e}"),
                }
            }
            // Fleet fully connected (or tearing down): drop the listener,
            // unlinking the socket file.
        });
    }

    /// A respawned incarnation of `node` dialed in: validate its
    /// generation, rebuild the egress half of the pair by back-dialing its
    /// fresh address, and revive its liveness state. Runs on the accept
    /// thread *before* the ingress thread for the new connection starts,
    /// so by the time the rejoiner's first request arrives the pair is
    /// fully re-established.
    fn accept_rejoin(
        self: &Arc<Self>,
        node: usize,
        generation: u64,
        addr: &str,
        shm_path: &str,
    ) -> io::Result<()> {
        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        if !self.cfg.respawn {
            return Err(bad("rejoin received but respawn mode is off".into()));
        }
        if node >= self.occ.len() || node == self.node_rank {
            return Err(bad(format!("bogus rejoin rank {node}")));
        }
        // A stale frame from a dead incarnation carries an old generation;
        // only the incarnation establishing the *next* generation may join.
        let current = self.generation.load(Ordering::Acquire);
        if generation != current + 1 {
            return Err(bad(format!(
                "stale rejoin generation {generation} (current {current})"
            )));
        }
        let peer_addr: Addr = addr
            .parse()
            .map_err(|e: String| bad(format!("unparseable rejoin address {addr:?}: {e}")))?;
        // The rejoin may outrun our own death detection (EOF grace still
        // ticking). Recovery needs every survivor to observe the death —
        // poison is what sends hosted images into `heal` — so declare it
        // now; a no-op if the heartbeat/EOF path already did.
        self.declare_dead(node, "peer process restarted (rejoin handshake)");
        // Replace the dead egress before flipping the peer alive: anyone
        // observing PEER_ALIVE must find a usable connection.
        let hello = Frame::Open {
            node: self.node_rank as u32,
            magic: WIRE_MAGIC,
            shm: self.own_shm_path(),
        };
        self.dial_peer(node, &peer_addr, &hello)?;
        // The dead incarnation's segment is gone; remap (or drop) before
        // anyone observes PEER_ALIVE and routes data ops through shm.
        self.shm_peers[node].write().take();
        if !shm_path.is_empty() {
            self.map_shm_peer(node, shm_path);
        }
        *self.last_peer_stats[node].lock() = None;
        self.mark_seen(node);
        self.peer_state[node].store(PEER_ALIVE, Ordering::Release);
        Ok(())
    }

    /// This process's shared-segment path, as announced in handshakes
    /// (empty when the tier is off).
    fn own_shm_path(&self) -> String {
        self.shm
            .as_ref()
            .map(|s| s.path().display().to_string())
            .unwrap_or_default()
    }

    /// Map the shared segment `rank` announced in its handshake. Failure
    /// is a warning, not an error: traffic *to* that peer falls back to
    /// the wire, and each direction independently keeps program order.
    fn map_shm_peer(&self, rank: usize, path: &str) {
        if !self.cfg.shm {
            return;
        }
        match shm::PeerShm::open(std::path::Path::new(path)) {
            Ok(seg) => {
                let images = self
                    .map
                    .images_on_node(self.occ[rank])
                    .iter()
                    .map(|p| p.index())
                    .collect();
                *self.shm_peers[rank].write() = Some(Arc::new(ShmPeer { seg, images }));
            }
            Err(e) => eprintln!(
                "caf-socket: cannot map shared segment of process {rank} ({path}): {e}; \
                 using the wire for it"
            ),
        }
    }

    /// Dial peer `rank` with capped exponential backoff, send `hello`
    /// (`Open`, or `Rejoin` when this process is a respawned incarnation),
    /// store the write half, and start the response-reader thread. The
    /// egress slot is *replaced*, not set-once: a rejoin re-dials a peer
    /// whose previous connection died with the old incarnation.
    fn dial_peer(self: &Arc<Self>, rank: usize, addr: &Addr, hello: &Frame) -> io::Result<()> {
        let t0 = Instant::now();
        let mut backoff = self.cfg.connect_backoff_start;
        let mut attempts = 0u64;
        let mut stream = loop {
            match Stream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    attempts += 1;
                    self.stats.wire_retries.fetch_add(1, Ordering::Relaxed);
                    if t0.elapsed() >= self.cfg.io_timeout {
                        return Err(io::Error::new(
                            e.kind(),
                            format!(
                                "{}: peer {addr} unreachable after {attempts} attempts: {e}",
                                self.peer_desc(rank)
                            ),
                        ));
                    }
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(self.cfg.connect_backoff_cap);
                }
            }
        };
        if attempts > 0 {
            self.stats.wire_reconnects.fetch_add(1, Ordering::Relaxed);
        }
        self.obs.dial_result(rank, attempts);
        stream.set_read_timeout(Some(POLL))?;
        stream.set_write_timeout(Some(self.cfg.io_timeout))?;
        let reader_half = FrameReader::new(stream.try_clone()?);
        let n = write_frame(&mut stream, hello)?;
        self.count_sent(rank, n, 1);
        let egress = Arc::new(Egress::new(stream));
        *self.egress[rank].write() = Some(egress.clone());
        self.mark_seen(rank);
        let fab = self.clone();
        self.spawn_guarded("response", move || {
            fab.response_loop(rank, reader_half, &egress)
        });
        Ok(())
    }

    /// Block until every ingress connection is up (egress dials complete
    /// synchronously in `join`).
    fn wait_established(&self, expected: usize) -> io::Result<()> {
        let deadline = Instant::now() + self.cfg.io_timeout;
        while self.ingress_up.load(Ordering::Acquire) < expected {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    format!(
                        "fleet bring-up timed out: {}/{expected} ingress connections \
                         after {:?}",
                        self.ingress_up.load(Ordering::Acquire),
                        self.cfg.io_timeout
                    ),
                ));
            }
            if let Some(msg) = self.poisoned.lock().clone() {
                return Err(io::Error::other(msg));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok(())
    }

    // ---- service threads ---------------------------------------------

    /// Serve one peer's requests: apply them in arrival order and write
    /// responses back on the same connection. Acks are corked while more
    /// requests are already buffered — a burst of puts is answered with
    /// one write — and leave before this thread blocks in a read again.
    fn ingress_loop(&self, peer: usize, mut reader: FrameReader<Stream>, stream: Stream) {
        let mut cork = Cork::new(stream);
        // The window copy a `Get` is answered from, reused across requests.
        let mut get_buf = Vec::new();
        loop {
            if self.stopping() {
                return;
            }
            let served = reader.incoming().and_then(|(incoming, n)| {
                let response = match incoming {
                    Incoming::Put(put) => self.land_put(&put, &mut reader)?,
                    Incoming::Frame(f) => self.serve(peer, f, &mut get_buf)?,
                    Incoming::GetResp { req, .. } => {
                        panic!("get response {req} on a request connection")
                    }
                };
                self.stats.record_wire_rx(n);
                self.obs.wire_rx(peer, n);
                self.mark_seen(peer);
                Ok(response)
            });
            let response = match served {
                Ok(r) => r,
                Err(e) if self.read_failed(peer, &e) => return,
                Err(_) => continue,
            };
            match self.respond(peer, &mut cork, response, reader.is_drained()) {
                Ok(writes) => self.obs.wire_writes(peer, writes),
                // A response that cannot be written means the requester
                // can never complete, so it poisons.
                Err(_) if self.stopping() || self.all_done.load(Ordering::Acquire) => {}
                Err(e) => self.declare_dead(peer, &format!("response write failed: {e}")),
            }
            if get_buf.len() > KEEP_BYTES {
                get_buf = Vec::new();
            }
        }
    }

    /// A frame read on `peer`'s connection failed with `e`: `false` for an
    /// idle timeout (poll the stop flags and read again); otherwise the
    /// connection is finished — poisoned if the frame was malformed, run
    /// through the EOF rules if the stream ended or broke — and the reader
    /// thread returns.
    fn read_failed(&self, peer: usize, e: &io::Error) -> bool {
        if is_timeout(e) {
            return false;
        }
        if e.kind() == io::ErrorKind::InvalidData {
            // A malformed frame is a protocol bug (or a corrupted wire),
            // not a peer death: poison loudly with context instead of
            // letting the I/O thread die quietly.
            self.malformed_frame(peer, e);
        } else {
            self.peer_eof(peer);
        }
        true
    }

    /// The hosted window a wire request addresses, with every
    /// wire-supplied field checked *before* a byte lands or a buffer is
    /// sized from it. `InvalidData` takes the caller down the
    /// `malformed_frame` path, which adds the peer.
    fn wire_window(
        &self,
        what: &str,
        (src, dst, seg, off): (u32, u32, u64, u64),
        len: usize,
    ) -> io::Result<Window> {
        let bad = |why: String| {
            Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{what} {{ src: {src}, dst: {dst}, seg: {seg}, off: {off}, len: {len} }}: {why}"),
            ))
        };
        let Some(slot) = self.slots.get(dst as usize).and_then(Option::as_ref) else {
            return bad(format!("image {dst} is not hosted by this process"));
        };
        let segs = slot.segs.read();
        let Some(window) = usize::try_from(seg).ok().and_then(|s| segs.get(s)) else {
            return bad(format!("image {dst} has {} segments", segs.len()));
        };
        if len > MAX_FRAME_BYTES {
            return bad(format!("longer than any frame ({MAX_FRAME_BYTES} bytes)"));
        }
        match off.checked_add(len as u64) {
            Some(end) if end <= window.len() as u64 => Ok(window.clone()),
            _ => bad(format!("exceeds segment of {} bytes", window.len())),
        }
    }

    /// Land a put's payload: validate the destination, then copy each
    /// chunk the reader hands over straight into the window — wire to
    /// segment, no staging. The ack is owed only once the last chunk is in.
    fn land_put(
        &self,
        put: &PutHead,
        reader: &mut FrameReader<Stream>,
    ) -> io::Result<Option<Response<'static>>> {
        let window = self.wire_window("Put", (put.src, put.dst, put.seg, put.off), put.len)?;
        let mut at = put.off as usize;
        reader.payload(|chunk| {
            window.write(at, chunk);
            at += chunk.len();
        })?;
        Ok((put.ack != 0).then_some(Response::Ack(put.ack)))
    }

    /// Cork `response`, then write the cork out if a caller is blocked on
    /// it (anything but an ack), the burst of requests is over, or the cork
    /// is full. Returns the socket writes the flush took.
    fn respond(
        &self,
        peer: usize,
        cork: &mut Cork,
        response: Option<Response<'_>>,
        burst_over: bool,
    ) -> io::Result<u64> {
        let urgent = !matches!(response, None | Some(Response::Ack(_)));
        if let Some(r) = response {
            let (n, writes) = match r {
                Response::Ack(ack) => cork.push((&Frame::PutAck { ack }).into(), false)?,
                Response::Val { req, old } => {
                    cork.push((&Frame::AmoResp { req, old }).into(), false)?
                }
                Response::Data { req, data } => {
                    cork.push(FrameRef::GetResp { req, data }, false)?
                }
            };
            self.count_sent(peer, n, writes);
        }
        if urgent || burst_over || cork.len() >= CORK_BYTES {
            cork.flush()
        } else {
            Ok(0)
        }
    }

    /// Apply one non-put request from `peer`; returns the response it is
    /// owed, if any. A `Get` is answered out of `get_buf`.
    fn serve<'a>(
        &self,
        peer: usize,
        frame: Frame,
        get_buf: &'a mut Vec<u8>,
    ) -> io::Result<Option<Response<'a>>> {
        Ok(match frame {
            Frame::Get {
                src,
                dst,
                seg,
                off,
                len,
                req,
            } => {
                let len = len as usize;
                let window = self.wire_window("Get", (src, dst, seg, off), len)?;
                if get_buf.len() < len {
                    get_buf.resize(len, 0);
                }
                window.read(off as usize, &mut get_buf[..len]);
                Some(Response::Data {
                    req,
                    data: &get_buf[..len],
                })
            }
            Frame::AmoFadd {
                src: _,
                dst,
                seg,
                off,
                delta,
                req,
            } => {
                let old = self
                    .seg_of(dst as usize, SegmentId(seg as usize))
                    .as_atomic_u64(off as usize)
                    .fetch_add(delta, Ordering::AcqRel);
                Some(Response::Val { req, old })
            }
            Frame::AmoCas {
                src: _,
                dst,
                seg,
                off,
                expected,
                new,
                req,
            } => {
                let old = match self
                    .seg_of(dst as usize, SegmentId(seg as usize))
                    .as_atomic_u64(off as usize)
                    .compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(v) | Err(v) => v,
                };
                Some(Response::Val { req, old })
            }
            Frame::FlagAdd {
                src,
                dst,
                flag,
                delta,
            } => {
                self.apply_flag_add(
                    src as usize,
                    dst as usize,
                    FlagId(flag as usize),
                    delta,
                    false,
                );
                None
            }
            Frame::AmBatch { src, dst, ack, ops } => {
                // Apply in vector order: each op's effects are visible
                // to every later op in the batch, and a flag landing
                // after its payload preserves the fabric memory model.
                self.apply_am_ops(src as usize, dst as usize, &ops, false);
                (ack != 0).then_some(Response::Ack(ack))
            }
            Frame::Heartbeat { node: _, stats } => {
                // Liveness came from `mark_seen`; keep the sender's
                // counter snapshot (a dying process's last heartbeat is
                // the fleet's only record of what it was doing) and its
                // arrival time for jitter accounting.
                self.obs.heartbeat_seen(peer, self.wall_now());
                *self.last_peer_stats[peer].lock() = Some(stats);
                None
            }
            Frame::Bye { .. } => {
                self.peer_state[peer].store(PEER_GRACEFUL, Ordering::Release);
                None
            }
            Frame::RecoverBarrier {
                node,
                round,
                generation,
            } => {
                self.record_recover_mark(node as usize, round, generation);
                None
            }
            other => panic!("unexpected frame on data connection: {other:?}"),
        })
    }

    /// Drain responses (acks, get data, AMO results) from one egress
    /// connection into the pending table: everything the read buffered is
    /// decoded first, then retired under one lock with one wake-up. This
    /// thread never writes and never takes a cork lock (the deadlock rule
    /// in [`egress`]); it hands the ack-clocked flush to the egress thread.
    fn response_loop(&self, peer: usize, mut reader: FrameReader<Stream>, egress: &Egress) {
        let mut batch = Vec::new();
        loop {
            if self.stopping() {
                return;
            }
            let retired = reader.incoming().and_then(|(incoming, n)| {
                let retired = match incoming {
                    Incoming::Frame(Frame::PutAck { ack }) => (ack, Reply::Ack),
                    Incoming::Frame(Frame::AmoResp { req, old }) => (req, Reply::Val(old)),
                    // The payload goes from the socket into a recycled
                    // buffer the requester copies out of — its only stop
                    // in user space on this side.
                    Incoming::GetResp { req, .. } => {
                        let mut buf = self.get_bufs.lock().pop().unwrap_or_default();
                        let len = reader.payload_into(&mut buf)?;
                        (req, Reply::Data { buf, len })
                    }
                    other => panic!("unexpected frame on response path: {other:?}"),
                };
                self.stats.record_wire_rx(n);
                self.obs.wire_rx(peer, n);
                Ok(retired)
            });
            match retired {
                Ok(r) => batch.push(r),
                Err(e) if self.read_failed(peer, &e) => return,
                Err(_) => continue,
            }
            if reader.is_drained() || batch.len() >= RETIRE_BATCH {
                self.mark_seen(peer);
                if self.complete(batch.drain(..), egress) {
                    self.ack_clock.poke();
                }
            }
        }
    }

    /// Send heartbeats and watch for stale peers.
    fn heartbeat_loop(&self) {
        loop {
            std::thread::sleep(self.cfg.heartbeat_period);
            if self.stopping() || self.all_done.load(Ordering::Acquire) {
                return;
            }
            // One snapshot per beat, shared by every peer's frame: each
            // peer holds our last-known counters if we die mid-run.
            let snap = self.stats.snapshot();
            for rank in 0..self.occ.len() {
                if rank == self.node_rank {
                    continue;
                }
                if self.peer_state[rank].load(Ordering::Acquire) == PEER_DEAD {
                    // Dead peers get no heartbeats; in respawn mode the
                    // slot may come back to life, so keep watching.
                    continue;
                }
                self.send_control(
                    rank,
                    &Frame::Heartbeat {
                        node: self.node_rank as u32,
                        stats: snap,
                    },
                );
                if self.peer_state[rank].load(Ordering::Acquire) == PEER_ALIVE {
                    let seen = self.last_seen[rank].load(Ordering::Acquire);
                    let now = self.wall_now();
                    if now.saturating_sub(seen) > self.cfg.peer_timeout.as_nanos() as u64 {
                        self.declare_dead(
                            rank,
                            &format!(
                                "no frames for {:?} (peer timeout {:?})",
                                Duration::from_nanos(now.saturating_sub(seen)),
                                self.cfg.peer_timeout
                            ),
                        );
                        // In respawn mode survivors keep beating so they do
                        // not falsely time each other out during recovery.
                        if !self.cfg.respawn {
                            return;
                        }
                    }
                }
            }
        }
    }

    // ---- liveness ------------------------------------------------------

    fn stopping(&self) -> bool {
        self.shutting_down.load(Ordering::Acquire) || self.severed.load(Ordering::Acquire)
    }

    fn mark_seen(&self, peer: usize) {
        self.last_seen[peer].store(self.wall_now(), Ordering::Release);
    }

    /// EOF or I/O error on a connection to `peer`: expected during orderly
    /// teardown or after its `Bye`; otherwise — after a short grace window
    /// for the `Bye` racing in on the other connection of the pair — it is
    /// a death.
    fn peer_eof(&self, peer: usize) {
        let entered = self.wall_now();
        let deadline = Instant::now() + EOF_GRACE;
        loop {
            if self.stopping()
                || self.all_done.load(Ordering::Acquire)
                || self.peer_state[peer].load(Ordering::Acquire) != PEER_ALIVE
            {
                return;
            }
            // The peer spoke *after* this connection hit EOF: a respawned
            // incarnation is already up on a fresh connection, and this
            // thread is watching the corpse of the old one. Not a death.
            if self.last_seen[peer].load(Ordering::Acquire) > entered {
                return;
            }
            if Instant::now() > deadline {
                self.declare_dead(peer, "connection closed without Bye");
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }

    fn declare_dead(&self, peer: usize, cause: &str) {
        if self.peer_state[peer]
            .compare_exchange(PEER_ALIVE, PEER_DEAD, Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return;
        }
        let mut msg = format!("{} is dead: {cause}", self.peer_desc(peer));
        // Say what the fleet was doing, not just what this observer saw:
        // the dead node's own counters from its final heartbeat.
        match *self.last_peer_stats[peer].lock() {
            Some(s) => {
                msg.push_str("\ndead node last-known stats (from its final heartbeat): ");
                msg.push_str(&s.render_brief());
            }
            None => {
                msg.push_str("\n(no heartbeat stats were received from the dead node)");
            }
        }
        if self.cfg.tracer.enabled() {
            msg.push_str("\nrecent operations before the failure:\n");
            msg.push_str(&self.cfg.tracer.render_recent(5));
        }
        self.poison(&msg);
    }

    /// `"process R (node N, images i,j,...)"` with 1-based image numbers —
    /// the rank list operators grep for in failure reports.
    fn peer_desc(&self, peer: usize) -> String {
        let node = self.occ[peer];
        let imgs: Vec<String> = self
            .map
            .images_on_node(node)
            .iter()
            .map(|p| (p.index() + 1).to_string())
            .collect();
        format!(
            "peer process {peer} (node {}, images {})",
            node.index(),
            imgs.join(",")
        )
    }

    fn check_poison(&self, me: ProcId, doing: &str) {
        if self.poison_flag.load(Ordering::Acquire) {
            let msg = self.poisoned.lock().clone().unwrap_or_default();
            panic!("image {} {doing} failed: {msg}", me.index() + 1);
        }
    }

    // ---- recovery fence ------------------------------------------------

    /// An ingress thread received a peer's [`Frame::RecoverBarrier`] mark.
    fn record_recover_mark(&self, node: usize, round: u64, generation: u64) {
        let mut marks = self.recover_marks.lock();
        marks.entry((generation, round)).or_default().insert(node);
        self.recover_cv.notify_all();
    }

    /// One round of the fleet-wide recovery fence targeting `generation`:
    /// send our mark to every currently-alive peer, then wait for theirs.
    /// Marks ride the ordinary data connections, so a received round-1
    /// mark proves every pre-fence frame from that peer has already been
    /// applied (ingress is FIFO). Peers declared dead while we wait drop
    /// out of the participant set — that is the non-respawn shrink path.
    fn recover_round(
        &self,
        round: u64,
        generation: u64,
        deadline: Instant,
    ) -> Result<(), RecoveryError> {
        let frame = Frame::RecoverBarrier {
            node: self.node_rank as u32,
            round,
            generation,
        };
        for rank in 0..self.occ.len() {
            if rank == self.node_rank || self.peer_state[rank].load(Ordering::Acquire) != PEER_ALIVE
            {
                continue;
            }
            // Sent straight through the egress: the request path's poison
            // checks would panic mid-recovery.
            if let Some(e) = self.egress_to(rank) {
                match e.send((&frame).into(), false, Urgency::Now, false) {
                    Ok(sent) => self.count_sent(rank, sent.bytes, sent.writes),
                    Err(e) => {
                        return Err(RecoveryError::HealFailed(format!(
                            "recovery mark (round {round}) to {} failed: {e}",
                            self.peer_desc(rank)
                        )))
                    }
                }
            }
        }
        let mut marks = self.recover_marks.lock();
        loop {
            let have = marks.get(&(generation, round));
            let missing: Vec<usize> = (0..self.occ.len())
                .filter(|&r| {
                    r != self.node_rank
                        && self.peer_state[r].load(Ordering::Acquire) == PEER_ALIVE
                        && !have.is_some_and(|s| s.contains(&r))
                })
                .collect();
            if missing.is_empty() {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(RecoveryError::HealFailed(format!(
                    "recovery fence round {round} (generation {generation}) timed out \
                     waiting for processes {missing:?}"
                )));
            }
            self.recover_cv
                .wait_for(&mut marks, Duration::from_millis(50));
        }
    }

    /// Reset this process's synchronization state to the post-bootstrap
    /// shape a freshly-joined process has: bootstrap segment + control
    /// flags only (zeroed), no in-flight requests, no poison. Runs between
    /// the two fence rounds, when no process is issuing application
    /// traffic and every pre-fence frame has been applied.
    fn reset_local_state(&self) {
        for slot in self.slots.iter().flatten() {
            let mut segs = slot.segs.write();
            segs.truncate(crate::bootstrap::NUM_SEGS);
            let boot = &segs[crate::bootstrap::SEG.0];
            boot.write(0, &vec![0u8; boot.len()]);
            let mut flags = slot.flags.write();
            flags.truncate(crate::bootstrap::NUM_FLAGS);
            for f in flags.iter() {
                f.cell().store(0, Ordering::Release);
            }
        }
        // Mirror the rollback in the shared segment: unpublish every
        // post-bootstrap directory entry, zero the whole flag table, and
        // roll the arena back so re-allocated segments land where peers
        // expect them.
        if let Some(s) = &self.shm {
            s.reset(crate::bootstrap::NUM_SEGS);
        }
        {
            let mut g = self.pending.lock();
            g.entries.clear();
            for n in g.outstanding_nb.iter_mut() {
                *n = 0;
            }
        }
        // Whatever is still corked is pre-fence traffic for state that no
        // longer exists, and the responses it awaited were just forgotten.
        for e in self.egress.iter().filter_map(|e| e.read().clone()) {
            e.reset();
        }
        *self.poisoned.lock() = None;
        self.poison_flag.store(false, Ordering::Release);
    }

    /// The fleet-wide half of [`Fabric::heal`], run by one image per
    /// process: wait for respawned peers to dial back in (respawn mode),
    /// then a two-round fence — round 1 "stopped, stale traffic drained",
    /// local reset, round 2 "reset complete" — and finally commit the new
    /// generation.
    fn run_recovery_fence(&self) -> Result<(), RecoveryError> {
        let target = self.generation.load(Ordering::Acquire) + 1;
        let deadline = Instant::now() + self.cfg.io_timeout;
        if self.cfg.respawn {
            loop {
                let dead: Vec<usize> = (0..self.occ.len())
                    .filter(|&r| {
                        r != self.node_rank
                            && self.peer_state[r].load(Ordering::Acquire) == PEER_DEAD
                    })
                    .collect();
                if dead.is_empty() {
                    break;
                }
                if Instant::now() > deadline {
                    return Err(RecoveryError::HealFailed(format!(
                        "timed out waiting for respawned processes {dead:?} to rejoin"
                    )));
                }
                std::thread::sleep(Duration::from_millis(10));
            }
        }
        self.recover_round(1, target, deadline)?;
        self.reset_local_state();
        self.recover_round(2, target, deadline)?;
        self.generation.store(target, Ordering::Release);
        self.recover_marks
            .lock()
            .retain(|(generation, _), _| *generation > target);
        Ok(())
    }

    // ---- data path helpers ---------------------------------------------

    fn seg_of(&self, img: usize, seg: SegmentId) -> Window {
        let slot = self.slots[img]
            .as_ref()
            .unwrap_or_else(|| panic!("image {img} is not hosted by this process"));
        let segs = slot.segs.read();
        segs.get(seg.0)
            .unwrap_or_else(|| panic!("image {img} has no {seg:?} (out of {})", segs.len()))
            .clone()
    }

    fn flag_cell(&self, img: usize, flag: FlagId) -> FlagCell {
        let slot = self.slots[img]
            .as_ref()
            .unwrap_or_else(|| panic!("image {img} is not hosted by this process"));
        let flags = slot.flags.read();
        flags
            .get(flag.0)
            .unwrap_or_else(|| panic!("image {img} has no {flag:?} (out of {})", flags.len()))
            .clone()
    }

    /// Local index of a hosted image within this process's slot/segment
    /// tables (bootstrap order).
    fn local_idx_of(&self, img: usize) -> usize {
        self.hosted
            .iter()
            .position(|&h| h.index() == img)
            .unwrap_or_else(|| panic!("image {img} is not hosted by this process"))
    }

    /// Shared-memory fast path toward `dst`: `Some(peer)` when the shm tier
    /// is on, `dst` lives in a *different process* whose segment this
    /// process has mapped. Per-destination with one carve-out: a window the
    /// owner spilled to its heap (directory full / arena exhausted) is
    /// reached over the wire even between mapped peers, so flag publication
    /// must consult [`Self::wire_debt_to`] before skipping the frame path.
    /// Dead peers are never serviced through shared memory: poison wins,
    /// loudly.
    fn shm_to(&self, me: ProcId, dst: ProcId) -> Option<Arc<ShmPeer>> {
        let rank = self.proc_of_image[dst.index()];
        let peer = self.shm_peers[rank].read().clone()?;
        if self.peer_state[rank].load(Ordering::Acquire) == PEER_DEAD {
            self.check_poison(me, "shared-memory op to a dead peer");
            panic!(
                "image {} shared-memory op to {}: peer is dead",
                me.index() + 1,
                self.peer_desc(rank)
            );
        }
        Some(peer)
    }

    /// True while any wire request (nonblocking put, AM batch, ...) from
    /// this process to the process hosting `dst` is unacked — corked or in
    /// flight. A flag or AM batch applied through shared memory while this
    /// holds could overtake that payload at the destination — the caller
    /// must fall back to the frame path, whose per-connection send order
    /// restores the put_nb point-to-point contract. Once the debt is zero
    /// every prior wire put has been applied remotely (the ack is sent
    /// after the write lands), so the shm fast path is safe again. One
    /// atomic load: this sits on every shm-tier `flag_add`/`am_deliver`.
    fn wire_debt_to(&self, dst: ProcId) -> bool {
        self.egress[self.proc_of_image[dst.index()]]
            .read()
            .as_ref()
            .is_some_and(|e| e.has_debt())
    }

    fn is_local(&self, img: ProcId) -> bool {
        self.proc_of_image[img.index()] == self.node_rank
    }

    #[inline]
    fn wall_now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    #[inline]
    fn trace_now(&self) -> u64 {
        if self.cfg.tracer.enabled() {
            self.wall_now()
        } else {
            0
        }
    }

    /// Apply a flag add to a hosted image's cell (local fast path and
    /// ingress-delivered remote adds share this).
    fn apply_flag_add(&self, from: usize, target: usize, flag: FlagId, delta: u64, local: bool) {
        let old = self
            .flag_cell(target, flag)
            .cell()
            .fetch_add(delta, Ordering::Release);
        assert!(
            old.checked_add(delta).is_some(),
            "sync flag counter overflow: image {target} flag {} \
             (cumulative counter wrapped adding {delta})",
            flag.0
        );
        if self.cfg.tracer.enabled() {
            let t = self.trace_now();
            let _g = self.trace_sys_lock.lock();
            self.cfg.tracer.record_system(
                Event::instant(EventKind::FlagDeliver, t)
                    .a(from as u64)
                    .b(flag.0 as u64)
                    .c(t)
                    .d(target as u64)
                    .intra(local),
            );
        }
        if self.parked.load(Ordering::SeqCst) > 0 {
            let _g = self.wake_lock.lock();
            self.wake_cv.notify_all();
        }
    }

    /// Apply an active-message batch to a hosted image, in vector order.
    /// Shared by the local fast path and the ingress-delivered remote path.
    fn apply_am_ops(&self, from: usize, target: usize, ops: &[AmOp], local: bool) {
        for op in ops {
            match op {
                AmOp::Put { seg, off, data } => {
                    self.seg_of(target, *seg).write(*off, data);
                }
                AmOp::AmoAdd { seg, off, delta } => {
                    self.seg_of(target, *seg)
                        .as_atomic_u64(*off)
                        .fetch_add(*delta, Ordering::AcqRel);
                }
                AmOp::FlagAdd { flag, delta } | AmOp::PutFlag { flag, delta, .. } => {
                    if let AmOp::PutFlag { seg, off, data, .. } = op {
                        self.seg_of(target, *seg).write(*off, data);
                    }
                    self.apply_flag_add(from, target, *flag, *delta, local);
                }
            }
        }
    }

    /// A frame failed to decode (`InvalidData`): the connection's framing
    /// is broken — a protocol bug or wire corruption, not a peer death.
    /// Poison the whole fabric with the decode error and the tracer's
    /// recent-operation window so the failure is loud and diagnosable.
    fn malformed_frame(&self, peer: usize, e: &io::Error) {
        let mut msg = format!(
            "malformed frame from {}: {e} (protocol bug or wire corruption)",
            self.peer_desc(peer)
        );
        if self.cfg.tracer.enabled() {
            msg.push_str("\nrecent operations before the failure:\n");
            msg.push_str(&self.cfg.tracer.render_recent(5));
        }
        self.poison(&msg);
    }

    fn new_cookie(&self) -> u64 {
        self.next_cookie.fetch_add(1, Ordering::Relaxed)
    }

    /// Register a blocking request under `cookie` (call *before* sending,
    /// so the response can never race the registration).
    fn register_sync(&self, cookie: u64) {
        self.pending
            .lock()
            .entries
            .insert(cookie, Pending::Sync(None));
    }

    /// Register an asynchronous request of image `img` (a nonblocking
    /// `put`, or else an AM batch) under `cookie`, charging the image's
    /// `quiet` debt.
    fn register_nb(&self, cookie: u64, img: usize, put: bool) {
        let mut g = self.pending.lock();
        g.entries.insert(cookie, Pending::Nb { img, put });
        g.outstanding_nb[img] += 1;
    }

    /// Park until the response for `cookie` arrives; poisons (and panics)
    /// on fabric poison or `io_timeout` expiry.
    fn wait_reply(&self, me: ProcId, rank: usize, cookie: u64, doing: &str) -> Reply {
        self.flush_corked();
        let deadline = Instant::now() + self.cfg.io_timeout;
        let mut g = self.pending.lock();
        loop {
            if let Some(Pending::Sync(slot)) = g.entries.get_mut(&cookie) {
                if slot.is_some() {
                    let Some(Pending::Sync(Some(reply))) = g.entries.remove(&cookie) else {
                        unreachable!("entry type changed under the lock");
                    };
                    return reply;
                }
            }
            drop(g);
            self.check_poison(me, doing);
            if Instant::now() > deadline {
                self.declare_dead(
                    rank,
                    &format!("{doing} got no response within {:?}", self.cfg.io_timeout),
                );
                self.check_poison(me, doing);
                panic!(
                    "image {} {doing}: no response from {} within {:?}",
                    me.index() + 1,
                    self.peer_desc(rank),
                    self.cfg.io_timeout
                );
            }
            g = self.pending.lock();
            self.pending_cv.wait_for(&mut g, POLL);
        }
    }

    /// One blocking exchange with the process hosting `peer`: register
    /// `cookie`, send `frame` (which carries it) now, park for the reply.
    /// Returns the reply with the tracer's `(queue_ns, service_ns)` split.
    fn call(
        &self,
        me: ProcId,
        peer: ProcId,
        doing: &str,
        cookie: u64,
        frame: FrameRef<'_>,
    ) -> (Reply, u64, u64) {
        self.register_sync(cookie);
        let (queue_ns, rank) = self.send_request(me, peer, frame, true, Urgency::Now);
        let s0 = Instant::now();
        let reply = self.wait_reply(me, rank, cookie, doing);
        (reply, queue_ns, s0.elapsed().as_nanos() as u64)
    }

    /// Retire a batch of responses from a reader thread under one lock,
    /// with one wake-up (a late response after a timeout or a recovery
    /// reset is dropped). The peer's ack clock ticks before the waiters
    /// wake — an image back from `quiet` finds the link idle — and `true`
    /// asks the caller to poke the egress thread (the lost-flush rule).
    fn complete(&self, batch: impl Iterator<Item = (u64, Reply)>, egress: &Egress) -> bool {
        let mut awaited = 0;
        let mut g = self.pending.lock();
        for (cookie, reply) in batch {
            let img = match g.entries.get_mut(&cookie) {
                Some(Pending::Sync(slot)) => {
                    *slot = Some(reply);
                    awaited += 1;
                    continue;
                }
                Some(Pending::Nb { img, put }) => {
                    if *put {
                        self.stats.record_put_nb_complete();
                    }
                    *img
                }
                None => continue,
            };
            g.entries.remove(&cookie);
            g.outstanding_nb[img] -= 1;
            awaited += 1;
        }
        let poke = egress.retired(awaited);
        self.pending_cv.notify_all();
        poke
    }

    /// Record a remote-op span with the socket queueing-vs-service split
    /// (`c` = writer-queue ns, `d` = service ns — wire + remote apply +
    /// response), mirroring the simulator's Put convention.
    #[allow(clippy::too_many_arguments)]
    fn trace_remote(
        &self,
        kind: EventKind,
        me: ProcId,
        peer: ProcId,
        t0: u64,
        bytes: u64,
        queue_ns: u64,
        service_ns: u64,
    ) {
        if !self.cfg.tracer.enabled() {
            return;
        }
        let t1 = self.trace_now();
        self.cfg.tracer.record(
            me.index(),
            Event::span(kind, t0, t1.saturating_sub(t0))
                .a(peer.index() as u64)
                .b(bytes)
                .c(queue_ns)
                .d(service_ns)
                .intra(false),
        );
    }

    /// Record a local (same-process) op span, like the thread fabric.
    fn trace_local(&self, kind: EventKind, me: ProcId, peer: ProcId, t0: u64, bytes: u64) {
        if !self.cfg.tracer.enabled() {
            return;
        }
        let t1 = self.trace_now();
        let ev = Event::span(kind, t0, t1.saturating_sub(t0))
            .a(peer.index() as u64)
            .b(bytes);
        self.cfg.tracer.record(
            me.index(),
            if me == peer {
                ev.self_target()
            } else {
                ev.intra(true)
            },
        );
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
        let slot = self.slots[me.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("alloc_segment: image {me:?} not hosted here"));
        let mut segs = slot.segs.write();
        let id = segs.len();
        // With the shm tier on, windows come from the shared arena so
        // same-host peers can address them directly. When the shared side
        // cannot hold one more (directory full, or the arena is exhausted
        // — see `SocketConfig::shm_bytes_per_image`), the window spills to
        // this process's heap: its directory entry stays unpublished, so
        // peers see `None` from `ShmPeer::window` and take the wire. The
        // shared directory is the single source of truth, so both sides
        // agree without any extra handshake.
        let w = match &self.shm {
            Some(s) => match s.alloc(self.local_idx_of(me.index()), id, bytes) {
                Ok(win) => Window::Shm(win),
                Err(_) => Window::Heap(Arc::new(SharedBytes::new(bytes))),
            },
            None => Window::Heap(Arc::new(SharedBytes::new(bytes))),
        };
        segs.push(w);
        SegmentId(id)
    }

    fn alloc_flags(&self, me: ProcId, count: usize) -> FlagId {
        let slot = self.slots[me.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("alloc_flags: image {me:?} not hosted here"));
        let mut flags = slot.flags.write();
        let id = flags.len();
        match &self.shm {
            Some(s) => {
                // The shared table is sized at segment creation; flags past
                // it fall back to heap cells reached over the wire. The
                // index alone decides the backing, so same-host peers agree
                // on which side of the boundary a flag lives without any
                // extra handshake (see `flag_add`/`am_deliver`).
                let local = self.local_idx_of(me.index());
                for k in 0..count {
                    if id + k < shm::MAX_FLAGS {
                        flags.push(FlagCell::Shm(s.flag(local, id + k)));
                    } else {
                        flags.push(FlagCell::Heap(Arc::new(CachePadded::new(AtomicU64::new(
                            0,
                        )))));
                    }
                }
            }
            None => {
                for _ in 0..count {
                    flags.push(FlagCell::Heap(Arc::new(CachePadded::new(AtomicU64::new(
                        0,
                    )))));
                }
            }
        }
        FlagId(id)
    }

    fn put(&self, me: ProcId, dst: ProcId, seg: SegmentId, offset: usize, bytes: &[u8]) {
        let t0 = self.trace_now();
        if self.is_local(dst) {
            if me != dst {
                self.stats.record_put(true, bytes.len());
            }
            self.seg_of(dst.index(), seg).write(offset, bytes);
            self.trace_local(EventKind::Put, me, dst, t0, bytes.len() as u64);
            return;
        }
        // An unpublished window (`None`) is a heap spill on the owner —
        // fall through and take the wire like a cross-node put.
        if let Some(w) = self
            .shm_to(me, dst)
            .and_then(|p| p.window(dst.index(), seg))
        {
            // memcpy into the peer's mapped window + a release fence: the
            // data is globally visible before any later flag/AMO the peer
            // could observe. No frame, no ack, nothing for `quiet` to drain.
            w.write(offset, bytes);
            fence(Ordering::Release);
            self.stats.record_shm_put(bytes.len());
            self.trace_local(EventKind::Put, me, dst, t0, bytes.len() as u64);
            return;
        }
        self.stats.record_put(false, bytes.len());
        let cookie = self.new_cookie();
        let (reply, queue_ns, service_ns) = self.call(
            me,
            dst,
            "remote put",
            cookie,
            FrameRef::Put {
                src: me.index() as u32,
                dst: dst.index() as u32,
                seg: seg.0 as u64,
                off: offset as u64,
                ack: cookie,
                data: bytes,
            },
        );
        assert!(matches!(reply, Reply::Ack), "put got a non-ack response");
        self.obs.put_ack(service_ns);
        self.trace_remote(
            EventKind::Put,
            me,
            dst,
            t0,
            bytes.len() as u64,
            queue_ns,
            service_ns,
        );
    }

    fn am_deliver(&self, me: ProcId, dst: ProcId, ops: &[AmOp]) {
        let t0 = self.trace_now();
        let wire: u64 = ops.iter().map(|op| op.wire_len() as u64).sum();
        if self.is_local(dst) {
            self.apply_am_ops(me.index(), dst.index(), ops, true);
            self.trace_local(EventKind::Put, me, dst, t0, wire);
            return;
        }
        if let Some(p) = self.shm_to(me, dst) {
            // Every op must be reachable through the shared mapping: a flag
            // past the shared table or a window the owner spilled to its
            // heap (directory full / arena exhausted) lives only on the
            // owner, and the whole batch must then travel as one wire frame
            // so its vector order is preserved.
            let all_shared = ops.iter().all(|op| match op {
                AmOp::Put { seg, .. } | AmOp::AmoAdd { seg, .. } => {
                    p.window(dst.index(), *seg).is_some()
                }
                AmOp::FlagAdd { flag, .. } => flag.0 < shm::MAX_FLAGS,
                AmOp::PutFlag { seg, flag, .. } => {
                    flag.0 < shm::MAX_FLAGS && p.window(dst.index(), *seg).is_some()
                }
            });
            // Windows only unpublish inside the recovery fence, when no
            // image issues traffic, so the lookups below cannot miss.
            let win = |seg: SegmentId| {
                p.window(dst.index(), seg)
                    .expect("window published at the batch check above")
            };
            // The debt check mirrors `flag_add`: a batch applied through
            // shared memory while a wire nb put to this peer is unacked
            // could publish its flags before that payload lands. Sent as a
            // frame instead, the batch queues behind the put on the shared
            // connection and vector order is preserved end to end.
            if all_shared && !self.wire_debt_to(dst) {
                // Apply the batch in vector order directly against the
                // peer's mapped segment — the same order the ingress thread
                // would use. Flag adds use release stores, so fused
                // put+flag visibility holds exactly as it does on the wire
                // path.
                for op in ops {
                    match op {
                        AmOp::Put { seg, off, data } => {
                            win(*seg).write(*off, data);
                            self.stats.record_shm_put(data.len());
                        }
                        AmOp::AmoAdd { seg, off, delta } => {
                            win(*seg)
                                .as_atomic_u64(*off)
                                .fetch_add(*delta, Ordering::AcqRel);
                            self.stats.record_shm_flag();
                        }
                        AmOp::FlagAdd { flag, delta } | AmOp::PutFlag { flag, delta, .. } => {
                            if let AmOp::PutFlag { seg, off, data, .. } = op {
                                win(*seg).write(*off, data);
                                self.stats.record_shm_put(data.len());
                            }
                            fence(Ordering::Release);
                            let old = p
                                .flag(dst.index(), *flag)
                                .cell()
                                .fetch_add(*delta, Ordering::Release);
                            assert!(
                                old.checked_add(*delta).is_some(),
                                "sync flag counter overflow: image {} flag {} \
                                 (cumulative counter wrapped adding {delta})",
                                dst.index(),
                                flag.0
                            );
                            self.stats.record_shm_flag();
                        }
                    }
                }
                fence(Ordering::Release);
                self.trace_local(EventKind::Put, me, dst, t0, wire);
                return;
            }
        }
        // One frame per batch, one ack cookie: the ack retires through the
        // sender's `outstanding_nb` debt, so `quiet` means every batched AM
        // has remotely completed — same completion contract as `put_nb`.
        let cookie = self.new_cookie();
        self.register_nb(cookie, me.index(), false);
        let (queue_ns, _rank) = self.send_request(
            me,
            dst,
            FrameRef::AmBatch {
                src: me.index() as u32,
                dst: dst.index() as u32,
                ack: cookie,
                ops,
            },
            true,
            Urgency::Signal,
        );
        self.trace_remote(EventKind::Put, me, dst, t0, wire, queue_ns, 0);
    }

    fn put_nb(
        &self,
        me: ProcId,
        dst: ProcId,
        seg: SegmentId,
        offset: usize,
        bytes: &[u8],
    ) -> PutToken {
        let t0 = self.trace_now();
        if self.is_local(dst) {
            self.seg_of(dst.index(), seg).write(offset, bytes);
            if me != dst {
                self.stats.record_put_nb(true, bytes.len());
                self.stats.record_put_nb_complete();
            }
            self.trace_local(EventKind::PutNb, me, dst, t0, bytes.len() as u64);
            return PutToken::DONE;
        }
        if let Some(w) = self
            .shm_to(me, dst)
            .and_then(|p| p.window(dst.index(), seg))
        {
            // A shared-memory put completes at injection: count it through
            // both nb counters so the injected == completed invariant the
            // litmus suite checks holds across the mixed fabric.
            w.write(offset, bytes);
            fence(Ordering::Release);
            self.stats.record_shm_put(bytes.len());
            self.stats.puts_nb_injected.fetch_add(1, Ordering::Relaxed);
            self.stats.record_put_nb_complete();
            self.trace_local(EventKind::PutNb, me, dst, t0, bytes.len() as u64);
            return PutToken::DONE;
        }
        self.stats.record_put_nb(false, bytes.len());
        let cookie = self.new_cookie();
        self.register_nb(cookie, me.index(), true);
        let (queue_ns, _rank) = self.send_request(
            me,
            dst,
            FrameRef::Put {
                src: me.index() as u32,
                dst: dst.index() as u32,
                seg: seg.0 as u64,
                off: offset as u64,
                ack: cookie,
                data: bytes,
            },
            true,
            Urgency::Data,
        );
        self.trace_remote(
            EventKind::PutNb,
            me,
            dst,
            t0,
            bytes.len() as u64,
            queue_ns,
            0,
        );
        // The token smuggles the ack cookie (never 0 for an in-flight
        // transfer — cookie allocation starts at 1); `put_test`/`put_wait`
        // resolve it against the pending table.
        PutToken { arrival_ns: cookie }
    }

    fn put_test(&self, _me: ProcId, token: PutToken) -> bool {
        if token.arrival_ns == 0 {
            return true;
        }
        // A program polling this must make progress: the put may be corked.
        self.flush_corked();
        !self.pending.lock().entries.contains_key(&token.arrival_ns)
    }

    fn put_wait(&self, me: ProcId, token: PutToken) {
        if token.arrival_ns == 0 {
            return;
        }
        self.flush_corked();
        let deadline = Instant::now() + self.cfg.io_timeout;
        let mut g = self.pending.lock();
        while g.entries.contains_key(&token.arrival_ns) {
            drop(g);
            self.check_poison(me, "put_wait");
            if Instant::now() > deadline {
                let msg = format!(
                    "image {} put_wait: no ack within {:?}",
                    me.index() + 1,
                    self.cfg.io_timeout
                );
                self.poison(&msg);
                panic!("{msg}");
            }
            g = self.pending.lock();
            self.pending_cv.wait_for(&mut g, POLL);
        }
    }

    fn get(&self, me: ProcId, src: ProcId, seg: SegmentId, offset: usize, out: &mut [u8]) {
        let t0 = self.trace_now();
        if self.is_local(src) {
            if me != src {
                self.stats.record_get(true, out.len());
            }
            self.seg_of(src.index(), seg).read(offset, out);
            self.trace_local(EventKind::Get, me, src, t0, out.len() as u64);
            return;
        }
        if let Some(w) = self
            .shm_to(me, src)
            .and_then(|p| p.window(src.index(), seg))
        {
            fence(Ordering::Acquire);
            w.read(offset, out);
            self.stats.record_shm_get(out.len());
            self.trace_local(EventKind::Get, me, src, t0, out.len() as u64);
            return;
        }
        self.stats.record_get(false, out.len());
        let cookie = self.new_cookie();
        let frame = Frame::Get {
            src: me.index() as u32,
            dst: src.index() as u32,
            seg: seg.0 as u64,
            off: offset as u64,
            len: out.len() as u32,
            req: cookie,
        };
        let (reply, queue_ns, service_ns) =
            self.call(me, src, "remote get", cookie, (&frame).into());
        match reply {
            Reply::Data { buf, len } => {
                assert_eq!(len, out.len(), "get response length mismatch");
                out.copy_from_slice(&buf[..len]);
                let mut pool = self.get_bufs.lock();
                if buf.len() <= KEEP_BYTES && pool.len() < self.hosted.len() {
                    pool.push(buf);
                }
            }
            _ => panic!("get got a non-data response"),
        }
        self.trace_remote(
            EventKind::Get,
            me,
            src,
            t0,
            out.len() as u64,
            queue_ns,
            service_ns,
        );
    }

    fn amo_fetch_add_u64(
        &self,
        me: ProcId,
        target: ProcId,
        seg: SegmentId,
        offset: usize,
        delta: u64,
    ) -> u64 {
        self.stats.amos.fetch_add(1, Ordering::Relaxed);
        let t0 = self.trace_now();
        if self.is_local(target) {
            let old = self
                .seg_of(target.index(), seg)
                .as_atomic_u64(offset)
                .fetch_add(delta, Ordering::AcqRel);
            self.trace_local(EventKind::AmoFetchAdd, me, target, t0, offset as u64);
            return old;
        }
        if let Some(w) = self
            .shm_to(me, target)
            .and_then(|p| p.window(target.index(), seg))
        {
            // Same physical atomic the owner (and every other mapper) uses,
            // so atomicity holds even when some images reach it through the
            // wire and others through shared memory.
            let old = w.as_atomic_u64(offset).fetch_add(delta, Ordering::AcqRel);
            self.stats.record_shm_flag();
            self.trace_local(EventKind::AmoFetchAdd, me, target, t0, offset as u64);
            return old;
        }
        let cookie = self.new_cookie();
        let frame = Frame::AmoFadd {
            src: me.index() as u32,
            dst: target.index() as u32,
            seg: seg.0 as u64,
            off: offset as u64,
            delta,
            req: cookie,
        };
        let (reply, queue_ns, service_ns) =
            self.call(me, target, "remote fetch-add", cookie, (&frame).into());
        let Reply::Val(old) = reply else {
            panic!("AMO got a non-value response");
        };
        self.trace_remote(
            EventKind::AmoFetchAdd,
            me,
            target,
            t0,
            offset as u64,
            queue_ns,
            service_ns,
        );
        old
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
        self.stats.amos.fetch_add(1, Ordering::Relaxed);
        let t0 = self.trace_now();
        if self.is_local(target) {
            let old = match self
                .seg_of(target.index(), seg)
                .as_atomic_u64(offset)
                .compare_exchange(expected, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(v) | Err(v) => v,
            };
            self.trace_local(EventKind::AmoCas, me, target, t0, offset as u64);
            return old;
        }
        if let Some(w) = self
            .shm_to(me, target)
            .and_then(|p| p.window(target.index(), seg))
        {
            let old = match w.as_atomic_u64(offset).compare_exchange(
                expected,
                new,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(v) | Err(v) => v,
            };
            self.stats.record_shm_flag();
            self.trace_local(EventKind::AmoCas, me, target, t0, offset as u64);
            return old;
        }
        let cookie = self.new_cookie();
        let frame = Frame::AmoCas {
            src: me.index() as u32,
            dst: target.index() as u32,
            seg: seg.0 as u64,
            off: offset as u64,
            expected,
            new,
            req: cookie,
        };
        let (reply, queue_ns, service_ns) = self.call(
            me,
            target,
            "remote compare-and-swap",
            cookie,
            (&frame).into(),
        );
        let Reply::Val(old) = reply else {
            panic!("AMO got a non-value response");
        };
        self.trace_remote(
            EventKind::AmoCas,
            me,
            target,
            t0,
            offset as u64,
            queue_ns,
            service_ns,
        );
        old
    }

    fn flag_add(&self, me: ProcId, target: ProcId, flag: FlagId, delta: u64) {
        let t0 = self.trace_now();
        if self.is_local(target) {
            if me != target {
                self.stats.record_flag(true);
            }
            self.apply_flag_add(me.index(), target.index(), flag, delta, true);
            if self.cfg.tracer.enabled() {
                let ev = Event::instant(EventKind::FlagAdd, t0)
                    .a(target.index() as u64)
                    .b(flag.0 as u64)
                    .c(delta)
                    .d(self.trace_now());
                self.cfg.tracer.record(
                    me.index(),
                    if me == target {
                        ev.self_target()
                    } else {
                        ev.intra(true)
                    },
                );
            }
            return;
        }
        // Flags past the shared table are heap cells on the owner, reached
        // only over the wire (the alloc side uses the same index rule).
        // With nb wire debt outstanding toward this peer (a put into a
        // spilled window still in flight), the shared cell would publish
        // before that payload applies — take the frame path instead, whose
        // send order restores the put_nb contract.
        if flag.0 < shm::MAX_FLAGS {
            if let Some(p) = self
                .shm_to(me, target)
                .filter(|_| !self.wire_debt_to(target))
            {
                // Release on the shared cell publishes every prior shm put to
                // this peer; the waiter's acquire load pairs with it. The
                // waiter's parked phase is a bounded (200µs) poll, so no
                // cross-process notification is needed.
                let old = p
                    .flag(target.index(), flag)
                    .cell()
                    .fetch_add(delta, Ordering::Release);
                assert!(
                    old.checked_add(delta).is_some(),
                    "sync flag counter overflow: image {} flag {} \
                     (cumulative counter wrapped adding {delta})",
                    target.index(),
                    flag.0
                );
                self.stats.record_shm_flag();
                if self.cfg.tracer.enabled() {
                    self.cfg.tracer.record(
                        me.index(),
                        Event::instant(EventKind::FlagAdd, t0)
                            .a(target.index() as u64)
                            .b(flag.0 as u64)
                            .c(delta)
                            .d(self.trace_now())
                            .intra(true),
                    );
                }
                return;
            }
        }
        self.stats.record_flag(false);
        // Fire-and-forget: ordering with prior puts to the same target comes
        // from the shared per-peer connection (frames apply in send order).
        let frame = Frame::FlagAdd {
            src: me.index() as u32,
            dst: target.index() as u32,
            flag: flag.0 as u64,
            delta,
        };
        self.send_request(me, target, (&frame).into(), false, Urgency::Signal);
        if self.cfg.tracer.enabled() {
            self.cfg.tracer.record(
                me.index(),
                Event::instant(EventKind::FlagAdd, t0)
                    .a(target.index() as u64)
                    .b(flag.0 as u64)
                    .c(delta)
                    .d(self.trace_now())
                    .intra(false),
            );
        }
    }

    fn flag_wait_ge(&self, me: ProcId, flag: FlagId, at_least: u64) {
        self.stats.flag_waits.fetch_add(1, Ordering::Relaxed);
        self.flush_corked();
        let t0 = self.trace_now();
        let deadline = Instant::now() + self.cfg.flag_wait_timeout;
        let cell_owner = self.flag_cell(me.index(), flag);
        let cell = cell_owner.cell();
        let backoff = Backoff::new();
        loop {
            if cell.load(Ordering::Acquire) >= at_least {
                if self.cfg.tracer.enabled() {
                    let t1 = self.trace_now();
                    self.cfg.tracer.record(
                        me.index(),
                        Event::span(EventKind::FlagWait, t0, t1.saturating_sub(t0))
                            .a(flag.0 as u64)
                            .b(at_least),
                    );
                }
                return;
            }
            self.check_poison(me, "flag wait");
            if Instant::now() > deadline {
                let mut msg = format!(
                    "image {} flag wait timed out after {:?} ({flag:?} = {} < {at_least})",
                    me.index() + 1,
                    self.cfg.flag_wait_timeout,
                    cell.load(Ordering::Acquire),
                );
                if self.cfg.tracer.enabled() {
                    msg.push_str("\nrecent operations before the failure:\n");
                    msg.push_str(&self.cfg.tracer.render_recent(5));
                }
                self.poison(&msg);
                panic!("{msg}");
            }
            if backoff.is_completed() {
                self.parked.fetch_add(1, Ordering::SeqCst);
                let mut g = self.wake_lock.lock();
                if cell.load(Ordering::Acquire) < at_least
                    && !self.poison_flag.load(Ordering::Acquire)
                {
                    self.wake_cv.wait_for(&mut g, Duration::from_micros(200));
                }
                drop(g);
                self.parked.fetch_sub(1, Ordering::SeqCst);
            } else {
                backoff.snooze();
            }
        }
    }

    fn flag_read(&self, me: ProcId, flag: FlagId) -> u64 {
        self.flag_cell(me.index(), flag)
            .cell()
            .load(Ordering::Acquire)
    }

    fn quiet(&self, me: ProcId) {
        self.flush_corked();
        let deadline = Instant::now() + self.cfg.io_timeout;
        let mut g = self.pending.lock();
        while g.outstanding_nb[me.index()] > 0 {
            drop(g);
            self.check_poison(me, "quiet");
            if Instant::now() > deadline {
                let msg = format!(
                    "image {} quiet: outstanding puts unacked after {:?}",
                    me.index() + 1,
                    self.cfg.io_timeout
                );
                self.poison(&msg);
                panic!("{msg}");
            }
            g = self.pending.lock();
            self.pending_cv.wait_for(&mut g, POLL);
        }
        drop(g);
        std::sync::atomic::fence(Ordering::SeqCst);
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
                self.send_control(rank, &bye);
            }
        }
    }

    fn health(&self) -> Result<(), RecoveryError> {
        if self.poison_flag.load(Ordering::Acquire) {
            let msg = self.poisoned.lock().clone().unwrap_or_default();
            return Err(RecoveryError::Poisoned(msg));
        }
        Ok(())
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
        self.generation.load(Ordering::Acquire)
    }

    fn heal(&self, _me: ProcId) -> Result<(), RecoveryError> {
        self.flush_corked();
        // Process-local rendezvous: the fence must run exactly once per
        // round, after every hosted image has stopped issuing traffic.
        // The last hosted image to arrive leads; the rest park here.
        // Followers get twice the fence budget: the leader's own deadline
        // starts once it begins waiting for the respawned peer.
        let wait_deadline = Instant::now() + self.cfg.io_timeout * 2;
        let mut g = self.heal.lock();
        let my_round = g.round;
        g.waiting += 1;
        if g.waiting < self.hosted.len() {
            while g.round == my_round {
                let now = Instant::now();
                if now >= wait_deadline {
                    g.waiting = g.waiting.saturating_sub(1);
                    return Err(RecoveryError::HealFailed(
                        "timed out waiting for the recovery fence leader".into(),
                    ));
                }
                self.heal_cv.wait_for(&mut g, wait_deadline - now);
            }
            match &g.failed {
                Some(msg) => Err(RecoveryError::HealFailed(msg.clone())),
                None => Ok(()),
            }
        } else {
            g.waiting = 0;
            drop(g);
            let res = self.run_recovery_fence();
            let mut g = self.heal.lock();
            g.round += 1;
            g.failed = res.as_ref().err().map(|e| e.to_string());
            self.heal_cv.notify_all();
            res
        }
    }

    fn poison(&self, msg: &str) {
        {
            let mut p = self.poisoned.lock();
            if p.is_none() {
                *p = Some(msg.to_string());
            }
        }
        self.poison_flag.store(true, Ordering::Release);
        {
            let _g = self.wake_lock.lock();
            self.wake_cv.notify_all();
        }
        {
            let _g = self.pending.lock();
            self.pending_cv.notify_all();
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// In-process fleet helpers for tests and benches: build N `SocketFabric`s
/// (one per occupied node) inside one OS process, talking over real
/// sockets, with an inline coordinator.
pub mod testing {
    use super::*;

    /// Stand up a full fleet in-process: an inline coordinator plus one
    /// [`SocketFabric::join`] per occupied node of `map`. Returns the
    /// fabrics in process-rank order (coordinator connections are dropped —
    /// tests don't report results).
    pub fn fleet(map: &ImageMap, cfg: &SocketConfig) -> Vec<Arc<SocketFabric>> {
        let n_procs = (0..map.machine().nodes)
            .map(NodeId)
            .filter(|n| !map.images_on_node(*n).is_empty())
            .count();
        fleet_with(map, &vec![cfg.clone(); n_procs])
    }

    /// [`fleet`] with one [`SocketConfig`] per process rank — the way to
    /// build a *mixed* fleet where some processes advertise a shared
    /// segment and others stay pure-wire, so some ordered pairs run over
    /// the shm tier and others over frames in the very same run.
    pub fn fleet_with(map: &ImageMap, cfgs: &[SocketConfig]) -> Vec<Arc<SocketFabric>> {
        let n_procs = (0..map.machine().nodes)
            .map(NodeId)
            .filter(|n| !map.images_on_node(*n).is_empty())
            .count();
        assert_eq!(
            cfgs.len(),
            n_procs,
            "fleet_with needs exactly one config per occupied node"
        );
        let listener = Listener::bind(cfgs[0].transport).expect("bind coordinator");
        let coord_addr = listener.local_addr().expect("coordinator addr");
        let coord = std::thread::spawn(move || {
            let mut conns = Vec::new();
            let mut addrs = vec![String::new(); n_procs];
            for _ in 0..n_procs {
                let s = listener.accept().expect("coordinator accept");
                let mut r = FrameReader::new(s.try_clone().expect("clone"));
                match r.next_frame().expect("coordinator read") {
                    (Frame::Hello { node, addr, magic }, _) => {
                        assert_eq!(magic, WIRE_MAGIC);
                        addrs[node as usize] = addr;
                        conns.push(s);
                    }
                    (other, _) => panic!("expected Hello, got {other:?}"),
                }
            }
            for mut s in conns {
                write_frame(
                    &mut s,
                    &Frame::Peers {
                        addrs: addrs.clone(),
                    },
                )
                .expect("coordinator send peers");
            }
        });
        let joins: Vec<_> = (0..n_procs)
            .map(|rank| {
                let map = map.clone();
                let cfg = cfgs[rank].clone();
                let coord_addr = coord_addr.clone();
                std::thread::spawn(move || {
                    SocketFabric::join(map, rank, &coord_addr, cfg)
                        .expect("join fleet")
                        .0
                })
            })
            .collect();
        let fabrics: Vec<_> = joins.into_iter().map(|j| j.join().expect("join")).collect();
        coord.join().expect("coordinator");
        fabrics
    }

    /// Run `body` as one thread per hosted image on every fabric of the
    /// fleet, join them all, shut the fleet down, and re-raise the first
    /// image panic (after poisoning, so no survivor hangs).
    pub fn run_fleet<F>(fabrics: &[Arc<SocketFabric>], body: F)
    where
        F: Fn(Arc<SocketFabric>, ProcId) + Send + Sync + 'static,
    {
        let body = Arc::new(body);
        let mut handles = Vec::new();
        for f in fabrics {
            for img in f.hosted().to_vec() {
                let f = f.clone();
                let body = body.clone();
                handles.push(
                    std::thread::Builder::new()
                        .name(format!("caf-img-{}", img.index()))
                        .spawn(move || body(f, img))
                        .expect("spawn image"),
                );
            }
        }
        let mut first_panic = None;
        for h in handles {
            if let Err(p) = h.join() {
                if first_panic.is_none() {
                    for f in fabrics {
                        f.poison("an image thread panicked");
                    }
                    first_panic = Some(p);
                }
            }
        }
        for f in fabrics {
            f.shutdown();
        }
        if let Some(p) = first_panic {
            std::panic::resume_unwind(p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{fleet, run_fleet};
    use super::*;
    use caf_topology::{presets, Placement};

    const BSEG: SegmentId = crate::bootstrap::SEG;
    const SPARE_FLAG: FlagId = FlagId(2);
    const SPARE_FLAG2: FlagId = FlagId(3);

    fn map(nodes: usize, cores: usize, images: usize) -> ImageMap {
        ImageMap::new(presets::mini(nodes, cores), images, &Placement::Packed)
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
        fabrics[0].seg_of(0, BSEG).read(0, &mut out);
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
        let cfg = SocketConfig {
            shm: false,
            ..quick_cfg()
        };
        let fabrics = fleet(&map(2, 1, 2), &cfg);
        let (f0, f1) = (&fabrics[0], &fabrics[1]);
        let window = f1.seg_of(1, BSEG);
        let mut before = vec![0u8; window.len()];
        window.read(0, &mut before);
        f0.egress_to(1)
            .expect("egress to process 1")
            .send((&frame).into(), false, Urgency::Now, false)
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
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
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

        // Inline coordinator that, unlike `testing::fleet`'s, stays up for
        // one extra Hello — the respawned incarnation re-registering.
        let listener = Listener::bind(cfg.transport).expect("bind coordinator");
        let coord_addr = listener.local_addr().expect("coordinator addr");
        let coord = std::thread::spawn(move || {
            let mut conns = Vec::new();
            let mut addrs = vec![String::new(); 2];
            for _ in 0..2 {
                let s = listener.accept().expect("accept");
                let mut r = FrameReader::new(s.try_clone().expect("clone"));
                match r.next_frame().expect("read hello") {
                    (Frame::Hello { node, addr, magic }, _) => {
                        assert_eq!(magic, WIRE_MAGIC);
                        addrs[node as usize] = addr;
                        conns.push(s);
                    }
                    (other, _) => panic!("expected Hello, got {other:?}"),
                }
            }
            for s in conns.iter_mut() {
                write_frame(
                    s,
                    &Frame::Peers {
                        addrs: addrs.clone(),
                    },
                )
                .expect("send peers");
            }
            // The respawned rank 1 re-registers with a fresh address.
            let mut s = listener.accept().expect("accept rejoin");
            let mut r = FrameReader::new(s.try_clone().expect("clone"));
            match r.next_frame().expect("read rejoin hello") {
                (Frame::Hello { node, addr, .. }, _) => {
                    assert_eq!(node, 1, "only rank 1 was respawned");
                    addrs[1] = addr;
                }
                (other, _) => panic!("expected rejoin Hello, got {other:?}"),
            }
            write_frame(&mut s, &Frame::Peers { addrs }).expect("send rejoin peers");
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

        // Image 0's whole life, concurrent with the kill + respawn below:
        // normal traffic, observe the poison, heal, traffic again.
        let f = f0.clone();
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
            // (No alive_images assertion here: the in-process respawn can
            // complete its rejoin before this thread polls, racing the
            // shrunken view away.)
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
            f1_old.shutdown();
            drop(f1_old);
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
            fabrics[0].shm.is_some(),
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
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(
            msg.contains("image 2") || msg.contains("dead"),
            "shm op must fail loudly naming the dead peer, got: {msg}"
        );
    }
}
