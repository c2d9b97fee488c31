//! # caf-launch
//!
//! The fleet launcher for the [`caf_fabric::SocketFabric`] backend — the
//! `mpirun`/`lamellar_run` analogue of this runtime. One parent process
//! ([`launch`]):
//!
//! 1. binds a **coordinator** socket and spawns one child process per
//!    occupied node, passing the coordinator address through the
//!    environment ([`ENV_COORD`], plus [`ENV_NODE`]/[`ENV_NODES`]);
//! 2. runs the **rendezvous** ([`Coordinator::admit`]): collects each
//!    child's `Hello` (its data-plane listen address) and broadcasts the
//!    rank-ordered `Peers` list, after which children connect to each
//!    other directly;
//! 3. **supervises**: collects per-image `Done` results, enforces a run
//!    timeout, optionally kills a chosen child at a chosen time (fault
//!    injection for tests), and on any child death reports *which node and
//!    which 1-based image ranks* died — then kills and reaps the rest of
//!    the fleet rather than leaving orphans.
//!
//! Every child is the same program around [`member`]: join the fleet the
//! environment describes, run a body on the hosted images, ship telemetry
//! and results back. DESIGN.md §3.3b tabulates who does what when. A whole
//! fleet program — parent and children in one binary:
//!
//! ```no_run
//! use caf_launch::{launch, member, ChildEnv, LaunchSpec};
//! use caf_runtime::CollectiveConfig;
//! use caf_topology::{presets, ImageMap, Placement};
//! use std::process::ExitCode;
//!
//! fn main() -> ExitCode {
//!     // 8 images on 2 nodes: 2 processes, one per occupied node.
//!     let map = ImageMap::new(presets::mini(2, 4), 8, &Placement::Packed);
//!     if std::env::args().any(|a| a == "--member") {
//!         // A child: join the fleet the environment describes, run the body
//!         // on this node's images, ship telemetry and results, shut down.
//!         // A panic (or a peer's death) becomes a flight recorder instead.
//!         let body = |img: &mut caf_runtime::ImageCtx| {
//!             let mut v = [img.this_image() as u64];
//!             img.co_sum(&mut v);
//!             v[0]
//!         };
//!         let tweak = |_cfg: &mut caf_fabric::SocketConfig| {};
//!         let collectives = CollectiveConfig::two_level();
//!         return member(ChildEnv::detect(), map, collectives, None, tweak, body);
//!     }
//!     // The parent: this executable once per node, supervised.
//!     let exe = std::env::current_exe().expect("own path");
//!     let command = vec![exe.to_string_lossy().into_owned(), "--member".into()];
//!     match launch(&LaunchSpec::new(command, &map)) {
//!         Ok(fleet) => {
//!             for (image, sum) in fleet.results {
//!                 println!("image {}: co_sum = {sum}", image + 1);
//!             }
//!             ExitCode::SUCCESS
//!         }
//!         Err(e) => {
//!             eprintln!("fleet failed: {e}"); // names the node and its images
//!             ExitCode::FAILURE
//!         }
//!     }
//! }
//! ```

#![warn(missing_docs)]

mod member;

use caf_fabric::socket::rendezvous::Coordinator;
use caf_fabric::socket::shm;
use caf_fabric::socket::wire::{is_timeout, read_frame, Frame, Stream};
use caf_fabric::{NodeTelemetry, TelemetryPhase};
use caf_obs::{FleetRegistry, NodeFeed, ObsServer};
use caf_topology::ImageMap;
use std::io::BufReader;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub use caf_fabric::socket::rendezvous::FleetError as LaunchError;
pub use caf_fabric::socket::{Addr, CoordClient, Transport};
pub use member::member;

/// Child environment variable: this process's node rank (0-based).
pub const ENV_NODE: &str = "CAF_LAUNCH_NODE";
/// Child environment variable: total processes in the fleet.
pub const ENV_NODES: &str = "CAF_LAUNCH_NODES";
/// Child environment variable: coordinator address (`uds:…` / `tcp:…`).
pub const ENV_COORD: &str = "CAF_LAUNCH_COORD";

/// What a spawned fleet member reads from its environment.
#[derive(Clone, Debug)]
pub struct ChildEnv {
    /// This process's node rank (0-based index into occupied nodes).
    pub node: usize,
    /// Total processes in the fleet.
    pub nodes: usize,
    /// The launcher's coordinator address.
    pub coord: Addr,
}

impl ChildEnv {
    /// Detect launcher-provided variables; `None` when not running under
    /// `caf-launch` (lets a binary share one entry point for both roles).
    pub fn detect() -> Option<ChildEnv> {
        let node = std::env::var(ENV_NODE).ok()?.parse().ok()?;
        let nodes = std::env::var(ENV_NODES).ok()?.parse().ok()?;
        let coord = std::env::var(ENV_COORD).ok()?.parse().ok()?;
        Some(ChildEnv { node, nodes, coord })
    }
}

/// Fault-injection: kill the child at `rank` once `after` has elapsed from
/// the start of the supervision phase.
#[derive(Clone, Copy, Debug)]
pub struct KillSpec {
    /// Node rank of the victim process.
    pub rank: usize,
    /// Delay before the kill.
    pub after: Duration,
}

/// A fleet description: what to spawn and how to supervise it.
#[derive(Clone, Debug)]
pub struct LaunchSpec {
    /// Child argv (`command[0]` is the executable). Every child gets the
    /// same argv; rank and coordinator arrive via the environment.
    pub command: Vec<String>,
    /// Extra `(variable, value)` pairs set in every child's environment —
    /// how per-fleet settings reach the members without the parent
    /// touching its own (process-global) environment.
    pub child_env: Vec<(String, String)>,
    /// 1-based image numbers hosted by each node rank, from the image
    /// map's [`ImageMap::process_plan`] — used for error reports ("node 1
    /// (images 5,6,7,8) died"). Its length is the fleet size.
    pub node_images: Vec<Vec<usize>>,
    /// Coordinator transport (children pick their own data-plane transport).
    pub transport: Transport,
    /// How long the fleet may take to rendezvous.
    pub rendezvous_timeout: Duration,
    /// How long the fleet may run after rendezvous before it is declared
    /// hung, killed, and reported.
    pub run_timeout: Duration,
    /// Optional fault injection.
    pub kill: Option<KillSpec>,
    /// Serve a live `/metrics` + `/healthz` HTTP surface on this address
    /// while the fleet runs (port 0 picks a free port; the bound address
    /// is logged to stderr).
    pub obs_addr: Option<SocketAddr>,
    /// After a member dies, how long the launcher drains the survivors'
    /// control connections waiting for their flight recorders before
    /// reporting the failure.
    pub flight_recorder_grace: Duration,
    /// Keep the observability surface (and the launcher) up this long
    /// after the fleet completes — lets a scraper take a final reading.
    pub obs_linger: Duration,
    /// Respawn-with-rejoin: when a member dies mid-run, spawn a fresh
    /// incarnation (with [`caf_fabric::ENV_GENERATION`] = the new recovery
    /// generation), re-run its rendezvous, and keep supervising instead of
    /// tearing the fleet down. Children are told via
    /// [`caf_fabric::ENV_RESPAWN`] so the fabric keeps its listener open
    /// and accepts `Rejoin` handshakes.
    pub respawn: bool,
    /// Total deaths the supervisor will repair before giving up and
    /// reporting the failure (only meaningful with `respawn`).
    pub max_respawns: usize,
    /// Shrink-to-survivors: when a member dies mid-run, keep supervising
    /// the survivors and accept a fleet that completes without the dead
    /// node's images (the children re-form their team over the survivors
    /// via `form_recovery_team`). Ignored when `respawn` repairs the death
    /// first.
    pub shrink: bool,
}

impl LaunchSpec {
    /// One process per occupied node of `map`, with default timeouts
    /// (30 s rendezvous, 5 min run, 3 s flight-recorder grace) and no live
    /// observability surface. Members must join with the same map.
    pub fn new(command: Vec<String>, map: &ImageMap) -> Self {
        let node_images = (map.process_plan().iter())
            .map(|(_, images)| images.iter().map(|p| p.index() + 1).collect())
            .collect();
        Self {
            command,
            child_env: Vec::new(),
            node_images,
            transport: Transport::from_env(),
            rendezvous_timeout: Duration::from_secs(30),
            run_timeout: Duration::from_secs(300),
            kill: None,
            obs_addr: None,
            flight_recorder_grace: Duration::from_secs(3),
            obs_linger: Duration::ZERO,
            respawn: false,
            max_respawns: 2,
            shrink: false,
        }
    }

    /// `rank`'s images as reports list them: `"5,6,7,8"`.
    fn images_of(&self, rank: usize) -> String {
        let images: Vec<String> = self.node_images[rank]
            .iter()
            .map(|i| i.to_string())
            .collect();
        images.join(",")
    }

    /// `"node R (images i,j,…)"` — how every report names a member.
    fn member_desc(&self, rank: usize) -> String {
        format!("node {rank} (images {})", self.images_of(rank))
    }
}

/// A completed fleet's per-image results, sorted by 0-based image rank.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// `(image rank, result)` pairs, ascending by rank.
    pub results: Vec<(u32, u64)>,
    /// Per-node telemetry (latest/most complete shipment, clock-aligned),
    /// indexed by node rank. `None` for nodes that never shipped any.
    pub telemetry: Vec<Option<NodeFeed>>,
    /// Respawn-with-rejoin events the supervisor repaired, in order:
    /// `(node rank, recovery generation assigned to the new incarnation)`.
    /// Empty for an undisturbed (or non-respawn) run.
    pub respawns: Vec<(usize, u64)>,
    /// Node ranks that died and were shrunk around (never repaired):
    /// their images are absent from `results`. Empty unless
    /// [`LaunchSpec::shrink`] tolerated a death.
    pub lost: Vec<usize>,
}

/// Poll period of the supervision loop.
const POLL: Duration = Duration::from_millis(50);

/// Kills and reaps every still-running child on drop, so no error path —
/// including a panic inside the launcher — leaks orphan processes. The
/// same drop sweeps the fleet's shared-memory segment files: children
/// unlink their own segments on a clean shutdown, but a killed or crashed
/// child leaves its file behind, and `/dev/shm` litter must not outlive
/// the launcher.
struct Fleet<'a> {
    spec: &'a LaunchSpec,
    coord: Addr,
    children: Vec<Child>,
    /// Shared-segment namespace for this launch, exported to children as
    /// `CAF_SHM_FLEET` — what the reap sweep matches file names against.
    shm_tag: String,
}

impl<'a> Fleet<'a> {
    fn spawn(spec: &'a LaunchSpec, coord: Addr) -> std::io::Result<Self> {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let shm_tag = format!(
            "l{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        );
        let mut fleet = Fleet {
            spec,
            coord,
            children: Vec::with_capacity(spec.node_images.len()),
            shm_tag,
        };
        for rank in 0..spec.node_images.len() {
            let child = fleet.spawn_member(rank, 0)?;
            fleet.children.push(child);
        }
        Ok(fleet)
    }

    /// Start the process for `rank`: its first life at `generation` 0, a
    /// respawned incarnation at the recovery generation it must rejoin at.
    fn spawn_member(&self, rank: usize, generation: u64) -> std::io::Result<Child> {
        let spec = self.spec;
        let mut cmd = Command::new(&spec.command[0]);
        cmd.args(&spec.command[1..])
            .envs(spec.child_env.iter().map(|(k, v)| (k, v)))
            .env(ENV_NODE, rank.to_string())
            .env(ENV_NODES, spec.node_images.len().to_string())
            .env(ENV_COORD, self.coord.to_string())
            .env(shm::ENV_FLEET, &self.shm_tag)
            .stdin(Stdio::null());
        if spec.respawn {
            cmd.env(caf_fabric::ENV_RESPAWN, "1");
        }
        if generation > 0 {
            cmd.env(caf_fabric::ENV_GENERATION, generation.to_string());
        }
        cmd.spawn()
    }

    /// Reap the dead child at `rank` and spawn a fresh incarnation in its
    /// slot, carrying the recovery generation it must rejoin at. Stale
    /// shared segments the dead incarnation left behind (its owner never
    /// ran its unlink) are removed first: the rejoiner creates — and its
    /// peers map — the *new* generation's segment, and a leftover file
    /// must never be mistaken for it.
    fn respawn(&mut self, rank: usize, generation: u64) -> std::io::Result<()> {
        let _ = self.children[rank].wait();
        let stale = shm::sweep_rank(&self.shm_tag, rank);
        if stale > 0 {
            eprintln!(
                "caf-launch: removed {stale} stale shared segment(s) left by \
                 node {rank}'s dead incarnation"
            );
        }
        self.children[rank] = self.spawn_member(rank, generation)?;
        Ok(())
    }

    /// First child that has exited without being excused, if any.
    fn check_exits(&mut self, excused: &[bool]) -> Option<(usize, String)> {
        for (rank, child) in self.children.iter_mut().enumerate() {
            if excused[rank] {
                continue;
            }
            if let Ok(Some(status)) = child.try_wait() {
                return Some((rank, format!("{status}")));
            }
        }
        None
    }
}

impl Drop for Fleet<'_> {
    fn drop(&mut self) {
        for child in &mut self.children {
            let _ = child.kill();
        }
        for child in &mut self.children {
            let _ = child.wait();
        }
        // Only after every child is reaped: a live child's mapping stays
        // valid past the unlink, but sweeping first could race a child
        // still creating its file.
        shm::sweep_fleet(&self.shm_tag);
    }
}

/// What one read of a member's control connection found.
enum Control {
    /// A `Done` or `Telemetry` frame, taken in.
    Absorbed,
    /// Nothing within the poll period.
    Quiet,
    /// EOF (or a broken connection): nothing more is coming.
    Closed,
    /// The member asked for the fleet to be torn down.
    Abort(String),
    /// A frame no member sends here; the text says which.
    Unexpected(String),
}

/// The supervision state of one launch: the children, their control
/// connections, and what each has reported so far.
struct Supervisor<'a> {
    spec: &'a LaunchSpec,
    fleet: Fleet<'a>,
    coord: Coordinator,
    /// Control connections by rank, reads bounded by [`POLL`].
    readers: Vec<BufReader<Stream>>,
    done: Vec<Option<Vec<(u32, u64)>>>,
    /// Ranks whose death was tolerated (shrink-to-survivors), in order
    /// of loss.
    lost: Vec<usize>,
    /// Control-connection EOF seen; stop polling the reader and let the
    /// exit-status check attribute (and possibly repair) the death.
    control_eof: Vec<bool>,
    /// Repaired deaths `(rank, generation)`. The fleet's recovery-
    /// generation clock is their count: each repair bumps it and the new
    /// incarnation rejoins at exactly that generation.
    respawns: Vec<(usize, u64)>,
    feeds: Vec<Option<NodeFeed>>,
    registry: Arc<FleetRegistry>,
    /// Reference clock for cross-process alignment: started before any
    /// child exists, so every shipment's receive instant is on this axis.
    t0: Instant,
}

impl Supervisor<'_> {
    /// `rank` reported its results or was shrunk around: it may exit
    /// whenever it likes and nothing more is expected from it.
    fn settled(&self, rank: usize) -> bool {
        self.done[rank].is_some() || self.lost.contains(&rank)
    }

    /// Fold one telemetry shipment into the per-node feed table and the
    /// live registry. The clock offset is the minimum over shipments of
    /// (receive instant on the launcher clock − the child's `sent_at_ns`)
    /// — an upper bound on the child→launcher clock offset, tight to
    /// within the one-way delay of the fastest shipment, so live updates
    /// tighten it for free. The stored telemetry is only replaced by a
    /// same-or-later phase: a flight recorder is never clobbered by a
    /// stale live update.
    fn absorb_telemetry(&mut self, rank: usize, payload: &[u8]) {
        let t = match NodeTelemetry::decode(payload) {
            // Corrupt or misattributed shipments are dropped: bad telemetry
            // must never take a healthy fleet down.
            Ok(t) if t.node as usize == rank => t,
            _ => return,
        };
        let candidate = self.t0.elapsed().as_nanos() as i64 - t.sent_at_ns as i64;
        self.registry.update(rank, t.clone());
        match &mut self.feeds[rank] {
            Some(feed) => {
                feed.offset_ns = feed.offset_ns.min(candidate);
                if t.phase >= feed.telemetry.phase {
                    feed.telemetry = t;
                }
            }
            slot => {
                *slot = Some(NodeFeed {
                    telemetry: t,
                    offset_ns: candidate,
                })
            }
        }
    }

    /// Read one frame from `rank`'s control connection — the one place
    /// that says what a member may send there and what each frame means.
    fn read_control(&mut self, rank: usize) -> Control {
        match read_frame(&mut self.readers[rank]) {
            Ok((Frame::Done { node, results }, _)) if node as usize == rank => {
                self.registry.mark_done(rank);
                self.done[rank] = Some(results);
                Control::Absorbed
            }
            Ok((Frame::Done { node, .. }, _)) => {
                Control::Unexpected(format!("node {node} reported on node {rank}'s connection"))
            }
            Ok((Frame::Telemetry { payload, .. }, _)) => {
                self.absorb_telemetry(rank, &payload);
                Control::Absorbed
            }
            Ok((Frame::Abort { msg }, _)) => Control::Abort(msg),
            Ok((other, _)) => Control::Unexpected(format!(
                "unexpected control frame from node {rank}: {other:?}"
            )),
            Err(e) if is_timeout(&e) => Control::Quiet,
            Err(_) => Control::Closed,
        }
    }

    /// Take in everything `rank` has sent so far, up to its `Done`.
    /// `Ok(false)`: the connection is closed. An `Abort` or a frame that
    /// does not belong here fails the launch.
    fn drain_control(&mut self, rank: usize) -> Result<bool, LaunchError> {
        loop {
            match self.read_control(rank) {
                Control::Absorbed if self.done[rank].is_none() => continue,
                Control::Absorbed | Control::Quiet => return Ok(true),
                Control::Closed => return Ok(false),
                Control::Abort(msg) => {
                    return Err(self.failure(format!("node {rank} aborted: {msg}"), rank))
                }
                Control::Unexpected(what) => return Err(LaunchError::Fleet(what)),
            }
        }
    }

    /// Member `failed` is gone: give every survivor a grace window to
    /// ship its flight recorder over the still-open control connection,
    /// then compose the failure report — the base message, the failing
    /// node's last shipped stats, and one recent-events window per
    /// surviving node.
    fn failure(&mut self, base: String, failed: usize) -> LaunchError {
        let n = self.readers.len();
        let is_recorder = |f: &Option<NodeFeed>| matches!(f, Some(f) if f.telemetry.phase == TelemetryPhase::FlightRecorder);
        let deadline = Instant::now() + self.spec.flight_recorder_grace;
        let mut waiting: Vec<usize> = (0..n)
            .filter(|&r| r != failed && !self.settled(r) && !is_recorder(&self.feeds[r]))
            .collect();
        while !waiting.is_empty() && Instant::now() < deadline {
            waiting.retain(|&rank| match self.read_control(rank) {
                Control::Absorbed => !self.settled(rank) && !is_recorder(&self.feeds[rank]),
                // The survivor exited; nothing more is coming.
                Control::Closed => false,
                _ => true,
            });
        }
        let mut msg = base;
        self.registry.mark_dead(failed);
        if let Some(f) = &self.feeds[failed] {
            msg.push_str(&format!(
                "\nlast telemetry shipped by the failing node ({}): {}",
                f.telemetry.phase.label(),
                f.telemetry.stats.render_brief()
            ));
        }
        for (rank, feed) in self.feeds.iter().enumerate() {
            let Some(f) = feed
                .as_ref()
                .filter(|_| rank != failed && is_recorder(feed))
            else {
                continue;
            };
            msg.push_str(&format!(
                "\n--- flight recorder (node {rank}, images {}) ---\n",
                self.spec.images_of(rank)
            ));
            if !f.telemetry.cause.is_empty() {
                msg.push_str(&format!("cause: {}\n", f.telemetry.cause));
            }
            msg.push_str(&format!("stats: {}\n", f.telemetry.stats.render_brief()));
            msg.push_str(&f.telemetry.render_window(5));
        }
        LaunchError::Fleet(msg)
    }

    /// Collect `Done` from every rank; enforce the run timeout; run the
    /// optional kill schedule; treat an early exit or EOF-without-`Done`
    /// as a death — repaired, shrunk around, or reported.
    fn supervise(&mut self) -> Result<(), LaunchError> {
        let (spec, n) = (self.spec, self.readers.len());
        let run_deadline = Instant::now() + spec.run_timeout;
        let mut kill_at = spec.kill.map(|k| (k.rank, Instant::now() + k.after));
        let mut respawns_left = if spec.respawn { spec.max_respawns } else { 0 };
        loop {
            // A settled rank may exit whenever it likes.
            let settled: Vec<bool> = (0..n).map(|r| self.settled(r)).collect();
            if settled.iter().all(|s| *s) {
                return Ok(());
            }
            if let Some((rank, _)) = kill_at.filter(|(_, at)| Instant::now() >= *at) {
                let _ = self.fleet.children[rank].kill();
                kill_at = None;
            }
            if Instant::now() > run_deadline {
                let missing: Vec<String> = (0..n)
                    .filter(|r| !settled[*r])
                    .map(|r| spec.member_desc(r))
                    .collect();
                return Err(LaunchError::Fleet(format!(
                    "fleet hung: no results from {} within {:?}",
                    missing.join(", "),
                    spec.run_timeout
                )));
            }
            if let Some((rank, status)) = self.fleet.check_exits(&settled) {
                self.member_exited(rank, &status, &mut respawns_left)?;
                continue;
            }
            for rank in 0..n {
                if self.settled(rank) || self.control_eof[rank] || self.drain_control(rank)? {
                    continue;
                }
                // Control connection closed without Done. With a respawn
                // budget (or shrink tolerance), park the reader and let
                // the exit-status check attribute and repair (or excuse)
                // the death; otherwise report it directly.
                if respawns_left > 0 || spec.shrink {
                    self.control_eof[rank] = true;
                    continue;
                }
                let who = spec.member_desc(rank);
                return Err(self.failure(format!("{who} died before reporting results"), rank));
            }
        }
    }

    /// The child at `rank` exited (with `status`) before its `Done` frame
    /// was read. A clean exit right after `Done` is legal — its final
    /// frames (telemetry, then `Done`) may still be buffered on the
    /// control connection, so drain them before ruling the exit a death.
    /// A death is repaired by a respawn while the budget lasts, else
    /// shrunk around if the spec tolerates that, else reported.
    fn member_exited(
        &mut self,
        rank: usize,
        status: &str,
        respawns_left: &mut usize,
    ) -> Result<(), LaunchError> {
        self.drain_control(rank)?;
        if self.done[rank].is_some() {
            return Ok(());
        }
        let (spec, who) = (self.spec, self.spec.member_desc(rank));
        if *respawns_left > 0 {
            // Spawn a new incarnation, let it re-register, and hand it
            // the current peer map. Survivors learn its fresh data-plane
            // address from the `Rejoin` handshake, not from us.
            *respawns_left -= 1;
            let generation = self.respawns.len() as u64 + 1;
            eprintln!(
                "caf-launch: {who} died ({status}); \
                 respawning at recovery generation {generation}"
            );
            self.registry.mark_dead(rank);
            self.fleet.respawn(rank, generation)?;
            self.readers[rank] = self.coord.readmit(rank, spec.rendezvous_timeout)?;
            self.readers[rank].get_ref().set_read_timeout(Some(POLL))?;
            self.control_eof[rank] = false;
            self.registry.mark_respawned(rank);
            self.respawns.push((rank, generation));
            return Ok(());
        }
        if spec.shrink {
            // The survivors re-form their team around the hole and
            // complete without these images.
            eprintln!(
                "caf-launch: {who} died ({status}); \
                 continuing on the shrunken surviving team"
            );
            self.registry.mark_dead(rank);
            self.lost.push(rank);
            return Ok(());
        }
        Err(self.failure(
            format!("{who} died before reporting results ({status})"),
            rank,
        ))
    }

    /// Orderly exit: children leave on their own after `Done`.
    fn reap(&mut self) -> Result<(), LaunchError> {
        let exit_deadline = Instant::now() + Duration::from_secs(10);
        for (rank, child) in self.fleet.children.iter_mut().enumerate() {
            if self.lost.contains(&rank) {
                let _ = child.try_wait();
                continue;
            }
            let how = loop {
                match child.try_wait()? {
                    Some(status) if status.success() => break None,
                    Some(status) => break Some(format!("exited badly ({status})")),
                    None if Instant::now() > exit_deadline => break Some("never exited".into()),
                    None => std::thread::sleep(Duration::from_millis(10)),
                }
            };
            if let Some(how) = how {
                let who = self.spec.member_desc(rank);
                return Err(LaunchError::Fleet(format!(
                    "{who} reported results but {how}"
                )));
            }
        }
        Ok(())
    }
}

/// Spawn, rendezvous, supervise, and reap a fleet. Returns the collected
/// per-image results, or an error naming the node (and its 1-based images)
/// that died or hung. All children are killed and reaped before an error
/// returns — a broken fleet never outlives the call.
pub fn launch(spec: &LaunchSpec) -> Result<FleetOutcome, LaunchError> {
    let n = spec.node_images.len();
    assert!(n > 0, "empty fleet");
    assert!(
        !spec.command.is_empty(),
        "launch spec needs a child command"
    );
    let mut coord = Coordinator::bind(spec.transport, n)?;
    let t0 = Instant::now();
    // The live registry backs the optional /metrics surface for the
    // whole launch.
    let registry = Arc::new(FleetRegistry::new(
        spec.node_images
            .iter()
            .map(|imgs| imgs.iter().map(|i| *i as u32).collect())
            .collect(),
    ));
    let _obs_server = match spec.obs_addr {
        Some(addr) => {
            let srv = ObsServer::start(addr, registry.clone())?;
            eprintln!(
                "caf-launch: observability surface at http://{}/metrics",
                srv.addr()
            );
            Some(srv)
        }
        None => None,
    };
    let mut fleet = Fleet::spawn(spec, coord.addr().clone())?;
    let no_excuses = vec![false; n];
    let readers = coord.admit(spec.rendezvous_timeout, || {
        if let Some((rank, status)) = fleet.check_exits(&no_excuses) {
            let who = spec.member_desc(rank);
            return Err(LaunchError::Fleet(format!(
                "{who} exited during rendezvous ({status})"
            )));
        }
        std::thread::sleep(Duration::from_millis(5));
        Ok(())
    })?;
    for r in &readers {
        r.get_ref().set_read_timeout(Some(POLL))?;
    }
    let mut supervisor = Supervisor {
        spec,
        fleet,
        coord,
        readers,
        done: vec![None; n],
        lost: Vec::new(),
        control_eof: vec![false; n],
        respawns: Vec::new(),
        feeds: vec![None; n],
        registry,
        t0,
    };
    supervisor.supervise()?;
    supervisor.reap()?;
    // Let a scraper take a final /metrics reading before the surface goes
    // away with the launcher.
    if spec.obs_linger > Duration::ZERO {
        std::thread::sleep(spec.obs_linger);
    }
    let Supervisor {
        done,
        feeds,
        respawns,
        lost,
        ..
    } = supervisor;
    let mut results: Vec<(u32, u64)> = done.into_iter().flatten().flatten().collect();
    results.sort_unstable_by_key(|(img, _)| *img);
    Ok(FleetOutcome {
        results,
        telemetry: feeds,
        respawns,
        lost,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn child_env_roundtrip() {
        std::env::set_var(ENV_NODE, "2");
        std::env::set_var(ENV_NODES, "4");
        std::env::set_var(ENV_COORD, "uds:/tmp/caf-test-coord.sock");
        let env = ChildEnv::detect().expect("detect");
        assert_eq!(env.node, 2);
        assert_eq!(env.nodes, 4);
        assert_eq!(env.coord, Addr::Uds("/tmp/caf-test-coord.sock".into()));
        std::env::remove_var(ENV_NODE);
        std::env::remove_var(ENV_NODES);
        std::env::remove_var(ENV_COORD);
        assert!(ChildEnv::detect().is_none());
    }

    fn map(nodes: usize, cores: usize, images: usize) -> ImageMap {
        let machine = caf_topology::presets::mini(nodes, cores);
        ImageMap::new(machine, images, &caf_topology::Placement::Packed)
    }

    #[test]
    fn dead_child_is_reported_with_its_images() {
        // A "fleet" of one /bin/false: exits immediately, never says Hello.
        let spec = LaunchSpec {
            rendezvous_timeout: Duration::from_secs(10),
            ..LaunchSpec::new(vec!["/bin/false".into()], &map(1, 4, 4))
        };
        let err = launch(&spec).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("node 0") && msg.contains("images 1,2,3,4"),
            "report must name the node and images: {msg}"
        );
    }

    #[test]
    fn spec_names_members_by_the_maps_process_plan() {
        // Packed placement, 6 images on 3 nodes x 4 cores: node 2 stays
        // empty and gets no process.
        let spec = LaunchSpec::new(vec!["unused".into()], &map(3, 4, 6));
        assert_eq!(spec.node_images, vec![vec![1, 2, 3, 4], vec![5, 6]]);
        assert_eq!(spec.member_desc(1), "node 1 (images 5,6)");
    }

    #[test]
    fn child_environment_rides_on_the_command_not_on_the_parent() {
        // The child writes the variable it was handed into a file; the
        // parent's own environment never sees it.
        let dir = std::env::temp_dir().join(format!("caf-launch-env-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let script = format!(
            "echo \"$CAF_CKPT_DIR\" > {}/$CAF_LAUNCH_NODE",
            dir.display()
        );
        let mut spec = LaunchSpec::new(vec!["/bin/sh".into(), "-c".into(), script], &map(1, 1, 1));
        spec.child_env = vec![("CAF_CKPT_DIR".into(), "/handed/down".into())];
        // The child never says Hello: the launch fails once it has exited.
        spec.rendezvous_timeout = Duration::from_secs(10);
        launch(&spec).unwrap_err();
        assert!(std::env::var("CAF_CKPT_DIR").is_err());
        let wrote = std::fs::read_to_string(dir.join("0")).unwrap();
        assert_eq!(wrote.trim(), "/handed/down");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
