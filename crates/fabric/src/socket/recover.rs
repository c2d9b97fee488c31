//! Recovery: the process-local heal rendezvous, the fleet-wide two-round
//! fence, and the reset between its rounds.
//!
//! Owns the generation counter and the fence's marks. The reset is the one
//! place outside normal operation that rewrites the [`store`](super::store),
//! empties [`pending`](super::pending) and discards corked frames; it runs
//! when no image issues traffic and every pre-fence frame has been applied.

use super::wire::Frame;
use super::{SocketFabric, PEER_ALIVE, PEER_DEAD};
use crate::RecoveryError;
use parking_lot::{Condvar, Mutex};
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Process-local heal rendezvous: hosted images gather here; the last
/// arrival runs the fleet-wide recovery fence.
struct HealState {
    waiting: usize,
    round: u64,
    /// Failure report of the round's fence leader, for the waiters.
    failed: Option<String>,
}

/// The recovery state of one process.
pub(super) struct Recovery {
    /// Completed recovery generations (plus any inherited at construction
    /// by a respawned process).
    pub(super) generation: AtomicU64,
    /// Hosted images' heal rendezvous (the process-local half of
    /// [`Fabric::heal`](crate::Fabric::heal)).
    heal: Mutex<HealState>,
    heal_cv: Condvar,
    /// `(generation, round)` → peer ranks whose [`Frame::RecoverBarrier`]
    /// mark has arrived.
    marks: Mutex<HashMap<(u64, u64), HashSet<usize>>>,
    marks_cv: Condvar,
}

impl Recovery {
    pub(super) fn new(generation: u64) -> Self {
        Self {
            generation: AtomicU64::new(generation),
            heal: Mutex::new(HealState {
                waiting: 0,
                round: 0,
                failed: None,
            }),
            heal_cv: Condvar::new(),
            marks: Mutex::new(HashMap::new()),
            marks_cv: Condvar::new(),
        }
    }
}

impl SocketFabric {
    /// An ingress thread received a peer's [`Frame::RecoverBarrier`] mark.
    pub(super) fn record_recover_mark(&self, node: usize, round: u64, generation: u64) {
        let mut marks = self.recovery.marks.lock();
        marks.entry((generation, round)).or_default().insert(node);
        self.recovery.marks_cv.notify_all();
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
            self.send_control(rank, &frame).map_err(|e| {
                RecoveryError::HealFailed(format!(
                    "recovery mark (round {round}) to {} failed: {e}",
                    self.peer_desc(rank)
                ))
            })?;
        }
        let mut marks = self.recovery.marks.lock();
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
            self.recovery
                .marks_cv
                .wait_for(&mut marks, Duration::from_millis(50));
        }
    }

    /// Reset this process's synchronization state to the post-bootstrap
    /// shape a freshly-joined process has: bootstrap segment + control
    /// flags only (zeroed), no in-flight requests, no poison. Runs between
    /// the two fence rounds, when no process is issuing application
    /// traffic and every pre-fence frame has been applied.
    fn reset_local_state(&self) {
        self.store.reset();
        self.pending.reset();
        // Whatever is still corked is pre-fence traffic for state that no
        // longer exists, and the responses it awaited were just forgotten.
        for e in self.egress.iter().filter_map(OnceLock::get) {
            e.reset();
        }
        self.poisoned.clear();
    }

    /// The fleet-wide half of [`Fabric::heal`], run by one image per
    /// process: wait for respawned peers to dial back in (respawn mode),
    /// then a two-round fence — round 1 "stopped, stale traffic drained",
    /// local reset, round 2 "reset complete" — and finally commit the new
    /// generation.
    fn run_recovery_fence(&self) -> Result<(), RecoveryError> {
        let target = self.recovery.generation.load(Ordering::Acquire) + 1;
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
        self.recovery.generation.store(target, Ordering::Release);
        (self.recovery.marks)
            .lock()
            .retain(|(generation, _), _| *generation > target);
        Ok(())
    }

    /// The process-local half of [`Fabric::heal`](crate::Fabric::heal): the
    /// fence must run exactly once per round, after every hosted image has
    /// stopped issuing traffic. The last hosted image to arrive leads; the
    /// rest park here. Followers get twice the fence budget: the leader's
    /// own deadline starts once it begins waiting for the respawned peer.
    pub(super) fn heal_rendezvous(&self) -> Result<(), RecoveryError> {
        self.flush_corked();
        let wait_deadline = Instant::now() + self.cfg.io_timeout * 2;
        let rec = &self.recovery;
        let mut g = rec.heal.lock();
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
                rec.heal_cv.wait_for(&mut g, wait_deadline - now);
            }
            match &g.failed {
                Some(msg) => Err(RecoveryError::HealFailed(msg.clone())),
                None => Ok(()),
            }
        } else {
            g.waiting = 0;
            drop(g);
            let res = self.run_recovery_fence();
            let mut g = rec.heal.lock();
            g.round += 1;
            g.failed = res.as_ref().err().map(|e| e.to_string());
            rec.heal_cv.notify_all();
            res
        }
    }
}
