//! Hosted collectives: the real [`TeamComm`] bodies as [`StepProgram`]s,
//! so one thread can step a fleet far past what a thread per image allows.
//!
//! There is no second encoding of any algorithm here. A [`Hosted`] image
//! owns an ordinary `TeamComm` of a [`Provisioned`] team whose fabric is a
//! [`Script`] — a recorder in front of the [`SimFabric`]. Whenever the
//! stepper asks for the image's next op and none is taped, the program
//! calls its *episode* (`|c| c.barrier()`, `|c| c.co_sum(&mut [0u64])`, …),
//! which runs the collective to the end against the recorder and leaves the
//! image's op sequence for that episode on its tape:
//!
//! ```ignore
//! let team = Provisioned::new(&*sim, (0..n).map(ProcId).collect(), cfg, 8);
//! let programs = hosted::fleet(&sim, &team, episodes, |c| c.barrier());
//! let report = caf_fabric::run_stepped(&sim, programs);
//! ```
//!
//! Running a body ahead of the fleet is sound because, past formation, the
//! bodies are **data-independent**: they reach the fabric only through
//! `comm.rs`'s primitives (`put_flag`, `put_nb`, a read of their own
//! scratch, `flag_add`, `flag_wait_ge`), never branch on a value they read, and
//! wait only on thresholds they computed. The recorder enforces it: any
//! call that would hand back a value panics, naming the call and the image.
//! The values themselves are not simulated — a hosted `co_sum` moves the
//! right bytes at the right times and computes nothing.
//! `tests/hosted_parity.rs` holds every algorithm's hosted run to the same
//! methods called from image threads, to the nanosecond and the counter.

use crate::comm::{Provisioned, TeamComm};
use caf_fabric::{Fabric, Script, SimFabric, StepOp, StepProgram};
use caf_topology::ProcId;
use std::sync::Arc;

/// One hosted image: a real team context, the recorder it talks to, and
/// the collective it runs `left` more times.
pub struct Hosted<E> {
    comm: TeamComm,
    script: Arc<Script>,
    episode: E,
    left: u64,
}

impl<E: FnMut(&mut TeamComm)> StepProgram for Hosted<E> {
    fn next(&mut self) -> StepOp {
        loop {
            if let Some(op) = self.script.pop(self.comm.me) {
                return op;
            }
            if self.left == 0 {
                return StepOp::Done;
            }
            self.left -= 1;
            (self.episode)(&mut self.comm);
        }
    }
}

/// One program per image of `sim`, each running `episode` `episodes` times
/// on its context of `team` — which must span all of `sim`'s images in rank
/// order and have been provisioned on `sim`. Every image gets its own clone
/// of `episode`, so a closure may count its calls (to rotate a root).
pub fn fleet<E>(
    sim: &Arc<SimFabric>,
    team: &Provisioned,
    episodes: u64,
    episode: E,
) -> Vec<Hosted<E>>
where
    E: FnMut(&mut TeamComm) + Clone,
{
    assert_eq!(team.size(), sim.n_images(), "a hosted team spans the fleet");
    let script = Script::new(sim.clone());
    (0..team.size())
        .map(|rank| {
            let comm = team.comm(script.clone(), rank);
            assert_eq!(comm.me, ProcId(rank), "hosted ranks are image numbers");
            Hosted {
                comm,
                script: script.clone(),
                episode: episode.clone(),
                left: episodes,
            }
        })
        .collect()
}
