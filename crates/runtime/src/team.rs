//! The `Team` value — the runtime face of the paper's `team_type`.
//!
//! A `Team` wraps a [`TeamComm`] (the mapping array, hierarchy view, and
//! synchronization resources) and carries the Fortran-level identity: the
//! `team_number` passed to `form team` and the nesting depth. As in
//! Fortran, each image holds its **own** team value; what is shared is the
//! underlying communication structure, whose resources every member holds
//! under the same ids.

use caf_collectives::TeamComm;

/// The initial team's number, as in Fortran 2015 (`team_number()` returns
/// −1 when the current team is the initial team).
pub const INITIAL_TEAM_NUMBER: i64 = -1;

/// One image's handle to a team. Obtain via `ImageCtx::form_team`; enter
/// with `ImageCtx::change_team`; query with `ImageCtx::this_image` etc.
pub struct Team {
    pub(crate) comm: TeamComm,
    pub(crate) number: i64,
    pub(crate) depth: usize,
}

impl Team {
    /// The team number given at formation (−1 for the initial team) — the
    /// Fortran `team_number()` intrinsic.
    pub fn team_number(&self) -> i64 {
        self.number
    }

    /// Nesting depth: 0 for the initial team, parent depth + 1 otherwise.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Number of images in this team (`num_images(team=...)`).
    pub fn num_images(&self) -> usize {
        self.comm.size()
    }

    /// This image's 1-based index within the team (`this_image(team=...)`).
    pub fn this_image(&self) -> usize {
        self.comm.rank() + 1
    }

    /// The underlying communication structure (algorithm queries, direct
    /// collective calls, statistics).
    pub fn comm(&self) -> &TeamComm {
        &self.comm
    }

    /// Mutable access to the communication structure, for calling
    /// collectives on a team without entering it (e.g. `sync team`).
    pub fn comm_mut(&mut self) -> &mut TeamComm {
        &mut self.comm
    }
}

impl std::fmt::Debug for Team {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Team")
            .field("number", &self.number)
            .field("depth", &self.depth)
            .field("size", &self.comm.size())
            .field("this_image", &self.this_image())
            .finish()
    }
}
