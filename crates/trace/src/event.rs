//! The fixed-size trace event: one cache line of plain-old-data words so
//! recording is a handful of relaxed stores into a ring slot.
//!
//! Field meaning is per kind (`a`–`d` are overloaded): each kind is one
//! row of the `kinds!` table below, whose docs say what its operands hold.
//! A collective or team kind's row also names the operand its team tag
//! rides in, which `metrics::aggregate` groups by.
//!
//! Timestamps are whatever the owning fabric's clock produces: virtual
//! nanoseconds under `SimFabric`, wall nanoseconds under `ThreadFabric`.

/// Words per encoded event (64 bytes).
pub const EVENT_WORDS: usize = 8;

/// Image index stored for simulator-side (system) events, e.g.
/// [`EventKind::FlagDeliver`] records made while applying the event queue.
pub const SYSTEM_IMG: u32 = u32::MAX;

/// `flags` bit: the operation stayed within one node.
pub const FLAG_INTRA: u32 = 1 << 0;

/// `flags` bit: the operation targeted the issuing image itself.
pub const FLAG_SELF: u32 = 1 << 1;

/// `flags` bits 2–3: hierarchy level of a collective phase span.
pub const LEVEL_SHIFT: u32 = 2;
const LEVEL_MASK: u32 = 0b11 << LEVEL_SHIFT;

/// Hierarchy level a collective phase span belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Level {
    /// The whole operation, across every level.
    Whole,
    /// Intra-node (shared-memory) portion.
    Intra,
    /// Inter-node (network) portion.
    Inter,
}

impl Level {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Level::Whole => "whole",
            Level::Intra => "intra",
            Level::Inter => "inter",
        }
    }
}

/// Declares [`EventKind`] **once**. Each kind is one row — its docs (what
/// `a`–`d` hold), variant, wire code and display name, and for a
/// collective or team kind the operand carrying its team tag — and the row
/// is the variant, its decoder arm, its name, its team operand and its
/// place in [`EventKind::ALL`]. Rows are in code order, which the derived
/// `Ord` (and so the metrics table's row order) follows. A new kind is one
/// row, under a code never used.
macro_rules! kinds {
    (@team $ev:ident) => { 0 };
    (@team $ev:ident $op:ident) => { $ev.$op };
    ($(
        $(#[$doc:meta])+
        $Name:ident = $code:literal $name:literal $(team $team:ident)?;
    )+) => {
        /// What a trace event records.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
        #[repr(u32)]
        pub enum EventKind {
            $($(#[$doc])+ $Name = $code,)+
        }

        impl EventKind {
            /// Every kind, in code order.
            pub const ALL: &'static [EventKind] = &[$(Self::$Name),+];

            /// Decode from the stored discriminant.
            pub fn from_u32(v: u32) -> Option<Self> {
                match v {
                    $($code => Some(Self::$Name),)+
                    _ => None,
                }
            }

            /// Stable display name (also the Chrome trace event name).
            pub fn name(self) -> &'static str {
                match self {
                    $(Self::$Name => $name,)+
                }
            }
        }

        impl Event {
            /// The team tag this event carries (`first_member << 32 | size`):
            /// the operand its kind's row names, 0 for a kind without one.
            pub(crate) fn team(&self) -> u64 {
                let ev = self;
                match ev.kind {
                    $(EventKind::$Name => kinds!(@team ev $($team)?),)+
                }
            }
        }
    };
}

kinds! {
    /// One-sided remote write: `a` peer image, `b` bytes, `c` queue ns,
    /// `d` service ns.
    Put = 1 "put";
    /// One-sided remote read: `a` peer image, `b` bytes, `c` queue ns,
    /// `d` service ns.
    Get = 2 "get";
    /// Atomic fetch-and-add on a remote segment word: `a` peer image, `b`
    /// byte offset, `c` queue ns, `d` service ns.
    AmoFetchAdd = 3 "amo_fadd";
    /// Atomic compare-and-swap on a remote segment word: `a` peer image,
    /// `b` byte offset, `c` queue ns, `d` service ns.
    AmoCas = 4 "amo_cas";
    /// Notification: add to a (possibly remote) sync flag. `a` dst image,
    /// `b` flag id, `c` delta, `d` modeled arrival t.
    FlagAdd = 5 "flag_add";
    /// Blocking wait until a local flag reaches a target: `a` flag id, `b`
    /// target value.
    FlagWait = 6 "flag_wait";
    /// Simulator-side: the instant a flag add landed at its target. `a` src
    /// image, `b` flag id, `c` post t, `d` dst image.
    FlagDeliver = 7 "flag_deliver";
    /// Completion fence for outstanding one-sided ops.
    Quiet = 8 "quiet";
    /// Modeled local computation.
    Compute = 9 "compute";
    /// Nonblocking one-sided remote write (injection span; completion is
    /// observed through `quiet`/`put_wait`): `a` peer image, `b` bytes, `c`
    /// queue ns, `d` service ns.
    PutNb = 10 "put_nb";
    /// A whole barrier episode: `a` algorithm code, `b` team tag, `c` epoch.
    Barrier = 16 "barrier" team b;
    /// One dissemination round inside a barrier: `a` round k, `b` partner
    /// image, `c` epoch.
    BarrierRound = 17 "barrier_round";
    /// TDLB phase 1, a leader collecting its node's slave notifications: `a`
    /// slave count, `b` team tag, `c` epoch.
    TdlbGather = 18 "tdlb_gather" team b;
    /// TDLB phase 2, dissemination among node leaders: `a` leader count, `b`
    /// team tag, `c` epoch.
    TdlbDissem = 19 "tdlb_dissem" team b;
    /// TDLB phase 3, a leader releasing its node's slaves: `a` slave count,
    /// `b` team tag, `c` epoch.
    TdlbRelease = 20 "tdlb_release" team b;
    /// A whole broadcast episode: `a` algorithm code, `b` team tag, `c`
    /// epoch, `d` bytes.
    Bcast = 21 "bcast" team b;
    /// One stage of a two-level broadcast: `a` stage index, `b` team tag,
    /// `c` epoch.
    BcastStage = 22 "bcast_stage" team b;
    /// A whole allreduce episode: `a` algorithm code, `b` team tag, `c`
    /// epoch, `d` bytes.
    Reduce = 23 "reduce" team b;
    /// One stage of a two-level reduction: `a` stage index, `b` team tag,
    /// `c` epoch.
    ReduceStage = 24 "reduce_stage" team b;
    /// `form_team`, collective subteam construction: `a` team tag, `b`
    /// size, `c` color.
    FormTeam = 32 "form_team" team a;
    /// `change_team`, entering a team's execution scope: `a` team tag.
    ChangeTeam = 33 "change_team" team a;
    /// `end_team`, leaving a team's execution scope: `a` team tag.
    EndTeam = 34 "end_team" team a;
    /// `sync images`, pairwise image synchronization: `a` partner count.
    SyncImages = 35 "sync_images";
    /// `sync memory`, a local completion fence.
    SyncMemory = 36 "sync_memory";
    /// `event post` on a (possibly remote) event variable: `a` dst image,
    /// `b` event index.
    EventPost = 37 "event_post";
    /// `event wait` on a local event variable: `a` event index, `b` until
    /// count.
    EventWait = 38 "event_wait";
}

/// One trace record. Its [`EventKind`] row says what `a`–`d` hold.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Event {
    /// Start timestamp (fabric clock, nanoseconds).
    pub t_ns: u64,
    /// Span duration; 0 for instant events.
    pub dur_ns: u64,
    /// What happened.
    pub kind: EventKind,
    /// `FLAG_*` bits plus the encoded [`Level`].
    pub flags: u32,
    /// Recording image, or [`SYSTEM_IMG`] for simulator-side records.
    pub img: u32,
    /// Per-kind operand (see the kind's row).
    pub a: u64,
    /// Per-kind operand.
    pub b: u64,
    /// Per-kind operand.
    pub c: u64,
    /// Per-kind operand.
    pub d: u64,
}

impl Event {
    /// An instant event at `t_ns` with zeroed operands.
    pub fn instant(kind: EventKind, t_ns: u64) -> Self {
        Self {
            t_ns,
            dur_ns: 0,
            kind,
            flags: 0,
            img: 0,
            a: 0,
            b: 0,
            c: 0,
            d: 0,
        }
    }

    /// A span covering `[t_ns, t_ns + dur_ns)`.
    pub fn span(kind: EventKind, t_ns: u64, dur_ns: u64) -> Self {
        Self {
            dur_ns,
            ..Self::instant(kind, t_ns)
        }
    }

    /// Set operand `a`.
    pub fn a(mut self, v: u64) -> Self {
        self.a = v;
        self
    }

    /// Set operand `b`.
    pub fn b(mut self, v: u64) -> Self {
        self.b = v;
        self
    }

    /// Set operand `c`.
    pub fn c(mut self, v: u64) -> Self {
        self.c = v;
        self
    }

    /// Set operand `d`.
    pub fn d(mut self, v: u64) -> Self {
        self.d = v;
        self
    }

    /// Mark the op intra-node (`true`) or inter-node (`false`).
    pub fn intra(mut self, intra: bool) -> Self {
        if intra {
            self.flags |= FLAG_INTRA;
        }
        self
    }

    /// Mark the op as targeting the issuing image itself.
    pub fn self_target(mut self) -> Self {
        self.flags |= FLAG_SELF | FLAG_INTRA;
        self
    }

    /// Tag the hierarchy level of a collective phase.
    pub fn level(mut self, level: Level) -> Self {
        self.flags = (self.flags & !LEVEL_MASK)
            | (match level {
                Level::Whole => 0,
                Level::Intra => 1,
                Level::Inter => 2,
            } << LEVEL_SHIFT);
        self
    }

    /// The op stayed within one node.
    pub fn is_intra(&self) -> bool {
        self.flags & FLAG_INTRA != 0
    }

    /// The op targeted the issuing image.
    pub fn is_self(&self) -> bool {
        self.flags & FLAG_SELF != 0
    }

    /// Hierarchy level tag of a collective phase span.
    pub fn hierarchy_level(&self) -> Level {
        match (self.flags & LEVEL_MASK) >> LEVEL_SHIFT {
            1 => Level::Intra,
            2 => Level::Inter,
            _ => Level::Whole,
        }
    }

    /// End timestamp (`t_ns + dur_ns`).
    pub fn end_ns(&self) -> u64 {
        self.t_ns + self.dur_ns
    }

    /// Encode into ring-slot words.
    pub fn encode(&self) -> [u64; EVENT_WORDS] {
        [
            self.t_ns,
            self.dur_ns,
            (self.kind as u64) | ((self.flags as u64) << 32),
            self.img as u64,
            self.a,
            self.b,
            self.c,
            self.d,
        ]
    }

    /// Decode from ring-slot words; `None` for an unknown kind word
    /// (e.g. a torn or never-written slot).
    pub fn decode(w: &[u64; EVENT_WORDS]) -> Option<Self> {
        let kind = EventKind::from_u32((w[2] & 0xFFFF_FFFF) as u32)?;
        Some(Self {
            t_ns: w[0],
            dur_ns: w[1],
            kind,
            flags: (w[2] >> 32) as u32,
            img: w[3] as u32,
            a: w[4],
            b: w[5],
            c: w[6],
            d: w[7],
        })
    }

    /// Compact single-line rendering for diagnostics (deadlock reports).
    pub fn render(&self) -> String {
        let locality = if self.is_self() {
            " self"
        } else if self.is_intra() {
            " intra"
        } else {
            ""
        };
        let dur = if self.dur_ns > 0 {
            format!(" dur={}ns", self.dur_ns)
        } else {
            String::new()
        };
        format!(
            "t={}ns {}{}{} a={} b={} c={} d={}",
            self.t_ns,
            self.kind.name(),
            locality,
            dur,
            self.a,
            self.b,
            self.c,
            self.d
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        let ev = Event::span(EventKind::Put, 123, 456)
            .a(7)
            .b(4096)
            .c(11)
            .d(22)
            .intra(true);
        let mut ev = ev;
        ev.img = 3;
        assert_eq!(Event::decode(&ev.encode()), Some(ev));
    }

    #[test]
    fn unknown_kind_decodes_to_none() {
        let w = [0u64, 0, 999, 0, 0, 0, 0, 0];
        assert_eq!(Event::decode(&w), None);
    }

    #[test]
    fn level_tagging_roundtrip() {
        for level in [Level::Whole, Level::Intra, Level::Inter] {
            let ev = Event::instant(EventKind::TdlbDissem, 0).level(level);
            assert_eq!(ev.hierarchy_level(), level);
        }
        // Level bits do not clobber locality bits.
        let ev = Event::instant(EventKind::TdlbGather, 0)
            .intra(true)
            .level(Level::Intra);
        assert!(ev.is_intra());
        assert_eq!(ev.hierarchy_level(), Level::Intra);
    }
}
