//! Operation counters, split by memory-hierarchy level.
//!
//! The paper's §IV-A methodology is justified by *counting notifications*:
//! dissemination performs n⌈log₂ n⌉ of them, a centralized linear barrier
//! 2(n−1), and TDLB turns most of them intra-node. [`FabricStats`] lets the
//! test-suite and the EXP-A1 ablation assert those closed forms against the
//! actual traffic the algorithms generate.
//!
//! A [`FabricStats`] is one set of *shared* cells, which any thread bumps
//! with an atomic add (service threads, the simulator, the active-message
//! tier), plus one cache-padded *lane* of the same cells per hosted image
//! of a real-memory fabric. A lane is written by its image's thread alone,
//! so a data op counts itself with a load and a store — no locked
//! instruction, no line another image writes — and [`FabricStats::snapshot`]
//! adds the lanes to the shared cells. Who records where is the [`Lane`]
//! the caller holds; the `record_*` helpers are written once, on it.

use crossbeam::utils::CachePadded;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};

/// One row of a counter table: the field's name plus the Prometheus family
/// it is exported under. The name is also its `fleet_report.json` key.
#[derive(Clone, Copy, Debug)]
pub struct Counter {
    /// Field name in the atomic struct and its snapshot.
    pub name: &'static str,
    /// Metric family on `/metrics`; a `_total` suffix makes it a counter,
    /// anything else a gauge. Rows of one family are adjacent.
    pub family: &'static str,
    /// Label pair telling a family's rows apart (`level="intra"`), or "".
    pub label: &'static str,
    /// HELP text, carried by the first row of each family.
    pub help: &'static str,
}

/// Declares a set of relaxed `AtomicU64` counters **once**: the atomic
/// struct, its plain-data snapshot, `snapshot`/`reset`/`-`, and the
/// `FIELDS`/`to_words`/`from_words` view every codec and exporter loops
/// over. Declaration order is wire order — append, never reorder.
macro_rules! counters {
    (
        $(#[$ameta:meta])* $avis:vis struct $Atomic:ident;
        $(#[$smeta:meta])* $svis:vis struct $Snap:ident;
        $(
            $(#[$doc:meta])+
            $name:ident
            $(=> $family:literal $([$lk:ident = $lv:literal])? $($help:literal)?)?;
        )+
    ) => {
        $(#[$ameta])*
        #[derive(Debug, Default)]
        $avis struct $Atomic {
            $($(#[$doc])+ pub $name: AtomicU64,)+
        }

        $(#[$smeta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $svis struct $Snap {
            $($(#[$doc])+ pub $name: u64,)+
        }

        impl $Atomic {
            /// The counters themselves, in table order.
            pub fn cells(&self) -> [&AtomicU64; $Snap::WORDS] {
                [$(&self.$name),+]
            }

            /// Capture the current counter values.
            pub fn snapshot(&self) -> $Snap {
                $Snap::from_words(self.cells().map(|c| c.load(Ordering::Relaxed)))
            }

            /// Reset every counter to zero (between benchmark phases).
            #[allow(dead_code)] // crate-private tables need not reset
            pub fn reset(&self) {
                for c in self.cells() {
                    c.store(0, Ordering::Relaxed);
                }
            }
        }

        impl $Snap {
            /// Number of counters: the snapshot's length on the wire, in
            /// little-endian u64 words.
            pub const WORDS: usize = Self::FIELDS.len();

            /// Every counter, in declaration (= wire) order.
            pub const FIELDS: &'static [$crate::stats::Counter] = &[$(
                $crate::stats::Counter {
                    name: stringify!($name),
                    family: concat!($($family)?),
                    label: concat!($($(stringify!($lk), "=\"", $lv, "\"")?)?),
                    help: concat!($($($help)?)?),
                },
            )+];

            /// The counter values in [`Self::FIELDS`] order.
            pub fn to_words(&self) -> [u64; $Snap::WORDS] {
                [$(self.$name),+]
            }

            /// Inverse of [`Self::to_words`].
            pub fn from_words(words: [u64; $Snap::WORDS]) -> Self {
                let [$($name),+] = words;
                Self { $($name),+ }
            }

            /// `(row, value)` for every counter.
            pub fn fields(&self) -> impl Iterator<Item = (&'static $crate::stats::Counter, u64)> {
                Self::FIELDS.iter().zip(self.to_words())
            }
        }

        impl std::ops::Sub for $Snap {
            type Output = $Snap;

            /// Component-wise difference: the traffic between two snapshots
            /// of the same (monotonic) counters.
            fn sub(self, rhs: $Snap) -> $Snap {
                $Snap { $($name: self.$name - rhs.$name,)+ }
            }
        }
    };
}
pub(crate) use counters;

counters! {
    /// One set of the operation counters: a [`FabricStats`]' shared cells,
    /// or one image's lane. All counters are relaxed — they are
    /// diagnostics, not synchronization.
    pub struct StatCells;
    /// A plain-data copy of [`FabricStats`] at one instant.
    pub struct StatsSnapshot;

    /// Payload puts to a target on the same node.
    puts_intra => "caf_puts_total" [level = "intra"] "fabric operations by memory-hierarchy level";
    /// Payload puts to a target on another node.
    puts_inter => "caf_puts_total" [level = "inter"];
    /// Gets from a source on the same node.
    gets_intra => "caf_gets_total" [level = "intra"] "fabric operations by memory-hierarchy level";
    /// Gets from a source on another node.
    gets_inter => "caf_gets_total" [level = "inter"];
    /// Flag notifications delivered within a node.
    flags_intra => "caf_flags_total" [level = "intra"] "fabric operations by memory-hierarchy level";
    /// Flag notifications crossing nodes.
    flags_inter => "caf_flags_total" [level = "inter"];
    /// Blocking flag waits executed.
    flag_waits => "caf_flag_waits_total" "blocking flag waits executed";
    /// Remote atomic operations.
    amos => "caf_amos_total" "remote atomic operations";
    /// Payload bytes moved within nodes.
    bytes_intra => "caf_bytes_total" [level = "intra"] "fabric operations by memory-hierarchy level";
    /// Payload bytes moved between nodes.
    bytes_inter => "caf_bytes_total" [level = "inter"];
    /// Nonblocking puts injected (descriptor posted, payload possibly still
    /// in flight).
    puts_nb_injected => "caf_puts_nb_total" [state = "injected"] "nonblocking puts by completion state";
    /// Nonblocking puts whose payload has landed at the target. Always
    /// `≤ puts_nb_injected`; the gap is the in-flight window the pipelined
    /// collectives exploit.
    puts_nb_completed => "caf_puts_nb_total" [state = "completed"];
    /// Wire frames written to peer processes (`SocketFabric` only; zero on
    /// in-process fabrics).
    wire_frames_tx => "caf_wire_frames_total" [dir = "tx"] "frames on the wire";
    /// Wire frames read from peer processes.
    wire_frames_rx => "caf_wire_frames_total" [dir = "rx"];
    /// Wire bytes written, including frame headers.
    wire_bytes_tx => "caf_wire_bytes_total" [dir = "tx"] "bytes on the wire, including frame headers";
    /// Wire bytes read, including frame headers.
    wire_bytes_rx => "caf_wire_bytes_total" [dir = "rx"];
    /// Failed connect attempts that were retried (capped exponential
    /// backoff).
    wire_retries => "caf_wire_retries_total" "failed connect attempts that were retried";
    /// Connections that were only established after at least one failed
    /// attempt.
    wire_reconnects => "caf_wire_reconnects_total" "connections established only after a failed attempt";
    /// Simulator events scheduled (`SimFabric` only; zero elsewhere).
    sim_events_pushed => "caf_sim_events_total" [state = "pushed"] "simulator events scheduled and applied";
    /// Simulator events drained and applied.
    sim_events_popped => "caf_sim_events_total" [state = "popped"];
    /// High-water mark of the simulator's pending-event queue. A running
    /// maximum, not a monotonic counter: a snapshot delta reports how much
    /// the mark *rose* during the window, zero if it didn't.
    sim_queue_hwm => "caf_sim_queue_hwm" "high-water mark of the simulator's pending-event queue";
    /// Images woken from a blocked flag wait by an applied event.
    sim_wakeups => "caf_sim_wakeups_total" "images woken from a blocked flag wait";
    /// Commit turns granted by the conservative scheduler — the
    /// numerator of the simscale bench's simulated-ops/sec.
    sim_commits => "caf_sim_commits_total" "commit turns granted by the conservative scheduler";
    /// Active-message ops injected into the batching tier.
    ams_injected => "caf_ams_total" "active messages injected into the batching tier";
    /// Batches handed to the fabric by the active-message tier. The ratio
    /// `ams_injected / am_batches_flushed` is the aggregation factor.
    am_batches_flushed => "caf_am_batches_total" "AM batches handed to Fabric::am_deliver";
    /// User payload bytes carried by injected active messages (pure
    /// flag/amo ops carry zero) — the bytes-per-op numerator.
    am_payload_bytes => "caf_am_payload_bytes_total" "user payload bytes carried by active messages";
    /// Adjacent put+flag pairs fused into a single `PutFlag` op.
    am_fused => "caf_am_fused_total" "put+flag pairs fused into single PutFlag wire ops";
    /// Puts serviced through a peer's mapped shared-memory segment
    /// (`SocketFabric` intranode tier; zero elsewhere). Tracked separately
    /// from `puts_intra`/`puts_inter`: shm traffic crosses processes but
    /// never the wire.
    shm_puts => "caf_shm_puts_total" "cross-process puts serviced through the shared-memory tier";
    /// Payload bytes moved through shared-memory segments (puts + gets).
    shm_bytes => "caf_shm_bytes_total" "payload bytes moved through the shared-memory tier";
    /// Flag adds and AMOs applied directly in a peer's shared flag/AMO
    /// table — the notifications that skipped the wire entirely.
    shm_flag_ops => "caf_shm_flag_ops_total" "flag/AMO operations on shared-table atomics (no wire frame)";
    /// Windows allocated with the shared-memory tier on that fell to the
    /// owner's heap (arena exhausted, or past the shared directory): every
    /// op on one takes the wire, also between mapped peers.
    shm_spilled_windows => "caf_shm_spilled_total" [kind = "window"] "allocations that fell from the shared segment to the owner's heap";
    /// Flags allocated with the tier on at or past the shared flag table's
    /// capacity: heap cells, reached over the wire.
    shm_spilled_flags => "caf_shm_spilled_total" [kind = "flag"];
    /// Ops to an image of a *mapped* peer that took the wire because what
    /// they address is unpublished (a spilled window, a flag past the
    /// shared table). The wire-debt rule is ordering, not spill, and is not
    /// counted.
    wire_fallback_ops => "caf_wire_fallback_ops_total" "ops between mapped peers that took the wire because their target is unpublished";
}

/// Monotonic operation counters maintained by every fabric: the shared
/// cells (which it dereferences to — `stats.amos`, `record_wire_tx`, …)
/// plus one lane per hosted image (see the module docs).
#[derive(Debug, Default)]
pub struct FabricStats {
    shared: StatCells,
    lanes: Box<[CachePadded<StatCells>]>,
}

impl Deref for FabricStats {
    type Target = StatCells;

    fn deref(&self) -> &StatCells {
        &self.shared
    }
}

impl FabricStats {
    /// Counters with `n` lanes, one per hosted image.
    pub fn with_lanes(n: usize) -> Self {
        Self {
            shared: StatCells::default(),
            lanes: (0..n).map(|_| CachePadded::default()).collect(),
        }
    }

    /// Hosted image `i`'s lane, for that image's own thread: it is the
    /// only writer, which is what makes load-then-store an exact count.
    #[inline]
    pub fn lane(&self, i: usize) -> Lane<'_> {
        Lane {
            cells: &self.lanes[i],
            owned: true,
        }
    }

    /// The shared cells, as the lane any thread may write.
    #[inline]
    pub fn shared(&self) -> Lane<'_> {
        Lane {
            cells: &self.shared,
            owned: false,
        }
    }

    /// Capture the current counter values: shared cells plus every lane.
    pub fn snapshot(&self) -> StatsSnapshot {
        let mut words = self.shared.snapshot().to_words();
        for lane in &*self.lanes {
            for (sum, w) in words.iter_mut().zip(lane.snapshot().to_words()) {
                *sum = sum.wrapping_add(w);
            }
        }
        StatsSnapshot::from_words(words)
    }

    /// Reset every counter to zero (between benchmark phases).
    pub fn reset(&self) {
        self.shared.reset();
        for lane in &*self.lanes {
            lane.reset();
        }
    }
}

/// Where a data op counts itself, and how: an image's own lane (load and
/// store — see [`FabricStats::lane`]) or the shared cells (atomic add).
#[derive(Clone, Copy, Debug)]
pub struct Lane<'a> {
    cells: &'a StatCells,
    owned: bool,
}

impl Lane<'_> {
    #[inline]
    fn add(&self, cell: &AtomicU64, by: u64) {
        if self.owned {
            cell.store(
                cell.load(Ordering::Relaxed).wrapping_add(by),
                Ordering::Relaxed,
            );
        } else {
            cell.fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Record one put of `bytes` bytes; `intra` selects the hierarchy level.
    #[inline]
    pub fn record_put(&self, intra: bool, bytes: usize) {
        let c = self.cells;
        if intra {
            self.add(&c.puts_intra, 1);
            self.add(&c.bytes_intra, bytes as u64);
        } else {
            self.add(&c.puts_inter, 1);
            self.add(&c.bytes_inter, bytes as u64);
        }
    }

    /// Record one get of `bytes` bytes.
    #[inline]
    pub fn record_get(&self, intra: bool, bytes: usize) {
        let c = self.cells;
        if intra {
            self.add(&c.gets_intra, 1);
            self.add(&c.bytes_intra, bytes as u64);
        } else {
            self.add(&c.gets_inter, 1);
            self.add(&c.bytes_inter, bytes as u64);
        }
    }

    /// Record the injection of one nonblocking put of `bytes` bytes (also
    /// counted as an ordinary put at its hierarchy level).
    #[inline]
    pub fn record_put_nb(&self, intra: bool, bytes: usize) {
        self.record_put_nb_inject();
        self.record_put(intra, bytes);
    }

    /// Record the injection of one nonblocking put whose bytes are counted
    /// elsewhere ([`Lane::record_shm_put`]).
    #[inline]
    pub fn record_put_nb_inject(&self) {
        self.add(&self.cells.puts_nb_injected, 1);
    }

    /// Record the completion (payload landed) of one nonblocking put.
    #[inline]
    pub fn record_put_nb_complete(&self) {
        self.add(&self.cells.puts_nb_completed, 1);
    }

    /// Record one flag notification.
    #[inline]
    pub fn record_flag(&self, intra: bool) {
        if intra {
            self.add(&self.cells.flags_intra, 1);
        } else {
            self.add(&self.cells.flags_inter, 1);
        }
    }

    /// Record one blocking flag wait.
    #[inline]
    pub fn record_flag_wait(&self) {
        self.add(&self.cells.flag_waits, 1);
    }

    /// Record one remote atomic.
    #[inline]
    pub fn record_amo(&self) {
        self.add(&self.cells.amos, 1);
    }

    /// Record one put of `bytes` bytes serviced through a shared-memory
    /// segment.
    #[inline]
    pub fn record_shm_put(&self, bytes: usize) {
        self.add(&self.cells.shm_puts, 1);
        self.add(&self.cells.shm_bytes, bytes as u64);
    }

    /// Record one get of `bytes` bytes serviced through a shared-memory
    /// segment.
    #[inline]
    pub fn record_shm_get(&self, bytes: usize) {
        self.add(&self.cells.shm_bytes, bytes as u64);
    }

    /// Record one flag add or AMO applied in a shared flag/AMO table.
    #[inline]
    pub fn record_shm_flag(&self) {
        self.add(&self.cells.shm_flag_ops, 1);
    }

    /// Record one op to a mapped peer that took the wire because its
    /// target is unpublished.
    #[inline]
    pub fn record_wire_fallback(&self) {
        self.add(&self.cells.wire_fallback_ops, 1);
    }
}

impl StatCells {
    /// Record `frames` wire frames, `bytes` bytes in all, written to a peer
    /// process (a burst is counted at once, as it leaves).
    #[inline]
    pub fn record_wire_tx(&self, frames: u64, bytes: u64) {
        self.wire_frames_tx.fetch_add(frames, Ordering::Relaxed);
        self.wire_bytes_tx.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record `frames` wire frames, `bytes` bytes in all, read from a peer
    /// process.
    #[inline]
    pub fn record_wire_rx(&self, frames: u64, bytes: u64) {
        self.wire_frames_rx.fetch_add(frames, Ordering::Relaxed);
        self.wire_bytes_rx.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Record one simulator event scheduled; `queue_len` is the pending
    /// count right after the push (feeds the high-water mark).
    #[inline]
    pub fn record_sim_event_push(&self, queue_len: u64) {
        self.sim_events_pushed.fetch_add(1, Ordering::Relaxed);
        self.sim_queue_hwm.fetch_max(queue_len, Ordering::Relaxed);
    }

    /// Record one simulator event drained and applied.
    #[inline]
    pub fn record_sim_event_pop(&self) {
        self.sim_events_popped.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one image woken from a blocked flag wait.
    #[inline]
    pub fn record_sim_wakeup(&self) {
        self.sim_wakeups.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one commit turn granted.
    #[inline]
    pub fn record_sim_commit(&self) {
        self.sim_commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one active-message op injected, carrying `payload_bytes`
    /// bytes of user payload.
    #[inline]
    pub fn record_am_inject(&self, payload_bytes: u64) {
        self.ams_injected.fetch_add(1, Ordering::Relaxed);
        self.am_payload_bytes
            .fetch_add(payload_bytes, Ordering::Relaxed);
    }

    /// Record one batch handed to the fabric.
    #[inline]
    pub fn record_am_flush(&self) {
        self.am_batches_flushed.fetch_add(1, Ordering::Relaxed);
    }

    /// Record one put+flag pair fused into a `PutFlag`.
    #[inline]
    pub fn record_am_fused(&self) {
        self.am_fused.fetch_add(1, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Total notifications (flag adds) at any level.
    pub fn total_flags(&self) -> u64 {
        self.flags_intra + self.flags_inter
    }

    /// Total payload operations at any level.
    pub fn total_puts(&self) -> u64 {
        self.puts_intra + self.puts_inter
    }

    /// Component-wise difference `self - earlier` (counters are monotonic).
    /// Also available as the `-` operator.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        *self - *earlier
    }

    /// One-line summary for failure reports and fleet tables: every nonzero
    /// counter as `name=value`, in table order.
    pub fn render_brief(&self) -> String {
        let nonzero: Vec<String> = self
            .fields()
            .filter(|&(_, v)| v != 0)
            .map(|(c, v)| format!("{}={v}", c.name))
            .collect();
        if nonzero.is_empty() {
            "all counters zero".into()
        } else {
            nonzero.join(" ")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A snapshot holding `1..=N` in table order.
    fn ramp() -> StatsSnapshot {
        StatsSnapshot::from_words(std::array::from_fn(|i| i as u64 + 1))
    }

    #[test]
    fn record_and_snapshot() {
        let s = FabricStats::with_lanes(2);
        // Shared cells and two images' lanes add up in the snapshot.
        s.shared().record_put(true, 100);
        s.lane(0).record_put(false, 8);
        s.lane(1).record_flag(true);
        s.shared().record_flag(false);
        s.lane(1).record_get(false, 64);
        let snap = s.snapshot();
        assert_eq!(snap.puts_intra, 1);
        assert_eq!(snap.puts_inter, 1);
        assert_eq!(snap.bytes_intra, 100);
        assert_eq!(snap.bytes_inter, 8 + 64);
        assert_eq!(snap.total_flags(), 2);
        assert_eq!(snap.total_puts(), 2);
    }

    /// What `record` leaves in a fresh `FabricStats`; also checks that
    /// `reset()` takes all of it back.
    fn recorded(record: impl Fn(&FabricStats)) -> StatsSnapshot {
        let s = FabricStats::with_lanes(1);
        record(&s);
        let snap = s.snapshot();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
        snap
    }

    /// [`recorded`] for a data-op helper: the same through the shared
    /// cells and through an image's own lane.
    fn recorded_either_way(record: impl Fn(Lane<'_>)) -> StatsSnapshot {
        let shared = recorded(|s| record(s.shared()));
        assert_eq!(recorded(|s| record(s.lane(0))), shared);
        shared
    }

    /// Every `record_*` helper lands on the counters it names and on no
    /// other: each case compares the whole snapshot.
    #[test]
    fn record_helpers_bump_exactly_their_counters() {
        let zero = StatsSnapshot::default();
        let nb = recorded_either_way(|s| {
            s.record_put_nb(false, 1024);
            s.record_put_nb(false, 1024);
            s.record_put_nb_complete();
        });
        let want = StatsSnapshot {
            puts_nb_injected: 2,
            puts_nb_completed: 1,
            puts_inter: 2,
            bytes_inter: 2048,
            ..zero
        };
        assert_eq!(nb, want, "nb puts also count as puts");

        let wire = recorded(|s| {
            s.record_wire_tx(1, 64);
            s.record_wire_tx(1, 16);
            s.record_wire_rx(1, 9);
        });
        let want = StatsSnapshot {
            wire_frames_tx: 2,
            wire_bytes_tx: 80,
            wire_frames_rx: 1,
            wire_bytes_rx: 9,
            ..zero
        };
        assert_eq!(wire, want);

        let sim = recorded(|s| {
            s.record_sim_event_push(1);
            s.record_sim_event_push(2);
            s.record_sim_event_pop();
            s.record_sim_event_push(2); // queue shrank and regrew: hwm stays 2
            s.record_sim_wakeup();
            s.record_sim_commit();
            s.record_sim_commit();
        });
        let want = StatsSnapshot {
            sim_events_pushed: 3,
            sim_events_popped: 1,
            sim_queue_hwm: 2,
            sim_wakeups: 1,
            sim_commits: 2,
            ..zero
        };
        assert_eq!(sim, want);

        let am = recorded(|s| {
            s.record_am_inject(8);
            s.record_am_inject(0);
            s.record_am_inject(64);
            s.record_am_flush();
            s.record_am_fused();
        });
        let want = StatsSnapshot {
            ams_injected: 3,
            am_batches_flushed: 1,
            am_payload_bytes: 72,
            am_fused: 1,
            ..zero
        };
        assert_eq!(am, want);

        let shm = recorded_either_way(|s| {
            s.record_shm_put(64);
            s.record_shm_put(8);
            s.record_put_nb_inject();
            s.record_shm_get(32);
            s.record_shm_flag();
            s.record_shm_flag();
        });
        let want = StatsSnapshot {
            shm_puts: 2,
            shm_bytes: 64 + 8 + 32, // puts and gets share shm_bytes
            shm_flag_ops: 2,
            puts_nb_injected: 1,
            ..zero
        };
        assert_eq!(shm, want, "shm ops stay off the level counters");

        let rest = recorded_either_way(|s| {
            s.record_amo();
            s.record_flag_wait();
            s.record_flag_wait();
            s.record_wire_fallback();
        });
        let want = StatsSnapshot {
            amos: 1,
            flag_waits: 2,
            wire_fallback_ops: 1,
            ..zero
        };
        assert_eq!(rest, want);
    }

    #[test]
    fn words_round_trip_in_table_order() {
        let s = ramp();
        assert_eq!(StatsSnapshot::FIELDS[0].name, "puts_intra");
        assert_eq!((s.puts_intra, s.puts_inter), (1, 2));
        assert_eq!(
            s.shm_flag_ops, 30,
            "rows are appended: wire positions never move"
        );
        assert_eq!(StatsSnapshot::from_words(s.to_words()), s);
        // Each family's rows are adjacent and its first row carries HELP.
        for fam in StatsSnapshot::FIELDS.chunk_by(|a, b| a.family == b.family) {
            assert!(
                !fam[0].family.is_empty() && !fam[0].help.is_empty(),
                "{fam:?}"
            );
            assert!(
                fam.len() == 1 || fam.iter().all(|c| !c.label.is_empty()),
                "{fam:?}"
            );
            let later = StatsSnapshot::FIELDS
                .iter()
                .filter(|c| c.family == fam[0].family)
                .count();
            assert_eq!(later, fam.len(), "family {} is split", fam[0].family);
        }
    }

    #[test]
    fn since_and_minus_subtract_every_counter() {
        let s = FabricStats::with_lanes(1);
        s.lane(0).record_put(true, 32);
        s.lane(0).record_get(false, 8);
        s.shared().record_flag(true);
        let a = s.snapshot();
        s.shared().record_put(true, 32);
        s.lane(0).record_flag(true);
        s.lane(0).record_flag(false);
        let b = s.snapshot();
        assert_eq!(b - a, b.since(&a));
        assert_eq!((b - a).puts_intra, 1);
        assert_eq!((b - a).flags_intra, 1);
        assert_eq!((b - a).flags_inter, 1);
        assert_eq!((b - a).bytes_intra, 32);
        assert_eq!(b - b, StatsSnapshot::default());
        // The hwm delta is the rise of the mark.
        s.record_sim_event_push(2);
        let c = s.snapshot();
        s.record_sim_event_push(5);
        assert_eq!((s.snapshot() - c).sim_queue_hwm, 3);
        // Field by field, for every row of the table.
        let twice = StatsSnapshot::from_words(ramp().to_words().map(|w| 2 * w));
        assert_eq!(twice - ramp(), ramp());
    }

    #[test]
    fn render_brief_names_every_nonzero_counter() {
        let shm_only = StatsSnapshot {
            shm_puts: 5,
            ams_injected: 7,
            ..StatsSnapshot::default()
        };
        assert_eq!(shm_only.render_brief(), "ams_injected=7 shm_puts=5");
        assert_eq!(StatsSnapshot::default().render_brief(), "all counters zero");
        let all = ramp().render_brief();
        assert!(!all.contains('\n'), "{all}");
        for (c, v) in ramp().fields() {
            assert!(
                all.split(' ').any(|kv| kv == format!("{}={v}", c.name)),
                "{all}"
            );
        }
    }
}
