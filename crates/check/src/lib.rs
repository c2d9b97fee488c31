//! # caf-check
//!
//! Systematic correctness tooling for the PGAS runtime: seeded schedule
//! exploration, fault injection, and differential-oracle testing.
//!
//! The deterministic simulator ([`SimFabric`](caf_fabric::SimFabric))
//! executes one interleaving per program; the real-thread fabric executes
//! whatever the OS happens to produce. Neither systematically explores the
//! relaxed orderings one-sided PGAS communication permits — exactly where
//! runtimes of this kind historically break. This crate closes that gap
//! with three layers:
//!
//! 1. **Chaos scheduling** ([`caf_fabric::ChaosConfig`]) — perturbs the
//!    simulator's virtual-time commit order with seeded latency jitter,
//!    tie reordering, and PCT-style priorities; each `u64` seed names one
//!    reproducible schedule.
//! 2. **Fault injection** — stalled images, slow nodes, delayed and
//!    duplicated nonblocking-put completions, all as finite extra virtual
//!    time so every terminating program still terminates (genuine hangs
//!    become deadlock panics, which the harness catches and reports).
//! 3. **Differential oracle** ([`check_program`]) — one SPMD closure runs
//!    under {default sim, chaos × seeds, real threads} × a collective
//!    algorithm matrix; any output divergence is shrunk greedily to a
//!    minimal failing chaos config and reported with a replayable seed
//!    (`CAF_CHECK_SEED=<seed>`) and the recent per-image event window of a
//!    traced re-run.
//!
//! The `caf-check` binary (`cargo xtask check --quick|--deep`) sweeps the
//! built-in conformance program over the full scenario × algorithm × seed
//! matrix; the library surface below is what its own tests (including the
//! planted-bug mutation smoke test) and other crates' chaos tests use.

#![warn(missing_docs)]

pub mod harness;
pub mod scenario;
pub mod socket;

pub use harness::{check_legacy_queue, check_program, CheckOptions, CheckReport, Failure, Program};
pub use scenario::{algo_by_name, algo_matrix, conformance, Scenario};
pub use socket::{check_recover, check_shm, conformance_member, RecoverDrill};
