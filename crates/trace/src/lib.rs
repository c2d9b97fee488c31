//! # caf-trace
//!
//! Structured tracing for the caf-rs PGAS runtime: per-image lock-free
//! event rings, a [`Tracer`] handle that records only where one is
//! installed, a Chrome trace-event JSON exporter (Perfetto-loadable),
//! per-(team, collective, hierarchy-level) latency aggregation, and a
//! critical-path extractor that names the longest notification chain of a
//! traced episode.
//!
//! The vocabulary is one table: each [`EventKind`] is a row of
//! [`event`]'s `kinds!` invocation — what its operands hold, its wire
//! code, its name and, for a collective or team span, the operand carrying
//! the team tag — and the decoder, the names, the team operand and
//! [`EventKind::ALL`] are generated from it.
//!
//! Timestamps come from the owning fabric's clock: **virtual nanoseconds**
//! under `SimFabric` (traces of simulated 256-image runs are causally
//! exact) and wall nanoseconds under `ThreadFabric`.
//!
//! ## Recording
//!
//! Every build can record; a run records exactly where something installs
//! an enabled tracer at run time: [`Tracer::for_images`] in a fabric
//! config, the `caf-launch demo` children (merged by `--trace-out`),
//! `exp_b1` under `CAF_TRACE_DIR`, caf-check's failure re-run. The default
//! [`Tracer::off`] keeps nothing, and an instrumentation site pays one
//! `Option` check for it. The data model, exporters, aggregation, and
//! critical-path analysis operate on
//! `Vec<Event>` from any source.

#![warn(missing_docs)]
#![warn(rustdoc::broken_intra_doc_links)]
#![deny(unsafe_code)]

pub mod chrome;
pub mod critical;
pub mod event;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod tracer;

pub use chrome::chrome_trace_json;
pub use critical::{episode_window, extract, phase_window, CriticalPath, Hop};
pub use event::{Event, EventKind, Level, SYSTEM_IMG};
pub use metrics::{aggregate, summary_rows, MetricsRow};
pub use tracer::{off_ref, Tracer};
