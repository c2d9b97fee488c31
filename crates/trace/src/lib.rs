//! # caf-trace
//!
//! Structured tracing for the caf-rs PGAS runtime: per-image lock-free
//! event rings, a zero-overhead-when-disabled [`Tracer`] handle, a Chrome
//! trace-event JSON exporter (Perfetto-loadable), per-(team, collective,
//! hierarchy-level) latency aggregation, and a critical-path extractor
//! that names the longest notification chain of a traced episode.
//!
//! Timestamps come from the owning fabric's clock: **virtual nanoseconds**
//! under `SimFabric` (traces of simulated 256-image runs are causally
//! exact) and wall nanoseconds under `ThreadFabric`.
//!
//! ## Feature `capture`
//!
//! Recording is gated behind the `capture` feature (enabled downstream as
//! the `trace` feature of `caf-fabric`/`caf-runtime`/`caf`). Without it,
//! [`Tracer`] is a zero-sized no-op and every instrumentation site folds
//! away — default builds are bit-for-bit the un-instrumented runtime. The
//! data model, exporters, aggregation, and critical-path analysis compile
//! unconditionally: they operate on `Vec<Event>` from any source.

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
