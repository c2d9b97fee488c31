//! # caf-topology
//!
//! Machine models, image placement, and communication cost parameters for the
//! `caf-rs` PGAS runtime — the substrate the paper's *memory hierarchy-aware*
//! methodology consumes.
//!
//! The paper ("A Team-Based Methodology of Memory Hierarchy-Aware Runtime
//! Support in Coarray Fortran", Khaldi et al., 2015) optimizes team
//! collectives by distinguishing **intra-node** (shared memory) from
//! **inter-node** (network) communication. Everything the runtime needs to
//! make that distinction lives here:
//!
//! * [`MachineModel`] — a cluster as `nodes × sockets × cores`, e.g. the
//!   paper's 44-node dual quad-core Opteron cluster ([`presets::whale`]).
//! * [`Placement`] / [`ImageMap`] — how SPMD images are laid out on the
//!   machine (block, cyclic, custom), and the reverse queries the runtime
//!   performs (*which node is image i on? which images share my node?*).
//! * [`CostParams`] — a LogGP-style communication cost model with separate
//!   intra-node and inter-node parameters plus per-resource serialization
//!   gaps; consumed by the virtual-time fabric in `caf-fabric`.
//! * [`hierarchy`] — the intranode-set / leader computation used by the
//!   team runtime structure (the paper's `team_type`).
//! * [`tree`] — power-of-two arithmetic and binomial-tree shape functions
//!   for the collectives' shapes (one copy, re-exported there as `util`).
//!
//! Image identifiers at this layer are **0-based process ranks**
//! ([`ProcId`]); the Fortran-style 1-based *image numbers* are a concern of
//! `caf-runtime`.

#![warn(missing_docs)]

pub mod cost;
pub mod hierarchy;
pub mod ids;
pub mod machine;
pub mod placement;
pub mod presets;
pub mod tree;

pub use cost::{CostParams, SoftwareOverheads};
pub use hierarchy::{HierarchyView, IntranodeSet};
pub use ids::{CoreId, NodeId, ProcId, SocketId};
pub use machine::{CoreLocation, MachineModel};
pub use placement::{ImageMap, Placement};
