//! Power-of-two arithmetic and binomial-tree shape functions — re-exported
//! from [`caf_topology::tree`], their one home.

pub use caf_topology::tree::{binomial_children, binomial_parent, ceil_log2, floor_pow2};
