//! The four workloads. Each builds its inputs from the seed, runs for the
//! configured time, checks its outputs, and fills the context's metrics.

pub mod cluster_grid;
pub mod head_inverse;
pub mod lumend_mix;
pub mod voxel_fast;
