//! Shared experiment-harness utilities: scale handling, disk-cached
//! backbone pretraining, and table formatting. The memory column of
//! Table 4 uses `em_obs::alloc`'s counting allocator.

#![warn(missing_docs)]

pub mod harness;
pub mod methods;
pub mod table;

pub use harness::{backbone_for, default_config, experiment_seed, init_obs};
