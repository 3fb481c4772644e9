//! The repository's benchmark: six workloads, host cost per simulated
//! packet, and a per-layer ns budget, measured from outside the simulator
//! through its public functions only. See `README.md`.

#![warn(missing_docs)]

pub mod alloc;
pub mod compare;
pub mod kernels;
pub mod layers;
pub mod measure;
pub mod record;
pub mod spans;
pub mod workloads;
