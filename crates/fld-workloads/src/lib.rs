//! # fld-workloads — traffic generators for the FlexDriver experiments
//!
//! Builders for every workload the paper's evaluation uses:
//!
//! * [`sizes`] — packet-size distributions, including a synthetic mixture
//!   fit to the IMC-2010 datacenter trace (§ 8.1.1) that we cannot
//!   redistribute;
//! * [`gen`] — burst builders pluggable into
//!   [`fld_core::system::ClientGen`]: fixed-size UDP, mixed-size traces,
//!   multi-flow iperf-style TCP load with optional IP fragmentation and
//!   VXLAN tunneling (§ 8.2.2), and multi-tenant CoAP token traffic
//!   (§ 8.2.3);
//! * [`churn`] — open-loop Poisson connection churn for the rack-scale
//!   multi-tenant experiments.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod churn;
pub mod gen;
pub mod sizes;

pub use churn::{ChurnConfig, ChurnFlow, ChurnProcess};
pub use gen::{defrag_bursts, mixed_size_bursts, tenant_bursts, DefragMode};
pub use sizes::SizeDist;
