//! # fld-core — the FlexDriver reproduction's core library
//!
//! This crate is the paper's primary contribution rendered in software:
//!
//! * [`hw`] — the FLD hardware module model: Tx/Rx ring managers, on-chip
//!   buffer pools, the cuckoo-backed address-translation layer, descriptor
//!   compression and the credit-based accelerator interface (§§ 5.1–5.2,
//!   5.5);
//! * [`memmodel`] — the driver memory model behind Tables 2 & 3 and
//!   Figure 4, with per-optimization ablation toggles;
//! * [`host`] — calibrated host-CPU cores with an OS-interference process;
//! * [`system`] — the FLD-E end-to-end discrete-event simulation
//!   (client ⇆ NIC ⇆ PCIe ⇆ FLD ⇆ accelerator);
//! * [`rdma_system`] — the FLD-R end-to-end simulation over the NIC's RC
//!   transport;
//! * [`rack`] — the rack-scale multi-tenant topology: N FLD nodes behind
//!   a shared switch fabric, with SR-IOV VFs partitioning each NIC
//!   between tenants and per-VF transmit shaping;
//! * [`pool`] — the packet pool both simulations' calendars point into:
//!   packets stay parked, 4-byte handles travel in the events;
//! * [`params`] — every calibration constant, annotated with its
//!   paper-reported target.
//!
//! # Examples
//!
//! Reproduce the Table 3 headline (×105 memory shrink):
//!
//! ```
//! use fld_core::memmodel::{fld_breakdown, software_breakdown, FldOptimizations, MemParams};
//!
//! let p = MemParams::default();
//! let sw = software_breakdown(&p).total();
//! let fld = fld_breakdown(&p, FldOptimizations::ALL).total();
//! let shrink = sw as f64 / fld as f64;
//! assert!(shrink > 100.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod host;
pub mod hw;
pub mod lifecycle;
pub mod memmodel;
pub mod params;
pub mod pool;
pub mod rack;
pub mod rdma_system;
pub mod system;

pub use hw::{FldConfig, FldDevice, FldRx, FldTx, TxBackpressure};
pub use lifecycle::Recorder;
pub use params::{AccelParams, SystemParams};
pub use pool::{PacketHandle, PacketPool};
pub use rack::{
    FlowPopulation, Rack, RackConfig, RackEv, RackStats, StaticPopulation, TenantFlow,
    TrafficPattern,
};
pub use rdma_system::{MsgAccelerator, MsgEcho, RdmaConfig, RdmaRunStats, RdmaSystem};
pub use system::{
    AccelOutput, AcceleratorModel, ClientGen, FldSystem, GenMode, HostMode, RunStats, SystemConfig,
};
