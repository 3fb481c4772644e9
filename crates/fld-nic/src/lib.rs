//! # fld-nic — a ConnectX-5-class NIC model
//!
//! FlexDriver's premise is that a commodity NIC already implements the hard
//! parts of datacenter networking — *"employ unaltered commodity NICs while
//! utilizing NIC offloads"* (paper § 4, goal c). This crate models that NIC
//! at the transaction level:
//!
//! * [`burst`] — the inline-first list the RC transport returns packets
//!   and completions in;
//! * [`wqe`] — descriptor/CQE formats in both the NIC's software layout and
//!   FLD's compressed form (Table 2b sizes);
//! * [`packet`] — the simulation packet representation with parsed
//!   metadata;
//! * [`eswitch`] — match-action pipelines with the FLD-E acceleration
//!   action ("send to accelerator, resume at table N");
//! * [`rss`] — receive-side scaling with real Toeplitz hashing and the
//!   fragment 2-tuple fallback;
//! * [`rdma`] — a reliable-connection RoCE transport with segmentation,
//!   ACK coalescing and go-back-N recovery;
//! * [`shaper`] — per-tenant maximum-bandwidth policers;
//! * [`vf`] — SR-IOV-style virtual functions: per-VF rule partitions,
//!   transmit shapers and counter subtrees over the eSwitch;
//! * [`mprq`] — multi-packet receive queues bounding rx fragmentation
//!   (§ 5.2);
//! * [`queues`] — the per-queue error state machine (flush in error,
//!   then re-initialize);
//! * [`nic`] — the aggregate device and its control-plane command surface.
//!
//! # Examples
//!
//! ```
//! use fld_nic::nic::{Direction, Nic, NicConfig};
//! use fld_nic::eswitch::{Action, MatchSpec, Rule};
//!
//! let mut nic = Nic::new(NicConfig::default());
//! // Steer fragments to the accelerator, everything else to host RSS.
//! nic.install_rule(Direction::Ingress, 0, Rule {
//!     priority: 10,
//!     spec: MatchSpec { is_fragment: Some(true), ..MatchSpec::any() },
//!     actions: vec![Action::ToAccelerator { queue: 0, next_table: 1 }],
//! })?;
//! # Ok::<(), fld_nic::nic::NicError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod burst;
pub mod eswitch;
pub mod mprq;
pub mod nic;
pub mod packet;
pub mod queues;
pub mod rdma;
pub mod rss;
pub mod shaper;
pub mod vf;
pub mod wqe;

pub use eswitch::{Action, MatchSpec, Pipeline, Rule, Verdict};
pub use mprq::{Mprq, MprqPlacement};
pub use nic::{Direction, Nic, NicConfig, NicError};
pub use packet::{PacketMeta, SimPacket};
pub use queues::{QueueErrorMachine, QueueErrorState};
pub use rdma::{QpConfig, QpState, RcQp, RdmaEvent, RdmaPacket};
pub use rss::RssContext;
pub use shaper::{PolicerSet, PolicerVerdict};
pub use vf::{PfTotals, SrIov, VfConfig, VfError};
pub use wqe::{CompressedTxDescriptor, Cqe, ExpansionContext, TxDescriptor};
