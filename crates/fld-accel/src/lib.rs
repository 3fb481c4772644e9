//! # fld-accel — the paper's example accelerators and baselines
//!
//! FlexDriver's evaluation builds three accelerator function units (§ 7)
//! plus an echo microbenchmark engine; this crate implements all of them
//! against the [`fld_core`] simulation interfaces, with the *functional*
//! parts (crypto, reassembly, token parsing) implemented for real:
//!
//! * [`echo`] — the § 8.1 echo accelerator;
//! * [`zuc_accel`] — the disaggregated LTE cipher: 8 ZUC units behind a
//!   load balancer, the 64 B request protocol, and the software-ZUC
//!   baseline;
//! * [`client`] — the FLD-R client library / cryptodev-style driver;
//! * [`defrag_accel`] — the inline IP defragmentation offload;
//! * [`iot_accel`] — the IoT JWT authentication offload with per-tenant
//!   keys and the § 8.2.3 capacity knob;
//! * [`zuc_ext`] — the paper's § 8.2.1 future-work optimizations as a
//!   timing model: the compact header and setup of on-FPGA session key
//!   storage, and request batching.
//!
//! # Examples
//!
//! ```
//! use fld_accel::client::CryptoSession;
//!
//! let session = CryptoSession::new([7u8; 16], 3, 0);
//! let request = session.encrypt_request(1, b"payload");
//! let response = CryptoSession::serve(&request)?;
//! let ciphertext = session.complete_cipher(7, &response)?;
//! assert_eq!(ciphertext.len(), 7);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod defrag_accel;
pub mod echo;
pub mod iot_accel;
pub mod zuc_accel;
pub mod zuc_ext;

pub use client::CryptoSession;
pub use defrag_accel::DefragAccelerator;
pub use echo::EchoAccelerator;
pub use iot_accel::IotAuthAccelerator;
pub use zuc_accel::{CryptoOp, CryptoRequest, SoftwareZuc, ZucAccelerator};
pub use zuc_ext::BatchedZucAccelerator;
