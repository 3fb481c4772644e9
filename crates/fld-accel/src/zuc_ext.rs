//! The paper's stated future-work optimizations for the disaggregated ZUC
//! accelerator, as a timing model (§ 8.2.1: *"This result can be further
//! improved by adding on-FPGA key storage and request batching, which we
//! leave to future work"*):
//!
//! * **On-FPGA key storage**: clients establish a session once; subsequent
//!   requests carry a 16-byte compact header ([`COMPACT_HEADER_BYTES`])
//!   referencing the stored key instead of shipping the full 64-byte key+IV
//!   header with every message, and the key-schedule setup leaves the
//!   per-request path.
//! * **Request batching** ([`BatchedZucAccelerator`]): the front-end packs
//!   consecutive small requests into one unit dispatch, amortizing the
//!   per-request key/IV setup.

use fld_core::params::AccelParams;
use fld_core::rdma_system::MsgAccelerator;
use fld_sim::time::SimTime;

use crate::zuc_accel::REQUEST_HEADER_BYTES;

/// Size of the compact request header once the key lives on-FPGA. Its
/// fields, big-endian: a 2 B session id into the on-FPGA key table, the
/// 4 B LTE COUNT, the 4 B payload length and 6 B reserved; the payload
/// follows.
pub const COMPACT_HEADER_BYTES: usize = 16;

/// Performance model of the extended accelerator: key cache (smaller
/// header, no per-request key load) and optional request batching.
#[derive(Debug)]
pub struct BatchedZucAccelerator {
    params: AccelParams,
    units: Vec<SimTime>,
    /// Requests coalesced per unit dispatch.
    batch: u32,
    /// Whether the key cache removes the per-request key-load setup.
    key_cache: bool,
}

impl BatchedZucAccelerator {
    /// Creates the extended accelerator.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn new(params: AccelParams, batch: u32, key_cache: bool) -> Self {
        assert!(batch > 0, "batch must be positive");
        BatchedZucAccelerator {
            units: vec![SimTime::ZERO; params.zuc_units],
            params,
            batch,
            key_cache,
        }
    }

    /// Header bytes each request carries on the wire.
    pub fn header_bytes(&self) -> u32 {
        if self.key_cache {
            COMPACT_HEADER_BYTES as u32
        } else {
            REQUEST_HEADER_BYTES as u32
        }
    }
}

impl MsgAccelerator for BatchedZucAccelerator {
    fn process_message(&mut self, bytes: u32, now: SimTime) -> (SimTime, u32) {
        let payload = bytes.saturating_sub(self.header_bytes());
        let unit = self
            .units
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("at least one unit");
        // Key cache: the IV still loads per request, but the key-schedule
        // setup disappears; batching then amortizes the remaining setup
        // across the batch.
        let base_setup = if self.key_cache {
            self.params.zuc_setup / 2
        } else {
            self.params.zuc_setup
        };
        let setup = base_setup / self.batch as u64;
        let stream = self.params.zuc_request_time(payload as u64) - self.params.zuc_setup;
        let start = now.max(self.units[unit]);
        let done = start + setup + stream;
        self.units[unit] = done;
        (done, bytes)
    }

    fn name(&self) -> &'static str {
        "zuc-extended"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extensions_speed_up_small_requests() {
        let params = AccelParams::default();
        let payload = 64u32;
        // Compare *payload* throughput: the whole point of the extensions
        // is more useful bytes per unit-time at small request sizes.
        let throughput = |accel: &mut dyn MsgAccelerator, msg: u32| {
            let mut last = SimTime::ZERO;
            let n = 4000;
            for _ in 0..n {
                let (done, _) = accel.process_message(msg, SimTime::ZERO);
                last = last.max(done);
            }
            n as f64 * payload as f64 * 8.0 / last.as_secs_f64()
        };
        let mut base = crate::zuc_accel::ZucAccelerator::new(params);
        let mut cached = BatchedZucAccelerator::new(params, 1, true);
        let mut batched = BatchedZucAccelerator::new(params, 8, true);
        let t_base = throughput(&mut base, payload + REQUEST_HEADER_BYTES as u32);
        let t_cached = throughput(&mut cached, payload + COMPACT_HEADER_BYTES as u32);
        let t_batched = throughput(&mut batched, payload + COMPACT_HEADER_BYTES as u32);
        assert!(
            t_cached > t_base,
            "key cache must help: {t_cached:.2e} vs {t_base:.2e}"
        );
        assert!(t_batched > t_cached, "batching must help more");
    }

    #[test]
    fn large_requests_unaffected_by_batching() {
        // At large sizes the stream time dominates; extensions change little.
        let params = AccelParams::default();
        let mut base = BatchedZucAccelerator::new(params, 1, false);
        let mut ext = BatchedZucAccelerator::new(params, 8, true);
        let (a, _) = base.process_message(8192 + 64, SimTime::ZERO);
        let (b, _) = ext.process_message(8192 + 16, SimTime::ZERO);
        let ratio = a.as_secs_f64() / b.as_secs_f64();
        assert!((0.95..1.1).contains(&ratio), "ratio {ratio}");
    }
}
