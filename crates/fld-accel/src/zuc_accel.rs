//! The disaggregated LTE (ZUC) cipher accelerator (paper § 7): eight ZUC
//! units behind a load-balancing front-end, exposed to remote clients over
//! FLD-R RDMA Sends, plus the wire format of its request/response protocol
//! ("The request/response format includes a 64 B header for the
//! cryptographic key, initialization vector (IV), and additional
//! metadata").

use fld_core::params::AccelParams;
use fld_core::rdma_system::MsgAccelerator;
use fld_crypto::zuc::{eea3, eia3};
use fld_sim::time::SimTime;

/// Size of the request/response header (§ 7).
pub const REQUEST_HEADER_BYTES: usize = 64;

/// Cipher operation requested.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoOp {
    /// 128-EEA3 encryption/decryption (an involution).
    Eea3Cipher,
    /// 128-EIA3 integrity tag computation.
    Eia3Integrity,
}

/// A parsed cryptographic request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CryptoRequest {
    /// Operation.
    pub op: CryptoOp,
    /// 128-bit cipher key.
    pub key: [u8; 16],
    /// LTE COUNT value.
    pub count: u32,
    /// LTE BEARER (5 bits).
    pub bearer: u8,
    /// Direction bit.
    pub direction: u8,
    /// Payload to process.
    pub payload: Vec<u8>,
}

/// An error decoding a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeRequestError {
    /// Shorter than the 64 B header.
    Truncated,
    /// Unknown operation code.
    BadOp(u8),
}

impl std::fmt::Display for DecodeRequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeRequestError::Truncated => write!(f, "request shorter than 64 B header"),
            DecodeRequestError::BadOp(op) => write!(f, "unknown crypto op {op}"),
        }
    }
}

impl std::error::Error for DecodeRequestError {}

impl CryptoRequest {
    /// Serializes the request: 64 B header followed by the payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; REQUEST_HEADER_BYTES];
        out[0] = match self.op {
            CryptoOp::Eea3Cipher => 1,
            CryptoOp::Eia3Integrity => 2,
        };
        out[1] = self.bearer;
        out[2] = self.direction;
        out[4..8].copy_from_slice(&self.count.to_be_bytes());
        out[8..24].copy_from_slice(&self.key);
        out[24..28].copy_from_slice(&(self.payload.len() as u32).to_be_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Parses a request from its wire form.
    ///
    /// # Errors
    ///
    /// Returns [`DecodeRequestError`] on truncation or unknown op codes.
    pub fn decode(data: &[u8]) -> Result<CryptoRequest, DecodeRequestError> {
        if data.len() < REQUEST_HEADER_BYTES {
            return Err(DecodeRequestError::Truncated);
        }
        let op = match data[0] {
            1 => CryptoOp::Eea3Cipher,
            2 => CryptoOp::Eia3Integrity,
            other => return Err(DecodeRequestError::BadOp(other)),
        };
        let mut key = [0u8; 16];
        key.copy_from_slice(&data[8..24]);
        let len = u32::from_be_bytes([data[24], data[25], data[26], data[27]]) as usize;
        let payload = data[REQUEST_HEADER_BYTES..]
            .get(..len)
            .unwrap_or(&data[REQUEST_HEADER_BYTES..]);
        Ok(CryptoRequest {
            op,
            key,
            count: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            bearer: data[1],
            direction: data[2],
            payload: payload.to_vec(),
        })
    }

    /// Executes the request functionally, producing the response payload —
    /// what one ZUC unit computes.
    pub fn execute(&self) -> Vec<u8> {
        match self.op {
            CryptoOp::Eea3Cipher => {
                let mut data = self.payload.clone();
                eea3(
                    &self.key,
                    self.count,
                    self.bearer,
                    self.direction,
                    data.len() * 8,
                    &mut data,
                );
                data
            }
            CryptoOp::Eia3Integrity => {
                let mac = eia3(
                    &self.key,
                    self.count,
                    self.bearer,
                    self.direction,
                    self.payload.len() * 8,
                    &self.payload,
                );
                mac.to_be_bytes().to_vec()
            }
        }
    }
}

/// The performance model of the disaggregated accelerator: a front-end
/// load balancer dispatching to the earliest-free of `units` ZUC engines.
#[derive(Debug)]
pub struct ZucAccelerator {
    params: AccelParams,
    units: Vec<SimTime>,
}

impl ZucAccelerator {
    /// Creates the accelerator from its parameters.
    pub fn new(params: AccelParams) -> Self {
        ZucAccelerator {
            units: vec![SimTime::ZERO; params.zuc_units],
            params,
        }
    }
}

impl MsgAccelerator for ZucAccelerator {
    fn process_message(&mut self, bytes: u32, now: SimTime) -> (SimTime, u32) {
        // Front-end LB: earliest-free unit.
        let unit = self
            .units
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("at least one unit");
        let payload = bytes.saturating_sub(REQUEST_HEADER_BYTES as u32);
        let start = now.max(self.units[unit]);
        let done = start + self.params.zuc_request_time(payload as u64);
        self.units[unit] = done;
        // The response mirrors the request size (ciphertext + header).
        (done, bytes)
    }

    fn name(&self) -> &'static str {
        "zuc"
    }

    fn queue_depth(&self, now: SimTime) -> f64 {
        self.units
            .iter()
            .map(|&t| t.since(now.min(t)).as_picos() as f64 / 1e3)
            .fold(0.0, f64::max)
    }
}

/// The software baseline: DPDK's ZUC driver on one host core
/// (§ 8.2.1, "based on Intel Multi-Buffer Crypto Library").
#[derive(Debug)]
pub struct SoftwareZuc {
    core_bps: f64,
    next_free: SimTime,
}

impl SoftwareZuc {
    /// Creates the baseline at `core_gbps` per-core throughput.
    pub fn new(core_gbps: f64) -> Self {
        SoftwareZuc {
            core_bps: core_gbps * 1e9,
            next_free: SimTime::ZERO,
        }
    }
}

impl MsgAccelerator for SoftwareZuc {
    fn process_message(&mut self, bytes: u32, now: SimTime) -> (SimTime, u32) {
        let payload = bytes.saturating_sub(REQUEST_HEADER_BYTES as u32);
        let start = now.max(self.next_free);
        let work = fld_sim::time::SimDuration::from_secs_f64(payload as f64 * 8.0 / self.core_bps);
        let done = start + work;
        self.next_free = done;
        (done, bytes)
    }

    fn name(&self) -> &'static str {
        "sw-zuc"
    }

    fn queue_depth(&self, now: SimTime) -> f64 {
        self.next_free.since(now.min(self.next_free)).as_picos() as f64 / 1e3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let req = CryptoRequest {
            op: CryptoOp::Eea3Cipher,
            key: [7u8; 16],
            count: 0xdeadbeef,
            bearer: 0x15,
            direction: 1,
            payload: b"lte user plane data".to_vec(),
        };
        let wire = req.encode();
        assert_eq!(wire.len(), REQUEST_HEADER_BYTES + req.payload.len());
        let back = CryptoRequest::decode(&wire).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn decode_errors() {
        assert_eq!(
            CryptoRequest::decode(&[0u8; 10]),
            Err(DecodeRequestError::Truncated)
        );
        let mut bad = vec![0u8; 64];
        bad[0] = 9;
        assert_eq!(
            CryptoRequest::decode(&bad),
            Err(DecodeRequestError::BadOp(9))
        );
    }

    #[test]
    fn execute_cipher_is_involution() {
        let mk = |payload: Vec<u8>| CryptoRequest {
            op: CryptoOp::Eea3Cipher,
            key: [3u8; 16],
            count: 42,
            bearer: 5,
            direction: 0,
            payload,
        };
        let plaintext = b"the quick brown fox".to_vec();
        let ciphertext = mk(plaintext.clone()).execute();
        assert_ne!(ciphertext, plaintext);
        let decrypted = mk(ciphertext).execute();
        assert_eq!(decrypted, plaintext);
    }

    #[test]
    fn execute_integrity_detects_tampering() {
        let req = CryptoRequest {
            op: CryptoOp::Eia3Integrity,
            key: [9u8; 16],
            count: 1,
            bearer: 0,
            direction: 0,
            payload: b"signalling".to_vec(),
        };
        let mac1 = req.execute();
        let mut tampered = req.clone();
        tampered.payload[0] ^= 1;
        assert_ne!(tampered.execute(), mac1);
        assert_eq!(mac1.len(), 4);
    }

    #[test]
    fn eight_units_give_8x_single_unit_throughput() {
        let params = AccelParams::default();
        let mut acc = ZucAccelerator::new(params);
        // Saturate with 512 B requests all arriving at t=0.
        let n = 8000u32;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            let (done, _) = acc.process_message(512 + 64, SimTime::ZERO);
            last = last.max(done);
        }
        let gbps = n as f64 * 512.0 * 8.0 / last.as_secs_f64() / 1e9;
        let expect = params.zuc_units as f64 * params.zuc_unit_gbps;
        assert!(
            (gbps - expect).abs() / expect < 0.02,
            "gbps {gbps:.2} vs {expect:.2}"
        );
    }

    #[test]
    fn software_baseline_is_about_4x_slower() {
        let a = AccelParams::default();
        let mut hw = ZucAccelerator::new(a);
        let mut sw = SoftwareZuc::new(a.sw_zuc_core_gbps);
        let mut hw_last = SimTime::ZERO;
        let mut sw_last = SimTime::ZERO;
        for _ in 0..1000 {
            hw_last = hw_last.max(hw.process_message(1024 + 64, SimTime::ZERO).0);
            sw_last = sw_last.max(sw.process_message(1024 + 64, SimTime::ZERO).0);
        }
        let ratio = sw_last.as_secs_f64() / hw_last.as_secs_f64();
        // 38 Gbps aggregate vs 4.4 Gbps core: ~8.7x in raw compute (the 4x
        // end-to-end factor of Fig. 8a additionally includes the network).
        assert!(ratio > 4.0, "hw should be much faster, ratio {ratio:.1}");
    }

    #[test]
    fn lb_prefers_idle_units() {
        let mut acc = ZucAccelerator::new(AccelParams::default());
        // Two simultaneous requests must run in parallel (same completion).
        let (a, _) = acc.process_message(512 + 64, SimTime::ZERO);
        let (b, _) = acc.process_message(512 + 64, SimTime::ZERO);
        assert_eq!(a, b);
    }
}
