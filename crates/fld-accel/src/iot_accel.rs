//! The IoT token-authentication offload (paper § 7): validates a JSON Web
//! Token inside each CoAP message, "dropping packets with invalid
//! HMAC-SHA256 signature". Tenants share the accelerator: the NIC tags
//! flows with a tenant context id and the accelerator indexes "a linear
//! table of HMAC keys" by that tag. Performance isolation comes from NIC
//! traffic shaping (§ 8.2.3).

use fld_core::system::{AccelOutput, AcceleratorModel, EmitList};
use fld_crypto::jwt;
use fld_net::coap::CoapMessage;
use fld_net::frame::ParsedFrame;
use fld_nic::packet::SimPacket;
use fld_sim::link::TokenBucket;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};

/// The IoT authentication accelerator model.
///
/// Eight processing units validate tokens (20 Mpps aggregate at 256 B,
/// § 7). An optional *capacity limit* models the § 8.2.3 isolation
/// experiment, where "the accelerator is configured to accept only
/// 12 Gbps of traffic" — excess is dropped, since accelerators must not
/// backpressure FLD (§ 5.5).
#[derive(Debug)]
pub struct IotAuthAccelerator {
    /// Per-tenant HMAC keys, indexed by context id.
    keys: Vec<Vec<u8>>,
    units: Vec<SimTime>,
    per_packet: SimDuration,
    /// Optional ingest capacity limit (the experiment's 12 Gbps knob).
    capacity: Option<TokenBucket>,
    accepted: u64,
    rejected_auth: u64,
    dropped_capacity: u64,
}

impl IotAuthAccelerator {
    /// Creates the accelerator with `units` processing units at
    /// `per_packet` cost each.
    pub fn new(units: usize, per_packet: SimDuration) -> Self {
        assert!(units > 0, "need at least one unit");
        IotAuthAccelerator {
            keys: Vec::new(),
            units: vec![SimTime::ZERO; units],
            per_packet,
            capacity: None,
            accepted: 0,
            rejected_auth: 0,
            dropped_capacity: 0,
        }
    }

    /// The § 7 prototype: 8 units, 20 Mpps aggregate (400 ns/unit/packet).
    pub fn prototype() -> Self {
        IotAuthAccelerator::new(8, SimDuration::from_nanos(400))
    }

    /// Imposes an aggregate ingest capacity (the § 8.2.3 12 Gbps setting).
    pub fn with_capacity(mut self, rate: Bandwidth) -> Self {
        // A shallow burst allowance (~4 MTU frames) smooths phase effects
        // without letting the average exceed `rate`.
        self.capacity = Some(TokenBucket::new(rate, 6000));
        self
    }

    /// Installs the HMAC key for `context` (linear key table, § 7).
    pub fn set_key(&mut self, context: u32, key: &[u8]) {
        let idx = context as usize;
        if self.keys.len() <= idx {
            self.keys.resize(idx + 1, Vec::new());
        }
        self.keys[idx] = key.to_vec();
    }

    /// Extracts and validates the token of a functional packet; synthetic
    /// packets (no bytes) are treated as carrying valid tokens so pure
    /// performance runs need not build real crypto traffic.
    fn validate(&self, pkt: &SimPacket) -> bool {
        let Some(bytes) = &pkt.bytes else {
            return true;
        };
        let Ok(parsed) = ParsedFrame::parse(bytes) else {
            return false;
        };
        let Ok(coap) = CoapMessage::parse(&parsed.payload) else {
            return false;
        };
        let Ok(token) = std::str::from_utf8(&coap.payload) else {
            return false;
        };
        let Some(key) = self.keys.get(pkt.meta.context_id as usize) else {
            return false;
        };
        if key.is_empty() {
            return false;
        }
        jwt::verify(token, key).is_ok()
    }
}

impl AcceleratorModel for IotAuthAccelerator {
    fn process(&mut self, pkt: SimPacket, next_table: Option<u16>, now: SimTime) -> AccelOutput {
        // Capacity limiter: packets beyond the configured ingest rate are
        // dropped — accelerators must not backpressure FLD (§ 5.5).
        if let Some(tb) = &mut self.capacity {
            if tb.earliest_send(now, pkt.len as u64) > now {
                self.dropped_capacity += 1;
                return AccelOutput::absorb(now);
            }
            tb.consume(now, pkt.len as u64);
        }
        // Dispatch to the earliest-free unit.
        let unit = self
            .units
            .iter()
            .enumerate()
            .min_by_key(|(_, t)| **t)
            .map(|(i, _)| i)
            .expect("at least one unit");
        let start = now.max(self.units[unit]);
        let done = start + self.per_packet;
        self.units[unit] = done;
        if self.validate(&pkt) {
            self.accepted += 1;
            AccelOutput {
                consumed_at: done,
                emit: EmitList::one((done, 0, next_table, pkt)),
            }
        } else {
            self.rejected_auth += 1;
            AccelOutput::absorb(done)
        }
    }

    fn name(&self) -> &'static str {
        "iot-auth"
    }

    fn queue_depth(&self, now: SimTime) -> f64 {
        // Time until the last unit drains: the depth of the busiest queue.
        self.units
            .iter()
            .map(|&t| t.since(now.min(t)).as_picos() as f64 / 1e3)
            .fold(0.0, f64::max)
    }

    fn export_metrics(&self, prefix: &str, registry: &mut fld_sim::metrics::MetricsRegistry) {
        registry.counter(format!("{prefix}.accepted"), self.accepted);
        registry.counter(format!("{prefix}.rejected_auth"), self.rejected_auth);
        registry.counter(format!("{prefix}.dropped_capacity"), self.dropped_capacity);
        registry.counter(format!("{prefix}.units"), self.units.len() as u64);
    }
}

/// Builds a CoAP-over-UDP frame carrying a signed JWT for `context`'s key —
/// the traffic the TRex generator sends in § 8.2.3.
pub fn build_token_frame(
    ep: &fld_net::frame::Endpoints,
    src_port: u16,
    key: &[u8],
    claims: &[u8],
    message_id: u16,
) -> bytes::Bytes {
    let token = jwt::sign(claims, key);
    let coap = CoapMessage::post(message_id, b"tk", token.into_bytes());
    let mut payload = bytes::BytesMut::new();
    coap.write(&mut payload);
    fld_net::frame::build_udp_frame(ep, src_port, 5683, &payload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_net::frame::Endpoints;

    fn token_packet(key: &[u8], context: u32) -> SimPacket {
        let ep = Endpoints::sim(1, 2);
        let frame = build_token_frame(&ep, 1000, key, br#"{"device":"d1"}"#, 7);
        let mut pkt = SimPacket::from_frame(1, frame, SimTime::ZERO);
        pkt.meta.context_id = context;
        pkt
    }

    #[test]
    fn valid_token_passes() {
        let mut acc = IotAuthAccelerator::prototype();
        acc.set_key(3, b"tenant-3-key");
        let out = acc.process(token_packet(b"tenant-3-key", 3), Some(2), SimTime::ZERO);
        assert_eq!(out.emit.len(), 1);
        assert_eq!(acc.accepted, 1);
        assert_eq!(acc.rejected_auth, 0);
    }

    #[test]
    fn wrong_key_or_tenant_rejected() {
        let mut acc = IotAuthAccelerator::prototype();
        acc.set_key(3, b"tenant-3-key");
        // Signed with another tenant's key.
        let out = acc.process(token_packet(b"other-key", 3), None, SimTime::ZERO);
        assert!(out.emit.is_empty());
        // Unknown tenant id.
        let out = acc.process(token_packet(b"tenant-3-key", 9), None, SimTime::ZERO);
        assert!(out.emit.is_empty());
        assert_eq!(acc.rejected_auth, 2);
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut acc = IotAuthAccelerator::prototype();
        acc.set_key(1, b"k");
        let ep = Endpoints::sim(1, 2);
        let frame = fld_net::frame::build_udp_frame(&ep, 1, 5683, b"not coap at all");
        let mut pkt = SimPacket::from_frame(9, frame, SimTime::ZERO);
        pkt.meta.context_id = 1;
        assert!(acc.process(pkt, None, SimTime::ZERO).emit.is_empty());
    }

    #[test]
    fn synthetic_packets_assumed_valid() {
        let mut acc = IotAuthAccelerator::prototype();
        let pkt = SimPacket::synthetic(1, 256, fld_net::FlowKey::default(), SimTime::ZERO);
        assert_eq!(acc.process(pkt, None, SimTime::ZERO).emit.len(), 1);
    }

    #[test]
    fn aggregate_rate_is_20mpps() {
        let mut acc = IotAuthAccelerator::prototype();
        let n = 20_000u64;
        let mut last = SimTime::ZERO;
        for i in 0..n {
            let pkt = SimPacket::synthetic(i, 256, fld_net::FlowKey::default(), SimTime::ZERO);
            last = last.max(acc.process(pkt, None, SimTime::ZERO).consumed_at);
        }
        let mpps = n as f64 / last.as_secs_f64() / 1e6;
        assert!((mpps - 20.0).abs() < 0.5, "{mpps:.2} Mpps");
    }

    #[test]
    fn capacity_limiter_drops_excess() {
        let mut acc = IotAuthAccelerator::prototype().with_capacity(Bandwidth::gbps(12.0));
        // Offer 24 Gbps of 1024 B packets for 1 ms.
        let gap = SimDuration::from_secs_f64(1024.0 * 8.0 / 24e9);
        let mut now = SimTime::ZERO;
        let mut offered = 0u64;
        while now < SimTime::from_millis(1) {
            let pkt = SimPacket::synthetic(offered, 1024, fld_net::FlowKey::default(), now);
            acc.process(pkt, None, now);
            offered += 1;
            now += gap;
        }
        let frac = acc.accepted as f64 / offered as f64;
        assert!((frac - 0.5).abs() < 0.05, "accepted fraction {frac}");
        assert!(acc.dropped_capacity > 0);
    }
}
