//! The inline IP defragmentation accelerator (paper § 7): fragments are
//! steered to the accelerator at the embedded-switch layer; reassembled
//! datagrams return to the NIC pipeline so RSS and checksum offloads work
//! again (§ 8.2.2).

use bytes::{BufMut, BytesMut};

use fld_core::system::{AccelOutput, AcceleratorModel, EmitList};
use fld_net::ethernet::EthernetHeader;
use fld_net::ipv4::{Ipv4Header, Reassembler, ReassemblyResult};
use fld_nic::packet::SimPacket;
use fld_sim::time::{SimDuration, SimTime};

/// The defragmentation accelerator: a bounded reassembly table in on-chip
/// memory (the paper's AFU spends 984 BRAMs + 64 URAMs on it, Table 5)
/// plus a fixed per-fragment pipeline cost.
#[derive(Debug)]
pub struct DefragAccelerator {
    reassembler: Reassembler,
    per_fragment: SimDuration,
    next_free: SimTime,
    next_id: u64,
    fragments_in: u64,
    datagrams_out: u64,
}

impl DefragAccelerator {
    /// Creates the accelerator with a `capacity`-datagram table and the
    /// given per-fragment cost.
    pub fn new(capacity: usize, per_fragment: SimDuration) -> Self {
        DefragAccelerator {
            reassembler: Reassembler::new(capacity),
            per_fragment,
            next_free: SimTime::ZERO,
            next_id: 1 << 48,
            fragments_in: 0,
            datagrams_out: 0,
        }
    }

    /// The prototype configuration: 1024 concurrent datagrams, 40 ns per
    /// fragment (line-rate capable at 25 GbE).
    pub fn prototype() -> Self {
        DefragAccelerator::new(1024, SimDuration::from_nanos(40))
    }

    fn rebuild_frame(eth: &EthernetHeader, ip: &Ipv4Header, payload: &[u8]) -> bytes::Bytes {
        let mut buf = BytesMut::with_capacity(14 + ip.total_len as usize);
        eth.write(&mut buf);
        ip.write(&mut buf);
        buf.put_slice(payload);
        buf.freeze()
    }
}

impl AcceleratorModel for DefragAccelerator {
    fn process(
        &mut self,
        mut pkt: SimPacket,
        next_table: Option<u16>,
        now: SimTime,
    ) -> AccelOutput {
        let start = now.max(self.next_free);
        let done = start + self.per_fragment;
        self.next_free = done;
        self.fragments_in += 1;

        let Some(bytes) = &pkt.bytes else {
            // Synthetic packets cannot be reassembled functionally; pass
            // them through (they are not fragments).
            return AccelOutput {
                consumed_at: done,
                emit: EmitList::one((done, 0, next_table, pkt)),
            };
        };
        let Ok((eth, rest)) = EthernetHeader::parse(bytes) else {
            return AccelOutput::absorb(done);
        };
        let Ok((ip, ip_payload)) = Ipv4Header::parse(rest) else {
            return AccelOutput::absorb(done);
        };
        let ip_payload = &ip_payload[..ip.payload_len().min(ip_payload.len())];
        match self.reassembler.push(&ip, ip_payload) {
            ReassemblyResult::NotFragment => AccelOutput {
                consumed_at: done,
                emit: EmitList::one((done, 0, next_table, pkt)),
            },
            ReassemblyResult::Pending => AccelOutput::absorb(done),
            ReassemblyResult::Complete {
                header, payload, ..
            } => {
                let frame = Self::rebuild_frame(&eth, &header, payload);
                self.datagrams_out += 1;
                // The last fragment becomes the datagram: a new id, its
                // birth time and context kept.
                pkt.reframe(frame);
                pkt.id = self.next_id;
                self.next_id += 1;
                AccelOutput {
                    consumed_at: done,
                    emit: EmitList::one((done, 0, next_table, pkt)),
                }
            }
        }
    }

    fn name(&self) -> &'static str {
        "ip-defrag"
    }

    fn queue_depth(&self, now: SimTime) -> f64 {
        self.next_free.since(now.min(self.next_free)).as_picos() as f64 / 1e3
    }

    fn export_metrics(&self, prefix: &str, registry: &mut fld_sim::metrics::MetricsRegistry) {
        registry.counter(format!("{prefix}.fragments_in"), self.fragments_in);
        registry.counter(format!("{prefix}.datagrams_out"), self.datagrams_out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_net::frame::{build_udp_frame, fragment_frame, Endpoints, ParsedFrame, L4};

    fn frags(payload_len: usize, mtu: usize, id: u16) -> Vec<SimPacket> {
        let ep = Endpoints::sim(1, 2);
        let payload: Vec<u8> = (0..payload_len as u32).map(|i| i as u8).collect();
        let frame = build_udp_frame(&ep, 4000, 5001, &payload);
        fragment_frame(&frame, mtu, id)
            .unwrap()
            .into_iter()
            .enumerate()
            .map(|(i, f)| SimPacket::from_frame(id as u64 * 100 + i as u64, f, SimTime::ZERO))
            .collect()
    }

    #[test]
    fn reassembles_and_restores_l4_visibility() {
        let mut acc = DefragAccelerator::prototype();
        let fragments = frags(3000, 1500, 9);
        assert!(fragments.len() >= 2);
        let mut emitted = Vec::new();
        for f in fragments {
            assert!(f.meta.is_fragment);
            let out = acc.process(f, Some(1), SimTime::ZERO);
            emitted.extend(out.emit);
        }
        assert_eq!(emitted.len(), 1);
        let (_, _, table, pkt) = &emitted[0];
        assert_eq!(*table, Some(1));
        // The reassembled packet is no longer a fragment and regains its
        // L4 ports, so RSS works again (the entire point of § 8.2.2).
        assert!(!pkt.meta.is_fragment);
        assert_eq!(pkt.meta.flow.dst_port, 5001);
        // And it must parse as a valid UDP frame end to end.
        let parsed = ParsedFrame::parse(pkt.bytes.as_ref().unwrap()).unwrap();
        assert!(matches!(parsed.l4, L4::Udp(_)));
        assert_eq!(parsed.payload.len(), 3000);
        assert_eq!(acc.datagrams_out, 1);
    }

    #[test]
    fn interleaved_flows_reassemble_independently() {
        let mut acc = DefragAccelerator::prototype();
        let a = frags(3000, 1500, 1);
        let b = frags(3000, 1500, 2);
        let mut count = 0;
        for (fa, fb) in a.into_iter().zip(b) {
            count += acc.process(fa, None, SimTime::ZERO).emit.len();
            count += acc.process(fb, None, SimTime::ZERO).emit.len();
        }
        assert_eq!(count, 2);
    }

    #[test]
    fn non_fragment_passes_straight_through() {
        let mut acc = DefragAccelerator::prototype();
        let ep = Endpoints::sim(1, 2);
        let frame = build_udp_frame(&ep, 1, 2, &[0u8; 100]);
        let pkt = SimPacket::from_frame(5, frame, SimTime::ZERO);
        let out = acc.process(pkt, Some(3), SimTime::ZERO);
        assert_eq!(out.emit.len(), 1);
        assert_eq!(out.emit[0].3.id, 5);
        assert_eq!(acc.datagrams_out, 0);
    }

    #[test]
    fn per_fragment_cost_serializes() {
        let mut acc = DefragAccelerator::new(64, SimDuration::from_nanos(100));
        let fragments = frags(6000, 1500, 3);
        let n = fragments.len();
        let mut last = SimTime::ZERO;
        for f in fragments {
            let out = acc.process(f, None, SimTime::ZERO);
            last = last.max(out.consumed_at);
        }
        assert_eq!(last.as_nanos() as usize, 100 * n);
    }

    #[test]
    fn preserves_birth_time_for_latency_accounting() {
        let mut acc = DefragAccelerator::prototype();
        let mut fragments = frags(3000, 1500, 4);
        for f in &mut fragments {
            f.born = SimTime::from_micros(7);
        }
        let mut done = None;
        for f in fragments {
            for e in acc.process(f, None, SimTime::from_micros(8)).emit {
                done = Some(e.3);
            }
        }
        assert_eq!(done.unwrap().born, SimTime::from_micros(7));
    }
}
