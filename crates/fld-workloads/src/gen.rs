//! Burst builders for [`fld_core::system::ClientGen`].

use bytes::{Bytes, BytesMut};

use fld_core::system::BurstBuilder;
use fld_net::frame::{fragment_frame, vxlan_encap_fragments, write_tcp_frame, Endpoints};
use fld_net::{FlowKey, Ipv4Addr};
use fld_nic::packet::SimPacket;
use fld_sim::time::SimTime;

use crate::sizes::SizeDist;

/// Mixed-size frames drawn from `dist` (the § 8.1.1 trace replay).
pub fn mixed_size_bursts(dist: SizeDist, flows: u16) -> BurstBuilder {
    Box::new(move |i, rng, out| {
        let len = dist.sample(rng);
        let flow = FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000 + (i % flows as u64) as u16,
            7777,
            17,
        );
        out.push(SimPacket::synthetic(i, len.max(64), flow, SimTime::ZERO));
    })
}

/// How the § 8.2.2 sender prepares each MTU-sized TCP segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefragMode {
    /// Config (a): 1500 B packets, no fragmentation.
    NoFragmentation,
    /// Config (b): fragmented over a 1450 B-MTU route.
    Fragmented {
        /// Path MTU causing fragmentation.
        mtu: usize,
    },
    /// Config (c): pre-fragmented then VXLAN-encapsulated.
    FragmentedVxlan {
        /// Path MTU causing fragmentation.
        mtu: usize,
        /// Tunnel network id.
        vni: u32,
    },
}

/// iperf-style load: `flows` long-lived TCP flows between one host pair,
/// emitting 1500 B frames round-robin, prepared per `mode`. Bursts carry
/// real bytes so the defragmentation path is exercised functionally.
pub fn defrag_bursts(flows: u16, mode: DefragMode) -> BurstBuilder {
    let ep = Endpoints::sim(1, 2);
    let outer = Endpoints::sim(100, 101);
    // 1500 B IP packet: 1446 B of TCP payload (20 IP + 20 TCP + 14 Eth).
    let payload = vec![0xa5u8; 1446];
    // The original segment is only read, so one buffer serves every burst.
    let mut segment = BytesMut::with_capacity(14 + 1500);
    Box::new(move |i, _rng, out| {
        let flow_idx = (i % flows as u64) as u16;
        let src_port = 40_000 + flow_idx;
        let seq = (i / flows as u64) as u32;
        segment.clear();
        write_tcp_frame(&mut segment, &ep, src_port, 5201, seq, &payload);
        let packet =
            |(j, f): (usize, Bytes)| SimPacket::from_frame(i * 8 + j as u64, f, SimTime::ZERO);
        match mode {
            DefragMode::NoFragmentation => {
                out.push(packet((0, Bytes::copy_from_slice(&segment))));
            }
            DefragMode::Fragmented { mtu } => out.extend(
                fragment_frame(&Bytes::copy_from_slice(&segment), mtu, i as u16)
                    .expect("valid frame")
                    .into_iter()
                    .enumerate()
                    .map(packet),
            ),
            // Pre-fragmentation: fragment the inner packet first, then
            // encapsulate each fragment (§ 7: "fragmenting packets before
            // encapsulation ... to reduce the load on the decapsulating
            // endpoint").
            DefragMode::FragmentedVxlan { mtu, vni } => out.extend(
                vxlan_encap_fragments(&outer, vni, &segment, mtu, i as u16, 30_000 + flow_idx)
                    .expect("valid frame")
                    .enumerate()
                    .map(packet),
            ),
        }
    })
}

/// Multi-tenant token traffic for § 8.2.3: synthetic frames of `frame_len`
/// from `tenants` sources, weighted by `weights` (offered-load shares).
/// The NIC's match-action rules map source IPs `10.9.0.<t>` to tenant
/// contexts.
pub fn tenant_bursts(frame_len: u32, weights: Vec<f64>) -> BurstBuilder {
    Box::new(move |i, rng, out| {
        let tenant = rng.pick_weighted(&weights) as u32;
        let flow = FlowKey::new(
            Ipv4Addr::new(10, 9, 0, tenant as u8 + 1),
            Ipv4Addr::new(10, 0, 0, 2),
            2000 + (i % 16) as u16,
            5683,
            17,
        );
        out.push(SimPacket::synthetic(i, frame_len, flow, SimTime::ZERO));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_sim::rng::SimRng;

    /// Collects one burst from a builder (tests only; the generator
    /// itself recycles a scratch buffer).
    fn collect_burst(b: &mut BurstBuilder, i: u64, rng: &mut SimRng) -> Vec<SimPacket> {
        let mut v = Vec::new();
        b(i, rng, &mut v);
        v
    }

    #[test]
    fn fixed_udp_single_packets() {
        let mut b = mixed_size_bursts(SizeDist::Fixed(256), 4);
        let mut rng = SimRng::seed_from(1);
        let burst = collect_burst(&mut b, 0, &mut rng);
        assert_eq!(burst.len(), 1);
        assert_eq!(burst[0].len, 256);
        // Flows rotate.
        let p0 = collect_burst(&mut b, 0, &mut rng)[0].meta.flow.src_port;
        let p1 = collect_burst(&mut b, 1, &mut rng)[0].meta.flow.src_port;
        assert_ne!(p0, p1);
    }

    #[test]
    fn mixed_sizes_vary() {
        let mut b = mixed_size_bursts(SizeDist::imc2010_synthetic(), 8);
        let mut rng = SimRng::seed_from(2);
        let sizes: std::collections::HashSet<u32> = (0..200)
            .map(|i| collect_burst(&mut b, i, &mut rng)[0].len)
            .collect();
        assert!(sizes.len() >= 4, "sizes {sizes:?}");
    }

    #[test]
    fn defrag_none_is_single_frame() {
        let mut b = defrag_bursts(60, DefragMode::NoFragmentation);
        let mut rng = SimRng::seed_from(3);
        let burst = collect_burst(&mut b, 0, &mut rng);
        assert_eq!(burst.len(), 1);
        assert_eq!(burst[0].len, 1500);
        assert!(!burst[0].meta.is_fragment);
        assert_eq!(burst[0].meta.flow.dst_port, 5201);
    }

    #[test]
    fn defrag_fragments_at_mtu() {
        let mut b = defrag_bursts(60, DefragMode::Fragmented { mtu: 1450 });
        let mut rng = SimRng::seed_from(4);
        let burst = collect_burst(&mut b, 0, &mut rng);
        assert_eq!(burst.len(), 2, "1500 B over 1450 MTU = 2 fragments");
        assert!(burst.iter().all(|p| p.meta.is_fragment));
        assert!(burst.iter().all(|p| p.len as usize <= 14 + 1450));
        // Fragments lack L4 ports -> flow key collapses.
        assert_eq!(burst[1].meta.flow.dst_port, 0);
    }

    #[test]
    fn defrag_vxlan_wraps_fragments() {
        let mut b = defrag_bursts(60, DefragMode::FragmentedVxlan { mtu: 1450, vni: 42 });
        let mut rng = SimRng::seed_from(5);
        let burst = collect_burst(&mut b, 0, &mut rng);
        assert_eq!(burst.len(), 2);
        for p in &burst {
            assert_eq!(p.meta.vni_u32(), Some(42), "outer VXLAN visible");
            assert!(!p.meta.is_fragment, "outer packet is not fragmented");
        }
    }

    #[test]
    fn vxlan_bursts_equal_the_composed_build_fragment_encap_path() {
        use fld_net::frame::{build_tcp_frame, vxlan_encap};
        let (flows, mtu, vni) = (60u16, 1450, 42);
        let mut b = defrag_bursts(flows, DefragMode::FragmentedVxlan { mtu, vni });
        let mut rng = SimRng::seed_from(8);
        let (ep, outer, payload) = (Endpoints::sim(1, 2), Endpoints::sim(100, 101), [0xa5; 1446]);
        for i in 0..5_000u64 {
            let flow_idx = (i % u64::from(flows)) as u16;
            let seq = (i / u64::from(flows)) as u32;
            let frame = build_tcp_frame(&ep, 40_000 + flow_idx, 5201, seq, &payload);
            let want = fragment_frame(&frame, mtu, i as u16).unwrap();
            let got = collect_burst(&mut b, i, &mut rng);
            assert_eq!(got.len(), want.len(), "burst {i}");
            for (j, (p, f)) in got.iter().zip(&want).enumerate() {
                let tunnelled = vxlan_encap(&outer, vni, f, 30_000 + flow_idx);
                let w = SimPacket::from_frame(i * 8 + j as u64, tunnelled, SimTime::ZERO);
                assert_eq!((p.id, p.len, p.meta, p.born), (w.id, w.len, w.meta, w.born));
                assert_eq!(p.bytes, w.bytes, "burst {i} frame {j}");
            }
        }
    }

    #[test]
    fn tenant_shares_follow_weights() {
        let mut b = tenant_bursts(1024, vec![1.0, 2.0]);
        let mut rng = SimRng::seed_from(6);
        let mut counts = [0u32; 2];
        for i in 0..30_000 {
            let p = &collect_burst(&mut b, i, &mut rng)[0];
            let tenant = p.meta.flow.src.octets()[3] - 1;
            counts[tenant as usize] += 1;
        }
        let share = counts[1] as f64 / 30_000.0;
        assert!((share - 2.0 / 3.0).abs() < 0.02, "share {share}");
    }

    #[test]
    fn flows_cycle_over_all_sources() {
        let mut b = defrag_bursts(60, DefragMode::NoFragmentation);
        let mut rng = SimRng::seed_from(7);
        let ports: std::collections::HashSet<u16> = (0..60)
            .map(|i| collect_burst(&mut b, i, &mut rng)[0].meta.flow.src_port)
            .collect();
        assert_eq!(ports.len(), 60);
    }
}
