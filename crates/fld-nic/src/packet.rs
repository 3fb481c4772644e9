//! The simulation's packet representation.
//!
//! Performance experiments move millions of packets; materializing byte
//! buffers for each would dominate runtime without adding fidelity. A
//! [`SimPacket`] therefore carries parsed metadata plus an *optional* byte
//! payload: functional paths (the real accelerators) attach bytes, while
//! load experiments run metadata-only.
//!
//! Attached bytes are a shared handle, never a private copy (DESIGN.md
//! § 3.13): [`SimPacket::from_frame`] parses the frame it is given in
//! place — one parse, no payload copy — and keeps that same buffer, a
//! cloned packet (a link-level duplicate) shares it, and a packet
//! re-pointed at a view of its own frame ([`SimPacket::reframe`], the
//! NIC's VXLAN decapsulation) keeps that frame's buffer alive.
//!
//! Layout matters here: perf sweeps keep hundreds of thousands of packets
//! alive at once (an overloaded open-loop link backs up), each parked in
//! a slot of its system's packet pool while the event calendar moves
//! only its 4-byte handle (`fld_core::pool`), so every [`SimPacket`] byte
//! multiplies into megabytes of pool. The byte payload is boxed (8 bytes
//! for the common `None` instead of an inline 24-byte `Bytes`) and the
//! VNI uses a `NonZeroU32` niche, keeping the whole packet in 56 bytes;
//! the `bool`s leave the niche that lets a vacant pool slot be marked
//! without growing it.

use std::num::NonZeroU32;

use bytes::Bytes;

use fld_net::ethernet::ETHERNET_HEADER_LEN;
use fld_net::frame::{parse_headers, L4};
use fld_net::ipv4::IPV4_HEADER_LEN;
use fld_net::udp::UDP_HEADER_LEN;
use fld_net::vxlan::{VxlanHeader, VXLAN_UDP_PORT};
use fld_net::FlowKey;
use fld_sim::time::SimTime;

/// Parsed header fields used by the eSwitch, RSS and virtualization logic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PacketMeta {
    /// 5-tuple (ports zero when unavailable, e.g. fragments).
    pub flow: FlowKey,
    /// Whether the packet is an IPv4 fragment.
    pub is_fragment: bool,
    /// Whether it is the *first* fragment (offset 0, MF set).
    pub first_fragment: bool,
    /// VXLAN network id when tunnelled. Stored non-zero so the niche
    /// keeps the struct at 28 bytes; VNI 0 is reserved on real wires and
    /// parses as untunnelled.
    pub vni: Option<NonZeroU32>,
    /// Tenant/context id tagged by the eSwitch (0 = untagged) — the flow
    /// identification FLD forwards to the accelerator (§ 5.4).
    pub context_id: u32,
    /// Whether NIC checksum validation passed (false also when skipped).
    pub checksum_ok: bool,
}

impl PacketMeta {
    /// The VXLAN network id as a plain integer.
    pub fn vni_u32(&self) -> Option<u32> {
        self.vni.map(NonZeroU32::get)
    }
}

/// A packet travelling through the simulated system.
#[derive(Debug, Clone)]
pub struct SimPacket {
    /// Unique id for latency accounting.
    pub id: u64,
    /// Total frame length in bytes (Ethernet header through payload end).
    pub len: u32,
    /// Parsed metadata.
    pub meta: PacketMeta,
    /// Creation time (for end-to-end latency measurement).
    pub born: SimTime,
    /// Optional real bytes for functional processing. Boxed: the hot
    /// metadata-only path pays 8 bytes for the `None`, not an inline
    /// [`Bytes`] handle.
    pub bytes: Option<Box<Bytes>>,
}

impl SimPacket {
    /// Creates a metadata-only packet.
    pub fn synthetic(id: u64, len: u32, flow: FlowKey, born: SimTime) -> Self {
        SimPacket {
            id,
            len,
            meta: PacketMeta {
                flow,
                checksum_ok: true,
                ..PacketMeta::default()
            },
            born,
            bytes: None,
        }
    }

    /// Creates a packet from real frame bytes, parsing the metadata (once;
    /// the only allocation is the `Box` holding the handle).
    ///
    /// Unparseable frames become metadata-less packets (zeroed flow key)
    /// rather than errors.
    pub fn from_frame(id: u64, frame: Bytes, born: SimTime) -> Self {
        SimPacket {
            id,
            len: frame.len() as u32,
            meta: frame_meta(&frame),
            born,
            bytes: Some(Box::new(frame)),
        }
    }

    /// Turns this packet into the one [`SimPacket::from_frame`] would
    /// build from `frame`, keeping its `id`, `born` and `context_id` (a
    /// rewrite of the packet in flight — the NIC's decapsulation, the
    /// accelerator's reassembly — not a new packet). The existing `Box`
    /// takes the new handle, so nothing is allocated when bytes were
    /// attached.
    pub fn reframe(&mut self, frame: Bytes) {
        self.len = frame.len() as u32;
        self.meta = PacketMeta {
            context_id: self.meta.context_id,
            ..frame_meta(&frame)
        };
        match &mut self.bytes {
            Some(held) => **held = frame,
            None => self.bytes = Some(Box::new(frame)),
        }
    }

    /// Length of a UDP frame carrying `payload` bytes (convenience for
    /// generators).
    pub const fn udp_len(payload: u32) -> u32 {
        (ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN) as u32 + payload
    }
}

/// The metadata of an untagged packet carrying `frame`, parsed once in
/// place (no handle on the frame is taken).
///
/// Unparseable frames get the default (zeroed flow key) rather than an
/// error, mirroring how a NIC forwards unknown traffic.
fn frame_meta(frame: &[u8]) -> PacketMeta {
    let Ok(parsed) = parse_headers(frame) else {
        return PacketMeta::default();
    };
    let flow = parsed.flow_key().unwrap_or_default();
    let (is_fragment, first_fragment) = parsed
        .ip
        .map(|ip| (ip.is_fragment(), ip.is_fragment() && ip.frag_offset == 0))
        .unwrap_or((false, false));
    // A VXLAN packet is a UDP datagram to the tunnel port whose payload —
    // already in hand — starts with the VXLAN header.
    let vni = match &parsed.l4 {
        L4::Udp(u) if u.dst_port == VXLAN_UDP_PORT => VxlanHeader::parse(parsed.payload)
            .ok()
            .and_then(|(vx, _)| NonZeroU32::new(vx.vni)),
        _ => None,
    };
    PacketMeta {
        flow,
        is_fragment,
        first_fragment,
        vni,
        context_id: 0,
        checksum_ok: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_net::frame::{build_udp_frame, fragment_frame, vxlan_encap, Endpoints};

    #[test]
    fn synthetic_packet() {
        let p = SimPacket::synthetic(1, 64, FlowKey::default(), SimTime::ZERO);
        assert_eq!(p.len, 64);
        assert!(p.bytes.is_none());
        assert!(p.meta.checksum_ok);
    }

    #[test]
    fn parses_udp_frame() {
        let ep = Endpoints::sim(1, 2);
        let frame = build_udp_frame(&ep, 1000, 2000, &[0u8; 100]);
        let p = SimPacket::from_frame(9, frame.clone(), SimTime::ZERO);
        assert_eq!(p.len as usize, frame.len());
        assert_eq!(p.meta.flow.dst_port, 2000);
        assert!(!p.meta.is_fragment);
        assert!(p.meta.vni.is_none());
    }

    #[test]
    fn detects_fragments() {
        let ep = Endpoints::sim(1, 2);
        let frame = build_udp_frame(&ep, 1, 2, &[0u8; 3000]);
        let frags = fragment_frame(&frame, 1500, 5).unwrap();
        let first = SimPacket::from_frame(0, frags[0].clone(), SimTime::ZERO);
        assert!(first.meta.is_fragment);
        assert!(first.meta.first_fragment);
        let second = SimPacket::from_frame(1, frags[1].clone(), SimTime::ZERO);
        assert!(second.meta.is_fragment);
        assert!(!second.meta.first_fragment);
    }

    #[test]
    fn detects_vxlan() {
        let ep = Endpoints::sim(1, 2);
        let inner = build_udp_frame(&Endpoints::sim(3, 4), 5, 6, b"x");
        let tunneled = vxlan_encap(&ep, 77, &inner, 4444);
        let p = SimPacket::from_frame(0, tunneled, SimTime::ZERO);
        assert_eq!(p.meta.vni_u32(), Some(77));
    }

    #[test]
    fn reframe_is_from_frame_keeping_identity_and_context() {
        let inner = build_udp_frame(&Endpoints::sim(3, 4), 5, 6, b"x");
        let tunneled = vxlan_encap(&Endpoints::sim(1, 2), 77, &inner, 4444);
        let mut p = SimPacket::from_frame(9, tunneled, SimTime::from_micros(3));
        p.meta.context_id = 5;
        p.meta.checksum_ok = false;
        let held = p.bytes.as_deref().map(|b| b as *const Bytes);
        p.reframe(inner.clone());
        let want = SimPacket::from_frame(9, inner, SimTime::from_micros(3));
        assert_eq!((p.id, p.born, p.len), (want.id, want.born, want.len));
        assert_eq!(
            p.meta,
            PacketMeta {
                context_id: 5,
                ..want.meta
            }
        );
        assert_eq!(p.bytes, want.bytes);
        assert_eq!(
            p.bytes.as_deref().map(|b| b as *const Bytes),
            held,
            "Box reused"
        );
    }

    #[test]
    fn packet_fits_one_cache_line() {
        // A system's pool keeps ~10^5 of these alive under overload, one
        // per slot.
        assert!(std::mem::size_of::<SimPacket>() <= 56);
        assert!(std::mem::size_of::<PacketMeta>() <= 28);
    }

    #[test]
    fn udp_len_helper() {
        assert_eq!(SimPacket::udp_len(0), 42);
        assert_eq!(SimPacket::udp_len(1458), 1500);
    }
}
