//! Whole-frame builders and parsers, combining the per-layer codecs.
//!
//! These operate on real bytes and back the *functional* paths of the
//! simulation (accelerators that actually parse/transform packets), while
//! the performance models mostly track sizes and metadata.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::ParsePacketError;
use crate::ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use crate::flow::FlowKey;
use crate::ipv4::{fragment_ranges, IpProto, Ipv4Addr, Ipv4Header, IPV4_HEADER_LEN};
use crate::tcp::{TcpHeader, TCP_HEADER_LEN};
use crate::udp::{UdpHeader, UDP_HEADER_LEN};
use crate::vxlan::{VxlanHeader, VXLAN_HEADER_LEN, VXLAN_UDP_PORT};

/// Transport-layer view of a parsed frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum L4 {
    /// UDP header.
    Udp(UdpHeader),
    /// TCP header.
    Tcp(TcpHeader),
    /// Unparsed transport (fragment tail or unknown protocol).
    Raw,
}

/// The headers of an Ethernet/IPv4 frame, parsed in place: what
/// [`parse_headers`] returns and [`ParsedFrame::parse`] wraps.
#[derive(Debug)]
pub struct FrameHeaders<'a> {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header (when EtherType is IPv4).
    pub ip: Option<Ipv4Header>,
    /// Transport header.
    pub l4: L4,
    /// L4 payload (or IP payload for `L4::Raw`), borrowed from the frame.
    pub payload: &'a [u8],
}

impl FrameHeaders<'_> {
    /// The flow key of this frame (ports zero for `L4::Raw`).
    pub fn flow_key(&self) -> Option<FlowKey> {
        let ip = self.ip.as_ref()?;
        Some(match &self.l4 {
            L4::Udp(u) => FlowKey::from_udp(ip, u),
            L4::Tcp(t) => FlowKey::from_tcp(ip, t),
            L4::Raw => FlowKey::l3_only(ip),
        })
    }
}

/// Parses a frame's headers, borrowing its payload: the parse for callers
/// that read metadata and bytes but keep no handle on the frame.
///
/// Non-first IP fragments and unknown protocols yield [`L4::Raw`].
///
/// # Errors
///
/// Propagates header parse errors from each layer.
#[inline]
pub fn parse_headers(frame: &[u8]) -> Result<FrameHeaders<'_>, ParsePacketError> {
    let (eth, rest) = EthernetHeader::parse(frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Ok(FrameHeaders {
            eth,
            ip: None,
            l4: L4::Raw,
            payload: rest,
        });
    }
    let (ip, rest) = Ipv4Header::parse(rest)?;
    let ip_payload = &rest[..ip.payload_len().min(rest.len())];
    // Fragments (including the first) are left unparsed at L4: the
    // transport header is either absent or spans a partial datagram —
    // exactly the situation that breaks NIC L4 offloads (§ 8.2.2).
    let (l4, payload) = if ip.is_fragment() {
        (L4::Raw, ip_payload)
    } else {
        match ip.proto {
            IpProto::Udp => {
                let (udp, payload) = UdpHeader::parse(ip_payload)?;
                (L4::Udp(udp), payload)
            }
            IpProto::Tcp => {
                let (tcp, payload) = TcpHeader::parse(ip_payload)?;
                (L4::Tcp(tcp), payload)
            }
            _ => (L4::Raw, ip_payload),
        }
    };
    Ok(FrameHeaders {
        eth,
        ip: Some(ip),
        l4,
        payload,
    })
}

/// A parsed Ethernet/IPv4 frame.
#[derive(Debug, Clone)]
pub struct ParsedFrame {
    /// Ethernet header.
    pub eth: EthernetHeader,
    /// IPv4 header (when EtherType is IPv4).
    pub ip: Option<Ipv4Header>,
    /// Transport header.
    pub l4: L4,
    /// L4 payload (or IP payload for `L4::Raw`).
    pub payload: Bytes,
}

impl ParsedFrame {
    /// Parses a full frame ([`parse_headers`]). `payload` is a view of
    /// `frame`, not a copy: it keeps the frame's buffer alive for as long
    /// as it is held.
    ///
    /// Non-first IP fragments and unknown protocols yield [`L4::Raw`].
    ///
    /// # Errors
    ///
    /// Propagates header parse errors from each layer.
    pub fn parse(frame: &Bytes) -> Result<ParsedFrame, ParsePacketError> {
        let h = parse_headers(frame)?;
        Ok(ParsedFrame {
            eth: h.eth,
            ip: h.ip,
            l4: h.l4,
            payload: frame.slice_ref(h.payload),
        })
    }
}

/// Endpoint addresses used when building frames.
#[derive(Debug, Clone, Copy)]
pub struct Endpoints {
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source IP.
    pub src_ip: Ipv4Addr,
    /// Destination IP.
    pub dst_ip: Ipv4Addr,
}

impl Endpoints {
    /// Simulation-friendly endpoints derived from small ids.
    pub fn sim(src_id: u32, dst_id: u32) -> Self {
        Endpoints {
            src_mac: MacAddr::local(src_id),
            dst_mac: MacAddr::local(dst_id),
            src_ip: Ipv4Addr::from(0x0a00_0000 | src_id),
            dst_ip: Ipv4Addr::from(0x0a00_0000 | dst_id),
        }
    }
}

/// Builds a UDP/IPv4/Ethernet frame, computing the UDP checksum.
pub fn build_udp_frame(ep: &Endpoints, src_port: u16, dst_port: u16, payload: &[u8]) -> Bytes {
    let mut udp = UdpHeader::new(src_port, dst_port, payload.len());
    udp.checksum = udp.compute_checksum(ep.src_ip, ep.dst_ip, payload);
    let ip = Ipv4Header::simple(
        ep.src_ip,
        ep.dst_ip,
        IpProto::Udp,
        UDP_HEADER_LEN + payload.len(),
    );
    let eth = EthernetHeader {
        dst: ep.dst_mac,
        src: ep.src_mac,
        ethertype: EtherType::Ipv4,
    };
    let mut buf = BytesMut::with_capacity(ETHERNET_HEADER_LEN + ip.total_len as usize);
    eth.write(&mut buf);
    ip.write(&mut buf);
    udp.write(&mut buf);
    buf.put_slice(payload);
    buf.freeze()
}

/// Builds a TCP/IPv4/Ethernet data segment.
pub fn build_tcp_frame(
    ep: &Endpoints,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    payload: &[u8],
) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + TCP_HEADER_LEN + payload.len(),
    );
    write_tcp_frame(&mut buf, ep, src_port, dst_port, seq, payload);
    buf.freeze()
}

/// Appends the frame [`build_tcp_frame`] returns to `buf`, so a caller
/// that only reads the frame can keep one buffer for all of them.
pub fn write_tcp_frame(
    buf: &mut BytesMut,
    ep: &Endpoints,
    src_port: u16,
    dst_port: u16,
    seq: u32,
    payload: &[u8],
) {
    let tcp = TcpHeader::data(src_port, dst_port, seq);
    let ip = Ipv4Header::simple(
        ep.src_ip,
        ep.dst_ip,
        IpProto::Tcp,
        TCP_HEADER_LEN + payload.len(),
    );
    let eth = EthernetHeader {
        dst: ep.dst_mac,
        src: ep.src_mac,
        ethertype: EtherType::Ipv4,
    };
    eth.write(buf);
    ip.write(buf);
    tcp.write(buf);
    buf.put_slice(payload);
}

/// Splits an IPv4 frame into fragment frames that each fit `mtu` (IP total
/// length bound), all carrying `ip_id`. A frame that already fits comes
/// back as one frame with the id rewritten.
///
/// # Errors
///
/// Fails if the frame does not parse as Ethernet + IPv4, or if it needs
/// fragmenting but has the don't-fragment bit set or `mtu` cannot carry
/// the 8 payload bytes a fragment must.
pub fn fragment_frame(
    frame: &Bytes,
    mtu: usize,
    ip_id: u16,
) -> Result<Vec<Bytes>, ParsePacketError> {
    Ok(fragment_frames(frame, mtu, ip_id, 0, |_, _| {})?.collect())
}

/// [`fragment_frame`] followed by [`vxlan_encap`] of each fragment, with
/// each tunnelled fragment written straight into its own buffer: outer
/// headers, the inner Ethernet header, the fragment's IP header, then its
/// share of the payload. The frames come out in order as the iterator is
/// driven.
///
/// # Errors
///
/// Those of [`fragment_frame`], before any frame is built.
pub fn vxlan_encap_fragments<'a>(
    outer: &Endpoints,
    vni: u32,
    frame: &'a [u8],
    mtu: usize,
    ip_id: u16,
    src_port: u16,
) -> Result<impl Iterator<Item = Bytes> + 'a, ParsePacketError> {
    let outer = *outer;
    fragment_frames(frame, mtu, ip_id, VXLAN_ENCAP_LEN, move |buf, inner_len| {
        write_vxlan_headers(buf, &outer, vni, inner_len, src_port);
    })
}

/// The fragments of `frame` as new frames, each behind `head_len` bytes
/// that `head` writes given the fragment frame's length: what
/// [`fragment_frame`] and [`vxlan_encap_fragments`] share.
fn fragment_frames<'a>(
    frame: &'a [u8],
    mtu: usize,
    ip_id: u16,
    head_len: usize,
    head: impl Fn(&mut BytesMut, usize) + 'a,
) -> Result<impl Iterator<Item = Bytes> + 'a, ParsePacketError> {
    let (eth, rest) = EthernetHeader::parse(frame)?;
    let (mut ip, rest) = Ipv4Header::parse(rest)?;
    ip.id = ip_id;
    let payload = &rest[..ip.payload_len().min(rest.len())];
    Ok(
        fragment_ranges(&ip, payload.len(), mtu)?.map(move |(fh, range)| {
            let len = ETHERNET_HEADER_LEN + fh.total_len as usize;
            let mut buf = BytesMut::with_capacity(head_len + len);
            head(&mut buf, len);
            eth.write(&mut buf);
            fh.write(&mut buf);
            buf.put_slice(&payload[range]);
            buf.freeze()
        }),
    )
}

/// Bytes [`vxlan_encap`] puts in front of the inner frame.
const VXLAN_ENCAP_LEN: usize =
    ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + VXLAN_HEADER_LEN;

/// Encapsulates a full inner frame in VXLAN/UDP/IPv4/Ethernet using outer
/// endpoints `outer` and network id `vni` — the tunnel the NIC's
/// decapsulation offload strips in § 8.2.2.
pub fn vxlan_encap(outer: &Endpoints, vni: u32, inner_frame: &[u8], src_port: u16) -> Bytes {
    let mut buf = BytesMut::with_capacity(VXLAN_ENCAP_LEN + inner_frame.len());
    write_vxlan_headers(&mut buf, outer, vni, inner_frame.len(), src_port);
    buf.put_slice(inner_frame);
    buf.freeze()
}

/// The outer Ethernet/IPv4/UDP/VXLAN headers of a tunnel carrying an
/// `inner_len`-byte frame.
fn write_vxlan_headers(
    buf: &mut BytesMut,
    outer: &Endpoints,
    vni: u32,
    inner_len: usize,
    src_port: u16,
) {
    let vx = VxlanHeader::new(vni);
    let udp_payload = VXLAN_HEADER_LEN + inner_len;
    let udp = UdpHeader::new(src_port, VXLAN_UDP_PORT, udp_payload);
    let ip = Ipv4Header::simple(
        outer.src_ip,
        outer.dst_ip,
        IpProto::Udp,
        UDP_HEADER_LEN + udp_payload,
    );
    let eth = EthernetHeader {
        dst: outer.dst_mac,
        src: outer.src_mac,
        ethertype: EtherType::Ipv4,
    };
    eth.write(buf);
    ip.write(buf);
    udp.write(buf);
    vx.write(buf);
}

/// Strips a VXLAN tunnel, returning `(vni, inner frame)`. The inner frame
/// is a view of `frame` — the tunnel headers are skipped, not removed.
///
/// # Errors
///
/// Fails when the frame is not a well-formed VXLAN-over-UDP packet.
pub fn vxlan_decap(frame: &Bytes) -> Result<(u32, Bytes), ParsePacketError> {
    let (_, rest) = EthernetHeader::parse(frame)?;
    let (ip, rest) = Ipv4Header::parse(rest)?;
    let (udp, rest) = UdpHeader::parse(&rest[..ip.payload_len().min(rest.len())])?;
    if udp.dst_port != VXLAN_UDP_PORT {
        return Err(ParsePacketError::InvalidField {
            layer: "vxlan",
            field: "udp_dst_port",
            value: udp.dst_port as u64,
        });
    }
    let (vx, inner) = VxlanHeader::parse(rest)?;
    Ok((vx.vni, frame.slice_ref(inner)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn udp_frame_round_trip() {
        let ep = Endpoints::sim(1, 2);
        let frame = build_udp_frame(&ep, 1000, 2000, b"ping");
        assert_eq!(
            frame.len(),
            ETHERNET_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN + 4
        );
        let parsed = ParsedFrame::parse(&frame).unwrap();
        assert_eq!(parsed.eth.src, ep.src_mac);
        let ip = parsed.ip.unwrap();
        assert_eq!(ip.src, ep.src_ip);
        match parsed.l4 {
            L4::Udp(u) => {
                assert_eq!(u.dst_port, 2000);
                assert!(u.verify_checksum(ip.src, ip.dst, &parsed.payload));
            }
            other => panic!("expected udp, got {other:?}"),
        }
        assert_eq!(parsed.payload.as_ref(), b"ping");
    }

    #[test]
    fn tcp_frame_round_trip() {
        let ep = Endpoints::sim(3, 4);
        let frame = build_tcp_frame(&ep, 40000, 5201, 777, &[9u8; 100]);
        let parsed = ParsedFrame::parse(&frame).unwrap();
        match parsed.l4 {
            L4::Tcp(t) => assert_eq!(t.seq, 777),
            other => panic!("expected tcp, got {other:?}"),
        }
        let key = parse_headers(&frame).unwrap().flow_key().unwrap();
        assert_eq!(key.dst_port, 5201);
        assert_eq!(key.proto, 6);
    }

    #[test]
    fn fragment_and_reassemble_frames() {
        use crate::ipv4::{Reassembler, ReassemblyResult};
        let ep = Endpoints::sim(1, 2);
        let payload: Vec<u8> = (0..4000u32).map(|i| i as u8).collect();
        let frame = build_udp_frame(&ep, 10, 20, &payload);
        let frags = fragment_frame(&frame, 1500, 99).unwrap();
        assert!(frags.len() > 1);
        for f in &frags {
            assert!(f.len() <= ETHERNET_HEADER_LEN + 1500);
        }
        // Non-first fragments must parse with L4::Raw (ports unavailable).
        let second = ParsedFrame::parse(&frags[1]).unwrap();
        assert!(matches!(second.l4, L4::Raw));
        assert_eq!(
            parse_headers(&frags[1])
                .unwrap()
                .flow_key()
                .unwrap()
                .src_port,
            0
        );

        let mut r = Reassembler::new(4);
        let mut out = None;
        for f in &frags {
            let p = ParsedFrame::parse(f).unwrap();
            let ip = p.ip.unwrap();
            if let ReassemblyResult::Complete { payload, .. } = r.push(&ip, &p.payload) {
                out = Some(payload.to_vec());
            }
        }
        let full = out.expect("reassembly must complete");
        // The reassembled IP payload = UDP header + original payload.
        let (udp, data) = UdpHeader::parse(&full).unwrap();
        assert_eq!(udp.dst_port, 20);
        assert_eq!(data, payload.as_slice());
    }

    /// Sets the don't-fragment bit of a built frame, re-fixing the header
    /// checksum.
    fn with_df(frame: &Bytes) -> Bytes {
        let (eth, rest) = EthernetHeader::parse(frame).unwrap();
        let (mut ip, payload) = Ipv4Header::parse(rest).unwrap();
        ip.dont_fragment = true;
        let mut buf = BytesMut::with_capacity(frame.len());
        eth.write(&mut buf);
        ip.write(&mut buf);
        buf.put_slice(payload);
        buf.freeze()
    }

    #[test]
    fn fragment_frame_refuses_df_instead_of_panicking() {
        let frame = with_df(&build_udp_frame(
            &Endpoints::sim(1, 2),
            10,
            20,
            &[1u8; 3000],
        ));
        assert_eq!(
            fragment_frame(&frame, 1500, 1),
            Err(ParsePacketError::InvalidField {
                layer: "ipv4",
                field: "dont_fragment",
                value: 1,
            })
        );
        // DF only matters when the frame does not fit.
        let frags = fragment_frame(&frame, 4000, 1).unwrap();
        assert_eq!(frags.len(), 1);
        assert!(
            ParsedFrame::parse(&frags[0])
                .unwrap()
                .ip
                .unwrap()
                .dont_fragment
        );
    }

    #[test]
    fn fragment_frame_refuses_an_mtu_without_room_for_payload() {
        let frame = build_udp_frame(&Endpoints::sim(1, 2), 10, 20, &[1u8; 100]);
        for mtu in [0, 19, 20, 27] {
            assert_eq!(
                fragment_frame(&frame, mtu, 1),
                Err(ParsePacketError::InvalidField {
                    layer: "ipv4",
                    field: "mtu",
                    value: mtu as u64,
                })
            );
        }
        // 28 carries the minimum 8 payload bytes per fragment.
        let frags = fragment_frame(&frame, 28, 1).unwrap();
        assert_eq!(frags.len(), (8 + 100usize).div_ceil(8));
    }

    #[test]
    fn vxlan_encap_decap() {
        let inner_ep = Endpoints::sim(10, 11);
        let inner = build_udp_frame(&inner_ep, 1, 2, b"inner");
        let outer_ep = Endpoints::sim(100, 101);
        let tunneled = vxlan_encap(&outer_ep, 42, &inner, 55555);
        let (vni, decapped) = vxlan_decap(&tunneled).unwrap();
        assert_eq!(vni, 42);
        assert_eq!(decapped.as_ref(), inner.as_ref());
    }

    #[test]
    fn fused_fragment_encap_equals_the_composed_path() {
        let inner = build_tcp_frame(&Endpoints::sim(1, 2), 40_000, 5201, 3, &[0xa5; 1446]);
        let outer = Endpoints::sim(100, 101);
        let fused: Vec<Bytes> = vxlan_encap_fragments(&outer, 42, &inner, 1450, 9, 30_000)
            .unwrap()
            .collect();
        let composed: Vec<Bytes> = fragment_frame(&inner, 1450, 9)
            .unwrap()
            .iter()
            .map(|f| vxlan_encap(&outer, 42, f, 30_000))
            .collect();
        assert_eq!(fused.len(), 2);
        assert_eq!(fused, composed);
        // Outer headers, inner Ethernet, IP, and 1424 = (1450 - 20) & !7.
        assert_eq!(fused[0].len(), 50 + 14 + 20 + 1424);
    }

    #[test]
    fn vxlan_decap_rejects_plain_udp() {
        let ep = Endpoints::sim(1, 2);
        let frame = build_udp_frame(&ep, 1, 2, b"x");
        assert!(vxlan_decap(&frame).is_err());
    }

    #[test]
    fn non_ip_frame_parses_raw() {
        let eth = EthernetHeader {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Arp,
        };
        let mut buf = BytesMut::new();
        eth.write(&mut buf);
        buf.put_slice(&[0u8; 28]);
        let frame = buf.freeze();
        let parsed = ParsedFrame::parse(&frame).unwrap();
        assert!(parsed.ip.is_none());
        assert!(parse_headers(&frame).unwrap().flow_key().is_none());
    }
}
