//! Property-based tests for the packet codecs and algorithms: round-trips,
//! parser totality (no panics on arbitrary bytes), reassembly invariants
//! under arbitrary fragment orderings, and the whole-frame functions
//! (`ParsedFrame::parse`, `vxlan_decap`, `fragment_frame`,
//! `SimPacket::from_frame`) against a slice-level reference on well-formed
//! frames and their near misses, the borrowed `parse_headers` against the
//! `ParsedFrame::parse` that wraps it, the fused fragment-and-encapsulate writer
//! against the two functions it fuses, and the storage-recycling
//! `Reassembler` against a reference that allocates every datagram afresh.

use bytes::Bytes;
use proptest::prelude::*;

use fld_net::checksum::{checksum, Checksum};
use fld_net::coap::CoapMessage;
use fld_net::error::ParsePacketError;
use fld_net::ethernet::{EtherType, EthernetHeader, MacAddr, ETHERNET_HEADER_LEN};
use fld_net::frame::{
    build_tcp_frame, build_udp_frame, fragment_frame, parse_headers, vxlan_decap, vxlan_encap,
    vxlan_encap_fragments, Endpoints, ParsedFrame, L4,
};
use fld_net::ipv4::{
    fragment, IpProto, Ipv4Addr, Ipv4Header, Reassembler, ReassemblyResult, IPV4_HEADER_LEN,
};
use fld_net::roce::{Bth, BthOpcode, BTH_LEN};
use fld_net::tcp::TcpHeader;
use fld_net::udp::UdpHeader;
use fld_net::vxlan::{VxlanHeader, VXLAN_UDP_PORT};
use fld_net::FlowKey;
use fld_nic::packet::{PacketMeta, SimPacket};
use fld_sim::time::SimTime;

/// Appends one CoAP option (RFC 7252 § 3.1): the delta and length
/// nibbles, their 13 / 14 extensions, then the value.
fn coap_option(out: &mut Vec<u8>, delta: u16, value: &[u8]) {
    let form = |n: usize| match n {
        0..=12 => (n as u8, vec![]),
        13..=268 => (13, vec![(n - 13) as u8]),
        _ => (14, ((n - 269) as u16).to_be_bytes().to_vec()),
    };
    let ((d, d_ext), (l, l_ext)) = (form(delta as usize), form(value.len()));
    out.push(d << 4 | l);
    out.extend(d_ext);
    out.extend(l_ext);
    out.extend_from_slice(value);
}

/// Recomputes the header checksum of the IPv4 header behind the Ethernet
/// header, when `frame` is long enough to hold one.
fn fix_ipv4_checksum(frame: &mut [u8]) {
    if let Some(ip) = frame.get_mut(ETHERNET_HEADER_LEN..ETHERNET_HEADER_LEN + IPV4_HEADER_LEN) {
        ip[10..12].fill(0);
        let c = checksum(ip);
        ip[10..12].copy_from_slice(&c.to_be_bytes());
    }
}

/// `frame` with the IPv4 don't-fragment bit set — still well-formed.
fn with_df(frame: &Bytes) -> Bytes {
    let mut data = frame.to_vec();
    if let Some(flags) = data.get_mut(ETHERNET_HEADER_LEN + 6) {
        *flags |= 0x40;
    }
    fix_ipv4_checksum(&mut data);
    Bytes::from(data)
}

/// A well-formed frame of one of the shapes the simulator carries.
fn well_formed(shape: u8, a: u16, b: u16, payload_len: usize, pick: usize) -> Bytes {
    let ep = Endpoints::sim(a as u32 + 1, b as u32 + 1);
    let outer = Endpoints::sim(100, 101);
    let payload: Vec<u8> = (0..payload_len).map(|i| (i * 13 + pick) as u8).collect();
    let one_fragment = || {
        // Pad so the datagram really fragments at the smallest MTU drawn.
        let big = [payload.as_slice(), &[0x77; 1600]].concat();
        let whole = if a.is_multiple_of(2) {
            build_udp_frame(&ep, a, b, &big)
        } else {
            build_tcp_frame(&ep, a, b, pick as u32, &big)
        };
        let frags = fragment_frame(&whole, 576 + b as usize % 900, a).expect("well-formed");
        frags[pick % frags.len()].clone()
    };
    match shape {
        0 => build_udp_frame(&ep, a, b, &payload),
        1 => build_tcp_frame(&ep, a, b, pick as u32, &payload),
        2 => one_fragment(),
        // The § 8.2.2 (c) shape: a pre-fragmented packet inside a tunnel
        // (VNI 0 included: it parses as untunnelled).
        3 => vxlan_encap(&outer, b as u32 % 3, &one_fragment(), a),
        4 => vxlan_encap(
            &outer,
            1 + pick as u32 % 0xff_ffff,
            &build_udp_frame(&ep, a, b, &payload),
            a,
        ),
        // UDP to the tunnel port whose payload need not be a VXLAN header.
        5 => build_udp_frame(&ep, a, VXLAN_UDP_PORT, &payload),
        _ => {
            let mut buf = bytes::BytesMut::new();
            EthernetHeader {
                dst: ep.dst_mac,
                src: ep.src_mac,
                ethertype: EtherType::Arp,
            }
            .write(&mut buf);
            buf.extend_from_slice(&payload);
            buf.freeze()
        }
    }
}

/// A near miss of `frame`: one byte flipped (`kind` 1, biased towards the
/// headers when `in_headers`) or the tail cut off (`kind` 2), with the
/// IPv4 header checksum recomputed so the damage reaches the checks
/// behind it. `kind` 0 is the frame itself.
fn near_miss(frame: &Bytes, (kind, pos, xor, in_headers): (u8, usize, u8, bool)) -> Bytes {
    let mut data = frame.to_vec();
    match kind {
        1 if !data.is_empty() => {
            let span = if in_headers {
                data.len().min(72)
            } else {
                data.len()
            };
            data[pos % span] ^= xor;
        }
        2 => data.truncate(pos % (data.len() + 1)),
        _ => {}
    }
    fix_ipv4_checksum(&mut data);
    Bytes::from(data)
}

/// Whether `view` is a window on `frame`'s own bytes rather than a copy.
fn is_view_of(view: &Bytes, frame: &Bytes) -> bool {
    let (v, f) = (view.as_ptr() as usize, frame.as_ptr() as usize);
    view.is_empty() || (v >= f && v + view.len() <= f + frame.len())
}

type RefParsed<'a> = (EthernetHeader, Option<Ipv4Header>, L4, &'a [u8]);

/// `ParsedFrame::parse`, spelled with the per-layer slice parsers.
fn ref_parse(data: &[u8]) -> Result<RefParsed<'_>, ParsePacketError> {
    let (eth, rest) = EthernetHeader::parse(data)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Ok((eth, None, L4::Raw, rest));
    }
    let (ip, rest) = Ipv4Header::parse(rest)?;
    let ip_payload = &rest[..ip.payload_len()];
    Ok(match ip.proto {
        _ if ip.is_fragment() => (eth, Some(ip), L4::Raw, ip_payload),
        IpProto::Udp => {
            let (udp, payload) = UdpHeader::parse(ip_payload)?;
            (eth, Some(ip), L4::Udp(udp), payload)
        }
        IpProto::Tcp => {
            let (tcp, payload) = TcpHeader::parse(ip_payload)?;
            (eth, Some(ip), L4::Tcp(tcp), payload)
        }
        _ => (eth, Some(ip), L4::Raw, ip_payload),
    })
}

/// `vxlan_decap`, spelled with the per-layer slice parsers.
fn ref_decap(data: &[u8]) -> Result<(u32, &[u8]), ParsePacketError> {
    let (_, rest) = EthernetHeader::parse(data)?;
    let (ip, rest) = Ipv4Header::parse(rest)?;
    let (udp, rest) = UdpHeader::parse(&rest[..ip.payload_len()])?;
    if udp.dst_port != VXLAN_UDP_PORT {
        return Err(ParsePacketError::InvalidField {
            layer: "vxlan",
            field: "udp_dst_port",
            value: udp.dst_port as u64,
        });
    }
    let (vx, inner) = VxlanHeader::parse(rest)?;
    Ok((vx.vni, inner))
}

/// `fragment_frame`, spelled with the slice parsers and `ipv4::fragment`,
/// refusing the inputs `fragment` would panic on.
fn ref_fragment(data: &[u8], mtu: usize, id: u16) -> Result<Vec<Vec<u8>>, ParsePacketError> {
    let (eth, rest) = EthernetHeader::parse(data)?;
    let (mut ip, rest) = Ipv4Header::parse(rest)?;
    ip.id = id;
    let payload = &rest[..ip.payload_len()];
    let refused = |field, value| ParsePacketError::InvalidField {
        layer: "ipv4",
        field,
        value,
    };
    if IPV4_HEADER_LEN + payload.len() > mtu.max(IPV4_HEADER_LEN) {
        if ip.dont_fragment {
            return Err(refused("dont_fragment", 1));
        }
        if mtu < 28 {
            return Err(refused("mtu", mtu as u64));
        }
    }
    Ok(fragment(&ip, Bytes::copy_from_slice(payload), mtu)
        .into_iter()
        .map(|(fh, fp)| {
            let mut buf = bytes::BytesMut::new();
            eth.write(&mut buf);
            fh.write(&mut buf);
            buf.extend_from_slice(&fp);
            buf.to_vec()
        })
        .collect())
}

/// What one `Reassembler::push` returned, owned: `None` for
/// `NotFragment`, `Some(None)` for `Pending`, else the completed
/// datagram's header, payload and fragment count.
type Pushed = Option<Option<(Ipv4Header, Vec<u8>, usize)>>;

/// One datagram of [`FreshReassembler`]: every fragment's span as it
/// arrived, and the bytes they wrote.
#[derive(Default)]
struct FreshDatagram {
    bytes: Vec<u8>,
    spans: Vec<(usize, usize)>,
    total: Option<usize>,
    first: Option<Ipv4Header>,
    fragments: usize,
}

impl FreshDatagram {
    /// Whether the spans, merged from scratch, are one run from 0 that
    /// reaches the total length.
    fn complete(&self) -> bool {
        let Some(total) = self.total else {
            return false;
        };
        let mut spans = self.spans.clone();
        spans.sort_unstable();
        let mut reach = 0;
        for (start, end) in spans {
            if start > reach {
                return false;
            }
            reach = reach.max(end);
        }
        reach >= total
    }
}

/// The reassembly reference: a FIFO table of at most `capacity` datagrams,
/// each allocated afresh and dropped when done.
struct FreshReassembler {
    capacity: usize,
    table: Vec<(u16, FreshDatagram)>,
    evictions: u64,
}

impl FreshReassembler {
    fn new(capacity: usize) -> Self {
        FreshReassembler {
            capacity,
            table: Vec::new(),
            evictions: 0,
        }
    }

    /// `Reassembler::push` for fragments that differ only in their id.
    fn push(&mut self, hdr: &Ipv4Header, data: &[u8]) -> Pushed {
        if !hdr.is_fragment() {
            return None;
        }
        let idx = match self.table.iter().position(|(id, _)| *id == hdr.id) {
            Some(idx) => idx,
            None => {
                if self.table.len() == self.capacity {
                    self.table.remove(0);
                    self.evictions += 1;
                }
                self.table.push((hdr.id, FreshDatagram::default()));
                self.table.len() - 1
            }
        };
        let d = &mut self.table[idx].1;
        let start = hdr.frag_offset as usize * 8;
        let end = start + data.len();
        if d.bytes.len() < end {
            d.bytes.resize(end, 0);
        }
        d.bytes[start..end].copy_from_slice(data);
        d.spans.push((start, end));
        d.fragments += 1;
        if start == 0 {
            d.first = Some(*hdr);
        }
        if !hdr.more_fragments {
            d.total = Some(end);
        }
        if !d.complete() {
            return Some(None);
        }
        let (_, d) = self.table.remove(idx);
        let total = d.total.expect("complete");
        let mut header = d.first.expect("a run from 0 has a first fragment");
        (header.more_fragments, header.frag_offset) = (false, 0);
        header.total_len = (IPV4_HEADER_LEN + total) as u16;
        Some(Some((header, d.bytes[..total].to_vec(), d.fragments)))
    }
}

/// Where `view` lies in `frame`, as a byte range (`0..0` when empty).
fn span(view: &[u8], frame: &[u8]) -> std::ops::Range<usize> {
    if view.is_empty() {
        return 0..0;
    }
    let start = view.as_ptr() as usize - frame.as_ptr() as usize;
    assert!(start + view.len() <= frame.len(), "not a view of the frame");
    start..start + view.len()
}

/// The borrowed parse and the one behind a handle agree, error for
/// error: same headers and the same payload range of `frame`; and the
/// metadata `SimPacket::from_frame` derives from the borrowed parse is
/// the slice reference's.
fn borrowed_parse_agrees(frame: &Bytes) {
    match (parse_headers(frame), ParsedFrame::parse(frame)) {
        (Ok(h), Ok(p)) => {
            assert_eq!((h.eth, h.ip, &h.l4), (p.eth, p.ip, &p.l4));
            assert_eq!(span(h.payload, frame), span(&p.payload, frame));
        }
        (got, want) => assert_eq!(got.err(), want.err()),
    }
    let pkt = SimPacket::from_frame(7, frame.clone(), SimTime::ZERO);
    assert_eq!(pkt.meta, ref_meta(frame));
}

/// `SimPacket::from_frame`'s metadata, from the references above.
fn ref_meta(data: &[u8]) -> PacketMeta {
    let Ok((_, ip, l4, _)) = ref_parse(data) else {
        return PacketMeta::default();
    };
    let flow = match (&ip, &l4) {
        (None, _) => FlowKey::default(),
        (Some(ip), L4::Udp(u)) => FlowKey::from_udp(ip, u),
        (Some(ip), L4::Tcp(t)) => FlowKey::from_tcp(ip, t),
        (Some(ip), L4::Raw) => FlowKey::l3_only(ip),
    };
    let tunnelled = matches!(&l4, L4::Udp(u) if u.dst_port == VXLAN_UDP_PORT);
    PacketMeta {
        flow,
        is_fragment: ip.is_some_and(|ip| ip.is_fragment()),
        first_fragment: ip.is_some_and(|ip| ip.is_fragment() && ip.frag_offset == 0),
        vni: ref_decap(data)
            .ok()
            .filter(|_| tunnelled)
            .and_then(|(vni, _)| std::num::NonZeroU32::new(vni)),
        context_id: 0,
        checksum_ok: true,
    }
}

proptest! {
    /// The Internet checksum of any buffer with its own checksum inserted
    /// verifies to zero.
    #[test]
    fn checksum_self_verifies(data in proptest::collection::vec(any::<u8>(), 2..256)) {
        let mut buf = data.clone();
        buf[0] = 0;
        buf[1] = 0;
        let c = checksum(&buf);
        buf[0] = (c >> 8) as u8;
        buf[1] = c as u8;
        prop_assert_eq!(checksum(&buf), 0);
    }

    /// Incremental checksum equals one-shot for arbitrary split points.
    #[test]
    fn checksum_incremental(data in proptest::collection::vec(any::<u8>(), 0..512),
                            splits in proptest::collection::vec(any::<u16>(), 0..4)) {
        let mut inc = Checksum::new();
        let mut offsets: Vec<usize> =
            splits.iter().map(|s| *s as usize % (data.len() + 1)).collect();
        offsets.sort_unstable();
        let mut prev = 0;
        for off in offsets {
            inc.update(&data[prev..off]);
            prev = off;
        }
        inc.update(&data[prev..]);
        prop_assert_eq!(inc.finish(), checksum(&data));
    }

    /// Ethernet headers round-trip for arbitrary field values.
    #[test]
    fn ethernet_round_trip(dst: [u8; 6], src: [u8; 6], ethertype: u16) {
        let hdr = EthernetHeader {
            dst: MacAddr(dst),
            src: MacAddr(src),
            ethertype: EtherType::from(ethertype),
        };
        let mut buf = bytes::BytesMut::new();
        hdr.write(&mut buf);
        let (parsed, rest) = EthernetHeader::parse(&buf).unwrap();
        prop_assert_eq!(parsed, hdr);
        prop_assert!(rest.is_empty());
    }

    /// IPv4 headers round-trip for arbitrary valid field values.
    #[test]
    fn ipv4_round_trip(
        src: u32, dst: u32, id: u16, ttl: u8, proto: u8, dscp: u8,
        frag_offset in 0u16..8192, mf: bool, df: bool, payload_len in 0usize..128,
    ) {
        let hdr = Ipv4Header {
            dscp_ecn: dscp,
            total_len: (20 + payload_len) as u16,
            id,
            dont_fragment: df,
            more_fragments: mf,
            frag_offset,
            ttl,
            proto: IpProto::from(proto),
            src: Ipv4Addr::from(src),
            dst: Ipv4Addr::from(dst),
        };
        let mut buf = bytes::BytesMut::new();
        hdr.write(&mut buf);
        buf.resize(20 + payload_len, 0xEE);
        let (parsed, _) = Ipv4Header::parse(&buf).unwrap();
        prop_assert_eq!(parsed, hdr);
    }

    /// UDP and TCP headers round-trip.
    #[test]
    fn l4_round_trips(sp: u16, dp: u16, len in 0u16..1400, seq: u32, ack: u32) {
        let mut buf = bytes::BytesMut::new();
        let udp = UdpHeader { src_port: sp, dst_port: dp, length: 8 + len, checksum: 0xabcd };
        udp.write(&mut buf);
        prop_assert_eq!(UdpHeader::parse(&buf).unwrap().0, udp);

        let mut buf = bytes::BytesMut::new();
        let mut tcp = TcpHeader::data(sp, dp, seq);
        tcp.ack = ack;
        tcp.write(&mut buf);
        prop_assert_eq!(TcpHeader::parse(&buf).unwrap().0, tcp);
    }

    /// BTH headers round-trip over the opcode space the model uses.
    #[test]
    fn bth_round_trip(qp in 0u32..(1 << 24), psn in 0u32..(1 << 24), ack: bool, op in 0usize..9) {
        let opcode = [
            BthOpcode::SendFirst, BthOpcode::SendMiddle, BthOpcode::SendLast,
            BthOpcode::SendOnly, BthOpcode::Ack, BthOpcode::WriteFirst,
            BthOpcode::WriteMiddle, BthOpcode::WriteLast, BthOpcode::WriteOnly,
        ][op];
        let hdr = Bth::new(opcode, qp, psn, ack);
        let mut buf = bytes::BytesMut::new();
        hdr.write(&mut buf);
        prop_assert_eq!(Bth::parse(&buf).unwrap().0, hdr);
    }

    /// The BTH parser never panics on arbitrary bytes (the first byte is
    /// a known opcode in most cases, so the `Ok` path is exercised). A
    /// header that parses consumes exactly its 12 bytes and holds every
    /// field the writer writes: re-encoding it reproduces the input but
    /// for the bytes the writer zeroes.
    #[test]
    fn bth_parse_is_total(data in proptest::collection::vec(any::<u8>(), 0..32), op in 0usize..12) {
        let mut data = data;
        if let (Some(first), Some(opcode)) = (data.first_mut(), BthOpcode::from_value(op as u8)) {
            *first = opcode.value();
        }
        if let Ok((hdr, rest)) = Bth::parse(&data) {
            prop_assert_eq!(rest, &data[BTH_LEN..]);
            let mut buf = bytes::BytesMut::new();
            hdr.write(&mut buf);
            let mut expected = data[..BTH_LEN].to_vec();
            for reserved in [1, 4] {
                expected[reserved] = 0;
            }
            expected[8] &= 0x80; // the A bit; the rest of byte 8 is reserved
            prop_assert_eq!(&buf[..], &expected[..]);
        }
    }

    /// CoAP messages round-trip for arbitrary tokens, payloads and
    /// well-formed option lists, whose values may hold `0xff` and whose
    /// deltas and lengths take every header form.
    #[test]
    fn coap_round_trip(
        mid: u16,
        token in proptest::collection::vec(any::<u8>(), 0..=8),
        options in proptest::collection::vec(
            (0u16..1000, prop_oneof![
                proptest::collection::vec(any::<u8>(), 0..20),
                proptest::collection::vec(any::<u8>(), 260..300),
            ]),
            0..5,
        ),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
    ) {
        let mut msg = CoapMessage::post(mid, &token, payload);
        for (delta, value) in &options {
            coap_option(&mut msg.options, *delta, value);
        }
        let mut buf = bytes::BytesMut::new();
        msg.write(&mut buf);
        let parsed = CoapMessage::parse(&buf).unwrap();
        prop_assert_eq!(parsed, msg);
    }

    /// The CoAP parser never panics on arbitrary bytes; with the version
    /// bits set most inputs reach the option walk.
    #[test]
    fn coap_parse_is_total(data in proptest::collection::vec(any::<u8>(), 0..64), v1: bool) {
        let mut data = data;
        if let (true, Some(first)) = (v1, data.first_mut()) {
            *first = 0x40 | (*first & 0x37);
        }
        let _ = CoapMessage::parse(&data);
    }

    /// The frame parsers never panic on arbitrary bytes, and the borrowed
    /// one agrees with the one behind a handle there too.
    #[test]
    fn parser_totality(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        borrowed_parse_agrees(&Bytes::from(data));
    }

    /// On well-formed frames of every shape the simulator carries, and on
    /// their single-byte mutations and truncations, the whole-frame
    /// functions never panic, agree byte for byte (and error for error)
    /// with the slice-level reference, and hand out views of the input
    /// rather than copies; the borrowed `parse_headers` agrees with them.
    #[test]
    fn frame_functions_match_the_slice_reference(
        shape in 0u8..7, df: bool, a: u16, b: u16, payload_len in 0usize..1800, pick: usize,
        mtu in prop_oneof![0usize..64, 0usize..2000],
        damage in proptest::collection::vec((1u8..3, any::<usize>(), 1u8..=255, any::<bool>()), 8..32),
    ) {
        let original = well_formed(shape, a, b, payload_len, pick);
        let original = if df { with_df(&original) } else { original };
        // The undamaged frame always goes first.
        for d in std::iter::once((0, 0, 1, false)).chain(damage) {
            let frame = near_miss(&original, d);

            match (ParsedFrame::parse(&frame), ref_parse(&frame)) {
                (Ok(p), Ok((eth, ip, l4, payload))) => {
                    prop_assert_eq!((p.eth, p.ip, &p.l4), (eth, ip, &l4));
                    prop_assert_eq!(p.payload.as_ref(), payload);
                    prop_assert!(is_view_of(&p.payload, &frame));
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }
            borrowed_parse_agrees(&frame);

            match (vxlan_decap(&frame), ref_decap(&frame)) {
                (Ok((vni, inner)), Ok((ref_vni, ref_inner))) => {
                    prop_assert_eq!(vni, ref_vni);
                    prop_assert_eq!(inner.as_ref(), ref_inner);
                    prop_assert!(is_view_of(&inner, &frame));
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }

            match (fragment_frame(&frame, mtu, b), ref_fragment(&frame, mtu, b)) {
                (Ok(frags), Ok(ref_frags)) => {
                    prop_assert_eq!(frags.len(), ref_frags.len());
                    for (f, r) in frags.iter().zip(&ref_frags) {
                        prop_assert_eq!(f.as_ref(), r.as_slice());
                    }
                }
                (got, want) => prop_assert_eq!(got.err(), want.err()),
            }

            let pkt = SimPacket::from_frame(7, frame.clone(), SimTime::ZERO);
            prop_assert_eq!(pkt.meta, ref_meta(&frame));
            prop_assert_eq!(pkt.len as usize, frame.len());
            let held = pkt.bytes.as_deref().expect("from_frame attaches the bytes");
            prop_assert_eq!((held.as_ptr(), held.len()), (frame.as_ptr(), frame.len()));
        }
    }

    /// The fused fragment-and-encapsulate writer is `fragment_frame`
    /// followed by `vxlan_encap` of each fragment, byte for byte and error
    /// for error: on UDP and TCP frames of any payload length, with or
    /// without DF, at any MTU and id, and on their near misses.
    #[test]
    fn fused_fragment_encap_matches_fragment_then_encap(
        tcp: bool, df: bool, payload_len in 0usize..4000, id: u16, port: u16,
        mtu in prop_oneof![0usize..64, 0usize..2000, 1400usize..1500],
        vni in 0u32..(1 << 24),
        damage in proptest::collection::vec((1u8..3, any::<usize>(), 1u8..=255, any::<bool>()), 0..4),
    ) {
        let ep = Endpoints::sim(1, 2);
        let outer = Endpoints::sim(100, 101);
        let payload: Vec<u8> = (0..payload_len).map(|i| (i * 7) as u8).collect();
        let original = if tcp {
            build_tcp_frame(&ep, port, 5201, id.into(), &payload)
        } else {
            build_udp_frame(&ep, port, 5201, &payload)
        };
        let original = if df { with_df(&original) } else { original };
        for d in std::iter::once((0, 0, 1, false)).chain(damage) {
            let frame = near_miss(&original, d);
            let fused = vxlan_encap_fragments(&outer, vni, &frame, mtu, id, port)
                .map(|frames| frames.collect::<Vec<_>>());
            let composed = fragment_frame(&frame, mtu, id).map(|frags| {
                frags.iter().map(|f| vxlan_encap(&outer, vni, f, port)).collect::<Vec<_>>()
            });
            prop_assert_eq!(fused, composed);
        }
    }

    /// Fragmentation partitions the payload exactly: offsets chain, sizes
    /// sum, only the last fragment clears MF.
    #[test]
    fn fragmentation_partitions(payload_len in 1usize..16_000, mtu in 68usize..2000) {
        let payload: Vec<u8> = (0..payload_len).map(|i| i as u8).collect();
        let hdr = Ipv4Header::simple(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            IpProto::Udp,
            payload_len,
        );
        let frags = fragment(&hdr, Bytes::from(payload.clone()), mtu);
        let mut expect_offset = 0usize;
        for (i, (fh, fp)) in frags.iter().enumerate() {
            prop_assert_eq!(fh.frag_offset as usize * 8, expect_offset);
            prop_assert!(fh.total_len as usize <= mtu.max(20 + fp.len()));
            if i + 1 < frags.len() {
                prop_assert!(fh.more_fragments);
                prop_assert_eq!(fp.len() % 8, 0);
            } else {
                prop_assert!(!fh.more_fragments);
            }
            expect_offset += fp.len();
        }
        prop_assert_eq!(expect_offset, payload_len);
    }

    /// Reassembly recovers the original payload under any arrival order.
    #[test]
    fn reassembly_order_independent(
        payload_len in 100usize..8000,
        mtu in 200usize..1500,
        order_seed: u64,
    ) {
        let payload: Vec<u8> = (0..payload_len).map(|i| (i * 31) as u8).collect();
        let mut hdr = Ipv4Header::simple(
            Ipv4Addr::new(9, 9, 9, 9),
            Ipv4Addr::new(8, 8, 8, 8),
            IpProto::Udp,
            payload_len,
        );
        hdr.id = 0x4242;
        let mut frags = fragment(&hdr, Bytes::from(payload.clone()), mtu);
        // Deterministic shuffle from the seed.
        let mut s = order_seed | 1;
        for i in (1..frags.len()).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            frags.swap(i, (s as usize) % (i + 1));
        }
        let mut r = Reassembler::new(4);
        let mut out = None;
        for (fh, fp) in &frags {
            if let ReassemblyResult::Complete { payload, .. } = r.push(fh, fp) {
                out = Some(payload.to_vec());
            }
        }
        if frags.len() == 1 {
            // A single "fragment" is not a fragment at all.
            prop_assert!(out.is_none());
        } else {
            let done = out.expect("must complete");
            prop_assert_eq!(done, payload);
        }
    }

    /// One long-lived reassembler, whose completed datagrams' storage the
    /// next datagram reuses, behaves exactly like a reference that
    /// allocates every datagram afresh, under arbitrary interleavings of
    /// four datagrams at capacity 2: duplicates, overlaps, reordering,
    /// stray fragments and evictions. Every result and every count agrees
    /// after every push.
    #[test]
    fn a_recycling_reassembler_matches_a_fresh_allocation_reference(
        ops in proptest::collection::vec(prop_oneof![
            // A piece of a well-formed 40-byte datagram: 16 + 16 + 8.
            (0u16..4, 0usize..3, any::<u8>()).prop_map(|(id, piece, fill)| {
                let (off8, len) = [(0, 16), (2, 16), (4, 8)][piece];
                (id, off8, len, piece < 2, fill)
            }),
            // Anything at all.
            (0u16..4, 0u16..6, 0usize..48, any::<bool>(), any::<u8>()),
        ], 1..160),
    ) {
        let mut r = Reassembler::new(2);
        let mut fresh = FreshReassembler::new(2);
        for (id, off8, len, mf, fill) in ops {
            let mut hdr = Ipv4Header::simple(
                Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), IpProto::Udp, len,
            );
            (hdr.id, hdr.frag_offset, hdr.more_fragments, hdr.ttl) = (id, off8, mf, fill);
            let data: Vec<u8> = (0..len).map(|k| fill.wrapping_add(k as u8)).collect();
            let got = match r.push(&hdr, &data) {
                ReassemblyResult::NotFragment => None,
                ReassemblyResult::Pending => Some(None),
                ReassemblyResult::Complete { header, payload, fragments } => {
                    Some(Some((header, payload.to_vec(), fragments)))
                }
            };
            prop_assert_eq!(got, fresh.push(&hdr, &data));
            prop_assert_eq!(
                (r.evictions(), r.in_flight()),
                (fresh.evictions, fresh.table.len())
            );
        }
    }

    /// Frame-level fragmentation keeps every fragment parseable and within
    /// the MTU.
    #[test]
    fn frame_fragments_parse(payload_len in 0usize..6000, id: u16) {
        let ep = Endpoints::sim(1, 2);
        let payload = vec![0x5Au8; payload_len];
        let frame = build_udp_frame(&ep, 1111, 2222, &payload);
        let frags = fragment_frame(&frame, 1500, id).unwrap();
        for f in &frags {
            prop_assert!(f.len() <= 14 + 1500);
            let parsed = ParsedFrame::parse(f).unwrap();
            prop_assert!(parsed.ip.is_some());
        }
    }
}
