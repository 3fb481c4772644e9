//! IPv4 header handling, fragmentation and reassembly.
//!
//! IP fragmentation is the workload of the paper's inline defragmentation
//! accelerator (§ 7): fragments break NIC RSS and L4-checksum offloads, and
//! FlexDriver reassembles them *between* NIC offload stages.

use std::fmt;
use std::ops::Range;

use bytes::{BufMut, Bytes, BytesMut};

use crate::checksum::checksum;
use crate::error::ParsePacketError;

/// Length of a basic IPv4 header (no options).
pub const IPV4_HEADER_LEN: usize = 20;

/// An IPv4 address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// Creates an address from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// The raw octets.
    pub const fn octets(self) -> [u8; 4] {
        self.0
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl From<u32> for Ipv4Addr {
    fn from(v: u32) -> Self {
        Ipv4Addr(v.to_be_bytes())
    }
}

/// IP protocol numbers used by the models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IpProto {
    /// ICMP (1).
    Icmp,
    /// TCP (6).
    Tcp,
    /// UDP (17).
    Udp,
    /// Anything else.
    Other(u8),
}

impl IpProto {
    /// Numeric protocol value.
    pub fn value(self) -> u8 {
        match self {
            IpProto::Icmp => 1,
            IpProto::Tcp => 6,
            IpProto::Udp => 17,
            IpProto::Other(v) => v,
        }
    }
}

impl From<u8> for IpProto {
    fn from(v: u8) -> Self {
        match v {
            1 => IpProto::Icmp,
            6 => IpProto::Tcp,
            17 => IpProto::Udp,
            other => IpProto::Other(other),
        }
    }
}

/// An IPv4 header (options unsupported; IHL is always 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ipv4Header {
    /// Differentiated services byte.
    pub dscp_ecn: u8,
    /// Total length (header + payload).
    pub total_len: u16,
    /// Identification field (shared by all fragments of a datagram).
    pub id: u16,
    /// Don't-fragment flag.
    pub dont_fragment: bool,
    /// More-fragments flag.
    pub more_fragments: bool,
    /// Fragment offset in 8-byte units.
    pub frag_offset: u16,
    /// Time to live.
    pub ttl: u8,
    /// Payload protocol.
    pub proto: IpProto,
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
}

impl Ipv4Header {
    /// Creates a non-fragmented header with common defaults.
    pub fn simple(src: Ipv4Addr, dst: Ipv4Addr, proto: IpProto, payload_len: usize) -> Self {
        Ipv4Header {
            dscp_ecn: 0,
            total_len: (IPV4_HEADER_LEN + payload_len) as u16,
            id: 0,
            dont_fragment: false,
            more_fragments: false,
            frag_offset: 0,
            ttl: 64,
            proto,
            src,
            dst,
        }
    }

    /// Whether this packet is a fragment (first, middle or last).
    pub fn is_fragment(&self) -> bool {
        self.more_fragments || self.frag_offset != 0
    }

    /// Payload length implied by `total_len`.
    pub fn payload_len(&self) -> usize {
        (self.total_len as usize).saturating_sub(IPV4_HEADER_LEN)
    }

    /// Serializes the header (with a correct checksum) into `buf`: the
    /// checksum is taken over the finished header, then appended with it
    /// in one store.
    #[inline]
    pub fn write(&self, buf: &mut BytesMut) {
        let mut flags_frag = self.frag_offset & 0x1fff;
        if self.dont_fragment {
            flags_frag |= 0x4000;
        }
        if self.more_fragments {
            flags_frag |= 0x2000;
        }
        let mut h = [0u8; IPV4_HEADER_LEN];
        h[0] = 0x45; // version 4, IHL 5
        h[1] = self.dscp_ecn;
        h[2..4].copy_from_slice(&self.total_len.to_be_bytes());
        h[4..6].copy_from_slice(&self.id.to_be_bytes());
        h[6..8].copy_from_slice(&flags_frag.to_be_bytes());
        h[8] = self.ttl;
        h[9] = self.proto.value();
        // h[10..12], the checksum, is zero while it is computed.
        h[12..16].copy_from_slice(&self.src.0);
        h[16..20].copy_from_slice(&self.dst.0);
        let c = checksum(&h);
        h[10..12].copy_from_slice(&c.to_be_bytes());
        buf.put_slice(&h);
    }

    /// Parses a header, verifying version, IHL and checksum; returns the
    /// header and the remaining bytes (payload plus any trailing data).
    ///
    /// # Errors
    ///
    /// Returns an error when the buffer is truncated, the version is not 4,
    /// options are present (IHL ≠ 5), the total length is inconsistent, or
    /// the header checksum fails.
    pub fn parse(data: &[u8]) -> Result<(Ipv4Header, &[u8]), ParsePacketError> {
        if data.len() < IPV4_HEADER_LEN {
            return Err(ParsePacketError::Truncated {
                layer: "ipv4",
                needed: IPV4_HEADER_LEN,
                available: data.len(),
            });
        }
        let version = data[0] >> 4;
        if version != 4 {
            return Err(ParsePacketError::InvalidField {
                layer: "ipv4",
                field: "version",
                value: version as u64,
            });
        }
        let ihl = (data[0] & 0x0f) as usize;
        if ihl != 5 {
            return Err(ParsePacketError::InvalidField {
                layer: "ipv4",
                field: "ihl",
                value: ihl as u64,
            });
        }
        if checksum(&data[..IPV4_HEADER_LEN]) != 0 {
            return Err(ParsePacketError::BadChecksum { layer: "ipv4" });
        }
        let total_len = u16::from_be_bytes([data[2], data[3]]);
        if (total_len as usize) < IPV4_HEADER_LEN || (total_len as usize) > data.len() {
            return Err(ParsePacketError::InvalidField {
                layer: "ipv4",
                field: "total_len",
                value: total_len as u64,
            });
        }
        let flags_frag = u16::from_be_bytes([data[6], data[7]]);
        let hdr = Ipv4Header {
            dscp_ecn: data[1],
            total_len,
            id: u16::from_be_bytes([data[4], data[5]]),
            dont_fragment: flags_frag & 0x4000 != 0,
            more_fragments: flags_frag & 0x2000 != 0,
            frag_offset: flags_frag & 0x1fff,
            ttl: data[8],
            proto: data[9].into(),
            src: Ipv4Addr([data[12], data[13], data[14], data[15]]),
            dst: Ipv4Addr([data[16], data[17], data[18], data[19]]),
        };
        Ok((hdr, &data[IPV4_HEADER_LEN..]))
    }
}

/// Key identifying the datagram a fragment belongs to (RFC 791: src, dst,
/// protocol, identification).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FragmentKey {
    /// Source address.
    pub src: Ipv4Addr,
    /// Destination address.
    pub dst: Ipv4Addr,
    /// Protocol.
    pub proto: u8,
    /// IP identification.
    pub id: u16,
}

impl FragmentKey {
    /// Extracts the key from a header.
    pub fn from_header(h: &Ipv4Header) -> Self {
        FragmentKey {
            src: h.src,
            dst: h.dst,
            proto: h.proto.value(),
            id: h.id,
        }
    }
}

/// The fragments of a `payload_len`-byte IPv4 payload that fit within `mtu`
/// (which bounds the IP total length, i.e. header + payload per fragment):
/// each one's header and the range of the payload it carries. A payload
/// that fits comes back as one range under `hdr` itself. This is the one
/// chunking rule; [`fragment`] and the frame-level fragmenters in
/// [`crate::frame`] all read it.
///
/// When the payload does not fit, refuses a header with the
/// don't-fragment bit set (`InvalidField { field: "dont_fragment" }`) and
/// an `mtu` that cannot carry the 8 payload bytes a fragment must
/// (`InvalidField { field: "mtu" }`).
pub(crate) fn fragment_ranges(
    hdr: &Ipv4Header,
    payload_len: usize,
    mtu: usize,
) -> Result<FragmentRanges, ParsePacketError> {
    let max_payload = mtu.saturating_sub(IPV4_HEADER_LEN);
    let chunk = if payload_len <= max_payload {
        payload_len
    } else {
        let refused = |field, value| ParsePacketError::InvalidField {
            layer: "ipv4",
            field,
            value,
        };
        if hdr.dont_fragment {
            return Err(refused("dont_fragment", 1));
        }
        // Fragment payload sizes must be multiples of 8 except the last.
        let chunk = max_payload & !7;
        if chunk < 8 {
            return Err(refused("mtu", mtu as u64));
        }
        chunk
    };
    Ok(FragmentRanges {
        hdr: *hdr,
        payload_len,
        chunk,
        next: Some(0),
    })
}

/// Iterator over `(header, payload range)` pairs; see [`fragment_ranges`].
#[derive(Debug)]
pub(crate) struct FragmentRanges {
    hdr: Ipv4Header,
    payload_len: usize,
    chunk: usize,
    /// Start of the next fragment's range; `None` once the last is out.
    next: Option<usize>,
}

impl Iterator for FragmentRanges {
    type Item = (Ipv4Header, Range<usize>);

    fn next(&mut self) -> Option<Self::Item> {
        let start = self.next?;
        let end = (start + self.chunk).min(self.payload_len);
        self.next = (end < self.payload_len).then_some(end);
        let mut h = self.hdr;
        h.total_len = (IPV4_HEADER_LEN + end - start) as u16;
        h.frag_offset = self.hdr.frag_offset + (start / 8) as u16;
        h.more_fragments = end < self.payload_len || self.hdr.more_fragments;
        Some((h, start..end))
    }
}

/// Splits an IPv4 payload into fragments that fit within `mtu` (which bounds
/// the IP total length, i.e. header + payload per fragment).
///
/// Returns `(header, payload)` pairs ready to serialize; the payloads are
/// views of `payload`.
///
/// # Panics
///
/// Panics if `mtu` cannot carry at least 8 bytes of payload, or if the
/// header has the don't-fragment bit set while fragmentation is required
/// (where [`crate::frame::fragment_frame`] returns an error).
///
/// # Examples
///
/// ```
/// use fld_net::ipv4::{fragment, Ipv4Addr, Ipv4Header, IpProto};
/// use bytes::Bytes;
///
/// let hdr = Ipv4Header::simple(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2),
///                              IpProto::Udp, 3000);
/// let frags = fragment(&hdr, Bytes::from(vec![0u8; 3000]), 1500);
/// assert_eq!(frags.len(), 3);
/// assert!(frags[0].0.more_fragments);
/// assert!(!frags[2].0.more_fragments);
/// ```
pub fn fragment(hdr: &Ipv4Header, payload: Bytes, mtu: usize) -> Vec<(Ipv4Header, Bytes)> {
    match fragment_ranges(hdr, payload.len(), mtu) {
        Ok(ranges) => ranges.map(|(h, r)| (h, payload.slice(r))).collect(),
        Err(refused) => panic!("cannot fragment: {refused}"),
    }
}

/// State for one partially reassembled datagram.
#[derive(Debug)]
struct PartialDatagram {
    /// Received byte ranges `(start, end)` of the payload, kept sorted and
    /// coalesced.
    ranges: Vec<(usize, usize)>,
    /// Payload bytes gathered so far.
    buffer: Vec<u8>,
    /// Total payload length, known once the last fragment arrives.
    total_len: Option<usize>,
    /// Header of the first fragment, reused for the reassembled datagram.
    first_header: Option<Ipv4Header>,
    /// Number of fragments absorbed.
    fragments: usize,
}

impl PartialDatagram {
    fn new() -> Self {
        PartialDatagram {
            ranges: Vec::new(),
            buffer: Vec::new(),
            total_len: None,
            first_header: None,
            fragments: 0,
        }
    }

    /// Empties `self` for a new datagram, keeping both allocations. The
    /// buffer's length goes to zero, so every byte the next datagram does
    /// not write reads as zero, never as the previous datagram's.
    fn recycle(mut self) -> Self {
        self.ranges.clear();
        self.buffer.clear();
        self.total_len = None;
        self.first_header = None;
        self.fragments = 0;
        self
    }

    fn insert(&mut self, start: usize, data: &[u8]) {
        let end = start + data.len();
        if self.fragments == 0 {
            // Whichever fragment arrives first, a two-fragment datagram
            // (the common case) is at most this long: size the buffer for
            // it once instead of growing it under the second fragment.
            self.buffer.reserve(end.max(2 * data.len()));
        }
        if self.buffer.len() < end {
            self.buffer.resize(end, 0);
        }
        self.buffer[start..end].copy_from_slice(data);
        // `ranges` is sorted and coalesced: the ranges the new one
        // overlaps or touches are contiguous, `first..after`.
        let first = self.ranges.partition_point(|r| r.1 < start);
        let after = first + self.ranges[first..].partition_point(|r| r.0 <= end);
        if first == after {
            self.ranges.insert(first, (start, end));
        } else {
            self.ranges[first] = (
                start.min(self.ranges[first].0),
                end.max(self.ranges[after - 1].1),
            );
            self.ranges.drain(first + 1..after);
        }
        self.fragments += 1;
    }

    fn is_complete(&self) -> bool {
        match (self.total_len, self.ranges.as_slice()) {
            (Some(len), [(0, end)]) => *end >= len,
            _ => false,
        }
    }
}

/// Result of offering a fragment to the [`Reassembler`].
#[derive(Debug)]
pub enum ReassemblyResult<'a> {
    /// The packet was not a fragment; it is returned untouched.
    NotFragment,
    /// The fragment was absorbed; the datagram is still incomplete.
    Pending,
    /// Reassembly finished: a complete datagram (header + full payload).
    Complete {
        /// Header for the reassembled datagram (fragment fields cleared,
        /// `total_len` covering the whole payload).
        header: Ipv4Header,
        /// The reassembled payload, borrowed from the reassembler until
        /// its next `push`.
        payload: &'a [u8],
        /// Number of fragments combined.
        fragments: usize,
    },
}

/// An IPv4 reassembly engine, the functional core of the paper's IP
/// defragmentation accelerator.
///
/// The engine bounds its memory by `capacity` concurrent datagrams (the
/// hardware version stores them in BRAM/URAM); when full, the oldest entry
/// is evicted, mirroring a hardware replacement policy. Like the
/// hardware's table, its storage is reused: a completed datagram's buffer
/// stays in one spare slot (that is what [`ReassemblyResult::Complete`]
/// lends out) until the next new datagram takes it over.
///
/// # Examples
///
/// ```
/// use fld_net::ipv4::{fragment, Ipv4Addr, Ipv4Header, IpProto, Reassembler, ReassemblyResult};
/// use bytes::Bytes;
///
/// let payload: Vec<u8> = (0..3000u32).map(|i| i as u8).collect();
/// let mut hdr = Ipv4Header::simple(Ipv4Addr::new(1, 1, 1, 1), Ipv4Addr::new(2, 2, 2, 2),
///                                  IpProto::Udp, payload.len());
/// hdr.id = 7;
/// let mut r = Reassembler::new(64);
/// let mut done = None;
/// for (fh, fp) in fragment(&hdr, Bytes::from(payload.clone()), 1500) {
///     if let ReassemblyResult::Complete { payload, .. } = r.push(&fh, &fp) {
///         done = Some(payload.to_vec());
///     }
/// }
/// assert_eq!(done.unwrap(), payload);
/// ```
#[derive(Debug)]
pub struct Reassembler {
    capacity: usize,
    /// Insertion-ordered table: acts as both the lookup structure and the
    /// FIFO eviction order.
    table: Vec<(FragmentKey, PartialDatagram)>,
    /// The last completed datagram, whose allocations the next new one
    /// reuses.
    spare: PartialDatagram,
    evictions: u64,
}

impl Reassembler {
    /// Creates a reassembler holding at most `capacity` concurrent datagrams.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "capacity must be positive");
        Reassembler {
            capacity,
            table: Vec::new(),
            spare: PartialDatagram::new(),
            evictions: 0,
        }
    }

    /// Number of datagrams currently being reassembled.
    pub fn in_flight(&self) -> usize {
        self.table.len()
    }

    /// Number of datagrams evicted before completion.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Offers one packet; see [`ReassemblyResult`].
    pub fn push(&mut self, hdr: &Ipv4Header, payload: &[u8]) -> ReassemblyResult<'_> {
        if !hdr.is_fragment() {
            return ReassemblyResult::NotFragment;
        }
        let key = FragmentKey::from_header(hdr);
        let idx = match self.table.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                if self.table.len() >= self.capacity {
                    self.table.remove(0);
                    self.evictions += 1;
                }
                let spare = std::mem::replace(&mut self.spare, PartialDatagram::new());
                self.table.push((key, spare.recycle()));
                self.table.len() - 1
            }
        };
        let entry = &mut self.table[idx].1;
        let start = hdr.frag_offset as usize * 8;
        entry.insert(start, payload);
        if hdr.frag_offset == 0 {
            entry.first_header = Some(*hdr);
        }
        if !hdr.more_fragments {
            entry.total_len = Some(start + payload.len());
        }
        if entry.is_complete() {
            self.spare = self.table.remove(idx).1;
            let done = &self.spare;
            let mut header = done
                .first_header
                .expect("complete datagram must include first fragment");
            let total = done.total_len.expect("complete datagram has known length");
            header.more_fragments = false;
            header.frag_offset = 0;
            header.total_len = (IPV4_HEADER_LEN + total) as u16;
            ReassemblyResult::Complete {
                header,
                payload: &done.buffer[..total],
                fragments: done.fragments,
            }
        } else {
            ReassemblyResult::Pending
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_header(payload_len: usize) -> Ipv4Header {
        let mut h = Ipv4Header::simple(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            payload_len,
        );
        h.id = 0x1234;
        h
    }

    #[test]
    fn header_round_trip() {
        let h = test_header(100);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        buf.put_slice(&[0u8; 100]);
        let (parsed, rest) = Ipv4Header::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert_eq!(rest.len(), 100);
    }

    #[test]
    fn writes_the_classic_header_with_its_checksum() {
        // 115 bytes of UDP, DF set, TTL 64, 192.168.0.1 -> 192.168.0.199.
        let mut h = Ipv4Header::simple(
            Ipv4Addr::new(192, 168, 0, 1),
            Ipv4Addr::new(192, 168, 0, 199),
            IpProto::Udp,
            0x73 - IPV4_HEADER_LEN,
        );
        h.dont_fragment = true;
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        let want: Vec<u8> = "4500 0073 0000 4000 4011 b861 c0a8 0001 c0a8 00c7"
            .split(' ')
            .flat_map(|w| u16::from_str_radix(w, 16).unwrap().to_be_bytes())
            .collect();
        assert_eq!(&buf[..], want);
    }

    #[test]
    fn writes_fragment_fields_and_dscp() {
        // MF with offset 0x1ab, DSCP/ECN 0xb8, id 0xbeef, TCP, TTL 1.
        let mut h = Ipv4Header::simple(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Tcp,
            1480,
        );
        (h.dscp_ecn, h.id, h.ttl) = (0xb8, 0xbeef, 1);
        (h.more_fragments, h.frag_offset) = (true, 0x1ab);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        assert_eq!(
            &buf[..10],
            [0x45, 0xb8, 0x05, 0xdc, 0xbe, 0xef, 0x21, 0xab, 0x01, 0x06]
        );
        assert_eq!(checksum(&buf), 0, "the stored checksum verifies");
    }

    #[test]
    fn checksum_must_verify() {
        let h = test_header(0);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        buf[8] ^= 0xff; // corrupt TTL
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(ParsePacketError::BadChecksum { layer: "ipv4" })
        ));
    }

    #[test]
    fn rejects_wrong_version() {
        let h = test_header(0);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        buf[0] = 0x65; // version 6
        assert!(matches!(
            Ipv4Header::parse(&buf),
            Err(ParsePacketError::InvalidField {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn fragment_no_op_below_mtu() {
        let h = test_header(1000);
        let frags = fragment(&h, Bytes::from(vec![0u8; 1000]), 1500);
        assert_eq!(frags.len(), 1);
        assert!(!frags[0].0.is_fragment());
    }

    #[test]
    fn fragment_offsets_are_eight_byte_aligned() {
        let h = test_header(4000);
        let frags = fragment(&h, Bytes::from(vec![0u8; 4000]), 1500);
        assert!(frags.len() >= 3);
        for (fh, fp) in &frags[..frags.len() - 1] {
            assert_eq!(fp.len() % 8, 0);
            assert!(fh.more_fragments);
        }
        // Offsets must chain exactly.
        let mut expect = 0;
        for (fh, fp) in &frags {
            assert_eq!(fh.frag_offset as usize * 8, expect);
            expect += fp.len();
        }
        assert_eq!(expect, 4000);
    }

    #[test]
    #[should_panic]
    fn fragment_respects_df() {
        let mut h = test_header(4000);
        h.dont_fragment = true;
        let _ = fragment(&h, Bytes::from(vec![0u8; 4000]), 1500);
    }

    #[test]
    fn reassembles_out_of_order() {
        let payload: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        let h = test_header(payload.len());
        let mut frags = fragment(&h, Bytes::from(payload.clone()), 1480);
        frags.reverse(); // worst-case arrival order
        let mut r = Reassembler::new(8);
        let mut complete = None;
        for (fh, fp) in &frags {
            match r.push(fh, fp) {
                ReassemblyResult::Complete {
                    payload,
                    header,
                    fragments,
                } => {
                    assert_eq!(fragments, frags.len());
                    assert!(!header.is_fragment());
                    complete = Some(payload.to_vec());
                }
                ReassemblyResult::Pending => {}
                ReassemblyResult::NotFragment => panic!("fragments expected"),
            }
        }
        assert_eq!(complete.unwrap(), payload);
        assert_eq!(r.in_flight(), 0);
    }

    #[test]
    fn interleaved_datagrams() {
        let mut r = Reassembler::new(8);
        let pa: Vec<u8> = vec![0xaa; 3000];
        let pb: Vec<u8> = vec![0xbb; 3000];
        let mut ha = test_header(pa.len());
        ha.id = 1;
        let mut hb = test_header(pb.len());
        hb.id = 2;
        let fa = fragment(&ha, Bytes::from(pa.clone()), 1500);
        let fb = fragment(&hb, Bytes::from(pb.clone()), 1500);
        let mut done = 0;
        for (f1, f2) in fa.iter().zip(fb.iter()) {
            for (fh, fp) in [f1, f2] {
                if let ReassemblyResult::Complete { payload, .. } = r.push(fh, fp) {
                    assert!(payload.iter().all(|&b| b == payload[0]));
                    done += 1;
                }
            }
        }
        assert_eq!(done, 2);
    }

    #[test]
    fn duplicate_fragments_are_harmless() {
        let payload = vec![7u8; 3000];
        let h = test_header(payload.len());
        let frags = fragment(&h, Bytes::from(payload.clone()), 1500);
        let mut r = Reassembler::new(8);
        // Send the first fragment twice.
        assert!(matches!(
            r.push(&frags[0].0, &frags[0].1),
            ReassemblyResult::Pending
        ));
        assert!(matches!(
            r.push(&frags[0].0, &frags[0].1),
            ReassemblyResult::Pending
        ));
        let mut complete = false;
        for (fh, fp) in &frags[1..] {
            if let ReassemblyResult::Complete { payload: p, .. } = r.push(fh, fp) {
                assert_eq!(p, payload.as_slice());
                complete = true;
            }
        }
        assert!(complete);
    }

    #[test]
    fn ranges_coalesce_in_place() {
        let mut d = PartialDatagram::new();
        for start in [16, 0, 40] {
            d.insert(start, &[1u8; 8]);
        }
        assert_eq!(d.ranges, [(0, 8), (16, 24), (40, 48)]);
        // Touching on both sides bridges two ranges into one...
        d.insert(8, &[2u8; 8]);
        assert_eq!(d.ranges, [(0, 24), (40, 48)]);
        // ...an empty fragment in a gap stands alone...
        d.insert(30, &[]);
        assert_eq!(d.ranges, [(0, 24), (30, 30), (40, 48)]);
        // ...an overlap swallows everything it reaches...
        d.insert(20, &[3u8; 24]);
        assert_eq!(d.ranges, [(0, 48)]);
        // ...and a duplicate changes nothing.
        d.insert(4, &[4u8; 4]);
        assert_eq!(d.ranges, [(0, 48)]);
        assert_eq!(d.fragments, 7);
        assert_eq!(d.buffer.len(), 48);
    }

    #[test]
    fn capacity_eviction() {
        let mut r = Reassembler::new(2);
        for id in 0..3u16 {
            let mut h = test_header(3000);
            h.id = id;
            let frags = fragment(&h, Bytes::from(vec![0u8; 3000]), 1500);
            // Only push the first fragment -> entry stays in flight.
            r.push(&frags[0].0, &frags[0].1);
        }
        assert_eq!(r.in_flight(), 2);
        assert_eq!(r.evictions(), 1);
    }

    #[test]
    fn a_hole_in_a_reused_buffer_reads_zeros() {
        let mut r = Reassembler::new(2);
        let mut h = test_header(3000);
        let completed = fragment(&h, Bytes::from(vec![0xee; 3000]), 1500)
            .iter()
            .filter(|(fh, fp)| matches!(r.push(fh, fp), ReassemblyResult::Complete { .. }))
            .count();
        assert_eq!(completed, 1);
        let reused = r.spare.buffer.as_ptr();
        // Only the second fragment of the next datagram: it takes over the
        // completed one's buffer, and everything before it is a hole.
        h.id += 1;
        let frags = fragment(&h, Bytes::from(vec![0x11; 3000]), 1500);
        let (fh, fp) = &frags[1];
        assert!(matches!(r.push(fh, fp), ReassemblyResult::Pending));
        let pending = &r.table[0].1;
        assert_eq!(pending.buffer.as_ptr(), reused, "the buffer was not reused");
        let start = fh.frag_offset as usize * 8;
        assert!(pending.buffer[..start].iter().all(|&b| b == 0));
        assert!(pending.buffer[start..].iter().all(|&b| b == 0x11));
    }

    #[test]
    fn non_fragment_passes_through() {
        let h = test_header(100);
        let mut r = Reassembler::new(2);
        assert!(matches!(
            r.push(&h, &[0u8; 100]),
            ReassemblyResult::NotFragment
        ));
    }
}
