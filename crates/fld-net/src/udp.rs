//! UDP header handling.

use bytes::{BufMut, BytesMut};

use crate::checksum::Checksum;
use crate::error::ParsePacketError;
use crate::ipv4::{IpProto, Ipv4Addr};

/// Length of a UDP header.
pub const UDP_HEADER_LEN: usize = 8;

/// A UDP header.
///
/// # Examples
///
/// ```
/// use fld_net::udp::UdpHeader;
///
/// let h = UdpHeader::new(1234, 4791, 16);
/// assert_eq!(h.length as usize, 8 + 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Header + payload length.
    pub length: u16,
    /// Checksum (0 = not computed).
    pub checksum: u16,
}

impl UdpHeader {
    /// Creates a header for `payload_len` bytes of payload, checksum unset.
    pub fn new(src_port: u16, dst_port: u16, payload_len: usize) -> Self {
        UdpHeader {
            src_port,
            dst_port,
            length: (UDP_HEADER_LEN + payload_len) as u16,
            checksum: 0,
        }
    }

    /// Serializes the header into `buf` (one append).
    #[inline]
    pub fn write(&self, buf: &mut BytesMut) {
        let mut h = [0u8; UDP_HEADER_LEN];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..6].copy_from_slice(&self.length.to_be_bytes());
        h[6..8].copy_from_slice(&self.checksum.to_be_bytes());
        buf.put_slice(&h);
    }

    /// Parses a header, returning it and the remaining bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePacketError::Truncated`] if fewer than 8 bytes remain,
    /// or [`ParsePacketError::InvalidField`] for an impossible length field.
    pub fn parse(data: &[u8]) -> Result<(UdpHeader, &[u8]), ParsePacketError> {
        if data.len() < UDP_HEADER_LEN {
            return Err(ParsePacketError::Truncated {
                layer: "udp",
                needed: UDP_HEADER_LEN,
                available: data.len(),
            });
        }
        let length = u16::from_be_bytes([data[4], data[5]]);
        if (length as usize) < UDP_HEADER_LEN {
            return Err(ParsePacketError::InvalidField {
                layer: "udp",
                field: "length",
                value: length as u64,
            });
        }
        Ok((
            UdpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                length,
                checksum: u16::from_be_bytes([data[6], data[7]]),
            },
            &data[UDP_HEADER_LEN..],
        ))
    }

    /// Computes the UDP checksum over the IPv4 pseudo-header and payload —
    /// the computation the NIC's L4 checksum offload performs (and the one
    /// that breaks on IP fragments, motivating the defrag accelerator).
    pub fn compute_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> u16 {
        let mut c = Checksum::new();
        c.update(&src.0);
        c.update(&dst.0);
        c.update(&[0, IpProto::Udp.value()]);
        c.update_u16(self.length);
        c.update_u16(self.src_port);
        c.update_u16(self.dst_port);
        c.update_u16(self.length);
        // checksum field treated as zero
        c.update(payload);
        let v = c.finish();
        // Per RFC 768, an all-zero computed checksum is sent as 0xFFFF.
        if v == 0 {
            0xffff
        } else {
            v
        }
    }

    /// Verifies the checksum (a zero stored checksum means "unset" and
    /// passes).
    pub fn verify_checksum(&self, src: Ipv4Addr, dst: Ipv4Addr, payload: &[u8]) -> bool {
        if self.checksum == 0 {
            return true;
        }
        let mut h = *self;
        h.checksum = 0;
        let want = h.compute_checksum(src, dst, payload);
        want == self.checksum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = UdpHeader::new(5000, 4791, 32);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        let (parsed, rest) = UdpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn writes_the_rfc_768_layout() {
        // Source port, destination port, length, checksum.
        let mut h = UdpHeader::new(0x04d2, 4791, 16);
        h.checksum = 0xbeef;
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        assert_eq!(&buf[..], [0x04, 0xd2, 0x12, 0xb7, 0x00, 0x18, 0xbe, 0xef]);
    }

    #[test]
    fn truncated() {
        assert!(matches!(
            UdpHeader::parse(&[0u8; 4]),
            Err(ParsePacketError::Truncated { layer: "udp", .. })
        ));
    }

    #[test]
    fn bogus_length_rejected() {
        let mut buf = BytesMut::new();
        UdpHeader::new(1, 2, 0).write(&mut buf);
        buf[4] = 0;
        buf[5] = 3; // length 3 < 8
        assert!(matches!(
            UdpHeader::parse(&buf),
            Err(ParsePacketError::InvalidField {
                field: "length",
                ..
            })
        ));
    }

    #[test]
    fn checksum_verifies() {
        let src = Ipv4Addr::new(192, 168, 0, 1);
        let dst = Ipv4Addr::new(192, 168, 0, 2);
        let payload = b"hello world";
        let mut h = UdpHeader::new(1111, 2222, payload.len());
        h.checksum = h.compute_checksum(src, dst, payload);
        assert_ne!(h.checksum, 0);
        assert!(h.verify_checksum(src, dst, payload));
        // Corrupt payload -> fails.
        assert!(!h.verify_checksum(src, dst, b"hello worle"));
    }

    #[test]
    fn zero_checksum_passes() {
        let h = UdpHeader::new(1, 2, 4);
        assert!(h.verify_checksum(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(4, 3, 2, 1),
            b"abcd"
        ));
    }
}
