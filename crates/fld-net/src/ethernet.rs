//! Ethernet II framing.

use bytes::{BufMut, BytesMut};

use crate::error::ParsePacketError;

/// Length of an Ethernet II header (dst + src + ethertype).
pub const ETHERNET_HEADER_LEN: usize = 14;

/// Per-frame wire overhead that never appears in the buffer: 7 B preamble,
/// 1 B SFD, 4 B FCS and 12 B inter-frame gap.
pub const ETHERNET_WIRE_OVERHEAD: u64 = 24;

/// The per-packet overhead the FlexDriver paper uses when computing packet
/// rates (Table 2a uses `M_min + 20 B`): preamble+SFD+IFG, with the FCS
/// counted inside the frame.
pub const PAPER_WIRE_OVERHEAD: u64 = 20;

/// Minimum Ethernet frame size (without FCS).
pub const ETHERNET_MIN_FRAME: usize = 60;

/// A 48-bit MAC address.
///
/// # Examples
///
/// ```
/// use fld_net::ethernet::MacAddr;
///
/// let m = MacAddr::local(1);
/// assert_eq!(m, MacAddr([0x02, 0, 0, 0, 0, 0x01]));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The all-ones broadcast address.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);

    /// A locally-administered unicast address derived from a small id,
    /// convenient for simulations.
    pub const fn local(id: u32) -> Self {
        let b = id.to_be_bytes();
        MacAddr([0x02, 0x00, b[0], b[1], b[2], b[3]])
    }
}

/// Well-known EtherType values used by the models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EtherType {
    /// IPv4 (0x0800).
    Ipv4,
    /// ARP (0x0806).
    Arp,
    /// IPv6 (0x86DD).
    Ipv6,
    /// Anything else.
    Other(u16),
}

impl EtherType {
    /// The numeric EtherType.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Arp => 0x0806,
            EtherType::Ipv6 => 0x86DD,
            EtherType::Other(v) => v,
        }
    }
}

impl From<u16> for EtherType {
    fn from(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            0x0806 => EtherType::Arp,
            0x86DD => EtherType::Ipv6,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II header.
///
/// # Examples
///
/// ```
/// use fld_net::ethernet::{EtherType, EthernetHeader, MacAddr};
///
/// let hdr = EthernetHeader {
///     dst: MacAddr::local(1),
///     src: MacAddr::local(2),
///     ethertype: EtherType::Ipv4,
/// };
/// let mut buf = bytes::BytesMut::new();
/// hdr.write(&mut buf);
/// let (parsed, rest) = EthernetHeader::parse(&buf)?;
/// assert_eq!(parsed, hdr);
/// assert!(rest.is_empty());
/// # Ok::<(), fld_net::error::ParsePacketError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EthernetHeader {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Payload EtherType.
    pub ethertype: EtherType,
}

impl EthernetHeader {
    /// Serializes the header into `buf` (one append).
    #[inline]
    pub fn write(&self, buf: &mut BytesMut) {
        let mut h = [0u8; ETHERNET_HEADER_LEN];
        h[0..6].copy_from_slice(&self.dst.0);
        h[6..12].copy_from_slice(&self.src.0);
        h[12..14].copy_from_slice(&self.ethertype.value().to_be_bytes());
        buf.put_slice(&h);
    }

    /// Parses a header, returning it together with the remaining bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePacketError::Truncated`] when fewer than 14 bytes are
    /// available.
    pub fn parse(data: &[u8]) -> Result<(EthernetHeader, &[u8]), ParsePacketError> {
        if data.len() < ETHERNET_HEADER_LEN {
            return Err(ParsePacketError::Truncated {
                layer: "ethernet",
                needed: ETHERNET_HEADER_LEN,
                available: data.len(),
            });
        }
        let mut dst = [0u8; 6];
        let mut src = [0u8; 6];
        dst.copy_from_slice(&data[0..6]);
        src.copy_from_slice(&data[6..12]);
        let ethertype = u16::from_be_bytes([data[12], data[13]]).into();
        Ok((
            EthernetHeader {
                dst: MacAddr(dst),
                src: MacAddr(src),
                ethertype,
            },
            &data[ETHERNET_HEADER_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let hdr = EthernetHeader {
            dst: MacAddr::BROADCAST,
            src: MacAddr::local(42),
            ethertype: EtherType::Other(0x88B5),
        };
        let mut buf = BytesMut::new();
        hdr.write(&mut buf);
        assert_eq!(buf.len(), ETHERNET_HEADER_LEN);
        let (parsed, rest) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(parsed, hdr);
        assert!(rest.is_empty());
    }

    #[test]
    fn writes_the_ethernet_ii_layout() {
        // Destination, source, EtherType, in wire order.
        let hdr = EthernetHeader {
            dst: MacAddr([0x00, 0x1b, 0x21, 0x3c, 0x4d, 0x5e]),
            src: MacAddr::local(0x0102_0304),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = BytesMut::new();
        hdr.write(&mut buf);
        assert_eq!(
            &buf[..],
            [0x00, 0x1b, 0x21, 0x3c, 0x4d, 0x5e, 0x02, 0x00, 0x01, 0x02, 0x03, 0x04, 0x08, 0x00]
        );
    }

    #[test]
    fn truncated_header_is_rejected() {
        let err = EthernetHeader::parse(&[0u8; 5]).unwrap_err();
        assert!(matches!(
            err,
            ParsePacketError::Truncated {
                layer: "ethernet",
                ..
            }
        ));
    }

    #[test]
    fn ethertype_mapping() {
        assert_eq!(EtherType::from(0x0800), EtherType::Ipv4);
        assert_eq!(EtherType::Ipv4.value(), 0x0800);
        assert_eq!(EtherType::from(0x1234), EtherType::Other(0x1234));
        assert_eq!(EtherType::Other(0x1234).value(), 0x1234);
    }

    #[test]
    fn mac_properties() {
        assert_eq!(MacAddr::local(1), MacAddr::local(1));
        assert_ne!(MacAddr::local(1), MacAddr::local(2));
    }

    #[test]
    fn parse_keeps_payload() {
        let hdr = EthernetHeader {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
        };
        let mut buf = BytesMut::new();
        hdr.write(&mut buf);
        buf.put_slice(b"payload");
        let (_, rest) = EthernetHeader::parse(&buf).unwrap();
        assert_eq!(rest, b"payload");
    }
}
