//! VXLAN (RFC 7348) encapsulation — the tunneling offload the paper chains
//! *before* the defragmentation accelerator (§ 7, § 8.2.2).

use bytes::{BufMut, BytesMut};

use crate::error::ParsePacketError;

/// Length of a VXLAN header.
pub const VXLAN_HEADER_LEN: usize = 8;

/// The IANA-assigned VXLAN UDP port.
pub const VXLAN_UDP_PORT: u16 = 4789;

/// A VXLAN header carrying a 24-bit network identifier.
///
/// # Examples
///
/// ```
/// use fld_net::vxlan::VxlanHeader;
///
/// let h = VxlanHeader::new(0x123456);
/// let mut buf = bytes::BytesMut::new();
/// h.write(&mut buf);
/// let (parsed, _) = VxlanHeader::parse(&buf)?;
/// assert_eq!(parsed.vni, 0x123456);
/// # Ok::<(), fld_net::error::ParsePacketError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VxlanHeader {
    /// The 24-bit VXLAN network identifier.
    pub vni: u32,
}

impl VxlanHeader {
    /// Creates a header with the given VNI.
    ///
    /// # Panics
    ///
    /// Panics if `vni` does not fit in 24 bits.
    pub fn new(vni: u32) -> Self {
        assert!(vni < (1 << 24), "vni must fit in 24 bits");
        VxlanHeader { vni }
    }

    /// Serializes the header into `buf` (one append): the flags byte
    /// with only the I bit, three reserved bytes, the VNI, one reserved
    /// byte (RFC 7348 § 5).
    #[inline]
    pub fn write(&self, buf: &mut BytesMut) {
        let [_, v0, v1, v2] = self.vni.to_be_bytes();
        buf.put_slice(&[0x08, 0, 0, 0, v0, v1, v2, 0]);
    }

    /// Parses a header, returning it and the encapsulated frame bytes.
    ///
    /// # Errors
    ///
    /// Returns an error if the buffer is truncated or the mandatory I flag is
    /// clear.
    pub fn parse(data: &[u8]) -> Result<(VxlanHeader, &[u8]), ParsePacketError> {
        if data.len() < VXLAN_HEADER_LEN {
            return Err(ParsePacketError::Truncated {
                layer: "vxlan",
                needed: VXLAN_HEADER_LEN,
                available: data.len(),
            });
        }
        if data[0] & 0x08 == 0 {
            return Err(ParsePacketError::InvalidField {
                layer: "vxlan",
                field: "flags",
                value: data[0] as u64,
            });
        }
        let vni = u32::from_be_bytes([0, data[4], data[5], data[6]]);
        Ok((VxlanHeader { vni }, &data[VXLAN_HEADER_LEN..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = VxlanHeader::new(0xABCDEF);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), VXLAN_HEADER_LEN);
        let (parsed, rest) = VxlanHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn writes_the_rfc_7348_layout() {
        // Flags 0x08 (I set, the rest reserved), 24 reserved bits, the
        // 24-bit VNI, 8 reserved bits.
        for (vni, wire) in [
            (0x123456, [0x12, 0x34, 0x56]),
            (0xff_ffff, [0xff; 3]),
            (1, [0, 0, 1]),
        ] {
            let mut buf = BytesMut::new();
            VxlanHeader::new(vni).write(&mut buf);
            assert_eq!(&buf[..], [0x08, 0, 0, 0, wire[0], wire[1], wire[2], 0]);
        }
    }

    #[test]
    fn rejects_missing_i_flag() {
        let buf = [0u8; 8];
        assert!(matches!(
            VxlanHeader::parse(&buf),
            Err(ParsePacketError::InvalidField { field: "flags", .. })
        ));
    }

    #[test]
    fn truncated() {
        assert!(VxlanHeader::parse(&[0x08; 7]).is_err());
    }

    #[test]
    #[should_panic]
    fn vni_overflow_panics() {
        let _ = VxlanHeader::new(1 << 24);
    }
}
