//! TCP header handling (enough for flow steering, RSS and the iperf-style
//! defragmentation workload; no options beyond raw bytes).

use bytes::{BufMut, BytesMut};

use crate::error::ParsePacketError;

/// Length of a basic TCP header (no options).
pub const TCP_HEADER_LEN: usize = 20;

/// TCP flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TcpFlags {
    /// FIN flag.
    pub fin: bool,
    /// SYN flag.
    pub syn: bool,
    /// RST flag.
    pub rst: bool,
    /// PSH flag.
    pub psh: bool,
    /// ACK flag.
    pub ack: bool,
}

impl TcpFlags {
    /// Only ACK set — a data segment on an established connection.
    pub const ACK: TcpFlags = TcpFlags {
        fin: false,
        syn: false,
        rst: false,
        psh: false,
        ack: true,
    };

    fn to_byte(self) -> u8 {
        (self.fin as u8)
            | (self.syn as u8) << 1
            | (self.rst as u8) << 2
            | (self.psh as u8) << 3
            | (self.ack as u8) << 4
    }

    fn from_byte(b: u8) -> Self {
        TcpFlags {
            fin: b & 1 != 0,
            syn: b & 2 != 0,
            rst: b & 4 != 0,
            psh: b & 8 != 0,
            ack: b & 16 != 0,
        }
    }
}

/// A TCP header (data offset fixed at 5, i.e. no options).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Sequence number.
    pub seq: u32,
    /// Acknowledgement number.
    pub ack: u32,
    /// Flags.
    pub flags: TcpFlags,
    /// Receive window.
    pub window: u16,
    /// Checksum (0 = unset).
    pub checksum: u16,
}

impl TcpHeader {
    /// Creates a data segment header with sensible defaults.
    pub fn data(src_port: u16, dst_port: u16, seq: u32) -> Self {
        TcpHeader {
            src_port,
            dst_port,
            seq,
            ack: 0,
            flags: TcpFlags::ACK,
            window: 0xffff,
            checksum: 0,
        }
    }

    /// Serializes the header into `buf` (one append).
    #[inline]
    pub fn write(&self, buf: &mut BytesMut) {
        let mut h = [0u8; TCP_HEADER_LEN];
        h[0..2].copy_from_slice(&self.src_port.to_be_bytes());
        h[2..4].copy_from_slice(&self.dst_port.to_be_bytes());
        h[4..8].copy_from_slice(&self.seq.to_be_bytes());
        h[8..12].copy_from_slice(&self.ack.to_be_bytes());
        h[12] = 5 << 4; // data offset 5 words
        h[13] = self.flags.to_byte();
        h[14..16].copy_from_slice(&self.window.to_be_bytes());
        h[16..18].copy_from_slice(&self.checksum.to_be_bytes());
        // h[18..20], the urgent pointer, stays zero.
        buf.put_slice(&h);
    }

    /// Parses a header, returning it and the remaining bytes.
    ///
    /// # Errors
    ///
    /// Returns [`ParsePacketError::Truncated`] when the buffer is too short
    /// (including a data offset pointing past the buffer), or
    /// [`ParsePacketError::InvalidField`] for a data offset below 5.
    pub fn parse(data: &[u8]) -> Result<(TcpHeader, &[u8]), ParsePacketError> {
        if data.len() < TCP_HEADER_LEN {
            return Err(ParsePacketError::Truncated {
                layer: "tcp",
                needed: TCP_HEADER_LEN,
                available: data.len(),
            });
        }
        let offset_words = (data[12] >> 4) as usize;
        if offset_words < 5 {
            return Err(ParsePacketError::InvalidField {
                layer: "tcp",
                field: "data_offset",
                value: offset_words as u64,
            });
        }
        let hdr_len = offset_words * 4;
        if data.len() < hdr_len {
            return Err(ParsePacketError::Truncated {
                layer: "tcp",
                needed: hdr_len,
                available: data.len(),
            });
        }
        Ok((
            TcpHeader {
                src_port: u16::from_be_bytes([data[0], data[1]]),
                dst_port: u16::from_be_bytes([data[2], data[3]]),
                seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
                ack: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
                flags: TcpFlags::from_byte(data[13]),
                window: u16::from_be_bytes([data[14], data[15]]),
                checksum: u16::from_be_bytes([data[16], data[17]]),
            },
            &data[hdr_len..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let h = TcpHeader {
            src_port: 40000,
            dst_port: 5201,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags: TcpFlags {
                fin: false,
                syn: true,
                rst: false,
                psh: true,
                ack: true,
            },
            window: 4096,
            checksum: 0xabcd,
        };
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        assert_eq!(buf.len(), TCP_HEADER_LEN);
        let (parsed, rest) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed, h);
        assert!(rest.is_empty());
    }

    #[test]
    fn writes_the_rfc_793_layout() {
        // Ports, sequence, acknowledgement, data offset 5, flags
        // (PSH | ACK), window, checksum, urgent pointer 0.
        let h = TcpHeader {
            src_port: 40000,
            dst_port: 5201,
            seq: 0xdeadbeef,
            ack: 0x01020304,
            flags: TcpFlags {
                psh: true,
                ..TcpFlags::ACK
            },
            window: 0x1000,
            checksum: 0xabcd,
        };
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        assert_eq!(
            &buf[..],
            [
                0x9c, 0x40, 0x14, 0x51, 0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x50, 0x18,
                0x10, 0x00, 0xab, 0xcd, 0x00, 0x00
            ]
        );
    }

    #[test]
    fn skips_options() {
        let h = TcpHeader::data(1, 2, 99);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        // Bump data offset to 6 words and append 4 option bytes + payload.
        buf[12] = 6 << 4;
        buf.put_slice(&[1, 1, 1, 0]);
        buf.put_slice(b"payload");
        let (parsed, rest) = TcpHeader::parse(&buf).unwrap();
        assert_eq!(parsed.seq, 99);
        assert_eq!(rest, b"payload");
    }

    #[test]
    fn truncated() {
        assert!(TcpHeader::parse(&[0u8; 10]).is_err());
    }

    #[test]
    fn bad_offset() {
        let h = TcpHeader::data(1, 2, 0);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        buf[12] = 3 << 4;
        assert!(matches!(
            TcpHeader::parse(&buf),
            Err(ParsePacketError::InvalidField {
                field: "data_offset",
                ..
            })
        ));
    }

    #[test]
    fn flags_round_trip() {
        for bits in 0..32u8 {
            assert_eq!(TcpFlags::from_byte(bits).to_byte(), bits);
        }
    }
}
