//! RoCE v2 framing: the InfiniBand Base Transport Header (BTH) carried over
//! UDP port 4791, as produced and consumed by the NIC's hardware RDMA
//! transport (§ 2.1, § 5 FLD-R).

use bytes::{BufMut, BytesMut};

use crate::error::ParsePacketError;

/// Length of a Base Transport Header.
pub const BTH_LEN: usize = 12;

/// The IANA-assigned RoCE v2 UDP destination port.
pub const ROCE_UDP_PORT: u16 = 4791;

/// Length of the invariant CRC trailer on RoCE packets.
pub const ICRC_LEN: usize = 4;

/// RC-transport opcodes needed by the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BthOpcode {
    /// RC SEND First.
    SendFirst,
    /// RC SEND Middle.
    SendMiddle,
    /// RC SEND Last.
    SendLast,
    /// RC SEND Only (single-packet message).
    SendOnly,
    /// RC Acknowledge.
    Ack,
    /// RC RDMA WRITE First.
    WriteFirst,
    /// RC RDMA WRITE Middle.
    WriteMiddle,
    /// RC RDMA WRITE Last.
    WriteLast,
    /// RC RDMA WRITE Only.
    WriteOnly,
}

impl BthOpcode {
    /// Numeric opcode (IBTA RC opcodes).
    pub fn value(self) -> u8 {
        match self {
            BthOpcode::SendFirst => 0x00,
            BthOpcode::SendMiddle => 0x01,
            BthOpcode::SendLast => 0x02,
            BthOpcode::SendOnly => 0x04,
            BthOpcode::Ack => 0x11,
            BthOpcode::WriteFirst => 0x06,
            BthOpcode::WriteMiddle => 0x07,
            BthOpcode::WriteLast => 0x08,
            BthOpcode::WriteOnly => 0x0a,
        }
    }

    /// Decodes a numeric opcode.
    pub fn from_value(v: u8) -> Option<Self> {
        Some(match v {
            0x00 => BthOpcode::SendFirst,
            0x01 => BthOpcode::SendMiddle,
            0x02 => BthOpcode::SendLast,
            0x04 => BthOpcode::SendOnly,
            0x11 => BthOpcode::Ack,
            0x06 => BthOpcode::WriteFirst,
            0x07 => BthOpcode::WriteMiddle,
            0x08 => BthOpcode::WriteLast,
            0x0a => BthOpcode::WriteOnly,
            _ => return None,
        })
    }

    /// Whether this opcode ends a message.
    pub fn is_last(self) -> bool {
        matches!(
            self,
            BthOpcode::SendLast | BthOpcode::SendOnly | BthOpcode::WriteLast | BthOpcode::WriteOnly
        )
    }

    /// Picks the RC SEND opcode for packet `index` out of `total` packets.
    ///
    /// # Panics
    ///
    /// Panics if `index >= total` or `total == 0`.
    pub fn send_for_position(index: usize, total: usize) -> Self {
        assert!(total > 0 && index < total, "invalid packet position");
        match (index == 0, index + 1 == total) {
            (true, true) => BthOpcode::SendOnly,
            (true, false) => BthOpcode::SendFirst,
            (false, true) => BthOpcode::SendLast,
            (false, false) => BthOpcode::SendMiddle,
        }
    }
}

/// NAK codes (IBTA C9-142: the low five syndrome bits of a NAK).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NakCode {
    /// PSN sequence error: the responder saw a PSN gap; the requester
    /// must go-back-N from the AETH MSN.
    PsnSequenceError,
    /// Malformed or unsupported request.
    InvalidRequest,
    /// R_Key / access violation.
    RemoteAccessError,
    /// Responder could not complete the operation.
    RemoteOperationalError,
}

/// The AETH syndrome: positive ACK, RNR NAK with a backoff timer code,
/// or a NAK with its error code (IBTA § 9.7.5.1.1). The RC model carries
/// it in its packet struct; no ACK is serialized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AethSyndrome {
    /// Positive acknowledgement.
    Ack,
    /// Receiver not ready: the responder has no receive WQE; retry after
    /// the encoded RNR timer.
    RnrNak {
        /// 5-bit IBTA RNR timer code.
        timer: u8,
    },
    /// Negative acknowledgement with an error code.
    Nak(NakCode),
}

/// A Base Transport Header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bth {
    /// Operation code.
    pub opcode: BthOpcode,
    /// Destination queue pair number (24 bits).
    pub dest_qp: u32,
    /// Packet sequence number (24 bits).
    pub psn: u32,
    /// Whether an acknowledge is requested.
    pub ack_req: bool,
    /// Partition key (default 0xFFFF).
    pub pkey: u16,
}

impl Bth {
    /// Creates a BTH with the default partition key.
    ///
    /// # Panics
    ///
    /// Panics if `dest_qp` or `psn` exceeds 24 bits.
    pub fn new(opcode: BthOpcode, dest_qp: u32, psn: u32, ack_req: bool) -> Self {
        assert!(dest_qp < (1 << 24), "qp number must fit in 24 bits");
        assert!(psn < (1 << 24), "psn must fit in 24 bits");
        Bth {
            opcode,
            dest_qp,
            psn,
            ack_req,
            pkey: 0xffff,
        }
    }

    /// Serializes the header into `buf` in the IBTA layout (§ 9.2):
    /// opcode, flags, P_Key, a reserved byte and the 24-bit destination
    /// QP, then the ack-request bit alone in byte 8 and the 24-bit PSN in
    /// bytes 9–11.
    pub fn write(&self, buf: &mut BytesMut) {
        buf.put_u8(self.opcode.value());
        buf.put_u8(0); // se/migreq/padcnt/tver
        buf.put_u16(self.pkey);
        let qp = self.dest_qp.to_be_bytes();
        buf.put_slice(&[0, qp[1], qp[2], qp[3]]); // reserved + dest QP
        let psn = self.psn.to_be_bytes();
        let a = if self.ack_req { 0x80 } else { 0 };
        buf.put_slice(&[a, psn[1], psn[2], psn[3]]); // A + reserved, PSN
    }

    /// Parses a header, returning it and the payload bytes.
    ///
    /// # Errors
    ///
    /// Returns an error for truncated buffers or unknown opcodes.
    pub fn parse(data: &[u8]) -> Result<(Bth, &[u8]), ParsePacketError> {
        if data.len() < BTH_LEN {
            return Err(ParsePacketError::Truncated {
                layer: "bth",
                needed: BTH_LEN,
                available: data.len(),
            });
        }
        let opcode = BthOpcode::from_value(data[0]).ok_or(ParsePacketError::InvalidField {
            layer: "bth",
            field: "opcode",
            value: data[0] as u64,
        })?;
        let pkey = u16::from_be_bytes([data[2], data[3]]);
        let dest_qp = u32::from_be_bytes([0, data[5], data[6], data[7]]);
        let ack_req = data[8] & 0x80 != 0;
        let psn = u32::from_be_bytes([0, data[9], data[10], data[11]]);
        Ok((
            Bth {
                opcode,
                dest_qp,
                psn,
                ack_req,
                pkey,
            },
            &data[BTH_LEN..],
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        for opcode in [
            BthOpcode::SendFirst,
            BthOpcode::SendMiddle,
            BthOpcode::SendLast,
            BthOpcode::SendOnly,
            BthOpcode::Ack,
            BthOpcode::WriteOnly,
        ] {
            let h = Bth::new(opcode, 0x1234, 0x00abcd, true);
            let mut buf = BytesMut::new();
            h.write(&mut buf);
            assert_eq!(buf.len(), BTH_LEN);
            let (parsed, rest) = Bth::parse(&buf).unwrap();
            assert_eq!(parsed, h);
            assert!(rest.is_empty());
        }
    }

    #[test]
    fn psn_without_ackreq() {
        let h = Bth::new(BthOpcode::SendOnly, 5, 0xffffff, false);
        let mut buf = BytesMut::new();
        h.write(&mut buf);
        let (parsed, _) = Bth::parse(&buf).unwrap();
        assert_eq!(parsed.psn, 0xffffff);
        assert!(!parsed.ack_req);
    }

    /// Byte for byte against the IBTA BTH layout: the A bit alone at the
    /// top of byte 8, the PSN in bytes 9–11.
    #[test]
    fn bth_bytes_match_the_ibta_layout() {
        let mut buf = BytesMut::new();
        Bth::new(BthOpcode::SendOnly, 0x12_3456, 0xab_cdef, true).write(&mut buf);
        assert_eq!(
            &buf[..],
            &[
                0x04, 0x00, 0xff, 0xff, // SEND Only, flags, P_Key
                0x00, 0x12, 0x34, 0x56, // reserved, destination QP
                0x80, 0xab, 0xcd, 0xef, // A bit + reserved, PSN
            ]
        );
        let mut buf = BytesMut::new();
        Bth::new(BthOpcode::Ack, 1, 0x80_0001, false).write(&mut buf);
        assert_eq!(&buf[8..], &[0x00, 0x80, 0x00, 0x01]);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut buf = BytesMut::new();
        Bth::new(BthOpcode::SendOnly, 1, 1, false).write(&mut buf);
        buf[0] = 0x3f;
        assert!(matches!(
            Bth::parse(&buf),
            Err(ParsePacketError::InvalidField {
                field: "opcode",
                ..
            })
        ));
    }

    #[test]
    fn send_position_opcodes() {
        assert_eq!(BthOpcode::send_for_position(0, 1), BthOpcode::SendOnly);
        assert_eq!(BthOpcode::send_for_position(0, 3), BthOpcode::SendFirst);
        assert_eq!(BthOpcode::send_for_position(1, 3), BthOpcode::SendMiddle);
        assert_eq!(BthOpcode::send_for_position(2, 3), BthOpcode::SendLast);
    }

    #[test]
    fn first_last_flags() {
        assert!(BthOpcode::SendOnly.is_last());
        assert!(!BthOpcode::SendFirst.is_last());
        assert!(!BthOpcode::SendMiddle.is_last());
        assert!(BthOpcode::SendLast.is_last());
    }
}
