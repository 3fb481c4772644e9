//! Minimal CoAP (RFC 7252) message codec — enough to carry the JSON Web
//! Tokens validated by the IoT authentication accelerator (§ 7).

use bytes::{BufMut, BytesMut};

use crate::error::ParsePacketError;

/// CoAP message types.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoapType {
    /// Confirmable.
    Confirmable,
    /// Non-confirmable.
    NonConfirmable,
    /// Acknowledgement.
    Ack,
    /// Reset.
    Reset,
}

impl CoapType {
    fn to_bits(self) -> u8 {
        match self {
            CoapType::Confirmable => 0,
            CoapType::NonConfirmable => 1,
            CoapType::Ack => 2,
            CoapType::Reset => 3,
        }
    }

    fn from_bits(b: u8) -> Self {
        match b & 3 {
            0 => CoapType::Confirmable,
            1 => CoapType::NonConfirmable,
            2 => CoapType::Ack,
            _ => CoapType::Reset,
        }
    }
}

/// A CoAP message (header, token, options as raw bytes, payload).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoapMessage {
    /// Message type.
    pub mtype: CoapType,
    /// Code: class.detail (e.g. 0.02 = POST).
    pub code: u8,
    /// Message ID.
    pub message_id: u16,
    /// Token (0–8 bytes).
    pub token: Vec<u8>,
    /// Encoded options (opaque to this codec).
    pub options: Vec<u8>,
    /// Payload (after the 0xFF marker).
    pub payload: Vec<u8>,
}

/// The CoAP POST method code (0.02).
pub const COAP_POST: u8 = 0x02;

impl CoapMessage {
    /// Creates a non-confirmable POST carrying `payload`.
    ///
    /// # Panics
    ///
    /// Panics if `token` is longer than 8 bytes.
    pub fn post(message_id: u16, token: &[u8], payload: Vec<u8>) -> Self {
        assert!(token.len() <= 8, "token too long");
        CoapMessage {
            mtype: CoapType::NonConfirmable,
            code: COAP_POST,
            message_id,
            token: token.to_vec(),
            options: Vec::new(),
            payload,
        }
    }

    /// Serializes the message into `buf`.
    pub fn write(&self, buf: &mut BytesMut) {
        let ver_type_tkl = (1u8 << 6) | (self.mtype.to_bits() << 4) | (self.token.len() as u8);
        buf.put_u8(ver_type_tkl);
        buf.put_u8(self.code);
        buf.put_u16(self.message_id);
        buf.put_slice(&self.token);
        buf.put_slice(&self.options);
        if !self.payload.is_empty() {
            buf.put_u8(0xff);
            buf.put_slice(&self.payload);
        }
    }

    /// Parses a message from `data` (consumes the whole buffer).
    ///
    /// Options are not decoded; everything between the token and the 0xFF
    /// payload marker is preserved verbatim in `options`.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation, a wrong protocol version, or an
    /// over-long token length field.
    pub fn parse(data: &[u8]) -> Result<CoapMessage, ParsePacketError> {
        if data.len() < 4 {
            return Err(ParsePacketError::Truncated {
                layer: "coap",
                needed: 4,
                available: data.len(),
            });
        }
        let version = data[0] >> 6;
        if version != 1 {
            return Err(ParsePacketError::InvalidField {
                layer: "coap",
                field: "version",
                value: version as u64,
            });
        }
        let tkl = (data[0] & 0x0f) as usize;
        if tkl > 8 {
            return Err(ParsePacketError::InvalidField {
                layer: "coap",
                field: "token_length",
                value: tkl as u64,
            });
        }
        if data.len() < 4 + tkl {
            return Err(ParsePacketError::Truncated {
                layer: "coap",
                needed: 4 + tkl,
                available: data.len(),
            });
        }
        let mtype = CoapType::from_bits(data[0] >> 4);
        let code = data[1];
        let message_id = u16::from_be_bytes([data[2], data[3]]);
        let token = data[4..4 + tkl].to_vec();
        let rest = &data[4 + tkl..];
        let (options, payload) = match rest.iter().position(|&b| b == 0xff) {
            Some(marker) => (rest[..marker].to_vec(), rest[marker + 1..].to_vec()),
            None => (rest.to_vec(), Vec::new()),
        };
        Ok(CoapMessage {
            mtype,
            code,
            message_id,
            token,
            options,
            payload,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_with_payload() {
        let msg = CoapMessage::post(0x4242, b"tok", b"the-jwt-goes-here".to_vec());
        let mut buf = BytesMut::new();
        msg.write(&mut buf);
        // Header, token, payload marker, payload.
        assert_eq!(buf.len(), 4 + 3 + 1 + 17);
        let parsed = CoapMessage::parse(&buf).unwrap();
        assert_eq!(parsed, msg);
    }

    #[test]
    fn round_trip_empty_payload() {
        let msg = CoapMessage::post(7, &[], Vec::new());
        let mut buf = BytesMut::new();
        msg.write(&mut buf);
        let parsed = CoapMessage::parse(&buf).unwrap();
        assert!(parsed.payload.is_empty());
        assert!(parsed.token.is_empty());
    }

    #[test]
    fn rejects_bad_version() {
        let buf = [0x00u8, 0x02, 0, 1];
        assert!(matches!(
            CoapMessage::parse(&buf),
            Err(ParsePacketError::InvalidField {
                field: "version",
                ..
            })
        ));
    }

    #[test]
    fn rejects_long_token_length() {
        let buf = [0x49u8, 0x02, 0, 1]; // version 1, TKL 9
        assert!(matches!(
            CoapMessage::parse(&buf),
            Err(ParsePacketError::InvalidField {
                field: "token_length",
                ..
            })
        ));
    }

    #[test]
    fn truncated_token() {
        let buf = [0x44u8, 0x02, 0, 1, 0xaa]; // TKL 4 but 1 byte present
        assert!(matches!(
            CoapMessage::parse(&buf),
            Err(ParsePacketError::Truncated { layer: "coap", .. })
        ));
    }

    #[test]
    #[should_panic]
    fn post_rejects_long_token() {
        let _ = CoapMessage::post(1, &[0u8; 9], Vec::new());
    }
}
