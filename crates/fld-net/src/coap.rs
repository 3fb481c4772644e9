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
    /// Encoded options, walked by [`CoapMessage::parse`] but not decoded.
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
    /// Options are walked, not decoded: everything between the token and
    /// the payload marker is preserved verbatim in `options`.
    ///
    /// # Errors
    ///
    /// Returns an error on truncation (an option included), a wrong
    /// protocol version, an over-long token length field, a reserved
    /// option nibble, or a payload marker with no payload after it.
    pub fn parse(data: &[u8]) -> Result<CoapMessage, ParsePacketError> {
        if data.len() < 4 {
            return Err(truncated(4, data.len()));
        }
        let version = data[0] >> 6;
        if version != 1 {
            return Err(invalid("version", version as u64));
        }
        let tkl = (data[0] & 0x0f) as usize;
        if tkl > 8 {
            return Err(invalid("token_length", tkl as u64));
        }
        if data.len() < 4 + tkl {
            return Err(truncated(4 + tkl, data.len()));
        }
        let mtype = CoapType::from_bits(data[0] >> 4);
        let code = data[1];
        let message_id = u16::from_be_bytes([data[2], data[3]]);
        let token = data[4..4 + tkl].to_vec();
        let options_end = options_end(data, 4 + tkl)?;
        let payload = match data.get(options_end + 1..) {
            Some([]) => return Err(invalid("payload_marker", 0xff)),
            Some(payload) => payload.to_vec(),
            None => Vec::new(),
        };
        Ok(CoapMessage {
            mtype,
            code,
            message_id,
            token,
            options: data[4 + tkl..options_end].to_vec(),
            payload,
        })
    }
}

/// The offset of the payload marker, or `data.len()` when there is none,
/// found by walking the options from `at` as RFC 7252 § 3.1 lays them
/// out: a byte of delta and length nibbles, where 13 and 14 take one and
/// two extension bytes (delta's first) and 15 is reserved unless the
/// whole byte is the `0xFF` marker, then the value.
fn options_end(data: &[u8], mut at: usize) -> Result<usize, ParsePacketError> {
    while let Some(&byte) = data.get(at) {
        if byte == 0xff {
            return Ok(at);
        }
        at += 1;
        // Both fields are read alike; the length, read last, is kept.
        let mut len = 0;
        for (field, nibble) in [("option_delta", byte >> 4), ("option_length", byte & 0x0f)] {
            let (base, extension) = match nibble {
                13 => (13, 1),
                14 => (269, 2),
                15 => return Err(invalid(field, 15)),
                n => (n as usize, 0),
            };
            let ext = data
                .get(at..at + extension)
                .ok_or_else(|| truncated(at + extension, data.len()))?;
            len = base + ext.iter().fold(0, |v, &b| v << 8 | b as usize);
            at += extension;
        }
        at += len;
        if at > data.len() {
            return Err(truncated(at, data.len()));
        }
    }
    Ok(at)
}

fn truncated(needed: usize, available: usize) -> ParsePacketError {
    ParsePacketError::Truncated {
        layer: "coap",
        needed,
        available,
    }
}

fn invalid(field: &'static str, value: u64) -> ParsePacketError {
    ParsePacketError::InvalidField {
        layer: "coap",
        field,
        value,
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

    /// RFC 7252's own example shape: CON GET, MID 0x7d34, no token,
    /// Uri-Path "temperature" (delta 11, length 11: one byte `0xbb`).
    #[test]
    fn get_with_uri_path_matches_the_spec_bytes() {
        let wire = [
            0x40, 0x01, 0x7d, 0x34, 0xbb, b't', b'e', b'm', b'p', b'e', b'r', b'a', b't', b'u',
            b'r', b'e',
        ];
        let msg = CoapMessage {
            mtype: CoapType::Confirmable,
            code: 0x01,
            message_id: 0x7d34,
            token: Vec::new(),
            options: wire[4..].to_vec(),
            payload: Vec::new(),
        };
        let mut buf = BytesMut::new();
        msg.write(&mut buf);
        assert_eq!(&buf[..], &wire);
        assert_eq!(CoapMessage::parse(&wire).unwrap(), msg);
    }

    /// Extended forms: Proxy-Uri (35) takes a one-byte delta extension
    /// and a one-byte length extension; a 300-byte value a two-byte one.
    #[test]
    fn extended_option_forms_round_trip() {
        let uri = b"coap://sensor.example/temperature";
        let mut options = vec![0xdd, 35 - 13, (uri.len() - 13) as u8];
        options.extend_from_slice(uri);
        options.extend_from_slice(&[0x0e, 0x00, (300 - 269) as u8]);
        options.extend_from_slice(&[0xff; 300]);
        let mut msg = CoapMessage::post(9, b"t", b"body".to_vec());
        msg.options = options;
        let mut buf = BytesMut::new();
        msg.write(&mut buf);
        assert_eq!(CoapMessage::parse(&buf).unwrap(), msg);
    }

    /// An option value may hold `0xff`; only an option header can be
    /// the payload marker.
    #[test]
    fn an_option_value_byte_is_no_payload_marker() {
        let mut msg = CoapMessage::post(3, &[], b"x".to_vec());
        msg.options = vec![0x41, 0xff]; // ETag, one byte 0xff
        let mut buf = BytesMut::new();
        msg.write(&mut buf);
        assert_eq!(CoapMessage::parse(&buf).unwrap(), msg);
    }

    #[test]
    fn rejects_malformed_options() {
        let parse =
            |options: &[u8]| CoapMessage::parse(&[&[0x40, 0x01, 0, 1][..], options].concat());
        // Nibble 15 is reserved outside the marker byte.
        assert_eq!(parse(&[0xf1, 0]), Err(invalid("option_delta", 15)));
        assert_eq!(parse(&[0x1f]), Err(invalid("option_length", 15)));
        // A value, or an extension, that runs past the end.
        assert_eq!(parse(&[0x13, 1, 2]), Err(truncated(8, 7)));
        assert_eq!(parse(&[0x1e, 0]), Err(truncated(7, 6)));
        // A marker must be followed by a payload.
        assert_eq!(parse(&[0xff]), Err(invalid("payload_marker", 0xff)));
    }

    #[test]
    #[should_panic]
    fn post_rejects_long_token() {
        let _ = CoapMessage::post(1, &[0u8; 9], Vec::new());
    }
}
