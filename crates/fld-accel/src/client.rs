//! The FLD-R client library and DPDK-cryptodev-style driver (paper § 7,
//! Table 4): the host-side code that lets existing applications use the
//! disaggregated ZUC accelerator as a drop-in cryptodev.
//!
//! *"Compatibility with cryptodev APIs allows replacing an existing local
//! accelerator (e.g., Intel QAT) with our disaggregated one without
//! software changes."*

use crate::zuc_accel::{CryptoOp, CryptoRequest, DecodeRequestError};

/// A cryptodev-style session: fixed key + bearer, per-op COUNT.
#[derive(Debug, Clone)]
pub struct CryptoSession {
    key: [u8; 16],
    bearer: u8,
    direction: u8,
}

/// An error completing a crypto operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CryptoClientError {
    /// The response payload length did not match the request.
    LengthMismatch {
        /// Expected bytes.
        expected: usize,
        /// Received bytes.
        got: usize,
    },
    /// The response could not be decoded.
    Decode(DecodeRequestError),
}

impl std::fmt::Display for CryptoClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoClientError::LengthMismatch { expected, got } => {
                write!(f, "response length {got} does not match request {expected}")
            }
            CryptoClientError::Decode(e) => write!(f, "response decode failed: {e}"),
        }
    }
}

impl std::error::Error for CryptoClientError {}

impl CryptoSession {
    /// Creates a session.
    pub fn new(key: [u8; 16], bearer: u8, direction: u8) -> Self {
        CryptoSession {
            key,
            bearer,
            direction,
        }
    }

    /// Builds the wire request for encrypting `plaintext` at `count`.
    pub fn encrypt_request(&self, count: u32, plaintext: &[u8]) -> Vec<u8> {
        CryptoRequest {
            op: CryptoOp::Eea3Cipher,
            key: self.key,
            count,
            bearer: self.bearer,
            direction: self.direction,
            payload: plaintext.to_vec(),
        }
        .encode()
    }

    /// Interprets a cipher response, returning the processed payload.
    ///
    /// # Errors
    ///
    /// Fails when the response does not match the request shape.
    pub fn complete_cipher(
        &self,
        request_payload_len: usize,
        response: &[u8],
    ) -> Result<Vec<u8>, CryptoClientError> {
        let resp = CryptoRequest::decode(response).map_err(CryptoClientError::Decode)?;
        if resp.payload.len() != request_payload_len {
            return Err(CryptoClientError::LengthMismatch {
                expected: request_payload_len,
                got: resp.payload.len(),
            });
        }
        Ok(resp.payload)
    }

    /// The server-side handler: what the accelerator does with a request
    /// buffer (decode → execute on a ZUC unit → encode the response).
    ///
    /// # Errors
    ///
    /// Fails on malformed requests.
    pub fn serve(request: &[u8]) -> Result<Vec<u8>, DecodeRequestError> {
        let req = CryptoRequest::decode(request)?;
        let result = req.execute();
        let response = CryptoRequest {
            payload: result,
            ..req
        };
        Ok(response.encode())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_crypto::zuc::eea3;

    #[test]
    fn end_to_end_encryption_matches_local_zuc() {
        // Client encrypts via the "remote" accelerator; the result must
        // equal a local 128-EEA3 computation — the cryptodev drop-in
        // compatibility claim.
        let key = [0x5au8; 16];
        let session = CryptoSession::new(key, 3, 1);
        let plaintext = b"user plane packet payload".to_vec();
        let request = session.encrypt_request(77, &plaintext);
        let response = CryptoSession::serve(&request).unwrap();
        let ciphertext = session.complete_cipher(plaintext.len(), &response).unwrap();

        let mut expect = plaintext.clone();
        eea3(&key, 77, 3, 1, expect.len() * 8, &mut expect);
        assert_eq!(ciphertext, expect);
        assert_ne!(ciphertext, plaintext);
    }

    #[test]
    fn round_trip_decrypts() {
        let session = CryptoSession::new([1u8; 16], 0, 0);
        let plaintext = b"hello lte".to_vec();
        let enc_resp = CryptoSession::serve(&session.encrypt_request(5, &plaintext)).unwrap();
        let ciphertext = session.complete_cipher(plaintext.len(), &enc_resp).unwrap();
        let dec_resp = CryptoSession::serve(&session.encrypt_request(5, &ciphertext)).unwrap();
        let decrypted = session.complete_cipher(plaintext.len(), &dec_resp).unwrap();
        assert_eq!(decrypted, plaintext);
    }

    #[test]
    fn integrity_request_round_trips() {
        let request = CryptoRequest {
            op: CryptoOp::Eia3Integrity,
            key: [2u8; 16],
            count: 9,
            bearer: 1,
            direction: 0,
            payload: b"signalling message".to_vec(),
        }
        .encode();
        let response = CryptoSession::serve(&request).unwrap();
        let resp = CryptoRequest::decode(&response).unwrap();
        assert_eq!(resp.payload.len(), 4, "EIA3 MAC is 32 bits");
    }

    #[test]
    fn malformed_responses_are_rejected() {
        let session = CryptoSession::new([0u8; 16], 0, 0);
        assert!(matches!(
            session.complete_cipher(10, &[0u8; 3]),
            Err(CryptoClientError::Decode(_))
        ));
        // Valid envelope, wrong length.
        let resp = CryptoSession::serve(&session.encrypt_request(1, b"abc")).unwrap();
        assert!(matches!(
            session.complete_cipher(99, &resp),
            Err(CryptoClientError::LengthMismatch {
                expected: 99,
                got: 3
            })
        ));
    }
}
