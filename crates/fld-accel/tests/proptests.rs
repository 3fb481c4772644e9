//! Property tests for the ZUC request protocol decoder, which reads bytes
//! arriving over the network.

use proptest::prelude::*;

use fld_accel::zuc_accel::{CryptoRequest, DecodeRequestError, REQUEST_HEADER_BYTES};

proptest! {
    /// The decoder never panics on arbitrary bytes (the op code and the
    /// declared payload length are steered into range in most cases, so
    /// the `Ok` path is exercised). A request that decodes consumes
    /// exactly the 64 B header: its payload starts right after it and
    /// runs for the declared length, cut short at the end of the buffer.
    #[test]
    fn decode_is_total(
        data in proptest::collection::vec(any::<u8>(), 0..160),
        op in 0u8..4,
        declared: Option<u8>,
    ) {
        let mut data = data;
        if let Some(first) = data.first_mut() {
            *first = op;
        }
        if let (Some(len), Some(field)) = (declared, data.get_mut(24..28)) {
            field.copy_from_slice(&u32::from(len).to_be_bytes());
        }
        match CryptoRequest::decode(&data) {
            Ok(req) => {
                let len = u32::from_be_bytes(data[24..28].try_into().unwrap()) as usize;
                let rest = &data[REQUEST_HEADER_BYTES..];
                prop_assert_eq!(&req.payload[..], &rest[..len.min(rest.len())]);
                prop_assert_eq!(req.count.to_be_bytes(), data[4..8]);
                prop_assert_eq!(req.key, data[8..24]);
            }
            Err(DecodeRequestError::Truncated) => {
                prop_assert!(data.len() < REQUEST_HEADER_BYTES);
            }
            Err(DecodeRequestError::BadOp(code)) => {
                prop_assert!(code != 1 && code != 2, "op {} is known", code);
            }
        }
    }
}
