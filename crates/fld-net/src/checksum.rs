//! RFC 1071 Internet checksum, as offloaded by the NIC.

/// Incremental Internet-checksum accumulator.
///
/// # Examples
///
/// ```
/// use fld_net::checksum::Checksum;
///
/// let mut c = Checksum::new();
/// c.update(&[0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7]);
/// assert_eq!(c.finish(), 0x220d);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Checksum {
    sum: u32,
    /// A pending odd byte from the previous update call.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Checksum::default()
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, mut data: &[u8]) {
        if let Some(hi) = self.pending.take() {
            if let Some((&lo, rest)) = data.split_first() {
                self.add_word(u16::from_be_bytes([hi, lo]));
                data = rest;
            } else {
                self.pending = Some(hi);
                return;
            }
        }
        let mut chunks = data.chunks_exact(2);
        for w in &mut chunks {
            self.add_word(u16::from_be_bytes([w[0], w[1]]));
        }
        if let [last] = chunks.remainder() {
            self.pending = Some(*last);
        }
    }

    fn add_word(&mut self, w: u16) {
        self.sum += w as u32;
    }

    /// Feeds one big-endian 16-bit word.
    pub fn update_u16(&mut self, w: u16) {
        self.update(&w.to_be_bytes());
    }

    /// Finalizes and returns the one's-complement checksum.
    pub fn finish(mut self) -> u16 {
        if let Some(hi) = self.pending.take() {
            self.add_word(u16::from_be_bytes([hi, 0]));
        }
        let mut s = self.sum;
        while s > 0xffff {
            s = (s & 0xffff) + (s >> 16);
        }
        !(s as u16)
    }
}

/// One-shot checksum over a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rfc1071_example() {
        // Classic example from RFC 1071 §3.
        let data = [0x00u8, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), !0xddf2);
    }

    #[test]
    fn odd_length() {
        // Odd trailing byte is padded with zero.
        assert_eq!(checksum(&[0xab]), !0xab00);
    }

    #[test]
    fn verify_round_trip() {
        // An IPv4-like header: compute checksum, insert, verify.
        let mut hdr = vec![
            0x45u8, 0x00, 0x00, 0x54, 0x12, 0x34, 0x40, 0x00, 0x40, 0x01, 0x00, 0x00, 0x0a, 0x00,
            0x00, 0x01, 0x0a, 0x00, 0x00, 0x02,
        ];
        let c = checksum(&hdr);
        hdr[10..12].copy_from_slice(&c.to_be_bytes());
        // A buffer holding its own checksum sums to zero.
        assert_eq!(checksum(&hdr), 0);
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..255u8).collect();
        let mut inc = Checksum::new();
        // Split at an odd boundary to exercise the pending-byte path.
        inc.update(&data[..7]);
        inc.update(&data[7..100]);
        inc.update(&data[100..]);
        assert_eq!(inc.finish(), checksum(&data));
    }

    #[test]
    fn empty_is_all_ones() {
        assert_eq!(checksum(&[]), 0xffff);
    }

    #[test]
    fn word_helpers_match_bytes() {
        let mut a = Checksum::new();
        a.update_u16(0xdead);
        a.update_u16(0xbeef);
        a.update_u16(0x0102);
        let mut b = Checksum::new();
        b.update(&[0xde, 0xad, 0xbe, 0xef, 0x01, 0x02]);
        assert_eq!(a.finish(), b.finish());
    }
}
