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
    /// The sum of the 16-bit words so far, carries not yet folded: 2^48
    /// words (512 TiB) would be needed to overflow it.
    sum: u64,
    /// A pending odd byte from the previous update call.
    pending: Option<u8>,
}

impl Checksum {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Checksum::default()
    }

    /// Feeds bytes into the checksum.
    // Inlined, a fixed-size header's checksum unrolls to a few adds.
    #[inline]
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
        // A block of at most 2^16 words sums below 2^32, so it is summed in
        // a `u32`: the loop then vectorises over 32-bit lanes, twice as
        // many as over 64-bit ones. Only the last block can end odd.
        for block in data.chunks(1 << 17) {
            let mut words = block.chunks_exact(2);
            let block_sum: u32 = (&mut words)
                .map(|w| u32::from(u16::from_be_bytes([w[0], w[1]])))
                .sum();
            self.sum += u64::from(block_sum);
            if let [last] = words.remainder() {
                self.pending = Some(*last);
            }
        }
    }

    #[inline]
    fn add_word(&mut self, w: u16) {
        self.sum += u64::from(w);
    }

    /// Feeds one big-endian 16-bit word.
    pub fn update_u16(&mut self, w: u16) {
        self.update(&w.to_be_bytes());
    }

    /// Finalizes and returns the one's-complement checksum.
    #[inline]
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
#[inline]
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.update(data);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// RFC 1071's definition in one pass, one 16-bit word at a time: the
    /// oracle the incremental accumulator is held to.
    fn checksum_16bit_words(data: &[u8]) -> u16 {
        let mut sum: u64 = 0;
        for w in data.chunks(2) {
            sum += u64::from(u16::from_be_bytes([w[0], w.get(1).copied().unwrap_or(0)]));
        }
        while sum > 0xffff {
            sum = (sum & 0xffff) + (sum >> 16);
        }
        !(sum as u16)
    }

    #[test]
    fn a_long_run_of_ones_folds_every_carry() {
        // 70 000 words of 0xffff overflow a 32-bit sum; their one's-
        // complement sum is negative zero, so the checksum is 0.
        let data = [0xffu8; 140_000];
        assert_eq!(checksum_16bit_words(&data), 0x0000);
        assert_eq!(checksum(&data), 0x0000);
    }

    proptest! {
        /// Any data up to ~200 KiB, fed through `update` in pieces split
        /// at arbitrary (odd included) points, sums as the 16-bit oracle.
        #[test]
        fn split_updates_equal_the_16_bit_oracle(
            data in proptest::collection::vec(any::<u8>(), 0..200_000),
            fill in any::<Option<u8>>(),
            splits in proptest::collection::vec(any::<usize>(), 0..8),
        ) {
            // Runs of one byte reach the carries random bytes rarely do.
            let data = match fill {
                Some(b) => vec![b; data.len()],
                None => data,
            };
            let mut cuts: Vec<usize> = splits.iter().map(|s| s % (data.len() + 1)).collect();
            cuts.sort_unstable();
            let mut c = Checksum::new();
            let mut prev = 0;
            for cut in cuts.into_iter().chain([data.len()]) {
                c.update(&data[prev..cut]);
                prev = cut;
            }
            prop_assert_eq!(c.finish(), checksum_16bit_words(&data));
        }
    }

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
