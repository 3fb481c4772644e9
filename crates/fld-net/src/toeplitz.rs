//! Toeplitz hashing for receive-side scaling (RSS) — the NIC offload whose
//! loss on fragmented traffic motivates the defragmentation accelerator
//! (§ 8.2.2: "Without RSS, most packets default to a single receiver-core").

use crate::flow::FlowKey;

/// The de-facto standard 40-byte RSS key published in the Microsoft RSS
/// specification and shipped as the default by most NIC drivers.
pub const MICROSOFT_RSS_KEY: [u8; 40] = [
    0x6d, 0x5a, 0x56, 0xda, 0x25, 0x5b, 0x0e, 0xc2, 0x41, 0x67, 0x25, 0x3d, 0x43, 0xa3, 0x8f, 0xb0,
    0xd0, 0xca, 0x2b, 0xcb, 0xae, 0x7b, 0x30, 0xb4, 0x77, 0xcb, 0x2d, 0xa3, 0x80, 0x30, 0xf2, 0x0c,
    0x6a, 0x42, 0xb7, 0x3b, 0xbe, 0xac, 0x01, 0xfa,
];

/// Input bytes that can meet key bits: input bit `i` is hashed with key
/// bits `i .. i + 32`, so only the first 320 input bits (40 bytes) meet
/// any, and the last 32 of them only the key's tail.
const KEY_REACH: usize = 40;

/// Per input byte, two 16-entry tables: `t[b][0][n]` is what a high
/// nibble `n` in input byte `b` XORs into the hash, `t[b][1][n]` the same
/// for its low nibble.
type NibbleTables = [[[u32; 16]; 2]; KEY_REACH];

/// The 32-bit key window input bit `i` is hashed with: key bits
/// `i .. i + 32`, zeros past the key's end.
const fn window(key: &[u8; 40], i: usize) -> u32 {
    let mut bytes = [0u8; 8];
    let mut j = 0;
    while j < 5 && i / 8 + j < key.len() {
        bytes[j] = key[i / 8 + j];
        j += 1;
    }
    (u64::from_be_bytes(bytes) << (i % 8) >> 32) as u32
}

/// The nibble tables of `key`: a hash is then one lookup per input
/// nibble instead of one step per input bit.
const fn nibble_tables(key: &[u8; 40]) -> NibbleTables {
    let mut t = [[[0u32; 16]; 2]; KEY_REACH];
    let mut byte = 0;
    while byte < KEY_REACH {
        let mut half = 0;
        while half < 2 {
            let mut n = 0;
            while n < 16 {
                let mut h = 0;
                let mut bit = 0;
                while bit < 4 {
                    if n & (8 >> bit) != 0 {
                        h ^= window(key, byte * 8 + half * 4 + bit);
                    }
                    bit += 1;
                }
                t[byte][half][n] = h;
                n += 1;
            }
            half += 1;
        }
        byte += 1;
    }
    t
}

/// The default key's tables, built at compile time: the RSS context every
/// NIC builds shares them and allocates nothing.
static MICROSOFT_TABLES: NibbleTables = nibble_tables(&MICROSOFT_RSS_KEY);

/// Hashes `input` with a key's nibble tables. Only its first 40 bytes
/// contribute: input bit `i` meets key bits `i .. i + 32`, so bits
/// 288 – 319 meet only part of the key's last 32 bits and bits from 320 on
/// meet none.
fn table_hash(tables: &NibbleTables, input: &[u8]) -> u32 {
    input.iter().zip(tables).fold(0, |h, (&b, [hi, lo])| {
        h ^ hi[usize::from(b >> 4)] ^ lo[usize::from(b & 0x0f)]
    })
}

/// A Toeplitz hasher over the Microsoft RSS key, [`MICROSOFT_RSS_KEY`].
///
/// # Examples
///
/// ```
/// use fld_net::toeplitz::Toeplitz;
///
/// let t = Toeplitz;
/// // Verification vector from the Microsoft RSS specification:
/// // 199.92.111.2:14230 -> 65.69.140.83:4739 hashes to 0xc626b0ea.
/// let input = [
///     199, 92, 111, 2,      // source ip
///     65, 69, 140, 83,      // destination ip
///     0x37, 0x96,           // source port 14230
///     0x12, 0x83,           // destination port 4739
/// ];
/// assert_eq!(t.hash(&input), 0xc626b0ea);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Toeplitz;

impl Toeplitz {
    /// Hashes an arbitrary input; only its first 40 bytes contribute.
    pub fn hash(&self, input: &[u8]) -> u32 {
        table_hash(&MICROSOFT_TABLES, input)
    }

    /// Hashes the 4-tuple of a flow key (the standard TCP/UDP RSS input:
    /// source IP, destination IP, source port, destination port).
    pub fn hash_flow(&self, flow: &FlowKey) -> u32 {
        let mut input = [0u8; 12];
        input[0..4].copy_from_slice(&flow.src.0);
        input[4..8].copy_from_slice(&flow.dst.0);
        input[8..10].copy_from_slice(&flow.src_port.to_be_bytes());
        input[10..12].copy_from_slice(&flow.dst_port.to_be_bytes());
        self.hash(&input)
    }

    /// Hashes only the IP pair (the 2-tuple fallback the NIC uses for
    /// non-first fragments, where L4 ports are unavailable).
    pub fn hash_ip_pair(&self, flow: &FlowKey) -> u32 {
        let mut input = [0u8; 8];
        input[0..4].copy_from_slice(&flow.src.0);
        input[4..8].copy_from_slice(&flow.dst.0);
        self.hash(&input)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ipv4::Ipv4Addr;
    use proptest::prelude::*;

    /// The definition, one input bit at a time: a 32-bit window slides
    /// along the key one bit per input bit (zeros past the key's end) and
    /// every set input bit XORs it into the result. The oracle the tables
    /// are held to.
    fn bitwise_hash(key: &[u8; 40], input: &[u8]) -> u32 {
        let mut result: u32 = 0;
        let mut window = u32::from_be_bytes([key[0], key[1], key[2], key[3]]);
        let mut next_key_bit = 32usize;
        for &byte in input {
            for bit in (0..8).rev() {
                if byte >> bit & 1 == 1 {
                    result ^= window;
                }
                let incoming = if next_key_bit < key.len() * 8 {
                    (key[next_key_bit / 8] >> (7 - next_key_bit % 8)) & 1
                } else {
                    0
                };
                window = (window << 1) | incoming as u32;
                next_key_bit += 1;
            }
        }
        result
    }

    proptest! {
        /// Every input of 0 – 48 bytes hashes as the bitwise oracle, under
        /// the default key (the hasher's compile-time tables) and under
        /// any other (tables built here from the key).
        #[test]
        fn tables_match_the_bitwise_oracle(
            input in proptest::collection::vec(any::<u8>(), 0..=48),
            key in proptest::collection::vec(any::<u8>(), 40),
        ) {
            let key: [u8; 40] = key.try_into().unwrap();
            for len in 0..=input.len() {
                let input = &input[..len];
                prop_assert_eq!(
                    Toeplitz.hash(input),
                    bitwise_hash(&MICROSOFT_RSS_KEY, input)
                );
                for key in [key, [0xff; 40]] {
                    prop_assert_eq!(
                        table_hash(&nibble_tables(&key), input),
                        bitwise_hash(&key, input)
                    );
                }
            }
        }
    }

    #[test]
    fn the_whole_key_reaches_the_first_40_bytes_and_no_further() {
        let key = [0xff; 40];
        let tables = nibble_tables(&key);
        // Byte 39's low bit (input bit 319) meets only the key's last
        // bit, at the top of its window.
        let mut input = [0u8; 41];
        input[39] = 1;
        assert_eq!(table_hash(&tables, &input), 0x8000_0000);
        assert_eq!(bitwise_hash(&key, &input), 0x8000_0000);
        // Byte 40 meets none.
        input = [0u8; 41];
        input[40] = 0xff;
        assert_eq!(table_hash(&tables, &input), 0);
        assert_eq!(bitwise_hash(&key, &input), 0);
    }

    /// IPv4 verification: the Microsoft RSS spec vector for
    /// 199.92.111.2:14230 -> 65.69.140.83:4739, plus a fixed regression
    /// vector computed from this implementation.
    #[test]
    #[allow(clippy::type_complexity)]
    fn microsoft_verification_suite() {
        let t = Toeplitz;
        let cases: [([u8; 4], [u8; 4], u16, u16, u32, u32); 2] = [
            (
                [199, 92, 111, 2],
                [65, 69, 140, 83],
                14230,
                4739,
                0xc626b0ea,
                0xd718262a,
            ),
            // Regression vector (self-computed, pins the implementation).
            (
                [66, 9, 149, 163],
                [161, 142, 100, 80],
                2794,
                1766,
                0x22b3a9e2,
                0x4141e758,
            ),
        ];
        for (src, dst, sp, dp, want4, want2) in cases {
            let flow = FlowKey {
                src: Ipv4Addr(src),
                dst: Ipv4Addr(dst),
                src_port: sp,
                dst_port: dp,
                proto: 6,
            };
            assert_eq!(t.hash_flow(&flow), want4, "4-tuple for {src:?}");
            assert_eq!(t.hash_ip_pair(&flow), want2, "2-tuple for {src:?}");
        }
    }

    #[test]
    fn hash_is_deterministic() {
        let t = Toeplitz;
        assert_eq!(t.hash(b"abcdef"), t.hash(b"abcdef"));
    }

    #[test]
    fn empty_input_hashes_to_zero() {
        assert_eq!(Toeplitz.hash(&[]), 0);
    }

    #[test]
    fn different_ports_spread() {
        // The property RSS relies on: varying the source port moves flows
        // across buckets.
        let t = Toeplitz;
        let mut buckets = std::collections::HashSet::new();
        for port in 1000..1064u16 {
            let flow = FlowKey {
                src: Ipv4Addr::new(10, 0, 0, 1),
                dst: Ipv4Addr::new(10, 0, 0, 2),
                src_port: port,
                dst_port: 5201,
                proto: 6,
            };
            buckets.insert(t.hash_flow(&flow) % 16);
        }
        assert!(buckets.len() >= 10, "only {} buckets hit", buckets.len());
    }
}
