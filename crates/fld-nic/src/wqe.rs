//! Work-queue elements (descriptors) and completion-queue entries, in both
//! the NIC's software format and FlexDriver's compressed internal format.
//!
//! Table 2b of the paper gives the sizes this module reproduces exactly:
//!
//! | structure              | software | FLD  |
//! |------------------------|----------|------|
//! | Tx descriptor          | 64 B     | 8 B  |
//! | Rx descriptor          | 16 B     | —    |
//! | Completion queue entry | 64 B     | 15 B |
//! | Producer index         | 4 B      | 4 B  |
//!
//! The sizes are defined once, in [`fld_pcie::model`], where the PCIe
//! and memory models read them too.
//!
//! The compression is possible because *"the FLD transmit queues always
//! point to on-chip buffers, which are addressed with few bits, whereas the
//! NIC interface accepts a 64-bit address"* (§ 5.2). FLD stores the
//! compressed form and expands it on the fly when the NIC reads the ring.

use bytes::{BufMut, BytesMut};
use fld_pcie::model::{FLD_CQE_SIZE, FLD_TX_DESC_SIZE, SW_TX_DESC_SIZE};

/// A transmit descriptor in the NIC's native (software-driver) layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TxDescriptor {
    /// Buffer address in the device's address space (64-bit in the NIC
    /// format; FLD buffers need far fewer bits).
    pub addr: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// Memory key (constant for FLD's single on-chip region).
    pub lkey: u32,
    /// Send queue this descriptor belongs to.
    pub queue: u16,
    /// Whether a completion should be signalled (selective signalling).
    pub signalled: bool,
    /// Offload flags requested (checksum, VLAN…), opaque to the model.
    pub offload_flags: u16,
}

/// FLD's compressed transmit descriptor: an on-chip buffer id, a length and
/// flags packed into eight bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompressedTxDescriptor {
    /// On-chip buffer identifier (16 bits suffice: the pool holds 4096
    /// descriptors in the prototype, § 6).
    pub buf_id: u16,
    /// Offset within the buffer in 64 B units (buffer sharing at fine
    /// granularity, § 5.2).
    pub offset64: u16,
    /// Payload length.
    pub len: u16,
    /// Queue bits + signalled flag.
    pub flags: u16,
}

impl CompressedTxDescriptor {
    /// Serializes to the 8-byte wire form FLD stores on-chip.
    pub fn to_bytes(self) -> [u8; FLD_TX_DESC_SIZE] {
        let mut out = [0u8; FLD_TX_DESC_SIZE];
        out[0..2].copy_from_slice(&self.buf_id.to_be_bytes());
        out[2..4].copy_from_slice(&self.offset64.to_be_bytes());
        out[4..6].copy_from_slice(&self.len.to_be_bytes());
        out[6..8].copy_from_slice(&self.flags.to_be_bytes());
        out
    }

    /// Parses the 8-byte form.
    pub fn from_bytes(b: &[u8; FLD_TX_DESC_SIZE]) -> Self {
        CompressedTxDescriptor {
            buf_id: u16::from_be_bytes([b[0], b[1]]),
            offset64: u16::from_be_bytes([b[2], b[3]]),
            len: u16::from_be_bytes([b[4], b[5]]),
            flags: u16::from_be_bytes([b[6], b[7]]),
        }
    }
}

/// Parameters of FLD's descriptor expansion: the fixed pieces of the NIC
/// descriptor that need not be stored per entry.
#[derive(Debug, Clone, Copy)]
pub struct ExpansionContext {
    /// Base device address of the on-chip buffer pool.
    pub pool_base: u64,
    /// Bytes per buffer slot.
    pub slot_bytes: u32,
    /// The single lkey covering the pool.
    pub lkey: u32,
}

impl Default for ExpansionContext {
    fn default() -> Self {
        ExpansionContext {
            pool_base: 0x1000_0000,
            slot_bytes: 64,
            lkey: 0x42,
        }
    }
}

impl ExpansionContext {
    /// Compresses a full descriptor into FLD's 8-byte form.
    ///
    /// # Panics
    ///
    /// Panics if the descriptor does not point into the pool or exceeds the
    /// compressed field widths — conditions the FLD hardware rules out by
    /// construction.
    pub fn compress(&self, d: &TxDescriptor) -> CompressedTxDescriptor {
        assert!(d.addr >= self.pool_base, "address below pool base");
        let off = d.addr - self.pool_base;
        let slot = off / self.slot_bytes as u64;
        let within = off % self.slot_bytes as u64;
        assert_eq!(within % 64, 0, "sub-64B offsets unsupported");
        assert!(slot <= u16::MAX as u64, "buffer id overflow");
        assert!(d.len <= u16::MAX as u32, "length overflow");
        assert_eq!(d.lkey, self.lkey, "foreign lkey");
        let flags = (d.queue & 0x7fff) | if d.signalled { 0x8000 } else { 0 };
        CompressedTxDescriptor {
            buf_id: slot as u16,
            offset64: (within / 64) as u16,
            len: d.len as u16,
            flags,
        }
    }

    /// Expands the compressed form back into the NIC's native descriptor —
    /// the operation FLD performs on the fly when the NIC reads its ring.
    pub fn expand(&self, c: &CompressedTxDescriptor) -> TxDescriptor {
        TxDescriptor {
            addr: self.pool_base
                + c.buf_id as u64 * self.slot_bytes as u64
                + c.offset64 as u64 * 64,
            len: c.len as u32,
            lkey: self.lkey,
            queue: c.flags & 0x7fff,
            signalled: c.flags & 0x8000 != 0,
            offload_flags: 0,
        }
    }

    /// Serializes an expanded descriptor into the NIC's 64-byte wire form
    /// (as the NIC's DMA engine would read it).
    pub fn expand_to_wire(&self, c: &CompressedTxDescriptor, out: &mut BytesMut) {
        let d = self.expand(c);
        let start = out.len();
        out.put_u64(d.addr);
        out.put_u32(d.len);
        out.put_u32(d.lkey);
        out.put_u16(d.queue);
        out.put_u8(d.signalled as u8);
        out.put_u16(d.offload_flags);
        out.resize(start + SW_TX_DESC_SIZE, 0);
    }
}

/// A completion-queue entry in the model's canonical form.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// Queue the completion belongs to.
    pub queue: u16,
    /// Completed descriptor index (Tx) or buffer offset (Rx).
    pub wqe_index: u16,
    /// Bytes transferred.
    pub byte_len: u32,
    /// RSS hash computed by the NIC (receive offload metadata, § 5.5).
    pub rss_hash: u32,
    /// Flow tag / tenant context id the eSwitch attached (§ 5.4).
    pub context_id: u32,
    /// Whether L3/L4 checksums validated.
    pub checksum_ok: bool,
    /// Whether this CQE ends a message (RDMA) or frame (Ethernet).
    pub end_of_message: bool,
}

impl Cqe {
    /// Serializes to FLD's compressed 15-byte form.
    pub fn to_compressed(self) -> [u8; FLD_CQE_SIZE] {
        let mut out = [0u8; FLD_CQE_SIZE];
        out[0..2].copy_from_slice(&self.queue.to_be_bytes());
        out[2..4].copy_from_slice(&self.wqe_index.to_be_bytes());
        out[4..7].copy_from_slice(&self.byte_len.to_be_bytes()[1..]);
        out[7..11].copy_from_slice(&self.rss_hash.to_be_bytes());
        out[11..14].copy_from_slice(&self.context_id.to_be_bytes()[1..]);
        out[14] = (self.checksum_ok as u8) | ((self.end_of_message as u8) << 1);
        out
    }

    /// Parses the compressed 15-byte form.
    pub fn from_compressed(b: &[u8; FLD_CQE_SIZE]) -> Self {
        Cqe {
            queue: u16::from_be_bytes([b[0], b[1]]),
            wqe_index: u16::from_be_bytes([b[2], b[3]]),
            byte_len: u32::from_be_bytes([0, b[4], b[5], b[6]]),
            rss_hash: u32::from_be_bytes([b[7], b[8], b[9], b[10]]),
            context_id: u32::from_be_bytes([0, b[11], b[12], b[13]]),
            checksum_ok: b[14] & 1 != 0,
            end_of_message: b[14] & 2 != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_pcie::model::{PRODUCER_INDEX_SIZE, SW_CQE_SIZE};

    fn ctx() -> ExpansionContext {
        ExpansionContext::default()
    }

    #[test]
    fn descriptor_compression_round_trips() {
        let c = ctx();
        let d = TxDescriptor {
            addr: c.pool_base + 37 * 64,
            len: 1500,
            lkey: c.lkey,
            queue: 1,
            signalled: true,
            offload_flags: 0,
        };
        let comp = c.compress(&d);
        assert_eq!(comp.to_bytes().len(), FLD_TX_DESC_SIZE);
        let back = c.expand(&comp);
        assert_eq!(back, d);
    }

    #[test]
    fn compressed_bytes_round_trip() {
        let comp = CompressedTxDescriptor {
            buf_id: 300,
            offset64: 2,
            len: 999,
            flags: 0x8001,
        };
        assert_eq!(CompressedTxDescriptor::from_bytes(&comp.to_bytes()), comp);
    }

    #[test]
    fn wire_expansion_is_64_bytes() {
        let c = ctx();
        let comp = CompressedTxDescriptor {
            buf_id: 1,
            offset64: 0,
            len: 64,
            flags: 0,
        };
        let mut buf = BytesMut::new();
        c.expand_to_wire(&comp, &mut buf);
        assert_eq!(buf.len(), SW_TX_DESC_SIZE);
        // Address field decodes back.
        let addr = u64::from_be_bytes(buf[0..8].try_into().unwrap());
        assert_eq!(addr, c.pool_base + 64);
    }

    #[test]
    #[should_panic]
    fn compress_rejects_foreign_address() {
        let c = ctx();
        let d = TxDescriptor {
            addr: 0, // below pool base
            len: 64,
            lkey: c.lkey,
            queue: 0,
            signalled: false,
            offload_flags: 0,
        };
        let _ = c.compress(&d);
    }

    #[test]
    fn cqe_round_trips() {
        let cqe = Cqe {
            queue: 7,
            wqe_index: 0x1234,
            byte_len: 9000,
            rss_hash: 0xdeadbeef,
            context_id: 0x00aabbcc,
            checksum_ok: true,
            end_of_message: false,
        };
        let bytes = cqe.to_compressed();
        assert_eq!(bytes.len(), FLD_CQE_SIZE);
        assert_eq!(Cqe::from_compressed(&bytes), cqe);
    }

    #[test]
    fn shrink_ratios_match_table_2b() {
        assert_eq!(SW_TX_DESC_SIZE / FLD_TX_DESC_SIZE, 8);
        assert!(SW_CQE_SIZE as f64 / FLD_CQE_SIZE as f64 > 4.0);
        assert_eq!(PRODUCER_INDEX_SIZE, 4);
    }
}
