//! The FLD hardware module model: Tx/Rx ring managers, on-chip buffer
//! pools, the cuckoo-backed address-translation layer and the credit-based
//! accelerator interface (paper §§ 5.1, 5.2, 5.5).
//!
//! The prototype configuration (§ 6): two transmit queues, 256 KiB receive
//! and transmit buffers, a shared pool of 4096 descriptors.

use fld_cuckoo::CuckooTable;
use fld_nic::wqe::{CompressedTxDescriptor, ExpansionContext, TxDescriptor};
use fld_sim::time::SimTime;

/// Static FLD configuration.
#[derive(Debug, Clone, Copy)]
pub struct FldConfig {
    /// Number of transmit queues.
    pub tx_queues: u16,
    /// Transmit data-buffer bytes (on-chip).
    pub tx_buffer_bytes: u32,
    /// Receive data-buffer bytes (on-chip).
    pub rx_buffer_bytes: u32,
    /// Shared descriptor pool entries.
    pub desc_pool: usize,
    /// Buffer allocation granularity (bytes).
    pub slot_bytes: u32,
}

impl Default for FldConfig {
    /// The § 6 prototype configuration.
    fn default() -> Self {
        FldConfig {
            tx_queues: 2,
            tx_buffer_bytes: 256 * 1024,
            rx_buffer_bytes: 256 * 1024,
            desc_pool: 4096,
            slot_bytes: 64,
        }
    }
}

/// Why a transmit enqueue was refused — surfaced to the accelerator as
/// missing credits (§ 5.5: "per-queue backpressure … in the form of a
/// credit interface").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxBackpressure {
    /// No descriptor credits left.
    NoDescriptors,
    /// No data-buffer credits left.
    NoBufferSpace,
    /// The translation table stalled (stash full) — the § 5.2 pipeline
    /// stall, rendered impossible in practice by the doubled table.
    TranslationStall,
}

/// Handle for an in-flight transmit packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TxSlot {
    /// Pool descriptor id.
    pub desc_id: u16,
    /// Queue the packet was enqueued on.
    pub queue: u16,
    /// Virtual ring position of the descriptor.
    pub pos: u32,
    /// Packet length (for credit recycling).
    pub len: u32,
}

/// Signal a completion every this many descriptors (§ 6 selective
/// completion signalling); the NIC acknowledges the whole prefix at once.
const SIGNAL_INTERVAL: u32 = 16;

/// Enqueues coalesced per doorbell MMIO (§ 6 WQE-by-MMIO batching).
const DOORBELL_BATCH: u32 = 8;

/// The Tx ring manager: shared descriptor pool virtualized by the cuckoo
/// translation table, shared data buffer, per-queue credit accounting.
#[derive(Debug)]
pub struct FldTx {
    config: FldConfig,
    expansion: ExpansionContext,
    /// Virtual ring position -> pool descriptor, via the real 4-bank cuckoo
    /// structure (key = (queue, ring index)).
    translation: CuckooTable<(u16, u32), CompressedTxDescriptor>,
    /// Free descriptor ids.
    free_descs: Vec<u16>,
    /// Bytes of data buffer in use.
    buffer_used: u32,
    /// Per-queue ring producer positions.
    ring_pos: Vec<u32>,
    /// Per-queue consumer positions (completed prefix).
    consumer_pos: Vec<u32>,
    /// Per-queue bytes in flight (credit accounting).
    queue_bytes: Vec<u32>,
    pending_doorbell: u32,
    mmio_writes: u64,
    signalled: u64,
    enqueued: u64,
    completed: u64,
}

impl FldTx {
    /// Creates the Tx side for `config`.
    pub fn new(config: FldConfig) -> Self {
        FldTx {
            config,
            expansion: ExpansionContext {
                slot_bytes: config.slot_bytes,
                ..ExpansionContext::default()
            },
            translation: CuckooTable::with_capacity(config.desc_pool),
            free_descs: (0..config.desc_pool as u16).rev().collect(),
            buffer_used: 0,
            ring_pos: vec![0; config.tx_queues as usize],
            consumer_pos: vec![0; config.tx_queues as usize],
            queue_bytes: vec![0; config.tx_queues as usize],
            pending_doorbell: 0,
            mmio_writes: 0,
            signalled: 0,
            enqueued: 0,
            completed: 0,
        }
    }

    /// Doorbell MMIO writes issued so far.
    pub fn mmio_writes(&self) -> u64 {
        self.mmio_writes
    }

    /// Descriptors enqueued with the signalled bit set.
    pub fn signalled_count(&self) -> u64 {
        self.signalled
    }

    /// Rounds a length up to buffer-slot granularity.
    fn slots_bytes(&self, len: u32) -> u32 {
        len.div_ceil(self.config.slot_bytes) * self.config.slot_bytes
    }

    /// Remaining descriptor credits.
    pub fn descriptor_credits(&self) -> usize {
        self.free_descs.len()
    }

    /// Remaining data-buffer credits in bytes.
    pub fn buffer_credits(&self) -> u32 {
        self.config.tx_buffer_bytes - self.buffer_used
    }

    /// Enqueues a packet of `len` bytes on `queue`.
    ///
    /// # Errors
    ///
    /// Returns the specific exhausted resource on backpressure.
    ///
    /// # Panics
    ///
    /// Panics if the queue does not exist.
    pub fn enqueue(&mut self, queue: u16, len: u32) -> Result<TxSlot, TxBackpressure> {
        assert!((queue as usize) < self.ring_pos.len(), "no such queue");
        let need = self.slots_bytes(len);
        if self.free_descs.is_empty() {
            return Err(TxBackpressure::NoDescriptors);
        }
        if need > self.buffer_credits() {
            return Err(TxBackpressure::NoBufferSpace);
        }
        let desc_id = *self.free_descs.last().expect("checked non-empty");
        let pos = self.ring_pos[queue as usize];
        // Selective completion signalling: only every Nth descriptor asks
        // the NIC for a completion; the rest complete implicitly with it.
        let signalled = pos % SIGNAL_INTERVAL == SIGNAL_INTERVAL - 1;
        let desc = self.expansion.compress(&TxDescriptor {
            addr: self.expansion.pool_base + desc_id as u64 * self.config.slot_bytes as u64,
            len,
            lkey: self.expansion.lkey,
            queue,
            signalled,
            offload_flags: 0,
        });
        // `(queue, pos)` is absent, as `insert` requires: a `u32` position
        // cannot wrap onto a live one with at most `desc_pool` in flight.
        if !self.translation.insert((queue, pos), desc).is_inserted() {
            return Err(TxBackpressure::TranslationStall);
        }
        self.free_descs.pop();
        self.ring_pos[queue as usize] = pos.wrapping_add(1);
        self.buffer_used += need;
        self.queue_bytes[queue as usize] += need;
        self.enqueued += 1;
        if signalled {
            self.signalled += 1;
        }
        // Doorbell coalescing: ring once per batch (and the system may
        // force a ring via `flush_doorbell` on idle).
        self.pending_doorbell += 1;
        if self.pending_doorbell >= DOORBELL_BATCH {
            self.pending_doorbell = 0;
            self.mmio_writes += 1;
        }
        Ok(TxSlot {
            desc_id,
            queue,
            pos,
            len,
        })
    }

    /// Rings the doorbell for any coalesced-but-unannounced descriptors
    /// (called when the submission stream goes idle).
    pub fn flush_doorbell(&mut self) {
        if self.pending_doorbell > 0 {
            self.pending_doorbell = 0;
            self.mmio_writes += 1;
        }
    }

    /// Handles a (possibly coalesced) NIC completion: everything on `queue`
    /// up to and including ring position `pos` is done. Returns the number
    /// of descriptors recycled — this is how selective signalling recycles
    /// 16 descriptors with one 15-byte completion write.
    ///
    /// # Panics
    ///
    /// Panics if any position in the prefix is missing (double completion).
    pub fn complete_up_to(&mut self, queue: u16, pos: u32) -> u32 {
        let mut recycled = 0;
        while self.consumer_pos[queue as usize] <= pos {
            let p = self.consumer_pos[queue as usize];
            let c = *self
                .translation
                .get(&(queue, p))
                .expect("completion for a position never enqueued");
            let slot = TxSlot {
                desc_id: c.buf_id,
                queue,
                pos: p,
                len: c.len as u32,
            };
            self.complete(slot);
            self.consumer_pos[queue as usize] = p + 1;
            recycled += 1;
        }
        recycled
    }

    /// Handles a NIC read of the descriptor at `(queue, pos)`: the
    /// on-the-fly expansion FLD performs instead of storing NIC-format
    /// rings (§ 5.2).
    pub fn read_descriptor(&self, queue: u16, pos: u32) -> Option<TxDescriptor> {
        self.translation
            .get(&(queue, pos))
            .map(|c| self.expansion.expand(c))
    }

    /// Completes a transmitted packet: recycles the descriptor and buffer,
    /// returning credits (the ring manager's reference-count recycling,
    /// § 5.1).
    ///
    /// # Panics
    ///
    /// Panics if the slot was not in flight (double completion).
    pub fn complete(&mut self, slot: TxSlot) {
        let removed = self.translation.remove(&(slot.queue, slot.pos));
        assert!(removed.is_some(), "double completion of {slot:?}");
        let need = self.slots_bytes(slot.len);
        self.buffer_used -= need;
        self.queue_bytes[slot.queue as usize] -= need;
        self.free_descs.push(slot.desc_id);
        self.completed += 1;
    }

    /// Packets enqueued since creation.
    pub fn enqueued(&self) -> u64 {
        self.enqueued
    }

    /// Packets completed since creation.
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Data-buffer occupancy as a fraction of capacity (flight-recorder
    /// probe; audited to stay within `0..=1`).
    pub fn occupancy(&self) -> f64 {
        self.buffer_used as f64 / self.config.tx_buffer_bytes as f64
    }

    /// Size of the shared descriptor pool.
    pub fn descriptor_pool(&self) -> u64 {
        self.config.desc_pool as u64
    }

    /// Descriptors currently held by in-flight packets. With
    /// [`FldTx::enqueued`] and [`FldTx::completed`] this closes the
    /// conservation law `enqueued == completed + in_use`.
    pub fn descriptors_in_use(&self) -> u64 {
        self.config.desc_pool as u64 - self.free_descs.len() as u64
    }

    /// Data-buffer bytes currently in use.
    pub fn buffer_used(&self) -> u64 {
        self.buffer_used as u64
    }

    /// Sum of per-queue in-flight bytes; equals [`FldTx::buffer_used`]
    /// when per-queue accounting is consistent (audited).
    pub fn queue_bytes_total(&self) -> u64 {
        self.queue_bytes.iter().map(|&b| b as u64).sum()
    }

    /// Registers the Tx module's telemetry under `prefix`
    /// (`"{prefix}.mmio_writes"`, `"{prefix}.occupancy"`, …).
    pub fn export_metrics(&self, prefix: &str, registry: &mut fld_sim::metrics::MetricsRegistry) {
        registry.counter(format!("{prefix}.enqueued"), self.enqueued);
        registry.counter(format!("{prefix}.completed"), self.completed);
        registry.counter(format!("{prefix}.mmio_writes"), self.mmio_writes);
        registry.counter(format!("{prefix}.signalled"), self.signalled);
        registry.gauge(
            format!("{prefix}.occupancy"),
            self.buffer_used as f64 / self.config.tx_buffer_bytes as f64,
        );
        registry.counter(
            format!("{prefix}.descriptor_credits"),
            self.free_descs.len() as u64,
        );
    }
}

/// The Rx side: an on-chip buffer pool filled by NIC DMA writes and drained
/// by the accelerator. The accelerator may not backpressure FLD (§ 5.5);
/// when the pool is full, arriving packets are dropped, exactly as the
/// paper warns ("the NIC would drop incoming packets").
#[derive(Debug)]
pub struct FldRx {
    config: FldConfig,
    used: u32,
    received: u64,
    dropped: u64,
}

impl FldRx {
    /// Creates the Rx side for `config`.
    pub fn new(config: FldConfig) -> Self {
        FldRx {
            config,
            used: 0,
            received: 0,
            dropped: 0,
        }
    }

    /// Free receive-buffer bytes.
    pub fn free_bytes(&self) -> u32 {
        self.config.rx_buffer_bytes - self.used
    }

    /// Offers an arriving packet; `true` if buffered, `false` if dropped.
    pub fn offer(&mut self, len: u32) -> bool {
        let need = len.div_ceil(self.config.slot_bytes) * self.config.slot_bytes;
        if need <= self.free_bytes() {
            self.used += need;
            self.received += 1;
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// Releases a packet's buffer after the accelerator consumed it.
    ///
    /// # Panics
    ///
    /// Panics on release of more bytes than are held.
    pub fn release(&mut self, len: u32) {
        let need = len.div_ceil(self.config.slot_bytes) * self.config.slot_bytes;
        assert!(need <= self.used, "release underflow");
        self.used -= need;
    }

    /// Receive-buffer occupancy as a fraction of capacity
    /// (flight-recorder probe; audited to stay within `0..=1`).
    pub fn occupancy(&self) -> f64 {
        self.used as f64 / self.config.rx_buffer_bytes as f64
    }

    /// Registers the Rx module's telemetry under `prefix`
    /// (`"{prefix}.dropped"`, `"{prefix}.occupancy"`, …).
    pub fn export_metrics(&self, prefix: &str, registry: &mut fld_sim::metrics::MetricsRegistry) {
        registry.counter(format!("{prefix}.received"), self.received);
        registry.counter(format!("{prefix}.dropped"), self.dropped);
        registry.gauge(
            format!("{prefix}.occupancy"),
            self.used as f64 / self.config.rx_buffer_bytes as f64,
        );
    }
}

/// The complete FLD device: Tx and Rx modules sharing one configuration.
#[derive(Debug)]
pub struct FldDevice {
    /// Transmit module.
    pub tx: FldTx,
    /// Receive module.
    pub rx: FldRx,
}

impl FldDevice {
    /// Creates a device with the § 6 prototype configuration.
    pub fn new(config: FldConfig) -> Self {
        FldDevice {
            tx: FldTx::new(config),
            rx: FldRx::new(config),
        }
    }

    /// Registers both modules' telemetry under `"{prefix}.tx_ring"` and
    /// `"{prefix}.rx_ring"`.
    pub fn export_metrics(&self, prefix: &str, registry: &mut fld_sim::metrics::MetricsRegistry) {
        self.tx
            .export_metrics(&format!("{prefix}.tx_ring"), registry);
        self.rx
            .export_metrics(&format!("{prefix}.rx_ring"), registry);
    }

    /// Ring-occupancy and descriptor-credit probes, in the flight
    /// recorder's golden series order.
    pub fn probes(&self, name: &str, out: &mut fld_sim::engine::Probes) {
        out.push_scoped(name, "rx_ring.occupancy", self.rx.occupancy());
        out.push_scoped(name, "tx_ring.occupancy", self.tx.occupancy());
        out.push_scoped(
            name,
            "tx_ring.descriptor_credits",
            self.tx.descriptor_credits() as f64,
        );
    }

    /// Tx-ring descriptor conservation and credit/occupancy bounds, plus
    /// the Rx pool occupancy bound.
    pub fn audit(&self, name: &str, at: SimTime, auditor: &mut fld_sim::audit::Auditor) {
        let (enq, comp, in_use) = (
            self.tx.enqueued(),
            self.tx.completed(),
            self.tx.descriptors_in_use(),
        );
        auditor.check_conservation(at, format_args!("{name}.tx_ring"), enq, comp, 0, in_use);
        auditor.check_credits(
            at,
            format_args!("{name}.tx_ring.descriptors"),
            self.tx.descriptor_credits() as u64,
            self.tx.descriptor_pool(),
        );
        auditor.check_occupancy(at, format_args!("{name}.tx_ring"), self.tx.occupancy());
        let (q_total, b_used) = (self.tx.queue_bytes_total(), self.tx.buffer_used());
        auditor.check(
            at,
            format_args!("{name}.tx_ring.queues"),
            "conservation",
            q_total == b_used,
            || format!("per-queue bytes {q_total} != buffer in use {b_used}"),
        );
        auditor.check_occupancy(at, format_args!("{name}.rx_ring"), self.rx.occupancy());
    }
}

impl Default for FldDevice {
    fn default() -> Self {
        FldDevice::new(FldConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enqueue_read_complete_cycle() {
        let mut tx = FldTx::new(FldConfig::default());
        let slot = tx.enqueue(0, 1500).unwrap();
        // The NIC reads the descriptor at ring position 0 and sees a fully
        // expanded NIC-format descriptor.
        let desc = tx.read_descriptor(0, 0).expect("descriptor visible");
        assert_eq!(desc.len, 1500);
        assert_eq!(desc.queue, 0);
        tx.complete(slot);
        assert!(tx.read_descriptor(0, 0).is_none());
        assert_eq!(tx.enqueued(), 1);
        assert_eq!(tx.completed(), 1);
        assert_eq!(tx.descriptor_credits(), 4096);
    }

    #[test]
    fn buffer_credits_track_slot_granularity() {
        let mut tx = FldTx::new(FldConfig::default());
        let before = tx.buffer_credits();
        tx.enqueue(0, 100).unwrap(); // rounds to 128 B (2 slots of 64)
        assert_eq!(before - tx.buffer_credits(), 128);
    }

    #[test]
    fn descriptor_exhaustion_backpressures() {
        let config = FldConfig {
            desc_pool: 4,
            tx_buffer_bytes: 1 << 20,
            ..FldConfig::default()
        };
        let mut tx = FldTx::new(config);
        for _ in 0..4 {
            tx.enqueue(0, 64).unwrap();
        }
        assert_eq!(tx.enqueue(0, 64), Err(TxBackpressure::NoDescriptors));
        assert_eq!(tx.descriptor_credits(), 0);
    }

    #[test]
    fn buffer_exhaustion_backpressures() {
        let config = FldConfig {
            tx_buffer_bytes: 4096,
            ..FldConfig::default()
        };
        let mut tx = FldTx::new(config);
        tx.enqueue(0, 4000).unwrap();
        assert_eq!(tx.enqueue(0, 512), Err(TxBackpressure::NoBufferSpace));
    }

    #[test]
    fn per_queue_accounting() {
        let mut tx = FldTx::new(FldConfig::default());
        tx.enqueue(0, 1024).unwrap();
        tx.enqueue(1, 2048).unwrap();
        assert_eq!(tx.queue_bytes[0], 1024);
        assert_eq!(tx.queue_bytes[1], 2048);
    }

    #[test]
    fn sustained_churn_recycles_everything() {
        let mut tx = FldTx::new(FldConfig::default());
        for round in 0..10_000u32 {
            let slot = tx.enqueue((round % 2) as u16, 1500).unwrap();
            let pos = round / 2;
            assert!(tx.read_descriptor(slot.queue, pos).is_some());
            assert_eq!(slot.pos, pos);
            tx.complete(slot);
        }
        assert_eq!(tx.descriptor_credits(), 4096);
        assert_eq!(tx.buffer_credits(), FldConfig::default().tx_buffer_bytes);
    }

    #[test]
    fn selective_signalling_marks_every_nth() {
        let mut tx = FldTx::new(FldConfig::default());
        for _ in 0..64 {
            tx.enqueue(0, 64).unwrap();
        }
        // Exactly 4 of 64 descriptors carry the signalled bit.
        assert_eq!(tx.signalled_count(), 4);
        // And the NIC sees the bit on positions 15, 31, 47, 63.
        for pos in [15u32, 31, 47, 63] {
            assert!(tx.read_descriptor(0, pos).unwrap().signalled, "pos {pos}");
        }
        assert!(!tx.read_descriptor(0, 0).unwrap().signalled);
    }

    #[test]
    fn coalesced_completion_recycles_prefix() {
        let mut tx = FldTx::new(FldConfig::default());
        for _ in 0..32 {
            tx.enqueue(0, 1500).unwrap();
        }
        assert_eq!(tx.descriptor_credits(), 4096 - 32);
        // One completion for position 15 recycles 16 descriptors.
        assert_eq!(tx.complete_up_to(0, 15), 16);
        assert_eq!(tx.descriptor_credits(), 4096 - 16);
        assert_eq!(tx.complete_up_to(0, 31), 16);
        assert_eq!(tx.descriptor_credits(), 4096);
        assert_eq!(tx.buffer_credits(), FldConfig::default().tx_buffer_bytes);
    }

    #[test]
    fn doorbell_coalescing_counts_mmio() {
        let mut tx = FldTx::new(FldConfig::default());
        for _ in 0..20 {
            tx.enqueue(0, 64).unwrap();
        }
        // 20 enqueues at batch 8 = 2 rings, 4 pending.
        assert_eq!(tx.mmio_writes(), 2);
        tx.flush_doorbell();
        assert_eq!(tx.mmio_writes(), 3);
        tx.flush_doorbell(); // idempotent when nothing pending
        assert_eq!(tx.mmio_writes(), 3);
    }

    #[test]
    #[should_panic]
    fn double_completion_panics() {
        let mut tx = FldTx::new(FldConfig::default());
        let slot = tx.enqueue(0, 64).unwrap();
        tx.complete(slot);
        tx.complete(slot);
    }

    #[test]
    fn rx_drops_when_full() {
        let config = FldConfig {
            rx_buffer_bytes: 4096,
            ..FldConfig::default()
        };
        let mut rx = FldRx::new(config);
        assert!(rx.offer(2048));
        assert!(rx.offer(2048));
        assert!(!rx.offer(64), "full pool must drop");
        assert_eq!(rx.dropped, 1);
        rx.release(2048);
        assert!(rx.offer(64));
        assert_eq!(rx.received, 3);
    }

    #[test]
    fn prototype_configuration_matches_section_6() {
        let c = FldConfig::default();
        assert_eq!(c.tx_queues, 2);
        assert_eq!(c.tx_buffer_bytes, 256 * 1024);
        assert_eq!(c.rx_buffer_bytes, 256 * 1024);
        assert_eq!(c.desc_pool, 4096);
    }
}
