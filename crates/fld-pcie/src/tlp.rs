//! Transaction-layer packet (TLP) accounting.
//!
//! FlexDriver's performance ceiling is set by PCIe protocol overhead
//! (paper § 8.1: "FLD communicates via PCIe, which implies a certain
//! bandwidth overhead"). We model TLPs at the byte-accounting level: every
//! transaction costs its payload plus per-TLP framing/header/CRC bytes.

/// Kinds of transaction-layer packets exchanged between the NIC and FLD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlpKind {
    /// Memory write with payload (posted).
    MemWrite {
        /// Payload bytes carried.
        payload: u32,
    },
    /// Memory read request (no payload).
    MemRead {
        /// Bytes requested.
        requested: u32,
    },
    /// Read completion with data.
    Completion {
        /// Payload bytes carried.
        payload: u32,
    },
}

/// Physical/data-link/transaction-layer overhead parameters for one TLP.
///
/// Defaults follow PCIe Gen 3: 4 B framing (STP token), 2 B sequence
/// number, 12 B header for 3-DW (completions) or 16 B for 4-DW requests
/// (64-bit addressing), and 4 B LCRC.
#[derive(Debug, Clone, Copy)]
pub struct TlpOverheads {
    /// Framing + sequence + LCRC bytes per TLP.
    pub link_layer: u32,
    /// Header bytes for memory requests (4-DW, 64-bit addressing).
    pub request_header: u32,
    /// Header bytes for completions (3-DW).
    pub completion_header: u32,
}

impl Default for TlpOverheads {
    fn default() -> Self {
        TlpOverheads {
            link_layer: 10,
            request_header: 16,
            completion_header: 12,
        }
    }
}

impl TlpOverheads {
    /// Total bytes this TLP occupies on the link.
    pub fn wire_bytes(&self, kind: TlpKind) -> u32 {
        match kind {
            TlpKind::MemWrite { payload } => self.link_layer + self.request_header + payload,
            TlpKind::MemRead { .. } => self.link_layer + self.request_header,
            TlpKind::Completion { payload } => self.link_layer + self.completion_header + payload,
        }
    }
}

/// Outcome of a non-posted transaction (read request) as observed by the
/// requester, for fault modeling.
///
/// PCIe expresses these differently on the wire — a poisoned TLP carries
/// the EP bit in its header, while a completion timeout is a
/// requester-side timer expiring because no completion ever arrived — but
/// to the device logic both collapse to "the data cannot be used", which
/// is the level this model cares about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlpOutcome {
    /// The completion arrived with usable data.
    Success,
    /// The completion arrived with the EP (poison) bit set: the payload
    /// is known-corrupt and must be discarded (error containment — the
    /// requester drops the data instead of consuming it).
    Poisoned,
    /// No completion arrived within the completion-timeout window; the
    /// requester gives up and may retry or report an uncorrectable error.
    CompletionTimeout,
}

/// Splits a transfer of `bytes` into TLP payload chunks bounded by
/// `max_chunk` (MPS for writes, RCB/MPS for read completions).
///
/// # Panics
///
/// Panics if `max_chunk` is zero.
pub fn chunked(bytes: u32, max_chunk: u32) -> impl Iterator<Item = u32> {
    assert!(max_chunk > 0, "chunk size must be positive");
    let full = bytes / max_chunk;
    let rem = bytes % max_chunk;
    (0..full)
        .map(move |_| max_chunk)
        .chain((rem > 0).then_some(rem))
}

/// Wire bytes for writing `bytes` of data as MPS-bounded MemWr TLPs.
pub fn write_wire_bytes(bytes: u32, mps: u32, ov: &TlpOverheads) -> u64 {
    chunked(bytes, mps)
        .map(|c| ov.wire_bytes(TlpKind::MemWrite { payload: c }) as u64)
        .sum()
}

/// Wire bytes (request direction, completion direction) for reading `bytes`
/// via a single read request answered by chunked completions.
pub fn read_wire_bytes(bytes: u32, completion_chunk: u32, ov: &TlpOverheads) -> (u64, u64) {
    let req = ov.wire_bytes(TlpKind::MemRead { requested: bytes }) as u64;
    let cpl = chunked(bytes, completion_chunk)
        .map(|c| ov.wire_bytes(TlpKind::Completion { payload: c }) as u64)
        .sum();
    (req, cpl)
}

/// Per-PCIe-function counter group (`pcie/fn/<f>/...` in the counter
/// tree), mirroring what `ethtool -S` exposes for a ConnectX function:
/// TLPs issued, wire bytes moved, completion timeouts and poisoned
/// completions observed by the requester.
///
/// Handles start detached so a function works before (or without) being
/// wired into a [`fld_sim::counters::CounterTree`]; a detached handle
/// accumulates locally but is not visible in any tree.
#[derive(Debug, Default)]
pub struct TlpCounters {
    /// TLPs issued by this function (requests + completions).
    pub tlps: fld_sim::counters::Counter,
    /// Total wire bytes moved (payload + framing).
    pub bytes: fld_sim::counters::Counter,
    /// Non-posted transactions that expired without a completion.
    pub completion_timeouts: fld_sim::counters::Counter,
    /// Completions that arrived with the EP (poison) bit set.
    pub poisoned_tlps: fld_sim::counters::Counter,
}

impl TlpCounters {
    /// A group registered under `pcie/fn/<fn_idx>/...` in `tree`.
    pub fn wired(tree: &fld_sim::counters::CounterTree, fn_idx: u32) -> Self {
        let leaf = |name: &str| tree.counter(&format!("pcie/fn/{fn_idx}/{name}"));
        TlpCounters {
            tlps: leaf("tlps"),
            bytes: leaf("bytes"),
            completion_timeouts: leaf("completion_timeouts"),
            poisoned_tlps: leaf("poisoned_tlps"),
        }
    }

    /// Accounts one TLP of `wire_bytes` on the link.
    #[inline]
    pub fn record_tlp(&self, wire_bytes: u64) {
        self.tlps.inc();
        self.bytes.add(wire_bytes);
    }

    /// Accounts the fault-relevant half of a non-posted outcome.
    #[inline]
    pub fn record_outcome(&self, outcome: TlpOutcome) {
        match outcome {
            TlpOutcome::Success => {}
            TlpOutcome::Poisoned => self.poisoned_tlps.inc(),
            TlpOutcome::CompletionTimeout => self.completion_timeouts.inc(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_overheads() {
        let ov = TlpOverheads::default();
        assert_eq!(
            ov.wire_bytes(TlpKind::MemWrite { payload: 256 }),
            10 + 16 + 256
        );
        assert_eq!(ov.wire_bytes(TlpKind::MemRead { requested: 512 }), 26);
        assert_eq!(
            ov.wire_bytes(TlpKind::Completion { payload: 64 }),
            10 + 12 + 64
        );
    }

    #[test]
    fn chunking() {
        assert_eq!(chunked(512, 256).collect::<Vec<_>>(), vec![256, 256]);
        assert_eq!(chunked(600, 256).collect::<Vec<_>>(), vec![256, 256, 88]);
        assert_eq!(chunked(100, 256).collect::<Vec<_>>(), vec![100]);
        assert_eq!(chunked(0, 256).count(), 0);
    }

    #[test]
    fn write_accounting() {
        let ov = TlpOverheads::default();
        // 600 B at MPS 256: three TLPs, 26 B overhead each.
        assert_eq!(write_wire_bytes(600, 256, &ov), 600 + 3 * 26);
    }

    #[test]
    fn wired_tlp_counters_land_under_the_function_prefix() {
        let tree = fld_sim::counters::CounterTree::new();
        let ctr = TlpCounters::wired(&tree, 3);
        ctr.record_tlp(90);
        ctr.record_tlp(26);
        ctr.record_outcome(TlpOutcome::Success);
        ctr.record_outcome(TlpOutcome::Poisoned);
        ctr.record_outcome(TlpOutcome::CompletionTimeout);
        assert_eq!(tree.snapshot().get("pcie/fn/3/tlps"), Some(2));
        assert_eq!(tree.snapshot().get("pcie/fn/3/bytes"), Some(116));
        assert_eq!(tree.snapshot().get("pcie/fn/3/poisoned_tlps"), Some(1));
        assert_eq!(
            tree.snapshot().get("pcie/fn/3/completion_timeouts"),
            Some(1)
        );
        // A detached group accepts the same traffic without a tree.
        let off = TlpCounters::default();
        off.record_tlp(64);
        assert_eq!(off.tlps.get(), 1);
        assert!(tree.snapshot().get("pcie/fn/0/tlps").is_none());
    }

    #[test]
    fn read_accounting() {
        let ov = TlpOverheads::default();
        let (req, cpl) = read_wire_bytes(512, 256, &ov);
        assert_eq!(req, 26);
        assert_eq!(cpl, 512 + 2 * 22);
    }
}
