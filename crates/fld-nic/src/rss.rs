//! Receive-side scaling: Toeplitz hash plus an indirection table, and the
//! fragment fallback behaviour that motivates the defragmentation offload.

use fld_net::toeplitz::Toeplitz;

use crate::packet::PacketMeta;

/// An RSS context: the Toeplitz hash (under the default key) + an
/// indirection table over receive queues.
#[derive(Debug)]
pub struct RssContext {
    /// Maps `hash % len` to a queue index.
    indirection: Vec<u16>,
}

impl RssContext {
    /// Creates a context spreading across `queues` queues with an identity
    /// indirection table of 128 entries (a common default size).
    ///
    /// # Panics
    ///
    /// Panics if `queues` is zero.
    pub fn new(queues: u16) -> Self {
        assert!(queues > 0, "need at least one queue");
        RssContext {
            indirection: (0..128).map(|i| i % queues).collect(),
        }
    }

    /// Computes the RSS hash the NIC would report for this packet.
    ///
    /// Non-first IP fragments lack L4 ports, so — like real NICs — the hash
    /// falls back to the 2-tuple. First fragments hash on the 2-tuple as
    /// well so all fragments of a datagram land on one queue.
    pub fn hash(&self, meta: &PacketMeta) -> u32 {
        if meta.is_fragment {
            Toeplitz.hash_ip_pair(&meta.flow)
        } else {
            Toeplitz.hash_flow(&meta.flow)
        }
    }

    /// Picks the receive queue for this packet.
    pub fn queue_for(&self, meta: &PacketMeta) -> u16 {
        let h = self.hash(meta);
        self.indirection[h as usize % self.indirection.len()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_net::{FlowKey, Ipv4Addr};

    fn meta(src_port: u16) -> PacketMeta {
        PacketMeta {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                src_port,
                5201,
                6,
            ),
            ..PacketMeta::default()
        }
    }

    #[test]
    fn spreads_flows_across_queues() {
        let rss = RssContext::new(16);
        let mut seen = std::collections::HashSet::new();
        for port in 1000..1200 {
            seen.insert(rss.queue_for(&meta(port)));
        }
        assert!(seen.len() >= 12, "only {} queues used", seen.len());
    }

    #[test]
    fn same_flow_same_queue() {
        let rss = RssContext::new(16);
        assert_eq!(rss.queue_for(&meta(1234)), rss.queue_for(&meta(1234)));
    }

    #[test]
    fn fragments_collapse_to_l3_hash() {
        // The key pathology of § 8.2.2: many flows between one host pair all
        // hash to the *same* queue once fragmented, because ports are
        // unavailable.
        let rss = RssContext::new(16);
        let mut queues = std::collections::HashSet::new();
        for port in 1000..1060 {
            let mut m = meta(port);
            m.is_fragment = true;
            queues.insert(rss.queue_for(&m));
        }
        assert_eq!(queues.len(), 1, "all fragments must land on one queue");
    }

    #[test]
    fn first_and_later_fragments_agree() {
        let rss = RssContext::new(8);
        let mut first = meta(4242);
        first.is_fragment = true;
        first.first_fragment = true;
        let mut rest = meta(0); // later fragments have no ports
        rest.is_fragment = true;
        assert_eq!(rss.queue_for(&first), rss.queue_for(&rest));
    }

    #[test]
    fn queue_count_reflects_table() {
        for queues in [1, 4] {
            let rss = RssContext::new(queues);
            let seen: std::collections::BTreeSet<u16> = (1000..1200)
                .map(|port| rss.queue_for(&meta(port)))
                .collect();
            assert_eq!(seen, (0..queues).collect());
        }
    }
}
