//! Flow identification: the 5-tuple key used by match-action tables and RSS.

use std::fmt;

use crate::ipv4::{IpProto, Ipv4Addr, Ipv4Header};
use crate::tcp::TcpHeader;
use crate::udp::UdpHeader;

/// A 5-tuple flow key.
///
/// # Examples
///
/// ```
/// use fld_net::flow::FlowKey;
/// use fld_net::ipv4::Ipv4Addr;
///
/// let k = FlowKey::new(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2), 1234, 80, 6);
/// assert_eq!(k.reversed().src_port, 80);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowKey {
    /// Source IP.
    pub src: Ipv4Addr,
    /// Destination IP.
    pub dst: Ipv4Addr,
    /// Source L4 port (0 when unavailable).
    pub src_port: u16,
    /// Destination L4 port (0 when unavailable).
    pub dst_port: u16,
    /// IP protocol number.
    pub proto: u8,
}

impl FlowKey {
    /// Creates a key from its parts.
    pub fn new(src: Ipv4Addr, dst: Ipv4Addr, src_port: u16, dst_port: u16, proto: u8) -> Self {
        FlowKey {
            src,
            dst,
            src_port,
            dst_port,
            proto,
        }
    }

    /// Builds a key from parsed IP and UDP headers.
    pub fn from_udp(ip: &Ipv4Header, udp: &UdpHeader) -> Self {
        FlowKey {
            src: ip.src,
            dst: ip.dst,
            src_port: udp.src_port,
            dst_port: udp.dst_port,
            proto: IpProto::Udp.value(),
        }
    }

    /// Builds a key from parsed IP and TCP headers.
    pub fn from_tcp(ip: &Ipv4Header, tcp: &TcpHeader) -> Self {
        FlowKey {
            src: ip.src,
            dst: ip.dst,
            src_port: tcp.src_port,
            dst_port: tcp.dst_port,
            proto: IpProto::Tcp.value(),
        }
    }

    /// Builds an L3-only key (ports zero) — what the NIC is left with on a
    /// non-first IP fragment.
    pub fn l3_only(ip: &Ipv4Header) -> Self {
        FlowKey {
            src: ip.src,
            dst: ip.dst,
            src_port: 0,
            dst_port: 0,
            proto: ip.proto.value(),
        }
    }

    /// Writes the flow's path segment in a hierarchical counter tree
    /// (`flow/<this>/...`) into `out`, so a caller can build the whole
    /// path in one buffer. Uses `_` separators only — `/` is the tree's
    /// path delimiter, so the whole 5-tuple must collapse into a single
    /// segment.
    pub fn write_counter_path(&self, out: &mut impl fmt::Write) -> fmt::Result {
        write!(
            out,
            "{}_{}-{}_{}-p{}",
            self.src, self.src_port, self.dst, self.dst_port, self.proto
        )
    }

    /// The key of the reverse direction.
    pub fn reversed(self) -> FlowKey {
        FlowKey {
            src: self.dst,
            dst: self.src,
            src_port: self.dst_port,
            dst_port: self.src_port,
            proto: self.proto,
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} proto {}",
            self.src, self.src_port, self.dst, self.dst_port, self.proto
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reversal_is_involutive() {
        let k = FlowKey::new(
            Ipv4Addr::new(1, 2, 3, 4),
            Ipv4Addr::new(5, 6, 7, 8),
            10,
            20,
            17,
        );
        assert_eq!(k.reversed().reversed(), k);
        assert_ne!(k.reversed(), k);
    }

    #[test]
    fn counter_path_is_one_slash_free_segment() {
        let k = FlowKey::new(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            1000,
            7777,
            17,
        );
        let segment = |k: FlowKey| {
            let mut path = String::new();
            k.write_counter_path(&mut path).unwrap();
            path
        };
        let path = segment(k);
        assert_eq!(path, "10.0.0.1_1000-10.0.0.2_7777-p17");
        assert!(!path.contains('/'), "must stay a single tree segment");
        assert_ne!(segment(k.reversed()), path);
    }

    #[test]
    fn from_headers() {
        let ip = Ipv4Header::simple(
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
            IpProto::Udp,
            8,
        );
        let udp = UdpHeader::new(111, 222, 0);
        let k = FlowKey::from_udp(&ip, &udp);
        assert_eq!(k.src_port, 111);
        assert_eq!(k.proto, 17);
        let l3 = FlowKey::l3_only(&ip);
        assert_eq!(l3.src_port, 0);
        assert_eq!(l3.dst_port, 0);
    }

    #[test]
    fn display() {
        let k = FlowKey::new(
            Ipv4Addr::new(1, 1, 1, 1),
            Ipv4Addr::new(2, 2, 2, 2),
            5,
            6,
            6,
        );
        assert_eq!(k.to_string(), "1.1.1.1:5 -> 2.2.2.2:6 proto 6");
    }
}
