//! The embedded switch (eSwitch): match-action classification with the
//! FLD-E acceleration extension.
//!
//! NICs steer packets between vPorts with flexible match-action rules
//! (paper § 2.3). FLD-E extends the action set: *"The new actions send
//! packets to the accelerator along with appropriate metadata identifying
//! the associated VM and the following table to process packets after
//! acceleration. After processing, the accelerator returns the packet to
//! the NIC, tagged with the next-table ID so that the NIC can resume
//! processing the packet where the acceleration action took off."* (§ 5.3)

use crate::packet::PacketMeta;

/// A single field predicate (None = wildcard).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MatchSpec {
    /// Match IPv4 fragments (any position).
    pub is_fragment: Option<bool>,
    /// Match on VXLAN presence.
    pub is_vxlan: Option<bool>,
    /// Match a specific VNI.
    pub vni: Option<u32>,
    /// Match the IP protocol.
    pub ip_proto: Option<u8>,
    /// Match the L4 destination port.
    pub dst_port: Option<u16>,
    /// Match the L4 source port.
    pub src_port: Option<u16>,
    /// Match the destination IP (exact).
    pub dst_ip: Option<fld_net::Ipv4Addr>,
    /// Match the source IP (exact).
    pub src_ip: Option<fld_net::Ipv4Addr>,
    /// Match an already-assigned context id (post-acceleration stages).
    pub context_id: Option<u32>,
}

impl MatchSpec {
    /// The match-everything wildcard.
    pub fn any() -> Self {
        MatchSpec::default()
    }

    /// Whether `meta` satisfies every present predicate.
    pub fn matches(&self, meta: &PacketMeta) -> bool {
        fn ok<T: PartialEq>(spec: Option<T>, actual: T) -> bool {
            spec.is_none_or(|s| s == actual)
        }
        ok(self.is_fragment, meta.is_fragment)
            && ok(self.is_vxlan, meta.vni.is_some())
            && (self.vni.is_none() || self.vni == meta.vni_u32())
            && ok(self.ip_proto, meta.flow.proto)
            && ok(self.dst_port, meta.flow.dst_port)
            && ok(self.src_port, meta.flow.src_port)
            && ok(self.dst_ip, meta.flow.dst)
            && ok(self.src_ip, meta.flow.src)
            && ok(self.context_id, meta.context_id)
    }
}

/// An action attached to a rule. Rules may carry several (e.g. tag then
/// forward).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Drop the packet.
    Drop,
    /// Deliver to a host receive queue set via RSS context `rss_id`.
    ToHostRss {
        /// RSS context selecting among host queues.
        rss_id: u16,
    },
    /// Deliver directly to a specific host queue.
    ToHostQueue {
        /// Host receive queue index.
        queue: u16,
    },
    /// Deliver to an FLD receive queue — the FLD-E acceleration action,
    /// carrying the table to resume at when the packet returns.
    ToAccelerator {
        /// FLD receive queue.
        queue: u16,
        /// eSwitch table to resume processing at on return.
        next_table: u16,
    },
    /// Transmit out of a wire port.
    ToWire {
        /// Physical port index.
        port: u8,
    },
    /// Strip the VXLAN tunnel (hardware decapsulation offload).
    VxlanDecap,
    /// Tag the packet with a tenant/context id (§ 5.4).
    TagContext {
        /// Context id to attach.
        context: u32,
    },
    /// Continue matching at another table.
    GotoTable {
        /// Target table id.
        table: u16,
    },
}

/// Terminal verdict of a classification pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Dropped (explicitly, or due to a table miss).
    Drop,
    /// Deliver to host via an RSS context.
    HostRss {
        /// RSS context id.
        rss_id: u16,
    },
    /// Deliver to a specific host queue.
    HostQueue {
        /// Host queue index.
        queue: u16,
    },
    /// Deliver to the accelerator via FLD.
    Accelerator {
        /// FLD queue index.
        queue: u16,
        /// Table to resume at when the packet comes back.
        next_table: u16,
    },
    /// Transmit to the wire.
    Wire {
        /// Physical port.
        port: u8,
    },
}

/// Side effects applied to the packet during classification.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SideEffects {
    /// Tunnel was decapsulated (the packet's metadata must be re-derived
    /// from the inner frame by the caller).
    pub decapped: bool,
    /// Context id assigned.
    pub tagged: Option<u32>,
}

/// A classification rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Higher priority wins within a table.
    pub priority: i32,
    /// Predicates.
    pub spec: MatchSpec,
    /// Actions applied on match.
    pub actions: Vec<Action>,
}

/// One match-action table.
#[derive(Debug, Default)]
pub struct Table {
    rules: Vec<Rule>,
}

impl Table {
    fn best_match(&self, meta: &PacketMeta) -> Option<&Rule> {
        self.rules
            .iter()
            .filter(|r| r.spec.matches(meta))
            .max_by_key(|r| r.priority)
    }
}

/// The multi-table classification pipeline of one direction (e.g. the
/// eSwitch FDB followed by per-vport tables).
#[derive(Debug, Default)]
pub struct Pipeline {
    tables: Vec<Table>,
}

/// Maximum goto-chain depth (guards against rule cycles).
const MAX_HOPS: usize = 16;

impl Pipeline {
    /// Creates a pipeline with `tables` empty tables.
    pub fn new(tables: usize) -> Self {
        Pipeline {
            tables: (0..tables).map(|_| Table::default()).collect(),
        }
    }

    /// Installs a rule into `table`.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not exist.
    pub fn install(&mut self, table: u16, rule: Rule) {
        self.tables[table as usize].rules.push(rule);
    }

    /// Removes every rule (from every table) for which `pred` holds —
    /// how a VF hot-unplug evicts the tenant's steering entries from
    /// the shared TCAM. Returns the number of rules removed.
    pub fn remove_where(&mut self, pred: impl Fn(&Rule) -> bool) -> usize {
        let mut removed = 0;
        for t in &mut self.tables {
            let before = t.rules.len();
            t.rules.retain(|r| !pred(r));
            removed += before - t.rules.len();
        }
        removed
    }

    /// Classifies a packet starting from `start_table`, applying tag and
    /// decap side effects to `meta` along the way.
    ///
    /// Packets that miss every rule are dropped, matching default-deny
    /// eSwitch semantics.
    pub fn classify(&self, meta: &mut PacketMeta, start_table: u16) -> (Verdict, SideEffects) {
        let mut table = start_table as usize;
        let mut effects = SideEffects::default();
        for _ in 0..MAX_HOPS {
            let Some(t) = self.tables.get(table) else {
                return (Verdict::Drop, effects);
            };
            let Some(rule) = t.best_match(meta) else {
                return (Verdict::Drop, effects);
            };
            let mut next: Option<usize> = None;
            for action in &rule.actions {
                match *action {
                    Action::Drop => return (Verdict::Drop, effects),
                    Action::ToHostRss { rss_id } => return (Verdict::HostRss { rss_id }, effects),
                    Action::ToHostQueue { queue } => {
                        return (Verdict::HostQueue { queue }, effects)
                    }
                    Action::ToAccelerator { queue, next_table } => {
                        return (Verdict::Accelerator { queue, next_table }, effects)
                    }
                    Action::ToWire { port } => return (Verdict::Wire { port }, effects),
                    Action::VxlanDecap => {
                        effects.decapped = true;
                        meta.vni = None;
                    }
                    Action::TagContext { context } => {
                        effects.tagged = Some(context);
                        meta.context_id = context;
                    }
                    Action::GotoTable { table } => next = Some(table as usize),
                }
            }
            match next {
                Some(n) => table = n,
                None => {
                    // A rule with only modifying actions and no verdict:
                    // treat as drop (misconfiguration).
                    return (Verdict::Drop, effects);
                }
            }
        }
        (Verdict::Drop, effects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_net::{FlowKey, Ipv4Addr};

    fn meta(dst_port: u16) -> PacketMeta {
        PacketMeta {
            flow: FlowKey::new(
                Ipv4Addr::new(10, 0, 0, 1),
                Ipv4Addr::new(10, 0, 0, 2),
                999,
                dst_port,
                17,
            ),
            checksum_ok: true,
            ..PacketMeta::default()
        }
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(MatchSpec::any().matches(&meta(80)));
        assert!(MatchSpec::any().matches(&PacketMeta::default()));
    }

    #[test]
    fn field_predicates() {
        let spec = MatchSpec {
            dst_port: Some(80),
            ip_proto: Some(17),
            ..MatchSpec::any()
        };
        assert!(spec.matches(&meta(80)));
        assert!(!spec.matches(&meta(81)));
    }

    #[test]
    fn priority_wins() {
        let mut p = Pipeline::new(1);
        p.install(
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::Drop],
            },
        );
        p.install(
            0,
            Rule {
                priority: 10,
                spec: MatchSpec {
                    dst_port: Some(80),
                    ..MatchSpec::any()
                },
                actions: vec![Action::ToHostQueue { queue: 3 }],
            },
        );
        let mut m = meta(80);
        assert_eq!(p.classify(&mut m, 0).0, Verdict::HostQueue { queue: 3 });
        let mut m = meta(81);
        assert_eq!(p.classify(&mut m, 0).0, Verdict::Drop);
    }

    #[test]
    fn miss_is_drop() {
        let mut p = Pipeline::new(1);
        p.install(
            0,
            Rule {
                priority: 0,
                spec: MatchSpec {
                    dst_port: Some(443),
                    ..MatchSpec::any()
                },
                actions: vec![Action::ToHostQueue { queue: 0 }],
            },
        );
        let mut m = meta(80);
        assert_eq!(p.classify(&mut m, 0).0, Verdict::Drop);
    }

    #[test]
    fn accelerator_action_carries_next_table() {
        let mut p = Pipeline::new(3);
        p.install(
            0,
            Rule {
                priority: 0,
                spec: MatchSpec {
                    is_fragment: Some(true),
                    ..MatchSpec::any()
                },
                actions: vec![Action::ToAccelerator {
                    queue: 1,
                    next_table: 2,
                }],
            },
        );
        let mut m = meta(80);
        m.is_fragment = true;
        match p.classify(&mut m, 0).0 {
            Verdict::Accelerator { queue, next_table } => {
                assert_eq!(queue, 1);
                assert_eq!(next_table, 2);
            }
            other => panic!("unexpected verdict {other:?}"),
        }
    }

    #[test]
    fn tag_then_goto_chain() {
        let mut p = Pipeline::new(2);
        p.install(
            0,
            Rule {
                priority: 0,
                spec: MatchSpec {
                    dst_port: Some(5683),
                    ..MatchSpec::any()
                },
                actions: vec![
                    Action::TagContext { context: 7 },
                    Action::GotoTable { table: 1 },
                ],
            },
        );
        p.install(
            1,
            Rule {
                priority: 0,
                spec: MatchSpec {
                    context_id: Some(7),
                    ..MatchSpec::any()
                },
                actions: vec![Action::ToAccelerator {
                    queue: 0,
                    next_table: 1,
                }],
            },
        );
        let mut m = meta(5683);
        let (verdict, fx) = p.classify(&mut m, 0);
        assert!(matches!(verdict, Verdict::Accelerator { .. }));
        assert_eq!(fx.tagged, Some(7));
        assert_eq!(m.context_id, 7);
    }

    #[test]
    fn decap_side_effect() {
        let mut p = Pipeline::new(1);
        p.install(
            0,
            Rule {
                priority: 1,
                spec: MatchSpec {
                    is_vxlan: Some(true),
                    ..MatchSpec::any()
                },
                actions: vec![Action::VxlanDecap, Action::GotoTable { table: 0 }],
            },
        );
        p.install(
            0,
            Rule {
                priority: 0,
                spec: MatchSpec {
                    is_vxlan: Some(false),
                    ..MatchSpec::any()
                },
                actions: vec![Action::ToHostRss { rss_id: 0 }],
            },
        );
        let mut m = meta(80);
        m.vni = std::num::NonZeroU32::new(42);
        let (verdict, fx) = p.classify(&mut m, 0);
        assert_eq!(verdict, Verdict::HostRss { rss_id: 0 });
        assert!(fx.decapped);
        assert_eq!(m.vni, None);
    }

    #[test]
    fn goto_cycles_terminate() {
        let mut p = Pipeline::new(2);
        p.install(
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::GotoTable { table: 1 }],
            },
        );
        p.install(
            1,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::GotoTable { table: 0 }],
            },
        );
        let mut m = meta(80);
        assert_eq!(p.classify(&mut m, 0).0, Verdict::Drop);
    }

    #[test]
    fn modifying_rule_without_verdict_drops() {
        let mut p = Pipeline::new(1);
        p.install(
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::TagContext { context: 1 }],
            },
        );
        let mut m = meta(80);
        assert_eq!(p.classify(&mut m, 0).0, Verdict::Drop);
    }
}
