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

/// The lookup key every rule compiles against: the fields a [`MatchSpec`]
/// can name, packed once per lookup.
///
/// - word 0: source IP (bits 63 – 32), destination IP (31 – 0);
/// - word 1: context id (63 – 32), source port (31 – 16), destination
///   port (15 – 0);
/// - word 2: VNI, 0 when untunnelled (63 – 32), IP protocol (15 – 8),
///   VXLAN present (1), fragment (0).
type Key = [u64; 3];

fn ip_bits(ip: fld_net::Ipv4Addr) -> u64 {
    u64::from(u32::from_be_bytes(ip.octets()))
}

fn pack(meta: &PacketMeta) -> Key {
    let f = &meta.flow;
    [
        ip_bits(f.src) << 32 | ip_bits(f.dst),
        u64::from(meta.context_id) << 32 | u64::from(f.src_port) << 16 | u64::from(f.dst_port),
        u64::from(meta.vni_u32().unwrap_or(0)) << 32
            | u64::from(f.proto) << 8
            | u64::from(meta.vni.is_some()) << 1
            | u64::from(meta.is_fragment),
    ]
}

/// Where a matched entry sends the packet.
#[derive(Debug)]
enum Next {
    Verdict(Verdict),
    Goto(u16),
}

/// One rule compiled for the TCAM: a `(value, mask)` pair over [`Key`] and
/// the rule's actions folded to what they do.
#[derive(Debug)]
struct Entry {
    priority: i32,
    value: Key,
    mask: Key,
    decap: bool,
    tag: Option<u32>,
    next: Next,
}

impl Entry {
    /// Compiles `rule`, or `None` when its spec can match no packet (a VNI
    /// with `is_vxlan: Some(false)`, or VNI 0, which parses untunnelled).
    fn compile(rule: &Rule) -> Option<Entry> {
        let s = &rule.spec;
        if s.vni.is_some_and(|v| v == 0 || s.is_vxlan == Some(false)) {
            return None;
        }
        let mut value = [0; 3];
        let mut mask = [0; 3];
        let mut field = |word: usize, shift: u32, width: u64, v: Option<u64>| {
            if let Some(v) = v {
                value[word] |= v << shift;
                mask[word] |= width << shift;
            }
        };
        field(0, 32, 0xffff_ffff, s.src_ip.map(ip_bits));
        field(0, 0, 0xffff_ffff, s.dst_ip.map(ip_bits));
        field(1, 32, 0xffff_ffff, s.context_id.map(u64::from));
        field(1, 16, 0xffff, s.src_port.map(u64::from));
        field(1, 0, 0xffff, s.dst_port.map(u64::from));
        field(2, 32, 0xffff_ffff, s.vni.map(u64::from));
        field(2, 8, 0xff, s.ip_proto.map(u64::from));
        field(2, 1, 1, s.is_vxlan.or(s.vni.map(|_| true)).map(u64::from));
        field(2, 0, 1, s.is_fragment.map(u64::from));

        // The first terminal action ends the rule; modifying actions before
        // it apply, the last tag and the last goto win, and a rule with
        // neither a verdict nor a goto drops (misconfiguration).
        let mut decap = false;
        let mut tag = None;
        let mut goto = None;
        let mut verdict = None;
        for action in &rule.actions {
            verdict = match *action {
                Action::Drop => Some(Verdict::Drop),
                Action::ToHostRss { rss_id } => Some(Verdict::HostRss { rss_id }),
                Action::ToHostQueue { queue } => Some(Verdict::HostQueue { queue }),
                Action::ToAccelerator { queue, next_table } => {
                    Some(Verdict::Accelerator { queue, next_table })
                }
                Action::ToWire { port } => Some(Verdict::Wire { port }),
                Action::VxlanDecap => {
                    decap = true;
                    None
                }
                Action::TagContext { context } => {
                    tag = Some(context);
                    None
                }
                Action::GotoTable { table } => {
                    goto = Some(table);
                    None
                }
            };
            if verdict.is_some() {
                break;
            }
        }
        let next = match (verdict, goto) {
            (Some(v), _) => Next::Verdict(v),
            (None, Some(table)) => Next::Goto(table),
            (None, None) => Next::Verdict(Verdict::Drop),
        };
        Some(Entry {
            priority: rule.priority,
            value,
            mask,
            decap,
            tag,
            next,
        })
    }

    fn hits(&self, key: &Key) -> bool {
        ((key[0] & self.mask[0]) ^ self.value[0])
            | ((key[1] & self.mask[1]) ^ self.value[1])
            | ((key[2] & self.mask[2]) ^ self.value[2])
            == 0
    }
}

/// One match-action table: the rules as installed, and their TCAM.
#[derive(Debug, Default)]
pub struct Table {
    /// Installed rules in install order (what [`Pipeline::remove_where`]
    /// inspects).
    rules: Vec<Rule>,
    /// Compiled entries in lookup order: priority descending, the later
    /// install first among equal priorities — the rule a linear
    /// `max_by_key(priority)` over `rules` returns, since it keeps the
    /// last maximum.
    entries: Vec<Entry>,
}

impl Table {
    fn place(entries: &mut Vec<Entry>, rule: &Rule) {
        if let Some(entry) = Entry::compile(rule) {
            let at = entries.partition_point(|e| e.priority > entry.priority);
            entries.insert(at, entry);
        }
    }

    fn lookup(&self, key: &Key) -> Option<&Entry> {
        self.entries.iter().find(|e| e.hits(key))
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

    /// Installs a rule into `table`, compiling it into the table's TCAM.
    ///
    /// # Panics
    ///
    /// Panics if `table` does not exist.
    pub fn install(&mut self, table: u16, rule: Rule) {
        let t = &mut self.tables[table as usize];
        Table::place(&mut t.entries, &rule);
        t.rules.push(rule);
    }

    /// Removes every rule (from every table) for which `pred` holds —
    /// how a VF hot-unplug evicts the tenant's steering entries from
    /// the shared TCAM. Returns the number of rules removed.
    pub fn remove_where(&mut self, pred: impl Fn(&Rule) -> bool) -> usize {
        let mut removed = 0;
        for t in &mut self.tables {
            let before = t.rules.len();
            t.rules.retain(|r| !pred(r));
            if t.rules.len() < before {
                removed += before - t.rules.len();
                t.entries.clear();
                for rule in &t.rules {
                    Table::place(&mut t.entries, rule);
                }
            }
        }
        removed
    }

    /// Classifies a packet starting from `start_table`, applying tag and
    /// decap side effects to `meta` along the way.
    ///
    /// Packets that miss every rule are dropped, matching default-deny
    /// eSwitch semantics.
    pub fn classify(&self, meta: &mut PacketMeta, start_table: u16) -> (Verdict, SideEffects) {
        let mut table = start_table;
        let mut effects = SideEffects::default();
        for _ in 0..MAX_HOPS {
            let Some(entry) = self
                .tables
                .get(table as usize)
                .and_then(|t| t.lookup(&pack(meta)))
            else {
                return (Verdict::Drop, effects);
            };
            if entry.decap {
                effects.decapped = true;
                meta.vni = None;
            }
            if let Some(context) = entry.tag {
                effects.tagged = Some(context);
                meta.context_id = context;
            }
            match entry.next {
                Next::Verdict(verdict) => return (verdict, effects),
                Next::Goto(next) => table = next,
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

    /// Whether a one-rule pipeline holding `spec` matches `m`.
    fn hits(spec: MatchSpec, m: &PacketMeta) -> bool {
        let mut p = Pipeline::new(1);
        p.install(
            0,
            Rule {
                priority: 0,
                spec,
                actions: vec![Action::ToHostQueue { queue: 0 }],
            },
        );
        let hit = p.classify(&mut m.clone(), 0).0 == Verdict::HostQueue { queue: 0 };
        assert_eq!(hit, reference::matches(&spec, m), "{spec:?} on {m:?}");
        hit
    }

    #[test]
    fn wildcard_matches_everything() {
        assert!(hits(MatchSpec::any(), &meta(80)));
        assert!(hits(MatchSpec::any(), &PacketMeta::default()));
    }

    #[test]
    fn field_predicates() {
        let spec = MatchSpec {
            dst_port: Some(80),
            ip_proto: Some(17),
            ..MatchSpec::any()
        };
        assert!(hits(spec, &meta(80)));
        assert!(!hits(spec, &meta(81)));
    }

    #[test]
    fn contradictory_spec_compiles_to_no_entry() {
        let mut tunnelled = meta(80);
        tunnelled.vni = std::num::NonZeroU32::new(9);
        let never = [
            MatchSpec {
                is_vxlan: Some(false),
                vni: Some(9),
                ..MatchSpec::any()
            },
            MatchSpec {
                vni: Some(0),
                ..MatchSpec::any()
            },
        ];
        for spec in never {
            assert!(!hits(spec, &tunnelled));
            assert!(!hits(spec, &meta(80)));
            let mut p = Pipeline::new(1);
            p.install(
                0,
                Rule {
                    priority: 0,
                    spec,
                    actions: vec![Action::Drop],
                },
            );
            assert!(p.tables[0].entries.is_empty());
            assert_eq!(p.remove_where(|_| true), 1, "the rule is still installed");
        }
        let vni = MatchSpec {
            vni: Some(9),
            ..MatchSpec::any()
        };
        assert!(hits(vni, &tunnelled));
        assert!(!hits(vni, &meta(80)));
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

    /// The linear classifier the TCAM replaced, kept as its oracle: every
    /// rule's predicates checked in turn, the last highest-priority match
    /// taken, and its actions walked in order.
    mod reference {
        use super::super::*;

        pub fn matches(spec: &MatchSpec, meta: &PacketMeta) -> bool {
            fn ok<T: PartialEq>(spec: Option<T>, actual: T) -> bool {
                spec.is_none_or(|s| s == actual)
            }
            ok(spec.is_fragment, meta.is_fragment)
                && ok(spec.is_vxlan, meta.vni.is_some())
                && (spec.vni.is_none() || spec.vni == meta.vni_u32())
                && ok(spec.ip_proto, meta.flow.proto)
                && ok(spec.dst_port, meta.flow.dst_port)
                && ok(spec.src_port, meta.flow.src_port)
                && ok(spec.dst_ip, meta.flow.dst)
                && ok(spec.src_ip, meta.flow.src)
                && ok(spec.context_id, meta.context_id)
        }

        pub fn classify(
            tables: &[Vec<Rule>],
            meta: &mut PacketMeta,
            start_table: u16,
        ) -> (Verdict, SideEffects) {
            let mut table = start_table as usize;
            let mut effects = SideEffects::default();
            for _ in 0..MAX_HOPS {
                let Some(t) = tables.get(table) else {
                    return (Verdict::Drop, effects);
                };
                let Some(rule) = t
                    .iter()
                    .filter(|r| matches(&r.spec, meta))
                    .max_by_key(|r| r.priority)
                else {
                    return (Verdict::Drop, effects);
                };
                let mut next: Option<usize> = None;
                for action in &rule.actions {
                    match *action {
                        Action::Drop => return (Verdict::Drop, effects),
                        Action::ToHostRss { rss_id } => {
                            return (Verdict::HostRss { rss_id }, effects)
                        }
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
                    None => return (Verdict::Drop, effects),
                }
            }
            (Verdict::Drop, effects)
        }
    }

    /// Draws from small domains, so that rules overlap, tie and chain.
    struct Draw(fld_sim::rng::SimRng);

    impl Draw {
        fn below(&mut self, n: u64) -> u64 {
            self.0.next_below(n)
        }

        fn maybe<T>(&mut self, f: impl FnOnce(&mut Self) -> T) -> Option<T> {
            (self.below(3) == 0).then(|| f(self))
        }

        fn ip(&mut self) -> Ipv4Addr {
            Ipv4Addr::new(10, 0, 0, 1 + self.below(2) as u8)
        }

        fn spec(&mut self) -> MatchSpec {
            MatchSpec {
                is_fragment: self.maybe(|d| d.below(2) == 1),
                is_vxlan: self.maybe(|d| d.below(2) == 1),
                // VNI 0 never matches: it parses untunnelled.
                vni: self.maybe(|d| [0, 5, 6][d.below(3) as usize]),
                ip_proto: self.maybe(|d| [6, 17][d.below(2) as usize]),
                dst_port: self.maybe(|d| 80 + d.below(2) as u16),
                src_port: self.maybe(|d| 1 + d.below(2) as u16),
                dst_ip: self.maybe(Self::ip),
                src_ip: self.maybe(Self::ip),
                context_id: self.maybe(|d| d.below(3) as u32),
            }
        }

        fn action(&mut self) -> Action {
            let small = self.below(3) as u16;
            match self.below(8) {
                0 => Action::Drop,
                1 => Action::ToHostRss { rss_id: small },
                2 => Action::ToHostQueue { queue: small },
                3 => Action::ToAccelerator {
                    queue: small,
                    next_table: self.below(4) as u16,
                },
                4 => Action::ToWire { port: small as u8 },
                5 => Action::VxlanDecap,
                6 => Action::TagContext {
                    context: small as u32,
                },
                // Table 3 does not exist: a goto there drops.
                _ => Action::GotoTable {
                    table: self.below(4) as u16,
                },
            }
        }

        fn rule(&mut self) -> Rule {
            let n = self.below(5);
            Rule {
                priority: self.below(3) as i32,
                spec: self.spec(),
                actions: (0..n).map(|_| self.action()).collect(),
            }
        }

        fn meta(&mut self) -> PacketMeta {
            PacketMeta {
                flow: FlowKey::new(
                    self.ip(),
                    self.ip(),
                    1 + self.below(2) as u16,
                    80 + self.below(2) as u16,
                    [6, 17][self.below(2) as usize],
                ),
                is_fragment: self.below(2) == 1,
                vni: std::num::NonZeroU32::new([0, 5, 6][self.below(3) as usize]),
                context_id: self.below(3) as u32,
                ..PacketMeta::default()
            }
        }
    }

    /// Classifies random packets from every start table (one past the
    /// last included) through both classifiers.
    fn agree(p: &Pipeline, model: &[Vec<Rule>], d: &mut Draw) {
        for _ in 0..64 {
            let m = d.meta();
            for start in 0..=model.len() as u16 {
                let (mut got, mut want) = (m, m);
                assert_eq!(
                    p.classify(&mut got, start),
                    reference::classify(model, &mut want, start),
                    "{m:?} from table {start}"
                );
                assert_eq!(got, want, "rewritten meta from table {start}");
            }
        }
    }

    proptest::proptest! {
        /// The compiled pipeline classifies exactly as the linear one:
        /// same verdict, side effects and rewritten meta, before and
        /// after a `remove_where`.
        #[test]
        fn tcam_agrees_with_the_linear_classifier(seed: u64) {
            let mut d = Draw(fld_sim::rng::SimRng::seed_from(seed));
            let mut p = Pipeline::new(3);
            let mut model: Vec<Vec<Rule>> = vec![Vec::new(); 3];
            for _ in 0..d.below(24) {
                let table = d.below(3) as u16;
                let rule = d.rule();
                model[table as usize].push(rule.clone());
                p.install(table, rule);
            }
            agree(&p, &model, &mut d);

            let priority = d.below(3) as i32;
            let ip = d.ip();
            let evict = |r: &Rule| r.priority == priority && r.spec.src_ip != Some(ip);
            let before: usize = model.iter().map(Vec::len).sum();
            for t in &mut model {
                t.retain(|r| !evict(r));
            }
            let after: usize = model.iter().map(Vec::len).sum();
            assert_eq!(p.remove_where(evict), before - after);
            agree(&p, &model, &mut d);
        }
    }
}
