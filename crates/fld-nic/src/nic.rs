//! The NIC device model: classification pipelines, RSS contexts, policers
//! and SR-IOV virtual functions under one roof, plus the control-plane
//! command interface that installs rules on behalf of the accelerator
//! (paper Figure 5).

use fld_sim::counters::{Counter, CounterTree};
use fld_sim::time::{Bandwidth, SimTime};

use crate::eswitch::{Pipeline, Rule, SideEffects, Verdict};
use crate::packet::PacketMeta;
use crate::rss::RssContext;
use crate::shaper::{PolicerSet, PolicerVerdict};
use crate::vf::{SrIov, VfConfig, VfError};

/// Which classification pipeline a rule targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Packets arriving from the wire.
    Ingress,
    /// Packets submitted by the host or the accelerator.
    Egress,
}

/// Errors returned by the NIC command interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicError {
    /// Referenced RSS context does not exist.
    UnknownRss(u16),
    /// Referenced table does not exist.
    UnknownTable(u16),
    /// A VF rule install was refused by the SR-IOV partition.
    Vf(VfError),
}

impl std::fmt::Display for NicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NicError::UnknownRss(id) => write!(f, "unknown rss context {id}"),
            NicError::UnknownTable(t) => write!(f, "unknown table {t}"),
            NicError::Vf(e) => write!(f, "{e}"),
        }
    }
}

impl From<VfError> for NicError {
    fn from(e: VfError) -> NicError {
        NicError::Vf(e)
    }
}

impl std::error::Error for NicError {}

/// Static NIC configuration.
#[derive(Debug, Clone, Copy)]
pub struct NicConfig {
    /// Number of match-action tables per pipeline.
    pub tables: usize,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig { tables: 4 }
    }
}

/// The NIC device.
#[derive(Debug)]
pub struct Nic {
    config: NicConfig,
    ingress: Pipeline,
    egress: Pipeline,
    rss_contexts: Vec<RssContext>,
    policers: PolicerSet,
    /// Packets dropped by policers.
    policer_drops: u64,
    /// Packets dropped by classification.
    classifier_drops: u64,
    /// Packets matched (any verdict but `Drop`) by classification.
    classifier_matches: u64,
    /// eSwitch counter-tree handles (`eswitch/port/<p>/...`), detached
    /// until [`Nic::wire_counters`].
    ctr_match: Counter,
    ctr_miss: Counter,
    ctr_policer_drop: Counter,
    /// SR-IOV virtual functions (empty ⇒ disabled, every hook a no-op).
    sriov: SrIov,
}

impl Nic {
    /// Creates a NIC with empty pipelines.
    pub fn new(config: NicConfig) -> Self {
        Nic {
            config,
            ingress: Pipeline::new(config.tables),
            egress: Pipeline::new(config.tables),
            rss_contexts: Vec::new(),
            policers: PolicerSet::new(),
            policer_drops: 0,
            classifier_drops: 0,
            classifier_matches: 0,
            ctr_match: Counter::detached(),
            ctr_miss: Counter::detached(),
            ctr_policer_drop: Counter::detached(),
            sriov: SrIov::new(),
        }
    }

    /// Registers this NIC's eSwitch counters as port `port` of `tree`
    /// (`eswitch/port/<p>/match|miss|policer_drop`), carrying over
    /// anything counted before wiring. The counter values mirror the
    /// `eswitch.matches`, `eswitch.drops` and `policer.drops` metrics
    /// exactly — the telescoping audit holds the
    /// two bookkeeping systems to that.
    pub fn wire_counters(&mut self, tree: &CounterTree, port: usize) {
        self.ctr_match = tree.counter(&format!("eswitch/port/{port}/match"));
        self.ctr_match.add(self.classifier_matches);
        self.ctr_miss = tree.counter(&format!("eswitch/port/{port}/miss"));
        self.ctr_miss.add(self.classifier_drops);
        self.ctr_policer_drop = tree.counter(&format!("eswitch/port/{port}/policer_drop"));
        self.ctr_policer_drop.add(self.policer_drops);
        self.sriov.wire_counters(tree);
    }

    /// The classifier half of the counter-telescoping audit: the three
    /// `eswitch/port/<p>/...` counters against the aggregates this NIC
    /// maintains at the same events.
    pub fn audit_classifier_counters(&self, at: SimTime, auditor: &mut fld_sim::audit::Auditor) {
        for (ctr, aggregate) in [
            (&self.ctr_match, self.classifier_matches),
            (&self.ctr_miss, self.classifier_drops),
            (&self.ctr_policer_drop, self.policer_drops),
        ] {
            auditor.check_counter_eq(at, "counters.eswitch", ctr, aggregate);
        }
    }

    // ---- control plane ----

    /// Installs a match-action rule.
    ///
    /// # Errors
    ///
    /// Fails if the table does not exist.
    pub fn install_rule(
        &mut self,
        direction: Direction,
        table: u16,
        rule: Rule,
    ) -> Result<(), NicError> {
        if table as usize >= self.config.tables {
            return Err(NicError::UnknownTable(table));
        }
        match direction {
            Direction::Ingress => self.ingress.install(table, rule),
            Direction::Egress => self.egress.install(table, rule),
        }
        Ok(())
    }

    /// Creates an SR-IOV virtual function; returns its id.
    pub fn create_vf(&mut self, cfg: VfConfig) -> u16 {
        self.sriov.create_vf(cfg)
    }

    /// Installs a match-action rule on behalf of a VF, enforcing the
    /// SR-IOV partition: the rule must pin the VF's own traffic (its
    /// context tag or bound source address) and fit its quota.
    ///
    /// # Errors
    ///
    /// Fails if the table does not exist, the VF does not exist, the
    /// rule is not scoped to the VF, or the quota is spent.
    pub fn install_vf_rule(
        &mut self,
        vf: u16,
        direction: Direction,
        table: u16,
        rule: Rule,
    ) -> Result<(), NicError> {
        if table as usize >= self.config.tables {
            return Err(NicError::UnknownTable(table));
        }
        self.sriov.admit_rule(vf, &rule.spec)?;
        self.install_rule(direction, table, rule)
    }

    /// Hot-unplugs a VF: every steering rule pinning the VF's context
    /// tag or bound source address is evicted from both pipelines (the
    /// TCAM space goes back to the shared pool), the quota booking and
    /// shaper state are reclaimed, and until [`Nic::replug_vf`] the VF's
    /// traffic is dropped-and-counted in `vf/<n>/unplug_drops`. Returns
    /// the number of pipeline rules evicted; `None` for an unknown VF.
    pub fn unplug_vf(&mut self, vf: u16) -> Option<usize> {
        let ctx = self.sriov.context_of(vf)?;
        let ip = self.sriov.src_ip_of(vf);
        let owns =
            move |r: &Rule| r.spec.context_id == Some(ctx) || (ip.is_some() && r.spec.src_ip == ip);
        let removed = self.ingress.remove_where(owns) + self.egress.remove_where(owns);
        self.sriov.unplug(vf);
        Some(removed)
    }

    /// Replugs a previously unplugged VF (fresh shaper, empty quota).
    /// The caller reinstalls the VF's rules through
    /// [`Nic::install_vf_rule`]. Returns `false` for an unknown VF.
    pub fn replug_vf(&mut self, vf: u16) -> bool {
        self.sriov.replug(vf)
    }

    /// The SR-IOV state (VF lookup, PF totals, telescoping audit).
    pub fn sriov(&self) -> &SrIov {
        &self.sriov
    }

    /// Mutable SR-IOV state (data-path accounting, shaper offers).
    pub fn sriov_mut(&mut self) -> &mut SrIov {
        &mut self.sriov
    }

    /// Creates an RSS context spreading over `queues` queues; returns its id.
    pub fn create_rss(&mut self, queues: u16) -> u16 {
        self.rss_contexts.push(RssContext::new(queues));
        (self.rss_contexts.len() - 1) as u16
    }

    /// Installs a maximum-bandwidth policer for a tenant context.
    pub fn install_policer(&mut self, context: u32, rate: Bandwidth, burst_bytes: u64) {
        self.policers.install(context, rate, burst_bytes);
    }

    // ---- data plane ----

    /// Classifies a packet arriving from the wire.
    pub fn classify_ingress(&mut self, meta: &mut PacketMeta) -> (Verdict, SideEffects) {
        let (verdict, fx) = self.ingress.classify(meta, 0);
        self.count_verdict(verdict);
        (verdict, fx)
    }

    /// Resumes classification for a packet returning from the accelerator
    /// at `next_table` (the FLD-E "resume where the acceleration action
    /// took off" semantics, § 5.3).
    pub fn classify_resumed(
        &mut self,
        meta: &mut PacketMeta,
        next_table: u16,
    ) -> (Verdict, SideEffects) {
        let (verdict, fx) = self.ingress.classify(meta, next_table);
        self.count_verdict(verdict);
        (verdict, fx)
    }

    /// Classifies a packet submitted for transmission by the host or FLD.
    pub fn classify_egress(&mut self, meta: &mut PacketMeta) -> (Verdict, SideEffects) {
        let (verdict, fx) = self.egress.classify(meta, 0);
        self.count_verdict(verdict);
        (verdict, fx)
    }

    /// Books one classification outcome on both sides: the aggregate
    /// fields and the eSwitch per-port counters (mlx5 counts the same
    /// event as a flow-table hit/miss).
    fn count_verdict(&mut self, verdict: Verdict) {
        if verdict == Verdict::Drop {
            self.classifier_drops += 1;
            self.ctr_miss.inc();
        } else {
            self.classifier_matches += 1;
            self.ctr_match.inc();
        }
    }

    /// Picks the receive queue for a packet via an RSS context.
    ///
    /// # Errors
    ///
    /// Fails if the context does not exist.
    pub fn rss_queue(&self, rss_id: u16, meta: &PacketMeta) -> Result<u16, NicError> {
        self.rss_contexts
            .get(rss_id as usize)
            .map(|r| r.queue_for(meta))
            .ok_or(NicError::UnknownRss(rss_id))
    }

    /// Applies the per-context policer; returns `false` when the packet
    /// must be dropped.
    pub fn police(&mut self, context: u32, now: SimTime, bytes: u64) -> bool {
        match self.policers.offer(context, now, bytes) {
            PolicerVerdict::Exceed => {
                self.policer_drops += 1;
                self.ctr_policer_drop.inc();
                false
            }
            _ => true,
        }
    }

    /// Packets dropped by policers so far.
    pub fn policer_drops(&self) -> u64 {
        self.policer_drops
    }

    /// Total shaper tokens in bytes across all installed policers at
    /// `now` (flight-recorder probe; 0 with no policers installed).
    pub fn shaper_tokens(&mut self, now: SimTime) -> f64 {
        self.policers.total_tokens(now)
    }

    /// Total shaper burst capacity in bytes across all installed
    /// policers (the bound audited against [`Nic::shaper_tokens`]).
    pub fn shaper_burst_bytes(&self) -> u64 {
        self.policers.total_burst_bytes()
    }

    /// Registers the NIC's telemetry under `prefix` (e.g.
    /// `"{prefix}.eswitch.drops"`).
    pub fn export_metrics(&self, prefix: &str, registry: &mut fld_sim::metrics::MetricsRegistry) {
        registry.counter(format!("{prefix}.eswitch.drops"), self.classifier_drops);
        registry.counter(format!("{prefix}.eswitch.matches"), self.classifier_matches);
        registry.counter(format!("{prefix}.policer.drops"), self.policer_drops);
        registry.counter(
            format!("{prefix}.rss_contexts"),
            self.rss_contexts.len() as u64,
        );
    }

    /// One probe: the aggregate shaper token level
    /// (`"{name}.shaper.tokens"`).
    pub fn probes(&mut self, name: &str, now: SimTime, out: &mut fld_sim::engine::Probes) {
        out.push_scoped(name, "shaper.tokens", self.shaper_tokens(now));
    }

    /// Shaper token level bounded by the aggregate burst pool, plus the
    /// per-VF → PF counter telescoping when SR-IOV is enabled.
    pub fn audit(&mut self, name: &str, at: SimTime, auditor: &mut fld_sim::audit::Auditor) {
        let tokens = self.shaper_tokens(at);
        let burst = self.shaper_burst_bytes() as f64;
        auditor.check(
            at,
            format_args!("{name}.shaper"),
            "credits",
            (0.0..=burst + 1e-6).contains(&tokens),
            || format!("token level {tokens} outside pool 0..={burst}"),
        );
        if self.sriov.is_enabled() {
            let vf_tokens = self.sriov.shaper_tokens(at);
            let vf_burst = self.sriov.shaper_burst_bytes() as f64;
            auditor.check(
                at,
                format_args!("{name}.vf.shaper"),
                "credits",
                (0.0..=vf_burst + 1e-6).contains(&vf_tokens),
                || format!("vf token level {vf_tokens} outside pool 0..={vf_burst}"),
            );
            self.sriov.audit(format_args!("{name}.sriov"), at, auditor);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eswitch::{Action, MatchSpec};
    use fld_net::{FlowKey, Ipv4Addr};

    /// The NIC counter `name` as its metrics export reports it.
    fn exported(nic: &Nic, name: &str) -> Option<u64> {
        let mut m = fld_sim::metrics::MetricsRegistry::new();
        nic.export_metrics("nic", &mut m);
        m.counter_value(&format!("nic.{name}"))
    }

    fn meta() -> PacketMeta {
        PacketMeta {
            flow: FlowKey::new(
                Ipv4Addr::new(1, 1, 1, 1),
                Ipv4Addr::new(2, 2, 2, 2),
                1111,
                2222,
                17,
            ),
            checksum_ok: true,
            ..PacketMeta::default()
        }
    }

    #[test]
    fn rule_installation_and_classification() {
        let mut nic = Nic::new(NicConfig::default());
        nic.install_rule(
            Direction::Ingress,
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToHostRss { rss_id: 0 }],
            },
        )
        .unwrap();
        let rss = nic.create_rss(8);
        assert_eq!(rss, 0);
        let mut m = meta();
        let (verdict, _) = nic.classify_ingress(&mut m);
        assert_eq!(verdict, Verdict::HostRss { rss_id: 0 });
        let q = nic.rss_queue(0, &m).unwrap();
        assert!(q < 8);
    }

    #[test]
    fn unknown_table_rejected() {
        let mut nic = Nic::new(NicConfig::default());
        let err = nic
            .install_rule(
                Direction::Egress,
                99,
                Rule {
                    priority: 0,
                    spec: MatchSpec::any(),
                    actions: vec![Action::Drop],
                },
            )
            .unwrap_err();
        assert_eq!(err, NicError::UnknownTable(99));
    }

    #[test]
    fn policer_integration() {
        let mut nic = Nic::new(NicConfig::default());
        nic.install_policer(3, Bandwidth::gbps(1.0), 1500);
        assert!(nic.police(3, SimTime::ZERO, 1500));
        assert!(!nic.police(3, SimTime::ZERO, 1500));
        assert_eq!(nic.policer_drops(), 1);
        // Unpoliced context always passes.
        assert!(nic.police(99, SimTime::ZERO, 1500));
    }

    #[test]
    fn drops_counted() {
        let mut nic = Nic::new(NicConfig::default());
        let mut m = meta();
        // Empty pipeline: miss -> drop.
        let (v, _) = nic.classify_ingress(&mut m);
        assert_eq!(v, Verdict::Drop);
        assert_eq!(exported(&nic, "eswitch.drops"), Some(1));
    }

    #[test]
    fn eswitch_counters_mirror_the_aggregates() {
        let tree = CounterTree::new();
        let mut nic = Nic::new(NicConfig::default());
        // Count before wiring: the wire must carry the backlog over.
        let mut m = meta();
        let (v, _) = nic.classify_ingress(&mut m);
        assert_eq!(v, Verdict::Drop);
        nic.wire_counters(&tree, 0);
        assert_eq!(tree.snapshot().get("eswitch/port/0/miss"), Some(1));
        nic.install_rule(
            Direction::Ingress,
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToHostRss { rss_id: 0 }],
            },
        )
        .unwrap();
        let (v, _) = nic.classify_ingress(&mut meta());
        assert_ne!(v, Verdict::Drop);
        nic.install_policer(3, Bandwidth::gbps(1.0), 1500);
        assert!(nic.police(3, SimTime::ZERO, 1500));
        assert!(!nic.police(3, SimTime::ZERO, 1500));
        assert_eq!(
            tree.snapshot().get("eswitch/port/0/match"),
            exported(&nic, "eswitch.matches")
        );
        assert_eq!(
            tree.snapshot().get("eswitch/port/0/miss"),
            exported(&nic, "eswitch.drops")
        );
        assert_eq!(
            tree.snapshot().get("eswitch/port/0/policer_drop"),
            Some(nic.policer_drops())
        );
    }

    #[test]
    fn resume_at_next_table() {
        let mut nic = Nic::new(NicConfig::default());
        nic.install_rule(
            Direction::Ingress,
            2,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToHostRss { rss_id: 0 }],
            },
        )
        .unwrap();
        let mut m = meta();
        let (v, _) = nic.classify_resumed(&mut m, 2);
        assert_eq!(v, Verdict::HostRss { rss_id: 0 });
    }
}
