//! SR-IOV-style virtual functions over the eSwitch.
//!
//! A physical NIC port (the PF) is partitioned into virtual functions,
//! one per tenant: each VF owns a bounded slice of the match-action rule
//! space (rules that may only match the VF's own traffic), an optional
//! transmit token-bucket shaper (the per-tenant maximum-bandwidth
//! guarantee the rack isolation experiment measures), and a counter
//! subtree `vf/<n>/...` whose per-VF leaves telescope to the PF
//! aggregates this module maintains independently — the same two-sided
//! bookkeeping contract as every other counter group, enforced by
//! [`fld_sim::audit::Auditor::check_counter_sum`].
//!
//! The partition is enforced at rule-install time, the way mlx5's
//! eSwitch forwards a VF's steering commands through the PF: a rule
//! submitted on behalf of a VF must pin that VF's tenant context (or its
//! bound source address) in its match spec, and each VF has a hard rule
//! quota, so no tenant can classify — or drop — another tenant's
//! packets, and no tenant can exhaust the shared TCAM.

use fld_net::Ipv4Addr;
use fld_sim::counters::{Counter, CounterSum, CounterTree};
use fld_sim::link::TokenBucket;
use fld_sim::time::{Bandwidth, SimTime};

use crate::eswitch::MatchSpec;

/// Static configuration of one virtual function.
#[derive(Debug, Clone, Copy)]
pub struct VfConfig {
    /// The tenant context this VF carries. Rules installed through the
    /// VF must pin it (or `src_ip`); data-path accounting is keyed on it.
    pub context: u32,
    /// Source address bound to the VF, usable instead of the context tag
    /// in rule match specs (ingress rules classify *before* tagging).
    pub src_ip: Option<Ipv4Addr>,
    /// Most rules this VF may install across both pipelines.
    pub rule_quota: usize,
    /// Optional transmit shaper: `(rate, burst_bytes)`. Non-conforming
    /// transmissions are dropped and counted in `vf/<n>/shaper_drops`.
    pub tx_shaper: Option<(Bandwidth, u64)>,
}

impl VfConfig {
    /// An unshaped VF for `context` with a 16-rule quota.
    pub fn for_context(context: u32) -> VfConfig {
        VfConfig {
            context,
            src_ip: None,
            rule_quota: 16,
            tx_shaper: None,
        }
    }
}

/// One virtual function: its config, rule budget, shaper, and counters.
#[derive(Debug)]
struct VfSlot {
    cfg: VfConfig,
    rules_installed: usize,
    shaper: Option<TokenBucket>,
    unplugged: bool,
    rx_packets: Counter,
    rx_bytes: Counter,
    tx_packets: Counter,
    tx_bytes: Counter,
    shaper_drops: Counter,
    unplug_drops: Counter,
}

impl VfSlot {
    fn new(cfg: VfConfig) -> VfSlot {
        VfSlot {
            cfg,
            rules_installed: 0,
            shaper: cfg
                .tx_shaper
                .map(|(rate, burst)| TokenBucket::new(rate, burst)),
            unplugged: false,
            rx_packets: Counter::detached(),
            rx_bytes: Counter::detached(),
            tx_packets: Counter::detached(),
            tx_bytes: Counter::detached(),
            shaper_drops: Counter::detached(),
            unplug_drops: Counter::detached(),
        }
    }

    /// Re-resolves this slot's counters into `tree`, carrying over
    /// anything counted while detached.
    fn wire(&mut self, tree: &CounterTree, vf: usize) {
        for (leaf, ctr) in VF_LEAVES.iter().zip([
            &mut self.rx_packets,
            &mut self.rx_bytes,
            &mut self.tx_packets,
            &mut self.tx_bytes,
            &mut self.shaper_drops,
            &mut self.unplug_drops,
        ]) {
            let wired = tree.counter(&format!("vf/{vf}/{leaf}"));
            wired.add(ctr.get());
            *ctr = wired;
        }
    }
}

/// The PF-side aggregates the per-VF counters telescope to, maintained
/// as plain integers on every accounting call (independent bookkeeping
/// the audit holds the counter tree to).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PfTotals {
    /// Packets received across all VFs.
    pub rx_packets: u64,
    /// Bytes received across all VFs.
    pub rx_bytes: u64,
    /// Packets transmitted (shaper-conforming) across all VFs.
    pub tx_packets: u64,
    /// Bytes transmitted across all VFs.
    pub tx_bytes: u64,
    /// Transmissions dropped by per-VF shapers.
    pub shaper_drops: u64,
    /// Packets offered to (or arriving for) an unplugged VF, dropped.
    pub unplug_drops: u64,
}

impl PfTotals {
    /// Sum of every aggregate — what the whole `vf/` subtree sums to.
    pub fn grand_total(&self) -> u64 {
        self.by_leaf().iter().sum()
    }

    /// The aggregates in [`VF_LEAVES`] order.
    fn by_leaf(&self) -> [u64; VF_LEAVES.len()] {
        [
            self.rx_packets,
            self.rx_bytes,
            self.tx_packets,
            self.tx_bytes,
            self.shaper_drops,
            self.unplug_drops,
        ]
    }
}

/// The SR-IOV switchdev state of one NIC: the VF slots plus the PF
/// aggregates. Empty (`is_enabled() == false`) until the first
/// [`SrIov::create_vf`], and every data-path hook is a cheap no-op then,
/// so single-tenant systems pay nothing.
#[derive(Debug, Default)]
pub struct SrIov {
    vfs: Vec<VfSlot>,
    pf: PfTotals,
    wired: Option<Wired>,
}

/// What [`SrIov::wire_counters`] resolves: the tree later VFs register
/// in, and the audit's groups over the `vf/` subtree. The groups follow
/// the tree's growth, so VFs created after wiring are summed too.
#[derive(Debug)]
struct Wired {
    tree: CounterTree,
    /// The whole `vf/` subtree.
    all: CounterSum,
    /// `vf/*/<leaf>` per leaf of [`VF_LEAVES`].
    per_leaf: [CounterSum; VF_LEAVES.len()],
}

/// The per-VF counter leaves, in [`PfTotals::by_leaf`] order.
const VF_LEAVES: [&str; 6] = [
    "rx_packets",
    "rx_bytes",
    "tx_packets",
    "tx_bytes",
    "shaper_drops",
    "unplug_drops",
];

/// Reasons a VF rule install is refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VfError {
    /// No such VF.
    UnknownVf(u16),
    /// The VF's rule quota is exhausted.
    QuotaExceeded(u16),
    /// The rule's match spec does not pin the VF's own traffic (its
    /// context tag or bound source address) — it could match another
    /// tenant's packets.
    Unscoped(u16),
}

impl std::fmt::Display for VfError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VfError::UnknownVf(vf) => write!(f, "unknown vf {vf}"),
            VfError::QuotaExceeded(vf) => write!(f, "vf {vf} rule quota exceeded"),
            VfError::Unscoped(vf) => {
                write!(f, "rule for vf {vf} is not scoped to its own traffic")
            }
        }
    }
}

impl std::error::Error for VfError {}

impl SrIov {
    /// An SR-IOV state with no VFs (disabled).
    pub fn new() -> SrIov {
        SrIov::default()
    }

    /// Whether any VF exists.
    pub fn is_enabled(&self) -> bool {
        !self.vfs.is_empty()
    }

    /// Creates a VF; returns its id. Wired into the counter tree
    /// immediately when [`SrIov::wire_counters`] already ran.
    pub fn create_vf(&mut self, cfg: VfConfig) -> u16 {
        let vf = self.vfs.len();
        let mut slot = VfSlot::new(cfg);
        if let Some(wired) = &self.wired {
            slot.wire(&wired.tree, vf);
        }
        self.vfs.push(slot);
        vf as u16
    }

    /// Registers every VF's counters under `vf/<n>/...` of `tree`,
    /// carrying over pre-wiring counts. VFs created later wire
    /// themselves on creation.
    pub fn wire_counters(&mut self, tree: &CounterTree) {
        for (vf, slot) in self.vfs.iter_mut().enumerate() {
            slot.wire(tree, vf);
        }
        self.wired = Some(Wired {
            tree: tree.clone(),
            all: CounterSum::under(tree, "vf"),
            per_leaf: VF_LEAVES.map(|leaf| CounterSum::leaves(tree, "vf", leaf)),
        });
    }

    /// The context carried by `vf`.
    pub fn context_of(&self, vf: u16) -> Option<u32> {
        self.vfs.get(vf as usize).map(|s| s.cfg.context)
    }

    /// The source address bound to `vf`, if any.
    pub fn src_ip_of(&self, vf: u16) -> Option<Ipv4Addr> {
        self.vfs.get(vf as usize).and_then(|s| s.cfg.src_ip)
    }

    /// Hot-unplugs `vf`: its rule-quota booking is reclaimed (the caller
    /// removes the rules themselves from the pipelines), its shaper
    /// state is released, and until [`SrIov::replug`] every packet
    /// offered to or arriving for it is dropped and counted in
    /// `vf/<n>/unplug_drops`. Counters stay monotonic across the
    /// transition so the PF telescoping audit holds throughout.
    /// Returns the number of rule bookings reclaimed; `None` for an
    /// unknown VF.
    pub fn unplug(&mut self, vf: u16) -> Option<usize> {
        let slot = self.vfs.get_mut(vf as usize)?;
        slot.unplugged = true;
        let reclaimed = std::mem::take(&mut slot.rules_installed);
        slot.shaper = None;
        Some(reclaimed)
    }

    /// Replugs a previously unplugged `vf`: the shaper is rebuilt fresh
    /// from the VF's static config (full burst, empty history — the
    /// state was reclaimed at unplug). Rules must be reinstalled through
    /// [`SrIov::admit_rule`]; the quota starts empty. Returns `false`
    /// for an unknown VF.
    pub fn replug(&mut self, vf: u16) -> bool {
        let Some(slot) = self.vfs.get_mut(vf as usize) else {
            return false;
        };
        slot.unplugged = false;
        slot.shaper = slot
            .cfg
            .tx_shaper
            .map(|(rate, burst)| TokenBucket::new(rate, burst));
        true
    }

    /// Validates a rule install on behalf of `vf` and books it against
    /// the quota. The caller installs the rule into the pipeline only on
    /// `Ok`.
    pub fn admit_rule(&mut self, vf: u16, spec: &MatchSpec) -> Result<(), VfError> {
        let slot = self
            .vfs
            .get_mut(vf as usize)
            .ok_or(VfError::UnknownVf(vf))?;
        let scoped = spec.context_id == Some(slot.cfg.context)
            || (slot.cfg.src_ip.is_some() && spec.src_ip == slot.cfg.src_ip);
        if !scoped {
            return Err(VfError::Unscoped(vf));
        }
        if slot.rules_installed >= slot.cfg.rule_quota {
            return Err(VfError::QuotaExceeded(vf));
        }
        slot.rules_installed += 1;
        Ok(())
    }

    /// Accounts one packet received by `vf`. Returns `false` when the VF
    /// is unplugged — the packet is dropped-and-counted
    /// (`vf/<n>/unplug_drops`) and the caller must not deliver it.
    /// No-op (`true`) for unknown VFs.
    pub fn account_rx(&mut self, vf: u16, bytes: u64) -> bool {
        if let Some(slot) = self.vfs.get_mut(vf as usize) {
            if slot.unplugged {
                slot.unplug_drops.inc();
                self.pf.unplug_drops += 1;
                return false;
            }
            slot.rx_packets.inc();
            slot.rx_bytes.add(bytes);
            self.pf.rx_packets += 1;
            self.pf.rx_bytes += bytes;
        }
        true
    }

    /// Offers one transmission of `bytes` on `vf` to its shaper.
    /// Conforming (or unshaped) transmissions are accounted and `true`
    /// returned; non-conforming ones are dropped and counted in
    /// `vf/<n>/shaper_drops`. Unknown VFs pass unaccounted.
    pub fn offer_tx(&mut self, vf: u16, now: SimTime, bytes: u64) -> bool {
        let Some(slot) = self.vfs.get_mut(vf as usize) else {
            return true;
        };
        if slot.unplugged {
            slot.unplug_drops.inc();
            self.pf.unplug_drops += 1;
            return false;
        }
        if let Some(tb) = &mut slot.shaper {
            if tb.earliest_send(now, bytes) > now {
                slot.shaper_drops.inc();
                self.pf.shaper_drops += 1;
                return false;
            }
            tb.consume(now, bytes);
        }
        slot.tx_packets.inc();
        slot.tx_bytes.add(bytes);
        self.pf.tx_packets += 1;
        self.pf.tx_bytes += bytes;
        true
    }

    /// The PF aggregates (independent of the counter tree).
    pub fn pf_totals(&self) -> PfTotals {
        self.pf
    }

    /// Token bytes available across all VF shapers at `now` (probe).
    pub fn shaper_tokens(&mut self, now: SimTime) -> f64 {
        self.vfs
            .iter_mut()
            .filter_map(|s| s.shaper.as_mut())
            .map(|tb| tb.level_bytes(now))
            .sum()
    }

    /// Burst capacity across all VF shapers (the token-pool bound).
    pub fn shaper_burst_bytes(&self) -> u64 {
        self.vfs
            .iter()
            .filter_map(|s| s.shaper.as_ref())
            .map(TokenBucket::burst_bytes)
            .sum()
    }

    /// Audits the per-VF → PF telescoping against the tree this state
    /// was wired into (no-op before wiring or with no VFs): the whole
    /// `vf/` subtree sums to the PF grand total, and each per-kind leaf
    /// family sums to its PF aggregate.
    pub fn audit(
        &mut self,
        name: impl std::fmt::Display,
        at: SimTime,
        auditor: &mut fld_sim::audit::Auditor,
    ) {
        if !self.is_enabled() {
            return;
        }
        let Some(wired) = &mut self.wired else {
            return;
        };
        auditor.check_counter_sum(at, &name, &mut wired.all, self.pf.grand_total());
        for ((leaf, group), agg) in VF_LEAVES
            .iter()
            .zip(&mut wired.per_leaf)
            .zip(self.pf.by_leaf())
        {
            let sum = group.get();
            auditor.check(at, &name, "counter-telescope", sum == agg, || {
                format!("vf/*/{leaf} sums to {sum} but the PF aggregate is {agg}")
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fld_sim::time::SimDuration;

    #[test]
    fn disabled_sriov_is_inert() {
        let mut s = SrIov::new();
        assert!(!s.is_enabled());
        assert!(s.offer_tx(0, SimTime::ZERO, 1500));
        s.account_rx(0, 1500);
        assert_eq!(s.pf_totals(), PfTotals::default());
    }

    #[test]
    fn rule_partition_enforced() {
        let mut s = SrIov::new();
        let vf = s.create_vf(VfConfig {
            context: 7,
            src_ip: Some(Ipv4Addr::new(10, 9, 0, 7)),
            rule_quota: 2,
            tx_shaper: None,
        });
        // Unscoped: could match anyone's traffic.
        assert_eq!(
            s.admit_rule(vf, &MatchSpec::any()),
            Err(VfError::Unscoped(vf))
        );
        // Wrong context: still another tenant's traffic.
        let wrong = MatchSpec {
            context_id: Some(8),
            ..MatchSpec::any()
        };
        assert_eq!(s.admit_rule(vf, &wrong), Err(VfError::Unscoped(vf)));
        // Scoped by context tag or by bound source address.
        let by_ctx = MatchSpec {
            context_id: Some(7),
            ..MatchSpec::any()
        };
        let by_ip = MatchSpec {
            src_ip: Some(Ipv4Addr::new(10, 9, 0, 7)),
            ..MatchSpec::any()
        };
        assert_eq!(s.admit_rule(vf, &by_ctx), Ok(()));
        assert_eq!(s.admit_rule(vf, &by_ip), Ok(()));
        // Quota of 2 is now spent.
        assert_eq!(s.admit_rule(vf, &by_ctx), Err(VfError::QuotaExceeded(vf)));
        assert_eq!(s.vfs[vf as usize].rules_installed, 2);
        assert_eq!(s.admit_rule(99, &by_ctx), Err(VfError::UnknownVf(99)));
    }

    #[test]
    fn shaper_drops_and_accounts() {
        let mut s = SrIov::new();
        let vf = s.create_vf(VfConfig {
            context: 1,
            src_ip: None,
            rule_quota: 1,
            tx_shaper: Some((Bandwidth::gbps(1.0), 1500)),
        });
        assert!(s.offer_tx(vf, SimTime::ZERO, 1500));
        assert!(!s.offer_tx(vf, SimTime::ZERO, 1500), "bucket exhausted");
        // After 12 us at 1 Gbps the bucket refills 1500 B.
        let later = SimTime::ZERO + SimDuration::from_micros(12);
        assert!(s.offer_tx(vf, later, 1500));
        let pf = s.pf_totals();
        assert_eq!(pf.tx_packets, 2);
        assert_eq!(pf.tx_bytes, 3000);
        assert_eq!(pf.shaper_drops, 1);
    }

    #[test]
    fn unplug_reclaims_and_replug_restores() {
        let mut s = SrIov::new();
        let vf = s.create_vf(VfConfig {
            context: 3,
            src_ip: Some(Ipv4Addr::new(10, 9, 0, 3)),
            rule_quota: 2,
            tx_shaper: Some((Bandwidth::gbps(1.0), 1500)),
        });
        let by_ctx = MatchSpec {
            context_id: Some(3),
            ..MatchSpec::any()
        };
        assert_eq!(s.admit_rule(vf, &by_ctx), Ok(()));
        assert_eq!(s.admit_rule(vf, &by_ctx), Ok(()));
        assert!(s.offer_tx(vf, SimTime::ZERO, 1500));

        // Unplug: quota booking reclaimed, shaper state gone, traffic
        // in both directions dropped-and-counted.
        assert_eq!(s.unplug(vf), Some(2));
        assert!(s.vfs[vf as usize].unplugged);
        assert_eq!(s.vfs[vf as usize].rules_installed, 0);
        assert_eq!(s.shaper_burst_bytes(), 0);
        assert!(!s.offer_tx(vf, SimTime::ZERO, 1500));
        assert!(!s.account_rx(vf, 1500));
        assert_eq!(s.pf_totals().unplug_drops, 2);

        // Replug: fresh shaper at full burst, quota empty and bookable
        // again, traffic flows.
        assert!(s.replug(vf));
        assert!(!s.vfs[vf as usize].unplugged);
        assert_eq!(s.shaper_burst_bytes(), 1500);
        assert_eq!(s.admit_rule(vf, &by_ctx), Ok(()));
        assert!(s.offer_tx(vf, SimTime::ZERO, 1500));
        assert!(s.account_rx(vf, 1500));

        // Counters stayed monotonic: the tree still telescopes.
        let tree = CounterTree::new();
        s.wire_counters(&tree);
        assert_eq!(tree.sum_prefix("vf"), s.pf_totals().grand_total());
        let mut auditor = fld_sim::audit::Auditor::new().strict();
        s.audit("sriov", SimTime::ZERO, &mut auditor);
        assert!(auditor.report().passed());
        assert_eq!(s.src_ip_of(vf), Some(Ipv4Addr::new(10, 9, 0, 3)));
        assert_eq!(s.unplug(99), None);
    }

    #[test]
    fn counters_telescope_and_carry_over() {
        let mut s = SrIov::new();
        let a = s.create_vf(VfConfig::for_context(1));
        // Count before wiring: the wire must carry the backlog over.
        s.account_rx(a, 100);
        let tree = CounterTree::new();
        s.wire_counters(&tree);
        assert_eq!(tree.snapshot().get("vf/0/rx_packets"), Some(1));
        assert_eq!(tree.snapshot().get("vf/0/rx_bytes"), Some(100));
        // A VF created after wiring lands in the tree immediately.
        let b = s.create_vf(VfConfig::for_context(2));
        s.account_rx(b, 50);
        assert!(s.offer_tx(b, SimTime::ZERO, 50));
        assert_eq!(tree.snapshot().get("vf/1/rx_bytes"), Some(50));
        assert_eq!(tree.sum_leaf("vf", "rx_packets"), s.pf_totals().rx_packets);
        assert_eq!(tree.sum_prefix("vf"), s.pf_totals().grand_total());
        let mut auditor = fld_sim::audit::Auditor::new().strict();
        s.audit("sriov", SimTime::ZERO, &mut auditor);
        assert!(auditor.report().passed());
        assert_eq!(s.context_of(b), Some(2));
        assert_eq!(s.context_of(a), Some(1));
    }
}
