//! Watchdog health tracking: the detection half of the fault-domain
//! story.
//!
//! Scheduled faults ([`crate::fault::FaultSchedule`]) take entities
//! *down*; something has to notice, and the time it takes to notice is
//! itself a production metric. A [`HealthMonitor`] models a heartbeat
//! watchdog: every registered entity is pinged on a fixed cadence, and
//! an entity that stops answering walks the classic state machine
//!
//! ```text
//! Healthy --misses >= suspect_misses--> Suspect
//! Suspect --misses >= down_misses----> Down
//! Down ----fault clears--------------> Recovering
//! Recovering --next heartbeat--------> Healthy   (MTTR recorded)
//! ```
//!
//! Two latency distributions fall out: **detection latency** (fault
//! start to the Down transition — how long the blast radius was
//! invisible) and **MTTR** (fault start to the Healthy transition —
//! mean time to repair, the headline robustness number). Both export
//! through [`MetricsRegistry`]; per-entity transition counts mirror
//! into a [`CounterTree`] under `health/<entity>/…` and the repair
//! total under `recovery/mttr_ns`, so the counters artifact alone can
//! prove "MTTR > 0 and everything healed".

use crate::counters::{Counter, CounterTree};
use crate::metrics::MetricsRegistry;
use crate::stats::Histogram;
use crate::time::{SimDuration, SimTime};

/// Where a wired monitor totals its repair time, in ns. It is the one
/// leaf under `recovery/` that counts no fault resolutions, so the
/// fault-accounting clause leaves it out.
pub const MTTR_PATH: &str = "recovery/mttr_ns";

/// One entity's position in the watchdog state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthState {
    /// Answering heartbeats.
    Healthy,
    /// Missed enough heartbeats to be suspicious, not yet declared down.
    Suspect,
    /// Declared down; detection latency recorded at this transition.
    Down,
    /// The underlying fault cleared; waiting for the confirming
    /// heartbeat before being declared healthy again.
    Recovering,
}

/// Watchdog cadence and escalation thresholds.
#[derive(Debug, Clone, Copy)]
pub struct HealthConfig {
    /// Heartbeat interval — also the granularity of every detection.
    pub heartbeat: SimDuration,
    /// Consecutive missed heartbeats before Healthy → Suspect.
    pub suspect_misses: u32,
    /// Consecutive missed heartbeats before Suspect → Down.
    pub down_misses: u32,
}

impl Default for HealthConfig {
    fn default() -> HealthConfig {
        HealthConfig {
            heartbeat: SimDuration::from_micros(10),
            suspect_misses: 2,
            down_misses: 5,
        }
    }
}

/// Opaque handle for one registered entity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthId(usize);

/// A state transition surfaced by [`HealthMonitor::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthTransition {
    /// Which entity moved.
    pub id: HealthId,
    /// The state it moved into.
    pub to: HealthState,
}

#[derive(Debug)]
struct EntityHealth {
    label: String,
    state: HealthState,
    /// Start of the *current* outage (earliest overlapping fault).
    failed_at: Option<SimTime>,
    /// Set by `begin_recovery`; cleared when the healing heartbeat lands.
    recovering: bool,
    suspect_ctr: Counter,
    down_ctr: Counter,
    recovered_ctr: Counter,
}

/// The heartbeat watchdog over a set of registered entities.
#[derive(Debug)]
pub struct HealthMonitor {
    cfg: HealthConfig,
    entities: Vec<EntityHealth>,
    detection_ns: Histogram,
    mttr_ns: Histogram,
    mttr_ctr: Counter,
    tree: Option<CounterTree>,
}

impl HealthMonitor {
    /// A monitor with no entities; counters detached until
    /// [`HealthMonitor::wire_counters`].
    pub fn new(cfg: HealthConfig) -> HealthMonitor {
        HealthMonitor {
            cfg,
            entities: Vec::new(),
            detection_ns: Histogram::new(),
            mttr_ns: Histogram::new(),
            mttr_ctr: Counter::detached(),
            tree: None,
        }
    }

    /// The watchdog cadence.
    pub fn heartbeat(&self) -> SimDuration {
        self.cfg.heartbeat
    }

    /// Registers an entity (initially Healthy) under `label`; transition
    /// counters land at `health/<label>/{suspect,down,recovered}` when a
    /// tree is wired.
    pub fn register(&mut self, label: impl Into<String>) -> HealthId {
        let label = label.into();
        let (suspect_ctr, down_ctr, recovered_ctr) = match &self.tree {
            Some(tree) => (
                tree.counter(&format!("health/{label}/suspect")),
                tree.counter(&format!("health/{label}/down")),
                tree.counter(&format!("health/{label}/recovered")),
            ),
            None => (
                Counter::detached(),
                Counter::detached(),
                Counter::detached(),
            ),
        };
        self.entities.push(EntityHealth {
            label,
            state: HealthState::Healthy,
            failed_at: None,
            recovering: false,
            suspect_ctr,
            down_ctr,
            recovered_ctr,
        });
        HealthId(self.entities.len() - 1)
    }

    /// Mirrors per-entity transition counts into `tree` under
    /// `health/<label>/…` and the cumulative repair time under
    /// `recovery/mttr_ns`. Counts recorded before wiring carry over.
    pub fn wire_counters(&mut self, tree: &CounterTree) {
        for e in &mut self.entities {
            for (leaf, ctr) in [
                ("suspect", &mut e.suspect_ctr),
                ("down", &mut e.down_ctr),
                ("recovered", &mut e.recovered_ctr),
            ] {
                let wired = tree.counter(&format!("health/{}/{leaf}", e.label));
                wired.add(ctr.get());
                *ctr = wired;
            }
        }
        let mttr = tree.counter(MTTR_PATH);
        mttr.add(self.mttr_ctr.get());
        self.mttr_ctr = mttr;
        self.tree = Some(tree.clone());
    }

    /// Marks `id` failed as of `now`. Overlapping faults keep the
    /// *earliest* failure instant — the outage is one window from the
    /// watchdog's point of view. A recovering entity that fails again
    /// re-enters the outage without healing.
    pub fn fail(&mut self, id: HealthId, now: SimTime) {
        let e = &mut self.entities[id.0];
        e.recovering = false;
        match e.failed_at {
            Some(at) if at <= now => {}
            _ => e.failed_at = Some(now),
        }
    }

    /// Marks `id`'s underlying fault cleared: the entity starts
    /// answering heartbeats again and will be declared Healthy (with its
    /// MTTR recorded) on the next tick.
    pub fn begin_recovery(&mut self, id: HealthId, _now: SimTime) {
        let e = &mut self.entities[id.0];
        if e.failed_at.is_some() {
            e.recovering = true;
            if e.state != HealthState::Healthy {
                e.state = HealthState::Recovering;
            }
        }
    }

    /// One watchdog heartbeat at `now`: escalates silent entities toward
    /// Down (recording detection latency at the Down transition) and
    /// heals recovering ones (recording MTTR). Returns the transitions
    /// taken this tick, in registration order.
    pub fn tick(&mut self, now: SimTime) -> Vec<HealthTransition> {
        let hb = self.cfg.heartbeat.as_picos().max(1);
        let mut out = Vec::new();
        for (i, e) in self.entities.iter_mut().enumerate() {
            let Some(failed_at) = e.failed_at else {
                continue;
            };
            if e.recovering {
                let mttr = now.saturating_since(failed_at);
                self.mttr_ns.record(mttr.as_nanos());
                self.mttr_ctr.add(mttr.as_nanos());
                e.recovered_ctr.inc();
                e.state = HealthState::Healthy;
                e.failed_at = None;
                e.recovering = false;
                out.push(HealthTransition {
                    id: HealthId(i),
                    to: HealthState::Healthy,
                });
                continue;
            }
            let misses = (now.saturating_since(failed_at).as_picos() / hb) as u32;
            let next = if misses >= self.cfg.down_misses {
                HealthState::Down
            } else if misses >= self.cfg.suspect_misses {
                HealthState::Suspect
            } else {
                e.state
            };
            if next != e.state {
                match next {
                    HealthState::Suspect => e.suspect_ctr.inc(),
                    HealthState::Down => {
                        // Suspect may be skipped when thresholds collide;
                        // count the implied transition so the subtree
                        // still tells the whole story.
                        if e.state == HealthState::Healthy {
                            e.suspect_ctr.inc();
                        }
                        e.down_ctr.inc();
                        self.detection_ns
                            .record(now.saturating_since(failed_at).as_nanos());
                    }
                    _ => {}
                }
                e.state = next;
                out.push(HealthTransition {
                    id: HealthId(i),
                    to: next,
                });
            }
        }
        out
    }

    /// `id`'s current state.
    pub fn state(&self, id: HealthId) -> HealthState {
        self.entities[id.0].state
    }

    /// Whether every entity is Healthy (vacuously true when empty).
    pub fn all_healthy(&self) -> bool {
        self.entities
            .iter()
            .all(|e| e.state == HealthState::Healthy && e.failed_at.is_none())
    }

    /// Entity counts by state: `(healthy, suspect, down, recovering)` —
    /// the flight-recorder probe values.
    pub fn counts(&self) -> (u64, u64, u64, u64) {
        let mut c = (0, 0, 0, 0);
        for e in &self.entities {
            match e.state {
                HealthState::Healthy => c.0 += 1,
                HealthState::Suspect => c.1 += 1,
                HealthState::Down => c.2 += 1,
                HealthState::Recovering => c.3 += 1,
            }
        }
        c
    }

    /// The fault-start → Down detection-latency distribution.
    pub fn detection_ns(&self) -> &Histogram {
        &self.detection_ns
    }

    /// The fault-start → Healthy repair-time distribution.
    pub fn mttr_ns(&self) -> &Histogram {
        &self.mttr_ns
    }

    /// Exports the watchdog's view under `health.*`: state census,
    /// detection and MTTR distributions, and MTTR scalars.
    pub fn export(&self, registry: &mut MetricsRegistry) {
        let (healthy, suspect, down, recovering) = self.counts();
        registry.counter("health.entities", self.entities.len() as u64);
        registry.counter("health.healthy", healthy);
        registry.counter("health.suspect", suspect);
        registry.counter("health.down", down);
        registry.counter("health.recovering", recovering);
        registry.histogram("health.detection_ns", &self.detection_ns);
        registry.histogram("health.mttr_ns", &self.mttr_ns);
        registry.counter("health.mttr_p50_ns", self.mttr_ns.percentile(50.0));
        registry.counter("health.mttr_p99_ns", self.mttr_ns.percentile(99.0));
        registry.counter("health.mttr_max_ns", self.mttr_ns.max());
    }

    /// The drained-run check: an empty calendar must leave every entity
    /// Healthy — anything else means a fault never finished recovering.
    pub fn drained_audit(&self, at: SimTime, component: &str, auditor: &mut crate::audit::Auditor) {
        let (_, suspect, down, recovering) = self.counts();
        let healthy = self.all_healthy();
        auditor.check(at, component, "health", healthy, || {
            format!(
                "drained run left entities unhealthy: {suspect} suspect, {down} down, {recovering} recovering"
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Auditor;

    fn cfg() -> HealthConfig {
        HealthConfig {
            heartbeat: SimDuration::from_micros(10),
            suspect_misses: 2,
            down_misses: 5,
        }
    }

    #[test]
    fn walks_the_state_machine_and_records_latencies() {
        let mut mon = HealthMonitor::new(cfg());
        let tree = CounterTree::new();
        mon.wire_counters(&tree);
        let node = mon.register("node/0");
        assert_eq!(mon.state(node), HealthState::Healthy);
        assert!(mon.all_healthy());

        let t0 = SimTime::from_micros(100);
        mon.fail(node, t0);
        assert!(!mon.all_healthy());
        // One heartbeat later: not yet suspect.
        assert!(mon.tick(t0 + SimDuration::from_micros(10)).is_empty());
        assert_eq!(mon.state(node), HealthState::Healthy);
        // Two missed heartbeats: Suspect.
        let tr = mon.tick(t0 + SimDuration::from_micros(20));
        assert_eq!(
            tr,
            vec![HealthTransition {
                id: node,
                to: HealthState::Suspect
            }]
        );
        // Five missed: Down, detection latency recorded.
        let tr = mon.tick(t0 + SimDuration::from_micros(50));
        assert_eq!(tr[0].to, HealthState::Down);
        assert_eq!(mon.detection_ns().count(), 1);
        assert_eq!(mon.detection_ns().max(), 50_000);

        // Fault clears; the next heartbeat heals and records MTTR.
        mon.begin_recovery(node, t0 + SimDuration::from_micros(70));
        assert_eq!(mon.state(node), HealthState::Recovering);
        let tr = mon.tick(t0 + SimDuration::from_micros(80));
        assert_eq!(tr[0].to, HealthState::Healthy);
        assert!(mon.all_healthy());
        assert_eq!(mon.mttr_ns().count(), 1);
        assert_eq!(mon.mttr_ns().max(), 80_000);
        assert_eq!(tree.snapshot().get("health/node/0/suspect"), Some(1));
        assert_eq!(tree.snapshot().get("health/node/0/down"), Some(1));
        assert_eq!(tree.snapshot().get("health/node/0/recovered"), Some(1));
        assert_eq!(tree.snapshot().get("recovery/mttr_ns"), Some(80_000));

        let mut auditor = Auditor::new();
        mon.drained_audit(SimTime::from_micros(200), "health", &mut auditor);
        assert_eq!(auditor.report().violations, 0);
    }

    #[test]
    fn overlapping_faults_keep_the_earliest_failure() {
        let mut mon = HealthMonitor::new(cfg());
        let port = mon.register("port/1");
        let t0 = SimTime::from_micros(50);
        mon.fail(port, t0);
        mon.fail(port, t0 + SimDuration::from_micros(30));
        mon.tick(t0 + SimDuration::from_micros(60));
        assert_eq!(mon.state(port), HealthState::Down);
        // First fault ends, second still holds: recovery then re-failure.
        mon.begin_recovery(port, t0 + SimDuration::from_micros(70));
        mon.fail(port, t0 + SimDuration::from_micros(75));
        let tr = mon.tick(t0 + SimDuration::from_micros(80));
        assert!(
            tr.iter().all(|t| t.to != HealthState::Healthy),
            "re-failed entity must not heal"
        );
        assert_ne!(mon.state(port), HealthState::Healthy);
        mon.begin_recovery(port, t0 + SimDuration::from_micros(90));
        mon.tick(t0 + SimDuration::from_micros(100));
        assert!(mon.all_healthy());
        // MTTR measured from the ORIGINAL failure instant.
        assert_eq!(mon.mttr_ns().max(), 100_000);
    }

    #[test]
    fn short_blips_never_reach_down_and_drained_audit_catches_stuck() {
        let mut mon = HealthMonitor::new(cfg());
        let vf = mon.register("vf/3");
        let t0 = SimTime::from_micros(10);
        mon.fail(vf, t0);
        mon.begin_recovery(vf, t0 + SimDuration::from_micros(5));
        let tr = mon.tick(t0 + SimDuration::from_micros(10));
        assert_eq!(tr[0].to, HealthState::Healthy);
        assert_eq!(mon.detection_ns().count(), 0, "blip was never Down");
        assert_eq!(mon.mttr_ns().count(), 1);

        let stuck = mon.register("vf/4");
        mon.fail(stuck, SimTime::from_micros(100));
        mon.tick(SimTime::from_micros(200));
        let mut auditor = Auditor::new();
        mon.drained_audit(SimTime::from_micros(300), "health", &mut auditor);
        assert_eq!(auditor.report().violations, 1);
        let (healthy, _, down, _) = mon.counts();
        assert_eq!((healthy, down), (1, 1));
    }

    #[test]
    fn carry_over_wiring_and_export() {
        let mut mon = HealthMonitor::new(cfg());
        let n = mon.register("node/1");
        mon.fail(n, SimTime::ZERO);
        mon.tick(SimTime::from_micros(60));
        mon.begin_recovery(n, SimTime::from_micros(70));
        mon.tick(SimTime::from_micros(80));
        // Wire AFTER the episode: counts must carry over.
        let tree = CounterTree::new();
        mon.wire_counters(&tree);
        assert_eq!(tree.snapshot().get("health/node/1/recovered"), Some(1));
        assert_eq!(tree.snapshot().get("recovery/mttr_ns"), Some(80_000));
        // Entities registered after wiring attach live.
        let m2 = mon.register("node/2");
        mon.fail(m2, SimTime::from_micros(100));
        mon.tick(SimTime::from_micros(200));
        assert_eq!(tree.snapshot().get("health/node/2/down"), Some(1));

        let mut reg = MetricsRegistry::new();
        mon.export(&mut reg);
        assert_eq!(reg.counter_value("health.entities"), Some(2));
        assert_eq!(reg.counter_value("health.down"), Some(1));
        assert_eq!(reg.counter_value("health.mttr_max_ns"), Some(80_000));
    }
}
