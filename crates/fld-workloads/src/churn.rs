//! Open-loop connection churn: Poisson arrivals and departures of
//! tenant flows.
//!
//! The rack experiments model "millions of users" not as millions of
//! packets from one flow but as a *churning population*: new tenant
//! connections arrive as a Poisson process, live an exponential
//! lifetime, and depart, while each tenant's offered load is spread over
//! whatever flows it has active at the moment. [`ChurnProcess`] owns
//! that population deterministically — every draw comes from the caller's
//! seeded [`SimRng`], active flows live in `Vec`s (no map-iteration
//! order anywhere), and ids are dense and reproducible — so a seeded
//! rack run replays byte-identically.

use fld_sim::rng::SimRng;
use fld_sim::time::SimDuration;

/// One live tenant connection: where its packets originate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnFlow {
    /// Dense flow id (unique over the run, never reused).
    pub id: u64,
    /// Owning tenant.
    pub tenant: u16,
    /// Node whose uplink the flow's packets enter the fabric through.
    pub src_node: u16,
    /// UDP source port distinguishing the flow inside its tenant.
    pub src_port: u16,
}

/// Churn parameters.
#[derive(Debug, Clone, Copy)]
pub struct ChurnConfig {
    /// Tenant population.
    pub tenants: u16,
    /// Nodes flows may originate from.
    pub nodes: u16,
    /// Flow arrivals per second of simulated time (Poisson). Zero
    /// disables churn: the initial population lives forever.
    pub arrival_rate: f64,
    /// Mean exponential flow lifetime.
    pub mean_lifetime: SimDuration,
    /// Flows seeded per tenant before the run starts (so no tenant ever
    /// measures with an empty population).
    pub initial_per_tenant: usize,
}

impl Default for ChurnConfig {
    fn default() -> Self {
        ChurnConfig {
            tenants: 8,
            nodes: 4,
            arrival_rate: 20_000.0,
            mean_lifetime: SimDuration::from_millis(5),
            initial_per_tenant: 4,
        }
    }
}

/// The deterministic churning flow population (see the module docs).
#[derive(Debug)]
pub struct ChurnProcess {
    cfg: ChurnConfig,
    /// Active flows, in arrival order. Departure swaps-removes; picks
    /// index directly — no ordering-sensitive map anywhere.
    active: Vec<ChurnFlow>,
    /// Per tenant (index = tenant id), the ascending positions in
    /// `active` of its flows: the pick index, so a pick reads the `nth`
    /// of a tenant's flows without scanning the others.
    slots: Vec<Vec<u32>>,
    /// True while the node is crashed: its flows are killed and no new
    /// flow may originate there (index = node id).
    down: Vec<bool>,
    next_id: u64,
    next_port: u16,
    arrivals: u64,
    departures: u64,
}

impl ChurnProcess {
    /// Seeds `initial_per_tenant` flows for every tenant, drawing source
    /// nodes from `rng`.
    pub fn new(cfg: ChurnConfig, rng: &mut SimRng) -> ChurnProcess {
        assert!(cfg.tenants > 0 && cfg.nodes > 0, "empty topology");
        let mut p = ChurnProcess {
            cfg,
            active: Vec::new(),
            slots: vec![Vec::new(); cfg.tenants as usize],
            down: vec![false; cfg.nodes as usize],
            next_id: 0,
            next_port: 20_000,
            arrivals: 0,
            departures: 0,
        };
        for tenant in 0..cfg.tenants {
            for _ in 0..cfg.initial_per_tenant {
                p.spawn(tenant, rng);
            }
        }
        p
    }

    fn spawn(&mut self, tenant: u16, rng: &mut SimRng) -> ChurnFlow {
        // Draw among live nodes only. With nothing down this is one
        // next_below(nodes) mapping to itself — the exact draw pattern
        // from before node-liveness existed, so seeded replays hold.
        let live = self.down.iter().filter(|&&d| !d).count() as u64;
        let src_node = if live == 0 {
            // Whole rack down: place the flow anywhere — it cannot send
            // until some node recovers regardless.
            rng.next_below(self.cfg.nodes as u64) as u16
        } else {
            let nth = rng.next_below(live) as usize;
            self.down
                .iter()
                .enumerate()
                .filter(|(_, &d)| !d)
                .nth(nth)
                .map(|(n, _)| n as u16)
                .unwrap_or(0)
        };
        self.spawn_at(tenant, src_node)
    }

    /// Admits a flow pinned to `src_node` (no RNG draw) — the node_up
    /// re-establishment path.
    fn spawn_at(&mut self, tenant: u16, src_node: u16) -> ChurnFlow {
        let flow = ChurnFlow {
            id: self.next_id,
            tenant,
            src_node,
            src_port: self.next_port,
        };
        self.next_id += 1;
        self.next_port = self.next_port.wrapping_add(1).max(1024);
        self.slots[tenant as usize].push(self.active.len() as u32);
        self.active.push(flow);
        flow
    }

    /// `active.swap_remove(i)` with the pick index kept: position `i`
    /// leaves its tenant's list, and the last flow, which moves into
    /// `i`, has its position rewritten in its own.
    fn remove_at(&mut self, i: usize) {
        let gone = &mut self.slots[self.active[i].tenant as usize];
        let at = gone.binary_search(&(i as u32)).expect("indexed flow");
        gone.remove(at);
        let last = self.active.len() - 1;
        if i != last {
            // The last position is its tenant's greatest: pop it, then
            // file `i` in order.
            let moved = &mut self.slots[self.active[last].tenant as usize];
            moved.pop();
            let at = moved.partition_point(|&p| p < i as u32);
            moved.insert(at, i as u32);
        }
        self.active.swap_remove(i);
    }

    /// A node crashed: every flow sourced there dies immediately (even a
    /// tenant's last — the node is gone) and [`ChurnProcess::spawn`]
    /// avoids it until [`ChurnProcess::node_up`]. Returns flows killed.
    pub fn node_down(&mut self, node: u16) -> u64 {
        if let Some(d) = self.down.get_mut(node as usize) {
            *d = true;
        }
        let mut killed = 0;
        let mut i = 0;
        while i < self.active.len() {
            if self.active[i].src_node == node {
                self.remove_at(i);
                killed += 1;
            } else {
                i += 1;
            }
        }
        killed
    }

    /// The node recovered: new flows may originate there again, and one
    /// flow per tenant is re-established on it immediately so the node
    /// rejoins the population without waiting for Poisson arrivals.
    /// Returns flows re-established.
    pub fn node_up(&mut self, node: u16) -> u64 {
        if let Some(d) = self.down.get_mut(node as usize) {
            *d = false;
        }
        let mut revived = 0;
        for tenant in 0..self.cfg.tenants {
            self.spawn_at(tenant, node);
            revived += 1;
        }
        revived
    }

    /// Active flows sourced at `node`.
    pub fn active_on(&self, node: u16) -> usize {
        self.active.iter().filter(|f| f.src_node == node).count()
    }

    /// Time until the next Poisson arrival, or `None` when churn is
    /// disabled (`arrival_rate == 0`).
    pub fn next_arrival_gap(&mut self, rng: &mut SimRng) -> Option<SimDuration> {
        if self.cfg.arrival_rate <= 0.0 {
            return None;
        }
        let mean = SimDuration::from_secs_f64(1.0 / self.cfg.arrival_rate);
        Some(rng.exp_duration(mean))
    }

    /// Admits one arriving flow for a uniformly random tenant and draws
    /// its exponential lifetime; the caller schedules the departure.
    pub fn arrive(&mut self, rng: &mut SimRng) -> (ChurnFlow, SimDuration) {
        let tenant = rng.next_below(self.cfg.tenants as u64) as u16;
        let flow = self.spawn(tenant, rng);
        self.arrivals += 1;
        (flow, rng.exp_duration(self.cfg.mean_lifetime))
    }

    /// Retires flow `id`. Idempotent (a flow seeded at start has no
    /// departure scheduled; a departure racing a restart is ignored).
    /// A tenant's last flow never departs — every tenant keeps at least
    /// one live connection so its offered load stays well-defined.
    pub fn depart(&mut self, id: u64) -> bool {
        let Some(i) = self.active.iter().position(|f| f.id == id) else {
            return false;
        };
        if self.slots[self.active[i].tenant as usize].len() <= 1 {
            return false;
        }
        self.remove_at(i);
        self.departures += 1;
        true
    }

    /// Picks a uniformly random active flow of `tenant` for its next
    /// packet. `None` only for a tenant outside the configured range.
    pub fn pick(&self, tenant: u16, rng: &mut SimRng) -> Option<ChurnFlow> {
        let slots = self.slots.get(tenant as usize)?;
        if slots.is_empty() {
            return None;
        }
        let nth = rng.next_below(slots.len() as u64) as usize;
        Some(self.active[slots[nth] as usize])
    }

    /// Currently active flows.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Flows admitted over the run (beyond the initial population).
    pub fn arrivals(&self) -> u64 {
        self.arrivals
    }

    /// Flows retired over the run.
    pub fn departures(&self) -> u64 {
        self.departures
    }
}

/// A churning population drives a rack directly. Methods call the
/// inherent implementations explicitly: the trait speaks fld-core's
/// [`TenantFlow`](fld_core::rack::TenantFlow) while the inherent API
/// returns [`ChurnFlow`] (same fields — the conversion is a field copy).
impl fld_core::rack::FlowPopulation for ChurnProcess {
    fn next_arrival_gap(&mut self, rng: &mut SimRng) -> Option<SimDuration> {
        ChurnProcess::next_arrival_gap(self, rng)
    }

    fn arrive(&mut self, rng: &mut SimRng) -> Option<(fld_core::rack::TenantFlow, SimDuration)> {
        let (flow, life) = ChurnProcess::arrive(self, rng);
        Some((tenant_flow(flow), life))
    }

    fn depart(&mut self, id: u64) -> bool {
        ChurnProcess::depart(self, id)
    }

    fn pick(&self, tenant: u16, rng: &mut SimRng) -> Option<fld_core::rack::TenantFlow> {
        ChurnProcess::pick(self, tenant, rng).map(tenant_flow)
    }

    fn active_count(&self) -> usize {
        ChurnProcess::active_count(self)
    }

    fn arrivals(&self) -> u64 {
        ChurnProcess::arrivals(self)
    }

    fn departures(&self) -> u64 {
        ChurnProcess::departures(self)
    }

    fn node_down(&mut self, node: u16) -> u64 {
        ChurnProcess::node_down(self, node)
    }

    fn node_up(&mut self, node: u16, _rng: &mut SimRng) -> u64 {
        ChurnProcess::node_up(self, node)
    }

    fn active_on(&self, node: u16) -> usize {
        ChurnProcess::active_on(self, node)
    }
}

fn tenant_flow(f: ChurnFlow) -> fld_core::rack::TenantFlow {
    fld_core::rack::TenantFlow {
        id: f.id,
        tenant: f.tenant,
        src_node: f.src_node,
        src_port: f.src_port,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> ChurnConfig {
        ChurnConfig {
            tenants: 4,
            nodes: 3,
            arrival_rate: 1_000.0,
            mean_lifetime: SimDuration::from_millis(1),
            initial_per_tenant: 2,
        }
    }

    #[test]
    fn seeds_initial_population() {
        let mut rng = SimRng::seed_from(1);
        let p = ChurnProcess::new(cfg(), &mut rng);
        assert_eq!(p.active_count(), 8);
        assert!(p.slots.iter().all(|s| s.len() == 2));
    }

    #[test]
    fn arrivals_and_departures_conserve_population() {
        let mut rng = SimRng::seed_from(2);
        let mut p = ChurnProcess::new(cfg(), &mut rng);
        let (flow, life) = p.arrive(&mut rng);
        assert!(life > SimDuration::ZERO);
        assert_eq!(p.active_count(), 9);
        assert!(p.depart(flow.id));
        assert!(!p.depart(flow.id), "departure is idempotent");
        assert_eq!(p.active_count(), 8);
        assert_eq!(p.arrivals(), 1);
        assert_eq!(p.departures(), 1);
    }

    #[test]
    fn last_flow_of_a_tenant_never_departs() {
        let mut rng = SimRng::seed_from(3);
        let mut p = ChurnProcess::new(
            ChurnConfig {
                initial_per_tenant: 1,
                ..cfg()
            },
            &mut rng,
        );
        // Every tenant has exactly one flow; none may depart.
        let ids: Vec<u64> = (0..4).map(|t| p.pick(t, &mut rng).unwrap().id).collect();
        for id in ids {
            assert!(!p.depart(id));
        }
        assert_eq!(p.active_count(), 4);
    }

    #[test]
    fn pick_is_tenant_scoped() {
        let mut rng = SimRng::seed_from(4);
        let p = ChurnProcess::new(cfg(), &mut rng);
        for _ in 0..50 {
            let f = p.pick(2, &mut rng).unwrap();
            assert_eq!(f.tenant, 2);
            assert!(f.src_node < 3);
        }
        assert!(p.pick(99, &mut rng).is_none());
    }

    #[test]
    fn zero_rate_disables_churn() {
        let mut rng = SimRng::seed_from(5);
        let mut p = ChurnProcess::new(
            ChurnConfig {
                arrival_rate: 0.0,
                ..cfg()
            },
            &mut rng,
        );
        assert!(p.next_arrival_gap(&mut rng).is_none());
    }

    #[test]
    fn seeded_replay_is_identical() {
        let runs: Vec<Vec<u64>> = (0..2)
            .map(|_| {
                let mut rng = SimRng::seed_from(42);
                let mut p = ChurnProcess::new(cfg(), &mut rng);
                let mut ids = Vec::new();
                for _ in 0..100 {
                    let (f, _) = p.arrive(&mut rng);
                    ids.push(f.id);
                    if let Some(victim) = p.pick(f.tenant, &mut rng) {
                        p.depart(victim.id);
                    }
                }
                ids.push(p.active_count() as u64);
                ids
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
    }

    #[test]
    fn node_down_kills_local_flows_and_pins_spawns_elsewhere() {
        let mut rng = SimRng::seed_from(6);
        let mut p = ChurnProcess::new(cfg(), &mut rng);
        let on_node1 = p.active_on(1) as u64;
        let before = p.active_count();
        let killed = p.node_down(1);
        assert_eq!(killed, on_node1);
        assert_eq!(p.active_count(), before - killed as usize);
        assert_eq!(p.active_on(1), 0);
        // New arrivals must avoid the dead node.
        for _ in 0..50 {
            let (f, _) = p.arrive(&mut rng);
            assert_ne!(f.src_node, 1);
        }
    }

    #[test]
    fn node_up_reestablishes_one_flow_per_tenant() {
        let mut rng = SimRng::seed_from(7);
        let mut p = ChurnProcess::new(cfg(), &mut rng);
        p.node_down(2);
        let revived = p.node_up(2);
        assert_eq!(revived, 4, "one flow per tenant rejoins the node");
        assert_eq!(p.active_on(2), 4);
        assert!(p.slots.iter().all(|s| !s.is_empty()));
        // The node is back in the spawn rotation.
        let mut seen = false;
        for _ in 0..100 {
            let (f, _) = p.arrive(&mut rng);
            seen |= f.src_node == 2;
        }
        assert!(seen);
    }

    #[test]
    fn node_liveness_does_not_perturb_seeded_draws() {
        // With no node down, the alive-aware spawn must consume the RNG
        // exactly as the original unconditional draw did.
        let mut a = SimRng::seed_from(8);
        let mut b = SimRng::seed_from(8);
        let mut p = ChurnProcess::new(cfg(), &mut a);
        let mut q = ChurnProcess::new(cfg(), &mut b);
        for _ in 0..64 {
            let (fa, la) = p.arrive(&mut a);
            let (fb, lb) = q.arrive(&mut b);
            assert_eq!(
                (fa.src_node, fa.src_port, la),
                (fb.src_node, fb.src_port, lb)
            );
        }
    }

    /// The scan the pick index replaced: the `nth` of the tenant's flows
    /// in `active` order, under the same draw.
    fn scanned_pick(p: &ChurnProcess, tenant: u16, rng: &mut SimRng) -> Option<ChurnFlow> {
        let count = p.active.iter().filter(|f| f.tenant == tenant).count() as u64;
        if (tenant as usize) >= p.slots.len() || count == 0 {
            return None;
        }
        let nth = rng.next_below(count) as usize;
        p.active
            .iter()
            .filter(|f| f.tenant == tenant)
            .nth(nth)
            .copied()
    }

    proptest::proptest! {
        /// Under random arrivals, departures, node crashes and recoveries,
        /// every pick equals the scan's and draws the same numbers, and
        /// each tenant's index lists exactly its flows' positions.
        #[test]
        fn indexed_pick_matches_the_scan(
            seed: u64,
            ops in proptest::collection::vec((0u8..5, 0u16..6), 1..200),
        ) {
            let mut rng = SimRng::seed_from(seed);
            let mut p = ChurnProcess::new(cfg(), &mut rng);
            let mut born: Vec<u64> = (0..p.active_count() as u64).collect();
            for (op, arg) in ops {
                match op {
                    0 => born.push(p.arrive(&mut rng).0.id),
                    1 if !born.is_empty() => {
                        let id = born[arg as usize % born.len()];
                        p.depart(id);
                    }
                    2 => {
                        p.node_down(arg % 3);
                    }
                    3 => {
                        p.node_up(arg % 3);
                    }
                    _ => {
                        // Tenants 4 and 5 are outside the range: `None`.
                        let mut scan = rng.clone();
                        let got = p.pick(arg, &mut rng);
                        assert_eq!(got, scanned_pick(&p, arg, &mut scan));
                        assert_eq!(rng.next_u64(), scan.next_u64());
                    }
                }
                for (t, slots) in p.slots.iter().enumerate() {
                    let want: Vec<u32> = (0..p.active.len() as u32)
                        .filter(|&i| p.active[i as usize].tenant as usize == t)
                        .collect();
                    assert_eq!(slots, &want);
                }
            }
        }
    }
}
