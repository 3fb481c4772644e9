//! § 8.2.3: the IoT token-authentication offload — line-rate validation
//! and the multi-tenant performance-isolation experiment.

use fld_accel::iot_accel::IotAuthAccelerator;
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use fld_net::Ipv4Addr;
use fld_nic::eswitch::{Action, MatchSpec, Rule};
use fld_nic::nic::Direction;
use fld_sim::time::Bandwidth;
use fld_workloads::gen::tenant_bursts;

use crate::fmt::TextTable;
use crate::harness::Harness;

/// Runs the two-tenant isolation scenario.
///
/// Tenant A offers `offered_gbps.0`, tenant B `offered_gbps.1`; the
/// accelerator accepts `accel_gbps` total. Optional per-tenant shaping
/// (`shape_gbps`) reproduces the paper's 6 Gbps limits. Runs under `h`;
/// returns the admitted per-tenant rates in Gbps.
pub fn run_isolation(
    offered_gbps: (f64, f64),
    accel_gbps: f64,
    shape_gbps: Option<f64>,
    frame_len: u32,
    h: &Harness,
) -> (f64, f64) {
    let cfg = SystemConfig::remote();
    let total_offered = offered_gbps.0 + offered_gbps.1;
    let rate = total_offered * 1e9 / (frame_len as f64 * 8.0);
    let gen = ClientGen::new(
        GenMode::OpenLoop { rate },
        h.scale().packets,
        tenant_bursts(frame_len, vec![offered_gbps.0, offered_gbps.1]),
    );
    let accel = IotAuthAccelerator::prototype().with_capacity(Bandwidth::gbps(accel_gbps));
    let mut sys = FldSystem::new(cfg, Box::new(accel), HostMode::Consume, gen);
    // Tenant identification: source IP -> context tag -> accelerator
    // (the paper: "configures the NIC to tag ingress messages with a
    // context ID associated with the tenant, based on their packet
    // headers").
    for tenant in 1u32..=2 {
        sys.nic
            .install_rule(
                Direction::Ingress,
                0,
                Rule {
                    priority: 5,
                    spec: MatchSpec {
                        src_ip: Some(Ipv4Addr::new(10, 9, 0, tenant as u8)),
                        ..MatchSpec::any()
                    },
                    actions: vec![
                        Action::TagContext { context: tenant },
                        Action::ToAccelerator {
                            queue: 0,
                            next_table: 1,
                        },
                    ],
                },
            )
            .expect("rule installs");
    }
    // Validated packets continue to the host application.
    let rss = sys.nic.create_rss(16);
    sys.nic
        .install_rule(
            Direction::Ingress,
            1,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToHostRss { rss_id: rss }],
            },
        )
        .expect("rule installs");
    if let Some(limit) = shape_gbps {
        for tenant in 1..=2 {
            sys.nic
                .install_policer(tenant, Bandwidth::gbps(limit), 32 * 1024);
        }
    }
    let stats = h.simulate(sys);
    let dur = stats
        .client_rate
        .elapsed()
        .as_secs_f64()
        .max(stats.host_goodput.elapsed().as_secs_f64());
    let per_tenant = |ctx: u32| {
        stats
            .tenant_bytes
            .iter()
            .find(|(c, _)| *c == ctx)
            .map(|(_, b)| *b as f64 * 8.0 / dur / 1e9)
            .unwrap_or(0.0)
    };
    (per_tenant(1), per_tenant(2))
}

/// Renders the § 8.2.3 isolation table.
pub fn iot_isolation(h: &Harness) -> String {
    let run = |shape| run_isolation((8.0, 16.0), 12.0, shape, 1024, h);
    let unshaped = run(None);
    let shaped = run(Some(6.0));
    let mut t = TextTable::new(vec!["Scenario", "Tenant A admitted", "Tenant B admitted"]);
    t.row(vec![
        "no shaping (A: 8 Gbps, B: 16 Gbps offered)".to_string(),
        format!("{:.2} Gbps", unshaped.0),
        format!("{:.2} Gbps", unshaped.1),
    ]);
    t.row(vec![
        "6 Gbps NIC shapers per tenant".to_string(),
        format!("{:.2} Gbps", shaped.0),
        format!("{:.2} Gbps", shaped.1),
    ]);
    format!(
        "§8.2.3 IoT authentication: performance isolation, 12 Gbps accelerator\n\
         (paper: unshaped 4.15/8.35 Gbps; shaped both flows get their 6 Gbps)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unshaped_split_is_proportional() {
        let (a, b) = run_isolation((8.0, 16.0), 12.0, None, 1024, &Harness::quick());
        // Paper: 4.15 vs 8.35 — proportional to offered load.
        assert!((a - 4.0).abs() < 1.0, "tenant A {a:.2}");
        assert!((b - 8.0).abs() < 1.2, "tenant B {b:.2}");
        assert!(b > a * 1.6, "B must dominate: {a:.2} vs {b:.2}");
    }

    #[test]
    fn shaping_restores_fair_shares() {
        let (a, b) = run_isolation((8.0, 16.0), 12.0, Some(6.0), 1024, &Harness::quick());
        assert!((a - 6.0).abs() < 0.8, "tenant A {a:.2}");
        assert!((b - 6.0).abs() < 0.8, "tenant B {b:.2}");
    }
}
