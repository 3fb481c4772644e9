//! § 8.2.2: the IP defragmentation experiment. 60 iperf-style TCP flows,
//! three configurations:
//!
//! 1. no fragmentation;
//! 2. 1500 B packets fragmented over a 1450 B-MTU route — compared with
//!    software defragmentation (RSS broken, one receiver core) and with the
//!    FLD hardware defrag offload (RSS restored);
//! 3. fragmented and VXLAN-tunnelled, decapsulated by the NIC offload
//!    before hardware defragmentation (the sender's software tunneling is
//!    the bottleneck).

use fld_accel::defrag_accel::DefragAccelerator;
use fld_accel::echo::EchoAccelerator;
use fld_core::params::AccelParams;
use fld_core::system::{ClientGen, FldSystem, GenMode, HostMode, SystemConfig};
use fld_net::ipv4::Reassembler;
use fld_nic::eswitch::{Action, MatchSpec, Rule};
use fld_nic::nic::Direction;
use fld_sim::time::SimDuration;
use fld_workloads::gen::{defrag_bursts, DefragMode};

use crate::fmt::TextTable;
use crate::report::Cli;
use crate::Scale;

const FLOWS: u16 = 60;
const CORES: usize = 16;

/// Which § 8.2.2 configuration to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefragConfig {
    /// Config (a): no fragmentation, host RSS.
    NoFrag,
    /// Config (b), baseline: fragments defragmented in software.
    SoftwareDefrag,
    /// Config (b), offload: fragments defragmented by the accelerator.
    HardwareDefrag,
    /// Config (c): VXLAN + pre-fragmentation, NIC decap + hardware defrag.
    VxlanHardwareDefrag,
}

/// Runs one configuration at `scale`, strictly audited when `strict`;
/// returns TCP-payload goodput in Gbps.
pub fn run_defrag(config: DefragConfig, scale: Scale, strict: bool) -> f64 {
    let mut sys = defrag_system(config, scale.packets);
    if strict {
        sys.enable_strict_audit();
    }
    let stats = sys.run(scale.warmup(), scale.deadline());
    stats.host_goodput.gbps()
}

/// Builds one configuration's system — sender, host stack, accelerator
/// and eSwitch rules — offering `packets` original (pre-fragmentation)
/// packets.
pub fn defrag_system(config: DefragConfig, packets: u64) -> FldSystem {
    let cfg = SystemConfig {
        host_cores: CORES,
        ..SystemConfig::remote()
    };
    let params = AccelParams::default();
    let mode = match config {
        DefragConfig::NoFrag => DefragMode::NoFragmentation,
        DefragConfig::SoftwareDefrag | DefragConfig::HardwareDefrag => {
            DefragMode::Fragmented { mtu: 1450 }
        }
        DefragConfig::VxlanHardwareDefrag => DefragMode::FragmentedVxlan { mtu: 1450, vni: 42 },
    };
    // iperf TCP is a closed-loop reliable workload: each flow keeps a
    // window of data in flight and the receiver's delivery rate throttles
    // the senders. 2 bursts in flight per flow keeps the single-core
    // software-defrag backlog bounded while comfortably filling the 25 GbE
    // pipe in the fast configurations.
    let window = FLOWS as u32 * 2;
    let mut gen = ClientGen::new(
        GenMode::ClosedLoop { window },
        packets,
        defrag_bursts(FLOWS, mode),
    );
    if config == DefragConfig::VxlanHardwareDefrag {
        // § 8.2.2 (c): "the sender becomes the bottleneck, as ... it relies
        // on software fragmentation and tunneling." ~690 ns per original
        // packet caps the sender near 16.8 Gbps of TCP payload.
        gen = gen.with_burst_cost(SimDuration::from_nanos(690));
    }
    let host_mode = HostMode::DefragStack {
        core_gbps: params.sw_defrag_core_gbps,
        reassemblers: (0..CORES).map(|_| Reassembler::new(1024)).collect(),
    };
    let use_hw = matches!(
        config,
        DefragConfig::HardwareDefrag | DefragConfig::VxlanHardwareDefrag
    );
    let accel: Box<dyn fld_core::system::AcceleratorModel> = if use_hw {
        Box::new(DefragAccelerator::prototype())
    } else {
        Box::new(EchoAccelerator::prototype()) // unused
    };
    let mut sys = FldSystem::new(cfg, accel, host_mode, gen);
    let rss = sys.nic.create_rss(CORES as u16);
    if use_hw {
        // Fragments -> accelerator; reassembled packets resume at table 1.
        sys.nic
            .install_rule(
                Direction::Ingress,
                0,
                Rule {
                    priority: 10,
                    spec: MatchSpec {
                        is_fragment: Some(true),
                        ..MatchSpec::any()
                    },
                    actions: vec![Action::ToAccelerator {
                        queue: 0,
                        next_table: 1,
                    }],
                },
            )
            .expect("rule installs");
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
    }
    // Non-fragments go straight to host RSS in every configuration.
    sys.nic
        .install_rule(
            Direction::Ingress,
            0,
            Rule {
                priority: 0,
                spec: MatchSpec::any(),
                actions: vec![Action::ToHostRss { rss_id: rss }],
            },
        )
        .expect("rule installs");
    if config == DefragConfig::VxlanHardwareDefrag {
        sys.enable_vxlan_decap(42);
    }
    sys
}

/// Renders the § 8.2.2 comparison table.
pub fn defrag_table(cli: &Cli) -> String {
    let run = |config| run_defrag(config, cli.scale(), cli.strict_audit);
    let a = run(DefragConfig::NoFrag);
    let b_sw = run(DefragConfig::SoftwareDefrag);
    let b_hw = run(DefragConfig::HardwareDefrag);
    let c_hw = run(DefragConfig::VxlanHardwareDefrag);
    let mut t = TextTable::new(vec!["Configuration", "Goodput Gbps", "Speedup vs software"]);
    t.row(vec![
        "(a) no fragmentation".to_string(),
        format!("{a:.1}"),
        "-".into(),
    ]);
    t.row(vec![
        "(b) fragments, software defrag".to_string(),
        format!("{b_sw:.1}"),
        "1.0x".into(),
    ]);
    t.row(vec![
        "(b) fragments, FLD hardware defrag".to_string(),
        format!("{b_hw:.1}"),
        format!("{:.1}x", b_hw / b_sw),
    ]);
    t.row(vec![
        "(c) VXLAN + fragments, NIC decap + FLD defrag".to_string(),
        format!("{c_hw:.1}"),
        format!("{:.2}x", c_hw / b_sw),
    ]);
    format!(
        "§8.2.2 IP defragmentation, 60 TCP flows\n\
         (paper: 23.2 / 3.2 / 22.4 (7x) / VXLAN 5.25x)\n{}",
        t.render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_defrag_collapses_to_one_core() {
        let scale = Scale::quick();
        let sw = run_defrag(DefragConfig::SoftwareDefrag, scale, false);
        let p = AccelParams::default();
        assert!(
            (sw - p.sw_defrag_core_gbps).abs() < 0.5,
            "software defrag should pin one core (~{}): got {sw:.2}",
            p.sw_defrag_core_gbps
        );
    }

    #[test]
    fn hardware_defrag_restores_rss_speedup() {
        let scale = Scale::quick();
        let sw = run_defrag(DefragConfig::SoftwareDefrag, scale, false);
        let hw = run_defrag(DefragConfig::HardwareDefrag, scale, false);
        let speedup = hw / sw;
        assert!(speedup > 4.0, "speedup {speedup:.1} too small (paper: 7x)");
    }

    #[test]
    fn no_frag_is_fastest() {
        let scale = Scale::quick();
        let a = run_defrag(DefragConfig::NoFrag, scale, false);
        let hw = run_defrag(DefragConfig::HardwareDefrag, scale, false);
        assert!(a >= hw * 0.95, "no-frag {a:.1} vs hw-defrag {hw:.1}");
        assert!(a > 15.0, "no-frag should approach line rate: {a:.1}");
    }
}
