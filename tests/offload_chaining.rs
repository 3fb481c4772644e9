//! Cross-crate integration: the § 8.2.2 / § 8.2.3 offload-chaining claims —
//! NIC offloads working both *before* and *after* the accelerator — and
//! tenant isolation, at reduced scale via the fld-bench experiment
//! harness.

use fld_bench::experiments::defrag::{run_defrag, DefragConfig};
use fld_bench::experiments::iot::run_isolation;
use fld_bench::harness::Harness;
use fld_bench::Scale;

/// The harness every test here runs under: a reduced scale.
fn harness() -> Harness {
    Harness::quick().with_scale(Scale {
        packets: 60_000,
        warmup_ms: 2,
        deadline_ms: 25,
    })
}

#[test]
fn hardware_defrag_restores_rss_and_beats_software() {
    let sw = run_defrag(DefragConfig::SoftwareDefrag, &harness());
    let hw = run_defrag(DefragConfig::HardwareDefrag, &harness());
    let nofrag = run_defrag(DefragConfig::NoFrag, &harness());
    // Paper §8.2.2: 3.2 -> 22.4 Gbps (7x), with 23.2 un-fragmented.
    assert!(
        sw < 4.5,
        "software defrag must bottleneck on one core: {sw:.1}"
    );
    assert!(hw / sw > 4.0, "speedup {:.1}x too small", hw / sw);
    assert!(nofrag >= hw * 0.9, "no-frag {nofrag:.1} vs hw {hw:.1}");
}

#[test]
fn vxlan_decap_chains_before_defrag() {
    let c = run_defrag(DefragConfig::VxlanHardwareDefrag, &harness());
    let sw = run_defrag(DefragConfig::SoftwareDefrag, &harness());
    // Paper: 5.25x over the software baseline, sender-bound.
    let speedup = c / sw;
    assert!(
        (3.0..7.0).contains(&speedup),
        "VXLAN config speedup {speedup:.2} outside the expected band (c={c:.1}, sw={sw:.1})"
    );
}

#[test]
fn nic_shaping_isolates_tenants() {
    let unshaped = run_isolation((8.0, 16.0), 12.0, None, 1024, &harness());
    let shaped = run_isolation((8.0, 16.0), 12.0, Some(6.0), 1024, &harness());
    // Unshaped: admission proportional to offered load (paper 4.15/8.35).
    assert!(unshaped.1 > unshaped.0 * 1.5, "unshaped {unshaped:?}");
    // Shaped: both tenants get their 6 Gbps allocation.
    assert!((shaped.0 - 6.0).abs() < 1.0, "shaped A {:.2}", shaped.0);
    assert!((shaped.1 - 6.0).abs() < 1.0, "shaped B {:.2}", shaped.1);
}
