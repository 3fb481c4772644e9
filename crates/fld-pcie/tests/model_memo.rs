//! `FldModel::{rx,tx}_wire_bytes` remember the two most recent frame
//! lengths; whatever was asked before, they equal
//! `{rx,tx}_load(len).wire_bytes()` evaluated afresh.

use fld_pcie::config::PcieConfig;
use fld_pcie::model::{FldModel, FldProtocolParams};

fn configs() -> [PcieConfig; 2] {
    [PcieConfig::innova2_gen3_x8(), PcieConfig::gen4_x16_100g()]
}

/// Every length in 0..=9216, each asked three ways: fresh (a miss), again
/// (a hit on the most recent entry), and after its predecessor (a hit on
/// the older entry, then a swap back).
#[test]
fn memoised_loads_equal_the_loads_for_every_length() {
    for pcie in configs() {
        let reference = FldModel::new(pcie);
        let mut model = FldModel::new(pcie);
        for len in 0..=9216u32 {
            let rx = reference.rx_load(len).wire_bytes();
            let tx = reference.tx_load(len).wire_bytes();
            let prev = len.saturating_sub(1);
            for ask in [len, len, prev, len, prev] {
                let (want_rx, want_tx) = if ask == len {
                    (rx, tx)
                } else {
                    (
                        reference.rx_load(prev).wire_bytes(),
                        reference.tx_load(prev).wire_bytes(),
                    )
                };
                assert_eq!(model.rx_wire_bytes(ask), want_rx, "rx {ask}");
                assert_eq!(model.tx_wire_bytes(ask), want_tx, "tx {ask}");
            }
        }
    }
}

/// Three lengths in rotation evict on every call; a clone carries its
/// own copy of the memo and neither disturbs the other.
#[test]
fn rotation_of_three_and_clones_stay_exact() {
    for pcie in configs() {
        let reference = FldModel::new(pcie);
        let mut model = FldModel::new(pcie);
        let sizes = [78u32, 1102, 1500];
        for i in 0..64 {
            let len = sizes[i % 3];
            assert_eq!(
                model.rx_wire_bytes(len),
                reference.rx_load(len).wire_bytes()
            );
            assert_eq!(
                model.tx_wire_bytes(len),
                reference.tx_load(len).wire_bytes()
            );
            if i % 7 == 0 {
                let mut fork = model.clone();
                for &other in &[64u32, len, 9000] {
                    assert_eq!(
                        fork.tx_wire_bytes(other),
                        reference.tx_load(other).wire_bytes()
                    );
                    assert_eq!(
                        fork.rx_wire_bytes(other),
                        reference.rx_load(other).wire_bytes()
                    );
                }
            }
        }
    }
}

/// The control shares hoisted into the constructor are the expressions
/// the per-call form evaluated, summed in the same order: a model built
/// with explicit protocol parameters reproduces them bit for bit.
#[test]
fn hoisted_control_shares_are_bit_identical() {
    let pcie = PcieConfig::innova2_gen3_x8();
    let p = FldProtocolParams::default();
    let model = FldModel::with_protocol(pcie, p);
    let ov = &pcie.overheads;
    let write = |payload| ov.wire_bytes(fld_pcie::tlp::TlpKind::MemWrite { payload }) as f64;
    for len in [0u32, 64, 512, 513, 1500, 4096, 9216] {
        let rx = model.rx_load(len);
        let data = fld_pcie::tlp::write_wire_bytes(len, pcie.max_payload, ov) as f64;
        assert_eq!(rx.to_fld, data + write(p.cqe_size) / p.rx_cqe_batch as f64);
        assert_eq!(rx.to_nic, write(p.doorbell_size) / p.doorbell_batch as f64);

        let (mut to_fld, mut to_nic) = (0.0, 0.0);
        for i in 0..len.div_ceil(pcie.max_read_request) {
            let chunk = (len - i * pcie.max_read_request).min(pcie.max_read_request);
            let (req, cpl) = fld_pcie::tlp::read_wire_bytes(chunk, pcie.completion_chunk, ov);
            to_fld += req as f64;
            to_nic += cpl as f64;
        }
        let (dreq, dcpl) = fld_pcie::tlp::read_wire_bytes(
            p.tx_desc_size * p.desc_fetch_batch,
            pcie.completion_chunk,
            ov,
        );
        to_fld += dreq as f64 / p.desc_fetch_batch as f64;
        to_nic += dcpl as f64 / p.desc_fetch_batch as f64;
        to_fld += write(p.cqe_size) / p.tx_cqe_batch as f64;
        to_nic += write(p.doorbell_size) / p.doorbell_batch as f64;
        let tx = model.tx_load(len);
        assert_eq!((tx.to_fld, tx.to_nic), (to_fld, to_nic), "tx {len}");
    }
}
