//! Per-layer kernels: tight loops over one public function of one crate,
//! fed with the workloads' sizes, rule sets and occupancies, timed from
//! outside. Each reports ns per call; a few also report allocations.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use bytes::BytesMut;

use fld_accel::defrag_accel::DefragAccelerator;
use fld_accel::echo::EchoAccelerator;
use fld_bench::experiments::echo::steer_to_accel;
use fld_core::hw::{FldConfig, FldRx, FldTx};
use fld_core::system::AcceleratorModel;
use fld_crypto::hmac::hmac_sha256;
use fld_crypto::zuc::eea3;
use fld_cuckoo::CuckooTable;
use fld_net::frame::{build_udp_frame, fragment_frame, vxlan_decap, vxlan_encap};
use fld_net::roce::{Bth, BthOpcode};
use fld_net::{Endpoints, FlowKey, Ipv4Addr, ParsedFrame, Reassembler, Toeplitz};
use fld_nic::eswitch::{Action, MatchSpec, Rule};
use fld_nic::nic::{Direction, Nic, NicConfig};
use fld_nic::wqe::{Cqe, ExpansionContext, TxDescriptor};
use fld_nic::{Mprq, PacketMeta, QpConfig, RcQp, SimPacket, SrIov, VfConfig};
use fld_pcie::fabric::SwitchPort;
use fld_pcie::tlp::{read_wire_bytes, write_wire_bytes, TlpKind, TlpOverheads};
use fld_sim::counters::CounterTree;
use fld_sim::queue::EventQueue;
use fld_sim::rng::SimRng;
use fld_sim::stats::Histogram;
use fld_sim::time::{Bandwidth, SimDuration, SimTime};
use fld_workloads::churn::{ChurnConfig, ChurnProcess};
use fld_workloads::sizes::SizeDist;

use crate::alloc;
use crate::spans::Spans;
use crate::workloads::{defrag_generator, install_defrag_rules};

/// Timed batches per kernel; the median batch is reported.
const BATCHES: usize = 9;
/// Host time one batch should take.
const BATCH_NS: u128 = 1_500_000;

/// ns per call and allocations per call of one kernel.
#[derive(Debug, Clone, Copy)]
pub struct KernelTime {
    /// Median over the batches of batch time ÷ calls.
    pub ns: f64,
    /// Allocations per call over all batches.
    pub allocs: f64,
}

/// Times `op`: doubles the batch size until a batch lasts [`BATCH_NS`],
/// then reports the median of [`BATCHES`] batches.
pub fn time_kernel(mut op: impl FnMut()) -> KernelTime {
    let mut n = 64u64;
    loop {
        let t0 = Instant::now();
        for _ in 0..n {
            op();
        }
        if t0.elapsed().as_nanos() >= BATCH_NS || n >= 1 << 26 {
            break;
        }
        n *= 2;
    }
    let before = alloc::counts();
    let mut per_call: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..n {
                op();
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    let allocs = (alloc::counts().allocs - before.allocs) as f64 / (n as f64 * BATCHES as f64);
    per_call.sort_by(f64::total_cmp);
    KernelTime {
        ns: per_call[BATCHES / 2],
        allocs,
    }
}

struct Runner<'a> {
    spans: &'a mut Spans,
    parent: Option<usize>,
    out: BTreeMap<&'static str, f64>,
}

impl Runner<'_> {
    /// Runs one kernel inside a span named after its metric and files
    /// its ns per call under that name.
    fn run(&mut self, name: &'static str, kernel: impl FnOnce() -> KernelTime) -> KernelTime {
        let span = self.spans.enter(name, self.parent);
        let t = kernel();
        self.spans.exit(span);
        self.out.insert(name, t.ns);
        t
    }
}

fn flow(i: u64) -> FlowKey {
    FlowKey::new(
        Ipv4Addr::new(10, 0, 0, 1),
        Ipv4Addr::new(10, 0, 0, 2),
        1000 + (i % 64) as u16,
        7777,
        17,
    )
}

/// A calendar pre-filled to `depth` with the engine's delay profile:
/// mostly near-term hops, a few far-out timers.
fn filled_calendar(depth: u64) -> EventQueue<u64> {
    let mut q = EventQueue::new();
    for i in 0..depth {
        q.schedule_at(SimTime::from_picos(4_096 + (i * 7_919) % 2_000_000), i);
    }
    q
}

/// The rack's per-tenant rule set (two rules per VF, as `Rack` installs
/// them) on a fresh NIC, so the classify kernel walks the same tables.
fn rack_nic(tenants: u16) -> Nic {
    let mut nic = Nic::new(NicConfig::default());
    for t in 0..tenants {
        let context = u32::from(t) + 1;
        let ip = Ipv4Addr::new(10, 9, 0, t as u8 + 1);
        let vf = nic.create_vf(VfConfig {
            context,
            src_ip: Some(ip),
            rule_quota: 4,
            tx_shaper: None,
        });
        let rules = [
            (
                0,
                MatchSpec {
                    src_ip: Some(ip),
                    ..MatchSpec::any()
                },
                vec![
                    Action::TagContext { context },
                    Action::ToAccelerator {
                        queue: 0,
                        next_table: 1,
                    },
                ],
            ),
            (
                1,
                MatchSpec {
                    context_id: Some(context),
                    ..MatchSpec::any()
                },
                vec![Action::ToWire { port: 0 }],
            ),
        ];
        for (table, spec, actions) in rules {
            nic.install_vf_rule(
                vf,
                Direction::Ingress,
                table,
                Rule {
                    priority: 5,
                    spec,
                    actions,
                },
            )
            .expect("vf rule installs");
        }
    }
    nic
}

fn classify_kernel(nic: &mut Nic, metas: &[PacketMeta]) -> KernelTime {
    let mut i = 0;
    time_kernel(|| {
        let mut meta = metas[i % metas.len()];
        i += 1;
        black_box(nic.classify_ingress(&mut meta));
    })
}

/// Runs every kernel, one span each under `parent`, and returns the
/// per-layer kernel metrics by their final names.
pub fn run_all(spans: &mut Spans, parent: Option<usize>) -> BTreeMap<&'static str, f64> {
    let mut r = Runner {
        spans,
        parent,
        out: BTreeMap::new(),
    };

    // ---- fld-sim ----
    for (name, depth) in [
        ("sim.calendar_churn_ns.d1k", 1_000u64),
        ("sim.calendar_churn_ns.d500k", 500_000),
    ] {
        r.run(name, || {
            let mut q = filled_calendar(depth);
            let mut i = depth;
            time_kernel(|| {
                let (t, id) = q.pop().expect("constant depth");
                q.schedule_at(t + SimDuration::from_picos(1_500_000), i);
                i += 1;
                black_box(id);
            })
        });
    }
    r.run("sim.counter_inc_ns", || {
        let tree = CounterTree::new();
        let c = tree.counter("port/0/rx/packets");
        time_kernel(|| black_box(&c).add(black_box(64)))
    });
    r.run("sim.histogram_record_ns", || {
        let mut h = Histogram::new();
        let mut v = 1u64;
        time_kernel(|| {
            v = v.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            h.record(v >> 40);
        })
    });

    // ---- fld-net ----
    let ep = Endpoints::sim(1, 2);
    let payload_64 = [0u8; 64 - 42];
    let payload_1500 = [0u8; 1500 - 42];
    r.run("net.build_udp_ns.64", || {
        time_kernel(|| {
            black_box(build_udp_frame(&ep, 1000, 7777, black_box(&payload_64)));
        })
    });
    let built = r.run("net.build_udp_ns.1500", || {
        time_kernel(|| {
            black_box(build_udp_frame(&ep, 1000, 7777, black_box(&payload_1500)));
        })
    });
    r.out.insert("net.build_udp_allocs", built.allocs);
    let frame_64 = build_udp_frame(&ep, 1000, 7777, &payload_64);
    let frame_1500 = build_udp_frame(&ep, 1000, 7777, &payload_1500);
    for (name, frame) in [
        ("net.parse_ns.64", &frame_64),
        ("net.parse_ns.1500", &frame_1500),
    ] {
        r.run(name, || {
            time_kernel(|| {
                black_box(ParsedFrame::parse(black_box(frame)).expect("valid frame"));
            })
        });
    }
    r.run("net.fragment_ns", || {
        time_kernel(|| {
            black_box(fragment_frame(black_box(&frame_1500), 1450, 7).expect("valid frame"));
        })
    });
    let fragments = fragment_frame(&frame_1500, 1450, 7).expect("valid frame");
    r.run("net.reassemble_ns", || {
        let parts: Vec<_> = fragments
            .iter()
            .map(|f| {
                let p = ParsedFrame::parse(f).expect("valid fragment");
                (p.ip.expect("ipv4"), p.payload)
            })
            .collect();
        let mut r = Reassembler::new(1024);
        let (mut id, mut i) = (0u16, 0usize);
        // One call = one fragment pushed; ids advance per datagram.
        time_kernel(|| {
            let (mut ip, payload) = (parts[i].0, &parts[i].1);
            ip.id = id;
            black_box(r.push(&ip, payload));
            i += 1;
            if i == parts.len() {
                i = 0;
                id = id.wrapping_add(1);
            }
        })
    });
    let tunnelled = vxlan_encap(&Endpoints::sim(100, 101), 42, &fragments[0], 30_000);
    r.run("net.vxlan_decap_ns", || {
        time_kernel(|| {
            black_box(vxlan_decap(black_box(&tunnelled)).expect("valid tunnel"));
        })
    });
    r.run("net.roce_codec_ns", || {
        let mut buf = BytesMut::with_capacity(64);
        let mut psn = 0u32;
        time_kernel(|| {
            buf.clear();
            psn = (psn + 1) & 0x7f_ffff;
            Bth::new(BthOpcode::SendOnly, 0x200, psn, true).write(&mut buf);
            black_box(Bth::parse(black_box(&buf)).expect("valid BTH"));
        })
    });
    r.run("net.toeplitz_ns", || {
        let toeplitz = Toeplitz::default();
        let mut i = 0u64;
        time_kernel(|| {
            i += 1;
            black_box(toeplitz.hash_flow(black_box(&flow(i))));
        })
    });

    // ---- fld-cuckoo: the prototype's 4096 slots at 50 % occupancy ----
    let half_full = || {
        let mut t: CuckooTable<u64, u64> = CuckooTable::with_capacity(4096);
        for i in 0..2048u64 {
            t.insert(i, i * 3);
        }
        t
    };
    r.run("cuckoo.lookup_hit_ns", || {
        let t = half_full();
        let mut k = 0u64;
        time_kernel(|| {
            k += 1;
            black_box(t.get(&(k % 2048)).copied());
        })
    });
    r.run("cuckoo.lookup_miss_ns", || {
        let t = half_full();
        let mut k = 1u64 << 32;
        time_kernel(|| {
            k += 1;
            black_box(t.get(&k).copied());
        })
    });
    r.run("cuckoo.insert_remove_ns", || {
        let mut t = half_full();
        let mut k = 1u64 << 32;
        time_kernel(|| {
            k += 1;
            t.insert(k, k);
            black_box(t.remove(&k));
        })
    });

    // ---- fld-crypto ----
    let zuc = r.run("crypto.zuc_ns_per_byte", || {
        let mut data = vec![0u8; 512];
        time_kernel(|| eea3(&[7u8; 16], 1, 2, 0, 512 * 8, black_box(&mut data)))
    });
    r.out.insert("crypto.zuc_ns_per_byte", zuc.ns / 512.0);
    let hmac = r.run("crypto.hmac_ns_per_byte", || {
        let msg = vec![0x5au8; 256];
        time_kernel(|| {
            black_box(hmac_sha256(b"tenant-key", black_box(&msg)));
        })
    });
    r.out.insert("crypto.hmac_ns_per_byte", hmac.ns / 256.0);

    // ---- fld-pcie ----
    let segment = r.run("pcie.segment_ns", || {
        let ov = TlpOverheads::default();
        time_kernel(|| {
            for bytes in [64u32, 1500] {
                black_box(write_wire_bytes(black_box(bytes), 256, &ov));
                black_box(read_wire_bytes(black_box(bytes), 256, &ov));
            }
        })
    });
    r.out.insert("pcie.segment_ns", segment.ns / 4.0);
    r.run("pcie.fabric_forward_ns", || {
        let mut port = SwitchPort::new(Bandwidth::gbps(50.0), 64 * 1024);
        let mut now = SimTime::ZERO;
        time_kernel(|| {
            now += SimDuration::from_nanos(300);
            black_box(port.forward(now, TlpKind::MemWrite { payload: 256 }));
        })
    });

    // ---- fld-nic ----
    let synthetic: Vec<PacketMeta> = (0..64)
        .map(|i| SimPacket::synthetic(i, 64, flow(i), SimTime::ZERO).meta)
        .collect();
    r.run("nic.classify_ns.echo", || {
        let mut nic = Nic::new(NicConfig::default());
        steer_to_accel(&mut nic);
        classify_kernel(&mut nic, &synthetic)
    });
    r.run("nic.classify_ns.defrag", || {
        let mut nic = Nic::new(NicConfig::default());
        install_defrag_rules(&mut nic);
        // The decapsulated fragments of one generator burst.
        let mut burst = Vec::new();
        defrag_generator()(0, &mut SimRng::seed_from(7), &mut burst);
        let metas: Vec<PacketMeta> = burst
            .iter()
            .map(|p| {
                let bytes = p.bytes.as_deref().expect("defrag bursts carry bytes");
                let (_, inner) = vxlan_decap(bytes).expect("valid tunnel");
                SimPacket::from_frame(p.id, inner, SimTime::ZERO).meta
            })
            .collect();
        classify_kernel(&mut nic, &metas)
    });
    r.run("nic.classify_ns.rack", || {
        let mut nic = rack_nic(6);
        let metas: Vec<PacketMeta> = (0..6u64)
            .map(|t| {
                let key = FlowKey::new(
                    Ipv4Addr::new(10, 9, 0, t as u8 + 1),
                    Ipv4Addr::new(10, 0, 0, 2),
                    2000,
                    7777,
                    17,
                );
                SimPacket::synthetic(t, 554, key, SimTime::ZERO).meta
            })
            .collect();
        classify_kernel(&mut nic, &metas)
    });
    r.run("nic.rss_ns", || {
        let mut nic = Nic::new(NicConfig::default());
        let rss = nic.create_rss(16);
        let mut i = 0;
        time_kernel(|| {
            i += 1;
            black_box(
                nic.rss_queue(rss, &synthetic[i % synthetic.len()])
                    .expect("rss exists"),
            );
        })
    });
    r.run("nic.police_ns", || {
        let mut nic = Nic::new(NicConfig::default());
        nic.install_policer(1, Bandwidth::gbps(30.0), 256 * 1024);
        let mut now = SimTime::ZERO;
        time_kernel(|| {
            now += SimDuration::from_nanos(500);
            black_box(nic.police(1, now, 1500));
        })
    });
    r.run("nic.vf_offer_tx_ns", || {
        let mut sriov = SrIov::new();
        let vfs: Vec<u16> = (1..=6)
            .map(|c| {
                sriov.create_vf(VfConfig {
                    tx_shaper: Some((Bandwidth::gbps(10.0), 64 * 1024)),
                    ..VfConfig::for_context(c)
                })
            })
            .collect();
        let (mut now, mut i) = (SimTime::ZERO, 0usize);
        time_kernel(|| {
            now += SimDuration::from_nanos(500);
            i += 1;
            black_box(sriov.offer_tx(vfs[i % vfs.len()], now, 554));
        })
    });
    let ctx = ExpansionContext::default();
    let desc = TxDescriptor {
        addr: ctx.pool_base + 37 * 64,
        len: 1500,
        lkey: ctx.lkey,
        queue: 1,
        signalled: true,
        offload_flags: 0,
    };
    let compressed = ctx.compress(&desc);
    r.run("nic.wqe_compress_ns", || {
        time_kernel(|| {
            black_box(ctx.compress(black_box(&desc)));
        })
    });
    r.run("nic.wqe_expand_ns", || {
        time_kernel(|| {
            black_box(ctx.expand(black_box(&compressed)));
        })
    });
    r.run("nic.cqe_roundtrip_ns", || {
        let cqe = Cqe {
            queue: 1,
            wqe_index: 7,
            byte_len: 1500,
            rss_hash: 0xab_cdef,
            context_id: 3,
            checksum_ok: true,
            end_of_message: true,
        };
        time_kernel(|| {
            let bytes = black_box(cqe).to_compressed();
            black_box(Cqe::from_compressed(&bytes));
        })
    });
    r.run("nic.mprq_cycle_ns", || {
        let mut q = Mprq::new(8, 32 * 1024, 256);
        time_kernel(|| {
            let p = q.place(black_box(1500)).expect("room");
            q.release(p);
        })
    });
    let qp = r.run("nic.qp_msg_ns", || {
        let mut client = RcQp::new(0x100, QpConfig::default());
        let mut server = RcQp::new(0x200, QpConfig::default());
        client.connect(0x200);
        server.connect(0x100);
        let (mut now, mut wr) = (SimTime::ZERO, 0u64);
        // One call = one 1 KiB message posted, transmitted, received and
        // acknowledged end to end.
        time_kernel(|| {
            now += SimDuration::from_nanos(400);
            wr += 1;
            client.post_send(wr, 1024);
            for pkt in client.poll_transmit(now) {
                let (events, ack) = server.on_packet(now, &pkt);
                black_box(events);
                if let Some(ack) = ack {
                    black_box(client.on_packet(now, &ack));
                }
            }
        })
    });
    r.out.insert("nic.qp_allocs_per_msg", qp.allocs);

    // ---- fld-core ----
    r.run("core.fldtx_cycle_ns", || {
        let mut tx = FldTx::new(FldConfig::default());
        time_kernel(|| {
            let slot = tx.enqueue(0, black_box(1500)).expect("credits");
            tx.complete(slot);
        })
    });
    r.run("core.fldrx_cycle_ns", || {
        let mut rx = FldRx::new(FldConfig::default());
        time_kernel(|| {
            black_box(rx.offer(black_box(1500)));
            rx.release(1500);
        })
    });

    // ---- fld-accel ----
    r.run("accel.echo_process_ns", || {
        let mut accel = EchoAccelerator::prototype();
        let (mut now, mut i) = (SimTime::ZERO, 0u64);
        time_kernel(|| {
            now += SimDuration::from_nanos(100);
            i += 1;
            let pkt = SimPacket::synthetic(i, 64, flow(i), now);
            black_box(accel.process(pkt, Some(1), now));
        })
    });
    r.run("accel.defrag_process_ns", || {
        let mut accel = DefragAccelerator::prototype();
        let parts: Vec<_> = fragments
            .iter()
            .map(|f| ParsedFrame::parse(f).expect("valid fragment"))
            .collect();
        let (mut now, mut id, mut i) = (SimTime::ZERO, 0u16, 0usize);
        // One call = one fragment delivered; a fresh IP id per datagram
        // keeps every datagram completing, as in the workload.
        time_kernel(|| {
            now += SimDuration::from_nanos(100);
            let mut ip = parts[i].ip.expect("ipv4");
            ip.id = id;
            let mut buf = BytesMut::with_capacity(1500);
            parts[i].eth.write(&mut buf);
            ip.write(&mut buf);
            buf.extend_from_slice(&parts[i].payload);
            let pkt = SimPacket::from_frame(u64::from(id), buf.freeze(), now);
            black_box(accel.process(pkt, Some(1), now));
            i += 1;
            if i == parts.len() {
                i = 0;
                id = id.wrapping_add(1);
            }
        })
    });

    // ---- fld-workloads ----
    r.run("workloads.gen_next_ns", || {
        let mut gen = defrag_generator();
        let mut rng = SimRng::seed_from(7);
        let mut burst = Vec::new();
        let mut i = 0u64;
        time_kernel(|| {
            burst.clear();
            gen(i, &mut rng, &mut burst);
            i += 1;
            black_box(burst.len());
        })
    });
    r.run("workloads.churn_step_ns", || {
        let mut rng = SimRng::seed_from(7);
        let cfg = ChurnConfig {
            tenants: 6,
            nodes: 4,
            arrival_rate: 15_000.0,
            ..ChurnConfig::default()
        };
        let mut pop = ChurnProcess::new(cfg, &mut rng);
        // One call = one arrival and the departure of that same flow, so
        // the population stays at its initial size.
        time_kernel(|| {
            black_box(pop.next_arrival_gap(&mut rng));
            let (f, life) = pop.arrive(&mut rng);
            black_box(life);
            black_box(pop.depart(f.id));
        })
    });
    r.run("workloads.size_sample_ns", || {
        let dist = SizeDist::imc2010_synthetic();
        let mut rng = SimRng::seed_from(7);
        time_kernel(|| {
            black_box(dist.sample(&mut rng));
        })
    });
    r.out
}
