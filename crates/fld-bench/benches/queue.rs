//! Criterion microbenchmarks for the event calendar itself: the timing
//! wheel against the binary heap it replaced, at the depths the engine
//! actually sees (quick sweeps idle around 10^3 events; the overloaded
//! fig7b points back up past 4×10^5).
//!
//! Two shapes per (backend, depth) pair:
//!
//! * `churn` — steady state: one pop, one schedule at a short delay,
//!   constant depth. This is the engine's hot loop. Beside the two
//!   backends it runs `laned`: the same loop over in-order streams that
//!   name their FIFO lane, which is how the models' events reach the
//!   calendar (the backends' rows are what an unlaned push still costs).
//! * `drain` — fill to depth, then pop everything. Stresses the wheel's
//!   slot-drain batching and the heap's sift-down respectively.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

use fld_sim::queue::{CalendarKind, EventQueue};
use fld_sim::time::{SimDuration, SimTime};

const DEPTHS: [usize; 3] = [1_000, 100_000, 500_000];

/// Builds a queue pre-filled to `depth` with a deterministic spread of
/// delays matching the engine's profile: mostly near-term (packet
/// serialization, PCIe hops), a few far-out (timeouts, samplers).
fn filled(kind: CalendarKind, depth: usize) -> EventQueue<u64> {
    let mut q = EventQueue::with_kind(kind);
    for i in 0..depth as u64 {
        let delay_ps = 4_096 + (i * 7_919) % 2_000_000;
        q.schedule_at(SimTime::from_picos(delay_ps), i);
    }
    q
}

fn bench_churn(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_churn");
    for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
        for depth in DEPTHS {
            g.throughput(Throughput::Elements(1));
            g.bench_with_input(
                BenchmarkId::new(kind.as_str(), depth),
                &depth,
                |b, &depth| {
                    let mut q = filled(kind, depth);
                    let mut i = depth as u64;
                    b.iter(|| {
                        let (t, id) = q.pop().expect("constant depth");
                        q.schedule_at(t + SimDuration::from_picos(1_500_000), i);
                        i += 1;
                        black_box(id)
                    });
                },
            );
        }
    }
    // One lane per event kind, as `FldSystem` declares them; event `i` is
    // due at `i` steps and belongs to stream `i % LANES`, so every stream
    // is scheduled in order and the pops interleave all of them.
    const LANES: u64 = 12;
    const STEP_PS: u64 = 20_000;
    for depth in DEPTHS {
        g.throughput(Throughput::Elements(1));
        g.bench_with_input(BenchmarkId::new("laned", depth), &depth, |b, &depth| {
            let mut q = EventQueue::new();
            q.set_lanes(LANES as usize);
            for i in 0..depth as u64 {
                q.schedule_at_lane(SimTime::from_picos(i * STEP_PS), (i % LANES) as usize, i);
            }
            let ahead = SimDuration::from_picos(depth as u64 * STEP_PS);
            b.iter(|| {
                let (t, id) = q.pop().expect("constant depth");
                q.schedule_at_lane(t + ahead, (id % LANES) as usize, id + depth as u64);
                black_box(id)
            });
        });
    }
    g.finish();
}

fn bench_drain(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_fill_drain");
    for kind in [CalendarKind::Wheel, CalendarKind::Heap] {
        for depth in DEPTHS {
            g.throughput(Throughput::Elements(depth as u64));
            g.sample_size(10);
            g.bench_with_input(
                BenchmarkId::new(kind.as_str(), depth),
                &depth,
                |b, &depth| {
                    b.iter(|| {
                        let mut q = filled(kind, depth);
                        let mut sum = 0u64;
                        while let Some((_, id)) = q.pop() {
                            sum = sum.wrapping_add(id);
                        }
                        black_box(sum)
                    });
                },
            );
        }
    }
    g.finish();
}

criterion_group!(benches, bench_churn, bench_drain);
criterion_main!(benches);
