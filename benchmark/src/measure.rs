//! The untraced measurement: set-up timing, a warm-up rep, timed reps,
//! and the correctness gates that turn a bad rep into failed operations.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use fld_sim::time::SimDuration;

use crate::alloc;
use crate::spans::Spans;
use crate::workloads::{Outcome, Toggles, Workload};

/// Every simulated duration is the issue's full-scale figure times this
/// one factor, so a whole suite fits the driver's wall-time cap.
pub const SIM_SCALE: f64 = 0.25;

/// Set-ups timed for `setup_s`.
const SETUP_SAMPLES: usize = 7;

/// Fewest timed reps, however short `--seconds` is.
const MIN_REPS: usize = 3;

/// The simulated duration of one rep of `w` at [`SIM_SCALE`].
pub fn scaled_sim(w: Workload) -> SimDuration {
    SimDuration::from_micros((w.full_sim_ms() as f64 * 1000.0 * SIM_SCALE) as u64)
}

/// Order statistics of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarises `values` (quartiles by linear interpolation).
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let at = |p: f64| {
            let x = p * (v.len() - 1) as f64;
            let (lo, hi) = (x.floor() as usize, x.ceil() as usize);
            v[lo] + (v[hi] - v[lo]) * (x - lo as f64)
        };
        Summary {
            n: v.len(),
            min: v[0],
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            max: v[v.len() - 1],
        }
    }
}

/// Heap traffic of one rep; identical on every rep of a seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunHeap {
    /// Allocation calls inside `run()`.
    pub allocs: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// Peak live bytes during build + run, over what was live before.
    pub peak: u64,
}

/// One finished rep.
#[derive(Debug)]
pub struct Rep {
    /// Host seconds inside `run()`.
    pub wall_s: f64,
    /// Heap traffic of the rep.
    pub heap: RunHeap,
    /// What the run reported.
    pub outcome: Outcome,
}

/// Builds and runs one rep, recording `build`/`run`/`collect` spans
/// under `parent`. A panic (a strict-audit violation) becomes `Err`.
pub fn run_rep(
    w: Workload,
    seed: u64,
    sim: SimDuration,
    toggles: Toggles,
    spans: &mut Spans,
    parent: Option<usize>,
) -> Result<Rep, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let base = alloc::counts().live;
        alloc::reset_peak();
        let span = spans.enter("build", parent);
        let built = w.build(seed, sim, toggles);
        spans.exit(span);

        let span = spans.enter("run", parent);
        let before = alloc::counts();
        let t1 = Instant::now();
        let stats = built.run();
        let wall_s = t1.elapsed().as_secs_f64();
        let after = alloc::counts();
        spans.exit(span);
        let heap = RunHeap {
            allocs: after.allocs - before.allocs,
            bytes: after.bytes - before.bytes,
            peak: after.peak.saturating_sub(base),
        };

        let span = spans.enter("collect", parent);
        let outcome = stats.collect();
        spans.exit(span);
        Rep {
            wall_s,
            heap,
            outcome,
        }
    }))
    .map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// The reasons a rep counts as failed, given the reference digest.
pub fn gate(outcome: &Outcome, reference_digest: u64) -> Vec<String> {
    let mut why = Vec::new();
    if outcome.audit.violations > 0 {
        why.push(format!("{} audit violations", outcome.audit.violations));
    }
    if outcome.sim_digest() != reference_digest {
        why.push(format!(
            "sim_digest {:016x} differs from rep 0's {reference_digest:016x}",
            outcome.sim_digest()
        ));
    }
    if let Err(e) = &outcome.check {
        why.push(e.clone());
    }
    if outcome.sim_pkts == 0 {
        why.push("the generator offered no packets".to_string());
    }
    why
}

/// The end-to-end result of one workload.
#[derive(Debug)]
pub struct Measured {
    /// The workload.
    pub workload: Workload,
    /// Simulated duration of each rep.
    pub sim: SimDuration,
    /// `setup_s`: build + rule install + generator construction + the
    /// simulated warm-up window, from a fresh system each time.
    pub setup_s: Summary,
    /// Host seconds of the untimed warm-up rep (build + run).
    pub warmup_s: f64,
    /// `host_ns_per_sim_pkt` over the timed reps.
    pub host_ns_per_sim_pkt: Summary,
    /// Heap traffic of one rep (identical on every rep).
    pub heap: RunHeap,
    /// The first timed rep's outcome: the simulated metrics.
    pub outcome: Outcome,
    /// Digest of the first timed rep.
    pub sim_digest: u64,
    /// Whether every rep reproduced the first one's digest and heap counts.
    pub exact: bool,
    /// Simulated packets offered over all timed reps.
    pub ops_attempted: u64,
    /// Simulated packets of every rep that failed a gate.
    pub ops_failed: u64,
    /// Why reps failed.
    pub failures: Vec<String>,
}

impl Measured {
    /// `host_ns_per_sim_pkt`'s companion in the historical unit.
    pub fn events_per_host_s(&self) -> f64 {
        self.outcome.events as f64 / self.outcome.sim_pkts as f64 / self.host_ns_per_sim_pkt.median
            * 1e9
    }
}

/// Measures `w` end to end: times [`SETUP_SAMPLES`] set-ups, runs one
/// untimed warm-up rep, then timed reps until `seconds` of host time have
/// been measured.
///
/// # Errors
///
/// Fails if the warm-up rep panics, since nothing can be measured then.
pub fn measure(
    w: Workload,
    seed: u64,
    sim: SimDuration,
    seconds: f64,
    spans: &mut Spans,
) -> Result<Measured, String> {
    let root = spans.enter(w.name(), None);
    let span = spans.enter("setup", Some(root));
    let setups = catch_unwind(|| {
        (0..SETUP_SAMPLES)
            .map(|_| {
                let t0 = Instant::now();
                let built = w.build(seed, sim, Toggles::default());
                std::hint::black_box(built.run_warmup());
                t0.elapsed().as_secs_f64()
            })
            .collect::<Vec<f64>>()
    })
    .map_err(|_| format!("{}: set-up panicked", w.name()))?;
    spans.exit(span);

    let span = spans.enter("warmup", Some(root));
    let t0 = Instant::now();
    let warm = run_rep(w, seed, sim, Toggles::default(), spans, Some(span));
    let warmup_s = t0.elapsed().as_secs_f64();
    spans.exit(span);
    let warm = warm.map_err(|e| format!("{}: warm-up rep panicked: {e}", w.name()))?;
    let per_rep_pkts = warm.outcome.sim_pkts.max(1);
    drop(warm);

    // Digest and heap counts of the first timed rep, which every later
    // rep must reproduce, and that rep's outcome.
    let mut reference = None;
    let mut outcome = None;
    let mut walls = Vec::new();
    let (mut reps, mut attempted, mut failed, mut exact) = (0usize, 0u64, 0u64, true);
    let mut failures = Vec::new();
    let t_start = Instant::now();
    while reps < MIN_REPS || t_start.elapsed().as_secs_f64() < seconds {
        let span = spans.enter("rep", Some(root));
        let rep = run_rep(w, seed, sim, Toggles::default(), spans, Some(span));
        spans.exit(span);
        match rep {
            Err(e) => {
                attempted += per_rep_pkts;
                failed += per_rep_pkts;
                failures.push(format!("rep {reps}: panicked: {e}"));
            }
            Ok(rep) => {
                let pkts = rep.outcome.sim_pkts;
                let (digest, heap) = *reference.get_or_insert((rep.outcome.sim_digest(), rep.heap));
                let why = gate(&rep.outcome, digest);
                exact &= rep.heap == heap;
                attempted += pkts;
                if !why.is_empty() {
                    failed += pkts.max(1);
                    exact = false;
                    failures.push(format!("rep {reps}: {}", why.join("; ")));
                }
                walls.push(rep.wall_s * 1e9 / pkts.max(1) as f64);
                outcome.get_or_insert(rep.outcome);
            }
        }
        reps += 1;
    }
    spans.exit(root);
    let (Some((sim_digest, heap)), Some(outcome)) = (reference, outcome) else {
        return Err(format!("{}: every timed rep panicked", w.name()));
    };
    Ok(Measured {
        workload: w,
        sim,
        setup_s: Summary::of(&setups),
        warmup_s,
        host_ns_per_sim_pkt: Summary::of(&walls),
        heap,
        sim_digest,
        outcome,
        exact,
        ops_attempted: attempted,
        ops_failed: failed,
        failures,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(
            (s.min, s.q1, s.median, s.q3, s.max),
            (1.0, 2.0, 3.0, 4.0, 5.0)
        );
        let s = Summary::of(&[1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.25, 1.5, 1.75));
    }

    #[test]
    fn same_seed_reps_report_identical_heap_counts() {
        let sim = SimDuration::from_millis(1);
        let mut spans = Spans::new(false);
        for w in [Workload::Rdma1k, Workload::DefragVxlan] {
            let a = run_rep(w, 7, sim, Toggles::default(), &mut spans, None).unwrap();
            let b = run_rep(w, 7, sim, Toggles::default(), &mut spans, None).unwrap();
            assert!(a.heap.allocs > 0, "{}: nothing allocated", w.name());
            assert_eq!(a.heap, b.heap, "{}", w.name());
        }
    }
}
