//! The one place an experiment's systems are armed and run.
//!
//! The paper's control plane (§ 5.3) configures every queue in one place
//! at setup time, so the data path never configures itself. The
//! experiments follow the same rule: every registry entry receives a
//! [`Harness`] built from the parsed [`Cli`], and the harness applies the
//! invocation's settings to every run:
//!
//! * it arms strict audit on each system when `--strict-audit` asks;
//! * it runs a system to the scale's warm-up and deadline
//!   ([`Harness::simulate`]) or to an explicit pair
//!   ([`Harness::simulate_until`]);
//! * [`Harness::sweep`] fans points out over the `--jobs` workers, each
//!   under a sub-harness — `exp all` runs its entries as such points;
//! * [`Harness::telemetry`] says whether an instrumented pass was asked
//!   for, and at what flight-recorder interval;
//! * it keeps the audit of every run it ran, in an order that does not
//!   depend on the worker count, so that [`Harness::execute`] fails the
//!   invocation on a violation in any of them, whether or not the
//!   experiment attached that audit to its report.

use std::sync::Mutex;

use fld_core::rack::{Rack, RackStats};
use fld_core::rdma_system::{RdmaRunStats, RdmaSystem};
use fld_core::system::{FldSystem, RunStats};
use fld_sim::audit::AuditReport;
use fld_sim::time::{SimDuration, SimTime};

use crate::experiments::Experiment;
use crate::report::{Cli, Report};
use crate::Scale;

/// A system the harness arms and runs: [`FldSystem`], [`RdmaSystem`] and
/// [`Rack`], each through its own inherent methods.
pub trait System {
    /// What a run of it returns.
    type Stats;
    /// Runs it, measuring from `warmup`, until `deadline`; when `strict`,
    /// its first invariant violation panics.
    fn run_audited(self, strict: bool, warmup: SimTime, deadline: SimTime) -> Self::Stats;
    /// The invariant audit a run's stats carry.
    fn audit(stats: &mut Self::Stats) -> &mut AuditReport;
}

macro_rules! system {
    ($($sys:ty => $stats:ty),*) => {$(
        impl System for $sys {
            type Stats = $stats;
            fn run_audited(mut self, strict: bool, warmup: SimTime, deadline: SimTime) -> $stats {
                if strict {
                    self.enable_strict_audit();
                }
                self.run(warmup, deadline)
            }
            fn audit(stats: &mut $stats) -> &mut AuditReport {
                &mut stats.audit
            }
        }
    )*};
}

system!(FldSystem => RunStats, RdmaSystem => RdmaRunStats, Rack => RackStats);

/// Why the audit log's lock cannot be poisoned: it is held only to push
/// or move whole reports.
const HELD: &str = "the audit log is held only to move reports";

/// The settings of one invocation, applied to every run of it, and the
/// audits of those runs.
#[derive(Debug)]
pub struct Harness {
    cli: Cli,
    scale: Scale,
    check: fn(&mut AuditReport),
    audits: Mutex<Vec<AuditReport>>,
}

impl Harness {
    /// The harness `cli` asks for, at its scale.
    pub fn new(cli: Cli) -> Harness {
        Harness {
            scale: if cli.quick {
                Scale::quick()
            } else {
                Scale::full()
            },
            cli,
            check: |_| {},
            audits: Mutex::default(),
        }
    }

    /// The defaults plus `--quick`: what tests run experiments at.
    pub fn quick() -> Harness {
        Harness::new(Cli {
            quick: true,
            ..Cli::default()
        })
    }

    /// This harness at `scale` instead of the scale its flags imply.
    pub fn with_scale(self, scale: Scale) -> Harness {
        Harness { scale, ..self }
    }

    /// Test seam: `check` runs on the audit of each run this harness or
    /// one derived from it arms, when the run ends. A violation it adds
    /// panics under `--strict-audit` and fails the invocation otherwise,
    /// like one the run found itself.
    pub fn with_check(self, check: fn(&mut AuditReport)) -> Harness {
        Harness { check, ..self }
    }

    /// The flags of the invocation.
    pub fn cli(&self) -> &Cli {
        &self.cli
    }

    /// How long its runs are.
    pub fn scale(&self) -> Scale {
        self.scale
    }

    /// The flight-recorder interval of an instrumented pass, when the
    /// flags ask for a report, trace, timeline or counter dump.
    pub fn telemetry(&self) -> Option<SimDuration> {
        let cli = &self.cli;
        let files = [&cli.json, &cli.trace, &cli.timeline, &cli.counters];
        let asked = files.iter().any(|path| path.is_some());
        asked.then(|| SimDuration::from_nanos(cli.sample_interval_ns))
    }

    /// Arms `sys` and runs it over the scale's warm-up and deadline.
    pub fn simulate<S: System>(&self, sys: S) -> S::Stats {
        self.simulate_until(sys, self.scale.warmup(), self.scale.deadline())
    }

    /// Arms `sys` and runs it, measuring from `warmup`, until `end`.
    ///
    /// # Panics
    ///
    /// Under `--strict-audit`, at the first invariant violation (the
    /// run's own, or one the test seam adds when the run ends).
    pub fn simulate_until<S: System>(&self, sys: S, warmup: SimTime, end: SimTime) -> S::Stats {
        let strict = self.cli.strict_audit;
        let mut stats = sys.run_audited(strict, warmup, end);
        let audit = S::audit(&mut stats);
        (self.check)(audit);
        assert!(!strict || audit.passed(), "strict audit failed: {audit}");
        self.audits.lock().expect(HELD).push(audit.clone());
        stats
    }

    /// Runs `f` over every point on the `--jobs` workers, results in
    /// input order. Each point runs under a sub-harness: this one's scale,
    /// audit mode, worker count and check, and no other flag. A point
    /// therefore reads what it needs of the invocation's own flags before
    /// the sweep, and an entry `exp all` runs as a point produces its
    /// text and nothing else. The points' audits join this one's in input
    /// order, whatever the worker count.
    pub fn sweep<T: Send, R: Send>(
        &self,
        points: Vec<T>,
        f: impl Fn(&Harness, T) -> R + Sync,
    ) -> Vec<R> {
        let runs = crate::runner::run_points(points, self.cli.jobs, |point| {
            let own = self.sub();
            (f(&own, point), own.audits.into_inner().expect(HELD))
        });
        let (results, audits): (Vec<R>, Vec<_>) = runs.into_iter().unzip();
        self.audits
            .lock()
            .expect(HELD)
            .extend(audits.into_iter().flatten());
        results
    }

    /// A sweep point's harness (see [`Harness::sweep`]).
    fn sub(&self) -> Harness {
        let cli = Cli {
            quick: self.cli.quick,
            strict_audit: self.cli.strict_audit,
            jobs: self.cli.jobs,
            ..Cli::default()
        };
        Harness {
            check: self.check,
            ..Harness::new(cli).with_scale(self.scale)
        }
    }

    /// One line per run whose audit recorded a violation, in run order.
    pub fn audit_failures(&self) -> Vec<String> {
        let audits = self.audits.lock().expect(HELD);
        let failed = audits.iter().enumerate().filter(|(_, a)| !a.passed());
        failed
            .map(|(i, audit)| format!("run {}/{} {audit}", i + 1, audits.len()))
            .collect()
    }

    /// Runs `entry` under this harness and writes what the flags ask
    /// for, arming this thread's self-profiler first when `--prof` does.
    /// Returns the process exit status: 0, or 1 when a gate failed, a
    /// run's audit recorded a violation or an artifact could not be
    /// written — in every case after writing each artifact that could be.
    pub fn execute(&self, entry: &Experiment) -> u8 {
        if self.cli.prof.is_some() {
            fld_sim::prof::set_enabled(true);
        }
        let mut report = Report::new(entry.artifact_name());
        let mut failures = (entry.run)(self, &mut report).err().unwrap_or_default();
        failures.extend(self.audit_failures());
        failures.extend(report.finish(&self.cli).err().unwrap_or_default());
        for failure in &failures {
            eprintln!("FAIL: {failure}");
        }
        u8::from(!failures.is_empty())
    }
}
