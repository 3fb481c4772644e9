//! Shared run-lifecycle state for the per-node simulators.
//!
//! `FldSystem` and `RdmaSystem` (and the rack composition layered on
//! them) carry the same three pieces of engine bookkeeping: the
//! flight-recorder [`Timeline`], the invariant [`Auditor`], and the
//! sampling interval, armed by identical `enable_flight_recorder` /
//! `enable_strict_audit` methods and drained into an [`Engine`] by
//! identical `run()` boilerplate. [`Recorder`] owns that trio once; the
//! systems embed it and delegate, so the lifecycle semantics (lenient
//! until `enable_strict_audit` is called, take-on-run leaving the system
//! reusable for inspection) are defined in one place.

use fld_sim::audit::Auditor;
use fld_sim::engine::Engine;
use fld_sim::probe::Timeline;
use fld_sim::time::SimDuration;

/// The flight-recorder/auditor trio every simulator carries between
/// construction and its `run()` call.
#[derive(Debug)]
pub struct Recorder {
    timeline: Timeline,
    auditor: Auditor,
    sample_interval: SimDuration,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A disabled recorder with the default 1 µs sampling interval and a
    /// lenient auditor ([`Recorder::enable_strict_audit`] escalates it).
    pub fn new() -> Recorder {
        Recorder {
            timeline: Timeline::disabled(),
            auditor: Auditor::new(),
            sample_interval: SimDuration::from_micros(1),
        }
    }

    /// Turns on the flight recorder: every probe is sampled (and the
    /// per-tick invariant audit evaluated) each `interval` of simulated
    /// time.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn enable_flight_recorder(&mut self, interval: SimDuration) {
        self.timeline = Timeline::with_interval(interval);
        self.sample_interval = interval;
    }

    /// Escalates invariant violations to hard errors (panics).
    pub fn enable_strict_audit(&mut self) {
        self.auditor = std::mem::take(&mut self.auditor).strict();
    }

    /// Drains this recorder into an engine for one run, leaving a
    /// disabled timeline and a fresh (non-strict) auditor behind — the
    /// same take-on-run semantics the systems had individually.
    pub fn take_engine<E>(&mut self) -> Engine<E> {
        Engine::new(
            std::mem::take(&mut self.timeline),
            std::mem::take(&mut self.auditor),
            self.sample_interval,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_recorder_is_disabled_and_quiet() {
        let mut rec = Recorder::new();
        assert_eq!(rec.sample_interval, SimDuration::from_micros(1));
        let eng: Engine<u32> = rec.take_engine();
        drop(eng);
    }

    #[test]
    fn flight_recorder_updates_interval() {
        let mut rec = Recorder::new();
        rec.enable_flight_recorder(SimDuration::from_nanos(500));
        assert_eq!(rec.sample_interval, SimDuration::from_nanos(500));
    }
}
