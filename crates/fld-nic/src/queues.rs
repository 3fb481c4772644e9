//! Work-queue error handling: the mlx5-style state machine that flushes a
//! queue's outstanding WQEs in error and re-initializes it.

use fld_sim::time::{SimDuration, SimTime};

/// Lifecycle state of a work queue with respect to errors (the mlx5
/// model: `RST → RDY → ERR → RST → RDY`, driven by the driver after an
/// error CQE).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueErrorState {
    /// Accepting and executing WQEs.
    Ready,
    /// An error CQE fired: the queue rejects new work and flushes
    /// outstanding WQEs with flushed-in-error CQEs until re-initialized.
    Error,
}

/// The per-queue error state machine of a mlx5-style NIC: on an error
/// CQE the queue transitions to [`QueueErrorState::Error`], every
/// outstanding WQE completes with a flushed-in-error CQE (no data moves),
/// and after a driver-driven re-initialization delay the queue returns to
/// [`QueueErrorState::Ready`].
///
/// The machine keeps the full audit trail — error CQEs seen, WQEs flushed,
/// re-inits performed — so fault-aware conservation checks can account for
/// every packet a flush discarded.
#[derive(Debug)]
pub struct QueueErrorMachine {
    state: QueueErrorState,
    reinit_delay: SimDuration,
    reinit_done: SimTime,
    error_cqes: u64,
    flushed_in_error: u64,
    reinits: u64,
}

impl QueueErrorMachine {
    /// Creates a ready queue whose recovery (queue flush + modify-QP back
    /// to ready) takes `reinit_delay` of simulated time.
    pub fn new(reinit_delay: SimDuration) -> Self {
        QueueErrorMachine {
            state: QueueErrorState::Ready,
            reinit_delay,
            reinit_done: SimTime::ZERO,
            error_cqes: 0,
            flushed_in_error: 0,
            reinits: 0,
        }
    }

    /// An error CQE surfaced for this queue at `now` with `outstanding`
    /// WQEs still posted: enter the error state and flush them all.
    /// Returns the number of flushed-in-error completions generated.
    ///
    /// A queue already in error absorbs the CQE (counted) without
    /// restarting the re-init clock — the flush is already under way.
    pub fn on_error_cqe(&mut self, now: SimTime, outstanding: u64) -> u64 {
        self.error_cqes += 1;
        if self.state == QueueErrorState::Error {
            return 0;
        }
        self.state = QueueErrorState::Error;
        self.flushed_in_error += outstanding;
        self.reinit_done = now + self.reinit_delay;
        outstanding
    }

    /// Forces the queue into the error state at `now` with recovery
    /// deferred until `reinit_at` — the node-crash path, where the
    /// outage window is scripted rather than derived from the per-queue
    /// re-init delay. Counts as one error CQE; a queue already in error
    /// has its re-init horizon *extended* to `reinit_at` if that is
    /// later (a crash on top of a transient error keeps the queue down
    /// for the crash's full duration).
    pub fn force_error(&mut self, now: SimTime, reinit_at: SimTime) {
        self.error_cqes += 1;
        self.state = QueueErrorState::Error;
        self.reinit_done = self.reinit_done.max(reinit_at).max(now);
    }

    /// Polls the machine: a queue in error whose re-init delay has elapsed
    /// returns to ready. Returns whether the queue can accept work at `now`.
    pub fn is_ready(&mut self, now: SimTime) -> bool {
        if self.state == QueueErrorState::Error && now >= self.reinit_done {
            self.state = QueueErrorState::Ready;
            self.reinits += 1;
        }
        self.state == QueueErrorState::Ready
    }

    /// Current state without advancing the re-init clock.
    pub fn state(&self) -> QueueErrorState {
        self.state
    }

    /// Error CQEs absorbed.
    pub fn error_cqes(&self) -> u64 {
        self.error_cqes
    }

    /// WQEs completed flushed-in-error (discarded without transmitting).
    pub fn flushed_in_error(&self) -> u64 {
        self.flushed_in_error
    }

    /// Completed error → ready recoveries.
    pub fn reinits(&self) -> u64 {
        self.reinits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_machine_flushes_then_reinits() {
        let mut m = QueueErrorMachine::new(SimDuration::from_micros(5));
        let t0 = SimTime::from_nanos(100);
        assert!(m.is_ready(t0));
        // Error CQE with 3 outstanding WQEs: all flushed in error.
        assert_eq!(m.on_error_cqe(t0, 3), 3);
        assert_eq!(m.state(), QueueErrorState::Error);
        assert_eq!(m.flushed_in_error(), 3);
        assert!(!m.is_ready(t0), "queue rejects work while in error");
        // A second error CQE during the flush is absorbed without
        // re-flushing or extending the recovery.
        assert_eq!(m.on_error_cqe(t0 + SimDuration::from_micros(1), 2), 0);
        assert_eq!(m.error_cqes(), 2);
        assert_eq!(m.flushed_in_error(), 3);
        // The queue recovers exactly at the re-init delay.
        let done = t0 + SimDuration::from_micros(5);
        assert!(!m.is_ready(done - SimDuration::from_picos(1)));
        assert!(m.is_ready(done));
        assert_eq!(m.state(), QueueErrorState::Ready);
        assert_eq!(m.reinits(), 1);
        // And can fail again.
        assert_eq!(m.on_error_cqe(SimTime::from_millis(1), 1), 1);
        assert_eq!(m.flushed_in_error(), 4);
    }
}
