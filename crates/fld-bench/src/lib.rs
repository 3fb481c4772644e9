//! # fld-bench — the FlexDriver experiment harness
//!
//! One registry entry per table and figure of the paper's evaluation
//! ([`experiments::REGISTRY`]; `DESIGN.md` § 4 is the index), exposed
//! both as library functions (so integration tests can run them at
//! reduced scale) and through one binary
//! (`cargo run -p fld-bench --bin exp -- <id>`).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod counters;
pub mod experiments;
pub mod fmt;
pub mod harness;
pub mod loc;
pub mod perf;
pub mod report;
pub mod runner;

use fld_sim::time::SimTime;

/// How long simulation-backed experiments run.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Packets/bursts/messages the generator may emit.
    pub packets: u64,
    /// Measurement warm-up in milliseconds of simulated time.
    pub warmup_ms: u64,
    /// Simulated deadline in milliseconds.
    pub deadline_ms: u64,
}

impl Scale {
    /// Full scale for published numbers.
    pub fn full() -> Scale {
        Scale {
            packets: 2_000_000,
            warmup_ms: 10,
            deadline_ms: 200,
        }
    }

    /// Reduced scale for tests.
    pub fn quick() -> Scale {
        Scale {
            packets: 120_000,
            warmup_ms: 2,
            deadline_ms: 40,
        }
    }

    /// Measurement warm-up instant.
    pub fn warmup(&self) -> SimTime {
        SimTime::from_millis(self.warmup_ms)
    }

    /// Simulation deadline.
    pub fn deadline(&self) -> SimTime {
        SimTime::from_millis(self.deadline_ms)
    }

    /// Packet budget large enough that an open-loop generator at
    /// `offered_pps` does not run dry before the deadline (avoids
    /// under-measuring fast configurations).
    pub fn sized_packets(&self, offered_pps: f64) -> u64 {
        let need = (offered_pps * self.deadline().as_secs_f64() * 1.05) as u64;
        need.max(self.packets)
    }
}

/// Resolves the repository root from the crate's manifest directory.
pub fn repo_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .canonicalize()
        .unwrap_or_else(|_| std::path::PathBuf::from("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_are_ordered() {
        assert!(Scale::full().packets > Scale::quick().packets);
        assert!(Scale::quick().warmup() < Scale::quick().deadline());
    }

    #[test]
    fn repo_root_contains_workspace() {
        assert!(repo_root().join("Cargo.toml").exists());
    }
}
