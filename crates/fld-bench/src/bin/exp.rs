//! `exp <id> [flags]`, `exp all [flags]`, `exp list`: runs the
//! experiments of `fld_bench::experiments::REGISTRY`.
//!
//! Exit status: 0 done; 1 a gate, an audit or an artifact write failed
//! (a panic — `--strict-audit` panics at the violating instant — counts
//! as a failed gate); 2 usage.

use std::process::ExitCode;

/// Allocations go through the counting wrapper, so `--prof` runs
/// attribute heap churn per engine phase.
#[global_allocator]
static ALLOC: fld_sim::prof::CountingAlloc = fld_sim::prof::CountingAlloc;

fn main() -> ExitCode {
    let run = || fld_bench::experiments::main(std::env::args().skip(1));
    ExitCode::from(std::panic::catch_unwind(run).unwrap_or(1))
}
