//! Command line of the benchmark (see `README.md`).
//!
//! ```text
//! benchmark run   [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark trace [--workload NAME] [--seed N] [--out FILE]      (= run --trace 1)
//! benchmark compare A.json B.json
//! ```
//!
//! With `--workload` the last stdout line is the driver's JSON result
//! (`correct`, `attempted`, `failed`, `metrics`); without it every
//! workload runs and a full record is written.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use benchmark::compare::compare;
use benchmark::layers::{self, Metrics, LAYERS};
use benchmark::measure::{measure, scaled_sim, Measured};
use benchmark::record::{self, Json, END_TO_END};
use benchmark::spans::Spans;
use benchmark::workloads::Workload;
use fld_bench::perf::HostMeta;

const USAGE: &str =
    "usage: benchmark run   [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
       benchmark trace [--workload NAME] [--seed N] [--out FILE]
       benchmark compare A.json B.json
workloads: echo_64 echo_1500 rdma_1k defrag_vxlan rack_churn rack_chaos";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

impl Args {
    /// The one workload named on the command line, or all six.
    fn selected(&self) -> Vec<Workload> {
        self.workload.map_or(Workload::ALL.to_vec(), |w| vec![w])
    }
}

fn parse_args(mut argv: impl Iterator<Item = String>, trace: bool) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 7,
        seconds: 10.0,
        trace,
        out: None,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

/// The benchmark's own directory (`history.jsonl`, `out/`).
fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_end_to_end(m: &Measured) {
    println!(
        "{} — {:.2} simulated ms per rep, {} timed reps, sim_digest {:016x}{}",
        m.workload.name(),
        m.sim.as_secs_f64() * 1e3,
        m.host_ns_per_sim_pkt.n,
        m.sim_digest,
        if m.exact { ", exact" } else { ", NOT exact" }
    );
    for (def, v) in END_TO_END.iter().zip(record::end_to_end_values(m)) {
        let value = v.value.map_or("null".to_string(), |x| format!("{x:.6}"));
        let mut extra = String::new();
        if let Some(s) = v.summary {
            extra = format!(
                "  [n {} min {:.6} q1 {:.6} q3 {:.6} max {:.6}]",
                s.n, s.min, s.q1, s.q3, s.max
            );
        }
        if let Some(n) = v.samples {
            extra = format!("  [{n} samples]");
        }
        if def.name == "ref_err_pct" && v.value.is_none() {
            extra = "  [unvalidated: the paper has no rack]".into();
        }
        println!("  {:<24} {:>16} {:<9}{extra}", def.name, value, def.unit);
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        m.ops_attempted, m.ops_failed
    );
    for f in &m.failures {
        println!("  FAILED {f}");
    }
}

fn run_untraced(args: &Args) -> Result<bool, String> {
    let mut spans = Spans::new(false);
    let mut results = Vec::new();
    for w in args.selected() {
        let m = measure(w, args.seed, scaled_sim(w), args.seconds, &mut spans)?;
        print_end_to_end(&m);
        results.push(m);
    }
    let ok = results.iter().all(|m| m.ops_failed == 0);
    if args.workload.is_none() || args.out.is_some() {
        let host = HostMeta::detect();
        if let Some(path) = &args.out {
            write_file(
                path,
                &record::run_record(true, args.seed, args.seconds, &host, &results),
            )?;
            println!("wrote {}", path.display());
        }
        if args.workload.is_none() {
            // The trajectory: one line per full run.
            let line = record::run_record(false, args.seed, args.seconds, &host, &results);
            let path = bench_dir().join("history.jsonl");
            std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .and_then(|mut f| writeln!(f, "{line}"))
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!("appended to {}", path.display());
        }
    }
    if let (Some(_), [m]) = (args.workload, results.as_slice()) {
        let metrics: Vec<(String, f64, &str)> = END_TO_END
            .iter()
            .zip(record::end_to_end_values(m))
            .filter(|(def, _)| def.driver)
            .map(|(def, v)| {
                let value = v
                    .value
                    .expect("driver metrics are defined on every workload");
                (def.name.to_string(), value, def.unit)
            })
            .collect();
        println!(
            "{}",
            record::driver_line(ok, m.ops_attempted, m.ops_failed, &metrics)
        );
    }
    Ok(ok)
}

fn print_layers(w: Workload, m: &Metrics) {
    println!("{} — per-layer metrics", w.name());
    for (name, unit, _) in record::per_layer_defs() {
        match m.get(&name) {
            Some(v) => println!("  {name:<32} {v:>18.6} {unit}"),
            None => println!("  {name:<32} {:>18} {unit}", "MISSING"),
        }
    }
    let phases: f64 = m
        .iter()
        .filter(|(k, _)| k.starts_with("sim.phase_frac."))
        .map(|(_, v)| v)
        .sum();
    println!("  Σ sim.phase_frac.* = {phases:.4}");
    println!("  ns budget per simulated packet:");
    for layer in LAYERS {
        let ns = m
            .get(&format!("layer.budget_ns.{layer}"))
            .copied()
            .unwrap_or(0.0);
        println!("    {layer:<14} {ns:>10.1} ns");
    }
}

fn run_traced(args: &Args) -> Result<bool, String> {
    let mut spans = Spans::new(true);
    let common = layers::common(args.seed, &mut spans)?;
    let mut results = Vec::new();
    let mut attempted = 0;
    for w in args.selected() {
        let (m, outcome) =
            layers::trace_workload(w, args.seed, scaled_sim(w), &common, &mut spans)?;
        print_layers(w, &m);
        attempted += outcome.sim_pkts;
        results.push((w, m));
    }
    let defs = record::per_layer_defs();
    let complete = results.iter().all(|(_, m)| {
        defs.iter()
            .all(|(name, ..)| m.get(name).is_some_and(|v| v.is_finite()))
    });
    write_file(&bench_dir().join("out/trace.json"), &spans.to_json())?;
    if let Some(path) = &args.out {
        let host = HostMeta::detect();
        write_file(path, &record::trace_record(args.seed, &host, &results))?;
        println!("wrote {}", path.display());
    }
    if let ([(_, m)], Some(_)) = (results.as_slice(), args.workload) {
        let metrics: Vec<(String, f64, &str)> = defs
            .iter()
            .map(|(name, unit, _)| {
                (
                    name.clone(),
                    m.get(name).copied().unwrap_or(f64::NAN),
                    *unit,
                )
            })
            .collect();
        println!("{}", record::driver_line(complete, attempted, 0, &metrics));
    }
    Ok(complete)
}

fn run_compare(mut argv: impl Iterator<Item = String>) -> Result<bool, String> {
    let (Some(a), Some(b), None) = (argv.next(), argv.next(), argv.next()) else {
        return Err("compare takes exactly two record files".into());
    };
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("{p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (report, ok) = compare(&load(&a)?, &load(&b)?)?;
    print!("{report}");
    Ok(ok)
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let result = match argv.next().as_deref() {
        Some("run") => parse_args(argv, false).and_then(|a| {
            if a.trace {
                run_traced(&a)
            } else {
                run_untraced(&a)
            }
        }),
        Some("trace") => parse_args(argv, true).and_then(|a| run_traced(&a)),
        Some("compare") => run_compare(argv),
        Some("--help" | "-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
