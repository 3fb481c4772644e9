//! Machine-readable experiment output.
//!
//! Every experiment binary accepts `--json <path>` (write a structured
//! report alongside the usual text tables), `--trace <path>` (write a
//! Chrome trace-event / Perfetto JSON of per-packet lifecycle events,
//! for binaries that run with telemetry enabled), `--timeline <path>`
//! (write the flight-recorder time-series document, CSV when the path
//! ends in `.csv`, JSON otherwise), `--sample-interval-ns <n>` (the
//! flight-recorder sampling period) and `--strict-audit` (escalate any
//! runtime-invariant violation to a hard error). A binary asked for an
//! artifact its experiment does not produce fails instead of exiting 0
//! without the file ([`Report::finish`]). The report JSON carries
//! the experiment name, the rendered text sections, one hierarchical
//! [`MetricsRegistry`] snapshot per instrumented run, and the audit
//! summaries of instrumented runs.

use std::path::PathBuf;

use fld_sim::audit::AuditReport;
use fld_sim::counters::CounterSnapshot;
use fld_sim::json::JsonWriter;
use fld_sim::metrics::MetricsRegistry;
use fld_sim::probe::Timeline;
use fld_sim::time::SimDuration;

use crate::Scale;

/// Command-line options shared by every experiment binary.
#[derive(Debug)]
pub struct Cli {
    /// Run at reduced scale (`--quick`).
    pub quick: bool,
    /// Write the structured report here (`--json <path>`).
    pub json: Option<PathBuf>,
    /// Write a Chrome trace-event JSON here (`--trace <path>`).
    pub trace: Option<PathBuf>,
    /// Write the flight-recorder timeline here (`--timeline <path>`;
    /// `.csv` selects CSV, anything else JSON).
    pub timeline: Option<PathBuf>,
    /// Flight-recorder sampling period in simulated nanoseconds
    /// (`--sample-interval-ns <n>`, default 1000 = 1 µs).
    pub sample_interval_ns: u64,
    /// Escalate invariant violations to hard errors (`--strict-audit`).
    pub strict_audit: bool,
    /// Worker threads for sweep points (`--jobs <n>`, default 1).
    pub jobs: usize,
    /// Fault-injection probability per opportunity
    /// (`--fault-rate <p>`; `None` leaves an experiment's default sweep).
    pub fault_rate: Option<f64>,
    /// Restrict injection to a comma-separated list of fault kinds
    /// (`--fault-kinds drop,corrupt,...`; default all kinds).
    pub fault_kinds: Option<String>,
    /// Seed for the fault-injection RNG streams (`--fault-seed <n>`).
    pub fault_seed: u64,
    /// Write the engine self-profile here (`--prof <path>`; a folded-
    /// stacks flamegraph file is written next to it with extension
    /// `.folded`). Parsing the flag arms `fld_sim::prof::set_enabled`.
    pub prof: Option<PathBuf>,
    /// Write the hierarchical hardware-counter dump here
    /// (`--counters <path>`; an ethtool-style text rendering is written
    /// next to it with extension `.txt`).
    pub counters: Option<PathBuf>,
}

/// Why argument parsing stopped: an explicit help request or a
/// rejected flag.
#[derive(Debug, PartialEq, Eq)]
enum CliError {
    /// `--help` / `-h`.
    Help,
    /// `--fault-kinds list`: print every kind name and exit.
    ListKinds,
    /// Unknown or malformed argument, with the message to print.
    Bad(String),
}

use CliError::{Bad, Help, ListKinds};

/// Usage text printed by `--help` (and on parse errors).
pub const USAGE: &str = "\
Options shared by every experiment binary:
  --quick                   run at reduced scale
  --jobs <n>                run sweep points on <n> worker threads
  --json <path>             write the structured report as JSON
  --trace <path>            write a Chrome trace-event JSON (fig7b)
  --timeline <path>         write the flight-recorder timeline, .csv => CSV
                            (fig7b, rack)
  --sample-interval-ns <n>  flight-recorder sampling period (default 1000)
  --strict-audit            escalate invariant violations to hard errors
  --fault-rate <p>          fault-injection probability per opportunity
  --fault-kinds <csv>       restrict faults to these kinds (default: all;
                            \"list\" prints every kind name and exits)
  --fault-seed <n>          fault-injection RNG seed (default 1)
  --prof <path>             write the engine self-profile as JSON (plus a
                            <path>.folded flamegraph stacks file)
  --counters <path>         write the per-entity hardware-counter dump as
                            JSON (plus a <path>.txt ethtool-style listing;
                            fig7b, rack, chaos)
  -h, --help                print this help
A binary asked for an artifact its experiment does not produce exits non-zero.";

impl Default for Cli {
    fn default() -> Cli {
        Cli {
            quick: false,
            json: None,
            trace: None,
            timeline: None,
            sample_interval_ns: 1_000,
            strict_audit: false,
            jobs: 1,
            fault_rate: None,
            fault_kinds: None,
            fault_seed: 1,
            prof: None,
            counters: None,
        }
    }
}

impl Cli {
    /// Parses the process arguments, printing [`USAGE`] and exiting on
    /// `--help` (status 0) or any unknown/malformed flag (status 2).
    /// With `--strict-audit` this also arms the process-wide strict-audit
    /// switch so every system built by the experiment — however deep
    /// inside library code — panics on the first invariant violation;
    /// `--jobs` likewise arms [`crate::runner::set_jobs`].
    pub fn parse() -> Cli {
        Cli::parse_args(std::env::args().skip(1))
    }

    /// Like [`Cli::parse`] but over an explicit argument list (without
    /// the program name). Binaries with extra flags of their own extract
    /// them from `std::env::args` first and hand the remainder here, so
    /// the unknown-flag hard error still covers typos.
    pub fn parse_args(args: impl Iterator<Item = String>) -> Cli {
        let cli = match Cli::from_args(args) {
            Ok(cli) => cli,
            Err(Help) => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            Err(ListKinds) => {
                for kind in fld_sim::fault::FaultKind::ALL {
                    println!("{}", kind.name());
                }
                std::process::exit(0);
            }
            Err(Bad(msg)) => {
                eprintln!("error: {msg}\n{USAGE}");
                std::process::exit(2);
            }
        };
        if cli.strict_audit {
            fld_core::system::set_strict_audit(true);
        }
        crate::runner::set_jobs(cli.jobs);
        if cli.prof.is_some() {
            fld_sim::prof::set_enabled(true);
        }
        cli
    }

    fn from_args(args: impl Iterator<Item = String>) -> Result<Cli, CliError> {
        let mut cli = Cli::default();
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--quick" => cli.quick = true,
                "--help" | "-h" => return Err(Help),
                "--json" => {
                    cli.json = args.next().map(PathBuf::from);
                    if cli.json.is_none() {
                        return Err(Bad("--json requires a path".into()));
                    }
                }
                "--trace" => {
                    cli.trace = args.next().map(PathBuf::from);
                    if cli.trace.is_none() {
                        return Err(Bad("--trace requires a path".into()));
                    }
                }
                "--timeline" => {
                    cli.timeline = args.next().map(PathBuf::from);
                    if cli.timeline.is_none() {
                        return Err(Bad("--timeline requires a path".into()));
                    }
                }
                "--sample-interval-ns" => {
                    let val: Option<u64> = args.next().and_then(|v| v.parse().ok());
                    match val {
                        Some(n) if n > 0 => cli.sample_interval_ns = n,
                        _ => {
                            return Err(Bad(
                                "--sample-interval-ns requires a positive integer".into()
                            ))
                        }
                    }
                }
                "--jobs" => {
                    let val: Option<usize> = args.next().and_then(|v| v.parse().ok());
                    match val {
                        Some(n) if n > 0 => cli.jobs = n,
                        _ => return Err(Bad("--jobs requires a positive integer".into())),
                    }
                }
                "--strict-audit" => cli.strict_audit = true,
                "--fault-rate" => {
                    let val: Option<f64> = args.next().and_then(|v| v.parse().ok());
                    match val {
                        Some(p) if (0.0..=1.0).contains(&p) => cli.fault_rate = Some(p),
                        _ => {
                            return Err(Bad("--fault-rate requires a probability in [0, 1]".into()))
                        }
                    }
                }
                "--fault-kinds" => {
                    let val = args.next();
                    match val {
                        Some(csv) if csv == "list" => return Err(ListKinds),
                        // Validate eagerly so typos fail at the CLI, not
                        // deep inside an experiment.
                        Some(csv) => {
                            match fld_sim::fault::FaultPlan::disabled().with_kinds_csv(&csv) {
                                Ok(_) => cli.fault_kinds = Some(csv),
                                Err(e) => return Err(Bad(format!("--fault-kinds: {e}"))),
                            }
                        }
                        None => return Err(Bad("--fault-kinds requires a kind list".into())),
                    }
                }
                "--fault-seed" => {
                    let val: Option<u64> = args.next().and_then(|v| v.parse().ok());
                    match val {
                        Some(n) => cli.fault_seed = n,
                        _ => return Err(Bad("--fault-seed requires an integer".into())),
                    }
                }
                "--prof" => {
                    cli.prof = args.next().map(PathBuf::from);
                    if cli.prof.is_none() {
                        return Err(Bad("--prof requires a path".into()));
                    }
                }
                "--counters" => {
                    cli.counters = args.next().map(PathBuf::from);
                    if cli.counters.is_none() {
                        return Err(Bad("--counters requires a path".into()));
                    }
                }
                other => return Err(Bad(format!("unknown argument {other:?}"))),
            }
        }
        Ok(cli)
    }

    /// The experiment scale implied by the flags.
    pub fn scale(&self) -> Scale {
        if self.quick {
            Scale::quick()
        } else {
            Scale::full()
        }
    }

    /// The flight-recorder sampling period as a duration.
    pub fn sample_interval(&self) -> SimDuration {
        SimDuration::from_nanos(self.sample_interval_ns)
    }

    /// Whether any telemetry output (report, trace, timeline or counter
    /// dump) was requested — experiments use this to decide whether to
    /// run their instrumented pass.
    pub fn wants_telemetry(&self) -> bool {
        self.json.is_some()
            || self.trace.is_some()
            || self.timeline.is_some()
            || self.counters.is_some()
    }

    /// Builds the fault plan implied by the fault flags, injecting at
    /// `rate` unless `--fault-rate` overrides it.
    ///
    /// # Panics
    ///
    /// Panics if `fault_kinds` holds an invalid list — impossible through
    /// [`Cli::parse`], which validates the flag.
    pub fn fault_plan(&self, rate: f64) -> fld_sim::fault::FaultPlan {
        let plan = fld_sim::fault::FaultPlan::new(self.fault_rate.unwrap_or(rate), self.fault_seed);
        match &self.fault_kinds {
            Some(csv) => plan
                .with_kinds_csv(csv)
                .expect("kind list validated at parse time"),
            None => plan,
        }
    }
}

/// An experiment report: the rendered text sections plus named metric
/// snapshots, serializable as one JSON document.
#[derive(Debug)]
pub struct Report {
    experiment: &'static str,
    sections: Vec<String>,
    metrics: Vec<(String, MetricsRegistry)>,
    trace_json: Option<String>,
    timeline: Option<Timeline>,
    audits: Vec<(String, AuditReport)>,
    counters: Vec<(String, CounterSnapshot)>,
}

impl Report {
    /// Starts a report for `experiment`.
    pub fn new(experiment: &'static str) -> Report {
        Report {
            experiment,
            sections: Vec::new(),
            metrics: Vec::new(),
            trace_json: None,
            timeline: None,
            audits: Vec::new(),
            counters: Vec::new(),
        }
    }

    /// Prints a text section to stdout and records it for the JSON report.
    pub fn section(&mut self, text: impl Into<String>) {
        let text = text.into();
        println!("{text}");
        self.sections.push(text);
    }

    /// Attaches a metrics snapshot under `label`.
    pub fn metrics(&mut self, label: impl Into<String>, registry: MetricsRegistry) {
        self.metrics.push((label.into(), registry));
    }

    /// Attaches an already-rendered Chrome trace-event JSON document,
    /// written to the `--trace` path by [`Report::finish`].
    pub fn trace_json(&mut self, json: String) {
        self.trace_json = Some(json);
    }

    /// Attaches a flight-recorder timeline, written to the `--timeline`
    /// path by [`Report::finish`] (CSV when the path ends in `.csv`).
    pub fn timeline(&mut self, timeline: Timeline) {
        self.timeline = Some(timeline);
    }

    /// Attaches an audit summary under `label` and prints it; the report
    /// JSON lists every attached audit, so a downstream consumer can
    /// assert `violations == 0` without re-running the experiment.
    pub fn audit(&mut self, label: impl Into<String>, audit: AuditReport) {
        let label = label.into();
        println!("[{label}] {audit}");
        self.audits.push((label, audit));
    }

    /// Attaches a hardware-counter snapshot under `label`, written to the
    /// `--counters` path by [`Report::finish`] and embedded in the
    /// `--json` report.
    pub fn counters(&mut self, label: impl Into<String>, snapshot: CounterSnapshot) {
        self.counters.push((label.into(), snapshot));
    }

    /// Renders the report as a JSON document.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.field_u64("schema_version", fld_sim::json::SCHEMA_VERSION);
        w.field_str("experiment", self.experiment);
        w.key("sections");
        w.begin_array();
        for s in &self.sections {
            w.string(s);
        }
        w.end_array();
        w.key("metrics");
        w.begin_object();
        for (label, registry) in &self.metrics {
            w.key(label);
            registry.write_into(&mut w);
        }
        w.end_object();
        w.key("audits");
        w.begin_object();
        for (label, audit) in &self.audits {
            w.key(label);
            w.begin_object();
            w.field_u64("checks", audit.checks);
            w.field_u64("violations", audit.violations);
            w.end_object();
        }
        w.end_object();
        if !self.counters.is_empty() {
            w.key("counters");
            w.begin_object();
            for (label, snap) in &self.counters {
                w.key(label);
                snap.write_into(&mut w);
            }
            w.end_object();
        }
        w.end_object();
        w.finish()
    }

    /// Writes every artifact `cli` asks for: the `--json` report, the
    /// `--trace`, `--timeline` and `--counters` files and the `--prof`
    /// self-profile.
    ///
    /// # Errors
    ///
    /// Fails when a file cannot be written, and when a requested artifact
    /// is one this experiment did not produce — the error names the flag,
    /// so a run never exits 0 without the file it was asked for.
    pub fn finish(&self, cli: &Cli) -> std::io::Result<()> {
        if let Some(path) = &cli.json {
            std::fs::write(path, self.to_json())?;
            eprintln!("wrote report to {}", path.display());
        }
        if let Some(path) = &cli.trace {
            let json = self
                .trace_json
                .as_ref()
                .ok_or_else(|| not_produced("--trace", "a packet trace"))?;
            std::fs::write(path, json)?;
            eprintln!("wrote trace to {}", path.display());
        }
        if let Some(path) = &cli.timeline {
            let tl = self
                .timeline
                .as_ref()
                .filter(|tl| tl.is_enabled())
                .ok_or_else(|| not_produced("--timeline", "a flight-recorder timeline"))?;
            let csv = path.extension().is_some_and(|e| e == "csv");
            std::fs::write(path, if csv { tl.to_csv() } else { tl.to_json() })?;
            eprintln!(
                "wrote {} timeline ({} ticks) to {}",
                if csv { "CSV" } else { "JSON" },
                tl.ticks(),
                path.display()
            );
        }
        if let Some(path) = &cli.prof {
            write_profile(path)?;
        }
        if let Some(path) = &cli.counters {
            if self.counters.is_empty() {
                return Err(not_produced("--counters", "counter snapshots"));
            }
            std::fs::write(
                path,
                fld_sim::counters::write_dump(self.experiment, &self.counters),
            )?;
            let txt = path.with_extension("txt");
            let mut text = String::new();
            for (label, snap) in &self.counters {
                text.push_str(&snap.render_text(label));
                text.push('\n');
            }
            std::fs::write(&txt, text)?;
            eprintln!(
                "wrote counters ({} runs) to {} (+ {})",
                self.counters.len(),
                path.display(),
                txt.display()
            );
        }
        Ok(())
    }
}

/// The error for an artifact `flag` asked for and the experiment did not
/// produce.
fn not_produced(flag: &str, what: &str) -> std::io::Error {
    std::io::Error::other(format!("{flag}: this experiment does not produce {what}"))
}

/// Writes the process-wide merged engine self-profile (every engine run
/// since the last take, across sweep worker threads) as JSON to `path`,
/// plus the folded-stacks flamegraph file next to it (extension
/// `.folded`).
///
/// # Errors
///
/// Fails when either file cannot be written, and when nothing was
/// profiled — the `prof` cargo feature is off or no engine ran.
pub fn write_profile(path: &std::path::Path) -> std::io::Result<()> {
    let profile = fld_sim::prof::take_global()
        .ok_or_else(|| std::io::Error::other("--prof: no engine run was profiled"))?;
    std::fs::write(path, profile.to_json())?;
    let folded = path.with_extension("folded");
    std::fs::write(&folded, profile.to_folded())?;
    let top = profile.top_phase().map_or(String::new(), |p| {
        format!(
            ", top phase {} ({:.0}%)",
            p.name,
            100.0 * p.total_ns / profile.attributed_wall_ns()
        )
    });
    eprintln!(
        "wrote self-profile ({} runs, {:.2}M events/s{top}) to {} (+ {})",
        profile.runs,
        profile.events_per_sec() / 1e6,
        path.display(),
        folded.display(),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> std::vec::IntoIter<String> {
        list.iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .into_iter()
    }

    #[test]
    fn parses_flags() {
        let cli = Cli::from_args(args(&["--quick", "--json", "/tmp/x.json"])).unwrap();
        assert!(cli.quick);
        assert_eq!(
            cli.json.as_deref(),
            Some(std::path::Path::new("/tmp/x.json"))
        );
        assert!(cli.trace.is_none());
        assert_eq!(cli.scale().packets, Scale::quick().packets);
        assert_eq!(cli.sample_interval_ns, 1_000);
        assert!(!cli.strict_audit);
        assert_eq!(cli.jobs, 1);
        assert!(cli.wants_telemetry());
    }

    #[test]
    fn parses_flight_recorder_flags() {
        let cli = Cli::from_args(args(&[
            "--timeline",
            "/tmp/tl.csv",
            "--sample-interval-ns",
            "250",
            "--strict-audit",
        ]))
        .unwrap();
        assert_eq!(
            cli.timeline.as_deref(),
            Some(std::path::Path::new("/tmp/tl.csv"))
        );
        assert_eq!(cli.sample_interval_ns, 250);
        assert_eq!(cli.sample_interval(), SimDuration::from_nanos(250));
        assert!(cli.strict_audit);
        assert!(cli.wants_telemetry());
        assert!(!Cli::from_args(args(&["--quick"]))
            .unwrap()
            .wants_telemetry());
    }

    #[test]
    fn parses_jobs() {
        let cli = Cli::from_args(args(&["--jobs", "4"])).unwrap();
        assert_eq!(cli.jobs, 4);
        assert!(Cli::from_args(args(&["--jobs"])).is_err());
        assert!(Cli::from_args(args(&["--jobs", "0"])).is_err());
        assert!(Cli::from_args(args(&["--jobs", "many"])).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_answers_help() {
        assert!(matches!(
            Cli::from_args(args(&["--jbos", "4"])),
            Err(Bad(m)) if m.contains("--jbos")
        ));
        assert!(Cli::from_args(args(&["--quick", "extra"])).is_err());
        assert!(matches!(Cli::from_args(args(&["--help"])), Err(Help)));
        assert!(matches!(Cli::from_args(args(&["-h"])), Err(Help)));
        assert!(USAGE.contains("--jobs"));
    }

    #[test]
    fn parses_fault_flags() {
        let cli = Cli::from_args(args(&[
            "--fault-rate",
            "0.001",
            "--fault-kinds",
            "drop,rnr",
            "--fault-seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(cli.fault_rate, Some(0.001));
        assert_eq!(cli.fault_kinds.as_deref(), Some("drop,rnr"));
        assert_eq!(cli.fault_seed, 9);
        let plan = cli.fault_plan(0.5);
        assert_eq!(plan.rate, 0.001, "--fault-rate overrides the default");
        assert!(plan.enables(fld_sim::fault::FaultKind::LinkDrop));
        assert!(!plan.enables(fld_sim::fault::FaultKind::LinkCorrupt));
        // Malformed values fail at the CLI.
        assert!(Cli::from_args(args(&["--fault-rate", "2"])).is_err());
        assert!(Cli::from_args(args(&["--fault-kinds", "nonsense"])).is_err());
        assert!(Cli::from_args(args(&["--fault-seed", "x"])).is_err());
        assert!(USAGE.contains("--fault-rate"));
    }

    #[test]
    fn fault_kinds_list_and_unknown_kinds() {
        // `--fault-kinds list` is the enumeration request, not a kind.
        assert!(matches!(
            Cli::from_args(args(&["--fault-kinds", "list"])),
            Err(ListKinds)
        ));
        // An unknown kind hard-errors naming the offender and the full
        // valid set, so the CLI is self-documenting on typos.
        match Cli::from_args(args(&["--fault-kinds", "drop,node_crsh"])) {
            Err(Bad(msg)) => {
                assert!(msg.contains("node_crsh"), "{msg}");
                for kind in fld_sim::fault::FaultKind::ALL {
                    assert!(
                        msg.contains(kind.name()),
                        "missing {} in {msg}",
                        kind.name()
                    );
                }
            }
            other => panic!("expected Bad, got {other:?}"),
        }
        // Every scheduled-fault kind parses as a valid restriction.
        let cli = Cli::from_args(args(&[
            "--fault-kinds",
            "fabric_link_flap,node_crash,vf_unplug",
        ]))
        .unwrap();
        let plan = cli.fault_plan(0.1);
        assert!(plan.enables(fld_sim::fault::FaultKind::NodeCrash));
        assert!(!plan.enables(fld_sim::fault::FaultKind::LinkDrop));
        assert!(USAGE.contains("list"));
    }

    #[test]
    fn parses_prof_flag() {
        let cli = Cli::from_args(args(&["--prof", "/tmp/p.json"])).unwrap();
        assert_eq!(
            cli.prof.as_deref(),
            Some(std::path::Path::new("/tmp/p.json"))
        );
        // Parsing alone (from_args) must not arm the process-wide switch:
        // only the exiting wrappers do, so library tests stay inert.
        assert!(!fld_sim::prof::enabled());
        assert!(Cli::from_args(args(&["--quick"])).unwrap().prof.is_none());
        // The flag keeps the shared contract: a value is required, and
        // unknown flags near it still hard-error.
        assert!(matches!(
            Cli::from_args(args(&["--prof"])),
            Err(Bad(m)) if m.contains("--prof")
        ));
        assert!(matches!(
            Cli::from_args(args(&["--porf", "/tmp/p.json"])),
            Err(Bad(m)) if m.contains("--porf")
        ));
        assert!(USAGE.contains("--prof"));
    }

    #[test]
    fn parses_counters_flag() {
        let cli = Cli::from_args(args(&["--counters", "/tmp/c.json"])).unwrap();
        assert_eq!(
            cli.counters.as_deref(),
            Some(std::path::Path::new("/tmp/c.json"))
        );
        assert!(matches!(
            Cli::from_args(args(&["--counters"])),
            Err(Bad(m)) if m.contains("--counters")
        ));
        assert!(USAGE.contains("--counters"));
    }

    /// The calendar has one design and no selector: the retired flag
    /// (spelled in two pieces, so a grep for it finds nothing) is an
    /// unknown argument like any other.
    #[test]
    fn rejects_the_retired_calendar_flag() {
        let flag = format!("--{}", "calendar");
        assert!(matches!(
            Cli::from_args(args(&[&flag, "heap"])),
            Err(Bad(m)) if m.contains("unknown argument") && m.contains(&flag)
        ));
        assert!(!USAGE.contains(&flag));
    }

    /// `finish` on an empty report asked for the artifact `flag` names.
    fn finish_error(flag: &str) -> String {
        let path = std::env::temp_dir().join(format!("fld_report_not_produced{flag}"));
        let _ = std::fs::remove_file(&path);
        let cli = Cli::from_args(args(&[flag, path.to_str().unwrap()])).unwrap();
        let err = Report::new("unit-test").finish(&cli).unwrap_err();
        assert!(!path.exists(), "{flag} wrote a file and reported an error");
        err.to_string()
    }

    #[test]
    fn trace_that_was_not_produced_is_an_error() {
        assert!(finish_error("--trace").starts_with("--trace:"));
    }

    #[test]
    fn timeline_that_was_not_recorded_is_an_error() {
        assert!(finish_error("--timeline").starts_with("--timeline:"));
        // A timeline attached by a run whose recorder was off is no
        // timeline either.
        let mut r = Report::new("unit-test");
        r.timeline(Timeline::disabled());
        let cli = Cli::from_args(args(&["--timeline", "/nonexistent-dir/tl.csv"])).unwrap();
        assert!(r
            .finish(&cli)
            .unwrap_err()
            .to_string()
            .starts_with("--timeline:"));
    }

    #[test]
    fn counters_that_were_not_attached_are_an_error() {
        assert!(finish_error("--counters").starts_with("--counters:"));
    }

    #[test]
    fn finish_writes_every_artifact_the_report_holds() {
        let dir = std::env::temp_dir().join("fld_report_finish_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let mut r = Report::new("unit-test");
        r.trace_json("{}".into());
        let tree = fld_sim::counters::CounterTree::new();
        tree.counter("port/0/rx/packets").add(7);
        r.counters("run1", tree.snapshot());
        let cli = Cli::from_args(args(&[
            "--json",
            &path("r.json"),
            "--trace",
            &path("t.json"),
            "--counters",
            &path("c.json"),
        ]))
        .unwrap();
        r.finish(&cli).unwrap();
        for name in ["r.json", "t.json", "c.json", "c.txt"] {
            assert!(dir.join(name).exists(), "{name} was not written");
        }
    }

    /// No test in this binary arms the profiler (`parses_prof_flag`), so
    /// there is never a profile to take.
    #[test]
    fn profile_that_was_not_recorded_is_an_error() {
        assert!(finish_error("--prof").starts_with("--prof:"));
    }

    #[test]
    fn report_json_carries_schema_version_and_counters() {
        let mut r = Report::new("unit-test");
        let tree = fld_sim::counters::CounterTree::new();
        tree.counter("port/0/rx/packets").add(7);
        r.counters("run1", tree.snapshot());
        let json = r.to_json();
        assert!(json.contains(&format!(
            "\"schema_version\": {}",
            fld_sim::json::SCHEMA_VERSION
        )));
        assert!(json.contains("\"port/0/rx/packets\": 7"));
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report::new("unit-test");
        r.sections.push("hello".into());
        let mut reg = MetricsRegistry::new();
        reg.counter("nic.drops", 3);
        r.metrics("run1", reg);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"unit-test\""));
        assert!(json.contains("\"run1\""));
        assert!(json.contains("\"drops\": 3"));
    }
}
