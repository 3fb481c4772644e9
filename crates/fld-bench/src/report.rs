//! The `exp` command line and machine-readable experiment output.
//!
//! Every experiment takes `--quick`, `--jobs <n>`, `--json <path>` (write
//! a structured report alongside the usual text tables) and
//! `--strict-audit` (escalate any runtime-invariant violation to a hard
//! error). The other flags — the artifact paths `--trace`, `--timeline`,
//! `--counters` and `--prof`, `--sample-interval-ns`, the fault flags and
//! the `rack` / `chaos` value flags — are each declared by the registry
//! entries that act on them ([`Experiment::flags`]), and
//! [`Cli::parse_for`] rejects one an entry does not declare before
//! anything runs. Experiments do not read the universal flags: the
//! [`crate::harness::Harness`] built from the parsed `Cli` applies them to
//! every run. The report JSON carries the experiment name, the rendered
//! text sections, and, for each run an experiment attaches
//! ([`Report::attach`]), one hierarchical [`MetricsRegistry`] snapshot and
//! its audit summary. The harness checks the audit of every run, attached
//! or not.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use fld_sim::audit::AuditReport;
use fld_sim::counters::CounterSnapshot;
use fld_sim::json::JsonWriter;
use fld_sim::metrics::MetricsRegistry;
use fld_sim::probe::Timeline;

use crate::experiments::{Experiment, ALL, REGISTRY};

/// The flags every experiment takes, as the help prints them.
const UNIVERSAL: &str = "  --quick                   run at reduced scale
  --jobs <n>                run sweep points on <n> worker threads
  --json <path>             write the structured report as JSON
  --strict-audit            escalate invariant violations to hard errors
  -h, --help                print this help";

/// The flags an experiment takes only if its registry entry names them
/// ([`Experiment::flags`]), as the help prints them.
const DECLARED: &str = "  --trace <path>            write a Chrome trace-event JSON
  --timeline <path>         write the flight-recorder timeline, .csv => CSV
  --counters <path>         write the hardware-counter dump as JSON + <path>.txt
  --prof <path>             write the engine self-profile as JSON + <path>.folded
  --sample-interval-ns <n>  flight-recorder sampling period (default 1000)
  --fault-rate <p>          fault-injection probability per opportunity
  --fault-kinds <csv>       restrict faults to these kinds (\"list\" prints them)
  --fault-seed <n>          fault-injection RNG seed (default 1)
  --nodes <n>               FLD server nodes (default 4)
  --tenants <n>             tenants, one VF per node each (default 9)
  --churn <rate>            flow arrivals/s, 0 disables churn (default 20000)
  --topology <which>        single | rack | all: which legs run (default all)";

/// The flag a help line describes.
fn name(line: &str) -> &str {
    line.split_whitespace().next().unwrap_or(line)
}

/// The options of one `exp` invocation.
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
    /// `.folded`). `exp` arms `fld_sim::prof` on its main thread when
    /// this is set; sweeps arm their workers from there.
    pub prof: Option<PathBuf>,
    /// Write the hierarchical hardware-counter dump here
    /// (`--counters <path>`; an ethtool-style text rendering is written
    /// next to it with extension `.txt`).
    pub counters: Option<PathBuf>,
    /// `rack`: FLD server nodes (`--nodes <n>`, default 4).
    pub nodes: u16,
    /// `rack`: tenants, one VF per node each (`--tenants <n>`, default 9).
    pub tenants: u16,
    /// `rack`: flow arrivals/s, 0 disables churn (`--churn <rate>`,
    /// default 20000).
    pub churn: f64,
    /// `chaos`: which legs run (`--topology single|rack|all`, default all).
    pub topology: String,
}

/// Why argument parsing stopped: an explicit help request or a
/// rejected flag.
#[derive(Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h`.
    Help,
    /// `--fault-kinds list`: print every kind name and exit.
    ListKinds,
    /// Unknown, undeclared or malformed argument, with the message to
    /// print.
    Bad(String),
}

use CliError::{Bad, Help, ListKinds};

/// The help text: the universal flags, then each declared flag with the
/// experiments that take it.
pub fn usage() -> String {
    let mut out = format!(
        "usage: exp <id> [flags] | exp all [flags] | exp list\n\n\
         Every experiment takes:\n{UNIVERSAL}\n\
         Only the experiments named take (elsewhere: usage error, exit 2):\n"
    );
    for line in DECLARED.lines() {
        let takers: Vec<&str> = std::iter::once(&ALL)
            .chain(REGISTRY)
            .filter(|e| e.flags.contains(&name(line)))
            .map(|e| e.id)
            .collect();
        let _ = writeln!(out, "{line}\n{:28}({})", "", takers.join(", "));
    }
    out + "`exp list` prints the experiments; `exp all` runs those of the paper."
}

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
            nodes: 4,
            tenants: 9,
            churn: 20_000.0,
            topology: "all".into(),
        }
    }
}

/// The value after `flag`: a path.
fn path(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<Option<PathBuf>, CliError> {
    match args.next() {
        Some(p) => Ok(Some(PathBuf::from(p))),
        None => Err(Bad(format!("{flag} requires a path"))),
    }
}

/// The value after `flag`: a `T` that `accept` admits, or the error
/// "`flag` requires `what`".
fn value<T: FromStr>(
    args: &mut impl Iterator<Item = String>,
    flag: &str,
    what: &str,
    accept: impl Fn(&T) -> bool,
) -> Result<T, CliError> {
    args.next()
        .and_then(|v| v.parse().ok())
        .filter(accept)
        .ok_or_else(|| Bad(format!("{flag} requires {what}")))
}

impl Cli {
    /// Parses the arguments after `exp <id>` for `entry`. A flag `entry`
    /// does not declare is an error that names the experiment and lists
    /// what it takes, so nothing runs with an option it would ignore.
    pub fn parse_for(
        entry: &Experiment,
        mut args: impl Iterator<Item = String>,
    ) -> Result<Cli, CliError> {
        const POSITIVE: &str = "a positive integer";
        let mut cli = Cli::default();
        let args = &mut args;
        while let Some(arg) = args.next() {
            let arg = arg.as_str();
            let declared = DECLARED.lines().any(|line| name(line) == arg);
            if declared && !entry.flags.contains(&arg) {
                let universal = UNIVERSAL.lines().map(name).filter(|f| f.starts_with("--"));
                let takes: Vec<&str> = universal.chain(entry.flags.iter().copied()).collect();
                let takes = takes.join(" ");
                return Err(Bad(format!(
                    "{} does not take {arg}; it takes: {takes}",
                    entry.id
                )));
            }
            match arg {
                "--quick" => cli.quick = true,
                "--help" | "-h" => return Err(Help),
                "--strict-audit" => cli.strict_audit = true,
                "--json" => cli.json = path(args, arg)?,
                "--trace" => cli.trace = path(args, arg)?,
                "--timeline" => cli.timeline = path(args, arg)?,
                "--counters" => cli.counters = path(args, arg)?,
                "--prof" => cli.prof = path(args, arg)?,
                "--jobs" => cli.jobs = value(args, arg, POSITIVE, |&n| n > 0)?,
                "--sample-interval-ns" => {
                    cli.sample_interval_ns = value(args, arg, POSITIVE, |&n| n > 0)?;
                }
                "--nodes" => cli.nodes = value(args, arg, POSITIVE, |&n| n > 0)?,
                "--tenants" => cli.tenants = value(args, arg, POSITIVE, |&n| n > 0)?,
                "--churn" => {
                    let rate = |r: &f64| r.is_finite() && *r >= 0.0;
                    cli.churn = value(args, arg, "a non-negative rate", rate)?;
                }
                "--fault-rate" => {
                    let unit = |p: &f64| (0.0..=1.0).contains(p);
                    cli.fault_rate = Some(value(args, arg, "a probability in [0, 1]", unit)?);
                }
                "--fault-seed" => cli.fault_seed = value(args, arg, "an integer", |_| true)?,
                "--fault-kinds" => match args.next() {
                    Some(csv) if csv == "list" => return Err(ListKinds),
                    // Validate eagerly so typos fail at the CLI, not deep
                    // inside an experiment.
                    Some(csv) => match fld_sim::fault::FaultPlan::disabled().with_kinds_csv(&csv) {
                        Ok(_) => cli.fault_kinds = Some(csv),
                        Err(e) => return Err(Bad(format!("--fault-kinds: {e}"))),
                    },
                    None => return Err(Bad("--fault-kinds requires a kind list".into())),
                },
                "--topology" => match args.next() {
                    Some(t) if matches!(t.as_str(), "single" | "rack" | "all") => cli.topology = t,
                    _ => return Err(Bad("--topology requires single, rack or all".into())),
                },
                other => return Err(Bad(format!("unknown argument {other:?}"))),
            }
        }
        Ok(cli)
    }

    /// The fault plan injecting at `rate` with the seed and the kinds
    /// the fault flags name (`--fault-rate` picks the sweep's rates, not
    /// a point's plan).
    ///
    /// # Panics
    ///
    /// Panics if `fault_kinds` holds an invalid list — impossible through
    /// [`Cli::parse_for`], which validates the flag.
    pub fn fault_plan(&self, rate: f64) -> fld_sim::fault::FaultPlan {
        let plan = fld_sim::fault::FaultPlan::new(rate, self.fault_seed);
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
    /// Whether sections and audits are printed as they are attached.
    echo: bool,
    sections: Vec<String>,
    metrics: Vec<(String, MetricsRegistry)>,
    trace_json: Option<String>,
    timeline: Option<Timeline>,
    audits: Vec<(String, AuditReport)>,
    counters: Vec<(String, CounterSnapshot)>,
}

impl Report {
    /// Starts a report for `experiment` that prints to stdout as it goes.
    pub fn new(experiment: &'static str) -> Report {
        Report {
            echo: true,
            ..Report::quiet(experiment)
        }
    }

    /// Starts a report for `experiment` that only collects.
    pub fn quiet(experiment: &'static str) -> Report {
        Report {
            experiment,
            echo: false,
            sections: Vec::new(),
            metrics: Vec::new(),
            trace_json: None,
            timeline: None,
            audits: Vec::new(),
            counters: Vec::new(),
        }
    }

    fn say(&self, line: std::fmt::Arguments) {
        if self.echo {
            println!("{line}");
        }
    }

    /// Prints a text section to stdout and records it for the JSON report.
    pub fn section(&mut self, text: impl Into<String>) {
        let text = text.into();
        self.say(format_args!("{text}"));
        self.sections.push(text);
    }

    /// Prints a rule between sections (stdout only; not recorded).
    pub fn rule(&self) {
        self.say(format_args!("{}", "=".repeat(72)));
    }

    /// The text sections, in order.
    pub fn into_sections(self) -> Vec<String> {
        self.sections
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

    /// Attaches one run under `label`: its audit, printed and listed in
    /// the report JSON (so a downstream consumer can assert
    /// `violations == 0` without re-running the experiment), its metrics,
    /// and each of its counter snapshots under `label` followed by the
    /// snapshot's suffix — written to the `--counters` path by
    /// [`Report::finish`] and embedded in the `--json` report.
    pub fn attach(
        &mut self,
        label: &str,
        audit: AuditReport,
        metrics: MetricsRegistry,
        counters: impl IntoIterator<Item = (String, CounterSnapshot)>,
    ) {
        self.say(format_args!("[{label}] {audit}"));
        self.audits.push((label.into(), audit));
        self.metrics.push((label.into(), metrics));
        for (suffix, snapshot) in counters {
            self.counters.push((format!("{label}{suffix}"), snapshot));
        }
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
    /// One line per artifact that was not written, after attempting them
    /// all: a file that cannot be written, or an artifact this
    /// experiment did not attach (the registry entry declares a flag its
    /// `run` does not honour) — the line names the flag, so a run never
    /// exits 0 without a file it was asked for.
    pub fn finish(&self, cli: &Cli) -> Result<(), Vec<String>> {
        let artifacts = [
            cli.json.as_ref().map(|p| self.write_json(p)),
            cli.trace.as_ref().map(|p| self.write_trace(p)),
            cli.timeline.as_ref().map(|p| self.write_timeline(p)),
            cli.prof.as_ref().map(|p| write_profile(p)),
            cli.counters.as_ref().map(|p| self.write_counters(p)),
        ];
        let failed = artifacts.into_iter().flatten().filter_map(Result::err);
        crate::experiments::gates(failed.map(|e| e.to_string()).collect())
    }

    fn write_json(&self, path: &Path) -> std::io::Result<()> {
        write(path, self.to_json())?;
        eprintln!("wrote report to {}", path.display());
        Ok(())
    }

    fn write_trace(&self, path: &Path) -> std::io::Result<()> {
        let json = self
            .trace_json
            .as_ref()
            .ok_or_else(|| not_produced("--trace", "a packet trace"))?;
        write(path, json)?;
        eprintln!("wrote trace to {}", path.display());
        Ok(())
    }

    fn write_timeline(&self, path: &Path) -> std::io::Result<()> {
        let tl = self
            .timeline
            .as_ref()
            .filter(|tl| tl.is_enabled())
            .ok_or_else(|| not_produced("--timeline", "a flight-recorder timeline"))?;
        let csv = path.extension().is_some_and(|e| e == "csv");
        write(path, if csv { tl.to_csv() } else { tl.to_json() })?;
        eprintln!(
            "wrote {} timeline ({} ticks) to {}",
            if csv { "CSV" } else { "JSON" },
            tl.ticks(),
            path.display()
        );
        Ok(())
    }

    fn write_counters(&self, path: &Path) -> std::io::Result<()> {
        if self.counters.is_empty() {
            return Err(not_produced("--counters", "counter snapshots"));
        }
        write(
            path,
            fld_sim::counters::write_dump(self.experiment, &self.counters),
        )?;
        let txt = path.with_extension("txt");
        let mut text = String::new();
        for (label, snap) in &self.counters {
            text.push_str(&snap.render_text(label));
            text.push('\n');
        }
        write(&txt, text)?;
        eprintln!(
            "wrote counters ({} runs) to {} (+ {})",
            self.counters.len(),
            path.display(),
            txt.display()
        );
        Ok(())
    }
}

/// `std::fs::write` whose error names the path.
fn write(path: &Path, contents: impl AsRef<[u8]>) -> std::io::Result<()> {
    std::fs::write(path, contents)
        .map_err(|e| std::io::Error::new(e.kind(), format!("{}: {e}", path.display())))
}

/// The error for an artifact `flag` asked for and the experiment did not
/// produce.
fn not_produced(flag: &str, what: &str) -> std::io::Error {
    std::io::Error::other(format!("{flag}: this experiment does not produce {what}"))
}

/// Writes the calling thread's merged engine self-profile (every engine
/// run since the last take, its sweep workers' included) as JSON to `path`,
/// plus the folded-stacks flamegraph file next to it (extension
/// `.folded`).
///
/// # Errors
///
/// Fails when either file cannot be written, and when nothing was
/// profiled — no engine ran.
pub fn write_profile(path: &Path) -> std::io::Result<()> {
    let profile = fld_sim::prof::take_global()
        .ok_or_else(|| std::io::Error::other("--prof: no engine run was profiled"))?;
    write(path, profile.to_json())?;
    let folded = path.with_extension("folded");
    write(&folded, profile.to_folded())?;
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
    use crate::harness::Harness;
    use crate::Scale;
    use fld_sim::time::SimDuration;

    /// `exp <id> <list…>` as the parser sees it.
    fn parse(id: &str, list: &[&str]) -> Result<Cli, CliError> {
        let entry = Experiment::find(id).expect("a registered id");
        Cli::parse_for(entry, list.iter().map(|s| s.to_string()))
    }

    /// The message of a rejected command line.
    fn bad(id: &str, list: &[&str]) -> String {
        match parse(id, list) {
            Err(Bad(msg)) => msg,
            other => panic!("exp {id} {list:?}: expected Bad, got {other:?}"),
        }
    }

    /// A flag belongs to the entries that declare it: everywhere else it
    /// is refused by name, with what the entry does take, before a run.
    #[test]
    fn a_flag_is_parsed_for_the_entry_that_declares_it() {
        let refused: [(&str, &str); 9] = [
            ("fig7a", "--trace"),
            ("all", "--counters"),
            ("table1", "--prof"),
            ("rack", "--trace"),
            ("chaos", "--timeline"),
            ("fig7b", "--fault-rate"),
            ("fig7b", "--nodes"),
            ("rack", "--topology"),
            ("fig7c", "--sample-interval-ns"),
        ];
        for (id, flag) in refused {
            let msg = bad(id, &[flag, "1"]);
            let takes = "it takes: --quick --jobs --json --strict-audit";
            assert!(
                msg.starts_with(&format!("{id} does not take {flag}; {takes}")),
                "{msg}"
            );
        }
        assert!(bad("fig7b", &["--nodes", "2"]).ends_with("--prof --sample-interval-ns"));

        let malformed: [(&str, &[&str], &str); 8] = [
            ("rack", &["--nodes", "0"], "--nodes requires a positive"),
            ("rack", &["--tenants", "many"], "--tenants requires"),
            ("rack", &["--churn", "-1"], "--churn requires"),
            ("rack", &["--nodes"], "--nodes requires"),
            (
                "chaos",
                &["--topology", "mesh"],
                "--topology requires single",
            ),
            ("chaos", &["--topology"], "--topology requires"),
            ("fig7b", &["--trace"], "--trace requires a path"),
            ("table1", &["--json"], "--json requires a path"),
        ];
        for (id, list, expect) in malformed {
            assert!(bad(id, list).contains(expect), "{}", bad(id, list));
        }

        let rack = parse("rack", &["--nodes", "2", "--tenants", "3", "--churn", "0"]).unwrap();
        assert_eq!((rack.nodes, rack.tenants, rack.churn), (2, 3, 0.0));
        let rack = parse("rack", &[]).unwrap();
        assert_eq!((rack.nodes, rack.tenants, rack.churn), (4, 9, 20_000.0));
        assert_eq!(parse("chaos", &[]).unwrap().topology, "all");
        let single = parse("chaos", &["--topology", "single"]).unwrap();
        assert_eq!(single.topology, "single");
    }

    /// The help names each declared flag next to its takers, and every
    /// flag a registry entry names is a declared one the parser knows.
    #[test]
    fn usage_renders_from_the_registry() {
        let text = usage();
        for takers in [
            "(fig7b)",
            "(fig7b, rack)",
            "(fig7b, rack, chaos)",
            "(rack)",
            "(chaos)",
        ] {
            assert!(text.contains(takers), "{takers} missing from:\n{text}");
        }
        for entry in std::iter::once(&ALL).chain(REGISTRY) {
            for flag in entry.flags {
                assert!(text.contains(&format!("  {flag} <")), "{flag} undeclared");
                let alone = Cli::parse_for(entry, [flag.to_string()].into_iter());
                assert!(
                    matches!(&alone, Err(Bad(msg)) if msg.starts_with(&format!("{flag} requires"))),
                    "exp {} {flag}: {alone:?}",
                    entry.id
                );
            }
        }
    }

    #[test]
    fn parses_flags() {
        let cli = parse("table1", &["--quick", "--json", "/tmp/x.json"]).unwrap();
        assert!(cli.quick);
        assert_eq!(cli.json.as_deref(), Some(Path::new("/tmp/x.json")));
        assert!(cli.trace.is_none());
        assert_eq!(cli.sample_interval_ns, 1_000);
        assert!(!cli.strict_audit);
        assert_eq!(cli.jobs, 1);
        let h = Harness::new(cli);
        assert_eq!(h.scale().packets, Scale::quick().packets);
        assert_eq!(h.telemetry(), Some(SimDuration::from_nanos(1_000)));
    }

    #[test]
    fn parses_flight_recorder_flags() {
        let cli = parse(
            "rack",
            &[
                "--timeline",
                "/tmp/tl.csv",
                "--sample-interval-ns",
                "250",
                "--strict-audit",
            ],
        )
        .unwrap();
        assert_eq!(cli.timeline.as_deref(), Some(Path::new("/tmp/tl.csv")));
        assert_eq!(cli.sample_interval_ns, 250);
        assert!(cli.strict_audit);
        let interval = Harness::new(cli).telemetry();
        assert_eq!(interval, Some(SimDuration::from_nanos(250)));
        let quick = Harness::new(parse("rack", &["--quick"]).unwrap());
        assert_eq!(quick.telemetry(), None);
        assert!(bad("rack", &["--sample-interval-ns", "0"]).contains("positive"));
    }

    #[test]
    fn parses_jobs() {
        assert_eq!(parse("fig7c", &["--jobs", "4"]).unwrap().jobs, 4);
        assert!(parse("fig7c", &["--jobs"]).is_err());
        assert!(parse("fig7c", &["--jobs", "0"]).is_err());
        assert!(parse("fig7c", &["--jobs", "many"]).is_err());
    }

    #[test]
    fn rejects_unknown_flags_and_answers_help() {
        assert!(bad("table1", &["--jbos", "4"]).contains("--jbos"));
        assert!(parse("table1", &["--quick", "extra"]).is_err());
        assert_eq!(parse("table1", &["--help"]).unwrap_err(), Help);
        assert_eq!(parse("table1", &["-h"]).unwrap_err(), Help);
        assert!(usage().contains("--jobs"));
    }

    #[test]
    fn parses_fault_flags() {
        let cli = parse(
            "chaos",
            &[
                "--fault-rate",
                "0.001",
                "--fault-kinds",
                "drop,rnr",
                "--fault-seed",
                "9",
            ],
        )
        .unwrap();
        assert_eq!(cli.fault_rate, Some(0.001));
        assert_eq!(cli.fault_kinds.as_deref(), Some("drop,rnr"));
        assert_eq!(cli.fault_seed, 9);
        let plan = cli.fault_plan(0.5);
        assert_eq!(plan.rate, 0.5, "--fault-rate picks the sweep, not a point");
        assert!(plan.enables(fld_sim::fault::FaultKind::LinkDrop));
        assert!(!plan.enables(fld_sim::fault::FaultKind::LinkCorrupt));
        // Malformed values fail at the CLI.
        assert!(parse("chaos", &["--fault-rate", "2"]).is_err());
        assert!(parse("chaos", &["--fault-kinds", "nonsense"]).is_err());
        assert!(parse("chaos", &["--fault-seed", "x"]).is_err());
    }

    #[test]
    fn fault_kinds_list_and_unknown_kinds() {
        // `--fault-kinds list` is the enumeration request, not a kind.
        assert_eq!(
            parse("chaos", &["--fault-kinds", "list"]).unwrap_err(),
            ListKinds
        );
        // An unknown kind hard-errors naming the offender and the full
        // valid set, so the CLI is self-documenting on typos.
        let msg = bad("chaos", &["--fault-kinds", "drop,node_crsh"]);
        assert!(msg.contains("node_crsh"), "{msg}");
        for kind in fld_sim::fault::FaultKind::ALL {
            assert!(
                msg.contains(kind.name()),
                "missing {} in {msg}",
                kind.name()
            );
        }
        // Every scheduled-fault kind parses as a valid restriction.
        let cli = parse(
            "chaos",
            &["--fault-kinds", "fabric_link_flap,node_crash,vf_unplug"],
        )
        .unwrap();
        let plan = cli.fault_plan(0.1);
        assert!(plan.enables(fld_sim::fault::FaultKind::NodeCrash));
        assert!(!plan.enables(fld_sim::fault::FaultKind::LinkDrop));
        assert!(usage().contains("list"));
    }

    #[test]
    fn parses_prof_flag() {
        let cli = parse("fig7c", &["--prof", "/tmp/p.json"]).unwrap();
        assert_eq!(cli.prof.as_deref(), Some(Path::new("/tmp/p.json")));
        assert!(parse("fig7c", &["--quick"]).unwrap().prof.is_none());
        assert!(bad("fig7c", &["--prof"]).contains("--prof"));
        assert!(bad("fig7c", &["--porf", "/tmp/p.json"]).contains("--porf"));
    }

    #[test]
    fn parses_counters_flag() {
        let cli = parse("chaos", &["--counters", "/tmp/c.json"]).unwrap();
        assert_eq!(cli.counters.as_deref(), Some(Path::new("/tmp/c.json")));
        assert!(bad("chaos", &["--counters"]).contains("--counters"));
    }

    /// The calendar has one design and no selector: the retired flag
    /// (spelled in two pieces, so a grep for it finds nothing) is an
    /// unknown argument like any other.
    #[test]
    fn rejects_the_retired_calendar_flag() {
        let flag = format!("--{}", "calendar");
        let msg = bad("fig7b", &[&flag, "heap"]);
        assert!(msg.contains("unknown argument") && msg.contains(&flag));
        assert!(!usage().contains(&flag));
    }

    /// `finish` on an empty report asked for the artifact `flag` names.
    fn finish_error(flag: &str) -> String {
        let path = std::env::temp_dir().join(format!("fld_report_not_produced{flag}"));
        let _ = std::fs::remove_file(&path);
        let cli = parse("fig7b", &[flag, path.to_str().unwrap()]).unwrap();
        let errs = Report::quiet("unit-test").finish(&cli).unwrap_err();
        assert!(!path.exists(), "{flag} wrote a file and reported an error");
        assert_eq!(errs.len(), 1, "{errs:?}");
        errs.into_iter().next().unwrap()
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
        let mut r = Report::quiet("unit-test");
        r.timeline(Timeline::disabled());
        let cli = parse("fig7b", &["--timeline", "/nonexistent-dir/tl.csv"]).unwrap();
        assert!(r.finish(&cli).unwrap_err()[0].starts_with("--timeline:"));
    }

    #[test]
    fn counters_that_were_not_attached_are_an_error() {
        assert!(finish_error("--counters").starts_with("--counters:"));
    }

    fn holding_a_trace_and_counters() -> Report {
        let mut r = Report::quiet("unit-test");
        r.trace_json("{}".into());
        let tree = fld_sim::counters::CounterTree::new();
        tree.counter("port/0/rx/packets").add(7);
        let counters = [(String::new(), tree.snapshot())];
        r.attach(
            "run1",
            AuditReport::default(),
            MetricsRegistry::new(),
            counters,
        );
        r
    }

    #[test]
    fn finish_writes_every_artifact_the_report_holds() {
        let dir = std::env::temp_dir().join("fld_report_finish_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
        let cli = parse(
            "fig7b",
            &[
                "--json",
                &path("r.json"),
                "--trace",
                &path("t.json"),
                "--counters",
                &path("c.json"),
            ],
        )
        .unwrap();
        holding_a_trace_and_counters().finish(&cli).unwrap();
        for name in ["r.json", "t.json", "c.json", "c.txt"] {
            assert!(dir.join(name).exists(), "{name} was not written");
        }
    }

    /// One artifact that cannot be written does not cost the others: the
    /// failure names its path and everything after it is still on disk.
    #[test]
    fn finish_writes_what_it_can_around_an_unwritable_path() {
        let dir = std::env::temp_dir().join("fld_report_unwritable_test");
        std::fs::create_dir_all(&dir).unwrap();
        let counters = dir.join("c.json");
        let _ = std::fs::remove_file(&counters);
        let cli = parse(
            "fig7b",
            &[
                "--json",
                "/nonexistent-dir/r.json",
                "--counters",
                counters.to_str().unwrap(),
            ],
        )
        .unwrap();
        let errs = holding_a_trace_and_counters().finish(&cli).unwrap_err();
        assert_eq!(errs.len(), 1, "{errs:?}");
        assert!(errs[0].starts_with("/nonexistent-dir/r.json:"), "{errs:?}");
        assert!(counters.exists());
    }

    /// The profile is the calling thread's, and this test's thread never
    /// armed the profiler, so there is no profile to take.
    #[test]
    fn profile_that_was_not_recorded_is_an_error() {
        assert!(finish_error("--prof").starts_with("--prof:"));
    }

    #[test]
    fn report_json_carries_schema_version_and_counters() {
        let json = holding_a_trace_and_counters().to_json();
        assert!(json.contains(&format!(
            "\"schema_version\": {}",
            fld_sim::json::SCHEMA_VERSION
        )));
        assert!(json.contains("\"port/0/rx/packets\": 7"));
    }

    #[test]
    fn report_json_shape() {
        let mut r = Report::quiet("unit-test");
        r.section("hello");
        let mut reg = MetricsRegistry::new();
        reg.counter("nic.drops", 3);
        r.attach("run1", AuditReport::default(), reg, []);
        let json = r.to_json();
        assert!(json.contains("\"experiment\": \"unit-test\""));
        assert!(json.contains("\"run1\""));
        assert!(json.contains("\"drops\": 3"));
    }
}
