//! One module per group of paper tables / figures, and the registry that
//! indexes them: [`REGISTRY`] holds one [`Experiment`] per row of
//! `DESIGN.md` § 4, in that order, and the `exp` binary is a lookup in it.

pub mod chaos;
pub mod defrag;
pub mod echo;
pub mod fabric;
pub mod iot;
pub mod memory;
pub mod model;
pub mod rack;
pub mod rdma;
pub mod scaling;
pub mod statics;
pub mod zuc;
pub mod zuc_ext;

use crate::harness::Harness;
use crate::report::{Cli, CliError, Report};

/// What an experiment's run comes to: `Err` lists the gates that failed
/// (a liveness bar, a chaos verdict). A run with failed gates has still
/// attached everything it measured to the report.
pub type Gates = Result<(), Vec<String>>;

/// `Ok` when nothing failed.
pub(crate) fn gates(failures: Vec<String>) -> Gates {
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures)
    }
}

/// One runnable experiment: what `exp <id>` does and which flags it takes.
#[derive(Debug)]
pub struct Experiment {
    /// The word after `exp`, and the `experiment` field of every artifact.
    pub id: &'static str,
    /// The paper table, figure or section this regenerates.
    pub paper_ref: &'static str,
    /// One line for `exp list`.
    pub summary: &'static str,
    /// Whether `exp all` runs it.
    pub in_all: bool,
    /// The flags it takes beyond the ones every experiment takes
    /// (`--quick --jobs --json --strict-audit`); any other flag is a usage
    /// error naming this experiment. The harness applies the universal
    /// ones; the experiment reads its own from [`Harness::cli`].
    pub flags: &'static [&'static str],
    /// Runs it under the harness, which arms and runs every system it
    /// builds, printing and attaching its results to the report.
    pub run: fn(&Harness, &mut Report) -> Gates,
}

/// Flags of an experiment that runs an engine and nothing more.
const ENGINE: &[&str] = &["--prof"];

fn text(report: &mut Report, section: String) -> Gates {
    report.section(section);
    Ok(())
}

/// Every experiment, in `DESIGN.md` § 4 order.
pub static REGISTRY: &[Experiment] = &[
    Experiment {
        id: "table1",
        paper_ref: "Table 1",
        summary: "architecture comparison (LUT / FF / BRAM / features)",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, statics::table1()),
    },
    Experiment {
        id: "table2",
        paper_ref: "Table 2",
        summary: "driver memory parameters",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, memory::table2()),
    },
    Experiment {
        id: "table3",
        paper_ref: "Table 3",
        summary: "memory, software driver vs FLD (85.3 MiB -> 832.7 KiB)",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, memory::table3()),
    },
    Experiment {
        id: "fig4",
        paper_ref: "Figure 4",
        summary: "memory scaling vs line rate and queue count",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, memory::fig4()),
    },
    Experiment {
        id: "ablation",
        paper_ref: "§ 5.2",
        summary: "per-optimization contribution to the Table 3 shrink",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, memory::ablation()),
    },
    Experiment {
        id: "table4",
        paper_ref: "Table 4",
        summary: "software LOC per component",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, statics::table4(&crate::repo_root())),
    },
    Experiment {
        id: "table5",
        paper_ref: "Table 5",
        summary: "hardware utilization + HW LOC",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, statics::table5(&crate::repo_root())),
    },
    Experiment {
        id: "fig7a",
        paper_ref: "Figure 7a",
        summary: "PCIe vs raw-Ethernet performance model",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, model::fig7a()),
    },
    Experiment {
        id: "fig7b",
        paper_ref: "Figure 7b",
        summary: "FLD-E / FLD-R echo bandwidth vs packet size",
        in_all: true,
        flags: &[
            "--trace",
            "--timeline",
            "--counters",
            "--prof",
            "--sample-interval-ns",
        ],
        run: echo::fig7b,
    },
    Experiment {
        id: "imc_mpps",
        paper_ref: "§ 8.1.1",
        summary: "mixed-size IMC-2010 trace packet rate, FLD-E vs CPU",
        in_all: true,
        flags: ENGINE,
        run: |h, r| text(r, echo::imc_mpps(h)),
    },
    Experiment {
        id: "table6",
        paper_ref: "Table 6",
        summary: "64 B echo RTT percentiles, FLD-E vs CPU",
        in_all: true,
        flags: ENGINE,
        run: |h, r| text(r, echo::table6(h)),
    },
    Experiment {
        id: "fig7c",
        paper_ref: "Figure 7c",
        summary: "FLD-R 1 KiB latency vs load",
        in_all: true,
        flags: ENGINE,
        run: |h, r| text(r, rdma::fig7c(h)),
    },
    Experiment {
        id: "fig8a",
        paper_ref: "Figure 8a",
        summary: "ZUC throughput vs request size",
        in_all: true,
        flags: ENGINE,
        run: |h, r| text(r, zuc::fig8a(h)),
    },
    Experiment {
        id: "fig8b",
        paper_ref: "Figure 8b",
        summary: "ZUC latency vs bandwidth, remote accelerator vs local CPU",
        in_all: true,
        flags: ENGINE,
        run: |h, r| text(r, zuc::fig8b(h)),
    },
    Experiment {
        id: "defrag",
        paper_ref: "§ 8.2.2",
        summary: "IP defragmentation offload, three configurations + VXLAN",
        in_all: true,
        flags: ENGINE,
        run: |h, r| text(r, defrag::defrag_table(h)),
    },
    Experiment {
        id: "iot_isolation",
        paper_ref: "§ 8.2.3",
        summary: "IoT tenant isolation with and without NIC shapers",
        in_all: true,
        flags: ENGINE,
        run: |h, r| text(r, iot::iot_isolation(h)),
    },
    Experiment {
        id: "zuc_ext",
        paper_ref: "§ 8.2.1",
        summary: "future work realized: on-FPGA key storage + batching",
        in_all: true,
        flags: ENGINE,
        run: |h, r| text(r, zuc_ext::zuc_ext(h)),
    },
    Experiment {
        id: "scaling",
        paper_ref: "§ 9",
        summary: "scaling argument quantified (400 Gbps, multi-core FLD)",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, scaling::scaling()),
    },
    Experiment {
        id: "fabric",
        paper_ref: "§ 6",
        summary: "control-vs-data PCIe contention and its mitigation",
        in_all: true,
        flags: &[],
        run: |_, r| text(r, fabric::fabric()),
    },
    Experiment {
        id: "rack",
        paper_ref: "Figure 4, executed",
        summary: "multi-tenant rack: >= 2048 live queues + incast isolation",
        in_all: false,
        flags: &[
            "--timeline",
            "--counters",
            "--prof",
            "--sample-interval-ns",
            "--nodes",
            "--tenants",
            "--churn",
        ],
        run: rack::run,
    },
    Experiment {
        id: "chaos",
        paper_ref: "beyond the paper",
        summary: "seeded fault injection, single node and rack fault domains",
        in_all: false,
        flags: &[
            "--counters",
            "--prof",
            "--fault-rate",
            "--fault-kinds",
            "--fault-seed",
            "--topology",
        ],
        run: chaos::run,
    },
];

/// `exp all`: every [`REGISTRY`] entry with `in_all`, as one report.
pub static ALL: Experiment = Experiment {
    id: "all",
    paper_ref: "§ 8",
    summary: "every table and figure, in DESIGN.md § 4 order",
    in_all: false,
    flags: ENGINE,
    run: |h, r| run_entries(REGISTRY.iter().filter(|e| e.in_all), h, r),
};

impl Experiment {
    /// The entry `exp <word>` names.
    pub fn find(word: &str) -> Option<&'static Experiment> {
        std::iter::once(&ALL).chain(REGISTRY).find(|e| e.id == word)
    }

    /// The `experiment` field of this entry's artifacts: what the binary
    /// that used to run it was called, so that a counter dump taken
    /// before the registry still diffs against one taken after.
    pub fn artifact_name(&self) -> &'static str {
        match self.id {
            "all" => "all_experiments",
            id => id,
        }
    }
}

/// Runs `entries` on the harness's workers and appends their sections to
/// `report` in entry order, a rule after each. Each entry runs as a point
/// of [`Harness::sweep`], under its sub-harness: this scale, audit mode
/// and worker count (its own sweep nests up to that many more workers
/// inside the one running it), and its runs' audits join `h`'s.
pub fn run_entries<'a>(
    entries: impl Iterator<Item = &'a Experiment>,
    h: &Harness,
    report: &mut Report,
) -> Gates {
    let results = h.sweep(entries.collect(), |h, entry| {
        let mut own = Report::quiet(entry.id);
        let failed = (entry.run)(h, &mut own).err().unwrap_or_default();
        (own.into_sections(), failed)
    });
    let mut failures = Vec::new();
    for (sections, failed) in results {
        for section in sections {
            report.section(section);
            report.rule();
        }
        failures.extend(failed);
    }
    gates(failures)
}

/// The `exp` command line: `exp <id> [flags]`, `exp all [flags]`,
/// `exp list`. Returns the process exit status (0 done, 1 a gate or a
/// write failed, 2 usage).
pub fn main(mut args: impl Iterator<Item = String>) -> u8 {
    let word = args.next().unwrap_or_default();
    let parsed = match word.as_str() {
        "list" => {
            for e in REGISTRY {
                println!("{:<14} {:<18} {}", e.id, e.paper_ref, e.summary);
            }
            return 0;
        }
        "--help" | "-h" => Err(CliError::Help),
        _ => match Experiment::find(&word) {
            Some(entry) => Cli::parse_for(entry, args).map(|cli| (entry, cli)),
            None => Err(CliError::Bad(format!("no experiment {word:?}"))),
        },
    };
    match parsed {
        Ok((entry, cli)) => Harness::new(cli).execute(entry),
        Err(CliError::Help) => {
            println!("{}", crate::report::usage());
            0
        }
        Err(CliError::ListKinds) => {
            for kind in fld_sim::fault::FaultKind::ALL {
                println!("{}", kind.name());
            }
            0
        }
        Err(CliError::Bad(msg)) => {
            eprintln!(
                "error: {msg}\n(`exp list` prints the experiments, `exp --help` their flags)"
            );
            2
        }
    }
}
