//! The experiment registry is the index: it agrees with `DESIGN.md` § 4,
//! `exp all` prints the same bytes on any worker count, its output is
//! pinned by the committed `experiments_full.txt`, every simulated run of
//! every entry goes through the harness, and the `exp` binary's exit
//! status says what happened (0 done, 1 a gate, an audit or a write
//! failed, 2 usage) without ever panicking.

use std::process::Command;
use std::sync::Mutex;

use fld_bench::experiments::{run_entries, Experiment, ALL, REGISTRY};
use fld_bench::harness::Harness;
use fld_bench::report::{Cli, Report};
use fld_sim::audit::AuditReport;

/// The entries that simulate nothing: closed-form models and constants.
const ANALYTIC: [&str; 10] = [
    "table1", "table2", "table3", "fig4", "ablation", "table4", "table5", "fig7a", "scaling",
    "fabric",
];

fn entries<'a>(ids: &'a [&str]) -> impl Iterator<Item = &'static Experiment> + 'a {
    REGISTRY.iter().filter(move |e| ids.contains(&e.id))
}

/// What `exp all` prints for `entries` under `cli`: each section, a rule
/// after each.
fn printed(entries: impl Iterator<Item = &'static Experiment>, cli: Cli) -> String {
    let mut report = Report::quiet("all_experiments");
    run_entries(entries, &Harness::new(cli), &mut report).expect("no gate fails");
    let rule = "=".repeat(72);
    report
        .into_sections()
        .iter()
        .map(|section| format!("{section}\n{rule}\n"))
        .collect()
}

fn committed_full_report() -> String {
    let path = fld_bench::repo_root().join("experiments_full.txt");
    std::fs::read_to_string(path).expect("experiments_full.txt is committed")
}

#[test]
fn ids_are_unique_and_artifacts_keep_their_names() {
    for (i, e) in REGISTRY.iter().enumerate() {
        assert!(
            REGISTRY[..i].iter().all(|prior| prior.id != e.id),
            "{}",
            e.id
        );
        assert_eq!(e.artifact_name(), e.id);
        assert_eq!(Experiment::find(e.id).map(|found| found.id), Some(e.id));
    }
    // A dump from before the registry still diffs against one from after.
    assert_eq!(ALL.artifact_name(), "all_experiments");
    assert!(Experiment::find("all").is_some_and(|e| !e.in_all));
    assert!(Experiment::find("list").is_none());
    let left_out: Vec<&str> = REGISTRY
        .iter()
        .filter(|e| !e.in_all)
        .map(|e| e.id)
        .collect();
    assert_eq!(left_out, ["loc", "rack", "chaos"]);
}

/// DESIGN.md § 4's two tables name, in their "Regenerating target"
/// column, exactly the registry's ids in the registry's order.
#[test]
fn design_md_section_4_is_the_registry() {
    let design = std::fs::read_to_string(fld_bench::repo_root().join("DESIGN.md")).unwrap();
    let section = design
        .split("\n## ")
        .find(|s| s.starts_with("4. Experiment index"))
        .expect("DESIGN.md has a § 4");
    let targets: Vec<&str> = section
        .lines()
        .filter_map(|row| row.trim_end().strip_suffix("` |"))
        .filter_map(|row| row.rsplit_once("| `exp "))
        .map(|(_, id)| id)
        .collect();
    let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
    assert_eq!(targets, ids);
}

#[test]
fn all_prints_the_same_bytes_on_one_worker_and_on_four() {
    let mut ids = ANALYTIC.to_vec();
    ids.push("fig7c");
    let on = |jobs| {
        let cli = Cli {
            quick: true,
            jobs,
            ..Cli::default()
        };
        printed(entries(&ids), cli)
    };
    let serial = on(1);
    assert!(serial.contains("Figure 7c"));
    assert_eq!(serial, on(4));
}

/// `exp all` hands each entry a sub-harness of its own: the scale, the
/// audit mode and the worker count travel in it, the artifact paths do
/// not.
#[test]
fn all_hands_its_entries_the_scale_audit_mode_and_worker_count() {
    /// `(quick, packets, strict_audit, jobs, json)` of a harness.
    type Seen = (bool, u64, bool, usize, bool);
    /// What the stub saw of each harness it was handed.
    static SEEN: Mutex<Vec<Seen>> = Mutex::new(Vec::new());
    static STUB: Experiment = Experiment {
        id: "stub",
        paper_ref: "-",
        summary: "-",
        in_all: true,
        flags: &[],
        run: |h, _| {
            let cli = h.cli();
            let seen = (
                cli.quick,
                h.scale().packets,
                cli.strict_audit,
                cli.jobs,
                cli.json.is_some(),
            );
            SEEN.lock().unwrap().push(seen);
            Ok(())
        },
    };
    let cli = Cli {
        quick: true,
        strict_audit: true,
        jobs: 3,
        json: Some("unused.json".into()),
        ..Cli::default()
    };
    printed([&STUB, &STUB].into_iter(), cli);
    let quick = fld_bench::Scale::quick().packets;
    assert_eq!(*SEEN.lock().unwrap(), [(true, quick, true, 3, false); 2]);
}

#[test]
fn analytic_entries_render_their_sections_of_experiments_full_txt() {
    let full = committed_full_report();
    for entry in entries(&ANALYTIC) {
        let section = printed(std::iter::once(entry), Cli::default());
        assert!(
            full.contains(&section),
            "experiments_full.txt no longer holds what `exp {}` prints:\n{section}",
            entry.id
        );
    }
}

/// `exp all` at full scale is the committed file, byte for byte. Minutes
/// of CPU: the CI `smoke` job runs it.
#[test]
#[ignore = "full scale (about a minute on two cores); run by the CI smoke job"]
fn exp_all_at_full_scale_is_experiments_full_txt() {
    let cli = Cli {
        jobs: 2,
        ..Cli::default()
    };
    let rule = format!("{}\n", "=".repeat(72));
    let ours = printed(REGISTRY.iter().filter(|e| e.in_all), cli);
    let full = committed_full_report();
    let (ours, full): (Vec<&str>, Vec<&str>) =
        (ours.split(&rule).collect(), full.split(&rule).collect());
    assert_eq!(ours.len(), full.len(), "section count");
    for (ours, full) in ours.iter().zip(&full) {
        assert_eq!(
            ours, full,
            "experiments_full.txt is stale; regenerate with `exp all | tee experiments_full.txt`"
        );
    }
}

/// Runs the `exp` binary; returns its exit status and stderr.
fn exp(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_exp"))
        .args(args)
        .output()
        .expect("exp runs");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn usage_errors_exit_2_before_anything_runs() {
    for args in [
        &["fig7a", "--trace", "x"][..],
        &["all", "--counters", "x"],
        &["table1", "--prof", "x"],
        &["nosuch"],
        &["rack", "--nodes", "0"],
        &["rack", "--nodes", "256"],
        &["rack", "--tenants", "300"],
        &["fig7b", "--json"],
        &["chaos", "--topology", "mesh"],
        &[],
    ] {
        let (status, stderr) = exp(args);
        assert_eq!(status, Some(2), "exp {args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "exp {args:?}: {stderr}");
    }
    let (_, stderr) = exp(&["fig7a", "--trace", "x"]);
    assert!(stderr.contains("fig7a does not take --trace"), "{stderr}");
}

#[test]
fn a_run_exits_0_and_an_unwritable_path_exits_1_with_the_rest_written() {
    let dir = std::env::temp_dir().join("fld_exp_exit_status_test");
    std::fs::create_dir_all(&dir).unwrap();
    let json = dir.join("table1.json");
    let _ = std::fs::remove_file(&json);
    let (status, stderr) = exp(&["table1", "--json", json.to_str().unwrap()]);
    assert_eq!(status, Some(0), "{stderr}");
    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("\"experiment\": \"table1\""), "{report}");
    assert_eq!(exp(&["list"]).0, Some(0));
    assert_eq!(exp(&["--help"]).0, Some(0));
    assert_eq!(exp(&["chaos", "--fault-kinds", "list"]).0, Some(0));

    let counters = dir.join("fig7b.json");
    let _ = std::fs::remove_file(&counters);
    let (status, stderr) = exp(&[
        "fig7b",
        "--quick",
        "--json",
        "/nonexistent-dir/fig7b.json",
        "--counters",
        counters.to_str().unwrap(),
    ]);
    assert_eq!(status, Some(1), "{stderr}");
    assert!(
        stderr.contains("FAIL: /nonexistent-dir/fig7b.json"),
        "{stderr}"
    );
    assert!(counters.exists(), "the counter dump was still written");
}

/// Engine runs each simulating entry makes, at any scale.
const RUNS: [(&str, u64); 11] = [
    ("fig7b", 38),
    ("imc_mpps", 2),
    ("table6", 2),
    ("fig7c", 18),
    ("fig8a", 8),
    ("fig8b", 8),
    ("defrag", 4),
    ("iot_isolation", 2),
    ("zuc_ext", 15),
    ("rack", 4),
    ("chaos", 10),
];

/// The check the harness's seam puts on every run: one that failed.
fn violated(audit: &mut AuditReport) {
    audit.checks += 1;
    audit.violations += 1;
}

/// No system bypasses the harness. With one failing check put on every
/// run the harness arms, every simulating entry exits 1 with one audit
/// failure per run, and panics under `--strict-audit`; the analytic ones
/// still pass. The profiler counts every engine run, armed or not, and it
/// counts exactly the runs the harness armed — which the exit status
/// alone would not show when one system of several skipped the harness.
/// The scale is a tenth of `--quick`'s, because an armed profiler times
/// every event and the number of runs does not depend on the scale.
#[test]
fn every_run_of_every_entry_goes_through_the_harness() {
    let small = |strict_audit| {
        let cli = Cli {
            strict_audit,
            jobs: 2,
            ..Cli::default()
        };
        let scale = fld_bench::Scale {
            packets: 12_000,
            warmup_ms: 1,
            deadline_ms: 4,
        };
        Harness::new(cli).with_scale(scale).with_check(violated)
    };
    for entry in REGISTRY {
        // An entry missing from `RUNS` is one that must run nothing.
        let runs = RUNS
            .iter()
            .find(|(id, _)| *id == entry.id)
            .map_or(0, |(_, n)| *n);
        let h = small(false);
        fld_sim::prof::set_enabled(true);
        let _ = fld_sim::prof::take_global();
        let status = h.execute(entry);
        let profiled = fld_sim::prof::take_global().map_or(0, |p| p.runs);
        fld_sim::prof::set_enabled(false);
        // The seam fails each run the harness armed once.
        let armed = h.audit_failures().len() as u64;
        assert_eq!((profiled, armed), (runs, runs), "{}", entry.id);
        assert_eq!(status, u8::from(runs > 0), "exp {}", entry.id);
        if runs > 0 {
            let strict = small(true);
            let panicked = std::panic::catch_unwind(|| strict.execute(entry)).is_err();
            assert!(panicked, "exp {} --strict-audit", entry.id);
        }
    }
}

/// A failed gate is exit 1, after the artifacts: `execute` on an entry
/// whose run reports one (no registered experiment fails on demand).
#[test]
fn a_failed_gate_exits_1_after_the_report_is_written() {
    let failing = Experiment {
        id: "gate",
        paper_ref: "-",
        summary: "-",
        in_all: false,
        flags: &[],
        run: |_, report| {
            report.section("measured before the gate was judged");
            Err(vec!["the bar was missed".into()])
        },
    };
    let json = std::env::temp_dir().join("fld_exp_failed_gate_test.json");
    let _ = std::fs::remove_file(&json);
    let h = Harness::new(Cli {
        json: Some(json.clone()),
        ..Cli::default()
    });
    assert_eq!(h.execute(&failing), 1);
    let report = std::fs::read_to_string(&json).unwrap();
    assert!(report.contains("measured before the gate was judged"));
    let passing = Experiment {
        run: |_, _| Ok(()),
        ..failing
    };
    assert_eq!(h.execute(&passing), 0);
}
