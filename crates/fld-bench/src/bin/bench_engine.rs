//! Wall-clock baseline for the shared engine + parallel sweep runner.
//!
//! Times the fig7b FLD-E echo sweep serially and (on multi-core hosts)
//! with one worker per core, runs a short *profiled* attribution pass,
//! and writes an enriched `BENCH_engine.json`: throughput, host metadata
//! (cores, rustc, git sha) so baselines are comparable across machines,
//! and the engine's per-phase host-time breakdown so every Item-1
//! optimization lands against attributed numbers.
//!
//! The timed legs always run **unprofiled** — the gate must compare like
//! against like — and the attribution pass runs afterwards at quick
//! scale. On a 1-core host the parallel leg is skipped outright instead
//! of reporting a misleading ~1.0× "speedup" from thread churn.
//!
//! ```text
//! cargo run --release -p fld-bench --bin bench_engine -- \
//!     [--quick] [--prof <path>] [--gate <baseline.json>] [--out <path>]
//!     [--calendar {heap,wheel}]
//! ```
//!
//! Beyond the shared flags, `--gate <baseline>` exits non-zero when this
//! run's events/s falls more than 25% below the baseline's
//! `events_per_sec` (the CI perf-smoke job), and `--out <path>` redirects
//! the JSON (CI writes to a scratch path so a `--quick` run never
//! clobbers the checked-in full-scale baseline).

use std::path::PathBuf;
use std::time::Instant;

use fld_bench::experiments::echo::run_echo;
use fld_bench::perf::{self, HostMeta};
use fld_bench::report::Cli;
use fld_bench::runner::run_points_with;
use fld_bench::Scale;
use fld_core::system::SystemConfig;
use fld_sim::json::JsonWriter;
use fld_sim::prof::{self, Profile};

/// The gate's regression tolerance: fail CI below 75% of baseline.
const GATE_TOLERANCE: f64 = 0.25;

fn sweep(jobs: usize, scale: Scale) -> u64 {
    let sizes: Vec<u32> = vec![64, 128, 256, 512, 1024, 1500];
    let cfg = SystemConfig::remote();
    let events = run_points_with(sizes, jobs, |size| {
        let offered = cfg.client_rate.as_bps() / (size as f64 * 8.0);
        let budget = scale.sized_packets(offered);
        run_echo(
            cfg,
            size,
            offered,
            budget,
            true,
            scale.warmup(),
            scale.deadline(),
        )
        .events
    });
    events.iter().sum()
}

#[allow(clippy::too_many_arguments)]
fn write_json(
    path: &std::path::Path,
    host: &HostMeta,
    calendar: &str,
    serial_secs: f64,
    parallel: Option<(usize, f64)>,
    events: u64,
    events_per_sec: f64,
    profile: &Profile,
) -> String {
    let mut w = JsonWriter::pretty();
    w.begin_object();
    w.field_u64("schema_version", fld_sim::json::SCHEMA_VERSION);
    w.field_str("calendar_backend", calendar);
    w.field_u64("jobs", parallel.map_or(1, |(jobs, _)| jobs) as u64);
    w.field_f64("serial_secs", serial_secs);
    w.key("parallel_secs");
    match parallel {
        Some((_, secs)) => w.f64(secs),
        None => w.null(),
    }
    w.key("parallel_skipped");
    w.bool(parallel.is_none());
    w.key("speedup");
    match parallel {
        Some((_, secs)) => w.f64(serial_secs / secs),
        None => w.null(),
    }
    w.field_u64("events", events);
    w.field_f64("events_per_sec", events_per_sec);
    w.key("host");
    w.begin_object();
    w.field_u64("cores", host.cores as u64);
    w.field_str("rustc", &host.rustc);
    w.field_str("git_sha", &host.git_sha);
    w.field_str("os", host.os);
    w.end_object();
    w.key("prof");
    w.begin_object();
    w.key("enabled");
    w.bool(profile.enabled);
    if profile.enabled {
        w.field_str(
            "top_phase",
            profile.top_phase().map_or("", |p| p.name.as_str()),
        );
        w.field_f64("fractions_sum", profile.fractions_sum());
        w.field_f64("timer_overhead_ns", profile.timer_overhead_ns);
        w.key("phase_fractions");
        w.begin_object();
        for p in &profile.phases {
            w.field_f64(&p.name, p.total_ns / profile.attributed_wall_ns());
        }
        w.end_object();
        w.key("calendar");
        w.begin_object();
        w.field_u64("pushes", profile.calendar.pushes);
        w.field_u64("peak_depth", profile.calendar.peak_depth);
        w.field_u64("coincident_pops", profile.calendar.coincident_pops);
        w.field_u64("max_burst", profile.calendar.max_burst);
        w.field_u64("sample_rearms", profile.calendar.sample_rearms);
        w.field_u64("laned_pushes", profile.calendar.laned_pushes);
        w.field_u64("fallback_pushes", profile.calendar.fallback_pushes);
        w.field_u64("insert_steps", profile.calendar.insert_steps);
        w.end_object();
    }
    w.end_object();
    w.end_object();
    let json = w.finish();
    std::fs::write(path, &json).expect("write BENCH_engine.json");
    json
}

fn main() {
    // Bin-specific flags come out of argv first, so the shared parser's
    // unknown-flag hard error still covers everything else.
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let gate_path = perf::take_flag_value(&mut argv, "--gate").map(PathBuf::from);
    let out_path = perf::take_flag_value(&mut argv, "--out").map(PathBuf::from);
    let cli = Cli::parse_args(argv.into_iter());
    let scale = cli.scale();
    let host = HostMeta::detect();

    // The timed legs run unprofiled even under --prof: attribution has a
    // (small) cost, and the gate compares against unprofiled baselines.
    prof::set_enabled(false);
    let _ = prof::take_global();

    // Warm up allocators and caches so the serial leg is not penalized.
    sweep(1, Scale::quick());

    let t0 = Instant::now();
    let events = sweep(1, scale);
    let serial_secs = t0.elapsed().as_secs_f64();

    // One worker per core by default; an explicit --jobs N overrides it
    // (so a 1-core host can still measure the parallel path's overhead
    // instead of silently skipping the leg). Only a 1-core host without
    // --jobs skips — there a "parallel" leg measures nothing but thread
    // churn, and the recorded speedup would be misleading.
    let workers = if cli.jobs > 1 { cli.jobs } else { host.cores };
    let parallel = if workers > 1 {
        let t1 = Instant::now();
        let events_par = sweep(workers, scale);
        let parallel_secs = t1.elapsed().as_secs_f64();
        assert_eq!(events, events_par, "parallel sweep diverged from serial");
        Some((workers, parallel_secs))
    } else {
        println!(
            "1-core host: skipping the parallel leg (speedup would be \
             meaningless; force it with --jobs N)"
        );
        None
    };
    let best_secs = parallel.map_or(serial_secs, |(_, p)| p.min(serial_secs));
    let events_per_sec = events as f64 / best_secs;

    // Profiled attribution pass, quick scale: where does host time go?
    prof::set_enabled(true);
    sweep(1, Scale::quick());
    prof::set_enabled(false);
    let profile = prof::take_global().unwrap_or_default();
    if profile.enabled {
        if let Some(top) = profile.top_phase() {
            println!(
                "attribution: top phase {} at {:.0}% of host time \
                 (fractions sum {:.3}, timer overhead {:.1} ns/boundary)",
                top.name,
                100.0 * top.total_ns / profile.attributed_wall_ns(),
                profile.fractions_sum(),
                profile.timer_overhead_ns
            );
        }
        if let Some(path) = &cli.prof {
            std::fs::write(path, profile.to_json()).expect("write profile JSON");
            let folded = path.with_extension("folded");
            std::fs::write(&folded, profile.to_folded()).expect("write folded stacks");
            println!(
                "wrote self-profile to {} (+ {})",
                path.display(),
                folded.display()
            );
        }
    } else if cli.prof.is_some() {
        eprintln!("--prof: built without the `prof` feature; no profile recorded");
    }

    let path = out_path.unwrap_or_else(|| fld_bench::repo_root().join("BENCH_engine.json"));
    let json = write_json(
        &path,
        &host,
        cli.calendar.as_str(),
        serial_secs,
        parallel,
        events,
        events_per_sec,
        &profile,
    );
    println!("{json}");
    match parallel {
        Some((jobs, parallel_secs)) => println!(
            "fig7b sweep: serial {serial_secs:.2}s, {jobs} jobs {parallel_secs:.2}s \
             ({:.2}x, {:.1}M events/s) -> {}",
            serial_secs / parallel_secs,
            events_per_sec / 1e6,
            path.display()
        ),
        None => println!(
            "fig7b sweep: serial {serial_secs:.2}s ({:.1}M events/s, 1 core) -> {}",
            events_per_sec / 1e6,
            path.display()
        ),
    }

    if let Some(baseline) = gate_path {
        // Fingerprint-aware: a different host shape or calendar backend
        // downgrades a would-be failure to a warning (not comparable).
        let ctx = Some((&host, cli.calendar.as_str()));
        match perf::gate_in_context(events_per_sec, &baseline, GATE_TOLERANCE, ctx) {
            Ok(verdict) => println!("gate: PASS — {verdict}"),
            Err(msg) => {
                eprintln!("gate: FAIL — {msg}");
                std::process::exit(1);
            }
        }
    }
}
