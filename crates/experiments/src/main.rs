//! CLI: regenerate the paper's tables, figures and ablations.
//!
//! ```text
//! experiments [--fast] [--jobs N] [--csv DIR] [--manifest DIR]
//!             [--trace DIR] [--metrics DIR] [--profile DIR] [EXHIBIT...]
//! experiments --list
//! experiments bench-baseline [--seeds N] [--jobs N] [--out FILE]
//!             [--check-baseline FILE] [--resume DIR] [--deadline-s N]
//!             [--snapshot-every CYCLES] [--selfcheck] [--heartbeat-s N]
//!             [--trace DIR] [--metrics DIR] [--profile DIR]
//! experiments fault-inject [--fast] [--seeds N] [--trials N] [--jobs N]
//!             [--out FILE] [--check-avf] [--resume DIR] [--deadline-s N]
//!             [--heartbeat-s N] [--trace DIR] [--metrics DIR]
//! experiments report --store DIR [--list] [--diff SEL_A SEL_B]
//!             [--html FILE] [--title TITLE]
//! experiments chaos [--seed N] [--rounds N] [--scratch DIR] [--out FILE]
//! experiments serve --dir DIR [--addr HOST:PORT] [--serve-workers N]
//!             [--max-queued N] [--deadline-s N] [--drain] [--store DIR]
//! experiments serve-client VERB [ID] (--dir DIR | --addr HOST:PORT)
//!             [--name S] [--kind S] [--seed N] [--steps N]
//!             [--payload JSON] [--priority low|normal|high] [--timeout-s N]
//! ```
//!
//! With no exhibit arguments, everything runs (`all`), ending with the
//! `ablations` exhibit (the paper's design-constant sweeps, one run per
//! variant). `--fast` uses the reduced measurement budget (quick sanity
//! pass); the default is the full budget recorded in EXPERIMENTS.md. `--csv DIR` additionally
//! writes each exhibit's table as `DIR/<exhibit>.csv`. `--manifest DIR`
//! writes one JSON run manifest per simulation (machine config, seeds,
//! scheme, budget, phase timings, final metrics). `--trace DIR` exports
//! a Chrome trace-event file per simulation (open in Perfetto or
//! `chrome://tracing`). `--metrics DIR` records a sim-metrics registry
//! per simulation and exports its per-interval series as
//! `run*.series.jsonl` plus a Prometheus text file, and merges a digest
//! into the run's manifest. `--profile DIR` turns on the sim-profile
//! span profiler for every simulation and exports, per run, a JSON
//! profile report (`run*.profile.json`) and a collapsed-stack file
//! (`run*.collapsed`, feed to `flamegraph.pl` or any flamegraph
//! renderer), printing each run's hot-spot table on stderr; with
//! `--trace DIR` too, the span tree is also merged into the Chrome
//! trace as a flame chart on the `profile` track.
//!
//! `--list` prints the exhibit catalog (name + description) and exits.
//!
//! `--jobs N` sets the simulation worker-pool size for all parallel
//! fan-out (default: `available_parallelism`; use `--jobs 1` on
//! single-core hosts).
//!
//! `bench-baseline` runs the fixed regression exhibit set over `--seeds`
//! workload salts (default 3) and prints the cross-seed report;
//! `--out FILE` records the schema-versioned baseline JSON and
//! `--check-baseline FILE` compares against a recorded one, failing on
//! any throughput-IPC, harmonic-IPC or IQ-AVF drift (>2 % beyond seed
//! noise). Host speed is not gated here; `perfbench` measures it.
//!
//! `fault-inject` runs Monte-Carlo SEU campaigns (baseline and DVM) over
//! `--seeds` workload salts with `--trials` IQ injections each and
//! prints the per-structure outcome table; `--out FILE` records the
//! campaign JSON and `--check-avf` fails unless the ACE-analysis IQ
//! AVF falls inside every campaign's injection Wilson interval *and*
//! DVM measures strictly less pooled IQ vulnerability than baseline.
//!
//! Both campaign subcommands run under the `sim-harness` supervisor:
//! `--resume DIR` keeps a checkpoint journal in DIR and replays already
//! completed jobs on re-run; `--deadline-s N` cancels any single job
//! after N wall-clock seconds; a SIGINT or SIGTERM checkpoints or
//! drains in-flight jobs, flushes the journal and `DIR/campaign.json`,
//! then exits 130 (a second signal aborts immediately).
//!
//! With `--resume DIR`, `bench-baseline` additionally persists mid-run
//! pipeline snapshots under `DIR/snapshots/` so an interrupted *job*
//! resumes bit-identically from its latest valid checkpoint instead of
//! re-simulating from cycle zero; `--snapshot-every CYCLES` sets the
//! snapshot cadence (default: every 10 000-cycle sampling interval) and
//! `--selfcheck` validates structural pipeline invariants at every
//! snapshot boundary, failing the job fast instead of persisting a
//! poisoned checkpoint.
//!
//! `--heartbeat-s N` prints a campaign heartbeat to stderr every N
//! seconds: jobs done/total, aggregate simulated throughput (Mcycles/s)
//! and a coarse ETA. On a TTY the line overwrites itself; in a log it
//! appends one line per beat.
//!
//! `--store DIR` (any run mode) registers every finished simulation in
//! the append-only run store `DIR/runs.jsonl` — scheme, seed, config
//! hash, headline metrics, and the paths of whatever artifacts the run
//! exported. When `--store` is given, `--manifest` and `--metrics`
//! default to `DIR/artifacts` so one flag yields a fully chartable
//! store; explicit flags still override. `bench-baseline` defaults
//! `--out` to `DIR/artifacts/BENCH.json` and `fault-inject` to
//! `DIR/artifacts/INJECT.json`, and each fault-inject scheme campaign
//! registers as its own record.
//!
//! `report` reads a store back: `--list` prints the index, `--diff
//! SEL_A SEL_B` compares two run selections (`key=value,...` selectors
//! over exhibit/mix/scheme/salt/batch/config, or run-id prefixes) with
//! the `sim_stats::gate` significance gates (simulated metrics as in
//! `--check-baseline`, plus one-sided wall-time and throughput gates)
//! and exits `3` on significant drift, and `--html FILE` renders a self-contained
//! dashboard (summary tables, per-interval SVG charts, fault-injection
//! outcome breakdowns, profiler hot spots — no external references).
//!
//! `chaos` runs the deterministic crash-recovery torture loop (see
//! `experiments::chaos`): `--rounds` seeded rounds (default 20), each
//! driving a journal + snapshot + run-store campaign through a
//! fault-injecting filesystem and then asserting the recovery contract
//! on a clean restart. `--seed N` reproduces a run bit-identically,
//! `--scratch DIR` relocates the (per-round wiped) working directory,
//! and `--out FILE` writes the timestamp-free report JSON. Exits `3`
//! on any contract violation, keeping the scratch tree for inspection.
//!
//! `serve` hosts the crash-safe campaign daemon (`sim-serve`) over a
//! state directory: every submission and lifecycle transition is
//! durable in `DIR/queue.jsonl`, so a `kill -9` loses nothing —
//! restart with the same `--dir` and pending work is re-admitted
//! (checkpointed jobs resume from their latest valid snapshot).
//! `--drain` exits once the recovered backlog is empty. `serve-client`
//! talks to a running daemon (endpoint discovered through `--dir`):
//! `submit` prints the new job id, `status`/`list`/`stats` print JSON
//! documents, `cancel` cancels, `wait` polls one job (or, without an
//! id, the whole queue) to completion, and `results` prints one
//! sorted, nondeterminism-free JSON line per completed job so two
//! runs of the same batch diff byte-identically — the CI smoke job's
//! recovery oracle.
//!
//! Exit codes: `0` success, `1` usage error (bad flags or unknown
//! exhibits — rejected up front before any simulation starts), `2`
//! campaign completed but quarantined at least one job, `3` fatal
//! (I/O failure, a `--check-*` gate regression, or a chaos contract
//! violation), `130` interrupted.

use experiments::context::{ExperimentContext, ExperimentParams};
use experiments::manifest::CampaignManifest;
use experiments::{bench, exhibits, faultinject};
use sim_harness::{HarnessConfig, HarnessObservers, HarnessStats, QuarantineEntry};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Usage error: bad flags, unknown exhibits.
const EXIT_USAGE: i32 = 1;
/// The campaign finished but quarantined at least one job.
const EXIT_PARTIAL: i32 = 2;
/// I/O failure or a `--check-*` gate regression.
const EXIT_FATAL: i32 = 3;

/// Flags that consume the following argument.
const VALUE_FLAGS: [&str; 30] = [
    "--csv",
    "--manifest",
    "--trace",
    "--metrics",
    "--profile",
    "--out",
    "--check-baseline",
    "--seeds",
    "--trials",
    "--jobs",
    "--resume",
    "--deadline-s",
    "--snapshot-every",
    "--heartbeat-s",
    "--store",
    "--html",
    "--title",
    "--seed",
    "--rounds",
    "--scratch",
    "--dir",
    "--addr",
    "--serve-workers",
    "--max-queued",
    "--name",
    "--kind",
    "--steps",
    "--payload",
    "--priority",
    "--timeout-s",
];

/// One-line usage reminder printed alongside flag-validation errors.
const USAGE: &str = "usage: experiments [--fast] [--jobs N] [--profile DIR] [EXHIBIT...] \
     | experiments --list \
     | experiments bench-baseline|fault-inject [--seeds N] [--deadline-s N] \
     [--resume DIR] [--snapshot-every CYCLES] [--selfcheck] [--heartbeat-s N] \
     | experiments report --store DIR [--list] [--diff SEL_A SEL_B] [--html FILE] \
     | experiments chaos [--seed N] [--rounds N] [--scratch DIR] [--out FILE] \
     | experiments serve --dir DIR [--addr HOST:PORT] [--serve-workers N] \
     [--max-queued N] [--deadline-s N] [--drain] [--store DIR] \
     | experiments serve-client VERB [ID] (--dir DIR | --addr HOST:PORT) \
     [--name S] [--kind S] [--seed N] [--steps N] [--payload JSON] \
     [--priority low|normal|high] [--timeout-s N] (see crate docs)";

/// Parse one positive-integer flag value. `Ok(None)` when the flag was
/// not given; `Err` explains the rejection (zero, negative or garbage —
/// all refused up front, before any simulation starts).
fn parse_positive(flag: &str, raw: Option<&str>) -> Result<Option<u64>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    match raw.parse::<u64>() {
        Ok(n) if n >= 1 => Ok(Some(n)),
        Ok(_) => Err(format!("{flag} wants a positive integer, got 0")),
        Err(_) => Err(format!("{flag} wants a positive integer, got {raw:?}")),
    }
}

/// [`parse_positive`] that exits with usage on a rejected value.
fn positive_flag(flag: &str, raw: Option<&String>) -> Option<u64> {
    match parse_positive(flag, raw.map(|s| s.as_str())) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

/// Parse one directory-valued flag. `Ok(None)` when the flag was not
/// given; `Err` when its value is missing, empty, or another flag (the
/// argument slot was consumed by the next option — a silent foot-gun if
/// accepted as a directory name).
fn parse_dir(flag: &str, raw: Option<&str>) -> Result<Option<PathBuf>, String> {
    let Some(raw) = raw else {
        return Ok(None);
    };
    if raw.is_empty() {
        return Err(format!("{flag} wants a directory, got an empty string"));
    }
    if raw.starts_with("--") {
        return Err(format!(
            "{flag} wants a directory, got flag-like {raw:?} (value missing?)"
        ));
    }
    Ok(Some(PathBuf::from(raw)))
}

/// [`parse_dir`] that exits with usage on a rejected value.
fn dir_flag_checked(flag: &str, raw: Option<&String>) -> Option<PathBuf> {
    match parse_dir(flag, raw.map(|s| s.as_str())) {
        Ok(v) => v,
        Err(msg) => {
            eprintln!("{msg}");
            eprintln!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    }
}

fn main() {
    sim_harness::signal::install_sigint_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `report --list` lists the run store, not the exhibit catalog.
    if args.iter().any(|a| a == "--list") && !args.iter().any(|a| a == "report") {
        print!("{}", exhibits::list_text());
        return;
    }
    let fast = args.iter().any(|a| a == "--fast");
    let value_of = |flag: &str| -> Option<&String> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
    };
    let dir_flag = |flag: &str| -> Option<PathBuf> { value_of(flag).map(PathBuf::from) };
    // A flag that was given must have swallowed a usable value; a flag
    // given as the last argument reads its value as `None` and must be
    // rejected, not silently ignored.
    let require_value = |flag: &str| {
        if args.iter().any(|a| a == flag) && value_of(flag).is_none() {
            eprintln!("{flag} wants a value, got nothing");
            eprintln!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        }
    };
    let csv_dir = dir_flag("--csv");
    let manifest_dir = dir_flag("--manifest");
    let trace_dir = dir_flag("--trace");
    let metrics_dir = dir_flag("--metrics");
    require_value("--profile");
    let profile_dir = dir_flag_checked("--profile", value_of("--profile"));
    require_value("--store");
    let store_dir = dir_flag_checked("--store", value_of("--store"));
    // With a run store, manifests and metrics default into its artifact
    // directory so a single `--store` flag yields a chartable store;
    // explicit `--manifest`/`--metrics` still win.
    let artifact_default = store_dir
        .as_ref()
        .map(|d| d.join(sim_report::RunStore::ARTIFACT_DIR));
    let manifest_dir = manifest_dir.or_else(|| artifact_default.clone());
    let metrics_dir = metrics_dir.or_else(|| artifact_default.clone());
    if let Some(n) = positive_flag("--jobs", value_of("--jobs")) {
        sim_harness::set_default_jobs(n as usize);
    }
    let deadline = positive_flag("--deadline-s", value_of("--deadline-s")).map(Duration::from_secs);
    let snapshot_every = positive_flag("--snapshot-every", value_of("--snapshot-every"));
    let selfcheck = args.iter().any(|a| a == "--selfcheck");
    require_value("--heartbeat-s");
    let heartbeat =
        positive_flag("--heartbeat-s", value_of("--heartbeat-s")).map(Duration::from_secs);
    let resume_dir = dir_flag("--resume");
    let campaign_cfg = HarnessConfig {
        deadline,
        snapshot_every,
        selfcheck,
        heartbeat,
        ..HarnessConfig::default()
    };

    let mut skip_next = false;
    let requested: Vec<&str> = args
        .iter()
        .filter(|a| {
            if skip_next {
                skip_next = false;
                return false;
            }
            if VALUE_FLAGS.contains(&a.as_str()) {
                skip_next = true;
                return false;
            }
            !a.starts_with("--")
        })
        .map(|s| s.as_str())
        .collect();

    if requested.first() == Some(&"report") {
        let Some(store) = store_dir else {
            eprintln!("report wants --store DIR (the run store to read)");
            eprintln!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        };
        require_value("--html");
        require_value("--title");
        let report_args = experiments::ReportArgs {
            store,
            list: args.iter().any(|a| a == "--list"),
            diff: args.iter().any(|a| a == "--diff"),
            selectors: requested[1..].iter().map(|s| s.to_string()).collect(),
            html: dir_flag_checked("--html", value_of("--html")),
            title: value_of("--title").cloned(),
        };
        std::process::exit(experiments::cmd_report(&report_args));
    }

    if requested.first() == Some(&"chaos") {
        let extra: Vec<&str> = requested[1..].to_vec();
        if !extra.is_empty() {
            eprintln!("chaos takes no exhibit arguments: {extra:?}");
            std::process::exit(EXIT_USAGE);
        }
        // Seed 0 is legitimate — parse it as any u64, not "positive".
        require_value("--seed");
        let seed = match value_of("--seed") {
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--seed wants an unsigned integer, got {raw:?}");
                    eprintln!("{USAGE}");
                    std::process::exit(EXIT_USAGE);
                }
            },
            None => 0,
        };
        let rounds = positive_flag("--rounds", value_of("--rounds")).unwrap_or(20);
        require_value("--scratch");
        require_value("--out");
        let chaos_args = experiments::ChaosArgs {
            seed,
            rounds,
            scratch: dir_flag_checked("--scratch", value_of("--scratch")),
            out: dir_flag_checked("--out", value_of("--out")),
        };
        std::process::exit(experiments::cmd_chaos(&chaos_args));
    }

    if requested.first() == Some(&"serve") {
        let extra: Vec<&str> = requested[1..].to_vec();
        if !extra.is_empty() {
            eprintln!("serve takes no exhibit arguments: {extra:?}");
            std::process::exit(EXIT_USAGE);
        }
        require_value("--dir");
        let Some(dir) = dir_flag_checked("--dir", value_of("--dir")) else {
            eprintln!("serve wants --dir DIR (the daemon state directory)");
            eprintln!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        };
        require_value("--addr");
        let serve_args = experiments::ServeArgs {
            dir,
            addr: value_of("--addr").cloned(),
            workers: positive_flag("--serve-workers", value_of("--serve-workers")),
            max_queued: positive_flag("--max-queued", value_of("--max-queued")),
            deadline,
            drain: args.iter().any(|a| a == "--drain"),
            store: store_dir,
        };
        std::process::exit(experiments::cmd_serve(&serve_args));
    }

    if requested.first() == Some(&"serve-client") {
        let Some(verb) = requested.get(1) else {
            eprintln!("serve-client wants a verb (submit|status|list|results|cancel|stats|wait|healthz|shutdown)");
            eprintln!("{USAGE}");
            std::process::exit(EXIT_USAGE);
        };
        let id = match requested.get(2) {
            None => None,
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) => Some(n),
                Err(_) => {
                    eprintln!("serve-client {verb} wants a numeric job id, got {raw:?}");
                    std::process::exit(EXIT_USAGE);
                }
            },
        };
        if requested.len() > 3 {
            eprintln!(
                "serve-client takes one verb and at most one id: extra {:?}",
                &requested[3..]
            );
            std::process::exit(EXIT_USAGE);
        }
        require_value("--dir");
        require_value("--addr");
        require_value("--name");
        require_value("--kind");
        require_value("--payload");
        require_value("--priority");
        // Seed 0 is legitimate — parse it as any u64, not "positive".
        require_value("--seed");
        let seed = match value_of("--seed") {
            Some(raw) => match raw.parse::<u64>() {
                Ok(n) => n,
                Err(_) => {
                    eprintln!("--seed wants an unsigned integer, got {raw:?}");
                    eprintln!("{USAGE}");
                    std::process::exit(EXIT_USAGE);
                }
            },
            None => 0,
        };
        let client_args = experiments::ServeClientArgs {
            dir: dir_flag_checked("--dir", value_of("--dir")),
            addr: value_of("--addr").cloned(),
            verb: verb.to_string(),
            id,
            name: value_of("--name")
                .cloned()
                .unwrap_or_else(|| "job".to_string()),
            kind: value_of("--kind")
                .cloned()
                .unwrap_or_else(|| "synthetic".to_string()),
            seed,
            steps: positive_flag("--steps", value_of("--steps")).unwrap_or(100),
            payload: value_of("--payload").cloned().unwrap_or_default(),
            priority: value_of("--priority")
                .cloned()
                .unwrap_or_else(|| "normal".to_string()),
            timeout: Duration::from_secs(
                positive_flag("--timeout-s", value_of("--timeout-s")).unwrap_or(120),
            ),
        };
        std::process::exit(experiments::cmd_serve_client(&client_args));
    }

    if requested.first() == Some(&"bench-baseline") {
        let extra: Vec<&str> = requested[1..].to_vec();
        if !extra.is_empty() {
            eprintln!("bench-baseline takes no exhibit arguments: {extra:?}");
            std::process::exit(EXIT_USAGE);
        }
        let seeds = positive_flag("--seeds", value_of("--seeds")).unwrap_or(3);
        run_bench_baseline(
            seeds,
            dir_flag("--out"),
            dir_flag("--check-baseline"),
            metrics_dir,
            trace_dir,
            profile_dir,
            resume_dir,
            store_dir,
            campaign_cfg,
        );
        return;
    }

    if requested.first() == Some(&"fault-inject") {
        let extra: Vec<&str> = requested[1..].to_vec();
        if !extra.is_empty() {
            eprintln!("fault-inject takes no exhibit arguments: {extra:?}");
            std::process::exit(EXIT_USAGE);
        }
        let seeds = positive_flag("--seeds", value_of("--seeds")).unwrap_or(3);
        let trials = positive_flag("--trials", value_of("--trials")).unwrap_or(120);
        run_fault_inject(
            seeds,
            trials,
            fast,
            dir_flag("--out"),
            args.iter().any(|a| a == "--check-avf"),
            trace_dir,
            metrics_dir,
            profile_dir,
            resume_dir,
            store_dir,
            campaign_cfg,
        );
        return;
    }

    // Validate every exhibit name before any simulation starts, so a
    // typo at the end of a long campaign list fails in milliseconds,
    // not hours.
    let unknown: Vec<&str> = requested
        .iter()
        .copied()
        .filter(|e| *e != "all" && exhibits::find(e).is_none())
        .collect();
    if !unknown.is_empty() {
        for e in &unknown {
            eprintln!("unknown exhibit: {e}");
        }
        let names: Vec<&str> = exhibits::EXHIBITS.iter().map(|e| e.name).collect();
        eprintln!("known exhibits: {} all", names.join(" "));
        std::process::exit(EXIT_USAGE);
    }

    let wanted: Vec<&str> = if requested.is_empty() || requested.contains(&"all") {
        exhibits::DEFAULT_ORDER.to_vec()
    } else {
        // Dedupe repeated names, preserving first-occurrence order.
        let mut seen = Vec::new();
        for e in requested {
            if !seen.contains(&e) {
                seen.push(e);
            }
        }
        seen
    };

    let params = if fast {
        ExperimentParams::fast()
    } else {
        ExperimentParams::full()
    };
    // One store handle and one batch number for the whole invocation, so
    // `batch=N` selects everything this campaign produced.
    let mut store = open_store_or_exit("experiments", store_dir.as_deref());
    let batch = store.as_ref().map(|s| s.next_batch()).unwrap_or(0);
    let ctx = experiment_context(
        params,
        trace_dir.as_deref(),
        metrics_dir.as_deref(),
        profile_dir.as_deref(),
        store.as_ref(),
    );
    println!(
        "# smtsim experiment campaign ({} budget: warmup {} insts, {} measured cycles/run)\n",
        if fast { "fast" } else { "full" },
        params.warmup_insts,
        params.run_cycles
    );

    let emit = |exhibit: &str, rendered: Vec<experiments::Rendered>| {
        for (i, r) in rendered.iter().enumerate() {
            println!("{r}");
            if let Some(dir) = &csv_dir {
                let slug = if rendered.len() > 1 {
                    format!("{exhibit}_{i}")
                } else {
                    exhibit.to_string()
                };
                match r.write_csv(dir, &slug) {
                    Ok(path) => println!("  [csv: {}]", path.display()),
                    Err(e) => eprintln!("  [csv export failed: {e}]"),
                }
            }
        }
    };

    for exhibit in wanted {
        let t0 = Instant::now();
        let entry = exhibits::find(exhibit).expect("exhibit validated above");
        emit(exhibit, entry.run(&ctx));
        // Drain per-run manifests accumulated by this exhibit; write
        // them out if requested, otherwise discard to bound memory.
        let manifests = ctx.drain_manifests();
        let mut stages = sim_trace::timing::StageSeconds::default();
        let mut profiled = 0usize;
        for m in &manifests {
            if let Some(s) = &m.stage_seconds {
                stages.add(s);
                profiled += 1;
            }
        }
        if manifest_dir.is_some() || store.is_some() {
            let mut phases = sim_trace::timing::PhaseTimings::default();
            let mut written = 0usize;
            let mut registered = 0usize;
            for mut m in manifests {
                m.exhibit = exhibit.to_string();
                phases.generate_s += m.timings.generate_s;
                phases.warmup_s += m.timings.warmup_s;
                phases.measure_s += m.timings.measure_s;
                phases.collect_s += m.timings.collect_s;
                let mut manifest_path = None;
                if let Some(dir) = &manifest_dir {
                    match m.write(dir) {
                        Ok(path) => {
                            written += 1;
                            manifest_path = Some(path);
                        }
                        Err(e) => eprintln!("  [manifest export failed: {e}]"),
                    }
                }
                if let Some(store) = store.as_mut() {
                    let dirs = experiments::ArtifactDirs {
                        metrics: metrics_dir.clone(),
                        profile: profile_dir.clone(),
                        trace: trace_dir.clone(),
                    };
                    match experiments::register_manifest(
                        store,
                        batch,
                        "exhibit",
                        &m,
                        manifest_path.as_deref(),
                        &dirs,
                    ) {
                        Ok(_) => registered += 1,
                        Err(e) => eprintln!("  [run-store registration failed: {e}]"),
                    }
                }
            }
            if written > 0 {
                println!(
                    "  [{written} manifest(s) -> {}; phases: generate {:.2}s, warmup {:.2}s, measure {:.2}s, collect {:.2}s]",
                    manifest_dir.as_deref().unwrap_or(Path::new("?")).display(),
                    phases.generate_s,
                    phases.warmup_s,
                    phases.measure_s,
                    phases.collect_s
                );
            }
            if registered > 0 {
                println!(
                    "  [{registered} run(s) registered in store {} (batch {batch})]",
                    store_dir.as_deref().unwrap_or(Path::new("?")).display()
                );
            }
        }
        if profiled > 0 {
            println!(
                "  [stage profile over {profiled} traced run(s): commit {:.2}s, writeback {:.2}s, issue {:.2}s, dispatch {:.2}s, fetch {:.2}s ({} cycles)]",
                stages.commit_s,
                stages.writeback_s,
                stages.issue_s,
                stages.dispatch_s,
                stages.fetch_s,
                stages.profiled_cycles
            );
        }
        println!("  [{exhibit} took {:.1?}]\n", t0.elapsed());
    }
}

/// Open the `--store` run store (when given), exiting `EXIT_FATAL` with
/// a `who`-prefixed diagnostic when it cannot be opened.
fn open_store_or_exit(who: &str, dir: Option<&Path>) -> Option<sim_report::RunStore> {
    let dir = dir?;
    match sim_report::RunStore::open(dir) {
        Ok(store) => Some(store),
        Err(e) => {
            eprintln!("{who}: cannot open run store {}: {e}", dir.display());
            std::process::exit(EXIT_FATAL);
        }
    }
}

/// The invocation's experiment context: `params` plus whichever per-run
/// trace, metrics and profile directories were given. With a run store,
/// run ids start past its records so artifact names never collide.
fn experiment_context(
    params: ExperimentParams,
    trace_dir: Option<&Path>,
    metrics_dir: Option<&Path>,
    profile_dir: Option<&Path>,
    store: Option<&sim_report::RunStore>,
) -> ExperimentContext {
    let mut ctx = ExperimentContext::new(params);
    if let Some(dir) = trace_dir {
        ctx = ctx.with_trace_dir(dir);
    }
    if let Some(dir) = metrics_dir {
        ctx = ctx.with_metrics_dir(dir);
    }
    if let Some(dir) = profile_dir {
        ctx = ctx.with_profile_dir(dir);
    }
    if let Some(store) = store {
        ctx.set_run_id_base(store.next_seq());
    }
    ctx
}

/// Harness observers for a campaign subcommand: a live metrics registry
/// (so `harness.*` counters are always collected) and a Chrome tracer
/// for job lifecycle events when `--trace DIR` is given.
fn campaign_observers(trace_dir: Option<&Path>, name: &str) -> HarnessObservers {
    let tracer = match trace_dir {
        Some(dir) if std::fs::create_dir_all(dir).is_ok() => {
            let path = dir.join(format!("harness_{name}.trace.json"));
            sim_trace::Tracer::new(sim_trace::chrome::ChromeTraceSink::new(path))
        }
        _ => sim_trace::Tracer::off(),
    };
    HarnessObservers {
        metrics: sim_metrics::Metrics::new(),
        tracer,
        shutdown: None, // None → the process SIGINT flag
        progress: None, // installed per-campaign by wire_heartbeat
    }
}

/// Wire one campaign-wide cycle counter into both the harness (which
/// reads it for the heartbeat line and the campaign manifest's
/// `simulated_cycles`) and the experiment context (whose runs feed it
/// through their pipelines' interval clocks). Always on: the cost is
/// one atomic add per 10K simulated cycles per job, and the manifest's
/// fleet-throughput figure should not depend on whether a heartbeat
/// happened to be requested.
fn wire_heartbeat(ctx: &ExperimentContext, obs: &mut HarnessObservers) {
    let progress = Arc::new(AtomicU64::new(0));
    ctx.set_progress_counter(Arc::clone(&progress));
    obs.progress = Some(progress);
}

/// Post-campaign bookkeeping shared by `bench-baseline` and
/// `fault-inject`: print the supervision summary, export harness
/// metrics/traces, write `DIR/campaign.json`, and translate the
/// campaign state into the process exit code. Returns the code the
/// subcommand should exit with after its own reporting (0 or
/// EXIT_PARTIAL); exits directly when the campaign was interrupted.
#[allow(clippy::too_many_arguments)]
fn finish_campaign(
    name: &str,
    interrupted: bool,
    stats: &HarnessStats,
    quarantined: &[QuarantineEntry],
    simulated_cycles: u64,
    resume_dir: Option<&Path>,
    metrics_dir: Option<&Path>,
    obs: &HarnessObservers,
) -> i32 {
    println!(
        "  [harness: {} completed ({} from journal), {} retries, {} quarantined, {} skipped]",
        stats.completed + stats.resumed,
        stats.resumed,
        stats.retries,
        stats.quarantined,
        stats.skipped
    );
    obs.tracer.flush();
    if let Some(dir) = metrics_dir {
        let snapshot = obs.metrics.snapshot();
        let export = std::fs::create_dir_all(dir).and_then(|_| {
            sim_harness::atomic_write(
                &dir.join(format!("harness_{name}.prom")),
                &sim_metrics::export::render_prometheus(&snapshot),
            )
        });
        if let Err(e) = export {
            eprintln!("experiments: harness metrics export failed: {e}");
        }
    }
    let exit_code = if interrupted {
        sim_harness::signal::EXIT_INTERRUPTED
    } else if !quarantined.is_empty() {
        EXIT_PARTIAL
    } else {
        0
    };
    if let Some(dir) = resume_dir {
        let manifest = CampaignManifest {
            schema_version: experiments::manifest::MANIFEST_SCHEMA_VERSION,
            campaign: name.to_string(),
            interrupted,
            exit_code: exit_code as u32,
            stats: *stats,
            simulated_cycles,
            quarantined: quarantined.to_vec(),
        };
        match manifest.write(dir) {
            Ok(path) => println!("  [campaign manifest -> {}]", path.display()),
            Err(e) => eprintln!("experiments: cannot write campaign manifest: {e}"),
        }
    }
    if interrupted {
        match resume_dir {
            Some(dir) => eprintln!(
                "{name}: interrupted; progress journaled — re-run with --resume {} to continue",
                dir.display()
            ),
            None => eprintln!(
                "{name}: interrupted; re-run with --resume DIR to make campaigns resumable"
            ),
        }
        std::process::exit(exit_code);
    }
    exit_code
}

/// The `bench-baseline` subcommand: run under supervision, report,
/// optionally record and/or gate against a recorded baseline.
#[allow(clippy::too_many_arguments)]
fn run_bench_baseline(
    seeds: u64,
    out: Option<PathBuf>,
    check: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    profile_dir: Option<PathBuf>,
    resume_dir: Option<PathBuf>,
    store_dir: Option<PathBuf>,
    cfg: HarnessConfig,
) {
    let artifact_dir = store_dir
        .as_ref()
        .map(|d| d.join(sim_report::RunStore::ARTIFACT_DIR));
    // With a store, the baseline JSON lands in its artifact directory by
    // default so the store stays self-describing.
    let out = out.or_else(|| artifact_dir.as_ref().map(|d| d.join("BENCH.json")));
    let mut store = open_store_or_exit("bench-baseline", store_dir.as_deref());
    // `--trace` feeds only the campaign-level harness trace; bench runs
    // attach no per-run traces.
    let ctx = experiment_context(
        ExperimentParams::bench(),
        None,
        metrics_dir.as_deref(),
        profile_dir.as_deref(),
        store.as_ref(),
    );
    println!(
        "# smtsim bench-baseline (schema v{}, {} seed(s)/exhibit, warmup {} insts, {} measured cycles/run)\n",
        bench::BENCH_SCHEMA_VERSION,
        seeds,
        ctx.params.warmup_insts,
        ctx.params.run_cycles
    );
    let mut obs = campaign_observers(trace_dir.as_deref(), "bench");
    wire_heartbeat(&ctx, &mut obs);
    let t0 = Instant::now();
    let campaign = match bench::run_bench_supervised(&ctx, seeds, &cfg, &obs, resume_dir.as_deref())
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("bench-baseline: campaign journal failure: {e}");
            std::process::exit(EXIT_FATAL);
        }
    };
    println!("  [bench ran in {:.1?}]", t0.elapsed());
    // Bench digests outcomes itself; the drained manifests only feed
    // run-store registration (when `--store` was given).
    let manifests = ctx.drain_manifests();
    let code = finish_campaign(
        "bench-baseline",
        campaign.interrupted,
        &campaign.stats,
        &campaign.baseline.quarantined,
        campaign.simulated_cycles,
        resume_dir.as_deref(),
        metrics_dir.as_deref(),
        &obs,
    );
    let current = campaign.baseline;
    println!("{}", bench::render(&current));

    if let Some(path) = &out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        match current.write(path) {
            Ok(()) => println!("  [baseline -> {}]", path.display()),
            Err(e) => {
                eprintln!("cannot write baseline {}: {e}", path.display());
                std::process::exit(EXIT_FATAL);
            }
        }
    }
    if let Some(store) = store.as_mut() {
        let artifacts = store.artifact_dir();
        let batch = store.next_batch();
        let dirs = experiments::ArtifactDirs {
            metrics: metrics_dir.clone(),
            profile: profile_dir.clone(),
            trace: trace_dir.clone(),
        };
        let mut registered = 0usize;
        for mut m in manifests {
            m.exhibit = bench_exhibit_for(&m);
            // Persist each bench run's manifest alongside the store so
            // the dashboard can audit provenance.
            let manifest_path = m.write(&artifacts).ok();
            match experiments::register_manifest(
                store,
                batch,
                "bench-baseline",
                &m,
                manifest_path.as_deref(),
                &dirs,
            ) {
                Ok(_) => registered += 1,
                Err(e) => eprintln!("  [run-store registration failed: {e}]"),
            }
        }
        println!(
            "  [{registered} run(s) registered in store {} (batch {batch})]",
            store.root().display()
        );
    }
    if let Some(path) = &check {
        let baseline = match bench::BenchBaseline::load(path) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("cannot load baseline {}: {e}", path.display());
                std::process::exit(EXIT_FATAL);
            }
        };
        let regressions = bench::compare(&baseline, &current);
        if regressions.is_empty() {
            println!(
                "  [baseline check passed against {} ({} exhibit(s))]",
                path.display(),
                baseline.exhibits.len()
            );
        } else {
            eprintln!("baseline check FAILED against {}:", path.display());
            for r in &regressions {
                eprintln!("  - {r}");
            }
            std::process::exit(EXIT_FATAL);
        }
    }
    std::process::exit(code);
}

/// Resolve the exhibit name of one bench-baseline run by matching its
/// (mix, scheme, fetch policy) against the fixed bench case table.
fn bench_exhibit_for(m: &experiments::manifest::RunManifest) -> String {
    bench::bench_cases()
        .iter()
        .find(|c| {
            m.mix == c.mix
                && m.scheme == c.scheme.label()
                && m.fetch_policy == format!("{:?}", c.fetch)
        })
        .map(|c| c.name.to_string())
        .unwrap_or_else(|| "bench".to_string())
}

/// The `fault-inject` subcommand: run the campaigns under supervision,
/// report, optionally record JSON and/or gate on model agreement.
#[allow(clippy::too_many_arguments)]
fn run_fault_inject(
    seeds: u64,
    trials: u64,
    fast: bool,
    out: Option<PathBuf>,
    check_avf: bool,
    trace_dir: Option<PathBuf>,
    metrics_dir: Option<PathBuf>,
    profile_dir: Option<PathBuf>,
    resume_dir: Option<PathBuf>,
    store_dir: Option<PathBuf>,
    cfg: HarnessConfig,
) {
    // With a store, the campaign JSON lands in its artifact directory by
    // default so `report --html` finds the injection outcomes.
    let out = out.or_else(|| {
        store_dir.as_ref().map(|d| {
            d.join(sim_report::RunStore::ARTIFACT_DIR)
                .join("INJECT.json")
        })
    });
    let mut store = open_store_or_exit("fault-inject", store_dir.as_deref());
    let params = if fast {
        ExperimentParams::fast()
    } else {
        ExperimentParams::full()
    };
    let ctx = experiment_context(
        params,
        trace_dir.as_deref(),
        metrics_dir.as_deref(),
        profile_dir.as_deref(),
        store.as_ref(),
    );
    println!(
        "# smtsim fault-inject (schema v{}, {} salt(s), {} IQ trials/campaign, warmup {} insts, {} measured cycles/run)\n",
        faultinject::FAULT_SCHEMA_VERSION,
        seeds,
        trials,
        ctx.params.warmup_insts,
        ctx.params.run_cycles
    );
    let mut obs = campaign_observers(trace_dir.as_deref(), "inject");
    wire_heartbeat(&ctx, &mut obs);
    let t0 = Instant::now();
    let campaign = match faultinject::run_fault_inject_supervised(
        &ctx,
        seeds,
        trials,
        &cfg,
        &obs,
        resume_dir.as_deref(),
    ) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("fault-inject: campaign journal failure: {e}");
            std::process::exit(EXIT_FATAL);
        }
    };
    println!("  [fault-inject ran in {:.1?}]", t0.elapsed());
    let code = finish_campaign(
        "fault-inject",
        campaign.interrupted,
        &campaign.stats,
        &campaign.report.quarantined,
        campaign.simulated_cycles,
        resume_dir.as_deref(),
        metrics_dir.as_deref(),
        &obs,
    );
    let report = campaign.report;
    println!("{}", faultinject::render(&report));

    if let Some(path) = &out {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        match report.write(path) {
            Ok(()) => println!("  [campaign report -> {}]", path.display()),
            Err(e) => {
                eprintln!("cannot write campaign report {}: {e}", path.display());
                std::process::exit(EXIT_FATAL);
            }
        }
    }
    if let Some(store) = store.as_mut() {
        let batch = store.next_batch();
        match experiments::register_inject(
            store,
            batch,
            &report,
            out.as_deref(),
            metrics_dir.as_deref(),
        ) {
            Ok(ids) => println!(
                "  [{} campaign(s) registered in store {} (batch {batch})]",
                ids.len(),
                store.root().display()
            ),
            Err(e) => eprintln!("fault-inject: run-store registration failed: {e}"),
        }
    }
    if check_avf {
        let failures = faultinject::check(&report);
        if failures.is_empty() {
            println!(
                "  [AVF check passed: ACE analysis agrees with injection on all {} campaign(s)]",
                report.campaigns.len()
            );
        } else {
            eprintln!("AVF check FAILED:");
            for f in &failures {
                eprintln!("  - {f}");
            }
            std::process::exit(EXIT_FATAL);
        }
    }
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::{parse_dir, parse_positive};
    use std::path::PathBuf;

    #[test]
    fn positive_integers_parse() {
        assert_eq!(parse_positive("--jobs", Some("1")), Ok(Some(1)));
        assert_eq!(parse_positive("--seeds", Some("42")), Ok(Some(42)));
        assert_eq!(
            parse_positive("--snapshot-every", Some("10000")),
            Ok(Some(10_000))
        );
    }

    #[test]
    fn absent_flag_is_none_not_an_error() {
        assert_eq!(parse_positive("--jobs", None), Ok(None));
    }

    #[test]
    fn zero_is_rejected_with_the_flag_named() {
        let err = parse_positive("--deadline-s", Some("0")).unwrap_err();
        assert!(err.contains("--deadline-s"), "{err}");
        assert!(err.contains("positive"), "{err}");
    }

    #[test]
    fn negative_and_garbage_are_rejected() {
        for bad in ["-3", "abc", "1.5", "", " 7", "0x10", "18446744073709551616"] {
            let err = parse_positive("--jobs", Some(bad))
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("--jobs"), "{err}");
            assert!(err.contains(&format!("{bad:?}")), "{err}");
        }
    }

    #[test]
    fn heartbeat_seconds_validate_like_any_positive_flag() {
        assert_eq!(parse_positive("--heartbeat-s", Some("5")), Ok(Some(5)));
        assert_eq!(parse_positive("--heartbeat-s", None), Ok(None));
        for bad in ["0", "-1", "2.5", "soon"] {
            let err = parse_positive("--heartbeat-s", Some(bad))
                .expect_err(&format!("{bad:?} must be rejected"));
            assert!(err.contains("--heartbeat-s"), "{err}");
        }
    }

    #[test]
    fn profile_dir_accepts_paths_and_rejects_garbage() {
        assert_eq!(
            parse_dir("--profile", Some("out/profiles")),
            Ok(Some(PathBuf::from("out/profiles")))
        );
        assert_eq!(parse_dir("--profile", None), Ok(None));
        let err = parse_dir("--profile", Some("")).unwrap_err();
        assert!(err.contains("--profile"), "{err}");
        assert!(err.contains("empty"), "{err}");
        // The value slot swallowed the next flag: refuse, don't create
        // a directory literally named "--trace".
        let err = parse_dir("--profile", Some("--trace")).unwrap_err();
        assert!(err.contains("--profile"), "{err}");
        assert!(err.contains("--trace"), "{err}");
    }
}
