//! CLI: regenerate the paper's tables, figures and ablations.
//!
//! ```text
//! experiments [--fast] [--list] [--jobs N] [--csv DIR] [--manifest DIR]
//!             [--trace DIR] [--metrics DIR] [--profile DIR] [--store DIR]
//!             [EXHIBIT...]
//! experiments bench-baseline [--seeds N] [--jobs N] [--out FILE]
//!             [--check-baseline FILE] [--resume DIR] [--deadline-s N]
//!             [--snapshot-every CYCLES] [--selfcheck] [--heartbeat-s N]
//!             [--trace DIR] [--metrics DIR] [--profile DIR] [--store DIR]
//! experiments fault-inject [--fast] [--seeds N] [--trials N] [--jobs N]
//!             [--out FILE] [--check-avf] [--resume DIR] [--deadline-s N]
//!             [--heartbeat-s N] [--trace DIR] [--metrics DIR] [--store DIR]
//! experiments report --store DIR [--list] [--diff] [--html FILE]
//!             [--title TITLE] [SEL_A [SEL_B]]
//! experiments chaos [--seed N] [--rounds N] [--scratch DIR] [--out FILE]
//! experiments serve --dir DIR [--addr HOST:PORT] [--serve-workers N]
//!             [--max-queued N] [--deadline-s N] [--drain] [--store DIR]
//! experiments serve-client [--dir DIR] [--addr HOST:PORT] [--name S]
//!             [--kind S] [--seed N] [--steps N] [--payload JSON]
//!             [--priority low|normal|high] [--timeout-s N] VERB [ID]
//! ```
//!
//! The first argument selects the mode; without a mode word the
//! arguments go to the exhibit runner. Flags are per mode: the table in
//! `experiments::cli` lists each mode's flags and the kind of each
//! value, and this synopsis is printed from it. An unknown flag, a flag
//! the mode does not take, a repeated flag, a bad or missing value, a
//! stray positional argument or a missing `--store`/`--dir` exits `1`
//! with the usage text before any simulation starts.
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
//! `--list` prints the exhibit catalog (name + description) and exits
//! (`report --list` lists the run store instead).
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
//! `--store DIR` (exhibits, `bench-baseline`, `fault-inject`, `serve`)
//! registers every finished simulation in the append-only run store
//! `DIR/runs.jsonl` — scheme, seed, config hash, headline metrics, and
//! the paths of whatever artifacts the run exported. When `--store` is
//! given, manifests and `--metrics` default to `DIR/artifacts` so one
//! flag yields a fully chartable store; explicit flags still override.
//! `bench-baseline` defaults `--out` to `DIR/artifacts/BENCH.json` and
//! `fault-inject` to `DIR/artifacts/INJECT.json`, and each fault-inject
//! scheme campaign registers as its own record.
//!
//! `report` reads a store back: `--list` prints the index; `--diff`
//! compares the run selections named by the two positional selectors
//! (`key=value,...` over exhibit/mix/scheme/salt/batch/config, or
//! run-id prefixes) with the `sim_stats::gate` significance gates
//! (simulated metrics as in `--check-baseline`, plus one-sided
//! wall-time and throughput gates) and exits `3` on significant drift;
//! `--html FILE` renders a self-contained dashboard (summary tables,
//! per-interval SVG charts, fault-injection outcome breakdowns,
//! profiler hot spots — no external references).
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
//! Exit codes (the contract in `sim_harness::signal`): `0` success,
//! `1` usage error (bad flags or unknown exhibits — rejected up front
//! before any simulation starts), `2` campaign completed but
//! quarantined at least one job, `3` fatal (I/O failure, a `--check-*`
//! gate regression, or a chaos contract violation), `130` interrupted.

use experiments::cli::{self, Cli, Mode};
use experiments::context::{ExperimentContext, ExperimentParams};
use experiments::manifest::{CampaignManifest, RunManifest, Supervised};
use experiments::{bench, exhibits, faultinject, ArtifactDirs, Rendered};
use sim_harness::signal::{campaign_exit_code, EXIT_FATAL, EXIT_USAGE};
use sim_harness::{HarnessConfig, HarnessObservers, JobError, QuarantineEntry};
use sim_report::RunStore;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn main() {
    sim_harness::signal::install_sigint_handler();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = cli::parse(&args).unwrap_or_else(|msg| usage_error(&msg));
    if let Some(n) = cli.num("--jobs") {
        sim_harness::set_default_jobs(n as usize);
    }
    let code = match cli.mode {
        Mode::Exhibits => run_exhibits(&cli),
        Mode::BenchBaseline => bench_baseline(&cli),
        Mode::FaultInject => fault_inject(&cli),
        Mode::Report => experiments::cmd_report(&experiments::ReportArgs {
            store: cli.path("--store").expect("--store is required"),
            list: cli.switch("--list"),
            diff: cli.switch("--diff"),
            selectors: cli.positionals.clone(),
            html: cli.path("--html"),
            title: cli.text("--title"),
        }),
        Mode::Chaos => experiments::cmd_chaos(&experiments::ChaosArgs {
            seed: cli.num("--seed").unwrap_or(0),
            rounds: cli.num("--rounds").unwrap_or(20),
            scratch: cli.path("--scratch"),
            out: cli.path("--out"),
        }),
        Mode::Serve => experiments::cmd_serve(&experiments::ServeArgs {
            dir: cli.path("--dir").expect("--dir is required"),
            addr: cli.text("--addr"),
            workers: cli.num("--serve-workers"),
            max_queued: cli.num("--max-queued"),
            deadline: cli.num("--deadline-s").map(Duration::from_secs),
            drain: cli.switch("--drain"),
            store: cli.path("--store"),
        }),
        Mode::ServeClient => {
            let Some(verb) = cli.positionals.first() else {
                usage_error("serve-client wants a verb (submit|status|list|results|cancel|stats|wait|healthz|shutdown)");
            };
            let id = cli.positionals.get(1).map(|raw| {
                raw.parse::<u64>().unwrap_or_else(|_| {
                    usage_error(&format!(
                        "serve-client {verb} wants a numeric job id, got {raw:?}"
                    ))
                })
            });
            experiments::cmd_serve_client(&experiments::ServeClientArgs {
                dir: cli.path("--dir"),
                addr: cli.text("--addr"),
                verb: verb.clone(),
                id,
                name: cli.text("--name").unwrap_or_else(|| "job".to_string()),
                kind: cli
                    .text("--kind")
                    .unwrap_or_else(|| "synthetic".to_string()),
                seed: cli.num("--seed").unwrap_or(0),
                steps: cli.num("--steps").unwrap_or(100),
                payload: cli.text("--payload").unwrap_or_default(),
                priority: cli
                    .text("--priority")
                    .unwrap_or_else(|| "normal".to_string()),
                timeout: Duration::from_secs(cli.num("--timeout-s").unwrap_or(120)),
            })
        }
    };
    std::process::exit(code);
}

/// Reject the command line: the reason, then the usage text, exit 1.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    eprint!("{}", cli::usage());
    std::process::exit(EXIT_USAGE);
}

fn budget(fast: bool) -> ExperimentParams {
    if fast {
        ExperimentParams::fast()
    } else {
        ExperimentParams::full()
    }
}

/// The exhibit runner: run each requested exhibit, print its tables
/// and write/register its runs.
fn run_exhibits(cli: &Cli) -> i32 {
    if cli.switch("--list") {
        print!("{}", exhibits::list_text());
        return 0;
    }
    let requested: Vec<&str> = cli.positionals.iter().map(String::as_str).collect();
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
        return EXIT_USAGE;
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

    let fast = cli.switch("--fast");
    let params = budget(fast);
    let mut out = Outputs::open(cli, "experiments");
    let ctx = out.context(params, true);
    println!(
        "# smtsim experiment campaign ({} budget: warmup {} insts, {} measured cycles/run)\n",
        if fast { "fast" } else { "full" },
        params.warmup_insts,
        params.run_cycles
    );
    let csv_dir = cli.path("--csv");
    for exhibit in wanted {
        let t0 = Instant::now();
        let rendered = exhibits::find(exhibit).expect("validated above").run(&ctx);
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
        // Drain per-run manifests accumulated by this exhibit; write
        // them out if requested, otherwise discard to bound memory.
        let manifests = ctx.drain_manifests();
        let mut stages = sim_trace::timing::StageSeconds::default();
        let mut profiled = 0usize;
        for s in manifests.iter().filter_map(|m| m.stage_seconds.as_ref()) {
            stages.add(s);
            profiled += 1;
        }
        let recorded = out.record(manifests, "exhibit", |_| exhibit.to_string());
        if recorded.written > 0 {
            let phases = recorded.phases;
            println!(
                "  [{} manifest(s) -> {}; phases: generate {:.2}s, warmup {:.2}s, measure {:.2}s, collect {:.2}s]",
                recorded.written,
                out.manifest.as_deref().unwrap_or(Path::new("?")).display(),
                phases.generate_s,
                phases.warmup_s,
                phases.measure_s,
                phases.collect_s
            );
        }
        if recorded.registered > 0 {
            out.print_registered(&format!("{} run(s)", recorded.registered));
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
    0
}

/// Where one invocation's results go: the `--store` run store (with
/// one batch number for everything the invocation registers), the
/// manifest directory and the per-run artifact directories. With a
/// store, manifests and metrics default into its artifact directory so
/// one `--store` flag yields a chartable store; explicit flags win.
struct Outputs {
    store: Option<RunStore>,
    batch: u64,
    manifest: Option<PathBuf>,
    dirs: ArtifactDirs,
}

/// What [`Outputs::record`] did with a batch of run manifests.
struct Recorded {
    written: usize,
    registered: usize,
    phases: sim_trace::timing::PhaseTimings,
}

impl Outputs {
    /// Open the store (exiting `EXIT_FATAL` with a `who`-prefixed
    /// diagnostic when it cannot be opened) and resolve the directories.
    fn open(cli: &Cli, who: &str) -> Outputs {
        let store_dir = cli.path("--store");
        let artifacts = store_dir.as_ref().map(|d| d.join(RunStore::ARTIFACT_DIR));
        let store = store_dir.map(|dir| {
            RunStore::open(&dir).unwrap_or_else(|e| {
                eprintln!("{who}: cannot open run store {}: {e}", dir.display());
                std::process::exit(EXIT_FATAL);
            })
        });
        Outputs {
            batch: store.as_ref().map_or(0, RunStore::next_batch),
            manifest: cli.path("--manifest").or_else(|| artifacts.clone()),
            dirs: ArtifactDirs {
                metrics: cli.path("--metrics").or(artifacts),
                profile: cli.path("--profile"),
                trace: cli.path("--trace"),
            },
            store,
        }
    }

    /// The experiment context for `params` with this invocation's
    /// exporters (per-run traces only when `run_traces`). With a store,
    /// run ids start past its records so artifact names never collide.
    fn context(&self, params: ExperimentParams, run_traces: bool) -> ExperimentContext {
        let mut ctx = ExperimentContext::new(params);
        if let Some(dir) = self.dirs.trace.as_ref().filter(|_| run_traces) {
            ctx = ctx.with_trace_dir(dir);
        }
        if let Some(dir) = &self.dirs.metrics {
            ctx = ctx.with_metrics_dir(dir);
        }
        if let Some(dir) = &self.dirs.profile {
            ctx = ctx.with_profile_dir(dir);
        }
        if let Some(store) = &self.store {
            ctx.set_run_id_base(store.next_seq());
        }
        ctx
    }

    /// Name each run's exhibit, write its manifest into the manifest
    /// directory and register it in the store, as far as either is set.
    fn record(
        &mut self,
        manifests: Vec<RunManifest>,
        mode: &str,
        exhibit: impl Fn(&RunManifest) -> String,
    ) -> Recorded {
        let mut recorded = Recorded {
            written: 0,
            registered: 0,
            phases: Default::default(),
        };
        for mut m in manifests {
            m.exhibit = exhibit(&m);
            recorded.phases.generate_s += m.timings.generate_s;
            recorded.phases.warmup_s += m.timings.warmup_s;
            recorded.phases.measure_s += m.timings.measure_s;
            recorded.phases.collect_s += m.timings.collect_s;
            let path = self.manifest.as_ref().and_then(|dir| match m.write(dir) {
                Ok(path) => {
                    recorded.written += 1;
                    Some(path)
                }
                Err(e) => {
                    eprintln!("  [manifest export failed: {e}]");
                    None
                }
            });
            if let Some(store) = self.store.as_mut() {
                let path = path.as_deref();
                match experiments::register_manifest(store, self.batch, mode, &m, path, &self.dirs)
                {
                    Ok(_) => recorded.registered += 1,
                    Err(e) => eprintln!("  [run-store registration failed: {e}]"),
                }
            }
        }
        recorded
    }

    fn print_registered(&self, what: &str) {
        if let Some(store) = &self.store {
            println!(
                "  [{what} registered in store {} (batch {})]",
                store.root().display(),
                self.batch
            );
        }
    }
}

/// What a campaign subcommand supplies to [`run_campaign`], which runs
/// the sequence they share.
#[allow(clippy::type_complexity)]
struct Campaign<'a, R> {
    /// Subcommand name: diagnostics, `campaign.json`, `harness_*.prom`.
    name: &'static str,
    /// Harness Chrome trace name (`harness_{trace}.trace.json`).
    trace: &'static str,
    /// Default `--out` file under the store's artifact directory.
    out_file: &'static str,
    /// What `--out` holds, for its diagnostics.
    out_what: &'static str,
    params: ExperimentParams,
    /// Whether runs export per-run traces under `--trace` (otherwise it
    /// feeds only the harness trace).
    run_traces: bool,
    /// The subcommand's part of the header line.
    header: String,
    run: &'a dyn Fn(
        &ExperimentContext,
        &HarnessConfig,
        &HarnessObservers,
        Option<&Path>,
    ) -> Result<Supervised<R>, JobError>,
    quarantined: fn(&R) -> &[QuarantineEntry],
    render: fn(&R) -> Rendered,
    write: fn(&R, &Path) -> std::io::Result<()>,
    /// Register the campaign in the store; `Some(what)` names what was
    /// registered.
    register: &'a dyn Fn(&mut Outputs, &ExperimentContext, &R, Option<&Path>) -> Option<String>,
    /// The `--check-*` gate: `false` (after printing why) fails the run.
    gate: &'a dyn Fn(&R) -> bool,
}

/// Run a campaign subcommand: open the store, build the context, run
/// the jobs under supervision with observers and heartbeat, write
/// `campaign.json`, then print, write, register and gate the report.
fn run_campaign<R>(cli: &Cli, c: Campaign<R>) -> i32 {
    let mut out = Outputs::open(cli, c.name);
    // With a store, the report lands in its artifact directory by
    // default so the store stays self-describing.
    let path = cli.path("--out").or_else(|| {
        out.store
            .as_ref()
            .map(|s| s.artifact_dir().join(c.out_file))
    });
    let resume = cli.path("--resume");
    let resume = resume.as_deref();
    let ctx = out.context(c.params, c.run_traces);
    println!(
        "# smtsim {} ({}, warmup {} insts, {} measured cycles/run)\n",
        c.name, c.header, c.params.warmup_insts, c.params.run_cycles
    );
    // A live metrics registry, so `harness.*` counters are always
    // collected, and a Chrome tracer for job lifecycle events.
    let tracer = match &out.dirs.trace {
        Some(dir) if std::fs::create_dir_all(dir).is_ok() => {
            let path = dir.join(format!("harness_{}.trace.json", c.trace));
            sim_trace::Tracer::new(sim_trace::chrome::ChromeTraceSink::new(path))
        }
        _ => sim_trace::Tracer::off(),
    };
    // One campaign-wide cycle counter: the context's runs feed it
    // through their pipelines' interval clocks, the harness reads it
    // for the heartbeat and `campaign.json`'s `simulated_cycles`.
    // Always on: one atomic add per 10K simulated cycles per job, and
    // the fleet-throughput figure should not depend on `--heartbeat-s`.
    let progress = Arc::new(AtomicU64::new(0));
    ctx.set_progress_counter(Arc::clone(&progress));
    let obs = HarnessObservers {
        metrics: sim_metrics::Metrics::new(),
        tracer,
        shutdown: None, // None → the process SIGINT flag
        progress: Some(progress),
    };
    let cfg = HarnessConfig {
        deadline: cli.num("--deadline-s").map(Duration::from_secs),
        snapshot_every: cli.num("--snapshot-every"),
        selfcheck: cli.switch("--selfcheck"),
        heartbeat: cli.num("--heartbeat-s").map(Duration::from_secs),
        ..HarnessConfig::default()
    };
    let t0 = Instant::now();
    let campaign = (c.run)(&ctx, &cfg, &obs, resume).unwrap_or_else(|e| {
        eprintln!("{}: campaign journal failure: {e}", c.name);
        std::process::exit(EXIT_FATAL);
    });
    println!("  [{} ran in {:.1?}]", c.name, t0.elapsed());

    let stats = campaign.stats;
    println!(
        "  [harness: {} completed ({} from journal), {} retries, {} quarantined, {} skipped]",
        stats.completed + stats.resumed,
        stats.resumed,
        stats.retries,
        stats.quarantined,
        stats.skipped
    );
    obs.tracer.flush();
    if let Some(dir) = &out.dirs.metrics {
        let snapshot = obs.metrics.snapshot();
        let base = format!("harness_{}", c.name);
        if let Err(e) = experiments::runner::export_prometheus(dir, &base, &snapshot) {
            eprintln!("experiments: harness metrics export failed: {e}");
        }
    }
    let quarantined = (c.quarantined)(&campaign.report);
    let code = campaign_exit_code(campaign.interrupted, !quarantined.is_empty());
    if let Some(dir) = resume {
        let manifest = CampaignManifest {
            schema_version: experiments::manifest::MANIFEST_SCHEMA_VERSION,
            campaign: c.name.to_string(),
            interrupted: campaign.interrupted,
            exit_code: code as u32,
            stats,
            simulated_cycles: campaign.simulated_cycles,
            quarantined: quarantined.to_vec(),
        };
        match manifest.write(dir) {
            Ok(path) => println!("  [campaign manifest -> {}]", path.display()),
            Err(e) => eprintln!("experiments: cannot write campaign manifest: {e}"),
        }
    }
    if campaign.interrupted {
        match resume {
            Some(dir) => eprintln!(
                "{}: interrupted; progress journaled — re-run with --resume {} to continue",
                c.name,
                dir.display()
            ),
            None => eprintln!(
                "{}: interrupted; re-run with --resume DIR to make campaigns resumable",
                c.name
            ),
        }
        return code;
    }

    let report = campaign.report;
    println!("{}", (c.render)(&report));
    if let Some(path) = &path {
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent).ok();
        }
        match (c.write)(&report, path) {
            Ok(()) => println!("  [{} -> {}]", c.out_what, path.display()),
            Err(e) => {
                eprintln!("cannot write {} {}: {e}", c.out_what, path.display());
                return EXIT_FATAL;
            }
        }
    }
    if out.store.is_some() {
        if let Some(what) = (c.register)(&mut out, &ctx, &report, path.as_deref()) {
            out.print_registered(&what);
        }
    }
    if !(c.gate)(&report) {
        return EXIT_FATAL;
    }
    code
}

/// `bench-baseline`: the fixed regression exhibit set over `--seeds`
/// workload salts, optionally gated against `--check-baseline`.
fn bench_baseline(cli: &Cli) -> i32 {
    let seeds = cli.num("--seeds").unwrap_or(3);
    let check = cli.path("--check-baseline");
    run_campaign(
        cli,
        Campaign {
            name: "bench-baseline",
            trace: "bench",
            out_file: "BENCH.json",
            out_what: "baseline",
            params: ExperimentParams::bench(),
            run_traces: false,
            header: format!(
                "schema v{}, {seeds} seed(s)/exhibit",
                bench::BENCH_SCHEMA_VERSION
            ),
            run: &|ctx, cfg, obs, resume| bench::run_bench_supervised(ctx, seeds, cfg, obs, resume),
            quarantined: |b| &b.quarantined,
            render: bench::render,
            write: bench::BenchBaseline::write,
            // One record per bench run, its manifest kept in the store's
            // artifact directory so the dashboard can audit provenance.
            register: &|out, ctx, _, _| {
                let recorded =
                    out.record(ctx.drain_manifests(), "bench-baseline", bench_exhibit_for);
                Some(format!("{} run(s)", recorded.registered))
            },
            gate: &|current| {
                let Some(path) = &check else {
                    return true;
                };
                let baseline = match bench::BenchBaseline::load(path) {
                    Ok(b) => b,
                    Err(e) => {
                        eprintln!("cannot load baseline {}: {e}", path.display());
                        return false;
                    }
                };
                let regressions = bench::compare(&baseline, current);
                if regressions.is_empty() {
                    println!(
                        "  [baseline check passed against {} ({} exhibit(s))]",
                        path.display(),
                        baseline.exhibits.len()
                    );
                    return true;
                }
                eprintln!("baseline check FAILED against {}:", path.display());
                for r in &regressions {
                    eprintln!("  - {r}");
                }
                false
            },
        },
    )
}

/// Resolve the exhibit name of one bench-baseline run by matching its
/// (mix, scheme, fetch policy) against the fixed bench case table.
fn bench_exhibit_for(m: &RunManifest) -> String {
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

/// `fault-inject`: {baseline, DVM} SEU campaigns per workload salt,
/// optionally gated on ACE-analysis/injection agreement.
fn fault_inject(cli: &Cli) -> i32 {
    let seeds = cli.num("--seeds").unwrap_or(3);
    let trials = cli.num("--trials").unwrap_or(120);
    let check = cli.switch("--check-avf");
    run_campaign(
        cli,
        Campaign {
            name: "fault-inject",
            trace: "inject",
            out_file: "INJECT.json",
            out_what: "campaign report",
            params: budget(cli.switch("--fast")),
            run_traces: true,
            header: format!(
                "schema v{}, {seeds} salt(s), {trials} IQ trials/campaign",
                faultinject::FAULT_SCHEMA_VERSION
            ),
            run: &|ctx, cfg, obs, resume| {
                faultinject::run_fault_inject_supervised(ctx, seeds, trials, cfg, obs, resume)
            },
            quarantined: |r| &r.quarantined,
            render: faultinject::render,
            write: experiments::FaultInjectReport::write,
            // One record per scheme campaign.
            register: &|out, _, report, path| {
                let store = out.store.as_mut()?;
                let metrics = out.dirs.metrics.as_deref();
                match experiments::register_inject(store, out.batch, report, path, metrics) {
                    Ok(ids) => Some(format!("{} campaign(s)", ids.len())),
                    Err(e) => {
                        eprintln!("fault-inject: run-store registration failed: {e}");
                        None
                    }
                }
            },
            gate: &|report| {
                if !check {
                    return true;
                }
                let failures = faultinject::check(report);
                if failures.is_empty() {
                    println!(
                        "  [AVF check passed: ACE analysis agrees with injection on all {} campaign(s)]",
                        report.campaigns.len()
                    );
                    return true;
                }
                eprintln!("AVF check FAILED:");
                for f in &failures {
                    eprintln!("  - {f}");
                }
                false
            },
        },
    )
}
