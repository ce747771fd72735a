//! `bench-baseline` — the simulated-metric drift gate.
//!
//! Runs a fixed, scheme-diverse exhibit set (baseline, opt1, opt2 and
//! DVM, over CPU- and MEM-bound mixes) across N workload salts and
//! records, per exhibit, the cross-seed [`SeedSummary`] of throughput
//! IPC, harmonic IPC and ground-truth IQ AVF into a schema-versioned
//! `BENCH_<tag>.json`. A later run compares itself against that file
//! with [`compare`]: each metric is gated two-sided at 2 % *and* beyond
//! the combined 95 % confidence intervals — a drift smaller than the
//! seed noise is not a regression, it is weather. Host speed is not
//! gated here; `perfbench` owns throughput.

use crate::checkpoint::{CheckpointPolicy, DEFAULT_SNAPSHOT_EVERY};
use crate::context::ExperimentContext;
use crate::manifest::{BudgetSummary, Supervised};
use crate::report::Rendered;
use crate::runner::{drive, RunVariant};
use iq_reliability::Scheme;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim_harness::{
    fnv1a, run_journaled_in, run_supervised, HarnessConfig, HarnessObservers, JobError, JobKey,
    Journal, QuarantineEntry, SnapshotStore,
};
use sim_stats::{gate, SeedSummary, Table};
use smt_sim::FetchPolicyKind;
use std::io;
use std::path::Path;

/// Bump when the JSON layout changes; [`compare`] refuses mismatches.
/// v2: campaigns run under the `sim-harness` supervisor and the file
/// gained an explicit `quarantined` section.
/// v3: samples and exhibits carry simulator throughput
/// (`cycles_per_sec`), gated one-sided on `--check-baseline`.
/// v4: host wall time and throughput are gone; only simulated metrics
/// are recorded and gated.
pub const BENCH_SCHEMA_VERSION: u32 = 4;

/// One fixed benchmark case.
pub struct BenchCase {
    pub name: &'static str,
    pub mix: &'static str,
    pub scheme: Scheme,
    pub fetch: FetchPolicyKind,
}

/// The fixed exhibit set: one representative per governor family, over
/// both CPU- and MEM-bound mixes.
pub fn bench_cases() -> Vec<BenchCase> {
    vec![
        BenchCase {
            name: "fig2-cpu-baseline",
            mix: "CPU-A",
            scheme: Scheme::Baseline,
            fetch: FetchPolicyKind::Icount,
        },
        BenchCase {
            name: "opt1-mix",
            mix: "MIX-A",
            scheme: Scheme::VisaOpt1,
            fetch: FetchPolicyKind::Icount,
        },
        BenchCase {
            name: "opt2-flush-mem",
            mix: "MEM-B",
            scheme: Scheme::VisaOpt2,
            fetch: FetchPolicyKind::Flush,
        },
        BenchCase {
            name: "dvm-mem",
            mix: "MEM-A",
            scheme: Scheme::DvmDynamic { target: 0.15 },
            fetch: FetchPolicyKind::Icount,
        },
    ]
}

/// Cross-seed digest of one bench case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchExhibit {
    pub name: String,
    pub mix: String,
    pub scheme: String,
    pub fetch: String,
    pub throughput_ipc: SeedSummary,
    pub harmonic_ipc: SeedSummary,
    pub iq_avf: SeedSummary,
}

/// A whole baseline file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchBaseline {
    pub schema_version: u32,
    /// Seeded runs aggregated per exhibit.
    pub seeds: u64,
    /// Measurement budget every run used (compared on `--check-baseline`:
    /// numbers from different budgets are not comparable).
    pub budget: BudgetSummary,
    pub exhibits: Vec<BenchExhibit>,
    /// Jobs the supervisor gave up on (exhausted retries); their samples
    /// are missing from the exhibit summaries above. Empty on a healthy
    /// campaign.
    pub quarantined: Vec<QuarantineEntry>,
}

impl BenchBaseline {
    /// Atomic write (`.tmp` + rename): readers and resumed campaigns
    /// never observe a torn baseline file.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        sim_harness::atomic_write(path, &serde::json::to_string_pretty(self))
    }

    pub fn load(path: &Path) -> io::Result<BenchBaseline> {
        let text = std::fs::read_to_string(path)?;
        serde::json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
    }

    pub fn exhibit(&self, name: &str) -> Option<&BenchExhibit> {
        self.exhibits.iter().find(|e| e.name == name)
    }
}

/// The per-job journal payload: the scalar samples one `(case, salt)`
/// simulation contributes to its exhibit's cross-seed summary. This is
/// what checkpoint–resume replays, so it must stay serializable and
/// stable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSample {
    /// Index into [`bench_cases`].
    pub case: u64,
    pub salt: u64,
    pub throughput_ipc: f64,
    pub harmonic_ipc: f64,
    pub iq_avf: f64,
}

/// Config-hash input for bench job keys: anything that changes the
/// meaning of a `(case, salt)` result must appear here so stale journal
/// records are invalidated rather than replayed.
fn bench_config_hash(ctx: &ExperimentContext, case: &BenchCase) -> u64 {
    fnv1a(&format!(
        "bench-v{}|{}|{}|{:?}|{:?}|p{}w{}r{}a{}",
        BENCH_SCHEMA_VERSION,
        case.name,
        case.mix,
        case.scheme.label(),
        case.fetch,
        ctx.params.profile_insts,
        ctx.params.warmup_insts,
        ctx.params.run_cycles,
        ctx.params.ace_window,
    ))
}

/// Run the fixed exhibit set across `seeds` workload salts under the
/// campaign supervisor and digest the results. Runs fan out across the
/// worker pool; per-exhibit sample order is restored afterwards so the
/// output is deterministic per (budget, seeds) regardless of
/// scheduling. With `journal_dir` set, completed jobs are checkpointed
/// to (and replayed from) `journal_dir/journal.jsonl`.
pub fn run_bench_supervised(
    ctx: &ExperimentContext,
    seeds: u64,
    cfg: &HarnessConfig,
    obs: &HarnessObservers,
    journal_dir: Option<&Path>,
) -> Result<Supervised<BenchBaseline>, JobError> {
    let seeds = seeds.max(1);
    let cases = bench_cases();
    let jobs: Vec<(JobKey, (usize, u64))> = (0..cases.len())
        .flat_map(|c| (0..seeds).map(move |s| (c, s)))
        .map(|(c, salt)| {
            (
                JobKey::new(
                    "bench-baseline",
                    cases[c].name,
                    salt,
                    bench_config_hash(ctx, &cases[c]),
                ),
                (c, salt),
            )
        })
        .collect();

    // With a journal directory, jobs run checkpointed: the journal is
    // opened here (not inside `run_journaled`) so the job closures can
    // append `checkpointed` markers to the same serialized stream the
    // supervisor appends `done` records to.
    let journal: Option<Mutex<Journal>> = match journal_dir {
        Some(dir) => Some(Mutex::new(Journal::open(dir)?)),
        None => None,
    };

    let job = |&(c, salt): &(usize, u64), jctx: &sim_harness::JobCtx| {
        let case = &cases[c];
        let mix = workload_gen::mix_by_name(case.mix)
            .unwrap_or_else(|| panic!("unknown bench mix {}", case.mix));
        let key = JobKey::new(
            "bench-baseline",
            case.name,
            salt,
            bench_config_hash(ctx, case),
        );
        // With a journal, the job checkpoints into its own snapshot
        // store and marks each durable snapshot in the journal.
        let store = journal_dir.map(|dir| SnapshotStore::new(dir, &key.slug()));
        let policy = store.as_ref().map(|store| CheckpointPolicy {
            store,
            every: jctx.snapshot_every.unwrap_or(DEFAULT_SNAPSHOT_EVERY),
            selfcheck: jctx.selfcheck,
            metrics: &obs.metrics,
        });
        let mut mark = |cycle: u64| {
            if let Some(journal) = &journal {
                if journal.lock().record_checkpoint(&key, &cycle).is_err() {
                    obs.metrics.counter_add("harness.journal.write_errors", 1);
                }
            }
        };
        let out = drive(
            ctx,
            &mix,
            &RunVariant::from(case.scheme),
            case.fetch,
            salt,
            Some(jctx.cancel.clone()),
            policy
                .as_ref()
                .map(|p| (p, &mut mark as &mut dyn FnMut(u64))),
        )?;
        if let Some(store) = &store {
            if !out.cancelled && !out.deadlocked {
                // The final sample supersedes the snapshots; drop them
                // so a finished campaign leaves no dead weight.
                let _ = store.clear();
            }
        }
        if out.cancelled {
            // Only the deadline monitor cancels; the supervisor
            // re-classifies this with the configured limit.
            return Err(JobError::Deadline { limit_ms: 0 });
        }
        if out.deadlocked {
            return Err(JobError::Watchdog {
                detail: format!(
                    "{} salt {salt}: commit watchdog tripped during measurement",
                    case.name
                ),
            });
        }
        Ok(BenchSample {
            case: c as u64,
            salt,
            throughput_ipc: out.throughput_ipc,
            harmonic_ipc: out.harmonic_ipc,
            iq_avf: out.avf.iq_avf,
        })
    };

    let outcome = match &journal {
        Some(j) => run_journaled_in(j, jobs, job, cfg, obs)?,
        None => run_supervised(jobs, job, cfg, obs, |_, _: &BenchSample| {}),
    };

    // Slot order is case-major, salt-minor, so filtering by case keeps
    // samples in ascending-salt order — the float summation order the
    // summaries depend on for cross-run determinism.
    let samples: Vec<&BenchSample> = outcome.values();
    let exhibits = cases
        .iter()
        .enumerate()
        .map(|(c, case)| {
            let runs: Vec<&&BenchSample> = samples.iter().filter(|s| s.case == c as u64).collect();
            let col = |f: &dyn Fn(&BenchSample) -> f64| {
                SeedSummary::from_samples(&runs.iter().map(|s| f(s)).collect::<Vec<_>>())
            };
            BenchExhibit {
                name: case.name.to_string(),
                mix: case.mix.to_string(),
                scheme: case.scheme.label().to_string(),
                fetch: format!("{:?}", case.fetch),
                throughput_ipc: col(&|s| s.throughput_ipc),
                harmonic_ipc: col(&|s| s.harmonic_ipc),
                iq_avf: col(&|s| s.iq_avf),
            }
        })
        .collect();

    Ok(Supervised {
        report: BenchBaseline {
            schema_version: BENCH_SCHEMA_VERSION,
            seeds,
            budget: BudgetSummary {
                profile_insts: ctx.params.profile_insts,
                warmup_insts: ctx.params.warmup_insts,
                run_cycles: ctx.params.run_cycles,
                ace_window: ctx.params.ace_window as u64,
            },
            exhibits,
            quarantined: outcome.quarantine.clone(),
        },
        stats: outcome.stats,
        interrupted: outcome.interrupted,
        simulated_cycles: outcome.simulated_cycles,
    })
}

/// The campaign-report table: one row per exhibit, `mean ± ci95` cells.
pub fn render(b: &BenchBaseline) -> Rendered {
    let mut t = Table::new(vec![
        "exhibit",
        "mix",
        "scheme",
        "fetch",
        "IPC",
        "harmonic IPC",
        "IQ AVF",
    ]);
    for e in &b.exhibits {
        t.row(vec![
            e.name.clone(),
            e.mix.clone(),
            e.scheme.clone(),
            e.fetch.clone(),
            e.throughput_ipc.display(3),
            e.harmonic_ipc.display(3),
            e.iq_avf.display(4),
        ]);
    }
    let mut rendered = Rendered::new(
        format!(
            "Bench baseline (schema v{}, {} seed(s)/exhibit)",
            b.schema_version, b.seeds
        ),
        t,
    )
    .note(
        "cells are cross-seed mean ±CI95 (Student-t) over independently salted workloads"
            .to_string(),
    );
    if !b.quarantined.is_empty() {
        let mut lines: Vec<String> = b
            .quarantined
            .iter()
            .map(|q| format!("{} ({} failure(s): {})", q.key, q.failures, q.error))
            .collect();
        lines.sort();
        rendered = rendered.note(format!(
            "QUARANTINED {} job(s), samples missing from the summaries: {}",
            b.quarantined.len(),
            lines.join("; ")
        ));
    }
    rendered
}

/// Compare `current` against a recorded `baseline`. Returns one line
/// per regression; empty means the check passed.
pub fn compare(baseline: &BenchBaseline, current: &BenchBaseline) -> Vec<String> {
    let mut out = Vec::new();
    if baseline.schema_version != current.schema_version {
        out.push(format!(
            "schema version mismatch: baseline v{}, current v{} — re-record the baseline",
            baseline.schema_version, current.schema_version
        ));
        return out;
    }
    if baseline.budget != current.budget {
        out.push(format!(
            "budget mismatch: baseline {:?}, current {:?} — re-record the baseline",
            baseline.budget, current.budget
        ));
        return out;
    }
    if !current.quarantined.is_empty() {
        out.push(format!(
            "current run quarantined {} job(s); its summaries are missing samples and cannot be compared",
            current.quarantined.len()
        ));
    }
    for base in &baseline.exhibits {
        let Some(cur) = current.exhibit(&base.name) else {
            out.push(format!("exhibit {} missing from current run", base.name));
            continue;
        };
        for (metric, b, c) in [
            ("throughput IPC", &base.throughput_ipc, &cur.throughput_ipc),
            ("harmonic IPC", &base.harmonic_ipc, &cur.harmonic_ipc),
            ("IQ AVF", &base.iq_avf, &cur.iq_avf),
        ] {
            if let Some(line) = metric_drift(&base.name, metric, b, c) {
                out.push(line);
            }
        }
    }
    for cur in &current.exhibits {
        if baseline.exhibit(&cur.name).is_none() {
            out.push(format!("exhibit {} absent from baseline", cur.name));
        }
    }
    out
}

/// Two-sided metric gate: relative drift beyond [`gate::METRIC_TOLERANCE`]
/// *and* beyond the combined CI95 half-widths (so seed noise recorded
/// in the baseline widens the gate instead of tripping it). The math is
/// [`gate::metric_regresses`]; this wrapper renders the failure line.
fn metric_drift(
    exhibit: &str,
    metric: &str,
    base: &SeedSummary,
    cur: &SeedSummary,
) -> Option<String> {
    gate::metric_regresses(base, cur, gate::METRIC_TOLERANCE).map(|d| {
        format!(
            "{exhibit}: {metric} drifted {:.2}% ({} -> {}; combined CI95 {:.4})",
            d.rel.abs() * 100.0,
            base.display(4),
            cur.display(4),
            d.combined_ci95
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(mean: f64, ci95: f64) -> SeedSummary {
        SeedSummary {
            n: 3,
            mean,
            stddev: ci95 / 2.0,
            ci95,
        }
    }

    fn exhibit(name: &str) -> BenchExhibit {
        BenchExhibit {
            name: name.to_string(),
            mix: "CPU-A".to_string(),
            scheme: "baseline".to_string(),
            fetch: "Icount".to_string(),
            throughput_ipc: summary(3.0, 0.01),
            harmonic_ipc: summary(0.7, 0.005),
            iq_avf: summary(0.30, 0.002),
        }
    }

    fn baseline() -> BenchBaseline {
        BenchBaseline {
            schema_version: BENCH_SCHEMA_VERSION,
            seeds: 3,
            budget: BudgetSummary {
                profile_insts: 60_000,
                warmup_insts: 150_000,
                run_cycles: 120_000,
                ace_window: 40_000,
            },
            exhibits: vec![exhibit("fig2-cpu-baseline"), exhibit("dvm-mem")],
            quarantined: Vec::new(),
        }
    }

    #[test]
    fn identical_runs_pass() {
        let b = baseline();
        assert!(compare(&b, &b.clone()).is_empty());
    }

    #[test]
    fn metric_gate_needs_both_tolerance_and_ci_excess() {
        let b = baseline();
        // 1% IPC drift: inside tolerance, passes.
        let mut small = b.clone();
        small.exhibits[0].throughput_ipc = summary(3.03, 0.01);
        assert!(compare(&b, &small).is_empty());
        // 10% drift but huge CIs: noise, passes.
        let mut noisy = b.clone();
        noisy.exhibits[0].throughput_ipc = summary(3.3, 0.4);
        let mut wide_base = b.clone();
        wide_base.exhibits[0].throughput_ipc = summary(3.0, 0.4);
        assert!(compare(&wide_base, &noisy).is_empty());
        // 10% drift with tight CIs: regression, both directions.
        let mut real = b.clone();
        real.exhibits[0].throughput_ipc = summary(2.7, 0.01);
        let regressions = compare(&b, &real);
        assert_eq!(regressions.len(), 1, "{regressions:?}");
        assert!(regressions[0].contains("throughput IPC"));
    }

    #[test]
    fn schema_and_budget_mismatches_fail_fast() {
        let b = baseline();
        let mut other = b.clone();
        other.schema_version += 1;
        let r = compare(&b, &other);
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("schema version"));
        let mut rebudgeted = b.clone();
        rebudgeted.budget.run_cycles *= 2;
        let r = compare(&b, &rebudgeted);
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("budget mismatch"));
    }

    #[test]
    fn exhibit_set_differences_are_reported() {
        let b = baseline();
        let mut missing = b.clone();
        missing.exhibits.pop();
        let r = compare(&b, &missing);
        assert!(r.iter().any(|l| l.contains("missing from current")));
        let r = compare(&missing, &b);
        assert!(r.iter().any(|l| l.contains("absent from baseline")));
    }

    #[test]
    fn baseline_roundtrips_through_file() {
        let b = baseline();
        let path = std::env::temp_dir().join("smtsim_bench_roundtrip.json");
        b.write(&path).unwrap();
        let back = BenchBaseline::load(&path).unwrap();
        assert_eq!(back, b);
        std::fs::remove_file(&path).ok();
        assert!(BenchBaseline::load(&path).is_err(), "missing file errors");
    }

    #[test]
    fn bench_cases_cover_all_governor_families() {
        let cases = bench_cases();
        let mut names: Vec<_> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cases.len(), "duplicate case name");
        for mix in ["CPU-A", "MIX-A", "MEM-A", "MEM-B"] {
            assert!(cases.iter().any(|c| c.mix == mix), "{mix} missing");
            assert!(workload_gen::mix_by_name(mix).is_some());
        }
        assert!(cases
            .iter()
            .any(|c| matches!(c.scheme, Scheme::DvmDynamic { .. })));
    }

    #[test]
    fn report_shows_mean_and_ci() {
        let text = render(&baseline()).to_text();
        assert!(text.contains("fig2-cpu-baseline"));
        assert!(text.contains("±"), "CI95 rendered: {text}");
        assert!(text.contains("3 seed(s)"));
        assert!(!text.contains("QUARANTINED"));
    }

    #[test]
    fn quarantined_jobs_surface_in_report_and_comparison() {
        let b = baseline();
        let mut partial = b.clone();
        partial.quarantined.push(sim_harness::QuarantineEntry {
            key: sim_harness::JobKey::new("bench-baseline", "dvm-mem", 2, 7),
            failures: 3,
            error: JobError::Panic {
                message: "boom".into(),
            },
        });
        let text = render(&partial).to_text();
        assert!(text.contains("QUARANTINED 1 job(s)"), "{text}");
        assert!(text.contains("dvm-mem"), "{text}");
        let r = compare(&b, &partial);
        assert!(
            r.iter().any(|l| l.contains("quarantined 1 job(s)")),
            "{r:?}"
        );
        // Roundtrip: the quarantined section survives the file format.
        let path = std::env::temp_dir().join("smtsim_bench_quarantine_roundtrip.json");
        partial.write(&path).unwrap();
        let back = BenchBaseline::load(&path).unwrap();
        assert_eq!(back, partial);
        std::fs::remove_file(&path).ok();
    }

    /// End-to-end resilience acceptance: a campaign interrupted by a
    /// (simulated) SIGINT resumes from its journal and produces the
    /// same baseline document as an uninterrupted campaign.
    #[test]
    fn interrupted_campaign_resumes_to_matching_baseline() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // Tiny budget: this test runs 4 cases × 1 salt, twice over.
        let mut params = crate::context::ExperimentParams::fast();
        params.warmup_insts = 20_000;
        params.run_cycles = 20_000;
        let cfg = HarnessConfig {
            jobs: Some(1),
            ..HarnessConfig::default()
        };

        let clean_ctx = ExperimentContext::new(params);
        let clean = run_bench_supervised(&clean_ctx, 1, &cfg, &HarnessObservers::off(), None)
            .unwrap()
            .report;

        let dir = std::env::temp_dir().join("smtsim_bench_resume_test");
        std::fs::remove_dir_all(&dir).ok();

        // "Ctrl-C" after the first job completes: a shutdown flag the
        // supervisor observes between jobs.
        let flag = Arc::new(AtomicBool::new(false));
        let obs = HarnessObservers {
            metrics: sim_metrics::Metrics::new(),
            tracer: sim_trace::Tracer::off(),
            shutdown: Some(Arc::clone(&flag)),
            progress: None,
        };
        let int_ctx = ExperimentContext::new(params);
        let stop = Arc::clone(&flag);
        // Flip the flag from a watcher thread once the journal gains
        // its first `done` record (i.e. one job finished; a mid-run
        // `checkpointed` marker lands earlier and does not count).
        let journal = dir.join("journal.jsonl");
        let watcher = std::thread::spawn(move || {
            for _ in 0..2000 {
                if std::fs::read_to_string(&journal).is_ok_and(|text| text.contains("\"done\"")) {
                    stop.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
        });
        let first = run_bench_supervised(&int_ctx, 1, &cfg, &obs, Some(&dir)).unwrap();
        watcher.join().unwrap();
        assert!(first.interrupted, "campaign saw the shutdown request");
        assert!(first.stats.skipped > 0, "some jobs were never claimed");
        let resumed_metric = obs.metrics.snapshot();
        assert!(
            resumed_metric
                .counter("harness.jobs_completed")
                .unwrap_or(0)
                >= 1
        );

        // Resume: same journal directory, no interruption this time.
        let resume_ctx = ExperimentContext::new(params);
        let obs2 = HarnessObservers {
            metrics: sim_metrics::Metrics::new(),
            tracer: sim_trace::Tracer::off(),
            shutdown: Some(Arc::new(AtomicBool::new(false))),
            progress: None,
        };
        let resumed = run_bench_supervised(&resume_ctx, 1, &cfg, &obs2, Some(&dir)).unwrap();
        assert!(!resumed.interrupted);
        assert!(
            resumed.stats.resumed >= 1,
            "journal replayed: {:?}",
            resumed.stats
        );
        let snap = obs2.metrics.snapshot();
        assert_eq!(
            snap.counter("harness.jobs_resumed"),
            Some(resumed.stats.resumed)
        );

        // Identical simulation results: the document holds no host
        // timing, so the whole baseline must match.
        assert_eq!(resumed.report, clean);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Mid-*job* interrupt acceptance: the shutdown request lands while
    /// a simulation is in flight, the monitor cancels it at its next
    /// snapshot boundary (checkpoints already persisted), one snapshot
    /// is then deliberately bit-flipped, and the resumed campaign must
    /// restore from the surviving generation and still produce results
    /// identical to an uninterrupted campaign.
    #[test]
    fn mid_job_interrupt_resumes_from_snapshot_past_corruption() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;

        // 10 snapshot boundaries per measured run: the watcher flips
        // the flag after the 2nd `checkpointed` marker, leaving ~80 %
        // of the first job's budget for the cancel to land in.
        let mut params = crate::context::ExperimentParams::fast();
        params.warmup_insts = 20_000;
        params.run_cycles = 100_000;
        let cfg = HarnessConfig {
            jobs: Some(1),
            selfcheck: true,
            ..HarnessConfig::default()
        };

        let clean_ctx = ExperimentContext::new(params);
        let clean = run_bench_supervised(&clean_ctx, 1, &cfg, &HarnessObservers::off(), None)
            .unwrap()
            .report;

        let dir = std::env::temp_dir().join("smtsim_bench_midrun_resume_test");
        std::fs::remove_dir_all(&dir).ok();

        let flag = Arc::new(AtomicBool::new(false));
        let obs = HarnessObservers {
            metrics: sim_metrics::Metrics::new(),
            tracer: sim_trace::Tracer::off(),
            shutdown: Some(Arc::clone(&flag)),
            progress: None,
        };
        let stop = Arc::clone(&flag);
        let journal = dir.join("journal.jsonl");
        let watcher = std::thread::spawn(move || {
            for _ in 0..4000 {
                let markers = std::fs::read_to_string(&journal)
                    .map(|text| text.matches("\"checkpointed\"").count())
                    .unwrap_or(0);
                if markers >= 2 {
                    stop.store(true, Ordering::SeqCst);
                    return;
                }
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        });
        let int_ctx = ExperimentContext::new(params);
        let first = run_bench_supervised(&int_ctx, 1, &cfg, &obs, Some(&dir)).unwrap();
        watcher.join().unwrap();
        assert!(first.interrupted, "campaign saw the shutdown request");
        let written = obs
            .metrics
            .snapshot()
            .counter(crate::checkpoint::C_SNAPSHOTS_WRITTEN)
            .unwrap_or(0);
        assert!(written >= 2, "snapshot writes counted: {written}");

        // The interrupted job left its snapshot rotation behind.
        let snaps: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("snapshots"))
            .expect("in-flight job persisted snapshots before the interrupt")
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        assert!(
            snaps.len() >= 2,
            "two checkpointed markers imply two retained generations: {snaps:?}"
        );

        // Bit-flip the newest snapshot; resume must fall back past it.
        let newest = snaps
            .iter()
            .max_by_key(|p| p.file_name().unwrap().to_os_string())
            .unwrap();
        let mut bytes = std::fs::read(newest).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(newest, &bytes).unwrap();

        let resume_ctx = ExperimentContext::new(params);
        let obs2 = HarnessObservers {
            metrics: sim_metrics::Metrics::new(),
            tracer: sim_trace::Tracer::off(),
            shutdown: Some(Arc::new(AtomicBool::new(false))),
            progress: None,
        };
        let resumed = run_bench_supervised(&resume_ctx, 1, &cfg, &obs2, Some(&dir)).unwrap();
        assert!(!resumed.interrupted);
        let m2 = obs2.metrics.snapshot();
        assert!(
            m2.counter(crate::checkpoint::C_SNAPSHOTS_RESTORED)
                .unwrap_or(0)
                >= 1,
            "resume restored from a snapshot"
        );
        assert!(
            m2.counter(crate::checkpoint::C_SNAPSHOTS_SKIPPED_CORRUPT)
                .unwrap_or(0)
                >= 1,
            "the bit-flipped newest generation was skipped, and counted"
        );
        assert!(
            resumed.report.quarantined.is_empty(),
            "every job finished: {:?}",
            resumed.report.quarantined
        );

        assert_eq!(resumed.report, clean);
        std::fs::remove_dir_all(&dir).ok();
    }
}
