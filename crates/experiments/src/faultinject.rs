//! The `fault-inject` subcommand — statistical fault injection with
//! differential AVF validation.
//!
//! For each workload salt, two Monte-Carlo SEU campaigns run on the
//! CPU-A mix: the baseline machine and DVM pinned to a reliability
//! target of `0.5 × MaxIQ_AVF` (measured on that salt's baseline golden
//! run). Each campaign reports, per structure, the injection-derived
//! vulnerability estimate with its Wilson 95 % interval next to the ACE
//! analysis AVF of the very same golden run.
//!
//! `check()` is the `--check-avf` gate: the analytical IQ AVF must fall
//! inside the injection interval for *both* schemes on every salt (the
//! two methods must agree), and pooling across salts the DVM campaign
//! must measure strictly less IQ vulnerability than the baseline (the
//! paper's mechanism must be visible empirically, not just to the
//! model).

use crate::context::ExperimentContext;
use crate::manifest::{slug, Supervised};
use crate::report::Rendered;
use crate::runner::export_prometheus;
use iq_reliability::Scheme;
use serde::{Deserialize, Serialize};
use sim_faultinject::{run_campaign, CampaignConfig, CampaignResult};
use sim_harness::{
    fnv1a, run_journaled, run_supervised, HarnessConfig, HarnessObservers, JobError, JobKey,
    QuarantineEntry,
};
use sim_metrics::Metrics;
use sim_stats::Table;
use sim_trace::chrome::ChromeTraceSink;
use sim_trace::Tracer;
use smt_sim::FetchPolicyKind;
use std::io;
use std::path::Path;

/// Bump when the report layout changes incompatibly.
/// v2: added `quarantined` (supervised campaigns may complete partially).
pub const FAULT_SCHEMA_VERSION: u32 = 2;

/// One campaign of the sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SchemeCampaign {
    pub salt: u64,
    pub scheme: String,
    /// DVM reliability target (absolute IQ AVF), if the scheme has one.
    pub target: Option<f64>,
    pub result: CampaignResult,
}

/// The subcommand's full output.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FaultInjectReport {
    pub schema_version: u32,
    pub mix: String,
    pub seeds: u64,
    pub iq_trials: u64,
    pub rob_trials: u64,
    pub rf_trials: u64,
    pub campaigns: Vec<SchemeCampaign>,
    /// Salts whose injection pair kept failing and was sidelined by the
    /// supervisor; their campaigns are absent from `campaigns`.
    pub quarantined: Vec<QuarantineEntry>,
}

impl FaultInjectReport {
    pub fn write(&self, path: &Path) -> io::Result<()> {
        sim_harness::atomic_write(path, &serde::json::to_string_pretty(self))
    }

    pub fn load(path: &Path) -> io::Result<FaultInjectReport> {
        let text = std::fs::read_to_string(path)?;
        serde::json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, format!("{e:?}")))
    }
}

/// Observability plumbing for one campaign: a metrics registry when the
/// context exports metrics, a Chrome tracer when it exports traces.
fn observers(ctx: &ExperimentContext, salt: u64, scheme: &str) -> (Metrics, Tracer) {
    let metrics = if ctx.metrics_dir().is_some() {
        Metrics::new()
    } else {
        Metrics::off()
    };
    let tracer = match ctx.trace_dir() {
        Some(dir) if std::fs::create_dir_all(dir).is_ok() => {
            let path = dir.join(format!("inject_s{salt}_{}.trace.json", slug(scheme)));
            Tracer::new(ChromeTraceSink::new(path))
        }
        _ => Tracer::off(),
    };
    (metrics, tracer)
}

fn export_observers(
    ctx: &ExperimentContext,
    salt: u64,
    scheme: &str,
    metrics: &Metrics,
    tracer: &Tracer,
) {
    tracer.flush();
    let Some(dir) = ctx.metrics_dir() else {
        return;
    };
    let base = format!("inject_s{salt}_{}", slug(scheme));
    if let Err(e) = export_prometheus(dir, &base, &metrics.snapshot()) {
        eprintln!("experiments: fault-inject metrics export failed: {e}");
    }
}

/// What one supervised job produces: the {baseline, DVM} campaign pair
/// for a single salt. The pair is one job (not two) because the DVM
/// reliability target is derived from that salt's baseline golden run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SaltPair {
    pub baseline: SchemeCampaign,
    pub dvm: SchemeCampaign,
}

/// Everything that determines a salt-pair's result, folded into the
/// journal key so a resumed campaign never replays records produced
/// under different simulation parameters.
fn fault_config_hash(ctx: &ExperimentContext, trials: u64, watchdog: u64) -> u64 {
    let p = &ctx.params;
    fnv1a(&format!(
        "fault-v{FAULT_SCHEMA_VERSION}|CPU-A|t{trials}|w{watchdog}|p{}w{}r{}a{}|iq{}",
        p.profile_insts, p.warmup_insts, p.run_cycles, p.ace_window, ctx.machine.iq_size
    ))
}

/// Simulate one salt's {baseline, DVM} pair. This is the unit of
/// supervision: it runs under `catch_unwind` on a worker thread.
///
/// `run_campaign` has no cancel-token plumbing, so a wall-clock
/// deadline *classifies* an overrunning pair (via the monitor's
/// deadline flag) but cannot interrupt it mid-simulation; the simulated
/// commit watchdog inside the campaign bounds genuine hangs.
fn run_salt_pair(
    ctx: &ExperimentContext,
    mix: &workload_gen::WorkloadMix,
    salt: u64,
    trials: u64,
    watchdog: u64,
) -> SaltPair {
    let programs = ctx.mix_programs_salted(mix, salt);
    let cfg = CampaignConfig {
        machine: ctx.machine.clone(),
        warmup_insts: ctx.params.warmup_insts,
        run_cycles: ctx.params.run_cycles,
        watchdog_cycles: watchdog,
        iq_trials: trials,
        rob_trials: trials / 2,
        rf_trials: trials / 2,
        ace_window: ctx.params.ace_window,
        seed: salt,
    };

    let scheme = Scheme::Baseline;
    let (metrics, tracer) = observers(ctx, salt, scheme.label());
    let baseline = run_campaign(
        &cfg,
        &programs,
        &|| {
            scheme
                .policies(FetchPolicyKind::Icount, ctx.machine.iq_size)
                .0
        },
        &metrics,
        &tracer,
    );
    export_observers(ctx, salt, scheme.label(), &metrics, &tracer);

    let target = 0.5 * baseline.ace_max_interval_iq_avf;
    let dvm = Scheme::DvmDynamic { target };
    let (metrics, tracer) = observers(ctx, salt, dvm.label());
    let dvm_result = run_campaign(
        &cfg,
        &programs,
        &|| dvm.policies(FetchPolicyKind::Icount, ctx.machine.iq_size).0,
        &metrics,
        &tracer,
    );
    export_observers(ctx, salt, dvm.label(), &metrics, &tracer);

    SaltPair {
        baseline: SchemeCampaign {
            salt,
            scheme: scheme.label().to_string(),
            target: None,
            result: baseline,
        },
        dvm: SchemeCampaign {
            salt,
            scheme: dvm.label().to_string(),
            target: Some(target),
            result: dvm_result,
        },
    }
}

/// Run the sweep under supervision: one job per salt, each producing a
/// [`SaltPair`]. With a journal directory, completed salts recorded by
/// an earlier (interrupted) run are replayed from disk instead of
/// re-simulated.
pub fn run_fault_inject_supervised(
    ctx: &ExperimentContext,
    seeds: u64,
    trials: u64,
    cfg: &HarnessConfig,
    obs: &HarnessObservers,
    journal_dir: Option<&Path>,
) -> Result<Supervised<FaultInjectReport>, JobError> {
    let mix = workload_gen::mix_by_name("CPU-A").expect("CPU-A mix exists");
    // Hang budget: a fraction of the measured window, bounded so tiny
    // smoke budgets still leave the watchdog room to fire.
    let watchdog = (ctx.params.run_cycles / 10).clamp(5_000, 20_000);
    let hash = fault_config_hash(ctx, trials, watchdog);
    let items: Vec<(JobKey, u64)> = (0..seeds)
        .map(|salt| (JobKey::new("fault-inject", "pair", salt, hash), salt))
        .collect();
    let job = |salt: &u64, jctx: &sim_harness::JobCtx| -> Result<SaltPair, JobError> {
        let pair = run_salt_pair(ctx, &mix, *salt, trials, watchdog);
        // Credit the two golden windows to the campaign progress
        // counter (heartbeat + manifest `simulated_cycles`). Injection
        // trials mostly re-emulate instead of re-simulating, so the
        // golden runs are the meaningful simulated-cycle volume.
        jctx.progress.fetch_add(
            pair.baseline.result.cycles + pair.dvm.result.cycles,
            std::sync::atomic::Ordering::Relaxed,
        );
        Ok(pair)
    };
    let outcome = match journal_dir {
        Some(dir) => run_journaled(dir, items, job, cfg, obs)?,
        None => run_supervised(items, job, cfg, obs, |_, _: &SaltPair| {}),
    };

    // Salt order is the input order, so campaigns stay sorted by salt
    // with baseline before DVM — identical to the sequential layout.
    let mut campaigns = Vec::new();
    for pair in outcome.values() {
        campaigns.push(pair.baseline.clone());
        campaigns.push(pair.dvm.clone());
    }
    let mut quarantined = outcome.quarantine.clone();
    quarantined.sort_by(|a, b| a.key.cmp(&b.key));
    Ok(Supervised {
        report: FaultInjectReport {
            schema_version: FAULT_SCHEMA_VERSION,
            mix: mix.name.clone(),
            seeds,
            iq_trials: trials,
            rob_trials: trials / 2,
            rf_trials: trials / 2,
            campaigns,
            quarantined,
        },
        stats: outcome.stats,
        interrupted: outcome.interrupted,
        simulated_cycles: outcome.simulated_cycles,
    })
}

/// Run the full sweep: `seeds` salts × {baseline, DVM} campaigns with
/// `trials` IQ injections each (half that for ROB and RF).
pub fn run_fault_inject(ctx: &ExperimentContext, seeds: u64, trials: u64) -> FaultInjectReport {
    run_fault_inject_supervised(
        ctx,
        seeds,
        trials,
        &HarnessConfig::default(),
        &HarnessObservers::off(),
        None,
    )
    .expect("journal-less fault-inject campaign cannot fail on IO")
    .report
}

pub fn render(report: &FaultInjectReport) -> Rendered {
    let mut t = Table::new(vec![
        "salt",
        "scheme",
        "structure",
        "trials",
        "masked",
        "SDC",
        "detected",
        "hang",
        "inj. AVF [CI95]",
        "ACE AVF",
        "agree",
    ]);
    for c in &report.campaigns {
        for s in &c.result.structures {
            let ace = match s.structure.as_str() {
                "iq" => c.result.ace_iq_avf,
                "rob" => c.result.ace_rob_avf,
                _ => c.result.ace_rf_avf,
            };
            t.row(vec![
                c.salt.to_string(),
                c.scheme.clone(),
                s.structure.clone(),
                s.trials.to_string(),
                s.masked.to_string(),
                s.sdc.to_string(),
                s.detected.to_string(),
                s.hang.to_string(),
                format!("{:.3} [{:.3}, {:.3}]", s.avf_estimate, s.ci95.lo, s.ci95.hi),
                format!("{ace:.3}"),
                if s.ci95.contains(ace) { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    let mut r = Rendered::new(
        format!(
            "Fault injection vs ACE analysis ({}, {} salt(s), {} IQ trials/campaign)",
            report.mix, report.seeds, report.iq_trials
        ),
        t,
    )
    .note("inj. AVF = non-masked fraction of uniform (cycle, entry, bit) SEU trials; agreement means the analytical AVF lies inside the injection Wilson interval");
    if !report.quarantined.is_empty() {
        let keys: Vec<String> = report
            .quarantined
            .iter()
            .map(|q| format!("{} ({} failure(s): {})", q.key, q.failures, q.error))
            .collect();
        r = r.note(format!(
            "QUARANTINED {} salt(s) — campaigns missing above: {}",
            report.quarantined.len(),
            keys.join("; ")
        ));
    }
    r
}

/// The `--check-avf` gate. Returns human-readable failures (empty =
/// pass).
pub fn check(report: &FaultInjectReport) -> Vec<String> {
    let mut failures = Vec::new();
    for q in &report.quarantined {
        failures.push(format!(
            "quarantined: {} after {} failure(s): {}",
            q.key, q.failures, q.error
        ));
    }
    let mut pooled: std::collections::HashMap<&str, (u64, u64)> = Default::default();
    for c in &report.campaigns {
        let Some(iq) = c.result.structure("iq") else {
            failures.push(format!("salt {} {}: no IQ statistics", c.salt, c.scheme));
            continue;
        };
        if !iq.ci95.contains(c.result.ace_iq_avf) {
            failures.push(format!(
                "salt {} {}: ACE IQ AVF {:.4} outside injection CI95 [{:.4}, {:.4}] ({} trials)",
                c.salt, c.scheme, c.result.ace_iq_avf, iq.ci95.lo, iq.ci95.hi, iq.trials
            ));
        }
        let slot = pooled.entry(if c.target.is_some() {
            "dvm"
        } else {
            "baseline"
        });
        let (v, n) = slot.or_insert((0, 0));
        *v += iq.vulnerable();
        *n += iq.trials;
    }
    let rate = |key: &str| {
        pooled
            .get(key)
            .filter(|(_, n)| *n > 0)
            .map(|(v, n)| *v as f64 / *n as f64)
    };
    match (rate("baseline"), rate("dvm")) {
        (Some(base), Some(dvm)) => {
            if dvm >= base {
                failures.push(format!(
                    "pooled DVM IQ vulnerability {dvm:.4} is not below baseline {base:.4}"
                ));
            }
        }
        _ => failures.push("missing baseline or DVM campaigns for the pooled comparison".into()),
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentParams;

    fn tiny_ctx() -> ExperimentContext {
        let mut params = ExperimentParams::fast();
        params.warmup_insts = 20_000;
        params.run_cycles = 20_000;
        ExperimentContext::new(params)
    }

    #[test]
    fn sweep_produces_paired_campaigns() {
        let ctx = tiny_ctx();
        let report = run_fault_inject(&ctx, 1, 24);
        assert_eq!(report.campaigns.len(), 2);
        assert_eq!(report.campaigns[0].scheme, "baseline");
        assert!(report.campaigns[1].target.is_some());
        for c in &report.campaigns {
            assert_eq!(c.result.structure("iq").unwrap().trials, 24);
            assert_eq!(c.result.structure("rob").unwrap().trials, 12);
        }
        // Rendering covers every (campaign, structure) row.
        let text = render(&report).to_string();
        assert!(text.contains("baseline") && text.contains("DVM"));
    }

    #[test]
    fn report_roundtrips_through_json() {
        let ctx = tiny_ctx();
        let report = run_fault_inject(&ctx, 1, 8);
        let dir = std::env::temp_dir().join("smtsim_faultinject_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("report.json");
        report.write(&path).unwrap();
        let back = FaultInjectReport::load(&path).unwrap();
        assert_eq!(back.schema_version, FAULT_SCHEMA_VERSION);
        assert_eq!(back.campaigns.len(), report.campaigns.len());
        assert_eq!(
            back.campaigns[0].result.golden.chains,
            report.campaigns[0].result.golden.chains
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn check_flags_missing_schemes() {
        let report = FaultInjectReport {
            schema_version: FAULT_SCHEMA_VERSION,
            mix: "CPU-A".into(),
            seeds: 0,
            iq_trials: 0,
            rob_trials: 0,
            rf_trials: 0,
            campaigns: Vec::new(),
            quarantined: Vec::new(),
        };
        let failures = check(&report);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing baseline or DVM"));
    }

    #[test]
    fn check_flags_quarantined_salts() {
        let report = FaultInjectReport {
            schema_version: FAULT_SCHEMA_VERSION,
            mix: "CPU-A".into(),
            seeds: 1,
            iq_trials: 0,
            rob_trials: 0,
            rf_trials: 0,
            campaigns: Vec::new(),
            quarantined: vec![sim_harness::QuarantineEntry {
                key: sim_harness::JobKey::new("fault-inject", "pair", 0, 1),
                failures: 3,
                error: sim_harness::JobError::Watchdog {
                    detail: "no commits".into(),
                },
            }],
        };
        let failures = check(&report);
        assert!(
            failures.iter().any(|f| f.contains("quarantined")),
            "{failures:?}"
        );
        let text = render(&report).to_string();
        assert!(text.contains("QUARANTINED 1 salt(s)"), "{text}");
    }

    #[test]
    fn journaled_sweep_resumes_without_resimulating() {
        let dir = std::env::temp_dir().join("smtsim_faultinject_resume_test");
        std::fs::remove_dir_all(&dir).ok();
        let cfg = HarnessConfig {
            jobs: Some(1),
            ..HarnessConfig::default()
        };
        let ctx = tiny_ctx();
        let first =
            run_fault_inject_supervised(&ctx, 1, 8, &cfg, &HarnessObservers::off(), Some(&dir))
                .unwrap();
        assert!(!first.interrupted);
        assert_eq!(first.stats.completed, 1);
        assert_eq!(first.stats.resumed, 0);

        // Second run over the same journal: the salt replays from disk.
        let ctx2 = tiny_ctx();
        let second =
            run_fault_inject_supervised(&ctx2, 1, 8, &cfg, &HarnessObservers::off(), Some(&dir))
                .unwrap();
        assert_eq!(second.stats.resumed, 1, "{:?}", second.stats);
        assert_eq!(second.stats.completed, 0, "nothing re-simulated");
        assert_eq!(
            serde::json::to_string(&second.report),
            serde::json::to_string(&first.report),
            "replayed report must match the simulated one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
