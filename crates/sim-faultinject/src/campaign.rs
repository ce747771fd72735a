//! Monte-Carlo fault-injection campaigns.
//!
//! One campaign = one golden run + `N` single-bit-upset trials against
//! it. Each trial samples a uniform `(cycle, entry, bit)` site in one
//! structure and classifies the flip:
//!
//! * **Masked** — architecturally invisible: empty slot, dead bit,
//!   squashed victim, or a corrupted value that never reaches a sink.
//! * **SDC** — silent data corruption: the retired sink stream (stores,
//!   control decisions, outputs) diverges from the golden run.
//! * **Detected** — a retirement-critical bit of an instruction that
//!   still commits: a real machine's retirement checks would
//!   machine-check rather than retire the malformed entry.
//! * **Hang** — the flip starves forward progress and the per-thread
//!   commit watchdog fires within the trial's cycle budget.
//!
//! The non-masked fraction over uniformly sampled bits is an unbiased
//! estimator of the structure's AVF, reported with a Wilson 95 %
//! interval — the campaign's cross-check against the ACE-analysis
//! model.
//!
//! ## Execution strategy
//!
//! Every trial is classified starting from the fault, never from cycle
//! zero. Payload and register faults corrupt a *value*, not pipeline
//! control state, so the faulty run's commit stream is cycle-identical
//! to the golden run; they are judged by a differential replay of the
//! victim thread against a [`GoldenTrace`] recorded once from the
//! golden commit stream ([`GoldenTrace::judge`]). Only
//! select/retirement-critical flips on not-yet-issued victims mutate
//! real pipeline state (`inhibit_issue`); those trials are decided
//! during the golden run itself, by forking the golden pipeline at the
//! injection cycle through a snapshot and simulating only the tail.
//! Restore is bit-identical and the golden run's observers never touch
//! pipeline state, so a forked trial is exactly the trial a fresh
//! machine warmed up and stepped to the same cycle would run. On top of
//! the empty/dead fast paths an `N`-trial campaign costs one golden run
//! plus a handful of short tails.

use std::sync::Arc;

use avf::layout::{rob_bit_class, RobBitClass, RF_REG_BITS, ROB_ENTRY_BITS};
use avf::{AvfCollector, AvfReport};
use serde::{Deserialize, Serialize};
use sim_metrics::Metrics;
use sim_stats::{wilson_ci95, WilsonCi};
use sim_trace::{TraceEvent, Tracer};
use smt_sim::layout::IQ_ENTRY_BITS;
use smt_sim::pipeline::PipelinePolicies;
use smt_sim::{
    iq_bit_class, InjectableState, IqBitClass, MachineConfig, Pipeline, RobBitKind, SimLimits,
    SimObserver, Structure, REGS_PER_THREAD,
};
use workload_gen::Program;

use crate::digest::{FateObserver, FaultDirective, GoldenTrace, SinkDigest, Tandem, TraceRecorder};

/// Deterministic SplitMix64 stream for site sampling.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform draw in `[0, n)` (modulo bias is negligible for the
    /// structure geometries involved, all ≪ 2^32).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }
}

/// Trial outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    Masked,
    Sdc,
    Detected,
    Hang,
}

impl Outcome {
    pub fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::Sdc => "sdc",
            Outcome::Detected => "detected",
            Outcome::Hang => "hang",
        }
    }
}

/// Per-structure campaign tallies and the derived vulnerability
/// estimate.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StructureStats {
    /// Structure label ("iq", "rob", "rf").
    pub structure: String,
    pub trials: u64,
    pub masked: u64,
    pub sdc: u64,
    pub detected: u64,
    pub hang: u64,
    /// Masked trials whose corruption is still latent in a register the
    /// sink stream never observed (a strict subset of `masked`).
    pub latent: u64,
    /// Non-masked fraction: the injection-derived AVF estimate.
    pub avf_estimate: f64,
    /// Wilson 95 % interval on the non-masked proportion.
    pub ci95: WilsonCi,
}

impl StructureStats {
    fn new(structure: Structure) -> StructureStats {
        StructureStats {
            structure: structure.as_str().to_string(),
            trials: 0,
            masked: 0,
            sdc: 0,
            detected: 0,
            hang: 0,
            latent: 0,
            avf_estimate: 0.0,
            ci95: WilsonCi::default(),
        }
    }

    fn record(&mut self, outcome: Outcome, latent: bool) {
        self.trials += 1;
        match outcome {
            Outcome::Masked => self.masked += 1,
            Outcome::Sdc => self.sdc += 1,
            Outcome::Detected => self.detected += 1,
            Outcome::Hang => self.hang += 1,
        }
        if latent {
            self.latent += 1;
        }
    }

    /// Trials whose flip was architecturally consequential.
    pub fn vulnerable(&self) -> u64 {
        self.sdc + self.detected + self.hang
    }

    fn finalize(&mut self) {
        self.ci95 = wilson_ci95(self.vulnerable(), self.trials);
        self.avf_estimate = self.ci95.estimate;
    }
}

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    pub machine: MachineConfig,
    /// Instructions to warm up before measurement starts.
    pub warmup_insts: u64,
    /// Measured window length; injection cycles are uniform within it.
    pub run_cycles: u64,
    /// Per-thread commit-starvation watchdog for trials (hang budget).
    pub watchdog_cycles: u64,
    /// Injection counts per structure.
    pub iq_trials: u64,
    pub rob_trials: u64,
    pub rf_trials: u64,
    /// ACE-analysis window for the golden AVF collector.
    pub ace_window: usize,
    /// Campaign RNG seed.
    pub seed: u64,
}

/// The campaign's full result: golden-run summary plus per-structure
/// injection statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    pub seed: u64,
    /// Measured cycles of the golden run.
    pub cycles: u64,
    /// Committed instructions in the golden window.
    pub committed: u64,
    /// ACE-analysis AVFs of the same golden run (the model under test).
    pub ace_iq_avf: f64,
    pub ace_rob_avf: f64,
    pub ace_rf_avf: f64,
    /// Worst sampling-interval IQ AVF of the golden run (the paper's
    /// MaxIQ_AVF; DVM reliability targets are anchored to it).
    pub ace_max_interval_iq_avf: f64,
    /// Architectural digest of the golden run.
    pub golden: SinkDigest,
    pub structures: Vec<StructureStats>,
}

impl CampaignResult {
    pub fn structure(&self, name: &str) -> Option<&StructureStats> {
        self.structures.iter().find(|s| s.structure == name)
    }
}

/// Deterministic nonzero perturbation for a payload flip at `bit`.
fn perturbation(bit: u32) -> u64 {
    0x8000_0000_0000_0001u64.rotate_left(bit)
}

#[derive(Debug, Clone, Copy)]
struct Planned {
    structure: Structure,
    /// Injection cycle, as an offset from measurement start.
    off: u64,
    entry: usize,
    bit: u32,
}

/// What the golden run saw at a planned site.
#[derive(Debug, Clone, Copy)]
enum SiteObs {
    /// Empty slot or dead bit: masked with no further work.
    MaskedFast,
    /// Payload bit of a live occupant: classify by differential replay.
    Payload { victim_seq: u64 },
    /// Select/retirement-critical bit of an issued/completed victim:
    /// judged by the victim's golden fate (machine-check-at-retire
    /// model).
    Critical { victim_seq: u64 },
    /// Select/retirement-critical bit of a waiting victim, already
    /// decided by a trial forked from the golden pipeline.
    Forked { victim_seq: u64, outcome: Outcome },
    /// Register-file flip: classify by differential replay with a
    /// register directive.
    RegFlip { tid: u8, reg_index: usize },
}

impl SiteObs {
    fn victim_seq(&self) -> Option<u64> {
        match *self {
            SiteObs::Payload { victim_seq }
            | SiteObs::Critical { victim_seq }
            | SiteObs::Forked { victim_seq, .. } => Some(victim_seq),
            SiteObs::MaskedFast | SiteObs::RegFlip { .. } => None,
        }
    }
}

/// Observe `site` on the golden pipeline; `fork` decides a trial whose
/// victim is still waiting to issue.
fn observe(pipeline: &Pipeline, site: &Planned, fork: impl FnOnce(u64) -> Outcome) -> SiteObs {
    let critical = |victim_seq: u64, waiting: bool| {
        if waiting {
            SiteObs::Forked {
                victim_seq,
                outcome: fork(victim_seq),
            }
        } else {
            SiteObs::Critical { victim_seq }
        }
    };
    match site.structure {
        Structure::IssueQueue => match pipeline.iq_state().occupant(site.entry) {
            None => SiteObs::MaskedFast,
            Some(o) => match iq_bit_class(site.bit) {
                IqBitClass::Dead => SiteObs::MaskedFast,
                IqBitClass::Payload => SiteObs::Payload { victim_seq: o.seq },
                IqBitClass::SelectCritical => critical(o.seq, !o.issued),
            },
        },
        Structure::Rob => match pipeline.rob_state(ROB_ENTRY_BITS).occupant(site.entry) {
            None => SiteObs::MaskedFast,
            Some(o) => match rob_bit_class(site.bit) {
                RobBitClass::Dead => SiteObs::MaskedFast,
                // The buffered result is dead once writeback published it.
                RobBitClass::Payload if o.completed => SiteObs::MaskedFast,
                RobBitClass::Payload => SiteObs::Payload { victim_seq: o.seq },
                RobBitClass::Control => critical(o.seq, !o.issued && !o.completed),
            },
        },
        Structure::RegFile => SiteObs::RegFlip {
            tid: (site.entry / REGS_PER_THREAD) as u8,
            reg_index: site.entry % REGS_PER_THREAD,
        },
    }
}

/// Decide a trial whose fault mutates pipeline state (an inhibited,
/// not-yet-issued victim): fork the golden pipeline at the injection
/// cycle, flip the bit, and simulate the tail.
fn fork_trial(
    cfg: &CampaignConfig,
    programs: &[Arc<Program>],
    make_policies: &dyn Fn() -> PipelinePolicies,
    golden: &Pipeline,
    site: &Planned,
    victim_seq: u64,
) -> Outcome {
    let snapshot = golden.save_snapshot();
    let mut pipeline = Pipeline::new(cfg.machine.clone(), programs.to_vec(), make_policies());
    pipeline
        .restore_snapshot(&snapshot)
        .expect("a fork restores its own golden snapshot");
    drop(snapshot);
    run_trial(cfg, pipeline, site, victim_seq)
}

/// Inject `site` into `pipeline` (standing at the injection cycle) and
/// let the hang/squash race play out under a tight watchdog.
fn run_trial(
    cfg: &CampaignConfig,
    mut pipeline: Pipeline,
    site: &Planned,
    victim_seq: u64,
) -> Outcome {
    let fault = match site.structure {
        Structure::IssueQueue => pipeline.inject_iq_bit(site.entry, site.bit),
        Structure::Rob => pipeline.inject_rob_bit(site.entry, site.bit, RobBitKind::Control),
        Structure::RegFile => unreachable!("register faults never fork"),
    };
    assert_eq!(
        fault.victim_seq(),
        Some(victim_seq),
        "the trial at offset {} hit a different {} occupant than the golden run saw",
        site.off,
        site.structure.as_str()
    );
    let mut fate = FateObserver::new(victim_seq);
    // Budget: past the injection point, leave room for the victim
    // thread to drain its older work and then trip the watchdog.
    let budget = site.off + 2 * cfg.watchdog_cycles + 1_000;
    let result = pipeline.run(
        SimLimits::cycles(budget).with_watchdog(cfg.watchdog_cycles),
        &mut fate,
    );
    if fate.squashed {
        // The corrupted entry was rolled back and re-fetched clean:
        // genuine microarchitectural recovery.
        Outcome::Masked
    } else if result.deadlocked {
        Outcome::Hang
    } else if fate.committed {
        // An inhibited instruction cannot normally complete; if it
        // somehow retires, the critical corruption reached retirement.
        Outcome::Detected
    } else {
        // Budget exhausted with the victim still wedged in place —
        // forward progress is lost even if the watchdog race was close.
        Outcome::Hang
    }
}

/// Sample every trial site up front (pure RNG, reproducible), in
/// injection-cycle order.
fn plan_sites(cfg: &CampaignConfig) -> Vec<Planned> {
    let n = cfg.machine.num_threads;
    let mut rng = SplitMix64::new(cfg.seed ^ 0xfa57_1213);
    let mut plan: Vec<Planned> = Vec::new();
    let mut sample = |plan: &mut Vec<Planned>, structure, trials, entries: u64, bits: u32| {
        for _ in 0..trials {
            plan.push(Planned {
                structure,
                off: rng.below(cfg.run_cycles),
                entry: rng.below(entries) as usize,
                bit: rng.below(bits as u64) as u32,
            });
        }
    };
    sample(
        &mut plan,
        Structure::IssueQueue,
        cfg.iq_trials,
        cfg.machine.iq_size as u64,
        IQ_ENTRY_BITS,
    );
    sample(
        &mut plan,
        Structure::Rob,
        cfg.rob_trials,
        (n * cfg.machine.rob_size) as u64,
        ROB_ENTRY_BITS,
    );
    sample(
        &mut plan,
        Structure::RegFile,
        cfg.rf_trials,
        (n * REGS_PER_THREAD) as u64,
        RF_REG_BITS,
    );
    plan.sort_by_key(|p| p.off);
    plan
}

/// Everything the golden run leaves behind for classification.
struct GoldenRun {
    /// Cycle the measured window starts at.
    start: u64,
    /// One observation per planned site, in plan order.
    seen: Vec<SiteObs>,
    report: AvfReport,
    trace: GoldenTrace,
}

/// The golden run: ACE analysis and trace recording over the measured
/// window, with every planned site observed at its cycle and every
/// pipeline-mutating trial forked off on the spot. The golden pipeline
/// and the ACE collector end here, so classification holds only the
/// trace.
fn golden_run(
    cfg: &CampaignConfig,
    programs: &[Arc<Program>],
    make_policies: &dyn Fn() -> PipelinePolicies,
    plan: &[Planned],
) -> GoldenRun {
    let mut pipeline = Pipeline::new(cfg.machine.clone(), programs.to_vec(), make_policies());
    let start = pipeline.warm_up(cfg.warmup_insts);
    let mut collector =
        AvfCollector::new(&cfg.machine, cfg.ace_window, 10_000).with_start_cycle(start);
    let mut recorder = TraceRecorder::new(cfg.machine.num_threads);
    let mut seen = Vec::with_capacity(plan.len());
    let mut obs = Tandem(&mut collector, &mut recorder);
    let mut next = 0usize;
    while pipeline.cycle() - start < cfg.run_cycles {
        let off = pipeline.cycle() - start;
        while next < plan.len() && plan[next].off == off {
            let site = &plan[next];
            seen.push(observe(&pipeline, site, |victim_seq| {
                fork_trial(cfg, programs, make_policies, &pipeline, site, victim_seq)
            }));
            next += 1;
        }
        pipeline.step(&mut obs);
    }
    debug_assert_eq!(next, plan.len());
    obs.on_finish(pipeline.cycle());
    GoldenRun {
        start,
        seen,
        report: collector.report(),
        trace: recorder.finish(),
    }
}

/// Run a fault-injection campaign. `make_policies` builds one fresh
/// policy set per simulation (the golden run and each forked trial);
/// campaign counters go to `metrics` and per-trial events to `tracer`.
pub fn run_campaign(
    cfg: &CampaignConfig,
    programs: &[Arc<Program>],
    make_policies: &dyn Fn() -> PipelinePolicies,
    metrics: &Metrics,
    tracer: &Tracer,
) -> CampaignResult {
    assert!(cfg.run_cycles > 0, "empty measurement window");
    assert_eq!(programs.len(), cfg.machine.num_threads);

    let plan = plan_sites(cfg);
    let GoldenRun {
        start,
        seen,
        report,
        trace,
    } = golden_run(cfg, programs, make_policies, &plan);

    // ---- Classify every trial. ----
    let mut iq = StructureStats::new(Structure::IssueQueue);
    let mut rob = StructureStats::new(Structure::Rob);
    let mut rf = StructureStats::new(Structure::RegFile);
    for (site, seen) in plan.iter().zip(seen) {
        let mut latent = false;
        let mut judge = |directive| {
            let verdict = trace.judge(directive);
            latent = verdict.latent;
            if verdict.chains_match {
                Outcome::Masked
            } else {
                Outcome::Sdc
            }
        };
        let outcome = match seen {
            SiteObs::MaskedFast => Outcome::Masked,
            SiteObs::Payload { victim_seq } => judge(FaultDirective::PerturbResult {
                victim_seq,
                perturbation: perturbation(site.bit),
            }),
            SiteObs::Critical { victim_seq } => {
                if trace.contains(victim_seq) {
                    Outcome::Detected
                } else {
                    Outcome::Masked
                }
            }
            SiteObs::Forked { outcome, .. } => outcome,
            SiteObs::RegFlip { tid, reg_index } => judge(FaultDirective::FlipRegister {
                tid,
                reg_index,
                bit: site.bit,
                at_cycle: start + site.off,
            }),
        };
        let stats = match site.structure {
            Structure::IssueQueue => &mut iq,
            Structure::Rob => &mut rob,
            Structure::RegFile => &mut rf,
        };
        stats.record(outcome, latent);
        metrics.counter_add("faultinject.trials", 1);
        match outcome {
            Outcome::Masked => metrics.counter_add("faultinject.masked", 1),
            Outcome::Sdc => metrics.counter_add("faultinject.sdc", 1),
            Outcome::Detected => metrics.counter_add("faultinject.detected", 1),
            Outcome::Hang => metrics.counter_add("faultinject.hang", 1),
        }
        if latent {
            metrics.counter_add("faultinject.latent", 1);
        }
        tracer.emit(|| TraceEvent::FaultInject {
            cycle: start + site.off,
            structure: site.structure.as_str().to_string(),
            entry: site.entry,
            bit: site.bit,
            victim_seq: seen.victim_seq(),
            outcome: outcome.label().to_string(),
        });
    }
    for s in [&mut iq, &mut rob, &mut rf] {
        s.finalize();
    }

    CampaignResult {
        seed: cfg.seed,
        cycles: cfg.run_cycles,
        committed: trace.committed(),
        ace_iq_avf: report.iq_avf,
        ace_rob_avf: report.rob_avf,
        ace_rf_avf: report.rf_avf,
        ace_max_interval_iq_avf: report.max_interval_iq_avf(),
        golden: trace.digest().clone(),
        structures: vec![iq, rob, rf],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{golden_digest, replay, GoldenRecorder};
    use smt_sim::{AppliedFault, NullObserver};
    use std::collections::HashSet;
    use workload_gen::{generate_program_salted, model_by_name};

    fn cpu_programs(salt: u64) -> Vec<Arc<Program>> {
        ["bzip2", "gcc", "eon", "perlbmk"]
            .iter()
            .map(|m| Arc::new(generate_program_salted(&model_by_name(m).unwrap(), salt)))
            .collect()
    }

    fn small_cfg(seed: u64) -> CampaignConfig {
        CampaignConfig {
            machine: MachineConfig::table2(),
            warmup_insts: 2_000,
            run_cycles: 4_000,
            watchdog_cycles: 2_000,
            iq_trials: 30,
            rob_trials: 15,
            rf_trials: 15,
            ace_window: 1 << 16,
            seed,
        }
    }

    #[test]
    fn campaign_tallies_are_consistent() {
        let cfg = small_cfg(11);
        let result = run_campaign(
            &cfg,
            &cpu_programs(11),
            &PipelinePolicies::default,
            &Metrics::off(),
            &Tracer::off(),
        );
        assert_eq!(result.structures.len(), 3);
        let iq = result.structure("iq").unwrap();
        assert_eq!(iq.trials, 30);
        assert_eq!(iq.masked + iq.vulnerable(), iq.trials);
        assert!(iq.latent <= iq.masked);
        assert!((0.0..=1.0).contains(&iq.avf_estimate));
        assert!(iq.ci95.lo <= iq.avf_estimate && iq.avf_estimate <= iq.ci95.hi);
        assert_eq!(result.structure("rob").unwrap().trials, 15);
        assert_eq!(result.structure("rf").unwrap().trials, 15);
        assert!(result.committed > 0);
        assert!(result.ace_iq_avf > 0.0);
    }

    #[test]
    fn campaign_is_reproducible_per_seed() {
        let cfg = small_cfg(5);
        let run = || {
            run_campaign(
                &cfg,
                &cpu_programs(5),
                &PipelinePolicies::default,
                &Metrics::off(),
                &Tracer::off(),
            )
        };
        let a = run();
        let b = run();
        // Bit-for-bit: same golden digest, same per-trial outcomes.
        assert_eq!(a.golden, b.golden);
        for (sa, sb) in a.structures.iter().zip(&b.structures) {
            assert_eq!(
                (sa.masked, sa.sdc, sa.detected, sa.hang),
                (sb.masked, sb.sdc, sb.detected, sb.hang)
            );
        }
        // And a different workload salt produces a different digest.
        let c = run_campaign(
            &cfg,
            &cpu_programs(6),
            &PipelinePolicies::default,
            &Metrics::off(),
            &Tracer::off(),
        );
        assert_ne!(a.golden.chains, c.golden.chains);
    }

    #[test]
    fn metrics_counters_track_trials() {
        let cfg = small_cfg(3);
        let metrics = Metrics::new();
        let result = run_campaign(
            &cfg,
            &cpu_programs(3),
            &PipelinePolicies::default,
            &metrics,
            &Tracer::off(),
        );
        let total: u64 = result.structures.iter().map(|s| s.trials).sum();
        let snap = metrics.snapshot();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or(0)
        };
        assert_eq!(counter("faultinject.trials"), total);
        let masked: u64 = result.structures.iter().map(|s| s.masked).sum();
        assert_eq!(counter("faultinject.masked"), masked);
    }

    /// The trial a fresh machine runs when it is warmed up and stepped
    /// to the injection cycle on its own: the oracle for forked trials.
    fn resimulate_from_start(
        cfg: &CampaignConfig,
        programs: &[Arc<Program>],
        site: &Planned,
        victim_seq: u64,
    ) -> Outcome {
        let mut pipeline = Pipeline::new(
            cfg.machine.clone(),
            programs.to_vec(),
            PipelinePolicies::default(),
        );
        pipeline.warm_up(cfg.warmup_insts);
        for _ in 0..site.off {
            pipeline.step(&mut NullObserver);
        }
        run_trial(cfg, pipeline, site, victim_seq)
    }

    #[test]
    fn forked_trials_match_resimulation_from_cycle_zero() {
        let mut compared = 0;
        for seed in [3, 5, 11] {
            // More control-bit sites than the small campaign samples.
            let cfg = CampaignConfig {
                iq_trials: 150,
                rob_trials: 75,
                rf_trials: 0,
                ..small_cfg(seed)
            };
            let programs = cpu_programs(seed);
            let plan = plan_sites(&cfg);
            let golden = golden_run(&cfg, &programs, &PipelinePolicies::default, &plan);
            for (site, seen) in plan.iter().zip(&golden.seen) {
                if let SiteObs::Forked {
                    victim_seq,
                    outcome,
                } = *seen
                {
                    let oracle = resimulate_from_start(&cfg, &programs, site, victim_seq);
                    assert_eq!(outcome, oracle, "seed {seed}, site {site:?}");
                    compared += 1;
                }
            }
        }
        assert!(compared > 0, "no waiting-critical site was sampled");
    }

    // ------------------------------------------------------------------
    // Classification edge cases mandated by the test plan.
    // ------------------------------------------------------------------

    fn stepped_pipeline(salt: u64, cycles: u64) -> Pipeline {
        let mut p = Pipeline::new(
            MachineConfig::table2(),
            cpu_programs(salt),
            PipelinePolicies::default(),
        );
        let mut sink = NullObserver;
        for _ in 0..cycles {
            p.step(&mut sink);
        }
        p
    }

    #[test]
    fn wrong_path_victim_is_masked() {
        // Scan for a wrong-path IQ occupant; a payload flip on it can
        // never surface (its seq never enters the committed stream),
        // and the campaign's fast path classifies it masked.
        let mut p = Pipeline::new(
            MachineConfig::table2(),
            cpu_programs(2),
            PipelinePolicies::default(),
        );
        let mut recorder = GoldenRecorder::default();
        let mut found = None;
        for _ in 0..6_000 {
            if found.is_none() {
                let iq = p.iq_state();
                for e in 0..iq.entries() {
                    if let Some(o) = iq.occupant(e) {
                        if o.wrong_path {
                            found = Some(o.seq);
                            break;
                        }
                    }
                }
            }
            p.step(&mut recorder);
        }
        let victim = found.expect("no wrong-path IQ occupant seen in 6k cycles");
        let committed: HashSet<u64> = recorder.commits.iter().map(|r| r.seq).collect();
        assert!(
            !committed.contains(&victim),
            "wrong-path instruction must never commit"
        );
        // The replay is therefore untouched by the perturbation.
        let golden = golden_digest(4, &recorder.commits);
        let faulty = replay(
            4,
            &recorder.commits,
            FaultDirective::PerturbResult {
                victim_seq: victim,
                perturbation: perturbation(33),
            },
        );
        assert_eq!(golden, faulty);
    }

    #[test]
    fn age_field_flip_hangs_like_opcode_flip() {
        // Both select-critical families — the opcode field (bit 0) and
        // the live status/age bits (64..68) — blind issue select to the
        // entry; a correct-path waiting victim then wedges its thread
        // and the watchdog must fire within the trial budget.
        for bit in [0u32, 66] {
            let mut p = stepped_pipeline(9, 700);
            let entry = (0..p.iq_state().entries()).find(
                |&e| matches!(p.iq_state().occupant(e), Some(o) if !o.issued && !o.wrong_path),
            );
            let Some(entry) = entry else {
                panic!("no waiting correct-path IQ occupant at cycle 700");
            };
            match p.inject_iq_bit(entry, bit) {
                AppliedFault::RetireCritical { inhibited, .. } => assert!(inhibited),
                other => panic!("bit {bit}: expected RetireCritical, got {other:?}"),
            }
            let r = p.run(
                SimLimits::cycles(40_000).with_watchdog(3_000),
                &mut NullObserver,
            );
            assert!(r.deadlocked, "bit {bit}: watchdog did not fire");
        }
    }

    #[test]
    fn issued_critical_victim_follows_golden_fate() {
        // A flip on an already-issued instruction's select-critical
        // state cannot stall select (the entry only awaits writeback),
        // so the machine-check-at-retire model judges it by the
        // victim's golden fate: detected when it commits, masked when
        // it is squashed — and only wrong-path victims get squashed.
        let mut p = stepped_pipeline(4, 900);
        let mut issued = Vec::new();
        {
            let iq = p.iq_state();
            for e in 0..iq.entries() {
                if let Some(o) = iq.occupant(e) {
                    if o.issued {
                        issued.push((o.seq, o.wrong_path));
                    }
                }
            }
        }
        assert!(!issued.is_empty(), "no issued IQ occupant at cycle 900");
        let mut recorder = GoldenRecorder::default();
        for _ in 0..30_000 {
            p.step(&mut recorder);
        }
        let committed: HashSet<u64> = recorder.commits.iter().map(|r| r.seq).collect();
        for (seq, wrong_path) in issued {
            let outcome = if committed.contains(&seq) {
                Outcome::Detected
            } else {
                Outcome::Masked
            };
            let expect = if wrong_path {
                Outcome::Masked
            } else {
                Outcome::Detected
            };
            assert_eq!(
                outcome, expect,
                "victim seq {seq} (wrong_path={wrong_path})"
            );
        }
    }
}
