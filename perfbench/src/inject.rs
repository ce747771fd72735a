//! The `inject` workload: statistical fault-injection campaigns
//! (`sim_faultinject::run_campaign`) on the CPU-A mix, each a
//! {baseline, DVM} pair run with one campaign seed. A campaign is a
//! golden run with interleaved site sampling, architectural replays,
//! and a fresh `Pipeline` plus warm-up for every trial that has to be
//! re-simulated — a different use of the simulator from the sweeps'
//! long runs.
//!
//! Campaign seeds come from a fixed pool of [`POOL`] whose outcomes are
//! all in the reference; `--seed` draws the run's seeds from it, and
//! `--seconds` sets how many.

use crate::calib::{Kernel, Scaled};
use crate::probes::Probes;
use crate::reference::{self, Reference};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, Ratio, Tail};
use crate::{guarded, shuffle};
use experiments::{ExperimentContext, ExperimentParams};
use iq_reliability::Scheme;
use sim_faultinject::{run_campaign, CampaignConfig, CampaignResult};
use sim_metrics::Metrics;
use sim_trace::Tracer;
use smt_sim::{FetchPolicyKind, MachineConfig};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;
use workload_gen::Program;

/// Campaign seeds a run may draw from.
pub const POOL: u64 = 64;
/// Workload salt of the CPU-A programs under injection.
pub const SALT: u64 = 1;
/// The two schemes of every pair: (reference tag, scheme).
pub const SCHEMES: [(&str, Scheme); 2] = [
    ("baseline", Scheme::Baseline),
    ("dvm-0.15", Scheme::DvmDynamic { target: 0.15 }),
];
/// Trials per structure in every campaign (the `fault-inject` CLI's
/// 2:1:1 split).
const IQ_TRIALS: u64 = 32;
const ROB_TRIALS: u64 = 16;
const RF_TRIALS: u64 = 16;
/// Nominal host seconds of one pair on a 2-core x86 host; sizes the
/// pair count from `--seconds`, never measured at run time.
const NOMINAL_PAIR_S: f64 = 0.43;
/// Profiling the four CPU-A programs takes about 20 ms, so set-up is
/// sampled more often than the sweeps' set-up.
const SETUP_REPEATS: usize = 15;

pub fn campaign_seed(i: u64) -> u64 {
    1_000 + i
}

/// A short window keeps each re-simulation cheap relative to the golden
/// run, so how many trials need one (which varies with the campaign
/// seed) moves the run time less.
fn campaign_config(machine: &MachineConfig, seed: u64) -> CampaignConfig {
    CampaignConfig {
        machine: machine.clone(),
        warmup_insts: 10_000,
        run_cycles: 10_000,
        watchdog_cycles: 2_000,
        iq_trials: IQ_TRIALS,
        rob_trials: ROB_TRIALS,
        rf_trials: RF_TRIALS,
        ace_window: 40_000,
        seed,
    }
}

fn trials_per_campaign() -> u64 {
    IQ_TRIALS + ROB_TRIALS + RF_TRIALS
}

/// Reference digest of a campaign's golden run (independent of the
/// campaign seed: sampling only observes the golden pipeline).
fn golden_digest(r: &CampaignResult) -> String {
    let g = &r.golden;
    let join = |v: &[u64]| {
        v.iter()
            .map(|x| format!("{x:x}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    format!(
        "committed={} chains={} sinks={} per_thread={} rf={:x} ace_iq_avf={:#018x}",
        r.committed,
        join(&g.chains),
        join(&g.sinks),
        join(&g.committed),
        g.rf_hash,
        r.ace_iq_avf.to_bits()
    )
}

/// Reference digest of a campaign's outcome tallies.
fn tally_digest(r: &CampaignResult) -> String {
    r.structures
        .iter()
        .map(|s| {
            format!(
                "{}={}/{}/{}/{}",
                s.structure, s.masked, s.sdc, s.detected, s.hang
            )
        })
        .collect::<Vec<_>>()
        .join(" ")
}

pub fn golden_key(tag: &str) -> String {
    format!("golden/{tag}")
}

pub fn campaign_key(tag: &str, seed: u64) -> String {
    format!("campaign/{tag}/{seed}")
}

/// Run one campaign; with `probes`, every policy set the campaign asks
/// for is wrapped in timing decorators and counted, the first (the
/// golden run's) marked so its end can be timed.
pub fn run_one(
    machine: &MachineConfig,
    programs: &[Arc<Program>],
    scheme: Scheme,
    seed: u64,
    probes: Option<&Rc<Probes>>,
) -> (CampaignResult, u64) {
    let cfg = campaign_config(machine, seed);
    let calls = Cell::new(0u64);
    let make = || {
        calls.set(calls.get() + 1);
        let policies = scheme.policies(FetchPolicyKind::Icount, machine.iq_size).0;
        match probes {
            Some(p) => p.wrap(policies, calls.get() == 1),
            None => policies,
        }
    };
    let result = run_campaign(&cfg, programs, &make, &Metrics::off(), &Tracer::off());
    (result, calls.get())
}

/// One campaign's check against the reference: golden digest and
/// outcome tallies.
fn check(reference: &Reference, tag: &str, seed: u64, r: &CampaignResult) -> bool {
    let golden = reference::matches(reference, &golden_key(tag), &golden_digest(r));
    let tallies = reference::matches(reference, &campaign_key(tag, seed), &tally_digest(r));
    golden && tallies
}

/// Set-up: profile the CPU-A programs in a fresh context,
/// [`SETUP_REPEATS`] times, each between calibration probes.
fn setup(kernel: &mut Kernel) -> (Vec<Scaled>, ExperimentContext, Vec<Arc<Program>>) {
    let mix = workload_gen::mix_by_name("CPU-A").expect("standard mix");
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let ((ctx, programs), raw_s, speed) = kernel.around(|| {
            let ctx = ExperimentContext::new(ExperimentParams::bench());
            let programs = ctx.mix_programs_salted(&mix, SALT);
            (ctx, programs)
        });
        samples.push(Scaled::new(raw_s, speed));
        last = Some((ctx, programs));
    }
    let (ctx, programs) = last.expect("at least one set-up");
    (samples, ctx, programs)
}

/// The traced pass's decorators and what it adds up per campaign.
#[derive(Default)]
struct Traced {
    probes: Rc<Probes>,
    golden_s: f64,
    classify_s: f64,
    policy_sets: u64,
    campaigns: u64,
}

struct Pair {
    time: Scaled,
    results: Vec<CampaignResult>,
}

fn pass(
    ctx: &ExperimentContext,
    programs: &[Arc<Program>],
    seeds: &[u64],
    reference: &Reference,
    mut traced: Option<&mut Traced>,
    kernel: &mut Kernel,
    out: &mut Outcome,
) -> Vec<Option<Pair>> {
    seeds
        .iter()
        .map(|&seed| {
            let (results, raw_s, speed) = kernel
                .around(|| run_pair(ctx, programs, seed, reference, traced.as_deref_mut(), out));
            Some(Pair {
                time: Scaled::new(raw_s, speed),
                results: results?,
            })
        })
        .collect()
}

/// One {baseline, DVM} pair; `None` when a campaign panicked.
fn run_pair(
    ctx: &ExperimentContext,
    programs: &[Arc<Program>],
    seed: u64,
    reference: &Reference,
    mut traced: Option<&mut Traced>,
    out: &mut Outcome,
) -> Option<Vec<CampaignResult>> {
    let mut results = Vec::new();
    for (tag, scheme) in SCHEMES {
        let start = Instant::now();
        let probes = traced.as_ref().map(|t| &t.probes);
        let run = guarded(&campaign_key(tag, seed), || {
            run_one(&ctx.machine, programs, scheme, seed, probes)
        });
        let end = Instant::now();
        let ok = run
            .as_ref()
            .is_some_and(|(r, _)| check(reference, tag, seed, r));
        out.op(ok);
        let (result, sets) = run?;
        if let Some(t) = traced.as_deref_mut() {
            let golden_end = t.probes.marked_last_fetch.take().unwrap_or(end);
            t.golden_s += (golden_end - start).as_secs_f64();
            t.classify_s += (end - golden_end).as_secs_f64();
            t.policy_sets += sets;
            t.campaigns += 1;
        }
        results.push(result);
    }
    Some(results)
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome {
        na_reason: "run_campaign builds its pipelines and AVF collector internally, and inject never starts the daemon".into(),
        ..Outcome::default()
    };
    let reference = Reference::parse(reference::INJECT);
    // A traced run makes an untraced pass and a traced pass that costs up
    // to twice as much, so each gets a third of the time.
    let budget_s = if traced { seconds / 3 } else { seconds } as f64;
    let pairs = ((budget_s / NOMINAL_PAIR_S) as u64).clamp(1, POOL);
    let mut pool: Vec<u64> = (0..POOL).map(campaign_seed).collect();
    shuffle(&mut pool, seed);
    let seeds = &pool[..pairs as usize];
    out.note(format!(
        "workload inject: {pairs} {{baseline, DVM}} campaign pairs on CPU-A salt {SALT}, {} trials per campaign (iq {IQ_TRIALS}, rob {ROB_TRIALS}, rf {RF_TRIALS}); campaign seeds drawn by seed {seed} from a pool of {POOL}",
        trials_per_campaign()
    ));

    let mut kernel = Kernel::default();
    let (setup_samples, ctx, programs) = setup(&mut kernel);
    let untraced = pass(
        &ctx,
        &programs,
        seeds,
        &reference,
        None,
        &mut kernel,
        &mut out,
    );
    let pair_s: Vec<f64> = untraced.iter().flatten().map(|p| p.time.scaled_s).collect();
    let untraced_s: f64 = pair_s.iter().sum();

    if !traced {
        let done = pair_s.len() as f64;
        let trials = done * (SCHEMES.len() as u64 * trials_per_campaign()) as f64;
        let tail = Tail::of_or_max(&pair_s);
        let setup_scaled: Vec<f64> = setup_samples.iter().map(|s| s.scaled_s).collect();
        let raw: Vec<f64> = untraced.iter().flatten().map(|p| p.time.raw_s).collect();
        out.set("setup_s", median(&setup_scaled).unwrap_or(0.0));
        out.set("job_p50_ms", median(&pair_s).unwrap_or(0.0) * 1e3);
        out.set("job_tail_ms", tail.value * 1e3);
        out.set("jobs_per_s", Ratio::new(done, untraced_s).value());
        out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        out.note(format!(
            "host times below are scaled to nominal host speed; raw: setup median {} s, job p50 {} ms, {} pairs in {} s",
            median(&setup_samples.iter().map(|s| s.raw_s).collect::<Vec<_>>()).unwrap_or(0.0),
            median(&raw).unwrap_or(0.0) * 1e3,
            raw.len(),
            raw.iter().sum::<f64>()
        ));
        out.note(format!(
            "setup_s = median of {} set-ups",
            setup_samples.len()
        ));
        out.note("a job is one {baseline, DVM} campaign pair".to_string());
        out.note(format!("job_tail_ms is the {tail}"));
        out.note(format!(
            "inject_trials_per_s = {} trials / host s (golden runs included)",
            Ratio::new(trials, untraced_s)
        ));
        return out;
    }

    let mix = workload_gen::mix_by_name("CPU-A").expect("standard mix");
    let programs_needed = mix.benchmarks.map(|b| (b, SALT));
    let (generate_s, profile_s) = crate::sweep::setup_by_layer(&programs_needed, &ctx.params);
    out.set("workload-gen.generate_s", generate_s);
    out.set("avf.profile_s", profile_s);

    let mut split = Traced::default();
    let traced_pairs = pass(
        &ctx,
        &programs,
        seeds,
        &reference,
        Some(&mut split),
        &mut kernel,
        &mut out,
    );
    let probes = &split.probes;
    for ((seed, a), b) in seeds.iter().zip(&untraced).zip(&traced_pairs) {
        let same = match (a, b) {
            (Some(a), Some(b)) => a.results.iter().zip(&b.results).all(|(x, y)| {
                golden_digest(x) == golden_digest(y) && tally_digest(x) == tally_digest(y)
            }),
            _ => false,
        };
        if !same {
            eprintln!("perfbench: traced campaign pair {seed} differs from untraced");
        }
        out.op(same);
    }
    let traced_s: f64 = traced_pairs.iter().flatten().map(|p| p.time.scaled_s).sum();
    let results: Vec<&CampaignResult> = traced_pairs
        .iter()
        .flatten()
        .flat_map(|p| &p.results)
        .collect();
    let tally = |f: fn(&sim_faultinject::StructureStats) -> u64| -> f64 {
        results
            .iter()
            .flat_map(|r| &r.structures)
            .map(f)
            .sum::<u64>() as f64
    };
    let trials = tally(|s| s.trials);
    let resims = (split.policy_sets - split.campaigns) as f64;
    out.set("sim-faultinject.trials", trials);
    out.set("sim-faultinject.resimulations", resims);
    out.set(
        "sim-faultinject.resim_ratio",
        Ratio::new(resims, trials).value(),
    );
    out.set("sim-faultinject.golden_s", split.golden_s);
    out.set("sim-faultinject.classify_s", split.classify_s);
    out.set("sim-faultinject.masked", tally(|s| s.masked));
    out.set("sim-faultinject.sdc", tally(|s| s.sdc));
    out.set("sim-faultinject.detected", tally(|s| s.detected));
    out.set("sim-faultinject.hang", tally(|s| s.hang));
    out.set("smt-sim.fetch_policy_s", probes.fetch.seconds());
    out.set("smt-sim.fetch_policy_calls", probes.fetch.calls() as f64);
    out.set("iq-reliability.issue_policy_s", probes.issue.seconds());
    out.set(
        "iq-reliability.issue_policy_calls",
        probes.issue.calls() as f64,
    );
    out.set("iq-reliability.governor_s", probes.governor.seconds());
    out.set(
        "iq-reliability.governor_calls",
        probes.governor.calls() as f64,
    );
    out.set("bench.trace_overhead_s", traced_s - untraced_s);
    out.note(format!(
        "sim-faultinject.resim_ratio = {} (policy sets built - campaigns) / trials",
        Ratio::new(resims, trials)
    ));
    out.note("sim-faultinject.golden_s runs from campaign start to the golden pipeline's last fetch; classify_s covers the rest (replays and re-simulations)".to_string());
    out.note("policy times cover every pipeline of every campaign: golden runs, their warm-ups and re-simulations".to_string());
    out.note(format!(
        "tracing overhead = {} s (traced {traced_s} s - untraced {untraced_s} s over {} pairs, scaled to nominal host speed)",
        traced_s - untraced_s,
        seeds.len()
    ));
    out
}

/// Every campaign of the pool, for recording the reference.
pub fn record(reference: &mut Reference) {
    let (_, ctx, programs) = setup(&mut Kernel::default());
    for (tag, scheme) in SCHEMES {
        for i in 0..POOL {
            let seed = campaign_seed(i);
            let (r, _) = run_one(&ctx.machine, &programs, scheme, seed, None);
            let golden = golden_digest(&r);
            if let Some(first) = reference.get(&golden_key(tag)) {
                assert_eq!(
                    first, golden,
                    "the golden run must not depend on the campaign seed"
                );
            }
            reference.insert(golden_key(tag), golden);
            reference.insert(campaign_key(tag, seed), tally_digest(&r));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_campaign_matches_untraced_and_counts_resimulations() {
        let ctx = ExperimentContext::new(ExperimentParams::bench());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let programs = ctx.mix_programs_salted(&mix, SALT);
        let seed = campaign_seed(3);
        let (plain, plain_sets) = run_one(&ctx.machine, &programs, Scheme::Baseline, seed, None);
        let probes = Probes::new();
        let (traced, traced_sets) = run_one(
            &ctx.machine,
            &programs,
            Scheme::Baseline,
            seed,
            Some(&probes),
        );
        assert_eq!(golden_digest(&plain), golden_digest(&traced));
        assert_eq!(tally_digest(&plain), tally_digest(&traced));
        assert_eq!(plain_sets, traced_sets);
        assert!(plain_sets >= 1, "the golden run builds one policy set");
        assert!(probes.marked_last_fetch.get().is_some());
        assert!(probes.fetch.calls() > 0);
    }

    #[test]
    fn reference_covers_the_whole_pool() {
        let reference = Reference::parse(reference::INJECT);
        for (tag, _) in SCHEMES {
            assert!(reference.get(&golden_key(tag)).is_some());
            for i in 0..POOL {
                assert!(reference
                    .get(&campaign_key(tag, campaign_seed(i)))
                    .is_some());
            }
        }
    }
}
