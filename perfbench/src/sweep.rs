//! The `sweep-cpu` and `sweep-mem` workloads: design-space sweep points
//! run serially on one thread at the `ExperimentParams::bench()` budget.
//!
//! A point makes the same public calls, in the same order, as
//! `experiments::run_scheme_salted`: look the profiled programs up in
//! the shared `ExperimentContext`, build the scheme's policies and a
//! `Pipeline`, warm up, run the measured window under an `AvfCollector`
//! and take its report. The benchmark drives those calls itself because
//! `RunOutcome` does not expose the per-thread commit counts, fetch and
//! squash counts or warm-up length the correctness digest and the
//! throughput figures need; a test pins this driver to the runner.
//!
//! The point set is fixed (salts `1..=n`, `n` from `--seconds`), so the
//! modelled outputs are the same on every seed; the seed sets the order
//! the points run in.

use crate::calib::{Kernel, Scaled};
use crate::probes::{Probes, TimedObserver};
use crate::reference::{self, Reference};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, Ratio, Tail};
use crate::{guarded, shuffle};
use avf::AvfCollector;
use experiments::{ExperimentContext, ExperimentParams};
use iq_reliability::Scheme;
use sim_profile::ProfileReport;
use smt_sim::{FetchPolicyKind, Pipeline, SimLimits, SimStats};
use std::rc::Rc;
use std::time::Instant;

/// Largest salt count a run may use; the reference covers salts
/// `1..=MAX_SALTS` of every configuration.
pub const MAX_SALTS: u64 = 4;
/// Set-up is repeated this many times per run; `setup_s` is the median.
const SETUP_REPEATS: usize = 9;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepKind {
    Cpu,
    Mem,
}

/// One (mix, scheme, fetch policy) configuration of a sweep.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub mix: &'static str,
    pub scheme: Scheme,
    /// Short scheme name used in reference keys.
    pub tag: &'static str,
    pub fetch: FetchPolicyKind,
}

/// One sweep point: a configuration on one workload salt.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    pub config: Config,
    pub salt: u64,
}

impl Point {
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}/s{}",
            self.config.mix,
            self.config.tag,
            self.config.fetch.label(),
            self.salt
        )
    }
}

/// The DVM reliability target of `sweep-mem` (absolute IQ AVF).
pub const DVM_TARGET: f64 = 0.15;

impl SweepKind {
    pub fn configs(self) -> Vec<Config> {
        let (mixes, schemes): (&[&str], &[(Scheme, &str, FetchPolicyKind)]) = match self {
            SweepKind::Cpu => (
                &["CPU-A", "CPU-B", "CPU-C"],
                &[
                    (Scheme::Baseline, "baseline", FetchPolicyKind::Icount),
                    (Scheme::Visa, "visa", FetchPolicyKind::Icount),
                ],
            ),
            SweepKind::Mem => (
                &["MEM-A", "MEM-B", "MIX-A"],
                &[
                    (Scheme::VisaOpt1, "visa-opt1", FetchPolicyKind::Icount),
                    (Scheme::VisaOpt2, "visa-opt2", FetchPolicyKind::Flush),
                    (
                        Scheme::DvmDynamic { target: DVM_TARGET },
                        "dvm-0.15",
                        FetchPolicyKind::Icount,
                    ),
                ],
            ),
        };
        mixes
            .iter()
            .flat_map(|&mix| {
                schemes.iter().map(move |&(scheme, tag, fetch)| Config {
                    mix,
                    scheme,
                    tag,
                    fetch,
                })
            })
            .collect()
    }

    /// Nominal host seconds of one salt round (every configuration once)
    /// on a 2-core x86 host. Only sizes the fixed point set from
    /// `--seconds`; never measured at run time, so the simulated work
    /// depends on the arguments alone.
    fn nominal_round_s(self) -> f64 {
        match self {
            SweepKind::Cpu => 7.5,
            SweepKind::Mem => 4.5,
        }
    }

    pub fn salts(self, seconds: u64) -> u64 {
        ((seconds as f64 / self.nominal_round_s()) as u64).clamp(1, MAX_SALTS)
    }

    pub fn points(self, salts: u64) -> Vec<Point> {
        (1..=salts)
            .flat_map(|salt| {
                self.configs()
                    .into_iter()
                    .map(move |config| Point { config, salt })
            })
            .collect()
    }
}

/// What one point produced.
#[derive(Debug, Clone)]
pub struct PointRun {
    pub digest: String,
    /// Host seconds for the whole point (lookup, warm-up, measured
    /// window, AVF report).
    pub job_s: f64,
    pub warmup_s: f64,
    pub measure_s: f64,
    pub report_s: f64,
    pub warmup_cycles: u64,
    /// Measured-window statistics.
    pub stats: SimStats,
    pub iq_avf: f64,
    /// The run stopped on the commit watchdog or a cancel token.
    pub stopped_early: bool,
    /// Host-speed factor measured around the point (see [`crate::calib`]);
    /// 1 until the pass sets it.
    pub speed: f64,
    /// Stage profile of the measured window (traced points only).
    pub profile: Option<ProfileReport>,
    /// Snapshot save/restore timings and size (traced points only).
    pub snapshot: Option<SnapshotCost>,
}

#[derive(Debug, Clone, Copy)]
pub struct SnapshotCost {
    pub save_s: f64,
    pub restore_s: f64,
    pub bytes: usize,
    /// The restored pipeline reports the saved pipeline's statistics.
    pub faithful: bool,
}

/// Run one point. With `probes`, the policies and the AVF observer are
/// wrapped in timing decorators, stage profiling is on, and the final
/// pipeline is snapshotted and restored once (outside the job time).
pub fn run_point(ctx: &ExperimentContext, point: &Point, probes: Option<&Rc<Probes>>) -> PointRun {
    let Config {
        mix, scheme, fetch, ..
    } = point.config;
    let mix = workload_gen::mix_by_name(mix).expect("standard mix");
    let job = Instant::now();
    let programs = ctx.mix_programs_salted(&mix, point.salt);
    let (policies, _dvm) = scheme.policies(fetch, ctx.machine.iq_size);
    let policies = match probes {
        Some(p) => p.wrap(policies, false),
        None => policies,
    };
    let mut pipeline = Pipeline::new(ctx.machine.clone(), programs.clone(), policies);
    if probes.is_some() {
        pipeline.set_stage_profiling(true);
    }

    let t = Instant::now();
    let start = pipeline.warm_up(ctx.params.warmup_insts);
    let warmup_s = t.elapsed().as_secs_f64();

    let mut collector =
        AvfCollector::new(&ctx.machine, ctx.params.ace_window, 10_000).with_start_cycle(start);
    let limits = SimLimits::cycles(ctx.params.run_cycles);
    let t = Instant::now();
    let result = match probes {
        Some(p) => pipeline.run(
            limits,
            &mut TimedObserver {
                inner: &mut collector,
                probes: p,
            },
        ),
        None => pipeline.run(limits, &mut collector),
    };
    let measure_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let avf = collector.report();
    let report_s = t.elapsed().as_secs_f64();
    let job_s = job.elapsed().as_secs_f64();

    let s = &result.stats;
    let digest = format!(
        "cycles={} warmup_cycles={} committed={} fetched={} squashed={} l2_misses={} flushes={} iq_avf={:#018x}",
        s.cycles,
        start,
        s.committed_per_thread
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(","),
        s.fetched,
        s.squashed,
        s.l2_misses,
        s.flushes,
        avf.iq_avf.to_bits(),
    );

    let (profile, snapshot) = match probes {
        None => (None, None),
        Some(_) => {
            let t = Instant::now();
            let bytes = pipeline.save_snapshot();
            let save_s = t.elapsed().as_secs_f64();
            let (fresh_policies, _) = scheme.policies(fetch, ctx.machine.iq_size);
            let mut restored = Pipeline::new(ctx.machine.clone(), programs, fresh_policies);
            let t = Instant::now();
            let ok = restored.restore_snapshot(&bytes).is_ok();
            let restore_s = t.elapsed().as_secs_f64();
            let faithful = ok
                && restored.cycle() == pipeline.cycle()
                && restored.stats().committed_per_thread == s.committed_per_thread
                && restored.stats().fetched == s.fetched;
            let cost = SnapshotCost {
                save_s,
                restore_s,
                bytes: bytes.len(),
                faithful,
            };
            (Some(pipeline.profile_report()), Some(cost))
        }
    };

    PointRun {
        digest,
        job_s,
        warmup_s,
        measure_s,
        report_s,
        warmup_cycles: start,
        iq_avf: avf.iq_avf,
        stopped_early: result.deadlocked || result.cancelled,
        speed: 1.0,
        stats: result.stats,
        profile,
        snapshot,
    }
}

/// Every (benchmark, salt) program the point set needs, deduplicated
/// (mixes share benchmarks).
fn programs_needed(points: &[Point]) -> Vec<(&'static str, u64)> {
    let mut needed: Vec<(&'static str, u64)> = points
        .iter()
        .flat_map(|p| {
            let mix = workload_gen::mix_by_name(p.config.mix).expect("standard mix");
            mix.benchmarks.map(|b| (b, p.salt))
        })
        .collect();
    needed.sort();
    needed.dedup();
    needed
}

/// Set-up: generate and profile every program of the point set in a
/// fresh context, [`SETUP_REPEATS`] times. Returns each repeat's raw and
/// scaled seconds and the last context (the one the run uses).
fn setup(points: &[Point], kernel: &mut Kernel) -> (Vec<Scaled>, ExperimentContext) {
    let needed = programs_needed(points);
    let mut samples = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (ctx, raw_s, speed) = kernel.around(|| {
            let ctx = ExperimentContext::new(ExperimentParams::bench());
            for &(bench, salt) in &needed {
                ctx.tagged_program_salted(bench, salt);
            }
            ctx
        });
        samples.push(Scaled::new(raw_s, speed));
        last = Some(ctx);
    }
    (samples, last.expect("at least one set-up"))
}

/// The set-up split by layer (traced run): seconds generating and
/// seconds profiling the given (benchmark, salt) programs.
pub fn setup_by_layer(programs: &[(&'static str, u64)], params: &ExperimentParams) -> (f64, f64) {
    let (mut generate_s, mut profile_s) = (0.0, 0.0);
    for &(bench, salt) in programs {
        let model = workload_gen::model_by_name(bench).expect("known benchmark");
        let t = Instant::now();
        let raw = std::sync::Arc::new(workload_gen::generate_program_salted(&model, salt));
        generate_s += t.elapsed().as_secs_f64();
        let t = Instant::now();
        let _ = avf::profiler::profile_and_tag(&raw, params.profile_insts, params.ace_window);
        profile_s += t.elapsed().as_secs_f64();
    }
    (generate_s, profile_s)
}

/// Run every point once between calibration probes; each is an
/// operation, failed when it panics, stops early or its digest differs
/// from the reference.
fn pass(
    ctx: &ExperimentContext,
    points: &[Point],
    reference: &Reference,
    probes: Option<&Rc<Probes>>,
    kernel: &mut Kernel,
    out: &mut Outcome,
) -> Vec<Option<PointRun>> {
    points
        .iter()
        .map(|p| {
            let (run, _, speed) = kernel.around(|| guarded(&p.key(), || run_point(ctx, p, probes)));
            let ok = run.as_ref().is_some_and(|r| {
                !r.stopped_early && reference::matches(reference, &p.key(), &r.digest)
            });
            out.op(ok);
            run.map(|r| PointRun { speed, ..r })
        })
        .collect()
}

/// Scaled job seconds summed over `runs`.
fn scaled_total(runs: &[&PointRun]) -> f64 {
    runs.iter().map(|r| r.job_s * r.speed).sum()
}

pub fn run(kind: SweepKind, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome {
        na_reason: "the sweeps never inject faults or start the daemon".into(),
        ..Outcome::default()
    };
    let reference = Reference::parse(reference::SWEEP);
    // A traced run makes an untraced pass and a traced pass that costs up
    // to twice as much, so each gets a third of the time.
    let salts = kind.salts(if traced { seconds / 3 } else { seconds });
    let mut points = kind.points(salts);
    shuffle(&mut points, seed);
    out.note(format!(
        "workload {:?} sweep: {} points ({} configurations x salts 1..={salts}), serial, seed {seed} sets the order",
        kind,
        points.len(),
        kind.configs().len()
    ));

    let mut kernel = Kernel::default();
    let (setup_samples, ctx) = setup(&points, &mut kernel);
    let runs = pass(&ctx, &points, &reference, None, &mut kernel, &mut out);
    let done: Vec<&PointRun> = runs.iter().flatten().collect();

    if !traced {
        report_end_to_end(&mut out, &setup_samples, &done);
        return out;
    }

    let (generate_s, profile_s) = setup_by_layer(&programs_needed(&points), &ctx.params);
    out.set("workload-gen.generate_s", generate_s);
    out.set("avf.profile_s", profile_s);

    let probes = Probes::new();
    let traced_runs = pass(
        &ctx,
        &points,
        &reference,
        Some(&probes),
        &mut kernel,
        &mut out,
    );
    // Transparency: each traced point must reproduce its untraced
    // statistics exactly.
    for ((p, a), b) in points.iter().zip(&runs).zip(&traced_runs) {
        let same = matches!((a, b), (Some(a), Some(b)) if a.digest == b.digest);
        if !same {
            eprintln!("perfbench: traced point {} differs from untraced", p.key());
        }
        out.op(same);
    }
    let traced_done: Vec<&PointRun> = traced_runs.iter().flatten().collect();
    report_per_layer(&mut out, &probes, &traced_done);
    let (untraced_s, traced_s) = (scaled_total(&done), scaled_total(&traced_done));
    out.set("bench.trace_overhead_s", traced_s - untraced_s);
    out.note(format!(
        "tracing overhead = {} s (traced {traced_s} s - untraced {untraced_s} s over {} points, scaled to nominal host speed)",
        traced_s - untraced_s,
        traced_done.len()
    ));
    out
}

fn report_end_to_end(out: &mut Outcome, setup: &[Scaled], runs: &[&PointRun]) {
    let raw: Vec<f64> = runs.iter().map(|r| r.job_s).collect();
    let jobs: Vec<f64> = runs.iter().map(|r| r.job_s * r.speed).collect();
    let job_total: f64 = jobs.iter().sum();
    let sim_s: f64 = runs
        .iter()
        .map(|r| (r.warmup_s + r.measure_s) * r.speed)
        .sum();
    // Warm-up stops at the first cycle its commit target is reached, so
    // it contributes the target (overshoot is below the commit width).
    let warm_insts = ExperimentParams::bench().warmup_insts;
    let insts: u64 = runs
        .iter()
        .map(|r| warm_insts + r.stats.total_committed())
        .sum();
    let cycles: u64 = runs.iter().map(|r| r.warmup_cycles + r.stats.cycles).sum();
    let tail = Tail::of_or_max(&jobs);
    let n = runs.len() as f64;
    let setup_scaled: Vec<f64> = setup.iter().map(|s| s.scaled_s).collect();

    out.set("setup_s", median(&setup_scaled).unwrap_or(0.0));
    out.set("job_p50_ms", median(&jobs).unwrap_or(0.0) * 1e3);
    out.set("job_tail_ms", tail.value * 1e3);
    out.set("jobs_per_s", Ratio::new(n, job_total).value());
    out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));

    out.note(format!(
        "host times below are scaled to nominal host speed; raw: setup median {} s, job p50 {} ms, {} points in {} s",
        median(&setup.iter().map(|s| s.raw_s).collect::<Vec<_>>()).unwrap_or(0.0),
        median(&raw).unwrap_or(0.0) * 1e3,
        runs.len(),
        raw.iter().sum::<f64>()
    ));
    out.note(format!("setup_s = median of {} set-ups", setup.len()));
    out.note(format!("job_tail_ms is the {tail}"));
    out.note(format!(
        "jobs_per_s = {} points / host s",
        Ratio::new(n, job_total)
    ));
    out.note(format!(
        "sim_kips = {} kinst/s (committed kinst / host s of warm-up + measured windows)",
        Ratio::new(insts as f64 / 1e3, sim_s)
    ));
    out.note(format!(
        "sim_kcps = {} kcycles/s (simulated kcycles / host s of warm-up + measured windows)",
        Ratio::new(cycles as f64 / 1e3, sim_s)
    ));
    out.note(format!(
        "sim_ipc = {} inst/cycle (mean throughput IPC over {} points)",
        runs.iter().map(|r| r.stats.throughput_ipc()).sum::<f64>() / n,
        runs.len()
    ));
    out.note(format!(
        "iq_avf = {} (mean IQ AVF over {} points)",
        runs.iter().map(|r| r.iq_avf).sum::<f64>() / n,
        runs.len()
    ));
}

fn report_per_layer(out: &mut Outcome, probes: &Probes, runs: &[&PointRun]) {
    let sum = |f: fn(&SimStats) -> u64| runs.iter().map(|r| f(&r.stats)).sum::<u64>() as f64;
    let sum_s = |f: fn(&PointRun) -> f64| runs.iter().map(|r| f(r)).sum::<f64>();
    let n = runs.len() as f64;
    let cycles = sum(|s| s.cycles);
    let committed = sum(SimStats::total_committed);
    let measure_s = sum_s(|r| r.measure_s);

    out.set("avf.observer_s", probes.observer.seconds());
    out.set("avf.observer_calls", probes.observer.calls() as f64);
    out.set("avf.report_s", sum_s(|r| r.report_s));
    out.set("avf.iq_avf", sum_s(|r| r.iq_avf) / n);
    out.set("smt-sim.ipc", sum_s(|r| r.stats.throughput_ipc()) / n);
    out.set("smt-sim.warmup_s", sum_s(|r| r.warmup_s));
    out.set("smt-sim.measure_s", measure_s);
    out.set(
        "smt-sim.ns_per_cycle",
        Ratio::new(measure_s * 1e9, cycles).value(),
    );
    out.set(
        "smt-sim.us_per_kinst",
        Ratio::new(measure_s * 1e6, committed / 1e3).value(),
    );

    let profiles: Vec<&ProfileReport> = runs.iter().filter_map(|r| r.profile.as_ref()).collect();
    let self_s = |name: &str| -> f64 {
        profiles
            .iter()
            .flat_map(|p| p.nodes.iter().filter(move |n| n.name == name))
            .map(|n| n.self_ns as f64 / 1e9)
            .sum()
    };
    for (stage, metric) in [
        ("fetch", "smt-sim.stage.fetch_s"),
        ("dispatch", "smt-sim.stage.dispatch_s"),
        ("issue", "smt-sim.stage.issue_s"),
        ("wakeup", "smt-sim.stage.wakeup_s"),
        ("select", "smt-sim.stage.select_s"),
        ("writeback", "smt-sim.stage.writeback_s"),
        ("commit", "smt-sim.stage.commit_s"),
        ("end_of_cycle", "smt-sim.stage.end_of_cycle_s"),
    ] {
        out.set(metric, self_s(stage));
    }
    let subtree = |name: &str| -> f64 { profiles.iter().map(|p| p.subtree_self_s(name)).sum() };
    out.set("mem-hier.self_s", subtree("mem_hier"));
    out.set("branch-pred.self_s", subtree("branch_pred"));

    out.set("smt-sim.fetch_policy_s", probes.fetch.seconds());
    out.set("smt-sim.fetch_policy_calls", probes.fetch.calls() as f64);
    out.set("smt-sim.cycles", cycles);
    out.set("smt-sim.committed", committed);
    out.set(
        "smt-sim.useful_fetch_ratio",
        Ratio::new(committed, sum(|s| s.fetched)).value(),
    );
    out.set("smt-sim.squashed", sum(|s| s.squashed));
    out.set(
        "smt-sim.iq_occupancy_avg",
        Ratio::new(sum(|s| s.iq_occupancy_sum), cycles).value(),
    );
    out.set(
        "smt-sim.ready_len_avg",
        Ratio::new(sum(|s| s.ready_len_sum), cycles).value(),
    );
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
    out.set(
        "iq-reliability.governor_stall_cycles",
        sum(|s| s.governor_stall_cycles),
    );
    out.set("iq-reliability.flushes", sum(|s| s.flushes));
    out.set(
        "mem-hier.l2_misses_per_kinst",
        Ratio::new(sum(|s| s.l2_misses), committed / 1e3).value(),
    );
    out.set(
        "branch-pred.mispredict_rate",
        Ratio::new(sum(|s| s.mispredicts), sum(|s| s.branches)).value(),
    );

    let snaps: Vec<SnapshotCost> = runs.iter().filter_map(|r| r.snapshot).collect();
    let med = |f: fn(&SnapshotCost) -> f64| median(&snaps.iter().map(f).collect::<Vec<_>>());
    out.set(
        "sim-snapshot.save_ms",
        med(|c| c.save_s * 1e3).unwrap_or(0.0),
    );
    out.set(
        "sim-snapshot.restore_ms",
        med(|c| c.restore_s * 1e3).unwrap_or(0.0),
    );
    out.set("sim-snapshot.bytes", med(|c| c.bytes as f64).unwrap_or(0.0));
    if snaps.iter().any(|c| !c.faithful) {
        eprintln!("perfbench: a restored snapshot did not reproduce its pipeline");
        out.broken = true;
    }

    out.note(format!(
        "smt-sim.useful_fetch_ratio = {}",
        Ratio::new(committed, sum(|s| s.fetched))
    ));
    out.note(format!(
        "branch-pred.mispredict_rate = {}",
        Ratio::new(sum(|s| s.mispredicts), sum(|s| s.branches))
    ));
    out.note(format!(
        "sim-snapshot.* are medians over {} final pipelines",
        snaps.len()
    ));
    out.note("stage, policy and observer times cover the measured window; the observer runs inside the commit and writeback stages, so its time is also part of theirs".to_string());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ExperimentParams {
        ExperimentParams {
            profile_insts: 5_000,
            warmup_insts: 4_000,
            run_cycles: 4_000,
            ..ExperimentParams::bench()
        }
    }

    /// The benchmark's point driver must reproduce the repo runner's
    /// outcome bit for bit, untraced and traced.
    #[test]
    fn point_driver_matches_runner() {
        for config in [SweepKind::Cpu.configs()[1], SweepKind::Mem.configs()[1]] {
            let point = Point { config, salt: 2 };
            let ctx = ExperimentContext::new(tiny_params());
            let mix = workload_gen::mix_by_name(config.mix).unwrap();
            let want = experiments::run_scheme_salted(&ctx, &mix, config.scheme, config.fetch, 2);
            for probes in [None, Some(Probes::new())] {
                let got = run_point(&ctx, &point, probes.as_ref());
                assert_eq!(
                    got.stats.throughput_ipc().to_bits(),
                    want.throughput_ipc.to_bits()
                );
                assert_eq!(got.iq_avf.to_bits(), want.avf.iq_avf.to_bits());
                assert_eq!(got.stats.l2_misses, want.l2_misses);
                assert_eq!(got.stats.flushes, want.flushes);
                assert_eq!(got.stats.governor_stall_cycles, want.governor_stall_cycles);
                assert_eq!(got.stats.cycles, ctx.params.run_cycles);
            }
        }
    }

    #[test]
    fn traced_point_reports_profile_and_snapshot() {
        let ctx = ExperimentContext::new(tiny_params());
        let point = Point {
            config: SweepKind::Mem.configs()[2],
            salt: 1,
        };
        let probes = Probes::new();
        let traced = run_point(&ctx, &point, Some(&probes));
        let plain = run_point(&ctx, &point, None);
        assert_eq!(traced.digest, plain.digest);
        assert!(probes.fetch.calls() > 0 && probes.issue.calls() > 0);
        assert!(probes.governor.calls() > 0 && probes.observer.calls() > 0);
        let snap = traced.snapshot.unwrap();
        assert!(snap.faithful && snap.bytes > 0);
        assert!(traced
            .profile
            .unwrap()
            .nodes
            .iter()
            .any(|n| n.name == "wakeup"));
    }

    #[test]
    fn point_sets_are_fixed_and_sized_from_seconds() {
        assert_eq!(SweepKind::Cpu.salts(15), 2);
        assert_eq!(SweepKind::Mem.salts(15), 3);
        assert_eq!(SweepKind::Cpu.salts(1), 1);
        assert_eq!(SweepKind::Mem.salts(600), MAX_SALTS);
        assert_eq!(SweepKind::Cpu.points(2).len(), 12);
        let mut a = SweepKind::Mem.points(3);
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        let keys = |v: &[Point]| v.iter().map(Point::key).collect::<Vec<_>>();
        assert_eq!(keys(&a), keys(&b), "same seed, same order");
        let mut sorted_a = keys(&a);
        sorted_a.sort();
        let mut all = keys(&SweepKind::Mem.points(3));
        all.sort();
        assert_eq!(sorted_a, all, "a permutation of the fixed set");
    }
}
