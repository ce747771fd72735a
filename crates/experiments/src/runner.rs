//! Low-level simulation driver shared by every experiment.
//!
//! Every measured run — exhibits, ablation variants, bench samples,
//! checkpointed campaign jobs — goes through one driver (`drive`);
//! checkpointing is an optional argument to it, not a separate code
//! path, and what the run simulates is a `RunVariant`.

use crate::checkpoint::{
    decode_checkpoint, run_measured_checkpointed, CheckpointPolicy, C_SNAPSHOTS_RESTORED,
    C_SNAPSHOTS_SKIPPED_CORRUPT,
};
use crate::context::ExperimentContext;
use crate::manifest::{slug, RunManifest};
use avf::{AvfCollector, AvfReport};
use iq_reliability::{DvmHandle, Scheme};
use sim_harness::JobError;
use sim_metrics::summary::MetricsSummary;
use sim_metrics::{Metrics, MetricsSnapshot};
use sim_profile::ProfileReport;
use sim_trace::chrome::ChromeTraceSink;
use sim_trace::timing::{PhaseTimings, StageSeconds};
use sim_trace::{TraceEvent, Tracer};
use smt_sim::pipeline::PipelinePolicies;
use smt_sim::{
    CancelToken, FetchPolicyKind, Pipeline, SimLimits, SimStats, DEFAULT_INTERVAL_CYCLES,
};
use std::path::Path;
use workload_gen::WorkloadMix;

/// Builds one run's policy bundle for a fetch policy and IQ size; DVM
/// builders also return the controller's telemetry handle.
pub(crate) type PolicyBuilder =
    dyn Fn(FetchPolicyKind, usize) -> (PipelinePolicies, Option<DvmHandle>) + Send + Sync;

/// What one measured run simulates: the label its manifest and artifact
/// names carry, the policy builder, and the governor sampling interval.
/// Every evaluated [`Scheme`] is one (`RunVariant::from`); the ablations
/// build the rest.
pub(crate) struct RunVariant {
    pub label: &'static str,
    pub policies: Box<PolicyBuilder>,
    pub interval_cycles: u64,
}

impl From<Scheme> for RunVariant {
    fn from(scheme: Scheme) -> RunVariant {
        RunVariant {
            label: scheme.label(),
            policies: Box::new(move |fetch, iq_size| scheme.policies(fetch, iq_size)),
            interval_cycles: DEFAULT_INTERVAL_CYCLES,
        }
    }
}

/// Everything one simulation produced.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    pub mix: String,
    pub scheme: &'static str,
    pub fetch: FetchPolicyKind,
    pub avf: AvfReport,
    pub throughput_ipc: f64,
    pub harmonic_ipc: f64,
    pub l2_misses: u64,
    pub flushes: u64,
    pub mispredict_rate: f64,
    pub governor_stall_cycles: u64,
    /// Average adaptive wq_ratio (DVM runs only).
    pub dvm_avg_ratio: Option<f64>,
    pub deadlocked: bool,
    /// True when a cooperative cancel token stopped the measured run
    /// early (wall-clock deadline enforcement); the statistics cover
    /// only the cycles that ran and must not be aggregated.
    pub cancelled: bool,
    /// Workload-generation salt (0 = canonical workload).
    pub salt: u64,
    /// Host wall-clock cost of the run, by phase.
    pub timings: PhaseTimings,
    /// Simulated cycles per host second over the measured window — the
    /// simulator's throughput. Only cycles this process simulated count:
    /// a checkpoint-restored run divides its simulated tail (final cycle
    /// minus restore cycle) by the tail's wall time, so restored and
    /// fresh samples are comparable.
    pub cycles_per_sec: f64,
    /// Per-pipeline-stage wall-clock breakdown (traced runs only).
    pub stage_seconds: Option<StageSeconds>,
    /// Digest of the run's sim-metrics registry (metrics-enabled
    /// contexts only).
    pub sim_metrics: Option<MetricsSummary>,
    /// Raw pipeline statistics over the measured window (e.g. Figure
    /// 2's ready-queue census).
    pub stats: SimStats,
}

/// Run one (mix, scheme, fetch policy) combination under the context's
/// budget: profile-tagged programs, warmup, then a fixed measured cycle
/// window with ground-truth AVF collection. Each run self-times its
/// phases, logs a [`RunManifest`] on the context, and — when the context
/// has a trace directory — exports a Chrome trace-event file.
pub fn run_scheme(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
) -> RunOutcome {
    run_scheme_salted(ctx, mix, scheme, fetch, 0)
}

/// [`run_scheme`] with an explicit workload-generation salt: salt 0 is
/// the canonical workload; other salts draw independent programs from
/// the same benchmark models (cross-seed statistics, bench baselines).
pub fn run_scheme_salted(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
    salt: u64,
) -> RunOutcome {
    drive(ctx, mix, &scheme.into(), fetch, salt, None, None)
        .expect("uncheckpointed runs cannot fail")
}

/// [`run_scheme_salted`] with an optional cooperative cancel token and
/// mid-run checkpointing: before simulating, the job's
/// [`SnapshotStore`](sim_harness::SnapshotStore) is consulted and the
/// newest valid snapshot — if any — is restored (skipping corrupt
/// generations, with a typed [`JobError::Corrupt`] when every
/// generation is bad), so the run continues bit-identically from the
/// last checkpoint instead of re-simulating from cycle zero. A restored
/// run skips warmup — the warmed-up, mid-measurement machine *is* the
/// snapshot.
///
/// During the measured window a snapshot lands in the store every
/// `policy.every` simulated cycles (rounded to the sampling-interval
/// grid) and `on_checkpoint` fires once per durable snapshot — the hook
/// the campaign layer uses to mark the journal `checkpointed`. With
/// `policy.selfcheck`, structural invariants are validated at every
/// boundary and the run fails fast as [`JobError::Diverged`] instead of
/// persisting a poisoned checkpoint. The cancel token lets a wall-clock
/// deadline stop the run (warmup included) at the next interval-clock
/// tick instead of waiting out the full cycle budget.
#[allow(clippy::too_many_arguments)]
pub fn run_scheme_checkpointed(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    scheme: Scheme,
    fetch: FetchPolicyKind,
    salt: u64,
    cancel: Option<CancelToken>,
    policy: &CheckpointPolicy<'_>,
    mut on_checkpoint: impl FnMut(u64),
) -> Result<RunOutcome, JobError> {
    drive(
        ctx,
        mix,
        &scheme.into(),
        fetch,
        salt,
        cancel,
        Some((policy, &mut on_checkpoint)),
    )
}

/// The one measured-run driver. Generates the programs, builds the
/// pipeline and collector, restores the newest valid snapshot when a
/// checkpoint policy is given (warming up otherwise), attaches the
/// context's observers, runs the measured window, then reports,
/// exports and records the run's manifest. Without a policy the run
/// cannot fail; with one, restore and snapshot failures surface as
/// typed [`JobError`]s.
pub(crate) fn drive(
    ctx: &ExperimentContext,
    mix: &WorkloadMix,
    variant: &RunVariant,
    fetch: FetchPolicyKind,
    salt: u64,
    cancel: Option<CancelToken>,
    checkpoint: Option<(&CheckpointPolicy<'_>, &mut dyn FnMut(u64))>,
) -> Result<RunOutcome, JobError> {
    let mut timings = PhaseTimings::default();
    let run_id = ctx.next_run_id();
    let base = format!(
        "run{:04}_{}_{}",
        run_id,
        slug(&mix.name),
        slug(variant.label)
    );

    let programs = PhaseTimings::time(&mut timings.generate_s, || {
        ctx.mix_programs_salted(mix, salt)
    });
    // Fresh (pipeline, collector, dvm-handle) factory. The restore path
    // decodes each snapshot candidate into freshly built objects, so a
    // partial restore from a corrupt file can never contaminate the
    // state an older valid snapshot then restores into.
    let build = || {
        let (policies, dvm_handle) = (variant.policies)(fetch, ctx.machine.iq_size);
        let mut pipeline = Pipeline::new(ctx.machine.clone(), programs.clone(), policies);
        pipeline.set_interval_cycles(variant.interval_cycles);
        let collector = AvfCollector::new(&ctx.machine, ctx.params.ace_window, 10_000);
        (pipeline, collector, dvm_handle)
    };
    let restored = match &checkpoint {
        Some((policy, _)) => restore_latest(policy, mix, variant.label, build)?,
        None => None,
    };
    let was_restored = restored.is_some();
    let (mut pipeline, mut collector, dvm_handle) = restored.unwrap_or_else(build);
    // Run control, not observation: deadlines may stop warmup too, and
    // the heartbeat counts every cycle this process simulates.
    if let Some(token) = cancel {
        pipeline.set_cancel_token(token);
    }
    if let Some(counter) = ctx.progress_counter() {
        pipeline.set_progress_counter(counter);
    }
    if !was_restored {
        let start = PhaseTimings::time(&mut timings.warmup_s, || {
            pipeline.warm_up(ctx.params.warmup_insts)
        });
        collector = collector.with_start_cycle(start);
    }
    let metrics = attach_observers(ctx, &mut pipeline, &mut collector, &base);

    // The cycle budget is measured relative to the (possibly restored)
    // measurement origin, so a restored run resumed with the same
    // limits stops at the same absolute cycle a straight-through run
    // would have.
    let limits = SimLimits::cycles(ctx.params.run_cycles);
    let start_cycle = pipeline.cycle();
    let measured = PhaseTimings::time(&mut timings.measure_s, || match checkpoint {
        Some((policy, on_checkpoint)) => {
            run_measured_checkpointed(&mut pipeline, collector, limits, policy, on_checkpoint)
                .map(|run| (run.result, run.collector))
        }
        None => Ok((pipeline.run(limits, &mut collector), collector)),
    });
    let (result, collector) = match measured {
        Ok(done) => done,
        Err(err) => {
            // A failed attempt must still leave whole observability
            // artifacts behind: flush the trace sink and export the
            // partial metrics registry before propagating, so a drained
            // or resumed campaign never finds torn files.
            pipeline.tracer().flush();
            export_metrics(ctx, metrics.as_ref(), &base);
            return Err(err);
        }
    };

    let avf = PhaseTimings::time(&mut timings.collect_s, || collector.report());
    let mut profile = pipeline.profile_report();
    profile.merge(&collector.profile_report(), "avf");
    export_profile(ctx, &pipeline, &profile, &base);
    pipeline.tracer().flush();
    let stage_seconds = stage_snapshot(&profile);
    let sim_metrics = export_metrics(ctx, metrics.as_ref(), &base);

    let stats = result.stats;
    let outcome = RunOutcome {
        mix: mix.name.clone(),
        scheme: variant.label,
        fetch,
        avf,
        throughput_ipc: stats.throughput_ipc(),
        harmonic_ipc: stats.harmonic_ipc(),
        l2_misses: stats.l2_misses,
        flushes: stats.flushes,
        mispredict_rate: stats.mispredict_rate(),
        governor_stall_cycles: stats.governor_stall_cycles,
        dvm_avg_ratio: dvm_handle.map(|h| h.lock().average_ratio()),
        deadlocked: result.deadlocked,
        cancelled: result.cancelled,
        salt,
        cycles_per_sec: cycles_per_sec(pipeline.cycle() - start_cycle, timings.measure_s),
        timings,
        stage_seconds,
        sim_metrics,
        stats,
    };
    ctx.record_manifest(RunManifest::new(run_id, ctx, mix, &outcome));
    Ok(outcome)
}

/// Restore the newest valid snapshot in the policy's store into objects
/// from `build`, counting restores and skipped corrupt generations on
/// the policy's metrics. `None` when the store holds no snapshot.
fn restore_latest<H>(
    policy: &CheckpointPolicy<'_>,
    mix: &WorkloadMix,
    label: &str,
    build: impl Fn() -> (Pipeline, AvfCollector, H),
) -> Result<Option<(Pipeline, AvfCollector, H)>, JobError> {
    let Some(loaded) = policy.store.load_latest_valid(|bytes| {
        let (mut p, mut c, h) = build();
        decode_checkpoint(bytes, &mut p, &mut c)?;
        Ok((p, c, h))
    })?
    else {
        return Ok(None);
    };
    if loaded.skipped_corrupt > 0 {
        policy
            .metrics
            .counter_add(C_SNAPSHOTS_SKIPPED_CORRUPT, loaded.skipped_corrupt as u64);
        eprintln!(
            "experiments: skipped {} corrupt snapshot(s) for {} / {}; resuming from cycle {}",
            loaded.skipped_corrupt, mix.name, label, loaded.cycle,
        );
    }
    policy.metrics.counter_add(C_SNAPSHOTS_RESTORED, 1);
    Ok(Some(loaded.value))
}

/// Simulated cycles per host wall-clock second over the measured window.
fn cycles_per_sec(cycles: u64, measure_s: f64) -> f64 {
    if measure_s > 0.0 {
        cycles as f64 / measure_s
    } else {
        0.0
    }
}

/// Flatten a merged profile report into the manifest's per-stage
/// breakdown. `None` when profiling was off (the tick span never ran).
fn stage_snapshot(profile: &ProfileReport) -> Option<StageSeconds> {
    let cycles = profile
        .nodes
        .iter()
        .find(|n| n.name == "tick")
        .map_or(0, |n| n.calls);
    if cycles == 0 {
        return None;
    }
    Some(StageSeconds {
        commit_s: profile.span_total_s("commit"),
        writeback_s: profile.span_total_s("writeback"),
        issue_s: profile.span_total_s("issue"),
        dispatch_s: profile.span_total_s("dispatch"),
        fetch_s: profile.span_total_s("fetch"),
        profiled_cycles: cycles,
    })
}

/// Attach the context's observers to a warmed-up (or restored) run: a
/// per-run Chrome trace, span profiling — independently of tracing, so
/// a `--profile` run need not pay for a Chrome trace — and a fresh
/// sim-metrics registry (forwarded through the pipeline to the
/// governor), which is returned for export.
fn attach_observers(
    ctx: &ExperimentContext,
    pipeline: &mut Pipeline,
    collector: &mut AvfCollector,
    base: &str,
) -> Option<Metrics> {
    attach_tracing(ctx, pipeline, base);
    let profiling = ctx.profile_dir().is_some();
    if profiling {
        pipeline.set_stage_profiling(true);
    }
    collector.set_profiling(profiling);
    ctx.metrics_dir()?;
    let metrics = Metrics::new();
    pipeline.set_metrics(metrics.clone());
    Some(metrics)
}

/// Export a finished run's merged profile: a JSON report and a
/// collapsed-stack (flamegraph-ready) file into the profile directory, a
/// hot-spot table on stderr, and — when the run is also traced — the
/// laid-out profile spans merged into the Chrome trace stream as a flame
/// chart on the `profile` track.
fn export_profile(
    ctx: &ExperimentContext,
    pipeline: &Pipeline,
    profile: &ProfileReport,
    base: &str,
) {
    if profile.nodes.iter().all(|n| n.calls == 0) {
        return; // profiling was off
    }
    // Merge the span flame chart into the trace stream (no-op when the
    // run is untraced) before the sink is flushed.
    for span in profile.chrome_spans(0) {
        pipeline.tracer().emit(move || TraceEvent::ProfileSpan {
            start_us: span.start_us,
            dur_us: span.dur_us,
            name: span.name,
            depth: span.depth,
            calls: span.calls,
        });
    }
    let Some(dir) = ctx.profile_dir() else {
        return;
    };
    let export = std::fs::create_dir_all(dir)
        .and_then(|_| {
            sim_harness::atomic_write(
                &dir.join(format!("{base}.profile.json")),
                &serde::json::to_string(profile),
            )
        })
        .and_then(|_| {
            sim_harness::atomic_write(
                &dir.join(format!("{base}.collapsed")),
                &profile.to_collapsed(),
            )
        });
    if let Err(e) = export {
        eprintln!("experiments: profile export failed for {base}: {e}");
    }
    eprintln!("profile {base}:\n{}", profile.hotspot_table());
}

/// When the context carries a trace directory, attach a per-run Chrome
/// trace exporter and coarse stage self-profiling to the pipeline.
fn attach_tracing(ctx: &ExperimentContext, pipeline: &mut Pipeline, base: &str) {
    let Some(dir) = ctx.trace_dir() else {
        return;
    };
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!(
            "experiments: cannot create trace dir {}: {e}",
            dir.display()
        );
        return;
    }
    let path = dir.join(format!("{base}.trace.json"));
    pipeline.set_tracer(Tracer::new(ChromeTraceSink::new(path)));
    pipeline.set_stage_profiling(true);
}

/// Export a finished run's registry (per-interval JSONL series +
/// Prometheus text) into the context's metrics directory and digest it
/// for the manifest.
fn export_metrics(
    ctx: &ExperimentContext,
    metrics: Option<&Metrics>,
    base: &str,
) -> Option<MetricsSummary> {
    let metrics = metrics?;
    let snapshot = metrics.snapshot();
    if let Some(dir) = ctx.metrics_dir() {
        // Atomic exports: stream to a buffer, then `.tmp` + rename, so
        // a crash (or SIGINT) mid-export never leaves a torn file for a
        // resumed campaign to trip over.
        let export = std::fs::create_dir_all(dir)
            .and_then(|_| {
                let mut buf = Vec::new();
                sim_metrics::export::write_series_jsonl(&snapshot, &mut buf)?;
                let text = String::from_utf8(buf)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                sim_harness::atomic_write(&dir.join(format!("{base}.series.jsonl")), &text)
            })
            .and_then(|_| export_prometheus(dir, base, &snapshot));
        if let Err(e) = export {
            eprintln!("experiments: metrics export failed for {base}: {e}");
        }
    }
    Some(MetricsSummary::from_snapshot(&snapshot))
}

/// Write `snapshot` as Prometheus text to `dir/{base}.prom`, creating
/// `dir` first. Atomic (`.tmp` + rename) like every metrics export.
pub fn export_prometheus(
    dir: &Path,
    base: &str,
    snapshot: &MetricsSnapshot,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    sim_harness::atomic_write(
        &dir.join(format!("{base}.prom")),
        &sim_metrics::export::render_prometheus(snapshot),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentParams;

    #[test]
    fn baseline_run_completes_and_reports() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let out = run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
        assert!(!out.deadlocked);
        assert!(out.throughput_ipc > 0.5);
        assert!(out.avf.iq_avf > 0.0 && out.avf.iq_avf < 1.0);
        assert!(out.dvm_avg_ratio.is_none());
        assert!(out.stage_seconds.is_none(), "profiling is opt-in");
        assert_eq!(out.mix, "CPU-A");
        // Self-profiling: every phase saw wall-clock time.
        assert!(out.timings.warmup_s > 0.0);
        assert!(out.timings.measure_s > 0.0);
        assert!(out.timings.total_s() > 0.0);
        // The run logged a manifest mirroring the outcome.
        let manifests = ctx.drain_manifests();
        assert_eq!(manifests.len(), 1);
        assert_eq!(manifests[0].mix, "CPU-A");
        assert_eq!(manifests[0].metrics.l2_misses, out.l2_misses);
        assert_eq!(manifests[0].seeds.len(), manifests[0].benchmarks.len());
        assert!(ctx.drain_manifests().is_empty(), "drain empties the log");
    }

    #[test]
    fn checkpointed_rerun_restores_and_matches_bit_for_bit() {
        let dir = std::env::temp_dir().join("smtsim_runner_ckpt_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::bench());
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let store = sim_harness::SnapshotStore::new(&dir, "cpu-a-baseline");
        let metrics = Metrics::off();
        let policy = CheckpointPolicy {
            store: &store,
            every: 10_000,
            selfcheck: true,
            metrics: &metrics,
        };

        let mut checkpoints = Vec::new();
        let first = run_scheme_checkpointed(
            &ctx,
            &mix,
            Scheme::Baseline,
            FetchPolicyKind::Icount,
            0,
            None,
            &policy,
            |cycle| checkpoints.push(cycle),
        )
        .unwrap();
        assert!(!first.deadlocked && !first.cancelled);
        assert!(
            checkpoints.len() >= 2,
            "bench budget spans several boundaries"
        );
        assert!(!store.list().is_empty(), "snapshots persisted on disk");
        // The first boundary (the measurement origin) only anchors the
        // cadence, so the origin sits one spacing before the first
        // snapshot; the resumed run simulates from the last snapshot to
        // the end of the budget.
        let origin = checkpoints[0] - policy.every;
        let last = *checkpoints.last().unwrap();
        let tail = origin + ctx.params.run_cycles - last;
        assert!(tail < ctx.params.run_cycles);

        // A second invocation restores the newest snapshot (taken at
        // the last mid-run boundary), simulates only the tail, and
        // must land on the exact same statistics — and skip warmup.
        let resumed = run_scheme_checkpointed(
            &ctx,
            &mix,
            Scheme::Baseline,
            FetchPolicyKind::Icount,
            0,
            None,
            &policy,
            |_| {},
        )
        .unwrap();
        assert_eq!(resumed.timings.warmup_s, 0.0, "restored runs skip warmup");
        assert_eq!(resumed.avf.iq_avf.to_bits(), first.avf.iq_avf.to_bits());
        assert_eq!(
            resumed.throughput_ipc.to_bits(),
            first.throughput_ipc.to_bits()
        );
        assert_eq!(resumed.l2_misses, first.l2_misses);
        assert_eq!(resumed.flushes, first.flushes);
        assert_eq!(resumed.stats.cycles, ctx.params.run_cycles);
        // Throughput counts only the simulated tail, not the restored
        // part of the measured window.
        let simulated = resumed.cycles_per_sec * resumed.timings.measure_s;
        assert_eq!(simulated.round() as u64, tail, "{simulated} cycles");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointing_does_not_change_outcomes() {
        let ctx = ExperimentContext::new(ExperimentParams {
            warmup_insts: 40_000,
            run_cycles: 40_000,
            ..ExperimentParams::fast()
        });
        let cases = [
            ("CPU-A", Scheme::Baseline),
            ("MEM-A", Scheme::DvmDynamic { target: 0.15 }),
        ];
        for (name, scheme) in cases {
            let mix = workload_gen::mix_by_name(name).unwrap();
            let plain = run_scheme(&ctx, &mix, scheme, FetchPolicyKind::Icount);

            let dir = std::env::temp_dir()
                .join("smtsim_runner_paths_test")
                .join(name);
            std::fs::remove_dir_all(&dir).ok();
            let store = sim_harness::SnapshotStore::new(&dir, "job");
            let policy = CheckpointPolicy {
                store: &store,
                every: 10_000,
                selfcheck: true,
                metrics: &Metrics::off(),
            };
            let mut snapshots = 0;
            let ckpt = run_scheme_checkpointed(
                &ctx,
                &mix,
                scheme,
                FetchPolicyKind::Icount,
                0,
                None,
                &policy,
                |_| snapshots += 1,
            )
            .unwrap();
            assert!(snapshots >= 2, "{name}: the run crossed boundaries");
            assert_eq!(
                ckpt.throughput_ipc.to_bits(),
                plain.throughput_ipc.to_bits(),
                "{name}"
            );
            assert_eq!(ckpt.avf.iq_avf.to_bits(), plain.avf.iq_avf.to_bits());
            assert_eq!(ckpt.l2_misses, plain.l2_misses);
            assert_eq!(ckpt.flushes, plain.flushes);
            assert_eq!(ckpt.governor_stall_cycles, plain.governor_stall_cycles);
            assert_eq!(ckpt.stats.cycles, plain.stats.cycles);
            std::fs::remove_dir_all(&dir).ok();
        }
    }

    #[test]
    fn dvm_run_exposes_ratio_telemetry() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let mix = workload_gen::mix_by_name("MEM-A").unwrap();
        let out = run_scheme(
            &ctx,
            &mix,
            Scheme::DvmDynamic { target: 0.15 },
            FetchPolicyKind::Icount,
        );
        assert!(!out.deadlocked);
        assert!(out.dvm_avg_ratio.unwrap() > 0.0);
    }

    #[test]
    fn metricized_run_exports_series_and_digest() {
        let dir = std::env::temp_dir().join("smtsim_runner_metrics_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_metrics_dir(&dir);
        let mix = workload_gen::mix_by_name("MEM-A").unwrap();
        let out = run_scheme_salted(
            &ctx,
            &mix,
            Scheme::DvmDynamic { target: 0.15 },
            FetchPolicyKind::Icount,
            1,
        );
        assert_eq!(out.salt, 1);
        // The outcome and manifest both carry the registry digest, with
        // one point per closed interval in each pipeline series.
        let digest = out.sim_metrics.as_ref().expect("metrics recorded");
        let intervals = digest.series("ipc").unwrap().points;
        assert!(intervals >= 20, "fast budget closes ~25 intervals");
        for series in ["iq.ready_len", "iq.ace_fraction", "iq.interval_avf"] {
            assert_eq!(digest.series(series).unwrap().points, intervals);
        }
        assert!(digest.series("dvm.wq_ratio").is_some(), "governor gauge");
        let manifests = ctx.drain_manifests();
        assert_eq!(manifests[0].salt, 1);
        assert_eq!(manifests[0].sim_metrics.as_ref(), Some(digest));
        // Both export files landed next to each other.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names[0].ends_with(".prom"));
        assert!(names[1].ends_with(".series.jsonl"));
        let jsonl = std::fs::read_to_string(dir.join(&names[1])).unwrap();
        assert_eq!(jsonl.lines().count() as u64, intervals);
        let prom = std::fs::read_to_string(dir.join(&names[0])).unwrap();
        assert!(prom.contains("smtsim_dvm_wq_ratio"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profiled_run_exports_report_and_collapsed_stacks() {
        let dir = std::env::temp_dir().join("smtsim_runner_profile_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_profile_dir(&dir);
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let out = run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
        assert!(!out.deadlocked);
        assert!(out.cycles_per_sec > 0.0, "throughput recorded");
        let stages = out.stage_seconds.expect("profiled runs report stages");
        assert!(stages.total_s() > 0.0);
        assert_eq!(stages.profiled_cycles, ctx.params.run_cycles);
        // Both export files landed, named after the run.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        assert_eq!(names.len(), 2, "{names:?}");
        assert!(names[0].ends_with(".collapsed"));
        assert!(names[1].ends_with(".profile.json"));
        // The JSON report round-trips and carries the merged span tree:
        // pipeline stages plus the grafted component anchors.
        let report: ProfileReport =
            serde::json::from_str(&std::fs::read_to_string(dir.join(&names[1])).unwrap()).unwrap();
        for name in ["tick", "wakeup"] {
            assert!(
                report.nodes.iter().any(|n| n.name == name && n.calls > 0),
                "span {name} missing from exported report"
            );
        }
        // Component trees are grafted under synthetic anchor nodes
        // (zero calls themselves); their children carry the counts.
        for anchor in ["mem_hier", "branch_pred", "avf"] {
            let idx = report
                .nodes
                .iter()
                .position(|n| n.name == anchor)
                .unwrap_or_else(|| panic!("anchor {anchor} missing from exported report"));
            assert!(
                report
                    .nodes
                    .iter()
                    .any(|n| n.parent == Some(idx) && n.calls > 0),
                "anchor {anchor} has no active child spans"
            );
        }
        // The collapsed-stack file parses and names tick-rooted stacks.
        let collapsed = std::fs::read_to_string(dir.join(&names[0])).unwrap();
        let rows = ProfileReport::parse_collapsed(&collapsed).unwrap();
        assert!(!rows.is_empty());
        assert!(rows
            .iter()
            .any(|(stack, _)| stack.first().map(String::as_str) == Some("tick")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_run_merges_profile_flame_chart() {
        let dir = std::env::temp_dir().join("smtsim_runner_trace_profile_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_trace_dir(&dir);
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        run_scheme(&ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        assert_eq!(files.len(), 1, "{files:?}");
        let doc = serde::json::parse(&std::fs::read_to_string(&files[0]).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        let complete: Vec<&str> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .map(|e| e.get("name").unwrap().as_str().unwrap())
            .collect();
        assert!(
            complete.contains(&"tick"),
            "flame chart spans: {complete:?}"
        );
        assert!(complete.contains(&"issue"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn traced_run_writes_chrome_export() {
        let dir = std::env::temp_dir().join("smtsim_runner_trace_test");
        std::fs::remove_dir_all(&dir).ok();
        let ctx = ExperimentContext::new(ExperimentParams::fast()).with_trace_dir(&dir);
        let mix = workload_gen::mix_by_name("MIX-A").unwrap();
        let out = run_scheme(&ctx, &mix, Scheme::VisaOpt2, FetchPolicyKind::Icount);
        let stages = out.stage_seconds.expect("traced runs profile stages");
        assert!(stages.total_s() > 0.0);
        assert!(stages.profiled_cycles > 0);
        let files: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .collect();
        assert_eq!(files.len(), 1, "one trace file per run: {files:?}");
        let doc = serde::json::parse(&std::fs::read_to_string(&files[0]).unwrap()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert!(!events.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
