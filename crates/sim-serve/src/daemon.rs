//! The campaign daemon: configuration, the shared core (scheduler +
//! quarantine registry + run store), the supervised worker loop, and
//! the service lifecycle (start / drain / stop, exit codes).
//!
//! Crash-safety story, end to end:
//!
//! * every admission decision lands in the queue log before the
//!   client sees an id ([`crate::queue`]);
//! * workers execute claims under [`run_supervised`] — panics are
//!   caught, deadlines enforced by the monitor thread, retries
//!   backed off with seeded jitter;
//! * preemption and graceful drain both funnel through the same
//!   checkpoint-and-yield path, so a `kill -9` is just the degenerate
//!   case where the checkpoint (or nothing) is what survives: on
//!   restart the log replays, pending jobs re-admit, `Done` jobs are
//!   *not* re-executed, and determinism makes any re-executed partial
//!   work byte-identical.

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sim_chaos::{RealFs, Vfs};
use sim_harness::{
    atomic_write_bytes_in, run_supervised, signal, Backoff, HarnessConfig, HarnessObservers,
    JobError, JobOutcome, Quarantine, SnapshotStore,
};
use sim_metrics::Metrics;
use sim_report::{RunRecord, RunStore};
use sim_trace::Tracer;

use crate::queue::QueueLog;
use crate::scheduler::{Claim, Scheduler, SchedulerConfig, ServeStats};
use crate::spec::{CancelError, JobSpec, JobState, JobStatus, SubmitError};
use crate::workload::{WorkCtx, WorkOutput, WorkloadRegistry};

/// Name of the discovery file written into the state directory so
/// clients can find a daemon bound to an ephemeral port (`--dir` is
/// enough to reach it).
pub const ENDPOINT_FILE: &str = "endpoint";
/// Persistent quarantine registry file inside the state directory.
pub const QUARANTINE_FILE: &str = "quarantine.json";

/// Daemon configuration. `dir` is the state directory — queue log,
/// quarantine registry, checkpoints and the endpoint file all live
/// under it; point a restarted daemon at the same directory and it
/// resumes the campaign.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port; the
    /// chosen one is written to the endpoint file).
    pub addr: String,
    pub dir: PathBuf,
    pub workers: usize,
    /// Bound on queued (not running) jobs; beyond it admission sheds
    /// or rejects.
    pub max_queued: usize,
    /// Terminal jobs kept in memory for status queries.
    pub max_retained: usize,
    /// Attempts per claim before the job fails terminally.
    pub max_attempts: u32,
    pub quarantine_threshold: u32,
    /// Wall-clock budget per attempt; `None` disables the watchdog.
    pub deadline: Option<Duration>,
    pub backoff: Backoff,
    /// Checkpoint cadence in workload steps.
    pub checkpoint_every: u64,
    /// Drain mode: shut down (exit 0/2) once the queue is idle
    /// instead of serving until signalled.
    pub drain: bool,
    /// When set, completed jobs are registered in the sim-report run
    /// store at this root.
    pub store_root: Option<PathBuf>,
}

impl ServeConfig {
    pub fn new(dir: impl Into<PathBuf>) -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            dir: dir.into(),
            workers: 2,
            max_queued: 64,
            max_retained: 4_096,
            max_attempts: 2,
            quarantine_threshold: 2,
            deadline: None,
            backoff: Backoff::standard(),
            checkpoint_every: 64,
            drain: false,
            store_root: None,
        }
    }
}

/// Shared daemon state; the HTTP layer, the worker threads and the
/// lifecycle glue all talk to this.
pub struct DaemonCore {
    cfg: ServeConfig,
    fs: Arc<dyn Vfs>,
    sched: Scheduler,
    registry: WorkloadRegistry,
    quarantine: Mutex<Quarantine>,
    run_store: Mutex<Option<RunStore>>,
    batch: u64,
    metrics: Metrics,
    /// Raised exactly once; workers drain, the accept loop stops.
    shutdown: Arc<AtomicBool>,
    /// Whether shutdown came from a signal (exit 130) rather than an
    /// API call or drain completion.
    interrupted: AtomicBool,
    started: Instant,
}

impl DaemonCore {
    /// Admission front door: typed refusal for unknown kinds and
    /// quarantined specs before the scheduler ever sees them.
    pub fn submit(&self, spec: JobSpec) -> Result<u64, SubmitError> {
        if self.registry.get(&spec.kind).is_none() {
            self.sched.note_rejected_unknown_kind();
            return Err(SubmitError::UnknownKind { kind: spec.kind });
        }
        let key = spec.job_key();
        {
            let q = self.quarantine.lock().unwrap();
            if q.is_quarantined(&key) {
                drop(q);
                self.sched.note_rejected_quarantined();
                let error = JobError::Watchdog {
                    detail: format!("spec {} is quarantined after repeated failures", key.slug()),
                };
                return Err(SubmitError::Quarantined { error });
            }
        }
        self.sched.submit(spec)
    }

    pub fn status(&self, id: u64) -> Option<JobStatus> {
        self.sched.status(id)
    }

    pub fn list(&self) -> Vec<JobStatus> {
        self.sched.list()
    }

    pub fn cancel(&self, id: u64) -> Result<JobState, CancelError> {
        self.sched.cancel(id)
    }

    pub fn stats(&self) -> ServeStats {
        self.sched.stats()
    }

    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    pub fn is_idle(&self) -> bool {
        self.sched.is_idle()
    }

    pub fn wait_idle(&self, timeout: Duration) -> bool {
        self.sched.wait_idle(timeout)
    }

    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Begin graceful shutdown: stop admitting, cancel in-flight
    /// attempts at their next checkpoint boundary (they re-queue as
    /// `Preempted` with a durable checkpoint), wake all claimers.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.sched.begin_shutdown();
    }

    fn begin_interrupt(&self) {
        self.interrupted.store(true, Ordering::SeqCst);
        self.begin_shutdown();
    }

    fn quarantine_path(&self) -> PathBuf {
        self.cfg.dir.join(QUARANTINE_FILE)
    }

    fn snapshot_store_for(&self, id: u64) -> SnapshotStore {
        SnapshotStore::new_in(Arc::clone(&self.fs), &self.cfg.dir, &format!("job{id:08}"))
    }

    /// Exit status under the campaign contract: 130 when a signal
    /// stopped us, 2 when any job failed or was quarantined, else 0.
    fn exit_code(&self) -> i32 {
        if self.interrupted.load(Ordering::SeqCst) {
            signal::EXIT_INTERRUPTED
        } else {
            let stats = self.stats();
            if stats.failed + stats.quarantined > 0 {
                2
            } else {
                0
            }
        }
    }

    /// Run one claimed job under the supervisor and fold the outcome
    /// back into the scheduler.
    fn run_claim(&self, claim: Claim) {
        let key = claim.spec.job_key();

        // Jobs admitted before their key got poisoned still reach a
        // worker; gate again here.
        if self.quarantine.lock().unwrap().is_quarantined(&key) {
            let error = JobError::Watchdog {
                detail: format!("spec {} is quarantined", key.slug()),
            };
            self.sched
                .finish_failed(claim.id, error, claim.prior_attempts, true);
            return;
        }
        let Some(workload) = self.registry.get(&claim.spec.kind) else {
            // Registry changed between admission and claim (possible
            // across a restart with a differently-embedded daemon).
            let error = JobError::Io {
                detail: format!("no executor for workload kind {:?}", claim.spec.kind),
            };
            self.sched
                .finish_failed(claim.id, error, claim.prior_attempts, false);
            return;
        };

        let store = self.snapshot_store_for(claim.id);
        let hcfg = HarnessConfig {
            max_attempts: self.cfg.max_attempts,
            backoff: self.cfg.backoff,
            quarantine_threshold: self.cfg.quarantine_threshold,
            deadline: self.cfg.deadline,
            jobs: Some(1),
            snapshot_every: Some(self.cfg.checkpoint_every),
            selfcheck: false,
            heartbeat: None,
        };
        let obs = HarnessObservers {
            metrics: self.metrics.clone(),
            tracer: Tracer::off(),
            shutdown: Some(Arc::clone(&self.shutdown)),
            progress: None,
        };
        let started = Instant::now();
        let mut outcome = run_supervised(
            vec![(key.clone(), claim.clone())],
            |c: &Claim, jctx| {
                // Retry attempts resume from whatever checkpoint the
                // previous attempt left (same spec ⇒ same config hash
                // ⇒ safe); the cycle value is only a hint.
                let resume = c.resume_cycle.or((jctx.attempt > 1).then_some(0));
                let ctx = WorkCtx {
                    id: c.id,
                    spec: &c.spec,
                    attempt: jctx.attempt,
                    resume_cycle: resume,
                    store: &store,
                    harness_cancel: &jctx.cancel,
                    preempt: &c.preempt,
                    cancel: &c.cancel,
                    checkpoint_every: jctx.snapshot_every.unwrap_or(64),
                };
                match workload.run(&ctx)? {
                    WorkOutput::Done { result } => Ok(WorkOutput::Done { result }),
                    WorkOutput::Yielded { cycle } => {
                        if jctx.deadline_expired() {
                            // A deadline yield is a failed attempt (the
                            // supervisor types this as Deadline), not a
                            // graceful re-queue.
                            Err(JobError::Watchdog {
                                detail: "attempt deadline expired at checkpoint boundary"
                                    .to_string(),
                            })
                        } else {
                            Ok(WorkOutput::Yielded { cycle })
                        }
                    }
                }
            },
            &hcfg,
            &obs,
            |_, _| {},
        );

        let (_, job_outcome) = outcome.jobs.pop().expect("one claim in, one outcome out");
        match job_outcome {
            JobOutcome::Completed {
                value: WorkOutput::Done { result },
                attempts,
                ..
            } => {
                let attempts = claim.prior_attempts + attempts;
                // Terminal: the checkpoint is dead weight once Done is
                // durable. (Clear *before* the Done append is also
                // fine — recovery would re-run deterministically.)
                let _ = store.clear();
                self.register_run(&claim, &result, started.elapsed());
                self.sched.finish_done(claim.id, result, attempts);
            }
            JobOutcome::Completed {
                value: WorkOutput::Yielded { cycle },
                attempts,
                ..
            } => {
                let attempts = claim.prior_attempts + attempts;
                if claim.cancel.load(Ordering::Acquire) {
                    let _ = store.clear();
                    self.sched.finish_cancelled(claim.id, attempts);
                } else {
                    // Preemption or graceful drain: back to the front
                    // of its class with a durable checkpoint.
                    self.sched.finish_preempted(claim.id, cycle, attempts);
                }
            }
            JobOutcome::Quarantined { error, attempts } => {
                let attempts = claim.prior_attempts + attempts;
                // Crash-like failures poison the spec in the
                // persistent registry; environmental ones (deadline,
                // I/O) fail the job without condemning resubmission.
                let poison = matches!(
                    error,
                    JobError::Panic { .. } | JobError::Diverged { .. } | JobError::Corrupt { .. }
                );
                if poison {
                    let mut q = self.quarantine.lock().unwrap();
                    q.quarantine_now(&key, attempts, &error);
                    if let Err(e) = q.save_in(self.fs.as_ref(), &self.quarantine_path()) {
                        eprintln!("sim-serve: persisting quarantine registry failed: {e}");
                        self.metrics.counter_add("serve.quarantine_save_errors", 1);
                    }
                }
                let _ = store.clear();
                self.sched.finish_failed(claim.id, error, attempts, poison);
            }
            // Shutdown won the race before the first attempt started:
            // the job never ran, put it back untouched.
            JobOutcome::Skipped => self.sched.requeue_unstarted(claim.id),
        }
    }

    fn register_run(&self, claim: &Claim, result: &str, wall: Duration) {
        let mut guard = self.run_store.lock().unwrap();
        let Some(store) = guard.as_mut() else { return };
        let seq = store.next_seq();
        let wall_s = wall.as_secs_f64();
        let record = RunRecord {
            schema_version: 0, // stamped by append
            id: format!("r{seq:05}-serve-{}-j{}", claim.spec.name, claim.id),
            batch: self.batch,
            mode: "serve".to_string(),
            exhibit: claim.spec.name.clone(),
            mix: claim.spec.kind.clone(),
            scheme: "serve".to_string(),
            fetch: "-".to_string(),
            salt: claim.spec.seed,
            config_hash: claim.spec.config_hash(),
            wall_time_s: wall_s,
            cycles_per_sec: if wall_s > 0.0 {
                claim.spec.steps as f64 / wall_s
            } else {
                0.0
            },
            iq_avf: 0.0,
            throughput_ipc: 0.0,
            harmonic_ipc: 0.0,
            artifacts: vec![("result".to_string(), result.to_string())],
            sim_metrics: None,
        };
        if let Err(e) = store.append(record) {
            eprintln!("sim-serve: run-store registration failed: {e}");
            self.metrics.counter_add("serve.report_errors", 1);
        }
    }
}

/// A started daemon: its bound address, core handle, and the threads
/// to join on stop.
pub struct Daemon {
    core: Arc<DaemonCore>,
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    accept: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Open (or recover) the state directory, bind the listener,
    /// spawn the worker pool and the accept loop.
    pub fn start(cfg: ServeConfig, registry: WorkloadRegistry) -> Result<Daemon, JobError> {
        let fs: Arc<dyn Vfs> = Arc::new(RealFs);
        let metrics = Metrics::new();

        let (log, recovery) = QueueLog::open_in(Arc::clone(&fs), &cfg.dir)?;
        if recovery.stats.damaged() || recovery.orphaned > 0 {
            eprintln!(
                "sim-serve: queue log damage tolerated: {} torn, {} orphaned (first bad line {:?})",
                recovery.stats.torn, recovery.orphaned, recovery.stats.first_damaged_line
            );
            metrics.counter_add("serve.recovery_damaged_lines", recovery.stats.torn as u64);
        }

        let qpath = cfg.dir.join(QUARANTINE_FILE);
        let quarantine = match Quarantine::load_in(fs.as_ref(), &qpath, cfg.quarantine_threshold) {
            Ok(q) => q,
            Err(e) => {
                // A corrupt registry must not take the service
                // down; start clean and say so.
                eprintln!("sim-serve: quarantine registry unreadable ({e}); starting empty");
                metrics.counter_add("serve.quarantine_corrupt", 1);
                Quarantine::new(cfg.quarantine_threshold)
            }
        };

        let (run_store, batch) = match &cfg.store_root {
            None => (None, 0),
            Some(root) => match RunStore::open(root) {
                Ok(store) => {
                    let batch = store.next_batch();
                    (Some(store), batch)
                }
                Err(e) => {
                    eprintln!(
                        "sim-serve: run store at {} unavailable ({e})",
                        root.display()
                    );
                    (None, 0)
                }
            },
        };

        let sched = Scheduler::new(
            SchedulerConfig {
                max_queued: cfg.max_queued,
                workers: cfg.workers.max(1),
                max_retained: cfg.max_retained,
            },
            Arc::new(log),
            &recovery,
            metrics.clone(),
        );

        let listener = TcpListener::bind(&cfg.addr).map_err(|e| JobError::Io {
            detail: format!("binding {}: {e}", cfg.addr),
        })?;
        let addr = listener.local_addr().map_err(|e| JobError::Io {
            detail: format!("local_addr: {e}"),
        })?;
        listener.set_nonblocking(true).map_err(|e| JobError::Io {
            detail: format!("set_nonblocking: {e}"),
        })?;

        let core = Arc::new(DaemonCore {
            cfg,
            fs,
            sched,
            registry,
            quarantine: Mutex::new(quarantine),
            run_store: Mutex::new(run_store),
            batch,
            metrics,
            shutdown: Arc::new(AtomicBool::new(false)),
            interrupted: AtomicBool::new(false),
            started: Instant::now(),
        });

        // Discovery file: `client --dir <dir>` finds the port here.
        atomic_write_bytes_in(
            core.fs.as_ref(),
            &core.cfg.dir.join(ENDPOINT_FILE),
            format!("{addr}\n").as_bytes(),
        )
        .map_err(|e| JobError::Io {
            detail: format!("writing endpoint file: {e}"),
        })?;

        let workers = (0..core.cfg.workers.max(1))
            .map(|i| {
                let core = Arc::clone(&core);
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        while let Some(claim) = core.sched.claim() {
                            core.run_claim(claim);
                        }
                    })
                    .expect("spawn worker")
            })
            .collect();

        let accept = {
            let core = Arc::clone(&core);
            std::thread::Builder::new()
                .name("serve-accept".to_string())
                .spawn(move || accept_loop(listener, &core))
                .expect("spawn accept loop")
        };

        Ok(Daemon {
            core,
            addr,
            workers,
            accept: Some(accept),
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    pub fn core(&self) -> &Arc<DaemonCore> {
        &self.core
    }

    /// Graceful stop: drain workers (running jobs checkpoint and
    /// re-queue), join every thread, return the exit code.
    pub fn stop(mut self) -> i32 {
        self.core.begin_shutdown();
        self.join_threads()
    }

    /// Block until shutdown is triggered elsewhere (signal, API,
    /// drain completion), then join and return the exit code.
    pub fn join(mut self) -> i32 {
        loop {
            if self.core.is_shutdown() {
                break;
            }
            if signal::interrupted() {
                self.core.begin_interrupt();
                break;
            }
            if self.core.cfg.drain && self.core.is_idle() {
                self.core.begin_shutdown();
                break;
            }
            std::thread::sleep(Duration::from_millis(25));
        }
        self.join_threads()
    }

    fn join_threads(&mut self) -> i32 {
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        if let Some(a) = self.accept.take() {
            let _ = a.join();
        }
        self.core.exit_code()
    }
}

fn accept_loop(listener: TcpListener, core: &Arc<DaemonCore>) {
    loop {
        if core.is_shutdown() {
            return;
        }
        if signal::interrupted() {
            core.begin_interrupt();
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                // Serial by design: request handling is a few map
                // lookups, and one connection at a time bounds memory
                // under connection floods.
                crate::http::serve_connection(stream, core);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Blocking entry point for the CLI: install signal handlers, start,
/// serve until a signal / shutdown request / drain completion, exit
/// under the 0/2/130 contract (3 for startup failures).
pub fn run(cfg: ServeConfig, registry: WorkloadRegistry) -> i32 {
    signal::install_sigint_handler();
    let daemon = match Daemon::start(cfg, registry) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("sim-serve: startup failed: {e}");
            return 3;
        }
    };
    eprintln!("sim-serve: listening on {}", daemon.addr());
    daemon.join()
}
