//! # sim-serve — crash-safe multi-tenant campaign daemon
//!
//! A dependency-free simulation-as-a-service layer over the repo's
//! reliability stack: clients submit jobs over minimal HTTP/1.1, a
//! supervised worker pool executes them, and every lifecycle
//! transition is durable in a torn-tail-tolerant queue log so a
//! `kill -9` at any instant loses nothing and double-executes
//! nothing (observationally — deterministic workloads make physical
//! re-execution invisible).
//!
//! The moving parts, by module:
//!
//! * [`spec`] — job identity ([`JobSpec`], [`JobKey`] reuse for
//!   quarantine), lifecycle states, typed admission/cancel errors.
//! * [`queue`] — the append-only `queue.jsonl` event log and its
//!   crash recovery fold (same discipline as `sim_harness::Journal`:
//!   versioned lines, torn tail tolerated, later records win).
//! * [`scheduler`] — bounded admission with typed 429-style overload,
//!   priority load-shedding, FIFO-within-priority dispatch, and
//!   preemption signalling when high-priority work finds every
//!   worker busy.
//! * [`workload`] — the executor trait + registry, the determinism
//!   contract, and the built-in `"synthetic"` step workload with
//!   checkpoint/resume.
//! * [`daemon`] — the service itself: recovery at startup, the
//!   supervised worker loop (retries with seeded-jitter backoff,
//!   watchdog deadlines, persistent quarantine), graceful drain
//!   under the 0/2/130 exit contract.
//! * [`http`] / [`client`] — wire layer, std `TcpStream` only.
//!
//! ## Preemption in one paragraph
//!
//! A high-priority submission that finds every worker busy picks the
//! lowest-ranked, most-recently-claimed running job and raises its
//! preempt flag. The workload notices at its next checkpoint
//! boundary, writes a snapshot through [`sim_harness::SnapshotStore`]
//! (CRC-guarded, config-hash-bound), and yields. The scheduler logs
//! `Preempted{cycle}`, puts the job at the *front* of its class, and
//! the freed worker claims the high-priority job. When the preempted
//! job is next claimed it restores the snapshot and continues —
//! producing byte-identical results to an uninterrupted run, which
//! the e2e tests assert literally.

pub mod client;
pub mod daemon;
pub mod http;
pub mod queue;
pub mod scheduler;
pub mod spec;
pub mod workload;

pub use client::ServeClient;
pub use daemon::{run, Daemon, DaemonCore, ServeConfig, ENDPOINT_FILE, QUARANTINE_FILE};
pub use queue::{QueueEvent, QueueLog, QueueRecovery, QUEUE_SCHEMA_VERSION};
pub use scheduler::{Claim, Scheduler, SchedulerConfig, ServeStats};
pub use spec::{CancelError, JobSpec, JobState, JobStatus, Priority, SubmitError};
pub use workload::{StepWorkload, WorkCtx, WorkOutput, Workload, WorkloadRegistry};
