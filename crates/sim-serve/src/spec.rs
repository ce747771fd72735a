//! Job identity and lifecycle types shared by the queue log, the
//! scheduler, and the HTTP API.

use serde::{Deserialize, Serialize};
use sim_harness::{fnv1a, JobError, JobKey};

/// Scheduling priority. Admission and dispatch order by rank
/// (high > normal > low); within a rank the queue is FIFO.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    Low,
    Normal,
    High,
}

impl Priority {
    /// Number of priority classes (queue array width).
    pub const COUNT: usize = 3;

    /// Dispatch rank: higher runs first.
    pub fn rank(self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    pub fn from_rank(rank: usize) -> Option<Priority> {
        match rank {
            0 => Some(Priority::Low),
            1 => Some(Priority::Normal),
            2 => Some(Priority::High),
            _ => None,
        }
    }

    /// Lower-case wire label used in the HTTP API.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    pub fn from_label(label: &str) -> Option<Priority> {
        match label {
            "low" => Some(Priority::Low),
            "normal" => Some(Priority::Normal),
            "high" => Some(Priority::High),
            _ => None,
        }
    }
}

/// What one submission asks the daemon to run. The spec is the job's
/// *content*; the daemon assigns the id. Two submissions with the same
/// spec are distinct jobs (a client may legitimately re-run a sweep),
/// but they share a [`JobKey`] for quarantine purposes — a spec that
/// keeps crashing the worker is poisoned regardless of which
/// submission carried it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Client-chosen label (campaign/exhibit name).
    pub name: String,
    /// Workload kind; selects the executor from the daemon's registry.
    /// `"synthetic"` is the only kind registered today (built in).
    pub kind: String,
    /// Determinism seed. Same (kind, seed, steps, payload) must
    /// produce the same result bytes — that is what makes at-least-once
    /// re-execution after a crash observationally exactly-once.
    pub seed: u64,
    /// Work length in workload-defined steps.
    pub steps: u64,
    /// Opaque kind-specific configuration (JSON text, may be empty).
    pub payload: String,
    pub priority: Priority,
}

impl JobSpec {
    /// Stable quarantine/retry identity. Priority is deliberately not
    /// part of the key: re-submitting poisoned work at a different
    /// priority must not dodge the quarantine registry.
    pub fn job_key(&self) -> JobKey {
        let canonical = format!(
            "kind={};seed={};steps={};payload={}",
            self.kind, self.seed, self.steps, self.payload
        );
        JobKey::new(&self.name, &self.kind, self.seed, fnv1a(&canonical))
    }

    /// Config hash stamped into checkpoint containers so a snapshot
    /// from a different spec can never be restored into this job.
    pub fn config_hash(&self) -> u64 {
        self.job_key().config_hash
    }
}

/// Where a job is in its lifecycle. `Queued`, `Running` and
/// `Preempted` are live; everything else is terminal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// Claimed by a worker.
    Running,
    /// Checkpointed and re-queued (preemption, graceful drain, or
    /// crash recovery of a mid-run job); resumes from its snapshot.
    Preempted,
    Done,
    Failed,
    /// Client cancelled it (queued or running).
    Cancelled,
    /// Load-shed at admission time to make room for higher-priority
    /// work under overload.
    Shed,
    /// Sidelined by the persistent quarantine registry.
    Quarantined,
}

impl JobState {
    pub fn is_terminal(self) -> bool {
        !matches!(
            self,
            JobState::Queued | JobState::Running | JobState::Preempted
        )
    }

    /// Lower-case wire label used in the HTTP API.
    pub fn label(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Preempted => "preempted",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
            JobState::Shed => "shed",
            JobState::Quarantined => "quarantined",
        }
    }
}

/// Point-in-time view of one job, as returned by the status API.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobStatus {
    pub id: u64,
    pub spec: JobSpec,
    pub state: JobState,
    /// Attempts executed so far across all claims.
    pub attempts: u32,
    /// Times this job was checkpoint-preempted.
    pub preemptions: u32,
    /// Monotone dispatch sequence number of the job's latest claim
    /// (None when never claimed). Within a priority class, claims are
    /// FIFO — status consumers (and tests) can verify ordering.
    pub claim_seq: Option<u64>,
    /// Cycle of the latest durable checkpoint, when one exists.
    pub checkpoint_cycle: Option<u64>,
    /// Final result payload (JSON text), present once `Done`.
    pub result: Option<String>,
    /// Terminal error, present for `Failed`/`Quarantined`.
    pub error: Option<JobError>,
}

/// Why a submission was not admitted.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmitError {
    /// The bounded queue is full and nothing lower-priority can be
    /// shed. Maps to HTTP 429 with a `Retry-After` hint.
    Overloaded { retry_after_ms: u64 },
    /// The daemon is draining; no new work is accepted. Maps to 503.
    ShuttingDown,
    /// The spec named a workload kind the daemon has no executor for.
    UnknownKind { kind: String },
    /// The spec's key is in the persistent quarantine registry.
    Quarantined { error: JobError },
    /// Persisting the submission failed; the job was not admitted.
    Io { error: JobError },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Overloaded { retry_after_ms } => {
                write!(f, "overloaded: queue full, retry after {retry_after_ms} ms")
            }
            SubmitError::ShuttingDown => write!(f, "shutting down: not accepting work"),
            SubmitError::UnknownKind { kind } => write!(f, "unknown workload kind {kind:?}"),
            SubmitError::Quarantined { error } => write!(f, "quarantined: {error}"),
            SubmitError::Io { error } => write!(f, "io: {error}"),
        }
    }
}

/// Why a cancel request failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CancelError {
    NotFound,
    /// The job already reached a terminal state.
    AlreadyTerminal {
        state: JobState,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(priority: Priority) -> JobSpec {
        JobSpec {
            name: "t".into(),
            kind: "synthetic".into(),
            seed: 7,
            steps: 100,
            payload: String::new(),
            priority,
        }
    }

    #[test]
    fn priority_ranks_and_labels_roundtrip() {
        for p in [Priority::Low, Priority::Normal, Priority::High] {
            assert_eq!(Priority::from_rank(p.rank()), Some(p));
            assert_eq!(Priority::from_label(p.label()), Some(p));
        }
        assert!(Priority::High.rank() > Priority::Normal.rank());
        assert!(Priority::Normal.rank() > Priority::Low.rank());
        assert_eq!(Priority::from_label("urgent"), None);
        assert_eq!(Priority::from_rank(3), None);
    }

    #[test]
    fn job_key_ignores_priority() {
        assert_eq!(
            spec(Priority::Low).job_key(),
            spec(Priority::High).job_key(),
            "priority must not let a poisoned spec dodge quarantine"
        );
        let mut other = spec(Priority::Low);
        other.seed = 8;
        assert_ne!(spec(Priority::Low).job_key(), other.job_key());
    }

    #[test]
    fn terminal_states_are_classified() {
        for s in [JobState::Queued, JobState::Running, JobState::Preempted] {
            assert!(!s.is_terminal(), "{s:?}");
        }
        for s in [
            JobState::Done,
            JobState::Failed,
            JobState::Cancelled,
            JobState::Shed,
            JobState::Quarantined,
        ] {
            assert!(s.is_terminal(), "{s:?}");
        }
    }

    #[test]
    fn spec_serde_roundtrips() {
        let s = spec(Priority::High);
        let text = serde::json::to_string(&s);
        let back: JobSpec = serde::json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
