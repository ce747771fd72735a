//! The typed failure taxonomy of supervised jobs.

use serde::{Deserialize, Serialize};

/// Why one job attempt failed. The taxonomy drives both policy (which
/// failures are worth retrying) and accounting (each kind has its own
/// `harness.*` counter).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JobError {
    /// The job's closure panicked; `message` is the downcast payload.
    Panic { message: String },
    /// The wall-clock deadline expired and the job was cancelled
    /// through its cooperative token.
    Deadline { limit_ms: u64 },
    /// The simulation tripped its commit-starvation watchdog or cycle
    /// ceiling (simulated-time hang, as opposed to host-time overrun).
    Watchdog { detail: String },
    /// The job produced a result that failed its own consistency check
    /// (e.g. a digest mismatch against a golden run).
    Diverged { detail: String },
    /// Filesystem or serialization failure.
    Io { detail: String },
    /// Persisted state (a checkpoint snapshot, typically) failed its
    /// integrity check — checksum mismatch, truncation, or an invariant
    /// violation caught while decoding. Distinct from `Io` because the
    /// bytes were *readable* but wrong, which points at torn writes or
    /// bit rot rather than a filesystem error, and because recovery
    /// differs: fall back to an older snapshot instead of retrying.
    Corrupt { detail: String },
}

impl JobError {
    /// Stable, short kind label (metric suffixes, trace details).
    pub fn kind(&self) -> &'static str {
        match self {
            JobError::Panic { .. } => "panic",
            JobError::Deadline { .. } => "deadline",
            JobError::Watchdog { .. } => "watchdog",
            JobError::Diverged { .. } => "diverged",
            JobError::Io { .. } => "io",
            JobError::Corrupt { .. } => "corrupt",
        }
    }

    /// Extract a printable message from a `catch_unwind` payload.
    pub fn from_panic(payload: Box<dyn std::any::Any + Send>) -> JobError {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        JobError::Panic { message }
    }
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobError::Panic { message } => write!(f, "panic: {message}"),
            JobError::Deadline { limit_ms } => {
                write!(f, "deadline: exceeded {limit_ms} ms wall clock")
            }
            JobError::Watchdog { detail } => write!(f, "watchdog: {detail}"),
            JobError::Diverged { detail } => write!(f, "diverged: {detail}"),
            JobError::Io { detail } => write!(f, "io: {detail}"),
            JobError::Corrupt { detail } => write!(f, "corrupt: {detail}"),
        }
    }
}

impl std::error::Error for JobError {}

impl From<std::io::Error> for JobError {
    fn from(e: std::io::Error) -> JobError {
        JobError::Io {
            detail: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_stable_and_displayed() {
        let cases = [
            (
                JobError::Panic {
                    message: "boom".into(),
                },
                "panic",
            ),
            (JobError::Deadline { limit_ms: 500 }, "deadline"),
            (
                JobError::Watchdog {
                    detail: "no commit for 20000 cycles".into(),
                },
                "watchdog",
            ),
            (
                JobError::Diverged {
                    detail: "digest mismatch".into(),
                },
                "diverged",
            ),
            (
                JobError::Io {
                    detail: "disk full".into(),
                },
                "io",
            ),
            (
                JobError::Corrupt {
                    detail: "snapshot checksum mismatch".into(),
                },
                "corrupt",
            ),
        ];
        for (err, kind) in cases {
            assert_eq!(err.kind(), kind);
            assert!(err.to_string().starts_with(kind), "{err}");
            let text = serde::json::to_string(&err);
            let back: JobError = serde::json::from_str(&text).unwrap();
            assert_eq!(back, err);
        }
    }

    #[test]
    fn panic_payloads_downcast() {
        let err = JobError::from_panic(Box::new("static str"));
        assert_eq!(
            err,
            JobError::Panic {
                message: "static str".into()
            }
        );
        let err = JobError::from_panic(Box::new(String::from("owned")));
        assert_eq!(
            err,
            JobError::Panic {
                message: "owned".into()
            }
        );
        let err = JobError::from_panic(Box::new(42u32));
        assert!(matches!(err, JobError::Panic { message } if message.contains("non-string")));
    }
}
