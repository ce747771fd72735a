//! The crash-safe persistent job queue: an append-only JSONL event log
//! on the [`Vfs`] seam, recovered by folding events in order.
//!
//! The log is the daemon's source of truth. Every state transition
//! that must survive `kill -9` is one appended line: `Submitted`,
//! `Preempted` (a durable checkpoint exists), and the terminal events
//! (`Done` / `Failed` / `Cancelled` / `Shed`). The log is a
//! [`RecordLog`], so a crash mid-append loses at most that line.
//!
//! Exactly-once semantics: a terminal event is appended *after* the
//! fact it records. A crash between a job finishing and its `Done`
//! landing therefore re-runs the job on restart — which is safe
//! because specs are deterministic, so the re-execution produces the
//! same result bytes. A `Done` that did land is never re-run: replay
//! is last-event-wins.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use sim_chaos::{sweep_tmp_files, Vfs};
use sim_harness::{JobError, LogLine, LogRecord, LogStats, RecordLog};

use crate::spec::JobSpec;

/// Version stamped into every queue-log line; lines with a different
/// version are counted and skipped on recovery, never misread.
pub const QUEUE_SCHEMA_VERSION: u32 = 1;

/// One durable state transition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueueEvent {
    /// A submission was admitted under `id`.
    Submitted { id: u64, spec: JobSpec },
    /// The job finished; `result` is its final payload (JSON text).
    Done {
        id: u64,
        result: String,
        attempts: u32,
    },
    /// The job exhausted its retries (or was force-quarantined).
    Failed {
        id: u64,
        error: JobError,
        attempts: u32,
    },
    /// The client cancelled it.
    Cancelled { id: u64 },
    /// The job was checkpointed at `cycle` and re-queued; its snapshot
    /// lives in the daemon's snapshot store under the job's slug.
    Preempted { id: u64, cycle: u64 },
    /// Load-shed at admission to make room for higher-priority work.
    Shed { id: u64 },
}

impl QueueEvent {
    pub fn id(&self) -> u64 {
        match self {
            QueueEvent::Submitted { id, .. }
            | QueueEvent::Done { id, .. }
            | QueueEvent::Failed { id, .. }
            | QueueEvent::Cancelled { id }
            | QueueEvent::Preempted { id, .. }
            | QueueEvent::Shed { id } => *id,
        }
    }
}

/// One log line: schema version plus the event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueueRecord {
    pub v: u32,
    pub event: QueueEvent,
}

impl LogRecord for QueueRecord {
    const VERSION_FIELD: &'static str = "v";
    const VERSION: u32 = QUEUE_SCHEMA_VERSION;
}

/// A job's folded state after replay.
#[derive(Debug, Clone, PartialEq)]
pub enum RecoveredState {
    /// Still owed work: re-admit on startup. `checkpoint_cycle` is the
    /// latest durable preemption checkpoint, when one was recorded.
    Pending {
        checkpoint_cycle: Option<u64>,
    },
    Done {
        result: String,
        attempts: u32,
    },
    Failed {
        error: JobError,
        attempts: u32,
    },
    Cancelled,
    Shed,
}

impl RecoveredState {
    pub fn is_pending(&self) -> bool {
        matches!(self, RecoveredState::Pending { .. })
    }
}

/// One job reconstructed from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredJob {
    pub id: u64,
    pub spec: JobSpec,
    pub state: RecoveredState,
}

/// Everything recovery learned from the log.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueRecovery {
    /// All jobs in id (= submission) order.
    pub jobs: Vec<RecoveredJob>,
    /// First id the daemon may assign to a new submission.
    pub next_id: u64,
    pub stats: LogStats,
    /// Events referencing an id with no surviving `Submitted` record
    /// (its submission line was damaged). Counted, not replayed.
    pub orphaned: usize,
}

impl QueueRecovery {
    /// Jobs still owed work, in submission order.
    pub fn pending(&self) -> impl Iterator<Item = &RecoveredJob> {
        self.jobs.iter().filter(|j| j.state.is_pending())
    }
}

/// Append handle for the queue log at `<dir>/queue.jsonl`: one
/// [`QueueRecord`] line per event.
pub struct QueueLog {
    log: RecordLog<QueueRecord>,
}

impl QueueLog {
    /// File name inside the daemon directory.
    pub const FILE_NAME: &'static str = "queue.jsonl";

    /// Open (creating if absent) the queue log in `dir` and replay it.
    /// Also reaps `.tmp` litter a crashed atomic write left in `dir`
    /// (the daemon directory has exactly one writer, opened before any
    /// worker runs, so the sweep cannot race an in-flight write).
    pub fn open_in(vfs: Arc<dyn Vfs>, dir: &Path) -> Result<(QueueLog, QueueRecovery), JobError> {
        let _ = sweep_tmp_files(vfs.as_ref(), dir, None);
        let (log, lines, stats) = RecordLog::<QueueRecord>::open(vfs, dir, Self::FILE_NAME)?;

        // Fold events in file order. `BTreeMap` keeps jobs in id order
        // for free, which is also submission order.
        let mut jobs: BTreeMap<u64, RecoveredJob> = BTreeMap::new();
        let mut max_id = 0u64;
        let mut orphaned = 0;
        for line in lines {
            if let LogLine::Record(rec) = line {
                max_id = max_id.max(rec.event.id());
                fold_event(&mut jobs, rec.event, &mut orphaned);
            }
        }

        let recovery = QueueRecovery {
            jobs: jobs.into_values().collect(),
            next_id: max_id + 1,
            stats,
            orphaned,
        };
        Ok((QueueLog { log }, recovery))
    }

    /// Append one event as a single flushed line.
    pub fn append(&self, event: &QueueEvent) -> Result<(), JobError> {
        Ok(self.log.append(&QueueRecord {
            v: QUEUE_SCHEMA_VERSION,
            event: event.clone(),
        })?)
    }
}

/// Apply one event to the replay map. Later events win; terminal
/// states are sticky (a stray late event cannot resurrect a job).
fn fold_event(jobs: &mut BTreeMap<u64, RecoveredJob>, event: QueueEvent, orphaned: &mut usize) {
    match event {
        QueueEvent::Submitted { id, spec } => {
            // Duplicate Submitted for a known id keeps the first spec;
            // submissions are immutable.
            jobs.entry(id).or_insert(RecoveredJob {
                id,
                spec,
                state: RecoveredState::Pending {
                    checkpoint_cycle: None,
                },
            });
        }
        other => {
            let id = other.id();
            let Some(job) = jobs.get_mut(&id) else {
                // The Submitted line for this id was lost (damaged
                // mid-file). Nothing to attach the event to.
                *orphaned += 1;
                return;
            };
            if !job.state.is_pending() {
                // Terminal already; e.g. a Preempted append raced a
                // cancel. Keep the terminal verdict.
                return;
            }
            job.state = match other {
                QueueEvent::Done {
                    result, attempts, ..
                } => RecoveredState::Done { result, attempts },
                QueueEvent::Failed {
                    error, attempts, ..
                } => RecoveredState::Failed { error, attempts },
                QueueEvent::Cancelled { .. } => RecoveredState::Cancelled,
                QueueEvent::Shed { .. } => RecoveredState::Shed,
                QueueEvent::Preempted { cycle, .. } => RecoveredState::Pending {
                    checkpoint_cycle: Some(cycle),
                },
                QueueEvent::Submitted { .. } => unreachable!("handled above"),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Priority;
    use sim_chaos::RealFs;
    use std::fs::{self, OpenOptions};
    use std::io::Write;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sim-serve-queue").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn spec(seed: u64) -> JobSpec {
        JobSpec {
            name: "t".into(),
            kind: "synthetic".into(),
            seed,
            steps: 50,
            payload: String::new(),
            priority: Priority::Normal,
        }
    }

    fn open(dir: &Path) -> (QueueLog, QueueRecovery) {
        QueueLog::open_in(Arc::new(RealFs), dir).unwrap()
    }

    #[test]
    fn submissions_recover_as_pending_in_order() {
        let dir = scratch("submissions_recover");
        {
            let (log, rec) = open(&dir);
            assert_eq!(rec.next_id, 1, "fresh log starts at id 1");
            for id in 1..=3 {
                log.append(&QueueEvent::Submitted { id, spec: spec(id) })
                    .unwrap();
            }
        }
        let (_, rec) = open(&dir);
        assert_eq!(rec.jobs.len(), 3);
        assert_eq!(rec.next_id, 4);
        assert_eq!(rec.pending().count(), 3);
        let ids: Vec<u64> = rec.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![1, 2, 3], "submission order preserved");
    }

    #[test]
    fn terminal_events_fold_and_stick() {
        let dir = scratch("terminal_events_fold");
        {
            let (log, _) = open(&dir);
            for id in 1..=4 {
                log.append(&QueueEvent::Submitted { id, spec: spec(id) })
                    .unwrap();
            }
            log.append(&QueueEvent::Done {
                id: 1,
                result: "\"r1\"".into(),
                attempts: 1,
            })
            .unwrap();
            log.append(&QueueEvent::Failed {
                id: 2,
                error: JobError::Panic {
                    message: "boom".into(),
                },
                attempts: 3,
            })
            .unwrap();
            log.append(&QueueEvent::Cancelled { id: 3 }).unwrap();
            // A stray preemption after the cancel must not resurrect 3.
            log.append(&QueueEvent::Preempted { id: 3, cycle: 10 })
                .unwrap();
        }
        let (_, rec) = open(&dir);
        assert_eq!(rec.pending().count(), 1);
        assert_eq!(rec.pending().next().unwrap().id, 4);
        assert!(matches!(
            &rec.jobs[0].state,
            RecoveredState::Done { result, attempts: 1 } if result == "\"r1\""
        ));
        assert!(matches!(rec.jobs[1].state, RecoveredState::Failed { .. }));
        assert_eq!(rec.jobs[2].state, RecoveredState::Cancelled);
    }

    #[test]
    fn preempted_job_recovers_with_checkpoint_cycle() {
        let dir = scratch("preempted_recovers");
        {
            let (log, _) = open(&dir);
            log.append(&QueueEvent::Submitted {
                id: 1,
                spec: spec(1),
            })
            .unwrap();
            log.append(&QueueEvent::Preempted {
                id: 1,
                cycle: 1_000,
            })
            .unwrap();
            log.append(&QueueEvent::Preempted {
                id: 1,
                cycle: 2_000,
            })
            .unwrap();
        }
        let (_, rec) = open(&dir);
        assert_eq!(
            rec.jobs[0].state,
            RecoveredState::Pending {
                checkpoint_cycle: Some(2_000)
            },
            "latest checkpoint wins"
        );
    }

    #[test]
    fn torn_tail_is_counted_and_prefix_survives() {
        let dir = scratch("torn_tail");
        {
            let (log, _) = open(&dir);
            log.append(&QueueEvent::Submitted {
                id: 1,
                spec: spec(1),
            })
            .unwrap();
            log.append(&QueueEvent::Done {
                id: 1,
                result: "\"kept\"".into(),
                attempts: 1,
            })
            .unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(QueueLog::FILE_NAME))
            .unwrap();
        f.write_all(b"{\"v\":1,\"event\":{\"Subm").unwrap();
        drop(f);

        let (_, rec) = open(&dir);
        assert_eq!(rec.stats.torn, 1);
        assert!(rec.stats.damaged());
        assert!(matches!(rec.jobs[0].state, RecoveredState::Done { .. }));
    }

    #[test]
    fn torn_tail_is_sealed_so_later_appends_survive() {
        // A crash mid-append leaves the file ending inside a line.
        // Reopening must terminate that line; otherwise the next
        // append fuses onto the garbage and a *good* record is lost.
        let dir = scratch("torn_tail_sealed");
        {
            let (log, _) = open(&dir);
            log.append(&QueueEvent::Submitted {
                id: 1,
                spec: spec(1),
            })
            .unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(QueueLog::FILE_NAME))
            .unwrap();
        f.write_all(b"{\"v\":1,\"event\":{\"Done\":{\"id\":1")
            .unwrap();
        drop(f);

        // "Restart": reopen and record the job's completion.
        {
            let (log, rec) = open(&dir);
            assert_eq!(rec.stats.torn, 1);
            log.append(&QueueEvent::Done {
                id: 1,
                result: "\"kept\"".into(),
                attempts: 1,
            })
            .unwrap();
        }
        // Second restart sees the Done record intact.
        let (_, rec) = open(&dir);
        assert_eq!(rec.stats.torn, 1, "old damage still counted, no new damage");
        match &rec.jobs[0].state {
            RecoveredState::Done { result, .. } => assert_eq!(result, "\"kept\""),
            other => panic!("Done record written after reopen was lost: {other:?}"),
        }
    }

    #[test]
    fn truncation_at_any_byte_recovers_a_prefix() {
        // Crash-model sweep: whatever byte the log is cut at, recovery
        // must succeed typed, keep a prefix of whole events, and lose
        // at most the line being written.
        let dir = scratch("truncate_anywhere");
        {
            let (log, _) = open(&dir);
            for id in 1..=3 {
                log.append(&QueueEvent::Submitted { id, spec: spec(id) })
                    .unwrap();
            }
            log.append(&QueueEvent::Done {
                id: 1,
                result: "\"r\"".into(),
                attempts: 1,
            })
            .unwrap();
        }
        let path = dir.join(QueueLog::FILE_NAME);
        let bytes = fs::read(&path).unwrap();
        for cut in 0..=bytes.len() {
            fs::write(&path, &bytes[..cut]).unwrap();
            let (_, rec) = open(&dir);
            assert!(rec.stats.torn <= 1, "at most the cut line is lost");
            assert!(rec.jobs.len() <= 3);
            // Jobs recovered at all must carry intact specs.
            for job in &rec.jobs {
                assert_eq!(job.spec, spec(job.id));
            }
            // next_id never goes backwards past a surviving id.
            for job in &rec.jobs {
                assert!(rec.next_id > job.id);
            }
        }
        fs::write(&path, &bytes).unwrap();
    }

    #[test]
    fn orphaned_events_are_counted_not_replayed() {
        let dir = scratch("orphaned_events");
        {
            let (log, _) = open(&dir);
            // Done for an id whose Submitted line never landed.
            log.append(&QueueEvent::Done {
                id: 9,
                result: "\"ghost\"".into(),
                attempts: 1,
            })
            .unwrap();
        }
        let (_, rec) = open(&dir);
        assert_eq!(rec.jobs.len(), 0);
        assert_eq!(rec.orphaned, 1);
        // The orphan id still advances next_id: ids are never reused.
        assert_eq!(rec.next_id, 10);
    }

    #[test]
    fn wrong_version_lines_are_skipped() {
        let dir = scratch("wrong_version");
        {
            let (log, _) = open(&dir);
            log.append(&QueueEvent::Submitted {
                id: 1,
                spec: spec(1),
            })
            .unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(QueueLog::FILE_NAME))
            .unwrap();
        f.write_all(b"{\"v\":99,\"event\":{\"Cancelled\":{\"id\":1}}}\n")
            .unwrap();
        drop(f);
        let (_, rec) = open(&dir);
        assert_eq!(rec.stats.wrong_version, 1);
        assert!(
            rec.jobs[0].state.is_pending(),
            "future-schema cancel ignored"
        );
    }

    #[test]
    fn chaos_round_recovers_typed() {
        use sim_chaos::{ChaosConfig, ChaosFs, FaultSpec};
        // Drive the log through a crashing, fault-injecting filesystem
        // for many seeds; whatever survives on disk must recover typed
        // with the real filesystem: a prefix of whole events, correct
        // specs, stats instead of panics.
        for seed in 0..40u64 {
            let dir = scratch(&format!("chaos_round_{seed}"));
            let crash_at = 2 + (seed % 17);
            let cfs = Arc::new(ChaosFs::new(
                ChaosConfig::new(seed, FaultSpec::gentle()).crash_at(crash_at),
            ));
            let mut submitted: Vec<u64> = Vec::new();
            let mut done: Vec<u64> = Vec::new();
            if let Ok((log, _)) = QueueLog::open_in(cfs.clone(), &dir) {
                for id in 1..=6u64 {
                    if log
                        .append(&QueueEvent::Submitted { id, spec: spec(id) })
                        .is_err()
                    {
                        break;
                    }
                    submitted.push(id);
                    if id % 2 == 1 {
                        if log
                            .append(&QueueEvent::Done {
                                id,
                                result: format!("\"r{id}\""),
                                attempts: 1,
                            })
                            .is_err()
                        {
                            break;
                        }
                        done.push(id);
                    }
                }
            }
            // Recovery with the real filesystem.
            let (_, rec) = open(&dir);
            // Every job that recovered must be one we actually
            // submitted, with its spec intact.
            for job in &rec.jobs {
                assert!(submitted.contains(&job.id) || rec.stats.damaged() || rec.orphaned > 0);
                if submitted.contains(&job.id) {
                    assert_eq!(job.spec, spec(job.id), "seed {seed}");
                }
            }
            // Every Done the writer observed as durable-before-crash
            // is... not guaranteed without fsync-per-append; what IS
            // guaranteed: a recovered Done carries the exact result we
            // wrote (no torn line parses as a record).
            for job in &rec.jobs {
                if let RecoveredState::Done { result, .. } = &job.state {
                    assert_eq!(result, &format!("\"r{}\"", job.id), "seed {seed}");
                    assert!(done.contains(&job.id), "seed {seed}");
                }
            }
        }
    }
}
