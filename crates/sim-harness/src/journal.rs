//! Append-only JSONL checkpoint journal for resumable campaigns.
//!
//! One line per completed job or checkpoint, kept in a [`RecordLog`]:
//! a crash while appending tears at most the final line, which
//! [`Journal::open`] skips and counts, so `--resume` loses at most the
//! one job that was mid-write.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

use serde::{Deserialize, Serialize};
use sim_chaos::{sweep_tmp_files, RealFs, Vfs};

use crate::error::JobError;
use crate::recordlog::{LogLine, LogRecord, LogStats, RecordLog};

/// Version stamped into every record; records with a different version
/// are skipped (and counted) on load so old journals never corrupt a
/// resumed campaign silently.
///
/// History: v1 had no `state` field (every record was a completion);
/// v2 added `state` so mid-run checkpoints can live in the same journal
/// as final results. v1 journals replay as empty (all records counted
/// `wrong_version`), which merely re-runs their jobs.
pub const JOURNAL_SCHEMA_VERSION: u32 = 2;

/// `state` value for a finished job whose payload is the final result.
pub const STATE_DONE: &str = "done";

/// `state` value for a job interrupted mid-run; the payload points at
/// its latest snapshot (campaign-defined, typically a cycle count and
/// snapshot directory) rather than a result.
pub const STATE_CHECKPOINTED: &str = "checkpointed";

/// Identity of one unit of campaign work. Two runs of the same binary
/// with the same key must produce the same result (simulations are
/// deterministic given their seed), which is what makes journal replay
/// sound; `config_hash` exists to invalidate records when the campaign
/// configuration changes between runs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobKey {
    /// Campaign family, e.g. `"bench-baseline"` or `"fault-inject"`.
    pub exhibit: String,
    /// Scheme / configuration label within the campaign.
    pub scheme: String,
    /// Seed (or salt) distinguishing statistical repetitions.
    pub seed: u64,
    /// FNV-1a hash of the campaign configuration (see [`fnv1a`]).
    pub config_hash: u64,
}

impl JobKey {
    pub fn new(exhibit: &str, scheme: &str, seed: u64, config_hash: u64) -> JobKey {
        JobKey {
            exhibit: exhibit.to_string(),
            scheme: scheme.to_string(),
            seed,
            config_hash,
        }
    }

    /// Filesystem/trace-safe label: non-alphanumeric runs collapse to
    /// a single `-`.
    pub fn slug(&self) -> String {
        let raw = format!(
            "{}-{}-s{}-c{:08x}",
            self.exhibit, self.scheme, self.seed, self.config_hash
        );
        let mut out = String::with_capacity(raw.len());
        let mut last_dash = false;
        for ch in raw.chars() {
            if ch.is_ascii_alphanumeric() {
                out.push(ch.to_ascii_lowercase());
                last_dash = false;
            } else if !last_dash {
                out.push('-');
                last_dash = true;
            }
        }
        out.trim_matches('-').to_string()
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{} seed={} cfg={:08x}",
            self.exhibit, self.scheme, self.seed, self.config_hash
        )
    }
}

/// One journal line: schema version, key, and the job's result as an
/// embedded JSON string (kept opaque so the journal layer does not need
/// to know campaign result types).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    pub v: u32,
    pub key: JobKey,
    /// [`STATE_DONE`] or [`STATE_CHECKPOINTED`].
    pub state: String,
    pub payload: String,
}

impl LogRecord for JournalRecord {
    const VERSION_FIELD: &'static str = "v";
    const VERSION: u32 = JOURNAL_SCHEMA_VERSION;
}

/// Append-only JSONL journal living at `<dir>/journal.jsonl`, a fold
/// over a [`RecordLog`].
pub struct Journal {
    log: RecordLog<JournalRecord>,
    records: BTreeMap<JobKey, String>,
    /// Latest checkpoint payload per key. A key leaves this map the
    /// moment a `done` record lands — a completion supersedes any
    /// checkpoint taken on the way there.
    checkpoints: BTreeMap<JobKey, String>,
    load_stats: LogStats,
}

impl Journal {
    /// File name used inside the campaign directory.
    pub const FILE_NAME: &'static str = "journal.jsonl";

    /// Open (creating if absent) the journal in `dir`, replaying any
    /// existing records; the later record for a key wins. Records with
    /// an unknown `state` count as `wrong_version`.
    pub fn open(dir: &Path) -> Result<Journal, JobError> {
        Self::open_in(Arc::new(RealFs), dir)
    }

    /// [`Journal::open`] against an explicit [`Vfs`] — the seam the
    /// chaos harness uses to torture the journal. Also reaps any `.tmp`
    /// litter a crashed atomic write left in `dir`; the sweep is safe
    /// because a journal directory has exactly one writer, opened
    /// before any job runs.
    pub fn open_in(vfs: Arc<dyn Vfs>, dir: &Path) -> Result<Journal, JobError> {
        let _ = sweep_tmp_files(vfs.as_ref(), dir, None);
        let (log, lines, mut load_stats) =
            RecordLog::<JournalRecord>::open(vfs, dir, Self::FILE_NAME)?;
        let mut records = BTreeMap::new();
        let mut checkpoints = BTreeMap::new();
        for line in lines {
            let LogLine::Record(rec) = line else {
                continue;
            };
            match rec.state.as_str() {
                STATE_DONE => {
                    checkpoints.remove(&rec.key);
                    records.insert(rec.key, rec.payload);
                }
                STATE_CHECKPOINTED => {
                    if !records.contains_key(&rec.key) {
                        checkpoints.insert(rec.key, rec.payload);
                    }
                }
                // Unknown state from a future minor change: ignore the
                // record rather than misread it.
                _ => {
                    load_stats.loaded -= 1;
                    load_stats.wrong_version += 1;
                }
            }
        }
        Ok(Journal {
            log,
            records,
            checkpoints,
            load_stats,
        })
    }

    pub fn load_stats(&self) -> LogStats {
        self.load_stats
    }

    /// Number of distinct keys currently replayable.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Raw payload JSON for `key`, if journaled.
    pub fn lookup(&self, key: &JobKey) -> Option<&str> {
        self.records.get(key).map(|s| s.as_str())
    }

    /// Decode a journaled payload into its result type.
    pub fn decode<R: Deserialize>(&self, key: &JobKey) -> Option<Result<R, JobError>> {
        self.lookup(key).map(|payload| {
            serde::json::from_str::<R>(payload).map_err(|e| JobError::Io {
                detail: format!("journal payload for {key} failed to decode: {e:?}"),
            })
        })
    }

    /// Latest checkpoint payload for `key`, unless a `done` record has
    /// superseded it.
    pub fn lookup_checkpoint(&self, key: &JobKey) -> Option<&str> {
        self.checkpoints.get(key).map(|s| s.as_str())
    }

    /// Decode a journaled checkpoint payload.
    pub fn decode_checkpoint<R: Deserialize>(&self, key: &JobKey) -> Option<Result<R, JobError>> {
        self.lookup_checkpoint(key).map(|payload| {
            serde::json::from_str::<R>(payload).map_err(|e| JobError::Corrupt {
                detail: format!("journal checkpoint for {key} failed to decode: {e:?}"),
            })
        })
    }

    fn append<R: Serialize>(
        &mut self,
        key: &JobKey,
        state: &str,
        body: &R,
    ) -> Result<String, JobError> {
        let payload = serde::json::to_string(body);
        self.log.append(&JournalRecord {
            v: JOURNAL_SCHEMA_VERSION,
            key: key.clone(),
            state: state.to_string(),
            payload: payload.clone(),
        })?;
        Ok(payload)
    }

    /// Append one completed job. The record is written as a single line
    /// and flushed before returning, so a later crash cannot lose it.
    /// Completion supersedes any checkpoint recorded for the same key.
    pub fn record<R: Serialize>(&mut self, key: &JobKey, result: &R) -> Result<(), JobError> {
        let payload = self.append(key, STATE_DONE, result)?;
        self.checkpoints.remove(key);
        self.records.insert(key.clone(), payload);
        Ok(())
    }

    /// Append a mid-run checkpoint marker for `key`. The payload is
    /// campaign-defined — typically the snapshot cycle plus enough
    /// metadata to locate the snapshot file — and is returned by
    /// [`lookup_checkpoint`] on resume until a `done` record lands.
    pub fn record_checkpoint<R: Serialize>(
        &mut self,
        key: &JobKey,
        checkpoint: &R,
    ) -> Result<(), JobError> {
        let payload = self.append(key, STATE_CHECKPOINTED, checkpoint)?;
        if !self.records.contains_key(key) {
            self.checkpoints.insert(key.clone(), payload);
        }
        Ok(())
    }
}

/// FNV-1a over the canonical text of a campaign configuration — the
/// standard way to derive [`JobKey::config_hash`].
pub fn fnv1a(text: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in text.bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::{self, OpenOptions};
    use std::io::Write;
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("sim-harness-journal").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn key(seed: u64) -> JobKey {
        JobKey::new("bench-baseline", "icount", seed, fnv1a("cfg"))
    }

    #[test]
    fn roundtrip_and_replay() {
        let dir = scratch("roundtrip_and_replay");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"alpha".to_string()).unwrap();
            j.record(&key(2), &"beta".to_string()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 2);
        assert_eq!(j.load_stats().loaded, 2);
        assert_eq!(j.decode::<String>(&key(1)).unwrap().unwrap(), "alpha");
        assert_eq!(j.decode::<String>(&key(2)).unwrap().unwrap(), "beta");
        assert!(j.lookup(&key(3)).is_none());
    }

    #[test]
    fn later_record_wins() {
        let dir = scratch("later_record_wins");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"old".to_string()).unwrap();
            j.record(&key(1), &"new".to_string()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.decode::<String>(&key(1)).unwrap().unwrap(), "new");
    }

    #[test]
    fn torn_tail_line_is_discarded() {
        let dir = scratch("torn_tail_line_is_discarded");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"kept".to_string()).unwrap();
        }
        // Simulate a crash mid-append: half a record, no newline.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        f.write_all(b"{\"v\":1,\"key\":{\"exhi").unwrap();
        drop(f);

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.load_stats().torn, 1);
        assert_eq!(j.decode::<String>(&key(1)).unwrap().unwrap(), "kept");
    }

    #[test]
    fn record_after_a_torn_tail_survives_reopen() {
        let dir = scratch("record_after_a_torn_tail");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"first".to_string()).unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        f.write_all(b"{\"v\":2,\"key\":{\"exhi").unwrap();
        drop(f);
        {
            // The resumed campaign's first record must not fuse onto
            // the crash garbage.
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(2), &"second".to_string()).unwrap();
        }
        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.load_stats().loaded, 2);
        assert_eq!(j.load_stats().torn, 1);
        assert_eq!(j.decode::<String>(&key(2)).unwrap().unwrap(), "second");
    }

    #[test]
    fn wrong_schema_version_is_skipped() {
        let dir = scratch("wrong_schema_version_is_skipped");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"v1".to_string()).unwrap();
        }
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        let future = JournalRecord {
            v: JOURNAL_SCHEMA_VERSION + 1,
            key: key(2),
            state: STATE_DONE.to_string(),
            payload: "\"future\"".to_string(),
        };
        let mut line = serde::json::to_string(&future);
        line.push('\n');
        f.write_all(line.as_bytes()).unwrap();
        drop(f);

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.load_stats().wrong_version, 1);
        assert!(j.lookup(&key(2)).is_none());
    }

    #[test]
    fn v1_records_without_state_count_as_wrong_version() {
        let dir = scratch("v1_records_without_state");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record(&key(1), &"current".to_string()).unwrap();
        }
        // A v1-era line: valid JSON, version stamp, but no `state`
        // field. It must be classified as an old schema, not a torn
        // write, and must not replay.
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.join(Journal::FILE_NAME))
            .unwrap();
        f.write_all(
            b"{\"v\":1,\"key\":{\"exhibit\":\"bench-baseline\",\"scheme\":\"icount\",\
              \"seed\":9,\"config_hash\":1},\"payload\":\"\\\"old\\\"\"}\n",
        )
        .unwrap();
        drop(f);

        let j = Journal::open(&dir).unwrap();
        assert_eq!(j.len(), 1);
        assert_eq!(j.load_stats().wrong_version, 1);
        assert_eq!(j.load_stats().torn, 0);
        assert!(j.lookup(&key(9)).is_none());
    }

    #[test]
    fn checkpoint_roundtrips_until_done_supersedes() {
        let dir = scratch("checkpoint_roundtrips");
        {
            let mut j = Journal::open(&dir).unwrap();
            j.record_checkpoint(&key(1), &"cycle-10000".to_string())
                .unwrap();
            j.record_checkpoint(&key(1), &"cycle-20000".to_string())
                .unwrap();
            j.record_checkpoint(&key(2), &"cycle-10000".to_string())
                .unwrap();
            // Key 2 finishes; its checkpoint is now obsolete.
            j.record(&key(2), &"result".to_string()).unwrap();
            assert!(j.lookup_checkpoint(&key(2)).is_none());
        }
        let j = Journal::open(&dir).unwrap();
        // Latest checkpoint wins for the still-running job.
        assert_eq!(
            j.decode_checkpoint::<String>(&key(1)).unwrap().unwrap(),
            "cycle-20000"
        );
        // The finished job replays its result, not its checkpoint.
        assert!(j.lookup_checkpoint(&key(2)).is_none());
        assert_eq!(j.decode::<String>(&key(2)).unwrap().unwrap(), "result");
        // Checkpoints never appear in the completed-replay map.
        assert!(j.lookup(&key(1)).is_none());
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn undecodable_checkpoint_reports_corrupt() {
        let dir = scratch("undecodable_checkpoint");
        let mut j = Journal::open(&dir).unwrap();
        j.record_checkpoint(&key(1), &"not-a-number".to_string())
            .unwrap();
        let err = j.decode_checkpoint::<u64>(&key(1)).unwrap().unwrap_err();
        assert!(
            matches!(err, JobError::Corrupt { .. }),
            "expected Corrupt, got {err:?}"
        );
    }

    #[test]
    fn slug_is_filesystem_safe() {
        let k = JobKey::new("fault-inject", "DVM/aggr", 7, 0xdead_beef);
        let slug = k.slug();
        assert_eq!(slug, "fault-inject-dvm-aggr-s7-cdeadbeef");
        assert!(slug.chars().all(|c| c.is_ascii_alphanumeric() || c == '-'));
    }

    #[test]
    fn fnv1a_is_stable() {
        // Reference vectors for the 64-bit FNV-1a parameters.
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a("a"), fnv1a("b"));
        assert_eq!(fnv1a("campaign"), fnv1a("campaign"));
    }
}
