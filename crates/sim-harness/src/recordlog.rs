//! The durable record log under the campaign journal, the serve queue
//! log and the run-store index: an append-only, versioned JSONL file.
//! Damaged lines anywhere are skipped and reported, never admitted; an
//! append seals a possibly unterminated tail first, so a new record
//! never fuses onto crash garbage; opening never writes to an existing
//! log. One limit
//! remains: a *silent* short write is invisible to the handle, so the
//! record appended after it fuses onto the prefix and is lost with it.

use std::io;
use std::marker::PhantomData;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use sim_chaos::Vfs;

/// A record type stored one JSON object per line of a [`RecordLog`].
/// Each line stamps its format version in [`Self::VERSION_FIELD`];
/// lines carrying any other version are reported, never decoded.
pub trait LogRecord: Serialize + Deserialize {
    /// Name of the version field every line carries.
    const VERSION_FIELD: &'static str;
    /// The version this build writes and replays.
    const VERSION: u32;
}

/// One classified non-blank line of a log.
#[derive(Debug, Clone, PartialEq)]
pub enum LogLine<R> {
    /// A record of the current version.
    Record(R),
    /// A line stamped with another version (`line` is 1-based).
    WrongVersion { line: usize, found: u32 },
    /// A torn or corrupt line (`line` is 1-based).
    Damaged { line: usize },
}

/// What loading a log found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LogStats {
    /// Records accepted into the caller's replay fold.
    pub loaded: usize,
    /// Lines that failed to parse (torn tail, corruption).
    pub torn: usize,
    /// Records whose version did not match.
    pub wrong_version: usize,
    /// 1-based line number of the first damaged line, if any. Every
    /// record on a line before this one was recovered.
    pub first_damaged_line: Option<usize>,
}

impl LogStats {
    /// Whether any line was damaged. Version skew is not damage.
    pub fn damaged(&self) -> bool {
        self.first_damaged_line.is_some()
    }
}

/// Append handle for one log file.
pub struct RecordLog<R> {
    path: PathBuf,
    fs: Arc<dyn Vfs>,
    /// Whether the file may end mid-line; held across each append.
    unsealed: Mutex<bool>,
    _record: PhantomData<fn() -> R>,
}

impl<R: LogRecord> RecordLog<R> {
    /// Create `dir` and an empty `dir/file_name` if absent, then read the
    /// file and classify its lines in file order. Bytes decode lossily,
    /// so bit-rot damages one line, never the whole log.
    pub fn open(
        vfs: Arc<dyn Vfs>,
        dir: &Path,
        file_name: &str,
    ) -> io::Result<(RecordLog<R>, Vec<LogLine<R>>, LogStats)> {
        vfs.create_dir_all(dir)?;
        let path = dir.join(file_name);
        let bytes = if vfs.exists(&path) {
            vfs.read(&path)?
        } else {
            vfs.append(&path, b"")?;
            Vec::new()
        };
        let log = RecordLog {
            unsealed: Mutex::new(bytes.last().is_some_and(|&b| b != b'\n')),
            path,
            fs: vfs,
            _record: PhantomData,
        };
        let (lines, stats) = classify(&bytes);
        Ok((log, lines, stats))
    }

    /// Append `record` as one line in one flushed [`Vfs::append`]. The
    /// line starts with `\n` when the file may end mid-line: it was
    /// unterminated at open, or this handle's previous append failed
    /// after leaving a prefix, as `ENOSPC` does.
    pub fn append(&self, record: &R) -> io::Result<()> {
        let mut unsealed = self.unsealed.lock();
        let mut line = serde::json::to_string(record);
        line.push('\n');
        if *unsealed {
            line.insert(0, '\n');
        }
        let result = self.fs.append(&self.path, line.as_bytes());
        *unsealed = result.is_err();
        result
    }
}

fn classify<R: LogRecord>(bytes: &[u8]) -> (Vec<LogLine<R>>, LogStats) {
    let mut stats = LogStats::default();
    let mut lines = Vec::new();
    for (index, text) in String::from_utf8_lossy(bytes).lines().enumerate() {
        if text.trim().is_empty() {
            continue;
        }
        let line = index + 1;
        let value = serde::json::parse(text).ok();
        let found = value
            .as_ref()
            .and_then(|v| u32::try_from(v.get(R::VERSION_FIELD)?.as_u64()?).ok());
        let classified = match (value, found) {
            (Some(value), Some(found)) if found == R::VERSION => {
                serde::json::from_value(&value).map_or(LogLine::Damaged { line }, LogLine::Record)
            }
            (_, Some(found)) => LogLine::WrongVersion { line, found },
            _ => LogLine::Damaged { line },
        };
        match classified {
            LogLine::Record(_) => stats.loaded += 1,
            LogLine::WrongVersion { .. } => stats.wrong_version += 1,
            LogLine::Damaged { line } => {
                stats.torn += 1;
                stats.first_damaged_line.get_or_insert(line);
            }
        }
        lines.push(classified);
    }
    (lines, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_chaos::{ChaosConfig, ChaosFs, Fault, FaultSpec, RealFs};
    use std::fs;

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Rec {
        v: u32,
        n: u64,
    }

    impl LogRecord for Rec {
        const VERSION_FIELD: &'static str = "v";
        const VERSION: u32 = 3;
    }

    const FILE: &str = "log.jsonl";

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("sim-harness-recordlog")
            .join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn open(dir: &Path) -> (RecordLog<Rec>, Vec<LogLine<Rec>>, LogStats) {
        RecordLog::open(Arc::new(RealFs), dir, FILE).unwrap()
    }

    fn rec(n: u64) -> Rec {
        Rec { v: 3, n }
    }

    fn records(lines: Vec<LogLine<Rec>>) -> Vec<u64> {
        lines
            .into_iter()
            .filter_map(|l| match l {
                LogLine::Record(r) => Some(r.n),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn classifies_records_versions_and_damage_by_line() {
        let dir = scratch("classifies");
        fs::write(
            dir.join(FILE),
            "{\"v\":3,\"n\":1}\n\n{\"v\":2,\"n\":2}\n{\"v\":3,\"n\"\n{\"v\":3}\n{\"v\":3,\"n\":5}\n",
        )
        .unwrap();
        let (_, lines, stats) = open(&dir);
        assert_eq!(
            lines,
            vec![
                LogLine::Record(rec(1)),
                LogLine::WrongVersion { line: 3, found: 2 },
                LogLine::Damaged { line: 4 },
                LogLine::Damaged { line: 5 },
                LogLine::Record(rec(5)),
            ]
        );
        assert_eq!(
            stats,
            LogStats {
                loaded: 2,
                torn: 2,
                wrong_version: 1,
                first_damaged_line: Some(4),
            }
        );
    }

    #[test]
    fn appends_are_one_line_each_and_create_the_file() {
        let dir = scratch("appends").join("nested");
        let (log, lines, _) = open(&dir);
        assert!(lines.is_empty());
        assert!(dir.join(FILE).exists(), "open creates the file");
        log.append(&rec(1)).unwrap();
        log.append(&rec(2)).unwrap();
        assert_eq!(
            fs::read_to_string(dir.join(FILE)).unwrap(),
            "{\"v\":3,\"n\":1}\n{\"v\":3,\"n\":2}\n"
        );
    }

    #[test]
    fn failed_append_with_a_prefix_does_not_cost_the_next_record() {
        let dir = scratch("enospc");
        drop(open(&dir));
        let cfs = Arc::new(ChaosFs::new(ChaosConfig::new(
            5,
            FaultSpec {
                p_enospc: 0.3,
                ..FaultSpec::off()
            },
        )));
        let (log, _, _) = RecordLog::<Rec>::open(cfs.clone(), &dir, FILE).unwrap();
        let mut durable = Vec::new();
        let mut sealed_after_prefix = false;
        let mut prefix_pending = false;
        for n in 0..40 {
            let faults_before = cfs.events().len();
            if log.append(&rec(n)).is_ok() {
                durable.push(n);
                sealed_after_prefix |= prefix_pending;
                prefix_pending = false;
            } else {
                let left_prefix = cfs.events()[faults_before..]
                    .iter()
                    .any(|e| matches!(e.fault, Fault::Enospc { kept, .. } if kept > 0));
                prefix_pending |= left_prefix;
            }
        }
        assert!(
            sealed_after_prefix,
            "schedule must include an ENOSPC prefix followed by a good append"
        );
        // A failed append may still have landed its whole record, so
        // recovery can hold more than was acknowledged, never less.
        let loaded = records(open(&dir).1);
        for n in &durable {
            assert!(loaded.contains(n), "acknowledged record {n} was lost");
        }
    }

    #[test]
    fn opening_a_torn_log_without_appending_leaves_its_bytes_unchanged() {
        let dir = scratch("open_only");
        let path = dir.join(FILE);
        fs::write(&path, "{\"v\":3,\"n\":1}\n{\"v\":3,\"n").unwrap();
        let before = fs::read(&path).unwrap();
        let (_, lines, stats) = open(&dir);
        assert_eq!(records(lines), vec![1]);
        assert_eq!(stats.first_damaged_line, Some(2));
        assert_eq!(fs::read(&path).unwrap(), before, "opening never seals");
    }
}
