//! `experiments serve` / `experiments serve-client` — the campaign
//! daemon and its CLI client.
//!
//! `serve` hosts the [`sim_serve`] daemon over a state directory:
//! submissions, lifecycle transitions and results are durable in
//! `DIR/queue.jsonl`, so a `kill -9` at any instant loses nothing —
//! restart with the same `--dir` and recovery re-admits pending work
//! (checkpointed jobs resume from their latest valid snapshot).
//! `--drain` exits 0 once the recovered backlog is empty, which is
//! what the CI kill-and-recover smoke job uses.
//!
//! `serve-client` speaks to a running daemon discovered through the
//! endpoint file in `--dir` (or an explicit `--addr`). The `results`
//! verb prints one JSON line per completed job, sorted by
//! (name, kind, seed, steps) with all nondeterministic fields
//! (attempts, preemptions, ids) stripped — two runs of the same batch
//! produce byte-identical output, interrupted or not, so CI can
//! assert recovery correctness with a plain `diff`.

use std::path::PathBuf;
use std::time::Duration;

use serde::Value;
use sim_harness::signal::{EXIT_FATAL, EXIT_USAGE};
use sim_serve::{JobSpec, Priority, ServeClient, ServeConfig, SubmitError, WorkloadRegistry};

/// Arguments for `experiments serve`.
#[derive(Debug, Clone)]
pub struct ServeArgs {
    /// Daemon state directory (queue log, snapshots, endpoint file).
    pub dir: PathBuf,
    /// Bind address; port 0 picks a free port (published via the
    /// endpoint file).
    pub addr: Option<String>,
    /// Worker-pool width.
    pub workers: Option<u64>,
    /// Admission bound: queued jobs beyond this are shed or refused.
    pub max_queued: Option<u64>,
    /// Per-attempt wall-clock deadline.
    pub deadline: Option<Duration>,
    /// Exit 0 once the recovered backlog drains (batch mode).
    pub drain: bool,
    /// Register finished jobs in this run store.
    pub store: Option<PathBuf>,
}

/// Run the daemon until signalled (or drained, with `--drain`);
/// returns its exit code under the 0/2/130 contract.
pub fn cmd_serve(args: &ServeArgs) -> i32 {
    let mut cfg = ServeConfig::new(&args.dir);
    if let Some(addr) = &args.addr {
        cfg.addr = addr.clone();
    }
    if let Some(n) = args.workers {
        cfg.workers = n as usize;
    }
    if let Some(n) = args.max_queued {
        cfg.max_queued = n as usize;
    }
    cfg.deadline = args.deadline;
    cfg.drain = args.drain;
    cfg.store_root = args.store.clone();
    sim_serve::run(cfg, WorkloadRegistry::with_builtin())
}

/// Arguments for `experiments serve-client`.
#[derive(Debug, Clone)]
pub struct ServeClientArgs {
    /// Daemon state directory, for endpoint discovery.
    pub dir: Option<PathBuf>,
    /// Explicit daemon address; wins over `--dir` discovery.
    pub addr: Option<String>,
    /// Verb: submit, status, list, results, cancel, stats, wait,
    /// healthz, shutdown.
    pub verb: String,
    /// Job id for status/cancel, and for wait (absent: wait for idle).
    pub id: Option<u64>,
    /// Submission fields (submit verb only).
    pub name: String,
    pub kind: String,
    pub seed: u64,
    pub steps: u64,
    pub payload: String,
    pub priority: String,
    /// Polling budget for the wait verb.
    pub timeout: Duration,
}

impl ServeClientArgs {
    fn client(&self) -> Result<ServeClient, String> {
        if let Some(addr) = &self.addr {
            return Ok(ServeClient::new(addr.clone()));
        }
        let Some(dir) = &self.dir else {
            return Err("serve-client wants --dir DIR or --addr HOST:PORT".to_string());
        };
        ServeClient::from_dir(dir).map_err(|e| e.to_string())
    }
}

/// One deterministic line per completed job: identity + result only,
/// sorted, so byte-equality across runs means recovery was lossless.
fn result_lines(jobs: &[Value]) -> Vec<String> {
    let mut rows: Vec<(String, String, u64, u64, String)> = jobs
        .iter()
        .filter(|j| j.get("state").and_then(Value::as_str) == Some("done"))
        .map(|j| {
            let text = |key: &str| {
                j.get(key)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            let num = |key: &str| j.get(key).and_then(Value::as_u64).unwrap_or(0);
            (
                text("name"),
                text("kind"),
                num("seed"),
                num("steps"),
                text("result"),
            )
        })
        .collect();
    rows.sort();
    rows.into_iter()
        .map(|(name, kind, seed, steps, result)| {
            serde::json::to_string(&Value::Object(vec![
                ("name".to_string(), Value::String(name)),
                ("kind".to_string(), Value::String(kind)),
                ("seed".to_string(), Value::U64(seed)),
                ("steps".to_string(), Value::U64(steps)),
                ("result".to_string(), Value::String(result)),
            ]))
        })
        .collect()
}

/// Execute one client verb; returns the process exit code.
pub fn cmd_serve_client(args: &ServeClientArgs) -> i32 {
    let client = match args.client() {
        Ok(c) => c,
        Err(msg) => {
            eprintln!("{msg}");
            return EXIT_USAGE;
        }
    };
    let need_id = || -> Result<u64, i32> {
        args.id.ok_or_else(|| {
            eprintln!("serve-client {} wants a job id", args.verb);
            EXIT_USAGE
        })
    };
    match args.verb.as_str() {
        "submit" => {
            let Some(priority) = Priority::from_label(&args.priority) else {
                eprintln!("--priority wants low|normal|high, got {:?}", args.priority);
                return EXIT_USAGE;
            };
            let spec = JobSpec {
                name: args.name.clone(),
                kind: args.kind.clone(),
                seed: args.seed,
                steps: args.steps,
                payload: args.payload.clone(),
                priority,
            };
            match client.submit(&spec) {
                Ok(id) => {
                    println!("{id}");
                    0
                }
                Err(SubmitError::Overloaded { retry_after_ms }) => {
                    eprintln!("overloaded; retry after {retry_after_ms} ms");
                    EXIT_FATAL
                }
                Err(e) => {
                    eprintln!("submit refused: {e}");
                    EXIT_FATAL
                }
            }
        }
        "status" => {
            let id = match need_id() {
                Ok(id) => id,
                Err(code) => return code,
            };
            match client.status(id) {
                Ok(Some(doc)) => {
                    println!("{}", serde::json::to_string(&doc));
                    0
                }
                Ok(None) => {
                    eprintln!("job {id} not found");
                    EXIT_FATAL
                }
                Err(e) => {
                    eprintln!("status failed: {e}");
                    EXIT_FATAL
                }
            }
        }
        "list" => match client.list() {
            Ok(jobs) => {
                for doc in &jobs {
                    println!("{}", serde::json::to_string(doc));
                }
                0
            }
            Err(e) => {
                eprintln!("list failed: {e}");
                EXIT_FATAL
            }
        },
        "results" => match client.list() {
            Ok(jobs) => {
                for line in result_lines(&jobs) {
                    println!("{line}");
                }
                0
            }
            Err(e) => {
                eprintln!("results failed: {e}");
                EXIT_FATAL
            }
        },
        "cancel" => {
            let id = match need_id() {
                Ok(id) => id,
                Err(code) => return code,
            };
            match client.cancel(id) {
                Ok((200, doc)) => {
                    println!("{}", serde::json::to_string(&doc));
                    0
                }
                Ok((status, doc)) => {
                    eprintln!(
                        "cancel refused ({status}): {}",
                        serde::json::to_string(&doc)
                    );
                    EXIT_FATAL
                }
                Err(e) => {
                    eprintln!("cancel failed: {e}");
                    EXIT_FATAL
                }
            }
        }
        "stats" => match client.stats() {
            Ok(doc) => {
                println!("{}", serde::json::to_string(&doc));
                0
            }
            Err(e) => {
                eprintln!("stats failed: {e}");
                EXIT_FATAL
            }
        },
        "wait" => {
            let outcome = match args.id {
                Some(id) => client.wait_job(id, args.timeout).map(|doc| {
                    println!("{}", serde::json::to_string(&doc));
                }),
                None => client.wait_idle(args.timeout),
            };
            match outcome {
                Ok(()) => 0,
                Err(e) => {
                    eprintln!("wait failed: {e}");
                    EXIT_FATAL
                }
            }
        }
        "healthz" => {
            if client.healthz() {
                println!("ok");
                0
            } else {
                eprintln!("daemon unreachable at {}", client.addr());
                EXIT_FATAL
            }
        }
        "shutdown" => match client.shutdown() {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("shutdown failed: {e}");
                EXIT_FATAL
            }
        },
        other => {
            eprintln!(
                "unknown serve-client verb {other:?} (want submit|status|list|results|cancel|stats|wait|healthz|shutdown)"
            );
            EXIT_USAGE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(state: &str, name: &str, seed: u64, result: &str) -> Value {
        Value::Object(vec![
            ("name".to_string(), Value::String(name.to_string())),
            ("kind".to_string(), Value::String("synthetic".to_string())),
            ("seed".to_string(), Value::U64(seed)),
            ("steps".to_string(), Value::U64(10)),
            ("state".to_string(), Value::String(state.to_string())),
            ("result".to_string(), Value::String(result.to_string())),
            ("attempts".to_string(), Value::U64(seed % 3 + 1)),
        ])
    }

    #[test]
    fn result_lines_are_sorted_and_strip_nondeterminism() {
        // Same completed set, submitted (and listed) in different
        // orders with different attempt counts — identical output.
        let a = vec![
            job("done", "b", 2, "bbbb"),
            job("done", "a", 1, "aaaa"),
            job("cancelled", "z", 9, ""),
        ];
        let b = vec![
            job("done", "a", 1, "aaaa"),
            job("failed", "y", 8, ""),
            job("done", "b", 2, "bbbb"),
        ];
        let la = result_lines(&a);
        assert_eq!(la, result_lines(&b));
        assert_eq!(la.len(), 2);
        assert!(la[0].contains("\"a\"") && la[0].contains("aaaa"));
        assert!(!la[0].contains("attempts"));
    }
}
