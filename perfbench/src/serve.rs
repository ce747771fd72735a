//! The `serve-open` workload: an in-process `sim_serve::Daemon` (default
//! two workers) fed trivial `synthetic` jobs over loopback HTTP by an
//! open-loop generator — one thread, at most [`MAX_CONNECTIONS`]
//! requests in flight, arrivals on a seeded Poisson schedule that never
//! waits for the daemon.
//!
//! Latency runs from when a submission was *due* to when the daemon's
//! scheduler reports the job done. Completion is read in-process from
//! the daemon core (`DaemonCore::status`) on every generator tick, so the
//! HTTP client's 20 ms `wait_job` polling never enters the figure. A
//! refused or shed submission is a miss.
//!
//! The run has two phases:
//!
//! 1. a fixed offered rate of [`FIXED_RATE`] submissions/s — the
//!    latency metrics; a miss here is a failed operation;
//! 2. a rate search for `jobs_per_s` (`serve_max_rate` in the summary):
//!    the highest offered rate whose tail latency stays within
//!    [`TAIL_LIMIT_MS`] with no miss and no growing backlog. Trials of
//!    [`SEARCH_JOBS`] evenly spaced submissions (the same seeded job
//!    mix) start at [`SEARCH_START`]/s and grow
//!    by 1.5x until one fails (or shrink by 1.5x until one passes),
//!    then bisect [`SEARCH_BISECTIONS`] times, leaving a bracket
//!    `[lo, hi]` about 5 % wide. The reported rate interpolates,
//!    linearly in tail latency, where the tail crosses the limit inside
//!    the bracket.

use crate::calib::{Kernel, Scaled};
use crate::report::{peak_rss_mb, Outcome};
use crate::stats::{median, Tail};
use sim_faultinject::SplitMix64;
use sim_serve::{
    Daemon, JobSpec, JobState, Priority, ServeConfig, StepWorkload, WorkCtx, WorkOutput, Workload,
    WorkloadRegistry,
};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const FIXED_RATE: f64 = 50.0;
pub const TAIL_LIMIT_MS: f64 = 50.0;
pub const MAX_CONNECTIONS: usize = 2;
pub const SEARCH_JOBS: usize = 120;
pub const SEARCH_START: f64 = 60.0;
pub const SEARCH_BISECTIONS: u32 = 3;
/// `Daemon::start` takes under a millisecond, so set-up is sampled more
/// often than the simulation workloads' set-up.
const SETUP_REPEATS: usize = 25;
/// Search bounds: a rate above the cap passes as the cap, one below the
/// floor fails as the floor.
const SEARCH_CAP: f64 = 2_000.0;
const SEARCH_FLOOR: f64 = 5.0;
/// How long after its last due time a phase waits for stragglers.
const GRACE: Duration = Duration::from_secs(3);
/// Generator idle tick (upper bound on completion-detection delay).
const TICK: Duration = Duration::from_micros(100);

/// One scheduled submission.
#[derive(Debug, Clone)]
pub struct Arrival {
    /// Offset from the phase start at which the submission is due.
    pub due: Duration,
    pub spec: JobSpec,
    /// Index of the (earlier or same) arrival whose status is read
    /// after this submission is accepted.
    pub status_of: usize,
}

/// How arrivals are spaced in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Spacing {
    /// Exponential gaps: independent users.
    Poisson,
    /// Equal gaps, so a trial's verdict reflects capacity rather than
    /// which bursts the sample happened to draw.
    Even,
}

/// Seeded open-loop schedule at `rate`: priorities 70 % normal / 20 %
/// low / 10 % high, 4..=16 steps, no delay.
pub fn schedule(rng: &mut SplitMix64, rate: f64, n: usize, spacing: Spacing) -> Vec<Arrival> {
    let mut t = 0.0;
    (0..n)
        .map(|i| {
            let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            t += match spacing {
                Spacing::Poisson => -(1.0 - u).ln() / rate,
                Spacing::Even => 1.0 / rate,
            };
            let priority = match rng.below(10) {
                0..=6 => Priority::Normal,
                7 | 8 => Priority::Low,
                _ => Priority::High,
            };
            Arrival {
                due: Duration::from_secs_f64(t),
                spec: JobSpec {
                    name: "perfbench".to_string(),
                    kind: "synthetic".to_string(),
                    seed: rng.next_u64(),
                    steps: 4 + rng.below(13),
                    payload: String::new(),
                    priority,
                },
                status_of: rng.below(i as u64 + 1) as usize,
            }
        })
        .collect()
}

/// Executor start/end per job id, recorded by [`TimedStep`].
type ExecLog = Arc<Mutex<Vec<(u64, Instant, Instant)>>>;

/// Traced-run wrapper around the built-in synthetic executor.
struct TimedStep {
    inner: StepWorkload,
    log: ExecLog,
}

impl Workload for TimedStep {
    fn run(&self, ctx: &WorkCtx<'_>) -> Result<WorkOutput, sim_harness::JobError> {
        let start = Instant::now();
        let out = self.inner.run(ctx);
        let end = Instant::now();
        self.log.lock().unwrap().push((ctx.id, start, end));
        out
    }
}

/// Parent of the daemons' state directories, inside the benchmark's own
/// directory; removed again once empty.
fn state_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join(".state")
}

/// A fresh state directory for one daemon.
fn state_dir(tag: &str) -> PathBuf {
    let dir = state_root().join(format!("serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Stop `daemon` and delete its state directory.
fn discard(daemon: Daemon, dir: &Path) {
    daemon.stop();
    let _ = std::fs::remove_dir_all(dir);
    let _ = std::fs::remove_dir(state_root());
}

fn start_daemon(dir: &Path, exec_log: Option<&ExecLog>) -> Daemon {
    let mut registry = WorkloadRegistry::new();
    match exec_log {
        Some(log) => registry.register(
            "synthetic",
            TimedStep {
                inner: StepWorkload::new(),
                log: Arc::clone(log),
            },
        ),
        None => registry.register("synthetic", StepWorkload::new()),
    }
    Daemon::start(ServeConfig::new(dir), registry).expect("daemon starts")
}

/// One request in flight on its own connection (the daemon answers one
/// request per connection and closes it).
struct Exchange {
    stream: TcpStream,
    buf: Vec<u8>,
    sent: Instant,
    what: Request,
}

#[derive(Clone, Copy)]
enum Request {
    Submit { idx: usize },
    Status,
}

impl Exchange {
    fn send(
        addr: &str,
        method: &str,
        path: &str,
        body: &str,
        what: Request,
    ) -> std::io::Result<Exchange> {
        let sent = Instant::now();
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len()
        );
        stream.write_all(request.as_bytes())?;
        stream.set_nonblocking(true)?;
        Ok(Exchange {
            stream,
            buf: Vec::new(),
            sent,
            what,
        })
    }

    /// Read what has arrived; `Some((status, body))` once the daemon
    /// closed the connection.
    fn poll(&mut self) -> Option<(u16, String)> {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return None,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let text = String::from_utf8_lossy(&self.buf);
        let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&text, ""));
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        Some((status, body.to_string()))
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    Pending,
    Done,
    /// Refused at admission (429) or shed later.
    Missed,
    /// Wrong result, failed state, bad response or never finished.
    Failed,
}

#[derive(Debug, Clone)]
struct Track {
    due: Instant,
    sent: Option<Instant>,
    id: Option<u64>,
    done: Option<Instant>,
    fate: Fate,
}

/// Everything one open-loop phase observed.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Due → done, ms, per completed job.
    pub latency_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    pub submit_rtt_ms: Vec<f64>,
    pub status_rtt_ms: Vec<f64>,
    /// Due → executor start, executor run, executor return → done
    /// visible (traced phases only).
    pub queue_wait_ms: Vec<f64>,
    pub exec_ms: Vec<f64>,
    pub finish_ms: Vec<f64>,
    /// Submissions scheduled.
    pub scheduled: usize,
    pub refused: usize,
    pub shed: usize,
    /// Wrong results, failed states, bad responses, unfinished jobs.
    pub failed: usize,
    pub status_failed: usize,
    /// Median latency over the first and last quarter of arrivals.
    pub first_quarter_ms: f64,
    pub last_quarter_ms: f64,
}

impl Phase {
    pub fn misses(&self) -> usize {
        self.refused + self.shed + self.failed + self.status_failed
    }

    pub fn tail(&self) -> Option<Tail> {
        (!self.latency_ms.is_empty()).then(|| Tail::of_or_max(&self.latency_ms))
    }

    /// Passes the search criterion: no miss, tail within the limit, the
    /// generator kept up, and latency did not climb across the phase.
    pub fn sustained(&self) -> bool {
        let within = |v: &[f64]| !v.is_empty() && Tail::of_or_max(v).value <= TAIL_LIMIT_MS;
        self.misses() == 0
            && within(&self.latency_ms)
            && within(&self.late_ms)
            && self.last_quarter_ms <= 2.0 * self.first_quarter_ms + 5.0
    }
}

/// Drive one open-loop phase against `daemon` and wait for every job.
fn drive(daemon: &Daemon, arrivals: &[Arrival], exec_log: Option<&ExecLog>) -> Phase {
    let addr = daemon.addr().to_string();
    let core = daemon.core();
    let origin = Instant::now() + Duration::from_millis(2);
    let mut tracks: Vec<Track> = arrivals
        .iter()
        .map(|a| Track {
            due: origin + a.due,
            sent: None,
            id: None,
            done: None,
            fate: Fate::Pending,
        })
        .collect();
    let deadline = origin + arrivals.last().map_or(Duration::ZERO, |a| a.due) + GRACE;
    let mut phase = Phase {
        scheduled: arrivals.len(),
        ..Phase::default()
    };
    let mut inflight: Vec<Exchange> = Vec::with_capacity(MAX_CONNECTIONS);
    let mut status_reads: VecDeque<u64> = VecDeque::new();
    let mut pending: Vec<usize> = Vec::new();
    let mut next = 0;

    loop {
        let mut busy = false;
        // Collect answers.
        let mut i = 0;
        while i < inflight.len() {
            let Some((status, body)) = inflight[i].poll() else {
                i += 1;
                continue;
            };
            busy = true;
            let ex = inflight.swap_remove(i);
            let rtt = ex.sent.elapsed().as_secs_f64() * 1e3;
            match ex.what {
                Request::Submit { idx } => {
                    phase.submit_rtt_ms.push(rtt);
                    let id = serde::json::parse(&body)
                        .ok()
                        .and_then(|v| v.get("id").and_then(|v| v.as_u64()));
                    match (status, id) {
                        (202, Some(id)) => {
                            tracks[idx].id = Some(id);
                            pending.push(idx);
                            let other = tracks[arrivals[idx].status_of].id.unwrap_or(id);
                            status_reads.push_back(other);
                        }
                        (429, _) => {
                            tracks[idx].fate = Fate::Missed;
                            phase.refused += 1;
                        }
                        _ => {
                            eprintln!("perfbench: submit answered HTTP {status}: {body}");
                            tracks[idx].fate = Fate::Failed;
                        }
                    }
                }
                Request::Status => {
                    phase.status_rtt_ms.push(rtt);
                    if status != 200 {
                        eprintln!("perfbench: status read answered HTTP {status}");
                        phase.status_failed += 1;
                    }
                }
            }
        }
        let now = Instant::now();
        // Send what is due; a submission goes before a status read.
        if inflight.len() < MAX_CONNECTIONS && next < arrivals.len() && now >= tracks[next].due {
            let body =
                serde::json::to_string(&sim_serve::client::submit_body(&arrivals[next].spec));
            match Exchange::send(&addr, "POST", "/jobs", &body, Request::Submit { idx: next }) {
                Ok(ex) => inflight.push(ex),
                Err(e) => {
                    eprintln!("perfbench: sending a submission failed: {e}");
                    tracks[next].fate = Fate::Failed;
                }
            }
            tracks[next].sent = Some(now);
            next += 1;
            busy = true;
        } else if inflight.len() < MAX_CONNECTIONS {
            if let Some(id) = status_reads.pop_front() {
                match Exchange::send(&addr, "GET", &format!("/jobs/{id}"), "", Request::Status) {
                    Ok(ex) => inflight.push(ex),
                    Err(e) => {
                        eprintln!("perfbench: sending a status read failed: {e}");
                        phase.status_failed += 1;
                    }
                }
                busy = true;
            }
        }
        // Observe completions on the daemon side.
        let seen = Instant::now();
        pending.retain(|&idx| {
            let track = &mut tracks[idx];
            let Some(status) = track.id.and_then(|id| core.status(id)) else {
                return true;
            };
            let spec = &arrivals[idx].spec;
            track.fate = match status.state {
                JobState::Done => {
                    track.done = Some(seen);
                    let want = StepWorkload::expected_result(spec.seed, spec.steps);
                    if status.result.as_deref() == Some(want.as_str()) {
                        Fate::Done
                    } else {
                        eprintln!(
                            "perfbench: job {} result {:?}, want {want}",
                            status.id, status.result
                        );
                        Fate::Failed
                    }
                }
                JobState::Shed => Fate::Missed,
                JobState::Failed | JobState::Cancelled | JobState::Quarantined => Fate::Failed,
                JobState::Queued | JobState::Running | JobState::Preempted => return true,
            };
            if status.state == JobState::Shed {
                phase.shed += 1;
            }
            false
        });

        let finished = next == arrivals.len()
            && inflight.is_empty()
            && status_reads.is_empty()
            && pending.is_empty();
        if finished {
            break;
        }
        if now > deadline {
            eprintln!(
                "perfbench: {} job(s) unfinished {} s after the last due time",
                pending.len() + arrivals.len() - next,
                GRACE.as_secs()
            );
            break;
        }
        if !busy {
            let until_due = tracks
                .get(next)
                .map_or(TICK, |t| t.due.saturating_duration_since(Instant::now()));
            std::thread::sleep(until_due.min(TICK));
        }
    }

    let exec: Vec<(u64, Instant, Instant)> = exec_log
        .map(|log| std::mem::take(&mut *log.lock().unwrap()))
        .unwrap_or_default();
    for track in &tracks {
        match track.fate {
            Fate::Done => {}
            Fate::Pending | Fate::Failed => {
                phase.failed += 1;
                continue;
            }
            Fate::Missed => continue,
        }
        let done = track.done.expect("done jobs have a completion time");
        phase
            .latency_ms
            .push((done - track.due).as_secs_f64() * 1e3);
        if let Some(sent) = track.sent {
            phase.late_ms.push((sent - track.due).as_secs_f64() * 1e3);
        }
        if let Some(&(_, start, end)) = exec.iter().find(|(id, _, _)| Some(*id) == track.id) {
            let ms = |d: Duration| d.as_secs_f64() * 1e3;
            phase
                .queue_wait_ms
                .push(ms(start.saturating_duration_since(track.due)));
            phase.exec_ms.push(ms(end - start));
            phase
                .finish_ms
                .push(ms(done.saturating_duration_since(end)));
        }
    }
    let quarter = (tracks.len() / 4).max(1);
    let quarter_median = |range: &[Track]| {
        let v: Vec<f64> = range
            .iter()
            .filter_map(|t| t.done.map(|d| (d - t.due).as_secs_f64() * 1e3))
            .collect();
        median(&v).unwrap_or(f64::INFINITY)
    };
    phase.first_quarter_ms = quarter_median(&tracks[..quarter]);
    phase.last_quarter_ms = quarter_median(&tracks[tracks.len() - quarter..]);
    phase
}

/// Wait until the daemon has nothing queued or running.
fn settle(daemon: &Daemon) {
    daemon.core().wait_idle(Duration::from_secs(10));
}

/// Rate search; returns the interpolated maximum rate and the trial log.
fn search(daemon: &Daemon, rng: &mut SplitMix64) -> (f64, Vec<String>) {
    let mut log = Vec::new();
    let mut trial = |rate: f64| -> (bool, f64) {
        settle(daemon);
        let phase = drive(
            daemon,
            &schedule(rng, rate, SEARCH_JOBS, Spacing::Even),
            None,
        );
        let tail = phase.tail().map_or(f64::INFINITY, |t| t.value);
        let ok = phase.sustained();
        log.push(format!(
            "  search {rate:.1}/s: tail {tail:.2} ms, misses {}, late tail {:.2} ms, quarters {:.2}->{:.2} ms: {}",
            phase.misses(),
            if phase.late_ms.is_empty() { f64::INFINITY } else { Tail::of_or_max(&phase.late_ms).value },
            phase.first_quarter_ms,
            phase.last_quarter_ms,
            if ok { "sustained" } else { "not sustained" }
        ));
        (ok, tail)
    };

    // Bracket: (lo, tail at lo) passes, (hi, tail at hi) fails.
    let (mut lo, mut hi);
    let (ok, tail) = trial(SEARCH_START);
    if ok {
        lo = (SEARCH_START, tail);
        loop {
            let r = lo.0 * 1.5;
            if r > SEARCH_CAP {
                return (SEARCH_CAP, log);
            }
            let (ok, tail) = trial(r);
            if ok {
                lo = (r, tail);
            } else {
                hi = (r, tail);
                break;
            }
        }
    } else {
        hi = (SEARCH_START, tail);
        loop {
            let r = hi.0 / 1.5;
            if r < SEARCH_FLOOR {
                return (SEARCH_FLOOR, log);
            }
            let (ok, tail) = trial(r);
            if ok {
                lo = (r, tail);
                break;
            }
            hi = (r, tail);
        }
    }
    for _ in 0..SEARCH_BISECTIONS {
        let mid = (lo.0 + hi.0) / 2.0;
        let (ok, tail) = trial(mid);
        if ok {
            lo = (mid, tail);
        } else {
            hi = (mid, tail);
        }
    }
    // Where the tail crosses the limit between lo and hi (a failing
    // trial with an unbounded tail pins the crossing to lo).
    let frac = if hi.1.is_finite() && hi.1 > lo.1 {
        ((TAIL_LIMIT_MS - lo.1) / (hi.1 - lo.1)).clamp(0.0, 1.0)
    } else {
        0.0
    };
    let rate = lo.0 + frac * (hi.0 - lo.0);
    log.push(format!(
        "  bracket [{:.2}, {:.2}]/s, tails {:.2} / {:.2} ms -> {rate:.3}/s",
        lo.0, hi.0, lo.1, hi.1
    ));
    (rate, log)
}

fn fixed_jobs(seconds: u64) -> usize {
    ((FIXED_RATE * seconds as f64 * 0.4).round() as usize).max(20)
}

/// Count a fixed-rate phase's operations: one per submission, failed on
/// any miss or bad result; a failed status read fails the run.
fn account(out: &mut Outcome, phase: &Phase) {
    let bad = (phase.refused + phase.shed + phase.failed) as u64;
    out.attempted += phase.scheduled as u64;
    out.failed += bad;
    if phase.status_failed > 0 {
        out.broken = true;
    }
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut out = Outcome {
        na_reason: "serve-open runs synthetic jobs; the simulator is bypassed".into(),
        ..Outcome::default()
    };
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_0b3e);
    let n = fixed_jobs(seconds);
    let fixed = schedule(&mut rng, FIXED_RATE, n, Spacing::Poisson);
    out.note(format!(
        "workload serve-open: {n} submissions at {FIXED_RATE}/s open loop (seed {seed}), {} workers, one generator thread, <= {MAX_CONNECTIONS} connections",
        ServeConfig::new(".").workers
    ));

    // Set-up: Daemon::start on a fresh state directory. Its thread
    // spawns, file creation and fsyncs slow down with the host like the
    // simulation workloads' set-up, so it is scaled the same way.
    let mut kernel = Kernel::default();
    let mut setup_samples = Vec::new();
    for i in 0..SETUP_REPEATS {
        let dir = state_dir(&format!("setup{i}"));
        let (daemon, raw_s, speed) = kernel.around(|| start_daemon(&dir, None));
        setup_samples.push(Scaled::new(raw_s, speed));
        discard(daemon, &dir);
    }
    let setup_s = median(&setup_samples.iter().map(|s| s.scaled_s).collect::<Vec<_>>());
    let setup_raw_s = median(&setup_samples.iter().map(|s| s.raw_s).collect::<Vec<_>>());

    let dir = state_dir("run");
    let daemon = start_daemon(&dir, None);
    let phase = drive(&daemon, &fixed, None);
    account(&mut out, &phase);
    let untraced_p50 = median(&phase.latency_ms).unwrap_or(0.0);

    if !traced {
        let (rate, log) = search(&daemon, &mut rng);
        discard(daemon, &dir);
        let tail = phase.tail().unwrap_or(Tail {
            value: 0.0,
            percentile: 0.0,
            n: 0,
        });
        out.set("setup_s", setup_s.unwrap_or(0.0));
        out.set("job_p50_ms", untraced_p50);
        out.set("job_tail_ms", tail.value);
        out.set("jobs_per_s", rate);
        out.set("peak_rss_mb", peak_rss_mb().unwrap_or(0.0));
        out.note(format!(
            "setup_s = median of {} Daemon::start calls, scaled to nominal host speed (raw median {} s); latencies and rates are raw",
            setup_samples.len(),
            setup_raw_s.unwrap_or(0.0)
        ));
        out.note(format!(
            "serve_p50_ms = {untraced_p50} ms, serve_tail_ms = {} ms ({tail}), due -> done at {FIXED_RATE}/s",
            tail.value
        ));
        out.note(format!(
            "generator lateness p50 = {} ms; misses at the fixed rate = {} (refused {}, shed {}, failed {})",
            median(&phase.late_ms).unwrap_or(0.0),
            phase.misses(),
            phase.refused,
            phase.shed,
            phase.failed
        ));
        out.note(format!(
            "serve_max_rate = jobs_per_s = {rate} /s (tail <= {TAIL_LIMIT_MS} ms, no miss, no backlog growth)"
        ));
        for line in log {
            out.note(line);
        }
        return out;
    }
    discard(daemon, &dir);

    let exec_log: ExecLog = Arc::default();
    let dir = state_dir("traced");
    let daemon = start_daemon(&dir, Some(&exec_log));
    let traced_phase = drive(&daemon, &fixed, Some(&exec_log));
    account(&mut out, &traced_phase);
    daemon.stop();

    // Recovery: restart over the state directory the run left behind.
    let t = Instant::now();
    let recovered = start_daemon(&dir, None);
    let recovery_s = t.elapsed().as_secs_f64();
    let stats = recovered.core().stats();
    discard(recovered, &dir);
    if stats.recovered_terminal != n as u64 - traced_phase.refused as u64 {
        eprintln!(
            "perfbench: recovery found {} terminal jobs, want {}",
            stats.recovered_terminal,
            n - traced_phase.refused
        );
        out.broken = true;
    }

    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    out.set("sim-serve.submit_rtt_ms", med(&traced_phase.submit_rtt_ms));
    out.set("sim-serve.status_rtt_ms", med(&traced_phase.status_rtt_ms));
    out.set("sim-serve.queue_wait_ms", med(&traced_phase.queue_wait_ms));
    out.set("sim-serve.exec_ms", med(&traced_phase.exec_ms));
    out.set("sim-serve.finish_ms", med(&traced_phase.finish_ms));
    out.set("sim-serve.gen_late_ms", med(&traced_phase.late_ms));
    out.set("sim-serve.rejected", traced_phase.refused as f64);
    out.set("sim-serve.shed", traced_phase.shed as f64);
    out.set("sim-serve.recovery_s", recovery_s);
    let traced_p50 = med(&traced_phase.latency_ms);
    out.set("bench.trace_overhead_s", (traced_p50 - untraced_p50) / 1e3);
    out.note("sim-serve.* times are medians over the traced fixed-rate phase".to_string());
    out.note(format!(
        "tracing overhead = {} s (traced p50 {traced_p50} ms - untraced p50 {untraced_p50} ms, per job)",
        (traced_p50 - untraced_p50) / 1e3
    ));
    out.note(format!(
        "sim-serve.recovery_s: Daemon::start over {} logged jobs",
        stats.recovered_terminal
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_spaced_as_asked() {
        let a = schedule(&mut SplitMix64::new(4), 50.0, 1_000, Spacing::Poisson);
        let b = schedule(&mut SplitMix64::new(4), 50.0, 1_000, Spacing::Poisson);
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.due == y.due && x.spec == y.spec));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().enumerate().all(|(i, x)| x.status_of <= i));
        let span = a.last().unwrap().due.as_secs_f64();
        assert!(
            (15.0..25.0).contains(&span),
            "1000 arrivals at 50/s span {span} s"
        );
        let high = a
            .iter()
            .filter(|x| x.spec.priority == Priority::High)
            .count();
        assert!(
            (50..150).contains(&high),
            "about 10 % high priority, got {high}"
        );

        let even = schedule(&mut SplitMix64::new(4), 100.0, 3, Spacing::Even);
        let dues: Vec<f64> = even.iter().map(|x| x.due.as_secs_f64()).collect();
        assert!(dues
            .iter()
            .zip([0.01, 0.02, 0.03])
            .all(|(d, w)| (d - w).abs() < 1e-9));
    }

    #[test]
    fn sustained_needs_no_miss_a_short_tail_and_a_flat_backlog() {
        let good = Phase {
            scheduled: 20,
            latency_ms: vec![10.0; 20],
            late_ms: vec![0.1; 20],
            first_quarter_ms: 10.0,
            last_quarter_ms: 11.0,
            ..Phase::default()
        };
        assert!(good.sustained());
        let refused = Phase {
            refused: 1,
            ..good.clone()
        };
        assert!(!refused.sustained());
        let slow = Phase {
            latency_ms: vec![60.0; 20],
            ..good.clone()
        };
        assert!(!slow.sustained());
        let growing = Phase {
            last_quarter_ms: 40.0,
            ..good.clone()
        };
        assert!(!growing.sustained());
    }

    #[test]
    fn drive_observes_every_job_done_with_the_expected_result() {
        let dir = state_dir("test-drive");
        let log: ExecLog = Arc::default();
        let daemon = start_daemon(&dir, Some(&log));
        let arrivals = schedule(&mut SplitMix64::new(9), 100.0, 20, Spacing::Poisson);
        let phase = drive(&daemon, &arrivals, Some(&log));
        discard(daemon, &dir);
        assert_eq!(phase.misses(), 0);
        assert_eq!(phase.latency_ms.len(), 20);
        assert_eq!(phase.status_rtt_ms.len(), 20);
        assert_eq!(
            phase.exec_ms.len(),
            20,
            "the executor wrapper saw every job"
        );
        assert!(phase.latency_ms.iter().all(|&ms| ms > 0.0));
    }
}
