//! perfbench — end-to-end and per-layer benchmark of the simulator, the
//! fault-injection campaign and the campaign daemon.
//!
//! ```text
//! perfbench --workload <sweep-cpu|sweep-mem|inject|serve-open> --seed N --seconds S --trace <0|1>
//! perfbench --record-reference
//! ```
//!
//! With `--trace 0` a run prints the end-to-end metrics, with `--trace 1`
//! the per-layer metrics (timing decorators on, plus an untraced pass for
//! the overhead and the bit-for-bit comparison). The last line of
//! standard output is the JSON result; everything above it is a
//! human-readable summary. See `perfbench/README.md`.

mod calib;
mod inject;
mod probes;
mod reference;
mod report;
mod serve;
mod stats;
mod sweep;

use reference::Reference;
use sim_faultinject::SplitMix64;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use sweep::SweepKind;

pub const WORKLOADS: [&str; 4] = ["sweep-cpu", "sweep-mem", "inject", "serve-open"];

const USAGE: &str = "usage: perfbench --workload <sweep-cpu|sweep-mem|inject|serve-open> --seed N --seconds S --trace <0|1>\n       perfbench --record-reference";

/// Seeded Fisher-Yates shuffle.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut rng = SplitMix64::new(seed ^ 0x0b5e_55ed);
    for i in (1..items.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// Run `f`, turning a panic into `None` (logged with `what`).
pub fn guarded<T>(what: &str, f: impl FnOnce() -> T) -> Option<T> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(v) => Some(v),
        Err(_) => {
            eprintln!("perfbench: {what} panicked");
            None
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Re-record both reference files from the current simulator.
fn record_reference() -> ExitCode {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("reference");
    let ctx = experiments::ExperimentContext::new(experiments::ExperimentParams::bench());
    let mut sweep_ref = Reference::default();
    for kind in [SweepKind::Cpu, SweepKind::Mem] {
        for point in kind.points(sweep::MAX_SALTS) {
            let run = sweep::run_point(&ctx, &point, None);
            sweep_ref.insert(point.key(), run.digest);
        }
    }
    let mut inject_ref = Reference::default();
    inject::record(&mut inject_ref);
    let header = "Recorded by `perfbench --record-reference`; one `key digest` line per\nsweep point or campaign. Changing a line means changing simulated results.";
    let write = |name: &str, r: &Reference| std::fs::write(dir.join(name), r.render(header));
    match write("sweep.txt", &sweep_ref).and_then(|_| write("inject.txt", &inject_ref)) {
        Ok(()) => {
            println!(
                "recorded {} sweep points and {} campaign lines into {}",
                sweep_ref.len(),
                inject_ref.len(),
                dir.display()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: writing the reference failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record-reference"] {
        return record_reference();
    }
    let args = match parse_args(argv.into_iter()) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match args.workload.as_str() {
        "sweep-cpu" => sweep::run(SweepKind::Cpu, args.seed, args.seconds, args.trace),
        "sweep-mem" => sweep::run(SweepKind::Mem, args.seed, args.seconds, args.trace),
        "inject" => inject::run(args.seed, args.seconds, args.trace),
        "serve-open" => serve::run(args.seed, args.seconds, args.trace),
        _ => unreachable!("workload validated by parse_args"),
    };
    match outcome.render(args.trace) {
        Ok(text) => {
            println!("{text}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = args("--workload inject --seed 7 --seconds 15 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("inject", 7, 15, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload inject --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload inject --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload inject --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload inject --seconds 1 --trace 0").is_err());
        assert!(args("--workload inject --seed 1 --seconds 1 --trace 0 --extra").is_err());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 3);
        shuffle(&mut b, 3);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 4);
        assert_ne!(a, c);
        a.sort();
        assert_eq!(a, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn guarded_turns_panics_into_none() {
        assert_eq!(guarded("ok", || 3), Some(3));
        assert_eq!(guarded("boom", || -> u32 { panic!("boom") }), None);
    }
}
