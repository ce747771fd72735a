//! Coarse wall-clock self-profiling: named phase timers for run
//! manifests and the serializable per-stage totals a profiled run
//! reports.

use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Wall-clock durations of the coarse phases of one experiment run.
/// All values are host seconds (not simulated time).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct PhaseTimings {
    /// Workload generation / program tagging.
    pub generate_s: f64,
    /// Cache/predictor warm-up simulation.
    pub warmup_s: f64,
    /// Measured simulation window.
    pub measure_s: f64,
    /// AVF post-processing and report collection.
    pub collect_s: f64,
}

impl PhaseTimings {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.warmup_s + self.measure_s + self.collect_s
    }

    /// Run `f`, adding its wall-clock time to the named accumulator.
    pub fn time<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let result = f();
        *slot += start.elapsed().as_secs_f64();
        result
    }
}

/// Wall-clock seconds spent in each pipeline stage over a profiled run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct StageSeconds {
    pub commit_s: f64,
    pub writeback_s: f64,
    pub issue_s: f64,
    pub dispatch_s: f64,
    pub fetch_s: f64,
    /// Simulated cycles the profile covers.
    pub profiled_cycles: u64,
}

impl StageSeconds {
    pub fn total_s(&self) -> f64 {
        self.commit_s + self.writeback_s + self.issue_s + self.dispatch_s + self.fetch_s
    }

    /// Accumulate another run's stage totals into this one.
    pub fn add(&mut self, other: &StageSeconds) {
        self.commit_s += other.commit_s;
        self.writeback_s += other.writeback_s;
        self.issue_s += other.issue_s;
        self.dispatch_s += other.dispatch_s;
        self.fetch_s += other.fetch_s;
        self.profiled_cycles += other.profiled_cycles;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_timer_accumulates() {
        let mut timings = PhaseTimings::default();
        let out = PhaseTimings::time(&mut timings.warmup_s, || {
            std::thread::sleep(std::time::Duration::from_millis(2));
            42
        });
        assert_eq!(out, 42);
        assert!(timings.warmup_s > 0.0);
        assert!(timings.total_s() >= timings.warmup_s);
    }

    #[test]
    fn phase_timings_roundtrip_json() {
        let timings = PhaseTimings {
            generate_s: 0.5,
            warmup_s: 1.25,
            measure_s: 3.0,
            collect_s: 0.125,
        };
        let back: PhaseTimings = serde::json::from_str(&serde::json::to_string(&timings)).unwrap();
        assert_eq!(back, timings);
    }

    #[test]
    fn stage_seconds_accumulate_and_roundtrip() {
        let mut sum = StageSeconds::default();
        let one = StageSeconds {
            commit_s: 0.25,
            issue_s: 1.0,
            profiled_cycles: 10,
            ..StageSeconds::default()
        };
        sum.add(&one);
        sum.add(&one);
        assert!((sum.total_s() - 2.5).abs() < 1e-12);
        assert_eq!(sum.profiled_cycles, 20);
        let back: StageSeconds = serde::json::from_str(&serde::json::to_string(&sum)).unwrap();
        assert_eq!(back, sum);
    }
}
