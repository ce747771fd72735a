//! Regression-gate math shared by the `bench-baseline --check-baseline`
//! comparator and the `sim-report` cross-run diff engine.
//!
//! One definition of "significant drift" keeps the two tools consistent:
//! on simulated metrics a report diff flags exactly the deltas the
//! baseline gate would fail on. All three gates compare [`SeedSummary`]
//! aggregates, so recorded seed noise widens the gates instead of
//! tripping them:
//!
//! * [`metric_regresses`] — two-sided: relative drift beyond tolerance
//!   *and* beyond the combined CI95 half-widths (both tools);
//! * [`wall_time_regresses`] — one-sided on the means only (host timing
//!   CIs are too volatile to gate on; getting faster is never a
//!   regression; `report --diff` only);
//! * [`throughput_regresses`] — one-sided drop beyond tolerance *and*
//!   beyond the combined CI95s (`report --diff` only).

use crate::aggregate::SeedSummary;

/// One-sided wall-time gate: the current mean may exceed baseline by
/// 15 %.
pub const WALL_TIME_TOLERANCE: f64 = 0.15;

/// One-sided simulator-throughput gate: the current mean cycles/s may
/// fall at most 15 % below baseline (and only counts as a regression
/// when the drop also exceeds the combined CI95s).
pub const THROUGHPUT_TOLERANCE: f64 = 0.15;

/// Two-sided simulation-metric gate: 2 % relative drift.
pub const METRIC_TOLERANCE: f64 = 0.02;

/// Signed drift of `cur` relative to `base`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Drift {
    /// `cur.mean - base.mean` (positive = current is larger).
    pub delta: f64,
    /// `delta` relative to `|base.mean|` (guarded against a zero base).
    pub rel: f64,
    /// Sum of the two CI95 half-widths — the seed-noise envelope a
    /// drift must clear before it counts.
    pub combined_ci95: f64,
}

/// The signed drift between two summaries, with the combined noise
/// envelope. `diff(A, B).delta == -diff(B, A).delta` by construction
/// (the relative drift is only antisymmetric up to the change of
/// denominator).
pub fn drift(base: &SeedSummary, cur: &SeedSummary) -> Drift {
    let delta = cur.mean - base.mean;
    let scale = base.mean.abs().max(1e-9);
    Drift {
        delta,
        rel: delta / scale,
        combined_ci95: base.ci95 + cur.ci95,
    }
}

/// Two-sided metric gate: drift beyond `tolerance` in either direction
/// *and* beyond the combined CI95 half-widths. `None` means the drift
/// is within tolerance or indistinguishable from seed noise.
pub fn metric_regresses(base: &SeedSummary, cur: &SeedSummary, tolerance: f64) -> Option<Drift> {
    let d = drift(base, cur);
    if d.rel.abs() > tolerance && d.delta.abs() > d.combined_ci95 {
        Some(d)
    } else {
        None
    }
}

/// One-sided wall-time gate, means only: only a slowdown beyond
/// `tolerance` regresses; speedups always pass.
pub fn wall_time_regresses(base: &SeedSummary, cur: &SeedSummary, tolerance: f64) -> Option<Drift> {
    let d = drift(base, cur);
    if d.rel > tolerance {
        Some(d)
    } else {
        None
    }
}

/// One-sided throughput gate: only a drop beyond `tolerance` that also
/// exceeds the combined CI95s regresses; speedups always pass.
pub fn throughput_regresses(
    base: &SeedSummary,
    cur: &SeedSummary,
    tolerance: f64,
) -> Option<Drift> {
    let d = drift(base, cur);
    if d.rel < -tolerance && -d.delta > d.combined_ci95 {
        Some(d)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(mean: f64, ci95: f64) -> SeedSummary {
        SeedSummary {
            n: 3,
            mean,
            stddev: ci95 / 2.0,
            ci95,
        }
    }

    #[test]
    fn drift_is_signed_and_delta_antisymmetric() {
        let a = summary(10.0, 0.5);
        let b = summary(12.0, 0.5);
        let ab = drift(&a, &b);
        let ba = drift(&b, &a);
        assert_eq!(ab.delta, 2.0);
        assert_eq!(ab.delta, -ba.delta);
        assert!((ab.rel - 0.2).abs() < 1e-12);
        assert_eq!(ab.combined_ci95, 1.0);
    }

    #[test]
    fn zero_base_does_not_divide_by_zero() {
        let d = drift(&summary(0.0, 0.0), &summary(1.0, 0.0));
        assert!(d.rel.is_finite());
    }

    #[test]
    fn metric_gate_needs_both_tolerance_and_ci_excess() {
        let base = summary(3.0, 0.01);
        // 1% drift: inside tolerance.
        assert!(metric_regresses(&base, &summary(3.03, 0.01), METRIC_TOLERANCE).is_none());
        // 10% drift, huge CIs: noise.
        let wide = summary(3.0, 0.4);
        assert!(metric_regresses(&wide, &summary(3.3, 0.4), METRIC_TOLERANCE).is_none());
        // 10% drift, tight CIs: regression in both directions.
        assert!(metric_regresses(&base, &summary(2.7, 0.01), METRIC_TOLERANCE).is_some());
        assert!(metric_regresses(&base, &summary(3.3, 0.01), METRIC_TOLERANCE).is_some());
    }

    #[test]
    fn wall_time_gate_is_one_sided_on_means() {
        let base = summary(10.0, 0.5);
        assert!(wall_time_regresses(&base, &summary(2.0, 0.1), WALL_TIME_TOLERANCE).is_none());
        assert!(wall_time_regresses(&base, &summary(11.0, 0.1), WALL_TIME_TOLERANCE).is_none());
        let d = wall_time_regresses(&base, &summary(12.0, 0.1), WALL_TIME_TOLERANCE).unwrap();
        assert!(d.rel > 0.15);
    }

    #[test]
    fn throughput_gate_is_one_sided_and_ci_widened() {
        let base = summary(120_000.0, 2_000.0);
        // Speedup: passes.
        assert!(
            throughput_regresses(&base, &summary(200_000.0, 2_000.0), THROUGHPUT_TOLERANCE)
                .is_none()
        );
        // 10% drop: inside tolerance.
        assert!(
            throughput_regresses(&base, &summary(108_000.0, 2_000.0), THROUGHPUT_TOLERANCE)
                .is_none()
        );
        // 20% drop but huge CIs: host noise.
        let noisy = summary(120_000.0, 30_000.0);
        assert!(
            throughput_regresses(&noisy, &summary(96_000.0, 2_000.0), THROUGHPUT_TOLERANCE)
                .is_none()
        );
        // 20% drop with tight CIs: regression.
        assert!(
            throughput_regresses(&base, &summary(96_000.0, 1_000.0), THROUGHPUT_TOLERANCE)
                .is_some()
        );
    }
}
