//! Figure 2 — ready-queue-length histogram and ACE-instruction share.
//!
//! For the 4-context CPU workload (bzip2, eon, gcc, perlbmk) on the
//! 96-entry IQ, 8-wide machine: the probability distribution of the
//! ready-queue length per cycle, annotated with the mean ACE share of
//! the ready instructions at each length. The paper's observations:
//! a hill-shaped distribution, abundant (> issue width) ready
//! instructions in ~90 % of cycles, and a ~60 % ACE share — the
//! headroom VISA issue exploits.

use crate::context::ExperimentContext;
use crate::report::Rendered;
use crate::runner::run_scheme;
use iq_reliability::Scheme;
use sim_stats::Table;
use smt_sim::{FetchPolicyKind, SimStats};

pub struct Fig2Result {
    pub stats: SimStats,
}

pub fn run(ctx: &ExperimentContext) -> Fig2Result {
    let mix = workload_gen::mix_by_name("CPU-A").expect("CPU-A mix");
    let outcome = run_scheme(ctx, &mix, Scheme::Baseline, FetchPolicyKind::Icount);
    Fig2Result {
        stats: outcome.stats,
    }
}

pub fn render(result: &Fig2Result) -> Rendered {
    let hist = &result.stats.ready_queue_hist;
    let mut t = Table::new(vec![
        "ready-queue length",
        "% of cycles",
        "ACE share of ready insts",
    ]);
    let max = hist.histogram().max_value().unwrap_or(0);
    // The paper plots every length; bucket in fours to keep the text
    // table readable without losing the hill shape.
    let mut b = 0usize;
    while b <= max {
        let hi = (b + 3).min(max);
        let mut frac = 0.0;
        let (mut num, mut den) = (0.0f64, 0.0f64);
        for v in b..=hi {
            frac += hist.histogram().fraction(v);
            if let Some(c) = hist.companion(v) {
                // Weight by bucket mass.
                let w = hist.histogram().count(v) as f64;
                num += c * w;
                den += w;
            }
        }
        let ace = if den > 0.0 {
            format!("{:.0}%", 100.0 * num / den)
        } else {
            "-".to_string()
        };
        t.row(vec![
            format!("{b}..={hi}"),
            format!("{:.1}%", frac * 100.0),
            ace,
        ]);
        b = hi + 1;
    }
    let below9 = hist.histogram().fraction_below(9);
    let overall = hist.companion_overall().unwrap_or(0.0);
    Rendered::new(
        "Figure 2: ready-queue length histogram + ACE share (CPU-A, 96-entry IQ, width 8)",
        t,
    )
    .note(format!(
        "mean RQL = {:.1}, mode = {:?}, max = {:?}",
        hist.histogram().mean(),
        hist.histogram().mode(),
        hist.histogram().max_value()
    ))
    .note(format!(
        "cycles with RQL < 9 (issue width + 1): {:.0}% — paper reports 10%",
        below9 * 100.0
    ))
    .note(format!(
        "overall ACE share among ready instructions: {:.0}% — paper reports ~60%",
        overall * 100.0
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{ExperimentContext, ExperimentParams};
    use smt_sim::{NullObserver, Pipeline, SimLimits};

    #[test]
    fn hill_shape_and_abundant_ready_instructions() {
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        let result = run(&ctx);
        let hist = &result.stats.ready_queue_hist;
        // Abundance: most cycles have more ready instructions than the
        // 8-wide issue stage can drain.
        assert!(
            hist.histogram().fraction_below(9) < 0.5,
            "ready queue too short: {:.2} below 9",
            hist.histogram().fraction_below(9)
        );
        // ACE share is substantial once hints are installed. (Measured
        // ~25-40% here vs the paper's ~60% — our synthetic ready queue
        // skews toward un-ACE entries because dead-code instructions are
        // ready immediately while ACE chains wait; see EXPERIMENTS.md.)
        let ace = hist.companion_overall().unwrap_or(0.0);
        assert!(ace > 0.15, "ACE share {ace}");
        let text = render(&result).to_text();
        assert!(text.contains("Figure 2"));
    }

    /// The census comes from an AVF-observed run; observers never
    /// change the simulation, so it matches an unobserved run's.
    #[test]
    fn census_matches_an_unobserved_run() {
        let ctx = ExperimentContext::new(ExperimentParams {
            warmup_insts: 40_000,
            run_cycles: 40_000,
            ..ExperimentParams::fast()
        });
        let observed = run(&ctx).stats;
        let mix = workload_gen::mix_by_name("CPU-A").unwrap();
        let (policies, _) = Scheme::Baseline.policies(FetchPolicyKind::Icount, ctx.machine.iq_size);
        let mut pipeline = Pipeline::new(ctx.machine.clone(), ctx.mix_programs(&mix), policies);
        pipeline.warm_up(ctx.params.warmup_insts);
        let plain = pipeline
            .run(SimLimits::cycles(ctx.params.run_cycles), &mut NullObserver)
            .stats;
        assert_eq!(observed.committed_per_thread, plain.committed_per_thread);
        assert_eq!(
            format!("{:?}", observed.ready_queue_hist),
            format!("{:?}", plain.ready_queue_hist)
        );
    }
}
