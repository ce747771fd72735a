//! Ablations — the paper's sensitivity analyses for its design constants
//! (DESIGN §6): opt1 IPC-region count, `Tcache_miss`, sampling-interval
//! size, DVM trigger fraction, wq_ratio adaptation, and VISA vs
//! oldest-first issue.
//!
//! Each group varies one knob around the value the paper picked, on the
//! canonical workload of one mix under ICOUNT. Every variant is one
//! `RunVariant` through the shared driver, so each gets a manifest,
//! the context's observers and run-store registration. A variant that
//! holds the paper's value builds the same machine as the matching
//! [`Scheme`] (tested bit for bit below).

use crate::context::ExperimentContext;
use crate::parallel::parallel_map;
use crate::report::Rendered;
use crate::runner::{drive, RunOutcome, RunVariant};
use iq_reliability::{
    DvmController, DvmHandle, DvmMode, DynamicIqAllocator, IplRegionTable,
    L2MissSensitiveAllocator, Scheme, VisaIssue,
};
use sim_stats::Table;
use smt_sim::pipeline::PipelinePolicies;
use smt_sim::{DispatchGovernor, FetchPolicyKind, IssuePolicy, OldestFirst};

/// Absolute IQ AVF target of the DVM groups.
const DVM_TARGET: f64 = 0.15;

/// One ablation variant and its place in the table.
pub struct Case {
    pub group: &'static str,
    pub mix: &'static str,
    /// True for the variant holding the paper's value.
    pub paper: bool,
    variant: RunVariant,
}

impl Case {
    fn run(&self, ctx: &ExperimentContext) -> RunOutcome {
        let mix = workload_gen::mix_by_name(self.mix).expect("standard mix");
        drive(
            ctx,
            &mix,
            &self.variant,
            FetchPolicyKind::Icount,
            0,
            None,
            None,
        )
        .expect("uncheckpointed runs cannot fail")
    }
}

type Governor = (Box<dyn DispatchGovernor>, Option<DvmHandle>);

/// A variant from an issue policy and a governor built per run; DVM
/// governors hand back their telemetry handle too.
fn variant(
    label: &'static str,
    visa: bool,
    governor: impl Fn(usize) -> Governor + Send + Sync + 'static,
) -> RunVariant {
    RunVariant {
        label,
        policies: Box::new(move |fetch: FetchPolicyKind, iq_size| {
            let issue: Box<dyn IssuePolicy> = match visa {
                true => Box::new(VisaIssue),
                false => Box::new(OldestFirst),
            };
            let (governor, handle) = governor(iq_size);
            let fetch = fetch.build();
            (
                PipelinePolicies {
                    fetch,
                    issue,
                    governor,
                },
                handle,
            )
        }),
        interval_cycles: smt_sim::DEFAULT_INTERVAL_CYCLES,
    }
}

/// One group's cases; `pick` indexes the variant holding the paper's
/// value.
fn group(name: &'static str, mix: &'static str, pick: usize, v: Vec<RunVariant>) -> Vec<Case> {
    let case = |(i, variant)| Case {
        group: name,
        mix,
        paper: i == pick,
        variant,
    };
    v.into_iter().enumerate().map(case).collect()
}

fn cases() -> Vec<Case> {
    let regions = |label, n| {
        variant(label, true, move |iq| {
            let table = match n {
                4 => IplRegionTable::figure3(),
                _ => IplRegionTable::even_regions(n, 8.0),
            };
            (Box::new(DynamicIqAllocator::new(table, iq)), None)
        })
    };
    let opt2 = |label, tcache_miss| {
        variant(label, true, move |iq| {
            let table = IplRegionTable::figure3();
            let opt2 = L2MissSensitiveAllocator::new(table, iq, tcache_miss);
            (Box::new(opt2), None)
        })
    };
    let interval = |label, cycles| RunVariant {
        interval_cycles: cycles,
        ..opt2(label, iq_reliability::opt2::DEFAULT_TCACHE_MISS)
    };
    let dvm = |label, mode, trigger| {
        variant(label, false, move |_| {
            let dvm = DvmController::with_params(DVM_TARGET, mode, trigger, 5, 10_000, 50);
            let handle = dvm.handle();
            (Box::new(dvm), Some(handle))
        })
    };
    let dynamic = DvmMode::DynamicRatio;
    let static_ratio = DvmMode::StaticRatio;
    [
        group(
            "opt1 IPC regions",
            "MIX-A",
            1,
            vec![
                regions("opt1, 2 regions", 2),
                regions("opt1, 4 regions", 4),
                regions("opt1, 8 regions", 8),
            ],
        ),
        group(
            "Tcache_miss",
            "MEM-A",
            1,
            vec![
                opt2("opt2, Tcache_miss 4", 4),
                opt2("opt2, Tcache_miss 16", 16),
                opt2("opt2, Tcache_miss 64", 64),
            ],
        ),
        group(
            "interval size",
            "MIX-B",
            1,
            vec![
                interval("opt2, 1K-cycle interval", 1_000),
                interval("opt2, 10K-cycle interval", 10_000),
                interval("opt2, 100K-cycle interval", 100_000),
            ],
        ),
        group(
            "DVM trigger",
            "MEM-B",
            1,
            vec![
                dvm("DVM, trigger 0.8", dynamic, 0.8),
                dvm("DVM, trigger 0.9", dynamic, 0.9),
                dvm("DVM, trigger 0.95", dynamic, 0.95),
            ],
        ),
        group(
            "wq_ratio",
            "MIX-C",
            0,
            vec![
                dvm("DVM, dynamic ratio", dynamic, 0.9),
                dvm("DVM, static ratio 1", static_ratio(1.0), 0.9),
                dvm("DVM, static ratio 4", static_ratio(4.0), 0.9),
            ],
        ),
        group(
            "issue policy",
            "CPU-A",
            1,
            vec![Scheme::Baseline.into(), Scheme::Visa.into()],
        ),
    ]
    .into_iter()
    .flatten()
    .collect()
}

/// Run every variant of every group, in table order.
pub fn run(ctx: &ExperimentContext) -> Vec<(Case, RunOutcome)> {
    let cases = cases();
    let outcomes = parallel_map(cases.iter().collect(), |case: &&Case| case.run(ctx));
    cases.into_iter().zip(outcomes).collect()
}

pub fn render(rows: &[(Case, RunOutcome)]) -> Rendered {
    let mut t = Table::new(vec![
        "ablation",
        "mix",
        "variant",
        "paper",
        "IQ AVF",
        "IPC",
        "harmonic IPC",
    ]);
    for (case, out) in rows {
        t.row(vec![
            case.group.to_string(),
            case.mix.to_string(),
            out.scheme.to_string(),
            if case.paper { "*" } else { "" }.to_string(),
            format!("{:.3}", out.avf.iq_avf),
            format!("{:.2}", out.throughput_ipc),
            format!("{:.3}", out.harmonic_ipc),
        ]);
    }
    Rendered::new(
        "Ablations: sensitivity of the paper's design constants (ICOUNT, canonical workloads)",
        t,
    )
    .note("* = the value the paper picks; DVM groups hold an absolute IQ AVF target of 0.15")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::ExperimentParams;
    use crate::runner::run_scheme;

    /// A variant holding the paper's value must build the machine the
    /// matching scheme builds: same commits, IQ AVF and IPC, bit for bit.
    #[test]
    fn paper_valued_variants_reproduce_their_schemes() {
        let ctx = ExperimentContext::new(ExperimentParams {
            warmup_insts: 40_000,
            run_cycles: 40_000,
            ..ExperimentParams::fast()
        });
        let dvm_static = Scheme::DvmStatic {
            target: DVM_TARGET,
            ratio: 1.0,
        };
        let twins = [
            ("opt1, 4 regions", Scheme::VisaOpt1),
            ("opt2, Tcache_miss 16", Scheme::VisaOpt2),
            ("opt2, 10K-cycle interval", Scheme::VisaOpt2),
            (
                "DVM, trigger 0.9",
                Scheme::DvmDynamic { target: DVM_TARGET },
            ),
            ("DVM, static ratio 1", dvm_static),
        ];
        let cases = cases();
        for (label, scheme) in twins {
            let case = cases.iter().find(|c| c.variant.label == label).unwrap();
            let ablated = case.run(&ctx);
            let mix = workload_gen::mix_by_name(case.mix).unwrap();
            let reference = run_scheme(&ctx, &mix, scheme, FetchPolicyKind::Icount);
            assert_eq!(
                ablated.stats.committed_per_thread, reference.stats.committed_per_thread,
                "{label}"
            );
            assert_eq!(
                ablated.avf.iq_avf.to_bits(),
                reference.avf.iq_avf.to_bits(),
                "{label}"
            );
            assert_eq!(
                ablated.throughput_ipc.to_bits(),
                reference.throughput_ipc.to_bits(),
                "{label}"
            );
            assert_eq!(ablated.dvm_avg_ratio, reference.dvm_avg_ratio, "{label}");
        }
    }

    #[test]
    fn groups_mark_one_paper_value_each_and_labels_are_unique() {
        let cases = cases();
        let mut groups: Vec<&str> = cases.iter().map(|c| c.group).collect();
        groups.dedup();
        assert_eq!(groups.len(), 6, "{groups:?}");
        for group in groups {
            let picks = cases.iter().filter(|c| c.group == group && c.paper);
            assert_eq!(picks.count(), 1, "{group}");
        }
        let mut labels: Vec<&str> = cases.iter().map(|c| c.variant.label).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), cases.len(), "duplicate variant label");
        for case in &cases {
            assert!(
                workload_gen::mix_by_name(case.mix).is_some(),
                "{}",
                case.mix
            );
        }
    }
}
