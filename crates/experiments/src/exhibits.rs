//! Exhibit catalog: every table and figure the CLI can regenerate.
//!
//! One table is the single source of truth for three CLI concerns that
//! used to be able to drift apart: up-front name validation, the
//! `--list` output, and the dispatch into each exhibit's runner. A test
//! walks the catalog and checks it against [`DEFAULT_ORDER`], so adding
//! an exhibit in one place but not the other fails in CI rather than at
//! the end of a long campaign.

use crate::context::ExperimentContext;
use crate::report::Rendered;
use crate::{ablations, fig1, fig10, fig2, fig5, fig6, fig8, table1, table2, table3};
use smt_sim::FetchPolicyKind;

/// One runnable exhibit: CLI name, one-line description, runner.
pub struct Exhibit {
    pub name: &'static str,
    pub description: &'static str,
    run: fn(&ExperimentContext) -> Vec<Rendered>,
}

impl Exhibit {
    /// Regenerate this exhibit under the context's budget.
    pub fn run(&self, ctx: &ExperimentContext) -> Vec<Rendered> {
        (self.run)(ctx)
    }
}

/// Every exhibit, in paper order.
pub const EXHIBITS: [Exhibit; 11] = [
    Exhibit {
        name: "table1",
        description: "PC-based ACE identification accuracy per benchmark",
        run: |ctx| vec![table1::render(&table1::run(ctx))],
    },
    Exhibit {
        name: "table2",
        description: "simulated machine configuration",
        run: |ctx| vec![table2::render(&ctx.machine)],
    },
    Exhibit {
        name: "table3",
        description: "the nine SMT workload mixes",
        run: |_ctx| vec![table3::render()],
    },
    Exhibit {
        name: "fig1",
        description: "per-structure AVF profile (IQ/ROB/RF/FU) by workload group",
        run: |ctx| vec![fig1::render(&fig1::run(ctx))],
    },
    Exhibit {
        name: "fig2",
        description: "ready-queue-length histogram + per-length ACE share (CPU-A)",
        run: |ctx| vec![fig2::render(&fig2::run(ctx))],
    },
    Exhibit {
        name: "fig5",
        description: "normalized IQ AVF and throughput IPC of VISA/+opt1/+opt2 (ICOUNT)",
        run: |ctx| vec![fig5::render(&fig5::run(ctx))],
    },
    Exhibit {
        name: "fig6",
        description: "VISA/+opt1/+opt2 under STALL/FLUSH/DG/PDG baselines",
        run: |ctx| fig6::render(&fig6::run(ctx)),
    },
    Exhibit {
        name: "fig8",
        description: "DVM PVE and performance at 0.7-0.3 x MaxIQ_AVF (ICOUNT)",
        run: |ctx| vec![fig8::render(&fig8::run(ctx))],
    },
    Exhibit {
        name: "fig9",
        description: "DVM PVE and performance at 0.7-0.3 x MaxIQ_AVF (FLUSH)",
        run: |ctx| {
            vec![fig8::render(&fig8::run_with_fetch(
                ctx,
                FetchPolicyKind::Flush,
            ))]
        },
    },
    Exhibit {
        name: "fig10",
        description: "PVE comparison of all schemes at every threshold",
        run: |ctx| vec![fig10::render(&fig10::run(ctx))],
    },
    Exhibit {
        name: "ablations",
        description: "sensitivity of the design constants: opt1 regions, Tcache_miss, interval, DVM trigger, wq_ratio, VISA",
        run: |ctx| vec![ablations::render(&ablations::run(ctx))],
    },
];

/// The order `all` runs in: cheap static tables first (table2/table3
/// render without simulating), then the simulation campaign, then the
/// ablations.
pub const DEFAULT_ORDER: [&str; 11] = [
    "table2",
    "table3",
    "table1",
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig8",
    "fig9",
    "fig10",
    "ablations",
];

/// Look an exhibit up by CLI name.
pub fn find(name: &str) -> Option<&'static Exhibit> {
    EXHIBITS.iter().find(|e| e.name == name)
}

/// The `--list` text: one aligned `name  description` line per exhibit.
pub fn list_text() -> String {
    let width = EXHIBITS.iter().map(|e| e.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for e in &EXHIBITS {
        out.push_str(&format!("{:width$}  {}\n", e.name, e.description));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique_and_dispatchable() {
        for e in &EXHIBITS {
            assert!(find(e.name).is_some(), "{} must dispatch", e.name);
            assert!(!e.description.is_empty(), "{} needs a description", e.name);
        }
        let mut names: Vec<_> = EXHIBITS.iter().map(|e| e.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), EXHIBITS.len(), "duplicate exhibit name");
    }

    #[test]
    fn default_order_covers_the_catalog_exactly() {
        let mut order = DEFAULT_ORDER.to_vec();
        let mut names: Vec<_> = EXHIBITS.iter().map(|e| e.name).collect();
        order.sort_unstable();
        names.sort_unstable();
        assert_eq!(order, names);
    }

    #[test]
    fn unknown_names_do_not_dispatch() {
        assert!(find("fig3").is_none());
        assert!(find("all").is_none(), "'all' is CLI sugar, not an exhibit");
        assert!(find("").is_none());
    }

    #[test]
    fn list_text_mentions_every_exhibit_once() {
        let text = list_text();
        assert_eq!(text.lines().count(), EXHIBITS.len());
        for e in &EXHIBITS {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(e.name))
                .unwrap_or_else(|| panic!("{} missing from --list", e.name));
            assert!(line.contains(e.description));
        }
    }

    #[test]
    fn static_exhibits_render_without_simulating() {
        use crate::context::ExperimentParams;
        let ctx = ExperimentContext::new(ExperimentParams::fast());
        for name in ["table2", "table3"] {
            let rendered = find(name).unwrap().run(&ctx);
            assert_eq!(rendered.len(), 1);
            assert!(!rendered[0].to_text().is_empty());
        }
    }
}
