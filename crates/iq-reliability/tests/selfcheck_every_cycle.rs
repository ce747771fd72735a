//! The `--selfcheck` invariant sweep, run after *every* cycle of every
//! evaluated scheme under ICOUNT, FLUSH and PDG. The sweep
//! recounts the pipeline's derived wakeup/select state (IQ slot index,
//! consumer lists, ready list, executing counters) from scratch, so any
//! event the incremental bookkeeping misses — dispatch, wakeup, issue,
//! writeback, misprediction squash, FLUSH rollback, governor stalls —
//! fails here on the cycle it happens. One select-critical IQ fault is
//! injected mid-run so an `inhibit_issue` entry sits in the queue for
//! the second half.

use iq_reliability::Scheme;
use smt_sim::layout::IQ_ENTRY_BITS;
use smt_sim::{
    iq_bit_class, AppliedFault, FetchPolicyKind, InjectableState, IqBitClass, MachineConfig,
    NullObserver, Pipeline,
};
use std::sync::Arc;
use workload_gen::{generate_program_salted, model_by_name};

const CYCLES: u64 = 20_000;
const INJECT_AT: u64 = CYCLES / 2;

fn build(scheme: Scheme, fetch: FetchPolicyKind, salt: u64) -> Pipeline {
    let cfg = MachineConfig::table2();
    let programs = ["mcf", "gcc", "equake", "vpr"]
        .iter()
        .map(|n| Arc::new(generate_program_salted(&model_by_name(n).unwrap(), salt)))
        .collect();
    let (policies, _) = scheme.policies(fetch, cfg.iq_size);
    Pipeline::new(cfg, programs, policies)
}

/// Inhibit the first not-yet-issued IQ occupant; `false` if none waits.
fn inhibit_one(p: &mut Pipeline) -> bool {
    let bit = (0..IQ_ENTRY_BITS)
        .find(|&b| iq_bit_class(b) == IqBitClass::SelectCritical)
        .unwrap();
    let entries = p.iq_state().entries();
    let Some(entry) =
        (0..entries).find(|&e| matches!(p.iq_state().occupant(e), Some(o) if !o.issued))
    else {
        return false;
    };
    matches!(
        p.inject_iq_bit(entry, bit),
        AppliedFault::RetireCritical {
            inhibited: true,
            ..
        }
    )
}

fn check_every_cycle(scheme: Scheme, fetch: FetchPolicyKind, salt: u64) {
    let mut p = build(scheme, fetch, salt);
    let mut injected = false;
    for _ in 0..CYCLES {
        p.step(&mut NullObserver);
        if !injected && p.cycle() >= INJECT_AT {
            injected = inhibit_one(&mut p);
        }
        if let Err(e) = p.check_invariants() {
            panic!("{} / {}: {e}", scheme.label(), fetch.label());
        }
    }
    assert!(
        injected,
        "{} / {}: no waiting IQ entry to inhibit",
        scheme.label(),
        fetch.label()
    );
}

#[test]
fn derived_state_matches_recount_every_cycle_for_every_scheme() {
    let schemes = [
        Scheme::Baseline,
        Scheme::Visa,
        Scheme::VisaOpt1,
        Scheme::VisaOpt2,
        Scheme::DvmDynamic { target: 0.15 },
    ];
    let fetches = [
        FetchPolicyKind::Icount,
        FetchPolicyKind::Flush,
        FetchPolicyKind::Pdg,
    ];
    for (i, &scheme) in schemes.iter().enumerate() {
        for (j, &fetch) in fetches.iter().enumerate() {
            check_every_cycle(scheme, fetch, (i * fetches.len() + j) as u64);
        }
    }
}
