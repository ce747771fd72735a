//! VISA — Vulnerable-InStruction-Aware issue (paper Section 2.1).
//!
//! "…gives the ACE instructions higher priority than the un-ACE
//! instructions. Therefore, once there is a ready ACE instruction, it can
//! bypass all the ready-to-execute un-ACE instructions. If there are
//! several ready ACE instructions, they will be issued in the program
//! order. … If the number of ready ACE instructions is less than the
//! number of available issue slots, the ready un-ACE instructions can
//! also be issued in their program order."
//!
//! ACE-ness comes from the decoded 1-bit ISA hint written by the offline
//! profiler (`avf::profiler`); hardware never needs ground truth. Global
//! fetch age serves as program order (within a thread, fetch order *is*
//! program order; across threads it is the conventional age-based
//! tiebreak).

use smt_sim::{IssuePolicy, ReadyInst};

/// The VISA issue-selection policy.
#[derive(Debug, Default, Clone, Copy)]
pub struct VisaIssue;

impl IssuePolicy for VisaIssue {
    fn name(&self) -> &'static str {
        "VISA"
    }

    fn prioritize(&mut self, ready: &mut Vec<ReadyInst>) {
        // ACE first (false < true, so negate), then age. `seq` is unique
        // across threads, so the key is a *total* order: the result is
        // independent of the incoming permutation (the ready list
        // arrives in wakeup-event order) — a replayed seed issues
        // identically. (`sort_unstable` is safe
        // for the same reason: no ties exist for stability to preserve.)
        ready.sort_unstable_by_key(|r| (!r.ace_hint, r.seq));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use micro_isa::OpClass;

    fn ri(seq: u64, ace: bool) -> ReadyInst {
        ReadyInst {
            id: seq as usize,
            seq,
            tid: 0,
            op: OpClass::IAlu,
            ace_hint: ace,
            wrong_path: false,
        }
    }

    #[test]
    fn ace_bypasses_older_unace() {
        let mut v = vec![ri(1, false), ri(2, true), ri(3, false), ri(4, true)];
        VisaIssue.prioritize(&mut v);
        let order: Vec<(u64, bool)> = v.iter().map(|r| (r.seq, r.ace_hint)).collect();
        assert_eq!(order, vec![(2, true), (4, true), (1, false), (3, false)]);
    }

    #[test]
    fn program_order_within_each_class() {
        let mut v = vec![ri(9, true), ri(3, true), ri(7, false), ri(1, false)];
        VisaIssue.prioritize(&mut v);
        let seqs: Vec<u64> = v.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![3, 9, 1, 7]);
    }

    #[test]
    fn all_unace_degrades_to_oldest_first() {
        let mut v = vec![ri(5, false), ri(2, false), ri(8, false)];
        VisaIssue.prioritize(&mut v);
        let seqs: Vec<u64> = v.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![2, 5, 8]);
    }

    #[test]
    fn empty_ready_queue_is_fine() {
        let mut v: Vec<ReadyInst> = Vec::new();
        VisaIssue.prioritize(&mut v);
        assert!(v.is_empty());
    }

    #[test]
    fn selection_is_invariant_to_input_permutation() {
        // The ready list arrives in wakeup-event order, which depends on
        // completion and squash history. Issue selection must
        // not: every permutation of the same ready set has to produce
        // the same priority order, or replayed seeds diverge.
        let base = vec![
            ri(11, false),
            ri(4, true),
            ri(8, true),
            ri(2, false),
            ri(6, true),
        ];
        let mut expect = base.clone();
        VisaIssue.prioritize(&mut expect);
        let expect: Vec<u64> = expect.iter().map(|r| r.seq).collect();
        // Cycle through enough distinct rotations/reversals to cover
        // representative orders without a factorial blowup.
        for rot in 0..base.len() {
            let mut v = base.clone();
            v.rotate_left(rot);
            VisaIssue.prioritize(&mut v);
            assert_eq!(v.iter().map(|r| r.seq).collect::<Vec<_>>(), expect);
            let mut v = base.clone();
            v.rotate_left(rot);
            v.reverse();
            VisaIssue.prioritize(&mut v);
            assert_eq!(v.iter().map(|r| r.seq).collect::<Vec<_>>(), expect);
        }
    }
}
